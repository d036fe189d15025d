import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compfeat
from compfeat import oracle, propagation
from compfeat.cli import main
from compfeat.data import (
    Column,
    Dataset,
    FeatureSchema,
    load_csv,
    load_schema,
    save_schema,
    synthesize_cf,
    write_csv,
)
from compfeat.metrics import score_cf
from compfeat.oracle import make_bank_like
from compfeat.propagation import EstimationResult, run_comp, run_proposed

SEEDS = (0, 1, 2)
SMALL = ("--k", "8", "--T", "5")


@pytest.fixture
def bank_csv(tmp_path):
    """A make_bank_like(60) CSV and its schema; returns the common CLI flags."""
    ds, _ = make_bank_like(60, seed=0)
    data, schema = tmp_path / "data.csv", tmp_path / "data.schema"
    write_csv(ds, data)
    save_schema(ds.schema, schema)
    return ["--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "out")]


@pytest.fixture
def graph_builds(monkeypatch):
    """Counts every graph built through ``propagation.build_graph``."""
    calls = []
    build = propagation.build_graph

    def counting(enc, k):
        calls.append(k)
        return build(enc, k)

    monkeypatch.setattr(propagation, "build_graph", counting)
    return calls


def seed_dataset(flags, seed, max_n=0):
    """The per-seed dataset, derived here without the CLI helpers."""
    paths = dict(zip(flags[::2], flags[1::2]))
    ds = synthesize_cf(load_csv(paths["--data"], load_schema(paths["--schema"])), seed)
    if max_n:
        keep = np.sort(np.random.default_rng(seed).choice(ds.n, size=max_n, replace=False))
        ds = ds.subset(keep)
    return ds


def out_file(flags, name):
    return os.path.join(flags[flags.index("--out") + 1], name)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_predict_creates_output_directory(tmp_path):
    ds, _ = make_bank_like(80, seed=0)
    data, schema = tmp_path / "data.csv", tmp_path / "data.schema"
    write_csv(ds, data)
    save_schema(ds.schema, schema)
    out = tmp_path / "fresh" / "out"
    code = main(["predict", "--mode", "ord", "--data", str(data), "--schema", str(schema),
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    assert os.path.exists(out / "prediction_ord.json")


def test_readers_of_estimates_do_not_import_orjson(bank_csv):
    """Only writing an estimate file imports orjson; evaluate and predict
    read with the standard library's json, whose peak RSS is lower."""
    assert main(["estimate", "--seed", "0", *SMALL, *bank_csv]) == 0
    code = ("import sys\n"
            "from compfeat.cli import main\n"
            f"assert main(['evaluate', '--seed', '0', *{bank_csv!r}]) == 0\n"
            f"assert main(['predict', '--mode', 'hard', '--seed', '0', *{bank_csv!r}]) == 0\n"
            "assert 'orjson' not in sys.modules\n")
    src = str(Path(compfeat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quantitative_extremes_whose_difference_overflows(tmp_path):
    """A quantitative column holding 1.7e308 and -1.7e308, whose
    difference overflows, still encodes to finite values: every method,
    evaluate and the ord predictor succeed without a RuntimeWarning."""
    ds, _ = make_bank_like(60, seed=0)
    j = next(i for i, c in enumerate(ds.schema.of_columns) if c.kind == "quantitative")
    col = np.array(ds.of_values[j])
    col[:2] = (1.7e308, -1.7e308)
    ds = dataclasses.replace(ds, of_values=(*ds.of_values[:j], col, *ds.of_values[j + 1:]))
    write_csv(ds, tmp_path / "d.csv")
    save_schema(ds.schema, tmp_path / "d.schema")
    flags = ["--data", str(tmp_path / "d.csv"), "--schema", str(tmp_path / "d.schema"),
             "--out", str(tmp_path / "out"), "--seed", "0", *SMALL]
    for method in ("proposed", "ipal", "comp"):
        assert main(["estimate", "--method", method, *flags]) == 0
    assert main(["evaluate", *flags]) == 0
    assert main(["predict", "--mode", "ord", *flags]) == 0


class TestEstimateOnly:
    def test_excluded_cfs_keep_the_baseline(self, bank_csv):
        """CFs outside --estimate-only keep run_comp's confidences and hard
        estimates bit for bit; the named CF keeps run_proposed's."""
        assert main(["estimate", "--estimate-only", "job", "--seed", "0,1", *SMALL,
                     *bank_csv]) == 0
        for seed in (0, 1):
            ds = seed_dataset(bank_csv, seed)
            proposed = run_proposed(ds, T=5, k=8, gamma=0.25)
            comp = run_comp(ds, seed)
            got = EstimationResult.load(out_file(bank_csv, f"estimate_proposed_seed{seed}.json"))
            assert got.hyperparams["estimate_only"] == ["job"]
            for j, name in enumerate(got.cf_names):
                want = proposed if name == "job" else comp
                np.testing.assert_array_equal(got.block(j), want.block(j))
                np.testing.assert_array_equal(got.hard_estimates[:, j],
                                              want.hard_estimates[:, j])

    @pytest.mark.parametrize("command", [
        ["prepare"], ["estimate", *SMALL], ["evaluate"], ["predict", "--mode", "ord"],
        ["sweep", "--axis", "T", "--values", "2", *SMALL],
    ], ids=["prepare", "estimate", "evaluate", "predict", "sweep"])
    def test_unknown_name_rejected_before_any_graph(self, bank_csv, monkeypatch, capsys,
                                                    command):
        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was built before estimate_only was checked")

        monkeypatch.setattr(propagation, "build_graph", no_graph)
        assert main([*command, "--estimate-only", "job,colour", *bank_csv]) == 2
        assert "colour" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--method", "comp"], ["--method", "ipal", "--estimate-only", "job"],
    ], ids=["comp", "ipal_job_only"])
    def test_sweep_point_scores_the_estimate(self, bank_csv, flags):
        """A sweep point scores what ``estimate`` writes for the same
        configuration: sweep honours --method and --estimate-only."""
        common = ["--seed", "0,1", *SMALL, *flags, *bank_csv]
        assert main(["estimate", *common]) == 0
        assert main(["sweep", "--axis", "T", "--values", "5", *common]) == 0
        accs = []
        for seed in (0, 1):
            ds = seed_dataset(bank_csv, seed)
            res = EstimationResult.load(out_file(bank_csv, f"estimate_{flags[1]}_seed{seed}.json"))
            accs.append(float(np.mean([s.acc for s in score_cf(res, ds.cf_truth)])))
        (point,) = read_json(out_file(bank_csv, "sweep_T.json"))["curve"]
        assert point["mean_acc"] == float(np.mean(accs))


class TestRoundOneReuse:
    @pytest.mark.parametrize("max_n, builds", [(0, 1 + len(SEEDS)), (40, 2 * len(SEEDS))])
    def test_estimate_matches_per_seed_runs(self, bank_csv, graph_builds, max_n, builds):
        """Without subsampling the seeds share one round-1 graph; with it
        each seed builds its own.  Either way every file equals a
        ``run_proposed`` call that builds both of its graphs itself."""
        seeds = ",".join(map(str, SEEDS))
        args = ["estimate", "--seed", seeds, "--max-n", str(max_n), *SMALL, *bank_csv]
        assert main(args) == 0
        assert len(graph_builds) == builds
        for seed in SEEDS:
            ds = seed_dataset(bank_csv, seed, max_n)
            expected = run_proposed(ds, T=5, k=8, gamma=0.25)
            got = EstimationResult.load(out_file(bank_csv, f"estimate_proposed_seed{seed}.json"))
            np.testing.assert_array_equal(got.hard_estimates, expected.hard_estimates)
            np.testing.assert_array_equal(got.confidences, expected.confidences)

    def test_sweep_gamma_curve_matches_per_seed_runs(self, bank_csv, graph_builds):
        gammas = (0.0, 0.5)
        args = ["sweep", "--axis", "gamma", "--values", "0,0.5", "--seed", "0,1", *SMALL,
                *bank_csv]
        assert main(args) == 0
        assert len(graph_builds) == 1 + len(gammas) * 2
        curve = read_json(out_file(bank_csv, "sweep_gamma.json"))["curve"]
        for point, gamma in zip(curve, gammas, strict=True):
            accs = []
            for seed in (0, 1):
                ds = seed_dataset(bank_csv, seed)
                res = run_proposed(ds, T=5, k=8, gamma=gamma)
                accs.append(float(np.mean([s.acc for s in score_cf(res, ds.cf_truth)])))
            assert point["mean_acc"] == float(np.mean(accs))
            assert point["std_acc"] == float(np.std(accs))


class TestExitCodes:
    PIPELINE = (
        (["prepare"], "manifest.json"),
        (["estimate", *SMALL], None),
        (["evaluate"], "evaluation.json"),
        (["predict", "--mode", "soft"], "prediction_soft.json"),
        (["sweep", "--axis", "T", "--values", "2,4", "--k", "8"], "sweep_T.json"),
    )

    def test_pipeline_succeeds_with_identical_hashes(self, bank_csv):
        """Two runs give the same report hashes and byte-identical estimate files."""
        runs = []
        for _ in range(2):
            run = {}
            for command, report in self.PIPELINE:
                assert main([*command, "--seed", "0,1", *bank_csv]) == 0
                if report:
                    run[report] = read_json(out_file(bank_csv, report))["content_hash"]
                else:
                    for seed in (0, 1):
                        name = f"estimate_proposed_seed{seed}.json"
                        with open(out_file(bank_csv, name), "rb") as fh:
                            run[name] = fh.read()
            runs.append(run)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command", [
        ["estimate", "--T", "0"],
        ["estimate", "--gamma", "1.5"],
        ["sweep", "--axis", "alpha", "--values", "0.5"],
        ["sweep", "--axis", "k", "--values", "five"],
        ["sweep", "--axis", "gamma", "--values", "1.5"],
        ["sweep", "--axis", "T", "--values", "0"],
        ["sweep", "--axis", "k", "--values", "0"],
    ])
    def test_configuration_errors_exit_2(self, bank_csv, command):
        assert main([*command, *bank_csv]) == 2

    @pytest.mark.parametrize("command, line", [
        (["estimate"], "colour = blue"),
        (["oracle"], "oracle_monotone_instances = 2"),
        (["oracle"], "oracle_bound_instances = 2"),
        (["predict", "--mode", "ord", "--seed", "-1"], ""),
        (["estimate", "--max-n", "30", "--seed", "-1"], ""),
        (["predict", "--mode", "ord"], "l2 = nan"),
        (["predict", "--mode", "ord"], "l2 = inf"),
        (["estimate", *SMALL], "l2 = -1"),
        (["predict", "--mode", "ord"], "epochs = 0"),
        (["predict", "--mode", "ord"], "epochs = -5"),
        (["oracle"], "oracle_equivalence_instances = -3"),
        (["oracle"], "oracle_equivalence_instances = 0"),
        (["oracle"], "oracle_slack = nan"),
        (["oracle"], "oracle_slack = -1"),
        (["estimate", "--max-n", "30", "--seed", str(2**64)], ""),
        (["estimate"], f"k = {2**64}"),
    ], ids=["unknown_key", "oracle_monotone_instances", "oracle_bound_instances",
            "predict_seed", "estimate_seed", "l2_nan", "l2_inf", "l2_negative", "epochs_0",
            "epochs_negative", "instances_negative", "instances_0", "slack_nan",
            "slack_negative", "seed_over_64_bits", "k_over_64_bits"])
    def test_bad_config_line_exits_2(self, bank_csv, tmp_path, capsys, command, line):
        """Rejected with exit 2 when the config loads, not with a traceback."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main([*command, "--config", str(cfg), *bank_csv]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_data_errors_exit_3(self, bank_csv, tmp_path):
        missing = list(bank_csv)
        missing[1] = str(tmp_path / "absent.csv")
        assert main(["estimate", *missing]) == 3
        assert main(["evaluate", *bank_csv]) == 3
        assert main(["predict", "--mode", "soft", *bank_csv]) == 3

    @pytest.mark.parametrize("flag, code, kind", [
        ("--data", 3, "data error:"), ("--schema", 3, "data error:"),
        ("--config", 2, "configuration error:"),
    ])
    def test_non_utf8_file_exits_typed(self, bank_csv, tmp_path, capsys, flag, code, kind):
        """A file that is not UTF-8 is named in a typed error, not a traceback."""
        path = tmp_path / "latin.txt"
        path.write_bytes(b"\xff\xfex = 1\n")
        assert main(["estimate", *SMALL, *bank_csv, flag, str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith(kind) and str(path) in err

    def test_csv_reader_error_exits_3(self, bank_csv, capsys):
        """A cell over the csv module's field size limit is a data error
        naming the row, not a raw ``_csv.Error``."""
        path = bank_csv[1]
        with open(path, encoding="utf-8") as fh:
            header, first, *rest = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + '"' + "x" * 200_000 + '",' + first + "".join(rest))
        assert main(["prepare", *bank_csv]) == 3
        assert capsys.readouterr().err.startswith("data error: row 0 (line 2)")

    @pytest.mark.parametrize("rows", [0, 1])
    def test_source_without_two_rows_exits_3(self, tmp_path, capsys, rows):
        ds, _ = make_bank_like(60, seed=0)
        write_csv(ds.subset(np.arange(rows)), tmp_path / "d.csv")
        save_schema(ds.schema, tmp_path / "d.schema")
        flags = ["--data", str(tmp_path / "d.csv"), "--schema", str(tmp_path / "d.schema"),
                 "--out", str(tmp_path / "out"), *SMALL]
        for command in (["prepare"], ["estimate"], ["estimate", "--method", "ipal"],
                        ["estimate", "--method", "comp"], ["evaluate"],
                        ["predict", "--mode", "ord"], ["sweep", "--axis", "T", "--values", "2"]):
            capsys.readouterr()
            assert main([*command, *flags]) == 3, command
            assert "at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda text: text[: len(text) // 2],               # truncated JSON
        lambda text: '{"method": "proposed"}',             # required keys missing
        lambda text: text.replace('"job"', '"occupation"'),  # CF names off the schema
        lambda text: re.sub(r'"hard_estimates":\[\[\d+', '"hard_estimates":[[99', text),
        lambda text: re.sub(r'"hard_estimates":\[\[\d+', '"hard_estimates":[[1.5', text),
        lambda text: re.sub(r'"hard_estimates":\[\[\d+', '"hard_estimates":[[true', text),
        # estimated from other inputs
        lambda text: re.sub(r'"input_hash":"[0-9a-f]{64}"', '"input_hash":"' + "0" * 64 + '"', text),
    ], ids=["truncated", "keys_missing", "cf_renamed", "code_out_of_range", "code_not_integer",
           "code_is_bool", "hash_mismatch"])
    @pytest.mark.parametrize("command", [
        ["evaluate"], ["predict", "--mode", "soft"], ["predict", "--mode", "hard"],
    ], ids=["evaluate", "predict_soft", "predict_hard"])
    def test_malformed_estimate_file_exits_3(self, bank_csv, capsys, corrupt, command):
        assert main(["estimate", "--seed", "0", *SMALL, *bank_csv]) == 0
        path = out_file(bank_csv, "estimate_proposed_seed0.json")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(corrupt(text))
        capsys.readouterr()
        assert main([*command, "--seed", "0", *bank_csv]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {path}")

    def test_schema_without_cfs_exits_3(self, tmp_path, capsys):
        schema = FeatureSchema((Column("x0", "quantitative", "OF"),
                                Column("y", "binary", "label", ("n", "p"))))
        ds = Dataset(schema=schema, of_values=(np.linspace(0.0, 1.0, 10),),
                     labels=np.tile([1, 2], 5), cf_truth=np.zeros((10, 0), dtype=np.int64))
        write_csv(ds, tmp_path / "d.csv")
        save_schema(schema, tmp_path / "d.schema")
        for method in ("proposed", "ipal"):
            assert main(["estimate", "--method", method, "--k", "3", "--T", "2",
                         "--data", str(tmp_path / "d.csv"),
                         "--schema", str(tmp_path / "d.schema"),
                         "--out", str(tmp_path / "out")]) == 3
            assert "no CF columns" in capsys.readouterr().err

    def test_schema_without_cfs_comp_pipeline(self, tmp_path):
        """The comp baseline handles a schema without CFs, and its files,
        with zero-width confidences, load for evaluate and predict."""
        schema = FeatureSchema((Column("x0", "quantitative", "OF"),
                                Column("y", "binary", "label", ("n", "p"))))
        ds = Dataset(schema=schema, of_values=(np.linspace(0.0, 1.0, 10),),
                     labels=np.tile([1, 2], 5), cf_truth=np.zeros((10, 0), dtype=np.int64))
        write_csv(ds, tmp_path / "d.csv")
        save_schema(schema, tmp_path / "d.schema")
        flags = ["--method", "comp", "--data", str(tmp_path / "d.csv"),
                 "--schema", str(tmp_path / "d.schema"), "--out", str(tmp_path / "out")]
        for command in (["estimate"], ["evaluate"], ["predict", "--mode", "soft"]):
            assert main([*command, *flags]) == 0

    def test_oracle_reports_one_check(self, tmp_path):
        assert main(["oracle", "--out", str(tmp_path / "out")]) == 0
        report = read_json(tmp_path / "out" / "oracle_report.json")
        (check,) = report["checks"]
        assert check["name"] == "joint-marginal equivalence"
        assert (check["instances"], check["tolerance"], check["failure_count"]) == (200, 1e-10, 0)
        assert report["passed"]

    def test_verification_failure_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oracle, "propagate_step",
                            lambda graph, q: 2.0 * propagation.propagate_step(graph, q))
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("oracle_equivalence_instances = 2\n")
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
