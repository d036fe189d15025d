import argparse
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest

import compfeat
from compfeat import cli
from compfeat import data as data_mod
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
from compfeat.propagation import EstimationResult, run_comp, run_ipal, run_proposed

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
    """The per-seed dataset, derived here without the CLI helpers: a
    ``max_n`` subset keeps the rows of the ``max_n`` smallest keys under
    ``STREAM_SUBSAMPLE``, in row order."""
    paths = dict(zip(flags[::2], flags[1::2]))
    ds = synthesize_cf(load_csv(paths["--data"], load_schema(paths["--schema"])), seed)
    if max_n:
        keys = data_mod._row_keys(seed, np.arange(ds.n), data_mod.STREAM_SUBSAMPLE)
        ds = ds.subset(np.sort(np.argsort(keys)[:max_n]))
    return ds


def out_file(flags, name):
    return os.path.join(flags[flags.index("--out") + 1], name)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rewrite_npz(data, **edits):
    """The estimate archive ``data`` with each named array replaced by
    ``edit(array)``; an edit that returns None drops the array."""
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays.update((name, edit(arrays[name])) for name, edit in edits.items())
    buf = io.BytesIO()
    np.savez(buf, **{name: a for name, a in arrays.items() if a is not None})
    return buf.getvalue()


def rewrite_meta(data, edit):
    return rewrite_npz(data, meta=lambda m: np.array(json.dumps(edit(json.loads(m.item())))))


def central_directory_edit(offset, value):
    """Sets the 2-byte field at ``offset`` in the archive's first central
    directory entry, leaving every other byte as it was."""
    def corrupt(data):
        at = data.index(b"PK\x01\x02") + offset
        return data[:at] + value.to_bytes(2, "little") + data[at + 2:]
    return corrupt


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
    """Only writing an estimate file imports orjson, for its JSON export;
    evaluate and predict read the .npz archive."""
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


def test_commands_but_oracle_do_not_import_numpy_random(bank_csv):
    """Splits and max_n subsets are counter-based draws, so no command
    but oracle imports numpy.random; nor does any import compfeat.oracle."""
    seeds, flags = ["--seed", "0,1"], [*SMALL, *bank_csv]
    commands = [["prepare", *seeds, *bank_csv], ["prepare", *seeds, "--max-n", "40", *bank_csv],
                ["estimate", *seeds, *flags], ["evaluate", *seeds, *flags],
                ["predict", *seeds, *flags],
                ["sweep", *seeds, "--max-n", "40", "--axis", "T", "--values", "2,3", *flags]]
    code = ("import sys\n"
            "from compfeat.cli import main\n"
            + "".join(f"assert main({command!r}) == 0\n" for command in commands)
            + "assert 'numpy.random' not in sys.modules\n"
            + "assert 'compfeat.oracle' not in sys.modules\n")
    src = str(Path(compfeat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


def test_max_n_subset_of_ten_rows():
    """The max_n subset is pinned: seed 7 keeps the 4 rows that come first
    in ``seeded_order(7, 10, STREAM_SUBSAMPLE)``, in row order."""
    schema = FeatureSchema((Column("x0", "quantitative", "OF"),
                            Column("s", "categorical", "CF", ("a", "b", "c")),
                            Column("y", "binary", "label", ("n", "p"))))
    source = Dataset(schema=schema, of_values=(np.arange(10.0),), labels=np.tile([1, 2], 5),
                     cf_truth=np.ones((10, 1), dtype=np.int64))
    ds = cli.experiment_dataset(cli.ExperimentConfig(max_n=4), source, seed=7)
    assert ds.of_values[0].tolist() == [0.0, 6.0, 7.0, 8.0]
    np.testing.assert_array_equal(data_mod.seeded_order(7, 10, data_mod.STREAM_SUBSAMPLE),
                                  [7, 8, 6, 0, 3, 5, 9, 2, 1, 4])


def test_predict_holds_one_seed_at_a_time(bank_csv, monkeypatch):
    """A seed's result and design are dead by the time the next seed's
    assemble runs."""
    assert main(["estimate", "--seed", "0,1,2", *SMALL, *bank_csv]) == 0
    refs = []
    assemble = cli.assemble

    def recording(ds, mode, result=None):
        assert all(ref() is None for ref in refs)
        design = assemble(ds, mode, result=result)
        refs.extend((weakref.ref(result), weakref.ref(design)))
        return design

    monkeypatch.setattr(cli, "assemble", recording)
    assert main(["predict", "--seed", "0,1,2", *bank_csv]) == 0
    assert len(refs) == 6


@pytest.fixture(scope="module")
def comp_estimate_20000(tmp_path_factory):
    """A make_bank_like(20000) CSV, its schema and its seed-0 comp
    estimate; returns the predict config without its mode."""
    tmp = tmp_path_factory.mktemp("bank20000")
    ds, _ = make_bank_like(20_000, seed=0)
    data, schema = str(tmp / "data.csv"), str(tmp / "data.schema")
    write_csv(ds, data)
    save_schema(ds.schema, schema)
    flags = ["--data", data, "--schema", schema, "--out", str(tmp / "out"), "--method", "comp"]
    assert main(["estimate", "--seed", "0", *flags]) == 0
    return cli.ExperimentConfig(data=data, schema=schema, out=str(tmp / "out"), method="comp")


@pytest.mark.parametrize("mode", cli.MODES)
def test_predict_seed_memory_is_a_small_multiple_of_the_design(comp_estimate_20000, mode):
    """On 20,000 rows, a seed's traced peak stays within 2.7x the design's
    bytes (2.17-2.60x measured): the design is built in place, only its
    train and test rows outlive the split, and training copies neither.
    Training beside the whole design and a separate one-hot block took
    2.76-3.13x; training through a ones-augmented copy, 2.26x for ord."""
    cfg = dataclasses.replace(comp_estimate_20000, mode=mode)
    source = cli.load_source(cfg)
    design_bytes = cli.assemble(cli.experiment_dataset(cfg, source, 0), "comp").nbytes
    tracemalloc.start()
    try:
        cli.predict_seed(cfg, source, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.7 * design_bytes


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
            got = EstimationResult.load(out_file(bank_csv, f"estimate_proposed_seed{seed}.npz"))
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

    @pytest.mark.parametrize("method", ["comp", "proposed"])
    def test_run_comp_runs_once_per_seed(self, bank_csv, monkeypatch, method):
        """Under --estimate-only, ``estimate`` runs comp once per seed:
        under --method comp its result is the excluded CFs' baseline, and
        a graph method runs it for that baseline alone."""
        calls = []
        monkeypatch.setattr(cli, "run_comp",
                            lambda ds, seed: calls.append(seed) or run_comp(ds, seed))
        assert main(["estimate", "--method", method, "--estimate-only", "job",
                     "--seed", "0,1", *SMALL, *bank_csv]) == 0
        assert calls == [0, 1]

    @pytest.mark.parametrize("flags", [
        ["--method", "comp"], ["--method", "ipal", "--estimate-only", "job"],
    ], ids=["comp", "ipal_job_only"])
    def test_sweep_point_scores_the_estimate(self, bank_csv, capsys, flags):
        """A sweep point scores what ``estimate`` writes for the same
        configuration: sweep honours --method and --estimate-only.  comp
        depends on none of T, k and gamma, so a comp sweep is refused as a
        configuration error and writes no curve."""
        common = ["--seed", "0,1", *SMALL, *flags, *bank_csv]
        assert main(["estimate", *common]) == 0
        sweep = main(["sweep", "--axis", "T", "--values", "5", *common])
        if flags[1] == "comp":
            assert sweep == 2
            assert "comp" in capsys.readouterr().err
            assert not [f for f in os.listdir(out_file(bank_csv, "")) if f.startswith("sweep_T")]
            return
        assert sweep == 0
        accs = []
        for seed in (0, 1):
            ds = seed_dataset(bank_csv, seed)
            res = EstimationResult.load(out_file(bank_csv, f"estimate_{flags[1]}_seed{seed}.npz"))
            accs.append(float(np.mean([s.acc for s in score_cf(res, ds.cf_truth)])))
        (point,) = read_json(out_file(bank_csv, "sweep_T.json"))["curve"]
        assert point["mean_acc"] == float(np.mean(accs))


class TestPrepare:
    @staticmethod
    def write_source(ds, tmp_path):
        data, schema_path = tmp_path / "source.csv", tmp_path / "source.schema"
        write_csv(ds, data)
        save_schema(ds.schema, schema_path)
        return ["--data", str(data), "--schema", str(schema_path), "--out", str(tmp_path / "out")]

    @staticmethod
    def awkward_source():
        """make_bank_like(60) with a CF vocabulary entry holding a comma and
        a double quote, and a quantitative OF holding float extremes."""
        ds, _ = make_bank_like(60, seed=0)
        cf = ds.schema.cf_columns[0]
        vocab = ('admin, "senior"', *cf.vocabulary[1:])
        schema = FeatureSchema(tuple(dataclasses.replace(c, vocabulary=vocab) if c is cf else c
                                     for c in ds.schema.columns))
        j = next(i for i, c in enumerate(schema.of_columns) if c.kind == "quantitative")
        col = np.array(ds.of_values[j])
        col[:4] = (-0.0, 5e-324, 1e16, 1.7e308)
        return dataclasses.replace(ds, schema=schema,
                                   of_values=(*ds.of_values[:j], col, *ds.of_values[j + 1:]))

    @staticmethod
    def no_cf_source():
        """make_bank_like(60) without its CF columns."""
        ds, _ = make_bank_like(60, seed=0)
        schema = FeatureSchema(tuple(c for c in ds.schema.columns if c.role != "CF"))
        return Dataset(schema, ds.of_values, ds.labels, cf_truth=np.zeros((ds.n, 0), np.int64))

    @staticmethod
    def empty_value_source():
        """make_bank_like(60) with one CF, whose first vocabulary entry is
        the empty string."""
        ds, _ = make_bank_like(60, seed=0)
        cf = ds.schema.cf_columns[0]
        schema = FeatureSchema(tuple(
            dataclasses.replace(c, vocabulary=("", *c.vocabulary[1:])) if c is cf else c
            for c in ds.schema.columns if c.role != "CF" or c is cf))
        return Dataset(schema, ds.of_values, ds.labels, cf_truth=ds.cf_truth[:, :1])

    @pytest.mark.parametrize("max_n, source", [
        (0, "bank"), (40, "bank"), (0, "awkward"), (0, "no_cf"), (40, "no_cf"),
        (0, "empty_value"), (40, "empty_value"),
    ], ids=["all_rows", "max_n", "awkward_source", "no_cf", "no_cf_max_n", "empty_value",
            "empty_value_max_n"])
    def test_files_equal_per_seed_write_csv(self, bank_csv, tmp_path, max_n, source):
        """Each prepared CSV has the bytes of ``write_csv`` on that seed's
        dataset, whether or not the seeds share their source columns.  A
        schema without CFs has no observed columns to join, and an
        observed cell holding the empty string is one empty field of a
        row, not the ``""`` that ``csv.writer`` writes for a row of one
        empty field."""
        sources = {"awkward": self.awkward_source, "no_cf": self.no_cf_source,
                   "empty_value": self.empty_value_source}
        flags = bank_csv if source == "bank" else self.write_source(sources[source](), tmp_path)
        seeds = ",".join(map(str, SEEDS))
        assert main(["prepare", "--seed", seeds, "--max-n", str(max_n), *flags]) == 0
        manifest = read_json(out_file(flags, "manifest.json"))
        for seed in SEEDS:
            ds = seed_dataset(flags, seed, max_n)
            want = tmp_path / f"want{seed}.csv"
            write_csv(ds, want, observed_columns=True)
            name = f"prepared_seed{seed}.csv"
            got = Path(out_file(flags, name)).read_bytes()
            assert got == want.read_bytes()
            assert manifest["files"][name]["n"] == ds.n
            assert got.count(b"\r\n") == ds.n + 1
            if source == "empty_value":
                assert (ds.cf_observed == 1).any()
                assert b'""' not in got
        if source == "awkward":
            assert b'"admin, ""senior"""' in got

    @pytest.mark.parametrize("max_n", [0, 40], ids=["all_rows", "max_n"])
    def test_manifest_hashes_the_bytes_on_disk(self, tmp_path, max_n):
        """Every SHA-256 in ``manifest.json``, each prepared file's and
        the source's and schema's, is ``hashlib.sha256`` of the file's
        bytes, for a source whose vocabulary needs quoting."""
        flags = self.write_source(self.awkward_source(), tmp_path)
        assert main(["prepare", "--seed", ",".join(map(str, SEEDS)), "--max-n", str(max_n),
                     *flags]) == 0
        manifest = read_json(out_file(flags, "manifest.json"))

        def sha256(path):
            return hashlib.sha256(Path(path).read_bytes()).hexdigest()

        assert sorted(manifest["files"]) == [f"prepared_seed{seed}.csv" for seed in SEEDS]
        for name, entry in manifest["files"].items():
            assert entry["sha256"] == sha256(out_file(flags, name))
        paths = dict(zip(flags[::2], flags[1::2]))
        assert manifest["source_sha256"] == sha256(paths["--data"])
        assert manifest["schema_sha256"] == sha256(paths["--schema"])

    @pytest.mark.parametrize("max_n, renders", [(0, 1), (40, len(SEEDS))])
    def test_shared_rows_rendered_once(self, bank_csv, monkeypatch, max_n, renders):
        """With three seeds and no max_n, the source columns' rows are
        rendered once per command; with max_n, each seed renders its own.
        Each seed renders its observed columns' rows."""
        calls = []

        def counting(ds, observed=False):
            calls.append(observed)
            return data_mod.format_rows(ds, observed)

        monkeypatch.setattr(cli, "format_rows", counting)
        seeds = ",".join(map(str, SEEDS))
        assert main(["prepare", "--seed", seeds, "--max-n", str(max_n), *bank_csv]) == 0
        assert calls.count(False) == renders
        assert calls.count(True) == len(SEEDS)

    def test_shared_columns_formatted_once(self, bank_csv, monkeypatch):
        """With three seeds and no max_n, each quantitative source column
        is formatted once and each observed column once per seed."""
        counts = {}
        cell_text = data_mod._cell_text

        def counting(arr, col):
            counts[col.name] = counts.get(col.name, 0) + 1
            return cell_text(arr, col)

        monkeypatch.setattr(data_mod, "_cell_text", counting)
        assert main(["prepare", "--seed", ",".join(map(str, SEEDS)), *bank_csv]) == 0
        schema = load_schema(bank_csv[3])
        quantitative = [c.name for c in schema.columns if c.kind == "quantitative"]
        assert quantitative
        assert all(counts[name] == 1 for name in quantitative)
        # A CF column's cells are formatted once as truth, then once per seed as observations.
        assert all(counts[c.name] == 1 + len(SEEDS) for c in schema.cf_columns)


class TestRoundOneReuse:
    @pytest.mark.parametrize("max_n, builds", [(0, 1 + len(SEEDS)), (40, 2 * len(SEEDS))])
    def test_estimate_matches_per_seed_runs(self, bank_csv, graph_builds, max_n, builds):
        """Without subsampling the seeds share one round-1 graph; with it
        each seed builds its own.  Either way the seeds run stacked, and
        every file has the bytes of a ``run_proposed`` call that builds
        both of its graphs itself."""
        seeds = ",".join(map(str, SEEDS))
        args = ["estimate", "--seed", seeds, "--max-n", str(max_n), *SMALL, *bank_csv]
        assert main(args) == 0
        assert len(graph_builds) == builds
        for seed in SEEDS:
            ds = seed_dataset(bank_csv, seed, max_n)
            expected = run_proposed(ds, T=5, k=8, gamma=0.25)
            got = EstimationResult.load(out_file(bank_csv, f"estimate_proposed_seed{seed}.npz"))
            assert got.hard_estimates.tobytes() == expected.hard_estimates.tobytes()
            assert got.confidences.tobytes() == expected.confidences.tobytes()

    @pytest.mark.parametrize("stack_rows", [None, 100], ids=["stacked", "budget_100"])
    @pytest.mark.parametrize("max_n", [0, 40])
    @pytest.mark.parametrize("method", ["proposed", "ipal"])
    def test_joint_run_writes_the_files_of_single_seed_runs(self, bank_csv, tmp_path,
                                                            monkeypatch, method, max_n,
                                                            stack_rows):
        """``--seed 0,1`` stacks both seeds; its files have the bytes of
        the ``--seed 0`` and ``--seed 1`` runs' files.  So do they under a
        budget of 100 rows, which runs the 60-row seeds one at a time and
        stacks the 40-row ones."""
        if stack_rows:
            monkeypatch.setattr(propagation, "_STACK_ROWS", stack_rows)
        common = ["estimate", "--method", method, "--max-n", str(max_n), *SMALL, *bank_csv]
        assert main([*common, "--seed", "0,1"]) == 0
        for seed in (0, 1):
            single = str(tmp_path / f"single{seed}")
            assert main([*common, "--seed", str(seed), "--out", single]) == 0
            for suffix in ("npz", "json"):
                name = f"estimate_{method}_seed{seed}.{suffix}"
                joint = Path(out_file(bank_csv, name)).read_bytes()
                assert joint == (Path(single) / name).read_bytes()

    @pytest.mark.parametrize("method, max_n, builds_per_seed", [
        ("proposed", 0, 1), ("proposed", 40, 2), ("ipal", 40, 1)])
    def test_each_seed_written_and_freed_before_the_next_runs(self, bank_csv, monkeypatch,
                                                              method, max_n, builds_per_seed):
        """With a budget of 1 row each seed runs alone.  Whenever a later
        seed builds a graph, every earlier seed's file is on disk and its
        EstimationResult is dead: estimate saves each result as it arrives
        and holds none while the next seed runs."""
        monkeypatch.setattr(propagation, "_STACK_ROWS", 1)
        saved, checks = [], []
        save, build = EstimationResult.save, propagation.build_graph

        def recording_save(result, path, extra=None):
            save(result, path, extra)
            saved.append((path, weakref.ref(result)))

        def checking_build(x, k):
            checks.append((len(saved), all(os.path.exists(path) and ref() is None
                                           for path, ref in saved)))
            return build(x, k)

        monkeypatch.setattr(EstimationResult, "save", recording_save)
        monkeypatch.setattr(propagation, "build_graph", checking_build)
        args = ["estimate", "--method", method, "--max-n", str(max_n), "--seed", "0,1,2"]
        assert main([*args, *SMALL, *bank_csv]) == 0
        shared = [(0, True)] if max_n == 0 else []
        assert checks == shared + [(s, True) for s in SEEDS for _ in range(builds_per_seed)]
        assert len(saved) == len(SEEDS)

    @pytest.mark.parametrize("max_n", [0, 40])
    @pytest.mark.parametrize("axis, values", [("gamma", "0,0.5"), ("T", "5,2,3"), ("k", "8,5,8")],
                             ids=["gamma", "T", "k"])
    @pytest.mark.parametrize("method", ["proposed", "ipal"])
    def test_sweep_curve_matches_per_seed_runs(self, bank_csv, monkeypatch, method, axis,
                                               values, max_n):
        """The points of a sweep share round-1 graphs and steps, yet each
        scores results with the bits of per-seed ``run_proposed`` or
        ``run_ipal`` calls at that point, whatever the axis and the order
        of its values."""
        scored, score = [], cli.score_cf
        monkeypatch.setattr(cli, "score_cf",
                            lambda result, truth: scored.append(result) or score(result, truth))
        args = ["sweep", "--method", method, "--axis", axis, "--values", values, "--seed", "0,1",
                "--max-n", str(max_n), *SMALL, *bank_csv]
        assert main(args) == 0
        curve = read_json(out_file(bank_csv, f"sweep_{axis}.json"))["curve"]
        assert len(curve) == len(values.split(",")) and len(scored) == 2 * len(curve)
        for p, point in enumerate(curve):
            params = {"T": 5, "k": 8, "gamma": 0.25, axis: point["value"]}
            accs = []
            for seed, res in zip((0, 1), scored[2 * p:2 * p + 2], strict=True):
                ds = seed_dataset(bank_csv, seed, max_n)
                want = (run_proposed(ds, **params) if method == "proposed"
                        else run_ipal(ds, params["T"], params["k"], 0.9))
                assert res.confidences.tobytes() == want.confidences.tobytes()
                assert res.hard_estimates.tobytes() == want.hard_estimates.tobytes()
                accs.append(float(np.mean([s.acc for s in score_cf(want, ds.cf_truth)])))
            assert point["mean_acc"] == float(np.mean(accs))
            assert point["std_acc"] == float(np.std(accs))

    @pytest.mark.parametrize("axis, values", [("gamma", "0,0.5,1"), ("T", "2,3,5")])
    @pytest.mark.parametrize("method", ["proposed", "ipal"])
    def test_sweep_runs_round_one_steps_once_per_group(self, bank_csv, monkeypatch, method,
                                                       axis, values):
        """With each 60-row seed a group of its own, a gamma sweep runs
        round 1's T steps once per group, and an ascending T sweep
        max(T): each point continues the round-1 steps of the point
        before.  Round 2 runs each point's T steps."""
        monkeypatch.setattr(propagation, "_STACK_ROWS", 60)
        steps, step = [], propagation.propagate_step
        monkeypatch.setattr(propagation, "propagate_step",
                            lambda graph, q: steps.append(q.shape[0]) or step(graph, q))
        args = ["sweep", "--method", method, "--axis", axis, "--values", values, "--seed", "0,1",
                *SMALL, *bank_csv]
        assert main(args) == 0
        Ts = [int(v) for v in values.split(",")] if axis == "T" else [5] * 3
        round2 = sum(Ts) if method == "proposed" else 0
        assert steps == [60] * (2 * (max(Ts) + round2))

    @pytest.mark.parametrize("max_n", [0, 40])
    @pytest.mark.parametrize("axis, values", [("gamma", "0,0.5"), ("T", "3,2,5"), ("k", "8,5,8")],
                             ids=["gamma", "T", "k"])
    @pytest.mark.parametrize("method", ["proposed", "ipal"])
    def test_sweep_builds_each_round_one_graph_once_per_k(self, bank_csv, monkeypatch, method,
                                                          axis, values, max_n):
        """Seeds that share the source rows share one round-1 graph per k;
        under --max-n each seed builds its own, once per k, not once per
        point.  Round 2 builds one graph per seed and point."""
        widths, build = [], propagation.build_graph
        monkeypatch.setattr(propagation, "build_graph",
                            lambda x, k: widths.append(x.shape[1]) or build(x, k))
        args = ["sweep", "--method", method, "--axis", axis, "--values", values, "--seed", "0,1",
                "--max-n", str(max_n), *SMALL, *bank_csv]
        assert main(args) == 0
        of_width = min(widths)  # round 2 appends the CFs' confidences
        ks = {int(v) for v in values.split(",")} if axis == "k" else {8}
        assert widths.count(of_width) == len(ks) * (2 if max_n else 1)
        points = len(values.split(","))
        assert len(widths) - widths.count(of_width) == (2 * points if method == "proposed" else 0)


@pytest.fixture
def csv_parses(monkeypatch):
    """Counts every parse of a source CSV through ``compfeat.cli.load_csv``."""
    calls = []
    parse = cli.load_csv

    def counting(path, schema):
        calls.append(path)
        return parse(path, schema)

    monkeypatch.setattr(cli, "load_csv", counting)
    return calls


def flip_last_data_byte(data):
    """``data``, an archive, with the last stored byte of ``cf_truth`` flipped."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        info = archive.getinfo("cf_truth.npy")
    at = info.header_offset  # its local header, 30 bytes, a name and an extra field
    at += 30 + int.from_bytes(data[at + 26:at + 28], "little") \
        + int.from_bytes(data[at + 28:at + 30], "little") + info.file_size - 1
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def read_cache(flags):
    """The table that the source cache in ``flags``' out holds for their
    CSV and schema; a miss raises."""
    data, schema = flags[1], flags[3]
    return cli._cached_source(out_file(flags, "source.npz"), [
        cli._SOURCE_FORMAT, cli._sha256_file(data), cli._sha256_file(schema)], load_schema(schema))


def rekey(position, value):
    """Sets entry ``position`` of the source cache's key: the format tag,
    then the digests of the CSV and of the schema file."""
    def edit(data):
        return rewrite_meta(data, lambda m: {**m, "key": [
            value if i == position else k for i, k in enumerate(m["key"])]})
    return edit


class TestSourceCache:
    COMMANDS = (["estimate", "--method", "comp"], ["evaluate"], ["predict", "--mode", "ord"],
                ["predict", "--mode", "soft", "--method", "comp"])

    def test_hit_equals_the_parsed_table(self, tmp_path, csv_parses, monkeypatch):
        """With every vocabulary inferred, a command that reads the cache
        gets the table load_csv returns: the same schema, the same array
        bytes and dtypes, every array read-only.  It reads the cache
        through the package's archive reader, not np.load."""
        ds, _ = make_bank_like(60, seed=0)
        flags = TestPrepare.write_source(ds, tmp_path)
        schema = FeatureSchema(tuple(dataclasses.replace(c, vocabulary=())
                                     for c in ds.schema.columns))
        save_schema(schema, flags[3])
        assert main(["predict", "--mode", "ord", "--seed", "0", *flags]) == 0
        sources = []
        monkeypatch.setattr(np, "load", None)
        monkeypatch.setattr(cli, "synthesize_cf", lambda source, seed: sources.append(source)
                            or synthesize_cf(source, seed))
        assert main(["predict", "--mode", "ord", "--seed", "0", *flags]) == 0
        assert len(csv_parses) == 1
        (hit,), parsed = sources, load_csv(flags[1], schema)
        assert hit.schema == parsed.schema != schema
        for a, b in zip((*hit.of_values, hit.labels, hit.cf_truth),
                        (*parsed.of_values, parsed.labels, parsed.cf_truth), strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert not a.flags.writeable

    def test_one_parse_per_output_directory(self, bank_csv, csv_parses):
        """The paper's pipeline parses the CSV once in one output directory,
        and its outputs are those of a pipeline in which every command
        parses it: the same bytes, and for reports the same hash."""
        reports = ("evaluation.json", "prediction_ord.json", "prediction_soft.json")
        out = out_file(bank_csv, "")

        def outputs():
            return {name: read_json(Path(out, name))["content_hash"] if name in reports
                    else Path(out, name).read_bytes() for name in os.listdir(out)}

        for command in self.COMMANDS:
            assert main([*command, "--seed", "0,1", *bank_csv]) == 0
        assert len(csv_parses) == 1
        cached = outputs()
        for command in self.COMMANDS:
            os.remove(out_file(bank_csv, "source.npz"))
            assert main([*command, "--seed", "0,1", *bank_csv]) == 0
        assert len(csv_parses) == 5
        assert outputs() == cached and len(cached) == 9

    def test_edited_csv_is_parsed_again(self, bank_csv, csv_parses):
        assert main(["estimate", "--method", "comp", *bank_csv]) == 0
        path = Path(bank_csv[1])
        path.write_text("\n".join(path.read_text().splitlines()[:41]) + "\n")
        assert main(["predict", "--mode", "ord", *bank_csv]) == 0
        assert len(csv_parses) == 2
        assert read_cache(bank_csv).n == 40

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace(",no,", ",maybe,", 1),
        lambda text: text.replace("\n", "\nnan", 1),
        lambda text: "\n".join(text.splitlines()[:2]) + "\n",
    ], ids=["unknown_category", "not_a_number", "one_row"])
    @pytest.mark.parametrize("command", [["evaluate"], ["predict", "--mode", "ord"]])
    def test_malformed_edit_raises_as_without_a_cache(self, bank_csv, capsys, edit, command):
        assert main(["estimate", "--method", "comp", *bank_csv]) == 0
        path = Path(bank_csv[1])
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        cached = main([*command, "--method", "comp", *bank_csv]), capsys.readouterr().err
        os.remove(out_file(bank_csv, "source.npz"))
        parsed = main([*command, "--method", "comp", *bank_csv]), capsys.readouterr().err
        assert cached == parsed
        assert cached[0] == 3 and cached[1].startswith("data error:")

    @pytest.mark.parametrize("corrupt", [
        lambda data: data[: len(data) // 2],
        lambda data: rewrite_npz(data, labels=lambda a: a.astype(object)),
        flip_last_data_byte,
        rekey(0, "compfeat-source-0"),
        rekey(1, "0" * 64),
        rekey(2, "0" * 64),
        lambda data: rewrite_npz(data, of0=lambda a: None),
        lambda data: rewrite_meta(data, lambda m: {**m, "vocabularies": m["vocabularies"][1:]}),
    ], ids=["truncated", "object_member", "flipped_data_byte", "other_format", "other_csv",
           "other_schema", "member_missing", "vocabularies_short"])
    def test_bad_archive_is_a_miss_then_rewritten(self, bank_csv, capsys, csv_parses, corrupt):
        assert main(["estimate", "--method", "comp", *bank_csv]) == 0
        path = Path(out_file(bank_csv, "source.npz"))
        good = path.read_bytes()
        path.write_bytes(corrupt(good))
        with pytest.raises(cli._ARCHIVE_ERRORS):
            read_cache(bank_csv)
        capsys.readouterr()
        assert main(["predict", "--mode", "soft", "--method", "comp", *bank_csv]) == 0
        assert capsys.readouterr().err == ""
        assert len(csv_parses) == 2
        assert path.read_bytes() == good

    def test_writes_leave_no_temporary_file(self, bank_csv, monkeypatch):
        """A write replaces the archive through a temporary file in ``out``;
        a write that fails leaves neither, and the command runs as without
        a cache.  Without ``out``, nothing is written."""
        out = out_file(bank_csv, "")
        assert main(["evaluate", *bank_csv]) == 3
        assert not os.path.exists(out)
        assert main(["estimate", "--method", "comp", *bank_csv]) == 0
        names = {"source.npz", "estimate_comp_seed0.npz", "estimate_comp_seed0.json"}
        assert set(os.listdir(out)) == names
        assert main(["predict", "--mode", "ord", *bank_csv]) == 0
        assert set(os.listdir(out)) == names | {"prediction_ord.json"}
        os.remove(out_file(bank_csv, "source.npz"))

        def failing(*args, **kwargs):
            raise OSError("no space left")

        monkeypatch.setattr(np, "savez", failing)
        assert main(["predict", "--mode", "ord", *bank_csv]) == 0
        assert set(os.listdir(out)) == names - {"source.npz"} | {"prediction_ord.json"}


class TestExitCodes:
    PIPELINE = (
        (["prepare"], "manifest.json"),
        (["estimate", *SMALL], None),
        (["evaluate"], "evaluation.json"),
        (["predict", "--mode", "soft"], "prediction_soft.json"),
        (["sweep", "--axis", "T", "--values", "2,4", "--k", "8"], "sweep_T.json"),
    )

    def test_pipeline_succeeds_with_identical_hashes(self, bank_csv):
        """Two runs give the same report hashes and byte-identical estimate
        files, both the archive and its JSON export."""
        runs = []
        for _ in range(2):
            run = {}
            for command, report in self.PIPELINE:
                assert main([*command, "--seed", "0,1", *bank_csv]) == 0
                if report:
                    run[report] = read_json(out_file(bank_csv, report))["content_hash"]
                else:
                    for seed, suffix in itertools.product((0, 1), (".npz", ".json")):
                        name = f"estimate_proposed_seed{seed}{suffix}"
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
        ["estimate", "--k", "abc"],
        ["estimate", "--T", "1.5"],
        ["estimate", "--method", "bogus"],
        ["sweep"],
        ["sweep", "--axis", "k"],
        ["sweep", "--values", "5"],
        ["estimate", "--axis", "k", "--values", "5"],
        ["prepare", "--values", "5"],
    ])
    def test_configuration_errors_exit_2(self, bank_csv, capsys, command):
        """Exit 2 with a typed message; a flag's value is parsed as its
        config line is, so a bad one is no argparse exit."""
        assert main([*command, *bank_csv]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("command, line", [
        (["estimate"], "colour = blue"),
        (["oracle"], "oracle_monotone_instances = 2"),
        (["oracle"], "oracle_bound_instances = 2"),
        (["predict", "--mode", "ord", "--seed", "-1"], ""),
        (["estimate", "--max-n", "30", "--seed", "-1"], ""),
        (["predict", "--mode", "ord"], "l2 = nan"),
        (["predict", "--mode", "ord"], "l2 = inf"),
        (["estimate", *SMALL], "l2 = -1"),
        (["predict", "--mode", "ord"], "epochs = 500"),
        (["oracle"], "oracle_equivalence_instances = 2"),
        (["oracle"], "oracle_slack = 1e-10"),
        (["estimate", "--max-n", "30", "--seed", str(2**64)], ""),
        (["estimate"], f"k = {2**64}"),
        (["estimate", *SMALL], "seeds = 0,0,1"),
        (["prepare", "--seed", "0,0"], ""),
        (["estimate", *SMALL], "estimate_only = job job"),
        (["estimate", *SMALL, "--estimate-only", "job,job"], ""),
        (["estimate", "--method", "ipal"], "alpha = 1"),
        (["predict", "--mode", "ord"], "fraction = 0"),
        (["estimate"], "max_n = -1"),
        (["estimate"], "gamma = nan"),
    ], ids=["unknown_key", "oracle_monotone_instances", "oracle_bound_instances",
            "predict_seed", "estimate_seed", "l2_nan", "l2_inf", "l2_negative", "epochs",
            "oracle_equivalence_instances", "oracle_slack", "seed_over_64_bits",
            "k_over_64_bits", "duplicate_seed_line", "duplicate_seed_flag",
            "duplicate_estimate_only_line", "duplicate_estimate_only_flag", "alpha_1",
            "fraction_0", "max_n_negative", "gamma_nan"])
    def test_bad_config_line_exits_2(self, bank_csv, tmp_path, capsys, command, line):
        """Rejected with exit 2 when the config loads, not with a traceback,
        and the message names the key, or the flag's key, at fault."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main([*command, "--config", str(cfg), *bank_csv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert (line.split("=")[0].strip() or command[-2].lstrip("-").replace("-", "_")) in err

    def test_config_line_without_equals_exits_2(self, tmp_path, capsys):
        """A config line that is neither blank, a comment nor ``key = value``
        is a configuration error that names the line."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# estimate with k = 5\nk 5\n")
        assert main(["estimate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "config line 2" in err

    def test_evaluate_refuses_a_method_missing_some_seeds(self, bank_csv, capsys):
        """A method estimated for only some of the seeds is refused with
        exit 3, naming its first missing file, not dropped from the report."""
        assert main(["estimate", "--seed", "0", *SMALL, *bank_csv]) == 0
        assert main(["estimate", "--method", "comp", "--seed", "0,1", *bank_csv]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--seed", "0,1", *bank_csv]) == 3
        missing = out_file(bank_csv, "estimate_proposed_seed1.npz")
        assert capsys.readouterr().err == (f"data error: missing estimation result {missing}; "
                                           f"run estimate first\n")
        assert not os.path.exists(out_file(bank_csv, "evaluation.json"))

    def test_data_errors_exit_3(self, bank_csv, tmp_path):
        missing = list(bank_csv)
        missing[1] = str(tmp_path / "absent.csv")
        assert main(["estimate", *missing]) == 3
        assert main(["evaluate", *bank_csv]) == 3
        assert main(["predict", "--mode", "soft", *bank_csv]) == 3

    def test_one_parser_dispatches_from_the_command_table(self, monkeypatch):
        """One parser with no subparsers reads every command line, and
        main runs the function that ``COMMANDS`` holds for the command,
        with the sweep's axis and values for sweep alone.  Flags are
        matched whole: a prefix of one is argparse's usage error."""
        parser = cli.build_parser()
        assert not any(isinstance(action, argparse._SubParsersAction)
                       for action in parser._actions)
        assert list(cli.COMMANDS) == ["prepare", "estimate", "evaluate", "predict", "oracle",
                                      "sweep"]
        calls = []
        for name in cli.COMMANDS:
            monkeypatch.setitem(cli.COMMANDS, name,
                                lambda cfg, *sweep, name=name: calls.append((name, sweep)) or 0)
        for name in cli.COMMANDS:
            sweep = ["--axis", "k", "--values", "5,6"] if name == "sweep" else []
            assert main([name, "--k", "7", *sweep]) == 0
        assert calls == [(name, ("k", "5,6") if name == "sweep" else ())
                         for name in cli.COMMANDS]
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--alp", "0.5"])  # no prefix stands for --alpha
        assert exc.value.code == 2

    def test_run_freezes_once_before_main(self, monkeypatch):
        """run(), the process entry, freezes the collector once and then
        runs main() on sys.argv; main() never freezes.  A recorder stands
        in for gc.freeze, so the test process keeps a normal collector."""
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        assert main(["estimate", "--T", "0"]) == 2
        assert calls == []
        monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or main(argv))
        monkeypatch.setattr(sys, "argv", ["compfeat", "estimate", "--T", "0"])
        assert cli.run() == 2
        assert calls == ["freeze", "main"]

    def test_module_entry_exit_codes(self, bank_csv, tmp_path):
        """``python -m compfeat.cli`` goes through run() and keeps the exit
        codes: 2 for a configuration error, 3 for a missing --data file."""
        missing = list(bank_csv)
        missing[1] = str(tmp_path / "absent.csv")
        src = str(Path(compfeat.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for args, code, kind in ((["estimate", "--T", "0"], 2, "configuration error:"),
                                 (["estimate", *missing], 3, "data error:")):
            proc = subprocess.run([sys.executable, "-m", "compfeat.cli", *args],
                                  env=env, capture_output=True, text=True)
            assert (proc.returncode, proc.stderr.startswith(kind)) == (code, True), proc.stderr

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

    def test_duplicated_header_column_exits_3(self, bank_csv, capsys):
        """A header naming a schema column twice is a data error naming
        the column."""
        path = bank_csv[1]
        with open(path, encoding="utf-8") as fh:
            header, *rows = fh.readlines()
        first = header.split(",")[0]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{header.rstrip()},{first}\n" + "".join(f"{r.rstrip()},0\n" for r in rows))
        assert main(["prepare", *bank_csv]) == 3
        assert capsys.readouterr().err.startswith(f"data error: column {first!r} appears")

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
        lambda data: data[: len(data) // 2],
        lambda data: rewrite_npz(data, confidences=lambda q: None),
        lambda data: rewrite_meta(data, lambda m: {
            **m, "cf_names": ["occupation" if n == "job" else n for n in m["cf_names"]]}),
        lambda data: rewrite_npz(data, hard_estimates=lambda h: np.where(h == h[0, 0], 99, h)),
        lambda data: rewrite_npz(data, hard_estimates=lambda h: h + 0.5),
        lambda data: rewrite_npz(data, hard_estimates=lambda h: h.astype(bool)),
        # The largest uint64 and -2**64 are codes that an int64 cast would wrap or clip.
        lambda data: rewrite_npz(
            data, hard_estimates=lambda h: np.full(h.shape, 2**64 - 1, dtype=np.uint64)),
        lambda data: rewrite_npz(data, hard_estimates=lambda h: np.full(h.shape, -2.0**64)),
        lambda data: rewrite_npz(data, meta=lambda m: np.array("[" * 200_000 + "]" * 200_000)),
        lambda data: rewrite_meta(data, lambda m: {**m, "input_hash": "0" * 64}),
        lambda data: rewrite_npz(data, hard_estimates=lambda h: h.astype(object)),
        lambda data: rewrite_npz(data, meta=lambda m: np.array("{not json")),
        central_directory_edit(10, 99),      # compression method 99
        central_directory_edit(8, 1 << 5),   # flag bit 5, compressed patched data
        central_directory_edit(6, 99),       # zip version 9.9 needed to extract
        central_directory_edit(8, 1),        # encrypted
    ], ids=["truncated", "keys_missing", "cf_renamed", "code_out_of_range", "code_not_integer",
           "code_is_bool", "code_over_uint64", "code_under_int64", "nested_too_deep",
           "hash_mismatch", "object_array", "meta_not_json", "zip_compression_method",
           "zip_patched_data", "zip_version", "zip_encrypted"])
    @pytest.mark.parametrize("command", [
        ["evaluate"], ["predict", "--mode", "soft"], ["predict", "--mode", "hard"],
    ], ids=["evaluate", "predict_soft", "predict_hard"])
    def test_malformed_estimate_file_exits_3(self, bank_csv, capsys, corrupt, command):
        assert main(["estimate", "--seed", "0", *SMALL, *bank_csv]) == 0
        path = Path(out_file(bank_csv, "estimate_proposed_seed0.npz"))
        data = path.read_bytes()
        path.write_bytes(corrupt(data))
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
        assert main(["oracle", "--out", str(tmp_path / "out")]) == 4
        assert os.listdir(tmp_path / "out") == ["oracle_report.json"]
        (check,) = read_json(tmp_path / "out" / "oracle_report.json")["checks"]
        assert (check["instances"], check["failure_count"]) == (200, 200)
        assert [f["seed"] for f in check["failures"]] == list(range(200))
        assert all(f["deviation"] > check["tolerance"] for f in check["failures"])
