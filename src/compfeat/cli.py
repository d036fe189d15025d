"""Reproducible experiment driver.

Commands::

    compfeat prepare  --config FILE    synthesize observations, write one CSV per seed
    compfeat estimate --config FILE    run an estimation method per seed
    compfeat evaluate --config FILE    per-CF score tables across seeds
    compfeat predict  --config FILE    downstream label prediction per seed
    compfeat oracle   --config FILE    joint-marginal equivalence report
    compfeat sweep    --config FILE --axis k --values 5,10,20

One parser (:func:`build_parser`) reads every command line: the command,
from the table :data:`COMMANDS` that :func:`main` dispatches from, and
the flags, which every command accepts but ``--axis`` and ``--values``.
Those two belong to ``sweep``: it needs both, and any other command
given either is a configuration error.  Flags are matched whole, never
by prefix, so adding a flag cannot make a working command line
ambiguous.

Configuration is a flat ``key = value`` text file, read by the schema
file's line rules: UTF-8, blank lines and ``#`` comments skipped, and a
``=`` on every other line.  Every key but
``fraction`` and ``l2`` has a flag that overrides it (flags win):
``--seed`` for ``seeds``, otherwise the key with dashes for underscores.
A flag's value is parsed as the key's config line is, so a bad one is a
configuration error.  Identical configurations produce byte-identical
reports apart from the ``generated_at`` field, which is excluded from
content hashes.

``oracle`` checks the production ``propagate_step`` against propagation
of the dense joint confidence table on 200 random ``build_graph``
graphs, whose rows keep differing numbers of nonzero weights; a marginal
deviation above 1e-10, or NaN, is a verification failure, listed in the
report with its instance seed.  The paper's theory checks run in the
test suite.

``prepare`` writes ``prepared_seed<s>.csv`` per seed: the source
columns, CF cells holding the truth, then one ``<cf>__observed`` column
per CF.  Without ``max_n`` subsampling the seeds share the source rows:
the source columns' CSV text is rendered once per command, and each
seed's file joins it, row by row, to the text of its observed columns.
``manifest.json`` records the SHA-256 of the bytes each file was
written with, hashed as they were written, beside those of the source
and schema files.

``estimate`` writes ``estimate_<method>_seed<s>.npz`` per seed, the file
``evaluate`` and ``predict --mode soft|hard`` read, and beside it
``estimate_<method>_seed<s>.json``, an export of the same result as JSON
(:func:`export_result`).  No command reads the export.  It is written
for readers that do not parse the archive, the benchmark's correctness
check among them, and :func:`save_result` writes it, because
:meth:`EstimationResult.save` writes the archive alone.  Each file
stores the seed and a hash of the seed's inputs, and a reader of the
archive refuses one estimated from other inputs.  The graph methods
propagate groups of seeds together (see :mod:`compfeat.propagation`);
``estimate`` writes each seed's files as soon as its group finishes and
holds none of its results while the next group runs.  An interrupted
run leaves the files of the groups that finished, and ``evaluate``
refuses a method whose files exist for only some of its seeds.

Every command but ``oracle`` reads the source CSV and needs at least 2
rows in it.  Seed s's dataset holds the source rows with observed CF
values drawn for s (:func:`~compfeat.data.synthesize_cf`).  When
``max_n`` is set below the source's row count, it keeps only the
``max_n`` rows that come first in ``seeded_order(s, n,
STREAM_SUBSAMPLE)``, in row order.  ``predict`` trains on the first
``floor(fraction * n)`` rows of ``seeded_order(s, n, STREAM_SPLIT)``
over seed s's n rows and scores the rest (see
:mod:`compfeat.data`'s counter-based draws); it runs one seed at a
time.  ``sweep`` estimates each point with ``--method``, which must
be a graph method, proposed or ipal, and honours ``--estimate-only`` as
``estimate`` does.  comp depends on none of T, k and gamma, so its curve
would be constant: ``sweep --method comp`` is a configuration error,
refused before the source is read or ``out`` is made.  It runs all its
points in one call of the method's seed runner, which shares round 1
between them (see :mod:`compfeat.propagation`): it builds one round-1
graph per k for the seeds that share the source rows, or per seed and
k under ``max_n`` subsets, and a point of the same k and at least the T
of the point before it continues that point's round-1 steps.  So a
gamma sweep, or a T sweep in ascending order, holds per group of seeds
their (sum n, sum u_j) float64 round-1 confidences from one point to
the next, 9.4 MB per paper-scale seed; ``estimate`` runs one point and
holds none.

A process enters through :func:`run`, both as the ``compfeat`` console
script and as ``python -m compfeat.cli``.  Before it calls :func:`main`,
``run`` calls ``gc.freeze()``, which moves every object the imports
made (numpy's and the package's, some 22,000 that the collector tracks)
into the collector's permanent generation, so that neither the
command's collections nor the final ones at interpreter exit walk them
again.  The cost: an import-time object that is, or later becomes,
cyclic garbage is never collected.  The imports make about 350 such
objects, but the collections that run during the imports reclaim them
before the freeze.  :func:`main` itself never freezes, so tests and
library callers keep a normal collector.

Exit codes: 0 success, 2 configuration error (``sweep --method comp``
among them), 3 data error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from functools import partial
from typing import Iterator

import numpy as np

from .data import (STREAM_SUBSAMPLE, Dataset, _adopted, _assignments, _read_lines, _scalar,
                   format_rows, load_csv, load_schema, seeded_order, split_train_test,
                   synthesize_cf, write_rows)
from .errors import CompfeatError, ConfigError, DataError, ShapeMismatchError, VerificationError
from .metrics import aggregate_cf_scores, format_cf_table, score_cf, score_labels
from .predictor import MODES, assemble, predict, train
from .propagation import EstimationResult, run_comp, run_ipal_seeds, run_proposed_seeds

METHODS = ("proposed", "comp", "ipal")
ORACLE_INSTANCES = 200


@dataclass
class ExperimentConfig:
    data: str = ""
    schema: str = ""
    out: str = "out"
    seeds: tuple[int, ...] = (0,)
    method: str = "proposed"
    T: int = 100
    k: int = 20
    gamma: float = 0.25
    alpha: float = 0.9
    fraction: float = 0.5
    max_n: int = 0                      # 0 disables subsampling
    estimate_only: tuple[str, ...] = ()
    mode: str = "soft"
    l2: float = 1e-4

    def validate(self):
        try:
            _scalar(self.T, "T", 1, integer=True)
            # Estimate files store k and the seed; their writer takes 64-bit integers.
            _scalar(self.k, "k", 1, 2**64, integer=True)
            _scalar(self.gamma, "gamma", 0, 1, "[]")
            _scalar(self.alpha, "alpha", 0, 1, "()")
            _scalar(self.fraction, "fraction", 0, 1, "()")
            _scalar(self.max_n, "max_n", 0, integer=True)
            _scalar(self.l2, "l2", 0)
            for seed in self.seeds:
                _scalar(seed, "seeds", 0, 2**64, integer=True)
        except DataError as exc:
            raise ConfigError(str(exc)) from None
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if len(set(self.estimate_only)) != len(self.estimate_only):
            raise ConfigError("estimate_only names must be distinct")


_KEYS = frozenset(f.name for f in fields(ExperimentConfig))
_LIST_KEYS = {"seeds": int, "estimate_only": str}


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path:
        try:
            with contextlib.closing(_read_lines(path)) as lines:
                for _, key, value in _assignments(lines, "config"):
                    _apply(cfg, key, value)
        except (OSError, DataError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for key, value in overrides.items():
        if value is None:
            continue
        _apply(cfg, key, value)
    cfg.validate()
    return cfg


def _apply(cfg: ExperimentConfig, key: str, value: str):
    """Set ``key`` from its text in a config line, a flag or a sweep value."""
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    current = getattr(cfg, key)
    try:
        if key in _LIST_KEYS:
            parts = value.replace(",", " ").split()
            setattr(cfg, key, tuple(_LIST_KEYS[key](p) for p in parts))
        elif isinstance(current, int):
            setattr(cfg, key, int(value))
        elif isinstance(current, float):
            setattr(cfg, key, float(value))
        else:
            setattr(cfg, key, value)
    except ValueError:
        raise ConfigError(f"bad value {value!r} for key {key!r}") from None


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def load_source(cfg: ExperimentConfig) -> Dataset:
    """Read the schema and the source CSV; done once per command.

    ``estimate_only`` names that are not CFs of the schema are a
    configuration error; a source of fewer than 2 rows is a data error.
    """
    if not cfg.data or not cfg.schema:
        raise ConfigError("config needs both 'data' and 'schema' paths")
    schema = load_schema(cfg.schema)
    unknown = set(cfg.estimate_only) - {c.name for c in schema.cf_columns}
    if unknown:
        raise ConfigError(f"estimate_only names not in schema: {sorted(unknown)}")
    source = load_csv(cfg.data, schema)
    if source.n < 2:
        raise DataError(f"{cfg.data} has {source.n} rows; at least 2 are needed")
    return source


def subsamples(cfg: ExperimentConfig, source: Dataset) -> bool:
    """Whether each seed draws its own subset of the source rows."""
    return bool(cfg.max_n) and cfg.max_n < source.n


def experiment_dataset(cfg: ExperimentConfig, source: Dataset, seed: int) -> Dataset:
    """Seed ``seed``'s dataset: the source with observations synthesized
    for the seed.  When :func:`subsamples`, only the first ``max_n`` rows
    of ``seeded_order(seed, n, STREAM_SUBSAMPLE)`` are kept, in row order."""
    ds = synthesize_cf(source, seed)
    if subsamples(cfg, source):
        keep = np.sort(seeded_order(seed, ds.n, STREAM_SUBSAMPLE)[:cfg.max_n])
        ds = ds.subset(keep)
    return ds


def run_methods(points: list[ExperimentConfig],
                datasets: list[Dataset]) -> list[Iterator[EstimationResult]]:
    """The method's result for each seed's dataset at each point, configs
    that differ at most in T, k and gamma: one iterator per point, built
    of the methods' iterators and ``map``, which holds no result once it
    has passed it on.  The iterators are consumed in order, and the graph
    methods share round-1 work between them (see
    :mod:`compfeat.propagation`)."""
    cfg = points[0]
    if cfg.method == "proposed":
        runs = run_proposed_seeds(datasets, [(p.T, p.k, p.gamma) for p in points])
    elif cfg.method == "ipal":
        runs = run_ipal_seeds(datasets, [(p.T, p.k) for p in points], cfg.alpha)
    else:
        runs = [map(run_comp, datasets, cfg.seeds) for _ in points]
    if cfg.estimate_only:
        runs = [map(partial(restrict_to_subset, cfg), datasets, results, cfg.seeds)
                for results in runs]
    return runs


def restrict_to_subset(cfg: ExperimentConfig, ds: Dataset,
                       result: EstimationResult, seed: int) -> EstimationResult:
    """Replace confidences of CFs outside the subset with their baseline.

    Excluded CFs keep exactly their initial confidences and receive
    seeded random complement guesses as hard estimates: :func:`run_comp`'s
    result for the seed, which under ``--method comp`` is ``result``
    itself and is not run again.
    """
    cols = ds.schema.cf_columns
    baseline = result if cfg.method == "comp" else run_comp(ds, seed)
    kept = np.array([c.name in cfg.estimate_only for c in cols], dtype=bool)
    return _adopted(
        EstimationResult, cf_names=result.cf_names, sizes=result.sizes,
        confidences=np.where(np.repeat(kept, result.sizes), result.confidences,
                             baseline.confidences),
        hard_estimates=np.where(kept, result.hard_estimates, baseline.hard_estimates),
        method=result.method,
        hyperparams={**result.hyperparams, "estimate_only": sorted(cfg.estimate_only)})


def result_path(cfg: ExperimentConfig, method: str, seed: int) -> str:
    """The estimate file of ``method`` and ``seed``, which evaluate and predict read."""
    return os.path.join(cfg.out, f"estimate_{method}_seed{seed}.npz")


def provenance(cfg: ExperimentConfig, ds: Dataset, seed: int) -> dict:
    """The seed and input hash an estimate file stores to tie it to this seed's dataset."""
    h = hashlib.sha256()
    for arr in (*ds.of_values, ds.labels, ds.cf_observed):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(f"max_n={cfg.max_n}seed={seed}".encode())
    return {"seed": seed, "input_hash": h.hexdigest()}


def load_result(cfg: ExperimentConfig, path: str, ds: Dataset, seed: int) -> EstimationResult:
    """Read a saved estimation result and check it against the seed's
    dataset, its stored :func:`provenance` included."""
    if not os.path.exists(path):
        raise DataError(f"missing estimation result {path}; run estimate first")
    result = EstimationResult.load(path, expect=provenance(cfg, ds, seed))
    try:
        result.check_fits(ds)
    except ShapeMismatchError as exc:
        raise DataError(f"{path}: {exc}") from None
    return result


def config_echo(cfg: ExperimentConfig) -> dict:
    return {f.name: (list(v) if isinstance(v := getattr(cfg, f.name), tuple) else v)
            for f in fields(ExperimentConfig)}


def finalize_report(doc: dict, path: str):
    """Attach a content hash (timestamp excluded) and write canonical JSON."""
    body = {k: v for k, v in doc.items() if k not in ("generated_at", "content_hash")}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    doc["content_hash"] = hashlib.sha256(canonical.encode()).hexdigest()
    doc.setdefault("generated_at", datetime.now(timezone.utc).isoformat())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Subcommands


def cmd_prepare(cfg: ExperimentConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    source = load_source(cfg)
    # Synthesis changes only the observed columns, so seeds that share
    # the source rows share the text of every other column.
    shared = None if subsamples(cfg, source) else format_rows(source)
    files = {}
    for seed in cfg.seeds:
        ds = experiment_dataset(cfg, source, seed)
        name = f"prepared_seed{seed}.csv"
        path = os.path.join(cfg.out, name)
        rows = format_rows(ds) if shared is None else shared
        files[name] = {"sha256": write_rows(path, rows, format_rows(ds, observed=True)),
                       "n": ds.n}
    manifest = {
        "config": config_echo(cfg),
        "source_sha256": _sha256_file(cfg.data),
        "schema_sha256": _sha256_file(cfg.schema),
        "files": files,
    }
    finalize_report(manifest, os.path.join(cfg.out, "manifest.json"))
    print(f"prepared {len(files)} seeded dataset(s) in {cfg.out}")
    return 0


def cmd_estimate(cfg: ExperimentConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    source = load_source(cfg)
    datasets = [experiment_dataset(cfg, source, seed) for seed in cfg.seeds]
    (results,) = run_methods([cfg], datasets)
    for path in map(partial(save_result, cfg), datasets, cfg.seeds, results):
        print(f"wrote {path}")
    return 0


def save_result(cfg: ExperimentConfig, ds: Dataset, seed: int, result: EstimationResult) -> str:
    """Write ``result``, seed ``seed``'s estimate of ``ds``, to its file and
    beside it its JSON export, the path with ``.json`` for ``.npz``;
    return the path."""
    path = result_path(cfg, cfg.method, seed)
    extra = provenance(cfg, ds, seed)
    result.save(path, extra=extra)
    export_result(result, os.path.splitext(path)[0] + ".json", extra)
    return path


def export_result(result: EstimationResult, path: str, extra: dict):
    """Write ``result`` to ``path`` as one line of UTF-8 JSON with sorted
    keys and no whitespace, ending in a newline.

    It holds ``method``, ``hyperparams``, ``cf_names``,
    ``hard_estimates`` (n lists of codes), ``confidences`` (one (n, u_j)
    list of lists per CF name) and the ``extra`` keys.  Every float is
    written as the shortest text that reads back as the same float64, so
    any JSON reader recovers the saved values exactly.  The text differs
    from Python's ``repr`` only for entries below 1e-4:
    ``0.00004830844254893549`` for ``4.830844254893549e-05``, ``5e-8``
    for ``5e-08``.  Integers must fit in 64 bits.
    """
    # Imported here, where only estimate pays for it; formatting the
    # floats is most of the export, and orjson does it about ten times
    # faster than json.dumps.
    import orjson

    doc = {"method": result.method, "hyperparams": result.hyperparams,
           "cf_names": list(result.cf_names), **extra,
           "hard_estimates": np.ascontiguousarray(result.hard_estimates),
           "confidences": {name: np.ascontiguousarray(result.block(j))
                           for j, name in enumerate(result.cf_names)}}
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(doc, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
                              | orjson.OPT_APPEND_NEWLINE))


def cmd_evaluate(cfg: ExperimentConfig) -> int:
    source = load_source(cfg)
    datasets = [experiment_dataset(cfg, source, seed) for seed in cfg.seeds]
    per_method: dict[str, list] = {}
    for method in METHODS:
        paths = [result_path(cfg, method, s) for s in cfg.seeds]
        if not any(os.path.exists(p) for p in paths):
            continue  # load_result refuses a method estimated for only some seeds
        per_seed = [score_cf(load_result(cfg, path, ds, seed), ds.cf_truth)
                    for ds, path, seed in zip(datasets, paths, cfg.seeds)]
        per_method[method] = aggregate_cf_scores(per_seed)
    if not per_method:
        raise DataError(f"no estimation results for seeds {cfg.seeds} in {cfg.out}")
    report = {"config": config_echo(cfg), "scores": per_method}
    finalize_report(report, os.path.join(cfg.out, "evaluation.json"))
    table = format_cf_table(per_method)
    with open(os.path.join(cfg.out, "evaluation.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    return 0


def cmd_predict(cfg: ExperimentConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    source = load_source(cfg)
    f1s = [predict_seed(cfg, source, seed) for seed in cfg.seeds]
    report = {
        "config": config_echo(cfg),
        "macro_f1": {"mean": float(np.mean(f1s)), "std": float(np.std(f1s)),
                     "per_seed": [float(v) for v in f1s]},
    }
    finalize_report(report, os.path.join(cfg.out, f"prediction_{cfg.mode}.json"))
    print(f"macro-F1 ({cfg.mode}): {np.mean(f1s):.4f} ±{np.std(f1s):.4f}")
    return 0


def predict_seed(cfg: ExperimentConfig, source: Dataset, seed: int) -> float:
    """The label macro-F1 of one seed.  Its own function, so that no
    dataset, result, design or model of a seed is held while the next
    seed runs.

    The design is cut into its train and test rows and dropped before
    :func:`train`: while training runs, the seed's dataset, both row
    sets, training's vectors of one entry per row and its row-block
    temporaries are alive, but no estimation result, no whole design and
    no copy of the train rows.  The train rows are dropped before
    :func:`predict`.
    """
    ds = experiment_dataset(cfg, source, seed)
    result = None
    if cfg.mode in ("soft", "hard"):
        result = load_result(cfg, result_path(cfg, cfg.method, seed), ds, seed)
    design = assemble(ds, cfg.mode, result=result)
    del result  # the design holds what predict needs of it
    train_idx, test_idx = split_train_test(ds, cfg.fraction, seed)
    x_train, x_test = design[train_idx], design[test_idx]
    del design
    model = train(x_train, ds.labels[train_idx], l2=cfg.l2)
    del x_train
    probs = predict(model, x_test)
    return score_labels(probs, ds.labels[test_idx])


def cmd_oracle(cfg: ExperimentConfig) -> int:
    from .oracle import run_equivalence_suite  # no other command needs it

    os.makedirs(cfg.out, exist_ok=True)
    check = run_equivalence_suite(ORACLE_INSTANCES)
    failures = check["failures"]
    report = {
        "config": config_echo(cfg),
        "checks": [check | {"failure_count": len(failures)}],
        "passed": not failures,
    }
    finalize_report(report, os.path.join(cfg.out, "oracle_report.json"))
    print(f"{'FAIL' if failures else 'PASS'} {check['name']} ({check['instances']} instances)")
    if failures:
        raise VerificationError("verification produced counterexamples; see report")
    return 0


def cmd_sweep(cfg: ExperimentConfig, axis: str, values: str) -> int:
    """Estimate at each of the comma-separated ``values`` of ``axis``."""
    if axis not in ("T", "k", "gamma"):
        raise ConfigError("sweep axis must be one of T, k, gamma")
    if cfg.method == "comp":  # comp depends on none of T, k and gamma
        raise ConfigError("sweep takes the graph methods, proposed and ipal; "
                          "comp's curve is constant")
    texts = values.split(",")
    points = [replace(cfg) for _ in texts]
    for point, value in zip(points, texts):
        _apply(point, axis, value)
        point.validate()
    os.makedirs(cfg.out, exist_ok=True)

    source = load_source(cfg)
    datasets = [experiment_dataset(cfg, source, seed) for seed in cfg.seeds]
    curve = []
    for point, results in zip(points, run_methods(points, datasets)):
        accs = [float(np.mean([s.acc for s in score_cf(result, ds.cf_truth)]))
                for result, ds in zip(results, datasets)]
        curve.append({"value": getattr(point, axis), "mean_acc": float(np.mean(accs)),
                      "std_acc": float(np.std(accs))})
    means = [pt["mean_acc"] for pt in curve]
    report = {
        "config": config_echo(cfg),
        "axis": axis,
        "curve": curve,
        # Whether the mean accuracy never falls from one value to the
        # next, in the order given; reported, never enforced.  Only
        # along k is it expected: accuracy tends to rise with k on
        # smooth data.
        "soft_monotone_nondecreasing": all(b >= a - 1e-12 for a, b in zip(means, means[1:])),
    }
    finalize_report(report, os.path.join(cfg.out, f"sweep_{axis}.json"))
    csv_path = os.path.join(cfg.out, f"sweep_{axis}.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{axis},mean_acc,std_acc\n")
        for pt in curve:
            fh.write(f"{pt['value']},{pt['mean_acc']!r},{pt['std_acc']!r}\n")
    for pt in curve:
        print(f"{axis}={pt['value']}: mean Acc {pt['mean_acc']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


_NO_FLAG = ("fraction", "l2")
_HELP = {"seeds": "comma-separated seed list",
         "estimate_only": "comma-separated CF names to estimate; others keep baseline"}
COMMANDS = {"prepare": cmd_prepare, "estimate": cmd_estimate, "evaluate": cmd_evaluate,
            "predict": cmd_predict, "oracle": cmd_oracle, "sweep": cmd_sweep}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="compfeat", description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None)
    for key in (f.name for f in fields(ExperimentConfig) if f.name not in _NO_FLAG):
        flag = "--seed" if key == "seeds" else "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, default=None, help=_HELP.get(key))
    parser.add_argument("--axis", help="sweep only: the key to sweep, T, k or gamma")
    parser.add_argument("--values", help="sweep only: comma-separated sweep values")
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``) and return its
    exit code.  It never freezes the collector; :func:`run` does."""
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items() if key in _KEYS}
    try:
        sweep = [arg for arg in (args.axis, args.values) if arg is not None]
        if len(sweep) != 2 * (args.command == "sweep"):
            raise ConfigError("sweep needs both --axis and --values, "
                              "and no other command takes either")
        return COMMANDS[args.command](load_config(args.config, overrides), *sweep)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except CompfeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> int:
    """The process entry: freeze the import-time heap, then :func:`main`."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
