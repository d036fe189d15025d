"""Reproducible experiment driver.

Subcommands::

    compfeat prepare  --config FILE    synthesize observations, write a bundle
    compfeat estimate --config FILE    run an estimation method per seed
    compfeat evaluate --config FILE    per-CF score tables across seeds
    compfeat predict  --config FILE    downstream label prediction per seed
    compfeat oracle   --config FILE    joint-marginal equivalence report
    compfeat sweep    --config FILE --axis k --values 5,10,20

Configuration is a flat ``key = value`` text file.  A command-line flag
overrides the key of the same name (flags win); ``fraction``, ``l2``,
``epochs``, ``oracle_equivalence_instances`` and ``oracle_slack`` have no
flag.  Identical configurations produce byte-identical reports apart from
the ``generated_at`` field, which is excluded from content hashes.

``oracle`` checks the production ``propagate_step`` against propagation
of the dense joint confidence table on ``oracle_equivalence_instances``
random ``build_graph`` graphs, whose rows keep differing numbers of
nonzero weights; a marginal deviation above ``oracle_slack`` is a
verification failure.  The paper's theory checks run in the test suite.

Every command but ``oracle`` reads the source CSV and needs at least 2
rows in it.  ``sweep`` estimates each point with ``--method`` and
honours ``--estimate-only`` as ``estimate`` does.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from . import metrics as metrics_mod
from . import oracle as oracle_mod
from . import propagation
from .data import Dataset, load_csv, load_schema, split_train_test, synthesize_cf, write_csv
from .encoding import encode_of
from .errors import CompfeatError, ConfigError, DataError, ShapeMismatchError, VerificationError
from .metrics import aggregate_cf_scores, format_cf_table, score_cf, score_labels
from .predictor import MODES, assemble, predict, train
from .propagation import EstimationResult, run_comp, run_ipal, run_proposed

METHODS = ("proposed", "comp", "ipal")


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
    epochs: int = 500
    oracle_equivalence_instances: int = 200
    oracle_slack: float = 1e-10

    def validate(self):
        if self.T < 1:
            raise ConfigError("T must be >= 1")
        # Estimate files store k and the seed; their writer takes 64-bit integers.
        if not 1 <= self.k < 2**64:
            raise ConfigError("k must lie in [1, 2**64)")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0.0 < self.fraction < 1.0:
            raise ConfigError("fraction must lie in (0, 1)")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.max_n < 0:
            raise ConfigError("max_n must be >= 0")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0 or max(self.seeds) >= 2**64:
            raise ConfigError("seeds must lie in [0, 2**64)")
        if not 0.0 <= self.l2 < math.inf:
            raise ConfigError("l2 must be finite and >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.oracle_equivalence_instances < 1:
            raise ConfigError("oracle_equivalence_instances must be >= 1")
        if not 0.0 <= self.oracle_slack < math.inf:
            raise ConfigError("oracle_slack must be finite and >= 0")


_KEYS = frozenset(f.name for f in fields(ExperimentConfig))
_LIST_KEYS = {"seeds": int, "estimate_only": str}


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            _apply(cfg, key, value)
    for key, value in overrides.items():
        if value is None:
            continue
        _apply(cfg, key, value)
    cfg.validate()
    return cfg


def _apply(cfg: ExperimentConfig, key: str, value):
    """Set ``key`` from a config-file string or an argparse value."""
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    current = getattr(cfg, key)
    try:
        if key in _LIST_KEYS:
            parts = str(value).replace(",", " ").split()
            setattr(cfg, key, tuple(_LIST_KEYS[key](p) for p in parts))
        elif isinstance(current, int):
            setattr(cfg, key, int(str(value)))
        elif isinstance(current, float):
            setattr(cfg, key, float(str(value)))
        else:
            setattr(cfg, key, str(value))
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
    """Synthesize observations, and optionally subsample, per seed."""
    ds = synthesize_cf(source, seed)
    if subsamples(cfg, source):
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(ds.n, size=cfg.max_n, replace=False))
        ds = ds.subset(keep)
    return ds


def shared_of_graph(cfg: ExperimentConfig, source: Dataset) -> propagation.WeightGraph | None:
    """The round-1 graph every seed shares (synthesis never changes the
    OFs), or None for the graph-free baseline and when each seed
    subsamples its own rows."""
    if cfg.method == "comp" or subsamples(cfg, source):
        return None
    return propagation.build_graph(encode_of(source), cfg.k)


def run_method(cfg: ExperimentConfig, ds: Dataset, seed: int,
               of_graph: propagation.WeightGraph | None = None) -> EstimationResult:
    if cfg.method == "proposed":
        result = run_proposed(ds, T=cfg.T, k=cfg.k, gamma=cfg.gamma, of_graph=of_graph)
    elif cfg.method == "ipal":
        result = run_ipal(ds, T=cfg.T, k=cfg.k, alpha=cfg.alpha, of_graph=of_graph)
    else:
        result = run_comp(ds, seed)
    if cfg.estimate_only:
        result = restrict_to_subset(cfg, ds, result, seed)
    return result


def restrict_to_subset(cfg: ExperimentConfig, ds: Dataset,
                       result: EstimationResult, seed: int) -> EstimationResult:
    """Replace confidences of CFs outside the subset with their baseline.

    Excluded CFs keep exactly their initial confidences and receive
    seeded random complement guesses as hard estimates.
    """
    cols = ds.schema.cf_columns
    baseline = run_comp(ds, seed)
    kept = np.array([c.name in cfg.estimate_only for c in cols], dtype=bool)
    return EstimationResult(
        cf_names=result.cf_names, sizes=result.sizes,
        confidences=np.where(np.repeat(kept, result.sizes), result.confidences,
                             baseline.confidences),
        hard_estimates=np.where(kept, result.hard_estimates, baseline.hard_estimates),
        method=result.method,
        hyperparams={**result.hyperparams, "estimate_only": sorted(cfg.estimate_only)})


def result_path(cfg: ExperimentConfig, method: str, seed: int) -> str:
    return os.path.join(cfg.out, f"estimate_{method}_seed{seed}.json")


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
    metrics_mod.write_json(doc, path)


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
    files = {}
    for seed in cfg.seeds:
        ds = experiment_dataset(cfg, source, seed)
        name = f"prepared_seed{seed}.csv"
        path = os.path.join(cfg.out, name)
        write_csv(ds, path, observed_columns=True)
        files[name] = {"sha256": _sha256_file(path), "n": ds.n}
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
    of_graph = shared_of_graph(cfg, source)
    for seed in cfg.seeds:
        ds = experiment_dataset(cfg, source, seed)
        result = run_method(cfg, ds, seed, of_graph)
        path = result_path(cfg, cfg.method, seed)
        result.save(path, extra=provenance(cfg, ds, seed))
        print(f"wrote {path}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig) -> int:
    source = load_source(cfg)
    datasets = [experiment_dataset(cfg, source, seed) for seed in cfg.seeds]
    per_method: dict[str, list] = {}
    for method in METHODS:
        paths = [result_path(cfg, method, s) for s in cfg.seeds]
        if not all(os.path.exists(p) for p in paths):
            continue
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
    f1s = []
    for seed in cfg.seeds:
        ds = experiment_dataset(cfg, source, seed)
        result = None
        if cfg.mode in ("soft", "hard"):
            result = load_result(cfg, result_path(cfg, cfg.method, seed), ds, seed)
        design = assemble(ds, cfg.mode, result=result)
        train_idx, test_idx = split_train_test(ds, cfg.fraction, seed)
        model = train(design[train_idx], ds.labels[train_idx], l2=cfg.l2, epochs=cfg.epochs)
        probs = predict(model, design[test_idx])
        f1s.append(score_labels(probs, ds.labels[test_idx]))
    report = {
        "config": config_echo(cfg),
        "macro_f1": {"mean": float(np.mean(f1s)), "std": float(np.std(f1s)),
                     "per_seed": [float(v) for v in f1s]},
    }
    finalize_report(report, os.path.join(cfg.out, f"prediction_{cfg.mode}.json"))
    print(f"macro-F1 ({cfg.mode}): {np.mean(f1s):.4f} ±{np.std(f1s):.4f}")
    return 0


def cmd_oracle(cfg: ExperimentConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    check = oracle_mod.run_equivalence_suite(cfg.oracle_equivalence_instances,
                                             tol=cfg.oracle_slack)
    failures = check.pop("failures")
    for j, failure in enumerate(failures):
        metrics_mod.write_json(failure, os.path.join(cfg.out, f"counterexample_{j}.json"))
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


def cmd_sweep(cfg: ExperimentConfig, axis: str, values: list[str]) -> int:
    if axis not in ("T", "k", "gamma"):
        raise ConfigError("sweep axis must be one of T, k, gamma")
    if not values:
        raise ConfigError("sweep needs at least one value")
    parse = float if axis == "gamma" else int
    try:
        points = [replace(cfg, **{axis: parse(v)}) for v in values]
    except ValueError:
        raise ConfigError(f"bad sweep value for axis {axis!r}") from None
    for point in points:
        point.validate()
    os.makedirs(cfg.out, exist_ok=True)

    source = load_source(cfg)
    datasets = [experiment_dataset(cfg, source, seed) for seed in cfg.seeds]
    of_graphs: dict[int, propagation.WeightGraph | None] = {}  # by k
    curve = []
    for point in points:
        if point.k not in of_graphs:
            of_graphs[point.k] = shared_of_graph(point, source)
        accs = []
        for ds, seed in zip(datasets, cfg.seeds):
            scores = score_cf(run_method(point, ds, seed, of_graphs[point.k]), ds.cf_truth)
            accs.append(float(np.mean([s.acc for s in scores])))
        curve.append({"value": getattr(point, axis), "mean_acc": float(np.mean(accs)),
                      "std_acc": float(np.std(accs))})
    means = [pt["mean_acc"] for pt in curve]
    report = {
        "config": config_echo(cfg),
        "axis": axis,
        "curve": curve,
        # Soft expectation, reported but never enforced: accuracy tends
        # to improve along k on smooth data.
        "soft_monotone_nondecreasing": bool(
            all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
        ),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="compfeat", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("prepare", "estimate", "evaluate", "predict", "oracle", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", dest="seeds", default=None,
                       help="comma-separated seed list, overrides the config")
        p.add_argument("--method", default=None, choices=METHODS)
        p.add_argument("--T", default=None, type=int)
        p.add_argument("--k", default=None, type=int)
        p.add_argument("--gamma", default=None, type=float)
        p.add_argument("--alpha", default=None, type=float)
        p.add_argument("--max-n", dest="max_n", default=None, type=int)
        p.add_argument("--estimate-only", dest="estimate_only", default=None,
                       help="comma-separated CF names to estimate; others keep baseline")
        p.add_argument("--mode", default=None, choices=MODES)
        p.add_argument("--out", default=None)
        p.add_argument("--data", default=None)
        p.add_argument("--schema", default=None)
        if name == "sweep":
            p.add_argument("--axis", required=True)
            p.add_argument("--values", required=True,
                           help="comma-separated sweep values")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items() if key in _KEYS}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "estimate":
            return cmd_estimate(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "predict":
            return cmd_predict(cfg)
        if args.command == "oracle":
            return cmd_oracle(cfg)
        return cmd_sweep(cfg, args.axis, args.values.split(","))
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


if __name__ == "__main__":
    sys.exit(main())
