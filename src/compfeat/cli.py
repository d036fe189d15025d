"""Reproducible experiment driver.

Subcommands::

    compfeat prepare  --config FILE    synthesize observations, write a bundle
    compfeat estimate --config FILE    run an estimation method per seed
    compfeat evaluate --config FILE    per-CF score tables across seeds
    compfeat predict  --config FILE    downstream label prediction per seed
    compfeat oracle   --config FILE    randomized verification report
    compfeat sweep    --config FILE --axis k --values 5,10,20

Configuration is a flat ``key = value`` text file.  A command-line flag
overrides the key of the same name (flags win); ``fraction``, ``l2``,
``epochs`` and the ``oracle_*`` keys have no flag.  Identical
configurations produce byte-identical reports apart from the
``generated_at`` field, which is excluded from content hashes.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from . import metrics as metrics_mod
from . import oracle as oracle_mod
from . import propagation
from .data import Dataset, load_csv, load_schema, split_train_test, synthesize_cf, write_csv
from .encoding import encode_of
from .errors import CompfeatError, ConfigError, DataError, VerificationError
from .metrics import aggregate_cf_scores, format_cf_table, score_cf, score_labels
from .predictor import MODES, assemble, predict, train
from .propagation import (
    EstimationResult,
    input_fingerprint,
    run_comp,
    run_ipal,
    run_proposed,
)

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
    oracle_monotone_instances: int = 100
    oracle_bound_instances: int = 10_000
    oracle_slack: float = 1e-9

    def validate(self):
        if self.T < 1:
            raise ConfigError("T must be >= 1")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
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


_LIST_KEYS = {"seeds": int, "estimate_only": str}


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            _apply(cfg, key, value, known)
    for key, value in overrides.items():
        if value is None:
            continue
        _apply(cfg, key, value, known)
    cfg.validate()
    return cfg


def _apply(cfg: ExperimentConfig, key: str, value, known):
    if key not in known:
        raise ConfigError(f"unknown configuration key {key!r}")
    current = getattr(cfg, key)
    try:
        if key in _LIST_KEYS:
            conv = _LIST_KEYS[key]
            if isinstance(value, (tuple, list)):
                parsed = tuple(conv(v) for v in value)
            else:
                parts = str(value).replace(",", " ").split()
                parsed = tuple(conv(p) for p in parts)
            setattr(cfg, key, parsed)
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
    """Read the schema and the source CSV; done once per command."""
    if not cfg.data or not cfg.schema:
        raise ConfigError("config needs both 'data' and 'schema' paths")
    return load_csv(cfg.data, load_schema(cfg.schema))


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


def shared_of_graph(cfg: ExperimentConfig, source: Dataset,
                    k: int) -> propagation.WeightGraph | None:
    """The round-1 graph every seed shares (synthesis never changes the
    OFs), or None when each seed subsamples its own rows."""
    if subsamples(cfg, source):
        return None
    return propagation.build_graph(encode_of(source), k)


def run_method(cfg: ExperimentConfig, ds: Dataset, seed: int,
               of_graph: propagation.WeightGraph | None = None) -> EstimationResult:
    enc = encode_of(ds)
    if cfg.method == "proposed":
        result = run_proposed(ds, enc, T=cfg.T, k=cfg.k, gamma=cfg.gamma, of_graph=of_graph)
    elif cfg.method == "ipal":
        result = run_ipal(ds, enc, T=cfg.T, k=cfg.k, alpha=cfg.alpha, of_graph=of_graph)
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


def load_result(path: str, ds: Dataset) -> EstimationResult:
    """Read a saved estimation result and check it against the seed's dataset."""
    if not os.path.exists(path):
        raise DataError(f"missing estimation result {path}; run estimate first")
    result = EstimationResult.load(path)
    names, sizes = tuple(c.name for c in ds.schema.cf_columns), ds.schema.cf_sizes
    if (result.cf_names, result.n) != (names, ds.n):
        raise DataError(f"{path} estimates CFs {list(result.cf_names)} on {result.n} rows; "
                        f"the dataset has CFs {list(names)} on {ds.n} rows")
    if result.sizes != sizes:
        raise DataError(f"{path} has CF widths {list(result.sizes)}, the schema has {list(sizes)}")
    hard = result.hard_estimates
    if hard.size and (hard.min() < 1 or (hard > np.array(sizes)).any()):
        raise DataError(f"{path} has hard estimates outside the CF codes")
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
    unknown = set(cfg.estimate_only) - {c.name for c in source.schema.cf_columns}
    if unknown:
        raise ConfigError(f"estimate_only names not in schema: {sorted(unknown)}")
    of_graph = shared_of_graph(cfg, source, cfg.k) if cfg.method != "comp" else None
    for seed in cfg.seeds:
        ds = experiment_dataset(cfg, source, seed)
        result = run_method(cfg, ds, seed, of_graph)
        fingerprint = input_fingerprint(ds, {"seed": seed, "max_n": cfg.max_n})
        path = result_path(cfg, cfg.method, seed)
        result.save(path, extra={"seed": seed, "input_hash": fingerprint})
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
        per_seed = [score_cf(load_result(path, ds), ds.cf_truth)
                    for ds, path in zip(datasets, paths)]
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
            result = load_result(result_path(cfg, cfg.method, seed), ds)
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
    checks = [
        oracle_mod.run_equivalence_suite(cfg.oracle_equivalence_instances),
        oracle_mod.run_monotone_suite(cfg.oracle_monotone_instances,
                                      slack=cfg.oracle_slack),
        oracle_mod.run_bound_suite(cfg.oracle_bound_instances,
                                   tol=cfg.oracle_slack),
    ]
    any_failures = False
    for i, check in enumerate(checks):
        for j, failure in enumerate(check["failures"]):
            any_failures = True
            path = os.path.join(cfg.out, f"counterexample_{i}_{j}.json")
            metrics_mod.write_json(failure, path)
    report = {
        "config": config_echo(cfg),
        "checks": [
            {k: v for k, v in check.items() if k != "failures"}
            | {"failure_count": len(check["failures"])}
            for check in checks
        ],
        "passed": not any_failures,
    }
    finalize_report(report, os.path.join(cfg.out, "oracle_report.json"))
    for check in checks:
        status = "PASS" if not check["failures"] else "FAIL"
        print(f"{status} {check['name']} ({check['instances']} instances)")
    if any_failures:
        raise VerificationError("verification produced counterexamples; see report")
    return 0


def cmd_sweep(cfg: ExperimentConfig, axis: str, values: list[str]) -> int:
    if axis not in ("T", "k", "gamma"):
        raise ConfigError("sweep axis must be one of T, k, gamma")
    if not values:
        raise ConfigError("sweep needs at least one value")
    os.makedirs(cfg.out, exist_ok=True)
    parse = float if axis == "gamma" else int
    try:
        points = [parse(v) for v in values]
    except ValueError:
        raise ConfigError(f"bad sweep value for axis {axis!r}") from None

    source = load_source(cfg)
    datasets = [experiment_dataset(cfg, source, seed) for seed in cfg.seeds]
    encodings = [encode_of(ds) for ds in datasets]
    of_graphs: dict[int, propagation.WeightGraph | None] = {}  # by k
    curve = []
    for value in points:
        params = {"T": cfg.T, "k": cfg.k, "gamma": cfg.gamma, axis: value}
        if params["k"] not in of_graphs:
            of_graphs[params["k"]] = shared_of_graph(cfg, source, params["k"])
        accs = []
        for ds, enc in zip(datasets, encodings):
            result = run_proposed(ds, enc, **params, of_graph=of_graphs[params["k"]])
            scores = score_cf(result, ds.cf_truth)
            accs.append(float(np.mean([s.acc for s in scores])))
        curve.append({"value": value, "mean_acc": float(np.mean(accs)),
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
    keys = {f.name for f in fields(ExperimentConfig)}
    overrides = {key: value for key, value in vars(args).items() if key in keys}
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
