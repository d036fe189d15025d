"""Benchmark of ``compfeat`` estimate -> evaluate -> predict, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload estimate-bank --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's CLI command sequence, one fresh
``python -m compfeat.cli`` process per command and one process at a
time, over and over for ``--seconds`` seconds, and reports the
end-to-end metrics (medians over the repetitions; timings are CPU
seconds at reference host speed, see ``hostspeed.py``).  ``--trace 1`` runs
the sequence once untraced and once in-process with every layer's
public functions wrapped (see ``tracer.py``), and reports the per-layer
metrics.  Every command's outputs are checked; the last line of
standard output is the JSON result.  See ``perfbench/README.md``.
"""

import os

# Pinned before numpy is imported here or in any child process.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import checker  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from hostspeed import Clock  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402

# Sequences per measuring run: every sample once, and one again so that
# report hashes of a repeated input can be compared.
MIN_REPS = workloads.SAMPLES + 1
# ``compfeat prepare`` runs per sample in a measuring run; setup_s is the
# median over all of them.
SETUP_ROUNDS = 3
# A command still running this long after the run started is killed, so
# that a hung program still ends the run in bounded time.
RUN_LIMIT_S = 170.0
WORK_DIR = ".perfbench-work"
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")


def environment() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": THREADS,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
    }


def kill_group(pgid: int):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Run:
    """One measuring run of one workload: its directories, counters and checks."""

    def __init__(self, wl: workloads.Workload, src: str, work: str):
        self.wl = wl
        self.work = work
        self.inputs = os.path.join(work, "inputs")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.observed: dict[int, dict[int, dict]] = {}   # sample -> CLI seed -> CF codes
        self.kill_at = perf_counter() + RUN_LIMIT_S
        self.clock = Clock()

    # -- commands ----------------------------------------------------------

    def argv(self, step: workloads.Step, sample: int) -> list[str]:
        # Paths are relative to the command's directory, so reports echo
        # the same configuration in every repetition and checkout.
        return list(step.argv) + list(workloads.common_args(
            self.wl, os.path.join("..", "inputs"), sample))

    def run_cli(self, argv: list[str], cwd: str) -> tuple[float, int, float, float]:
        """Wall seconds, exit code, max RSS (MB) and CPU seconds of one CLI process.

        The command is started through ``launch.py`` in a process group of
        its own; past the run limit the whole group is killed.
        """
        usage_file = os.path.join(cwd, "usage.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(usage_file)
        with open(os.path.join(cwd, "cli.log"), "ab") as log:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, LAUNCHER, usage_file,
                                     sys.executable, "-m", "compfeat.cli", *argv],
                                    cwd=cwd, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(max(0.0, self.kill_at - perf_counter()), kill_group, (proc.pid,))
            timer.start()
            try:
                proc.wait()
            except BaseException:
                kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        try:
            with open(usage_file, encoding="utf-8") as fh:
                usage = json.load(fh)
        except (OSError, ValueError):
            return wall, proc.returncode, 0.0, 0.0
        return wall, usage["code"], usage["maxrss_mb"], usage["cpu_s"]

    def record(self, label: str, code, problems: list[str]):
        self.attempted += 1
        if code != 0:
            problems = [f"{label}: exit code {code}"] + problems
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def check_step(self, step: workloads.Step, out: str, sample: int) -> list[str]:
        problems = []
        if step.writes_estimates:
            for seed in self.wl.cli_seeds:
                path = os.path.join(out, f"estimate_{self.wl.method}_seed{seed}.json")
                problems += checker.check_estimate(path, self.observed[sample][seed], self.wl.method)
        for report in step.reports:
            found, digest = checker.check_report(os.path.join(out, report))
            key = f"sample {sample} {report}"
            if digest != self.digests.setdefault(key, digest):
                found.append(f"{key}: content_hash differs between repetitions")
            problems += found
        return problems

    def run_step(self, step: workloads.Step, cwd: str, sample: int) -> dict:
        """Wall and CPU seconds, CPU seconds at reference host speed and max RSS
        (MB) of one checked command."""
        with self.clock.sampling():
            wall, code, rss, cpu = self.run_cli(self.argv(step, sample), cwd)
        ref = cpu * self.clock.scale()
        self.record(step.label, code,
                    self.check_step(step, os.path.join(cwd, "out"), sample) if code == 0 else [])
        return {"wall": wall, "cpu": cpu, "ref": ref, "rss_mb": rss}

    # -- phases ------------------------------------------------------------

    def setup(self, samples: int, rounds: int = 1) -> list[dict]:
        """Time ``compfeat prepare`` per sample; its CSVs give the checker the observed values."""
        prepare = workloads.Step("prepare", ("prepare",), reports=("manifest.json",))
        vocab = checker.read_vocabularies(os.path.join(self.inputs, workloads.SCHEMA))
        times = []
        for _, sample in itertools.product(range(rounds), range(samples)):
            cwd = fresh_dir(os.path.join(self.work, f"setup{sample}"))
            times.append(dict(self.run_step(prepare, cwd, sample), sample=sample))
            self.observed[sample] = {}
            for seed in self.wl.cli_seeds:
                path = os.path.join(cwd, "out", f"prepared_seed{seed}.csv")
                try:
                    self.observed[sample][seed] = checker.read_observed(path, vocab)
                except (OSError, KeyError, StopIteration) as exc:
                    raise SystemExit(f"cannot read the prepared observations {path}: {exc!r}")
        return times

    def sequence(self, cwd: str, sample: int) -> dict:
        """Run the workload's steps untraced in a fresh directory."""
        fresh_dir(cwd)
        steps = {step.label: self.run_step(step, cwd, sample) for step in self.wl.steps}
        return {"sample": sample, "steps": steps,
                "wall_total": sum(s["wall"] for s in steps.values()),
                "ref_total": sum(s["ref"] for s in steps.values()),
                "rss_mb": max(s["rss_mb"] for s in steps.values())}

    def traced_sequence(self, cwd: str, sample: int) -> tuple[float, Tracer]:
        """Run the workload's steps in this process under the tracer."""
        import compfeat.cli as cli

        fresh_dir(cwd)
        tracer = Tracer()
        codes = []
        here = os.getcwd()
        with open(os.path.join(cwd, "cli.log"), "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), \
                tracer.installed():
            os.chdir(cwd)
            try:
                t0 = perf_counter()
                for request, step in enumerate(self.wl.steps):
                    tracer.request = request
                    with tracer.span(ROOT):
                        try:
                            codes.append(cli.main(self.argv(step, sample)))
                        except Exception:  # noqa: BLE001 - counted as a failed command
                            traceback.print_exc()
                            codes.append(None)
                wall = perf_counter() - t0
            finally:
                os.chdir(here)
        for step, code in zip(self.wl.steps, codes):
            self.record(step.label, code,
                        self.check_step(step, os.path.join(cwd, "out"), sample) if code == 0 else [])
        return wall, tracer


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: timings are medians over repetitions, quality means over samples."""
    wl = run.wl
    setup_times = run.setup(workloads.SAMPLES, SETUP_ROUNDS)
    reps, quality, elapsed = [], [], []
    rep_dir = os.path.join(run.work, "rep")
    deadline = perf_counter() + seconds
    # A sequence starts only if a typical one still ends before the deadline.
    while len(reps) < MIN_REPS or perf_counter() + statistics.median(elapsed) < deadline:
        t0 = perf_counter()
        reps.append(run.sequence(rep_dir, len(reps) % workloads.SAMPLES))
        elapsed.append(perf_counter() - t0)
        if len(reps) <= workloads.SAMPLES:
            quality.append(workloads.quality(wl, os.path.join(rep_dir, "out")))
    metrics = {
        "setup_s": statistics.median(t["ref"] for t in setup_times),
        "run_s": statistics.median(r["ref_total"] for r in reps),
        "estimate_s": statistics.median(r["steps"]["estimate"]["ref"] for r in reps),
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
    }
    metrics.update({name: statistics.fmean(q[name] for q in quality) for name in quality[0]})
    metrics["ok_frac"] = 1.0 - run.failed / run.attempted
    return metrics, {"setup_s": setup_times, "reps": reps, "quality": quality,
                     "calibration_task_s": run.clock.task_s}


def measure_traced(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics from one traced sequence, against one untraced sequence."""
    run.setup(1)
    untraced = run.sequence(os.path.join(run.work, "rep"), 0)
    wall, tracer = run.traced_sequence(os.path.join(run.work, "traced"), 0)
    tracer.write_spans(os.path.join(run.work, "spans.jsonl"))
    return tracer.metrics(wall, untraced["wall_total"]), {"untraced": untraced, "traced_s": wall}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def run_workload(wl: workloads.Workload, seed: int, seconds: float, trace: int,
                 src: str, work: str) -> dict:
    """Generate inputs, measure, check; returns the full result record."""
    run = Run(wl, src, fresh_dir(work))
    workloads.write_inputs(wl, seed, run.inputs)
    inputs = {name: sha256(os.path.join(run.inputs, name))
              for name in sorted(os.listdir(run.inputs))}
    metrics, samples = measure_traced(run) if trace else measure(run, seconds)
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "inputs_sha256": inputs,
        "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
        "metrics": metrics, "samples": samples,
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if not run.failed:
        for name in os.listdir(work):
            if os.path.isdir(os.path.join(work, name)):
                shutil.rmtree(os.path.join(work, name))
    return record


def pin_to_one_cpu():
    """Run this process and every command it starts on one CPU, so that
    the host calibration measures the CPU the commands ran on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "compfeat", "cli.py")):
        print(f"benchmark: no compfeat sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # Terminated, the benchmark still kills the command it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    pin_to_one_cpu()
    wl = workloads.BY_NAME[args.workload]
    work = os.path.join(root, WORK_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    record = run_workload(wl, args.seed, args.seconds, args.trace, src, work)

    print(f"workload {wl.name}, seed {args.seed}: {wl.why}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("inputs sha256 " + json.dumps(record["inputs_sha256"], sort_keys=True))
    if not args.trace:
        print(f"timings are medians over {len(record['samples']['reps'])} sequences "
              f"and {len(record['samples']['setup_s'])} prepare runs; quality is the mean "
              f"over {workloads.SAMPLES} row samples")
    for name, value in record["metrics"].items():
        print(f"  {name} = {value:.6g} {spec.UNITS[name]} ({spec.BETTER[name]} is better)")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
