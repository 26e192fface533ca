"""Run one revlogic benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wide_gates --seed 1 --seconds 38 --trace 0

``--trace 0`` measures the workload untraced and prints its end-to-end
metrics. ``--trace 1`` prints the per-layer metrics instead: it runs a
traced pass of every workload (whatever ``--workload`` says), reports
per-layer times, counts, self time and tracing overhead, and writes the
spans to ``.perfbench_out/``. ``--workload all --trace 0`` runs the three
workloads one after another, each in its own process, and prints their
metrics under the names used in README.md.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Everything is read and written inside the checkout this file sits
in; the program is imported from its ``src/``.
"""
from __future__ import annotations

import time

START = time.perf_counter()  # the set-up clock starts before any import of the program

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib.metadata import version  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import Checks, Tracer, percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("wide_gates", "device_mc", "cli_verbs")
#: Set-up is timed this many times, each in a fresh process, spread over the
#: run in step with its rounds; the median is reported.
SETUP_REPS = 9
#: Rounds per workload in the traced pass: wide_gates needs one per kind,
#: device_mc one per seed.
TRACE_ROUNDS = {"wide_gates": 3, "device_mc": 4, "cli_verbs": 1}
LAYERS = ("core", "energy", "device", "library", "derivation", "machine", "cli", "harness")
#: Names the README uses for each workload's metrics: (name, scale, unit).
README_NAMES = {
    "wide_gates": {"throughput_per_s": ("wide_rows_per_s", 1.0, "1/s"),
                   "job_p50_ms": ("wide_w16_job_s", 1e-3, "s")},
    "device_mc": {"throughput_per_s": ("mc_samples_per_s", 1.0, "1/s"),
                  "job_p50_ms": ("mc_histogram_p50_ms", 1.0, "ms"),
                  "job_p90_ms": ("mc_histogram_p90_ms", 1.0, "ms")},
    "cli_verbs": {"job_p50_ms": ("cli_cold_p50_ms", 1.0, "ms"),
                  "job_p90_ms": ("cli_cold_p90_ms", 1.0, "ms"),
                  "pass_p50_ms": ("cli_warm_session_p50_ms", 1.0, "ms"),
                  "pass_p90_ms": ("cli_warm_session_p90_ms", 1.0, "ms")},
}


def load_program() -> None:
    """Import revlogic from this checkout's src/, never from anywhere else."""
    if not (SRC / "revlogic" / "__init__.py").is_file():
        sys.exit(f"perfbench: no revlogic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import revlogic

    if not Path(revlogic.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported revlogic from {revlogic.__file__}, not {SRC}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def child_argv(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def setup_once(workload: str, seed: int) -> float:
    """Set-up time of one fresh process: imports plus input generation."""
    proc = subprocess.run(child_argv(workload, seed, "--setup-only"), cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    return last_json(proc.stdout)["setup_s"]


def end_to_end(outcome, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (outcome.units / outcome.busy_s, "1/s"),
        "job_p50_ms": (percentile(outcome.job_s, 50) * 1e3, "ms"),
        "job_p90_ms": (percentile(outcome.job_s, 90) * 1e3, "ms"),
        "pass_p50_ms": (percentile(outcome.pass_s, 50) * 1e3, "ms"),
        "pass_p90_ms": (percentile(outcome.pass_s, 90) * 1e3, "ms"),
    }


def measure(workload: str, seed: int, seconds: float):
    """Untraced run of one workload: (metrics, checks, sample counts).

    The set-up reps are taken between rounds, as many as the share of the
    run done so far calls for, so that they see the machine as the rounds
    do rather than as it was in the first second.
    """
    module = importlib.import_module(workload)
    inputs = module.setup(seed)
    setup_times: list[float] = []

    def set_up_until(share: float) -> None:
        while len(setup_times) < min(SETUP_REPS, round(SETUP_REPS * share)):
            setup_times.append(setup_once(workload, seed))

    outcome = module.run(inputs, Tracer(False), seconds, between=set_up_until)
    set_up_until(1.0)
    samples = {"jobs": len(outcome.job_s), "passes": len(outcome.pass_s),
               "rounds": len(outcome.round_s), "setups": len(setup_times)}
    return end_to_end(outcome, percentile(setup_times, 50)), outcome.checks, samples


def trace_all(seed: int):
    """A traced pass of every workload: (metrics, checks, tracer)."""
    tracer = Tracer(True)
    checks = Checks()
    metrics: dict = {}
    span_s = span_cost_s()
    for workload in WORKLOADS:
        module = importlib.import_module(workload)
        inputs = module.setup(seed)
        spans_before = len(tracer.spans)
        traced = module.run(inputs, tracer, 0, TRACE_ROUNDS[workload])
        added_s = (len(tracer.spans) - spans_before) * span_s
        metrics[f"trace.overhead.{workload}"] = (added_s / (sum(traced.round_s) - added_s),
                                                 "ratio")
        if workload == "cli_verbs":
            module.probe_layers(inputs, tracer, checks)
        metrics.update(module.layer_metrics(inputs, tracer))
        checks.attempted += traced.checks.attempted
        checks.failures += traced.checks.failures
    self_s = tracer.layer_self_seconds()
    for layer in LAYERS:
        metrics[f"trace.self.{layer}_s"] = (self_s.get(layer, 0.0), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.span_cost_us"] = (span_s * 1e6, "us")
    return metrics, checks, tracer


def span_cost_s(reps: int = 10_000) -> float:
    """Time one empty span takes to record, the tracer's cost per layer call."""
    probe = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(reps):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - t0) / reps


def run_all(args) -> tuple[dict, Checks]:
    """Each workload in its own process, one at a time, under README names."""
    metrics: dict = {}
    checks = Checks()
    for workload in WORKLOADS:
        proc = subprocess.run(child_argv(workload, args.seed, "--seconds", str(args.seconds),
                                         "--trace", "0"),
                              cwd=ROOT, capture_output=True, text=True, timeout=175)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: {workload} exited {proc.returncode}")
        result = last_json(proc.stdout)
        record = json.loads((OUT_DIR / f"{workload}-seed{args.seed}-trace0.json").read_text())
        checks.attempted += result["attempted"]
        checks.failures += [f"{workload}: {failure}" for failure in record["failures"]]
        aliases = README_NAMES[workload]
        for name, metric in result["metrics"].items():
            if name in aliases:
                alias, scale, unit = aliases[name]
                metrics[alias] = (metric["value"] * scale, unit)
            elif name in ("setup_s", "peak_rss_mb"):
                metrics[f"{workload}.{name}"] = (metric["value"], metric["unit"])
        metrics[f"{workload}.error_rate"] = (result["failed"] / result["attempted"], "ratio")
    return metrics, checks


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports and input generation, then stop")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    if args.setup_only:
        importlib.import_module(args.workload).setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - START}))
        return 0

    record: dict = {"env": environment(args)}
    if args.trace:
        metrics, checks, tracer = trace_all(args.seed)
        record["spans"] = [s.to_json() for s in tracer.spans]
        record["counts"] = dict(tracer.counts)
    elif args.workload == "all":
        metrics, checks = run_all(args)
    else:
        metrics, checks, record["samples"] = measure(args.workload, args.seed, args.seconds)

    for failure in checks.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    print("env " + json.dumps(record["env"]))
    if "samples" in record:
        print("samples " + json.dumps(record["samples"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**record, **result,
                                                       "failures": checks.failures}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
