"""Run a benchmark workload in alternating parent/change pairs and summarise it.

    python tools/pairs.py --parent HEAD --change . --workload cli_verbs --pairs 10 --seed 1

The parent is a ``git archive`` of ``--parent`` (a revision of the repository
``--change`` sits in); the change is a copy of the files ``git ls-files`` lists
in ``--change``'s work tree, committed or not (ignored files are left out). In
both copies every ``__pycache__`` is deleted and ``python -m compileall -q`` is
run over ``src`` and the benchmark's paths, so neither side starts with stale
or missing bytecode. Then ``--pairs`` pairs run, one process at a time, with
the side that goes first alternating (the parent in pair 0) and pair ``i``
using seed ``--seed + i`` on both sides. Each run is the ``BENCHMARK.json``
command with ``--workload W --seed S --seconds T --trace 0`` (``T`` is its
``run_seconds``), and its last stdout line is read as JSON.

The report keeps the environment, each run's last line and, for every
end-to-end metric ``BENCHMARK.json`` names, each side's quartiles, the
parent's spread (q3 - q1, also relative to its median), the median of the
per-pair change/parent ratios, the pairs the change won (ties count for
neither side) and ``unresolved`` when the parent's relative spread exceeds
the metric's bound. ``gain`` says whether the change won at least nine pairs
in ten and its median is better than the parent's by more than the parent's
spread. The environment records the ``PYTHONDONTWRITEBYTECODE`` value the
runs inherit and the paths ``fresh_bytecode`` compiled in both trees: a
checkout without bytecode recompiles ``src`` in every cold process, so runs
made under other bytecode conditions do not compare. The report is
reporting only: nothing here passes or fails a change.
Only the standard library is used.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

#: The share of pairs a change must win, and by how much its median must lead.
WIN_SHARE = 0.9
RUN_TIMEOUT_S = 600


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True,
                          check=True).stdout


def archive_parent(change: Path, rev: str, dest: Path) -> None:
    """``git archive`` of ``rev``, unpacked into ``dest``."""
    tar = subprocess.run(["git", "-C", str(change), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def copy_change(change: Path, dest: Path) -> None:
    """The work tree's tracked and untracked, not ignored, files, as they are on disk."""
    listed = git(change, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = change / name
        if source.is_file():  # a tracked file deleted in the work tree is not part of it
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def fresh_bytecode(tree: Path, paths: list[str]) -> None:
    """Delete every ``__pycache__`` under ``tree``, then compile ``paths`` anew."""
    for cache in sorted(tree.rglob("__pycache__"), reverse=True):
        shutil.rmtree(cache)
    present = [path for path in paths if (tree / path).exists()]
    subprocess.run([sys.executable, "-m", "compileall", "-q", *present], cwd=tree,
                   check=True, capture_output=True)


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark process in ``tree``: its exit code, time and last stdout line."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    load1 = os.getloadavg()[0]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    record = {"returncode": proc.returncode, "elapsed_s": time.perf_counter() - t0,
              "load1_before": load1, "last": None}
    try:
        record["last"] = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q2 = q3 = values[0] if values else None
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def summarise(pairs: list[dict], metric: dict) -> dict:
    """One end-to-end metric over the pairs in which both sides reported it."""
    name, lower = metric["name"], metric["better"] == "lower"
    both = [(p["parent"]["last"]["metrics"][name]["value"],
             p["change"]["last"]["metrics"][name]["value"])
            for p in pairs
            if all((p[side]["last"] or {}).get("metrics", {}).get(name) for side in
                   ("parent", "change"))]
    parent, change = [a for a, _ in both], [b for _, b in both]
    base, moved = quartiles(parent), quartiles(change)
    won = sum(b < a if lower else b > a for a, b in both)
    report = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
              "parent": base, "change": moved, "pairs": len(both), "pairs_won": won,
              "median_ratio": None, "parent_spread": None, "parent_spread_ratio": None,
              "unresolved": None, "gain": False}
    if not both:
        return report
    spread = base["q3"] - base["q1"]
    lead = base["median"] - moved["median"] if lower else moved["median"] - base["median"]
    report.update(
        median_ratio=statistics.median(b / a for a, b in both) if all(parent) else None,
        parent_spread=spread,
        parent_spread_ratio=spread / abs(base["median"]) if base["median"] else None,
        gain=won >= WIN_SHARE * len(both) and lead > spread,
    )
    report["unresolved"] = (report["parent_spread_ratio"] is None
                            or report["parent_spread_ratio"] > metric["bound"])
    return report


def failed_share(runs: list[dict]) -> float | None:
    """Failed operations over attempted ones, across the runs that reported both."""
    attempted = sum((r["last"] or {}).get("attempted", 0) for r in runs)
    failed = sum((r["last"] or {}).get("failed", 0) for r in runs)
    return failed / attempted if attempted else None


def compare(parent_tree: Path, change_tree: Path, benchmark: dict, workload: str, pairs: int,
            seed: int, seconds: float) -> dict:
    """Run the pairs and summarise them; the trees already hold fresh bytecode."""
    trees = {"parent": parent_tree, "change": change_tree}
    done = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"pair": i, "seed": seed + i, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], benchmark["command"], workload, seed + i, seconds)
            print(f"pair {i} {side}: exit {pair[side]['returncode']}, "
                  f"{pair[side]['elapsed_s']:.1f} s", file=sys.stderr, flush=True)
        done.append(pair)
    return {
        "workload": workload, "pairs": pairs, "seed": seed, "seconds": seconds,
        "failed_share": {side: failed_share([p[side] for p in done]) for side in trees},
        "metrics": {m["name"]: summarise(done, m) for m in benchmark["end_to_end"]},
        "runs": done,
    }


def environment(change: Path, rev: str, compiled: list[str]) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "parent": git(change, "rev-parse", rev).strip(),
        "change_head": git(change, "rev-parse", "HEAD").strip(),
        "change_dirty": bool(git(change, "status", "--porcelain").strip()),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "bytecode": f"both trees compiled by fresh_bytecode: {', '.join(compiled)}",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, type=Path, help="work tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON report, merged into an existing one under its "
                             "results['<workload>-seed<S>']; default: stdout")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the two copies go; default: a new temporary directory")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    change = args.change.resolve()
    benchmark = json.loads((change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="pairs-"))
    parent_tree, change_tree = workdir / "parent", workdir / "change"
    for tree in (parent_tree, change_tree):
        if tree.exists():
            shutil.rmtree(tree)
        tree.mkdir(parents=True)
    archive_parent(change, args.parent, parent_tree)
    copy_change(change, change_tree)
    compiled = ["src", *benchmark.get("paths", [])]
    for tree in (parent_tree, change_tree):
        fresh_bytecode(tree, compiled)
    result = {"env": environment(change, args.parent, compiled),
              **compare(parent_tree, change_tree, benchmark, args.workload, args.pairs,
                        args.seed, seconds)}
    report = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    report.setdefault("results", {})[f"{args.workload}-seed{args.seed}"] = result
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
