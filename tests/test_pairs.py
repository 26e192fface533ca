"""tools/pairs.py against a stub benchmark in a throwaway git repository: the
copies, the bytecode step, the alternating pairs and the report's shape."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

#: Reports what it sees in its tree and a metric per side: ``speed.txt`` holds
#: the pass time; the parent's throughput swings with the seed; seed 42 crashes.
STUB = '''
import argparse, json, pathlib, sys, time
parser = argparse.ArgumentParser()
for name, kind in (("--workload", str), ("--seed", int), ("--seconds", float), ("--trace", int)):
    parser.add_argument(name, type=kind)
args = parser.parse_args()
if args.seed == 42:
    sys.exit("crashed")
root = pathlib.Path.cwd()
lock = root.parent / "running"
if lock.exists():
    sys.exit("two runs at once")
lock.touch()
time.sleep(0.05)
lock.unlink()
speed = float((root / "speed.txt").read_text())
throughput = 1000 / speed if speed < 10 else 100 * (1 + 2 * (args.seed % 2))
print("a line before the result")
print(json.dumps({
    "correct": True, "attempted": 10, "failed": int(speed < 10),
    "metrics": {"pass_p50_ms": {"value": speed, "unit": "ms"},
                "job_p50_ms": {"value": 5.0, "unit": "ms"},
                "throughput_per_s": {"value": throughput, "unit": "1/s"}},
    "args": vars(args),
    "stale": (root / "src" / "pkg" / "__pycache__" / "stale.pyc").exists(),
    "compiled": any((root / "src" / "pkg" / "__pycache__").glob("__init__*.pyc")),
}))
'''


def metric(name, unit, better):
    return {"name": name, "unit": unit, "better": better, "bound": 0.25}


@pytest.fixture
def repo(tmp_path):
    """A commit whose pass time is 10 ms, and a work tree that makes it 8 ms."""
    root = tmp_path / "repo"
    (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text("VALUE = 1\n")
    (root / "src" / "pkg" / "__pycache__" / "stale.pyc").write_text("stale")
    (root / "bench.py").write_text(STUB)
    (root / "speed.txt").write_text("10")
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench.py"], "paths": ["bench_dir"], "run_seconds": 0.5,
        "end_to_end": [metric("pass_p50_ms", "ms", "lower"), metric("job_p50_ms", "ms", "lower"),
                       metric("throughput_per_s", "1/s", "higher"),
                       metric("peak_rss_mb", "MB", "lower")]}))
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "parent"], check=True)
    (root / "speed.txt").write_text("8")  # the change, not committed
    return root


def run_tool(repo, tmp_path, *extra):
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--parent", "HEAD", "--change", str(repo), "--workload", "w",
                       "--workdir", str(tmp_path / "work"), "--out", str(out), *extra]) == 0
    return json.loads(out.read_text())


def test_alternating_pairs_on_fresh_copies(repo, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    report = run_tool(repo, tmp_path, "--pairs", "3", "--seed", "5")
    head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()
    result = report["results"]["w-seed5"]
    assert result["env"]["parent"] == head and result["env"]["change_dirty"] is True
    # the bytecode conditions: what the runs inherit, and what both trees were given
    assert result["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert result["env"]["bytecode"] == "both trees compiled by fresh_bytecode: src, bench_dir"
    assert [(p["pair"], p["seed"], p["first"]) for p in result["runs"]] == [
        (0, 5, "parent"), (1, 6, "change"), (2, 7, "parent")]
    for run in result["runs"]:
        for side, speed in (("parent", 10.0), ("change", 8.0)):
            last = run[side]["last"]
            assert run[side]["returncode"] == 0
            assert last["metrics"]["pass_p50_ms"]["value"] == speed
            assert last["args"] == {"workload": "w", "seed": run["seed"], "seconds": 0.5,
                                    "trace": 0}
            # the stale cache was deleted and src compiled again on both sides
            assert (last["stale"], last["compiled"]) == (False, True)
    assert result["failed_share"] == {"parent": 0.0, "change": 0.1}


def test_metric_summaries(repo, tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    result = run_tool(repo, tmp_path, "--pairs", "4", "--seed", "0")["results"]["w-seed0"]
    assert result["env"]["PYTHONDONTWRITEBYTECODE"] is None  # unset, not ""
    metrics = result["metrics"]
    passed = metrics["pass_p50_ms"]
    assert passed["parent"] == {"n": 4, "q1": 10.0, "median": 10.0, "q3": 10.0}
    assert passed["change"]["median"] == 8.0
    assert (passed["pairs"], passed["pairs_won"]) == (4, 4)
    assert passed["median_ratio"] == pytest.approx(0.8)
    assert (passed["parent_spread"], passed["unresolved"], passed["gain"]) == (0.0, False, True)
    tied = metrics["job_p50_ms"]  # equal on both sides: no pair won, no gain
    assert (tied["pairs_won"], tied["median_ratio"], tied["gain"]) == (0, 1.0, False)
    noisy = metrics["throughput_per_s"]  # the parent swings 100/300: wider than its bound
    assert noisy["parent"]["q1"] == 100 and noisy["parent"]["q3"] == 300
    assert noisy["parent_spread_ratio"] == 1.0 and noisy["unresolved"] is True
    assert noisy["pairs_won"] == 2 and noisy["gain"] is False
    missing = metrics["peak_rss_mb"]  # not reported by either side
    assert (missing["pairs"], missing["unresolved"], missing["gain"]) == (0, None, False)


def test_a_crashed_run_is_kept_and_left_out_of_the_summary(repo, tmp_path):
    report = run_tool(repo, tmp_path, "--pairs", "1", "--seed", "42")
    report = run_tool(repo, tmp_path, "--pairs", "1", "--seed", "1")  # merged into the file
    assert set(report["results"]) == {"w-seed42", "w-seed1"}
    crashed = report["results"]["w-seed42"]
    assert crashed["runs"][0]["parent"]["last"] is None
    assert "crashed" in crashed["runs"][0]["parent"]["stderr_tail"]
    assert crashed["metrics"]["pass_p50_ms"]["pairs"] == 0
    assert report["results"]["w-seed1"]["metrics"]["pass_p50_ms"]["pairs"] == 1
