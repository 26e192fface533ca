"""The benchmark's own tests: tiny smoke runs, planted failures, metric names.

    python3 -m pytest perfbench -q

The last two tests run the real command and take about a minute and a half.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

import cli_verbs  # noqa: E402
import device_mc  # noqa: E402
import wide_gates  # noqa: E402
from harness import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload: str, seed: int = 1):
    if workload == "wide_gates":
        return wide_gates, wide_gates.setup(seed, widths=(3, 5))
    if workload == "device_mc":
        return device_mc, device_mc.setup(seed, n=20_000)
    return cli_verbs, cli_verbs.setup(seed)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run_is_correct(workload):
    module, inputs = tiny(workload)
    tracer = Tracer(True)
    # device_mc repeats its first seed in round 5, which checks identical counts;
    # wide_gates takes one kind per round
    rounds = {"device_mc": device_mc.SEEDS_PER_RUN + 1,
              "wide_gates": len(wide_gates.KINDS)}.get(workload, 1)
    outcome = module.run(inputs, tracer, 0, rounds)
    assert outcome.checks.failures == []
    assert outcome.checks.attempted > 0 and outcome.units > 0
    assert outcome.job_s and outcome.pass_s and len(outcome.round_s) == rounds
    if workload != "cli_verbs":  # its layer metrics also need probe_layers
        assert module.layer_metrics(inputs, tracer)


def plant_wrong_expectation(workload, inputs, monkeypatch):
    if workload == "wide_gates":
        inputs.gates[0].self_reversible = not inputs.gates[0].self_reversible
    elif workload == "device_mc":
        monkeypatch.setattr(device_mc, "MISCLASSIFY_LIMIT", 0.0)
    else:
        monkeypatch.setattr(cli_verbs, "VERIFY_ALL_PASSES", cli_verbs.VERIFY_ALL_PASSES + 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_planted_wrong_expectation_raises_error_rate(workload, monkeypatch):
    module, inputs = tiny(workload)
    plant_wrong_expectation(workload, inputs, monkeypatch)
    outcome = module.run(inputs, Tracer(False), 0, 1)
    assert outcome.checks.failed / outcome.checks.attempted > 0


def command(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=175, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_names(result: dict, declared: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_end_to_end_names_match_benchmark_json():
    result = command("--workload", "device_mc", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert_names(result, BENCHMARK["end_to_end"])


def test_per_layer_names_match_benchmark_json():
    result = command("--workload", "cli_verbs", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert_names(result, BENCHMARK["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wide_gates",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
