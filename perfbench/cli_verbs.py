"""cli_verbs: every verb of the CLI, cold in a fresh process and warm in-process.

A cold run is dominated by interpreter and import start-up (numpy alone is
most of it); a warm run through click's CliRunner exercises ``derivation``,
``machine``, ``library`` and ``core``/``energy`` at width 3. A wide-gate
change that taxes small gates shows on the warm side, a lazy import that
slows ``simulate`` on both.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from click.testing import CliRunner

from revlogic.cli import main
from revlogic.derivation import (
    classify,
    derived_connectives,
    iter_fixings,
    output_function,
    restrict,
)
from revlogic.device import DeviceConfig
from revlogic.library import GateId, all_gate_ids, build, formula_output
from revlogic.machine import (
    NormalizationId,
    coherence_check,
    machine_table,
    verify_all_conclusions,
)

from harness import Checks, Outcome, Tracer, run_rounds

ROOT = Path(__file__).resolve().parent.parent
THREE_LINE_GATES = ("cl", "toffoli", "x", "i", "identity3")
SIMULATE_N = 10_000
#: Connectives each derive summary must contain: the acceptance-suite sets
#: for cl and toffoli, the verify-all set for x, the u4 conclusion for i.
DERIVED_SETS = {
    "cl": {"XOR", "OR", "NOR", "NOT", "FANOUT"},
    "toffoli": {"XOR", "AND", "NAND", "NOT", "FANOUT"},
    "x": {"XOR", "NXOR", "NOT", "FANOUT"},
    "i": {"IMPLIES_AB"},
}
#: The identity can only relay its inputs or the constants it was fixed to.
IDENTITY_SET = {"CONST0", "CONST1", "ID"}
VERIFY_ALL_PASSES = 12  # 8 conclusions, coherence, 3 derived sets
MACHINE_PASSES = 8  # one per normalization
#: 2 - H(1/4, 3/4): the OR realization, projected, under uniform inputs.
OR_ERASED_BITS = 2 + 0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)
ERASURE_TOL = 1e-9
#: Repetitions of each direct layer call in the traced pass.
LAYER_REPS = 20
PROBE_REPS = 5


@dataclass
class Inputs:
    verbs: list[tuple[str, list[str]]]
    simulate_seed: int
    env: dict[str, str]  # environment of the cold processes


def setup(seed: int) -> Inputs:
    simulate_seed = random.Random(seed).randrange(2**31)
    verbs = [("gates_list", ["gates", "list"]), ("gates_show_cl", ["gates", "show", "cl"])]
    verbs += [(f"derive_{g}", ["derive", g]) for g in THREE_LINE_GATES]
    verbs += [
        ("machine_all", ["machine", "--all"]),
        ("energy", ["energy", "--gate", "cl", "--fix", "x3=0", "--project", "3"]),
        ("verify_all", ["verify-all"]),
        ("simulate", ["simulate", "--input", "11", "--n", str(SIMULATE_N),
                      "--seed", str(simulate_seed)]),
    ]
    env = {k: v for k, v in os.environ.items() if k != "REVLOGIC_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return Inputs(verbs, simulate_seed, env)


def cl_rows() -> list[str]:
    """CL's outputs from its formula, x3' = (x1 or x2) xor x3."""
    rows = []
    for i in range(8):
        a, b, c = (i >> 2) & 1, (i >> 1) & 1, i & 1
        rows.append(f"{a}{b}{(a | b) ^ c}")
    return rows


def check_output(name: str, text: str, checks: Checks, simulate_n: int = SIMULATE_N) -> None:
    """The verb-specific oracle for one stdout."""
    lines = text.splitlines()
    try:
        if name == "gates_list":
            listed = {line.split()[0] for line in lines}
            checks.expect(listed == {g.value for g in GateId}, f"gates list shows {listed}")
        elif name == "gates_show_cl":
            table = json.loads(lines[-1])["table"]
            checks.expect(table == cl_rows(), f"gates show cl table {table}")
        elif name.startswith("derive_"):
            gate = name[len("derive_"):]
            names = set(lines[-1].removeprefix("summary: ").split(", "))
            if gate == "identity3":
                checks.expect(names <= IDENTITY_SET, f"derive identity3 gives {names}")
            else:
                checks.expect(DERIVED_SETS[gate] <= names, f"derive {gate} gives {names}")
        elif name == "machine_all":
            passes = sum(line.startswith("PASS: matches") for line in lines)
            checks.expect(passes == MACHINE_PASSES and "FAIL" not in text,
                          f"machine --all: {passes} PASS lines")
        elif name == "energy":
            erased = json.loads(text)["erased_bits"]
            checks.expect(abs(erased - OR_ERASED_BITS) < ERASURE_TOL,
                          f"energy erased {erased} bits, expected {OR_ERASED_BITS}")
        elif name == "verify_all":
            passes = sum(line.startswith("PASS ") for line in lines)
            checks.expect(passes == VERIFY_ALL_PASSES and "FAIL" not in text,
                          f"verify-all: {passes} PASS lines")
        elif name.startswith("simulate"):
            total = sum(int(row["count"]) for row in csv.DictReader(io.StringIO(text)))
            checks.expect(total == simulate_n, f"simulate counts sum to {total}")
    except (ValueError, KeyError, IndexError) as exc:
        checks.expect(False, f"{name}: unreadable output ({exc})")


def run_cold(inputs: Inputs, args: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "revlogic.cli", *args], cwd=ROOT,
                          env=inputs.env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def run_warm(runner: CliRunner, args: list[str]) -> tuple[int, bytes]:
    result = runner.invoke(main, args)
    return result.exit_code, result.stdout_bytes


def warm_session(inputs: Inputs, runner: CliRunner, tracer: Tracer,
                 checks: Checks) -> tuple[float, dict[str, bytes]]:
    """One in-process pass over every verb; returns its time and the outputs."""
    total = 0.0
    outputs = {}
    for name, args in inputs.verbs:
        t0 = time.perf_counter()
        with tracer.span(f"cli.warm.{name}", job=True):
            code, out = run_warm(runner, args)
        total += time.perf_counter() - t0
        checks.expect(code == 0, f"warm {name} exited {code}")
        check_output(name, out.decode(), checks)
        outputs[name] = out
    return total, outputs


def run(inputs: Inputs, tracer: Tracer, seconds: float, rounds: int | None = None,
        between: Callable[[float], None] | None = None) -> Outcome:
    """Rounds of one cold pass over the verbs, with a warm session after each
    cold invocation. A job is one cold invocation; a pass is one warm session;
    the units are warm verb runs."""
    outcome = Outcome()
    runner = CliRunner(env={"REVLOGIC_SEED": None})
    # untimed warm-up: bytecode caches, page cache, in-process imports
    _, reference = warm_session(inputs, runner, Tracer(False), outcome.checks)
    run_cold(inputs, ["gates", "list"])

    def one_round(_: int) -> None:
        for name, args in inputs.verbs:
            try:
                t0 = time.perf_counter()
                with tracer.span(f"cli.cold.{name}", job=True):
                    code, out = run_cold(inputs, args)
                elapsed = time.perf_counter() - t0
            except (OSError, subprocess.SubprocessError):
                outcome.checks.crashed(f"cold {name}")
                continue
            outcome.checks.expect(code == 0, f"cold {name} exited {code}")
            check_output(name, out.decode(), outcome.checks)
            outcome.checks.expect(out == reference[name], f"cold {name} stdout differs from warm")
            outcome.job_s.append(elapsed)
            try:
                session_s, _ = warm_session(inputs, runner, tracer, outcome.checks)
            except Exception:
                outcome.checks.crashed("warm session")
                continue
            outcome.pass_s.append(session_s)
            outcome.busy_s += session_s
            outcome.units += len(inputs.verbs)

    run_rounds(one_round, outcome, seconds, rounds, between)
    return outcome


def _timed_reps(tracer: Tracer, name: str, call, reps: int = LAYER_REPS):
    result = None
    for _ in range(reps):
        with tracer.span(name, job=True):
            result = call()
    return result


def probe_layers(inputs: Inputs, tracer: Tracer, checks: Checks) -> None:
    """Traced pass only: start-up parts and direct calls into the small layers."""
    python = [sys.executable, "-c"]
    for name, argv, env in (("cli.interpreter", python + ["pass"], None),
                            ("cli.import_numpy", python + ["import numpy"], None),
                            ("cli.import_cli", python + ["import revlogic.cli"], inputs.env)):
        for _ in range(PROBE_REPS):
            with tracer.span(name, job=True):
                code = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                      timeout=120).returncode
            checks.expect(code == 0, f"{name} exited {code}")
    big_n = 10**6
    for _ in range(3):
        with tracer.span("cli.cold.simulate_1e6", job=True):
            code, out = run_cold(inputs, ["simulate", "--input", "11", "--n", str(big_n),
                                          "--seed", str(inputs.simulate_seed)])
        checks.expect(code == 0, f"simulate --n {big_n} exited {code}")
        check_output("simulate", out.decode(), checks, simulate_n=big_n)

    def build_cold():
        build.cache_clear()
        return [build(g) for g in all_gate_ids()]

    def formula_check():
        return all(formula_output(g, w) == build(g).apply(w)
                   for g in all_gate_ids() for w in build(g).words())

    gates = [build(g) for g in THREE_LINE_GATES]
    fixings = list(iter_fixings(3))

    def restrict_all():
        return [restrict(g, f) for g in gates for f in fixings]

    def classify_all():
        return [classify(output_function(g, f, line))
                for g in gates for f in fixings for line in (1, 2, 3)]

    def machine_tables():
        return [machine_table(n, cfg=DeviceConfig(distinguishable=n is NormalizationId.U4))
                for n in NormalizationId]

    _timed_reps(tracer, "library.build_cold", build_cold)
    checks.expect(_timed_reps(tracer, "library.formula_check", formula_check),
                  "formula and table disagree")
    entries = 0
    for gate_id, gate in zip(THREE_LINE_GATES, gates):
        result = _timed_reps(tracer, f"derivation.derived_connectives.{gate_id}",
                             lambda gate=gate: derived_connectives(gate))
        entries += len(result.entries)
    tracer.count("derivation.fixings", len(fixings) * len(gates))
    tracer.count("derivation.entries", entries)
    _timed_reps(tracer, "derivation.restrict", restrict_all)
    _timed_reps(tracer, "derivation.classify", classify_all)
    verdicts = _timed_reps(tracer, "machine.verify_all_conclusions", verify_all_conclusions)
    checks.expect(all(v.passed for v in verdicts), "a machine conclusion failed")
    _timed_reps(tracer, "machine.machine_table", machine_tables)
    checks.expect(_timed_reps(tracer, "machine.coherence_check", coherence_check).passed,
                  "coherence check failed")


def layer_metrics(inputs: Inputs, tracer: Tracer) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for name in ("interpreter", "import_numpy", "import_cli"):
        metrics[f"cli.{name}_ms"] = (tracer.median(f"cli.{name}") * 1e3, "ms")
    for name in [n for n, _ in inputs.verbs] + ["simulate_1e6"]:
        metrics[f"cli.cold.{name}_ms"] = (tracer.median(f"cli.cold.{name}") * 1e3, "ms")
    for name, _ in inputs.verbs:
        metrics[f"cli.warm.{name}_ms"] = (tracer.median(f"cli.warm.{name}") * 1e3, "ms")
    for name in ("library.build_cold", "library.formula_check", "derivation.restrict",
                 "derivation.classify", "machine.verify_all_conclusions",
                 "machine.machine_table", "machine.coherence_check"):
        metrics[f"{name}_s"] = (tracer.median(name), "s")
    for gate_id in THREE_LINE_GATES:
        name = f"derivation.derived_connectives.{gate_id}"
        metrics[f"{name}_s"] = (tracer.median(name), "s")
    metrics["derivation.fixings"] = (tracer.counts["derivation.fixings"], "count")
    metrics["derivation.entries"] = (tracer.counts["derivation.entries"], "count")
    return metrics
