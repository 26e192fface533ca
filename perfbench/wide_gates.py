"""wide_gates: seeded wide permutation gates through the core/energy pipeline.

Each job takes one gate from bitstrings through make_gate, inverse, then,
flags, a JSON round trip, and info_loss under uniform inputs, both on the
full table and projected onto one output line. ``core`` and ``energy`` do
nearly all the work here; ``device`` and ``cli`` do none.

Widths 12/14/16 move the working set from cache-resident to about 160 MB
of ``Word`` tuples. The three permutation kinds change how far ``flags``
scans: a random table fails both predicates at once, an involution passes
self-reversibility on every row, and a shuffle inside each Hamming-weight
class passes conservativity on every row.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from revlogic.core import Gate, make_gate
from revlogic.energy import Distribution, info_loss, transfer_table

from harness import Outcome, Tracer, percentile, run_rounds

WIDTHS = (12, 14, 16)
KINDS = ("random", "involution", "conservative")
#: Erasure of a bijection is exactly 0; projecting one onto a single line
#: under uniform inputs erases exactly width - 1 bits.
ERASURE_TOL = 1e-9


@dataclass
class GateInput:
    kind: str
    width: int
    outputs: list[str]  # bitstring rows in encoding order, what make_gate reads
    project_line: int
    self_reversible: bool  # the flags, decided here with numpy, independently of core
    conservative: bool


@dataclass
class Inputs:
    gates: list[GateInput]
    identity_bits: dict[int, list[tuple[int, ...]]]


def popcounts(width: int) -> np.ndarray:
    codes = np.arange(1 << width)
    return ((codes[:, None] >> np.arange(width)) & 1).sum(axis=1)


def permutation(kind: str, width: int, rng: np.random.Generator) -> np.ndarray:
    size = 1 << width
    if kind == "random":
        return rng.permutation(size)
    perm = np.arange(size)
    if kind == "involution":
        pairs = rng.permutation(size).reshape(-1, 2)
        perm[pairs[:, 0]] = pairs[:, 1]
        perm[pairs[:, 1]] = pairs[:, 0]
        return perm
    weights = popcounts(width)
    for weight in range(width + 1):
        members = np.flatnonzero(weights == weight)
        perm[members] = rng.permutation(members)
    return perm


def setup(seed: int, widths: tuple[int, ...] = WIDTHS) -> Inputs:
    rng = np.random.default_rng(seed)
    gates = []
    for kind in KINDS:
        for width in widths:
            perm = permutation(kind, width, rng)
            codes = np.arange(1 << width)
            weights = popcounts(width)
            gates.append(GateInput(
                kind=kind,
                width=width,
                outputs=[format(p, f"0{width}b") for p in perm.tolist()],
                project_line=int(rng.integers(1, width + 1)),
                self_reversible=bool(np.array_equal(perm[perm], codes)),
                conservative=bool(np.array_equal(weights[perm], weights)),
            ))
    identity_bits = {
        width: [tuple(map(int, format(i, f"0{width}b"))) for i in range(1 << width)]
        for width in widths
    }
    return Inputs(gates, identity_bits)


def pipeline(item: GateInput, tracer: Tracer) -> dict:
    """One job; returns everything the checks need."""
    w, attrs = item.width, {"kind": item.kind}
    with tracer.span(f"core.make_gate.w{w}", **attrs):
        gate = make_gate(w, item.outputs)
    with tracer.span(f"core.inverse.w{w}", **attrs):
        inverse = gate.inverse()
    with tracer.span(f"core.then.w{w}", **attrs):
        round_trip = gate.then(inverse)
    with tracer.span(f"core.flags.w{w}", **attrs):
        flags = gate.flags()
    with tracer.span(f"core.json.w{w}", **attrs):
        loaded = Gate.loads(gate.dumps())
    with tracer.span(f"energy.uniform_words.w{w}", **attrs):
        dist = Distribution.uniform_words(w)
    with tracer.span(f"energy.transfer_table.w{w}", **attrs):
        table = transfer_table(gate)
    with tracer.span(f"energy.info_loss.w{w}", **attrs):
        full = info_loss(table, dist)
    del table
    with tracer.span(f"energy.transfer_table_projected.w{w}", **attrs):
        projected_table = transfer_table(gate, project_line=item.project_line)
    with tracer.span(f"energy.info_loss_projected.w{w}", **attrs):
        projected = info_loss(projected_table, dist)
    return {"gate": gate, "round_trip": round_trip, "flags": flags, "loaded": loaded,
            "full": full, "projected": projected}


def check(item: GateInput, got: dict, inputs: Inputs, outcome: Outcome) -> None:
    what = f"{item.kind} w{item.width}"
    checks = outcome.checks
    checks.expect([out.bits for out in got["round_trip"].table] == inputs.identity_bits[item.width],
                  f"{what}: g.then(g.inverse()) is not the identity")
    checks.expect(got["flags"].self_reversible == item.self_reversible
                  and got["flags"].conservative == item.conservative,
                  f"{what}: flags {got['flags']} disagree with the construction")
    checks.expect(got["loaded"] == got["gate"], f"{what}: JSON round trip changed the gate")
    checks.expect(abs(got["full"].erased_bits) < ERASURE_TOL,
                  f"{what}: bijection erased {got['full'].erased_bits} bits")
    checks.expect(abs(got["projected"].erased_bits - (item.width - 1)) < ERASURE_TOL,
                  f"{what}: projection erased {got['projected'].erased_bits} bits, "
                  f"expected {item.width - 1}")


def run(inputs: Inputs, tracer: Tracer, seconds: float, rounds: int | None = None,
        between: Callable[[float], None] | None = None) -> Outcome:
    """Rounds of one kind at every width, taking the kinds in turn. A job is
    one pipeline; a pass is one round; the job latencies reported are the
    widest ones. A round is one kind, not all three, so that a run ends at
    most one kind (about 7 s) short of ``seconds`` rather than a whole
    three-kind round (about 20 s)."""
    outcome = Outcome()
    widest = max(item.width for item in inputs.gates)

    def one_round(index: int) -> None:
        kind = KINDS[index % len(KINDS)]
        pass_s = 0.0
        for item in (g for g in inputs.gates if g.kind == kind):
            try:
                t0 = time.perf_counter()
                with tracer.span(f"harness.wide_job.w{item.width}", job=True, kind=kind):
                    got = pipeline(item, tracer)
                elapsed = time.perf_counter() - t0
            except Exception:
                outcome.checks.crashed(f"{kind} w{item.width} pipeline")
                continue
            check(item, got, inputs, outcome)
            del got
            pass_s += elapsed
            outcome.busy_s += elapsed
            outcome.units += 1 << item.width
            tracer.count("core.rows", 1 << item.width)
            if item.width == widest:
                outcome.job_s.append(elapsed)
        outcome.pass_s.append(pass_s)

    run_rounds(one_round, outcome, seconds, rounds, between)
    return outcome


def layer_metrics(inputs: Inputs, tracer: Tracer) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    widths = sorted({item.width for item in inputs.gates})
    for w in widths:
        for op in ("make_gate", "inverse", "then", "flags", "json"):
            metrics[f"core.{op}.w{w}_s"] = (tracer.median(f"core.{op}.w{w}"), "s")
        for op in ("uniform_words", "transfer_table", "transfer_table_projected",
                   "info_loss", "info_loss_projected"):
            metrics[f"energy.{op}.w{w}_s"] = (tracer.median(f"energy.{op}.w{w}"), "s")
        pushforward = [a + b for a, b in zip(tracer.per_job(f"energy.transfer_table.w{w}"),
                                             tracer.per_job(f"energy.info_loss.w{w}"))]
        metrics[f"energy.pushforward.w{w}_s"] = (percentile(pushforward, 50), "s")
        for kind in KINDS:
            metrics[f"core.flags.{kind}.w{w}_s"] = (tracer.median(f"core.flags.w{w}", kind=kind), "s")
    metrics["core.rows"] = (tracer.counts["core.rows"], "count")
    return metrics
