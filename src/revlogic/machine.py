"""The universal logic machine: device plus a memory of normalization functions.

A normalization function turns a cantilever angle into a bit by pure
convention. Picking a different function from the memory makes the very same
physical transitions compute a different connective, and each choice
reproduces, row for row, one restriction of a self-reversible 3-line gate:

    u1        0 iff angle = 0          -> CL      x3=0   OR
    1 - u1                             -> CL      x3=1   NOR
    u2        0 iff angle <= 1         -> TOFFOLI x3=0   AND
    1 - u2                             -> TOFFOLI x3=1   NAND
    u3        1 iff 0 < angle <= 1     -> X       x3=0   XOR
    1 - u3                             -> X       x3=1   NXOR
    u4        by nearest rest angle    -> I       x3=1   IMPLIES_AB
    delta     |u1(in) - u1(out)|       -> CL      x1=0   XOR

u4 needs a config that resolves the two one-probe angles. The delta form is
the odd one out: it varies the initial angle as a genuine input, so line 1
(probe 1, held off) is the ancilla instead of line 3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import Word, all_words
from .derivation import (
    BooleanFunction,
    Connective,
    Fixing,
    classify,
    derived_connectives,
    input_codes,
)
from .device import DA, PROBE_STATES, DeviceConfig, ProbeState, equilibrium_angle
from .library import GateId, build

#: Zero-angle tolerance of u1 and u3, for noiseless (equilibrium) angles.
#: Noisy samples are thresholded by the caller, e.g. at ``3 * cfg.sigma``.
ZERO_TOL = 1e-9


class NormalizationId(str, Enum):
    U1 = "u1"
    U2 = "u2"
    U3 = "u3"
    U1_BAR = "u1bar"
    U2_BAR = "u2bar"
    U3_BAR = "u3bar"
    U4 = "u4"
    DELTA_U1 = "delta"


class U4Unclassifiable(ValueError):
    """An angle matched none of the configured rest angles."""


def u4_tolerance(cfg: DeviceConfig) -> float:
    """Half the smallest gap between the four configured rest angles."""
    means = sorted([0.0, cfg.alpha_hat1, cfg.alpha_tilde1, cfg.alpha2])
    return min(b - a for a, b in zip(means, means[1:])) / 2


def normalize(
    norm: "NormalizationId | str",
    alpha: float,
    cfg: DeviceConfig | None = None,
) -> int:
    """Apply one angle-to-bit normalization function."""
    norm = NormalizationId(norm)
    cfg = cfg or DeviceConfig()
    if not 0 <= alpha < math.inf:
        raise ValueError(f"angles are measured from the vertical, must be finite and >= 0, "
                         f"got {alpha}")
    if norm is NormalizationId.DELTA_U1:
        raise ValueError("the delta form maps an angle pair; use delta_normalize")
    if norm is NormalizationId.U4:
        if not cfg.distinguishable:
            raise U4Unclassifiable("u4 needs a config that resolves the two one-probe angles")
        tol = u4_tolerance(cfg)
        for mean, bit in ((0.0, 1), (cfg.alpha_hat1, 1), (cfg.alpha_tilde1, 0), (cfg.alpha2, 1)):
            if abs(alpha - mean) <= tol:
                return bit
        raise U4Unclassifiable(f"angle {alpha} is not near any configured rest angle")
    if norm in (NormalizationId.U1, NormalizationId.U1_BAR):
        value = 0 if alpha <= ZERO_TOL else 1
        return value if norm is NormalizationId.U1 else 1 - value
    if norm in (NormalizationId.U2, NormalizationId.U2_BAR):
        value = 0 if alpha <= 1 else 1
        return value if norm is NormalizationId.U2 else 1 - value
    value = 1 if ZERO_TOL < alpha <= 1 else 0
    return value if norm is NormalizationId.U3 else 1 - value


def delta_normalize(alpha_i: float, alpha_o: float) -> int:
    """|u1(alpha_i) - u1(alpha_o)|: 1 exactly when the tip switches between
    vertical and deflected."""
    return abs(
        normalize(NormalizationId.U1, alpha_i) - normalize(NormalizationId.U1, alpha_o)
    )


@dataclass(frozen=True)
class MachineTable:
    """The four noiseless device transitions under one normalization.

    Rows are full 3-bit (input, output) words in input-encoding order. The
    two probe lines always pass through; ``ancilla_line`` is the constant
    input column (line 3, except line 1 for the delta form) and
    ``free_lines`` are the two genuine inputs feeding the connective.
    """

    norm: NormalizationId
    rows: tuple[tuple[Word, Word], ...]
    ancilla_line: int
    free_lines: tuple[int, int]
    connective: Connective


def machine_table(norm: "NormalizationId | str", cfg: DeviceConfig | None = None) -> MachineTable:
    """Run the machine symbolically: normalize the noiseless transitions."""
    norm = NormalizationId(norm)
    cfg = cfg or DeviceConfig()

    if norm is NormalizationId.DELTA_U1:
        # Probe 1 held off; probe 2 and the initial angle are the inputs. The
        # vertical start reads x3 = 0, so rows come out in input-encoding order.
        inputs, truth = [], []
        for p2 in (0, 1):
            for alpha_i in (0.0, equilibrium_angle(DA, cfg)):
                inputs.append((0, p2, normalize(NormalizationId.U1, alpha_i)))
                truth.append(delta_normalize(alpha_i, equilibrium_angle(ProbeState((0, p2)), cfg)))
        ancilla_line, free_lines = 1, (2, 3)
    else:
        x3 = normalize(norm, 0.0, cfg)
        inputs = [ps.bits + (x3,) for ps in PROBE_STATES]
        truth = [normalize(norm, equilibrium_angle(ps, cfg), cfg) for ps in PROBE_STATES]
        ancilla_line, free_lines = 3, (1, 2)
    rows = tuple((Word(bits), Word(bits[:2] + (out,))) for bits, out in zip(inputs, truth))
    connective = classify(BooleanFunction.from_truth(free_lines, tuple(truth))).name
    return MachineTable(norm, rows, ancilla_line, free_lines, connective)


#: Which gate restriction each normalization is expected to reproduce.
CONCLUSIONS: dict[NormalizationId, tuple[GateId, dict[int, int], Connective]] = {
    NormalizationId.U1: (GateId.CL, {3: 0}, Connective.OR),
    NormalizationId.U1_BAR: (GateId.CL, {3: 1}, Connective.NOR),
    NormalizationId.U2: (GateId.TOFFOLI, {3: 0}, Connective.AND),
    NormalizationId.U2_BAR: (GateId.TOFFOLI, {3: 1}, Connective.NAND),
    NormalizationId.U3: (GateId.X, {3: 0}, Connective.XOR),
    NormalizationId.U3_BAR: (GateId.X, {3: 1}, Connective.NXOR),
    NormalizationId.U4: (GateId.I, {3: 1}, Connective.IMPLIES_AB),
    NormalizationId.DELTA_U1: (GateId.CL, {1: 0}, Connective.XOR),
}

#: Connectives each gate must realize by fixing ancilla lines.
DERIVED_SETS: dict[GateId, frozenset[Connective]] = {
    GateId.CL: frozenset(map(Connective, ["XOR", "OR", "NOR", "NOT", "FANOUT"])),
    GateId.TOFFOLI: frozenset(map(Connective, ["XOR", "AND", "NAND", "NOT", "FANOUT"])),
    GateId.X: frozenset(map(Connective, ["XOR", "NXOR", "NOT", "FANOUT"])),
}


@dataclass(frozen=True)
class ConclusionVerdict:
    norm: NormalizationId
    gate_id: GateId
    fixing: Fixing
    expected: Connective
    table: MachineTable
    passed: bool


def verify_conclusion(
    norm: "NormalizationId | str", cfg: DeviceConfig | None = None
) -> ConclusionVerdict:
    """Check one machine table against its gate restriction, row for row.

    Passes only on exact table equality (full input and output words) plus
    the expected connective name.
    """
    norm = NormalizationId(norm)
    if cfg is None:
        cfg = DeviceConfig(distinguishable=(norm is NormalizationId.U4))
    gate_id, assignments, expected = CONCLUSIONS[norm]
    fixing = Fixing.of(3, assignments)
    table = machine_table(norm, cfg)

    gate = build(gate_id)
    gate_rows = {all_words(3)[code]: gate.table[code] for code in input_codes(gate, fixing)}
    machine_rows = dict(table.rows)
    passed = machine_rows == gate_rows and table.connective is expected
    return ConclusionVerdict(norm, gate_id, fixing, expected, table, passed)


def verify_all_conclusions() -> tuple[ConclusionVerdict, ...]:
    return tuple(verify_conclusion(norm) for norm in NormalizationId)


@dataclass(frozen=True)
class CoherenceRow:
    probes: ProbeState
    u1_out: int
    delta: int


@dataclass(frozen=True)
class CoherenceResult:
    rows: tuple[CoherenceRow, ...]
    passed: bool


def coherence_check() -> CoherenceResult:
    """With the tip initially vertical, u1 of the output angle and the delta
    form must agree on all four probe inputs of the default device."""
    rows = []
    for ps in PROBE_STATES:
        alpha_o = equilibrium_angle(ps)
        rows.append(CoherenceRow(ps, normalize(NormalizationId.U1, alpha_o),
                                 delta_normalize(0.0, alpha_o)))
    return CoherenceResult(tuple(rows), all(r.u1_out == r.delta for r in rows))


@dataclass(frozen=True)
class CheckRecord:
    label: str
    passed: bool


def verify_all() -> tuple[CheckRecord, ...]:
    """Every verified claim: conclusions, coherence and derived sets, one record each."""
    records = [
        CheckRecord(f"conclusion {v.norm.value:6s} -> {v.gate_id.value} "
                    f"{v.fixing.label()} -> {v.expected.value}", v.passed)
        for v in verify_all_conclusions()
    ]
    records.append(CheckRecord("coherence u1(out) = |u1(in) - u1(out)| at vertical start",
                               coherence_check().passed))
    for gate_id, wanted in DERIVED_SETS.items():
        names = ", ".join(sorted(c.value for c in wanted))
        records.append(CheckRecord(f"derived-set {gate_id.value} includes {{{names}}}",
                                   wanted <= derived_connectives(build(gate_id)).names))
    return tuple(records)
