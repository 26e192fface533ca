"""The universal logic machine: device plus a memory of normalization functions.

A normalization function turns a cantilever angle into a bit by pure
convention. Picking a different function from the memory makes the very same
physical transitions compute a different connective, and each choice
reproduces, row for row, one restriction of a self-reversible 3-line gate:

    u1     bands 0 | 1, edge 0 (ZERO_TOL)                 -> CL      x3=0   OR
    u1bar  u1's bands, bits flipped                       -> CL      x3=1   NOR
    u2     bands 0 | 1, edge 1                            -> TOFFOLI x3=0   AND
    u2bar  u2's bands, bits flipped                       -> TOFFOLI x3=1   NAND
    u3     bands 0 | 1 | 0, edges 0 and 1                 -> X       x3=0   XOR
    u3bar  u3's bands, bits flipped                       -> X       x3=1   NXOR
    u4     class vector (1, 1, 0, 1) at DD, DA, AD, AA    -> I       x3=1   IMPLIES_AB
    delta  |u1(in) - u1(out)|                             -> CL      x1=0   XOR

Every normalization is read one way: its class vector f, the bits of the rest angles of
DD, DA, AD and AA, defines the self-inverse law gate x3' = x3 xor (f xor f(DD))(x1, x2),
restricted at x3 = f(DD) as DD rests at the vertical. delta is u1's law gate (CL) restricted
at x1 = 0. u4 reads the rest angle within ``u4_tolerance``, so it needs a config that
resolves the two one-probe angles.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import partial

from .core import Gate, Word, _real
from .derivation import Connective, Fixing, classify, derived_connectives, output_function
from .device import PROBE_STATES, DeviceConfig, as_config, equilibrium_angle
from .energy import transfer_table
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


def _read_band(edges: tuple[float, ...], bits: tuple[int, ...], alpha: float) -> int:
    return bits[bisect_left(edges, alpha)]  # alpha <= edge stays in the band


#: The memory: bands of u1, u2 and u3 (inclusive upper edges, bits), u4's bit at each rest angle.
#: Each band map and its bar (the bits flipped) gets one reader, built once.
_BANDS = {"u1": ((ZERO_TOL,), (0, 1)), "u2": ((1.0,), (0, 1)), "u3": ((ZERO_TOL, 1.0), (0, 1, 0))}
_READERS = {NormalizationId(base + bar): partial(_read_band, edges, tuple(b ^ flip for b in bits))
            for base, (edges, bits) in _BANDS.items() for bar, flip in (("", 0), ("bar", 1))}
_U4_CLASSES = (1, 1, 0, 1)


class U4Unclassifiable(ValueError):
    """An angle matched none of the configured rest angles."""


def u4_tolerance(cfg: DeviceConfig | None) -> float:
    """Half the smallest gap between the four configured rest angles."""
    cfg = as_config(cfg)
    means = sorted([0.0, cfg.alpha_hat1, cfg.alpha_tilde1, cfg.alpha2])
    return min(b - a for a, b in zip(means, means[1:])) / 2


def normalize(
    norm: "NormalizationId | str",
    alpha: float,
    cfg: DeviceConfig | None = None,
) -> int:
    """Apply one angle-to-bit normalization function."""
    norm = NormalizationId(norm)
    cfg = as_config(cfg)
    if (angle := _real(alpha)) is None or angle < 0:
        raise ValueError(f"angles are measured from the vertical, must be finite and >= 0, "
                         f"got {alpha!r}")
    if norm is NormalizationId.DELTA_U1:
        raise ValueError("the delta form maps an angle pair; use delta_normalize")
    if norm is NormalizationId.U4:
        if not cfg.distinguishable:
            raise U4Unclassifiable("u4 needs a config that resolves the two one-probe angles")
        tol = u4_tolerance(cfg)
        for ps, bit in zip(PROBE_STATES, _U4_CLASSES):
            if abs(angle - equilibrium_angle(ps, cfg)) <= tol:
                return bit
        raise U4Unclassifiable(f"angle {alpha} is not near any configured rest angle")
    return _READERS[norm](angle)


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
    """Run the machine symbolically: restrict the law gate of the class vector. With
    no ``cfg``, u4 gets a config that resolves the two one-probe angles."""
    norm = NormalizationId(norm)
    cfg = as_config(cfg, distinguishable=norm is NormalizationId.U4)
    delta = norm is NormalizationId.DELTA_U1
    # The class vector (u1's for delta) at each rest angle; DD's, f[0], is a vertical start's.
    base = NormalizationId.U1 if delta else norm
    read = _READERS.get(base) or partial(normalize, base, cfg=cfg)  # u4: within a tolerance
    f = [read(equilibrium_angle(ps, cfg)) for ps in PROBE_STATES]
    # The law gate x3' = x3 xor (f xor f(DD))(x1, x2), a bijection; delta holds x1 = 0.
    gate = Gate._of(3, tuple(code ^ f[code >> 1] ^ f[0] for code in range(8)), "")
    fixing = Fixing.of(3, {1: 0} if delta else {3: f[0]})
    return MachineTable(norm, tuple(transfer_table(gate, fixing).items()), fixing.fixed[0][0],
                        fixing.free, classify(output_function(gate, fixing, 3)))


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
class CheckRecord:
    """One verified claim; ``detail`` is its JSON-ready evidence (str, int or list values)."""

    label: str
    passed: bool
    detail: dict[str, str | int | list]


def verify_conclusion(table: MachineTable) -> CheckRecord:
    """Check a machine table against its gate restriction, row for row.

    Passes only on exact table equality (full input and output words) plus
    the expected connective name.
    """
    norm = table.norm
    gate_id, assignments, expected = CONCLUSIONS[norm]
    fixing = Fixing.of(3, assignments)

    passed = (dict(table.rows) == transfer_table(build(gate_id), fixing)
              and table.connective is expected)
    label = f"conclusion {norm.value:6s} -> {gate_id.value} {fixing.label()} -> {expected.value}"
    return CheckRecord(label, passed, {
        "normalization": norm.value,
        "gate": gate_id.value,
        "fixing": fixing.label(),
        "connective": table.connective.value,
        "expected": expected.value,
        "rows": [[str(a), str(b)] for a, b in table.rows],
    })


def verify_all_conclusions() -> tuple[CheckRecord, ...]:
    return tuple(verify_conclusion(machine_table(norm)) for norm in NormalizationId)


def coherence_check() -> CheckRecord:
    """With the tip initially vertical, u1 of the output angle and the delta
    form must agree on all four probe inputs of the default device."""
    u1, rows = _READERS[NormalizationId.U1], []
    for ps in PROBE_STATES:
        u1_out = u1(equilibrium_angle(ps))
        rows.append({"probes": str(ps), "u1_out": u1_out, "delta": abs(u1(0.0) - u1_out)})
    return CheckRecord("coherence u1(out) = |u1(in) - u1(out)| at vertical start",
                       all(r["u1_out"] == r["delta"] for r in rows), {"rows": rows})


def verify_all() -> tuple[CheckRecord, ...]:
    """Every verified claim: conclusions, coherence and derived sets, one record each."""
    records = [*verify_all_conclusions(), coherence_check()]
    for gate_id, wanted in DERIVED_SETS.items():
        names = ", ".join(sorted(c.value for c in wanted))
        missing = sorted(c.value for c in wanted - derived_connectives(build(gate_id)).names)
        records.append(CheckRecord(f"derived-set {gate_id.value} includes {{{names}}}",
                                   not missing, {"missing": missing}))
    return tuple(records)
