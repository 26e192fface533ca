"""Builders for the named gates of the workbench.

Each 3-line gate is self-reversible, keeps lines 1 and 2 unchanged, and
differs only in how the third output mixes the controls into the target:

    CL       x3' = (x1 or x2)  xor x3
    TOFFOLI  x3' = (x1 and x2) xor x3
    X        x3' = (x1 xor x2) xor x3
    I        x3' = (x1 and not x2) xor x3

``build`` returns the gate from a stored reference table; ``formula_output``
evaluates the closed form directly. The two routes are independent, so their
agreement on every word is a real cross-check, not a tautology.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .core import Gate, WidthMismatch, Word, make_gate


class UnknownId(ValueError):
    """No gate with the requested id."""


class GateId(str, Enum):
    CL = "cl"
    TOFFOLI = "toffoli"
    X = "x"
    I = "i"  # noqa: E741 - the gate's actual name
    CNOT = "cnot"
    NOT = "not"
    IDENTITY3 = "identity3"


# Reference tables, one output bitstring per input in encoding order
# (row i = output for the input word encoding i, line x1 leftmost).
_TABLES: dict[GateId, tuple[str, ...]] = {
    GateId.CL: ("000", "001", "011", "010", "101", "100", "111", "110"),
    GateId.TOFFOLI: ("000", "001", "010", "011", "100", "101", "111", "110"),
    GateId.X: ("000", "001", "011", "010", "101", "100", "110", "111"),
    GateId.I: ("000", "001", "010", "011", "101", "100", "110", "111"),
    GateId.CNOT: ("00", "01", "11", "10"),
    GateId.NOT: ("1", "0"),
    GateId.IDENTITY3: ("000", "001", "010", "011", "100", "101", "110", "111"),
}

_TARGET_FORMULAS = {
    GateId.CL: lambda a, b: a | b,
    GateId.TOFFOLI: lambda a, b: a & b,
    GateId.X: lambda a, b: a ^ b,
    GateId.I: lambda a, b: a & (1 - b),
}


def coerce_gate_id(value: "GateId | str") -> GateId:
    if isinstance(value, GateId):
        return value
    try:
        return GateId(value.lower())
    except (AttributeError, ValueError):  # AttributeError: a value with no .lower(), not a str
        raise UnknownId(f"unknown gate id {value!r}; choose from "
                        f"{', '.join(g.value for g in GateId)}") from None


def build(gate_id: "GateId | str") -> Gate:
    """The named gate, constructed once from its stored reference table."""
    return _built(coerce_gate_id(gate_id))


@lru_cache(maxsize=None)
def _built(gate_id: GateId) -> Gate:
    return make_gate(len(_TABLES[gate_id][0]), _TABLES[gate_id], name=gate_id.value)


build.cache_clear = _built.cache_clear  # a cold build again, as perfbench times it


def formula_output(gate_id: "GateId | str", word: Word) -> Word:
    """Evaluate the gate's closed-form equations on one word (no table lookup)."""
    gate_id = coerce_gate_id(gate_id)
    width = len(_TABLES[gate_id][0])
    if word.width != width:
        raise WidthMismatch(f"{gate_id.value} takes width {width}, got {word.width}")
    if gate_id in _TARGET_FORMULAS:
        a, b, c = word.bits
        return Word((a, b, _TARGET_FORMULAS[gate_id](a, b) ^ c))
    if gate_id is GateId.CNOT:
        a, b = word.bits
        return Word((a, a ^ b))
    if gate_id is GateId.NOT:
        return Word((1 - word.bits[0],))
    return word  # IDENTITY3


def all_gate_ids() -> tuple[GateId, ...]:
    return tuple(GateId)
