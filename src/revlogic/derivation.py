"""Inputs-Ancilla to Garbage-Output derivation of classical connectives.

Fixing some input lines of a reversible gate to constants (ancillae) and
reading one output line yields a Boolean function of the remaining free
inputs. The other output lines are garbage: they are always retained here,
because discarding them is precisely what makes a projected table look
irreversible.

``classify`` first projects out non-essential inputs, so e.g. the transition
(1, a, b) -> (1, a, not b) is named a unary NOT, with line 3 its one
essential input.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Mapping

from .core import Gate, Word, all_words

MAX_DERIVE_WIDTH = 8  # widest gate derived_connectives sweeps: 3^8 - 2^8 = 6,305 fixings


class InvalidFixing(ValueError):
    """A fixing names a line outside the gate, or assigns a line twice."""


@dataclass(frozen=True)
class Fixing:
    """A partial assignment of input lines (1-based) to constant bits."""

    width: int
    fixed: tuple[tuple[int, int], ...]  # (line, bit) pairs, sorted by line

    def __post_init__(self) -> None:
        for line, bit in self.fixed:
            if type(line) is not int or not 1 <= line <= self.width:
                raise InvalidFixing(f"line {line!r} outside 1..{self.width}")
            if type(bit) is not int or bit not in (0, 1):
                raise InvalidFixing(f"fixed value must be a bit, got {bit!r}")
        lines = [line for line, _ in self.fixed]
        if len(set(lines)) != len(lines):
            raise InvalidFixing(f"line assigned twice in {self.fixed}")
        if len(self.fixed) >= self.width:
            raise InvalidFixing("at least one line must remain free")
        object.__setattr__(self, "fixed", tuple(sorted(self.fixed)))

    @classmethod
    def of(cls, width: int, assignments: Mapping[int, int]) -> "Fixing":
        return cls(width, tuple(assignments.items()))

    @cached_property
    def free(self) -> tuple[int, ...]:
        fixed_lines = {line for line, _ in self.fixed}
        return tuple(line for line in range(1, self.width + 1) if line not in fixed_lines)

    @property
    def assignments(self) -> dict[int, int]:
        return dict(self.fixed)

    def label(self) -> str:
        if not self.fixed:
            return "(none)"
        return ",".join(f"x{line}={bit}" for line, bit in self.fixed)


def _subset_codes(base: int, weights: list[int]) -> list[int]:
    """``base`` plus every subset of ``weights``, the first weight most significant."""
    codes = [base]
    for weight in weights:
        codes = [code | bit for code in codes for bit in (0, weight)]
    return codes


def input_codes(gate: Gate, fixing: Fixing) -> tuple[int, ...]:
    """Encodings of the gate inputs a fixing selects, in free-input encoding order.

    The one place a fixing's width is checked against the gate's."""
    if fixing.width != gate.width:
        raise InvalidFixing(f"fixing is for width {fixing.width}, gate has {gate.width}")
    base = sum(bit << (gate.width - line) for line, bit in fixing.fixed)
    return tuple(_subset_codes(base, [1 << (gate.width - line) for line in fixing.free]))


def restrict(gate: Gate, fixing: Fixing) -> tuple[tuple[Word, Word], ...]:
    """Rows (free-input word, full output word), in free-input encoding order.

    The full output is kept on purpose: within a restricted table all output
    rows stay distinct, the reversibility evidence inherited from bijectivity.
    """
    codes = input_codes(gate, fixing)
    return tuple(zip(all_words(len(fixing.free)), map(gate.table.__getitem__, codes)))


@dataclass(frozen=True)
class BooleanFunction:
    """A total map from k-bit inputs to one bit.

    ``inputs`` are the original gate lines feeding the function, in order;
    ``truth[i]`` is the value at the free assignment encoding i;
    ``essential`` holds the lines the function actually depends on.
    """

    inputs: tuple[int, ...]
    truth: tuple[int, ...]
    essential: frozenset[int]

    @property
    def arity(self) -> int:
        return len(self.inputs)

    @classmethod
    def from_truth(cls, inputs: tuple[int, ...], truth: tuple[int, ...]) -> "BooleanFunction":
        if len(truth) != 1 << len(inputs) or not {0, 1}.issuperset(truth):
            raise ValueError(f"{len(inputs)} inputs need {1 << len(inputs)} truth bits")
        essential = set()
        k = len(inputs)
        for pos, line in enumerate(inputs):
            flip = 1 << (k - 1 - pos)
            if any(truth[i] != truth[i ^ flip] for i in range(len(truth))):
                essential.add(line)
        return cls(inputs, truth, frozenset(essential))


def output_function(gate: Gate, fixing: Fixing, line: int) -> BooleanFunction:
    """Output line ``line`` (1-based) as a Boolean function of the free inputs."""
    if type(line) is not int or not 1 <= line <= gate.width:
        raise InvalidFixing(f"output line {line!r} outside 1..{gate.width}")
    shift = gate.width - line
    truth = tuple(gate.perm[code] >> shift & 1 for code in input_codes(gate, fixing))
    return BooleanFunction.from_truth(fixing.free, truth)


class Connective(str, Enum):
    """What ``classify`` returns: the ten two-input functions that depend on
    both inputs, the unary ones, the constants and RAW; plus FANOUT, the
    signal duplication ``derived_connectives`` reports."""

    CONST0 = "CONST0"
    CONST1 = "CONST1"
    AND = "AND"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    NXOR = "NXOR"
    IMPLIES_AB = "IMPLIES_AB"
    IMPLIES_BA = "IMPLIES_BA"
    NIMPLIES_AB = "NIMPLIES_AB"
    NIMPLIES_BA = "NIMPLIES_BA"
    ID = "ID"
    NOT = "NOT"
    FANOUT = "FANOUT"
    RAW = "RAW"


# Truth vector over two essential inputs -> name, a bijection onto the ten
# two-input functions that depend on both inputs.
BINARY_NAMES: dict[tuple[int, ...], Connective] = {
    (0, 0, 0, 1): Connective.AND,
    (0, 1, 1, 1): Connective.OR,
    (1, 1, 1, 0): Connective.NAND,
    (1, 0, 0, 0): Connective.NOR,
    (0, 1, 1, 0): Connective.XOR,
    (1, 0, 0, 1): Connective.NXOR,
    (1, 1, 0, 1): Connective.IMPLIES_AB,
    (1, 0, 1, 1): Connective.IMPLIES_BA,
    (0, 0, 1, 0): Connective.NIMPLIES_AB,
    (0, 1, 0, 0): Connective.NIMPLIES_BA,
}


def classify(bf: BooleanFunction) -> Connective:
    """Name a Boolean function by the connective it computes on its essential
    inputs, taken in ascending line order.

    Functions with more than two essential inputs have no connective name and
    come back as RAW.
    """
    if len(bf.essential) > 2:
        return Connective.RAW

    # Non-essential inputs read as 0: the function does not depend on them.
    weights = [1 << (bf.arity - 1 - bf.inputs.index(line)) for line in sorted(bf.essential)]
    truth = tuple(map(bf.truth.__getitem__, _subset_codes(0, weights)))

    if len(bf.essential) == 0:
        return Connective.CONST1 if truth[0] else Connective.CONST0
    if len(bf.essential) == 1:
        return Connective.ID if truth == (0, 1) else Connective.NOT
    return BINARY_NAMES[truth]


@dataclass(frozen=True)
class Derivation:
    """One realized connective: which fixing, which output line, which name.

    ``connective`` is the reported name; it differs from ``classify``'s only
    for FANOUT, where the line computes the identity of a free input that also
    passes through unchanged elsewhere. ``essential`` holds the lines the
    output depends on, ascending.
    """

    fixing: Fixing
    line: int
    connective: Connective
    essential: tuple[int, ...]


@dataclass(frozen=True)
class DerivedConnectives:
    entries: tuple[Derivation, ...]
    names: frozenset[Connective]


def iter_fixings(width: int) -> Iterator[Fixing]:
    """Every fixing that leaves a line free, by number of fixed lines, then in
    lexicographic order of (fixed-line set, fixed values)."""
    for count in range(width):
        for lines in itertools.combinations(range(1, width + 1), count):
            for values in itertools.product((0, 1), repeat=count):
                yield Fixing(width, tuple(zip(lines, values)))


def _passes_through(bf: BooleanFunction, name: Connective, fixing: Fixing, line: int) -> bool:
    """True when output ``line`` merely relays input ``line``: the identity of
    its own free input, or the constant it was fixed to."""
    if line in fixing.free:
        return name is Connective.ID and bf.essential == {line}
    wanted = Connective.CONST1 if fixing.assignments[line] else Connective.CONST0
    return name is wanted


def derived_connectives(gate: Gate) -> DerivedConnectives:
    """Every named connective obtainable by any fixing that leaves a line free.

    The last line is always classified; the others are reported only when
    they do more than pass their own input through. A line is reported as
    FANOUT when it computes the identity of a free input that another output
    line carries as well (signal duplication, e.g. (a,0,0) -> (a,0,a)).
    Unnameable (RAW) projections are omitted.
    """
    if gate.width > MAX_DERIVE_WIDTH:
        raise InvalidFixing(f"derivation takes widths 1..{MAX_DERIVE_WIDTH}, got {gate.width}")
    entries: list[Derivation] = []
    for fixing in iter_fixings(gate.width):
        per_line = {}
        for line in range(1, gate.width + 1):
            bf = output_function(gate, fixing, line)
            per_line[line] = (bf, classify(bf))
        for line, (bf, name) in per_line.items():
            if line != gate.width and _passes_through(bf, name, fixing, line):
                continue
            if name is Connective.RAW:
                continue
            fans_out = (
                name is Connective.ID
                and bf.essential != {line}
                and any(
                    other != line and other_name is Connective.ID
                    and other_bf.essential == bf.essential
                    for other, (other_bf, other_name) in per_line.items()
                )
            )
            name = Connective.FANOUT if fans_out else name
            entries.append(Derivation(fixing, line, name, tuple(sorted(bf.essential))))
    return DerivedConnectives(tuple(entries), frozenset(e.connective for e in entries))
