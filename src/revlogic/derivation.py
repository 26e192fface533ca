"""Inputs-Ancilla to Garbage-Output derivation of classical connectives.

Fixing some input lines of a reversible gate to constants (ancillae) and
reading one output line yields a Boolean function of the remaining free
inputs. The other output lines are garbage: they are always retained here,
because discarding them is precisely what makes a projected table look
irreversible.

``classify`` first projects out non-essential inputs, so e.g. the transition
(1, a, b) -> (1, a, not b) is named a unary NOT, with line 3 its one
essential input.

``derived_connectives`` sweeps the fixings on truth tables held as ints (bit c
is the output at input code c): input j is essential when the Boolean
difference along j meets the fixing's subcube. The per-fixing route,
``output_function`` then ``classify``, is the oracle it is tested against.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

from .core import MAX_WIDTH, Gate, Word, _check_gate, all_words

MAX_DERIVE_WIDTH = 8  # widest gate derived_connectives sweeps: 3^8 - 2^8 = 6,305 fixings


class InvalidFixing(ValueError):
    """A fixing is not (line, bit) pairs within its width, or assigns a line twice."""


@dataclass(frozen=True)
class Fixing:
    """A partial assignment of input lines (1-based) to constant bits."""

    width: int
    fixed: tuple[tuple[int, int], ...]  # (line, bit) pairs, sorted by line

    def __post_init__(self) -> None:
        if type(self.width) is not int or self.width > MAX_WIDTH:  # codes double with each line
            raise InvalidFixing(f"fixing width must be an int <= {MAX_WIDTH}, got {self.width!r}")
        try:
            pairs = [(line, bit) for line, bit in self.fixed]
        except (TypeError, ValueError):
            raise InvalidFixing(f"fixed must be (line, bit) pairs, got {self.fixed!r}") from None
        for line, bit in pairs:
            if type(line) is not int or not 1 <= line <= self.width:
                raise InvalidFixing(f"line {line!r} outside 1..{self.width}")
            if type(bit) is not int or bit not in (0, 1):
                raise InvalidFixing(f"fixed value must be a bit, got {bit!r}")
        lines = [line for line, _ in pairs]
        if len(set(lines)) != len(lines):
            raise InvalidFixing(f"line assigned twice in {self.fixed}")
        if len(pairs) >= self.width:
            raise InvalidFixing("at least one line must remain free")
        object.__setattr__(self, "fixed", tuple(sorted(pairs)))

    @classmethod
    def of(cls, width: int, assignments: Mapping[int, int]) -> "Fixing":
        if not isinstance(assignments, Mapping):
            raise InvalidFixing(f"assignments must map lines to bits, got {assignments!r}")
        return cls(width, tuple(assignments.items()))

    @cached_property
    def free(self) -> tuple[int, ...]:
        fixed_lines = {line for line, _ in self.fixed}
        return tuple(line for line in range(1, self.width + 1) if line not in fixed_lines)

    @cached_property
    def codes(self) -> tuple[int, ...]:
        """The input encodings this fixing selects, in free-input encoding order: the
        fixed bits plus every subset of the free lines' weights, the first most significant."""
        width = self.width
        codes = [sum(bit << width - line for line, bit in self.fixed)]
        for weight in [1 << width - line for line in reversed(self.free)]:  # lowest weight first
            codes += [code | weight for code in codes]
        return tuple(codes)

    @property
    def assignments(self) -> dict[int, int]:
        return dict(self.fixed)

    def label(self) -> str:
        if not self.fixed:
            return "(none)"
        return ",".join(f"x{line}={bit}" for line, bit in self.fixed)


def input_codes(gate: Gate, fixing: Fixing) -> tuple[int, ...]:
    """Encodings of the gate inputs a fixing selects, in free-input encoding order.

    The one place a fixing's width is checked against the gate's; then ``fixing.codes``."""
    _check_gate(gate)
    if not isinstance(fixing, Fixing):
        raise InvalidFixing(f"fixing must be a Fixing, got {type(fixing).__name__}")
    if fixing.width != gate.width:
        raise InvalidFixing(f"fixing is for width {fixing.width}, gate has {gate.width}")
    return fixing.codes


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
        if not (isinstance(inputs, Sequence) and isinstance(truth, Sequence)):
            raise ValueError(f"inputs and truth must be sequences, got {inputs!r} and {truth!r}")
        inputs, truth = tuple(inputs), tuple(truth)  # stored as tuples, so a list still hashes
        if not all(type(line) is int for line in inputs):
            raise ValueError(f"inputs must be int lines, got {inputs!r}")
        if (len(truth) != 1 << len(inputs) or bool in set(map(type, truth))  # False in (0, 1)
                or not all(map((0, 1).__contains__, truth))):
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
    codes = input_codes(gate, fixing)
    if type(line) is not int or not 1 <= line <= gate.width:
        raise InvalidFixing(f"output line {line!r} outside 1..{gate.width}")
    shift = gate.width - line
    truth = tuple(gate.perm[code] >> shift & 1 for code in codes)
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
# Every name: the truth vector over zero, one or two essential inputs.
_NAMES = {(0,): Connective.CONST0, (1,): Connective.CONST1,
          (0, 1): Connective.ID, (1, 0): Connective.NOT, **BINARY_NAMES}


def classify(bf: BooleanFunction) -> Connective:
    """Name a Boolean function by the connective it computes on its essential
    inputs, taken in ascending line order.

    Functions with more than two essential inputs have no connective name and
    come back as RAW.
    """
    if not isinstance(bf, BooleanFunction):
        raise ValueError(f"classify takes a BooleanFunction, got {type(bf).__name__}")
    if len(bf.essential) > 2:
        return Connective.RAW
    # Non-essential inputs read as 0; a and b weigh the first and last essential line.
    weights = [1 << bf.arity - 1 - bf.inputs.index(line) for line in sorted(bf.essential)] or [0]
    a, b = weights[0], weights[-1]
    return _NAMES[tuple(map(bf.truth.__getitem__, (0, b, a, a + b)[:1 << len(bf.essential)]))]


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
    if type(width) is not int or not 1 <= width <= MAX_WIDTH:
        raise InvalidFixing(f"fixing width must be an int >= 1 and <= {MAX_WIDTH}, got {width!r}")
    return (Fixing(width, tuple(zip(lines, values)))
            for count in range(width)
            for lines in itertools.combinations(range(1, width + 1), count)
            for values in itertools.product((0, 1), repeat=count))


@cache
def _sweep(width: int) -> tuple[list[int], list[tuple]]:
    """``iter_fixings(width)`` as truth-table masks: bit c stands for input
    code c, and ``low[j]`` marks the codes with line j clear (``low[0]`` is
    0). Each fixing comes with its subcube (the codes it selects), its base
    code (free lines 0), its free lines and, per line but the last, the
    (name, essential) pair that merely relays that line's own input."""
    size = 1 << width
    low = [0] + [sum(1 << c for c in range(size) if not c >> width - j & 1)
                 for j in range(1, width + 1)]
    records = []
    for fixing in iter_fixings(width):
        codes, fixed = fixing.codes, fixing.assignments
        relay = [(_NAMES[(fixed[line],)], ()) if line in fixed else (Connective.ID, (line,))
                 for line in range(1, width)] + [None]
        records.append((fixing, sum(1 << c for c in codes), codes[0], fixing.free, relay))
    return low, records


def derived_connectives(gate: Gate) -> DerivedConnectives:
    """Every named connective obtainable by any fixing that leaves a line free.

    The last line is always classified; the others are reported only when
    they do more than pass their own input through. A line is reported as
    FANOUT when it computes the identity of a free input that another output
    line carries as well (signal duplication, e.g. (a,0,0) -> (a,0,a)).
    Unnameable (RAW) projections are omitted.
    """
    _check_gate(gate)
    if gate.width > MAX_DERIVE_WIDTH:
        raise InvalidFixing(f"derivation takes widths 1..{MAX_DERIVE_WIDTH}, got {gate.width}")
    width, perm = gate.width, gate.perm
    low, sweep = _sweep(width)
    tables = []
    for line in range(1, width + 1):
        table = sum((out >> width - line & 1) << code for code, out in enumerate(perm))
        # Boolean difference: bit c (line j clear at c) is set when flipping j flips the output
        tables.append((table, [(table ^ table >> (1 << width - j)) & mask
                               for j, mask in enumerate(low)]))
    entries: list[Derivation] = []
    for fixing, cube, base, free, relay in sweep:
        found = []
        for table, diff in tables:  # plain loops: no helper call or generator per pair
            essential, t = (), table >> base  # bit o of t: the output at code base | o
            for j in free:
                if diff[j] & cube:
                    essential += (j,)
            name = Connective.RAW
            if len(essential) <= 2:  # the output at base | each subset of the weights a, b
                a = 1 << width - essential[0] if essential else 0
                b = 1 << width - essential[-1] if essential else 0  # a = b for one line
                truth = (t & 1, t >> b & 1, t >> a & 1, t >> a + b & 1)
                name = _NAMES[truth[:1 << len(essential)]]
            found.append((name, essential))
        for line, (name, essential) in enumerate(found, 1):
            if name is Connective.RAW or found[line - 1] == relay[line - 1]:
                continue
            if (name is Connective.ID and essential != (line,)
                    and found.count((name, essential)) > 1):
                name = Connective.FANOUT
            entries.append(Derivation(fixing, line, name, essential))
    return DerivedConnectives(tuple(entries), frozenset(e.connective for e in entries))
