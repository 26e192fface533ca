"""Width-generic algebra of reversible (bijective) gates.

A gate on n lines is a bijection on the 2^n words of n bits, stored as a
permutation of ints (``perm[i]`` is the output encoding of input i); ``Word``
serves only at the API edge. Line x1 is the leftmost bit of a word and the
most significant bit of its integer encoding, so a table literal can be
transcribed row by row from the usual truth-table layout.

Words and gates are immutable values; every operation is a pure function.
"""
from __future__ import annotations

import json
import operator
import struct
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cache, cached_property, total_ordering
from itertools import product, repeat
from typing import Iterable, Iterator, Sequence

MAX_WIDTH = 16


class GateError(ValueError):
    """Base class for gate construction and application errors."""


class WidthMismatch(GateError):
    """Widths of two words/gates that must agree do not."""


class WrongLength(GateError):
    """A table or bit tuple has the wrong number of entries."""


class NotBijective(GateError):
    """An output table repeats a word, so the gate would lose information."""


@total_ordering  # by ``bits``; ``==`` is identity, which interning makes bits equality
class Word:
    """A fixed-width tuple of bits; position 0 is line x1, the top bit of ``index``.

    ``Word(bits)`` validates the bits, then returns the interned ``all_words(width)[index]``.
    """

    __slots__ = ("bits", "index")
    bits: tuple[int, ...]
    index: int

    def __new__(cls, bits: tuple[int, ...]) -> "Word":
        if not 1 <= len(bits) <= MAX_WIDTH:
            raise WrongLength(f"word width must be 1..{MAX_WIDTH}, got {len(bits)}")
        value = 0
        for b in bits:
            if type(b) is not int or b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {bits!r}")
            value = (value << 1) | b
        return all_words(len(bits))[value]

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return Word, (self.bits,)

    def __repr__(self) -> str:
        return f"Word(bits={self.bits!r})"

    def __lt__(self, other: "Word") -> bool:
        return self.bits < other.bits if type(other) is Word else NotImplemented

    @property
    def width(self) -> int:
        return len(self.bits)

    @classmethod
    def from_string(cls, text: str) -> "Word":
        """Parse a bitstring like "011"; character 0 is line x1."""
        return cls(tuple(int(c) for c in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _check_width(width: object, kind: str) -> None:
    """Refuse a width that is not a plain int (a bool is not one) in 1..MAX_WIDTH."""
    if type(width) is not int or not 1 <= width <= MAX_WIDTH:
        raise WrongLength(f"{kind} width must be 1..{MAX_WIDTH}, got {width!r}")


_WORDS: dict[int, tuple[Word, ...]] = {}  # the intern table: never evicted, as ``==`` is identity


def all_words(width: int) -> tuple[Word, ...]:
    """Every word of ``width`` bits in encoding order, built once per width.

    ``product`` yields the bit tuples in encoding order, so each word is
    valid by construction and skips ``Word``'s bit-by-bit validation.
    """
    if type(width) is int and width in _WORDS:  # True hashes like 1, yet is no width
        return _WORDS[width]
    _check_width(width, "word")
    words = tuple(map(object.__new__, repeat(Word, 1 << width)))
    for index, (word, bits) in enumerate(zip(words, product((0, 1), repeat=width))):
        object.__setattr__(word, "bits", bits)
        object.__setattr__(word, "index", index)
    return _WORDS.setdefault(width, words)  # a racing builder's table is dropped


def as_word(value: "Word | str | Sequence[int]") -> Word:
    """Coerce a Word, bitstring, or bit sequence to a Word."""
    if isinstance(value, Word):
        return value
    if isinstance(value, str):
        return Word.from_string(value)
    return Word(tuple(value))


@dataclass(frozen=True)
class GateFlags:
    self_reversible: bool
    conservative: bool


@dataclass(frozen=True)
class Gate:
    """A reversible gate: a validated permutation of the input encodings.

    ``perm[i]`` is the output encoding for the input encoding ``i``, and
    ``table[i]`` the same output as a word. The name never takes part in
    equality; two gates are equal when their widths and permutations are.
    """

    width: int
    perm: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        """Store ``perm`` as a tuple, then check width, length, range and bijectivity."""
        object.__setattr__(self, "perm", tuple(self.perm))
        width, size = self.width, len(self.perm)
        _check_width(width, "gate")
        if size != 1 << width:
            raise WrongLength(f"width-{width} gate needs {1 << width} rows, got {size}")
        if set(map(type, self.perm)) != {int} or min(self.perm) < 0 or max(self.perm) >= size:
            raise WidthMismatch(f"width-{width} gate entries must be ints in 0..{size - 1}")
        if len(set(self.perm)) != size:
            raise NotBijective("output table repeats a word")

    @cached_property
    def table(self) -> tuple[Word, ...]:
        """The output word for each input encoding, built on first use."""
        return tuple(map(all_words(self.width).__getitem__, self.perm))

    def apply(self, word: Word) -> Word:
        """Map one input word through the gate."""
        if word.width != self.width:
            raise WidthMismatch(f"word width {word.width} != gate width {self.width}")
        return self.table[word.index]

    def words(self) -> Iterator[Word]:
        """All input words, in encoding order."""
        return iter(all_words(self.width))

    def then(self, other: "Gate") -> "Gate":
        """Serial cascade: ``self`` first, then ``other``."""
        if other.width != self.width:
            raise WidthMismatch(f"cannot compose widths {self.width} and {other.width}")
        name = f"{self.name}∘{other.name}" if self.name and other.name else ""
        return Gate(self.width, tuple(map(other.perm.__getitem__, self.perm)), name)

    def inverse(self) -> "Gate":
        """The inverse permutation; for a self-reversible gate, the same table."""
        inv = [0] * len(self.perm)
        for i, out in enumerate(self.perm):
            inv[out] = i
        name = f"{self.name}⁻¹" if self.name else ""
        return Gate(self.width, tuple(inv), name)

    def flags(self) -> GateFlags:
        """Structural predicates, each decided by exhaustive enumeration."""
        p = self.perm
        # the first row with p[p[i]] != i decides; no identity tuple is built or kept
        return GateFlags(all(map(operator.eq, map(p.__getitem__, p), range(len(p)))),
                         tuple(map(int.bit_count, p)) == _hamming_weights(self.width))

    def to_json(self) -> dict:
        """JSON form: bitstring position 0 is line x1; round-trips bit-exactly."""
        low_width = self.width // 2
        high, low = _bitstrings(self.width - low_width), _bitstrings(low_width)
        mask = (1 << low_width) - 1
        return {
            "name": self.name,
            "width": self.width,
            "table": [high[p >> low_width] + low[p & mask] for p in self.perm],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Gate":
        return make_gate(data["width"], data["table"], name=data.get("name", ""))

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "Gate":
        return cls.from_json(json.loads(text))


@cache
def _hamming_weights(width: int) -> tuple[int, ...]:
    """The number of 1 bits of every ``width``-bit code, in encoding order."""
    return tuple(map(int.bit_count, range(1 << width)))


@cache
def _bitstrings(width: int) -> tuple[str, ...]:
    """Every bitstring of ``width`` (0..8: half a gate's width) in encoding order."""
    return tuple(map("".join, product("01", repeat=width)))


def make_gate(width: int, outputs: Iterable["Word | str | Sequence[int]"], name: str = "") -> Gate:
    """Build a gate from its output rows (words, bitstrings or bit sequences) in encoding order."""
    if type(width) is not int:  # an int width out of range lets a bad row speak first
        _check_width(width, "gate")
    rows = list(outputs)
    # Well-formed bitstrings skip the Word path, which reads every row before checking the gate.
    if (1 <= width <= MAX_WIDTH and len(rows) == 1 << width and set(map(type, rows)) == {str}
            and set(map(len, rows)) == {width}
            and not "".join(rows).translate(str.maketrans("", "", "01"))):
        # One base-2 parse of every row, each padded to 16 bits, read back as big-endian uint16s.
        pad = "0" * (16 - width)
        data = int(pad + pad.join(rows), 2).to_bytes(2 << width, "big")
        return Gate(width, struct.unpack(f">{1 << width}H", data), name)
    words = [as_word(out) for out in rows]
    if 1 <= width <= MAX_WIDTH and len(words) == 1 << width:
        for out in words:
            if out.width != width:
                raise WidthMismatch(f"output {out} has width {out.width}, gate has width {width}")
    return Gate(width, tuple(out.index for out in words), name)
