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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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


@dataclass(frozen=True, order=True)
class Word:
    """A fixed-width tuple of bits; position 0 is line x1, the top bit of ``index``."""

    __slots__ = ("bits", "index")  # ``index`` is set from the bits, outside the fields
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.bits) <= MAX_WIDTH:
            raise WrongLength(f"word width must be 1..{MAX_WIDTH}, got {len(self.bits)}")
        value = 0
        for b in self.bits:
            if type(b) is not int or b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {self.bits!r}")
            value = (value << 1) | b
        object.__setattr__(self, "index", value)

    def __hash__(self) -> int:
        return self.index

    def __reduce__(self) -> tuple:
        return Word, (self.bits,)

    @property
    def width(self) -> int:
        return len(self.bits)

    @classmethod
    def from_string(cls, text: str) -> "Word":
        """Parse a bitstring like "011"; character 0 is line x1."""
        return cls(tuple(int(c) for c in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@lru_cache(maxsize=MAX_WIDTH)
def all_words(width: int) -> tuple[Word, ...]:
    """Every word of ``width`` bits in encoding order, built once per width.

    ``product`` yields the bit tuples in encoding order, so each word is
    valid by construction and skips ``Word``'s bit-by-bit validation.
    """
    if not 1 <= width <= MAX_WIDTH:
        raise WrongLength(f"word width must be 1..{MAX_WIDTH}, got {width}")
    words = tuple(map(object.__new__, repeat(Word, 1 << width)))
    for index, (word, bits) in enumerate(zip(words, product((0, 1), repeat=width))):
        object.__setattr__(word, "bits", bits)
        object.__setattr__(word, "index", index)
    return words


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
        if not 1 <= width <= MAX_WIDTH:
            raise WrongLength(f"gate width must be 1..{MAX_WIDTH}, got {width}")
        if size != 1 << width:
            raise WrongLength(f"width-{width} gate needs {1 << width} rows, got {size}")
        if min(self.perm) < 0 or max(self.perm) >= size:
            raise WidthMismatch(f"width-{width} gate entries must lie in 0..{size - 1}")
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
        p, codes = self.perm, range(len(self.perm))
        return GateFlags(tuple(map(p.__getitem__, p)) == tuple(codes),
                         list(map(int.bit_count, p)) == list(map(int.bit_count, codes)))

    def to_json(self) -> dict:
        """JSON form: bitstring position 0 is line x1; round-trips bit-exactly."""
        spec = f"0{self.width}b"
        return {
            "name": self.name,
            "width": self.width,
            "table": list(map(format, self.perm, repeat(spec))),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Gate":
        return make_gate(data["width"], data["table"], name=data.get("name", ""))

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "Gate":
        return cls.from_json(json.loads(text))


def make_gate(width: int, outputs: Iterable["Word | str | Sequence[int]"], name: str = "") -> Gate:
    """Build a gate from its output rows (words, bitstrings or bit sequences) in encoding order."""
    rows = list(outputs)
    # Well-formed bitstrings skip the Word path, which reads every row before checking the gate.
    if (1 <= width <= MAX_WIDTH and len(rows) == 1 << width and set(map(type, rows)) == {str}
            and set(map(len, rows)) == {width}
            and not "".join(rows).translate(str.maketrans("", "", "01"))):
        return Gate(width, tuple(int(r, 2) for r in rows), name)
    words = [as_word(out) for out in rows]
    if 1 <= width <= MAX_WIDTH and len(words) == 1 << width:
        for out in words:
            if out.width != width:
                raise WidthMismatch(f"output {out} has width {out.width}, gate has width {width}")
    return Gate(width, tuple(out.index for out in words), name)
