"""Reference gate algebra on tables of ``Word``, for the tests only.

These are the algorithms the core used when a gate was stored as its output
words rather than as an integer permutation. A table is a tuple of words,
``table[i]`` the output for the input whose encoding is ``i``. Every integer
encoding is re-derived here bit by bit, so the reference shares no integer
arithmetic with the permutation core it is compared against.

``identity_gate``, ``from_index``, ``full_word`` and ``random_words`` also
stand in for names the package no longer carries because only tests used them.
"""
import itertools

from revlogic.core import (
    MAX_WIDTH,
    Gate,
    GateError,
    NotBijective,
    WidthMismatch,
    Word,
    WrongLength,
    all_words,
)
from revlogic.energy import Distribution


def index(word):
    value = 0
    for b in word.bits:
        value = (value << 1) | b
    return value


def from_index(width, i):
    return Word(tuple((i >> (width - 1 - j)) & 1 for j in range(width)))


def identity_gate(width):
    return Gate(width, tuple(range(1 << width)))


def full_word(fixing, free_bits):
    """Merge a fixing's constants with bits for its free lines."""
    bits = [0] * fixing.width
    for line, bit in fixing.fixed:
        bits[line - 1] = bit
    for line, bit in zip(fixing.free, free_bits):
        bits[line - 1] = bit
    return Word(tuple(bits))


def random_words(width, rng):
    """A random distribution over every word of ``width`` bits, drawn from a numpy Generator."""
    raw = rng.random(1 << width)
    raw /= raw.sum()
    return Distribution(dict(zip(all_words(width), raw.tolist())))


def as_word(value):
    if isinstance(value, Word):
        return value
    if isinstance(value, str):
        return Word(tuple(int(c) for c in value))
    if not hasattr(value, "__iter__"):
        raise GateError(f"not a row: {value!r}")
    return Word(tuple(value))


def make_table(width, outputs):
    """Coerce every row to a word, then validate the table, in that order."""
    table = tuple(as_word(out) for out in outputs)
    if not 1 <= width <= MAX_WIDTH:
        raise WrongLength(width)
    if len(table) != 1 << width:
        raise WrongLength(len(table))
    for out in table:
        if out.width != width:
            raise WidthMismatch(out)
    if len({out.bits for out in table}) != len(table):
        raise NotBijective()
    return table


def then(table, other):
    return tuple(other[index(out)] for out in table)


def inverse(table):
    width = table[0].width
    inv = [None] * len(table)
    for i, out in enumerate(table):
        inv[index(out)] = from_index(width, i)
    return tuple(inv)


def is_identity(table):
    return all(index(out) == i for i, out in enumerate(table))


def flags(table):
    """(self_reversible, conservative), each by exhaustive enumeration."""
    width = table[0].width
    conservative = all(
        sum(out.bits) == sum(from_index(width, i).bits) for i, out in enumerate(table)
    )
    return is_identity(then(table, table)), conservative


def to_json(table, name=""):
    return {
        "name": name,
        "width": table[0].width,
        "table": ["".join(str(b) for b in out.bits) for out in table],
    }


def transfer_table(table, fixing=None, project_line=None):
    width = table[0].width
    if fixing is None:
        pairs = [(from_index(width, i), out) for i, out in enumerate(table)]
    else:
        inputs = [full_word(fixing, free_bits)
                  for free_bits in itertools.product((0, 1), repeat=len(fixing.free))]
        pairs = [(word, table[index(word)]) for word in inputs]
    if project_line is None:
        return dict(pairs)
    return {word: out.bits[project_line - 1] for word, out in pairs}
