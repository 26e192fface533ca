"""The integer-permutation core against the Word-table reference.

Properties run over widths 1..12 with random, involution and
Hamming-class-preserving permutations, so both flags are exercised on their
true and false sides; fixed width-16 cases cover the widest gates. Each
property runs one reference operation, to stay well inside the default
per-example deadline at width 12. The bitstring codec is checked at every
width 1..16, with only a few examples at widths 14..16.
"""
import dataclasses
import itertools
import json
import operator
import random

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import seed_core as ref
from revlogic.core import (
    MAX_WIDTH,
    Gate,
    GateError,
    GateFlags,
    NotBijective,
    WidthMismatch,
    Word,
    WrongLength,
    all_words,
    make_gate,
)
from revlogic.derivation import Fixing, output_function, restrict
from revlogic.energy import Distribution, info_loss, transfer_table

KINDS = ("random", "involution", "conservative")


def permutation(kind, width, seed):
    rnd = random.Random(seed)
    codes = list(range(1 << width))
    if kind == "random":
        rnd.shuffle(codes)
        return codes
    perm = codes[:]
    if kind == "involution":
        rnd.shuffle(codes)
        for a, b in zip(codes[::2], codes[1::2]):
            perm[a], perm[b] = b, a
        return perm
    classes = {}
    for i in codes:
        classes.setdefault(bin(i).count("1"), []).append(i)
    for members in classes.values():
        shuffled = members[:]
        rnd.shuffle(shuffled)
        for src, dst in zip(members, shuffled):
            perm[src] = dst
    return perm


def rows(kind, width, seed):
    return [format(p, f"0{width}b") for p in permutation(kind, width, seed)]


def gate_and_table(width, kind, seed):
    outputs = rows(kind, width, seed)
    return make_gate(width, outputs), ref.make_table(width, outputs)


seeds = st.integers(0, 2**32 - 1)
specs = st.tuples(st.sampled_from(KINDS), seeds)
#: One gate of width 1..12 and its reference table.
gates = st.tuples(st.integers(1, 12), st.sampled_from(KINDS), seeds).map(
    lambda spec: gate_and_table(*spec))


def same_width(count):
    """``count`` gates of one width in 1..12."""
    return st.integers(1, 12).flatmap(lambda w: st.lists(
        specs.map(lambda spec: make_gate(w, rows(spec[0], w, spec[1]))),
        min_size=count, max_size=count))


def assert_matches_reference(gate, table):
    assert gate.table == table
    assert gate.perm == tuple(ref.index(out) for out in table)


@settings(max_examples=30)
@given(gates, seeds)
def test_make_gate_and_then_match_reference(pair, seed):
    gate, table = pair
    other, other_table = gate_and_table(gate.width, "random", seed)
    assert_matches_reference(gate, table)
    assert_matches_reference(gate.then(other), ref.then(table, other_table))


@settings(max_examples=30)
@given(gates)
def test_inverse_matches_reference(pair):
    gate, table = pair
    assert_matches_reference(gate.inverse(), ref.inverse(table))


@settings(max_examples=30)
@given(gates)
def test_flags_match_reference(pair):
    gate, table = pair
    assert gate.flags() == GateFlags(*ref.flags(table))


@settings(max_examples=30)
@given(gates)
def test_json_matches_reference(pair):
    gate, table = pair
    assert gate.to_json() == ref.to_json(table)
    assert Gate.loads(gate.dumps()) == gate


def assert_fixing_matches_reference(gate, table, fixing, line):
    """Restriction, transfer tables and output function under a fixing agree
    with the reference rows ``full_word(b) -> table[index(full_word(b))]``."""
    rows = ref.transfer_table(table, fixing)
    free_words = [Word(bits) for bits in itertools.product((0, 1), repeat=len(fixing.free))]
    assert restrict(gate, fixing) == tuple(zip(free_words, rows.values()))
    assert transfer_table(gate, fixing) == rows
    column = {word: out.bits[line - 1] for word, out in rows.items()}
    assert transfer_table(gate, fixing, line) == column
    assert output_function(gate, fixing, line).truth == tuple(column.values())


@settings(max_examples=30)
@given(gates, st.data())
def test_transfer_tables_match_reference(pair, data):
    gate, table = pair
    line = data.draw(st.integers(1, gate.width))
    assert transfer_table(gate) == ref.transfer_table(table)
    assert transfer_table(gate, project_line=line) == ref.transfer_table(table, project_line=line)
    if gate.width > 1:
        lines = data.draw(st.sets(st.integers(1, gate.width), min_size=1,
                                  max_size=min(gate.width - 1, 3)))
        fixing = Fixing.of(gate.width, {fixed: data.draw(st.integers(0, 1)) for fixed in lines})
        assert_fixing_matches_reference(gate, table, fixing, line)


@settings(max_examples=30)
@given(same_width(3))
def test_compose_is_associative(fgh):
    f, g, h = fgh
    assert f.then(g).then(h) == f.then(g.then(h))


@settings(max_examples=30)
@given(same_width(1))
def test_inverse_is_an_involution(one):
    (gate,) = one
    assert gate.inverse().inverse() == gate
    assert gate.then(gate.inverse()) == ref.identity_gate(gate.width)
    assert gate.inverse().then(gate) == ref.identity_gate(gate.width)


@settings(max_examples=30)
@given(same_width(1), seeds)
def test_bijection_erases_nothing(one, dist_seed):
    (gate,) = one
    table = transfer_table(gate)
    for dist in (Distribution.uniform_words(gate.width),
                 ref.random_words(gate.width, np.random.default_rng(dist_seed))):
        assert abs(info_loss(table, dist).erased_bits) <= 1e-12


@pytest.fixture(scope="module")
def wide():
    """A random width-16 gate and its reference table."""
    return gate_and_table(16, "random", 16)


def test_width_16_make_then_inverse(wide):
    gate, table = wide
    assert_matches_reference(gate, table)
    assert_matches_reference(gate.then(gate), ref.then(table, table))
    assert_matches_reference(gate.inverse(), ref.inverse(table))


@pytest.mark.parametrize("kind", KINDS)
def test_width_16_flags(kind):
    gate, table = gate_and_table(16, kind, 16)
    assert gate.flags() == GateFlags(*ref.flags(table))
    assert gate.flags() == GateFlags(kind == "involution", kind == "conservative")


def direct_flags(perm):
    """Self-reversible: p(p(i)) = i for every i; conservative: p keeps every i's count of 1 bits."""
    return GateFlags(all(perm[perm[i]] == i for i in range(len(perm))),
                     all(bin(out).count("1") == bin(i).count("1") for i, out in enumerate(perm)))


@settings(max_examples=60)
@given(st.integers(1, 13), specs, st.none() | st.tuples(st.floats(0, 1), st.floats(0, 1)))
def test_flags_match_the_direct_definition(width, spec, swap):
    perm = permutation(spec[0], width, spec[1])
    if swap is not None:
        # one transposition anywhere: a flag that held must be found broken wherever it breaks
        a, b = (int(x * (len(perm) - 1)) for x in swap)
        perm[a], perm[b] = perm[b], perm[a]
    assert Gate(width, perm).flags() == direct_flags(perm)


# Shrinking a failing 2**16-row example would take minutes, so these widths only generate.
@settings(max_examples=6, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(14, 16), specs)
def test_flags_match_the_direct_definition_at_widths_14_to_16(width, spec):
    perm = permutation(spec[0], width, spec[1])
    assert Gate(width, perm).flags() == direct_flags(perm)


def test_width_16_json_and_transfer_tables(wide):
    gate, table = wide
    assert gate.to_json() == ref.to_json(table)
    assert Gate.loads(gate.dumps()) == gate
    assert transfer_table(gate) == ref.transfer_table(table)
    assert transfer_table(gate, project_line=5) == ref.transfer_table(table, project_line=5)
    assert_fixing_matches_reference(gate, table, Fixing.of(16, {2: 1, 9: 0}), 16)
    report = info_loss(transfer_table(gate), Distribution.uniform_words(16))
    assert abs(report.erased_bits) <= 1e-12


@pytest.mark.parametrize("width", [*range(1, 13), 16])
def test_all_words_matches_validated_words(width):
    words = all_words(width)
    validated = tuple(ref.from_index(width, i) for i in range(1 << width))
    assert len(words) == len(validated)
    for got, want in zip(words, validated):
        assert (got.bits, got.index, hash(got)) == (want.bits, want.index, hash(want))
        assert got == want and not got < want and not want < got
    for (a, b), (va, vb) in zip(zip(words, words[1:]), zip(validated, validated[1:])):
        assert a < vb and va < b and a < b
    assert not hasattr(words[0], "__dict__")


@pytest.mark.parametrize("width", [0, 17])
def test_all_words_rejects_widths_outside_range(width):
    with pytest.raises(WrongLength, match=f"word width must be 1..16, got {width}"):
        all_words(width)


@pytest.mark.parametrize("width", [True, False, 2.0, "2", None])
def test_a_width_that_is_not_a_plain_int_builds_no_gate(width):
    all_words(1)  # cached first: True hashes like 1
    with pytest.raises(WrongLength, match="word width must be 1..16"):
        all_words(width)
    with pytest.raises(WrongLength, match="gate width must be 1..16"):
        Gate(width, (0, 1))
    with pytest.raises(WrongLength, match="gate width must be 1..16"):
        make_gate(width, ["0", "1"])


ROW_CASES = [
    # (id, width, rows, exception class the seed raised, or None for a valid gate)
    ("bad-char", 3, ["000", "001", "012", "011", "100", "101", "110", "111"], ValueError),
    ("letter", 2, ["00", "0a", "10", "11"], ValueError),
    ("space", 2, ["00", " 1", "10", "11"], ValueError),
    ("underscore", 3, ["000", "0_1", "010", "011", "100", "101", "110", "111"], ValueError),
    ("sign", 2, ["00", "+1", "10", "11"], ValueError),
    ("row-too-long", 2, ["00", "01", "10", "111"], WidthMismatch),
    ("row-too-short", 2, ["00", "01", "10", "1"], WidthMismatch),
    ("long-row-then-short-row", 2, ["001", "0", "10", "11"], WidthMismatch),
    ("empty-row", 2, ["00", "01", "10", ""], WrongLength),
    ("row-over-max-width", 2, ["00", "01", "10", "0" * 17], WrongLength),
    ("repeated-row", 2, ["00", "00", "11", "10"], NotBijective),
    ("width-0", 0, ["0"], WrongLength),
    ("width-17", 17, ["0", "1"], WrongLength),
    ("too-few-rows", 2, ["00", "01", "10"], WrongLength),
    ("mixed-valid", 2, [Word((0, 1)), "00", (1, 1), "10"], None),
    ("mixed-repeated", 2, [Word((0, 0)), "00", "11", "10"], NotBijective),
    ("mixed-bad-char", 2, [Word((0, 0)), "02", "11", "10"], ValueError),
    ("non-ascii-digits", 1, ["١", "٠"], None),
    ("bad-char-before-width", 17, ["2"], ValueError),
    ("bad-char-before-repeat", 2, ["00", "00", "12", "10"], ValueError),
    ("long-row-before-count", 2, ["00", "0" * 17], WrongLength),
    ("count-before-row-width", 2, ["00", "01", "111"], WrongLength),
    ("row-width-before-repeat", 2, ["00", "00", "111", "10"], WidthMismatch),
    ("width-before-count", 0, [], WrongLength),
]


@pytest.mark.parametrize("width,outputs,expected", [case[1:] for case in ROW_CASES],
                         ids=[case[0] for case in ROW_CASES])
def test_make_gate_errors_match_reference(width, outputs, expected):
    assert assert_make_gate_matches_reference(width, outputs) is expected


def assert_make_gate_matches_reference(width, outputs):
    """``make_gate`` builds the reference's table, or raises the class the reference
    raises; returns that class, or None for a valid gate."""
    try:
        table = ref.make_table(width, outputs)
    except (ValueError, TypeError) as error:
        expected = type(error)
    else:
        assert make_gate(width, iter(outputs)).table == table
        return None
    with pytest.raises(expected) as info:
        make_gate(width, iter(outputs))
    assert type(info.value) is expected
    return expected


def first_fault(width, entries):
    """The error class ``Gate(width, entries)`` owes, read off the definition:
    width, then length, then range ("an int in 0..2**width-1", so no float
    or bool), then "a permutation of range(2**width)"."""
    if not 1 <= width <= MAX_WIDTH or len(entries) != 1 << width:
        return WrongLength
    if not all(type(e) is int and 0 <= e < 1 << width for e in entries):
        return WidthMismatch
    return None if sorted(entries) == list(range(1 << width)) else NotBijective


def entries_near(width):
    """Entries around 0..2**width-1: mostly ints, sometimes a float or a bool,
    often one equal to a valid int."""
    near = st.integers(-1, 1 << width)
    odd = st.one_of(near.map(float), st.floats(-1, 1 << width), st.booleans())
    return st.one_of(near, near, near, near, odd)


@settings(max_examples=200)
@given(st.integers(1, 2).flatmap(lambda w: st.tuples(st.just(w), st.lists(
    entries_near(w), min_size=(1 << w) - 1, max_size=(1 << w) + 1))))
def test_gate_accepts_exactly_the_permutations(case):
    width, entries = case
    expected = first_fault(width, entries)
    if expected is None:
        assert Gate(width, entries).perm == tuple(entries)
        return
    with pytest.raises(expected) as info:
        Gate(width, entries)
    assert type(info.value) is expected


#: Faults of a valid (width, perm), in the order Gate checks them, and the error each owes.
FAULTS = {"width": WrongLength, "drop": WrongLength, "extra": WrongLength,
          "negative": WidthMismatch, "top": WidthMismatch, "repeat": NotBijective}


def corrupt(width, perm, faults, spots, bad_width):
    """Apply ``faults`` to a valid gate; ``spots`` are four distinct positions in ``perm``."""
    entries = list(perm)
    negative, top, target, source = spots
    if "negative" in faults:
        entries[negative] = -1
    if "top" in faults:
        entries[top] = 1 << width
    if "repeat" in faults:
        entries[target] = entries[source]
    if "drop" in faults:
        entries.pop()
    if "extra" in faults:
        entries.append(entries[0])
    return (bad_width if "width" in faults else width), entries


@settings(max_examples=100)
@given(st.integers(2, 10), specs, st.sets(st.sampled_from(list(FAULTS))), st.data())
def test_gate_raises_the_first_fault(width, spec, faults, data):
    assume(not {"drop", "extra"} <= faults)  # together they would keep the length
    perm = permutation(spec[0], width, spec[1])
    spots = data.draw(st.lists(st.integers(0, len(perm) - 1), min_size=4, max_size=4, unique=True))
    bad_width, entries = corrupt(width, perm, faults, spots, data.draw(st.sampled_from([0, 17])))
    expected = next((FAULTS[fault] for fault in FAULTS if fault in faults), None)
    assert expected is first_fault(bad_width, entries)
    if expected is None:
        assert Gate(bad_width, entries) == Gate(width, tuple(perm))
        return
    with pytest.raises(expected) as info:
        Gate(bad_width, entries)
    assert type(info.value) is expected


@pytest.mark.parametrize("width,entries,expected", [
    (0, (0, 1), WrongLength),
    (17, (0, 1), WrongLength),
    (2, (0, 1, 2), WrongLength),
    (2, (0, 1, 2, 3, 0), WrongLength),
    (2, (0, -1, 2, 3), WidthMismatch),
    (2, (0, 1, 4, 3), WidthMismatch),
    (2, (0, 1, 1, 3), NotBijective),
    (17, (0, -1, 1), WrongLength),
    (2, (0, 0, -1), WrongLength),
    (2, (4, 4, 1, 3), WidthMismatch),
    (2, (-1, 0, 0, 3), WidthMismatch),
    (1, (0.5, 1), WidthMismatch),
    (2, (0, 1, 2.0, 3), WidthMismatch),
    (2, (0, True, 2, 3), WidthMismatch),
    (1, (False, True), WidthMismatch),
    (2, (0.5, 1, 2), WrongLength),
    (2, (0, True, 1, 3), WidthMismatch),
], ids=["width-0", "width-17", "dropped", "extra", "negative", "top", "repeat",
        "width-before-length", "length-before-range", "range-before-repeat", "negative-and-repeat",
        "half", "integral-float", "bool", "bools-only", "length-before-type", "bool-before-repeat"])
def test_gate_fault_precedence(width, entries, expected):
    with pytest.raises(expected) as info:
        Gate(width, entries)
    assert type(info.value) is expected


@settings(max_examples=30)
@given(st.integers(1, 10), specs)
def test_gate_is_a_plain_dataclass(width, spec):
    perm = permutation(spec[0], width, spec[1])
    gate = Gate(width, tuple(perm), "g")
    listed = Gate(width, list(perm))
    assert type(listed.perm) is tuple
    assert listed == gate and hash(listed) == hash(gate)
    renamed = dataclasses.replace(gate, name="y")
    assert renamed == gate and renamed.perm == gate.perm and renamed.name == "y"
    repeated = tuple(perm[:-1]) + (perm[0],)
    with pytest.raises(NotBijective):
        dataclasses.replace(gate, perm=repeated)


@settings(max_examples=30)
@given(st.integers(1, 10), specs)
def test_make_gate_row_forms_agree(width, spec):
    """Bitstring, Word and bit-tuple rows of one permutation give one gate."""
    perm = permutation(spec[0], width, spec[1])
    want = Gate(width, perm, "g")
    strings = [format(p, f"0{width}b") for p in perm]
    bit_tuples = [tuple(int(c) for c in row) for row in strings]
    for rows in (strings, [Word(bits) for bits in bit_tuples], bit_tuples):
        got = make_gate(width, rows, name="g")
        assert got == want and got.dumps() == want.dumps()


def assert_codec_matches_format_and_int(width, perm):
    """Rows are ``format(p, "0wb")`` out and ``int(row, 2)`` in, at every width."""
    gate = Gate(width, perm)
    strings = [format(p, f"0{width}b") for p in perm]
    assert gate.to_json()["table"] == strings
    assert make_gate(width, strings).perm == tuple(int(row, 2) for row in strings)
    assert Gate.loads(gate.dumps()) == gate


@settings(max_examples=60)
@given(st.integers(1, 13), specs)
def test_codec_matches_format_and_int(width, spec):
    assert_codec_matches_format_and_int(width, permutation(spec[0], width, spec[1]))


# Shrinking a failing 2**16-row example would take minutes, so these widths only generate.
@settings(max_examples=5, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(14, 16), specs)
def test_codec_matches_format_and_int_at_widths_14_to_16(width, spec):
    assert_codec_matches_format_and_int(width, permutation(spec[0], width, spec[1]))


#: Ways to spoil one bitstring row; some spoil it into a row the Word path still reads.
ROW_MUTATIONS = {
    "leading-space": lambda row: " " + row,
    "space-for-first-char": lambda row: " " + row[1:],
    "trailing-newline": lambda row: row + "\n",
    "inner-tab": lambda row: row[:1] + "\t" + row[1:],
    "underscore": lambda row: row[:1] + "_" + row[1:],
    "underscore-for-a-char": lambda row: row[:-2] + "_" + row[-1:],
    "plus": lambda row: "+" + row,
    "plus-for-first-char": lambda row: "+" + row[1:],
    "minus": lambda row: "-" + row,
    "0b-prefix": lambda row: "0b" + row,
    "0b-over-top-bits": lambda row: "0b" + row[2:],
    "arabic-indic-digits": lambda row: row.translate(str.maketrans("01", "٠١")),
    "lone-surrogate": lambda row: row[:-1] + "\ud800",
    "fullwidth-digit": lambda row: row[:-1] + "０１"[int(row[-1])],
    "letter": lambda row: row[:-1] + "a",
    "dropped-char": lambda row: row[:-1],
    "extra-char": lambda row: row + "0",
    "empty": lambda row: "",
    "int": lambda row: int(row, 2),
    "bytes": lambda row: row.encode(),
    "bit-tuple": lambda row: tuple(map(int, row)),
    "none": lambda row: None,
}


@settings(max_examples=200)
@given(st.integers(1, 8), specs, st.sampled_from(list(ROW_MUTATIONS)), st.data())
def test_make_gate_malformed_row_matches_reference(width, spec, mutation, data):
    outputs = rows(spec[0], width, spec[1])
    at = data.draw(st.integers(0, len(outputs) - 1))
    outputs[at] = ROW_MUTATIONS[mutation](outputs[at])
    assert_make_gate_matches_reference(width, outputs)


# ``then``, ``inverse`` and well-formed bitstring rows build their gates without
# ``__post_init__``: each such gate must be the one the full check would build.


def unchecked_gates(width, spec, other_spec):
    """Gates of ``width`` that ``make_gate`` (bitstrings), ``inverse`` and ``then`` build."""
    gate = make_gate(width, rows(spec[0], width, spec[1]), name="g")
    other = make_gate(width, rows(other_spec[0], width, other_spec[1]))
    return gate, other, gate.inverse(), gate.then(other), other.then(gate.inverse()), gate.then(gate)


def assert_passes_the_full_check(gate):
    checked = Gate(gate.width, list(gate.perm), gate.name)
    assert vars(gate) == vars(checked) and type(gate.perm) is tuple
    assert gate == checked and hash(gate) == hash(checked) and repr(gate) == repr(checked)


@settings(max_examples=40)
@given(st.integers(1, 10), specs, specs)
def test_unchecked_gates_pass_the_full_check(width, spec, other_spec):
    for gate in unchecked_gates(width, spec, other_spec):
        assert_passes_the_full_check(gate)


@pytest.mark.parametrize("kind", KINDS)
def test_unchecked_gates_pass_the_full_check_at_width_16(kind):
    for gate in unchecked_gates(16, (kind, 16), ("random", 17)):
        assert_passes_the_full_check(gate)


#: Names ``dumps`` must escape exactly as ``json.dumps`` does.
NAMES = ["", "g", 'say "hi"', "back\\slash", "\\\"", "tab\tand\nnewline", "\x00\x7f",
         "g∘h⁻¹", "é", "😀", "\ud800"]


def assert_dumps_is_json_dumps(gate):
    assert gate.dumps() == json.dumps(gate.to_json())
    loaded = Gate.loads(gate.dumps())
    assert loaded == gate and loaded.name == gate.name


@settings(max_examples=60)
@given(st.integers(1, 10), specs, st.sampled_from(NAMES) | st.text())
def test_dumps_is_json_dumps_of_to_json(width, spec, name):
    assert_dumps_is_json_dumps(Gate(width, permutation(spec[0], width, spec[1]), name))


@pytest.mark.parametrize("kind", KINDS)
def test_dumps_is_json_dumps_of_to_json_at_width_16(kind):
    perm = permutation(kind, 16, 16)
    for name in NAMES:
        assert_dumps_is_json_dumps(Gate(16, perm, name))


# ``Gate.loads`` reads text in the layout ``dumps`` writes without a string per row;
# every other text goes through ``Gate.from_json(json.loads(text))``, the oracle here.


def assert_both_layouts_load(gate):
    """``dumps`` text (read in place) and indented JSON (the general route) load to ``gate``."""
    for text in (gate.dumps(), json.dumps(gate.to_json(), indent=2)):
        loaded = Gate.loads(text)
        assert loaded == gate and loaded.name == gate.name


@settings(max_examples=60)
@given(st.integers(1, 13), specs, st.sampled_from(NAMES) | st.text())
def test_loads_reads_both_layouts(width, spec, name):
    assert_both_layouts_load(Gate(width, permutation(spec[0], width, spec[1]), name))


# Shrinking a failing 2**16-row example would take minutes, so these widths only generate.
@settings(max_examples=4, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(14, 16), specs, st.sampled_from(NAMES))
def test_loads_reads_both_layouts_at_widths_14_to_16(width, spec, name):
    assert_both_layouts_load(Gate(width, permutation(spec[0], width, spec[1]), name))


def general_route(text):
    """``Gate.from_json(json.loads(text))``: a gate, or the class and message of its error
    (text that is not JSON: the ``GateError`` that names the decoder's message)."""
    try:
        data = json.loads(text)
    except ValueError as error:
        return GateError, f"gate JSON must be JSON text: {error}"
    try:
        return Gate.from_json(data)
    except (TypeError, ValueError) as error:
        return type(error), str(error)


def assert_loads_matches_general_route(text):
    want = general_route(text)
    if isinstance(want, Gate):
        got = Gate.loads(text)
        assert got == want and got.name == want.name
    else:
        with pytest.raises(want[0]) as info:
            Gate.loads(text)
        assert (type(info.value), str(info.value)) == want


def row_sites(text):
    """The positions of the table's 0s and 1s in ``text``."""
    start = text.index('"table": [')
    return [at for at in range(start, len(text)) if text[at] in "01"]


def separator_sites(text):
    """The positions of the table's '", "' separators in ``text``."""
    start = text.index('"table": [')
    return [at for at in range(start, len(text)) if text.startswith('", "', at)]


def at_a_row_site(change):
    """A mutation that applies ``change(text, at)`` at one drawn 0 or 1 of the table."""
    return lambda gate, text, draw: change(text, draw(st.sampled_from(row_sites(text))))


def at_a_separator(change):
    """A mutation that applies ``change(gate, text, at)`` at one drawn separator of the table."""
    return lambda gate, text, draw: change(gate, text, draw(st.sampled_from(separator_sites(text))))


def json_value(text, key):
    """The JSON text of ``key``'s value in ``text`` (for "name" and "width" only)."""
    head = text[text.index(f'"{key}": ') + len(key) + 4:]
    return head[:head.index(', "')]


#: Ways to spoil (or merely respell) one site of a ``dumps`` text.
TEXT_MUTATIONS = {
    "flip": at_a_row_site(lambda t, at: t[:at] + "10"[int(t[at])] + t[at + 1:]),
    **{f"{label}-for-a-bit": at_a_row_site(lambda t, at, c=char: t[:at] + c + t[at + 1:])
       for label, char in [("two", "2"), ("space", " "), ("quote", '"'), ("comma", ","),
                           ("underscore", "_"), ("newline", "\\n"), ("escaped-zero", "\\u0030"),
                           ("arabic-indic-one", "\u0661"), ("lone-surrogate", "\ud800")]},
    **{f"{label}-before-a-bit": at_a_row_site(lambda t, at, c=char: t[:at] + c + t[at:])
       for label, char in [("space", " "), ("quote", '"'), ("comma", ","), ("underscore", "_"),
                           ("separator", '", "')]},
    "dropped-bit": at_a_row_site(lambda t, at: t[:at] + t[at + 1:]),
    # one row a bit short and the next a bit long: the length of the whole table holds
    "separator-moved-left": at_a_separator(lambda g, t, at: t[:at - 1] + '", "' + t[at - 1]
                                           + t[at + 4:]),
    # one row of two rows' bits, written as the parser's joiner would join them
    "joiner-for-a-separator": at_a_separator(lambda g, t, at: t[:at] + "_" + "0" * (16 - g.width)
                                             + t[at + 4:]),
    "dropped-char": lambda gate, t, draw: (lambda at: t[:at] + t[at + 1:])(
        draw(st.integers(0, len(t) - 1))),
    "extra-row": lambda gate, t, draw: t[:-2] + ', "' + "0" * gate.width + '"]}',
    "duplicate-table-first": lambda gate, t, draw: '{"table": ["1"], ' + t[1:],
    "duplicate-table-last": lambda gate, t, draw: t[:-1] + ', "table": ["0", "1"]}',
    "duplicate-width": lambda gate, t, draw: '{"width": 1, ' + t[1:],
    "extra-key-first": lambda gate, t, draw: '{"extra": [1, "2"], ' + t[1:],
    "extra-key-last": lambda gate, t, draw: t[:-1] + ', "extra": null}',
    "no-name": lambda gate, t, draw: "{" + t[t.index('"width"'):],
    **{f"width-{label}": lambda gate, t, draw, v=value: t.replace(
        f'"width": {gate.width}', f'"width": {v(gate.width)}', 1)
       for label, value in [("true", lambda w: "true"), ("float", lambda w: f"{w}.0"),
                            ("plus-one", lambda w: w + 1), ("zero", lambda w: 0),
                            ("string", lambda w: f'"{w}"')]},
    **{f"name-{label}": lambda gate, t, draw, v=value: t.replace(
        f'"name": {json_value(t, "name")}', f'"name": {v}', 1)
       for label, value in [("int", "5"), ("null", "null"), ("list", '["g"]'),
                            ("table-lookalike", json.dumps(', "table": ["'))]},
    "compact": lambda gate, t, draw: json.dumps(json.loads(t), separators=(",", ":")),
    "trailing-newline": lambda gate, t, draw: t + "\n",
    "trailing-json-whitespace": lambda gate, t, draw: t + " \t\r\n",
    "trailing-form-feed": lambda gate, t, draw: t + "\n\f",
    "leading-space": lambda gate, t, draw: " " + t,
    "unclosed": lambda gate, t, draw: t[:-1],
    "closers-swapped": lambda gate, t, draw: t[:-2] + "}]",
    "trailing-data": lambda gate, t, draw: t + "}",
    "bytes": lambda gate, t, draw: t.encode(),
}


@settings(max_examples=300)
@given(st.integers(1, 4), specs, st.sampled_from(NAMES), st.sampled_from(list(TEXT_MUTATIONS)),
       st.data())
def test_loads_of_a_mutated_dumps_matches_the_general_route(width, spec, name, mutation, data):
    gate = Gate(width, permutation(spec[0], width, spec[1]), name)
    text = TEXT_MUTATIONS[mutation](gate, gate.dumps(), data.draw)
    assert_loads_matches_general_route(text)


@pytest.mark.parametrize("width", [1, 3, 16])
def test_dumps_text_with_trailing_whitespace_is_read_in_place(width, monkeypatch):
    """What ``gates show <id> | tail -1`` hands to ``sys.stdin.read()`` takes the layout route."""
    gate = Gate(width, permutation("random", width, width), "g")
    texts = [gate.dumps() + tail for tail in ("\n", "\r\n", " ", "\t\n\n")]

    def general_route(data):
        raise AssertionError("dumps text reached Gate.from_json")

    monkeypatch.setattr(Gate, "from_json", general_route)
    for text in texts:
        loaded = Gate.loads(text)
        assert loaded == gate and loaded.name == "g"


@pytest.mark.parametrize("width", [1, 3, 16])
def test_make_gate_rows_that_hold_the_joiner_or_a_newline_match_reference(width):
    """Rows holding "_", the 16-bit padding or a newline never pass for well-formed rows."""
    separator = "_" + "0" * (16 - width)
    good = rows("random", width, width)
    for first, second in [(good[0] + separator + good[1], ""), (good[0] + "_", good[1][1:]),
                          (good[0][:-1] + "\n", good[1]), (separator + good[0], good[1])]:
        assert_make_gate_matches_reference(width, [first, second, *good[2:]])
    # one row short: joined, the rows are the text of a whole gate
    assert_make_gate_matches_reference(width, [good[0] + separator + good[1], *good[2:]])


class Row(str):
    """A ``str`` subclass row: joined by its characters, like a plain ``str``."""


@pytest.mark.parametrize("width", [1, 3, 12])
def test_make_gate_reads_str_subclass_rows_and_refuses_bytes_rows(width):
    good = rows("involution", width, width)
    want = make_gate(width, good, name="g")
    got = make_gate(width, [Row(row) for row in good], name="g")
    assert got == want and got.name == "g"
    assert_make_gate_matches_reference(width, [Row(row) for row in good])
    assert assert_make_gate_matches_reference(width, [row.encode() for row in good]) is ValueError
    assert assert_make_gate_matches_reference(width, [good[0].encode(), *good[1:]]) is ValueError


def comprehension_transfer_table(gate, project_line=None):
    """The transfer table without a fixing, as a dict comprehension over the words."""
    words = all_words(gate.width)
    if project_line is None:
        return {word: words[out] for word, out in zip(words, gate.perm)}
    shift = gate.width - project_line
    return {word: (out >> shift) & 1 for word, out in zip(words, gate.perm)}


def assert_transfer_tables_match_the_comprehension(gate, project_line):
    uniform = Distribution.uniform_words(gate.width).probabilities
    for line in (None, project_line):
        table = transfer_table(gate, project_line=line)
        assert list(table.items()) == list(comprehension_transfer_table(gate, line).items())
        assert len(table) == len(all_words(gate.width))
        assert all(map(operator.is_, table, all_words(gate.width)))
        table.clear()  # the table is the caller's own: the shared uniform mapping stays whole
    assert set(uniform.values()) == {1.0 / len(all_words(gate.width))}
    assert list(uniform) == list(all_words(gate.width))


@settings(max_examples=40)
@given(st.integers(1, 10), specs, st.data())
def test_transfer_tables_match_the_comprehension(width, spec, data):
    gate = Gate(width, permutation(spec[0], width, spec[1]))
    assert_transfer_tables_match_the_comprehension(gate, data.draw(st.integers(1, width)))


@pytest.mark.parametrize("kind", KINDS)
def test_transfer_tables_match_the_comprehension_at_width_16(kind):
    assert_transfer_tables_match_the_comprehension(Gate(16, permutation(kind, 16, 16)), 7)
