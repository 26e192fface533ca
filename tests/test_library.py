"""Tests for the named-gate builders and their formula/table cross-check."""

import pytest

from golden import GATE_ROWS
from revlogic.core import WidthMismatch, Word
from revlogic.library import GateId, UnknownId, all_gate_ids, build, coerce_gate_id, formula_output
from seed_core import identity_gate


def test_reference_tables_match_golden_rows():
    for gate_id, rows in GATE_ROWS.items():
        gate = build(gate_id)
        for inp, out in rows:
            assert gate.apply(Word.from_string(inp)) == Word.from_string(out), (gate_id, inp)


@pytest.mark.parametrize("gate_id,inp,out", [
    ("cl", "011", "010"),
    ("x", "110", "110"),
    ("i", "100", "101"),
    ("cnot", "10", "11"),
])
def test_build_spot_rows(gate_id, inp, out):
    assert build(gate_id).apply(Word.from_string(inp)) == Word.from_string(out)


@pytest.mark.parametrize("gate_id,inp,out", [
    ("toffoli", "110", "111"),
    ("cl", "000", "000"),
    ("i", "101", "100"),
])
def test_formula_spot_rows(gate_id, inp, out):
    assert formula_output(gate_id, Word.from_string(inp)) == Word.from_string(out)


def test_formula_agrees_with_table_everywhere():
    # the closed form and the stored table are independent routes
    for gate_id in all_gate_ids():
        gate = build(gate_id)
        for word in gate.words():
            assert formula_output(gate_id, word) == gate.apply(word), (gate_id, word)


def test_every_named_gate_is_self_reversible():
    for gate_id in all_gate_ids():
        gate = build(gate_id)
        assert gate.then(gate) == identity_gate(gate.width), gate_id


def test_first_two_lines_pass_through():
    for gate_id in (GateId.CL, GateId.TOFFOLI, GateId.X, GateId.I):
        gate = build(gate_id)
        for word in gate.words():
            assert gate.apply(word).bits[:2] == word.bits[:2]


def test_cnot_clones_with_zero_ancilla():
    cnot = build("cnot")
    for a in (0, 1):
        assert cnot.apply(Word((a, 0))) == Word((a, a))


class TestControlledNotBehavior:
    """Which control patterns complement the target line."""

    def test_cl_flips_target_iff_some_control_on(self):
        cl = build("cl")
        for word in cl.words():
            a, b, c = word.bits
            flipped = cl.apply(word).bits[2] != c
            assert flipped == bool(a | b)

    def test_toffoli_flips_target_iff_both_controls_on(self):
        toffoli = build("toffoli")
        for word in toffoli.words():
            a, b, c = word.bits
            flipped = toffoli.apply(word).bits[2] != c
            assert flipped == bool(a & b)

    def test_x_flips_target_iff_controls_differ(self):
        x = build("x")
        for word in x.words():
            a, b, c = word.bits
            flipped = x.apply(word).bits[2] != c
            assert flipped == (a != b)


class TestControlledLinePairs:
    """CL with line 1 held: the other two lines act as a two-line gate."""

    def test_line1_low_gives_cnot_on_remaining_pair(self):
        cl = build("cl")
        for b, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out = cl.apply(Word((0, b, c)))
            assert out.bits[1:] == (b, b ^ c)

    def test_line1_high_negates_line3(self):
        cl = build("cl")
        for b, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out = cl.apply(Word((1, b, c)))
            assert out.bits[1:] == (b, 1 - c)


def test_unknown_id_rejected():
    with pytest.raises(UnknownId):
        build("fredkin")
    with pytest.raises(UnknownId):
        coerce_gate_id("peres")


@pytest.mark.parametrize("value", [3, None, 1.5, b"cl"])
def test_an_id_that_is_not_a_string_is_an_unknown_id(value):
    # an AttributeError from .lower() before
    for call in (coerce_gate_id, build, lambda v: formula_output(v, Word((0, 0, 0)))):
        with pytest.raises(UnknownId, match="unknown gate id"):
            call(value)


@pytest.mark.parametrize("value", [["cl"], {"cl": 1}, {"cl"}])
def test_an_unhashable_id_is_an_unknown_id(value):
    # once TypeError: unhashable type, from build's cache before the id was read
    with pytest.raises(UnknownId) as refused:
        build(value)
    with pytest.raises(UnknownId) as coerced:
        coerce_gate_id(value)
    assert str(refused.value) == str(coerced.value)


def test_build_keeps_one_gate_per_id():
    for gate_id in all_gate_ids():
        gate = build(gate_id)
        assert build(gate_id.value) is gate
        assert build(gate_id.value.upper()) is gate


def test_build_cache_clear_builds_again():
    before = build("cl")
    build.cache_clear()
    after = build("cl")
    assert after is not before and after == before and after.name == "cl"
    assert build(GateId.CL) is after


def test_formula_width_checked():
    with pytest.raises(WidthMismatch):
        formula_output("cl", Word((0, 1)))
