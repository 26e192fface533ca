"""Tests for ancilla fixing, output projection, and connective naming."""

import itertools

import pytest

from golden import RESTRICTION_ROWS
from revlogic.core import Word
from revlogic.derivation import (
    BINARY_NAMES,
    BooleanFunction,
    Connective,
    Fixing,
    InvalidFixing,
    classify,
    derived_connectives,
    iter_fixings,
    output_function,
    restrict,
)
from seed_core import full_word, identity_gate
from revlogic.library import build


#: Two essential inputs a < b (line numbers), truth listed at (a, b) = 00, 01, 10, 11.
BOTH_INPUT_NAMES = {
    (0, 0, 0, 1): "AND", (0, 1, 1, 1): "OR", (1, 1, 1, 0): "NAND", (1, 0, 0, 0): "NOR",
    (0, 1, 1, 0): "XOR", (1, 0, 0, 1): "NXOR", (1, 1, 0, 1): "IMPLIES_AB",
    (1, 0, 1, 1): "IMPLIES_BA", (0, 0, 1, 0): "NIMPLIES_AB", (0, 1, 0, 0): "NIMPLIES_BA",
}


def direct_name(inputs, truth):
    """The connective name straight from its definition, without ``classify``.

    ``truth`` is indexed by the bits of ``inputs`` in their given order, the
    first input most significant."""
    def value(bits):  # bits: line -> bit
        return truth[sum(bits[line] << (len(inputs) - 1 - pos) for pos, line in enumerate(inputs))]

    points = [dict(zip(inputs, bits)) for bits in itertools.product((0, 1), repeat=len(inputs))]
    essential = sorted(line for line in inputs
                       if any(value(p) != value({**p, line: 1 - p[line]}) for p in points))
    zeros = dict.fromkeys(inputs, 0)
    if not essential:
        return "CONST1" if value(zeros) else "CONST0"
    if len(essential) == 1:
        return "ID" if value({**zeros, essential[0]: 1}) else "NOT"
    if len(essential) == 2:
        a, b = essential
        return BOTH_INPUT_NAMES[tuple(value({**zeros, a: x, b: y})
                                      for x, y in itertools.product((0, 1), repeat=2))]
    return "RAW"


class TestFixing:
    def test_partition(self):
        fixing = Fixing.of(3, {3: 0})
        assert fixing.free == (1, 2)
        assert fixing.assignments == {3: 0}

    def test_reading_free_leaves_equality_and_hash_alone(self):
        read, unread = Fixing.of(3, {3: 0}), Fixing.of(3, {3: 0})
        assert read.free is read.free
        assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)

    def test_full_word_merges(self):
        fixing = Fixing.of(3, {2: 1})
        assert full_word(fixing, (0, 1)) == Word((0, 1, 1))

    def test_line_out_of_range(self):
        with pytest.raises(InvalidFixing):
            Fixing.of(3, {4: 0})

    def test_double_assignment(self):
        with pytest.raises(InvalidFixing):
            Fixing(3, ((1, 0), (1, 1)))

    def test_everything_fixed_rejected(self):
        with pytest.raises(InvalidFixing):
            Fixing.of(2, {1: 0, 2: 0})

    @pytest.mark.parametrize("assignments", [
        {1: True}, {True: 0}, {1.0: 0}, {2: 1.0}, {2: "1"}, {"2": 1}, {2: None},
    ])
    def test_lines_and_bits_must_be_ints(self, assignments):
        # bool and float would pass the range checks, then mislabel or break input_codes
        with pytest.raises(InvalidFixing):
            Fixing.of(3, assignments)

    def test_unhashable_line_is_an_invalid_fixing(self):
        # the duplicate check hashes every line, so the type check must come first
        with pytest.raises(InvalidFixing, match=r"line \[1\] outside"):
            Fixing(3, (([1], 0),))


class TestRestrict:
    @pytest.mark.parametrize("gate_id,line,bit", [
        ("cl", 3, 0), ("cl", 3, 1), ("toffoli", 3, 0), ("toffoli", 3, 1),
        ("x", 3, 0), ("x", 3, 1), ("i", 3, 1), ("cl", 1, 0),
    ])
    def test_matches_golden_rows(self, gate_id, line, bit):
        fixing = Fixing.of(3, {line: bit})
        rows = restrict(build(gate_id), fixing)
        got = [(str(full_word(fixing, free.bits)), str(out)) for free, out in rows]
        assert got == RESTRICTION_ROWS[(gate_id, (line, bit))]

    def test_identity_restricted_to_one_line(self):
        rows = restrict(identity_gate(3), Fixing.of(3, {1: 0, 2: 0}))
        assert [(str(f), str(o)) for f, o in rows] == [("0", "000"), ("1", "001")]

    def test_outputs_stay_distinct(self):
        # injectivity inherited from bijectivity: garbage keeps rows apart
        for gate_id in ("cl", "toffoli", "x", "i"):
            gate = build(gate_id)
            for fixing in iter_fixings(3):
                outs = [out for _, out in restrict(gate, fixing)]
                assert len(set(outs)) == len(outs)

    def test_width_mismatch(self):
        with pytest.raises(InvalidFixing):
            restrict(build("cnot"), Fixing.of(3, {3: 0}))


class TestOutputFunction:
    def test_cl_or_realization(self):
        bf = output_function(build("cl"), Fixing.of(3, {3: 0}), 3)
        assert bf.truth == (0, 1, 1, 1)
        assert bf.essential == {1, 2}

    def test_cl_nor_realization(self):
        bf = output_function(build("cl"), Fixing.of(3, {3: 1}), 3)
        assert bf.truth == (1, 0, 0, 0)

    def test_toffoli_not_realization(self):
        bf = output_function(build("toffoli"), Fixing.of(3, {2: 1, 3: 1}), 3)
        assert bf.truth == (1, 0)
        assert bf.essential == {1}

    def test_free_first_lines_are_identity(self):
        for gate_id in ("cl", "toffoli", "x", "i"):
            gate = build(gate_id)
            for line in (1, 2):
                bf = output_function(gate, Fixing.of(3, {3: 0}), line)
                assert classify(bf) is Connective.ID
                assert bf.essential == {line}

    def test_bad_line(self):
        with pytest.raises(InvalidFixing):
            output_function(build("cl"), Fixing.of(3, {3: 0}), 4)

    @pytest.mark.parametrize("line", [True, 3.0, "1", None])
    def test_output_line_must_be_an_int(self, line):
        # True would pass 1 <= line and read line 1; 3.0 would break on >>
        with pytest.raises(InvalidFixing, match="output line"):
            output_function(build("cl"), Fixing.of(3, {3: 0}), line)


class TestClassify:
    def test_or(self):
        bf = BooleanFunction.from_truth((1, 2), (0, 1, 1, 1))
        assert classify(bf) is Connective.OR

    def test_implication(self):
        bf = BooleanFunction.from_truth((1, 2), (1, 1, 0, 1))
        assert classify(bf) is Connective.IMPLIES_AB

    def test_constant_after_projection(self):
        bf = BooleanFunction.from_truth((2,), (1, 1))
        assert classify(bf) is Connective.CONST1
        assert bf.essential == set()

    def test_degenerate_binary_becomes_unary(self):
        # (1, a, b) -> not b: named NOT with the other line ignored
        bf = output_function(build("cl"), Fixing.of(3, {1: 1}), 3)
        assert classify(bf) is Connective.NOT
        assert bf.inputs == (2, 3)
        assert bf.essential == {3}

    def test_truth_follows_ascending_lines_whatever_the_input_order(self):
        # inputs (2, 1): swapping the two bits of each index gives the (1, 2) truth
        for truth in itertools.product((0, 1), repeat=4):
            swapped = tuple(truth[(i >> 1) | (i & 1) << 1] for i in range(4))
            got = classify(BooleanFunction.from_truth((2, 1), truth))
            assert got is classify(BooleanFunction.from_truth((1, 2), swapped))
        # 1 only at x2 = 1, x1 = 0: a = line 1 is 0 and b = line 2 is 1
        assert classify(BooleanFunction.from_truth((2, 1), (0, 0, 1, 0))) is Connective.NIMPLIES_BA

    def test_three_essential_inputs_stay_raw(self):
        bf = output_function(build("cl"), Fixing(3, ()), 3)
        assert classify(bf) is Connective.RAW
        assert bf.essential == {1, 2, 3}

    def test_binary_name_table_is_a_bijection(self):
        # truth[2a + b]: a function of (a, b) depends on a when its a = 0 and
        # a = 1 halves differ, on b when its b = 0 and b = 1 columns differ
        both = {v for v in itertools.product((0, 1), repeat=4)
                if v[:2] != v[2:] and v[0::2] != v[1::2]}
        assert len(both) == 10
        assert set(BINARY_NAMES) == both
        assert len(set(BINARY_NAMES.values())) == 10

    @pytest.mark.parametrize("arity", [0, 1, 2, 3])
    def test_every_truth_table_matches_the_direct_definition(self, arity):
        # every input order of every line subset of that size, every truth table
        for inputs in itertools.permutations((1, 2, 3), arity):
            for truth in itertools.product((0, 1), repeat=1 << arity):
                got = classify(BooleanFunction.from_truth(inputs, truth))
                assert got.value == direct_name(inputs, truth), (inputs, truth)

    def test_classify_returns_every_name_but_fanout(self):
        names = {
            classify(BooleanFunction.from_truth(inputs, truth))
            for arity in range(4)
            for inputs in itertools.permutations((1, 2, 3), arity)
            for truth in itertools.product((0, 1), repeat=1 << arity)
        }
        assert names == set(Connective) - {Connective.FANOUT}


class TestDerivedConnectives:
    def test_cl_summary_names(self):
        names = derived_connectives(build("cl")).names
        assert {Connective.XOR, Connective.OR, Connective.NOR,
                Connective.NOT, Connective.FANOUT} <= names

    def test_toffoli_summary_names(self):
        names = derived_connectives(build("toffoli")).names
        assert {Connective.XOR, Connective.AND, Connective.NAND,
                Connective.NOT, Connective.FANOUT} <= names

    def test_x_summary_names(self):
        names = derived_connectives(build("x")).names
        assert {Connective.XOR, Connective.NXOR,
                Connective.NOT, Connective.FANOUT} <= names

    def test_fanout_examples_present(self):
        entries = derived_connectives(build("cl")).entries
        fanouts = {(e.fixing.label(), e.line) for e in entries
                   if e.connective is Connective.FANOUT}
        # (a,0,0) -> (a,0,a) and (0,a,0) -> (0,a,a)
        assert ("x2=0,x3=0", 3) in fanouts
        assert ("x1=0,x3=0", 3) in fanouts

    def test_ancilla_negation_negates_connective(self):
        # flipping the line-3 ancilla complements the derived truth vector
        for gate_id in ("cl", "toffoli", "x"):
            gate = build(gate_id)
            low = output_function(gate, Fixing.of(3, {3: 0}), 3).truth
            high = output_function(gate, Fixing.of(3, {3: 1}), 3).truth
            assert tuple(1 - b for b in low) == high

    def test_entries_are_deterministically_ordered(self):
        # lexicographic in (fixed-line set, fixed values), then output line
        first = derived_connectives(build("cl")).entries
        second = derived_connectives(build("cl")).entries
        assert first == second
        labels = [
            (len(e.fixing.fixed),
             tuple(line for line, _ in e.fixing.fixed),
             tuple(bit for _, bit in e.fixing.fixed),
             e.line)
            for e in first
        ]
        assert labels == sorted(labels)

    def test_rejects_other_widths(self):
        with pytest.raises(InvalidFixing):
            derived_connectives(build("cnot"))


def test_brute_force_enumeration_agrees():
    """Re-derive the 1- and 2-line fixing results by direct enumeration."""
    truth_names = {
        (0, 1, 1, 1): "OR", (1, 0, 0, 0): "NOR", (0, 0, 0, 1): "AND",
        (1, 1, 1, 0): "NAND", (0, 1, 1, 0): "XOR", (1, 0, 0, 1): "NXOR",
        (1, 1, 0, 1): "IMPLIES_AB", (1, 0, 1, 1): "IMPLIES_BA",
        (0, 0, 1, 0): "NIMPLIES_AB", (0, 1, 0, 0): "NIMPLIES_BA",
        (0, 0, 1, 1): "ID_A", (0, 1, 0, 1): "ID_B",
        (1, 1, 0, 0): "NOT_A", (1, 0, 1, 0): "NOT_B",
        (0, 0, 0, 0): "CONST0", (1, 1, 1, 1): "CONST1",
        (0, 1): "ID", (1, 0): "NOT", (0, 0): "CONST0", (1, 1): "CONST1",
        (0,): "CONST0", (1,): "CONST1",
    }

    def name_of(free_lines, values_to_bit):
        essential = [
            line for pos, line in enumerate(free_lines)
            if any(
                values_to_bit[v] != values_to_bit[v[:pos] + (1 - v[pos],) + v[pos + 1:]]
                for v in values_to_bit
            )
        ]
        keep = [free_lines.index(line) for line in essential]
        projected = {}
        for v, bit in values_to_bit.items():
            projected[tuple(v[i] for i in keep)] = bit
        truth = tuple(projected[v] for v in sorted(projected))
        return truth_names.get(truth, "RAW"), tuple(essential)

    for gate_id in ("cl", "toffoli", "x", "i"):
        gate = build(gate_id)
        expected = set()
        lines = (1, 2, 3)
        for count in (1, 2):
            for fixed_lines in itertools.combinations(lines, count):
                for fixed_vals in itertools.product((0, 1), repeat=count):
                    assignment = dict(zip(fixed_lines, fixed_vals))
                    free = tuple(l for l in lines if l not in assignment)
                    table = {}
                    for vals in itertools.product((0, 1), repeat=len(free)):
                        bits = [0, 0, 0]
                        for line, bit in assignment.items():
                            bits[line - 1] = bit
                        for line, bit in zip(free, vals):
                            bits[line - 1] = bit
                        table[vals] = gate.apply(Word(tuple(bits)))
                    for out_line in lines:
                        per_out = {v: w.bits[out_line - 1] for v, w in table.items()}
                        name, essential = name_of(free, per_out)
                        if name == "RAW":
                            continue
                        # trivial pass-through of the line's own value
                        if out_line != 3:
                            if out_line in free and name == "ID" and essential == (out_line,):
                                continue
                            if out_line in assignment and name == f"CONST{assignment[out_line]}":
                                continue
                        if name == "ID" and essential != (out_line,):
                            src = essential[0]
                            for other in lines:
                                if other == out_line:
                                    continue
                                other_tab = {v: w.bits[other - 1] for v, w in table.items()}
                                if name_of(free, other_tab) == ("ID", essential):
                                    name = "FANOUT"
                                    break
                        key = tuple(sorted(assignment.items()))
                        expected.add((key, out_line, name))

        got = {
            (entry.fixing.fixed, entry.line, entry.connective.value)
            for entry in derived_connectives(gate).entries
            if len(entry.fixing.fixed) in (1, 2)
        }
        assert got == expected, gate_id
