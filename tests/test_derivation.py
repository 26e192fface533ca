"""Tests for ancilla fixing, output projection, and connective naming."""

import functools
import itertools
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from golden import RESTRICTION_ROWS
from revlogic.core import MAX_WIDTH, Gate, GateError, Word
from revlogic.derivation import (
    BINARY_NAMES,
    MAX_DERIVE_WIDTH,
    BooleanFunction,
    Connective,
    Derivation,
    DerivedConnectives,
    Fixing,
    InvalidFixing,
    _sweep,
    classify,
    derived_connectives,
    input_codes,
    iter_fixings,
    output_function,
    restrict,
)
from seed_core import full_word, identity_gate
from revlogic.library import build

#: One sweep per gate, shared by the tests that derive the same width-8 gate.
derive = functools.cache(derived_connectives)


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


def toffoli(width):
    """The multi-controlled Toffoli gate: the last line flips when all others are 1."""
    top = (1 << width) - 2
    return Gate(width, tuple(code ^ 1 if code >= top else code for code in range(1 << width)))


def front_wire(gate):
    """``gate`` on lines 2..w+1 beside an identity wire on line 1."""
    n = 1 << gate.width
    return Gate(gate.width + 1,
                tuple((code & n) | gate.perm[code & (n - 1)] for code in range(2 * n)))


def back_wire(gate):
    """``gate`` on lines 1..w beside an identity wire on the new last line."""
    return Gate(gate.width + 1,
                tuple((gate.perm[code >> 1] << 1) | (code & 1) for code in range(2 << gate.width)))


def random_gate(width, seed):
    perm = list(range(1 << width))
    random.Random(seed).shuffle(perm)
    return Gate(width, tuple(perm))


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

    @pytest.mark.parametrize("width,fixed", [
        (3.0, ()), (True, ()), ("3", ()), (None, ()),
        (3, None), (3, 5), (3, [1, 2]), (3, [(1, 0, 0)]), (3, ((1,),)), (3, "x1"),
    ])
    def test_width_and_pairs_must_be_what_they_say(self, width, fixed):
        # a float or bool width used to build, and input_codes then failed;
        # fixed=None raised TypeError
        with pytest.raises(InvalidFixing):
            Fixing(width, fixed)

    def test_any_sequence_of_pairs_builds_the_same_fixing(self):
        assert Fixing(3, [(1, 0)]) == Fixing(3, [[1, 0]]) == Fixing.of(3, {1: 0})
        assert Fixing(3, [[1, 0]]).fixed == ((1, 0),)

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

    @pytest.mark.parametrize("truth", [
        (0, 0, 0, 2), (0, 1, -1, 1), (0, 1, 1, None), ("0", 1, 1, 1), (0, 1, 1, [1]),
    ])
    def test_truth_entries_must_be_bits(self, truth):
        # classify used to fail later with a KeyError on the unknown vector
        with pytest.raises(ValueError, match="2 inputs need 4 truth bits"):
            BooleanFunction.from_truth((1, 2), truth)

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

    def test_rejects_other_widths(self, monkeypatch):
        # width 9 is refused before a single fixing is enumerated
        def no_sweep(width):
            raise AssertionError("enumerated fixings")

        monkeypatch.setattr("revlogic.derivation.iter_fixings", no_sweep)
        with pytest.raises(InvalidFixing, match=r"widths 1\.\.8, got 9"):
            derived_connectives(Gate(MAX_DERIVE_WIDTH + 1, tuple(range(1 << MAX_DERIVE_WIDTH + 1))))
        monkeypatch.undo()
        # width 8 is swept in full, past the old cap of two fixed lines: AND of
        # x6 and x7 needs four controls at 1 and the target at 0, five fixed lines
        result = derive(front_wire(toffoli(7)))
        assert {Connective.AND, Connective.NAND, Connective.XOR, Connective.FANOUT} <= result.names
        fixing = Fixing.of(8, {2: 1, 3: 1, 4: 1, 5: 1, 8: 0})
        assert Derivation(fixing, 8, Connective.AND, (6, 7)) in result.entries


def reference_derived_connectives(gate):
    """The per-fixing route: name each (fixing, line) by ``output_function`` and
    ``classify``, then drop RAW and the lines but the last that relay their own
    input, and mark an ID that another line also carries as FANOUT."""
    entries = []
    for fixing in iter_fixings(gate.width):
        per_line = {}
        for line in range(1, gate.width + 1):
            bf = output_function(gate, fixing, line)
            per_line[line] = (bf, classify(bf))
        for line, (bf, name) in per_line.items():
            if name is Connective.RAW:
                continue
            if line != gate.width:
                if line in fixing.free and name is Connective.ID and bf.essential == {line}:
                    continue
                if line not in fixing.free and name.value == f"CONST{fixing.assignments[line]}":
                    continue
            if name is Connective.ID and bf.essential != {line} and any(
                    other != line and other_name is Connective.ID
                    and other_bf.essential == bf.essential
                    for other, (other_bf, other_name) in per_line.items()):
                name = Connective.FANOUT
            entries.append(Derivation(fixing, line, name, tuple(sorted(bf.essential))))
    return DerivedConnectives(tuple(entries), frozenset(e.connective for e in entries))


def assert_same_as_the_per_fixing_route(gate):
    got, want = derived_connectives(gate), reference_derived_connectives(gate)
    assert got.entries == want.entries  # same order, fixings, names and essential tuples
    assert got.names == want.names


ORACLE_GATES = [build(gate_id) for gate_id in ("cl", "toffoli", "x", "i")] + [
    random_gate(width, seed) for width in range(1, 6) for seed in range(3)]


def test_brute_force_enumeration_agrees():
    """Re-derive the results of every fixing by direct enumeration."""
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

    for gate in ORACLE_GATES:
        expected = set()
        lines = tuple(range(1, gate.width + 1))
        for count in range(gate.width):
            for fixed_lines in itertools.combinations(lines, count):
                for fixed_vals in itertools.product((0, 1), repeat=count):
                    assignment = dict(zip(fixed_lines, fixed_vals))
                    free = tuple(l for l in lines if l not in assignment)
                    table = {}
                    for vals in itertools.product((0, 1), repeat=len(free)):
                        bits = [0] * gate.width
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
                        # trivial pass-through of the line's own value; the last line always counts
                        if out_line != lines[-1]:
                            if out_line in free and name == "ID" and essential == (out_line,):
                                continue
                            if out_line in assignment and name == f"CONST{assignment[out_line]}":
                                continue
                        if name == "ID" and essential != (out_line,):
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
        }
        assert got == expected, gate


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bennett_embedding_realizes_every_restriction(k):
    """For every f of arity k, (x, y) -> (x, y xor f(x)) is self-inverse, and with
    y = 0 its last line is f: its names include every restriction of f a fixing reaches."""
    for truth in itertools.product((0, 1), repeat=1 << k):
        gate = Gate(k + 1, tuple(code ^ truth[code >> 1] for code in range(2 << k)))
        assert gate.inverse() == gate
        names = {name.value for name in derived_connectives(gate).names}
        # fix y = 0 and up to k - 1 of the x lines, so one x line stays free
        for count in range(k):
            for fixed_lines in itertools.combinations(range(1, k + 1), count):
                for fixed_vals in itertools.product((0, 1), repeat=count):
                    assignment = dict(zip(fixed_lines, fixed_vals))
                    free = tuple(l for l in range(1, k + 1) if l not in assignment)
                    restricted = []
                    for vals in itertools.product((0, 1), repeat=len(free)):
                        point = {**assignment, **dict(zip(free, vals))}
                        restricted.append(truth[sum(point[l] << (k - l) for l in point)])
                    name = direct_name(free, restricted)
                    if name == "RAW":
                        continue
                    # the one essential x line also passes through: ID shows as FANOUT
                    assert name in names or (name == "ID" and "FANOUT" in names), (truth, name)


def relabel(gate, sigma):
    """Conjugate ``gate`` by the wire permutation moving line i to line sigma[i]."""
    width = gate.width

    def move(code, mapping):
        return sum((code >> (width - line) & 1) << (width - mapping[line])
                   for line in range(1, width + 1))

    back = {new: old for old, new in sigma.items()}
    return Gate(width, tuple(move(gate.perm[move(code, back)], sigma)
                             for code in range(1 << width)))


SWAPPED = {
    Connective.IMPLIES_AB: Connective.IMPLIES_BA, Connective.IMPLIES_BA: Connective.IMPLIES_AB,
    Connective.NIMPLIES_AB: Connective.NIMPLIES_BA, Connective.NIMPLIES_BA: Connective.NIMPLIES_AB,
}


def relabelled(entry, sigma):
    """The entry a relabelled gate must carry in place of ``entry``."""
    name = entry.connective
    if len(entry.essential) == 2 and sigma[entry.essential[0]] > sigma[entry.essential[1]]:
        name = SWAPPED.get(name, name)
    return Derivation(
        Fixing(entry.fixing.width, tuple((sigma[line], bit) for line, bit in entry.fixing.fixed)),
        sigma[entry.line], name, tuple(sorted(sigma[line] for line in entry.essential)))


# a width-7 sweep takes about 40 ms (its per-fixing reference about 0.2 s):
# few examples, no deadline, no shrinking
DERIVE_SETTINGS = dict(deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])


@settings(max_examples=15, **DERIVE_SETTINGS)
@given(st.integers(1, 6).flatmap(lambda width: st.permutations(range(1 << width))))
def test_the_sweep_matches_the_per_fixing_route(perm):
    assert_same_as_the_per_fixing_route(Gate(len(perm).bit_length() - 1, tuple(perm)))


@pytest.mark.parametrize("gate", [random_gate(7, 2024), toffoli(8)], ids=["random7", "toffoli8"])
def test_the_sweep_matches_the_per_fixing_route_at_widths_7_and_8(gate):
    assert_same_as_the_per_fixing_route(gate)


@settings(max_examples=20, **DERIVE_SETTINGS)
@given(st.integers(1, 7).flatmap(lambda width: st.tuples(
    st.permutations(range(1 << width)), st.permutations(range(1, width)))))
def test_relabelling_wires_relabels_entries(case):
    perm, order = case
    width = len(order) + 1
    gate = Gate(width, tuple(perm))
    # the last line stays in place, so the same entries count as pass-through
    sigma = dict(zip(range(1, width), order)) | {width: width}
    got = set(derived_connectives(relabel(gate, sigma)).entries)
    assert got == {relabelled(entry, sigma) for entry in derived_connectives(gate).entries}


@settings(max_examples=15, **DERIVE_SETTINGS)
@given(st.integers(1, 6).flatmap(lambda width: st.permutations(range(1 << width))),
       st.sampled_from([front_wire, back_wire]))
def test_a_pass_through_line_keeps_every_name(perm, embed):
    gate = Gate(len(perm).bit_length() - 1, tuple(perm))
    assert derived_connectives(gate).names <= derived_connectives(embed(gate)).names


def test_a_pass_through_line_keeps_every_name_at_width_8():
    gate = toffoli(7)
    assert derive(gate).names <= derive(front_wire(gate)).names


def subcube_oracle(fixing):
    """The codes whose fixed lines hold their bits, ascending: free-input encoding order."""
    w = fixing.width
    return [c for c in range(1 << w) if all(c >> w - line & 1 == bit for line, bit in fixing.fixed)]


@pytest.mark.parametrize("width", range(1, 7))
def test_codes_match_the_brute_force_oracle_at_widths_1_to_6(width):
    for fixing in iter_fixings(width):
        assert fixing.codes == tuple(subcube_oracle(fixing)), fixing


# one bit (or free, None) per line, at least one line free
@settings(max_examples=8, deadline=None)
@given(st.integers(7, 16).flatmap(lambda width: st.lists(
    st.sampled_from([None, 0, 1]), min_size=width, max_size=width).filter(
    lambda bits: None in bits)))
def test_codes_match_the_brute_force_oracle_at_widths_7_to_16(bits):
    fixing = Fixing(len(bits), tuple((line, bit) for line, bit in enumerate(bits, 1)
                                     if bit is not None))
    assert fixing.codes == tuple(subcube_oracle(fixing))


def test_codes_are_built_once_and_read_by_input_codes():
    fixing, twin = Fixing.of(3, {2: 1}), Fixing.of(3, {2: 1})
    assert fixing.codes is fixing.codes
    assert input_codes(build("cl"), fixing) is fixing.codes
    assert fixing == twin and hash(fixing) == hash(twin)  # a cached read is no field


@pytest.mark.parametrize("width", range(1, 6))
def test_each_sweep_record_reads_its_cube_and_base_from_the_codes(width):
    for fixing, cube, base, _, _ in _sweep(width)[1]:
        oracle = subcube_oracle(fixing)
        assert (cube, base) == (sum(1 << c for c in oracle), oracle[0]), fixing


class TestTypedErrorsAtTheEdge:
    """Arguments of the wrong kind raise the module's own errors, not AttributeError or
    TypeError from inside."""

    @pytest.mark.parametrize("gate", [None, "cl", 3])
    def test_derived_connectives_of_a_non_gate_is_a_gate_error(self, gate):
        with pytest.raises(GateError, match="expected a Gate"):
            derived_connectives(gate)

    @pytest.mark.parametrize("gate", [None, "cl"])
    def test_input_codes_of_a_non_gate_is_a_gate_error(self, gate):
        with pytest.raises(GateError, match="expected a Gate"):
            input_codes(gate, Fixing.of(3, {3: 0}))

    @pytest.mark.parametrize("gate", [None, "cl"])
    def test_restrict_of_a_non_gate_is_a_gate_error(self, gate):
        with pytest.raises(GateError, match="expected a Gate"):
            restrict(gate, Fixing.of(3, {3: 0}))

    def test_output_function_of_a_non_gate_is_a_gate_error(self):
        with pytest.raises(GateError, match="expected a Gate"):
            output_function(None, Fixing.of(3, {3: 0}), 3)

    @pytest.mark.parametrize("assignments", [None, [(3, 0)], "x3=0", 3])
    def test_fixing_of_a_non_mapping_is_an_invalid_fixing(self, assignments):
        with pytest.raises(InvalidFixing, match="assignments must map lines to bits"):
            Fixing.of(3, assignments)

    @pytest.mark.parametrize("bf", [None, (0, 1, 1, 1), Connective.OR])
    def test_classify_of_a_non_function_is_a_value_error(self, bf):
        with pytest.raises(ValueError, match="classify takes a BooleanFunction"):
            classify(bf)

    @pytest.mark.parametrize("inputs,truth", [((1,), None), (None, (0, 1)), ((1,), {0, 1}),
                                              ((1,), 1)])
    def test_from_truth_of_a_non_sequence_is_a_value_error(self, inputs, truth):
        with pytest.raises(ValueError, match="inputs and truth must be sequences"):
            BooleanFunction.from_truth(inputs, truth)

    def test_from_truth_of_lists_equals_and_hashes_like_tuples(self):
        # lists were once kept as given: the function could not be hashed
        bf = BooleanFunction.from_truth([1], [0, 1])
        assert bf == BooleanFunction.from_truth((1,), (0, 1))
        assert hash(bf) == hash(BooleanFunction.from_truth((1,), (0, 1)))
        assert (bf.inputs, bf.truth) == ((1,), (0, 1))

    @pytest.mark.parametrize("inputs", ["ab", (1, "2"), (1.0, 2), (True, 2)])
    def test_from_truth_refuses_inputs_that_are_not_int_lines(self, inputs):
        # "ab" once gave inputs 'a' and 'b', which classify named OR
        with pytest.raises(ValueError, match="inputs must be int lines"):
            BooleanFunction.from_truth(inputs, (0, 1, 1, 1))

    @pytest.mark.parametrize("width", [2.0, "3", -1, 0, True, None])
    def test_iter_fixings_refuses_a_width_that_is_not_an_int_of_at_least_1(self, width):
        # refused at the call, before anything is iterated
        with pytest.raises(InvalidFixing, match=r"fixing width must be an int >= 1"):
            iter_fixings(width)

    def test_iter_fixings_refuses_a_width_past_max_width(self):
        # the first next() once turned range(1, width + 1) into a tuple, at any width
        with pytest.raises(InvalidFixing, match=rf"^fixing width must be an int >= 1 and <= "
                                                rf"{MAX_WIDTH}, got {MAX_WIDTH + 1}$"):
            iter_fixings(MAX_WIDTH + 1)
        assert next(iter_fixings(MAX_WIDTH)) == Fixing.of(MAX_WIDTH, {})

    def test_fixing_refuses_a_width_past_max_width(self):
        # codes double with each line: width 22 once built 4,194,304 of them on first read
        for make in (lambda: Fixing.of(MAX_WIDTH + 1, {}), lambda: Fixing(MAX_WIDTH + 1, ())):
            with pytest.raises(InvalidFixing, match=rf"^fixing width must be an int <= "
                                                    rf"{MAX_WIDTH}, got {MAX_WIDTH + 1}$"):
                make()
        assert Fixing.of(MAX_WIDTH, {1: 0}).free == tuple(range(2, MAX_WIDTH + 1))

    @pytest.mark.parametrize("truth", [(False, True, True, True), (0, 1, 1, True)])
    def test_from_truth_refuses_bool_truth_entries(self, truth):
        # (False, True, True, True) once built a function that classify named OR
        with pytest.raises(ValueError, match="^2 inputs need 4 truth bits$"):
            BooleanFunction.from_truth((1, 2), truth)
