"""Tests for the gate algebra: words, construction, composition, inversion."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revlogic.core import (
    Gate,
    NotBijective,
    WidthMismatch,
    Word,
    WrongLength,
    all_words,
    as_word,
    make_gate,
)
from revlogic.library import build
from seed_core import from_index, identity_gate


def permutation_gates(max_width=6):
    return st.integers(1, max_width).flatmap(
        lambda w: st.permutations(range(1 << w)).map(lambda perm: Gate(w, tuple(perm)))
    )


class TestWord:
    def test_msb_first_encoding(self):
        # x1 is the most significant bit, matching left-to-right table columns
        assert Word((0, 1, 1)).index == 3
        assert Word((1, 0, 0)).index == 4
        assert from_index(3, 6) == Word((1, 1, 0))

    def test_round_trip_exhaustive_small_widths(self):
        for width in range(1, 6):
            for i in range(1 << width):
                assert from_index(width, i).index == i

    @given(st.integers(1, 16).flatmap(
        lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1))))
    def test_round_trip_random(self, pair):
        width, i = pair
        word = from_index(width, i)
        assert word.index == i
        assert Word.from_string(str(word)) == word

    def test_validation(self):
        with pytest.raises(WrongLength):
            Word(())
        with pytest.raises(WrongLength):
            Word((0,) * 17)
        with pytest.raises(ValueError):
            Word((0, 2))
        # only int bits: a float or a bool would print as a string Word cannot parse
        with pytest.raises(ValueError):
            Word((1.0, 0))
        with pytest.raises(ValueError):
            Word((True, False))


    def test_pickles_through_its_bits(self):
        word = Word((1, 0, 1))
        again = pickle.loads(pickle.dumps(word))
        assert again == word and again.index == 5


#: A word of width 1..16, as (width, index).
width_and_index = st.integers(1, 16).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1)))

#: Every way to reach a word from its value or from another word.
WORD_ROUTES = {
    "Word": lambda word: Word(word.bits),
    "Word-list": lambda word: Word(list(word.bits)),
    "from_string": lambda word: Word.from_string(str(word)),
    "as_word-str": lambda word: as_word(str(word)),
    "as_word-bits": lambda word: as_word(list(word.bits)),
    "pickle": lambda word: pickle.loads(pickle.dumps(word)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestInterning:
    """A word is the one instance ``all_words(width)[index]``, however it is made."""

    @pytest.mark.parametrize("route", WORD_ROUTES)
    @settings(max_examples=20)
    @given(width_and_index)
    def test_every_route_returns_the_interned_word(self, route, case):
        width, index = case
        canonical = all_words(width)[index]
        made = WORD_ROUTES[route](from_index(width, index))
        assert made is canonical and made.index == index
        assert type(made.bits) is tuple and made.bits == canonical.bits

    @settings(max_examples=100)
    @given(width_and_index, width_and_index, st.sampled_from(["same", "same-width", "any"]))
    def test_equality_hash_and_order_follow_the_bits(self, first, second, pairing):
        width, index = first
        other = {"same": first, "same-width": (width, second[1] % (1 << width)),
                 "any": second}[pairing]
        a, b = Word(from_index(width, index).bits), from_index(*other)
        assert (a == b) is (a.bits == b.bits) and (a != b) is (a.bits != b.bits)
        if a == b:
            assert hash(a) == hash(b)
        assert (a < b, a <= b, a > b, a >= b) == (
            a.bits < b.bits, a.bits <= b.bits, a.bits > b.bits, a.bits >= b.bits)
        assert sorted([b, a]) == sorted([a, b], key=lambda word: word.bits)

    def test_orders_only_against_words(self):
        word = Word((0, 1))
        assert word != (0, 1) and word != "01"
        for other in ((0, 1), "01", 1):
            for compare in (lambda: word < other, lambda: word <= other,
                            lambda: word > other, lambda: word >= other,
                            lambda: other < word):
                with pytest.raises(TypeError):
                    compare()

    def test_repr(self):
        assert repr(Word((0, 1, 1))) == "Word(bits=(0, 1, 1))"
        assert repr(all_words(1)) == "(Word(bits=(0,)), Word(bits=(1,)))"

    @pytest.mark.parametrize("name", ["bits", "index", "other"])
    def test_is_immutable(self, name):
        word = Word((1, 0))
        with pytest.raises(AttributeError):
            setattr(word, name, (0, 0))
        with pytest.raises(AttributeError):
            delattr(word, name)
        assert word.bits == (1, 0) and word.index == 2 and word is all_words(2)[2]


class TestMakeGate:
    def test_one_bit_swap_is_not_gate(self):
        gate = make_gate(1, ["1", "0"])
        assert gate.apply(Word((0,))) == Word((1,))
        assert gate.apply(Word((1,))) == Word((0,))

    def test_cl_gate_from_table_rows(self):
        rows = ["000", "001", "011", "010", "101", "100", "111", "110"]
        gate = make_gate(3, rows, name="cl")
        assert gate == build("cl")

    def test_duplicate_output_rejected(self):
        with pytest.raises(NotBijective):
            make_gate(2, ["00", "00", "11", "10"])

    def test_wrong_row_count_rejected(self):
        with pytest.raises(WrongLength):
            make_gate(2, ["00", "01", "10"])

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(WidthMismatch):
            make_gate(2, ["00", "01", "10", "111"])


class TestApply:
    def test_cl_rows(self):
        cl = build("cl")
        assert cl.apply(Word.from_string("010")) == Word.from_string("011")
        assert cl.apply(Word.from_string("000")) == Word.from_string("000")

    def test_toffoli_last_row(self):
        assert build("toffoli").apply(Word.from_string("111")) == Word.from_string("110")

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            build("cl").apply(Word((0, 1)))


class TestCompose:
    def test_cl_self_composition_is_identity(self):
        cl = build("cl")
        assert cl.then(cl) == identity_gate(3)

    def test_identity_law(self):
        toffoli = build("toffoli")
        assert identity_gate(3).then(toffoli) == toffoli
        assert toffoli.then(identity_gate(3)) == toffoli

    def test_x_self_composition_is_identity(self):
        # frozen by exhaustive check of all 8 words against the X table
        x = build("x")
        composed = x.then(x)
        for word in x.words():
            assert composed.apply(word) == word
        assert composed == identity_gate(3)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            build("cl").then(build("cnot"))

    @given(st.tuples(st.permutations(range(8)), st.permutations(range(8)),
                     st.permutations(range(8))))
    def test_associative_on_width_3(self, perms):
        f, g, h = (Gate(3, tuple(p)) for p in perms)
        assert f.then(g).then(h) == f.then(g.then(h))


class TestInverse:
    def test_cl_is_its_own_inverse(self):
        cl = build("cl")
        assert cl.inverse().table == cl.table

    def test_identity(self):
        assert identity_gate(3).inverse() == identity_gate(3)

    def test_hand_inverted_permutation(self):
        gate = make_gate(2, ["01", "10", "00", "11"])
        assert [str(w) for w in gate.inverse().table] == ["10", "00", "01", "11"]

    @settings(max_examples=40)
    @given(permutation_gates())
    def test_inverse_round_trip(self, gate):
        inv = gate.inverse()
        for word in gate.words():
            assert inv.apply(gate.apply(word)) == word
        assert gate.then(inv) == identity_gate(gate.width)

    def test_round_trip_width_10(self):
        import random

        rnd = random.Random(42)
        perm = list(range(1 << 10))
        rnd.shuffle(perm)
        gate = make_gate(10, [from_index(10, i) for i in perm])
        inv = gate.inverse()
        for word in gate.words():
            assert inv.apply(gate.apply(word)) == word


class TestFlags:
    def test_cl_self_reversible_not_conservative(self):
        flags = build("cl").flags()
        assert flags.self_reversible and not flags.conservative

    def test_toffoli_self_reversible_not_conservative(self):
        flags = build("toffoli").flags()
        assert flags.self_reversible and not flags.conservative

    def test_identity_both(self):
        flags = identity_gate(3).flags()
        assert flags.self_reversible and flags.conservative

    @settings(max_examples=40)
    @given(permutation_gates(max_width=4))
    def test_self_reversible_iff_self_composition_identity(self, gate):
        assert gate.flags().self_reversible == (gate.then(gate) == identity_gate(gate.width))

    def test_conservative_implies_self_composition_conservative(self):
        # permute within each Hamming-weight class to get conservative gates
        import random

        rnd = random.Random(7)
        for _ in range(10):
            width = 3
            perm = [None] * (1 << width)
            for weight in range(width + 1):
                idxs = [i for i in range(1 << width) if bin(i).count("1") == weight]
                shuffled = idxs[:]
                rnd.shuffle(shuffled)
                for src, dst in zip(idxs, shuffled):
                    perm[src] = dst
            gate = Gate(width, tuple(perm))
            assert gate.flags().conservative
            assert gate.then(gate).flags().conservative


class TestJson:
    def test_documented_shape(self):
        data = build("cl").to_json()
        assert data == {
            "name": "cl",
            "width": 3,
            "table": ["000", "001", "011", "010", "101", "100", "111", "110"],
        }

    @settings(max_examples=40)
    @given(permutation_gates())
    def test_round_trip_bit_exact(self, gate):
        again = Gate.loads(gate.dumps())
        assert again.table == gate.table
        assert again.width == gate.width

    def test_bijectivity_enforced_on_load(self):
        with pytest.raises(NotBijective):
            Gate.from_json({"name": "bad", "width": 1, "table": ["0", "0"]})


@settings(max_examples=40)
@given(permutation_gates())
def test_table_is_permutation_of_all_words(gate):
    assert {w.bits for w in gate.table} == {w.bits for w in gate.words()}
