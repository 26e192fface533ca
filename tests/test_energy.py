"""Tests for entropy accounting and the Landauer bound."""

import copy
import math
import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from revlogic.core import GateError, Word, all_words, make_gate
from revlogic.derivation import Fixing, InvalidFixing, input_codes
from revlogic.energy import (
    BOLTZMANN_JK,
    Distribution,
    EnergyReport,
    InvalidDistribution,
    NonphysicalTemperature,
    info_loss,
    landauer_energy,
    transfer_table,
)
from revlogic.library import all_gate_ids, build
from seed_core import from_index, random_words

# The classic two-in/one-out OR table.
OR_TABLE = {
    Word((0, 0)): 0,
    Word((0, 1)): 1,
    Word((1, 0)): 1,
    Word((1, 1)): 1,
}


def entropy_oracle(probs):
    # direct evaluation, independent of the implementation under test
    return -sum(p * math.log2(p) for p in probs if p)


class TestShannonEntropy:
    def test_uniform_four_outcomes(self):
        assert Distribution.uniform("abcd").entropy_bits == pytest.approx(2.0)

    def test_point_mass(self):
        assert Distribution({"x": 1.0}).entropy_bits == 0.0

    def test_quarter_three_quarter(self):
        expected = entropy_oracle([0.25, 0.75])
        assert expected == pytest.approx(0.8112781244591328)
        assert Distribution({"a": 0.25, "b": 0.75}).entropy_bits == pytest.approx(
            expected, abs=1e-12)

    def test_invalid_distributions(self):
        with pytest.raises(InvalidDistribution):
            Distribution({"a": 0.5, "b": 0.6})
        with pytest.raises(InvalidDistribution):
            Distribution({"a": 1.5, "b": -0.5})
        with pytest.raises(InvalidDistribution):
            Distribution.uniform([])
        nan, inf = float("nan"), float("inf")
        for probabilities in ({"a": 0.5, "b": nan}, {"a": nan}, {"a": inf}, {"a": -inf},
                              {"a": inf, "b": -inf}, {"a": 1.0, "b": 0.0, "c": nan}):
            with pytest.raises(InvalidDistribution):
                Distribution(probabilities)

    def test_probabilities_of_none_are_refused(self):
        # an AttributeError from None.values() before
        with pytest.raises(InvalidDistribution, match="must map outcomes to real numbers"):
            Distribution(None)

    @pytest.mark.parametrize("p", ["1", None, 1j, [1.0]])
    def test_a_probability_that_is_not_a_number_is_refused(self, p):
        # a TypeError from "1" >= 0 before
        with pytest.raises(InvalidDistribution, match="must map outcomes to real numbers"):
            Distribution({Word((0,)): p})


class TestInfoLoss:
    def test_irreversible_or_erases_the_garbage_entropy(self):
        report = info_loss(OR_TABLE, Distribution.uniform_words(2))
        expected = 2.0 - entropy_oracle([0.25, 0.75])
        assert report.erased_bits == pytest.approx(expected, abs=1e-12)
        assert report.erased_bits == pytest.approx(1.1887218755408671, abs=1e-9)

    def test_bijection_erases_nothing(self):
        cl = build("cl")
        report = info_loss(transfer_table(cl), Distribution.uniform_words(3))
        assert abs(report.erased_bits) <= 1e-12

    def test_restriction_with_garbage_kept_erases_nothing(self):
        cl = build("cl")
        table = transfer_table(cl, Fixing.of(3, {3: 0}))
        report = info_loss(table, Distribution.uniform(table.keys()))
        assert report.output_entropy_bits == pytest.approx(2.0, abs=1e-12)
        assert abs(report.erased_bits) <= 1e-12

    def test_dropping_garbage_starts_erasing(self):
        cl = build("cl")
        fixing = Fixing.of(3, {3: 0})
        kept_table = transfer_table(cl, fixing)
        kept = info_loss(kept_table, Distribution.uniform(kept_table.keys()))
        projected_table = transfer_table(cl, fixing, project_line=3)
        projected = info_loss(projected_table, Distribution.uniform(projected_table.keys()))
        assert abs(kept.erased_bits) <= 1e-12
        assert projected.erased_bits == pytest.approx(
            2.0 - entropy_oracle([0.25, 0.75]), abs=1e-12)

    def test_every_builtin_gate_erases_nothing(self):
        rng = np.random.default_rng(2718)
        for gate_id in all_gate_ids():
            gate = build(gate_id)
            table = transfer_table(gate)
            dists = [Distribution.uniform_words(gate.width)]
            dists += [random_words(gate.width, rng) for _ in range(10)]
            for dist in dists:
                assert abs(info_loss(table, dist).erased_bits) <= 1e-12, gate_id

    def test_a_fixing_that_is_not_a_fixing_is_rejected(self):
        # an AttributeError from {3: 0}.width before
        with pytest.raises(InvalidFixing, match="fixing must be a Fixing, got dict"):
            transfer_table(build("cl"), {3: 0})

    @pytest.mark.parametrize("fixing", [None, Fixing.of(3, {3: 0})])
    @pytest.mark.parametrize("gate", [None, "cl"])
    def test_a_gate_that_is_not_a_gate_is_a_gate_error(self, gate, fixing):
        with pytest.raises(GateError, match="expected a Gate"):
            transfer_table(gate, fixing)

    def test_fixing_of_another_width_is_rejected(self):
        with pytest.raises(InvalidFixing, match="fixing is for width 3, gate has 2"):
            transfer_table(build("cnot"), Fixing.of(3, {3: 0}))

    def test_table_must_cover_support(self):
        with pytest.raises(InvalidDistribution):
            info_loss({Word((0,)): 0}, Distribution.uniform_words(1))

    @pytest.mark.parametrize("line", [1.5, 1.0, "1", 0, 4])
    def test_project_line_must_be_an_int_on_the_gate(self, line):
        with pytest.raises(ValueError, match=r"output line .* outside 1\.\.3"):
            transfer_table(build("cl"), project_line=line)
        with pytest.raises(ValueError, match=r"output line .* outside 1\.\.3"):
            transfer_table(build("cl"), Fixing.of(3, {3: 0}), project_line=line)

    @pytest.mark.parametrize("line", [True, False, np.int64(1)])
    def test_project_line_must_be_a_plain_int(self, line):
        # True passed `isinstance(line, int)` and projected line 1
        with pytest.raises(ValueError, match=r"output line .* outside 1\.\.3"):
            transfer_table(build("cl"), project_line=line)

    def test_point_mass_output_has_positive_zero_entropy(self):
        table = transfer_table(build("cl"), Fixing.of(3, {1: 0}), project_line=1)
        report = info_loss(table, Distribution.uniform(table.keys()))
        assert report.output_entropy_bits == 0.0
        assert math.copysign(1.0, report.output_entropy_bits) == 1.0
        assert math.copysign(1.0, Distribution({"x": 1.0}).entropy_bits) == 1.0


class TestSharedUniform:
    @pytest.mark.parametrize("width", [1, 3, 8, 16])
    def test_one_instance_per_width_equal_to_a_built_one(self, width):
        shared = Distribution.uniform_words(width)
        built = Distribution.uniform(all_words(width))
        assert Distribution.uniform_words(width) is shared
        assert shared == built and built == shared
        assert list(shared.probabilities) == list(all_words(width))
        assert shared.entropy_bits == built.entropy_bits == width

    def test_read_only(self):
        probs = Distribution.uniform_words(2).probabilities
        with pytest.raises(TypeError):
            probs[Word((0, 0))] = 1.0
        with pytest.raises(TypeError):
            del probs[Word((0, 0))]
        assert probs[Word((0, 0))] == 0.25

    def test_pickle_and_deepcopy_round_trip(self):
        shared = Distribution.uniform_words(3)
        assert shared.entropy_bits == 3.0  # a filled cache must not stop either
        for clone in (pickle.loads(pickle.dumps(shared)), copy.deepcopy(shared)):
            assert clone == shared and clone is not shared
            assert clone.entropy_bits == 3.0
            assert info_loss(transfer_table(build("cl")), clone) == info_loss(
                transfer_table(build("cl")), shared)

    def test_weight_is_the_common_probability_or_none(self):
        assert Distribution.uniform_words(4).weight == 1 / 16
        assert Distribution({"a": 0.25, "b": 0.75}).weight is None
        assert Distribution({"a": 0.5, "b": 0.5, "c": 0.0}).weight is None


class TestLandauerEnergy:
    def test_one_bit_at_room_temperature(self):
        expected = BOLTZMANN_JK * 300.0 * math.log(2)
        assert expected == pytest.approx(2.870978885078724e-21, abs=1e-25)
        assert landauer_energy(1.0, 300.0) == pytest.approx(expected, abs=1e-25)

    def test_zero_bits_cost_nothing(self):
        assert landauer_energy(0.0, 300.0) == 0.0
        assert landauer_energy(0.0, 4.2) == 0.0

    def test_or_erasure_cost(self):
        erased = 2.0 - entropy_oracle([0.25, 0.75])
        expected = erased * BOLTZMANN_JK * 300.0 * math.log(2)
        assert landauer_energy(erased, 300.0) == pytest.approx(expected, abs=1e-25)
        assert expected == pytest.approx(3.412794e-21, abs=1e-26)

    def test_linearity(self):
        base = landauer_energy(0.7, 150.0)
        assert landauer_energy(1.4, 150.0) == pytest.approx(2 * base)
        assert landauer_energy(0.7, 300.0) == pytest.approx(2 * base)

    def test_nonphysical_inputs(self):
        with pytest.raises(NonphysicalTemperature):
            landauer_energy(1.0, 0.0)
        with pytest.raises(NonphysicalTemperature):
            landauer_energy(1.0, -3.0)
        with pytest.raises(ValueError):
            landauer_energy(-0.5, 300.0)

    @pytest.mark.parametrize("bits", [True, False])
    def test_refuses_a_bool_bit_count(self, bits):
        # True once read as one erased bit
        with pytest.raises(ValueError, match="erased bits must be finite and >= 0"):
            landauer_energy(bits, 300.0)

    @pytest.mark.parametrize("temperature", [True, False])
    def test_refuses_a_bool_temperature(self, temperature):
        # True once read as 1 K
        with pytest.raises(NonphysicalTemperature, match="temperature must be finite and > 0 K"):
            landauer_energy(1, temperature)

    @pytest.mark.parametrize("bits", [math.inf, -math.inf, math.nan])
    def test_non_finite_bits(self, bits):
        with pytest.raises(ValueError, match="erased bits must be finite and >= 0"):
            landauer_energy(bits, 300.0)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_non_finite_temperature(self, temperature):
        with pytest.raises(NonphysicalTemperature):
            landauer_energy(1.0, temperature)

    @pytest.mark.parametrize("value", ["1", None, 1j])
    def test_values_that_are_not_numbers_get_the_range_errors(self, value):
        # a TypeError from "1" >= 0 before
        with pytest.raises(ValueError, match="erased bits must be finite and >= 0"):
            landauer_energy(value, 300.0)
        with pytest.raises(NonphysicalTemperature, match="temperature must be finite and > 0 K"):
            landauer_energy(1.0, value)


class TestEnergyReport:
    def test_report_fields_consistent(self):
        report = info_loss(OR_TABLE, Distribution.uniform_words(2))
        assert report.min_entropy_increase_JperK == pytest.approx(
            report.erased_bits * BOLTZMANN_JK * math.log(2))
        assert report.min_energy_joules(300.0) == pytest.approx(
            landauer_energy(report.erased_bits, 300.0))
        data = report.to_json(temperature_K=300.0)
        assert data["erased_bits"] == pytest.approx(report.erased_bits)
        assert data["min_energy_joules"] == pytest.approx(report.min_energy_joules(300.0))

    @pytest.mark.parametrize("gate_id", all_gate_ids())
    def test_a_gate_with_its_garbage_kept_costs_exactly_zero_joules(self, gate_id):
        # the paper's headline number: exactly 0.0, not a floor above it
        gate = build(gate_id)
        report = info_loss(transfer_table(gate), Distribution.uniform_words(gate.width))
        assert report.min_energy_joules(300.0) == 0.0
        assert report.to_json(300.0)["min_energy_joules"] == 0.0


@settings(max_examples=60)
@given(st.data())
def test_coarsening_outputs_never_decreases_erasure(data):
    probs = data.draw(st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8))
    total = sum(probs)
    dist = Distribution({
        from_index(3, i): p / total for i, p in enumerate(probs)
    })
    fine = transfer_table(build("cl"))
    buckets = data.draw(st.lists(st.integers(0, 3), min_size=8, max_size=8))
    merge = {out: buckets[i] for i, out in enumerate(fine.values())}
    coarse = {word: merge[out] for word, out in fine.items()}
    erased_fine = info_loss(fine, dist).erased_bits
    erased_coarse = info_loss(coarse, dist).erased_bits
    assert erased_coarse >= erased_fine - 1e-12


@st.composite
def pushforwards(draw):
    """A random gate of width 1..12, a fixing that leaves a line free, an
    output line to project onto or None, and a seed for random weights."""
    width = draw(st.integers(1, 12))
    perm = list(range(1 << width))
    random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(perm)
    gate = make_gate(width, [format(p, f"0{width}b") for p in perm])
    lines = draw(st.lists(st.integers(1, width), unique=True, max_size=width - 1))
    bits = draw(st.lists(st.integers(0, 1), min_size=len(lines), max_size=len(lines)))
    fixing = Fixing.of(width, dict(zip(lines, bits)))
    return gate, fixing, draw(st.none() | st.integers(1, width)), draw(st.integers(0, 2**32 - 1))


def random_distribution(keys, seed, zero=None):
    raw = np.random.default_rng(seed).random(len(keys))
    if zero is not None:
        raw[zero] = 0.0
    raw /= raw.sum()
    return Distribution(dict(zip(keys, raw.tolist())))


def reference_report(table, dist):
    """The pushforward as a per-row dict loop and the entropies as per-entry sums."""
    pushed = {}
    for word, p in dist.probabilities.items():
        if p:
            pushed[table[word]] = pushed.get(table[word], 0.0) + p
    return EnergyReport(entropy_oracle(dist.probabilities.values()), entropy_oracle(pushed.values()))


def assert_reports_agree(a, b):
    assert abs(a.input_entropy_bits - b.input_entropy_bits) <= 1e-12
    assert abs(a.output_entropy_bits - b.output_entropy_bits) <= 1e-12


@settings(max_examples=40)
@given(pushforwards())
def test_aligned_keys_and_lookups_agree_with_the_row_loop(case):
    gate, fixing, line, seed = case
    table = transfer_table(gate, fixing, line)
    # the same items in reversed key order take the lookup path
    reordered = dict(reversed(table.items()))
    keys = list(table)
    for dist in (Distribution.uniform(keys), random_distribution(keys, seed)):
        reference = reference_report(table, dist)
        assert_reports_agree(info_loss(table, dist), reference)
        assert_reports_agree(info_loss(reordered, dist), reference)


@settings(max_examples=40)
@given(pushforwards())
def test_uniform_erasure_has_a_closed_form_in_the_fibre_sizes(case):
    gate, fixing, line, _ = case
    codes = input_codes(gate, fixing)
    outputs = [gate.perm[c] for c in codes]
    if line is not None:
        outputs = [(out >> (gate.width - line)) & 1 for out in outputs]
    expected = sum(c * math.log2(c) for c in Counter(outputs).values()) / len(codes)
    table = transfer_table(gate, fixing, line)
    for t in (table, dict(reversed(table.items()))):
        erased = info_loss(t, Distribution.uniform(table.keys())).erased_bits
        assert abs(erased - expected) <= 1e-12
        if line is None:
            assert erased == 0.0


@settings(max_examples=40)
@given(pushforwards())
def test_both_paths_skip_zero_weights_and_reject_missing_inputs(case):
    gate, fixing, line, seed = case
    table = transfer_table(gate, fixing, line)
    keys = list(table)
    without_last = dict(list(table.items())[:-1])
    equal = Distribution({**dict.fromkeys(keys[:-1], 1 / (len(keys) - 1)), keys[-1]: 0.0})
    for dist in (equal, random_distribution(keys, seed, zero=len(keys) - 1)):
        support = Distribution({k: p for k, p in dist.probabilities.items() if p})
        reference = info_loss(without_last, support)
        assert_reports_agree(info_loss(table, dist), reference)
        assert_reports_agree(info_loss(dict(reversed(table.items())), dist), reference)
        assert_reports_agree(info_loss(without_last, dist), reference)
    with pytest.raises(InvalidDistribution, match="table undefined on supported input"):
        info_loss(without_last, Distribution.uniform(keys))
    with pytest.raises(InvalidDistribution, match="table undefined on supported input"):
        info_loss(dict(reversed(without_last.items())), random_distribution(keys, seed))


def uniform_cases(width, seed, kept):
    """A table on ``all_words(width)`` from a random permutation: a bijection when
    ``kept`` is None, else each output reduced to the ``kept`` lowest bits, so
    that every fibre has the same power-of-two mass and every sum is exact."""
    perm = list(range(1 << width))
    random.Random(seed).shuffle(perm)
    words = all_words(width)
    if kept is None:
        return dict(zip(words, map(words.__getitem__, perm)))
    return {word: out & ((1 << kept) - 1) for word, out in zip(words, perm)}


def assert_every_uniform_path_gives_the_oracle(table, width, exact=True):
    """The shared distribution, an equal one the caller built, and the table in
    reversed order (the lookup path) against the per-row reference."""
    expected = reference_report(table, Distribution.uniform(all_words(width)))
    shared = info_loss(table, Distribution.uniform_words(width))
    built = info_loss(table, Distribution.uniform(all_words(width)))
    reordered = info_loss(dict(reversed(table.items())), Distribution.uniform_words(width))
    assert shared == built
    if exact:
        assert shared == reordered == expected
    else:
        # the fibre masses are summed in another order on the lookup path
        assert_reports_agree(reordered, expected)
        assert_reports_agree(shared, expected)


@settings(max_examples=40)
@given(st.integers(1, 12).flatmap(lambda w: st.tuples(
    st.just(w), st.integers(0, 2**32 - 1), st.none() | st.integers(0, w - 1))))
def test_uniform_paths_give_exactly_the_oracle_report(case):
    width, seed, kept = case
    assert_every_uniform_path_gives_the_oracle(uniform_cases(width, seed, kept), width)


@settings(max_examples=40)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_uniform_paths_agree_on_uneven_fibres(width, seed, outputs):
    """Fibres of any size; their masses' logs are inexact, so the oracle gets 1e-12."""
    rnd = random.Random(seed)
    table = {word: rnd.randrange(outputs) for word in all_words(width)}
    assert_every_uniform_path_gives_the_oracle(table, width, exact=False)


# Shrinking a failing 2**16-row example would take minutes, so this width only generates.
@settings(max_examples=3, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(0, 2**32 - 1), st.none() | st.integers(0, 15))
def test_uniform_paths_give_exactly_the_oracle_report_at_width_16(seed, kept):
    assert_every_uniform_path_gives_the_oracle(uniform_cases(16, seed, kept), 16)
