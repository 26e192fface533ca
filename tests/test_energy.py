"""Tests for entropy accounting and the Landauer bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revlogic.core import Word
from revlogic.derivation import Fixing, InvalidFixing
from revlogic.energy import (
    BOLTZMANN_JK,
    Distribution,
    InvalidDistribution,
    NonphysicalTemperature,
    info_loss,
    landauer_energy,
    shannon_entropy,
    transfer_table,
)
from revlogic.library import all_gate_ids, build

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
        assert shannon_entropy(Distribution.uniform("abcd")) == pytest.approx(2.0)

    def test_point_mass(self):
        assert shannon_entropy(Distribution({"x": 1.0})) == 0.0

    def test_quarter_three_quarter(self):
        expected = entropy_oracle([0.25, 0.75])
        assert expected == pytest.approx(0.8112781244591328)
        assert shannon_entropy(Distribution({"a": 0.25, "b": 0.75})) == pytest.approx(
            expected, abs=1e-12)

    def test_invalid_distributions(self):
        with pytest.raises(InvalidDistribution):
            Distribution({"a": 0.5, "b": 0.6})
        with pytest.raises(InvalidDistribution):
            Distribution({"a": 1.5, "b": -0.5})
        nan, inf = float("nan"), float("inf")
        for probabilities in ({"a": 0.5, "b": nan}, {"a": nan}, {"a": inf}, {"a": -inf},
                              {"a": inf, "b": -inf}, {"a": 1.0, "b": 0.0, "c": nan}):
            with pytest.raises(InvalidDistribution):
                Distribution(probabilities)


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
            dists += [Distribution.random_words(gate.width, rng) for _ in range(10)]
            for dist in dists:
                assert abs(info_loss(table, dist).erased_bits) <= 1e-12, gate_id

    def test_fixing_of_another_width_is_rejected(self):
        with pytest.raises(InvalidFixing, match="fixing is for width 3, gate has 2"):
            transfer_table(build("cnot"), Fixing.of(3, {3: 0}))

    def test_table_must_cover_support(self):
        with pytest.raises(InvalidDistribution):
            info_loss({Word((0,)): 0}, Distribution.uniform_words(1))


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

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_non_finite_temperature(self, temperature):
        with pytest.raises(NonphysicalTemperature):
            landauer_energy(1.0, temperature)


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


@settings(max_examples=60)
@given(st.data())
def test_coarsening_outputs_never_decreases_erasure(data):
    probs = data.draw(st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8))
    total = sum(probs)
    dist = Distribution({
        Word.from_index(3, i): p / total for i, p in enumerate(probs)
    })
    fine = transfer_table(build("cl"))
    buckets = data.draw(st.lists(st.integers(0, 3), min_size=8, max_size=8))
    merge = {out: buckets[i] for i, out in enumerate(fine.values())}
    coarse = {word: merge[out] for word, out in fine.items()}
    erased_fine = info_loss(fine, dist).erased_bits
    erased_coarse = info_loss(coarse, dist).erased_bits
    assert erased_coarse >= erased_fine - 1e-12
