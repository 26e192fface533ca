"""Tests for the probe-cantilever device model and its statistics."""

import numpy as np
import pytest

from revlogic import device
from revlogic.device import (
    AA,
    AD,
    DA,
    DD,
    MAX_TRIALS,
    PROBE_STATES,
    DeviceConfig,
    ProbeState,
    encode_symbolic,
    equilibrium_angle,
    run_histogram,
    sample_many,
)

DISTINGUISHABLE = DeviceConfig(distinguishable=True)


class TestProbeState:
    def test_bit_parsing(self):
        assert ProbeState.from_bits("01") == DA
        assert ProbeState.from_bits("10") == AD
        assert str(AD) == "AD"
        assert AD.bits == (1, 0)
        assert [str(ps) for ps in PROBE_STATES] == ["DD", "DA", "AD", "AA"]
        assert [ProbeState.from_bits(f"{i:02b}") for i in range(4)] == list(PROBE_STATES)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            ProbeState.from_bits("2")

    @pytest.mark.parametrize("text", [5, None, ("0", "1")])
    def test_from_bits_refuses_a_non_string(self, text):
        with pytest.raises(ValueError, match="two bits"):
            ProbeState.from_bits(text)

    @pytest.mark.parametrize("bits", [(2, 0), (0,), (0, 1, 1), (0, -1), [0, 1], (0.5, 0)])
    def test_rejects_bits_that_are_not_a_pair_of_0_1(self, bits):
        with pytest.raises(ValueError, match="pair of bits"):
            ProbeState(bits)

    def test_symbols(self):
        assert encode_symbolic(AA) == "□"
        assert encode_symbolic(DD) == "*"
        assert encode_symbolic(AD) == "○"
        assert encode_symbolic(DA) == "△"


class TestDeviceConfig:
    def test_default_collapses_one_probe_angles(self):
        cfg = DeviceConfig()
        assert cfg.alpha1 == pytest.approx(0.855)

    def test_distinguishable_ordering_enforced(self):
        with pytest.raises(ValueError):
            DeviceConfig(alpha_hat1=0.93, alpha_tilde1=0.78, distinguishable=True)

    def test_boundary_ordering_enforced(self):
        with pytest.raises(ValueError):
            DeviceConfig(alpha2=0.99)
        with pytest.raises(ValueError):
            DeviceConfig(alpha_hat1=1.1, alpha_tilde1=1.2)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            DeviceConfig(sigma=0.0)

    def test_sigma_keeps_the_sample_support_finite(self):
        # alpha2 + 6 * 1e308 overflows to inf; 6 * 1e300 does not
        with pytest.raises(ValueError, match="sigma"):
            DeviceConfig(sigma=1e308)
        assert DeviceConfig(sigma=1e300).sigma == 1e300

    @pytest.mark.parametrize("field", ["sigma", "alpha_hat1", "alpha_tilde1", "alpha2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            DeviceConfig(**{field: value})


class TestEquilibriumAngle:
    def test_dd_relaxes_to_vertical(self):
        assert equilibrium_angle(DD) == 0.0

    def test_aa_beyond_boundary(self):
        assert equilibrium_angle(AA) == DeviceConfig().alpha2 > 1

    def test_one_probe_angles_resolved_when_distinguishable(self):
        assert equilibrium_angle(DA, DISTINGUISHABLE) == DISTINGUISHABLE.alpha_hat1
        assert equilibrium_angle(AD, DISTINGUISHABLE) == DISTINGUISHABLE.alpha_tilde1

    def test_one_probe_angles_collapse_by_default(self):
        cfg = DeviceConfig()
        assert equilibrium_angle(DA, cfg) == equilibrium_angle(AD, cfg) == cfg.alpha1

    @pytest.mark.parametrize("ps", ["DD", None, (0, 0), 0])
    def test_refuses_what_is_not_a_probe_state(self, ps):
        # anything not DD or AA once read as a one-probe state, at angle alpha1
        with pytest.raises(ValueError, match="must be a ProbeState"):
            equilibrium_angle(ps)
        with pytest.raises(ValueError, match="must be a ProbeState"):
            sample_many(ps, 10, DeviceConfig(), np.random.default_rng(0))


class TestSampling:
    def test_zero_noise_limit_at_dd(self):
        cfg = DeviceConfig(sigma=1e-12)
        (angle,) = sample_many(DD, 1, cfg, np.random.default_rng(0))
        assert angle == pytest.approx(0.0, abs=1e-10)

    def test_aa_samples_confined_to_six_sigma(self):
        cfg = DeviceConfig(sigma=0.05)
        values = sample_many(AA, 2000, cfg, np.random.default_rng(3))
        assert values.min() >= cfg.alpha2 - 6 * cfg.sigma
        assert values.max() <= cfg.alpha2 + 6 * cfg.sigma

    def test_da_mean_within_three_standard_errors(self):
        cfg = DeviceConfig()
        values = sample_many(DA, 10_000, cfg, np.random.default_rng(11))
        assert abs(values.mean() - cfg.alpha1) <= 3 * cfg.sigma / 100

    def test_identical_seeds_identical_streams(self):
        cfg = DeviceConfig()
        a = sample_many(AA, 500, cfg, np.random.default_rng(123))
        b = sample_many(AA, 500, cfg, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_samples_never_negative(self):
        cfg = DeviceConfig(sigma=0.4, alpha_hat1=0.5, alpha_tilde1=0.9, alpha2=1.3)
        values = sample_many(DD, 5000, cfg, np.random.default_rng(9))
        assert values.min() >= 0.0


class TestExp3Ordering:
    def test_boundary_violations_below_one_per_mille(self):
        cfg = DeviceConfig()
        n = 100_000
        for ps in (DA, AD):
            values = sample_many(ps, n, cfg, np.random.default_rng(ps.bits[0] + 21))
            assert (values > 1.0).mean() < 1e-3
        values = sample_many(AA, n, cfg, np.random.default_rng(23))
        assert (values < 1.0).mean() < 1e-3


class TestRunHistogram:
    def test_single_trial_single_bin(self):
        hist = run_histogram(DA, 1, seed=4)
        assert hist.counts == (1,)
        assert hist.n == 1

    def test_counts_sum_to_n_and_edges_aligned(self):
        hist = run_histogram(AA, 2500, seed=8, bin_width=0.02)
        assert hist.n == 2500
        for edge in hist.bin_edges:
            assert edge == pytest.approx(round(edge / 0.02) * 0.02)

    def test_deterministic_for_fixed_seed(self):
        assert run_histogram(AD, 400, seed=99) == run_histogram(AD, 400, seed=99)

    def test_mode_ordering_da_below_boundary_below_aa(self):
        da = run_histogram(DA, 10_000, seed=1)
        aa = run_histogram(AA, 10_000, seed=2)
        assert da.mode_bin[1] < 1.0 < aa.mode_bin[0]

    def test_mode_ordering_da_below_ad_when_distinguishable(self):
        da = run_histogram(DA, 10_000, DISTINGUISHABLE, seed=1)
        ad = run_histogram(AD, 10_000, DISTINGUISHABLE, seed=2)
        assert da.mode_bin[0] < ad.mode_bin[0]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_histogram(DD, 0)

    @pytest.mark.parametrize("n,bin_width", [(1000, 1e-7), (1, 1e-17), (1, 1e-300)])
    def test_rejects_bin_widths_too_fine_for_the_samples(self, n, bin_width):
        with pytest.raises(ValueError, match="too fine"):
            run_histogram(AA, n, bin_width=bin_width)

    @pytest.mark.parametrize("n", [0, -1, MAX_TRIALS + 1, 10**12])
    def test_rejects_trial_counts_outside_the_cap_before_sampling(self, monkeypatch, n):
        def no_sampling(*args):
            raise AssertionError("sampled before checking n")
        monkeypatch.setattr(device, "sample_many", no_sampling)
        with pytest.raises(ValueError, match="trials must be"):
            run_histogram(DD, n)

    def test_refuses_a_probe_state_given_as_text(self):
        # "DD" once sampled silently around the one-probe angle 0.855
        with pytest.raises(ValueError, match="must be a ProbeState"):
            run_histogram("DD", 10)

    @pytest.mark.parametrize("n", [1.5, 10.0, True, "10", None, np.float64(10)])
    def test_refuses_trials_that_are_not_an_integer(self, n):
        with pytest.raises(ValueError, match="trials must be an integer"):
            run_histogram(DD, n)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, False, "1", None])
    def test_refuses_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_histogram(DD, 10, seed=seed)

    def test_numpy_integer_trials_and_seed_keep_working(self):
        assert run_histogram(DA, np.int64(300), seed=np.uint32(7)) == run_histogram(DA, 300, seed=7)

    def test_cap_itself_is_accepted(self, monkeypatch):
        class Sampled(Exception):
            pass

        def stop(ps, n, cfg, rng):
            raise Sampled(n)
        monkeypatch.setattr(device, "sample_many", stop)
        with pytest.raises(Sampled):
            run_histogram(DD, MAX_TRIALS)


def test_probe_states_in_encoding_order():
    assert [ps.bits for ps in PROBE_STATES] == [(0, 0), (0, 1), (1, 0), (1, 1)]
