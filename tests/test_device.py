"""Tests for the probe-cantilever device model and its statistics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revlogic import device
from revlogic.device import (
    AA,
    AD,
    DA,
    DD,
    MAX_TRIALS,
    PROBE_STATES,
    SUPPORT_SIGMAS,
    DeviceConfig,
    ProbeState,
    encode_symbolic,
    equilibrium_angle,
    run_histogram,
    sample_many,
)

DISTINGUISHABLE = DeviceConfig(distinguishable=True)
#: The default, a resolved one, one whose window is cut at 0 for every state,
#: and a near-noiseless one.
ORACLE_CONFIGS = (
    DeviceConfig(),
    DeviceConfig(distinguishable=True, sigma=0.05),
    DeviceConfig(sigma=0.4, alpha_hat1=0.5, alpha_tilde1=0.9, alpha2=1.3),
    DeviceConfig(sigma=1e-12),
)


def reference_sample_many(ps, n, cfg, rng):
    """The plain resampling loop: keep each batch's draws inside the window by a
    boolean index, append them, draw again for what is missing. At rest angle 0
    the law is |Normal(0, sigma)| on [0, 6 sigma]: each draw is reflected."""
    mean = equilibrium_angle(ps, cfg)
    lo, hi = max(0.0, mean - SUPPORT_SIGMAS * cfg.sigma), mean + SUPPORT_SIGMAS * cfg.sigma
    out = np.empty(n)
    filled = 0
    while filled < n:
        draw = rng.normal(mean, cfg.sigma, size=n - filled)
        if mean == 0:
            draw = abs(draw)  # then only the 6 sigma cut rejects
        keep = draw[(draw >= lo) & (draw <= hi)]
        out[filled:filled + keep.size] = keep
        filled += keep.size
    return out


def reference_histogram(ps, n, cfg, seed, bin_width):
    """np.histogram over the multiples of the bin width that hold every sample,
    with mean and stddev from numpy's own reductions."""
    samples = reference_sample_many(ps, n, cfg, np.random.default_rng(seed))
    low, high = samples.min(), samples.max()
    k_lo, k_hi = math.floor(low / bin_width), math.floor(high / bin_width) + 1
    while k_lo * bin_width > low:
        k_lo -= 1
    while k_hi * bin_width < high:
        k_hi += 1
    edges = np.arange(k_lo, k_hi + 1) * bin_width
    counts, _ = np.histogram(samples, bins=edges)
    return device.Histogram(tuple(float(e) for e in edges), tuple(int(c) for c in counts),
                            float(samples.mean()), float(samples.std()))


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

    @pytest.mark.parametrize("flag", ["no", "", 1, None])
    def test_distinguishable_must_be_a_bool(self, flag):
        # a truthy "no" once resolved DA and AD at 0.78 and 0.93
        with pytest.raises(ValueError, match="distinguishable must be a bool"):
            DeviceConfig(distinguishable=flag)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            DeviceConfig(sigma=0.0)

    def test_sigma_keeps_the_sample_support_finite(self):
        # alpha2 + 6 * 1e308 overflows to inf; 6 * 1e300 does not
        with pytest.raises(ValueError, match="sigma"):
            DeviceConfig(sigma=1e308)
        assert DeviceConfig(sigma=1e300).sigma == 1e300

    @pytest.mark.parametrize("field", ["sigma", "alpha_hat1", "alpha_tilde1", "alpha2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "x", None])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            DeviceConfig(**{field: value})


class TestConfigArgument:
    @pytest.mark.parametrize("cfg", ["x", 0, "", False, {}, 0.5])
    def test_refuses_what_is_not_a_device_config(self, cfg):
        # "x" once raised AttributeError; 0, "" and False once read as the default
        with pytest.raises(ValueError, match="config must be a DeviceConfig or None"):
            equilibrium_angle(DA, cfg)
        with pytest.raises(ValueError, match="config must be a DeviceConfig or None"):
            run_histogram(DD, 10, cfg)

    def test_none_is_the_default(self):
        assert device.as_config(None) == DeviceConfig()
        assert device.as_config(None, distinguishable=True) == DISTINGUISHABLE
        assert equilibrium_angle(DA, None) == DeviceConfig().alpha1
        assert run_histogram(DD, 10, None) == run_histogram(DD, 10, DeviceConfig())

    def test_none_is_one_shared_frozen_default_per_flag(self):
        for flag, expected in ((False, DeviceConfig()), (True, DISTINGUISHABLE)):
            shared = device.as_config(None, distinguishable=flag)
            assert shared == expected
            assert device.as_config(None, distinguishable=flag) is shared
            with pytest.raises(AttributeError):  # frozen: no caller can change it for the next
                shared.sigma = 1.0
        assert device.as_config(None) is device.as_config(None, distinguishable=False)

    @pytest.mark.parametrize("ps", PROBE_STATES, ids=str)
    def test_sample_many_takes_none_as_the_default_config(self, ps):
        # once AttributeError: 'NoneType' object has no attribute 'sigma'
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        values = sample_many(ps, 50, None, rng)
        assert values.tobytes() == sample_many(ps, 50, DeviceConfig(), ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_sample_many_refuses_what_is_not_a_device_config(self):
        with pytest.raises(ValueError, match="config must be a DeviceConfig or None"):
            sample_many(DD, 10, "x", np.random.default_rng(0))


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

    @pytest.mark.parametrize("cfg", [DeviceConfig(), DISTINGUISHABLE], ids=["default", "resolved"])
    def test_reads_the_bits_as_the_named_states(self, cfg):
        # the dispatch reads ps.bits; a state built from bits is the named state
        named = {DD: 0.0, AA: cfg.alpha2,
                 DA: cfg.alpha_hat1 if cfg.distinguishable else cfg.alpha1,
                 AD: cfg.alpha_tilde1 if cfg.distinguishable else cfg.alpha1}
        for ps, angle in named.items():
            assert equilibrium_angle(ProbeState(ps.bits), cfg) == angle
            assert equilibrium_angle(ProbeState.from_bits("".join(map(str, ps.bits))), cfg) == angle

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

    @pytest.mark.parametrize("bin_width", [device.DEFAULT_BIN_WIDTH, 0.001])
    @pytest.mark.parametrize("ps", [DD, DA, AA])
    def test_mode_bin_is_the_lowest_fullest_bin(self, ps, bin_width):
        hist = run_histogram(ps, 10_000, seed=6, bin_width=bin_width)
        i = hist.counts.index(max(hist.counts))
        assert hist.mode_bin == (hist.bin_edges[i], hist.bin_edges[i + 1])

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


class TestBitIdentityOracle:
    """sample_many and run_histogram against the plain numpy routes: the same
    numbers, the same dtype, the same Generator end state, the same histogram."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PROBE_STATES), st.sampled_from(ORACLE_CONFIGS),
           st.integers(0, 2 * 10**4), st.integers(0, 2**32 - 1),
           st.sampled_from([device.DEFAULT_BIN_WIDTH, 0.001, 0.05]))
    def test_samples_state_and_histogram_match_the_reference(self, ps, cfg, n, seed, bin_width):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        values, expected = sample_many(ps, n, cfg, rng), reference_sample_many(ps, n, cfg, ref)
        assert values.dtype == expected.dtype == np.float64
        assert values.shape == (n,)
        assert values.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        if n:
            hist = run_histogram(ps, n, cfg, seed=seed, bin_width=bin_width)
            assert hist == reference_histogram(ps, n, cfg, seed, bin_width)
            assert hist.n == n

    def test_a_generator_shared_across_states_continues_at_the_same_point(self):
        # criterion 7 draws all four states from one Generator; each call must
        # leave it exactly where a one-draw-at-a-time sampler would
        cfg = ORACLE_CONFIGS[2]  # every state but DD rejects some draws
        rng, one_at_a_time = np.random.default_rng(2024), np.random.default_rng(2024)
        for ps in PROBE_STATES:
            values = sample_many(ps, 2000, cfg, rng)
            mean = equilibrium_angle(ps, cfg)
            lo, hi = max(0.0, mean - SUPPORT_SIGMAS * cfg.sigma), mean + SUPPORT_SIGMAS * cfg.sigma
            kept = []
            while len(kept) < 2000:
                value = one_at_a_time.normal(mean, cfg.sigma)
                if mean == 0:  # DD: |Normal(0, sigma)|, kept up to 6 sigma
                    value = abs(value)
                if lo <= value <= hi:
                    kept.append(value)
            assert values.tolist() == kept
            assert rng.bit_generator.state == one_at_a_time.bit_generator.state

    def test_dd_draws_one_normal_per_sample_and_copies_nothing(self, monkeypatch):
        class CountingRng:
            """A numpy Generator that counts the normal draws requested from it."""

            def __init__(self, rng):
                self._rng, self.draws = rng, 0

            def normal(self, loc=0.0, scale=1.0, size=None):
                self.draws += 1 if size is None else int(np.prod(size))
                return self._rng.normal(loc, scale, size)

        def no_compaction(*args, **kwargs):
            raise AssertionError("DD rejected a draw and compacted its batch")
        monkeypatch.setattr(np, "flatnonzero", no_compaction)
        n, rng = 10**5, CountingRng(np.random.default_rng(17))
        values = sample_many(DD, n, DeviceConfig(), rng)
        assert rng.draws == n == values.size
        assert values.min() >= 0.0

    def test_zero_samples_draw_nothing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        for ps in PROBE_STATES:
            values = sample_many(ps, 0, DeviceConfig(), rng)
            assert values.dtype == np.float64 and values.shape == (0,)
        assert rng.bit_generator.state == state


class TestHistogramBinMass:
    """Every bin's count against n times its erf mass under the normal truncated
    to the sampling window: an analytic oracle for the sampler and the binning
    (a clamped DD piles half its samples into the first bin)."""

    @pytest.mark.parametrize("bin_width", [device.DEFAULT_BIN_WIDTH, 0.001])
    @pytest.mark.parametrize("cfg", ORACLE_CONFIGS[:2], ids=["default", "resolved"])
    @pytest.mark.parametrize("ps", PROBE_STATES, ids=str)
    def test_every_bin_count_within_five_sd_of_its_mass(self, ps, cfg, bin_width):
        n = 10**5
        hist = run_histogram(ps, n, cfg, bin_width=bin_width)
        mean = equilibrium_angle(ps, cfg)
        lo, hi = max(0.0, mean - SUPPORT_SIGMAS * cfg.sigma), mean + SUPPORT_SIGMAS * cfg.sigma

        def cdf(x):
            return 0.5 * (1 + math.erf((x - mean) / (cfg.sigma * math.sqrt(2))))

        window = cdf(hi) - cdf(lo)
        for a, b, count in zip(hist.bin_edges, hist.bin_edges[1:], hist.counts):
            p = max(0.0, cdf(min(b, hi)) - cdf(max(a, lo))) / window
            # below one expected count the binomial sd understates a count's spread
            # (one sample where 0.01 is expected is 10 sd out): the variance floor is 1
            sd = math.sqrt(max(n * p * (1 - p), 1.0))
            assert abs(count - n * p) <= 5 * sd, (a, b, count, n * p)


class TestHistogramEdges:
    def test_samples_on_an_edge_above_them_are_counted(self):
        # 82 * 0.02 = 1.6400000000000001 lies above every sample (all the float
        # 1.64); edges starting there once dropped all of them
        hist = run_histogram(AA, 1000, DeviceConfig(alpha2=1.64, sigma=1e-17), seed=0)
        assert hist.n == 1000
        assert hist.bin_edges[0] <= 1.64 <= hist.bin_edges[-1]

    # a decimal bin width m / 10**d and a rest angle at the float nearest to the
    # exact k-th multiple of it, which k * bin_width may miss by an ulp either way
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 50), st.integers(2, 3), st.integers(1, 2000),
           st.sampled_from([1e-17, 1e-15, 1e-12]), st.integers(1, 200), st.integers(0, 2**16))
    def test_every_sample_counted_when_the_rest_angle_is_a_bin_multiple(
            self, m, d, k, sigma, n, seed):
        bin_width, rest = m / 10**d, k * m / 10**d
        assume(rest != 1.0)
        if rest < 1:
            ps, cfg = DA, DeviceConfig(alpha_hat1=rest, alpha_tilde1=rest, sigma=sigma)
        else:
            ps, cfg = AA, DeviceConfig(alpha2=rest, sigma=sigma)
        hist = run_histogram(ps, n, cfg, seed=seed, bin_width=bin_width)
        assert sum(hist.counts) == n

    @pytest.mark.parametrize("bin_width", ["x", None, [0.02], 1j])
    def test_refuses_a_bin_width_that_is_not_a_real_number(self, bin_width):
        with pytest.raises(ValueError, match="bin width must be finite and positive"):
            run_histogram(DD, 10, bin_width=bin_width)

    @pytest.mark.parametrize("bin_width", [10**400, 2**1024])
    def test_refuses_an_int_bin_width_past_the_float_range(self, bin_width):
        # float() overflows on it: an infinite width, not an OverflowError
        with pytest.raises(ValueError, match="finite and positive, got an int past the float range$"):
            run_histogram(DD, 10, bin_width=bin_width)

    def test_names_an_int_bin_width_too_long_for_str(self):
        # str() refuses an int past 4300 digits: formatting 10**5000 into the
        # message once raised that error in place of the refusal
        with pytest.raises(ValueError, match="finite and positive, got an int past the float range$"):
            run_histogram(DD, 10, bin_width=10**5000)

    def test_numpy_float_bin_widths_keep_working(self):
        assert run_histogram(AA, 300, seed=7, bin_width=np.float64(0.02)) == run_histogram(
            AA, 300, seed=7)
        assert run_histogram(AA, 300, seed=7, bin_width=np.float32(0.02)).n == 300


def test_probe_states_in_encoding_order():
    assert [ps.bits for ps in PROBE_STATES] == [(0, 0), (0, 1), (1, 0), (1, 1)]
