"""Tests for the normalization memory and the gate-restriction verdicts."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from golden import RESTRICTION_ROWS
from revlogic.core import Gate, Word, all_words
from revlogic.derivation import Connective, Fixing, classify, output_function, restrict
from revlogic.device import AA, DA, DD, PROBE_STATES, DeviceConfig, equilibrium_angle, sample_many
from revlogic.library import GateId, build
from revlogic.energy import transfer_table
from revlogic.machine import (
    CONCLUSIONS,
    ZERO_TOL,
    MachineTable,
    NormalizationId,
    U4Unclassifiable,
    coherence_check,
    delta_normalize,
    machine_table,
    normalize,
    u4_tolerance,
    verify_all,
    verify_all_conclusions,
    verify_conclusion,
)
from seed_core import full_word
from test_derivation import direct_name

DISTINGUISHABLE = DeviceConfig(distinguishable=True)

#: Every bit vector over the rest-angle classes (DD, DA, AD, AA), i.e. over PROBE_STATES.
CLASS_VECTORS = tuple(itertools.product((0, 1), repeat=4))


def branch_normalize(norm, alpha, cfg=None):
    """The normalizations written out as one branch each, with the rest angles
    listed by hand: an oracle independent of the band table and class vector."""
    norm = NormalizationId(norm)
    cfg = cfg or DeviceConfig()
    if not 0 <= alpha < math.inf:
        raise ValueError(f"angles are measured from the vertical, must be finite and >= 0, "
                         f"got {alpha}")
    if norm is NormalizationId.DELTA_U1:
        raise ValueError("the delta form maps an angle pair; use delta_normalize")
    if norm is NormalizationId.U4:
        if not cfg.distinguishable:
            raise U4Unclassifiable("u4 needs a config that resolves the two one-probe angles")
        tol = u4_tolerance(cfg)
        for mean, bit in ((0.0, 1), (cfg.alpha_hat1, 1), (cfg.alpha_tilde1, 0), (cfg.alpha2, 1)):
            if abs(alpha - mean) <= tol:
                return bit
        raise U4Unclassifiable(f"angle {alpha} is not near any configured rest angle")
    if norm in (NormalizationId.U1, NormalizationId.U1_BAR):
        value = 0 if alpha <= ZERO_TOL else 1
        return value if norm is NormalizationId.U1 else 1 - value
    if norm in (NormalizationId.U2, NormalizationId.U2_BAR):
        value = 0 if alpha <= 1 else 1
        return value if norm is NormalizationId.U2 else 1 - value
    value = 1 if ZERO_TOL < alpha <= 1 else 0
    return value if norm is NormalizationId.U3 else 1 - value


def outcome(fn, *args):
    """The bit ``fn`` returns, or the class and message of what it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def distinguishable_configs(draw):
    hat, tilde = sorted(draw(st.lists(st.floats(0.001, 0.999), min_size=2, max_size=2)))
    assume(hat < tilde)
    alpha2 = draw(st.floats(1.0, 2.0, exclude_min=True))
    return DeviceConfig(hat, tilde, alpha2, distinguishable=True)


def law_gate(f):
    """The self-inverse controlled gate x3' = x3 xor g(x1, x2), g = f xor f(DD), by formula."""
    g = [bit ^ f[0] for bit in f]
    return Gate(3, tuple(code ^ g[code >> 1] for code in range(8)))


def restricted_rows(gate, line, bit):
    """(input, output) word pairs of ``gate`` with input ``line`` held at ``bit``, by filtering
    every word in encoding order and applying the gate to each."""
    return tuple((word, gate.apply(word)) for word in all_words(3) if word.bits[line - 1] == bit)


def class_vector(table):
    """The output bit of each machine row; for a line-3 ancilla, f over PROBE_STATES."""
    return tuple(out.bits[2] for _, out in table.rows)


def readable(f, cfg):
    """Whether f is a function of the rest angle: probe states resting alike read alike."""
    bits_at = {}
    for ps, bit in zip(PROBE_STATES, f):
        bits_at.setdefault(equilibrium_angle(ps, cfg), set()).add(bit)
    return all(len(bits) == 1 for bits in bits_at.values())


class TestNormalize:
    def test_u1_zero_iff_vertical(self):
        assert normalize("u1", 0.0) == 0
        assert normalize("u1", 0.78) == 1

    def test_u2_threshold_at_boundary(self):
        assert normalize("u2", 0.93) == 0
        assert normalize("u2", 1.0) == 0
        assert normalize("u2", 1.12) == 1

    def test_u3_band(self):
        assert normalize("u3", 0.0) == 0
        assert normalize("u3", 0.855) == 1
        assert normalize("u3", 1.12) == 0

    def test_bars_complement(self):
        for base, bar in (("u1", "u1bar"), ("u2", "u2bar"), ("u3", "u3bar")):
            for alpha in (0.0, 0.78, 0.93, 1.0, 1.12):
                assert normalize(bar, alpha) == 1 - normalize(base, alpha)

    def test_u4_table(self):
        cfg = DISTINGUISHABLE
        assert normalize("u4", 0.0, cfg) == 1
        assert normalize("u4", cfg.alpha_hat1, cfg) == 1
        assert normalize("u4", cfg.alpha_tilde1, cfg) == 0
        assert normalize("u4", cfg.alpha2, cfg) == 1

    def test_u4_nearest_mean_tolerance(self):
        cfg = DISTINGUISHABLE
        tol = u4_tolerance(cfg)
        assert tol == pytest.approx(0.075)
        assert normalize("u4", cfg.alpha_tilde1 + tol / 2, cfg) == 0
        with pytest.raises(U4Unclassifiable):
            normalize("u4", 0.5, cfg)

    def test_u4_needs_distinguishable_config(self):
        with pytest.raises(U4Unclassifiable):
            normalize("u4", 0.0, DeviceConfig())

    def test_delta_is_not_a_plain_angle_map(self):
        with pytest.raises(ValueError):
            normalize("delta", 0.5)

    def test_negative_angle_rejected(self):
        with pytest.raises(ValueError):
            normalize("u1", -0.1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_angle_rejected(self, alpha):
        with pytest.raises(ValueError):
            normalize("u1", alpha)
        with pytest.raises(ValueError):
            delta_normalize(0.0, alpha)

    # a bool is no angle: normalize("u1", True) once returned 1
    @pytest.mark.parametrize("alpha", ["0.5", "a", None, [0.5], 1j, True, False])
    def test_non_number_angle_gets_the_nan_error(self, alpha):
        message = outcome(normalize, "u1", float("nan"))[1].replace("nan", repr(alpha))
        for norm in ("u1", "u3bar", "u4", "delta"):
            assert outcome(normalize, norm, alpha, DISTINGUISHABLE) == (ValueError, message)
        assert outcome(delta_normalize, alpha, 0.0) == (ValueError, message)
        assert outcome(delta_normalize, 0.0, alpha) == (ValueError, message)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.int64])
    def test_numpy_scalars_read_like_floats(self, dtype):
        for norm in NormalizationId:
            for alpha in (0.0, 0.5, 0.78, 0.93, 1.0, 1.12, 1.5):
                got = outcome(normalize, norm, dtype(alpha), DISTINGUISHABLE)
                want = outcome(normalize, norm, float(dtype(alpha)), DISTINGUISHABLE)
                # an error names the angle, and a numpy scalar's repr differs from a float's
                assert got == want if isinstance(want, int) else got[0] is want[0]


class TestMemoryAgainstBranches:
    @staticmethod
    def boundaries(cfg):
        tol = u4_tolerance(cfg)
        rests = [equilibrium_angle(ps, cfg) for ps in PROBE_STATES]
        edges = [ZERO_TOL, 1.0] + [r + sign * tol for r in rests for sign in (-1, 1)]
        return [a for edge in edges if edge >= 0
                for a in (math.nextafter(edge, -1), edge, math.nextafter(edge, 3))]

    @settings(max_examples=60, deadline=None)
    @given(distinguishable_configs(), st.lists(st.floats(0.0, 2.0), max_size=20))
    def test_bit_identical_to_branches(self, cfg, angles):
        for config in (cfg, DeviceConfig(cfg.alpha_hat1, cfg.alpha_tilde1, cfg.alpha2)):
            for alpha in angles + self.boundaries(cfg):
                for norm in NormalizationId:
                    assert (outcome(normalize, norm, alpha, config)
                            == outcome(branch_normalize, norm, alpha, config)), (norm, alpha)

    @settings(max_examples=30, deadline=None)
    @given(distinguishable_configs())
    def test_every_conclusion_holds_on_any_distinguishable_config(self, cfg):
        for norm in NormalizationId:
            assert verify_conclusion(machine_table(norm, cfg)).passed, norm


class TestLawRoute:
    """Every machine table is its class vector's law gate, restricted: x3 = f(DD) for
    the angle maps, x1 = 0 with u1's vector (the gate CL) for delta."""

    @staticmethod
    def assert_law_rows(norm, cfg):
        cfg_or_default = cfg or DeviceConfig(distinguishable=norm is NormalizationId.U4)
        base = NormalizationId.U1 if norm is NormalizationId.DELTA_U1 else norm
        f = tuple(branch_normalize(base, equilibrium_angle(ps, cfg_or_default), cfg_or_default)
                  for ps in PROBE_STATES)
        rows = machine_table(norm, cfg).rows
        if base is norm:
            assert rows == restricted_rows(law_gate(f), 3, f[0]), (norm, cfg)
        else:
            assert rows == restricted_rows(law_gate(f), 1, 0) == restricted_rows(
                build(GateId.CL), 1, 0), cfg

    @pytest.mark.parametrize("cfg", [None, DISTINGUISHABLE], ids=["default", "distinguishable"])
    @pytest.mark.parametrize("norm", list(NormalizationId))
    def test_rows_are_the_law_gate_restricted(self, norm, cfg):
        self.assert_law_rows(norm, cfg)

    @settings(max_examples=30, deadline=None)
    @given(distinguishable_configs())
    def test_rows_are_the_law_gate_restricted_on_any_distinguishable_config(self, cfg):
        for norm in NormalizationId:
            self.assert_law_rows(norm, cfg)


def public_route_table(norm, cfg=None):
    """The machine read through public ``normalize`` calls, each checking id, config and
    angle, and a checked ``Gate``: the route the band readers replace."""
    norm = NormalizationId(norm)
    cfg = cfg if cfg is not None else DeviceConfig(distinguishable=norm is NormalizationId.U4)
    delta = norm is NormalizationId.DELTA_U1
    base = NormalizationId.U1 if delta else norm
    f = [normalize(base, equilibrium_angle(ps, cfg), cfg) for ps in PROBE_STATES]
    gate = Gate(3, [code ^ f[code >> 1] ^ f[0] for code in range(8)])
    fixing = Fixing.of(3, {1: 0} if delta else {3: f[0]})
    return MachineTable(norm, tuple(transfer_table(gate, fixing).items()), fixing.fixed[0][0],
                        fixing.free, classify(output_function(gate, fixing, 3)))


#: The default (None and explicit), a resolved config, and two whose one-probe angle sits
#: at ZERO_TOL: the edge of u1 and u3, where an angle still reads as vertical.
ROUTE_CONFIGS = {
    "none": None,
    "default": DeviceConfig(),
    "distinguishable": DISTINGUISHABLE,
    "one_probe_at_zero_tol": DeviceConfig(alpha_hat1=ZERO_TOL, alpha_tilde1=ZERO_TOL),
    "hat_at_zero_tol": DeviceConfig(alpha_hat1=ZERO_TOL, distinguishable=True),
}


class TestBandReaders:
    @pytest.mark.parametrize("cfg", ROUTE_CONFIGS.values(), ids=ROUTE_CONFIGS)
    @pytest.mark.parametrize("norm", list(NormalizationId))
    def test_machine_table_is_the_public_route(self, norm, cfg):
        assert outcome(machine_table, norm, cfg) == outcome(public_route_table, norm, cfg)

    def test_the_zero_tol_configs_read_their_one_probe_angle_as_vertical(self):
        # the edge cases differ from the default: u1 reads the one-probe rows as 0
        for name in ("one_probe_at_zero_tol", "hat_at_zero_tol"):
            cfg = ROUTE_CONFIGS[name]
            assert normalize("u1", equilibrium_angle(DA, cfg), cfg) == 0
            assert machine_table("u1", cfg) != machine_table("u1")
        assert outcome(machine_table, "u4", DeviceConfig()) == (
            U4Unclassifiable, "u4 needs a config that resolves the two one-probe angles")

    def test_coherence_check_is_the_public_route(self):
        rows = [{"probes": str(ps), "u1_out": normalize("u1", equilibrium_angle(ps)),
                 "delta": delta_normalize(0.0, equilibrium_angle(ps))} for ps in PROBE_STATES]
        assert coherence_check().detail == {"rows": rows}


class TestConfigArgument:
    @pytest.mark.parametrize("cfg", ["x", 0, "", False, 0.5])
    def test_refuses_what_is_not_a_device_config(self, cfg):
        # "x" once raised AttributeError, or was ignored by the band maps;
        # 0, "" and False once read as the default
        for call in (lambda: machine_table("u1", cfg), lambda: machine_table("u4", cfg),
                     lambda: normalize("u1", 0.5, cfg), lambda: normalize("u4", 0.5, cfg),
                     lambda: u4_tolerance(cfg)):
            with pytest.raises(ValueError, match="config must be a DeviceConfig or None"):
                call()

    def test_none_is_the_default(self):
        assert normalize("u2", 1.12, None) == 1
        assert u4_tolerance(None) == u4_tolerance(DeviceConfig())
        assert machine_table("u1", None) == machine_table("u1", DeviceConfig())


class TestDeltaNormalize:
    def test_vertical_stays_vertical(self):
        assert delta_normalize(0.0, 0.0) == 0

    def test_deflected_returning_to_vertical(self):
        assert delta_normalize(0.78, 0.0) == 1

    def test_deflected_staying_deflected_even_at_new_angle(self):
        assert delta_normalize(0.78, 1.12) == 0

    def test_vertical_becoming_deflected(self):
        assert delta_normalize(0.0, 0.855) == 1


class TestMachineTable:
    @pytest.mark.parametrize("norm,connective", [
        ("u1", Connective.OR),
        ("u2", Connective.AND),
        ("u3", Connective.XOR),
        ("u1bar", Connective.NOR),
        ("u2bar", Connective.NAND),
        ("u3bar", Connective.NXOR),
    ])
    def test_connectives(self, norm, connective):
        assert machine_table(norm).connective is connective

    def test_u4_gives_implication(self):
        table = machine_table("u4", cfg=DISTINGUISHABLE)
        assert table.connective is Connective.IMPLIES_AB

    def test_u4_defaults_to_a_distinguishable_config(self):
        assert machine_table("u4") == machine_table("u4", DISTINGUISHABLE)

    def test_delta_gives_xor_of_lines_2_and_3(self):
        table = machine_table("delta")
        assert table.connective is Connective.XOR
        assert table.ancilla_line == 1
        assert table.free_lines == (2, 3)

    def test_nor_rows_match_golden_restriction(self):
        rows = [(str(a), str(b)) for a, b in machine_table("u1bar").rows]
        assert rows == RESTRICTION_ROWS[("cl", (3, 1))]

    def test_probe_lines_pass_through_and_ancilla_constant(self):
        for norm in NormalizationId:
            cfg = DISTINGUISHABLE if norm is NormalizationId.U4 else None
            table = machine_table(norm, cfg=cfg)
            col = table.ancilla_line - 1
            ancilla_bits = {win.bits[col] for win, _ in table.rows}
            assert len(ancilla_bits) == 1
            for win, wout in table.rows:
                assert win.bits[:2] == wout.bits[:2]

    def test_deflected_ancilla_breaks_the_nor_reading(self):
        # starting deflected, u1 labels the ancilla 1 but the device still
        # relaxes DD to vertical: the result is not the line-3=1 restriction
        cfg = DeviceConfig()
        x3 = normalize("u1", equilibrium_angle(DA, cfg))
        assert x3 == 1
        rows = {
            Word(ps.bits + (x3,)): Word(ps.bits + (normalize("u1", equilibrium_angle(ps, cfg)),))
            for ps in PROBE_STATES
        }
        gate_rows = {
            full_word(Fixing.of(3, {3: 1}), f.bits): out
            for f, out in restrict(build(GateId.CL), Fixing.of(3, {3: 1}))
        }
        assert rows != gate_rows


class TestVerdicts:
    def test_u1_verdict_fields(self):
        record = verify_conclusion(machine_table("u1"))
        assert record.passed
        assert record.detail["gate"] == GateId.CL.value
        assert record.detail["fixing"] == "x3=0"
        assert record.detail["connective"] == Connective.OR.value

    def test_u2bar_matches_toffoli_nand(self):
        record = verify_conclusion(machine_table("u2bar"))
        assert record.passed
        assert record.detail["gate"] == GateId.TOFFOLI.value
        assert record.detail["fixing"] == "x3=1"
        assert record.detail["expected"] == Connective.NAND.value

    def test_u4_matches_i_gate_implication(self):
        record = verify_conclusion(machine_table("u4"))
        assert record.passed
        assert record.detail["gate"] == GateId.I.value

    def test_checks_the_table_it_is_handed(self):
        table = machine_table("u1")
        assert verify_conclusion(table).passed
        assert not verify_conclusion(replace(table, connective=Connective.AND)).passed
        assert not verify_conclusion(replace(table, rows=table.rows[:3])).passed

    def test_all_conclusions_pass(self):
        verdicts = verify_all_conclusions()
        assert len(verdicts) == len(CONCLUSIONS) == 8
        assert all(v.passed for v in verdicts)

    def test_catalogue_has_twelve_unique_passing_records(self):
        records = verify_all()
        assert len(records) == 12
        assert all(r.passed for r in records)
        assert len({r.label for r in records}) == 12

    def test_delta_matches_cl_with_line1_fixed(self):
        record = verify_conclusion(machine_table("delta"))
        assert record.passed
        assert record.detail["fixing"] == "x1=0"
        assert record.detail["expected"] == Connective.XOR.value


class TestComplementDuality:
    @pytest.mark.parametrize("base,bar", [
        ("u1", "u1bar"), ("u2", "u2bar"), ("u3", "u3bar"),
    ])
    def test_bar_connective_is_pointwise_negation(self, base, bar):
        low = machine_table(base)
        high = machine_table(bar)
        low_truth = tuple(out.bits[2] for _, out in low.rows)
        high_truth = tuple(out.bits[2] for _, out in high.rows)
        assert tuple(1 - b for b in low_truth) == high_truth


class TestReversibilityWitness:
    def test_output_triples_pairwise_distinct_for_all_ids(self):
        for norm in NormalizationId:
            cfg = DISTINGUISHABLE if norm is NormalizationId.U4 else None
            table = machine_table(norm, cfg=cfg)
            outs = [out for _, out in table.rows]
            assert len(set(outs)) == len(outs), norm

    def test_u2_output_bit_alone_is_not_injective(self):
        # the garbage pair is what disambiguates the AND table
        bits = [out.bits[2] for _, out in machine_table("u2").rows]
        assert len(set(bits)) < len(bits)


class TestCoherence:
    def test_rows_and_verdict(self):
        record = coherence_check()
        assert record.passed
        by_state = {row["probes"]: row for row in record.detail["rows"]}
        assert (by_state[str(DD)]["u1_out"], by_state[str(DD)]["delta"]) == (0, 0)
        assert (by_state[str(AA)]["u1_out"], by_state[str(AA)]["delta"]) == (1, 1)


def phi(z):
    """The standard normal distribution function."""
    return 0.5 * (1 + math.erf(z / math.sqrt(2)))


#: A DD sample lies in [0, 6 sigma] and u1 reads it as 1 above 3 sigma, so it is
#: misread with this probability (about 0.0027); the other states' sampling
#: windows lie wholly on their bit's side of 3 sigma and are never misread.
P_DD_MISREAD = (phi(6) - phi(3)) / (phi(6) - phi(0))


def u1_misreads(values, ps, cfg):
    expected = normalize("u1", equilibrium_angle(ps, cfg), cfg)
    return int((np.where(values > 3 * cfg.sigma, 1, 0) != expected).sum())


class TestNoiseRobustness:
    def test_noisy_u1_classification_mostly_reproduces_the_table(self):
        cfg = DeviceConfig()
        rng = np.random.default_rng(2024)
        trials = 1000
        wrong = {ps: u1_misreads(sample_many(ps, trials, cfg, rng), ps, cfg) for ps in PROBE_STATES}
        # DD alone expects trials * P_DD_MISREAD = 2.7 misreads: bound at mean + 5 sd
        mean = trials * P_DD_MISREAD
        assert wrong[DD] <= mean + 5 * math.sqrt(mean * (1 - P_DD_MISREAD))
        assert [wrong[ps] for ps in PROBE_STATES if ps != DD] == [0, 0, 0]

    def test_dd_misread_rate_matches_the_analytic_rate(self):
        # two-sided, at 10^6 samples: 2,700 +- 260 misreads
        cfg, n = DeviceConfig(), 10**6
        wrong = u1_misreads(sample_many(DD, n, cfg, np.random.default_rng(2024)), DD, cfg)
        mean = n * P_DD_MISREAD
        assert abs(wrong - mean) <= 5 * math.sqrt(mean * (1 - P_DD_MISREAD))


class TestControlledGateLaw:
    """Any class vector f over the rest angles is a restriction x3 = f(DD) of the
    self-inverse controlled gate x3' = x3 xor (f xor f(DD))(x1, x2)."""

    @pytest.mark.parametrize("f", CLASS_VECTORS)
    def test_law_gate_reads_back_its_class_vector(self, f):
        gate = law_gate(f)
        assert gate.flags().self_reversible
        bf = output_function(gate, Fixing.of(3, {3: f[0]}), 3)
        assert bf.truth == f
        assert classify(bf).value == direct_name((1, 2), f)

    def test_sixteen_vectors_give_sixteen_functions(self):
        pairs = set()
        for f in CLASS_VECTORS:
            bf = output_function(law_gate(f), Fixing.of(3, {3: f[0]}), 3)
            pairs.add((classify(bf), bf.essential))
        assert len(pairs) == 16

    def test_every_conclusion_is_an_instance(self):
        for norm, (gate_id, assignments, _) in CONCLUSIONS.items():
            delta = norm is NormalizationId.DELTA_U1
            # delta reads u1's vector with probe 1 held off, the initial angle's bit on line 3
            f = class_vector(machine_table(NormalizationId.U1 if delta else norm))
            assert assignments == ({1: 0} if delta else {3: f[0]}), norm
            assert law_gate(f) == build(gate_id), norm

    def test_unresolved_one_probe_angles_read_the_symmetric_eight(self):
        default = DeviceConfig()
        assert {f for f in CLASS_VECTORS if readable(f, default)} == {
            f for f in CLASS_VECTORS if f[1] == f[2]}
        assert all(readable(f, DISTINGUISHABLE) for f in CLASS_VECTORS)
        for norm in set(NormalizationId) - {NormalizationId.DELTA_U1}:
            f = class_vector(machine_table(norm, DISTINGUISHABLE))
            if readable(f, default):
                assert class_vector(machine_table(norm, default)) == f, norm
            else:
                with pytest.raises(U4Unclassifiable):
                    machine_table(norm, default)
