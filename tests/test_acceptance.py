"""Acceptance suite: the exit criteria of the workbench, one test each.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion. Tolerances are pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from golden import GATE_ROWS
from revlogic.core import Word
from revlogic.derivation import Connective, Fixing, derived_connectives
from revlogic.device import PROBE_STATES, DeviceConfig, equilibrium_angle, sample_many
from revlogic.energy import (
    BOLTZMANN_JK,
    Distribution,
    info_loss,
    landauer_energy,
    transfer_table,
)
from revlogic.library import all_gate_ids, build, formula_output
from revlogic.machine import (
    NormalizationId,
    coherence_check,
    machine_table,
    normalize,
    verify_conclusion,
)
from seed_core import random_words

GATE_IDS = ("cl", "toffoli", "x", "i")
SEED = 7


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {num}: {text}")
        raise
    print(f"PASS  criterion {num}: {text}")


def best_of_three(work):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return min(times)


def test_c1_gate_tables_match_published_rows():
    with criterion(1, "CL/Toffoli/X/I tables match their source rows, < 1 ms"):
        def check():
            build.cache_clear()
            rows_checked = 0
            for gate_id in GATE_IDS:
                gate = build(gate_id)
                for inp, out in GATE_ROWS[gate_id]:
                    assert gate.apply(Word.from_string(inp)) == Word.from_string(out)
                    rows_checked += 1
            assert rows_checked == 32

        check()  # warm up interpreter state before timing
        assert best_of_three(check) < 1e-3


def test_c2_self_reversibility():
    with criterion(2, "every gate composed with itself is the identity"):
        for gate_id in GATE_IDS:
            gate = build(gate_id)
            composed = gate.then(gate)
            for word in gate.words():
                assert composed.apply(word) == word, gate_id


def test_c3_formula_table_oracle():
    with criterion(3, "formula evaluation agrees with table lookup on all 32 pairs"):
        pairs = 0
        for gate_id in GATE_IDS:
            gate = build(gate_id)
            for word in gate.words():
                assert formula_output(gate_id, word) == gate.apply(word)
                pairs += 1
        assert pairs == 32


def test_c4_derived_connective_sets():
    with criterion(4, "derived sets contain the expected connective names"):
        cl_names = derived_connectives(build("cl")).names
        assert {Connective.XOR, Connective.OR, Connective.NOR,
                Connective.NOT, Connective.FANOUT} <= cl_names
        toffoli_names = derived_connectives(build("toffoli")).names
        assert {Connective.XOR, Connective.AND, Connective.NAND,
                Connective.NOT, Connective.FANOUT} <= toffoli_names


def test_c5_conclusions_and_coherence():
    expected = {
        NormalizationId.U1: ("cl", {3: 0}, Connective.OR),
        NormalizationId.U1_BAR: ("cl", {3: 1}, Connective.NOR),
        NormalizationId.U2: ("toffoli", {3: 0}, Connective.AND),
        NormalizationId.U2_BAR: ("toffoli", {3: 1}, Connective.NAND),
        NormalizationId.U3: ("x", {3: 0}, Connective.XOR),
        NormalizationId.U3_BAR: ("x", {3: 1}, Connective.NXOR),
        NormalizationId.U4: ("i", {3: 1}, Connective.IMPLIES_AB),
        NormalizationId.DELTA_U1: ("cl", {1: 0}, Connective.XOR),
    }

    with criterion(5, "all eight normalization verdicts and coherence, < 10 ms"):
        def check():
            for norm, (gate_name, assignments, connective) in expected.items():
                record = verify_conclusion(machine_table(norm))
                assert record.passed, norm
                assert record.detail["gate"] == gate_name
                assert record.detail["fixing"] == Fixing.of(3, assignments).label()
                assert record.detail["connective"] == connective.value
            assert coherence_check().passed

        check()
        assert best_of_three(check) < 10e-3


def test_c6_energy_accounting():
    with criterion(6, "erased-bit accounting and the Landauer constant"):
        # projecting the OR realization to its output bit under uniform inputs
        or_table = transfer_table(build("cl"), Fixing.of(3, {3: 0}), project_line=3)
        report = info_loss(or_table, Distribution.uniform(or_table.keys()))
        oracle = 2.0 - (-(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)))
        assert abs(report.erased_bits - oracle) < 1e-9

        rng = np.random.default_rng(SEED)
        for gate_id in all_gate_ids():
            gate = build(gate_id)
            table = transfer_table(gate)
            dists = [Distribution.uniform_words(gate.width)]
            dists += [random_words(gate.width, rng) for _ in range(10)]
            for dist in dists:
                assert abs(info_loss(table, dist).erased_bits) < 1e-12, gate_id

        assert abs(landauer_energy(1.0, 300.0)
                   - BOLTZMANN_JK * 300.0 * math.log(2)) < 1e-25


def test_c7_statistical_simulator():
    with criterion(7, "seeded simulator statistics at 10^4 trials per input, < 5 s"):
        def check():
            cfg = DeviceConfig()
            rng = np.random.default_rng(SEED)
            trials = 10_000
            misclassified = 0
            for ps in PROBE_STATES:
                values = sample_many(ps, trials, cfg, rng)
                mean = equilibrium_angle(ps, cfg)
                if mean > 0:
                    # symmetric resampling window: the sample mean is unbiased
                    assert abs(values.mean() - mean) <= 3 * cfg.sigma / math.sqrt(trials)
                else:
                    # resampling above 0 biases the DD mean to sigma*sqrt(2/pi)
                    assert values.mean() <= 3 * cfg.sigma
                if 0 < mean < 1:
                    assert (values > 1.0).mean() < 1e-3  # one-probe regime stays below
                elif mean > 1:
                    assert (values < 1.0).mean() < 1e-3  # two-probe regime stays above
                expected_bit = normalize("u1", mean, cfg)
                noisy_bits = np.where(values > 3 * cfg.sigma, 1, 0)
                misclassified += int((noisy_bits != expected_bit).sum())
            assert misclassified / (4 * trials) < 1e-3

        start = time.perf_counter()
        check()
        assert time.perf_counter() - start < 5.0


def test_c8_complement_duality():
    with criterion(8, "each barred normalization negates its base connective"):
        complements = {
            Connective.OR: Connective.NOR,
            Connective.AND: Connective.NAND,
            Connective.XOR: Connective.NXOR,
        }
        for base, bar in (("u1", "u1bar"), ("u2", "u2bar"), ("u3", "u3bar")):
            low = machine_table(base)
            high = machine_table(bar)
            assert complements[low.connective] is high.connective
            low_truth = tuple(out.bits[2] for _, out in low.rows)
            high_truth = tuple(out.bits[2] for _, out in high.rows)
            assert tuple(1 - b for b in low_truth) == high_truth


def test_c9_reversibility_witness():
    with criterion(9, "every machine table keeps its output triples distinct"):
        for norm in NormalizationId:
            cfg = DeviceConfig(distinguishable=True) if norm is NormalizationId.U4 else None
            table = machine_table(norm, cfg=cfg)
            outputs = [out for _, out in table.rows]
            assert len(set(outputs)) == len(outputs), norm
