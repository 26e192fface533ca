"""device_mc: seeded probe/cantilever Monte Carlo through run_histogram.

Every round calls ``run_histogram`` at n = 10^6 for all four probe states,
under the default config and under a resolved, noisier one, at the default
bin width and at 0.001. ``device`` sampling and binning do the work here;
``core`` and ``derivation`` do none. DD resamples about half its draws
(its window is cut at angle 0) and the other states almost none; the bin
width and sigma change how many bins each histogram fills.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from revlogic.device import (
    DEFAULT_BIN_WIDTH,
    PROBE_STATES,
    SUPPORT_SIGMAS,
    DeviceConfig,
    run_histogram,
    sample_many,
)

from harness import Checks, Outcome, Tracer, run_rounds

N = 10**6
CONFIGS = (
    ("default", DeviceConfig()),
    ("resolved", DeviceConfig(distinguishable=True, sigma=0.05)),
)
BIN_WIDTHS = (DEFAULT_BIN_WIDTH, 0.001)
#: Each run cycles through this many histogram seeds, so later rounds repeat
#: earlier ones and can be checked for identical counts.
SEEDS_PER_RUN = 4
#: A non-DD histogram mean must lie within MEAN_Z * sigma / sqrt(n) of its
#: rest angle. A run draws 24 distinct non-DD sample streams (4 seeds, 2
#: configs, 3 states); at 3 each fails with probability 0.27%, so about one
#: run in 16 would fail a correct device. At 5 it is 6e-7 per stream.
MEAN_Z = 5.0
#: Share of samples that u1 (threshold 3 sigma) reads wrongly, over 4 states.
MISCLASSIFY_LIMIT = 1e-3


@dataclass
class Inputs:
    n: int
    seeds: list[int]


def setup(seed: int, n: int = N) -> Inputs:
    rng = random.Random(seed)
    return Inputs(n, [rng.randrange(2**32) for _ in range(SEEDS_PER_RUN)])


def rest_angle(state: str, cfg: DeviceConfig) -> float:
    """The model's equilibrium angle, written out here as an independent oracle."""
    if state == "DD":
        return 0.0
    if state == "AA":
        return cfg.alpha2
    if not cfg.distinguishable:
        return (cfg.alpha_hat1 + cfg.alpha_tilde1) / 2
    return cfg.alpha_hat1 if state == "DA" else cfg.alpha_tilde1


def analytic_acceptance(state: str, cfg: DeviceConfig) -> float:
    """Probability that one Normal(rest, sigma) draw lands in the sampling window."""
    mean = rest_angle(state, cfg)
    lo = max(0.0, mean - SUPPORT_SIGMAS * cfg.sigma)
    hi = mean + SUPPORT_SIGMAS * cfg.sigma

    def phi(x: float) -> float:
        return 0.5 * (1 + math.erf((x - mean) / (cfg.sigma * math.sqrt(2))))

    return phi(hi) - phi(lo)


class CountingRng:
    """A numpy Generator that counts the normal draws requested from it."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.draws = 0

    def normal(self, loc=0.0, scale=1.0, size=None):
        self.draws += 1 if size is None else int(np.prod(size))
        return self._rng.normal(loc, scale, size)


def check_samples(cfg_name: str, cfg: DeviceConfig, seed: int, n: int,
                  tracer: Tracer, checks: Checks) -> None:
    """Draw each state's samples once per seed, count draws, check u1 reads."""
    misread = 0
    for ps in PROBE_STATES:
        state = str(ps)
        rng = CountingRng(np.random.default_rng(seed))
        try:
            with tracer.span("device.sample_many", job=True, state=state, config=cfg_name):
                samples = sample_many(ps, n, cfg, rng)
        except Exception:
            checks.crashed(f"sample_many {state} {cfg_name}")
            return
        tracer.count(f"device.draws.{state}", rng.draws)
        tracer.count(f"device.samples.{state}", samples.size)
        expected_bit = 0 if rest_angle(state, cfg) == 0 else 1
        misread += int(((samples > 3 * cfg.sigma) != expected_bit).sum())
    rate = misread / (len(PROBE_STATES) * n)
    checks.expect(rate < MISCLASSIFY_LIMIT,
                  f"{cfg_name} seed {seed}: u1 misreads {rate:.2e} of samples")


def check_histogram(hist, state: str, cfg_name: str, cfg: DeviceConfig, n: int,
                    key: tuple, first_counts: dict, checks: Checks) -> None:
    what = f"{state} {cfg_name} {key}"
    checks.expect(sum(hist.counts) == n, f"{what}: counts sum to {sum(hist.counts)}, not {n}")
    mean = rest_angle(state, cfg)
    if mean > 0:
        tol = MEAN_Z * cfg.sigma / math.sqrt(n)
        checks.expect(abs(hist.mean - mean) <= tol,
                      f"{what}: mean {hist.mean} is more than {tol:.2e} from {mean}")
    if key in first_counts:
        checks.expect(hist.counts == first_counts[key], f"{what}: same seed, different counts")
    else:
        first_counts[key] = hist.counts


def run(inputs: Inputs, tracer: Tracer, seconds: float, rounds: int | None = None,
        between: Callable[[float], None] | None = None) -> Outcome:
    """Rounds of 16 histograms, one seed per round. A job is one
    ``run_histogram`` call; a pass is one round's 16 calls."""
    outcome = Outcome()
    first_counts: dict[tuple, tuple[int, ...]] = {}

    def one_round(index: int) -> None:
        seed = inputs.seeds[index % len(inputs.seeds)]
        pass_s = 0.0
        for cfg_name, cfg in CONFIGS:
            for ps in PROBE_STATES:
                state = str(ps)
                for bin_width in BIN_WIDTHS:
                    try:
                        t0 = time.perf_counter()
                        with tracer.span("device.run_histogram", job=True, state=state,
                                         config=cfg_name, bin_width=bin_width):
                            hist = run_histogram(ps, inputs.n, cfg, seed=seed, bin_width=bin_width)
                        elapsed = time.perf_counter() - t0
                    except Exception:
                        outcome.checks.crashed(f"run_histogram {state} {cfg_name}")
                        continue
                    pass_s += elapsed
                    outcome.busy_s += elapsed
                    outcome.units += inputs.n
                    outcome.job_s.append(elapsed)
                    tracer.count("device.bins", len(hist.counts))
                    check_histogram(hist, state, cfg_name, cfg, inputs.n,
                                    (cfg_name, state, bin_width, seed), first_counts,
                                    outcome.checks)
            if index < len(inputs.seeds):
                check_samples(cfg_name, cfg, seed, inputs.n, tracer, outcome.checks)
        outcome.pass_s.append(pass_s)

    run_rounds(one_round, outcome, seconds, rounds, between)
    return outcome


def layer_metrics(inputs: Inputs, tracer: Tracer) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    samples = draws = 0
    for ps in PROBE_STATES:
        state = str(ps)
        sampling = tracer.median("device.sample_many", state=state)
        histogram = tracer.median("device.run_histogram", state=state)
        metrics[f"device.run_histogram.{state}_s"] = (tracer.median(
            "device.run_histogram", state=state, config="default",
            bin_width=DEFAULT_BIN_WIDTH), "s")
        metrics[f"device.sample_many.{state}_s"] = (sampling, "s")
        metrics[f"device.bin.{state}_s"] = (histogram - sampling, "s")
        state_samples = tracer.counts[f"device.samples.{state}"]
        state_draws = tracer.counts[f"device.draws.{state}"]
        metrics[f"device.acceptance.{state}"] = (state_samples / state_draws, "ratio")
        # equal n per config, so the expected acceptance is a harmonic mean
        metrics[f"device.acceptance_analytic.{state}"] = (
            len(CONFIGS) / sum(1 / analytic_acceptance(state, cfg) for _, cfg in CONFIGS),
            "ratio")
        samples += state_samples
        draws += state_draws
    metrics["device.samples"] = (samples, "count")
    metrics["device.draws"] = (draws, "count")
    metrics["device.bins"] = (tracer.counts["device.bins"], "count")
    return metrics
