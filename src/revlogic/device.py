"""Stochastic model of the probes-plus-cantilever logic device.

Two electrostatic probes can bend an elastic cantilever; the tip's deflection
angle from the vertical encodes the device output. Angles are dimensionless,
with the decision boundary between the one-probe and two-probe regimes scaled
to 1. The equilibrium angle depends only on which probes are powered, never
on the initial angle; thermal noise spreads the measured tip position into a
Gaussian around that equilibrium.

All randomness flows through an explicit numpy Generator, so identical seeds
and configs reproduce sample streams bit-exactly. numpy loads on the first
sample, not on import: the rest of the package is exact integer work.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BIN_WIDTH = 0.02

# Refuse samples spanning more bin widths than this, not GiB of edges and counts.
MAX_BINS = 100_000

# Refuse more trials than this per histogram: each costs 8 bytes or more of samples.
MAX_TRIALS = 10**7

# Samples are kept within this many standard deviations of the equilibrium angle
# by resampling, and above 0 by reflection, so every histogram has bounded support.
SUPPORT_SIGMAS = 6.0


@dataclass(frozen=True)
class ProbeState:
    """A probe pair as bits: 0 = off (D, no voltage), 1 = on (A, voltage
    applied); position 0 is probe 1."""

    bits: tuple[int, int]

    def __post_init__(self) -> None:
        if not (isinstance(self.bits, tuple) and len(self.bits) == 2
                and all(isinstance(bit, int) and bit in (0, 1) for bit in self.bits)):
            raise ValueError(f"probe state must be a pair of bits 0/1, got {self.bits!r}")

    @classmethod
    def from_bits(cls, text: str) -> "ProbeState":
        """Parse "01"-style input."""
        if not isinstance(text, str) or len(text) != 2 or any(c not in "01" for c in text):
            raise ValueError(f"probe state must be two bits, got {text!r}")
        return cls((int(text[0]), int(text[1])))

    def __str__(self) -> str:
        return "".join("DA"[bit] for bit in self.bits)


DD = ProbeState((0, 0))
DA = ProbeState((0, 1))
AD = ProbeState((1, 0))
AA = ProbeState((1, 1))

#: All probe states in encoding order of their bits (00, 01, 10, 11).
PROBE_STATES = (DD, DA, AD, AA)

# Garbage-pair symbols: the off/off outcome, then one marker per powered
# combination (01, 10, 11).
_SYMBOLS = {DD: "*", DA: "△", AD: "○", AA: "□"}


def encode_symbolic(ps: ProbeState) -> str:
    """Symbol for the probe pair carried along with the output bit."""
    return _SYMBOLS[ps]


@dataclass(frozen=True)
class DeviceConfig:
    """Equilibrium angles and noise width, in boundary-normalized units.

    ``alpha_hat1`` and ``alpha_tilde1`` are the one-probe equilibria for
    inputs DA and AD. With ``distinguishable`` unset (the default) the two
    are treated as experimentally identical and both collapse to their
    average ``alpha1``; set it when the apparatus can resolve them, which
    requires the strict ordering 0 < alpha_hat1 < alpha_tilde1 < 1 < alpha2.
    """

    alpha_hat1: float = 0.78
    alpha_tilde1: float = 0.93
    alpha2: float = 1.12
    sigma: float = 0.03
    distinguishable: bool = False

    def __post_init__(self) -> None:
        values = (self.alpha_hat1, self.alpha_tilde1, self.alpha2, self.sigma)
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in values):
            raise ValueError(f"angles and sigma must be finite, got {values}")
        if type(self.distinguishable) is not bool:  # a truthy "no" would resolve DA and AD
            raise ValueError(f"distinguishable must be a bool, got {self.distinguishable!r}")
        # alpha2 + SUPPORT_SIGMAS * sigma bounds every sample; past the float range it is inf
        if not (self.sigma > 0 and math.isfinite(self.alpha2 + SUPPORT_SIGMAS * self.sigma)):
            raise ValueError(f"sigma must be positive and keep the sample support "
                             f"alpha2 + {SUPPORT_SIGMAS:g} sigma finite, got {self.sigma}")
        if min(self.alpha_hat1, self.alpha_tilde1) <= 0:
            raise ValueError("one-probe angles must be positive")
        if self.distinguishable:
            if not self.alpha_hat1 < self.alpha_tilde1 < 1 < self.alpha2:
                raise ValueError(
                    "distinguishable config needs 0 < alpha_hat1 < alpha_tilde1 < 1 < alpha2"
                )
        elif not self.alpha1 < 1 < self.alpha2:
            raise ValueError("config needs 0 < alpha1 < 1 < alpha2")

    @property
    def alpha1(self) -> float:
        """The common one-probe angle used when DA and AD are not resolved."""
        return 0.5 * (self.alpha_hat1 + self.alpha_tilde1)


_DEFAULTS = (DeviceConfig(), DeviceConfig(distinguishable=True))  # shared, by distinguishable


def as_config(cfg: DeviceConfig | None, distinguishable: bool = False) -> DeviceConfig:
    """``cfg`` itself, or for None the shared default config; anything else is refused."""
    if cfg is None:
        return _DEFAULTS[bool(distinguishable)]
    if not isinstance(cfg, DeviceConfig):
        raise ValueError(f"config must be a DeviceConfig or None, got {cfg!r}")
    return cfg


def equilibrium_angle(ps: ProbeState, cfg: DeviceConfig | None = None) -> float:
    """Noise-free rest angle for a probe configuration.

    Independent of the initial angle: an unpowered device relaxes back to the
    vertical, a powered one settles at the angle its voltages dictate.
    """
    if not isinstance(ps, ProbeState):
        raise ValueError(f"probe state must be a ProbeState, got {ps!r}")
    cfg = as_config(cfg)
    probe1, probe2 = ps.bits
    if probe1 == probe2:  # DD rests at the vertical, AA past the boundary
        return cfg.alpha2 if probe1 else 0.0
    if not cfg.distinguishable:
        return cfg.alpha1
    return cfg.alpha_tilde1 if probe1 else cfg.alpha_hat1


def sample_many(
    ps: ProbeState,
    n: int,
    cfg: DeviceConfig | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` output angles for one probe input (``cfg`` None: the default config).

    Values come from Normal(equilibrium, sigma), resampled (never clamped)
    until they land in [max(0, mean - 6 sigma), mean + 6 sigma]; clamping
    would pile a spurious point mass at 0 into the DD histograms. At rest
    angle 0 every draw is reflected to |draw|: the same law in half the draws.
    Only ``rng.normal(mean, sigma, size=...)`` is called, and exactly the
    draws up to the n-th kept sample are consumed, so a Generator shared
    across calls continues from the same point as under a sampler drawing
    (and, at rest angle 0, reflecting) one value at a time.
    """
    cfg = as_config(cfg)
    mean = equilibrium_angle(ps, cfg)
    lo = max(0.0, mean - SUPPORT_SIGMAS * cfg.sigma)
    hi = mean + SUPPORT_SIGMAS * cfg.sigma
    import numpy as np

    def normal(size: int) -> np.ndarray:
        draw = rng.normal(mean, cfg.sigma, size=size)
        return np.abs(draw, out=draw) if mean == 0 else draw

    out = draw = normal(n)
    if n == 0 or lo <= draw.min() and draw.max() <= hi:
        return out  # the usual case: nothing rejected, nothing copied
    filled = 0
    while True:  # compact each batch's kept draws into out, in place
        keep = np.flatnonzero((draw >= lo) & (draw <= hi))
        filled += draw.take(keep, out=out[filled:filled + keep.size]).size
        if filled == n:
            return out
        draw = normal(n - filled)


@dataclass(frozen=True)
class Histogram:
    """Binned output angles; edges sit on integer multiples of the bin width."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    mean: float
    stddev: float

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def mode_bin(self) -> tuple[float, float]:
        """(low, high) of the fullest bin; ties resolve to the lowest bin."""
        best = max(range(len(self.counts)), key=lambda i: (self.counts[i], -i))
        return (self.bin_edges[best], self.bin_edges[best + 1])


def _integer(name: str, value: object) -> int:
    """``value`` as an int: ints and numpy integer scalars pass; bools and floats do not."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def run_histogram(
    ps: ProbeState,
    n: int,
    cfg: DeviceConfig | None = None,
    seed: int = 0,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> Histogram:
    """Histogram of ``n`` seeded device shots; ``n`` and ``seed`` are ints, never bools."""
    n, seed = _integer("trials", n), _integer("seed", seed)
    if not 1 <= n <= MAX_TRIALS:
        raise ValueError(f"trials must be 1..{MAX_TRIALS}, got {n}")
    try:
        width = float(bin_width) if isinstance(bin_width, numbers.Real) else math.nan
    except OverflowError:  # an int past the float range is infinitely wide; str() may refuse it
        width, bin_width = math.inf, "an int past the float range"
    if not 0 < width < math.inf:
        raise ValueError(f"bin width must be finite and positive, got {bin_width}")
    bin_width = width
    cfg = as_config(cfg)
    equilibrium_angle(ps, cfg)  # refuse a bad probe state before numpy loads
    import numpy as np

    samples = sample_many(ps, n, cfg, np.random.default_rng(seed))
    low, high = float(samples.min()), float(samples.max())
    lo, hi = low / bin_width, high / bin_width
    # Past 2**52, adjacent edges k * bin_width stop being distinct floats.
    if not (hi - lo < MAX_BINS and hi < 2**52):
        raise ValueError(f"bin width {bin_width} is too fine for these samples")
    k_lo, k_hi = math.floor(lo), math.floor(hi) + 1
    # np.histogram drops samples past the edges, and k * w can round past one (82 * 0.02)
    while k_lo * bin_width > low:
        k_lo -= 1
    while k_hi * bin_width < high:  # the last bin is closed: high may sit on its edge
        k_hi += 1
    edges = np.arange(k_lo, k_hi + 1) * bin_width
    counts, _ = np.histogram(samples, bins=edges)
    mean = samples.mean()  # then np.std's arithmetic, over samples rather than a copy
    np.square(np.subtract(samples, mean, out=samples), out=samples)
    return Histogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        mean=float(mean),
        stddev=math.sqrt(samples.sum() / n),
    )
