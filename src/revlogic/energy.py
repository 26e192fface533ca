"""Landauer accounting: erased bits and the energy they cost.

The information a deterministic table erases is the entropy gap between its
input and output distributions. Erasing is free exactly when the table is
injective on the support; each erased bit costs at least k_B * T * ln 2 of
dissipated energy, equivalently raises the environment entropy by k_B * ln 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Mapping

from .core import Gate, Word, all_words
from .derivation import Fixing, input_codes

if TYPE_CHECKING:
    import numpy as np

#: Boltzmann constant, exact SI value, J/K.
BOLTZMANN_JK = 1.380649e-23

_SUM_TOL = 1e-12


class InvalidDistribution(ValueError):
    """Probabilities are negative or do not sum to 1."""


class NonphysicalTemperature(ValueError):
    """Temperature must be finite, strictly positive kelvin."""


@dataclass(frozen=True)
class Distribution:
    """Probabilities over input words (or any hashable outcomes)."""

    probabilities: Mapping[Hashable, float]

    def __post_init__(self) -> None:
        # `not p >= 0` and `not d <= tol` hold for NaN, unlike `p < 0` and `d > tol`.
        if not all(p >= 0 for p in self.probabilities.values()):
            raise InvalidDistribution("negative probability")
        total = sum(self.probabilities.values())
        if not abs(total - 1.0) <= _SUM_TOL:
            raise InvalidDistribution(f"probabilities sum to {total}, not 1")

    @classmethod
    def uniform(cls, outcomes) -> "Distribution":
        outcomes = list(outcomes)
        return cls(dict.fromkeys(outcomes, 1.0 / len(outcomes)))

    @classmethod
    def uniform_words(cls, width: int) -> "Distribution":
        return cls.uniform(all_words(width))

    @classmethod
    def random_words(cls, width: int, rng: np.random.Generator) -> "Distribution":
        raw = rng.random(1 << width)
        raw /= raw.sum()
        return cls(dict(zip(all_words(width), raw.tolist())))


def shannon_entropy(dist: Distribution) -> float:
    """Entropy in bits, with 0 * log 0 = 0."""
    return -sum(p * math.log2(p) for p in dist.probabilities.values() if p > 0)


@dataclass(frozen=True)
class EnergyReport:
    input_entropy_bits: float
    output_entropy_bits: float

    @property
    def erased_bits(self) -> float:
        return self.input_entropy_bits - self.output_entropy_bits

    @property
    def min_entropy_increase_JperK(self) -> float:
        return self.erased_bits * BOLTZMANN_JK * math.log(2)

    def min_energy_joules(self, temperature_K: float) -> float:
        # erased_bits of a bijection can be float dust below zero
        return landauer_energy(max(self.erased_bits, 0.0), temperature_K)

    def to_json(self, temperature_K: float | None = None) -> dict:
        data = {
            "input_entropy_bits": self.input_entropy_bits,
            "output_entropy_bits": self.output_entropy_bits,
            "erased_bits": self.erased_bits,
            "min_entropy_increase_J_per_K": self.min_entropy_increase_JperK,
        }
        if temperature_K is not None:
            data["temperature_K"] = temperature_K
            data["min_energy_joules"] = self.min_energy_joules(temperature_K)
        return data


def info_loss(table: Mapping[Word, Hashable], dist: Distribution) -> EnergyReport:
    """Push a distribution through a deterministic table and compare entropies."""
    pushed: dict[Hashable, float] = {}
    for word, p in dist.probabilities.items():
        if p == 0:
            continue
        if word not in table:
            raise InvalidDistribution(f"table undefined on supported input {word}")
        out = table[word]
        pushed[out] = pushed.get(out, 0.0) + p
    return EnergyReport(
        input_entropy_bits=shannon_entropy(dist),
        output_entropy_bits=shannon_entropy(Distribution(pushed)),
    )


def landauer_energy(bits: float, temperature_K: float) -> float:
    """Minimum dissipation for erasing ``bits`` at ``temperature_K`` kelvin."""
    if not bits >= 0:
        raise ValueError(f"erased bits must be >= 0, got {bits}")
    if not 0 < temperature_K < math.inf:
        raise NonphysicalTemperature(f"temperature must be finite and > 0 K, got {temperature_K}")
    return bits * BOLTZMANN_JK * temperature_K * math.log(2)


def transfer_table(
    gate: Gate,
    fixing: Fixing | None = None,
    project_line: int | None = None,
) -> dict[Word, Hashable]:
    """The input-output table a gate presents once ancillae are fixed.

    Without projection the outputs are full words (garbage retained). With
    ``project_line`` the table keeps only that output bit, which is exactly
    the step that discards garbage and starts erasing information.
    """
    words = all_words(gate.width)
    if fixing is None:
        inputs, outputs = words, gate.perm
    else:
        codes = input_codes(gate, fixing)
        inputs, outputs = map(words.__getitem__, codes), map(gate.perm.__getitem__, codes)
    if project_line is None:
        return dict(zip(inputs, map(words.__getitem__, outputs)))
    if not 1 <= project_line <= gate.width:
        raise ValueError(f"output line {project_line} outside 1..{gate.width}")
    shift = gate.width - project_line
    return {word: (out >> shift) & 1 for word, out in zip(inputs, outputs)}
