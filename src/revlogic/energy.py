"""Landauer accounting: erased bits and the energy they cost.

The information a deterministic table erases is the entropy gap between its
input and output distributions. Erasing is free exactly when the table is
injective on the support; each erased bit costs at least k_B * T * ln 2 of
dissipated energy, equivalently raises the environment entropy by k_B * ln 2.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import repeat
from numbers import Real
from types import MappingProxyType
from typing import Hashable, Mapping

from .core import Gate, Word, _check_gate, all_words
from .derivation import Fixing, input_codes

#: Boltzmann constant, exact SI value, J/K.
BOLTZMANN_JK = 1.380649e-23

_SUM_TOL = 1e-12


class InvalidDistribution(ValueError):
    """Probabilities are negative or do not sum to 1."""


class NonphysicalTemperature(ValueError):
    """Temperature must be finite, strictly positive kelvin."""


@dataclass(frozen=True)
class Distribution:
    """Probabilities over input words (or any hashable outcomes).

    The mapping is kept, not copied, and must not change after construction:
    the checks in ``__post_init__`` and the cached entropy and weight describe
    it as it was given.
    """

    probabilities: Mapping[Hashable, float]

    def __post_init__(self) -> None:
        try:
            # `not p >= 0` and `not d <= tol` hold for NaN, unlike `p < 0` and `d > tol`.
            if not all(map(operator.ge, self.probabilities.values(), repeat(0))):
                raise InvalidDistribution("negative probability")
            total = sum(self.probabilities.values())
            if not abs(total - 1.0) <= _SUM_TOL:
                raise InvalidDistribution(f"probabilities sum to {total}, not 1")
        except (AttributeError, TypeError):  # None.values(), "1" >= 0
            raise InvalidDistribution("probabilities must map outcomes to real numbers") from None

    @classmethod
    def uniform(cls, outcomes) -> "Distribution":
        outcomes = list(outcomes)
        if not outcomes:
            raise InvalidDistribution("a uniform distribution needs at least one outcome")
        return cls(dict.fromkeys(outcomes, 1.0 / len(outcomes)))

    @classmethod
    @cache
    def uniform_words(cls, width: int) -> "Distribution":
        """The uniform distribution over ``all_words(width)``, in that order.

        One shared instance per width, so its mapping is read-only.
        """
        words = all_words(width)
        return cls(MappingProxyType(dict.fromkeys(words, 1.0 / len(words))))

    def __reduce__(self) -> tuple:
        # a plain dict: a read-only mapping does not pickle, and the caches rebuild on use
        return type(self), (dict(self.probabilities),)

    @cached_property
    def entropy_bits(self) -> float:
        """Entropy in bits, with 0 * log 0 = 0."""
        return _entropy_bits(Counter(self.probabilities.values()))

    @cached_property
    def weight(self) -> float | None:
        """The one probability every outcome has, or None when they differ."""
        weights = set(self.probabilities.values())
        return weights.pop() if len(weights) == 1 else None


def _entropy_bits(multiplicity: Mapping[float, int]) -> float:
    # one log2 per distinct probability: a uniform distribution costs one;
    # `0.0 - s` is `-s` for every nonzero sum, but 0.0, not -0.0, for a point mass
    return 0.0 - sum(n * p * math.log2(p) for p, n in multiplicity.items() if p > 0)


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
    """Push a distribution through a deterministic table and compare entropies.

    A fibre (the inputs sharing one output) weighs the sum of its inputs'
    probabilities; under equal weights that is its size times the weight.
    """
    probs = dist.probabilities
    # Keys that are the same objects in the same order need no lookups.
    if len(probs) == len(table) and all(map(operator.is_, probs, table)):
        weights, outputs, weight = probs.values(), table.values(), dist.weight
    else:
        weights, outputs = [], []
        for word, p in probs.items():
            if p == 0:
                continue
            if word not in table:
                raise InvalidDistribution(f"table undefined on supported input {word}")
            weights.append(p)
            outputs.append(table[word])
        weight = weights[0] if len(set(weights)) == 1 else None
    if weight is not None:
        # equal weights: a fibre's mass is its size times the weight, so group fibres by
        # size; a bijection's fibres are all of size 1
        n = len(outputs)
        sizes = {1: n} if len(set(outputs)) == n else Counter(Counter(outputs).values())
        masses = {size * weight: count for size, count in sizes.items()}
    else:
        pushed: dict[Hashable, float] = {}
        for out, p in zip(outputs, weights):
            pushed[out] = pushed.get(out, 0.0) + p
        masses = Counter(pushed.values())
    total = sum(mass * count for mass, count in masses.items())
    if not abs(total - 1.0) <= _SUM_TOL:
        raise InvalidDistribution(f"probabilities sum to {total}, not 1")
    return EnergyReport(
        input_entropy_bits=dist.entropy_bits,
        output_entropy_bits=_entropy_bits(masses),
    )


def landauer_energy(bits: float, temperature_K: float) -> float:
    """Minimum dissipation for erasing ``bits`` at ``temperature_K`` kelvin."""
    if isinstance(bits, bool) or not (isinstance(bits, Real) and 0 <= bits < math.inf):
        raise ValueError(f"erased bits must be finite and >= 0, got {bits}")
    if isinstance(temperature_K, bool) or not (isinstance(temperature_K, Real)
                                               and 0 < temperature_K < math.inf):
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
    _check_gate(gate)
    words = all_words(gate.width)
    if fixing is None:
        inputs, outputs = words, gate.perm
    else:
        codes = input_codes(gate, fixing)
        inputs, outputs = map(words.__getitem__, codes), map(gate.perm.__getitem__, codes)
    # without a fixing, a copy of the shared uniform mapping: presized, its keys the words in order
    table = Distribution.uniform_words(gate.width).probabilities.copy() if fixing is None else {}
    if project_line is None:
        table.update(zip(inputs, map(words.__getitem__, outputs)))
        return table
    # a bool, float or str line gets this ValueError too: True would read line 1
    if type(project_line) is not int or not 1 <= project_line <= gate.width:
        raise ValueError(f"output line {project_line!r} outside 1..{gate.width}")
    shift = gate.width - project_line
    table.update(zip(inputs, [(out >> shift) & 1 for out in outputs]))
    return table
