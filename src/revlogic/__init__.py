"""Reversible-logic workbench.

Everything the probe-cantilever device computes can be read, under a suitable
angle normalization, as one restriction of a self-reversible 3-line gate, so
every connective it produces is realizable with zero erased bits.
"""

from .core import Gate, GateFlags, Word, compose, identity_gate, make_gate
from .derivation import (
    BooleanFunction,
    Classification,
    Connective,
    Fixing,
    classify,
    derived_connectives,
    output_function,
    restrict,
)
from .device import (
    DeviceConfig,
    ProbeState,
    encode_symbolic,
    equilibrium_angle,
    run_histogram,
    sample_many,
)
from .energy import (
    BOLTZMANN_JK,
    Distribution,
    EnergyReport,
    info_loss,
    landauer_energy,
    shannon_entropy,
    transfer_table,
)
from .library import GateId, build, formula_output
from .machine import (
    CheckRecord,
    MachineTable,
    NormalizationId,
    coherence_check,
    delta_normalize,
    machine_table,
    normalize,
    verify_all,
    verify_conclusion,
)

__all__ = [
    "Gate", "GateFlags", "Word", "compose", "identity_gate", "make_gate",
    "BooleanFunction", "Classification", "Connective", "Fixing",
    "classify", "derived_connectives", "output_function", "restrict",
    "DeviceConfig", "ProbeState", "encode_symbolic",
    "equilibrium_angle", "run_histogram", "sample_many",
    "BOLTZMANN_JK", "Distribution", "EnergyReport", "info_loss",
    "landauer_energy", "shannon_entropy", "transfer_table",
    "GateId", "build", "formula_output",
    "CheckRecord", "MachineTable", "NormalizationId", "coherence_check",
    "delta_normalize", "machine_table", "normalize", "verify_all", "verify_conclusion",
]

__version__ = "0.1.0"
