"""Reversible-logic workbench.

Everything the probe-cantilever device computes can be read, under a suitable
angle normalization, as one restriction of a self-reversible 3-line gate, so
every connective it produces is realizable with zero erased bits.

Import each name from its module (``from revlogic.core import make_gate``);
the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
