"""Exact arithmetic for spectral sets and tiles in finite cyclic groups Z_N.

The package decides, with integer arithmetic only, whether a subset of Z_N is
spectral (admits an orthogonal basis of characters) or a tile (translates
partition the group), verifies the structure theory that connects the two on
moduli of the form p^n * q * r, and scans whole moduli for counterexamples to
the spectral-iff-tile equivalence.
"""

__version__ = "0.2.0"
