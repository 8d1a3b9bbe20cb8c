"""Exact arithmetic for spectral sets and tiles in finite cyclic groups Z_N.

The package decides, with integer arithmetic only, whether a subset of Z_N is
spectral (admits an orthogonal basis of characters) or a tile (translates
partition the group), verifies the structure theory that connects the two on
moduli of the form p^n * q * r, and scans whole moduli for counterexamples to
the spectral-iff-tile equivalence.
"""

from __future__ import annotations

__version__ = "0.2.0"

from .cyclotomic import (
    CyclotomicInteger,
    CyclotomicPoly,
    cyclotomic,
    prime_power_vanishing,
)
from .groupring import (
    GroupRingElement,
    Modulus,
    ZeroSet,
    char_value,
    format_set_literal,
    is_char_zero,
    multiset,
    parse_set_literal,
    subset,
    zero_set,
)
from .pnqr import (
    DivisorClass,
    DivisorProfile,
    GridDecomposition,
    PnqrModulus,
    decompose,
    digit_set_check,
    divisor_profile,
    generating_pair,
    grid_implications,
)
from .spectral import (
    SearchResult,
    canonical_form,
    enumerate_spectra,
    is_spectral_pair,
    spectrum_search,
)
from .tiling import (
    ComplementOutcome,
    ConstructionError,
    cm_spectrum,
    complement_from_spectrum,
    complement_search,
    is_tiling_pair,
    t1_t2_check,
)

__all__ = [
    "__version__",
    "CyclotomicInteger",
    "CyclotomicPoly",
    "cyclotomic",
    "prime_power_vanishing",
    "GroupRingElement",
    "Modulus",
    "ZeroSet",
    "char_value",
    "format_set_literal",
    "is_char_zero",
    "multiset",
    "parse_set_literal",
    "subset",
    "zero_set",
    "DivisorClass",
    "DivisorProfile",
    "GridDecomposition",
    "PnqrModulus",
    "decompose",
    "digit_set_check",
    "divisor_profile",
    "generating_pair",
    "grid_implications",
    "SearchResult",
    "canonical_form",
    "enumerate_spectra",
    "is_spectral_pair",
    "spectrum_search",
    "ComplementOutcome",
    "ConstructionError",
    "cm_spectrum",
    "complement_from_spectrum",
    "complement_search",
    "is_tiling_pair",
    "t1_t2_check",
]
