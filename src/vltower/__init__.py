"""Exact-arithmetic certificates for a localization tower of group extensions.

The package realizes, with machine-verified exact computations, a chain of
constructions over the two-generator group with relations a^(b^2) = a a^(3b)
and [a, a^b] = 1: the norm and parity theory of augmentation-1 group-ring
elements, the class-2 central extensions and their truncations, validated
2-connected maps between truncation levels, the quasi-cyclic center of the
tower's colimit, lower central series through transfinite stages, and the
unique-lifting property of the center truncations.
"""

from .errors import (
    InsufficientTowerError,
    LaurentParseError,
    NotInSError,
    PreconditionError,
    TheoremViolationError,
    VltowerError,
)
from .laurent import LaurentPoly, augmentation, in_S, parse_laurent
from .localization import Dyadic, dyadic_make
from .quadratic import (
    NormData,
    evaluate_at_U,
    norm,
    norm_data,
    predicted_parity,
    two_adic_split,
    verify_parity_range,
)

__all__ = [
    "Dyadic",
    "InsufficientTowerError",
    "LaurentParseError",
    "LaurentPoly",
    "NormData",
    "NotInSError",
    "PreconditionError",
    "TheoremViolationError",
    "VltowerError",
    "augmentation",
    "dyadic_make",
    "evaluate_at_U",
    "in_S",
    "norm",
    "norm_data",
    "parse_laurent",
    "predicted_parity",
    "two_adic_split",
    "verify_parity_range",
]
