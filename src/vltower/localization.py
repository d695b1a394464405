"""Dyadic rationals mod 1: the center of the tower's colimit.

Dyadic values model the 2-quasi-cyclic group: num / 2**k taken mod 1,
canonically with num odd, or (0, 0) for zero.  They are the witness's center
samples; it builds their chains as residues, from ``Dyadic.residue``, so
dyadic negation, doubling and halving live with the tests, and so does the
tower-indexed view of the same group (residues pushed along tower edges by
the edge norms) with its identification with the dyadics.  The S-fractions of
the localized module are kept with the tests as well, since no claim computes
with them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError


@dataclass(frozen=True)
class Dyadic:
    """num / 2**k mod 1, canonical: 0 <= num < 2**k with num odd, or (0, 0)."""

    num: int
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("negative denominator exponent")
        if self.num == 0:
            if self.k != 0:
                raise ValueError("zero must be represented as (0, 0)")
        elif not (0 < self.num < (1 << self.k)) or self.num % 2 == 0:
            raise ValueError("non-canonical dyadic; use dyadic_make")

    def residue(self, level: int) -> int:
        """r with t^r this value at center level >= k, by doubling: num * 2**(level - k)."""
        return self.num << (level - self.k)


DYADIC_ZERO = Dyadic(0, 0)


def dyadic_make(num: int, k: int) -> Dyadic:
    """Canonicalize num / 2**k mod 1."""
    if k < 0:
        raise ValueError("negative denominator exponent")
    num %= 1 << k
    if not num:
        return DYADIC_ZERO
    p = (num & -num).bit_length() - 1  # the 2-adic valuation, as in two_adic_split
    return Dyadic(num >> p, k - p)


def parse_dyadic(text: str) -> Dyadic:
    """Parse 'num/den' (den a power of two) or an integer (which is 0 mod 1)."""
    num_text, _, den_text = text.strip().partition("/")
    try:
        num, den = int(num_text), int(den_text or 1)
    except ValueError:
        raise PreconditionError(f"not a dyadic: {text!r}") from None
    if den <= 0 or den & (den - 1):
        raise PreconditionError(f"denominator {den} is not a positive power of two")
    return dyadic_make(num, den.bit_length() - 1)
