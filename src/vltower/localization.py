"""Dyadic rationals mod 1 and the tower center.

Dyadic values model the 2-quasi-cyclic group: num / 2**k taken mod 1,
canonically with num odd, or (0, 0) for zero.  They are the witness's center
samples; it builds their chains as residues, from ``Dyadic.residue``, so
dyadic negation, doubling and halving live with the tests.  CenterColim is the
tower-indexed view of the same group: a residue mod 2**(level of its stage),
pushed along tower edges by multiplying with the edge norm.  Odd unit factors
accumulated by those pushes are stripped only at the dyadic boundary, in
center_to_dyadic.  That map is the tested identification of the tower's center
colimit with the dyadics the witness samples.  The S-fractions of the
localized module are kept with the tests, since no claim computes with them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .laurent import LaurentPoly


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


@dataclass(frozen=True)
class CenterColim:
    """A center element seen at a tower stage: residue mod 2**(stage level)."""

    stage: int
    residue: int


def _check_stage(tower, stage: int) -> int:
    if not (0 <= stage < len(tower.levels)):
        raise PreconditionError(f"stage {stage} outside tower of {len(tower.levels)} stages")
    return tower.levels[stage]


def center_make(tower, stage: int, residue: int) -> CenterColim:
    k = _check_stage(tower, stage)
    return CenterColim(stage, residue % (1 << k))


def center_push(c: CenterColim, s: LaurentPoly, tower) -> CenterColim:
    """Push one stage up the tower: residue is multiplied by the edge norm."""
    _check_stage(tower, c.stage)
    if c.stage >= len(tower.phis):
        raise PreconditionError(f"no tower edge leaves stage {c.stage}")
    edge = tower.phis[c.stage]
    if edge.s != s:
        raise PreconditionError(
            f"edge mismatch at stage {c.stage}: tower has {edge.s}, got {s}"
        )
    return CenterColim(c.stage + 1, (c.residue * edge.norm) % (1 << edge.target_k))


def center_push_to(c: CenterColim, stage: int, tower) -> CenterColim:
    while c.stage < stage:
        c = center_push(c, tower.phis[c.stage].s, tower)
    return c


def center_to_dyadic(c: CenterColim, tower) -> Dyadic:
    """Strip the odd units accumulated along the path from stage 0.

    The composite of the tower's center maps differs from the composite of
    the standard doubling inclusions by the product u of the odd parts of the
    edge norms; dividing the residue by u (mod 2**k) makes the square with
    dyadic doubling commute exactly.
    """
    k = _check_stage(tower, c.stage)
    if k == 0:
        return DYADIC_ZERO
    u = 1
    for edge in tower.phis[: c.stage]:
        u *= edge.norm >> edge.p  # the odd part: 2**p divides the norm exactly
    mod = 1 << k
    u_inv = pow(u % mod, -1, mod)
    return dyadic_make(c.residue * u_inv, k)


def center_eq(c1: CenterColim, c2: CenterColim, tower) -> bool:
    stage = max(c1.stage, c2.stage)
    return center_push_to(c1, stage, tower).residue == center_push_to(c2, stage, tower).residue
