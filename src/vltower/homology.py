"""Second-homology bookkeeping as exact certificates.

The homology groups themselves are known constants (order-2 cyclic for the
base group and every truncation, generated by the class of t^(2^k)) and are
not computed.  What is computed exactly is everything the construction needs
about induced maps: whether an S-element kills the base class (parity of its
norm), the 2-adic valuation of the generator image under a level map, and
the colimit fold that makes the localized base group's second homology
vanish, read from the prefix's even-norm edges (``has_even_edge``).  The
five-term conclusion, that the omega-th and (omega+1)-st stages of the
localization coincide, is a consequence of a zero fold and carries no
computation of its own.  First-homology invertibility is augmentation(s) =
1 mod Q: phi_build requires augmentation 1, and the phi-check claim reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import TheoremViolationError
from .groups import PhiData, TowerPrefix, conj_b, free_comm
from .quadratic import two_adic_split


def two_connected_certificate(phi_data: PhiData) -> int:
    """The level map is 2-connected; returns its second-homology valuation.

    Both abelianizations are Z/Q (+) Z: the defining relation abelianizes
    to a^Q = 1 and the commutator relators die.  The induced matrix is
    [[augmentation(s) mod Q, 0], [0, 1]] (b is fixed), the identity for the
    S-element s of a built map, since phi_build requires augmentation 1.

    The second-homology half is the 2-adic valuation of the generator image.
    The generator at the source is the class of t**(2**source_k); its image
    is the commutator of the image of a with its b-conjugate, raised to that
    power.  The commutator is evaluated on b-free triples with the integer
    center, and the center part of a's image drops out of it, so the image
    is taken with center 0 and the level map's pair as its module part.  It
    yields t**|s| exactly, so the valuation is source_k + p(s): an odd
    multiple of the target generator, certifying the induced map is an
    isomorphism.  Raises unless the valuation is the target level.
    """
    a = (0, *phi_data.pair)
    c, m, n = free_comm(a, conj_b(a))
    if (m, n) != (0, 0):
        raise TheoremViolationError("generator image is not central")
    if c != phi_data.norm:
        raise TheoremViolationError(f"generator image t^{c} != t^|s| = t^{phi_data.norm}")
    p, _ = two_adic_split(c)
    val = phi_data.source_k + p
    if val != phi_data.target_k:
        raise TheoremViolationError(
            f"valuation {val} != target level {phi_data.target_k}"
        )
    return val


@dataclass(frozen=True)
class ColimH2Result:
    """Fold of the induced maps on second homology along a tower prefix."""

    value: Literal["zero", "Z/2-so-far"]
    note: str


def colim_h2(tower: TowerPrefix) -> ColimH2Result:
    """Zero as soon as one even-norm edge occurs in the prefix, read from
    ``tower.has_even_edge()``.

    The full vanishing statement needs even-norm edges cofinally often in an
    infinite tower; a prefix can only report what it has seen, and the note
    says so.  A zero fold is what the five-term exact sequence needs: the
    omega-th and (omega+1)-st lower central stages of the localization then
    coincide.  That step is external bookkeeping (paper-assumed); the fold
    feeding it is machine-verified.
    """
    if tower.has_even_edge():
        return ColimH2Result(
            "zero",
            "an even-norm edge kills the order-2 class; an infinite tower needs "
            "such edges cofinally, which the prefix cannot itself certify",
        )
    return ColimH2Result(
        "Z/2-so-far",
        "all edge norms in this prefix are odd, so the class survives so far",
    )
