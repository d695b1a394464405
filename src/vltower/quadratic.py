"""The rank-2 integer module carrying the conjugation action of b.

Coordinates are row vectors in the ordered basis {a, a^b}; b acts on the
right by the fixed matrix U = [[0, 1], [1, 3]], so that a |-> a^b is one
right multiplication and the defining relation of the ambient group reads
U^2 = 3U + I.  Evaluating an element s of the group ring at U gives the
multiplication-by-s map; its determinant is the norm |s| whose 2-adic part
drives everything downstream.

Since U^2 = 3U + I, every s(U) is alpha I + beta U = [[alpha, beta], [beta,
alpha + 3 beta]] for one integer pair (alpha, beta), and |s| = alpha^2 +
3 alpha beta - beta^2.  That pair is the one representation of the module
map here: no matrix is built.  Reading a row vector (x, y) as x I + y U
identifies Z^2 with Z[U], so v s(U) is the pair product of v with the pair
of s.  Powers of U are such pairs too, computed by doubling with
(alpha I + beta U)(gamma I + delta U) = (alpha gamma + beta delta) I +
(alpha delta + beta gamma + 3 beta delta) U, so no kernel here loops over an
exponent.

The norm never needs the power of U at the lowest exponent f of s: with
s = b^f s0, det s(U) = det(U)^f det s0(U), and det U = -1, so |s| is
(-1)^f |s0|.  The pair of the core s0 is what Horner's rule produces
before its final product with U^f.

The window of S that ``verify_parity_range`` checks is walked here too,
and counted apart from the walk by ``_window_size``.

The module parts of the lower-central-series stages are principal ideals
Z^2 (alpha I + beta U) of Z[U], each held as its generator pair: a stage
step is one pair product, b-invariance holds by construction, and
``ideal_contains`` and ``ideal_index`` read membership and index from the
pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import PreconditionError, TheoremViolationError
from .laurent import LaurentPoly, power, require_in_S

Vec = tuple[int, int]


def _pair_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(alpha I + beta U)(gamma I + delta U), reduced by U^2 = 3U + I."""
    (alpha, beta), (gamma, delta) = x, y
    return alpha * gamma + beta * delta, alpha * delta + beta * gamma + 3 * beta * delta


def _u_pair(i: int) -> tuple[int, int]:
    """(alpha, beta) with U^i = alpha I + beta U, by square-and-multiply:
    at most 2 log2 |i| pair products, none for i = 0 or +-1."""
    if not i:
        return 1, 0
    # U, or U^-1 = U - 3I by Cayley-Hamilton
    return power(_pair_mul, (0, 1) if i > 0 else (-3, 1), abs(i))


def _core_pair(s: LaurentPoly) -> tuple[int, int, int]:
    """(alpha, beta, f) with s(U) = (alpha I + beta U) U^f, f the lowest
    exponent of s, by Horner's rule from the top term down.  A gap of 1 to
    the next exponent is (alpha, beta) -> (beta, alpha + 3 beta) and a longer
    gap one product with U^gap, so sparse polynomials of high degree stay
    logarithmic."""
    if not s.terms:
        return 0, 0, 0
    top, alpha = s.terms[-1]
    beta = 0
    for e, c in reversed(s.terms[:-1]):
        if top - e == 1:
            alpha, beta = beta + c, alpha + 3 * beta
        else:
            alpha, beta = _pair_mul((alpha, beta), _u_pair(top - e))
            alpha += c
        top = e
    return alpha, beta, top


def evaluate_at_U(s: LaurentPoly) -> tuple[int, int]:
    """The pair (alpha, beta) with s(U) = sum of n_i U^i = alpha I + beta U:
    the core pair times U^f."""
    alpha, beta, f = _core_pair(s)
    if f:
        alpha, beta = _pair_mul((alpha, beta), _u_pair(f))
    return alpha, beta


def _norm_form(alpha: int, beta: int, f: int = 0) -> int:
    """det((alpha I + beta U) U^f) = (-1)^f (alpha^2 + 3 alpha beta - beta^2),
    because det U = -1."""
    n = alpha * alpha + 3 * alpha * beta - beta * beta
    return -n if f & 1 else n


def ideal_contains(pair: tuple[int, int], v: Vec) -> bool:
    """v in Z^2 (alpha I + beta U), that is v = w (alpha I + beta U) for an
    integer row w: v adj divisible by det, with adj = (alpha + 3 beta) I -
    beta U.  The norm form has no nonzero integer root (13 is no square), so
    det = 0 only for (0, 0)."""
    det = _norm_form(*pair)
    if not det:
        return v == (0, 0)
    (alpha, beta), (x, y) = pair, v
    return (x * (alpha + 3 * beta) - y * beta) % det == 0 and (y * alpha - x * beta) % det == 0


def ideal_index(pair: tuple[int, int]) -> int | float:
    """Index of Z^2 (alpha I + beta U) in Z^2: |det|, math.inf for (0, 0)."""
    return abs(_norm_form(*pair)) or math.inf


def norm(s: LaurentPoly) -> int:
    """det of s evaluated at U; multiplicative, and nonzero on S.

    Taken from the core pair with the sign (-1)^f: no power of U is built
    for the lowest exponent f, so norm(b^f) costs nothing whatever the size
    of f.
    """
    return _norm_form(*_core_pair(s))


def widest_gap(s: LaurentPoly) -> int:
    """The largest difference of consecutive exponents of s, 0 for fewer than
    two terms: each gap of 2 or more costs one power of U, with entries of
    about 0.52 gap digits."""
    return max((e - d for (d, _), (e, _) in zip(s.terms, s.terms[1:])), default=0)


# The widest gap whose norm takes about 60 s (shared 2-vCPU VM, Python 3.11)
NORM_GAP_BOUND = 9_990_000


def two_adic_split(n: int) -> tuple[int, int]:
    """Write n = 2**p * v with v odd; rejects n = 0."""
    if n == 0:
        raise PreconditionError("two_adic_split of zero")
    p = (n & -n).bit_length() - 1
    return p, n >> p


@dataclass(frozen=True)
class NormData:
    """The norm of an S-element with its 2-adic decomposition."""

    norm: int
    p: int
    v: int


def norm_data(s: LaurentPoly) -> NormData:
    require_in_S(s)
    if (gap := widest_gap(s)) > NORM_GAP_BOUND:
        raise PreconditionError(f"an exponent gap of {gap} is past the bound {NORM_GAP_BOUND} of a norm")
    n = norm(s)
    # mod 3, x^2 - 3x - 1 = (x - 1)(x + 1), so |s| = s(1) s(-1) = s(-1) on S
    if (n - sum(-c if e & 1 else c for e, c in s.terms)) % 3:
        raise TheoremViolationError(f"|s| = {n} differs from s(-1) mod 3 for s={s}")
    p, v = two_adic_split(n)
    return NormData(n, p, v)


def _pair_parity(n0: int, n1: int, n2: int) -> int:
    """1 + N0 N1 + N0 N2 + N1 N2 mod 2, from the class sums N_c of the
    coefficients n_i over i = c mod 3."""
    return (1 + n0 * n1 + n0 * n2 + n1 * n2) % 2


def predicted_parity(s: LaurentPoly) -> int:
    """Predicted value of |s| mod 2 from the coefficient pair formula.

    The formula is 1 + the sum of n_i n_j over pairs i < j of the support
    with 3 not dividing j - i, that is over pairs in different classes mod
    3.  With N_c the sum of the n_i over i = c mod 3 that pair sum is
    exactly N0 N1 + N0 N2 + N1 N2, one pass over the terms.  A shift by a
    power of b permutes the classes cyclically and leaves it unchanged.
    The same pass gives the augmentation N0 + N1 + N2, so membership in S
    is checked without a second one.
    """
    sums = [0, 0, 0]
    for e, c in s.terms:
        sums[e % 3] += c
    if sum(sums) != 1:
        require_in_S(s)
    return _pair_parity(*sums)


WINDOW_COEFF_BOUND = 8  # a block's tails: at most (2c + 1)^2 2c = 4,624, under 1 MiB with the kernel's table

_Block = tuple[int, int, Iterable[tuple[int, ...]], dict[int, list[tuple[int, int, int]]]]


def _head_groups(max_degree_span: int, max_abs_coeff: int) -> Iterator[_Block]:
    """The S-elements with support in [0, max_degree_span] and coefficients
    in [-max_abs_coeff, max_abs_coeff], one block of prefixes at a time.

    A block is ``(f, d, prefixes, tails)``: offset f, span d, the prefixes
    p = (n_f, ..., n_{f+d-3}) in lexicographic order, and for each value of
    R = 1 - sum(p) the tails (h, m, n) with h + m + n = R, ascending in h
    and then m, which every prefix of that sum shares.  The elements of a
    prefix are b^f (p(b) + h b^(d-2) + m b^(d-1) + n b^d) for its tails,
    every one of them in the window: a tail is kept exactly when n is
    nonzero and h, m and n are within the bound, and R has no entry when no
    tail is kept.  The prefix is empty for d <= 2.  Span 0 is the tail
    (0, 0, 1), the element b^f; for span 1, h = 0 and m is the leading
    coefficient, and for span 2, h is.  Otherwise the prefix leads.

    Expanded in this order, the elements come by ascending support span,
    then lexicographically on the coefficient tuple (n_0, ..., n_D) over the
    whole window, each exactly once and with nothing sorted: for a fixed
    span d that order is every core (n_f, ..., n_{f+d}) with negative
    leading coefficient by ascending offset f, then every core with positive
    leading coefficient by descending f.  The tails depend only on d, the
    sign of the lead and R, so they are built once per span and sign; they
    are all the walk stores, and WINDOW_COEFF_BOUND keeps them small.  The
    bounds are checked when the walk is made, before its first block.
    """
    if max_degree_span < 0 or max_abs_coeff < 0:
        raise PreconditionError("bounds must be nonnegative")
    if max_abs_coeff > WINDOW_COEFF_BOUND:
        raise PreconditionError(f"coefficient bound {max_abs_coeff} is past the window bound {WINDOW_COEFF_BOUND}")
    return _blocks(max_degree_span + 1, max_abs_coeff)


def _blocks(width: int, c: int) -> Iterator[_Block]:
    """The blocks of ``_head_groups`` for spans below width, coefficients in [-c, c]."""
    rng = range(-c, c + 1)
    if c:
        for f in reversed(range(width)):
            yield f, 0, ((),), {1: [(0, 0, 1)]}
    for d in range(1, width):
        offsets = range(width - d)
        for leads, fs in ((range(-c, 0), offsets), (range(1, c + 1), reversed(offsets))):
            if d > 2:
                # R = 1 - (sum of the prefix), over every prefix sum
                spread = (d - 3) * c
                hs, ms, rs = rng, rng, range(2 - leads.stop - spread, 2 - leads.start + spread)
                factors = (leads, *[rng] * (d - 3))
            else:  # one empty prefix: the lead is m for span 1 and h for span 2
                hs, ms = (range(1), leads) if d == 1 else (leads, rng)
                rs, factors = (1,), ()
            tails = {}
            for r in rs:
                # n = r - h - m is within the bound for these m, and nonzero but for m = r - h
                ts = [
                    (h, m, r - h - m)
                    for h in hs
                    for m in range(max(ms.start, r - h - c), min(ms.stop, r - h + c + 1))
                    if m != r - h
                ]
                if ts:
                    tails[r] = ts
            for f in fs if tails else ():
                yield f, d, itertools.product(*factors), tails


def _group_element(f: int, d: int, prefix: tuple[int, ...], tail: tuple[int, int, int]) -> LaurentPoly:
    """The element b^f (p(b) + h b^(d-2) + m b^(d-1) + n b^d) of a block,
    for its prefix p and tail (h, m, n): n sits at the exponent f + d."""
    coeffs = (*prefix, *tail)
    return LaurentPoly(tuple([(e, n) for e, n in enumerate(coeffs, f + d + 1 - len(coeffs)) if n]))


def _window_size(max_degree_span: int, c: int) -> int:
    """The number of S-elements in the window: the (D + 1)-tuples in [-c, c]
    that sum to 1, D = max_degree_span, counted apart from the walk.

    Shifted to [0, 2c], they are the tuples with sum T = 1 + (D + 1) c; by
    inclusion-exclusion over the entries past 2c that is the sum over j of
    (-1)^j C(D + 1, j) C(T - j (2c + 1) + D, D).
    """
    k, t = max_degree_span + 1, 1 + (max_degree_span + 1) * c
    return sum(
        (-1) ** j * math.comb(k, j) * math.comb(t - j * (2 * c + 1) + k - 1, k - 1)
        for j in range(t // (2 * c + 1) + 1)
    )


@dataclass(frozen=True)
class ParityReport:
    """Result of the exhaustive parity check over an enumeration window."""

    checked: int
    counterexamples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_parity_range(max_degree_span: int, max_abs_coeff: int) -> ParityReport:
    """Compare predicted_parity against the determinant parity on every
    S-element of the window: support in [0, max_degree_span], coefficients
    in [-max_abs_coeff, max_abs_coeff], in the order of ``_head_groups``.

    The window is walked one prefix at a time (``_head_groups``):
    the elements b^f (p(b) + h b^(d-2) + m b^(d-1) + n b^d) of a block
    share their tails (h, m, n) between the prefixes p of one coefficient
    sum.  Each tail is evaluated once per block, to the pair of
    h U^(d-2) + m U^(d-1) + n U^d from a table of powers built once per
    window and to its class sums at offset f; each prefix once, to its pair
    (alpha, beta) by Horner's rule and its class sums (N0, N1, N2) by
    exponent mod 3.  So every element costs five additions, the norm form
    with sign (-1)^f and the pair formula, and no LaurentPoly is built; a
    counterexample is rendered as str(s) only when its parities differ.

    A coefficient bound of 0 is rejected: that window holds no S-element,
    and a check over nothing would pass vacuously.  The count of elements
    checked must equal ``_window_size``, so a walk that skips elements fails
    rather than passing on a short count.
    """
    if max_abs_coeff == 0:
        raise PreconditionError("coefficient bound 0 leaves no S-element to check")
    blocks = _head_groups(max_degree_span, max_abs_coeff)  # then the sign and WINDOW_COEFF_BOUND
    form, parity = _norm_form, _pair_parity
    powers = [_u_pair(k) for k in range(-2, max_degree_span + 1)]  # U^k at index k + 2
    bad: list[str] = []
    checked = 0
    for f, d, prefixes, tails in blocks:
        (ha, hb), (ma, mb), (na, nb) = powers[d : d + 3]
        # h, m and n sit at the classes f + d - 2, f + d - 1 and f + d mod 3,
        # so the tail (h, m, n) adds its entry i_c to the class sum N_c
        i0, i1, i2 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))[(2 - f - d) % 3]
        table = {}
        for r, ts in tails.items():  # (tail, its pair, its class sums), once per block
            table[r] = [
                (t, h * ha + m * ma + n * na, h * hb + m * mb + n * nb, t[i0], t[i1], t[i2])
                for t in ts
                for h, m, n in (t,)
            ]
        for prefix in prefixes:
            alpha = beta = 0
            for n in reversed(prefix):  # Horner: the pair of p(U)
                alpha, beta = beta + n, alpha + 3 * beta
            sums = [0, 0, 0]
            for e, n in enumerate(prefix, f):
                sums[e % 3] += n
            n0, n1, n2 = sums
            rows = table.get(1 - n0 - n1 - n2, ())
            checked += len(rows)
            for t, da, db, d0, d1, d2 in rows:
                if form(alpha + da, beta + db, f) & 1 != parity(n0 + d0, n1 + d1, n2 + d2):
                    bad.append(str(_group_element(f, d, prefix, t)))
    if checked != (size := _window_size(max_degree_span, max_abs_coeff)):
        raise TheoremViolationError(f"the walk checked {checked} S-elements of a window that holds {size}")
    return ParityReport(checked, tuple(bad))
