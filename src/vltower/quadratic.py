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

The window of S that ``verify_parity_range`` checks is walked here too, as
its coefficient tuples with one table of the tails (``_tails``) that finish
every prefix, and counted apart from the walk by ``_window_size``.

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


WINDOW_COEFF_BOUND = 8  # the tails table: at most (2c + 1)^3 = 4,913 rows, under 1 MiB
WINDOW_SIZE_BOUND = 100_000_000  # its slowest windows, (12, 2) and (17, 1), take about 54 s


def _tails(d: int, c: int) -> dict[int, list[tuple[int, int, int, int, int]]]:
    """The tails (h, m, n) of the window of span d, coefficients in [-c, c]:
    h, m and n sit at the exponents d - 2, d - 1 and d, and an exponent
    below 0 holds 0.  Keyed by R = h + m + n, for every R = 1 - sum(prefix)
    that a prefix (n_0, ..., n_{d-3}) reaches, each tail is the row
    (alpha, beta, N0, N1, N2) of its pair h U^(d-2) + m U^(d-1) + n U^d and
    its class sums, ascending in h and then m.  The class sums are the tail
    permuted, so the row holds no tuple of its own."""
    rng = range(-c, c + 1)
    hs, ms = (rng if d >= 2 else range(1)), (rng if d >= 1 else range(1))
    spread = max(0, d - 2) * c  # the largest |sum(prefix)|
    (ha, hb), (ma, mb), (na, nb) = (_u_pair(k) for k in range(d - 2, d + 1))
    # the entries of (h, m, n) at the classes 0, 1 and 2: n sits at d mod 3
    i0, i1, i2 = ((2, 0, 1), (1, 2, 0), (0, 1, 2))[d % 3]
    tails = {}
    for r in range(1 - spread, 2 + spread):
        rows = []
        for h in hs:
            # n = r - h - m is within the bound for these m
            for m in range(max(ms.start, r - h - c), min(ms.stop, r - h + c + 1)):
                n = r - h - m
                t = (h, m, n)
                rows.append((h * ha + m * ma + n * na, h * hb + m * mb + n * nb, t[i0], t[i1], t[i2]))
        if rows:
            tails[r] = rows
    return tails


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
    in [-max_abs_coeff, max_abs_coeff].

    The walk runs over the coefficient tuples (n_0, ..., n_D) that sum to 1,
    D = max_degree_span, in lexicographic order.  Each prefix
    (n_0, ..., n_{D-3}) of one product, empty for D < 3, is evaluated once,
    to its pair by Horner's rule and its class sums by exponent mod 3, and
    finished by the ``_tails`` rows of R = 1 - sum(prefix): five additions,
    the norm form and the pair formula per element.  A LaurentPoly is built
    only for a counterexample, and those are listed by support span, then
    tuple.

    The bounds are checked before any power of U is built: 0 first (that
    window holds no S-element, and a check over nothing would pass
    vacuously), then the sign, WINDOW_COEFF_BOUND and WINDOW_SIZE_BOUND.
    The count of elements checked must equal ``_window_size``, so a walk
    that skips elements fails rather than passing on a short count.
    """
    d, c = max_degree_span, max_abs_coeff
    if c == 0:
        raise PreconditionError("coefficient bound 0 leaves no S-element to check")
    if d < 0 or c < 0:
        raise PreconditionError("bounds must be nonnegative")
    if c > WINDOW_COEFF_BOUND:
        raise PreconditionError(f"coefficient bound {c} is past the window bound {WINDOW_COEFF_BOUND}")
    # one 1 and d // 2 pairs (1, -1) or (-1, 1) make 2^(d // 2) elements, so a long span needs no count
    if d // 2 >= WINDOW_SIZE_BOUND.bit_length() or (size := _window_size(d, c)) > WINDOW_SIZE_BOUND:
        raise PreconditionError(f"the window ({d}, {c}) holds more than {WINDOW_SIZE_BOUND} S-elements")
    tails = _tails(d, c)
    form, parity = _norm_form, _pair_parity
    bad: list[tuple[int, ...]] = []
    checked = 0
    for prefix in itertools.product(range(-c, c + 1), repeat=max(0, d - 2)):
        alpha = beta = 0
        for n in reversed(prefix):  # Horner: the pair of p(U)
            alpha, beta = beta + n, alpha + 3 * beta
        sums = [0, 0, 0]
        for e, n in enumerate(prefix):
            sums[e % 3] += n
        n0, n1, n2 = sums
        rows = tails.get(1 - n0 - n1 - n2, ())
        checked += len(rows)
        for da, db, d0, d1, d2 in rows:
            if form(alpha + da, beta + db) & 1 != parity(n0 + d0, n1 + d1, n2 + d2):
                by_class = (d0, d1, d2)  # the tail's entry at exponent e is that of class e mod 3
                bad.append((*prefix, *[by_class[e % 3] for e in range(max(0, d - 2), d + 1)]))
    if checked != size:
        raise TheoremViolationError(f"the walk checked {checked} S-elements of a window that holds {size}")
    elements = [LaurentPoly(tuple([(e, n) for e, n in enumerate(t) if n])) for t in bad]
    elements.sort(key=lambda s: s.terms[-1][0] - s.terms[0][0])  # stable: by span, then tuple
    return ParityReport(checked, tuple(map(str, elements)))
