"""The rank-2 integer module carrying the conjugation action of b.

Coordinates are row vectors in the ordered basis {a, a^b}; b acts on the
right by the fixed matrix U = [[0, 1], [1, Q]], so that a |-> a^b is one
right multiplication and the defining relation a^(b^2) = a a^(Qb) of the
ambient group reads U^2 = QU + I.  Q = 3 is the relator's one coefficient,
named here once.  Evaluating an element s of the group ring at U gives
the multiplication-by-s map; its determinant is the norm |s| whose 2-adic
part drives everything downstream.

Since U^2 = QU + I, every s(U) is alpha I + beta U = [[alpha, beta], [beta,
alpha + Q beta]] for one integer pair (alpha, beta), and |s| = alpha^2 +
Q alpha beta - beta^2.  That pair is the one representation of the module
map here: no matrix is built.  Reading a row vector (x, y) as x I + y U
identifies Z^2 with Z[U], so v s(U) is the pair product of v with the pair
of s.  Powers of U are such pairs too, computed by doubling with
(alpha I + beta U)(gamma I + delta U) = (alpha gamma + beta delta) I +
(alpha delta + beta gamma + Q beta delta) U, so no kernel here loops over an
exponent.

The norm never needs the power of U at the lowest exponent f of s: with
s = b^f s0, det s(U) = det(U)^f det s0(U), and det U = -1, so |s| is
(-1)^f |s0|.  The pair of the core s0 is what Horner's rule produces
before its final product with U^f.

The window of S that ``verify_parity_range`` checks is walked here too, a
prefix of its coefficient tuples at a time: the parities of the norms of
all the tails (``_tails``) that finish a prefix are the one-bit lanes of one
integer, the full-word technique of Lamport ("Multiple byte processing with
full-word instructions", CACM 18(8), 1975), and the window is counted apart
from the walk by ``_window_size``.

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
Q = 3  # the coefficient of the relator a^(b^2) = a a^(Qb)
PARITY_PERIOD = 3  # the order of U mod 2 for odd Q, which sets the classes of the parity formula


def _pair_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(alpha I + beta U)(gamma I + delta U), reduced by U^2 = QU + I."""
    (alpha, beta), (gamma, delta) = x, y
    return alpha * gamma + beta * delta, alpha * delta + beta * gamma + Q * beta * delta


def _u_pair(i: int) -> tuple[int, int]:
    """(alpha, beta) with U^i = alpha I + beta U, by square-and-multiply:
    at most 2 log2 |i| pair products, none for i = 0 or +-1."""
    if not i:
        return 1, 0
    # U, or U^-1 = U - QI by Cayley-Hamilton
    return power(_pair_mul, (0, 1) if i > 0 else (-Q, 1), abs(i))


def _core_pair(s: LaurentPoly) -> tuple[int, int, int]:
    """(alpha, beta, f) with s(U) = (alpha I + beta U) U^f, f the lowest
    exponent of s, by Horner's rule from the top term down.  A gap of 1 to
    the next exponent is (alpha, beta) -> (beta, alpha + Q beta) and a longer
    gap one product with U^gap, so sparse polynomials of high degree stay
    logarithmic."""
    if not s.terms:
        return 0, 0, 0
    top, alpha = s.terms[-1]
    beta = 0
    for e, c in reversed(s.terms[:-1]):
        if top - e == 1:
            alpha, beta = beta + c, alpha + Q * beta
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
    """det((alpha I + beta U) U^f) = (-1)^f (alpha^2 + Q alpha beta - beta^2),
    because det U = -1."""
    n = alpha * alpha + Q * alpha * beta - beta * beta
    return -n if f & 1 else n


def ideal_contains(pair: tuple[int, int], v: Vec) -> bool:
    """v in Z^2 (alpha I + beta U), that is v = w (alpha I + beta U) for an
    integer row w: v adj divisible by det, with adj = (alpha + Q beta) I -
    beta U, one pair product.  The norm form has no nonzero integer root
    (its discriminant Q^2 + 4 is no square), so det = 0 only for (0, 0)."""
    det = _norm_form(*pair)
    if not det:
        return v == (0, 0)
    x, y = _pair_mul(v, (pair[0] + Q * pair[1], -pair[1]))
    return x % det == 0 and y % det == 0


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
    # mod Q, x^2 - Qx - 1 = (x - 1)(x + 1), so |s| = s(1) s(-1) = s(-1) on S
    if (n - sum(-c if e & 1 else c for e, c in s.terms)) % Q:
        raise TheoremViolationError(f"|s| = {n} differs from s(-1) mod {Q} for s={s}")
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
        sums[e % PARITY_PERIOD] += c
    if sum(sums) != 1:
        require_in_S(s)
    return _pair_parity(*sums)


# a window's grid holds (2c + 1)^2 one-bit lanes, 289 at c = 8, walked one at a time to set up its tails
# and to decode a failing prefix: WINDOW_SIZE_BOUND alone would let a window of span 1 hold 10^8 lanes
WINDOW_COEFF_BOUND = 8
# its slowest windows, (12, 2) and (17, 1), take about 6 s and 10 s (2-vCPU VM, Python 3.11)
WINDOW_SIZE_BOUND = 100_000_000


def _grid(d: int, c: int) -> tuple[range, range]:
    """The h and the m of the window's grid of tails (h, m, n): h, m and n
    sit at the exponents d - 2, d - 1 and d, and an exponent below 0 holds
    0.  Bit i len(ms) + j of a mask is the lane of (hs[i], ms[j])."""
    rng = range(-c, c + 1)
    return (rng if d >= 2 else range(1)), (rng if d >= 1 else range(1))


def _tails(d: int, c: int) -> dict[int, int]:
    """The tails of the window of span d, coefficients in [-c, c], keyed by
    R = h + m + n for every R = 1 - sum(prefix) that a prefix (n_0, ...,
    n_{d-3}) reaches: the mask of the lanes (h, m) with |R - h - m| <= c,
    a union of the grid's anti-diagonals h + m."""
    pad = 4 * c  # |R| + c: the slices below stay in the list
    diagonals = [0] * (2 * pad + 1)  # at pad + h + m, the lanes of h + m
    for i, (h, m) in enumerate(itertools.product(*_grid(d, c))):
        diagonals[pad + h + m] |= 1 << i
    spread = max(0, d - 2) * c  # the largest |sum(prefix)|
    tails = {}
    for r in range(max(1 - spread, -3 * c), min(1 + spread, 3 * c) + 1):
        if mask := sum(diagonals[pad + r - c : pad + r + c + 1]):
            tails[r] = mask
    return tails


def _prefixes(d: int, c: int):
    """(prefix, alpha, beta, N0, N1, N2) for each prefix (n_0, ..., n_{d-3})
    of the window, in lexicographic order: the pair of its p(U) and its
    class sums.  The last two entries come from a table of their (2c + 1)^2
    values, so the entries before them are summed by Horner's rule once
    per table."""
    k = max(0, d - 2)
    rng = range(-c, c + 1)
    j = min(k, 2)
    inner = [((), 0, 0, 0, 0, 0)]
    for e in range(k - j, k):
        (ua, ub), cls = _u_pair(e), e % PARITY_PERIOD
        inner = [
            (t + (n,), a + n * ua, b + n * ub, n0 + n * (cls == 0), n1 + n * (cls == 1), n2 + n * (cls == 2))
            for t, a, b, n0, n1, n2 in inner
            for n in rng
        ]
    for outer in itertools.product(rng, repeat=k - j):
        oa = ob = 0
        for n in reversed(outer):  # Horner: the pair of the entries before the last two
            oa, ob = ob + n, oa + Q * ob
        o0, o1, o2 = sum(outer[0::PARITY_PERIOD]), sum(outer[1::PARITY_PERIOD]), sum(outer[2::PARITY_PERIOD])
        for t, ia, ib, i0, i1, i2 in inner:
            yield outer + t, oa + ia, ob + ib, o0 + i0, o1 + i1, o2 + i2


def _window_lanes(d: int, c: int):
    """(table, lanes_of) for the window of span d, coefficients in [-c, c].
    The tails (h, m, n) sit on a grid of one-bit lanes, one per (h, m);
    ``table`` maps each R to the mask of its tails' lanes and their count.
    ``lanes_of`` takes the pair and the class sums of a prefix (n_0, ...,
    n_{d-3}) and gives None if no tail finishes it, else (R, table[R],
    wrong): ``wrong`` has a 1 in the lanes of the tails of R whose element
    s has |s| mod 2 unlike the pair formula's prediction.

    With W the pair of the prefix plus R U^d, u = U^(d-2) - U^d and v =
    U^(d-1) - U^d, the pair of s is W + h u + m v.  The norm form and the
    pair formula are integer polynomials, so |s| mod 2 is ``_norm_form``
    read at that pair mod 2, and the prediction ``_pair_parity`` read at the
    class sums mod 2, which R mod 2 follows.  Both depend only on W mod 2,
    the class sums of the prefix mod 2 and the grid's class (h mod 2, m mod
    2): a prefix's lanes of odd |s| are one of four masks, its predicted-odd
    lanes one of eight, and its wrong lanes, their XOR, one of at most 32,
    each a union of the grid's four classes, filled when first met."""
    hs, ms = _grid(d, c)
    odd = sum(1 << j for j, m in enumerate(ms) if m & 1)  # the lanes of odd m in a row h of the grid
    even = odd ^ (1 << len(ms)) - 1
    classes = [0, 0, 0, 0]  # the lanes of the grid's class (h mod 2, m mod 2), at 2 (h mod 2) + m mod 2
    for i, h in enumerate(hs):
        classes[2 * (h & 1)] |= even << len(ms) * i
        classes[2 * (h & 1) + 1] |= odd << len(ms) * i
    table = {r: (mask, mask.bit_count()) for r, mask in _tails(d, c).items()}
    uh, um, (na, nb) = _u_pair(d - 2), _u_pair(d - 1), _u_pair(d)
    u, v = (uh[0] - na, uh[1] - nb), (um[0] - na, um[1] - nb)
    # the class sums of the tail (h, m, n) are h, m and n at the classes d - 2, d - 1 and d mod 3
    ch, cm, cn = (1 << e % PARITY_PERIOD for e in (d - 2, d - 1, d))
    form, parity = _norm_form, _pair_parity
    wrong = [None] * 32  # per key 4 x + 2 (alpha mod 2) + beta mod 2 of a prefix, bit i of x its N_i mod 2

    def wrong_lanes(key):
        x = key >> 2
        r = 1 + (x & 1) + (x >> 1 & 1) + (x >> 2)  # R, up to a multiple of 2
        wa, wb = (key >> 1 & 1) + r * na, (key & 1) + r * nb  # W, up to multiples of 2
        lanes = 0
        for k, grid_class in enumerate(classes):
            h, m = k >> 1, k & 1
            y = x ^ (ch * h | cm * m | cn * ((r - h - m) & 1))  # the class sums of the element mod 2
            if (form(wa + h * u[0] + m * v[0], wb + h * u[1] + m * v[1]) ^ parity(y & 1, y >> 1 & 1, y >> 2)) & 1:
                lanes |= grid_class
        wrong[key] = lanes
        return lanes

    get = table.get

    def lanes_of(pa, pb, c0, c1, c2):
        r = 1 - c0 - c1 - c2
        entry = get(r)
        if entry is None:
            return None
        key = ((c2 & 1) << 2 | (c1 & 1) << 1 | c0 & 1) << 2 | (pa & 1) << 1 | pb & 1
        if (lanes := wrong[key]) is None:
            lanes = wrong_lanes(key)
        return r, entry, lanes & entry[0]

    return table, lanes_of


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


# a failing window counts all its counterexamples and lists the first of them in report order
COUNTEREXAMPLE_LIST_BOUND = 1_000


@dataclass(frozen=True)
class ParityReport:
    """Result of the exhaustive parity check over an enumeration window:
    ``failed`` counterexamples, the first COUNTEREXAMPLE_LIST_BOUND of them
    listed."""

    checked: int
    failed: int
    counterexamples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failed


def verify_parity_range(max_degree_span: int, max_abs_coeff: int) -> ParityReport:
    """Compare predicted_parity against the determinant parity on every
    S-element of the window: support in [0, max_degree_span], coefficients
    in [-max_abs_coeff, max_abs_coeff].

    The walk runs over the coefficient tuples (n_0, ..., n_D) that sum to 1,
    D = max_degree_span, in lexicographic order.  Each prefix
    (n_0, ..., n_{D-3}), empty for D < 3, comes from ``_prefixes`` with its
    pair and class sums, and ``_window_lanes`` gives the mask of its
    elements whose norm parity the pair formula predicts wrong, bit i for
    the grid's lane i: one of at most 32 masks per window, read by one AND.
    Only a prefix with a lane that disagrees is decoded.  Every
    counterexample is counted, and the first COUNTEREXAMPLE_LIST_BOUND of
    them by support span, then tuple, are listed: the walk keeps at most
    twice that many tuples, cut back whenever it holds more, so a failing
    window holds a bounded list however many elements fail.

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
    _, lanes_of = _window_lanes(d, c)
    hs, ms = _grid(d, c)
    cut = max(0, 2 - d)  # the tail entries at exponents below 0 are not in the tuple
    bad: list[tuple[int, ...]] = []
    checked = failed = 0

    def span(t):  # of the support of a coefficient tuple
        support = [i for i, n in enumerate(t) if n]
        return support[-1] - support[0]

    def cut_back():  # stable: by span, then tuple, since the walk appends in tuple order
        bad.sort(key=span)
        del bad[COUNTEREXAMPLE_LIST_BOUND:]

    for prefix, pa, pb, c0, c1, c2 in _prefixes(d, c):
        if (found := lanes_of(pa, pb, c0, c1, c2)) is None:
            continue
        r, (_, count), wrong = found
        checked += count
        if wrong:
            failed += wrong.bit_count()
            tails = enumerate(itertools.product(hs, ms))
            bad.extend((*prefix, *(h, m, r - h - m)[cut:]) for i, (h, m) in tails if wrong >> i & 1)
            if len(bad) > 2 * COUNTEREXAMPLE_LIST_BOUND:
                cut_back()
    if checked != size:
        raise TheoremViolationError(f"the walk checked {checked} S-elements of a window that holds {size}")
    cut_back()
    elements = (LaurentPoly(tuple([(e, n) for e, n in enumerate(t) if n])) for t in bad)
    return ParityReport(checked, failed, tuple(map(str, elements)))
