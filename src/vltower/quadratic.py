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
prefix of its coefficient tuples at a time: the norms of all the tails
(``_tails``) that finish a prefix are the lanes of one packed integer, the
full-word technique of Lamport ("Multiple byte processing with full-word
instructions", CACM 18(8), 1975), and the window is counted apart from the
walk by ``_window_size``.

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


WINDOW_COEFF_BOUND = 8  # the tails table: at most (2c + 1)^3 lanes, under 1 MiB, and (2c + 1)^2 lanes a prefix
WINDOW_SIZE_BOUND = 100_000_000  # its slowest windows, (12, 2) and (17, 1), take about 14 s and 19 s


def _grid(d: int, c: int) -> tuple[range, range]:
    """The h and the m of the window's grid of tails (h, m, n): h, m and n
    sit at the exponents d - 2, d - 1 and d, and an exponent below 0 holds
    0.  Lane i len(ms) + j of the grid holds (hs[i], ms[j])."""
    rng = range(-c, c + 1)
    return (rng if d >= 2 else range(1)), (rng if d >= 1 else range(1))


def _tails(d: int, c: int, w: int, sums: int, ones: int) -> dict[int, int]:
    """The tails of the window of span d, coefficients in [-c, c], keyed by
    R = h + m + n for every R = 1 - sum(prefix) that a prefix (n_0, ...,
    n_{d-3}) reaches: a mask with a 1 in the grid lane (of width w) of each.

    ``ones`` has a 1 in every lane of the grid and ``sums`` h + m + 2c, in
    [0, 4c].  The tails of R are the lanes with R + c <= sums <= R + 3c,
    read for all lanes at once from the top bit of each lane of sums +
    (2^(w-1) - t) for the two thresholds t, which are in [-2c, 6c + 1]:
    with 2^(w-1) > 8c no lane borrows or carries."""
    half = 1 << w - 1

    def at_least(t):  # a 1 in the lanes of sums >= t
        return (sums + (half - t) * ones) >> w - 1 & ones

    spread = max(0, d - 2) * c  # the largest |sum(prefix)|
    tails = {}
    for r in range(max(1 - spread, -3 * c), min(1 + spread, 3 * c) + 1):
        if mask := at_least(r + c) & ~at_least(r + 3 * c + 1):
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
    """(w, bias, table, lanes_of) for the window of span d, coefficients in
    [-c, c].  The tails (h, m, n) sit on a grid of lanes of width w, one per
    (h, m); ``table`` maps each R to the mask of its tails' lanes and their
    count.  ``lanes_of`` takes the pair and the class sums of a prefix
    (n_0, ..., n_{d-3}) and gives None if no tail finishes it, else (R,
    table[R], lanes, odd): the lane of each tail of R holds |s| + bias for
    its element s, and ``odd`` has a 1 in the lanes whose element the pair
    formula predicts odd.

    With W the pair of the prefix plus R U^d, u = U^(d-2) - U^d and v =
    U^(d-1) - U^d, the pair of s is W + h u + m v.  For the norm form f and
    its bilinear part B, read from ``_norm_form`` by polarization, f(W + X)
    = f(W) + f(X) - f(0) + W B X^T, and f(h u + m v) = f(0) + h (f(u) -
    f(0)) + m (f(v) - f(0)) + C(h, 2) u B u^T + C(m, 2) v B v^T + h m u B
    v^T.  So the lanes of |s| are one packed polynomial in h and m, the
    same for every prefix (``quad``), plus f(W) + bias, W B u^T times h and
    W B v^T times m: three products of packed integers per prefix.  The
    pair formula, an integer polynomial in the class sums taken mod 2,
    depends on them only mod 2 and is read at points of {0, 1}^3: its lanes
    are those of the grid's four classes of (h mod 2, m mod 2) that it
    predicts odd for the class sums of the prefix mod 2.

    A lane is computed only for an R with tails, |R| <= 3c, so its n = R -
    h - m has |n| <= 5c, and |alpha| <= A and |beta| <= B with 5c times the
    entry sums of U^0, ..., U^d; then |s| <= |f(0)| + sum_i (|f(e_i) - f(0)|
    + |B_ii|) X_i + sum_ij |B_ij| X_i X_j / 2 with X = (A, B).  The bias is
    that bound made even, and w holds twice it: every lane is in [0, 2^w),
    and its lowest bit is the parity of |s|."""
    hs, ms = _grid(d, c)
    form = _norm_form
    q0, qa, qb = form(0, 0), form(1, 0), form(0, 1)
    # B, the bilinear part of the norm form, by polarization: f(x + y) - f(x) - f(y) + f(0)
    b00, b01, b11 = form(2, 0) - 2 * qa + q0, form(1, 1) - qa - qb + q0, form(0, 2) - 2 * qb + q0
    big_a = big_b = 0
    a, b = 1, 0  # the pair of U^e
    for _ in range(d + 1):
        big_a, big_b, a, b = big_a + abs(a), big_b + abs(b), b, a + Q * b
    big_a, big_b = 5 * c * big_a, 5 * c * big_b
    bound = (
        abs(q0)
        + (abs(qa - q0) + abs(b00)) * big_a
        + (abs(qb - q0) + abs(b11)) * big_b
        + (abs(b00) * big_a * big_a + 2 * abs(b01) * big_a * big_b + abs(b11) * big_b * big_b + 1) // 2
    )
    bias = bound + (bound & 1)
    w = max((bias + bound).bit_length(), (8 * c).bit_length() + 1)  # and 2^(w - 1) > 8c for ``_tails``
    uh, um, (na, nb) = _u_pair(d - 2), _u_pair(d - 1), _u_pair(d)
    u, v = (uh[0] - na, uh[1] - nb), (um[0] - na, um[1] - nb)
    # B u^T and B v^T
    bu0, bu1 = b00 * u[0] + b01 * u[1], b01 * u[0] + b11 * u[1]
    bv0, bv1 = b00 * v[0] + b01 * v[1], b01 * v[0] + b11 * v[1]
    # per m and per h, the lanes of 1, of it, of C(it, 2) and of it odd; the grid's lanes are their products
    ones_m = m_m = m2_m = odd_m = ones_h = h_h = h2_h = odd_h = 0
    for j, m in enumerate(ms):
        bit = 1 << w * j
        ones_m, m_m, m2_m, odd_m = ones_m + bit, m_m + m * bit, m2_m + m * (m - 1) // 2 * bit, odd_m + (m & 1) * bit
    for i, h in enumerate(hs):
        bit = 1 << w * len(ms) * i
        ones_h, h_h, h2_h, odd_h = ones_h + bit, h_h + h * bit, h2_h + h * (h - 1) // 2 * bit, odd_h + (h & 1) * bit
    ones, hl, ml = ones_m * ones_h, ones_m * h_h, m_m * ones_h
    table = {r: (mask, mask.bit_count()) for r, mask in _tails(d, c, w, hl + ml + 2 * c * ones, ones).items()}
    quad = (
        (form(*u) - q0) * hl
        + (form(*v) - q0) * ml
        + (u[0] * bu0 + u[1] * bu1) * ones_m * h2_h
        + (v[0] * bv0 + v[1] * bv1) * m2_m * ones_h
        + (u[0] * bv0 + u[1] * bv1) * m_m * h_h
    )
    even_m, even_h = ones_m - odd_m, ones_h - odd_h
    classes = ((0, 0, even_m * even_h), (0, 1, odd_m * even_h), (1, 0, even_m * odd_h), (1, 1, odd_m * odd_h))
    # the class sums of the tail (h, m, n) are h, m and n at the classes d - 2, d - 1 and d mod 3
    ch, cm, cn = (1 << e % PARITY_PERIOD for e in (d - 2, d - 1, d))
    parity = _pair_parity
    predicted = [None] * 8  # per class sums of the prefix mod 2, bit i for the class i, filled when first met

    def predicted_odd(x):
        # the class sums of the prefix are x mod 2, so R = 1 + x_0 + x_1 + x_2 mod 2
        r = 1 + (x & 1) + (x >> 1 & 1) + (x >> 2)
        odd = 0
        for h, m, lanes in classes:
            y = x ^ (ch * h | cm * m | cn * ((r - h - m) & 1))  # the class sums of the element mod 2
            if parity(y & 1, y >> 1 & 1, y >> 2) & 1:
                odd |= lanes
        predicted[x] = odd
        return odd

    get = table.get

    def lanes_of(pa, pb, c0, c1, c2):
        r = 1 - c0 - c1 - c2
        entry = get(r)
        if entry is None:
            return None
        x = (c0 & 1) | (c1 & 1) << 1 | (c2 & 1) << 2
        if (odd := predicted[x]) is None:
            odd = predicted_odd(x)
        wa, wb = pa + r * na, pb + r * nb
        return r, entry, quad + (form(wa, wb) + bias) * ones + (wa * bu0 + wb * bu1) * hl + (wa * bv0 + wb * bv1) * ml, odd

    return w, bias, table, lanes_of


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
    pair and class sums, and ``_window_lanes`` gives the norms of all its
    elements at once, one lane each of a packed integer, with a few
    products of packed integers; the pair formula's predictions are a mask
    per class sums mod 2, so the prefix is checked by one XOR and one AND.
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
    w, _, _, lanes_of = _window_lanes(d, c)
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
        r, (mask, count), lanes, odd = found
        checked += count
        if wrong := (lanes ^ odd) & mask:
            failed += wrong.bit_count()
            tails = enumerate(itertools.product(hs, ms))
            bad.extend((*prefix, *(h, m, r - h - m)[cut:]) for i, (h, m) in tails if wrong >> w * i & 1)
            if len(bad) > 2 * COUNTEREXAMPLE_LIST_BOUND:
                cut_back()
    if checked != size:
        raise TheoremViolationError(f"the walk checked {checked} S-elements of a window that holds {size}")
    cut_back()
    elements = (LaurentPoly(tuple([(e, n) for e, n in enumerate(t) if n])) for t in bad)
    return ParityReport(checked, failed, tuple(map(str, elements)))
