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

The window of S that ``verify_parity_range`` checks is counted here too,
by parity states rather than element by element: a coefficient tuple's
class sums and pair mod 2 decide both its norm parity and the pair
formula's prediction, so ``_key_counts`` counts the tuples under each of
those 32 keys, as polynomials in the running sum packed in slots of one
integer per key, and the window is counted apart by ``_window_size``.

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


# the count's coefficient polynomials hold 2c + 1 slots: WINDOW_SIZE_BOUND alone would let span 1 take
# c = 5 * 10^7, with 10^8 slots of 54 bits (675 MB) a polynomial; at c = 8, (6, 8) takes 0.2 ms
WINDOW_COEFF_BOUND = 8
# its largest windows, (12, 2) and (17, 1), take about 0.2 ms, and 25 ms to list a failing window's
# counterexamples (fresh processes, 2-vCPU VM, Python 3.11); it predates the count and is kept (ROADMAP item 14)
WINDOW_SIZE_BOUND = 100_000_000


def _key_flip(e: int) -> int:
    """The change that an odd coefficient at exponent e makes to the key
    4 x + 2 (alpha mod 2) + beta mod 2 of a coefficient tuple, bit i of x
    its class sum N_i mod 2 and (alpha, beta) the pair of its s(U): it
    flips the class bit of e and adds U^e mod 2 to the pair.  An even
    coefficient changes nothing."""
    alpha, beta = _u_pair(e)
    return (1 << e % PARITY_PERIOD) << 2 | (alpha & 1) << 1 | beta & 1


def _key_counts(d: int, c: int) -> tuple[int, list[int]]:
    """(w, counts) for the window of span d, coefficients in [-c, c]: slot
    t + (d + 1) c of counts[key], w bits wide, holds the number of tuples
    (n_0, ..., n_d) with sum t and key ``key`` (see ``_key_flip``).

    The counts of the partial tuples are polynomials in z, the exponent of
    z their sum plus c per entry, packed in w-bit slots of one integer per
    key.  Each exponent multiplies them by the polynomial of the even
    coefficients, which keeps the key, and by that of the odd ones, which
    flips it.  No slot exceeds (2c + 1)^(d + 1) < 2^w, so none carries into
    the next."""
    w = ((2 * c + 1) ** (d + 1)).bit_length()
    even = sum(1 << w * (n + c) for n in range(-c, c + 1) if not n & 1)
    odd = sum(1 << w * (n + c) for n in range(-c, c + 1) if n & 1)
    counts = [1] + [0] * 31
    for e in range(d + 1):
        flip = _key_flip(e)
        counts = [counts[key] * even + counts[key ^ flip] * odd for key in range(32)]
    return w, counts


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

    The window's elements are its coefficient tuples (n_0, ..., n_D) that
    sum to 1, D = max_degree_span.  The norm form and the pair formula are
    integer polynomials, so |s| mod 2 is ``_norm_form`` read at the pair of
    s(U) mod 2, and the prediction ``_pair_parity`` read at the class sums
    mod 2: both are functions of a tuple's key, and ``_key_counts`` counts
    the tuples of sum 1 under each of the 32 keys.  Every counterexample is
    thereby counted.  Only a failing window is walked, element by element
    in report order (support span, then tuple), to list the first
    COUNTEREXAMPLE_LIST_BOUND of them; the walk stops there, and must find
    as many as the count says, else the check fails.  It costs a walk of
    the window only when its few failures come late.

    The bounds are checked before any power of U is built: 0 first (that
    window holds no S-element, and a check over nothing would pass
    vacuously), then the sign, WINDOW_COEFF_BOUND and WINDOW_SIZE_BOUND.
    The count of elements checked must equal ``_window_size``, so a count
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
    w, counts = _key_counts(d, c)
    at_one = [n >> w * (1 + (d + 1) * c) & (1 << w) - 1 for n in counts]  # the slot of sum 1
    checked = sum(at_one)
    if checked != size:
        raise TheoremViolationError(f"the state count holds {checked} S-elements of a window that holds {size}")
    # the norm parity at each pair mod 2, and the prediction at each x, bit i of x the class sum N_i mod 2
    form = [_norm_form(alpha, beta) for alpha in (0, 1) for beta in (0, 1)]
    prediction = [_pair_parity(x & 1, x >> 1 & 1, x >> 2) for x in range(8)]
    wrong = [(p ^ f) & 1 for p in prediction for f in form]  # at the key 4 x + 2 (alpha mod 2) + beta mod 2
    failed = sum(n for n, bad in zip(at_one, wrong) if bad)
    listed: list[str] = []
    if failed:
        want = min(failed, COUNTEREXAMPLE_LIST_BOUND)
        flips = [_key_flip(e) for e in range(d + 1)]

        def window():  # (offset, core) of each element, by support span, then tuple
            rng = range(-c, c + 1)
            for k in range(d + 1):
                offsets = range(d - k + 1)
                # a negative lead sorts first at the lowest offset, a positive one at the highest
                for leads, fs in ((range(-c, 0), offsets), (range(1, c + 1), reversed(offsets))):
                    for f, lead in itertools.product(fs, leads):
                        for middle in itertools.product(rng, repeat=max(0, k - 1)):
                            core = (lead, *middle, 1 - lead - sum(middle))[: k + 1]
                            if sum(core) == 1 and core[-1] and -c <= core[-1] <= c:
                                yield f, core

        for f, core in window():
            key = 0
            for e, n in enumerate(core, f):
                if n & 1:
                    key ^= flips[e]
            if wrong[key]:
                listed.append(str(LaurentPoly(tuple((e, n) for e, n in enumerate(core, f) if n))))
                if len(listed) == want:
                    break
        if len(listed) != want:
            raise TheoremViolationError(
                f"the walk found {len(listed)} of the first {want} of the {failed} counterexamples counted"
            )
    return ParityReport(checked, failed, tuple(listed))
