"""Unique lifting through augmentation-invertible matrices over the group ring.

The only module that matters here is the center truncation: the cyclic group
of order 2**m with the localized base group acting through b |-> -1 (the
module part acts trivially).  Matrices over the full group ring therefore act
through their Laurent-polynomial entries evaluated at b = -1 and reduced mod
2**m.  Such an action matrix is congruent to the augmentation matrix mod 2,
so augmentation-invertibility forces an odd determinant, and lifting is exact
linear algebra over the residue ring: Gauss-Jordan elimination with odd
pivots builds the inverse mod 2**m, and checking that inverse on both sides
certifies uniqueness.  A run's lifts are priced by ``lift_cost_ns`` before
any draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import PreconditionError, TheoremViolationError
from .laurent import LaurentPoly


@dataclass(frozen=True)
class NilpotentModuleSpec:
    """The center truncation Z/2**m with b acting by -1, module part trivially."""

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise PreconditionError("negative modulus exponent")

    @property
    def modulus(self) -> int:
        return 1 << self.m


@dataclass(frozen=True)
class RingMatrix:
    """A square matrix of Laurent polynomials."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.entries)


def _evaluate(t: RingMatrix, mod: int) -> tuple[list[list[int]], list[list[int]]]:
    """The augmentation matrix (b = 1) and the action matrix (b = -1, mod
    ``mod``) of t, in one pass over the terms of each entry."""
    aug, act = [], []
    for row in t.entries:
        aug.append(aug_row := [])
        act.append(act_row := [])
        for e in row:
            total = odd = 0
            for x, c in e.terms:
                total += c
                if x & 1:
                    odd += c
            aug_row.append(total)
            act_row.append((total - 2 * odd) % mod)
    return aug, act


def _bareiss_det(mat: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination: after
    step k the trailing block holds (k+1)-minors, so each division is exact."""
    a = [list(row) for row in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, pivot_row = a[k][k], a[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def _slot_width(m: int, n: int) -> int:
    return 2 * m + n.bit_length() + 2


def _inverse_mod_2k(mat: Sequence[Sequence[int]], mod: int) -> list[list[int]]:
    """Inverse mod 2**m (m >= 1) of a matrix of residues, by Gauss-Jordan on
    [mat | I], checked on both sides.  The units mod 2**m are the odd
    residues, so a column without an odd pivot means mat is singular mod 2.

    Each row is packed into one integer, entry j in bits [j w, (j + 1) w)
    for w = _slot_width(m, n); LOW holds 2**m - 1 and BIAS holds 2**(2m) in
    every slot.  A sum of packed rows whose slots all stay in [0, 2**w)
    carries nothing from one slot into the next, and ``& LOW`` then reduces
    every entry mod 2**m.  Scaling the pivot row p by u is p * u & LOW, with
    slots up to (2**m - 1)**2; clearing the lead l of a row r is
    (r + BIAS - l p) & LOW, with slots in (0, 2**(2m) + 2**m), and BIAS is
    0 mod 2**m.  Row i of a check X Y is the sum over k of X[i][k] times
    packed row k of Y, plus 2**m - 1 in slot i: its slots stay below
    n 2**(2m) + 2**m < 2**w, and are 0 mod 2**m exactly where X Y has the
    identity's entries.
    """
    n, m, mask = len(mat), mod.bit_length() - 1, mod - 1
    w = _slot_width(m, n)
    ones, k = 1, 1  # a 1 in each of at least 2n slots, by doubling
    while k < 2 * n:
        ones, k = ones | ones << k * w, 2 * k
    low, bias = (ones << m) - ones, ones << 2 * m
    packed = []
    for row in mat:
        packed.append(0)
        for x in reversed(row):
            packed[-1] = packed[-1] << w | x
    rows = [p | 1 << (n + i) * w for i, p in enumerate(packed)]
    for col in range(n):
        shift, piv = col * w, col
        while not rows[piv] >> shift & 1:
            piv += 1
            if piv == n:
                raise TheoremViolationError("action determinant is even despite unit augmentation")
        p, rows[piv] = rows[piv], rows[col]
        p = rows[col] = p * pow(p >> shift & mask, -1, mod) & low
        for r, row in enumerate(rows):
            lead = row >> shift & mask
            if lead and r != col:
                rows[r] = row + bias - lead * p & low
    inv_rows = [row >> n * w for row in rows]
    inv = [[row >> j * w & mask for j in range(n)] for row in inv_rows]
    # Two-sided inverse check: certifies ker = 0, hence uniqueness.
    for x, y_rows in ((inv, packed), (mat, inv_rows)):
        if any(sum(map(mul, row, y_rows)) + (mask << i * w) & low for i, row in enumerate(x)):
            raise TheoremViolationError("inverse verification failed")
    return inv


def delta_nilpotency_degree(module: NilpotentModuleSpec) -> int:
    """Least k with M * Delta^k = 0.

    Delta acts through (b - 1) |-> -2 (the module part contributes nothing),
    so M Delta^k is generated by (-2)^k mod 2**m, and once that dies it
    stays dead.  The least such k is found by doubling k until (-2)^k dies
    and then bisecting: O(log m) powers, where stepping k one at a time
    took time quadratic in m.  Computed by search, not assumed; the degree
    is exactly m: (-2)^m = 0 but (-2)^(m-1) != 0 mod 2**m.
    """
    mod = module.modulus

    def dies(k: int) -> bool:
        return (-2) ** k % mod == 0

    lo, hi = 0, 1  # the least k that dies is in [lo, hi]
    while not dies(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if dies(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def lift_unique(
    t: RingMatrix, alpha: Sequence[int], module: NilpotentModuleSpec
) -> list[int]:
    """The unique beta with beta composed with t equal to alpha.

    Requires the augmentation matrix of t to be invertible over the integers
    (determinant +-1, by Bareiss elimination).  The action matrix is then
    invertible mod 2, so odd-pivot elimination inverts it mod 2**m; beta is
    alpha times the inverse.  Existence is verified by substitution and
    uniqueness constructively: the computed two-sided inverse certifies the
    kernel of the action is zero.
    """
    n = t.n
    if len(alpha) != n:
        raise PreconditionError("alpha length must match matrix size")
    # Z/1 reduces every action entry to 0, so pivot parity is read mod 2 there.
    work = 1 << max(module.m, 1)
    aug, act = _evaluate(t, work)
    aug_det = _bareiss_det(aug)
    if aug_det not in (1, -1):
        raise PreconditionError(f"augmentation matrix determinant {aug_det} is not a unit")
    inv = _inverse_mod_2k(act, work)
    mod = module.modulus
    if mod == 1:
        return [0] * n
    alpha = [a % mod for a in alpha]
    beta = [sum(map(mul, row, alpha)) % mod for row in inv]
    # Existence check: beta composed with t reproduces alpha.
    if [sum(map(mul, row, beta)) % mod for row in act] != alpha:
        raise TheoremViolationError("lift does not reproduce alpha")
    return beta


def push_module(values: Sequence[int], m_from: int, m_to: int) -> list[int]:
    """Standard inclusion of the order-2**m_from truncation into a deeper one."""
    if m_to < m_from:
        raise PreconditionError("cannot push to a shallower truncation")
    shift = 1 << (m_to - m_from)
    return [(v * shift) % (1 << m_to) for v in values]


def _below(bits, n: int) -> int:
    """rng.randrange(n) for n >= 1 from bits = rng.getrandbits, draw for draw:
    the rejection loop of Random._randbelow_with_getrandbits."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_aug_invertible(rng: random.Random, n: int, degree_bound: int) -> RingMatrix:
    """A random matrix whose augmentation matrix is unimodular.

    Built as a product of elementary integer matrices, then perturbed by
    augmentation-zero polynomials, which leave the augmentation matrix alone.
    A draw ``_below(bits, b - a + 1) + a`` is ``rng.randint(a, b)``.
    """
    bits = rng.getrandbits
    base = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n * 3):
        i, j = _below(bits, n), _below(bits, n)
        if i != j:
            c = _below(bits, 5) - 2
            base[i] = [x + c * y for x, y in zip(base[i], base[j])]
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = {0: base[i][j]}
            for _ in range(_below(bits, 3)):
                e1, e2, c = _below(bits, degree_bound + 1), _below(bits, degree_bound + 1), _below(bits, 5) - 2
                # c*(b^e1 - b^e2) has augmentation zero
                coeffs[e1] = coeffs.get(e1, 0) + c
                coeffs[e2] = coeffs.get(e2, 0) - c
            row.append(LaurentPoly(tuple(sorted([(e, c) for e, c in coeffs.items() if c]))))
        entries.append(tuple(row))
    return RingMatrix(tuple(entries))


@dataclass(frozen=True)
class CohnReport:
    failures: int
    coherence_failures: int
    lifts: int
    coherence_checked: int

    @property
    def ok(self) -> bool:
        return not self.failures and self.coherence_failures == 0


# One run's bound, about a minute of lifts by lift_cost_ns (shared 2-vCPU VM,
# Python 3.11), which read the measured cost of a lift within a factor of 1.7
# from m = 4 to 150,000 and n = 1 to 100
COHN_WORK_BOUND_NS = 60_000_000_000


def lift_cost_ns(m: int, n: int) -> int:
    """The mean cost of one drawn and checked lift mod 2**m over the sizes
    k = 1..n that a trial draws, in ns: 20 us, 4 us per entry (the draws and
    the row steps), k^3 products of packed rows by m-bit leads (m^1.5 for
    CPython's Karatsuba) and k inverses mod 2**m."""
    k2, k3 = (n + 1) * (2 * n + 1) // 6, n * (n + 1) ** 2 // 4  # the means of k^2 and k^3
    return 20_000 + 4_000 * k2 + k3 * (145 + m * math.isqrt(m)) // 7 + (n + 1) * m * m // 2_700


def require_work_bound(m: int, n: int, trials: int, coherence_trials: int) -> None:
    """Reject, before any draw, a run whose trials and coherence checks (two
    lifts each) would take past COHN_WORK_BOUND_NS."""
    work = (trials + 2 * coherence_trials) * lift_cost_ns(m, n)
    if work > COHN_WORK_BOUND_NS:
        raise PreconditionError(
            f"{trials} trials and {coherence_trials} coherence checks at m = {m}, n = {n} would take about "
            f"{work // 10**9} s, past the bound of {COHN_WORK_BOUND_NS // 10**9} s of a cohn run"
        )


def cohn_local_suite(
    module: NilpotentModuleSpec,
    trials: int,
    size_bound: int,
    degree_bound: int,
    seed: int = 0,
    coherence_trials: int = 0,
) -> CohnReport:
    """Random unique-lifting trials, with optional direct-limit coherence
    checks, counting the lifts and checks it runs.

    Coherence: a lift computed at this truncation, pushed deeper, equals the
    lift computed deeper of the pushed data.
    """
    if size_bound < 1 or degree_bound < 0:
        raise PreconditionError("need matrix size bound >= 1 and degree bound >= 0")
    if trials < 0 or coherence_trials < 0 or trials + coherence_trials == 0:
        raise PreconditionError("need trial and coherence counts >= 0, not both 0")
    rng = random.Random(seed)
    bits = rng.getrandbits
    mod = module.modulus
    failures = coh_failures = lifts = checked = 0
    for k in range(trials + coherence_trials):
        n = _below(bits, size_bound) + 1
        t = random_aug_invertible(rng, n, degree_bound)
        alpha = [_below(bits, mod) for _ in range(n)]
        if k < trials:
            lifts += 1
            try:
                lift_unique(t, alpha, module)  # raises unless act * beta == alpha
            except TheoremViolationError:
                failures += 1
            continue
        deeper = NilpotentModuleSpec(module.m + _below(bits, 3) + 1)
        lifted_then_pushed = push_module(lift_unique(t, alpha, module), module.m, deeper.m)
        pushed_then_lifted = lift_unique(t, push_module(alpha, module.m, deeper.m), deeper)
        coh_failures += lifted_then_pushed != pushed_then_lifted
        checked += 1
    return CohnReport(failures, coh_failures, lifts, checked)
