"""Unique lifting through augmentation-invertible matrices over the group ring.

The only module that matters here is the center truncation: the cyclic group
of order 2**m with the localized base group acting through b |-> -1 (the
module part acts trivially).  Matrices over the full group ring therefore act
through their Laurent-polynomial entries evaluated at b = -1 and reduced mod
2**m.  Such an action matrix is congruent to the augmentation matrix mod 2,
so augmentation-invertibility forces an odd determinant, and lifting is exact
linear algebra over the residue ring: Gauss-Jordan elimination with odd
pivots builds the inverse mod 2**m, and checking that inverse on both sides
certifies uniqueness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import PreconditionError, TheoremViolationError
from .laurent import LaurentPoly, augmentation


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

    def augmentation_matrix(self) -> list[list[int]]:
        return [[augmentation(e) for e in row] for row in self.entries]

    def action_matrix(self, module: NilpotentModuleSpec) -> list[list[int]]:
        """Evaluate entries at b = -1 and reduce mod 2**m."""
        mod = module.modulus
        return [[_eval_at_minus_one(e) % mod for e in row] for row in self.entries]


def _eval_at_minus_one(s: LaurentPoly) -> int:
    return sum(c * (-1) ** (e % 2) for e, c in s.terms)


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


def _inverse_mod_2k(mat: Sequence[Sequence[int]], mod: int) -> list[list[int]]:
    """Inverse mod 2**m (m >= 1) by Gauss-Jordan on [mat | I].  The units mod
    2**m are the odd residues, so a column without an odd pivot means mat is
    singular mod 2."""
    n = len(mat)
    rows = [[x % mod for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] % 2), None)
        if piv is None:
            raise TheoremViolationError("action determinant is even despite unit augmentation")
        rows[col], rows[piv] = rows[piv], rows[col]
        scale = pow(rows[col][col], -1, mod)
        pivot_row = rows[col] = [x * scale % mod for x in rows[col]]
        for r, row in enumerate(rows):
            lead = row[col]
            if lead and r != col:
                rows[r] = [(x - lead * y) % mod for x, y in zip(row, pivot_row)]
    return [row[n:] for row in rows]


def _mat_vec(mat: Sequence[Sequence[int]], vec: Sequence[int], mod: int) -> list[int]:
    return [sum(map(mul, row, vec)) % mod for row in mat]


def _mat_mul(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]], mod: int) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) % mod for col in cols] for row in x]


def delta_nilpotency_degree(module: NilpotentModuleSpec) -> int:
    """Least k with M * Delta^k = 0.

    Delta acts through (b - 1) |-> -2 (the module part contributes nothing),
    so the degree is exactly m: (-2)^m = 0 but (-2)^(m-1) != 0 mod 2**m.
    Computed by iterating, not assumed.
    """
    mod = module.modulus
    degree = 0
    # M Delta^k is generated by (-2)^k; iterate until it dies.
    gen = 1 % mod
    while gen != 0:
        gen = (gen * -2) % mod
        degree += 1
    return degree


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
    if len(alpha) != t.n:
        raise PreconditionError("alpha length must match matrix size")
    aug_det = _bareiss_det(t.augmentation_matrix())
    if aug_det not in (1, -1):
        raise PreconditionError(f"augmentation matrix determinant {aug_det} is not a unit")
    # Z/1 reduces every action entry to 0, so pivot parity is read mod 2 there.
    work = NilpotentModuleSpec(max(module.m, 1))
    act = t.action_matrix(work)
    inv = _inverse_mod_2k(act, work.modulus)
    mod = module.modulus
    if mod == 1:
        return [0] * t.n
    # Two-sided inverse check: certifies ker = 0, hence uniqueness.
    identity = [[int(i == j) for j in range(t.n)] for i in range(t.n)]
    if _mat_mul(inv, act, mod) != identity or _mat_mul(act, inv, mod) != identity:
        raise TheoremViolationError("inverse verification failed")
    beta = _mat_vec(inv, [a % mod for a in alpha], mod)
    # Existence check: beta composed with t reproduces alpha.
    if _mat_vec(act, beta, mod) != [a % mod for a in alpha]:
        raise TheoremViolationError("lift does not reproduce alpha")
    return beta


def push_module(values: Sequence[int], m_from: int, m_to: int) -> list[int]:
    """Standard inclusion of the order-2**m_from truncation into a deeper one."""
    if m_to < m_from:
        raise PreconditionError("cannot push to a shallower truncation")
    shift = 1 << (m_to - m_from)
    return [(v * shift) % (1 << m_to) for v in values]


def random_aug_invertible(rng: random.Random, n: int, degree_bound: int) -> RingMatrix:
    """A random matrix whose augmentation matrix is unimodular.

    Built as a product of elementary integer matrices, then perturbed by
    augmentation-zero polynomials, which leave the augmentation matrix alone.
    """
    base = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n * 3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for col in range(n):
            base[i][col] += c * base[j][col]
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = {0: base[i][j]}
            for _ in range(rng.randrange(0, 3)):
                e1, e2, c = rng.randint(0, degree_bound), rng.randint(0, degree_bound), rng.randint(-2, 2)
                # c*(b^e1 - b^e2) has augmentation zero
                coeffs[e1] = coeffs.get(e1, 0) + c
                coeffs[e2] = coeffs.get(e2, 0) - c
            row.append(LaurentPoly.from_dict(coeffs))
        entries.append(tuple(row))
    return RingMatrix(tuple(entries))


@dataclass(frozen=True)
class CohnReport:
    failures: int
    coherence_failures: int

    @property
    def ok(self) -> bool:
        return not self.failures and self.coherence_failures == 0


def cohn_local_suite(
    module: NilpotentModuleSpec,
    trials: int,
    size_bound: int,
    degree_bound: int,
    seed: int = 0,
    coherence_trials: int = 0,
) -> CohnReport:
    """Random unique-lifting trials, with optional direct-limit coherence checks.

    Coherence: a lift computed at this truncation, pushed deeper, equals the
    lift computed deeper of the pushed data.
    """
    if size_bound < 1 or degree_bound < 0:
        raise PreconditionError("need matrix size bound >= 1 and degree bound >= 0")
    if trials < 0 or coherence_trials < 0 or trials + coherence_trials == 0:
        raise PreconditionError("need trial and coherence counts >= 0, not both 0")
    rng = random.Random(seed)
    mod = module.modulus
    failures = coh_failures = 0
    for _ in range(trials):
        n = rng.randint(1, size_bound)
        t = random_aug_invertible(rng, n, degree_bound)
        alpha = [rng.randrange(mod) for _ in range(n)]
        try:
            lift_unique(t, alpha, module)  # raises unless act * beta == alpha
        except TheoremViolationError:
            failures += 1
    for _ in range(coherence_trials):
        n = rng.randint(1, size_bound)
        t = random_aug_invertible(rng, n, degree_bound)
        alpha = [rng.randrange(mod) for _ in range(n)]
        deeper = NilpotentModuleSpec(module.m + rng.randint(1, 3))
        lifted_then_pushed = push_module(lift_unique(t, alpha, module), module.m, deeper.m)
        pushed_then_lifted = lift_unique(t, push_module(alpha, module.m, deeper.m), deeper)
        coh_failures += lifted_then_pushed != pushed_then_lifted
    return CohnReport(failures, coh_failures)
