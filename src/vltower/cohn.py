"""Unique lifting through augmentation-invertible matrices over the group ring.

The only module that matters here is the center truncation: the cyclic group
of order 2**m with the localized base group acting through b |-> -1 (the
module part acts trivially).  Matrices over the full group ring therefore act
through their Laurent-polynomial entries evaluated at b = -1 and reduced mod
2**m.  Such an action matrix is congruent to the augmentation matrix mod 2,
so augmentation-invertibility forces an odd determinant, and lifting is exact
linear algebra over the residue ring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionError, TheoremViolationError
from .groups import TowerPrefix
from .laurent import LaurentPoly, ZERO, augmentation


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
        out = []
        for row in self.entries:
            out.append([_eval_at_minus_one(e) % mod for e in row])
        return out


def _eval_at_minus_one(s: LaurentPoly) -> int:
    return sum(c * (-1) ** (e % 2) for e, c in s.terms)


def _det(mat: Sequence[Sequence[int]]) -> int:
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for col in range(n):
        minor = [row[:col] + row[col + 1 :] for row in [list(r) for r in mat[1:]]]
        sign = -1 if col % 2 else 1
        total += sign * mat[0][col] * _det(minor)
    return total


def _adjugate(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(mat)
    if n == 1:
        return [[1]]
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            cof[i][j] = (-1) ** (i + j) * _det(minor)
    return [[cof[j][i] for j in range(n)] for i in range(n)]  # transpose


def _mat_vec(mat: Sequence[Sequence[int]], vec: Sequence[int], mod: int) -> list[int]:
    return [sum(row[j] * vec[j] for j in range(len(vec))) % mod for row in mat]


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
    (determinant +-1).  The action matrix then has odd determinant, hence is
    invertible mod 2**m; beta is alpha times the inverse.  Existence is
    verified by substitution and uniqueness constructively: the computed
    two-sided inverse certifies the kernel of the action is zero.
    """
    if len(alpha) != t.n:
        raise PreconditionError("alpha length must match matrix size")
    aug_det = _det(t.augmentation_matrix())
    if aug_det not in (1, -1):
        raise PreconditionError(
            f"augmentation matrix determinant {aug_det} is not a unit"
        )
    mod = module.modulus
    act = t.action_matrix(module)
    d = _det(act)
    if d % 2 == 0:
        raise TheoremViolationError("action determinant is even despite unit augmentation")
    if mod == 1:
        return [0] * t.n
    d_inv = pow(d % mod, -1, mod)
    adj = _adjugate(act)
    inv = [[(d_inv * adj[i][j]) % mod for j in range(t.n)] for i in range(t.n)]
    # Two-sided inverse check: certifies ker = 0, hence uniqueness.
    for i in range(t.n):
        for j in range(t.n):
            lhs = sum(inv[i][r] * act[r][j] for r in range(t.n)) % mod
            rhs = sum(act[i][r] * inv[r][j] for r in range(t.n)) % mod
            want = 1 if i == j else 0
            if lhs != want or rhs != want:
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
    entries: list[list[LaurentPoly]] = []
    for i in range(n):
        row = []
        for j in range(n):
            poly = LaurentPoly.constant(base[i][j]) if base[i][j] else ZERO
            for _ in range(rng.randrange(0, 3)):
                e1 = rng.randint(0, degree_bound)
                e2 = rng.randint(0, degree_bound)
                c = rng.randint(-2, 2)
                if e1 != e2 and c:
                    # c*(b^e1 - b^e2) has augmentation zero
                    poly = poly + LaurentPoly.from_dict({e1: c, e2: -c})
            row.append(poly)
        entries.append(row)
    return RingMatrix(tuple(tuple(row) for row in entries))


@dataclass(frozen=True)
class CohnTrial:
    n: int
    matrix: tuple[str, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    ok: bool


@dataclass(frozen=True)
class CohnReport:
    m: int
    trials: int
    size_bound: int
    degree_bound: int
    seed: int
    failures: tuple[CohnTrial, ...]
    coherence_checked: int
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
    rng = random.Random(seed)
    failures: list[CohnTrial] = []
    coh_failures = 0
    for _ in range(trials):
        n = rng.randint(1, size_bound)
        t = random_aug_invertible(rng, n, degree_bound)
        alpha = [rng.randrange(module.modulus) for _ in range(n)]
        try:
            beta = lift_unique(t, alpha, module)
            act = t.action_matrix(module)
            ok = _mat_vec(act, beta, module.modulus) == [
                a % module.modulus for a in alpha
            ]
        except TheoremViolationError:
            beta, ok = [], False
        if not ok:
            failures.append(
                CohnTrial(
                    n,
                    tuple(str(e) for row in t.entries for e in row),
                    tuple(alpha),
                    tuple(beta),
                    ok,
                )
            )
    checked = 0
    for _ in range(coherence_trials):
        n = rng.randint(1, size_bound)
        t = random_aug_invertible(rng, n, degree_bound)
        alpha = [rng.randrange(module.modulus) for _ in range(n)]
        deeper = NilpotentModuleSpec(module.m + rng.randint(1, 3))
        lifted_then_pushed = push_module(
            lift_unique(t, alpha, module), module.m, deeper.m
        )
        pushed_then_lifted = lift_unique(
            t, push_module(alpha, module.m, deeper.m), deeper
        )
        checked += 1
        if lifted_then_pushed != pushed_then_lifted:
            coh_failures += 1
    return CohnReport(
        m=module.m,
        trials=trials,
        size_bound=size_bound,
        degree_bound=degree_bound,
        seed=seed,
        failures=tuple(failures),
        coherence_checked=checked,
        coherence_failures=coh_failures,
    )


@dataclass(frozen=True)
class LocalityStatement:
    """Locality bookkeeping for a tower prefix: verified truncation evidence
    combined with assumed external inputs, each labeled."""

    emitted: bool
    levels_checked: tuple[int, ...]
    evidence_ok: bool
    assumed: tuple[str, ...]
    conclusion: str


def locality_report(
    tower: TowerPrefix, trials_per_level: int = 40, seed: int = 0
) -> LocalityStatement:
    """Cohn-locality evidence at every truncation level the prefix reaches.

    The center colimit is a direct limit of nilpotent modules, each machine
    checked here; that the localized base group is itself local is an
    external input, always labeled assumed, never verified.
    """
    levels = sorted({k for k in tower.levels if k >= 1})
    if not levels:
        return LocalityStatement(
            emitted=False,
            levels_checked=(),
            evidence_ok=True,
            assumed=(),
            conclusion="no positive truncation level in the prefix; nothing to certify",
        )
    ok = True
    for m in range(1, max(levels) + 1):
        rep = cohn_local_suite(
            NilpotentModuleSpec(m), trials_per_level, 3, 3, seed=seed, coherence_trials=5
        )
        ok = ok and rep.ok
    assumed = (
        "locality of the localized base group (external telescope input)",
        "extension of a local group by a Cohn-local module is local (external)",
        "the recognition principle: a local colimit of 2-connected maps is the localization",
    )
    return LocalityStatement(
        emitted=True,
        levels_checked=tuple(range(1, max(levels) + 1)),
        evidence_ok=ok,
        assumed=assumed,
        conclusion=(
            "every center truncation reached by the prefix is Cohn local "
            "(machine verified); combined with the assumed inputs, the colimit "
            "model is local"
        ),
    )
