"""Reference code the tests check the package against; no claim runs it.

- ``Mat2`` is the plain 2x2 matrix form of the module map.  The package
  keeps every s(U) as its pair (alpha, beta) with s(U) = alpha I + beta U;
  ``pair_mat`` writes such a pair as the matrix [[alpha, beta], [beta,
  alpha + 3 beta]], and ``u_pow``, ``vec_mat`` and ``s_matrix`` give powers
  of U, row-vector products and s(U) in that form.
- ``ZERO``, ``ONE``, ``B`` and ``poly_add``, ``poly_neg``, ``poly_sub`` and
  ``poly_mul`` are the ring operators of Z[b, b^-1]; the package's
  ``LaurentPoly`` is a value type without them, since no claim adds or
  multiplies polynomials.
- ``enumerate_S`` lists the S-elements of a parity window in (span, lex)
  order, one core at a time: the order in which the package lists a
  failing window's counterexamples.
- ``window_key_counts`` counts a window's coefficient tuples by sum and by
  their key (class sums and pair of s(U), mod 2), one entry at a time: the
  recurrence the package's ``_key_counts`` runs on packed slots.
- ``shift`` multiplies a Laurent polynomial by b^m, and ``divide_exact`` is
  exact division in Z[b, b^-1].
- ``Fraction``/``frac_eq``, ``prefix_product`` and ``fraction_stage_vector``
  are S-fractions and their telescope representatives (acceptance c10).
- ``subgroup_contains`` is membership in a lower-central-series stage.
- ``dyadic_add``, ``dyadic_neg``, ``dyadic_double`` and ``dyadic_halve``
  are the dyadic arithmetic mod 1, with ``DYADIC_HALF``; the witness builds
  its preimage chains as residues, and halve of neg is their reference.
- ``center_make``, ``center_push``, ``center_push_to``, ``center_to_dyadic``
  and ``center_eq`` are the tower's center colimit on pairs (stage,
  residue): a push multiplies the residue by the edge norm mod 2**target_k,
  and the dyadic image divides by the product of the norms' odd parts.  The
  witness samples the dyadics directly, and each edge's center map is
  checked by the ``phi.center`` claim.
- ``aut7_apply``, ``aut7_compose`` and ``aut7_conj_record`` are the class-2
  map records with the module part as the four matrix entries (p, q, r, s),
  the form the package's records (e, c_A, c_B, alpha, beta) replaced.
- ``ref_aut_apply`` applies a package record (e, c_A, c_B, alpha, beta) as
  the collected product's center formula with the module part from
  ``quadratic._pair_mul``: the two steps that ``groups._aut_apply`` writes
  as one polynomial.
- ``center_samples_list`` draws the witness's default center samples as one
  list, each level's RNG sample taken whole.
- ``report_json`` is the stdlib encoding of a report that
  ``Report.to_json`` writes byte for byte.
- ``augmentation_matrix``, ``action_matrix``, ``inverse_mod_2k``,
  ``mat_mul`` and ``lift_unique`` are the Cohn lift on lists of residues,
  one entry at a time: the form the package's packed rows replaced.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as _QFrac
from operator import mul
from typing import Iterable, Iterator, Sequence

from vltower.cohn import NilpotentModuleSpec, RingMatrix, _bareiss_det
from vltower.errors import PreconditionError, TheoremViolationError
from vltower.groups import Model, TowerPrefix
from vltower.laurent import LaurentPoly, augmentation, power, require_in_S
from vltower.localization import Dyadic, dyadic_make
from vltower.quadratic import WINDOW_COEFF_BOUND, Vec, _pair_mul, _u_pair, evaluate_at_U, ideal_contains
from vltower.series import SubgroupData

# --- the 2x2 matrix form of the module map ------------------------------------


@dataclass(frozen=True)
class Mat2:
    """Row-major 2x2 integer matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    def rows(self) -> tuple[Vec, Vec]:
        return (self.a, self.b), (self.c, self.d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return self + (-other)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


IDENTITY = Mat2(1, 0, 0, 1)
U = Mat2(0, 1, 1, 3)


def pair_mat(alpha: int, beta: int) -> Mat2:
    return Mat2(alpha, beta, beta, alpha + 3 * beta)


def u_pow(i: int) -> Mat2:
    return pair_mat(*_u_pair(i))


def vec_mat(v: Vec, m: Mat2) -> Vec:
    return (v[0] * m.a + v[1] * m.c, v[0] * m.b + v[1] * m.d)


def s_matrix(s: LaurentPoly) -> Mat2:
    """s(U) as a matrix, from the package's pair."""
    return pair_mat(*evaluate_at_U(s))


# --- the ring operators of Z[b, b^-1] -----------------------------------------

ZERO = LaurentPoly()
ONE = LaurentPoly(((0, 1),))
B = LaurentPoly(((1, 1),))


def poly_add(x: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    out = dict(x.terms)
    for e, c in y.terms:
        out[e] = out.get(e, 0) + c
    return LaurentPoly.from_dict(out)


def poly_neg(x: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(tuple((e, -c) for e, c in x.terms))


def poly_sub(x: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    return poly_add(x, poly_neg(y))


def poly_mul(x: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    out: dict[int, int] = {}
    for (e1, c1), (e2, c2) in itertools.product(x.terms, y.terms):
        out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly.from_dict(out)


# --- the S-enumerator and exact division in Z[b, b^-1] ------------------------


def enumerate_S(max_degree_span: int, max_abs_coeff: int) -> Iterator[LaurentPoly]:
    """Enumerate S-elements with support in [0, max_degree_span], coefficients
    in [-max_abs_coeff, max_abs_coeff].

    Deterministic total order: ascending actual support span, then
    lexicographic on the coefficient tuple (n_0, ..., n_D) over the whole
    window, D = max_degree_span.  No duplicates: each polynomial corresponds
    to exactly one tuple within the fixed window.

    The elements stream in that order with nothing sorted, one core
    (lead, *middle, last) at offset f at a time: for a fixed span d,
    lexicographic order is every core with negative lead by ascending f,
    then every core with positive lead by descending f, and within one lead
    the middle coefficients in lexicographic order.  The last coefficient is
    1 - lead - sum(middle), kept when it is nonzero and within the bound;
    span 0 is the core (1).  The bounds are those of the package's window.
    """
    d_max, c = max_degree_span, max_abs_coeff
    if d_max < 0 or c < 0:
        raise PreconditionError("bounds must be nonnegative")
    if c > WINDOW_COEFF_BOUND:
        raise PreconditionError(f"coefficient bound {c} is past the window bound {WINDOW_COEFF_BOUND}")
    rng = range(-c, c + 1)
    for d in range(d_max + 1):
        offsets = range(d_max - d + 1)
        for leads, fs in ((range(-c, 0), offsets), (range(1, c + 1), reversed(offsets))):
            for f, lead in itertools.product(fs, leads):
                for middle in itertools.product(rng, repeat=max(0, d - 1)):
                    core = (lead, *middle, 1 - lead - sum(middle))[: d + 1]
                    if sum(core) == 1 and core[-1] and -c <= core[-1] <= c:
                        yield LaurentPoly(tuple((f + i, n) for i, n in enumerate(core) if n))


def window_key_counts(
    max_span: int, max_abs_coeff: int, values: Iterable[int] | None = None
) -> dict[int, dict[int, int]]:
    """{key: {t: count}}: the coefficient tuples (n_0, ..., n_max_span) in
    [-max_abs_coeff, max_abs_coeff], or in ``values``, with sum t, by key
    4 x + 2 (alpha mod 2) + beta mod 2, bit i of x the class sum N_i mod 2
    and (alpha, beta) the pair of s(U).  The partial-sum recurrence, one
    entry at a time, with the key carried along: an odd entry at exponent e
    flips the class bit of e and adds U^e mod 2, stepped one U at a time,
    to the pair."""
    values = range(-max_abs_coeff, max_abs_coeff + 1) if values is None else list(values)
    ways = {(0, 0): 1}  # ways[key, t]: tuples so far with key and sum t
    power = (1, 0)  # the pair of U^e
    for e in range(max_span + 1):
        flip = (1 << e % 3) << 2 | (power[0] & 1) << 1 | power[1] & 1
        nxt: dict[tuple[int, int], int] = {}
        for (key, t), w in ways.items():
            for n in values:
                step = (key ^ flip if n & 1 else key, t + n)
                nxt[step] = nxt.get(step, 0) + w
        ways = nxt
        power = power[1], power[0] + 3 * power[1]
    out: dict[int, dict[int, int]] = {}
    for (key, t), w in ways.items():
        out.setdefault(key, {})[t] = w
    return out


def shift(s: LaurentPoly, m: int) -> LaurentPoly:
    """s times b**m."""
    return LaurentPoly(tuple((e + m, c) for e, c in s.terms))


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """Exact division in Z[b, b^-1]: return q with den*q == num, else None.

    Division is performed over the rationals (shift both operands so the
    divisor is an honest polynomial with nonzero constant term); the result
    is accepted only when the remainder vanishes and q has integer
    coefficients.
    """
    if not den.terms:
        raise ZeroDivisionError("division by zero polynomial")
    if not num.terms:
        return ZERO
    nshift = num.min_exp
    dshift = den.min_exp
    rem: dict[int, _QFrac] = {e - nshift: _QFrac(c) for e, c in num.terms}
    d: dict[int, _QFrac] = {e - dshift: _QFrac(c) for e, c in den.terms}
    ddeg = max(d)
    dlead = d[ddeg]
    q: dict[int, _QFrac] = {}
    while rem:
        rdeg = max(rem)
        if rdeg < ddeg:
            return None
        f = rem[rdeg] / dlead
        q[rdeg - ddeg] = f
        for e, c in d.items():
            k = e + rdeg - ddeg
            v = rem.get(k, _QFrac(0)) - f * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    if any(f.denominator != 1 for f in q.values()):
        return None
    return LaurentPoly.from_dict({e + nshift - dshift: int(f) for e, f in q.items()})


# --- S-fractions and their telescope representatives ---------------------------


@dataclass(frozen=True)
class Fraction:
    """An element of the S-localized module: num / den with den in S.

    Fractions are compared by cross-multiplication, n_f den_g(U) = n_g
    den_f(U), which is transitive because every s-map on the module is
    injective (its determinant, the norm, is nonzero on S)."""

    num: Vec
    den: LaurentPoly

    def __post_init__(self):
        require_in_S(self.den)


def frac_eq(f: Fraction, g: Fraction) -> bool:
    return vec_mat(f.num, s_matrix(g.den)) == vec_mat(g.num, s_matrix(f.den))


def prefix_product(tower: TowerPrefix, stage: int) -> LaurentPoly:
    out = ONE
    for data in tower.phis[:stage]:
        out = poly_mul(out, data.s)
    return out


def fraction_stage_vector(f: Fraction, tower: TowerPrefix, stage: int) -> Vec | None:
    """Integral stage representative of a fraction, if its denominator is a
    divisor of the stage's telescope product within the edge monoid."""
    q = divide_exact(prefix_product(tower, stage), f.den)
    if q is None:
        return None
    return vec_mat(f.num, s_matrix(q))


# --- membership in a series stage, and dyadic addition --------------------------


def subgroup_contains(sub: SubgroupData, c: int, n: Vec, j: int, model: Model) -> bool:
    if j != 0 and sub.module != (1, 0):  # the b part is whole at stage 1 only
        return False
    if not ideal_contains(sub.module, n):
        return False
    if sub.center_exp is None:
        return c == 0 or not model.central
    step = 1 << sub.center_exp
    if model.k is None:
        return c % step == 0
    mod = 1 << model.k
    return (c % mod) % math.gcd(step, mod) == 0


DYADIC_HALF = Dyadic(1, 1)


def dyadic_add(x: Dyadic, y: Dyadic) -> Dyadic:
    k = max(x.k, y.k)
    return dyadic_make((x.num << (k - x.k)) + (y.num << (k - y.k)), k)


def dyadic_neg(x: Dyadic) -> Dyadic:
    return dyadic_make(-x.num, x.k)


def dyadic_double(x: Dyadic) -> Dyadic:
    return dyadic_make(2 * x.num, x.k)


def dyadic_halve(x: Dyadic) -> Dyadic:
    """The canonical preimage num / 2**(k+1) under doubling.

    Doubling is 2-to-1 with kernel {0, 1/2}; the other preimage is this one
    plus 1/2.
    """
    return dyadic_make(x.num, x.k + 1)


# --- the tower's center colimit -----------------------------------------------

# A center element seen at a tower stage is a pair (stage, residue): t^residue
# with the residue mod 2**(level of the stage).


def _stage_level(tower: TowerPrefix, stage: int) -> int:
    if not 0 <= stage < len(tower.levels):
        raise PreconditionError(f"stage {stage} outside tower of {len(tower.levels)} stages")
    return tower.levels[stage]


def center_make(tower: TowerPrefix, stage: int, residue: int) -> tuple[int, int]:
    return stage, residue % (1 << _stage_level(tower, stage))


def center_push(c: tuple[int, int], s: LaurentPoly, tower: TowerPrefix) -> tuple[int, int]:
    """One stage up along the edge s: the residue times the edge norm |s|."""
    stage, residue = c
    if not (stage < len(tower.phis) and tower.phis[stage].s == s):
        raise PreconditionError(f"no tower edge {s} leaves stage {stage}")
    edge = tower.phis[stage]
    return stage + 1, residue * edge.norm % (1 << edge.target_k)


def center_push_to(c: tuple[int, int], stage: int, tower: TowerPrefix) -> tuple[int, int]:
    while c[0] < stage:
        c = center_push(c, tower.phis[c[0]].s, tower)
    return c


def center_to_dyadic(c: tuple[int, int], tower: TowerPrefix) -> Dyadic:
    """The residue divided by u mod 2**k, with u the product of the odd parts
    of the edge norms below the stage: the tower's center maps differ from the
    doubling inclusions by u, so this makes the square with doubling commute."""
    stage, residue = c
    k = _stage_level(tower, stage)
    u = math.prod(edge.norm >> (edge.target_k - edge.source_k) for edge in tower.phis[:stage])
    return dyadic_make(residue * pow(u, -1, 1 << k), k)


def center_eq(c1: tuple[int, int], c2: tuple[int, int], tower: TowerPrefix) -> bool:
    stage = max(c1[0], c2[0])
    return center_push_to(c1, stage, tower) == center_push_to(c2, stage, tower)


# --- class-2 map records with the module part as a matrix --------------------

# (e, c_A, c_B, p, q, r, s): t |-> t^e, A |-> t^c_A A^p B^q, B |-> t^c_B A^r B^s.
Aut7 = tuple[int, int, int, int, int, int, int]
AUT7_CONJ_B: Aut7 = (-1, 3, 0, -3, 1, 1, 0)  # b X b^-1: A |-> t^3 A^-3 B, B |-> A
AUT7_CONJ_B_INV: Aut7 = (-1, 0, 0, 0, 1, 1, 3)  # b^-1 X b: A |-> B, B |-> A B^3


def aut7_apply(f: Aut7, h: tuple[int, int, int]) -> tuple[int, int, int]:
    """f(t)^c f(A)^m f(B)^n with f(t) = t^e, collected: each power by the b-free
    closed form, then A^(n r) moved left past B^(m q) at t^(-m n q r)."""
    e, c_a, c_b, p, q, r, s = f
    c, m, n = h
    return (
        e * c + m * c_a - m * (m - 1) // 2 * p * q
        + n * c_b - n * (n - 1) // 2 * r * s - m * n * q * r,
        m * p + n * r,
        m * q + n * s,
    )


def aut7_compose(f: Aut7, g: Aut7) -> Aut7:
    """The record of f after g."""
    c_a, p, q = aut7_apply(f, (g[1], g[3], g[4]))
    c_b, r, s = aut7_apply(f, (g[2], g[5], g[6]))
    return (f[0] * g[0], c_a, c_b, p, q, r, s)


def aut7_conj_record(j: int) -> Aut7:
    """The record of X |-> b^j X b^-j for j != 0, by square-and-multiply."""
    return power(aut7_compose, AUT7_CONJ_B if j > 0 else AUT7_CONJ_B_INV, abs(j))


def ref_aut_apply(f: tuple[int, int, int, int, int], h: tuple[int, int, int]) -> tuple[int, int, int]:
    """f(t)^c f(A)^m f(B)^n for a record with M = [[p, q], [r, s]] = [[alpha,
    beta], [beta, alpha + 3 beta]]: the center of aut7_apply with those entries,
    and the module part (m, n) M as one pair product."""
    e, c_a, c_b, alpha, beta = f
    c, m, n = h
    center = e * c + m * c_a + n * c_b - (
        m * (m - 1) // 2 * alpha + n * (n - 1) // 2 * (alpha + 3 * beta) + m * n * beta
    ) * beta
    return (center, *_pair_mul((m, n), (alpha, beta)))


# --- the witness's default center samples ------------------------------------------


def center_samples_list(seed: int) -> list[Dyadic]:
    rng = random.Random(seed)
    samples = []
    for k in range(1, 11):
        odds = list(range(1, 1 << k, 2))
        take = odds if len(odds) <= 7 else sorted(rng.sample(odds, 7))
        samples.extend(Dyadic(n, k) for n in take)
    return samples


# --- the stdlib encoding of a report ----------------------------------------------


def report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=1, separators=(",", ": "))


# --- the Cohn lift on lists of residues ----------------------------------------------


def augmentation_matrix(t: RingMatrix) -> list[list[int]]:
    return [[augmentation(e) for e in row] for row in t.entries]


def action_matrix(t: RingMatrix, module: NilpotentModuleSpec) -> list[list[int]]:
    """Entries evaluated at b = -1 and reduced mod 2**m."""
    return [[sum(c * (-1) ** (e % 2) for e, c in s.terms) % module.modulus for s in row] for row in t.entries]


def inverse_mod_2k(mat: Sequence[Sequence[int]], mod: int) -> list[list[int]]:
    """Inverse mod 2**m (m >= 1) by Gauss-Jordan on [mat | I], one residue
    at a time; a column without an odd pivot means mat is singular mod 2."""
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


def mat_mul(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]], mod: int) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) % mod for col in cols] for row in x]


def lift_unique(t: RingMatrix, alpha: Sequence[int], module: NilpotentModuleSpec) -> list[int]:
    """``cohn.lift_unique`` with the same checks and messages, on lists."""
    if len(alpha) != t.n:
        raise PreconditionError("alpha length must match matrix size")
    aug_det = _bareiss_det(augmentation_matrix(t))
    if aug_det not in (1, -1):
        raise PreconditionError(f"augmentation matrix determinant {aug_det} is not a unit")
    work = NilpotentModuleSpec(max(module.m, 1))
    act = action_matrix(t, work)
    inv = inverse_mod_2k(act, work.modulus)
    mod = module.modulus
    if mod == 1:
        return [0] * t.n
    identity = [[int(i == j) for j in range(t.n)] for i in range(t.n)]
    if mat_mul(inv, act, mod) != identity or mat_mul(act, inv, mod) != identity:
        raise TheoremViolationError("inverse verification failed")
    beta = [sum(map(mul, row, alpha)) % mod for row in inv]
    if [sum(map(mul, row, beta)) % mod for row in act] != [a % mod for a in alpha]:
        raise TheoremViolationError("lift does not reproduce alpha")
    return beta
