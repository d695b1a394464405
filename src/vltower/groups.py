"""The class-2 group kernel and the element models of the tower groups.

One law covers every group of the tower: the class-2 extension of the base
group H by its commutator t = [a, a^b], with normal form t^c A^m B^n b^j
(b rightmost).  A ``GammaKElem`` carries its center level k: None reads c in
Z (the infinite-center group G2), an integer k >= 0 reads c mod 2**k (the
truncation Gamma_k), and level 0 is the base group H itself (t dies).  The
kernel (``gamma_mul``, ``gamma_inv`` and what is built on them) creates
elements as plain tuples; only ``gamma_make`` and ``gamma_gen`` validate.
``Model`` is the validated selector H, G2 or Gamma<K>: it fixes the center
level and whether the lower central series keeps a center part (H does not).

Built on the kernel: ``HbarElem``, the localized base group with module
part an S-fraction, and ``LElem``, the colimit model over a built tower
prefix, stored as a staged truncation element.

Collection conventions (fixed once, used everywhere): x^y = y^-1 x y and
[x, y] = x^-1 y^-1 x y.  Writing A = a, B = a^b, the defining relations give
B A = A B t^-1 with t central among A, B, and conjugation by b acts as
A |-> B, B |-> A B^3, t |-> t^-1.  For an S-element s, a^s is the product of
the conjugates a^(n_i b^i) taken in ascending exponent order.

The kernel is logarithmic in every exponent; its closed forms are the Deep
Thought collection polynomials of this class-2 group (Leedham-Green and
Soicher, Symbolic collection using Deep Thought, LMS J. Comput. Math. 1,
1998).  Moving A^m2 left past B^n1 costs t^(-m2 n1), so a b-free power is
(t^c A^m B^n)^e = t^(e c - C(e,2) m n) A^(e m) B^(e n) for every integer e.
Conjugation by b^j is the class-2 automorphism fixed by t |-> t^((-1)^j) and
the images of A and B; it is stored as a record of those images, applied
with the same product law, and the record of b^j is built by squaring and
composing the records of b and b^-1.  The independent ``word_oracle`` never
uses these aggregate forms: it evaluates words by prepending one generator
at a time, crossing b letter by letter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    InsufficientTowerError,
    LevelMismatchError,
    PreconditionError,
    TheoremViolationError,
)
from .laurent import ONE, LaurentPoly, divide_exact, require_in_S
from .localization import CenterColim, Fraction, frac_eq
from .quadratic import Vec, evaluate_at_U, norm, two_adic_split, u_pow, vec_mat


@dataclass(frozen=True)
class Model:
    """A validated model selector, parsed from H, G2 or Gamma<K>.

    ``k`` is the center level of the model's elements: None for G2 (t of
    infinite order), K for Gamma_K (t of order 2**K), and 0 for H.
    ``central`` is False only for H, whose series stages have no center
    part; that is what tells H apart from Gamma0.
    """

    k: int | None
    central: bool = True

    def __post_init__(self):
        if self.k is not None and self.k < 0:
            raise PreconditionError(f"negative truncation level {self.k}")
        if not self.central and self.k != 0:
            raise PreconditionError("only the level-0 model can drop the center")

    @classmethod
    def parse(cls, text: str) -> Model:
        if text == "H":
            return cls(0, central=False)
        if text == "G2":
            return cls(None)
        digits = text[5:]
        if text[:5].lower() == "gamma" and digits.isascii() and digits.isdigit():
            return cls(int(digits))
        raise PreconditionError(f"unknown model {text!r}; use H, G2, or GammaK with K >= 0")

    @property
    def is_truncation(self) -> bool:
        """Gamma_K: a center of finite order 2**K."""
        return self.central and self.k is not None


# ---------------------------------------------------------------------------
# conjugation by b on the class-2 subgroup generated by A, B, t, as (c, m, n)
# triples meaning t^c A^m B^n


Triple = tuple[int, int, int]
# (sign, c_A, c_B, p, q, r, s): t |-> t^sign, A |-> t^c_A A^p B^q, B |-> t^c_B A^r B^s.
Aut = tuple[int, int, int, int, int, int, int]
_CONJ_B: Aut = (-1, 3, 0, -3, 1, 1, 0)  # b X b^-1: A |-> t^3 A^-3 B, B |-> A
_CONJ_B_INV: Aut = (-1, 0, 0, 0, 1, 1, 3)  # b^-1 X b: A |-> B, B |-> A B^3


def _aut_apply(f: Aut, h: Triple) -> Triple:
    """f(t)^c f(A)^m f(B)^n, collected: each power by the b-free closed form,
    then A^(n r) moved left past B^(m q) at t^(-m n q r)."""
    sign, c_a, c_b, p, q, r, s = f
    c, m, n = h
    return (
        sign * c + m * c_a - m * (m - 1) // 2 * p * q
        + n * c_b - n * (n - 1) // 2 * r * s - m * n * q * r,
        m * p + n * r,
        m * q + n * s,
    )


def _aut_compose(f: Aut, g: Aut) -> Aut:
    """The record of f after g."""
    c_a, p, q = _aut_apply(f, (g[1], g[3], g[4]))
    c_b, r, s = _aut_apply(f, (g[2], g[5], g[6]))
    return (f[0] * g[0], c_a, c_b, p, q, r, s)


def _conj_record(j: int) -> Aut:
    """The record of X |-> b^j X b^-j for j != 0, by square-and-multiply:
    at most 2 log2 |j| compositions, none for j = +-1."""
    base, e = (_CONJ_B if j > 0 else _CONJ_B_INV), abs(j)
    while not e & 1:
        base, e = _aut_compose(base, base), e >> 1
    out = base
    while e := e >> 1:
        base = _aut_compose(base, base)
        if e & 1:
            out = _aut_compose(out, base)
    return out


def conj_by_b_pow(h: Triple, j: int) -> Triple:
    """b^j (t^c A^m B^n) b^-j: module part (m, n) U^-j, center by the record of b^j."""
    return _aut_apply(_conj_record(j), h) if j else h


# ---------------------------------------------------------------------------
# the class-2 kernel: t^c A^m B^n b^j at center level k


class GammaKElem(NamedTuple):
    """t^c a^(n1) (a^b)^(n2) b^j; c read in Z (k None) or mod 2**k."""

    k: int | None
    c: int
    n: Vec
    j: int


def _center(k: int | None, c: int) -> int:
    return c if k is None else c % (1 << k)


def gamma_make(k: int | None, c: int, n: Vec, j: int) -> GammaKElem:
    if k is not None and k < 0:
        raise PreconditionError(f"negative truncation level {k}")
    return GammaKElem(k, _center(k, c), n, j)


def gamma_identity(k: int | None) -> GammaKElem:
    return gamma_make(k, 0, (0, 0), 0)


def gamma_gen(k: int | None, name: str) -> GammaKElem:
    vec = {"a": (1, 0), "ab": (0, 1)}.get(name)
    if vec is not None:
        return gamma_make(k, 0, vec, 0)
    if name == "b":
        return gamma_make(k, 0, (0, 0), 1)
    if name == "t":
        return gamma_make(k, 1, (0, 0), 0)
    raise ValueError(f"unknown generator {name!r}")


def gamma_mul(x: GammaKElem, y: GammaKElem) -> GammaKElem:
    if x.k != y.k:
        raise LevelMismatchError(f"levels {x.k} and {y.k}")
    c2, m2, n2 = conj_by_b_pow((y.c, *y.n), x.j)
    m1, n1 = x.n
    # Moving A^m2 left past B^n1 costs t^(-m2*n1), one BA -> AB t^-1 swap at a time.
    c = x.c + c2 - m2 * n1
    return GammaKElem(x.k, _center(x.k, c), (m1 + m2, n1 + n2), x.j + y.j)


def gamma_inv(x: GammaKElem) -> GammaKElem:
    m, n = x.n
    c, m, n = conj_by_b_pow((-x.c - m * n, -m, -n), -x.j)
    return GammaKElem(x.k, _center(x.k, c), (m, n), -x.j)


def gamma_pow(x: GammaKElem, e: int) -> GammaKElem:
    """x^e for every integer e.  A b-free x = t^c A^m B^n has the closed form
    t^(e c - C(e,2) m n) A^(e m) B^(e n); square-and-multiply is left only
    for elements with a b part."""
    if not x.j:
        m, n = x.n
        c = e * x.c - e * (e - 1) // 2 * m * n
        return GammaKElem(x.k, _center(x.k, c), (e * m, e * n), 0)
    if e < 0:
        return gamma_pow(gamma_inv(x), -e)
    out = gamma_identity(x.k)
    base = x
    while e:
        if e & 1:
            out = gamma_mul(out, base)
        base = gamma_mul(base, base)
        e >>= 1
    return out


def gamma_conj(x: GammaKElem, y: GammaKElem) -> GammaKElem:
    return gamma_mul(gamma_inv(y), gamma_mul(x, y))


def gamma_comm(x: GammaKElem, y: GammaKElem) -> GammaKElem:
    """[x, y] = x^-1 y^-1 x y, evaluated as (y x)^-1 (x y)."""
    return gamma_mul(gamma_inv(gamma_mul(y, x)), gamma_mul(x, y))


def base_form(x: GammaKElem) -> tuple[Vec, int]:
    """Quotient by the center: t^c a^n b^j |-> b^j a^(n U^j), as (n U^j, j)."""
    return vec_mat(x.n, u_pow(x.j)), x.j


# ---------------------------------------------------------------------------
# word oracle: slow, letter-level evaluator over the rewriting rules

Word = Sequence[tuple[str, int]]
"""A word: pairs (generator, exponent) with generator in {"a", "b"}."""


class _OracleState:
    """Normal form t^c A^m B^n b^j built by prepending letters.

    Only single-letter rewrite rules are used: t is central among A and B;
    one B past A^m costs t^-m (m swaps of BA -> AB t^-1); crossing one b
    rebuilds the prefix from the letter images b X b^-1 (t -> t^-1,
    A -> t^3 A^-3 B, B -> A) or b^-1 X b (t -> t^-1, A -> B, B -> A B^3),
    appended one letter or run at a time.
    """

    __slots__ = ("c", "m", "n", "j", "mod")

    def __init__(self, modulus: int | None):
        self.c = 0
        self.m = 0
        self.n = 0
        self.j = 0
        self.mod = modulus

    def _reduce(self):
        if self.mod is not None:
            self.c %= self.mod

    # appends act on the A/B prefix only (used while rebuilding after a b-crossing)
    def _append_t(self, e: int):
        self.c += e

    def _append_a(self, e: int):
        self.c -= e * self.n  # A^e crossing B^n
        self.m += e

    def _append_b_gen(self, e: int):
        self.n += e

    def prepend_t(self, e: int):
        self.c += e
        self._reduce()

    def prepend_a(self, e: int):
        self.m += e

    def prepend_ab(self, e: int):
        self.c -= e * self.m  # B^e crossing A^m
        self.n += e
        self._reduce()

    def prepend_b(self, e: int):
        if e not in (1, -1):
            raise ValueError("prepend one b at a time")
        src_c, src_m, src_n = self.c, self.m, self.n
        self.c, self.m, self.n = -src_c, 0, 0
        if e == 1:
            # b A b^-1 = t^3 A^-3 B; inverse letters in reversed order.
            if src_m >= 0:
                for _ in range(src_m):
                    self._append_t(3)
                    self._append_a(-3)
                    self._append_b_gen(1)
            else:
                for _ in range(-src_m):
                    self._append_b_gen(-1)
                    self._append_a(3)
                    self._append_t(-3)
            self._append_a(src_n)  # b B b^-1 = A
        else:
            self._append_b_gen(src_m)  # b^-1 A b = B
            # b^-1 B b = A B^3; inverse letters in reversed order.
            if src_n >= 0:
                for _ in range(src_n):
                    self._append_a(1)
                    self._append_b_gen(3)
            else:
                for _ in range(-src_n):
                    self._append_b_gen(-3)
                    self._append_a(-1)
        self.j += e
        self._reduce()


def _oracle_collect(word: Word, modulus: int | None) -> tuple[int, int, int, int]:
    st = _OracleState(modulus)
    for gen, e in reversed(list(word)):
        if e == 0:
            continue
        if gen == "a":
            st.prepend_a(e)
        elif gen == "b":
            sgn = 1 if e > 0 else -1
            for _ in range(abs(e)):
                st.prepend_b(sgn)
        elif gen == "t":
            st.prepend_t(e)
        elif gen == "ab":
            sgn = 1 if e > 0 else -1
            for _ in range(abs(e)):
                st.prepend_ab(sgn)
        else:
            raise ValueError(f"unknown generator {gen!r}")
    st._reduce()
    return st.c, st.m, st.n, st.j


def word_oracle(word: Word, model: Model) -> GammaKElem:
    """Evaluate a word over {a, b} (plus derived letters t, ab) in a model.

    This path shares no formulas with the closed-form laws beyond the single
    rewrite rules listed on _OracleState.
    """
    if not isinstance(model, Model):
        raise PreconditionError(f"not a model: {model!r}")
    c, m, n, j = _oracle_collect(word, None if model.k is None else 1 << model.k)
    return GammaKElem(model.k, c, (m, n), j)


def eval_word(word: Word, model: Model) -> GammaKElem:
    """Evaluate a word with the closed-form law."""
    out = gamma_identity(model.k)
    for gen, e in word:
        out = gamma_mul(out, gamma_pow(gamma_gen(model.k, gen), e))
    return out


# ---------------------------------------------------------------------------
# the maps between truncation levels


def a_power_s(s: LaurentPoly) -> GammaKElem:
    """a^s in G2: the product of a^(n_i b^i) over the support of s, ascending."""
    out = gamma_identity(None)
    for e, coeff in s.terms:
        c, m, n = conj_by_b_pow((0, coeff, 0), -e)
        out = gamma_mul(out, GammaKElem(None, c, (m, n), 0))
    return out


def relator_defect(s: LaurentPoly) -> tuple[int, int, GammaKElem]:
    """Exact center bookkeeping of the image of the defining relation.

    Returns (l, d, a^s) computed with the integer center: l is the exponent
    in (a^s)^(b^2) = a^s (a^(3s))^b t^l, and d = center(a^(3s)) -
    center((a^s)^3) measures how far a^(3s) is from being the cube of a^s.
    Both module-part identities are asserted on the way.
    """
    require_in_S(s)
    x = a_power_s(s)
    y = a_power_s(s.scale(3))
    b = gamma_gen(None, "b")
    lhs = gamma_conj(gamma_conj(x, b), b)
    rhs = gamma_mul(x, gamma_conj(y, b))
    if lhs.n != rhs.n:
        raise TheoremViolationError(f"relator module parts differ for s={s}")
    x3 = gamma_pow(x, 3)
    if y.n != x3.n:
        raise TheoremViolationError(f"cube module parts differ for s={s}")
    return lhs.c - rhs.c, y.c - x3.c, x


@dataclass(frozen=True)
class PhiData:
    """A validated level map: a |-> a^s t^r, b |-> b, from level source_k.

    ``norm`` is |s|, the exponent of the center image t |-> t^|s|; its 2-adic
    valuation is the level step target_k - source_k.  ``r`` is the unique
    solution of the relator equation in the target group (the congruence
    3r = d - l mod 2**target_k with l, d from relator_defect); ``l`` is the
    source-level value of the relation exponent, ``l_exact`` its integer
    refinement.  ``source_congruence_ok`` records whether r also satisfies
    the historical source-level congruence 3r = l mod 2**source_k, which is
    a consistency note and not an input to the construction.
    """

    s: LaurentPoly
    norm: int
    source_k: int
    target_k: int
    r: int
    l: int
    l_exact: int
    source_congruence_ok: bool
    img_a: GammaKElem = field(repr=False)
    img_ab: GammaKElem = field(repr=False)
    img_t: GammaKElem = field(repr=False)

    @property
    def p(self) -> int:
        return self.target_k - self.source_k


def _gamma_iterated_comm_with_b(x: GammaKElem, times: int) -> GammaKElem:
    out = x
    bgen = gamma_gen(x.k, "b")
    for _ in range(times):
        out = gamma_comm(out, bgen)
    return out


def phi_build(s: LaurentPoly, k: int) -> PhiData:
    """Construct and verify the level map for edge s leaving level k.

    The center exponent r is solved in the *target* group, where the map must
    be well-defined; every defining relator of the source is then evaluated
    on the images and required to vanish.

    ``require_in_S`` is the one check behind two claims about the map: with
    b = 1 the target collapses to Z/gcd(3, augmentation(s)) modulo the
    normal closure of the image, and the map multiplies first homology
    Z/3 (+) Z by augmentation(s) on the Z/3 summand.  Both hold once
    augmentation(s) is a unit mod 3, and an S-element has augmentation 1.
    """
    require_in_S(s)
    if k < 0:
        raise PreconditionError("negative source level")
    s_norm = norm(s)
    p, _ = two_adic_split(s_norm)
    target_k = k + p
    l_exact, d, x = relator_defect(s)
    target_mod = 1 << target_k
    # 3 is invertible mod any power of two.
    r = ((d - l_exact) * pow(3, -1, target_mod)) % target_mod

    img_a = gamma_make(target_k, x.c + r, x.n, 0)
    bgen = gamma_gen(target_k, "b")
    img_ab = gamma_conj(img_a, bgen)
    img_t = gamma_comm(img_a, img_ab)

    expected_t = gamma_make(target_k, s_norm, (0, 0), 0)
    if img_t != expected_t:
        raise TheoremViolationError(
            f"center image for s={s}, k={k}: got {img_t}, expected t^{s_norm}"
        )

    # Relator images in the target group.
    lhs = gamma_conj(gamma_conj(img_a, bgen), bgen)
    rhs = gamma_mul(img_a, gamma_conj(gamma_pow(img_a, 3), bgen))
    if lhs != rhs:
        raise TheoremViolationError(f"main relator image nonzero for s={s}, k={k}")
    for other in (img_a, img_ab):
        if gamma_comm(img_t, other) != gamma_identity(target_k):
            raise TheoremViolationError(f"centrality relator image nonzero for s={s}, k={k}")
    if _gamma_iterated_comm_with_b(img_t, k) != gamma_identity(target_k):
        raise TheoremViolationError(f"order relator image nonzero for s={s}, k={k}")

    source_mod = 1 << k
    l_mod = l_exact % source_mod
    source_ok = (3 * r - l_exact) % source_mod == 0
    return PhiData(
        s=s,
        norm=s_norm,
        source_k=k,
        target_k=target_k,
        r=r,
        l=l_mod,
        l_exact=l_exact,
        source_congruence_ok=source_ok,
        img_a=img_a,
        img_ab=img_ab,
        img_t=img_t,
    )


def phi_apply(phi_data: PhiData, g: GammaKElem) -> GammaKElem:
    if g.k != phi_data.source_k:
        raise LevelMismatchError(
            f"element at level {g.k}, map expects {phi_data.source_k}"
        )
    out = gamma_pow(phi_data.img_t, g.c)
    out = gamma_mul(out, gamma_pow(phi_data.img_a, g.n[0]))
    out = gamma_mul(out, gamma_pow(phi_data.img_ab, g.n[1]))
    return gamma_mul(out, gamma_pow(gamma_gen(phi_data.target_k, "b"), g.j))


# ---------------------------------------------------------------------------
# tower prefixes


@dataclass(frozen=True)
class TowerPrefix:
    """A finite prefix of the tower: one validated level map per edge.

    ``levels[i]`` is the center level of stage i: 0, then the target level
    of each map in turn.
    """

    levels: tuple[int, ...]
    phis: tuple[PhiData, ...]

    @property
    def max_level(self) -> int:
        return self.levels[-1]

    def prefix_product(self, stage: int) -> LaurentPoly:
        out = ONE
        for data in self.phis[:stage]:
            out = out * data.s
        return out

    def has_even_edge(self) -> bool:
        return any(data.norm % 2 == 0 for data in self.phis)


def tower_build(edges: Iterable[LaurentPoly]) -> TowerPrefix:
    """Build a validated tower prefix from S-edges.

    Each edge gets a verified level map; the bottom square of the diagram
    (projection to the base group intertwines the map with the s-action) is
    spot-checked on deterministic sample elements.
    """
    levels = [0]
    phis: list[PhiData] = []
    for s in edges:
        data = phi_build(s, levels[-1])
        _check_base_diagram(data)
        levels.append(data.target_k)
        phis.append(data)
    return TowerPrefix(tuple(levels), tuple(phis))


def _check_base_diagram(data: PhiData) -> None:
    k = data.source_k
    pool = [
        gamma_make(k, c, (m, n), j)
        for c, m in ((0, -1), (0, 0), (0, 2), (1, -1))
        for n in (0, 1)
        for j in (-1, 0, 1)
    ]
    s_matrix = evaluate_at_U(data.s)
    for g in pool:
        n, j = base_form(g)
        if base_form(phi_apply(data, g)) != (vec_mat(n, s_matrix), j):
            raise TheoremViolationError(
                f"base diagram does not commute for s={data.s} at level {k}"
            )


# ---------------------------------------------------------------------------
# the localized base group


@dataclass(frozen=True)
class HbarElem:
    """b^j a^f with f an S-fraction."""

    n: Fraction
    j: int


def hbar_mul(x: HbarElem, y: HbarElem) -> HbarElem:
    from .localization import frac_act_b, frac_add

    return HbarElem(frac_add(frac_act_b(x.n, y.j), y.n), x.j + y.j)


def hbar_inv(x: HbarElem) -> HbarElem:
    from .localization import frac_act_b, frac_neg

    return HbarElem(frac_neg(frac_act_b(x.n, -x.j)), -x.j)


def hbar_eq(x: HbarElem, y: HbarElem) -> bool:
    return x.j == y.j and frac_eq(x.n, y.n)


def hbar_from_h(x: GammaKElem) -> HbarElem:
    """The inclusion of the base group, on level-0 elements."""
    n, j = base_form(x)
    return HbarElem(Fraction(n, ONE), j)


# ---------------------------------------------------------------------------
# the colimit model


@dataclass(frozen=True)
class LElem:
    """An element of the colimit model: a truncation element at a tower stage."""

    stage: int
    g: GammaKElem


def l_identity(tower: TowerPrefix) -> LElem:
    return LElem(0, gamma_identity(tower.levels[0]))


def l_from_gamma(tower: TowerPrefix, stage: int, g: GammaKElem) -> LElem:
    if not (0 <= stage < len(tower.levels)):
        raise PreconditionError(f"stage {stage} outside tower")
    if g.k != tower.levels[stage]:
        raise LevelMismatchError(f"element level {g.k} != stage level {tower.levels[stage]}")
    return LElem(stage, g)


def fraction_stage_vector(f: Fraction, tower: TowerPrefix, stage: int) -> Vec | None:
    """Integral stage representative of a fraction, if its denominator is a
    divisor of the stage's telescope product within the edge monoid."""
    q = divide_exact(tower.prefix_product(stage), f.den)
    if q is None:
        return None
    return vec_mat(f.num, evaluate_at_U(q))


def l_make(center: CenterColim, f: Fraction, j: int, tower: TowerPrefix) -> LElem:
    """Assemble t^center a^f b^j at the center's stage."""
    stage = center.stage
    vec = fraction_stage_vector(f, tower, stage)
    if vec is None:
        raise InsufficientTowerError(
            f"denominator {f.den} is not realizable at stage {stage}"
        )
    k = tower.levels[stage]
    return LElem(stage, gamma_make(k, center.residue, vec, j))


def l_push_to(x: LElem, stage: int, tower: TowerPrefix) -> LElem:
    while x.stage < stage:
        x = LElem(x.stage + 1, phi_apply(tower.phis[x.stage], x.g))
    return x


def l_mul(x: LElem, y: LElem, tower: TowerPrefix) -> LElem:
    stage = max(x.stage, y.stage)
    xg = l_push_to(x, stage, tower).g
    yg = l_push_to(y, stage, tower).g
    return LElem(stage, gamma_mul(xg, yg))


def l_inv(x: LElem) -> LElem:
    return LElem(x.stage, gamma_inv(x.g))


def l_eq(x: LElem, y: LElem, tower: TowerPrefix) -> bool:
    stage = max(x.stage, y.stage)
    return l_push_to(x, stage, tower).g == l_push_to(y, stage, tower).g


def l_project(x: LElem, tower: TowerPrefix) -> HbarElem:
    """Drop the center: the localized-base-group component."""
    n, j = base_form(x.g)
    return HbarElem(Fraction(n, tower.prefix_product(x.stage)), j)


def l_parts(x: LElem, tower: TowerPrefix) -> tuple[CenterColim, Fraction, int]:
    """The (center, module fraction, b-exponent) coordinates at x's stage."""
    hb = l_project(x, tower)
    return CenterColim(x.stage, x.g.c), hb.n, x.g.j
