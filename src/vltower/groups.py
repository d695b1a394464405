"""The class-2 group kernel and the element models of the tower groups.

One law covers every group of the tower: the class-2 extension of the base
group H by its commutator t = [a, a^b], with normal form t^c A^m B^n b^j
(b rightmost).  The kernel works on its b-free part, the triples
(c, m, n) = t^c A^m B^n with an integer center, and reduces centers mod 2**k
(the truncation Gamma_k; level 0 is H itself, where t dies) only where two
values are compared.  ``Model`` is the validated selector H, G2 or
Gamma<K>: it fixes the center level (None for G2, whose t has infinite
order) and whether the lower central series keeps a center part (H does
not).

Built on the kernel: level maps and tower prefixes.

Collection conventions (fixed once, used everywhere): x^y = y^-1 x y and
[x, y] = x^-1 y^-1 x y.  Writing A = a, B = a^b, the defining relations give
B A = A B t^-1 with t central among A, B, and conjugation by b acts as
A |-> B, B |-> A B^Q (Q = ``quadratic.Q``), t |-> t^-1.  For an S-element s,
a^s is the product of the conjugates a^(n_i b^i) in ascending exponent
order, collected by Horner's rule on triples from the top term down; one
walk collects a^s and a^(Qs) together, applying each gap's record to both,
and its last step is the conjugation by b^-f, f the lowest exponent.

The kernel is logarithmic in every exponent; its closed forms are the Deep
Thought collection polynomials of this class-2 group (Leedham-Green and
Soicher, Symbolic collection using Deep Thought, LMS J. Comput. Math. 1,
1998).  The b-free law on triples is written once.  Moving A^m2 left past
B^n1 costs t^(-m2 n1), so a b-free power is
(t^c A^m B^n)^e = t^(e c - C(e,2) m n) A^(e m) B^(e n) for every integer e.
Every class-2 map of the kernel is one record (e, c_A, c_B, alpha, beta):
t |-> t^e, A |-> t^c_A times the module row (1, 0) M and B |-> t^c_B times
the row (0, 1) M, with M = alpha I + beta U.  Reading a row (m, n) as
m I + n U, as the series stages do, the module part of an image is one pair
product with (alpha, beta), and composing two records multiplies their
pairs.  Applying a record is one collection polynomial, which the tests
prove equal to the collected product on a grid of three values per
variable; ``free_eq`` is one comparison, the center difference under one
mask.  Conjugation by b^j is such a record with e = (-1)^j and M = U^-j,
in closed form from the pair of U^-j, so no records are composed.  A level
map is one with e = |s| and M = s(U), and fixes b.  Its relators are
checked once, exactly, on a^s itself (r = 0), by two lemmas the tests
prove, so no value of a level map has its level's width.  Slope: the
center enters every step linearly, so the main relator's center defect at
a^s t^r is its defect at a^s plus Q r, Q a unit mod every 2**k.  Order:
for x = t^c, [x, b, ..., b] (k letters b) is x^((-2)^k), 1 at level L
exactly when x^((-1)^k) is 1 at level max(L - k, 0).  These relators, the
second-homology certificate and the witness links are checked on b-free
triples, one record application per conjugation by b, and a tower edge
certifies its diagram's bottom square by one pair comparison, M = s(U).
The full-group law on t^c A^m B^n b^j, the record of a level map rebuilt
from its pair, and the letter-level word oracle live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import PreconditionError, TheoremViolationError
from .laurent import LaurentPoly, require_in_S
from .quadratic import Q, _norm_form, _u_pair, evaluate_at_U, norm, two_adic_split, widest_gap


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
            try:
                return cls(int(digits))
            except ValueError:
                raise PreconditionError(f"truncation level of {len(digits)} digits is too long") from None
        raise PreconditionError(f"unknown model {text!r}; use H, G2, or GammaK with K >= 0")

    @property
    def is_truncation(self) -> bool:
        """Gamma_K: a center of finite order 2**K."""
        return self.central and self.k is not None


# ---------------------------------------------------------------------------
# class-2 maps of the subgroup <A, B, t>, on triples (c, m, n) = t^c A^m B^n


Triple = tuple[int, int, int]
# (e, c_A, c_B, alpha, beta): t |-> t^e, A |-> t^c_A (1, 0) M, B |-> t^c_B (0, 1) M,
# M = alpha I + beta U.  The center multiplier e is +-1 for conjugation and |s|
# for a level map.
Aut = tuple[int, int, int, int, int]
_CONJ_B_INV: Aut = (-1, 0, 0, 0, 1)  # b^-1 X b: A |-> B, B |-> A B^Q; M = U


def _aut_apply(f: Aut, h: Triple) -> Triple:
    """f(t)^c f(A)^m f(B)^n, f(t) = t^e: each power by the b-free closed form, then
    A^(n r) moved left past B^(m q) at t^(-m n q r), for M = [[p, q], [r, s]] =
    [[alpha, beta], [beta, alpha + Q beta]]; the module part is (m, n) M."""
    e, c_a, c_b, alpha, beta = f
    c, m, n = h
    s = alpha + Q * beta
    return (
        e * c + m * c_a + n * c_b - (m * (m - 1) // 2 * alpha + n * (n - 1) // 2 * s + m * n * beta) * beta,
        m * alpha + n * beta,
        m * beta + n * s,
    )


def _pair_record(alpha: int, beta: int) -> Aut:
    """The record of b^j at the pair (alpha, beta) of U^-j: e = det M = (-1)^j.
    It is the identity at (1, 0), and composing it with the record of b or b^-1
    steps to the pair of U^-(j+1) or U^-(j-1); the tests prove both steps.
    The centers halve Q - 1 and Q + 1, so they hold for odd Q only."""
    a2, b2, ab = alpha * (alpha - 1) // 2, beta * (beta - 1) // 2, alpha * beta
    return _norm_form(alpha, beta), a2 + (Q - 1) // 2 * ab - b2, -a2 - (Q + 1) // 2 * ab - (Q - 1) * b2, alpha, beta


def _conj_record(j: int) -> Aut:
    """The record of X |-> b^j X b^-j, after at most 2 log2 |j| pair products (none for j = +-1)."""
    return _pair_record(*_u_pair(-j))


def free_mul(x: Triple, y: Triple) -> Triple:
    """Moving A^m2 left past B^n1 costs t^(-m2*n1), one BA -> AB t^-1 swap at a time."""
    c1, m1, n1 = x
    c2, m2, n2 = y
    return (c1 + c2 - m2 * n1, m1 + m2, n1 + n2)


def free_inv(x: Triple) -> Triple:
    c, m, n = x
    return (-c - m * n, -m, -n)


def free_pow(x: Triple, e: int) -> Triple:
    """m n first, so a power with m n = 0 never forms the square e (e - 1)."""
    c, m, n = x
    return (e * c - m * n * e * (e - 1) // 2, e * m, e * n)


def free_comm(x: Triple, y: Triple) -> Triple:
    """[x, y] = x^-1 y^-1 x y, evaluated as (y x)^-1 (x y)."""
    return free_mul(free_inv(free_mul(y, x)), free_mul(x, y))


def conj_b(x: Triple) -> Triple:
    """x^b = b^-1 x b, one application of the record of b^-1."""
    return _aut_apply(_CONJ_B_INV, x)


def comm_b(x: Triple) -> Triple:
    """[x, b] = x^-1 x^b."""
    return free_mul(free_inv(x), conj_b(x))


def free_eq(x: Triple, y: Triple, k: int | None) -> bool:
    """x = y at center level k.  The b-free law reduces centers mod 2**k only
    here, and that gives the verdict of the level-k kernel, which reduces after
    every step: each step sends the center to an integer polynomial in c, m, n
    (c enters with multiplier +-1, or e in a power) and never feeds c into the
    module part, so reducing mod 2**k commutes with it."""
    if k is None:
        return x == y
    return x[1] == y[1] and x[2] == y[2] and (x[0] - y[0]) & ((1 << k) - 1) == 0


# ---------------------------------------------------------------------------
# the maps between truncation levels


def a_power_s(s: LaurentPoly) -> tuple[Triple, Triple]:
    """(a^s, a^(Qs)) in G2, as triples (c, m, n): the product of a^(n_i b^i)
    over the support of s, ascending, and the same with Q n_i.

    By Horner's rule on triples, from the top term down: the conjugate
    b^e (a^(n_e b^e) ... a^(n_top b^top)) b^-e is A^(n_e) times the same
    conjugate for the next exponent e' > e, conjugated by b^(e - e').
    Prepending A^(n_e) crosses no B, so it adds no center term.  The last
    step, to exponent 0 with nothing prepended, is the conjugation by b^-f,
    f the lowest exponent.  Each gap's record serves both triples; a gap of 1
    applies the record of b^-1, ``_CONJ_B_INV``."""
    x = y = (0, 0, 0)
    top = s.terms[-1][0] if s.terms else 0
    for e, coeff in (*reversed(s.terms), (0, 0)):
        if e != top:  # no gap before the top term, nor at the end when f = 0
            record = _CONJ_B_INV if e - top == -1 else _conj_record(e - top)
            x, y = _aut_apply(record, x), _aut_apply(record, y)
        x, y = (x[0], x[1] + coeff, x[2]), (y[0], y[1] + Q * coeff, y[2])
        top = e
    return x, y


def relator_defect(s: LaurentPoly) -> tuple[int, int, Triple]:
    """Exact center bookkeeping of the image of the defining relation.

    Returns (l, d, a^s) computed with the integer center: l is the exponent
    in (a^s)^(b^2) = a^s (a^(Qs))^b t^l, and d = center(a^(Qs)) -
    center((a^s)^Q) measures how far a^(Qs) is from being the Q-th power of a^s.
    Both module-part identities are asserted on the way.
    """
    require_in_S(s)
    a, a3 = a_power_s(s)
    lhs = conj_b(conj_b(a))
    rhs = free_mul(a, conj_b(a3))
    if lhs[1:] != rhs[1:]:
        raise TheoremViolationError(f"relator module parts differ for s={s}")
    cube = free_pow(a, Q)
    if a3[1:] != cube[1:]:
        raise TheoremViolationError(f"cube module parts differ for s={s}")
    return lhs[0] - rhs[0], a3[0] - cube[0], a


@dataclass(frozen=True)
class PhiData:
    """A validated level map: a |-> a^s t^r, b |-> b, from level source_k.

    ``norm`` is |s|, the exponent of the center image t |-> t^|s|; its 2-adic
    valuation is the level step target_k - source_k.  ``l_exact`` and ``delta``
    are l and d - l for the l, d of relator_defect: the main relator's center
    defect on a^s is -delta, so r solves Qr = delta mod 2**target_k by the
    slope lemma, and is formed only where it is read.  ``pair`` is the pair
    (alpha, beta) of s(U): the module part of a's image, and M = s(U).
    """

    s: LaurentPoly
    norm: int
    source_k: int
    target_k: int
    delta: int
    l_exact: int
    pair: tuple[int, int] = field(repr=False)

    @property
    def r(self) -> int:
        mod = 1 << self.target_k
        r = self.delta * pow(Q, -1, mod) % mod
        if (Q * r - self.delta) % mod:
            raise TheoremViolationError(f"r = {r} does not solve {Q}r = {self.delta} mod 2^{self.target_k}")
        return r

    @property
    def source_congruence_ok(self) -> bool:
        """Qr = l mod 2**source_k, a historical note and not an input; Qr = delta there, so delta = l."""
        return (self.delta - self.l_exact) % (1 << self.source_k) == 0


def _order_relator_vanishes(x: Triple, k: int, level: int | None) -> bool:
    """[x, b, ..., b] (k letters b) is 1 at ``level``: by the order lemma, once
    [x, b] = x^-2 exactly, x^((-1)^k) is 1 at level max(level - k, 0)."""
    low = None if level is None else max(level - k, 0)
    return comm_b(x) == free_pow(x, -2) and free_eq(free_pow(x, (-1) ** k), (0, 0, 0), low)


# The widest |exponent| or gap whose level map takes about 60 s (shared 2-vCPU
# VM, Python 3.11): the records of b^j have entries of about 0.52 |j| digits.
# A tower's edges share it: their widths add up to at most this bound
LEVEL_MAP_BOUND = 2_500_000
# The top level that 40,000 copies of 1-b+b^2 reach: a tower's memory grows
# with its level, not with its number of edges
TOWER_LEVEL_BOUND = 80_000


def _check_records(edges: tuple[LaurentPoly, ...]) -> None:
    """The checks of the level maps for ``edges`` that do not depend on s."""
    a = (0, 1, 0)
    if not free_eq(conj_b(conj_b(a)), free_mul(a, conj_b(free_pow(a, Q))), None):
        raise TheoremViolationError("main relator image nonzero on the generator a")
    # with alpha = 0 both center terms of a record application act on (A B)^2 = t^-1 A^2 B^2
    if conj_b(free_pow((0, 1, 1), 2)) != free_pow(conj_b((0, 1, 1)), 2):
        raise TheoremViolationError("the record of b^-1 does not respect the square of A B")
    if any(s.terms and s.min_exp < 0 for s in edges):
        record_of_b = _conj_record(1)
        if any(_aut_apply(record_of_b, conj_b(g)) != g for g in ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            raise TheoremViolationError("the records of b and b^-1 are not inverse")


def phi_build(s: LaurentPoly, k: int) -> PhiData:
    """Construct and verify the level map for edge s leaving level k.

    Every defining relator of the source is evaluated once, exactly, on the
    images a^s, (a^s)^b and x = [a^s, (a^s)^b], the image of t, which does
    not read a's center: x = t^|s|, the main relator's center defect is
    -delta, and x is central.  So y |-> [y, b] is an endomorphism of <x>,
    and the order relator (k letters b) holds at level p by the order lemma.

    ``_check_records`` runs first, once per ``tower_build``: delta is read
    from the kernel under check, so the relator on a and the square of A B
    check the record of b^-1; if s has a lowest exponent f < 0, a^s ends with
    the record of b^-f, and the record of b is checked as its inverse.

    With b = 1 the target collapses to Z/gcd(Q, augmentation(s)) modulo the
    normal closure of the image, and the map multiplies first homology
    Z/Q (+) Z by augmentation(s) on the Z/Q summand.  ``require_in_S``
    makes both trivial, and the phi-check claims read the augmentation
    again, so a map built past that check still fails them.
    """
    _check_records((s,))
    if k < 0:
        raise PreconditionError("negative source level")
    _edge_width(s)
    return _level_map(s, k, norm(s))


def _edge_width(s: LaurentPoly) -> int:
    """The widest |exponent| or gap of an edge, after its S-membership and width checks."""
    require_in_S(s)
    width = max(widest_gap(s), -s.terms[0][0], s.terms[-1][0])
    if width > LEVEL_MAP_BOUND:
        raise PreconditionError(f"an exponent or gap of {width} is past the bound {LEVEL_MAP_BOUND} of a level map")
    return width


def _level_map(s: LaurentPoly, k: int, s_norm: int) -> PhiData:
    """``phi_build`` for one checked edge of norm ``s_norm`` whose caller has run ``_check_records``."""
    p, _ = two_adic_split(s_norm)
    l_exact, d, a = relator_defect(s)
    ab = conj_b(a)
    t = free_comm(a, ab)
    if t != (s_norm, 0, 0):
        raise TheoremViolationError(f"center image for s={s}, k={k}: got (c, m, n) = {t}, expected t^{s_norm}")

    lhs, rhs = conj_b(ab), free_mul(a, conj_b(free_pow(a, Q)))
    if lhs[1:] != rhs[1:] or lhs[0] - rhs[0] != l_exact - d:
        raise TheoremViolationError(f"main relator image nonzero for s={s}, k={k}")
    if free_comm(t, a) != (0, 0, 0) or free_comm(t, ab) != (0, 0, 0):
        raise TheoremViolationError(f"centrality relator image nonzero for s={s}, k={k}")
    if not _order_relator_vanishes(t, k, k + p):
        raise TheoremViolationError(f"order relator image nonzero for s={s}, k={k}")

    return PhiData(
        s=s,
        norm=s_norm,
        source_k=k,
        target_k=k + p,
        delta=d - l_exact,
        l_exact=l_exact,
        pair=a[1:],
    )


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

    def has_even_edge(self) -> bool:
        return any(data.norm % 2 == 0 for data in self.phis)


def tower_build(edges: Iterable[LaurentPoly]) -> TowerPrefix:
    """Build a validated tower prefix from S-edges.

    Each edge gets a verified level map and a certificate that the bottom
    square of the diagram commutes: projection to the base group intertwines
    the map with the s-action.  ``_check_records`` runs once, for all edges,
    and before any level map the sum of the edges' widths (a conservative
    price: a level map's cost grows faster than its width) and the top
    level, the sum of p(s), are checked.
    """
    edges = tuple(edges)
    _check_records(edges)
    norms, width = [], 0
    for s in edges:
        width += _edge_width(s)
        if width > LEVEL_MAP_BOUND:
            raise PreconditionError(f"the edge widths sum to {width}, past the bound {LEVEL_MAP_BOUND} of a tower")
        norms.append(norm(s))
    top = sum(two_adic_split(s_norm)[0] for s_norm in norms)
    if top > TOWER_LEVEL_BOUND:
        raise PreconditionError(f"the top level {top} is past the bound {TOWER_LEVEL_BOUND} of a tower")
    levels = [0]
    phis: list[PhiData] = []
    for s, s_norm in zip(edges, norms):
        data = _level_map(s, levels[-1], s_norm)
        _check_base_diagram(data)
        levels.append(data.target_k)
        phis.append(data)
    return TowerPrefix(tuple(levels), tuple(phis))


def _check_base_diagram(data: PhiData) -> None:
    """The projection of phi(g) to H is (g.n U^j s(U), j) for every g of the
    source group, projecting t^c a^n b^j to b^j a^(n U^j).

    phi fixes b^j and sends the module part n of g to the pair product
    n (alpha, beta) with the map's pair, so the square commutes for every
    element exactly when that pair is the pair of s(U): U^j is invertible
    and commutes with both.  A pair product is linear in n by construction,
    and the t part of g never reaches the module part, so this one
    comparison is the whole certificate.
    """
    if data.pair != evaluate_at_U(data.s):
        raise TheoremViolationError(
            f"base diagram does not commute for s={data.s} at level {data.source_k}"
        )
