"""The closed-form kernels against the loop forms they replaced.

Each reference below is the loop the kernel used before it became
logarithmic in its exponent: square-and-multiply for b-free powers, one
conjugation by b at a time for conj_by_b_pow, one Mat2 product per step for
powers of U, one commutator per letter for the order relator, and one module
chain rebuilt per probe index for the limit-stage certificate.  The class-2
map records are also checked against the form they replaced, with the module
part as four matrix entries, and a record application is proven equal to the
collected product on a grid of three values per variable.  The
letter-level word_oracle checks the group law independently of both, and
sympy, where installed, checks a^s against matrix powers of U.
"""

import dataclasses
import inspect
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vltower import groups as G
from vltower import quadratic as Q
from vltower import series
from vltower.cli import main
from vltower.errors import PreconditionError, TheoremViolationError
from vltower.laurent import LaurentPoly, augmentation, parse_laurent
from vltower.quadratic import evaluate_at_U, norm, two_adic_split
import words
from references import (
    IDENTITY,
    U,
    ZERO,
    Mat2,
    aut7_apply,
    aut7_conj_record,
    pair_mat,
    poly_add,
    ref_aut_apply,
    s_matrix,
    u_pow,
)
from words import (
    GammaKElem,
    conj_by_b_pow,
    eval_word,
    gamma_comm,
    gamma_conj,
    gamma_gen,
    gamma_identity,
    gamma_inv,
    gamma_make,
    gamma_mul,
    gamma_pow,
    level_map_record,
    phi_apply,
    phi_images,
    word_oracle,
)

LEVELS = (None, 0, 3, 7)
U_INV = Mat2(-3, 1, 1, 0)


# --- reference loop forms ----------------------------------------------------


def ref_pow(x, e):
    """Square-and-multiply over gamma_mul."""
    if e < 0:
        return ref_pow(gamma_inv(x), -e)
    out = gamma_identity(x.k)
    base = x
    while e:
        if e & 1:
            out = gamma_mul(out, base)
        base = gamma_mul(base, base)
        e >>= 1
    return out


def ref_phi(h):
    """b^-1 (t^c A^m B^n) b, collected: B^m (A B^3)^n."""
    c, m, n = h
    return (-c - 3 * n * (n - 1) // 2 - m * n, n, m + 3 * n)


def ref_phi_inv(h):
    """b (t^c A^m B^n) b^-1, collected: (t^3 A^-3 B)^m A^n."""
    c, m, n = h
    return (-c + 3 * m * (m + 1) // 2 - m * n, n - 3 * m, m)


def ref_u_powers(bound):
    """{i: U^i} for |i| <= bound, one Mat2 product per step."""
    out = {0: IDENTITY}
    up = down = IDENTITY
    for i in range(1, bound + 1):
        up, down = up * U, down * U_INV
        out[i], out[-i] = up, down
    return out


def ref_evaluate(s, powers):
    out = Mat2(0, 0, 0, 0)
    for e, c in s.terms:
        p = powers[e]
        out = out + Mat2(c * p.a, c * p.b, c * p.c, c * p.d)
    return out


def ref_two_adic_split(n):
    p = 0
    while n % 2 == 0:
        n //= 2
        p += 1
    return p, n


def ref_a_power_s(s):
    """The per-term product: each conjugate a^(n_i b^i) built on its own by
    conj_by_b_pow and multiplied in ascending order."""
    out = gamma_identity(None)
    for e, coeff in s.terms:
        c, m, n = conj_by_b_pow((0, coeff, 0), -e)
        out = gamma_mul(out, GammaKElem(None, c, (m, n), 0))
    return (out.c, *out.n)


def ref_phi_apply(data, g):
    """The four-power composition img_t^c img_a^m img_ab^n b^j over gamma_mul."""
    img_a, img_ab, img_t = phi_images(data)
    out = gamma_pow(img_t, g.c)
    out = gamma_mul(out, gamma_pow(img_a, g.n[0]))
    out = gamma_mul(out, gamma_pow(img_ab, g.n[1]))
    return gamma_mul(out, gamma_pow(gamma_gen(data.target_k, "b"), g.j))


def ref_iterated_comm_with_b(x, times):
    """[x, b, ..., b] with `times` letters b, one gamma_comm per letter."""
    out = x
    bgen = gamma_gen(x.k, "b")
    for _ in range(times):
        out = gamma_comm(out, bgen)
    return out


def ref_module_chain_lattice(i):
    """(U - I)^i rebuilt from scratch by i Mat2 products; its row span is
    the module part Z^2 (U - I)^i."""
    m = IDENTITY
    for _ in range(i):
        m = m * (U - IDENTITY)
    return m


def ref_in_row_span(m, v):
    """Whether v = w m for an integer row w, m invertible or zero: w solved
    exactly over Fraction by eliminating in the system m^T w^T = v^T."""
    if m == Mat2(0, 0, 0, 0):
        return v == (0, 0)
    top = [Fraction(m.a), Fraction(m.c), Fraction(v[0])]
    bottom = [Fraction(m.b), Fraction(m.d), Fraction(v[1])]
    if top[0] == 0:
        top, bottom = bottom, top
    f = bottom[0] / top[0]
    bottom = [y - f * x for x, y in zip(top, bottom)]
    w1 = bottom[2] / bottom[1]
    w0 = (top[2] - top[1] * w1) / top[0]
    return w0.denominator == 1 and w1.denominator == 1


def ref_probe_exit(v, bound):
    """Least i in [1, bound] with v outside Z^2 (U - I)^i; None if it never exits."""
    for i in range(1, bound + 1):
        if not ref_in_row_span(ref_module_chain_lattice(i), v):
            return i
    return None


def _inverse_word(w):
    return [(g, -e) for g, e in reversed(w)]


def _b_free(rng, k):
    return gamma_make(k, rng.randint(-50, 50), (rng.randint(-9, 9), rng.randint(-9, 9)), 0)


# --- gamma_pow -----------------------------------------------------------------


@pytest.mark.parametrize("k", LEVELS)
def test_gamma_pow_closed_form_matches_square_and_multiply(k):
    rng = random.Random(2024 if k is None else k)
    # one element with m n != 0 over the whole exponent range, e >= 2**k included
    x = gamma_make(k, 5, (3, -7), 0)
    for e in range(-(1 << 12), (1 << 12) + 1):
        assert gamma_pow(x, e) == ref_pow(x, e)
    for _ in range(60):
        x = _b_free(rng, k)
        for e in [0, 1, -1, 1 << 12, -(1 << 12)] + rng.sample(range(-(1 << 12), (1 << 12) + 1), 40):
            assert gamma_pow(x, e) == ref_pow(x, e)


def test_gamma_pow_with_b_part_matches_square_and_multiply():
    rng = random.Random(7)
    for k in LEVELS:
        for _ in range(40):
            x = gamma_make(k, rng.randint(-9, 9), (rng.randint(-3, 3), rng.randint(-3, 3)), rng.choice([-2, -1, 1, 3]))
            for e in range(-12, 13):
                assert gamma_pow(x, e) == ref_pow(x, e)


@pytest.mark.parametrize("k", LEVELS)
def test_generator_powers_match_the_oracle(k):
    model = G.Model(k)
    for gen in ("a", "ab", "b", "t"):
        x = gamma_gen(k, gen)
        for e in range(-150, 151):
            assert gamma_pow(x, e) == word_oracle([(gen, e)], model)


def test_powers_of_b_free_words_match_the_oracle():
    # b-free elements with a nonzero center part, spelled with b letters
    words = (
        [("b", 1), ("a", 2), ("b", -1), ("a", 1)],
        [("a", -1), ("b", -2), ("a", 3), ("b", 2)],
        [("b", -1), ("a", 1), ("b", 2), ("a", -2), ("b", -1)],
    )
    for k in LEVELS:
        model = G.Model(k)
        for w in words:
            x = eval_word(w, model)
            assert x.j == 0
            for e in range(-25, 26):
                assert gamma_pow(x, e) == word_oracle(w * e if e >= 0 else _inverse_word(w) * -e, model)


def test_free_pow_matches_the_square_first_formula():
    # free_pow multiplies m n first, so a power with m n = 0 skips the square
    # e (e - 1); the value is the one the square-first form gave, since
    # e (e - 1) is even and the floor division is exact
    def square_first(x, e):
        c, m, n = x
        return (e * c - e * (e - 1) // 2 * m * n, e * m, e * n)

    rng = random.Random(32)
    triples = [(rng.randint(-99, 99), rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(100)]
    triples += [(5, 0, 7), (-3, 4, 0), (1, 0, 0), (0, -3, 5)]
    exponents = [0, 1, -1, 2, -2, (-2) ** 20_000, -(2**20_000) + 1]
    exponents += [rng.choice((1, -1)) * rng.getrandbits(bits) for bits in (8, 64, 20_000) for _ in range(5)]
    for x in triples:
        for e in exponents:
            assert G.free_pow(x, e) == square_first(x, e)


# --- conj_by_b_pow -------------------------------------------------------------


def test_conj_by_b_pow_matches_the_phi_loop():
    rng = random.Random(99)
    triples = [(0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 0, 0)] + [
        (rng.randint(-20, 20), rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(8)
    ]
    for h in triples:
        up = down = h
        assert conj_by_b_pow(h, 0) == h
        for j in range(1, 201):
            up, down = ref_phi_inv(up), ref_phi(down)
            assert conj_by_b_pow(h, j) == up
            assert conj_by_b_pow(h, -j) == down


def _as_pair_record(f7):
    """A matrix record whose matrix is alpha I + beta U, as (e, c_A, c_B, alpha, beta)."""
    e, c_a, c_b, p, q, r, s = f7
    assert (r, s) == (q, p + 3 * q)
    return e, c_a, c_b, p, q


def test_conj_record_matches_the_matrix_record():
    for j in range(-(1 << 10), (1 << 10) + 1):
        if j:
            assert G._conj_record(j) == _as_pair_record(aut7_conj_record(j)), j
    # magnitudes log-uniform from 2**10 to 10**5, so every bit length is drawn
    rng = random.Random(2**10)
    for _ in range(200):
        j = rng.choice((1, -1)) * round(math.exp(rng.uniform(math.log(1 << 10), math.log(10**5))))
        assert G._conj_record(j) == _as_pair_record(aut7_conj_record(j)), j


_CONJ_B = (-1, 3, 0, -3, 1)  # b X b^-1: A |-> t^3 A^-3 B, B |-> A; M = U - 3I
_IDENTITY_RECORD = (1, 0, 0, 1, 0)


def _composite(f, g):
    """The record of f after g: the centers of f(g(t)), f(g(A)) and f(g(B)),
    and the module part of f(g(A)), which is (1, 0) M_g M_f."""
    e, c_a, c_b, alpha, beta = g
    image_t, image_a, image_b = (
        G._aut_apply(f, h) for h in ((e, 0, 0), (c_a, alpha, beta), (c_b, beta, alpha + 3 * beta))
    )
    assert image_t[1:] == (0, 0) and image_b[1:] == Q._pair_mul(image_a[1:], (0, 1))
    return image_t[0], image_a[0], image_b[0], *image_a[1:]


def _closed_form_failures(record):
    """Where the induction for record(pair of U^-j) = the record of b^j fails:
    the base record(1, 0) = identity, and on {0, 1, 2}^2 the two steps
    record(P (U - 3I)) = (record of b) after record(P) and
    record(P U) = (record of b^-1) after record(P)."""
    failures = [] if record(1, 0) == _IDENTITY_RECORD else ["base"]
    for p in itertools.product(range(3), repeat=2):
        for base, step in ((_CONJ_B, (-3, 1)), (G._CONJ_B_INV, (0, 1))):
            if record(*Q._pair_mul(p, step)) != _composite(base, record(*p)):
                failures.append((p, step))
    return failures


def test_conj_record_closed_form_holds_for_every_j():
    # Both sides of each step are polynomials of degree <= 2 in each of alpha
    # and beta: the module parts are linear in them and the centers quadratic.
    # Every // 2 on either side halves x (x - 1), which is even, so it is exact
    # division.  A polynomial of degree <= 2 in each variable that vanishes on
    # {0, 1, 2}^2 vanishes everywhere, so the two steps hold for every integer
    # pair, and induction on |j| from the base proves _conj_record for every j,
    # given the records of b and b^-1.  Those are inverse, the check phi_build
    # makes on t, A and B.
    assert _composite(_CONJ_B, G._CONJ_B_INV) == _IDENTITY_RECORD
    assert (G._pair_record(-3, 1), G._pair_record(0, 1)) == (_CONJ_B, G._CONJ_B_INV)
    assert _closed_form_failures(G._pair_record) == []


@pytest.mark.parametrize(
    "monomial",
    [lambda a, b: a * a, lambda a, b: a * b, lambda a, b: b * b, lambda a, b: a, lambda a, b: b, lambda a, b: 1],
    ids=["alpha^2", "alpha beta", "beta^2", "alpha", "beta", "1"],
)
@pytest.mark.parametrize("half", [1, 2], ids=["c_A", "c_B"])
def test_conj_record_proof_catches_a_changed_coefficient(half, monomial):
    def planted(alpha, beta):
        record = list(G._pair_record(alpha, beta))
        record[half] += monomial(alpha, beta)
        return tuple(record)

    assert _closed_form_failures(planted)


def _record_application_failures(apply):
    """The points of {0, 1, 2}^8 where apply(f, h) differs from ref_aut_apply,
    for f = (e, c_A, c_B, alpha, beta) and h = (c, m, n)."""
    points = itertools.product(range(3), repeat=8)
    return [p for p in points if apply(p[:5], p[5:]) != ref_aut_apply(p[:5], p[5:])]


def test_record_application_is_the_collected_product_for_every_integer():
    # Both sides are polynomials of degree <= 2 in each of the eight integers
    # e, c_A, c_B, alpha, beta, c, m, n: the module parts are bilinear in
    # (m, n) and (alpha, beta), and the centers are linear in e, c, c_A, c_B
    # and alpha and quadratic in m, n and beta.  Every // 2 halves m (m - 1)
    # or n (n - 1), which is even, so it is exact division.  A polynomial of
    # degree <= 2 in each variable that vanishes on {0, 1, 2}^8 vanishes
    # everywhere, so _aut_apply is the collected product, the center formula
    # with the pair product of quadratic, on every record and every triple.
    assert _record_application_failures(G._aut_apply) == []


@pytest.mark.parametrize(
    "old,new",
    [("// 2 * s", "// 2 * (alpha + 2 * beta)"), ("+ n * s", "+ n * (alpha + 2 * beta)"), ("+ m * n * beta", "- m * n * beta")],
    ids=["center-3", "pair-product-3", "center-mn-sign"],
)
def test_record_application_proof_catches_a_planted_fault(old, new):
    # the Q of U^2 = QU + I in the center and in the pair product, and the
    # sign of the t^(-m n q r) that moving A^(n r) past B^(m q) costs
    source = inspect.getsource(G._aut_apply)
    assert source.count(old) == 1
    namespace = dict(vars(G))
    exec(source.replace(old, new), namespace)
    assert _record_application_failures(namespace["_aut_apply"])


def _slope_failures():
    """The points (c, m, n, r) of {0, 1, 2}^4 where the main relator's center
    defect at (c + r, m, n) is not its defect at (c, m, n) plus Q r."""

    def defect(a):
        lhs, rhs = G.conj_b(G.conj_b(a)), G.free_mul(a, G.conj_b(G.free_pow(a, G.Q)))
        return lhs[0] - rhs[0]

    points = itertools.product(range(3), repeat=4)
    return [(c, m, n, r) for c, m, n, r in points if defect((c + r, m, n)) - defect((c, m, n)) != G.Q * r]


def test_main_relator_defect_has_slope_q_in_the_center_for_every_integer(monkeypatch):
    # The slope lemma behind the level maps' exact check on a^s.  The
    # difference of the two defects minus Q r is a polynomial of degree <= 1
    # in c and r (each step multiplies the center by e and never feeds it
    # into the module part) and <= 2 in m and n (the centers of a record
    # application and of a b-free power are quadratic in the module part,
    # with exact halvings), so vanishing on {0, 1, 2}^4 it vanishes for every
    # integer c, m, n and r.  It reads G.Q, so it holds under the q-family.
    assert _slope_failures() == []
    # a conjugation that kept the center, e = +1 in the record of b^-1, has slope -Q
    monkeypatch.setattr(G, "_CONJ_B_INV", (1, *G._CONJ_B_INV[1:]))
    assert _slope_failures()


_PAIRS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@given(st.integers(-(10**6), 10**6), st.integers(-70, 70), _PAIRS, _PAIRS, st.sampled_from([None, 0, 1, 5]))
@example(-1, -32, (1, 0), (1, 0), 5)
@example(-5, 3, (0, 1), (0, 1), 1)
@example(-7, 0, (1, 2), (2, 1), None)
def test_free_eq_is_equal_module_parts_and_congruent_centers(c, d, x_pair, y_pair, k):
    # the center difference d, negative centers included, is read mod 2**k
    x, y = (c, *x_pair), (c - d, *y_pair)
    congruent = d == 0 if k is None else d % 2**k == 0
    assert G.free_eq(x, y, k) == (x[1:] == y[1:] and congruent)


def test_word_oracle_uses_no_closed_form():
    # the oracle stays letter-level: none of its code names a kernel helper,
    # neither the package's b-free law and records nor the full-group law
    # that sits beside the oracle in words.py
    codes = [word_oracle.__code__, words._oracle_collect.__code__] + [
        f.__code__ for f in vars(words._OracleState).values() if hasattr(f, "__code__")
    ]
    names = {name for code in codes for name in code.co_names}
    prefixes = ("gamma_", "_aut_", "_conj_", "conj_", "phi", "free_", "comm_")
    kernel = {n for module in (G, words) for n in vars(module) if n.startswith(prefixes)}
    kernel |= {"eval_word", "base_form", "u_pow", "evaluate_at_U", "norm", "vec_mat", "_pair_mul", "_u_pair"}
    assert {"free_mul", "free_pow", "conj_b", "comm_b", "gamma_mul", "gamma_inv", "gamma_pow"} <= kernel
    assert not names & kernel
    with pytest.raises(ValueError):
        words._OracleState(None).prepend_b(2)


# --- a_power_s -------------------------------------------------------------------

_COEFFS = st.integers(-40, 40).filter(bool)
_DENSE = st.dictionaries(st.integers(-40, 40), _COEFFS, max_size=12).map(LaurentPoly.from_dict)


@st.composite
def _sparse(draw):
    # a lowest exponent in [-40, 40], then gaps up to 400, as on sparse edges
    e, out = draw(st.integers(-40, 40)), {}
    for gap in draw(st.lists(st.integers(1, 400), max_size=5)):
        out[e] = draw(_COEFFS)
        e += gap
    out[e] = draw(_COEFFS)
    return LaurentPoly.from_dict(out)


@given(st.one_of(_DENSE, _sparse()))
@example(parse_laurent("-2-2b^147+5b^311"))
@example(parse_laurent("b^-2+b^-1-b^300"))
@example(ZERO)
def test_a_power_s_horner_matches_the_per_term_product(s):
    s3 = LaurentPoly.from_dict({e: 3 * c for e, c in s.terms})
    assert G.a_power_s(s) == (ref_a_power_s(s), ref_a_power_s(s3))


def test_a_power_s_module_part_against_sympy_powers_of_u():
    # an independent oracle: a^s has module part (1, 0) s(U), with s(U) built
    # from sympy matrix powers of U and of U^-1
    sympy = pytest.importorskip("sympy")
    u = sympy.Matrix([[0, 1], [1, 3]])
    u_inv = sympy.Matrix([[-3, 1], [1, 0]])
    assert u * u_inv == sympy.eye(2)
    rng = random.Random(5)
    polys = [parse_laurent(e) for e in ("1-b+b^2", "b^-1-1+b", "b^-2+b^-1-b^300", "-2-2b^147+5b^311", "b^-40")]
    polys += [LaurentPoly.from_dict({rng.randint(-60, 60): rng.randint(-9, 9) for _ in range(4)}) for _ in range(20)]
    for s in polys:
        s_of_u = sympy.zeros(2, 2)
        for e, c in s.terms:
            s_of_u += c * (u**e if e >= 0 else u_inv ** (-e))
        assert G.a_power_s(s)[0][1:] == tuple(sympy.Matrix([[1, 0]]) * s_of_u), s


# --- level maps on the full group --------------------------------------------------


@pytest.mark.parametrize("edge", ["1-b+b^2", "b", "2b-b^3", "-2-2b^147+5b^311"])
def test_phi_apply_matches_the_four_power_composition(edge):
    rng = random.Random(edge)
    big = 1 << 12
    for k in (0, 1, 3, 7):
        data = G.phi_build(parse_laurent(edge), k)
        corners = [(c, m, n, j) for c in (0, big) for m in (-big, big) for n in (-big, 0) for j in (-9, 9)]
        draws = [
            (rng.randint(-big, big), rng.randint(-big, big), rng.randint(-big, big), rng.randint(-9, 9))
            for _ in range(150)
        ]
        for c, m, n, j in corners + draws:
            g = gamma_make(k, c, (m, n), j)
            assert phi_apply(data, g) == ref_phi_apply(data, g)


# --- the order relator and the limit-stage probes ---------------------------------


@pytest.mark.parametrize("edge", ["1-b+b^2", "b", "2b-b^3", "-2-2b^147+5b^311"])
def test_order_relator_closed_form_matches_the_literal_loop(edge):
    s = parse_laurent(edge)
    for source_k in (0, 3, 12):
        img_t = phi_images(G.phi_build(s, source_k))[2]
        one = gamma_identity(img_t.k)
        verdicts = []
        for k in range(41):
            literal = ref_iterated_comm_with_b(img_t, k) == one
            assert G._order_relator_vanishes((img_t.c, *img_t.n), k, img_t.k) == literal
            verdicts.append(literal)
        # img_t = t^|s| dies after exactly source_k letters b
        assert verdicts == [k >= source_k for k in range(41)]


def test_order_relator_closed_form_on_center_elements():
    for level in (None, 0, 1, 5, 9):
        for c in (0, 1, 2, 3, 12, 40, -7):
            x = gamma_make(level, c, (0, 0), 0)
            one = gamma_identity(level)
            for k in range(41):
                assert G._order_relator_vanishes((c, 0, 0), k, level) == (ref_iterated_comm_with_b(x, k) == one)


def _check_phi_build_on_the_generic_kernel(s, k):
    """phi_build's images, relator defect and center exponent, recomputed
    through gamma_conj, gamma_comm, gamma_mul and gamma_pow."""
    data = G.phi_build(s, k)
    x, y = (GammaKElem(None, h[0], h[1:], 0) for h in G.a_power_s(s))
    bz = gamma_gen(None, "b")
    lhs, rhs = gamma_conj(gamma_conj(x, bz), bz), gamma_mul(x, gamma_conj(y, bz))
    assert lhs.n == rhs.n and data.l_exact == lhs.c - rhs.c
    d = y.c - gamma_pow(x, 3).c
    level = data.target_k
    assert data.r == (d - data.l_exact) * pow(3, -1, 1 << level) % (1 << level)
    b = gamma_gen(level, "b")
    img_a = gamma_make(level, x.c + data.r, x.n, 0)
    img_ab = gamma_conj(img_a, b)
    assert phi_images(data)[:2] == (img_a, img_ab)
    assert data.pair == img_a.n
    assert level_map_record(data) == (data.norm, img_a.c, img_ab.c, *img_a.n)
    assert gamma_comm(img_a, img_ab) == gamma_make(level, data.norm, (0, 0), 0)
    assert gamma_conj(img_ab, b) == gamma_mul(img_a, gamma_conj(gamma_pow(img_a, 3), b))


@pytest.mark.parametrize("edge", ["1-b+b^2", "b", "2b-b^3", "-2-2b^147+5b^311"])
def test_phi_build_matches_the_generic_kernel_on_the_readme_edges(edge):
    for k in range(41):
        _check_phi_build_on_the_generic_kernel(parse_laurent(edge), k)


@given(st.one_of(_DENSE, _sparse()), st.integers(0, 40))
def test_phi_build_matches_the_generic_kernel_on_s_elements(s, k):
    # shifting the constant term by 1 - augmentation(s) puts s in S
    _check_phi_build_on_the_generic_kernel(poly_add(s, LaurentPoly.from_dict({0: 1 - augmentation(s)})), k)


def ref_matrix_a_power_s(s):
    """a^s by Horner's rule on triples over the matrix records."""
    top, m = s.terms[-1]
    c = n = 0
    for e, coeff in reversed(s.terms[:-1]):
        c, m, n = aut7_apply(aut7_conj_record(e - top), (c, m, n))
        m += coeff
        top = e
    return aut7_apply(aut7_conj_record(-top), (c, m, n)) if top else (c, m, n)


@pytest.mark.parametrize("edge", ["1-b+b^2", "b", "2b-b^3", "-2-2b^147+5b^311"])
def test_phi_record_matches_the_images_over_matrix_records(edge):
    # the images of a and a^b as full-group elements, the centers mod
    # 2**target_k and the module rows the rows of the map's matrix
    s = parse_laurent(edge)
    for k in (0, 3, 12):
        data = G.phi_build(s, k)
        level = data.target_k
        c, m, n = ref_matrix_a_power_s(s)
        img_a = gamma_make(level, c + data.r, (m, n), 0)
        img_ab = gamma_conj(img_a, gamma_gen(level, "b"))
        assert level_map_record(data)[:3] == (data.norm, img_a.c, img_ab.c)
        assert pair_mat(*data.pair).rows() == (img_a.n, img_ab.n)


@pytest.mark.parametrize("model", ["H", "G2", "Gamma0", "Gamma3"])
def test_gamma_omega_probe_exits_match_the_per_probe_reference(model):
    probes = [(x, y) for x in range(-7, 8) for y in range(-7, 8) if (x, y) != (0, 0)]
    # depth 2 builds stages 0 and 1 only, so the box's probes (exits up to 5)
    # need the chain extended past the stages
    m = G.Model.parse(model)
    for depth_bound in (2, 12):
        for probe_set in (None, probes):
            exits = series.gamma_omega(m, series.lcs_chain(m, depth_bound), probe_set)
            expected = [
                (v, ref_probe_exit(v, 60))
                for v in (probe_set or series._default_probes(2))
            ]
            assert list(exits) == expected


# --- powers of U, evaluation at U, the norm -------------------------------------


def test_u_pow_matches_repeated_products():
    powers = ref_u_powers(300)
    for i, m in powers.items():
        assert u_pow(i) == m


def test_evaluate_and_norm_match_repeated_products():
    powers = ref_u_powers(40)
    rng = random.Random(5)
    for _ in range(2000):
        terms = {rng.randint(-40, 40): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
        s = LaurentPoly.from_dict(terms)
        ref = ref_evaluate(s, powers)
        assert s_matrix(s) == ref
        assert norm(s) == ref.det()


def test_two_adic_split_matches_the_loop():
    rng = random.Random(300)
    values = [1, -1, 2, -2, 12, -8, 1 << 300, -(1 << 300), (1 << 300) - 1, 3 << 299]
    values += [rng.randint(1, 1 << 300) * rng.choice((1, -1)) for _ in range(500)]
    values += [rng.randrange(1, 1 << 20, 2) << rng.randint(0, 280) for _ in range(500)]
    for n in values:
        assert two_adic_split(n) == ref_two_adic_split(n)
        assert two_adic_split(-n) == ref_two_adic_split(-n)
    with pytest.raises(PreconditionError):
        two_adic_split(0)


# --- work counts -----------------------------------------------------------------


def _count_calls(code, fn, where=lambda frame: True):
    """Calls of one code object while fn runs, seen through sys.setprofile,
    counting only calls whose frame passes ``where``; an outer profile
    function is put back afterwards."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code and where(frame):
            calls += 1

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(outer)
    return calls


def test_witness_gamma_mul_count_grows_linearly_in_j(capsys):
    # the power on the J-bit chain exponents is a closed form, so four times
    # the chain length costs about four times the multiplications (square-and-
    # multiply there would cost about sixteen); the witness multiplies b-free
    # triples, so the count is of free_mul, which gamma_mul is built on
    argv = ["witness", "--edges", "1-b+b^2,1-b+b^2,1-b+b^2", "--format", "json", "--J"]
    counts = [_count_calls(G.free_mul.__code__, lambda: main([*argv, j])) for j in ("50", "200")]
    capsys.readouterr()
    assert counts[0] > 0
    assert counts[1] <= 4.5 * counts[0]


def test_u_pow_and_norm_take_logarithmic_steps():
    # one pair product per squaring and per set bit; the loop took 2000 Mat2 products
    products = Q._pair_mul.__code__
    bound = 2 * (2000).bit_length()
    for i in (2000, -2000):
        assert 1 <= _count_calls(products, lambda: Q._u_pair(i)) <= bound
    s = parse_laurent("1-b^2000+b^2001")
    assert 1 <= _count_calls(products, lambda: norm(s)) <= 2 * bound
    for i in (1, -1):
        assert _count_calls(products, lambda: Q._u_pair(i)) == 0


def _record_products(fn):
    """Pair products spent building records: every _pair_mul call, since a
    record application writes its pair product inline."""
    return _count_calls(Q._pair_mul.__code__, fn)


def test_conj_by_b_pow_takes_logarithmic_steps():
    # one pair product per squaring and per set bit of the power of U; the loop
    # conjugated 2000 times, and composing records took as many compositions
    for j in (2000, -2000):
        assert 1 <= _record_products(lambda: conj_by_b_pow((1, 2, 3), j)) <= 2 * (2000).bit_length()
    for j in (1, -1):
        assert _record_products(lambda: conj_by_b_pow((1, 2, 3), j)) == 0


def test_a_power_s_composes_no_record_on_gaps_of_one():
    # _conj_record takes no pair product for a gap of 1, and the closing
    # conjugation by b^-f is by b^0 or b^1 here
    for edge in ("1-b+b^2", "b^-1-1+b"):
        s = parse_laurent(edge)
        assert _record_products(lambda: G.a_power_s(s)) == 0


def test_tower_build_checks_the_record_of_b_once():
    # the record of b is checked as the inverse of the record of b^-1 once per
    # tower that has a negative exponent, not once per such edge; no edge here
    # conjugates by b itself (the lowest exponent is -2, gaps of 1 apply the
    # record of b^-1), so every _conj_record(1) is that check
    def record_of_b_calls(edge, count):
        edges = [parse_laurent(edge)] * count
        return _count_calls(G._conj_record.__code__, lambda: G.tower_build(edges), lambda f: f.f_locals["j"] == 1)

    assert record_of_b_calls("b^-2+b^-1-b^300", 50) == 1
    assert record_of_b_calls("1-b+b^2", 50) == 0


def test_base_diagram_check_multiplies_nothing():
    # the square is one comparison of the map's pair with the pair of s(U),
    # so no group product is taken and the only power of U built is the one
    # evaluating s; the four-power composition made 104 gamma_mul and 48 u_pow
    # calls per edge, and the base-form comparison 3 u_pow
    tower = G.tower_build(parse_laurent(e) for e in "1-b+b^2,b,1-b+b^2".split(","))
    powers = Q._u_pair.__code__
    for data in tower.phis:
        assert _count_calls(G.free_mul.__code__, lambda: G._check_base_diagram(data)) == 0
        evaluation = _count_calls(powers, lambda: evaluate_at_U(data.s))
        assert _count_calls(powers, lambda: G._check_base_diagram(data)) == evaluation


def test_base_diagram_check_rejects_a_corrupted_module_image():
    data = G.phi_build(parse_laurent("1-b+b^2"), 3)
    alpha, beta = data.pair
    for bad_pair in ((alpha + 1, beta), (alpha, beta - 1)):
        bad = dataclasses.replace(data, pair=bad_pair)
        with pytest.raises(TheoremViolationError):
            G._check_base_diagram(bad)


def test_phi_build_commutator_count_does_not_depend_on_k():
    # the order relator was k literal commutators; it is one commutator with
    # b and one closed-form power at every level
    s = parse_laurent("1-b+b^2")
    counts = [_count_calls(G.comm_b.__code__, lambda: G.phi_build(s, k)) for k in (0, 500)]
    assert counts[0] > 0
    assert counts[0] == counts[1]
