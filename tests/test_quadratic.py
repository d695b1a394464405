import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vltower.errors import NotInSError, PreconditionError
from vltower.laurent import LaurentPoly, enumerate_S, parse_laurent
from vltower.quadratic import (
    IDENTITY,
    U,
    Lattice,
    Mat2,
    evaluate_at_U,
    image,
    intersect_chain_probe,
    norm,
    norm_data,
    predicted_parity,
    two_adic_split,
    u_pow,
    vec_mat,
    verify_parity_range,
)

polys = st.builds(
    LaurentPoly.from_dict,
    st.dictionaries(st.integers(-3, 4), st.integers(-4, 4), max_size=4),
)


def ref_predicted_parity(s):
    """The coefficient-pair formula as stated: 1 + the sum of n_i n_j over
    pairs of the support at distance not divisible by 3, mod 2."""
    terms = s.terms
    total = 1
    for x in range(len(terms)):
        for y in range(x + 1, len(terms)):
            (i, ni), (j, nj) = terms[x], terms[y]
            if (j - i) % 3 != 0:
                total += ni * nj
    return total % 2


def ref_evaluate(s):
    """s(U) one term at a time: the sum of c U^e."""
    out = Mat2(0, 0, 0, 0)
    for e, c in s.terms:
        p = u_pow(e)
        out = out + Mat2(c * p.a, c * p.b, c * p.c, c * p.d)
    return out


def _random_S(rng, lo, hi, size):
    """A random polynomial with exponents in [lo, hi], moved into S by
    adjusting the coefficient of its lowest exponent."""
    coeffs = {rng.randint(lo, hi): rng.randint(-9, 9) for _ in range(size)}
    low = min(coeffs)
    coeffs[low] += 1 - sum(coeffs.values())
    return LaurentPoly.from_dict(coeffs)


def test_action_matrix_is_the_fixed_constant():
    assert U == Mat2(0, 1, 1, 3)


def test_basis_action():
    # a |-> a^b is one right multiplication by U
    assert vec_mat((1, 0), U) == (0, 1)


def test_u_squared_is_3u_plus_i():
    assert U * U == Mat2(0, 3, 3, 9) + IDENTITY


def test_cayley_hamilton_annihilates():
    assert evaluate_at_U(parse_laurent("b^2 - 3b - 1")) == Mat2(0, 0, 0, 0)


def test_evaluate_examples():
    assert evaluate_at_U(parse_laurent("1")) == IDENTITY
    assert evaluate_at_U(parse_laurent("1-b+b^2")) == Mat2(2, 2, 2, 8)
    binv = evaluate_at_U(parse_laurent("b^-1"))
    assert binv == Mat2(-3, 1, 1, 0)
    assert U * binv == IDENTITY


@given(polys, polys)
def test_evaluate_is_a_ring_map(p, q):
    assert evaluate_at_U(p + q) == evaluate_at_U(p) + evaluate_at_U(q)
    assert evaluate_at_U(p * q) == evaluate_at_U(p) * evaluate_at_U(q)


def test_norm_examples():
    assert norm(parse_laurent("1-b+b^2")) == 12
    assert norm(parse_laurent("1")) == 1
    assert norm(parse_laurent("1-b^3+b^4")) == 87
    assert norm(parse_laurent("b")) == -1


def test_norm_multiplicative_500_random_pairs():
    rng = random.Random(2024)
    for _ in range(500):
        p = LaurentPoly.from_dict(
            {rng.randint(-3, 4): rng.randint(-4, 4) for _ in range(rng.randint(0, 4))}
        )
        q = LaurentPoly.from_dict(
            {rng.randint(-3, 4): rng.randint(-4, 4) for _ in range(rng.randint(0, 4))}
        )
        assert norm(p * q) == norm(p) * norm(q)


def test_norm_nonvanishing_on_S_window():
    for s in enumerate_S(4, 2):
        assert norm(s) != 0


def test_norm_nonvanishing_on_acceptance_window():
    # the s-maps are injective on the module: no S-element in the big window
    # has vanishing norm
    for s in enumerate_S(6, 3):
        assert norm(s) != 0


def test_norm_valuations_are_even_on_window():
    # x^2 - 3x - 1 is irreducible mod 2, so 2 is inert in the evaluation order
    # and every norm has even 2-adic valuation.  Tower levels therefore grow
    # by even steps only.
    for s in enumerate_S(4, 2):
        p, _ = two_adic_split(norm(s))
        assert p % 2 == 0


def test_two_adic_split():
    assert two_adic_split(12) == (2, 3)
    assert two_adic_split(1) == (0, 1)
    assert two_adic_split(-8) == (3, -1)
    with pytest.raises(PreconditionError):
        two_adic_split(0)


def test_norm_data_worked_example():
    nd = norm_data(parse_laurent("1-b+b^2"))
    assert (nd.norm, nd.p, nd.v) == (12, 2, 3)


def test_predicted_parity_examples():
    assert predicted_parity(parse_laurent("1-b+b^2")) == 0
    assert predicted_parity(parse_laurent("1")) == 1
    assert predicted_parity(parse_laurent("1-b^3+b^4")) == 1


def test_predicted_parity_matches_the_pair_formula():
    for s in enumerate_S(4, 2):
        assert predicted_parity(s) == ref_predicted_parity(s)
    rng = random.Random(11)
    for _ in range(2000):
        s = _random_S(rng, -40, 40, rng.randint(1, 8))
        assert predicted_parity(s) == ref_predicted_parity(s) == norm(s) % 2


def test_horner_evaluation_matches_the_term_sum():
    rng = random.Random(12)
    for _ in range(1000):
        e, terms = rng.randint(-(1 << 12), 1 << 12), {}
        for _ in range(rng.randint(0, 6)):
            terms[e] = rng.randint(-9, 9)
            e += rng.choice([1, 2, 3, rng.randint(1, 1 << 12)])
        s = LaurentPoly.from_dict(terms)
        ref = ref_evaluate(s)
        assert evaluate_at_U(s) == ref
        assert norm(s) == ref.det()


def test_predicted_parity_requires_S():
    with pytest.raises(NotInSError):
        predicted_parity(parse_laurent("2b"))


def test_predicted_parity_shift_invariant():
    s = parse_laurent("1-b+b^2")
    # shifts near 2^66 too: the norm takes the sign (-1)^m, never U^m
    for m in (-3, -1, 2, 5, 10**20, 10**20 + 1, -(10**20) - 1):
        assert predicted_parity(s.shift(m)) == predicted_parity(s)
        assert norm(s.shift(m)) == (-1) ** (m % 2) * norm(s)


@pytest.mark.parametrize("span,coeff", [(0, 1), (2, 1), (2, 2), (4, 2)])
def test_verify_parity_range_no_counterexamples(span, coeff):
    rep = verify_parity_range(span, coeff)
    assert rep.ok
    assert rep.counterexamples == ()
    if (span, coeff) == (0, 1):
        assert rep.checked == 1  # exactly s = 1


# --- lattices ---------------------------------------------------------------


def test_lattice_examples():
    l1 = image(U - IDENTITY)
    assert l1.index() == 3
    assert l1.contains((0, 0))
    assert not l1.contains((1, 0))
    assert intersect_chain_probe((1, 0), lambda i: _chain(i), 10) == 1


def _chain(i):
    m = IDENTITY
    for _ in range(i):
        m = m * (U - IDENTITY)
    return image(m)


def test_lattice_whole_and_zero():
    assert Lattice.whole().index() == 1
    assert Lattice.whole().contains((7, -5))
    assert Lattice.zero().contains((0, 0))
    assert not Lattice.zero().contains((0, 1))
    assert Lattice.zero().index() == math.inf


def test_lattice_rank_one():
    l = Lattice.from_rows([(2, 4)])
    assert l.contains((4, 8))
    assert not l.contains((2, 3))
    assert not l.contains((1, 2))
    assert l.index() == math.inf


def test_lattice_membership_against_bruteforce():
    rng = random.Random(7)
    for _ in range(50):
        rows = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        lat = Lattice.from_rows(rows)
        spanned = set()
        coeffs = range(-6, 7)
        for combo in _combos(len(rows), coeffs):
            x = sum(c * r[0] for c, r in zip(combo, rows))
            y = sum(c * r[1] for c, r in zip(combo, rows))
            spanned.add((x, y))
        for v in [(x, y) for x in range(-4, 5) for y in range(-4, 5)]:
            if v in spanned:
                assert lat.contains(v), (rows, v)
            elif lat.contains(v):
                # membership beyond the brute-force coefficient window is legal;
                # confirm by solving directly against the canonical basis
                assert _solves(lat, v), (rows, v)


def _combos(n, rng):
    if n == 1:
        return [(c,) for c in rng]
    return [(c, *rest) for c in rng for rest in _combos(n - 1, rng)]


def _solves(lat, v):
    basis = lat.basis
    if len(basis) == 2:
        (a, b), (_, c) = basis
        return v[0] % a == 0 and (v[1] - (v[0] // a) * b) % c == 0
    if len(basis) == 1:
        (a, b), = basis
        if a:
            return v[0] % a == 0 and v[1] == (v[0] // a) * b
        return v[0] == 0 and v[1] % b == 0
    return v == (0, 0)


def test_lattice_equality_by_mutual_inclusion():
    l1 = Lattice.from_rows([(1, 0), (0, 1)])
    l2 = Lattice.from_rows([(1, 1), (0, 1), (1, 0)])
    assert l1 == l2
    l3 = Lattice.from_rows([(2, 0), (0, 1)])
    assert l1 != l3
    assert l3.issubset(l1) and not l1.issubset(l3)
