import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vltower.errors import NotInSError, PreconditionError
from vltower.groups import tower_build
from vltower.laurent import parse_laurent
from vltower.localization import DYADIC_ZERO, Dyadic, dyadic_make, parse_dyadic
from references import (
    DYADIC_HALF,
    ONE,
    Fraction,
    center_eq,
    center_make,
    center_push,
    center_push_to,
    center_to_dyadic,
    dyadic_add,
    dyadic_double,
    dyadic_halve,
    dyadic_neg,
    frac_eq,
    poly_mul,
    s_matrix,
    vec_mat,
)

S = parse_laurent("1-b+b^2")

dyadics = st.builds(dyadic_make, st.integers(-500, 500), st.integers(0, 10))


def test_fraction_denominator_must_be_in_S():
    with pytest.raises(NotInSError):
        Fraction((1, 0), parse_laurent("2b"))


def test_frac_eq_worked_example():
    # (1,0)/1 equals (2,2)/s since (1,0) * s(U) = (2,2)
    assert frac_eq(Fraction((1, 0), ONE), Fraction((2, 2), S))
    assert not frac_eq(Fraction((1, 0), ONE), Fraction((0, 1), ONE))


def test_frac_eq_definition_instance():
    rng = random.Random(5)
    for _ in range(50):
        n = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert frac_eq(Fraction(n, ONE), Fraction(vec_mat(n, s_matrix(S)), S))


def test_frac_eq_is_an_equivalence_relation():
    # Build related triples: f, f scaled by s with denominator s, and again.
    rng = random.Random(11)
    scalers = [S, parse_laurent("2-b"), parse_laurent("b"), parse_laurent("1+b-b^2")]
    fracs = []
    for _ in range(1000):
        n = (rng.randint(-9, 9), rng.randint(-9, 9))
        den = rng.choice(scalers)
        f = Fraction(n, den)
        g = Fraction(vec_mat(n, s_matrix(den)), poly_mul(den, den))
        h = Fraction(vec_mat(n, s_matrix(ONE)), den)
        fracs.append((f, g, h))
    for f, g, h in fracs:
        assert frac_eq(f, f)
        assert frac_eq(f, g) == frac_eq(g, f)
        if frac_eq(f, g) and frac_eq(g, h):
            assert frac_eq(f, h)
        assert frac_eq(f, g)  # constructed equal
        assert frac_eq(f, h)


# --- dyadics ----------------------------------------------------------------


def test_dyadic_examples():
    assert dyadic_add(DYADIC_HALF, DYADIC_HALF) == DYADIC_ZERO
    assert dyadic_make(6, 3) == Dyadic(3, 2)  # 6/8 canonicalizes to 3/4
    assert dyadic_halve(Dyadic(3, 3)) == Dyadic(3, 4)  # 3/8 -> 3/16


def test_dyadic_canonical_form_enforced():
    with pytest.raises(ValueError):
        Dyadic(2, 3)
    with pytest.raises(ValueError):
        Dyadic(0, 4)
    with pytest.raises(ValueError):
        Dyadic(9, 3)


def ref_dyadic_make(num, k):
    """The divide loop dyadic_make used before it shifted once."""
    num %= 1 << k
    while num and num % 2 == 0:
        num //= 2
        k -= 1
    return Dyadic(num, k) if num else DYADIC_ZERO


def test_dyadic_make_matches_the_divide_loop():
    for k in range(13):
        for num in range(-(1 << 10), (1 << 10) + 1):
            x = dyadic_make(num, k)
            assert x == ref_dyadic_make(num, k)
            Dyadic(x.num, x.k)  # canonical: __post_init__ accepts it
    with pytest.raises(ValueError):
        Dyadic(2, 2)
    with pytest.raises(ValueError):
        dyadic_make(1, -1)


@given(dyadics)
def test_double_halve_roundtrip(x):
    assert dyadic_double(dyadic_halve(x)) == x


@given(dyadics)
def test_halve_other_preimage_is_plus_half(x):
    other = dyadic_add(dyadic_halve(x), DYADIC_HALF)
    assert dyadic_double(other) == x
    assert other != dyadic_halve(x)


@given(dyadics, dyadics)
def test_dyadic_group_laws(x, y):
    assert dyadic_add(x, y) == dyadic_add(y, x)
    assert dyadic_add(x, dyadic_neg(x)) == DYADIC_ZERO
    assert dyadic_add(x, DYADIC_ZERO) == x


def test_parse_dyadic():
    assert parse_dyadic("3/8") == Dyadic(3, 3)
    assert parse_dyadic("0") == DYADIC_ZERO
    assert parse_dyadic("12/8") == DYADIC_HALF
    with pytest.raises(ValueError):
        parse_dyadic("1/3")


# --- tower center ----------------------------------------------------------


@pytest.fixture(scope="module")
def tower():
    # levels (0, 2, 4); norms (12, 12); odd parts (3, 3)
    return tower_build([S, S])


def test_center_push_worked_example(tower):
    # residue 1 at level 2 pushed along |s| = 12 becomes 12 mod 16;
    # dyadic images agree before and after (the commuting square).
    c = center_make(tower, 1, 1)
    pushed = center_push(c, S, tower)
    assert pushed == (2, 12)
    assert center_to_dyadic(c, tower) == center_to_dyadic(pushed, tower)


def test_center_push_injective_on_nonzero(tower):
    for residue in range(1, 4):
        _, pushed = center_push(center_make(tower, 1, residue), S, tower)
        assert pushed != 0
    assert center_push(center_make(tower, 1, 0), S, tower) == (2, 0)


def test_center_to_dyadic_strips_odd_units(tower):
    # stage 1 has modulus 4 and accumulated odd unit 3 (from |s| = 12 = 4*3):
    # residue 2 maps to 2 * inv(3) / 4 = 2*3/4 = 1/2 mod 1.
    c = center_make(tower, 1, 2)
    assert center_to_dyadic(c, tower) == DYADIC_HALF
    # residue 1 maps to 3/4, not 1/4: the unit strip is visible.
    assert center_to_dyadic(center_make(tower, 1, 1), tower) == Dyadic(3, 2)


def test_center_stage_zero_is_trivial(tower):
    assert center_to_dyadic(center_make(tower, 0, 0), tower) == DYADIC_ZERO


def test_center_eq_via_common_stage(tower):
    c1 = center_make(tower, 1, 1)
    c2 = center_push(c1, S, tower)
    assert center_eq(c1, c2, tower)
    assert not center_eq(center_make(tower, 1, 3), c2, tower)


def test_center_eq_iff_equal_dyadics(tower):
    for r1 in range(4):
        for r2 in range(16):
            c1 = center_make(tower, 1, r1)
            c2 = center_make(tower, 2, r2)
            same = center_eq(c1, c2, tower)
            assert same == (
                center_to_dyadic(c1, tower) == center_to_dyadic(c2, tower)
            )


def test_center_push_requires_matching_edge(tower):
    with pytest.raises(PreconditionError):
        center_push(center_make(tower, 0, 0), parse_laurent("b"), tower)
    with pytest.raises(PreconditionError):
        center_make(tower, 9, 0)


def test_push_along_product_edge_matches_composite(tower):
    # pushing along s then s has the same dyadic effect as one push along s*s
    prod_tower = tower_build([poly_mul(S, S)])
    for r in range(4):
        via_two = center_push_to(center_make(tower, 1, r), 2, tower)
        assert tower.levels[2] == prod_tower.levels[1]
        direct = center_make(prod_tower, 1, via_two[1])
        # same residue and same accumulated odd unit, so equal dyadic images
        assert center_to_dyadic(via_two, tower) == center_to_dyadic(direct, prod_tower)


def test_composite_push_is_multiplication_by_norm_product(tower):
    c = center_make(tower, 0, 0)
    # from stage 0 the center is trivial; use stage 1 with all residues
    for r in range(4):
        c = center_make(tower, 1, r)
        assert center_push_to(c, 2, tower) == (2, (r * 12) % 16)
