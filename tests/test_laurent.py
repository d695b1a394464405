import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vltower.errors import LaurentParseError, NotInSError, PreconditionError
from vltower.laurent import (
    B,
    ONE,
    ZERO,
    LaurentPoly,
    augmentation,
    divide_exact,
    enumerate_S,
    in_S,
    parse_laurent,
    require_in_S,
)

polys = st.builds(
    LaurentPoly.from_dict,
    st.dictionaries(st.integers(-5, 7), st.integers(-9, 9), max_size=6),
)


def ref_enumerate_S(max_degree_span, max_abs_coeff):
    """The enumerator before it streamed: every coefficient tuple of the
    window, filtered to augmentation 1 and sorted by (span, tuple)."""
    rng = range(-max_abs_coeff, max_abs_coeff + 1)
    found = [t for t in itertools.product(rng, repeat=max_degree_span + 1) if sum(t) == 1]

    def order_key(t):
        support = [i for i, c in enumerate(t) if c]
        return (support[-1] - support[0], t)

    found.sort(key=order_key)
    return [LaurentPoly.from_dict(dict(enumerate(t))) for t in found]


def test_parse_examples():
    assert parse_laurent("1-b+b^2").coeffs == {0: 1, 1: -1, 2: 1}
    assert parse_laurent("b").coeffs == {1: 1}
    assert parse_laurent("2b^-1 - b^3").coeffs == {-1: 2, 3: -1}


def test_parse_more_syntax():
    assert parse_laurent("2*b^2 + 1") == parse_laurent("1+2b^2")
    assert parse_laurent("-b") .coeffs == {1: -1}
    assert parse_laurent(" 3 ") == LaurentPoly.constant(3)
    assert parse_laurent("b - b") == ZERO
    assert parse_laurent("+b") == B


@pytest.mark.parametrize("bad", ["", "b^", "1++2", "x", "2^3", "1 2", "b^+2"])
def test_parse_errors_carry_position(bad):
    with pytest.raises(LaurentParseError) as err:
        parse_laurent(bad)
    assert err.value.position >= 0


@given(polys)
@settings(max_examples=1000)
def test_print_parse_roundtrip(p):
    assert parse_laurent(str(p)) == p


def test_repeated_exponents_are_not_canonical():
    # (0, 1), (0, 2) would print as 1+2 and differ from the constant 3
    for terms in (((0, 1), (0, 2)), ((-1, 1), (2, 1), (2, -3)), ((3, 1), (1, 1))):
        with pytest.raises(ValueError):
            LaurentPoly(terms)


@given(st.lists(st.tuples(st.integers(-5, 7), st.integers(-9, 9)), max_size=8))
def test_from_dict_and_parse_output_validates(pairs):
    coeffs = {}
    for e, c in pairs:
        coeffs[e] = coeffs.get(e, 0) + c
    p = LaurentPoly.from_dict(coeffs)
    text = "".join(f"{c:+d}b^{e}" for e, c in pairs) or "0"
    for q in (p, parse_laurent(text)):
        assert LaurentPoly(q.terms) == q == p


def test_augmentation_examples():
    assert augmentation(parse_laurent("1-b+b^2")) == 1
    assert augmentation(ZERO) == 0
    assert augmentation(B) == 1


def test_in_S_examples():
    assert in_S(parse_laurent("1-b+b^2"))
    assert not in_S(parse_laurent("2b"))
    assert in_S(ONE)
    assert not in_S(ZERO)


def test_s_membership_record():
    s = parse_laurent("2b")
    assert (augmentation(s), in_S(s)) == (2, False)
    with pytest.raises(NotInSError, match="augmentation 2"):
        require_in_S(s)


def test_ring_op_examples():
    assert B * LaurentPoly.monomial(-1) == ONE
    assert ONE + LaurentPoly.constant(-1) == ZERO
    s = parse_laurent("1-b+b^2")
    assert s * s == parse_laurent("1-2b+3b^2-2b^3+b^4")


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == ZERO
    assert p * ONE == p


@given(polys, polys)
def test_augmentation_is_multiplicative(p, q):
    assert augmentation(p * q) == augmentation(p) * augmentation(q)
    assert augmentation(p + q) == augmentation(p) + augmentation(q)


def test_enumerate_S_trivial_window():
    assert list(enumerate_S(0, 1)) == [ONE]


def test_enumerate_S_window_one():
    # Coefficients in [-1, 1] on exponents {0, 1} summing to 1: exactly b and 1,
    # ordered by (span, coefficient tuple).
    assert list(enumerate_S(1, 1)) == [B, ONE]


@pytest.mark.parametrize(
    "span,coeff", [(d, c) for d in range(6) for c in range(4)] + [(6, 2), (7, 1), (7, 2)]
)
def test_enumerate_S_matches_bruteforce_count(span, coeff):
    # the same elements in the same order as the sorted product, c = 0 included;
    # span 7 runs the two-coefficient tail at window width 8
    out = list(enumerate_S(span, coeff))
    assert out == ref_enumerate_S(span, coeff)
    assert len(set(out)) == len(out)  # no duplicates
    assert all(in_S(s) for s in out)


@pytest.mark.parametrize("span,coeff", [(-1, 1), (1, -1)])
def test_enumerate_S_rejects_negative_bounds(span, coeff):
    with pytest.raises(PreconditionError):
        next(enumerate_S(span, coeff))


def test_enumerate_S_streams():
    # the (6, 3) window has 59,710 elements; iterating it holds one at a time
    tracemalloc.start()
    try:
        for _ in enumerate_S(6, 3):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_enumerate_S_order_is_documented():
    out = list(enumerate_S(2, 1))
    spans = [s.span for s in out]
    assert spans == sorted(spans)


def test_enumerate_S_closed_under_multiplication_sample():
    elems = list(enumerate_S(2, 1))
    for s in elems[:6]:
        for t in elems[:6]:
            assert in_S(s * t)


def test_divide_exact():
    s = parse_laurent("1-b+b^2")
    t = parse_laurent("1+b")
    assert divide_exact(s * t, s) == t
    assert divide_exact(s * s * t, s * s) == t
    assert divide_exact(ONE, s) is None
    assert divide_exact(ZERO, s) == ZERO
    assert divide_exact(s.shift(-3) * t, t) == s.shift(-3)
    with pytest.raises(ZeroDivisionError):
        divide_exact(s, ZERO)


@given(polys, polys)
@settings(max_examples=60)
def test_divide_exact_roundtrip(p, q):
    if q.is_zero():
        return
    assert divide_exact(p * q, q) == p
