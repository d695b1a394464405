import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vltower import quadratic
from vltower.errors import LaurentParseError, NotInSError, PreconditionError
from vltower.laurent import LaurentPoly, augmentation, in_S, parse_laurent, require_in_S
from vltower.quadratic import WINDOW_COEFF_BOUND
from references import B, ONE, ZERO, divide_exact, enumerate_S, poly_add, poly_mul, poly_neg, shift

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


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<b>b)|(?P<caret>\^)|(?P<star>\*)|(?P<sign>[+-]))")


def ref_parse_laurent(text: str) -> LaurentPoly:
    """The parser before it read one term at a time: a token list and an
    LL(1) parser over it."""
    pos = 0
    n = len(text)
    tokens: list[tuple[str, str, int]] = []
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise LaurentParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()

    coeffs: dict[int, int] = {}
    i = 0

    def peek(kind: str) -> bool:
        return i < len(tokens) and tokens[i][0] == kind

    def expect(kind: str) -> tuple[str, int]:
        nonlocal i
        if not peek(kind):
            where = tokens[i][2] if i < len(tokens) else n
            raise LaurentParseError(f"expected {kind}", where)
        _, val, at = tokens[i]
        i += 1
        return val, at

    first = True
    while i < len(tokens):
        sign = 1
        if peek("sign"):
            val, _ = expect("sign")
            sign = -1 if val == "-" else 1
        elif not first:
            raise LaurentParseError("expected '+' or '-' between terms", tokens[i][2])
        first = False

        mag: int | None = None
        if peek("int"):
            mag = int(expect("int")[0])
            if peek("star"):
                expect("star")
        exp = 0
        has_b = False
        if peek("b"):
            expect("b")
            has_b = True
            exp = 1
            if peek("caret"):
                expect("caret")
                esign = 1
                if peek("sign"):
                    v, at = expect("sign")
                    if v == "+":
                        raise LaurentParseError("exponent sign must be '-' or absent", at)
                    esign = -1
                ev, _ = expect("int")
                exp = esign * int(ev)
        if mag is None and not has_b:
            where = tokens[i][2] if i < len(tokens) else n
            raise LaurentParseError("expected a coefficient or 'b'", where)
        coeff = sign * (1 if mag is None else mag)
        coeffs[exp] = coeffs.get(exp, 0) + coeff

    if first:
        raise LaurentParseError("empty polynomial literal", 0)
    return LaurentPoly.from_dict(coeffs)


def test_parse_examples():
    assert dict(parse_laurent("1-b+b^2").terms) == {0: 1, 1: -1, 2: 1}
    assert dict(parse_laurent("b").terms) == {1: 1}
    assert dict(parse_laurent("2b^-1 - b^3").terms) == {-1: 2, 3: -1}


def test_parse_more_syntax():
    assert parse_laurent("2*b^2 + 1") == parse_laurent("1+2b^2")
    assert dict(parse_laurent("-b").terms) == {1: -1}
    assert parse_laurent(" 3 ") == LaurentPoly.from_dict({0: 3})
    assert parse_laurent("b - b") == ZERO
    assert parse_laurent("+b") == B


@pytest.mark.parametrize(
    "bad",
    ["", "b^", "1++2", "x", "2^3", "1 2", "b^+2", "*b", "b b", "2**b", "b^--2", "-"]
    + [pytest.param("1" * 5000, id="5000-digit coefficient")],
)
def test_parse_errors_carry_position(bad):
    with pytest.raises(LaurentParseError) as err:
        parse_laurent(bad)
    assert err.value.position >= 0


def _outcome(parse, text):
    try:
        return parse(text)
    except LaurentParseError:
        return LaurentParseError


soup = st.lists(
    st.sampled_from(list("0123456789b^*+- \tx") + ["b^-3", "b ^ - 4", "3*b^2", "b^+2", "12", "b^", "2b"]),
    max_size=12,
).map("".join)


@given(soup)
@settings(max_examples=400)
def test_parser_matches_token_parser(text):
    assert _outcome(parse_laurent, text) == _outcome(ref_parse_laurent, text)


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
    assert poly_mul(B, parse_laurent("b^-1")) == ONE
    assert poly_add(ONE, LaurentPoly.from_dict({0: -1})) == ZERO
    s = parse_laurent("1-b+b^2")
    assert poly_mul(s, s) == parse_laurent("1-2b+3b^2-2b^3+b^4")


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    add, mul = poly_add, poly_mul
    assert add(p, q) == add(q, p)
    assert add(add(p, q), r) == add(p, add(q, r))
    assert mul(p, q) == mul(q, p)
    assert mul(mul(p, q), r) == mul(p, mul(q, r))
    assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
    assert add(p, poly_neg(p)) == ZERO
    assert mul(p, ONE) == p


@given(polys, polys)
def test_augmentation_is_multiplicative(p, q):
    assert augmentation(poly_mul(p, q)) == augmentation(p) * augmentation(q)
    assert augmentation(poly_add(p, q)) == augmentation(p) + augmentation(q)


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


def test_window_walk_memory_at_the_coefficient_bound():
    # the window check holds 32 packed counts of (span + 1) 2c + 1 slots,
    # about 45 KB at span 12, the longest span whose sums every slot reaches
    c = WINDOW_COEFF_BOUND
    with pytest.raises(PreconditionError, match="past the window bound"):
        next(enumerate_S(0, c + 1))
    tracemalloc.start()
    try:
        w, counts = quadratic._key_counts(12, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counts) == 32 and max(counts).bit_length() <= w * (13 * 2 * c + 1)
    assert peak < 1024 * 1024


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
    spans = [s.terms[-1][0] - s.terms[0][0] for s in out]
    assert spans == sorted(spans)


def test_enumerate_S_closed_under_multiplication_sample():
    elems = list(enumerate_S(2, 1))
    for s in elems[:6]:
        for t in elems[:6]:
            assert in_S(poly_mul(s, t))


def test_divide_exact():
    s = parse_laurent("1-b+b^2")
    t = parse_laurent("1+b")
    s2 = poly_mul(s, s)
    assert divide_exact(poly_mul(s, t), s) == t
    assert divide_exact(poly_mul(s2, t), s2) == t
    assert divide_exact(ONE, s) is None
    assert divide_exact(ZERO, s) == ZERO
    assert divide_exact(poly_mul(shift(s, -3), t), t) == shift(s, -3)
    with pytest.raises(ZeroDivisionError):
        divide_exact(s, ZERO)


@given(polys, polys)
@settings(max_examples=60)
def test_divide_exact_roundtrip(p, q):
    if not q.terms:
        return
    assert divide_exact(poly_mul(p, q), q) == p
