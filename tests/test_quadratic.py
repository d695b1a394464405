import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_closed_forms import ref_in_row_span

from vltower import quadratic
from vltower.cli import main
from vltower.errors import NotInSError, PreconditionError
from vltower.laurent import LaurentPoly, parse_laurent
from vltower.quadratic import (
    WINDOW_COEFF_BOUND,
    _pair_mul,
    evaluate_at_U,
    ideal_contains,
    ideal_index,
    norm,
    norm_data,
    predicted_parity,
    two_adic_split,
    verify_parity_range,
)
from references import (
    IDENTITY,
    U,
    Mat2,
    enumerate_S,
    poly_add,
    poly_mul,
    s_matrix,
    shift,
    u_pow,
    vec_mat,
    window_key_counts,
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
    assert s_matrix(parse_laurent("b^2 - 3b - 1")) == Mat2(0, 0, 0, 0)


def test_evaluate_examples():
    assert s_matrix(parse_laurent("1")) == IDENTITY
    assert s_matrix(parse_laurent("1-b+b^2")) == Mat2(2, 2, 2, 8)
    binv = s_matrix(parse_laurent("b^-1"))
    assert binv == Mat2(-3, 1, 1, 0)
    assert U * binv == IDENTITY


def test_evaluate_returns_the_pair_of_s():
    # s(U) = alpha I + beta U is kept as (alpha, beta), the first row of the matrix
    assert evaluate_at_U(parse_laurent("1")) == (1, 0)
    assert evaluate_at_U(parse_laurent("1-b+b^2")) == (2, 2)
    assert evaluate_at_U(parse_laurent("b^-1")) == (-3, 1)
    assert evaluate_at_U(parse_laurent("0")) == (0, 0)


def test_row_times_s_of_u_is_one_pair_product():
    # reading the row (x, y) as x I + y U identifies Z^2 with Z[U]: the row
    # times the matrix of s(U) is the pair product with the pair of s
    rng = random.Random(2000)
    for _ in range(2000):
        s = LaurentPoly.from_dict({rng.randint(-30, 30): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))})
        v = (rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
        assert quadratic._pair_mul(v, evaluate_at_U(s)) == vec_mat(v, s_matrix(s))


@given(polys, polys)
def test_evaluate_is_a_ring_map(p, q):
    assert s_matrix(poly_add(p, q)) == s_matrix(p) + s_matrix(q)
    assert s_matrix(poly_mul(p, q)) == s_matrix(p) * s_matrix(q)


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
        assert norm(poly_mul(p, q)) == norm(p) * norm(q)


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
        assert s_matrix(s) == ref
        assert norm(s) == ref.det()


def test_predicted_parity_requires_S():
    with pytest.raises(NotInSError):
        predicted_parity(parse_laurent("2b"))


def test_predicted_parity_shift_invariant():
    s = parse_laurent("1-b+b^2")
    # shifts near 2^66 too: the norm takes the sign (-1)^m, never U^m
    for m in (-3, -1, 2, 5, 10**20, 10**20 + 1, -(10**20) - 1):
        assert predicted_parity(shift(s, m)) == predicted_parity(s)
        assert norm(shift(s, m)) == (-1) ** (m % 2) * norm(s)


@pytest.mark.parametrize("span,coeff", [(0, 1), (2, 1), (2, 2), (4, 2)])
def test_verify_parity_range_no_counterexamples(span, coeff):
    rep = verify_parity_range(span, coeff)
    assert rep.ok
    assert rep.counterexamples == ()
    if (span, coeff) == (0, 1):
        assert rep.checked == 1  # exactly s = 1


def test_verify_parity_range_memory_at_the_coefficient_bound():
    # 49,920 elements; the check holds its 32 packed counts, not the elements
    tracemalloc.start()
    try:
        rep = verify_parity_range(4, WINDOW_COEFF_BOUND)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.checked == 49920
    assert peak < 1024 * 1024


class _Walked(Exception):
    pass


def _walk(i):
    raise _Walked


def test_window_size_bound_comes_before_any_power_of_u(monkeypatch):
    # the largest windows within WINDOW_SIZE_BOUND reach the count; larger
    # ones, and spans whose count would itself be slow, are rejected first
    monkeypatch.setattr(quadratic, "_u_pair", _walk)
    for span, coeff in (12, 2), (17, 1), (8, 5):
        assert quadratic._window_size(span, coeff) <= quadratic.WINDOW_SIZE_BOUND
        with pytest.raises(_Walked):
            verify_parity_range(span, coeff)
    for span, coeff in (10, 3), (18, 1), (7, 8), (54, 1), (20000, 3):
        with pytest.raises(PreconditionError, match="holds more than 100000000 S-elements"):
            verify_parity_range(span, coeff)


def ref_parity_report(span, coeff):
    """The window check one element at a time: (checked, counterexamples)."""
    checked = 0
    bad = []
    for s in enumerate_S(span, coeff):
        checked += 1
        if predicted_parity(s) != norm(s) % 2:
            bad.append(str(s))
    return checked, tuple(bad)


def test_grouped_parity_check_matches_the_element_loop():
    for span, coeff in [*itertools.product(range(6), range(1, 4)), (6, 1), (6, 2)]:
        rep = verify_parity_range(span, coeff)
        assert (rep.checked, rep.counterexamples) == ref_parity_report(span, coeff)


def test_window_size_counts_the_tuples_that_sum_to_one():
    # the count verify_parity_range compares its own tally with
    for span, coeff in itertools.product(range(6), range(4)):
        tuples = itertools.product(range(-coeff, coeff + 1), repeat=span + 1)
        assert quadratic._window_size(span, coeff) == sum(sum(t) == 1 for t in tuples)
    assert quadratic._window_size(8, 3) == 2602341


def _unpacked(span, coeff):
    """{key: {t: count}} from ``_key_counts``: every slot of every key read
    back, the empty ones left out."""
    w, counts = quadratic._key_counts(span, coeff)
    offset = (span + 1) * coeff
    slots = 2 * offset + 1
    out = {}
    for key, packed in enumerate(counts):
        assert packed >> w * slots == 0  # nothing past the last slot
        if ways := {i - offset: n for i in range(slots) if (n := packed >> w * i & (1 << w) - 1)}:
            out[key] = ways
    return out


def _key(t):
    """The key of a coefficient tuple: its class sums and the pair of its s(U), mod 2."""
    alpha, beta = evaluate_at_U(LaurentPoly.from_dict(dict(enumerate(t))))
    x = sum((sum(t[i::3]) & 1) << i for i in range(3))
    return 4 * x + 2 * (alpha & 1) + (beta & 1)


def _predicts_even(n0, n1, n2):
    # a wrong key is then an odd norm
    return 0


# (4, 3) and (5, 2) reach every class mod 3 twice
@pytest.mark.parametrize("span,coeff", [(0, 2), (1, 3), (3, 2), (4, 3), (5, 2)])
def test_grouped_parity_check_takes_each_norm_in_window_order(monkeypatch, span, coeff):
    # the state count against a tally of every tuple of the window by its
    # key and sum; with the pair formula predicting even, the failures are
    # the odd norms, listed in window order
    tally = {}
    for t in itertools.product(range(-coeff, coeff + 1), repeat=span + 1):
        ways = tally.setdefault(_key(t), {})
        ways[sum(t)] = ways.get(sum(t), 0) + 1
    assert _unpacked(span, coeff) == tally
    monkeypatch.setattr(quadratic, "_pair_parity", _predicts_even)
    odd = [str(s) for s in enumerate_S(span, coeff) if norm(s) % 2]
    rep = verify_parity_range(span, coeff)
    assert (rep.failed, rep.counterexamples) == (len(odd), tuple(odd[: quadratic.COUNTEREXAMPLE_LIST_BOUND]))


# the longest span at c = 1, 17, the widest coefficients, c = 8 at span 6, and the largest window, (12, 2)
@pytest.mark.parametrize("span,coeff", [(17, 1), (6, WINDOW_COEFF_BOUND), (12, 2)])
def test_key_counts_equal_the_unpacked_recurrence_at_the_extremes(span, coeff):
    # every slot of every key, read back, holds the count of the recurrence
    # one entry at a time: a slot that carried into the next would not
    assert _unpacked(span, coeff) == window_key_counts(span, coeff)


def _without_n1_n2(n0, n1, n2):
    # 1 + N0 (N1 + N2) = 1 + N0 (1 - N0) on S: predicts odd everywhere
    return (1 + n0 * n1 + n0 * n2) % 2


def _plus_n0(n0, n1, n2):
    # wrong exactly where N0 is odd, so it tells the classes apart
    return (1 + n0 * n1 + n0 * n2 + n1 * n2 + n0) % 2


@pytest.mark.parametrize("fault", [_without_n1_n2, _plus_n0])
def test_planted_parity_fault_gives_the_element_loop_counterexamples(monkeypatch, capsys, fault):
    monkeypatch.setattr(quadratic, "_pair_parity", fault)
    # _plus_n0 tells the classes apart: tail class sums taken at the wrong offset mod 3 give other counterexamples.
    # On (0, 2) and (1, 3) the tail sits partly below exponent 0; every norm there is odd, so only _plus_n0 errs
    for span, coeff in [(2, 2), (3, 2), (4, 3), (5, 2), *([(0, 2), (1, 3)] if fault is _plus_n0 else [])]:
        rep = verify_parity_range(span, coeff)
        checked, bad = ref_parity_report(span, coeff)
        assert bad and rep.counterexamples == bad
        assert rep.checked == checked
    assert main(["parity-verify", "--max-span", "3", "--max-coeff", "2", "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["claims"][0]["data"]["counterexamples"] == list(ref_parity_report(3, 2)[1])


def test_a_failing_window_counts_every_counterexample_and_lists_the_first(monkeypatch, capsys):
    # (6, 2) under _plus_n0 fails 3,919 elements, past the list bound, so the
    # listing walk stops at the 1,000th; the claim's statement counts them
    # all, and its data lists the first in report order
    monkeypatch.setattr(quadratic, "_pair_parity", _plus_n0)
    checked, bad = ref_parity_report(6, 2)
    listed = list(bad[: quadratic.COUNTEREXAMPLE_LIST_BOUND])
    assert len(bad) == 3919 and len(listed) == 1000
    rep = verify_parity_range(6, 2)
    assert (rep.checked, rep.failed, list(rep.counterexamples)) == (checked, 3919, listed)
    assert main(["parity-verify", "--max-span", "6", "--max-coeff", "2", "--format", "json"]) == 2
    (claim,) = json.loads(capsys.readouterr().out)["claims"]
    assert claim["statement"] == f"checked {checked} S-elements, 3919 counterexamples"
    assert claim["data"]["counterexamples"] == listed


def test_a_failing_window_lists_the_first_counterexamples_of_the_element_loop(monkeypatch):
    # (8, 3) under _without_n1_n2 fails a quarter of its 2,602,341 elements;
    # the listing walk stops at the first 1,000 in report order, the order
    # in which enumerate_S streams the window
    monkeypatch.setattr(quadratic, "_pair_parity", _without_n1_n2)
    rep = verify_parity_range(8, 3)
    assert (rep.checked, rep.failed) == (2602341, 654939)
    bad = (str(s) for s in enumerate_S(8, 3) if predicted_parity(s) != norm(s) % 2)
    assert rep.counterexamples == tuple(itertools.islice(bad, quadratic.COUNTEREXAMPLE_LIST_BOUND))


# --- lattices ---------------------------------------------------------------


def _generator_rows(pair):
    """The rows of alpha I + beta U."""
    alpha, beta = pair
    return (alpha, beta), (beta, alpha + 3 * beta)


def _u_minus_i_power(i):
    m = IDENTITY
    for _ in range(i):
        m = m * (U - IDENTITY)
    return m


def test_lattice_examples():
    l1 = _pair_mul((1, 0), (-1, 1))
    assert l1 == (-1, 1)
    assert ideal_index(l1) == 3
    assert ideal_contains(l1, (0, 0))
    assert ideal_contains(l1, (-1, 1)) and ideal_contains(l1, (3, 0))
    assert not ideal_contains(l1, (1, 0))


def test_lattice_whole_and_zero():
    assert ideal_index((1, 0)) == 1
    assert ideal_contains((1, 0), (7, -5))
    assert ideal_contains((0, 0), (0, 0))
    assert not ideal_contains((0, 0), (0, 1))
    assert ideal_index((0, 0)) == math.inf


def test_lattice_membership_against_bruteforce():
    rng = random.Random(7)
    powers = [_u_minus_i_power(i) for i in range(6)]
    pairs = [(0, 0), (1, 0), (-1, 0), (0, 1), *((m.a, m.b) for m in powers)]
    pairs += [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(40)]
    box = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    for pair in pairs:
        rows = _generator_rows(pair)
        spanned = set()
        for c0 in range(-6, 7):
            for c1 in range(-6, 7):
                spanned.add((c0 * rows[0][0] + c1 * rows[1][0], c0 * rows[0][1] + c1 * rows[1][1]))
        generator = Mat2(*rows[0], *rows[1])
        for v in box:
            # every small combination is a member; membership beyond the
            # coefficient window is decided by an exact rational solve
            assert ideal_contains(pair, v) == ref_in_row_span(generator, v), (pair, v)
            if v in spanned:
                assert ideal_contains(pair, v), (pair, v)


def test_lattice_index_and_membership_against_sympy_hermite_form():
    # an independent oracle: sympy's Hermite normal form of the generator
    # rows, whose columns (after transposing) span the same lattice
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(13)
    pairs = [(m.a, m.b) for m in map(_u_minus_i_power, range(13))]
    pairs += [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(30)]
    box = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    for pair in pairs:
        w = hermite_normal_form(sympy.Matrix(_generator_rows(pair)).T)
        if w.cols < 2:
            assert ideal_index(pair) == math.inf and pair == (0, 0)
            continue
        (p, q), (_, r) = w.tolist()
        assert ideal_index(pair) == p * r, pair
        for x, y in box:
            # (x, y) = c0 (p, 0) + c1 (q, r) for integers c0, c1
            member = y % r == 0 and (x - (y // r) * q) % p == 0
            assert ideal_contains(pair, (x, y)) == member, (pair, (x, y))


def test_norm_against_sympy_determinant():
    # an independent oracle: det of sum n_i U^i with sympy matrix powers,
    # negative exponents through U^-1
    sympy = pytest.importorskip("sympy")
    u = sympy.Matrix([[0, 1], [1, 3]])
    u_inv = u.inv()
    rng = random.Random(17)
    polys = [parse_laurent(e) for e in ("1-b+b^2", "b^-1-1+b", "b^-2+b^-1-b^300", "-2-2b^147+5b^311", "b^-7", "2")]
    polys += [LaurentPoly.from_dict({rng.randint(-30, 30): rng.randint(-9, 9) for _ in range(4)}) for _ in range(30)]
    for s in polys:
        s_of_u = sympy.zeros(2, 2)
        for e, c in s.terms:
            s_of_u += c * (u**e if e >= 0 else u_inv ** (-e))
        assert norm(s) == s_of_u.det(), s


def test_lattice_equality_by_mutual_inclusion():
    # equal stage products carry equal generators, and the lattices they
    # span contain each other's generator rows; a proper sublattice differs
    l1 = _pair_mul(_pair_mul((1, 0), (-1, 1)), (-1, 1))
    m = _u_minus_i_power(2)
    l2 = (m.a, m.b)
    assert l1 == l2
    assert all(ideal_contains(l1, r) for r in _generator_rows(l2))
    assert all(ideal_contains(l2, r) for r in _generator_rows(l1))
    l3 = _pair_mul((1, 0), (2, 0))
    assert l3 != (1, 0)
    assert all(ideal_contains((1, 0), r) for r in _generator_rows(l3))
    assert not all(ideal_contains(l3, r) for r in _generator_rows((1, 0)))
