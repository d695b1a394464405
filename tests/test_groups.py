import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vltower.errors import NotInSError, PreconditionError
from vltower.laurent import parse_laurent
from vltower.quadratic import norm
from vltower import groups as G
from references import ONE, Fraction, frac_eq, fraction_stage_vector, poly_mul, s_matrix, u_pow, vec_mat
from words import (
    LevelMismatchError,
    base_form,
    eval_word,
    gamma_comm,
    gamma_conj,
    gamma_gen,
    gamma_identity,
    gamma_inv,
    gamma_make,
    gamma_mul,
    gamma_pow,
    phi_apply,
    phi_images,
    word_oracle,
)

S = parse_laurent("1-b+b^2")
H = G.Model.parse("H")
G2 = G.Model.parse("G2")

# the base group is level 0; G2 is the infinite-center level None
A0, AB0, B0 = (gamma_gen(0, g) for g in ("a", "ab", "b"))
ID0 = gamma_identity(0)
A, AB, B, T = (gamma_gen(None, g) for g in ("a", "ab", "b", "t"))
ID = gamma_identity(None)


def random_word(rng, max_len=20, max_b=10):
    length = rng.randrange(0, max_len + 1)
    out, bs = [], 0
    for _ in range(length):
        gen = rng.choice(["a", "b"])
        if gen == "b" and bs >= max_b:
            gen = "a"
        if gen == "b":
            bs += 1
        out.append((gen, rng.choice([1, -1])))
    return out


# --- base group --------------------------------------------------------------


def test_h_semidirect_law():
    # a * b = b * a^b, which is b a^(0, 1) in the b^j a^n form
    lhs = gamma_mul(A0, B0)
    rhs = gamma_mul(B0, AB0)
    assert lhs == rhs
    assert base_form(lhs) == ((0, 1), 1)


def test_h_squaring():
    assert gamma_mul(A0, A0) == gamma_make(0, 0, (2, 0), 0)


def test_h_defining_relation():
    # a^(b^2) = a * a^(3b)
    b2 = gamma_pow(B0, 2)
    lhs = gamma_mul(gamma_inv(b2), gamma_mul(A0, b2))
    rhs = gamma_mul(A0, gamma_pow(AB0, 3))
    assert lhs == rhs


def test_h_commutator_of_a_and_ab_trivial():
    x = gamma_mul(
        gamma_inv(A0), gamma_mul(gamma_inv(AB0), gamma_mul(A0, AB0))
    )
    assert x == ID0


@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-5, 5)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-5, 5)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-5, 5)),
)
def test_h_group_axioms(t1, t2, t3):
    xs = [gamma_make(0, 0, (a, b), j) for a, b, j in (t1, t2, t3)]
    x, y, z = xs
    assert gamma_mul(gamma_mul(x, y), z) == gamma_mul(x, gamma_mul(y, z))
    assert gamma_mul(x, gamma_inv(x)) == ID0


# --- class-2 models ----------------------------------------------------------


def test_g2_commutator_is_t():
    assert gamma_comm(A, AB) == T


def test_g2_t_inverted_by_b():
    assert gamma_conj(T, B) == gamma_inv(T)


def test_g2_defining_relation_with_zero_center():
    lhs = gamma_conj(gamma_conj(A, B), B)
    rhs = gamma_mul(A, gamma_conj(gamma_pow(A, 3), B))
    assert lhs == rhs
    assert lhs.c == 0


def test_g2_t_central_among_module_generators():
    for g in (A, AB):
        assert gamma_comm(T, g) == ID


def test_t_has_order_exactly_2k():
    for k in range(1, 9):
        t = gamma_gen(k, "t")
        assert gamma_pow(t, 1 << k) == gamma_identity(k)
        assert gamma_pow(t, 1 << (k - 1)) != gamma_identity(k)


def test_gamma_relators_all_levels():
    for k in range(0, 11):
        a = gamma_gen(k, "a")
        ab = gamma_gen(k, "ab")
        b = gamma_gen(k, "b")
        ident = gamma_identity(k)
        lhs = gamma_conj(gamma_conj(a, b), b)
        rhs = gamma_mul(a, gamma_conj(gamma_pow(a, 3), b))
        assert lhs == rhs
        t = gamma_comm(a, ab)
        assert gamma_comm(t, a) == ident
        assert gamma_comm(t, ab) == ident
        w = t
        for _ in range(k):
            w = gamma_comm(w, b)
        assert w == ident  # the level relator


def test_relators_vanish_under_the_oracle_too():
    ab_word = [("b", -1), ("a", 1), ("b", 1)]
    ab_inv = [("b", -1), ("a", -1), ("b", 1)]
    t_word = [("a", -1)] + ab_inv + [("a", 1)] + ab_word
    t_inv = ab_inv + [("a", -1)] + ab_word + [("a", 1)]
    main_relator = (
        [("b", -2), ("a", 1), ("b", 2)]
        + [("b", -1), ("a", -3), ("b", 1)]
        + [("a", -1)]
    )
    comm_a = [w for w in t_inv] + [("a", -1)] + t_word + [("a", 1)]
    comm_ab = [w for w in t_inv] + ab_inv + t_word + ab_word
    for model in [G.Model(k) for k in range(0, 11)] + [G2, H]:
        ident = word_oracle([], model)
        assert word_oracle(main_relator, model) == ident
        assert word_oracle(comm_a, model) == ident
        assert word_oracle(comm_ab, model) == ident
        if model.is_truncation:
            w = list(t_word)
            for _ in range(model.k):
                w = _comm_word(w, [("b", 1)])
            assert word_oracle(w, model) == ident


def _comm_word(x, y):
    def inv(w):
        return [(g, -e) for g, e in reversed(w)]

    return inv(x) + inv(y) + x + y


def _semidirect_eval(word):
    """b^j a^n by the base group's own law: (b^j a^n)(b^i a^m) = b^(j+i) a^(n U^i + m)."""
    n, j = (0, 0), 0
    for gen, e in word:
        if gen == "a":
            n = (n[0] + e, n[1])
        else:
            n, j = vec_mat(n, u_pow(e)), j + e
    return n, j


def test_gamma_level_zero_is_the_base_group():
    rng = random.Random(3)
    for _ in range(200):
        w = random_word(rng, max_len=12, max_b=5)
        g = eval_word(w, H)
        assert g.k == 0 and g.c == 0
        assert g == word_oracle(w, H)
        assert base_form(g) == _semidirect_eval(w)


def test_level_mismatch_raises():
    with pytest.raises(LevelMismatchError):
        gamma_mul(gamma_gen(2, "a"), gamma_gen(3, "a"))
    with pytest.raises(LevelMismatchError):
        gamma_mul(gamma_gen(None, "a"), gamma_gen(0, "a"))


@given(
    st.tuples(st.integers(-20, 20), st.integers(-9, 9), st.integers(-9, 9), st.integers(-4, 4)),
    st.tuples(st.integers(-20, 20), st.integers(-9, 9), st.integers(-9, 9), st.integers(-4, 4)),
    st.tuples(st.integers(-20, 20), st.integers(-9, 9), st.integers(-9, 9), st.integers(-4, 4)),
)
def test_g2_group_axioms(t1, t2, t3):
    xs = [gamma_make(None, c, (m, n), j) for c, m, n, j in (t1, t2, t3)]
    x, y, z = xs
    assert gamma_mul(gamma_mul(x, y), z) == gamma_mul(x, gamma_mul(y, z))
    assert gamma_mul(x, gamma_inv(x)) == ID
    assert gamma_mul(gamma_inv(x), x) == ID


# --- word oracle -------------------------------------------------------------


def test_oracle_examples():
    # a^-1 (a^b)^-1 a a^b = t
    w = [("a", -1), ("b", -1), ("a", -1), ("b", 1), ("a", 1), ("b", -1), ("a", 1), ("b", 1)]
    assert word_oracle(w, G2) == T
    # b^-1 t b = t^-1, with t spelled as the commutator word
    t_word = [("a", -1), ("b", -1), ("a", -1), ("b", 1), ("a", 1), ("b", -1), ("a", 1), ("b", 1)]
    conj = [("b", -1)] + t_word + [("b", 1)]
    assert word_oracle(conj, G2) == gamma_inv(T)
    assert word_oracle([], G2) == ID


def test_oracle_agrees_with_closed_form_all_models():
    rng = random.Random(31337)
    models = [H, G2] + [G.Model(k) for k in (1, 2, 5, 8)]
    for _ in range(800):
        w = random_word(rng)
        for model in models:
            assert word_oracle(w, model) == eval_word(w, model)


def test_oracle_adversarial_words():
    # long single-direction b runs against module letters
    for w in (
        [("b", 8), ("a", 1)],
        [("a", 1), ("b", 8)],
        [("b", -8), ("a", -2), ("b", 8)],
        [("a", 3), ("b", -5), ("a", -3), ("b", 5)],
    ):
        assert word_oracle(w, G2) == eval_word(w, G2)


# --- the relation exponent and the level maps --------------------------------


def test_compute_l_identity_element():
    for k in (0, 1, 4):
        assert G.relator_defect(ONE)[0] % 2**k == 0


def _relator_sides_by_oracle(s):
    """Evaluate both sides of the defining-relation image by the word oracle."""
    word_s = []
    for e, c in s.terms:
        word_s += [("b", -e), ("a", c), ("b", e)]
    word_3s = []
    for e, c in s.terms:
        word_3s += [("b", -e), ("a", 3 * c), ("b", e)]
    lhs = [("b", -2)] + word_s + [("b", 2)]
    rhs = word_s + [("b", -1)] + word_3s + [("b", 1)]
    return word_oracle(lhs, G2), word_oracle(rhs, G2)


@pytest.mark.parametrize(
    "literal", ["1-b+b^2", "b", "2-b", "1+b-b^2", "1+2b-2b^3", "3-b-b^2"]
)
def test_relation_exponent_agrees_with_oracle(literal):
    s = parse_laurent(literal)
    l_exact = G.relator_defect(s)[0]
    lhs, rhs = _relator_sides_by_oracle(s)
    assert lhs.n == rhs.n and lhs.j == rhs.j == 0
    assert lhs.c - rhs.c == l_exact


def test_compute_l_worked_example_frozen():
    # Two independent evaluators agree the exact exponent is 0 for the
    # canonical even-norm element, hence 0 mod 4 at level 2.
    lhs, rhs = _relator_sides_by_oracle(S)
    assert lhs.c - rhs.c == 0
    assert G.relator_defect(S)[0] % 2**2 == 0


def test_compute_l_stability_on_b():
    s = parse_laurent("b")
    lhs, rhs = _relator_sides_by_oracle(s)
    assert G.relator_defect(s)[0] % 2**3 == (lhs.c - rhs.c) % 8


def test_phi_build_worked_example_level_zero():
    data = G.phi_build(S, 0)
    assert data.source_k == 0 and data.target_k == 2
    # image of a is a a^-b a^(b^2) t^r with the module part of a^s
    img_a, _, img_t = phi_images(data)
    assert img_a.n == vec_mat((1, 0), s_matrix(S))
    assert data.record[3:] == (2, 2)
    assert img_t == gamma_make(2, 12, (0, 0), 0)


def test_phi_r_is_the_unique_target_solution():
    # the relator equation in the target group pins r mod 4 to exactly one
    # residue; the built map uses it and every other residue fails.
    data = G.phi_build(S, 0)
    k_target = data.target_k
    (c, m, n), _ = G.a_power_s(S)
    b = gamma_gen(k_target, "b")
    solutions = []
    for r in range(1 << k_target):
        img_a = gamma_make(k_target, c + r, (m, n), 0)
        lhs = gamma_conj(gamma_conj(img_a, b), b)
        rhs = gamma_mul(img_a, gamma_conj(gamma_pow(img_a, 3), b))
        if lhs == rhs:
            solutions.append(r)
    assert solutions == [data.r]
    assert data.r == 3


def test_phi_build_identity_edge():
    data = G.phi_build(ONE, 3)
    assert data.r == 0 and data.target_k == 3
    assert phi_images(data)[0] == gamma_gen(3, "a")


def test_phi_build_source_level_two():
    data = G.phi_build(S, 2)
    assert data.target_k == 4
    assert data.r % 4 == 3
    # the historical source-level congruence does not hold for this edge;
    # the flag records it instead of hiding it
    assert data.source_congruence_ok is False


def test_phi_center_image_is_norm_power():
    rng = random.Random(8)
    pool = [S, parse_laurent("b"), parse_laurent("2-b"), parse_laurent("1+b-b^2")]
    for s in pool:
        for k in (0, 1, 3):
            data = G.phi_build(s, k)
            assert phi_images(data)[2] == gamma_make(data.target_k, norm(s), (0, 0), 0)


def test_phi_apply_is_a_homomorphism():
    data = G.phi_build(S, 1)
    rng = random.Random(99)
    for _ in range(1000):
        x = gamma_make(1, rng.randrange(2), (rng.randint(-6, 6), rng.randint(-6, 6)), rng.randint(-3, 3))
        y = gamma_make(1, rng.randrange(2), (rng.randint(-6, 6), rng.randint(-6, 6)), rng.randint(-3, 3))
        assert phi_apply(data, gamma_mul(x, y)) == gamma_mul(
            phi_apply(data, x), phi_apply(data, y)
        )


def test_phi_apply_fixes_b_and_identity():
    data = G.phi_build(S, 2)
    assert phi_apply(data, gamma_gen(2, "b")) == gamma_gen(4, "b")
    assert phi_apply(data, gamma_identity(2)) == gamma_identity(4)


def test_phi_apply_level_check():
    data = G.phi_build(S, 2)
    with pytest.raises(LevelMismatchError):
        phi_apply(data, gamma_gen(3, "a"))


def test_normal_surjectivity():
    # the quotient collapses exactly when gcd(3, augmentation(s)) = 1, and
    # phi_build accepts only augmentation 1
    assert G.phi_build(S, 0).target_k == 2
    assert G.phi_build(ONE, 2).target_k == 2
    for text in ("1+b+b^2", "2b", "3-b^2"):
        with pytest.raises(NotInSError):
            G.phi_build(parse_laurent(text), 0)


# --- towers ------------------------------------------------------------------


def test_tower_levels_examples():
    assert G.tower_build([S, S]).levels == (0, 2, 4)
    assert G.tower_build([parse_laurent("b")]).levels == (0, 0)
    assert G.tower_build([]).levels == (0,)


def test_tower_past_its_top_level_bound_builds_no_level_map(monkeypatch):
    steep = parse_laurent("3b+b^2-3b^3")  # norm 64, p = 6
    monkeypatch.setattr(G, "TOWER_LEVEL_BOUND", 12)
    assert G.tower_build([steep, steep]).levels == (0, 6, 12)
    monkeypatch.setattr(G, "_level_map", None)  # a level map would raise TypeError
    with pytest.raises(PreconditionError, match="top level 18 is past the bound 12"):
        G.tower_build([steep] * 3)


def test_tower_computes_each_norm_once_after_the_edge_checks(monkeypatch):
    seen = []
    monkeypatch.setattr(G, "norm", lambda s: seen.append(s) or norm(s))
    G.tower_build([S, S])
    assert seen == [S, S]
    for bad in ("2b", "1-b+b^2600001"):  # not in S; a gap past LEVEL_MAP_BOUND
        seen.clear()
        with pytest.raises((NotInSError, PreconditionError)):
            G.tower_build([S, parse_laurent(bad)])
        assert seen == [S]


def test_tower_center_transition_composite():
    tower = G.tower_build([S, S])
    # composite center transition = multiplication by the product of norms
    t1 = gamma_gen(2, "t")
    pushed = phi_apply(tower.phis[1], t1)
    assert pushed == gamma_make(4, 12, (0, 0), 0)


def test_tower_projection_diagram():
    tower = G.tower_build([S])
    rng = random.Random(4)
    for _ in range(100):
        g = gamma_make(0, 0, (rng.randint(-8, 8), rng.randint(-8, 8)), rng.randint(-3, 3))
        n, j = base_form(g)
        assert base_form(phi_apply(tower.phis[0], g)) == (vec_mat(n, s_matrix(S)), j)


@pytest.fixture(scope="module")
def tower():
    return G.tower_build([S, S, S])


def test_telescope_fraction_coherence(tower):
    # the fraction (n, s1) equals the stage-1 image of n
    rng = random.Random(77)
    for _ in range(100):
        n = (rng.randint(-9, 9), rng.randint(-9, 9))
        v = fraction_stage_vector(Fraction(n, S), tower, 1)
        assert v == n  # P_1 = s, so the representative is n itself
        v2 = fraction_stage_vector(Fraction(n, S), tower, 2)
        assert v2 == vec_mat(n, s_matrix(S))
        assert frac_eq(Fraction(n, S), Fraction(v2, poly_mul(S, S)))


def test_word_oracle_rejects_unknown_model():
    with pytest.raises(ValueError):
        word_oracle([], -3)
