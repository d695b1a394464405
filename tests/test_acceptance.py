"""Acceptance suite: every criterion at its stated tolerance, one test each.

Each test prints one pass/fail line; the asserts make failures red.  Where a
criterion pins counts (10^4 words, 200 trials, 500 fractions, ...) the counts
are pinned here, not sampled down.
"""

import random
import time

import pytest

from vltower import cohn, homology, series
from vltower import groups as G
from vltower.groups import tower_build
from vltower.laurent import parse_laurent
from vltower.quadratic import ideal_index, norm, norm_data, verify_parity_range
from references import Fraction, enumerate_S, frac_eq, fraction_stage_vector, prefix_product
from words import (
    eval_word,
    gamma_comm,
    gamma_conj,
    gamma_gen,
    gamma_identity,
    gamma_inv,
    gamma_make,
    gamma_mul,
    gamma_pow,
    phi_images,
    word_oracle,
)

S = parse_laurent("1-b+b^2")


def _report(n: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c01_parity_theorem_exhaustive():
    t0 = time.monotonic()
    rep = verify_parity_range(6, 3)
    elapsed = time.monotonic() - t0
    ok = rep.ok and elapsed < 60.0
    _report(
        1,
        "parity formula matches determinant parity on the (6, 3) window",
        ok,
        f"{rep.checked} elements, {len(rep.counterexamples)} counterexamples, {elapsed:.1f}s",
    )


def test_c02_worked_norm():
    nd = norm_data(S)
    _report(
        2,
        "norm of the canonical even element",
        (nd.norm, nd.p, nd.v) == (12, 2, 3),
        f"norm={nd.norm}, p={nd.p}, v={nd.v}",
    )


def _random_word(rng, max_len=20, max_b=10):
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


def _gamma_relators_hold(k: int) -> bool:
    a, ab, b = gamma_gen(k, "a"), gamma_gen(k, "ab"), gamma_gen(k, "b")
    ident = gamma_identity(k)
    lhs = gamma_conj(gamma_conj(a, b), b)
    rhs = gamma_mul(a, gamma_conj(gamma_pow(a, 3), b))
    if lhs != rhs:
        return False
    t = gamma_comm(a, ab)
    if gamma_comm(t, a) != ident or gamma_comm(t, ab) != ident:
        return False
    w = t
    for _ in range(k):
        w = gamma_comm(w, b)
    return w == ident


def test_c03_group_law_soundness():
    models = [G.Model.parse("H"), G.Model.parse("G2")] + [G.Model(k) for k in range(1, 9)]
    relators_ok = all(_gamma_relators_hold(k) for k in range(1, 9))

    rng = random.Random(1234)
    words = [_random_word(rng) for _ in range(10_000)]
    word_failures = 0
    for model in models:
        for w in words:
            if word_oracle(w, model) != eval_word(w, model):
                word_failures += 1

    rng = random.Random(4321)
    assoc_failures = 0
    for model in models:
        for _ in range(10_000):
            parts = [
                (
                    rng.randint(-20, 20),
                    (rng.randint(-8, 8), rng.randint(-8, 8)),
                    rng.randint(-4, 4),
                )
                for _ in range(3)
            ]
            x, y, z = (gamma_make(model.k, c, n, j) for c, n, j in parts)
            good = gamma_mul(gamma_mul(x, y), z) == gamma_mul(x, gamma_mul(y, z))
            good = good and gamma_mul(x, gamma_inv(x)) == gamma_identity(model.k)
            if not good:
                assoc_failures += 1

    ok = relators_ok and word_failures == 0 and assoc_failures == 0
    _report(
        3,
        "group laws: relators, oracle agreement, associativity",
        ok,
        f"10 models x 10^4 words and 10^4 triples, "
        f"{word_failures} word failures, {assoc_failures} law failures",
    )


def test_c04_phi_validity_over_enumerated_edges():
    even_edges = []
    for s in enumerate_S(5, 2):
        if norm(s) % 2 == 0:
            even_edges.append(s)
        if len(even_edges) >= 100:
            break
    assert len(even_edges) >= 100
    built = 0
    for s in even_edges:
        nd = norm_data(s)
        for k in range(0, 7):
            data = G.phi_build(s, k)  # raises on any relator image failure
            assert phi_images(data)[2] == gamma_make(data.target_k, nd.norm, (0, 0), 0)
            val = homology.two_connected_certificate(data)
            assert val == k + nd.p
            built += 1
    _report(
        4,
        "level maps valid for 100 even-norm edges at source levels 0..6",
        built == 700,
        f"{built} maps built, all relators vanish, all valuations match",
    )


def test_c05_lower_central_series():
    chain = series.lcs_chain(G.Model.parse("H"), 12)
    idx_ok = [ideal_index(st.module) for st in chain] == [3**i for i in range(12)]
    center_ok = True
    module_ok = True
    for k in range(1, 9):
        gch = series.lcs_chain(G.Model(k), 12)
        center_ok = center_ok and all(st.center_exp == 0 for st in gch[1:])
        module_ok = module_ok and [st.module for st in gch] == [st.module for st in chain]
    trans_ok = True
    for k in range(1, 9):
        rep = series.transfinite_chain(k)
        trans_ok = trans_ok and rep.ok and rep.terminates_at == k
    ok = idx_ok and center_ok and module_ok and trans_ok
    _report(
        5,
        "series stages: indices 3^(i-1), constant centers, transfinite chains die at k",
        ok,
    )


@pytest.fixture(scope="module")
def acceptance_tower():
    return tower_build([S, S, S])


def test_c06_witness_not_transfinitely_nilpotent(acceptance_tower):
    samples = list(series.default_center_samples())
    assert len(samples) >= 50
    assert max(s.k for s in samples) == 10
    rep = series.witness_not_transfinitely_nilpotent(
        acceptance_tower, 20, samples=samples
    )
    ok = rep.passed and all(s.ok for s in rep.samples)
    _report(
        6,
        "every sampled center element has a verified preimage chain of length 20",
        ok,
        f"{len(rep.samples)} samples across denominators up to 2^10",
    )


def test_c07_cohn_lifting():
    total_failures = 0
    for m in range(1, 7):
        rep = cohn.cohn_local_suite(
            cohn.NilpotentModuleSpec(m), 200, 3, 3, seed=m, coherence_trials=0
        )
        total_failures += rep.failures
    # direct-limit coherence on 100 pushed instances
    rng = random.Random(777)
    coherence_fail = 0
    for _ in range(100):
        m = rng.randint(1, 5)
        deeper = m + rng.randint(1, 3)
        n = rng.randint(1, 3)
        t = cohn.random_aug_invertible(rng, n, 3)
        alpha = [rng.randrange(1 << m) for _ in range(n)]
        a = cohn.push_module(
            cohn.lift_unique(t, alpha, cohn.NilpotentModuleSpec(m)), m, deeper
        )
        b = cohn.lift_unique(
            t, cohn.push_module(alpha, m, deeper), cohn.NilpotentModuleSpec(deeper)
        )
        if a != b:
            coherence_fail += 1
    ok = total_failures == 0 and coherence_fail == 0
    _report(
        7,
        "unique lifting: 6 x 200 trials verified, 100 coherence pushes agree",
        ok,
        f"{total_failures} lift failures, {coherence_fail} coherence failures",
    )


def test_c08_two_connectivity_of_tower_edges(acceptance_tower):
    mixed = tower_build([S, parse_laurent("b"), S, parse_laurent("2-b")])
    edges = [data for tower in (acceptance_tower, mixed) for data in tower.phis]
    ok = all(homology.two_connected_certificate(data) == data.target_k for data in edges)
    _report(
        8,
        "every tower edge is 2-connected (H1 iso over Z/3 + Z, H2 valuation exact)",
        ok,
        f"{len(edges)} edges certified",
    )


def test_c09_colimit_homology_and_five_term(acceptance_tower):
    h2 = homology.colim_h2(acceptance_tower)
    witness = series.witness_not_transfinitely_nilpotent(
        acceptance_tower, 5, samples=[c for c in series.default_center_samples() if c.k <= 4]
    )
    # combined end-to-end consistency: the fold is zero, the witness reads the
    # five-term conclusion from it, and the witness that relies on it passes
    ok = h2.value == "zero" and witness.five_term_consistent and witness.passed
    _report(
        9,
        "colimit homology fold is zero and the five-term conclusion is emitted",
        ok,
    )


def test_c10_telescope_fraction_coherence(acceptance_tower):
    rng = random.Random(55)
    checked = 0
    ok = True
    for _ in range(500):
        n = (rng.randint(-50, 50), rng.randint(-50, 50))
        i = rng.randint(0, 3)
        j = rng.randint(i, 3)
        den_i = prefix_product(acceptance_tower, i)
        den_j = prefix_product(acceptance_tower, j)
        f = Fraction(n, den_i)
        v = fraction_stage_vector(f, acceptance_tower, j)
        ok = ok and v is not None and frac_eq(f, Fraction(v, den_j))
        checked += 1
    _report(
        10,
        "500 tower-product fractions equal their telescope-stage representatives",
        ok and checked == 500,
    )
