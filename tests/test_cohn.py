import collections
import itertools
import json
import random
import time

import pytest

from vltower.errors import PreconditionError, TheoremViolationError
from vltower.laurent import LaurentPoly, parse_laurent
from vltower import cohn
from vltower.cli import main

from references import ONE, B, action_matrix, poly_add, poly_sub, augmentation_matrix, inverse_mod_2k, lift_unique as ref_lift

S = parse_laurent("1-b+b^2")


def _matrix(*rows):
    return cohn.RingMatrix(tuple(tuple(e for e in row) for row in rows))


def test_delta_nilpotency_degree():
    for m in range(65):
        assert cohn.delta_nilpotency_degree(cohn.NilpotentModuleSpec(m)) == m


def test_delta_nilpotency_degree_at_the_m_bound_is_fast():
    # O(log m) powers of -2: stepping one power at a time took about 2.9 s here
    start = time.perf_counter()
    assert cohn.delta_nilpotency_degree(cohn.NilpotentModuleSpec(150_000)) == 150_000
    assert time.perf_counter() - start < 1


def test_lift_identity():
    m = cohn.NilpotentModuleSpec(4)
    t = _matrix([ONE])
    assert cohn.lift_unique(t, [7], m) == [7]


def test_lift_b_acts_by_minus_one():
    m = cohn.NilpotentModuleSpec(4)
    t = _matrix([B])
    assert cohn.lift_unique(t, [5], m) == [(-5) % 16]


def test_lift_worked_example_inverse_of_three():
    m = cohn.NilpotentModuleSpec(4)
    t = _matrix([S])  # action 1 - (-1) + 1 = 3 mod 16
    assert cohn.lift_unique(t, [1], m) == [11]  # 3 * 11 = 33 = 1 mod 16


def test_lift_requires_unit_augmentation():
    m = cohn.NilpotentModuleSpec(3)
    t = _matrix([LaurentPoly.from_dict({0: 2})])
    with pytest.raises(PreconditionError):
        cohn.lift_unique(t, [1], m)


def test_lift_two_by_two():
    m = cohn.NilpotentModuleSpec(5)
    t = _matrix([ONE, S], [poly_sub(poly_add(LaurentPoly.from_dict({0: 0}), B), B), ONE])
    alpha = [3, 9]
    beta = cohn.lift_unique(t, alpha, m)
    act = action_matrix(t, m)
    assert [
        sum(act[i][j] * beta[j] for j in range(2)) % 32 for i in range(2)
    ] == [a % 32 for a in alpha]


def test_uniqueness_by_exhaustive_kernel_small():
    # for tiny moduli, brute-force the kernel of the action matrix
    m = cohn.NilpotentModuleSpec(2)
    rng = random.Random(6)
    for _ in range(20):
        t = cohn.random_aug_invertible(rng, 2, 2)
        act = action_matrix(t, m)
        kernel = [
            v
            for v in itertools.product(range(4), repeat=2)
            if all(sum(act[i][j] * v[j] for j in range(2)) % 4 == 0 for i in range(2))
        ]
        assert kernel == [(0, 0)]


def test_cohn_local_suite_zero_failures():
    for m in (1, 3, 4):
        rep = cohn.cohn_local_suite(
            cohn.NilpotentModuleSpec(m), 60, 3, 3, seed=9, coherence_trials=10
        )
        assert rep.ok
        assert rep.failures == 0
        assert rep.coherence_failures == 0
        assert (rep.lifts, rep.coherence_checked) == (60, 10)


def test_cohn_local_suite_records_a_failed_lift(monkeypatch, capsys):
    # lift_unique raises when its own existence check fails; the suite must
    # record that trial with its data instead of passing it
    seen = []

    def refuse(t, alpha, module):
        seen.append((t, tuple(alpha)))
        raise TheoremViolationError("lift does not reproduce alpha")

    monkeypatch.setattr(cohn, "lift_unique", refuse)
    rep = cohn.cohn_local_suite(cohn.NilpotentModuleSpec(3), 4, 3, 2, seed=5)
    assert not rep.ok
    assert rep.failures == len(seen) == 4
    argv = ["cohn", "--m", "3", "--trials", "4", "--coherence", "0", "--format", "json"]
    assert main(argv) == 2
    claims = {c["id"]: c for c in json.loads(capsys.readouterr().out)["claims"]}
    assert not claims["cohn.lifting"]["pass"]
    assert claims["cohn.lifting"]["data"] == {"failures": 4}


def test_push_module_is_standard_inclusion():
    assert cohn.push_module([3], 2, 4) == [12]
    assert cohn.push_module([0, 1], 1, 3) == [0, 4]
    with pytest.raises(PreconditionError):
        cohn.push_module([1], 3, 2)


def test_direct_limit_coherence_explicit():
    m, deeper = cohn.NilpotentModuleSpec(3), cohn.NilpotentModuleSpec(6)
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 3)
        t = cohn.random_aug_invertible(rng, n, 3)
        alpha = [rng.randrange(m.modulus) for _ in range(n)]
        a = cohn.push_module(cohn.lift_unique(t, alpha, m), m.m, deeper.m)
        b = cohn.lift_unique(t, cohn.push_module(alpha, m.m, deeper.m), deeper)
        assert a == b


def _leibniz_det(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


def test_random_matrices_have_unit_augmentation():
    rng = random.Random(0)
    for _ in range(50):
        t = cohn.random_aug_invertible(rng, rng.randint(1, 3), 3)
        assert cohn._bareiss_det(augmentation_matrix(t)) in (1, -1)


def test_bareiss_det_matches_leibniz():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:  # force singular: a repeated row or a zero column
            if n > 1:
                mat[rng.randrange(1, n)] = list(mat[0])
            else:
                mat[0][0] = 0
        if rng.random() < 0.3:  # zero leading pivots need row swaps
            mat[0][0] = 0
        assert cohn._bareiss_det(mat) == _leibniz_det(mat), mat
    assert cohn._bareiss_det([[0, 1], [1, 0]]) == -1
    assert cohn._bareiss_det([[0, 0], [0, 1]]) == 0


def test_bareiss_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(22)
    for _ in range(120):
        n = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:  # zero leading pivots need row swaps
            mat[0][0] = 0
        assert cohn._bareiss_det(mat) == sympy.Matrix(mat).det(), mat


def test_lift_size_sixteen():
    m = cohn.NilpotentModuleSpec(12)
    rng = random.Random(16)
    t = cohn.random_aug_invertible(rng, 16, 4)
    alpha = [rng.randrange(m.modulus) for _ in range(16)]
    beta = cohn.lift_unique(t, alpha, m)
    act = action_matrix(t, m)
    assert [sum(a * b for a, b in zip(row, beta)) % m.modulus for row in act] == alpha


def test_even_action_matrix_is_a_theorem_violation():
    # The action matrix is the augmentation matrix mod 2, so a unit
    # augmentation rules this out inside lift_unique; the elimination kernel
    # itself must still refuse a matrix that is singular mod 2.
    m = cohn.NilpotentModuleSpec(4)
    t = _matrix([ONE, B], [B, ONE])  # acts by [[1, -1], [-1, 1]]
    with pytest.raises(TheoremViolationError, match="action determinant is even"):
        cohn._inverse_mod_2k(action_matrix(t, m), m.modulus)
    with pytest.raises(PreconditionError, match="determinant 0 is not a unit"):
        cohn.lift_unique(t, [1, 1], m)


def _ref_random_aug_invertible(rng, n, degree_bound):
    """The construction as a sum of LaurentPoly values, one per perturbation."""
    base = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n * 3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for col in range(n):
            base[i][col] += c * base[j][col]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            poly = LaurentPoly.from_dict({0: base[i][j]})
            for _ in range(rng.randrange(0, 3)):
                e1, e2, c = rng.randint(0, degree_bound), rng.randint(0, degree_bound), rng.randint(-2, 2)
                poly = poly_sub(poly_add(poly, LaurentPoly.from_dict({e1: c})), LaurentPoly.from_dict({e2: c}))
            row.append(poly)
        rows.append(tuple(row))
    return cohn.RingMatrix(tuple(rows))


def test_random_aug_invertible_matches_the_sum_of_perturbations():
    # one coefficient dict per entry gives the matrix of the polynomial sums,
    # from the same draws
    for seed in range(300):
        n, deg = 1 + seed % 5, seed % 7
        fast, ref = random.Random(seed), random.Random(seed)
        assert cohn.random_aug_invertible(fast, n, deg) == _ref_random_aug_invertible(ref, n, deg)
        assert fast.random() == ref.random()


# Residue moduli 2**m around the machine word sizes, where a packed slot of
# 2m + n.bit_length() + 2 bits crosses 32- and 64-bit boundaries.
_KERNEL_MODULI = (0, 1, 2, 5, 16, 31, 32, 63, 64, 65, 70)


def _kernel_cases():
    """1,002 seeded cases (m, residues, t, alpha), 2,004 matrices: n from 1
    to 12, then one case each at n = 16 and 60.  The residue matrix is the
    action of a unit-augmentation matrix (odd determinant) in every other
    case and uniformly random otherwise (mostly even); one ring matrix in
    four has a random augmentation, mostly not a unit."""
    rng = random.Random(27)
    for i, n in enumerate([1 + i % 12 for i in range(1000)] + [16, 60]):
        m = _KERNEL_MODULI[i % len(_KERNEL_MODULI)] if n < 16 else 8
        work = cohn.NilpotentModuleSpec(max(m, 1))
        if i % 2:
            residues = [[rng.randrange(work.modulus) for _ in range(n)] for _ in range(n)]
        else:
            residues = action_matrix(cohn.random_aug_invertible(rng, n, 5), work)
        if i % 4 == 3:
            t = _matrix(*[[LaurentPoly.from_dict({rng.randrange(3): rng.randint(-2, 2)}) for _ in range(n)] for _ in range(n)])
        else:
            t = cohn.random_aug_invertible(rng, n, 1 + i % 6)
        yield m, residues, t, [rng.randrange(-(1 << m), 1 << m) if m else rng.randrange(-3, 4) for _ in range(n)]


def _outcome(f, *args):
    try:
        return f(*args)
    except (PreconditionError, TheoremViolationError) as exc:
        return type(exc), str(exc)


def _outcomes(m, residues, t, alpha):
    """(package, list oracle) for the inverse of the residues, then for the lift through t."""
    mod, module = 1 << max(m, 1), cohn.NilpotentModuleSpec(m)
    return (
        (_outcome(cohn._inverse_mod_2k, residues, mod), _outcome(inverse_mod_2k, residues, mod)),
        (_outcome(cohn.lift_unique, t, alpha, module), _outcome(ref_lift, t, alpha, module)),
    )


def test_packed_kernel_matches_the_list_oracle():
    refused = collections.Counter()
    for case in _kernel_cases():
        (inv, inv_ref), (lift, lift_ref) = _outcomes(*case)
        assert inv == inv_ref and lift == lift_ref, case
        refused["inverse", isinstance(inv, tuple)] += 1
        refused["lift", isinstance(lift, tuple)] += 1
    # odd and even determinants, unit and non-unit augmentations, all occur
    assert min(refused.values()) > 150, refused


def test_packed_kernel_needs_the_spare_bits_of_a_slot(monkeypatch):
    # a slot of 2m bits has no room for BIAS in a row step or for the sum of
    # n products in the two-sided check, which then carry into the next slot
    monkeypatch.setattr(cohn, "_slot_width", lambda m, n: 2 * m)
    assert any(x != y for case in _kernel_cases() for x, y in _outcomes(*case))


def test_below_is_randrange_draw_for_draw():
    bounds = [1, 2, 3, 5] + [b for k in range(1, 71) for b in ((1 << k) - 1, 1 << k, (1 << k) + 1)]
    for seed in range(200):
        fast, ref = random.Random(seed), random.Random(seed)
        assert [cohn._below(fast.getrandbits, n) for n in bounds] == [ref.randrange(n) for n in bounds]
        assert fast.getstate() == ref.getstate()


def test_suite_draws_its_trials_as_randint_and_randrange(monkeypatch):
    # every seed keeps its trials: the same matrices, data and deeper
    # truncations, in the same order, as drawn by randint and randrange
    seen = []

    def record(t, alpha, module):
        seen.append((t, list(alpha), module.m))
        return [0] * t.n

    monkeypatch.setattr(cohn, "lift_unique", record)
    for seed in range(40):
        seen.clear()
        m, size, deg, trials, coherence = seed % 7, 1 + seed % 5, seed % 4, seed % 3, 1 + seed % 2
        cohn.cohn_local_suite(cohn.NilpotentModuleSpec(m), trials, size, deg, seed=seed, coherence_trials=coherence)
        rng, expected = random.Random(seed), []
        for k in range(trials + coherence):
            n = rng.randint(1, size)
            t = _ref_random_aug_invertible(rng, n, deg)
            alpha = [rng.randrange(1 << m) for _ in range(n)]
            if k < trials:
                expected.append((t, alpha, m))
                continue
            deeper = m + rng.randint(1, 3)
            expected += [(t, alpha, m), (t, cohn.push_module(alpha, m, deeper), deeper)]
        assert seen == expected
