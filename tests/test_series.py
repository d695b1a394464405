import itertools
import math
import random

import pytest

from vltower.cli import main
from vltower.errors import InsufficientTowerError, PreconditionError, TheoremViolationError
from vltower.groups import Model, tower_build
from vltower.laurent import parse_laurent
from vltower.localization import Dyadic, dyadic_make
from references import (
    IDENTITY,
    U,
    Mat2,
    center_samples_list,
    dyadic_double,
    dyadic_halve,
    dyadic_neg,
    subgroup_contains,
)
from vltower import series
from vltower.quadratic import ideal_index
from test_closed_forms import ref_in_row_span
from words import gamma_comm, gamma_gen, gamma_make

S = parse_laurent("1-b+b^2")
H = Model.parse("H")
G2 = Model.parse("G2")


def _generator(pair):
    """The matrix alpha I + beta U whose rows span the module part with
    generator pair (alpha, beta)."""
    alpha, beta = pair
    return Mat2(alpha, beta, beta, alpha + 3 * beta)


def test_lcs_step_base_group_second_stage():
    g2 = series.lcs_step(H, series.whole_group(H))
    assert _generator(g2.module) == U - IDENTITY
    assert ideal_index(g2.module) == 3
    assert g2.center_exp is None


def test_lcs_step_truncation_second_stage():
    g2 = series.lcs_step(Model(3), series.whole_group(Model(3)))
    assert g2.center_exp == 0  # t itself is a commutator
    assert _generator(g2.module) == U - IDENTITY


def test_lcs_chain_base_group_indices():
    chain = series.lcs_chain(H, 5)
    assert [ideal_index(st.module) for st in chain] == [1, 3, 9, 27, 81]


def test_lcs_chain_truncation_center_constant():
    for k in (1, 4, 8):
        chain = series.lcs_chain(Model(k), 12)
        assert all(st.center_exp == 0 for st in chain[1:])
        base = series.lcs_chain(H, 12)
        assert [st.module for st in chain] == [st.module for st in base]


def test_lcs_module_advance_both_inclusions():
    chain = series.lcs_chain(G2, 12)
    for i in range(1, len(chain) - 1):
        advanced = _generator(chain[i].module) * (U - IDENTITY)
        nxt = _generator(chain[i + 1].module)
        assert all(ref_in_row_span(nxt, r) for r in advanced.rows())
        assert all(ref_in_row_span(advanced, r) for r in nxt.rows())


def test_lcs_module_parts_are_b_invariant():
    # stage U is inside stage: the shape lcs_step needs holds by construction
    for stage in series.lcs_chain(G2, 12):
        m = _generator(stage.module)
        assert all(ref_in_row_span(m, r) for r in (m * U).rows())


def test_lcs_step_generators_land_in_result():
    # two-sided soundness: every generating commutator of [S, G] is a member
    # of the computed stage, and the computed stage's generators are reachable.
    model = Model(4)
    stage = series.lcs_step(model, series.whole_group(model))
    nxt = series.lcs_step(model, stage)
    b = gamma_gen(model.k, "b")
    gens = [gamma_gen(model.k, "a"), gamma_gen(model.k, "ab"), b]
    for row in _generator(stage.module).rows():
        x = gamma_make(model.k, 0, row, 0)
        for g in gens:
            c = gamma_comm(x, g)
            assert subgroup_contains(nxt, c.c, c.n, c.j, model), (row, g)
    t_gen = gamma_make(model.k, 1 << (stage.center_exp or 0), (0, 0), 0)
    c = gamma_comm(t_gen, b)
    assert subgroup_contains(nxt, c.c, c.n, c.j, model)


def test_lcs_step_center_bezout_witness():
    # the center part of stage 3 is generated by honest pairings: exhibit t
    # as a product of commutators of stage-2 module generators with a, a^b
    model = Model(5)
    stage2 = series.lcs_step(model, series.whole_group(model))
    pairings = []
    witnesses = []
    for row in _generator(stage2.module).rows():
        x = gamma_make(model.k, 0, row, 0)
        for gname in ("a", "ab"):
            c = gamma_comm(x, gamma_gen(model.k, gname))
            assert c.n == (0, 0) and c.j == 0
            pairings.append(c.c if c.c < (1 << 4) else c.c - (1 << 5))
            witnesses.append((row, gname))
    g = 0
    for p in pairings:
        g = math.gcd(g, p)
    assert g % 2 == 1  # odd pairing gcd: the center part is all of <t>


def test_lcs_depth_one_is_whole_group():
    chain = series.lcs_chain(G2, 1)
    assert chain == [series.whole_group(G2)]
    with pytest.raises(PreconditionError):
        series.lcs_chain(G2, 0)


def test_gamma_omega_truncation():
    # the 24 default probes, in order, each exiting within the 12 stages
    exits = series.gamma_omega(Model(3), series.lcs_chain(Model(3), 12))
    assert [v for v, _ in exits] == series._default_probes(2)
    assert all(1 <= i < 12 for _, i in exits)


def test_gamma_omega_base_group():
    chain = series.lcs_chain(H, 10)
    assert all(st.center_exp is None for st in chain)  # the constancy check is vacuous
    assert series.gamma_omega(H, chain) == series.gamma_omega(Model(3), series.lcs_chain(Model(3), 10))


def test_gamma_omega_probe_exits():
    exits = series.gamma_omega(Model(2), series.lcs_chain(Model(2), 12), probe_set=[(1, 0)])
    assert exits == (((1, 0), 1),)


def test_residual_nilpotence_probe_window():
    # every nonzero vector with coordinates in [-20, 20] exits the module
    # chain within 40 steps
    probes = [(x, y) for x in range(-20, 21) for y in range(-20, 21) if (x, y) != (0, 0)]
    exits = series.gamma_omega(H, series.lcs_chain(H, 12), probe_set=probes)
    assert len(exits) == 41 * 41 - 1
    assert max(i for _, i in exits) <= 40


def test_transfinite_chain_level_three():
    rep = series.transfinite_chain(3)
    assert rep.orders == (8, 4, 2, 1)
    assert rep.quotient_orders == (2, 2, 2)
    assert rep.terminates_at == 3
    assert rep.ok


def test_transfinite_chain_levels_terminate():
    for k in range(0, 9):
        rep = series.transfinite_chain(k)
        assert rep.terminates_at == k
        assert all(q == 2 for q in rep.quotient_orders)


def test_commutator_preimage_examples():
    # the defining property -2y = c mod 1 is what matters; the canonical
    # choice is the plain halve of -c.  The residue r at level L is r / 2^L.
    y = series.commutator_preimage(2, 2)  # 1/2
    assert dyadic_neg(dyadic_double(dyadic_make(y, 2))) == Dyadic(1, 1)
    assert dyadic_make(y, 2) == Dyadic(1, 2)
    y2 = series.commutator_preimage(6, 4)  # 3/8
    assert dyadic_neg(dyadic_double(dyadic_make(y2, 4))) == Dyadic(3, 3)
    assert dyadic_make(y2, 4) == Dyadic(5, 4)
    assert series.commutator_preimage(0, 4) == 0
    with pytest.raises(TheoremViolationError):  # an odd residue is no double
        series.commutator_preimage(3, 4)


def test_commutator_preimage_other_choice_also_valid():
    # the values 3/4 and 13/16 are the other doubling preimages; they satisfy
    # the same equation
    assert dyadic_neg(dyadic_double(Dyadic(3, 2))) == Dyadic(1, 1)
    assert dyadic_neg(dyadic_double(Dyadic(13, 4))) == Dyadic(3, 3)


def test_witness_residue_chains_are_the_dyadic_halves_of_negatives(monkeypatch):
    # the witness builds each chain as residues at level L = c.k + J; read
    # through the doubling inclusions, link j is halve(neg(link j - 1))
    made = []
    preimage = series.commutator_preimage

    def recorded(r, level):
        y = preimage(r, level)
        made.append((r, level, y))
        return y

    monkeypatch.setattr(series, "commutator_preimage", recorded)
    samples = list(series.default_center_samples())
    j_bound = 12
    assert len(samples) == 56
    assert series.witness_not_transfinitely_nilpotent(tower_build([S]), j_bound, samples).passed
    expected = []
    for c in samples:
        level = c.k + j_bound
        y = c
        for _ in range(j_bound):
            x, y = y, dyadic_halve(dyadic_neg(y))
            expected.append((x.num << (level - x.k), level, y.num << (level - y.k)))
    assert made == expected


def test_default_center_samples_cover_denominators():
    samples = list(series.default_center_samples())
    assert len(samples) >= 50
    assert {s.k for s in samples} == set(range(1, 11))
    assert all(s.num % 2 == 1 for s in samples)


def test_witness_small():
    tower = tower_build([S])
    rep = series.witness_not_transfinitely_nilpotent(
        tower, 5, samples=[Dyadic(1, 1), Dyadic(3, 2), Dyadic(5, 3)]
    )
    assert rep.passed
    assert all(s.model_ok and s.commutator_power_ok for s in rep.samples)
    assert rep.five_term_consistent


def test_witness_commutator_count_grows_linearly_in_j(monkeypatch):
    # each chain element is checked against the iterated commutator built
    # once per sample, so four times the chain length costs about four times
    # the commutators with b (rebuilding it per element would cost about sixteen)
    calls = 0
    comm = series.comm_b

    def counted(x):
        nonlocal calls
        calls += 1
        return comm(x)

    monkeypatch.setattr(series, "comm_b", counted)
    tower = tower_build([S, S, S])
    samples = [Dyadic(1, 1), Dyadic(3, 4), Dyadic(5, 7)]
    counts = []
    for j_bound in (12, 48):
        calls = 0
        assert series.witness_not_transfinitely_nilpotent(tower, j_bound, samples=samples).passed
        counts.append(calls)
    assert counts[0] > 0
    assert counts[1] <= 4.2 * counts[0]


def test_lcs_gamma_omega_builds_the_chain_once(monkeypatch, capsys):
    calls = 0
    step = series.lcs_step

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(series, "lcs_step", counted)
    assert main(["lcs", "--model", "Gamma3", "--depth", "12", "--gamma-omega"]) == 0
    capsys.readouterr()
    assert calls == 11


@pytest.mark.parametrize("seed", [0, 1, 7, 2**70, -3])
def test_default_center_samples_prefixes_match_the_full_list(seed):
    full = center_samples_list(seed)
    assert list(series.default_center_samples(seed)) == full
    assert len(full) == series.DEFAULT_SAMPLE_COUNT
    for count in range(61):
        assert list(itertools.islice(series.default_center_samples(seed), count)) == full[:count]


def test_witness_sample_count_draws_only_what_it_uses(monkeypatch, capsys):
    # levels 1-3 hold the first 7 samples and draw nothing from the RNG
    draws = 0
    sample = random.Random.sample

    def counted(self, *args, **kwargs):
        nonlocal draws
        draws += 1
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "sample", counted)
    argv = ["witness", "--edges", "1-b+b^2", "--J", "2", "--samples", "7", "--format", "json"]
    assert main(argv) == 0
    assert '"samples": 7' in capsys.readouterr().out
    assert draws == 0
    assert main(argv[:-3] + ["8"]) == 0
    capsys.readouterr()
    assert draws == 1


def test_witness_certifies_the_limit_stage_once(monkeypatch, capsys):
    calls = 0
    certify = series.gamma_omega

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return certify(*args, **kwargs)

    monkeypatch.setattr(series, "gamma_omega", counted)
    argv = ["witness", "--edges", "1-b+b^2,1-b+b^2,1-b+b^2", "--J", "20"]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == 1


def test_gamma_omega_certificate_does_not_depend_on_the_truncation_level():
    low, high = series.lcs_chain(Model(1), 12), series.lcs_chain(Model(87), 12)
    assert [st.center_exp for st in low] == [st.center_exp for st in high]
    assert series.gamma_omega(Model(1), low) == series.gamma_omega(Model(87), high)


def test_witness_j_zero_reduces_to_gamma_omega():
    tower = tower_build([S])
    rep = series.witness_not_transfinitely_nilpotent(tower, 0, samples=[Dyadic(1, 2)])
    assert rep.passed
    assert rep.j_bound == 0
    assert rep.samples == (series.WitnessSample(True, True),)


def test_witness_requires_even_norm_edge():
    tower = tower_build([parse_laurent("b")])
    with pytest.raises(InsufficientTowerError):
        series.witness_not_transfinitely_nilpotent(tower, 5, samples=[Dyadic(1, 1)])


def test_witness_rejects_zero_samples():
    tower = tower_build([S])
    with pytest.raises(PreconditionError):
        series.witness_not_transfinitely_nilpotent(tower, 2, samples=[Dyadic(0, 0)])


def test_witness_passes_for_samples_deeper_than_the_prefix():
    # the prefix reaches level 4; the chains are checked in the level
    # c.k + J truncation, so a sample of depth 10 passes too
    tower = tower_build([S, S])
    rep = series.witness_not_transfinitely_nilpotent(
        tower, 3, samples=[Dyadic(1, 1), Dyadic(1, 4), Dyadic(1, 10)]
    )
    assert rep.passed


def test_iterated_commutator_arithmetic_in_g2():
    # [t, b] = t^-2 and iterating gives t^((-2)^e), the engine behind the
    # witness's membership expressions
    w = gamma_comm(gamma_gen(None, "a"), gamma_gen(None, "ab"))
    assert w == gamma_make(None, 1, (0, 0), 0)
    cur = w
    expect = 1
    for _ in range(6):
        cur = gamma_comm(cur, gamma_gen(None, "b"))
        expect *= -2
        assert cur == gamma_make(None, expect, (0, 0), 0)
