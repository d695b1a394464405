"""Planted faults: each verified claim of norm, parity-verify, phi-check,
tower, lcs, witness and cohn named here fails when the step it rests on is
broken.

Each fault is planted with monkeypatch in the b-free triple law, a record,
the norm or the evaluation that the claim's check reads, and the command
must then exit 2 (or report the claim as failed).  The stderr line names the
check that caught the fault.
"""

import dataclasses
import inspect
import itertools
import json
import types

import pytest

from vltower import groups as G
from vltower import cohn, homology, quadratic, series
from vltower.cli import main
from vltower.laurent import parse_laurent
from vltower.quadratic import evaluate_at_U, predicted_parity

from references import enumerate_S, window_key_counts
from test_quadratic import ref_parity_report

PHI_CHECK = ["phi-check", "--s", "1-b+b^2", "--k", "3"]
TOWER = ["tower", "--edges", "1-b+b^2,b,1-b+b^2", "--checks", "full"]


def _flipped_mul(x, y):
    """free_mul with the sign of its -m2*n1 term flipped."""
    c1, m1, n1 = x
    c2, m2, n2 = y
    return (c1 + c2 + m2 * n1, m1 + m2, n1 + n2)


def _exit_and_error(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [PHI_CHECK, TOWER], ids=["phi-check", "tower"])
@pytest.mark.parametrize("index", [1, 2], ids=["c_A", "c_B"])
def test_phi_build_catches_a_center_coefficient_of_the_b_record(monkeypatch, capsys, argv, index):
    # phi.build: r absorbs a center defect of a^s, so only the relator on the
    # generator a sees the record's center part
    record = list(G._CONJ_B_INV)
    record[index] += 1
    monkeypatch.setattr(G, "_CONJ_B_INV", tuple(record))
    code, err = _exit_and_error(argv, capsys)
    assert code == 2
    assert "main relator image nonzero" in err


@pytest.mark.parametrize("argv", [PHI_CHECK, TOWER], ids=["phi-check", "tower"])
def test_phi_center_catches_a_sign_flip_in_the_b_free_product(monkeypatch, capsys, argv):
    # phi.center: img_t is the commutator of img_a and img_ab on triples
    monkeypatch.setattr(G, "free_mul", _flipped_mul)
    code, err = _exit_and_error(argv, capsys)
    assert code == 2
    assert "center image" in err


def _certificate_against_norm_plus_one(monkeypatch):
    real = homology.two_connected_certificate

    def shifted(data):
        return real(dataclasses.replace(data, norm=data.norm + 1))

    monkeypatch.setattr(homology, "two_connected_certificate", shifted)


def _certificate_with_flipped_product(monkeypatch):
    def flipped_comm(x, y):
        return _flipped_mul(G.free_inv(_flipped_mul(y, x)), _flipped_mul(x, y))

    monkeypatch.setattr(homology, "free_comm", flipped_comm)


@pytest.mark.parametrize("argv", [PHI_CHECK, TOWER], ids=["phi-two-connected", "tower-edge-two-connected"])
@pytest.mark.parametrize("plant", [_certificate_against_norm_plus_one, _certificate_with_flipped_product])
def test_two_connected_claims_catch_a_faulty_certificate(monkeypatch, capsys, argv, plant):
    # phi.two_connected and tower.edge*.two_connected; the level maps are
    # built before the fault can act, since only the certificate is patched
    plant(monkeypatch)
    code, err = _exit_and_error(argv, capsys)
    assert code == 2
    assert "generator image" in err


def test_witness_chains_catch_a_faulty_commutator_with_b(monkeypatch, capsys):
    # [x, b] computed as x x^b instead of x^-1 x^b
    monkeypatch.setattr(series, "comm_b", lambda x: G.free_mul(x, G.conj_b(x)))
    argv = ["witness", "--edges", "1-b+b^2,1-b+b^2,1-b+b^2", "--J", "20", "--format", "json"]
    assert main(argv) == 2
    claims = {c["id"]: c["pass"] for c in json.loads(capsys.readouterr().out)["claims"]}
    assert claims["witness.chains"] is False
    assert claims["witness.gamma_omega"] is False


def test_witness_chains_catch_a_link_loop_that_stops_one_link_short(monkeypatch, capsys):
    # witness.chains: every link a loop checks is right, but the count of
    # links falls one short of samples x J on every sample
    source = inspect.getsource(series.witness_not_transfinitely_nilpotent)
    short = source.replace("for j in range(j_bound)]", "for j in range(j_bound - 1)]")
    assert short != source
    namespace = dict(vars(series))
    exec(short, namespace)
    monkeypatch.setattr(series, "witness_not_transfinitely_nilpotent", namespace["witness_not_transfinitely_nilpotent"])
    argv = ["witness", "--edges", "1-b+b^2,1-b+b^2,1-b+b^2", "--J", "20", "--format", "json"]
    assert main(argv) == 2
    claims = {c["id"]: c["pass"] for c in json.loads(capsys.readouterr().out)["claims"]}
    assert [name for name, passed in claims.items() if not passed] == ["witness.chains"]


@pytest.mark.parametrize("edges", ["1-b+b^2,b,1-b+b^2", "b,b"])
def test_tower_colim_h2_catches_a_fold_the_wrong_way(monkeypatch, capsys, edges):
    # tower.colim_h2: the fold is compared with the per-edge certificates, on
    # which the class dies exactly at an edge whose valuation passes its source
    real = homology.colim_h2
    even, odd = real(G.tower_build([parse_laurent("1-b+b^2")])), real(G.tower_build([]))
    monkeypatch.setattr(homology, "colim_h2", lambda tower: odd if tower.has_even_edge() else even)
    assert main(["tower", "--edges", edges, "--checks", "full", "--format", "json"]) == 2
    claims = {c["id"]: c["pass"] for c in json.loads(capsys.readouterr().out)["claims"]}
    assert [name for name, passed in claims.items() if not passed] == ["tower.colim_h2"]


def _shift_the_record_of_b_pow(monkeypatch, index):
    """Add 1 to one center coefficient of the record of b^j for every j > 0."""
    real = G._conj_record

    def shifted(j):
        record = list(real(j))
        if j > 0:
            record[index] += 1
        return tuple(record)

    monkeypatch.setattr(G, "_conj_record", shifted)


@pytest.mark.parametrize("index", [1, 2], ids=["c_A", "c_B"])
def test_phi_build_catches_a_center_coefficient_of_the_record_of_b(monkeypatch, capsys, index):
    # phi.build: an edge with a negative exponent conjugates a^s by the record
    # of b^2, and r absorbs the center defect a fault there leaves; the record
    # of b is checked as the inverse of the record of b^-1
    _shift_the_record_of_b_pow(monkeypatch, index)
    code, err = _exit_and_error(["phi-check", "--s", "b^-2+b^-1-b^300", "--k", "6"], capsys)
    assert code == 2
    assert "records of b and b^-1 are not inverse" in err


@pytest.mark.parametrize("index", [1, 2], ids=["c_A", "c_B"])
def test_tower_catches_a_center_coefficient_of_the_record_of_b(monkeypatch, capsys, index):
    # tower.built: the record of b is checked once per tower, and still when the
    # edge with a negative exponent is not the first
    _shift_the_record_of_b_pow(monkeypatch, index)
    code, err = _exit_and_error(["tower", "--edges", "1-b+b^2,b^-2+b^-1-b^300", "--checks", "full"], capsys)
    assert code == 2
    assert "records of b and b^-1 are not inverse" in err


@pytest.mark.parametrize("argv", [["phi-check", "--s", "1-b+b^2", "--k", "2"], TOWER], ids=["phi-check", "tower"])
@pytest.mark.parametrize(
    "old,new",
    [("// 2 * s", "// 2 * (alpha + 2 * beta)"), ("+ m * n * beta", "- m * n * beta")],
    ids=["center-coefficient", "center-mn-sign"],
)
def test_record_checks_catch_a_center_fault_of_the_record_application(monkeypatch, capsys, argv, old, new):
    # phi.build and tower.built: the record of b^-1 has alpha = 0, so both
    # faults vanish on the relator of the generator a (m n = 0 and n <= 1),
    # and r absorbs the defect they leave in a^s; both center terms of a
    # record application act on (A B)^2 = t^-1 A^2 B^2
    source = inspect.getsource(G._aut_apply)
    assert source.count(old) == 1
    namespace = dict(vars(G))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(G, "_aut_apply", namespace["_aut_apply"])
    code, err = _exit_and_error(argv, capsys)
    assert code == 2
    assert "the record of b^-1 does not respect the square of A B" in err


def test_norm_value_catches_a_wrong_norm(monkeypatch, capsys):
    # norm.value: the norm is checked against s(-1) mod 3, a second computation
    real = quadratic.norm
    monkeypatch.setattr(quadratic, "norm", lambda s: real(s) + 4)
    code, err = _exit_and_error(["norm", "--s", "1-b+b^2"], capsys)
    assert code == 2
    assert "differs from s(-1) mod 3" in err


def test_tower_built_catches_a_wrong_pair_of_s_of_u(monkeypatch, capsys):
    # tower.built: the bottom square compares the level map's pair with the
    # pair of s(U); a wrong evaluation of s at U must break it
    real = G.evaluate_at_U

    def shifted(s):
        alpha, beta = real(s)
        return alpha, beta + 1

    monkeypatch.setattr(G, "evaluate_at_U", shifted)
    code, err = _exit_and_error(["tower", "--edges", "1-b+b^2,b,1-b+b^2"], capsys)
    assert code == 2
    assert "base diagram" in err


def test_witness_five_term_catches_an_odd_fold(monkeypatch, capsys):
    # witness.five_term: the five-term conclusion is read from the colimit
    # fold, so a fold that stays Z/2 on even-norm edges must fail it
    odd_fold = homology.colim_h2(G.tower_build([]))
    monkeypatch.setattr(homology, "colim_h2", lambda tower: odd_fold)
    argv = ["witness", "--edges", "1-b+b^2,1-b+b^2,1-b+b^2", "--J", "3", "--format", "json"]
    assert main(argv) == 2
    claims = {c["id"]: c["pass"] for c in json.loads(capsys.readouterr().out)["claims"]}
    assert claims["witness.five_term"] is False
    assert claims["witness.conclusion"] is False


@pytest.mark.parametrize("pair", [(1, 1), (-1, 2)], ids=["index-3", "index-9"])
@pytest.mark.parametrize("flags", [[], ["--gamma-omega", "--transfinite"]], ids=["chain", "limit"])
def test_lcs_chain_catches_a_wrong_pair_of_u_minus_i(monkeypatch, capsys, pair, flags):
    # lcs.chain: the next generator pair is checked against the module part
    # of [x, b], which the group kernel computes without the pair of U - I;
    # (1, 1) has index 3 like U - I itself, so the indices alone cannot tell
    monkeypatch.setattr(series, "_U_MINUS_I", pair)
    code, err = _exit_and_error(["lcs", "--model", "Gamma3", "--depth", "6", *flags], capsys)
    assert code == 2
    assert "is not that of [x, b]" in err


def test_lcs_gamma_omega_catches_a_membership_test_that_accepts_everything(monkeypatch, capsys):
    # lcs.gamma_omega: no probe exits a chain whose stages hold every vector
    monkeypatch.setattr(series, "ideal_contains", lambda pair, v: True)
    code, err = _exit_and_error(["lcs", "--model", "Gamma3", "--depth", "12", "--gamma-omega"], capsys)
    assert code == 2
    assert "never exits the module chain" in err


@pytest.mark.parametrize("skipped", ["trials", "coherence_trials"])
def test_cohn_lifting_catches_a_suite_that_skips_work(monkeypatch, capsys, skipped):
    # cohn.lifting: a suite that runs one lift or one coherence check fewer
    # than asked reports no failure among those it ran, and still fails
    real = cohn.cohn_local_suite

    def one_fewer(module, trials, size_bound, degree_bound, seed=0, coherence_trials=0):
        counts = {"trials": trials, "coherence_trials": coherence_trials}
        counts[skipped] -= 1
        return real(module, size_bound=size_bound, degree_bound=degree_bound, seed=seed, **counts)

    monkeypatch.setattr(cohn, "cohn_local_suite", one_fewer)
    argv = ["cohn", "--m", "4", "--trials", "3", "--coherence", "2", "--format", "json"]
    assert main(argv) == 2
    claims = {c["id"]: c for c in json.loads(capsys.readouterr().out)["claims"]}
    assert claims["cohn.lifting"]["pass"] is False
    assert claims["cohn.lifting"]["data"] == {"failures": 0}


@pytest.mark.parametrize(
    "s,failed", [("1+b+b^2", {"phi.normal_surjectivity", "phi.two_connected"}), ("2", {"phi.two_connected"})]
)
def test_phi_first_homology_claims_read_the_augmentation(monkeypatch, capsys, s, failed):
    # phi.normal_surjectivity and phi.two_connected: with require_in_S
    # bypassed, augmentation 3 leaves the quotient Z/3, and augmentation 2
    # multiplies first homology by 2 mod 3
    monkeypatch.setattr(G, "require_in_S", lambda poly: poly)
    assert main(["phi-check", "--s", s, "--k", "2", "--format", "json"]) == 2
    claims = {c["id"]: c["pass"] for c in json.loads(capsys.readouterr().out)["claims"]}
    assert {name for name, passed in claims.items() if not passed} == failed


def test_parity_exhaustive_catches_a_walk_that_drops_a_tail(monkeypatch, capsys):
    # parity.exhaustive: a count that drops the coefficient value c drops
    # every element with an entry c; that breaks no formula, but the count
    # of elements checked falls short of the window's
    real = quadratic._key_counts

    def dropping(d, c):
        w, _ = real(d, c)
        ways = window_key_counts(d, c, values=range(-c, c))
        return w, [sum(n << w * (t + (d + 1) * c) for t, n in ways.get(key, {}).items()) for key in range(32)]

    monkeypatch.setattr(quadratic, "_key_counts", dropping)
    code, err = _exit_and_error(["parity-verify", "--max-span", "6", "--max-coeff", "3"], capsys)
    assert code == 2
    assert "S-elements of a window that holds 59710" in err


def _every_prediction_wrong(n0, n1, n2):
    return (n0 * n1 + n0 * n2 + n1 * n2) % 2


def test_parity_exhaustive_catches_a_listing_walk_that_misses_an_element(monkeypatch, capsys):
    # parity.exhaustive: with every prediction wrong, all 18 elements of the
    # (2, 2) window fail, fewer than the list bound; a walk that misses the
    # element -2 + 2b + b^2 (the last middle entry of its first core of
    # span 2) lists one fewer than the count finds
    real = itertools.product
    missed = []

    def missing_one(*iterables, repeat=1):
        out = list(real(*iterables, repeat=repeat))
        if len(iterables) == 1 and repeat == 1 and not missed:
            missed.append(out.pop())
        return iter(out)

    monkeypatch.setattr(quadratic, "_pair_parity", _every_prediction_wrong)
    monkeypatch.setattr(quadratic, "itertools", types.SimpleNamespace(product=missing_one))
    code, err = _exit_and_error(["parity-verify", "--max-span", "2", "--max-coeff", "2"], capsys)
    assert (code, missed) == (2, [(2,)])
    assert err == "theorem violation: the walk found 17 of the first 18 of the 18 counterexamples counted\n"


def _failed_claims(argv, capsys):
    assert main([*argv, "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    return {c["id"]: c["data"] for c in doc["claims"] if not c["pass"]}


@pytest.mark.parametrize("dropped", [0, 1, 2], ids=["N0N1", "N0N2", "N1N2"])
def test_norm_parity_catches_a_formula_missing_one_class_product(monkeypatch, capsys, dropped):
    # norm.parity: the class sums of 1 - b + b^2 are (1, -1, 1), all odd, so
    # every class product moves the predicted parity
    def missing_one(n0, n1, n2):
        products = [n0 * n1, n0 * n2, n1 * n2]
        del products[dropped]
        return (1 + sum(products)) % 2

    monkeypatch.setattr(quadratic, "_pair_parity", missing_one)
    failed = _failed_claims(["norm", "--s", "1-b+b^2"], capsys)
    assert failed == {"norm.parity": {"predicted": 1, "actual": 0}}
    # parity.exhaustive: the window walk reads the same formula, not a copy of it
    failed = _failed_claims(["parity-verify", "--max-span", "4", "--max-coeff", "2"], capsys)
    assert failed["parity.exhaustive"]["counterexamples"] == list(ref_parity_report(4, 2)[1])


def _norm_form_without_beta_square(alpha, beta, f=0):
    n = alpha * alpha + quadratic.Q * alpha * beta
    return -n if f & 1 else n


def test_parity_exhaustive_catches_a_norm_form_without_its_beta_square(monkeypatch, capsys):
    # parity.exhaustive: the window walk reads the norm form, not a copy of
    # it, at the pair of s(U).  ``norm`` reads it at the pair of the core
    # with the sign (-1)^f, equal only for the true form, so the element
    # loop here reads the form at s(U) too
    monkeypatch.setattr(quadratic, "_norm_form", _norm_form_without_beta_square)
    window = enumerate_S(4, 2)
    bad = [str(s) for s in window if predicted_parity(s) != _norm_form_without_beta_square(*evaluate_at_U(s)) % 2]
    assert len(bad) == 187
    failed = _failed_claims(["parity-verify", "--max-span", "4", "--max-coeff", "2"], capsys)
    assert failed["parity.exhaustive"]["counterexamples"] == bad


def test_cohn_nilpotency_catches_a_degree_loop_that_stops_one_step_early(monkeypatch, capsys):
    # cohn.nilpotency: the bisection asks whether the next power of -2 dies,
    # so it stops one step before the first power that does
    source = inspect.getsource(cohn.delta_nilpotency_degree)
    early = source.replace("if dies(mid):", "if dies(mid + 1):")
    assert early != source
    namespace = dict(vars(cohn))
    exec(early, namespace)
    monkeypatch.setattr(cohn, "delta_nilpotency_degree", namespace["delta_nilpotency_degree"])
    failed = _failed_claims(["cohn", "--m", "4", "--trials", "3", "--coherence", "1"], capsys)
    assert failed == {"cohn.nilpotency": {"degree": 3}}


@pytest.mark.parametrize("bound", [[], ["2"]], ids=["full", "bounded"])
def test_lcs_transfinite_catches_a_center_that_quarters(monkeypatch, capsys, bound):
    # lcs.transfinite: the chain past the limit is built by an lcs_step whose
    # center goes two 2-power steps deeper instead of one, so its quotients
    # have order 4; the finite stages keep the real lcs_step
    source = inspect.getsource(series.lcs_step)
    quartering = source.replace("1 << (s.center_exp + 1)", "1 << (s.center_exp + 2)")
    assert quartering != source
    namespace = dict(vars(series))
    exec(quartering, namespace)
    exec(inspect.getsource(series.transfinite_chain), namespace)
    monkeypatch.setattr(series, "transfinite_chain", namespace["transfinite_chain"])
    failed = _failed_claims(["lcs", "--model", "Gamma4", "--transfinite", *bound], capsys)
    assert list(failed) == ["lcs.transfinite"]
