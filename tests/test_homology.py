import pytest

from vltower.errors import NotInSError
from vltower.groups import phi_build, tower_build
from vltower.laurent import parse_laurent
from vltower.quadratic import norm, predicted_parity
from vltower import homology
from references import ONE, enumerate_S

S = parse_laurent("1-b+b^2")


def test_s_star_examples():
    # s_* on H_2 is zero exactly when the norm is even, an isomorphism otherwise
    assert [norm(s) % 2 for s in (S, ONE, parse_laurent("b"))] == [0, 1, 1]
    assert [predicted_parity(s) for s in (S, ONE, parse_laurent("b"))] == [0, 1, 1]
    with pytest.raises(NotInSError):
        predicted_parity(parse_laurent("2b"))


def test_three_way_parity_agreement():
    for s in enumerate_S(4, 2):
        assert predicted_parity(s) == norm(s) % 2


def test_valuation_worked_examples():
    assert homology.two_connected_certificate(phi_build(S, 0)) == 2
    assert homology.two_connected_certificate(phi_build(S, 2)) == 4
    for k in (0, 1, 3):
        assert homology.two_connected_certificate(phi_build(ONE, k)) == k


def test_valuation_equals_source_plus_p_for_enumerated_edges():
    count = 0
    for s in enumerate_S(3, 1):
        if norm(s) % 2 == 0:
            data = phi_build(s, 1)
            assert homology.two_connected_certificate(data) == data.target_k
            count += 1
    assert count > 0


def test_two_connected_certificate_examples():
    assert homology.two_connected_certificate(phi_build(S, 0)) == 2
    assert homology.two_connected_certificate(phi_build(ONE, 4)) == 4
    # the first-homology half is augmentation(s) = 1, required when a map is built
    with pytest.raises(NotInSError):
        phi_build(parse_laurent("1+b+b^2"), 0)


def test_two_connected_for_all_edges_of_a_tower():
    tower = tower_build([S, parse_laurent("b"), S])
    for data in tower.phis:
        assert homology.two_connected_certificate(data) == data.target_k


def test_colim_h2_folds():
    assert homology.colim_h2(tower_build([S])).value == "zero"
    assert homology.colim_h2(tower_build([parse_laurent("b")] * 2)).value == "Z/2-so-far"
    assert homology.colim_h2(tower_build([])).value == "Z/2-so-far"
    assert homology.colim_h2(tower_build([parse_laurent("b"), S])).value == "zero"

