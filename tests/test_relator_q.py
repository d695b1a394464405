"""The relator's coefficient Q, ``quadratic.Q``: named once, and checked by
a q-family of differential runs.

Every value that follows from the relator a^(b^2) = a a^(Qb) reads Q, so
rebinding it in every ``vltower`` module and in the letter oracle of
``tests/words.py`` (the ``q`` fixture) gives the same presentation with
another coefficient.  A 3 that comes from the relator but does not read Q
fails at Q = 5.  The outcomes the mathematics predicts:

- odd Q: every exit-0 ``readme`` and ``ci`` command of ``tests/commands.py``
  passes, with module indices Q^(i-1);
- Q = 1: U - I is unimodular, so the module chain never shrinks and the
  limit-stage certificate fails, while the level maps still build;
- even Q: U^3 is not I mod 2, so the parity formula fails.

The audit reads the integer literals 3 of the package's code (comments and
docstrings hold none): each is on ``ALLOWED_THREES`` with its reason.
"""

import ast
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import vltower.cli  # loads every package module
import words
from commands import TABLE, check_all, run_argv, run_in_process, tagged
from test_acceptance import _random_word
from test_closed_forms import _slope_failures
from vltower import quadratic
from vltower.groups import Model, conj_b, free_mul

SRC = Path(quadratic.__file__).resolve().parent

# (module, line of code without its comment): (literal 3s on it, reason)
ALLOWED_THREES = {
    ("quadratic.py", "Q = 3"): (1, "the definition of Q"),
    ("quadratic.py", "PARITY_PERIOD = 3"): (1, "the order of U mod 2 for odd Q, not the relator's 3"),
    ("cohn.py", "for _ in range(n * 3):"): (1, "cohn's draws: elementary row operations per matrix size"),
    ("cohn.py", "for _ in range(_below(bits, 3)):"): (1, "cohn's draws: augmentation-zero terms per entry"),
    ("cohn.py", "deeper = NilpotentModuleSpec(module.m + _below(bits, 3) + 1)"): (1, "cohn's draws: the coherence step"),
    ("cli.py", 'p.add_argument("--n", type=_bounded(1, 250), default=3)'): (1, "the --n default"),
    ("cli.py", 'p.add_argument("--deg", type=_bounded(0, NO_WORK_BOUND), default=3)'): (1, "the --deg default"),
    ("cli.py", '_require_printable(Q ** min(last, 3 * limit), what="a module index")'): (
        1,
        "Q^(3 L) > 10^L: an index past 3 L powers has more than L digits",
    ),
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _package_modules():
    return [module for name, module in sorted(sys.modules.items()) if name.split(".")[0] == "vltower"]


def test_every_literal_three_in_the_package_has_a_reason():
    found = Counter()
    for name, tree in _trees().items():
        lines = (SRC / name).read_text().splitlines()
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 3:
                found[name, lines[node.lineno - 1].split("#")[0].strip()] += 1
    assert found == {key: count for key, (count, _) in ALLOWED_THREES.items()}


def test_only_quadratic_defines_q_and_every_other_module_imports_it():
    for name, tree in _trees().items():
        stores = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "Q" and isinstance(n.ctx, ast.Store)]
        assert not any(isinstance(n, ast.arg) and n.arg == "Q" for n in ast.walk(tree)), name
        assert len(stores) == (name == "quadratic.py"), name
        reads = any(isinstance(n, ast.Name) and n.id == "Q" for n in ast.walk(tree))
        imported = any(
            isinstance(n, ast.ImportFrom) and n.module == "quadratic" and "Q" in [a.name for a in n.names]
            for n in ast.walk(tree)
        )
        assert imported == (reads and name != "quadratic.py"), name
    for module in _package_modules():
        assert getattr(module, "Q", quadratic.Q) is quadratic.Q, module.__name__


@pytest.fixture
def q(request, monkeypatch):
    """Rebind Q in every package module that reads it and in the word oracle."""
    rebound = [module for module in (*_package_modules(), words) if hasattr(module, "Q")]
    assert {quadratic, words} <= set(rebound)
    for module in rebound:
        monkeypatch.setattr(module, "Q", request.param)
    return request.param


def _exit_zero_commands():
    """The exit-0 ``readme`` and ``ci`` entries, in table order."""
    return [entry for entry in TABLE if entry.code == 0 and entry.tags & {"readme", "ci"}]


@pytest.mark.parametrize("q", [5, 7], indirect=True)
def test_odd_q_passes_every_readme_and_ci_command(q, capsys):
    assert check_all(_exit_zero_commands(), run_in_process) == 0, capsys.readouterr().out
    (lcs,) = [entry for entry in tagged("readme") if entry.argv[0] == "lcs"]
    rc, out, _ = run_in_process(run_argv(lcs), lcs.timeout)
    (chain,) = [claim for claim in json.loads(out)["claims"] if claim["id"] == "lcs.chain"]
    assert rc == 0 and chain["data"]["indices"] == [str(q**i) for i in range(12)]


@pytest.mark.parametrize("q", [1], indirect=True)
def test_q_one_leaves_the_module_chain_unshrunk(q, capsys):
    # det(U - I) = -Q: at Q = 1 every stage holds every probe, so the limit
    # stage is never certified; the level maps do not read that chain
    entries = _exit_zero_commands()
    limit = [e for e in entries if e.argv[0] == "witness" or (e.argv[0] == "lcs" and "--gamma-omega" in e.argv)]
    assert len(limit) == 7
    for entry in limit:
        rc, _, err = run_in_process(run_argv(entry), entry.timeout)
        assert (rc, err) == (2, "theorem violation: probe (-2, -2) never exits the module chain\n"), entry.argv
    phi = [entry for entry in entries if entry.argv[0] == "phi-check"]
    assert len(phi) == 4
    assert check_all(phi, run_in_process) == 0, capsys.readouterr().out


@pytest.mark.parametrize("q", [2], indirect=True)
def test_even_q_breaks_the_parity_formula(q, capsys):
    # U = [[0, 1], [1, 0]] mod 2 has order 2, not PARITY_PERIOD: the norm of
    # 1 - b + b^2 is 7, and the (2, 1) window holds it
    assert vltower.cli.main(["norm", "--s", "1-b+b^2"]) == 2
    assert "determinant parity is 1" in capsys.readouterr().out
    assert vltower.cli.main(["parity-verify", "--max-span", "2", "--max-coeff", "1"]) == 2
    assert "1-b+b^2" in capsys.readouterr().out


@pytest.mark.parametrize("q", [5], indirect=True)
def test_free_mul_and_conj_b_agree_with_the_word_oracle(q):
    # c03 at Q = 5: the b-free law, one conjugation by b and the full-group
    # law on random words, against letter-level rewriting with B^b = A B^Q
    rng = random.Random(5)
    g2 = Model(None)

    def triple():
        return rng.randint(-9, 9), rng.randint(-4, 4), rng.randint(-4, 4)

    def letters(x):
        return [("t", x[0]), ("a", x[1]), ("ab", x[2])]

    for _ in range(100):
        x, y = triple(), triple()
        assert words.word_oracle(letters(x) + letters(y), g2) == (None, *_split(free_mul(x, y)), 0)
        assert words.word_oracle([("b", -1), *letters(x), ("b", 1)], g2) == (None, *_split(conj_b(x)), 0)
    for model in g2, Model(3):
        for _ in range(50):
            word = _random_word(rng, max_len=12, max_b=4)
            assert words.word_oracle(word, model) == words.eval_word(word, model), word


@pytest.mark.parametrize("q", [1, 2, 5, 7], indirect=True)
def test_the_main_relator_defect_has_slope_q_at_every_q(q):
    # the slope Q in the center of a's image, which the level maps' exact
    # check on a^s rests on, holds for every coefficient, even or odd
    assert _slope_failures() == []


def _split(x):
    c, m, n = x
    return c, (m, n)
