"""Byte-for-byte JSON reports of the README commands.

Each file under ``tests/golden`` is the ``--format json`` stdout of one
command.  A refactor that keeps the claims keeps these bytes.  The parity
window is (4, 2) instead of the README's (6, 3) to keep the suite fast.
"""

from pathlib import Path

import pytest

from vltower.cli import main

GOLDEN = Path(__file__).parent / "golden"

LCS_FLAGS = ["--depth", "8", "--gamma-omega", "--transfinite"]

CASES = {
    "norm": ["norm", "--s", "1-b+b^2"],
    "parity-verify": ["parity-verify", "--max-span", "4", "--max-coeff", "2"],
    "phi-check": ["phi-check", "--s", "1-b+b^2", "--k", "2"],
    "tower": ["tower", "--edges", "1-b+b^2,b,1-b+b^2", "--checks", "full"],
    "lcs": ["lcs", "--model", "Gamma3", "--depth", "12", "--gamma-omega", "--transfinite"],
    "witness": ["witness", "--edges", "1-b+b^2,1-b+b^2,1-b+b^2", "--J", "20"],
    "cohn": ["cohn", "--m", "4", "--trials", "200", "--n", "3", "--deg", "3", "--seed", "0"],
    "lcs-H": ["lcs", "--model", "H", *LCS_FLAGS],
    "lcs-G2": ["lcs", "--model", "G2", *LCS_FLAGS],
    "lcs-Gamma0": ["lcs", "--model", "Gamma0", *LCS_FLAGS],
    "lcs-Gamma3": ["lcs", "--model", "Gamma3", *LCS_FLAGS],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_matches_golden(name, capsys):
    rc = main(CASES[name] + ["--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN / f"{name}.json").read_text()
