"""Byte-for-byte JSON reports of the README commands.

Each file under ``tests/golden`` is the ``--format json`` stdout of one
command, the ``golden:<name>`` entries of ``tests/commands.py``.  A refactor
that keeps the claims keeps these bytes.
"""

from pathlib import Path

import pytest

from commands import TABLE
from vltower.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = {tag[len("golden:") :]: entry.argv for entry in TABLE for tag in entry.tags if tag.startswith("golden:")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_matches_golden(name, capsys):
    rc = main(CASES[name] + ["--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN / f"{name}.json").read_text()
