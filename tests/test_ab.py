"""``tests/ab.py``, the in-process A/B tool, on a 20-request slice of each workload."""

import shlex
import shutil
import sys
from pathlib import Path

import pytest

import ab
from vltower import cli

SRC = Path(__file__).resolve().parent.parent / "src"


def _ab(parent, child, workload):
    return ab.main([str(parent), str(child), "--workload", workload, "--seed", "1", "--rounds", "1", "--limit", "20"])


@pytest.mark.parametrize("workload", ["parity-window", "tower-witness", "cohn-lift"])
def test_a_tree_against_itself_gives_identical_json(capsys, workload):
    assert _ab(SRC, SRC, workload) == 0
    _, once = ab.requests_of(workload, 1, None, 20)
    assert capsys.readouterr().out.startswith(f"identical JSON on {20 + len(once)} requests; 1 rounds of 20\n")
    assert sys.modules["vltower.cli"] is cli  # the modules loaded before the run are back


def test_a_tree_whose_json_gains_a_byte_is_named_by_its_first_request(tmp_path, capsys):
    shutil.copytree(SRC / "vltower", tmp_path / "vltower", ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "vltower" / "report.py"
    source = report.read_text()
    header = "    def to_json(self) -> str:\n"
    assert source.count(header) == 1
    report.write_text(source.replace(header, header + "        return self._to_json() + ' '\n\n    def _to_json(self) -> str:\n"))
    assert _ab(SRC, tmp_path, "cohn-lift") == 1
    block, once = ab.requests_of("cohn-lift", 1, None, 20)
    first = (once + block)[0]
    assert capsys.readouterr().out == f"JSON differs: {shlex.join(first)}\n"
