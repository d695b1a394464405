"""The command table of ``tests/commands.py``: the README's commands are its
``readme`` entries, each argv is written once, and each check that CI runs
fails on a wrong run."""

import re
import shlex
import time
from pathlib import Path

from commands import PAST_THE_TOP_LEVEL, TABLE, check_all, problems, run_argv, run_in_process, tagged, window_count

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_are_the_readme_entries(capsys):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    assert [argv[1:] for argv in lines if argv[:1] == ["vltower"]] == [entry.argv for entry in tagged("readme")]
    assert check_all(tagged("readme"), run_in_process) == 0, capsys.readouterr().out


def test_each_argv_is_written_once_with_known_tags():
    assert len({tuple(entry.argv) for entry in TABLE}) == len(TABLE)
    known = {"readme", "ci", "claim-path", "encoding", "error-line", "rerun"}
    assert all(entry.tags and {tag for tag in entry.tags if not tag.startswith("golden:")} <= known for entry in TABLE)


def _run(entry):
    return run_in_process(run_argv(entry), entry.timeout)


def test_each_check_fails_on_a_wrong_run():
    assert window_count(8, 3) == 2602341
    norm_entry, (window_entry,), error_entry = tagged("readme")[0], tagged("golden:parity-verify"), tagged("error-line")[0]
    rc, out, err = _run(norm_entry)
    assert problems(norm_entry, rc, out, err) == []
    assert problems(norm_entry._replace(code=2), rc, out, err) == ["exit 0, expected 2; stderr: "]
    assert problems(norm_entry, rc, out.replace('": ', '":  ', 1), err) == ["stdout is not its stdlib re-encoding"]
    assert problems(norm_entry, rc, out[:-2], err)[0].startswith("stdout is not JSON")
    rc, out, err = _run(window_entry)
    assert problems(window_entry, rc, out, err) == []
    assert problems(window_entry, rc, out.replace('"checked": 365', '"checked": 364'), err) == [
        "checked 364 of 365 window elements, counterexamples []"
    ]
    rc, out, err = _run(error_entry)
    assert problems(error_entry, rc, out, err) == []
    assert problems(error_entry, rc, "x", err) == ["stdout is not empty"]
    assert len(problems(error_entry, rc, out, err + err)) == len(problems(error_entry, rc, out, "x" + err)) == 1


def test_a_failing_entry_prints_its_command_and_the_rest_still_run(capsys):
    entry = tagged("readme")[0]
    planted = entry._replace(code=1)
    assert check_all([planted, entry], run_in_process) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["FAIL " + shlex.join(["vltower", *run_argv(planted)]), "  exit 0, expected 1; stderr: "]
    assert out[2].startswith("ok ") and out[3] == "1 of 2 commands pass"


def test_a_tower_past_its_top_level_is_rejected_within_a_second():
    (entry,) = [entry for entry in tagged("error-line") if entry.argv == PAST_THE_TOP_LEVEL]
    start = time.perf_counter()
    rc, out, err = _run(entry)
    assert time.perf_counter() - start < 1
    assert problems(entry, rc, out, err) == [] and "top level 80004 is past the bound 80000" in err
