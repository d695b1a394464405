"""Every vltower command that CI, the tests and the README run, written once.

An entry is an argv (without the program name), its exit code, a timeout in
seconds for one console run, and tags that say who runs it: ``readme`` (a
line of the README's command block), ``ci`` (this file, as a script),
``claim-path`` (``test_claim_path.py``), ``encoding`` (``test_report.py``),
``error-line`` and ``rerun`` (``test_cli.py``, which reruns the ``readme``
entries too), and ``golden:<name>`` (its JSON is ``tests/golden/<name>.json``).

``python tests/commands.py`` runs the ``ci`` entries through the installed
``vltower`` with the checks of ``problems``, prints each failing command to
paste, and exits 1 once all have run if any failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import subprocess
import sys
from typing import NamedTuple

from vltower import groups, quadratic, series
from vltower.cli import main

from references import window_key_counts

DEFAULT_TIMEOUT = 60


class Entry(NamedTuple):
    argv: list[str]
    code: int
    timeout: float
    tags: frozenset[str]


def _entry(argv: str | list[str], *tags: str, code: int = 0, timeout: float = DEFAULT_TIMEOUT) -> Entry:
    """An entry; a string argv is split as a shell would split it."""
    return Entry(shlex.split(argv) if isinstance(argv, str) else argv, code, timeout, frozenset(tags))


def _invalid(argv: str | list[str], *tags: str, timeout: float = DEFAULT_TIMEOUT) -> Entry:
    return _entry(argv, "error-line", *tags, code=1, timeout=timeout)


EDGES = "1-b+b^2,1-b+b^2,1-b+b^2"
EIGHT_EDGES = "1-b+b^2,b,2b-b^3,1+b-b^2,2-b,b^-1+b-b^2,-1+b+b^2,3-b-b^2"
LONG_EDGES = ",".join([EIGHT_EDGES] * 2 + ["-2-2b^147+5b^227"] + [EIGHT_EDGES] * 3)
# |9...9 b - 9...8| with 2,200-digit coefficients has about 4,400 digits,
# past the 4,300 that Python turns into text
HUGE_NORM = "9" * 2200 + "b-" + "9" * 2199 + "8"
# 3b+b^2-3b^3 has norm 64, so p = 6: one edge more than the top level bound
# allows.  At 160 KB the list is past Linux's 128 KiB cap on one argument, so
# only the tests run it, in-process.
PAST_THE_TOP_LEVEL = ["tower", "--edges", ",".join(["3b+b^2-3b^3"] * (groups.TOWER_LEVEL_BOUND // 6 + 1))]

TABLE = [
    # the README's command block, in its order
    _entry('norm --s "1-b+b^2"', "readme", "ci", "encoding", "claim-path", "golden:norm"),
    _entry("parity-verify --max-span 6 --max-coeff 3", "readme", "encoding", "claim-path"),
    _entry('phi-check --s "1-b+b^2" --k 2', "readme", "encoding", "golden:phi-check"),
    _entry('tower --edges "1-b+b^2,b,1-b+b^2" --checks full', "readme", "ci", "encoding", "claim-path", "golden:tower"),
    _entry("lcs --model Gamma3 --depth 12 --gamma-omega --transfinite", "readme", "ci", "encoding", "claim-path", "golden:lcs"),
    _entry(f'witness --edges "{EDGES}" --J 20', "readme", "ci", "encoding", "claim-path", "golden:witness"),
    _entry("cohn --m 4 --trials 200 --n 3 --deg 3 --seed 0", "readme", "encoding", "claim-path", "golden:cohn"),
    # smoke commands
    _entry('norm --s " 2 * b ^ - 1 - b ^ 3 "', "ci", "encoding", "claim-path"),
    _entry("norm --s b^99999999999999999999", "ci", "encoding", "claim-path", timeout=10),
    _entry("parity-verify --max-span 7 --max-coeff 3", "ci", "encoding", timeout=5),
    # not an encoding entry: its report has the shape of (7, 3)'s
    _entry("parity-verify --max-span 8 --max-coeff 3", "ci", timeout=5),
    # the window count at the widest coefficients, at a long span, and at the two windows of WINDOW_SIZE_BOUND
    _entry("parity-verify --max-span 4 --max-coeff 8", "ci", timeout=5),
    _entry("parity-verify --max-span 12 --max-coeff 1", "ci", timeout=5),
    _entry("parity-verify --max-span 12 --max-coeff 2", "ci", timeout=5),
    _entry("parity-verify --max-span 17 --max-coeff 1", "ci", timeout=5),
    _entry("cohn --m 4 --n 8 --trials 20", "ci", "encoding"),
    _entry("cohn --m 40 --n 12 --trials 5 --coherence 2", "ci"),
    _entry("cohn --m 8 --n 60 --trials 3 --coherence 1", "ci", timeout=20),
    _entry("tower --edges b,b --checks full", "ci", "encoding", "claim-path"),
    _entry("tower --edges 1-b+b^2,b --checks basic", "ci", "encoding"),
    _entry(["tower", "--edges", LONG_EDGES, "--checks", "full"], "ci", "encoding"),
    _entry("tower --edges b^-2+b^-1-b^300,1-b+b^2,-2-2b^147+5b^311 --checks full", "ci", "encoding", "claim-path"),
    _entry("tower --edges 1-b+b^2,b^-2+b^-1-b^300 --checks full", "ci"),
    _entry(["tower", "--edges", ",".join(["1-b+b^2"] * 2000), "--checks", "full"], "ci", "encoding", timeout=20),
    _entry("phi-check --s b^-2+b^-1-b^300 --k 60", "ci", "encoding", "claim-path"),
    _entry("phi-check --s b^100000 --k 2", "ci", "encoding", timeout=20),
    _entry("phi-check --s=-2-2b^147+5b^311 --k 7", "ci"),
    _entry("lcs --model H --depth 12 --gamma-omega", "ci", "claim-path"),
    _entry("lcs --model G2 --depth 6 --gamma-omega", "ci", "claim-path"),
    _entry(f'witness --edges "{EDGES}" --J 200', "ci", "encoding"),
    _entry(f'witness --edges "{EDGES}" --J 1000', "ci", "encoding", timeout=20),
    _entry('witness --edges "1-b+b^2" --J 4 --samples 1/2,3/4,5/8', "ci"),
    # golden files past the README's: a (4, 2) window keeps the suite fast
    _entry("parity-verify --max-span 4 --max-coeff 2", "golden:parity-verify"),
    _entry("lcs --model H --depth 8 --gamma-omega --transfinite", "golden:lcs-H"),
    _entry("lcs --model G2 --depth 8 --gamma-omega --transfinite", "golden:lcs-G2"),
    _entry("lcs --model Gamma0 --depth 8 --gamma-omega --transfinite", "golden:lcs-Gamma0"),
    _entry("lcs --model Gamma3 --depth 8 --gamma-omega --transfinite", "golden:lcs-Gamma3"),
    # the claim path in JSON
    _entry(f'witness --edges "{EDGES}" --J 3 --samples 1/2,3/8 --format json', "claim-path"),
    _entry("norm --s 2b", "claim-path", code=1),
    _entry("witness --edges b", "claim-path", code=1),
    # reports whose inputs name every option that changes their claims
    _entry("lcs --model Gamma3 --depth 3", "rerun"),
    _entry("lcs --model Gamma3 --depth 3 --transfinite", "rerun"),
    _entry("lcs --model Gamma3 --depth 3 --transfinite 1", "rerun"),
    _entry("lcs --model Gamma3 --depth 3 --gamma-omega", "rerun"),
    _entry("cohn --m 2 --trials 3 --coherence 0", "rerun"),
    _entry("cohn --m 2 --trials 3 --coherence 4", "rerun"),
    _entry('witness --edges "1-b+b^2" --J 3 --samples 5 --seed 7', "rerun"),
    # invalid inputs
    _invalid("lcs --model Gamma-1"),
    _invalid('lcs --model "Gamma 2"'),
    _invalid("lcs --model Gamma+2"),
    _invalid("lcs --model Gammax"),
    _invalid("lcs --model Gamma_2"),
    _invalid("tower --edges ,"),
    _invalid("norm --s b --out /nonexistent/x.json"),
    _invalid("parity-verify --max-span -1 --max-coeff 2"),
    _invalid("parity-verify --max-span 3 --max-coeff 0"),
    _invalid("cohn --m -1"),
    _invalid("cohn --m 3 --n 0"),
    _invalid("cohn --m 3 --deg -1"),
    _invalid('witness --edges "1-b+b^2" --samples 1/3'),
    _invalid('witness --edges "1-b+b^2" --samples 1/2,x'),
    _invalid('witness --edges "1-b+b^2" --samples x'),
    _invalid("cohn --m 3 --trials -5 --coherence 0"),
    _invalid("cohn --m 3 --trials 5 --coherence -1"),
    _invalid("cohn --m 3 --trials 0 --coherence 0"),
    _invalid("lcs --model Gamma3 --transfinite -1"),
    _invalid("lcs --model H --transfinite -1"),
    _invalid("lcs --model H --transfinite 5"),
    _invalid("lcs --model G2 --transfinite 3"),
    _invalid("lcs --model Gamma2 --depth 1 --gamma-omega"),
    # digit strings past int()'s 4,300-digit limit
    _invalid(["lcs", "--model", "Gamma" + "1" * 5000]),
    _invalid(["witness", "--edges", "1-b+b^2", "--samples", "1" * 5000]),
    _invalid(["norm", "--s", "1" * 5000], "ci", "claim-path"),
    _invalid(["tower", "--edges", "1-b+b^2,b^" + "1" * 4301]),
    # "--opt=--" gives an empty list of values
    _invalid("norm --s=--"),
    _invalid('tower --edges "1-b+b^2" --checks=--'),
    _invalid(["norm", "--s", HUGE_NORM], "ci", "claim-path"),
    _invalid(["phi-check", "--s", HUGE_NORM]),
    _invalid(["tower", "--edges", HUGE_NORM]),
    # r and l_exact of 14,300 bits, a module index 3^9014 and a center order 2^14285
    _invalid("phi-check --s 2-b --k 14300", "ci"),
    _invalid("lcs --model G2 --depth 9015"),
    _invalid("lcs --model Gamma14285 --depth 3 --transfinite", "ci", timeout=5),
    _invalid(["lcs", "--model", "Gamma" + "9" * 4000, "--depth", "3", "--transfinite", "2"]),
    # past the 56 default samples, as a count and as a list
    _invalid('witness --edges "1-b+b^2" --samples 57', "ci"),
    _invalid(["witness", "--edges", "1-b+b^2", "--samples", ",".join(["1/2"] * 57)]),
    # exponents and gaps past the bounds, rejected before any work
    _invalid("phi-check --s b^121212121212 --k 2", "ci", timeout=5),
    _invalid('tower --edges "1-b+b^2,b^121212121212"'),
    _invalid("witness --edges b^-121212121212"),
    _invalid(f'witness --edges "1-b+b^2" --J {series.WITNESS_J_BOUND + 1}', "ci", timeout=5),
    _invalid("phi-check --s b^-1300000+b^1300000-b^1300001"),
    _invalid("norm --s b^10000000-b^2+b", "ci", timeout=5),
    # a coefficient bound past the bound of a window, whose tails would not stay small
    _invalid(f"parity-verify --max-span 3 --max-coeff {quadratic.WINDOW_COEFF_BOUND + 1}", "ci", timeout=5),
    # the same, on a span whose powers of U would take seconds to build
    _invalid(f"parity-verify --max-span 20000 --max-coeff {quadratic.WINDOW_COEFF_BOUND + 1}", "ci", timeout=5),
    _invalid("parity-verify --max-span 6 --max-coeff -3"),
    # a window of more than WINDOW_SIZE_BOUND elements
    _invalid("parity-verify --max-span 10 --max-coeff 3", "ci", timeout=5),
    # argparse's own rejections: a bad int, a missing option or command, a bad choice
    _invalid("cohn --m x", "ci", "claim-path", timeout=5),
    _invalid("lcs --model H --depth 2.5"),
    _invalid("norm"),
    _invalid([], "ci"),
    _invalid("bogus", "ci"),
    _invalid("norm --s b --format xml"),
    _invalid("tower --edges b --checks some"),
    _invalid("norm --s b --bogus"),
    _invalid(["norm", "--s", "b", "x\ny"]),
    # past a bound, before any tower is built
    _invalid(f"witness --edges b^2400000 --J {series.WITNESS_J_BOUND + 1}", "ci", timeout=5),
    _invalid(["witness", "--edges", "b^2400000", "--samples", ",".join(["1/2"] * 57)], "ci", timeout=5),
    _invalid(PAST_THE_TOP_LEVEL),
    # edges each within LEVEL_MAP_BOUND, together past it: rejected at the second edge
    _invalid("tower --edges b^2000000,b^2000000,b^2000000", "ci", timeout=5),
    _invalid("witness --edges b^2000000,b^2000000", "ci", timeout=5),
    # an option just past the bound that its declaration in build_parser() gives
    _invalid("parity-verify --max-span 65 --max-coeff 1", "ci", timeout=5),
    _invalid("phi-check --s b --k 100000001", "ci", timeout=5),
    _invalid(["tower", "--edges", "," * 40000], "ci", timeout=5),
    _invalid(["witness", "--edges", "," * 40000], "ci", timeout=5),
    _invalid("cohn --m 150001", "ci", timeout=5),
    _invalid("cohn --m 4 --n 251", "ci", timeout=5),
    _invalid("cohn --m 4 --trials 1000001", "ci", timeout=5),
    _invalid("cohn --m 4 --coherence 750001", "ci", timeout=5),
    # a stray argument after the options
    _invalid("norm --s b stray", "ci"),
    # cohn options each within its own bound, together past the work bound of a run
    _invalid("cohn --m 150000 --trials 1000000", "ci", timeout=5),
    _invalid("cohn --m 4 --n 250 --coherence 750000", "ci", timeout=5),
]


def tagged(tag: str) -> list[Entry]:
    """The entries with ``tag``, in table order."""
    return [entry for entry in TABLE if tag in entry.tags]


def window_count(max_span: int, max_coeff: int) -> int:
    """The S-elements of a parity window: coefficient tuples (n_0, ..., n_max_span)
    in [-max_coeff, max_coeff] with sum 1, counted by partial sums."""
    return sum(ways.get(1, 0) for ways in window_key_counts(max_span, max_coeff).values())


def run_argv(entry: Entry) -> list[str]:
    """The argv a check runs: an exit-0 entry prints JSON."""
    return entry.argv + ["--format", "json"] if entry.code == 0 else entry.argv


def problems(entry: Entry, rc: int, out: str, err: str) -> list[str]:
    """What is wrong with one run of ``run_argv(entry)``; empty if nothing."""
    if rc != entry.code:
        return [f"exit {rc}, expected {entry.code}; stderr: {err.strip()[:500]}"]
    if rc == 1:
        found = [] if out == "" else ["stdout is not empty"]
        if not err.startswith("error: ") or err.count("\n") != 1:
            found.append(f"not one error line: {err[:500]!r}")
        return found
    try:
        report = json.loads(out)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    found = []
    if out != json.dumps(report, sort_keys=True, indent=1, separators=(",", ": ")) + "\n":
        found.append("stdout is not its stdlib re-encoding")
    if report["command"] == "parity-verify":
        data = report["claims"][0]["data"]
        expected = window_count(report["inputs"]["max_span"], report["inputs"]["max_coeff"])
        if (data["checked"], data["counterexamples"]) != (expected, []):
            found.append(f"checked {data['checked']} of {expected} window elements, counterexamples {data['counterexamples']}")
    return found


def run_console(argv: list[str], timeout: float) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the installed ``vltower`` on argv."""
    proc = subprocess.run(["vltower", *argv], capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(argv: list[str], timeout: float) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``vltower.cli.main`` on argv; the timeout is not enforced."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_all(entries: list[Entry], run=run_console) -> int:
    """Run and check every entry, one line each; 1 if any failed, else 0."""
    failed = 0
    for entry in entries:
        argv = run_argv(entry)
        try:
            found = problems(entry, *run(argv, entry.timeout))
        except subprocess.TimeoutExpired:
            found = [f"no exit within {entry.timeout} s"]
        except Exception as exc:  # a report of another shape, say: this entry fails, the rest still run
            found = [f"the check raised {exc!r}"]
        command = shlex.join(["vltower", *argv])
        if found:
            failed += 1
            print(f"FAIL {command}", *(f"  {text}" for text in found), sep="\n")
        else:
            print("ok  ", command if len(command) <= 100 else command[:97] + "...")
    print(f"{len(entries) - failed} of {len(entries)} commands pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check_all(tagged("ci")))
