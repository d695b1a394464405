"""``Report.to_json`` writes the bytes of the stdlib encoding
``json.dumps(report.to_dict(), sort_keys=True, indent=1, separators=(",", ": "))``
(``references.report_json``): on generated reports, and on the report of
every README command and every CI smoke command."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from references import report_json
from vltower.cli import build_parser
from vltower.report import PROVENANCES, Claim, Report

_TEXT = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"\\\\', "\x00\x01\n\t\x1f\x7f", "é ☃ \U0001f600", "\ud800", "</script>"]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300]),
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)
_CLAIMS = st.builds(
    Claim,
    id=_TEXT,
    statement=_TEXT,
    provenance=st.sampled_from(PROVENANCES),
    passed=st.booleans(),
    data=st.dictionaries(_TEXT, _VALUES, max_size=4),
)
_REPORTS = st.builds(
    Report,
    command=_TEXT,
    inputs=st.dictionaries(_TEXT, _VALUES, max_size=4),
    seed=st.one_of(st.none(), st.integers()),
    claims=st.lists(_CLAIMS, max_size=4),
)


@given(_REPORTS)
def test_to_json_is_the_stdlib_encoding(report):
    assert report.to_json() == report_json(report)


def test_int_past_the_digit_limit_raises_in_both_paths():
    report = Report("norm", {"s": "x"})
    report.add("norm.value", "big", "verified", True, norm=10**4300)
    with pytest.raises(ValueError):
        report_json(report)
    with pytest.raises(ValueError):
        report.to_json()


EDGES = "1-b+b^2,1-b+b^2,1-b+b^2"
LONG_EDGES = ",".join(
    ["1-b+b^2,b,2b-b^3,1+b-b^2,2-b,b^-1+b-b^2,-1+b+b^2,3-b-b^2"] * 2
    + ["-2-2b^147+5b^227"]
    + ["1-b+b^2,b,2b-b^3,1+b-b^2,2-b,b^-1+b-b^2,-1+b+b^2,3-b-b^2"] * 3
)

# Every README and CI smoke command that prints a report.  CI's
# parity-verify (8, 3) is left out: its report has the shape of (7, 3)'s and
# takes seconds longer to compute.
COMMANDS = [
    ["norm", "--s", "1-b+b^2"],
    ["norm", "--s", " 2 * b ^ - 1 - b ^ 3 "],
    ["norm", "--s", "b^99999999999999999999"],
    ["parity-verify", "--max-span", "6", "--max-coeff", "3"],
    ["parity-verify", "--max-span", "7", "--max-coeff", "3"],
    ["phi-check", "--s", "1-b+b^2", "--k", "2"],
    ["phi-check", "--s", "b^-2+b^-1-b^300", "--k", "60"],
    ["phi-check", "--s", "b^100000", "--k", "2"],
    ["tower", "--edges", "1-b+b^2,b,1-b+b^2", "--checks", "full"],
    ["tower", "--edges", "b,b", "--checks", "full"],
    ["tower", "--edges", "1-b+b^2,b", "--checks", "basic"],
    ["tower", "--edges", LONG_EDGES, "--checks", "full"],
    ["tower", "--edges", "b^-2+b^-1-b^300,1-b+b^2,-2-2b^147+5b^311", "--checks", "full"],
    ["tower", "--edges", ",".join(["1-b+b^2"] * 2000), "--checks", "full"],
    ["lcs", "--model", "Gamma3", "--depth", "12", "--gamma-omega", "--transfinite"],
    ["witness", "--edges", EDGES, "--J", "20"],
    ["witness", "--edges", EDGES, "--J", "200"],
    ["witness", "--edges", EDGES, "--J", "1000"],
    ["cohn", "--m", "4", "--trials", "200", "--n", "3", "--deg", "3", "--seed", "0"],
    ["cohn", "--m", "4", "--n", "8", "--trials", "20"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv)[:60])
def test_command_reports_are_the_stdlib_encoding(argv):
    args = build_parser().parse_args(argv)
    report = args.fn(args)
    assert report.passed
    assert report.to_json() == report_json(report)
