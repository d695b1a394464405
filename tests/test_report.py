"""``Report.to_json`` writes the bytes of the stdlib encoding
``json.dumps(report.to_dict(), sort_keys=True, indent=1, separators=(",", ": "))``
(``references.report_json``): on generated reports, and on the report of
every ``encoding`` entry of ``tests/commands.py``: the README commands and
the CI smoke commands."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commands import tagged
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


COMMANDS = [entry.argv for entry in tagged("encoding")]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv)[:60])
def test_command_reports_are_the_stdlib_encoding(argv):
    args = build_parser().parse_args(argv)
    report = args.fn(args)
    assert report.passed
    assert report.to_json() == report_json(report)
