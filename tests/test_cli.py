import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ab
from commands import TABLE, tagged
from vltower import cli, cohn, groups, quadratic, series
from vltower.cli import main
from vltower.report import PROVENANCES, Claim, Report


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_public_names_resolve():
    import vltower

    missing = [name for name in vltower.__all__ if not hasattr(vltower, name)]
    assert not missing


def test_norm_command(capsys):
    rc, out, _ = run(capsys, ["norm", "--s", "1-b+b^2", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    values = {c["id"]: c["data"] for c in doc["claims"]}
    assert values["norm.value"] == {"norm": 12, "p": 2, "v": 3}


def test_norm_trivial_and_derived_examples(capsys):
    rc, out, _ = run(capsys, ["norm", "--s", "1", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["claims"][0]["data"]["norm"] == 1
    rc, out, _ = run(capsys, ["norm", "--s", "1-b^3+b^4", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["claims"][0]["data"]["norm"] == 87


def test_parse_error_is_usage_exit(capsys):
    rc, _, err = run(capsys, ["norm", "--s", "1++b"])
    assert rc == 1
    assert "error" in err


def test_not_in_s_is_usage_exit(capsys):
    rc, _, err = run(capsys, ["phi-check", "--s", "2b", "--k", "0"])
    assert rc == 1


def test_parity_verify_small(capsys):
    rc, out, _ = run(capsys, ["parity-verify", "--max-span", "2", "--max-coeff", "2", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["claims"][0]["data"]["counterexamples"] == []


def test_phi_check(capsys):
    rc, out, _ = run(capsys, ["phi-check", "--s", "1-b+b^2", "--k", "0", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    by_id = {c["id"]: c for c in doc["claims"]}
    assert by_id["phi.build"]["data"]["target_k"] == 2
    assert by_id["phi.two_connected"]["data"]["h2_valuation"] == 2


def test_tower_with_warning(capsys):
    rc, out, _ = run(capsys, ["tower", "--edges", "b", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    ids = [c["id"] for c in doc["claims"]]
    assert "tower.warning" in ids


def test_lcs_depth_five(capsys):
    rc, out, _ = run(capsys, ["lcs", "--model", "H", "--depth", "5", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["claims"][0]["data"]["indices"] == ["1", "3", "9", "27", "81"]


def test_lcs_transfinite(capsys):
    rc, out, _ = run(
        capsys,
        ["lcs", "--model", "Gamma3", "--depth", "8", "--gamma-omega", "--transfinite", "--format", "json"],
    )
    assert rc == 0
    doc = json.loads(out)
    by_id = {c["id"]: c for c in doc["claims"]}
    assert by_id["lcs.transfinite"]["data"]["orders"] == [8, 4, 2, 1]


def test_witness_pipeline(capsys):
    rc, out, _ = run(
        capsys,
        ["witness", "--edges", "1-b+b^2", "--J", "4", "--samples", "1/2,3/4,5/8", "--format", "json"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True


@pytest.mark.parametrize(
    "option",
    [["--J", str(series.WITNESS_J_BOUND + 1)], ["--J", "-1"], ["--samples", ",".join(["1/2"] * 57)]],
)
def test_witness_checks_its_bounds_before_the_tower(monkeypatch, capsys, option):
    def no_tower(edges):
        raise AssertionError("the tower was built before the bounds were checked")

    monkeypatch.setattr(cli, "tower_build", no_tower)
    rc, out, err = run(capsys, ["witness", "--edges", "b^2400000", *option])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_witness_insufficient_tower(capsys):
    rc, _, err = run(capsys, ["witness", "--edges", "b", "--J", "4"])
    assert rc == 1
    assert "even-norm" in err


def test_cohn_command(capsys):
    rc, out, _ = run(
        capsys,
        ["cohn", "--m", "3", "--trials", "20", "--n", "2", "--deg", "2", "--seed", "5", "--format", "json"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["seed"] == 5
    assert doc["pass"] is True


@pytest.mark.parametrize(
    "extra",
    [["--trials", "5", "--coherence", "0"], ["--trials", "0", "--coherence", "2"]],
)
def test_cohn_m_zero_is_trivially_unique(capsys, extra):
    rc, out, err = run(capsys, ["cohn", "--m", "0", *extra, "--format", "json"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["pass"] is True


def test_lcs_transfinite_bound_below_k(capsys):
    rc, out, _ = run(
        capsys,
        ["lcs", "--model", "Gamma3", "--depth", "3", "--transfinite", "1", "--format", "json"],
    )
    assert rc == 0
    by_id = {c["id"]: c for c in json.loads(out)["claims"]}
    assert by_id["lcs.transfinite"]["data"] == {"orders": [8, 4], "terminates_at": None}


def test_json_output_deterministic(capsys):
    rc1, out1, _ = run(capsys, ["witness", "--edges", "1-b+b^2", "--J", "3", "--samples", "8", "--seed", "7", "--format", "json"])
    rc2, out2, _ = run(capsys, ["witness", "--edges", "1-b+b^2", "--J", "3", "--samples", "8", "--seed", "7", "--format", "json"])
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical for identical inputs and seed


def _rerun_argv(report):
    """The argv that a report's command, inputs and seed spell: a dest is its
    flag, a list its comma-joined items, and the default samples are left out."""
    argv = [report["command"]]
    for key, value in report["inputs"].items():
        if value is False or value is None or (key, value) == ("samples", "default"):
            continue
        flag = "--" + key.replace("_", "-")
        argv.append(flag if value is True else f"{flag}={','.join(value) if isinstance(value, list) else value}")
    if report["seed"] is not None:
        argv.append(f"--seed={report['seed']}")
    return argv


@pytest.mark.parametrize(
    "argv", [entry.argv for entry in tagged("rerun")] + [entry.argv for entry in tagged("readme") if "rerun" not in entry.tags]
)
def test_a_report_reruns_from_its_inputs(capsys, argv):
    # every option that changes the claims is echoed: the argv rebuilt from
    # the inputs gives the same report
    rc, out, _ = run(capsys, argv + ["--format", "json"])
    assert rc == 0
    assert run(capsys, _rerun_argv(json.loads(out)) + ["--format", "json"])[1] == out


def test_out_writes_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run(capsys, ["norm", "--s", "b", "--out", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["command"] == "norm"
    # text mode still printed a projection of the same document
    assert "[norm]" in out


def test_text_is_projection_of_json(capsys):
    rc, text, _ = run(capsys, ["lcs", "--model", "G2", "--depth", "3"])
    rc2, js, _ = run(capsys, ["lcs", "--model", "G2", "--depth", "3", "--format", "json"])
    doc = json.loads(js)
    for claim in doc["claims"]:
        assert claim["id"] in text


def test_every_claim_is_labeled(capsys):
    for entry in tagged("readme"):
        rc, out, _ = run(capsys, entry.argv + ["--format", "json"])
        assert rc == 0, entry.argv
        assert all(claim["provenance"] in PROVENANCES for claim in json.loads(out)["claims"]), entry.argv


def test_unlabeled_claim_rejected():
    with pytest.raises(ValueError):
        Claim("x", "y", "guessed", True)


def test_usage_error_exit_code(capsys):
    rc = main(["norm"])  # missing --s
    capsys.readouterr()
    assert rc == 1


def test_report_pass_reflects_claims():
    rep = Report("demo", {})
    rep.add("a", "ok", "verified", True)
    assert rep.passed
    rep.add("b", "bad", "derived", False)
    assert not rep.passed


def _no_power_of_u(i):
    raise AssertionError("a power of U was built")


INVALID_ARGVS = [entry.argv for entry in tagged("error-line")]


@pytest.mark.parametrize("argv", INVALID_ARGVS)
def test_invalid_input_is_one_error_line(capsys, monkeypatch, argv):
    if argv[:1] == ["parity-verify"]:
        # a window's bounds are checked before any power of U is built
        monkeypatch.setattr(quadratic, "_u_pair", _no_power_of_u)
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _declared():
    """(command, option, action) for every option of build_parser() but --help."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest != "help":
                yield name, action.option_strings[0], action


# the options that take a string, a choice or no value: nothing to count
UNCOUNTED = {"--s", "--model", "--out", "--format", "--checks", "--gamma-omega"}
BOUNDS = {(name, option): action.type.bounds for name, option, action in _declared() if option not in UNCOUNTED}


def test_every_int_or_list_option_declares_one_range():
    # a new option without a range fails here
    for name, option, action in _declared():
        if option in UNCOUNTED:
            assert action.type is None and action.nargs != "*", (name, option)
        else:
            lo, hi = action.type.bounds
            assert lo < hi and action.type.count in (int, cli._items, cli._samples), (name, option)
    assert ("witness", "--J") in BOUNDS and ("tower", "--edges") in BOUNDS


# the required options of each command, at small values
MINIMAL = {
    "norm": ["--s", "b"],
    "parity-verify": ["--max-span", "1", "--max-coeff", "1"],
    "phi-check": ["--s", "b"],
    "tower": ["--edges", "b"],
    "lcs": ["--model", "H"],
    "witness": ["--edges", "1-b+b^2"],
    "cohn": ["--m", "1"],
}


def _just_past_the_bounds():
    for name, option, action in _declared():
        if option in UNCOUNTED:
            continue
        for n in action.type.bounds[0] - 1, action.type.bounds[1] + 1:
            if action.type.count is int and not math.isinf(n):
                yield pytest.param([name, *MINIMAL[name], option, str(n)], id=f"{name} {option} {n}")
            elif action.type.count is not int and n >= 1:  # n comma-separated items
                yield pytest.param([name, *MINIMAL[name], option, "," * (n - 1)], id=f"{name} {option} {n} items")


@pytest.mark.parametrize("argv", _just_past_the_bounds())
def test_each_option_just_past_its_bound_is_one_error_line(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (rc, out) == (1, "")
    assert err.startswith("error: argument ") and err.count("\n") == 1


def _readme_range(cell):
    """(lo, hi) from a bound cell of the README table: "A to B", "A or more" or "any"."""
    if cell.startswith("any"):
        return -math.inf, math.inf
    lo, hi = re.match(r"(-?[\d,]+) (?:to ([\d,]+)|or more)", cell).groups()
    return int(lo.replace(",", "")), math.inf if hi is None else int(hi.replace(",", ""))


def test_readme_bound_table_is_the_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `([\w-]+)` \| `(--[\w-]+)` \| ([^|]+) \|", readme, re.M)
    options = {(name, option) for name, option, _ in _declared()}
    assert {(name, option) for name, option, _ in rows} <= options
    assert {(name, option): _readme_range(cell) for name, option, cell in rows if option not in UNCOUNTED} == BOUNDS
    # the rules on literals and windows, which no option declares
    for bound in quadratic.NORM_GAP_BOUND, groups.LEVEL_MAP_BOUND, quadratic.WINDOW_SIZE_BOUND, groups.TOWER_LEVEL_BOUND:
        assert f"{bound:,}" in readme


@pytest.mark.parametrize("argv", ["--m 150000 --trials 1000000", "--m 4 --n 250 --coherence 750000"])
def test_cohn_past_its_work_bound_is_one_error_line_before_any_work(monkeypatch, capsys, argv):
    # each option within its own bound, together days of lifts
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cohn, "delta_nilpotency_degree", no_work)
    monkeypatch.setattr(cohn, "random_aug_invertible", no_work)
    start = time.perf_counter()
    rc, out, err = run(capsys, ["cohn", *argv.split()])
    assert time.perf_counter() - start < 1
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "past the bound of 60 s of a cohn run" in err


def test_cohn_work_bound_accepts_each_single_bound_and_every_listed_run():
    # each option at its own bound with the others at their defaults and
    # --m 4, as in the README's rows (a later --m wins), every cohn entry of
    # the command table and every cohn request of the benchmark
    at_the_bounds = [
        ["cohn", "--m", "4", option, str(action.type.bounds[1])]
        for name, option, action in _declared()
        if name == "cohn" and option not in UNCOUNTED and not math.isinf(action.type.bounds[1])
    ]
    listed = [entry.argv for entry in TABLE if entry.argv[:1] == ["cohn"] and entry.code == 0]
    block, once = ab.requests_of("cohn-lift", 1, None, None)  # every seed has the same m, n and counts
    benchmark = block + once
    assert len(at_the_bounds) == 4 and listed and benchmark
    parser = cli.build_parser()
    for argv in at_the_bounds + listed + benchmark:
        args = parser.parse_args(argv)
        cohn.require_work_bound(args.m, args.n, args.trials, args.coherence)


def test_model_prefix_is_case_insensitive(capsys):
    # H, G2, Gamma0 and Gamma3 are pinned by tests/test_golden.py
    rc, out, _ = run(capsys, ["lcs", "--model", "gamma3", "--depth", "3", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["pass"] is True


def _cli_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_stdout_pipe_exits_quietly():
    # about 180 KiB of JSON: more than a pipe buffer holds, so the writer
    # is still printing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "vltower.cli", "lcs", "--model", "G2", "--depth", "600", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    )
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


def test_witness_closed_stdout_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "vltower.cli", "witness", "--edges", "1-b+b^2", "--J", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    )
    # closed before the command prints anything, so its first flush hits EPIPE
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


@pytest.mark.parametrize("edges", ["2b", "b"])
def test_witness_invalid_input_is_one_error_line(edges):
    # 2b is not in S; b has odd norm, so the tower cannot reach the samples
    proc = subprocess.run(
        [sys.executable, "-m", "vltower.cli", "witness", "--edges", edges, "--J", "5"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_cli_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_norm_of_huge_b_power_is_immediate(capsys):
    # det U = -1, so |b^f| = (-1)^f without building U^f (f about 2^66 here)
    rc, out, _ = run(capsys, ["norm", "--s", "b^99999999999999999999", "--format", "json"])
    assert rc == 0
    values = {c["id"]: c["data"] for c in json.loads(out)["claims"]}
    assert values["norm.value"] == {"norm": -1, "p": 0, "v": -1}


def test_tower_full_checks_build_a_power_s_twice_per_edge(capsys):
    # relator_defect builds a^s and a^(3s) in one walk; phi_build and the
    # second-homology certificate reuse a^s instead of building it again.
    # Counted by code object, so a caller holding its own reference to
    # a_power_s counts too.
    code = groups.a_power_s.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(count)
    try:
        rc = main(["tower", "--edges", "1-b+b^2,b,1-b+b^2", "--checks", "full"])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert rc == 0
    assert calls <= 3


DIGITS = "0123456789"
digit_strings = st.one_of(
    st.text(DIGITS, min_size=1, max_size=6),
    st.builds(str.__mul__, st.sampled_from(DIGITS), st.integers(1, 5000)),
)
# Token soup with at most three digits in a row, plus exponents past the
# 4,300-digit limit.  A b-exponent is a work bound like --J: U^e has entries
# of about e/2 digits, so a level map for b^(10^6) takes tens of seconds.
literals = st.one_of(
    st.lists(st.sampled_from(list(DIGITS + "b^*+- \tx,") + ["b^-3", "b ^ - 4", "3*b^2", "1-b+b^2"]), max_size=8)
    .map("".join)
    .filter(lambda text: not re.search(r"\d{4}", text)),
    st.sampled_from(["1-b+b^2", "b", "2b-b^3", "b^-2+b^-1-b^300", "-2-2b^147+5b^227", "2b", "1-b"]),
    digit_strings,
    st.builds("b^{}".format, st.text(DIGITS, min_size=4301, max_size=5000)),
)
dyadics = st.builds("{}/{}".format, st.integers(-9, 9), st.sampled_from(["1", "2", "3", "8", "1024", "0"]))
samples = st.one_of(
    digit_strings,
    st.just(str(series.DEFAULT_SAMPLE_COUNT + 1)),
    st.lists(st.one_of(dyadics, literals), min_size=1, max_size=3).map(",".join),
)
# K is the length of the transfinite chain, so it is a loop bound too.
models = st.one_of(
    st.sampled_from(["H", "G2", "Gamma0", "gamma3", "Gamma12", "Gamma-1", "Gamma 2", "Gammax", ""]),
    st.builds("Gamma{}".format, st.text(DIGITS, min_size=4301, max_size=5000)),
    digit_strings,
    literals,
)


def _command(name, required, optional):
    """argv for one subcommand: every required flag, each optional flag drawn or left out."""
    return st.builds(
        lambda flags, fmt: [name, *[f"--{k}={v}" for k, v in flags.items()], "--format", fmt],
        st.fixed_dictionaries(required, optional=optional),
        st.sampled_from(["json", "text"]),
    )


small = st.integers(-2, 3)


def _near(name, option, draws=small):
    """draws, or a value just past a finite end of the option's declared range"""
    ends = [n for n in (BOUNDS[name, option][0] - 1, BOUNDS[name, option][1] + 1) if not math.isinf(n)]
    return st.one_of(draws, st.sampled_from(ends))


argvs = st.one_of(
    _command("norm", {"s": literals}, {}),
    _command(
        "parity-verify",
        {
            "max-span": _near("parity-verify", "--max-span", st.integers(-1, 3)),
            "max-coeff": _near("parity-verify", "--max-coeff", st.integers(-1, 4)),
        },
        {},
    ),
    _command("phi-check", {"s": literals}, {"k": _near("phi-check", "--k", st.integers(-2, 12))}),
    _command("tower", {"edges": literals}, {"checks": st.sampled_from(["basic", "full"])}),
    st.builds(
        lambda argv, omega: argv + ["--gamma-omega"] * omega,
        _command(
            "lcs",
            {"model": models},
            {
                "depth": _near("lcs", "--depth", st.integers(-2, 12)),
                "transfinite": _near("lcs", "--transfinite", st.integers(-2, 12)),
            },
        ),
        st.booleans(),
    ),
    _command(
        "witness",
        {"edges": literals},
        {"J": _near("witness", "--J", st.integers(-2, 10)), "samples": samples, "seed": small},
    ),
    _command(
        "cohn",
        {"m": _near("cohn", "--m", st.integers(-1, 8))},
        {
            "n": _near("cohn", "--n", st.integers(-1, 4)),
            "trials": _near("cohn", "--trials", st.integers(-1, 3)),
            "deg": _near("cohn", "--deg"),
            "coherence": _near("cohn", "--coherence"),
            "seed": small,
        },
    ),
)


@given(argvs)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_valid_argv_exits_cleanly(capsys, argv):
    capsys.readouterr()
    rc, out, err = run(capsys, argv)
    assert rc in (0, 1, 2)
    if rc == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


PARSER = cli.build_parser()


def _outcome(parse, argv):
    """The namespace a parse gives, as a dict, or the text of its error."""
    try:
        return vars(parse(argv))
    except cli.PreconditionError as exc:
        return str(exc)


def _walk(argv):
    """argparse's own walk: the top-level parser scans argv and its
    subparsers action hands the rest to the command's parser; then the
    extras are rejected as parse_args does."""
    namespace, extras = argparse.ArgumentParser.parse_known_args(PARSER, argv)
    if extras:
        PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return namespace


def _assert_direct_matches_walk(argv):
    assert _outcome(PARSER.parse_args, argv) == _outcome(_walk, argv)


@pytest.mark.parametrize("argv", INVALID_ARGVS)
def test_direct_parse_matches_argparse_walk_on_invalid_input(argv):
    _assert_direct_matches_walk(argv)


@given(st.one_of(argvs, st.builds(lambda argv, stray: argv + stray, argvs, st.lists(literals, max_size=2))))
@settings(max_examples=150, deadline=None)
def test_direct_parse_matches_argparse_walk(argv):
    _assert_direct_matches_walk(argv)


def test_direct_parse_reads_sys_argv_and_fills_the_given_namespace(monkeypatch):
    argv = ["cohn", "--m", "3", "--seed", "4"]
    monkeypatch.setattr(sys, "argv", ["vltower", *argv])
    assert vars(PARSER.parse_args()) == vars(_walk(argv))
    # a caller's namespace is filled in place, and the command's defaults replace what it held
    given = argparse.Namespace(cmd="norm", trials=9, extra=1)
    walked, _ = argparse.ArgumentParser.parse_known_args(PARSER, argv, argparse.Namespace(**vars(given)))
    assert PARSER.parse_args(argv, given) is given
    assert vars(given) == vars(walked)


@pytest.mark.parametrize("argv,usage", [(["--help"], "usage: vltower "), (["cohn", "--help"], "usage: vltower cohn ")])
def test_help_exits_zero_with_usage_on_stdout(capsys, argv, usage):
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    assert out.startswith(usage)
