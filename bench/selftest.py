"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 bench/selftest.py

It runs a tiny mix (one small request per CLI command) through the end-to-end
and the traced paths and asserts that every metric BENCHMARK.json names is
printed with its unit, and that failed_frac is printed too.  It then feeds
the checker reports with a wrong parity ``checked`` count and a wrong norm
and asserts that both requests are counted as failed.  Exit code 0 means
every assertion held.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import check
import run

TINY = [
    ["norm", "--s=1-b+b^2"],
    ["parity-verify", "--max-span=2", "--max-coeff=1"],
    ["phi-check", "--s=1-b+b^2", "--k=2"],
    ["tower", "--edges=1-b+b^2,b,1-b+b^2", "--checks=full"],
    ["lcs", "--model=Gamma3", "--gamma-omega", "--transfinite"],
    ["witness", "--edges=1-b+b^2,1-b+b^2,1-b+b^2", "--J=5", "--samples=2", "--seed=0"],
    ["cohn", "--m=4", "--trials=3", "--n=3", "--deg=2", "--coherence=2", "--seed=0"],
]


def printed(tallies, metrics) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.emit({"selftest": True}, tallies, metrics)
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(lines: list[str], result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert set(result["metrics"]) == {m["name"] for m in spec}, set(result["metrics"]) ^ {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert any(line.startswith(f"metric {m['name']} = ") and line.split()[4] == m["unit"] for line in lines), m
    assert any(line.startswith("metric failed_frac = 0 frac") for line in lines), lines


class _Rendered:
    def __init__(self, text: str):
        self.text = text

    def to_json(self) -> str:
        return self.text


class _Corrupted:
    """Stands in for the parser: reports carry one more checked element and norm + 2."""

    def __init__(self, parser):
        self.parser = parser

    def parse_args(self, argv):
        args = self.parser.parse_args(argv)
        report = args.fn(args).to_dict()
        for claim in report["claims"]:
            if claim["id"] == "parity.exhaustive":
                claim["data"]["checked"] += 1
            if claim["id"] == "norm.value":
                claim["data"]["norm"] += 2
        args.fn = lambda _: _Rendered(json.dumps(report))
        return args


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    import vltower
    from vltower.cli import build_parser

    tallies, metrics, _ = run.end_to_end(build_parser(), TINY[1:], 0, TINY[:1])
    assert_metrics(*printed(tallies, metrics), spec["end_to_end"])

    tallies, metrics = run.traced_run(vltower, build_parser, TINY, run.SPAN_DIR / "spans-selftest.bin")
    assert_metrics(*printed(tallies, metrics), spec["per_layer"])
    for mod in run.MODULES:
        assert metrics[f"{mod}.calls"][0] > 0, mod

    bad = [["parity-verify", "--max-span=2", "--max-coeff=1"], ["norm", "--s=1-b+b^2"]]
    assert all(check.check(argv, json.loads(run.execute(build_parser(), argv)[1])) is None for argv in bad)
    tally = run.run_rounds(_Corrupted(build_parser()), bad, 0, 1)
    assert tally.failed == len(bad), tally
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
