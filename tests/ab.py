"""In-process A/B timing of two vltower source trees on one benchmark workload.

    python tests/ab.py PARENT_SRC CHILD_SRC --workload W --seed N [--rounds R] [--command C] [--limit L]

PARENT_SRC and CHILD_SRC are directories that hold a ``vltower`` package,
such as the ``src`` of two checkouts.  Each tree's ``vltower`` is imported
in turn, with every ``vltower*`` module popped from ``sys.modules`` between
the imports, so both trees live in one process; the modules that were
loaded before the run are put back when it ends.  The requests come from
``bench/workloads.generate``: the workload's warm-up-only requests and its
timed block (only ``--command`` requests if given, only the first
``--limit`` of the block if given).

Every request first runs once on each side, and ``Report.to_json()`` must
give the same bytes; otherwise the first argv that differs is printed and
the exit code is 1.  Then each of ``--rounds`` rounds runs every request of
the timed block on both sides back to back, the side that goes first
alternating from one request to the next and from one round to the next, so
a drift in the machine's speed reaches both sides alike.  A request's latency covers
parsing, the command and ``to_json()``, as in ``bench/run.py``, and is its
median over the rounds.  Printed per command and overall: p50, p90 and the
summed latency of each side, and the child's change.
"""

from __future__ import annotations

import argparse
import importlib
import shlex
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _vltower_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name.startswith("vltower")}


def load(src: str):
    """``build_parser`` of the vltower package under ``src``, imported afresh."""
    for name in _vltower_modules():
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        importlib.invalidate_caches()
        cli = importlib.import_module("vltower.cli")
    finally:
        sys.path.remove(src)
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"error: no vltower package under {src}")
    return cli.build_parser


def execute(parser, argv: list[str]) -> tuple[float, str]:
    """One request from parse to finished JSON: (seconds, JSON text or the error)."""
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        text = args.fn(args).to_json()
    except Exception as exc:  # a request that raises still has an output to compare
        text = repr(exc)
    return time.perf_counter() - t0, text


def p90(values: list[float]) -> float:
    """bench/run.py's 90th percentile; a single value is its own."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def requests_of(workload: str, seed: int, command: str | None, limit: int | None) -> tuple[list, list]:
    """The timed block and the warm-up-only requests."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    block, once = ([argv for argv in part if command in (None, argv[0])] for part in workloads.generate(workload, seed))
    return block[:limit], once


def first_difference(parsers, requests) -> list[str] | None:
    for argv in requests:
        outputs = {execute(parser, argv)[1] for parser in parsers}
        if len(outputs) > 1:
            return argv
    return None


def time_rounds(parsers, requests, rounds: int) -> list[list[float]]:
    """Per side, each request's median latency over the rounds."""
    samples = [[[] for _ in requests] for _ in parsers]
    for r in range(rounds):
        for i, argv in enumerate(requests):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            for side in order:
                samples[side][i].append(execute(parsers[side], argv)[0])
    return [[statistics.median(s) for s in side] for side in samples]


def summary(requests, typical) -> list[str]:
    lines = [f"{'command':<14}{'n':>5}" + "".join(f"{head:>28}" for head in ("p50 ms", "p90 ms", "sum ms"))]
    for cmd in sorted({argv[0] for argv in requests}) + ["all"]:
        picked = [i for i, argv in enumerate(requests) if cmd in ("all", argv[0])]
        cells = []
        for stat in (statistics.median, p90, sum):
            parent, child = (stat([side[i] for i in picked]) for side in typical)
            cells.append(f"{parent * 1e3:.3f} -> {child * 1e3:.3f} ({(child / parent - 1) * 100:+.1f}%)")
        lines.append(f"{cmd:<14}{len(picked):>5}" + "".join(f"{cell:>28}" for cell in cells))
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("child_src")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--command", default=None)
    ap.add_argument("--limit", type=int, default=None)
    args = ap.parse_args(argv)
    requests, once = requests_of(args.workload, args.seed, args.command, args.limit)
    if not requests:
        print("error: no requests", file=sys.stderr)
        return 1
    before = _vltower_modules()
    try:
        parsers = [load(src)() for src in (args.parent_src, args.child_src)]
        differs = first_difference(parsers, once + requests)
        if differs is not None:
            print(f"JSON differs: {shlex.join(differs)}")
            return 1
        print(f"identical JSON on {len(once) + len(requests)} requests; {args.rounds} rounds of {len(requests)}")
        typical = time_rounds(parsers, requests, args.rounds)
    finally:
        for name in _vltower_modules():
            del sys.modules[name]
        sys.modules.update(before)
    print("\n".join(summary(requests, typical)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
