#!/usr/bin/env python3
"""End-to-end demonstration run: build a tower, certify its edges, and show
the non-transfinite-nilpotence witness with a per-sample breakdown."""

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vltower import homology, series
from vltower.errors import TheoremViolationError, VltowerError
from vltower.groups import tower_build
from vltower.laurent import parse_laurent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--edges", default="1-b+b^2,1-b+b^2,1-b+b^2")
    ap.add_argument("--J", type=int, default=20)
    ap.add_argument("--max-log-den", type=int, default=10, choices=range(1, 11))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    edges = [parse_laurent(t) for t in args.edges.split(",")]
    tower = tower_build(edges)
    print(f"tower levels: {list(tower.levels)}, norms: {[data.norm for data in tower.phis]}")
    for i, data in enumerate(tower.phis):
        print(
            f"  edge {i}: s = {data.s}, r = {data.r}, "
            f"H2 valuation {homology.two_connected_certificate(data)} -> 2-connected"
        )
    h2 = homology.colim_h2(tower)
    print(f"colimit H2 fold: {h2.value}")
    print(f"five-term: {homology.five_term_report(h2).conclusion or '(withheld)'}")

    samples = [c for c in series.default_center_samples(seed=args.seed) if c.k <= args.max_log_den]
    rep = series.witness_not_transfinitely_nilpotent(tower, args.J, samples=samples)
    print(f"\nwitness over {len(rep.samples)} center samples, chains of length {args.J}:")
    by_depth: dict[int, int] = {}
    for s in rep.samples:
        by_depth[s.depth] = by_depth.get(s.depth, 0) + 1
        if not s.ok:
            print(f"  FAILED sample {s.value}")
    for depth in sorted(by_depth):
        print(f"  denominator 2^{depth:<2}: {by_depth[depth]} samples, all chains verified")
    print(f"\nwitness passed: {rep.passed}")
    return 0 if rep.passed else 2


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (say, `| head`); point stdout at the null
        # device so the flush at exit stays quiet, as `vltower` does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        code = 2
    except VltowerError as exc:
        # invalid input: one line and exit 1, as `vltower` gives
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)
