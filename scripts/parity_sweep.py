#!/usr/bin/env python3
"""Sweep the parity formula over growing enumeration windows.

Prints one row per window: elements checked, even/odd norm split, number of
counterexamples (expected 0 everywhere), and wall time.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vltower.laurent import WINDOW_COEFF_BOUND
from vltower.quadratic import verify_parity_range


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-span", type=int, default=6)
    ap.add_argument("--max-coeff", type=int, default=3)
    args = ap.parse_args()
    # an empty sweep would print only the header, and a bound past the window
    # bound would fail part-way: one line and exit 1, as `vltower` gives
    if args.max_span < 0 or not 1 <= args.max_coeff <= WINDOW_COEFF_BOUND:
        print(
            f"error: need --max-span >= 0 and 1 <= --max-coeff <= {WINDOW_COEFF_BOUND}, "
            f"got {args.max_span} and {args.max_coeff}",
            file=sys.stderr,
        )
        return 1

    print(f"{'span':>4} {'coeff':>5} {'checked':>9} {'even':>8} {'odd':>8} {'bad':>4} {'sec':>6}")
    for span in range(0, args.max_span + 1):
        for coeff in range(1, args.max_coeff + 1):
            t0 = time.monotonic()
            rep = verify_parity_range(span, coeff)
            dt = time.monotonic() - t0
            print(
                f"{span:>4} {coeff:>5} {rep.checked:>9} {rep.even:>8} "
                f"{rep.checked - rep.even:>8} {len(rep.counterexamples):>4} {dt:>6.2f}"
            )
            if rep.counterexamples:
                print("counterexamples:", ", ".join(rep.counterexamples))
                return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
