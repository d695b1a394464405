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

from vltower.laurent import enumerate_S
from vltower.quadratic import norm, predicted_parity


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-span", type=int, default=6)
    ap.add_argument("--max-coeff", type=int, default=3)
    args = ap.parse_args()
    # an empty sweep would print only the header: one line and exit 1, as `vltower` gives
    if args.max_span < 0 or args.max_coeff < 1:
        print(
            f"error: need --max-span >= 0 and --max-coeff >= 1, "
            f"got {args.max_span} and {args.max_coeff}",
            file=sys.stderr,
        )
        return 1

    print(f"{'span':>4} {'coeff':>5} {'checked':>9} {'even':>8} {'odd':>8} {'bad':>4} {'sec':>6}")
    for span in range(0, args.max_span + 1):
        for coeff in range(1, args.max_coeff + 1):
            t0 = time.monotonic()
            checked = even = 0
            bad: list[str] = []
            for s in enumerate_S(span, coeff):
                parity = norm(s) % 2
                checked += 1
                even += parity == 0
                if predicted_parity(s) != parity:
                    bad.append(str(s))
            dt = time.monotonic() - t0
            print(
                f"{span:>4} {coeff:>5} {checked:>9} {even:>8} "
                f"{checked - even:>8} {len(bad):>4} {dt:>6.2f}"
            )
            if bad:
                print("counterexamples:", ", ".join(bad))
                return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
