"""Independent output checks for benchmark requests.

Nothing here imports vltower: Laurent literals are read by a parser of the
benchmark's own, norms come from a Horner reduction modulo x^2 - 3x - 1, and
window sizes come from a dynamic program over coefficient sums.  ``check``
compares a report (the parsed JSON of one request) against those values and
returns the reason for the first mismatch, or None when the report agrees.
"""

from __future__ import annotations

import re

_TERM = re.compile(r"([+-]?)(\d*)(b(?:\^(-?\d+))?)?")
_COHN_COUNTS = re.compile(r"(\d+) coherence checks, (\d+) failures")


def format_poly(coeffs: dict[int, int]) -> str:
    """Write {exponent: coefficient} as a literal such as ``2-b+3b^4``."""
    parts = []
    for e in sorted(coeffs):
        c = coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "b" if e == 1 else f"b^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts) or "0"


def parse_poly(text: str) -> dict[int, int]:
    """Read a literal written by format_poly back into {exponent: coefficient}."""
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, digits, bpart, exp = m.groups()
        if not (digits or bpart):
            raise ValueError(f"bad literal {text!r} at {pos}")
        c = int(digits) if digits else 1
        e = (int(exp) if exp else 1) if bpart else 0
        coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
        pos = m.end()
    return {e: c for e, c in coeffs.items() if c}


def horner_norm(coeffs: dict[int, int]) -> int:
    """det s(U) for U = [[0, 1], [1, 3]], from s mod x^2 - 3x - 1.

    Reducing x^-lo * s to alpha + beta*x gives det(alpha I + beta U) =
    alpha^2 + 3 alpha beta - beta^2; each factor of x contributes det U = -1.
    """
    lo, hi = min(coeffs), max(coeffs)
    alpha = beta = 0
    for e in range(hi, lo - 1, -1):
        alpha, beta = beta + coeffs.get(e, 0), alpha + 3 * beta
    n = alpha * alpha + 3 * alpha * beta - beta * beta
    return -n if lo % 2 else n


def v2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    return (n & -n).bit_length() - 1


def window_count(span: int, coeff: int) -> int:
    """Number of tuples (n_0, ..., n_span) in [-coeff, coeff] summing to 1."""
    ways = {0: 1}
    for _ in range(span + 1):
        nxt: dict[int, int] = {}
        for total, w in ways.items():
            for c in range(-coeff, coeff + 1):
                nxt[total + c] = nxt.get(total + c, 0) + w
        ways = nxt
    return ways.get(1, 0)


def _opt(argv: list[str], flag: str) -> str:
    prefix = flag + "="
    return next(a[len(prefix):] for a in argv if a.startswith(prefix))


def _claims(report: dict) -> dict[str, dict]:
    return {c["id"]: c for c in report["claims"]}


def check(argv: list[str], report: dict) -> str | None:
    """Reason the report disagrees with the benchmark's own values, or None."""
    try:
        return _check(argv, report)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"report lacks an expected field: {exc!r}"


def _check(argv: list[str], report: dict) -> str | None:
    if not report["pass"] or not all(c["pass"] for c in report["claims"]):
        return "a claim failed"
    cmd = argv[0]
    claims = _claims(report)
    if cmd == "norm":
        want = horner_norm(parse_poly(_opt(argv, "--s")))
        data = claims["norm.value"]["data"]
        if data["norm"] != want or data["v"] << data["p"] != want or data["v"] % 2 == 0:
            return f"norm {data['norm']} (p={data['p']}, v={data['v']}) != {want}"
    elif cmd == "parity-verify":
        want = window_count(int(_opt(argv, "--max-span")), int(_opt(argv, "--max-coeff")))
        data = claims["parity.exhaustive"]["data"]
        if data["checked"] != want or data["counterexamples"]:
            return f"checked {data['checked']} != {want} or counterexamples"
    elif cmd == "tower":
        norms = [horner_norm(parse_poly(e)) for e in _opt(argv, "--edges").split(",")]
        levels = [0]
        for n in norms:
            levels.append(levels[-1] + v2(n))
        data = claims["tower.built"]["data"]
        if data["norms"] != norms or data["levels"] != levels:
            return f"tower levels {data['levels']} != {levels}"
    elif cmd == "phi-check":
        n = horner_norm(parse_poly(_opt(argv, "--s")))
        k = int(_opt(argv, "--k"))
        if claims["phi.center"]["data"]["norm"] != n:
            return "phi center norm mismatch"
        if claims["phi.build"]["data"]["target_k"] != k + v2(n):
            return "phi target level mismatch"
    elif cmd == "lcs":
        depth = report["inputs"]["depth"]
        k = int(_opt(argv, "--model")[len("Gamma"):])
        if claims["lcs.chain"]["data"]["indices"] != [str(3**i) for i in range(depth)]:
            return "lcs module indices are not powers of 3"
        data = claims["lcs.transfinite"]["data"]
        if data["orders"] != [1 << (k - i) for i in range(k + 1)] or data["terminates_at"] != k:
            return "transfinite chain does not halve to 1 at j = k"
    elif cmd == "witness":
        if report["inputs"]["J"] != int(_opt(argv, "--J")):
            return "J not echoed"
        if claims["witness.chains"]["data"]["samples"] != int(_opt(argv, "--samples")):
            return "sample count not echoed"
    elif cmd == "cohn":
        data = claims["cohn.lifting"]
        m = _COHN_COUNTS.search(data["statement"])
        if data["data"]["failures"] != 0 or m is None or m.group(2) != "0":
            return "cohn lift or coherence failures"
        if int(m.group(1)) != int(_opt(argv, "--coherence")):
            return "coherence count not echoed"
    else:
        return f"no check for {cmd}"
    return None


def units(argv: list[str]) -> int:
    """Certified work in one request, in the unit its workload counts."""
    cmd = argv[0]
    if cmd == "norm":
        return 1
    if cmd == "parity-verify":
        return window_count(int(_opt(argv, "--max-span")), int(_opt(argv, "--max-coeff")))
    if cmd == "tower":
        return len(_opt(argv, "--edges").split(","))
    if cmd == "witness":
        edges = len(_opt(argv, "--edges").split(","))
        return int(_opt(argv, "--samples")) * int(_opt(argv, "--J")) + edges
    if cmd == "cohn":
        return int(_opt(argv, "--trials")) + int(_opt(argv, "--coherence"))
    return 0
