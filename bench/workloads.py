"""Seeded request mixes: a workload seed becomes one block of CLI argv lists.

A workload's block follows the same stratified design for every seed (the
same number of requests of each kind, with size parameters on a fixed grid
plus a small jitter), so every seed gives the same cost profile.  The seed
picks the random content: the polynomials, the per-request seeds, the jitter
and the order inside the block.  Each block holds at least 100 distinct
requests, and a round over it stays short (1 to 3 seconds on a 2-vCPU Xeon
at 2.1 GHz), so a run holds many rounds.  Requests too slow for that (the
(6, 3) parity window, cohn trials with n = 6 and 7) are issued once, in the
warm-up pass before the timed rounds.  NOTES.md gives the reason for each
workload.
"""

from __future__ import annotations

import random

from check import format_poly, horner_norm



def _random_s(rng: random.Random, span: int, lo: int, max_coeff: int) -> dict[int, int]:
    """A random S-element (augmentation 1) supported on [lo, lo + span]."""
    coeffs = {lo + i: rng.randint(-max_coeff, max_coeff) for i in range(span + 1)}
    e = lo + rng.randint(0, span)
    coeffs[e] += 1 - sum(coeffs.values())
    return {e: c for e, c in coeffs.items() if c}


def _sparse_s(rng: random.Random, degree: int) -> dict[int, int]:
    """A three-term S-element of the given degree, such as 1 - b^d + b^(d+1)."""
    mid = rng.randint(1, degree - 1)
    a, b = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
    return {e: c for e, c in {0: a, mid: b, degree: 1 - a - b}.items() if c}


def _argv(cmd: str, *flags: str, **opts) -> list[str]:
    """CLI argv; values go after '=' because literals may start with '-'."""
    return [cmd, *(f"--{k.replace('_', '-')}={v}" for k, v in opts.items()), *flags]


def _even_s(rng: random.Random) -> dict[int, int]:
    while True:
        s = _random_s(rng, rng.randint(1, 4), rng.randint(-1, 1), 2)
        if horner_norm(s) % 2 == 0:
            return s


# (6, 3) is 59,710 elements built in memory: it raises peak RSS, and at about
# 5 s it would be most of a round, so it runs once, before the timed rounds.
_BIG_WINDOW = _argv("parity-verify", max_span=6, max_coeff=3)


def _parity_block(rng: random.Random) -> tuple[list[list[str]], list[list[str]]]:
    # Every window up to (6, 3) except (6, 3) itself.
    reqs = [
        _argv("parity-verify", max_span=span, max_coeff=coeff)
        for span in range(1, 7)
        for coeff in range(1, 4)
        if (span, coeff) != (6, 3)
    ]
    for i in range(200):
        s = _random_s(rng, 1 + i % 8, -3 + i // 8 % 7, 3)
        reqs.append(_argv("norm", s=format_poly(s)))
    return reqs, [_BIG_WINDOW]


def _tower_block(rng: random.Random) -> tuple[list[list[str]], list[list[str]]]:
    reqs = []
    for i in range(12):
        edges = [_even_s(rng) for _ in range(3 + i % 4)]
        reqs.append(_argv(
            "witness",
            edges=",".join(format_poly(s) for s in edges),
            J=22 + 5 * i,
            samples=(1, 2, 1)[i % 3],
            seed=rng.randrange(1 << 16),
        ))
    for i in range(20):
        edges = [_random_s(rng, rng.randint(1, 4), rng.randint(-2, 2), 2) for _ in range(8 + 32 * i // 19)]
        edges.append(_sparse_s(rng, 100 + 300 * i // 19 + rng.randint(0, 9)))
        rng.shuffle(edges)
        reqs.append(_argv("tower", edges=",".join(format_poly(s) for s in edges), checks="full"))
    # Many cheap phi-check requests put the median inside that class, away
    # from the boundary with the lcs requests just above it.
    for i in range(60):
        s = _random_s(rng, rng.randint(1, 5), rng.randint(-2, 2), 3)
        reqs.append(_argv("phi-check", s=format_poly(s), k=i % 31))
    for i in range(8):
        k = 2 + 5 * i + rng.randint(0, 4)
        reqs.append(_argv("lcs", "--gamma-omega", "--transfinite", model=f"Gamma{k}"))
    return reqs, []


def _cohn_block(rng: random.Random) -> tuple[list[list[str]], list[list[str]]]:
    # Each timed request is one lift (or one coherence check), so a request
    # takes at most a few milliseconds and a run samples it many times.  The
    # trial's matrix size is drawn uniformly from 1..n inside the program and
    # a lift costs about 7x more per size step, so the per-request costs fall
    # into one band per size: with n = 5 on most requests, the median falls in
    # the size-3 band and the 90th percentile in the size-5 band, whatever the
    # seed.  m and deg cycle over their whole grid.  Size bounds 6 and 7 would
    # put a 40 to 300 ms lift into a round at random, so those requests run
    # once, in the warm-up pass.
    design = [  # (n, requests, trials, coherence checks)
        (5, 1300, 1, 0),
        (4, 500, 1, 0),
        (4, 200, 0, 1),
    ]
    once_design = [(6, 8, 2, 1), (7, 2, 1, 1)]

    def requests(rows):
        reqs = []
        for n, count, trials, coherence in rows:
            for i in range(count):
                reqs.append(_argv(
                    "cohn",
                    m=4 + i % 13,
                    trials=trials,
                    n=n,
                    deg=2 + i % 5,
                    coherence=coherence,
                    seed=rng.randrange(1 << 16),
                ))
        return reqs

    return requests(design), requests(once_design)


# workload -> generator of (timed block, requests issued once in the warm-up pass)
WORKLOADS = {
    "parity-window": _parity_block,
    "tower-witness": _tower_block,
    "cohn-lift": _cohn_block,
}


def generate(workload: str, seed: int) -> tuple[list[list[str]], list[list[str]]]:
    """The workload's shuffled block of argv lists for this seed, and the
    requests it issues only once, in the warm-up pass."""
    rng = random.Random(f"{workload}:{seed}")
    block, once = WORKLOADS[workload](rng)
    rng.shuffle(block)
    return block, once
