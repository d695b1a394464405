"""vltower benchmark: one closed-loop client over a seeded mix of CLI requests.

Run from the repository root:

    python3 bench/run.py --workload tower-witness --seed 1 --seconds 30 --trace 0

A single process and thread issues each request only after the previous one
has finished: the argv list is parsed with ``vltower.cli.build_parser()``,
``args.fn(args)`` builds the report and ``report.to_json()`` renders it; the
request's latency covers exactly those three steps.  Every report is then
checked against the benchmark's own values (check.py).  The run issues the
workload's requests (workloads.py) in rounds until ``--seconds`` have passed.

``--trace 0`` first issues every request once, untimed, in a warm-up pass
that also carries the workload's warm-up-only requests, and then times the
rounds; it prints the end-to-end metrics.  Timing metrics are scaled to a
reference machine speed measured during the run (speed.py); the raw
wall-clock values are printed in the provenance line.  ``--trace 1`` runs
all of the workload's requests untraced (``MIN_ROUNDS`` rounds) and then once
traced (tracer.py) and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is the JSON result.  NOTES.md
lists the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import workloads
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

SETUP_RUNS = 15
MIN_ROUNDS = 3
SETUP_CODE = (
    "import importlib, pkgutil, vltower\n"
    "for m in pkgutil.iter_modules(vltower.__path__):\n"
    "    importlib.import_module('vltower.' + m.name)\n"
    "vltower.cli.build_parser()\n"
)

MODULES = ("laurent", "quadratic", "localization", "groups", "series", "homology", "cohn", "report", "cli")
COMMANDS = ("norm", "parity-verify", "phi-check", "tower", "lcs", "witness", "cohn")
WITNESS = "series.witness_not_transfinitely_nilpotent"
J_SPLIT = 40  # witness requests with J <= 40 are the low bucket
N_SPLIT = 5  # lifts of matrices with n <= 5 are the low bucket


@dataclass
class Tally:
    """Per distinct request: its latency in every round, and its typical latency."""

    requests: list[list[str]]
    samples: list[list[float]]
    attempted: int = 0
    failed: int = 0

    @property
    def typical(self) -> list[float]:
        """Each request's median latency over the rounds."""
        return [statistics.median(s) for s in self.samples]

    @property
    def busy(self) -> float:
        return sum(self.typical)

    @property
    def units(self) -> int:
        return sum(check.units(argv) for argv in self.requests)

    def by_command(self, cmd: str) -> list[float]:
        return [t for argv, t in zip(self.requests, self.typical) if argv[0] == cmd]


def execute(parser, argv: list[str]) -> tuple[float, str | None, str | None]:
    """One request from parse to finished JSON: (seconds, JSON text, error)."""
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        text = args.fn(args).to_json()
    except Exception as exc:  # a request that raises is counted as failed, not fatal
        return time.perf_counter() - t0, None, repr(exc)
    return time.perf_counter() - t0, text, None


def run_rounds(parser, requests, seconds: float, min_rounds: int, tracer=None, between=None) -> Tally:
    """Closed loop: issue every request in order, round after round, until
    `seconds` have passed and at least `min_rounds` rounds are done.

    A request's latency is its median over the rounds: the rounds are spread
    over the run, so bursts of a shared machine running faster or slower than
    usual, each shorter than half the run, do not reach the reported numbers.
    `between`, if given, is called after each request, outside its timed
    span.
    """
    tally = Tally(requests, [[] for _ in requests])
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for i, argv in enumerate(requests):
            if tracer is None:
                dt, text, error = execute(parser, argv)
            else:
                tracer.current_request = i
                with tracer.span("bench.request"):
                    dt, text, error = execute(parser, argv)
            reason = error or check.check(argv, json.loads(text))
            if reason:
                tally.failed += 1
                print(f"failed: {reason}: {' '.join(argv)[:300]}", file=sys.stderr)
            tally.attempted += 1
            tally.samples[i].append(dt)
            if between is not None:
                between()
        rounds += 1
    return tally


class SetupTimer:
    """Wall times of fresh interpreters importing every module and building
    the parser.  They are spawned one at a time between requests, spread
    evenly over the timed rounds, so their median covers the whole run."""

    def __init__(self, seconds: float) -> None:
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spawn()  # compiles bytecode on a fresh checkout
        self.times: list[float] = []
        self.every = seconds / SETUP_RUNS
        self.last = time.perf_counter()

    def spawn(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        self.last = time.perf_counter()
        return self.last - t0

    def maybe_spawn(self) -> None:
        if len(self.times) < SETUP_RUNS and time.perf_counter() - self.last >= self.every:
            self.times.append(self.spawn())

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.times.append(self.spawn())
        return statistics.median(self.times)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(parser, requests, seconds: float, once=()) -> tuple[list[Tally], dict, dict]:
    """An untimed warm-up pass over `once` and `requests`, then the timed
    rounds, with the set-up spawns and the speed probe between requests.
    Every execution is checked and counted; the metrics come from the timed
    rounds, and peak RSS covers the warm-up pass too.

    Returns the tallies, the metrics at the reference speed (speed.py) and
    the raw wall-clock values with the speed factor."""
    probe = SpeedProbe()
    warmup = run_rounds(parser, [*once, *requests], 0, 1, between=probe.maybe_sample)
    setup = SetupTimer(seconds)

    def between() -> None:
        probe.maybe_sample()
        setup.maybe_spawn()

    tally = run_rounds(parser, requests, seconds, MIN_ROUNDS, between=between)
    raw = {
        "latency_p50_s": statistics.median(tally.typical),
        "latency_p90_s": p90(tally.typical),
        "units_per_s": tally.units / tally.busy,
        "setup_s": setup.median(),
    }
    f = probe.factor
    metrics = {
        "latency_p50_s": (raw["latency_p50_s"] * f, "s"),
        "latency_p90_s": (raw["latency_p90_s"] * f, "s"),
        "units_per_s": (raw["units_per_s"] / f, "1/s"),
        "setup_s": (raw["setup_s"] * f, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    speed = {"speed_factor": f, "kernel_samples": len(probe.samples), "raw": raw}
    return [tally, warmup], metrics, speed


def layer_metrics(tracer, plain: Tally, traced: Tally) -> dict:
    calls, self_s = tracer.aggregate()
    calls.update(tracer.invocations)  # a generator is called once, however often it resumes

    def total(table, prefixes):
        return sum(v for k, v in table.items() if k.startswith(prefixes))

    def inclusive(idx):
        return tracer.end[idx] - tracer.start[idx]

    m = {}
    for mod in MODULES:
        m[f"{mod}.calls"] = (total(calls, f"{mod}."), "count")
        m[f"{mod}.self_s"] = (total(self_s, f"{mod}."), "s")
    for name in ("laurent.enumerate_S", "quadratic.norm", "quadratic.u_pow", "groups.gamma_mul",
                 "groups.gamma_make", "groups.conj_by_b_pow", "groups.phi_build", "groups.phi_apply",
                 "series.lcs_step", "homology.two_connected_certificate", "cohn.lift_unique"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("laurent.enumerate_S", "laurent.parse_laurent", "quadratic.norm", "quadratic.predicted_parity",
                 "quadratic.intersect_chain_probe", "groups.gamma_mul", "groups.conj_by_b_pow",
                 "groups.a_power_s", "groups.phi_build", "groups.tower_build", WITNESS, "series.gamma_omega",
                 "series.lcs_step", "homology.two_connected_certificate", "homology.colim_h2",
                 "cohn.lift_unique", "cohn.random_aug_invertible"):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m["laurent.enumerate_S.yielded"] = (tracer.yielded["laurent.enumerate_S"], "count")
    m["quadratic.u_pow.steps"] = (tracer.steps["quadratic.u_pow"], "count")
    m["groups.conj_by_b_pow.steps"] = (tracer.steps["groups.conj_by_b_pow"], "count")
    m["quadratic.Lattice.self_s"] = (total(self_s, "quadratic.Lattice."), "s")
    m["localization.dyadic.calls"] = (total(calls, ("localization.dyadic_", "localization.parse_dyadic")), "count")
    m["localization.dyadic.self_s"] = (total(self_s, ("localization.dyadic_", "localization.parse_dyadic")), "s")
    m["report.to_json.self_s"] = (self_s.get("report.Report.to_json", 0.0), "s")

    witness = tracer.notes[WITNESS]  # (span, (J, links))
    links = sum(n for _, (_, n) in witness)
    m["series.witness.links"] = (links, "count")
    inner = tracer.nested_count(WITNESS, "groups.gamma_mul")
    m["series.witness.gamma_mul_per_link"] = (inner / links if links else 0.0, "ratio")
    for bucket, low in (("J_lo", True), ("J_hi", False)):
        chosen = [(idx, n) for idx, (j, n) in witness if (j <= J_SPLIT) == low]
        n = sum(n for _, n in chosen)
        m[f"series.witness.s_per_link.{bucket}"] = (sum(inclusive(i) for i, _ in chosen) / n if n else 0.0, "s")
    lifts = tracer.notes["cohn.lift_unique"]  # (span, matrix size)
    for bucket, low in (("n_lo", True), ("n_hi", False)):
        durations = [inclusive(idx) for idx, n in lifts if (n <= N_SPLIT) == low]
        m[f"cohn.lift_unique.s_per_call.{bucket}"] = (statistics.fmean(durations) if durations else 0.0, "s")

    for cmd in COMMANDS:
        lat = plain.by_command(cmd)
        m[f"cli.{cmd}.latency_p50_s"] = (statistics.median(lat) if lat else 0.0, "s")
    m["trace_overhead_frac"] = (traced.busy / plain.busy - 1, "frac")
    return m


def traced_run(package, build_parser, block, out_path: Path) -> tuple[list[Tally], dict]:
    from tracer import Tracer

    plain = run_rounds(build_parser(), block, 0, MIN_ROUNDS)
    tracer = Tracer()
    tracer.install(package)
    try:
        traced = run_rounds(build_parser(), block, 0, 1, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, plain, traced)
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path, block)
    return [plain, traced], metrics


def git_commit() -> str | None:
    """The checked-out commit, read from .git inside the repository only."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int, block, once) -> dict:
    inputs = {"block": block, "once": once}
    digest = hashlib.sha256(json.dumps(inputs, separators=(",", ":")).encode()).hexdigest()
    return {
        "workload": workload,
        "seed": seed,
        "argv_sha256": digest,
        "argv_generated": len(block) + len(once),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def emit(info: dict, tallies: list[Tally], metrics: dict) -> None:
    """Readable lines, then the JSON result as the last line of standard output."""
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        extra = f"  (samples={len(tallies[0].samples)}, attempted={attempted})" if name.startswith("latency_") else ""
        print(f"metric {name} = {value:.6g} {unit}{extra}")
    print(f"metric failed_frac = {failed / attempted:.6g} frac  (failed={failed}, attempted={attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "vltower").is_dir():
        print(f"error: no vltower sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import vltower
    from vltower.cli import build_parser

    block, once = workloads.generate(args.workload, args.seed)
    info = provenance(args.workload, args.seed, block, once)
    if args.trace:
        info["spans"] = str((SPAN_DIR / f"spans-{args.workload}.bin").relative_to(ROOT))
        tallies, metrics = traced_run(vltower, build_parser, [*once, *block], ROOT / info["spans"])
    else:
        tallies, metrics, info["speed"] = end_to_end(build_parser(), block, args.seconds, once)
    emit(info, tallies, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
