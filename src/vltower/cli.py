"""Command line interface: reproducible verification runs over every module.

Exit codes: 0 when all checks in the report pass, 1 on usage or input errors,
2 when a check fails or an exact computation contradicts a certified claim.
A request is parsed once, by its command's parser (see ``_Parser``).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from . import cohn, homology, series
from .errors import PreconditionError, TheoremViolationError, VltowerError
from .groups import Model, phi_build, tower_build
from .laurent import LaurentPoly, augmentation, parse_laurent
from .localization import parse_dyadic
from .quadratic import WINDOW_COEFF_BOUND, Q, ideal_index, norm_data, predicted_parity, verify_parity_range
from .report import Report

USAGE_EXIT = 1
VIOLATION_EXIT = 2
NO_WORK_BOUND = math.inf  # the bound of an option that sets no work, or whose work another check bounds


def _parse_edges(text: str) -> list[LaurentPoly]:
    edges = [parse_laurent(part) for part in text.split(",") if part.strip()]
    if not edges:
        raise PreconditionError(f"no edges in {text!r}")
    return edges


def _require_printable(*values: int, what: str = "a norm") -> None:
    """Reject a value with more digits than Python turns into text (4,300 by
    default), which the report could not print."""
    for n in values:
        try:
            str(n)
        except ValueError:
            raise PreconditionError(f"{what} of {n.bit_length()} bits has too many digits to print") from None


def cmd_norm(args) -> Report:
    s = parse_laurent(args.s)
    rep = Report("norm", {"s": str(s)})
    nd = norm_data(s)
    _require_printable(nd.norm)
    rep.add(
        "norm.value",
        f"|s| = {nd.norm} with 2-adic split (p, v) = ({nd.p}, {nd.v})",
        "verified",
        True,
        norm=nd.norm,
        p=nd.p,
        v=nd.v,
    )
    par = predicted_parity(s)
    rep.add(
        "norm.parity",
        f"coefficient formula predicts parity {par}; determinant parity is {nd.norm % 2}",
        "verified",
        par == nd.norm % 2,
        predicted=par,
        actual=nd.norm % 2,
    )
    return rep


def cmd_parity_verify(args) -> Report:
    rep = Report(
        "parity-verify",
        {"max_span": args.max_span, "max_coeff": args.max_coeff},
    )
    result = verify_parity_range(args.max_span, args.max_coeff)
    rep.add(
        "parity.exhaustive",
        f"checked {result.checked} S-elements, {result.failed} counterexamples",
        "verified",
        result.ok,
        checked=result.checked,
        counterexamples=list(result.counterexamples),
    )
    return rep


def cmd_phi_check(args) -> Report:
    s = parse_laurent(args.s)
    rep = Report("phi-check", {"s": str(s), "k": args.k})
    data = phi_build(s, args.k)
    _require_printable(data.norm)
    _require_printable(data.r, data.l, data.l_exact, what="a relator exponent")
    rep.add(
        "phi.build",
        f"level map built: source {data.source_k}, target {data.target_k}, "
        f"r = {data.r}, relators vanish",
        "verified",
        True,
        r=data.r,
        l=data.l,
        l_exact=data.l_exact,
        target_k=data.target_k,
    )
    rep.add(
        "phi.center",
        f"center generator maps to t^{data.norm}",
        "verified",
        True,
        norm=data.norm,
    )
    rep.add(
        "phi.source_congruence",
        f"historical source-level congruence {Q}r = l (consistency note only)",
        "derived",
        True,
        holds=data.source_congruence_ok,
    )
    # with b = 1 the quotient is Z/gcd(Q, augmentation(s)), and first
    # homology Z/Q (+) Z is multiplied by augmentation(s) on the Z/Q summand
    aug = augmentation(s)
    rep.add(
        "phi.normal_surjectivity",
        "quotient of target by the normal closure of the image collapses",
        "verified",
        math.gcd(Q, aug) == 1,
    )
    h2_valuation = homology.two_connected_certificate(data)
    rep.add(
        "phi.two_connected",
        f"first homology multiplier 1 mod {Q}; "
        f"second homology valuation {h2_valuation} = target level",
        "verified",
        (aug - 1) % Q == 0,
        h2_valuation=h2_valuation,
    )
    return rep


def cmd_tower(args) -> Report:
    edges = _parse_edges(args.edges)
    names = [str(e) for e in edges]
    rep = Report("tower", {"edges": names, "checks": args.checks})
    tower = tower_build(edges)
    _require_printable(*(data.norm for data in tower.phis))
    rep.add(
        "tower.built",
        f"levels {list(tower.levels)}",
        "verified",
        True,
        levels=list(tower.levels),
        norms=[data.norm for data in tower.phis],
    )
    if not tower.has_even_edge():
        rep.add(
            "tower.warning",
            "no even-norm edge; center colimit of this prefix is trivial",
            "derived",
            True,
        )
    if args.checks == "full":
        valuations = [homology.two_connected_certificate(data) for data in tower.phis]
        for i, (name, h2_valuation) in enumerate(zip(names, valuations)):
            rep.add(
                f"tower.edge{i}.two_connected",
                f"edge {name} is 2-connected",
                "verified",
                True,
                h2_valuation=h2_valuation,
            )
        h2 = homology.colim_h2(tower)
        rep.add(
            "tower.colim_h2",
            f"colimit second homology fold: {h2.value}",
            "verified",
            # the class dies on an edge whose valuation is above its source level
            (h2.value == "zero") == any(v > data.source_k for v, data in zip(valuations, tower.phis)),
            value=h2.value,
            note=h2.note,
        )
    rep.add(
        "tower.coverage",
        "the prefix covers finitely many S-elements; colimit claims beyond it "
        "require the infinite tower",
        "paper-assumed",
        True,
        edges_built=len(tower.phis),
    )
    return rep


def cmd_lcs(args) -> Report:
    model = Model.parse(args.model)
    if args.transfinite and not model.is_truncation:
        raise PreconditionError(
            f"transfinite bound {args.transfinite} needs a truncation model GammaK, not {args.model}"
        )
    # stage i has index Q^(i-1), and Q^(3 L) > 10^L for Q >= 3 is past a limit of L digits
    last = max(args.depth - 1, 0)
    limit = sys.get_int_max_str_digits()
    _require_printable(Q ** min(last, 3 * limit), what="a module index")
    # the transfinite orders start at 2^K, and 2^(4 L) > 10^L likewise
    if args.transfinite is not None and model.is_truncation:
        _require_printable(1 << min(model.k, 4 * limit), what="a center order")
    rep = Report(
        "lcs",
        {"model": args.model, "depth": args.depth, "gamma_omega": args.gamma_omega, "transfinite": args.transfinite},
    )
    chain = series.lcs_chain(model, args.depth)
    indices = [ideal_index(stage.module) for stage in chain]
    rep.add(
        "lcs.chain",
        f"module indices {indices}",
        "verified",
        True,
        indices=[str(i) for i in indices],
        center_exps=[stage.center_exp for stage in chain],
    )
    if args.gamma_omega:
        probes = series.gamma_omega(model, chain)
        rep.add(
            "lcs.gamma_omega",
            "limit stage certified: constant center parts, all probes exit",
            "verified",
            True,
            probes=len(probes),
        )
    if args.transfinite is not None and model.is_truncation:
        tr = series.transfinite_chain(model.k, args.transfinite or None)
        rep.add(
            "lcs.transfinite",
            f"orders {list(tr.orders)}, quotients {list(tr.quotient_orders)}",
            "verified",
            tr.ok,
            orders=list(tr.orders),
            terminates_at=tr.terminates_at,
        )
    return rep


def cmd_witness(args) -> Report:
    if not args.samples:
        samples = list(series.default_center_samples(args.seed))
    elif args.samples.isdecimal():
        samples = list(itertools.islice(series.default_center_samples(args.seed), int(args.samples)))
    else:
        samples = [parse_dyadic(tok) for tok in args.samples.split(",")]
    tower = tower_build(_parse_edges(args.edges))
    rep = Report(
        "witness",
        {
            "edges": args.edges,
            "J": args.J,
            "samples": args.samples or "default",
        },
        seed=args.seed,
    )
    result = series.witness_not_transfinitely_nilpotent(tower, args.J, samples)
    rep.add(
        "witness.chains",
        f"{len(result.samples)} center samples, each with a verified commutator "
        f"preimage chain of length {args.J}",
        "verified",
        all(s.model_ok for s in result.samples) and result.links == len(samples) * args.J,
        samples=len(result.samples),
    )
    rep.add(
        "witness.gamma_omega",
        "each sample is a power of an iterated commutator inside the certified limit stage",
        "verified",
        all(s.commutator_power_ok for s in result.samples),
    )
    rep.add(
        "witness.five_term",
        "consistent with the vanishing-homology bookkeeping",
        "derived",
        result.five_term_consistent,
    )
    rep.add(
        "witness.conclusion",
        "no stage omega + j dies through the checked bound; the colimit model "
        "is not transfinitely nilpotent at prefix scale",
        "derived",
        result.passed,
    )
    return rep


def cmd_cohn(args) -> Report:
    rep = Report(
        "cohn",
        {"m": args.m, "trials": args.trials, "n": args.n, "deg": args.deg, "coherence": args.coherence},
        seed=args.seed,
    )
    cohn.require_work_bound(args.m, args.n, args.trials, args.coherence)
    module = cohn.NilpotentModuleSpec(args.m)
    deg = cohn.delta_nilpotency_degree(module)
    rep.add(
        "cohn.nilpotency",
        f"augmentation-ideal nilpotency degree is {deg}",
        "verified",
        deg == args.m,
        degree=deg,
    )
    result = cohn.cohn_local_suite(
        module, args.trials, args.n, args.deg, seed=args.seed, coherence_trials=args.coherence
    )
    rep.add(
        "cohn.lifting",
        f"{args.trials} unique-lift trials, {result.failures} failures; "
        f"{args.coherence} coherence checks, {result.coherence_failures} failures",
        "verified",
        result.ok and (result.lifts, result.coherence_checked) == (args.trials, args.coherence),
        failures=result.failures,
    )
    return rep


class _Parser(argparse.ArgumentParser):
    """argparse's rejections raise, so they exit 1 with one error line like any other invalid input.

    An argv that starts with a command name goes straight to that command's
    parser, as ``_SubParsersAction`` would send it, so its strings are scanned
    once; any other argv takes argparse's own walk."""

    _commands = None  # the subparsers action, once add_subparsers has made it

    def add_subparsers(self, **kwargs):
        self._commands = super().add_subparsers(**kwargs)
        return self._commands

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        if self._commands is None or not args or args[0] not in self._commands.choices:
            return super().parse_known_args(args, namespace)
        namespace = argparse.Namespace() if namespace is None else namespace
        setattr(namespace, self._commands.dest, args[0])
        parsed, extras = self._commands.choices[args[0]].parse_known_args(args[1:])
        for key, value in vars(parsed).items():  # the command's defaults win, as in argparse's walk
            setattr(namespace, key, value)
        return namespace, extras

    def error(self, message):
        raise PreconditionError(message.replace("\n", "\\n"))  # stray arguments are quoted as given


def _items(text: str) -> int:
    return text.count(",") + 1


def _samples(text: str) -> int:
    return int(text) if text.isdecimal() else _items(text)


def _bounded(lo, hi, count=int):
    """An argparse type accepting the texts whose count lies in [lo, hi]: an
    int option counts its value and returns it, a list option counts its
    items and returns its text, which the report echoes as given."""

    def parse(text):
        n = count(text)
        if lo <= n <= hi:
            return n if count is int else text
        raise argparse.ArgumentTypeError(f"{'' if count is int else 'a count of '}{n} is outside [{lo}, {hi}]")

    parse.__name__, parse.bounds, parse.count = "int", (lo, hi), count
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out", default=None, help="write the JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    """The table of accepted inputs: each int or list option declares its range once, the
    upper bound where one run takes about a minute or a few hundred MiB, or NO_WORK_BOUND."""
    parser = _Parser(prog="vltower", description="exact certificates for the localization tower construction")
    sub = parser.add_subparsers(dest="cmd", required=True)
    edges = _bounded(1, 40_000, _items)
    seed = _bounded(-NO_WORK_BOUND, NO_WORK_BOUND)

    p = sub.add_parser("norm", help="norm, 2-adic split, and parity of an S-element")
    p.add_argument("--s", required=True, help="Laurent literal, e.g. '1-b+b^2'")
    _add_common(p)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("parity-verify", help="exhaustive parity-formula check")
    p.add_argument("--max-span", type=_bounded(0, 64), required=True, dest="max_span")
    p.add_argument("--max-coeff", type=_bounded(1, WINDOW_COEFF_BOUND), required=True, dest="max_coeff")
    _add_common(p)
    p.set_defaults(fn=cmd_parity_verify)

    p = sub.add_parser("phi-check", help="build and verify one level map")
    p.add_argument("--s", required=True)
    p.add_argument("--k", type=_bounded(0, 100_000_000), default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_phi_check)

    p = sub.add_parser("tower", help="build a tower prefix from comma-separated edges")
    p.add_argument("--edges", type=edges, required=True)
    p.add_argument("--checks", choices=["basic", "full"], default="full")
    _add_common(p)
    p.set_defaults(fn=cmd_tower)

    p = sub.add_parser("lcs", help="lower central series of a model")
    p.add_argument("--model", required=True, help="H, G2, or GammaK (e.g. Gamma3)")
    # depth and K are bounded by the printable module indices and center orders
    p.add_argument("--depth", type=_bounded(1, NO_WORK_BOUND), default=12)
    p.add_argument("--gamma-omega", action="store_true", dest="gamma_omega")
    p.add_argument(
        "--transfinite", type=_bounded(0, NO_WORK_BOUND), nargs="?", const=0,
        help="also compute stages past the limit (0 = full chain)",
    )
    _add_common(p)
    p.set_defaults(fn=cmd_lcs)

    p = sub.add_parser("witness", help="non-transfinite-nilpotence witness")
    p.add_argument("--edges", type=edges, required=True)
    p.add_argument("--J", type=_bounded(0, series.WITNESS_J_BOUND), default=20)
    samples = _bounded(1, series.DEFAULT_SAMPLE_COUNT, _samples)
    p.add_argument("--samples", type=samples, help="either a count or comma-separated dyadics like '1/2,3/8'")
    p.add_argument("--seed", type=seed, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("cohn", help="unique-lifting trials for center truncations")
    p.add_argument("--m", type=_bounded(0, 150_000), required=True)
    p.add_argument("--trials", type=_bounded(0, 1_000_000), default=200)
    p.add_argument("--n", type=_bounded(1, 250), default=3)
    p.add_argument("--deg", type=_bounded(0, NO_WORK_BOUND), default=3)
    p.add_argument("--coherence", type=_bounded(0, 750_000), default=20)
    p.add_argument("--seed", type=seed, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_cohn)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if [] in vars(args).values():  # argparse 3.11 reads "--opt=--" as [], past type and choices
            raise PreconditionError("'--' is not an option value")
        report: Report = args.fn(args)
    except SystemExit:  # after --help
        return 0
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return VIOLATION_EXIT
    except VltowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    json_text = report.to_json() if args.out or args.format == "json" else None
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(json_text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return USAGE_EXIT
    try:
        print(json_text if args.format == "json" else report.to_text(), flush=True)
    except BrokenPipeError:
        # The reader closed the pipe (say, `| head`).  Python flushes stdout
        # again at exit; pointing it at the null device keeps that quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_EXIT
    return 0 if report.passed else VIOLATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
