"""Lower-central-series engine and the non-transfinite-nilpotence witness.

Every function here takes a ``groups.Model``: the center level (Z for G2,
Z/2^K for Gamma_K) and whether the stages keep a center part at all (not for
the base group H).  Finite stages are computed exactly: in every model the
i-th stage (for i >= 2) is a set of the shape (center part <t^(2^e)>, module
part, trivial b part), the module part advancing by one (U - I)
multiplication per step and the center part generated by the commutator
pairings of the module generators together with [t^(2^e), b] = t^(-2^(e+1)).
Each module part is the principal ideal Z^2 (U - I)^i of Z[U], held as its
generator pair, so it is b-invariant by construction.

The limit stage of a truncation is certified, not computed by an infinite
intersection: the center parts of the finite stages are constant and every
nonzero probe vector exits the module chain at a finite index.  Transfinite
stages of a truncation then halve the center until it dies; the witness
shows the colimit model instead never runs out, by exhibiting for each
sampled dyadic center element a full chain of commutator preimages, as the
residues of one deep truncation that the group kernel compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from . import homology
from .errors import InsufficientTowerError, PreconditionError, TheoremViolationError
from .groups import Model, TowerPrefix, comm_b, conj_b, free_comm, free_eq, free_pow
from .localization import Dyadic
from .quadratic import Vec, _pair_mul, ideal_contains

_U_MINUS_I = (-1, 1)  # the generator pair of U - I
_PROBE_EXIT_BOUND = 60  # steps a probe may take to exit the module chain


@dataclass(frozen=True)
class SubgroupData:
    """A subgroup in the shape the lower central series takes here.

    center_exp = e means the center part is <t^(2^e)> (inside Z or Z/2^k
    depending on the model); None means no center part.  The b part is the
    whole cyclic group for the first stage only.  module is the generator
    pair (alpha, beta) of the module part Z^2 (alpha I + beta U).
    """

    center_exp: int | None
    module: tuple[int, int]


def whole_group(model: Model) -> SubgroupData:
    return SubgroupData(0 if model.central else None, (1, 0))


def lcs_step(model: Model, s: SubgroupData) -> SubgroupData:
    """One lower-central-series step: the subgroup generated by commutators
    of s with the group generators, in the representable shape.

    Contributions: [x, b] advances the module part by (U - I); [x, a] and
    [x, a^b] are pure center elements with exponents given by the symplectic
    pairings of x against the basis; [t^(2^e), b] doubles the center depth.
    The shape needs a b-invariant module part, and a principal ideal of Z[U]
    is one by construction.  The next generator pair is checked against the
    module part of [x, b] = x^-1 x^b for the generator x, vU - v with vU the
    module part of x^b from the group kernel; v and vU give the pairings.
    """
    central = model.central
    alpha, beta = s.module
    module = _pair_mul(s.module, _U_MINUS_I)
    _, m, n = conj_b((0, alpha, beta))  # vU, the second generator row
    if (m - alpha, n - beta) != module:
        raise TheoremViolationError(f"module part {module} is not that of [x, b] for x = {s.module}")
    candidates: list[int] = []
    if central and s.center_exp is not None:
        candidates.append(1 << (s.center_exp + 1))
    if central:
        candidates.extend((alpha, beta, m, n))  # pairings against a and a^b
    g = math.gcd(*candidates)
    if not central or g == 0:
        center_exp = None
    else:
        if g & (g - 1):
            raise TheoremViolationError(f"center generator gcd {g} is not a 2-power")
        center_exp = g.bit_length() - 1
    return SubgroupData(center_exp, module)


def lcs_chain(model: Model, depth: int) -> list[SubgroupData]:
    """Stages 1..depth of the lower central series."""
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    chain = [whole_group(model)]
    for _ in range(depth - 1):
        chain.append(lcs_step(model, chain[-1]))
    return chain


def _default_probes(bound: int) -> list[Vec]:
    return [
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if (x, y) != (0, 0)
    ]


def gamma_omega(
    model: Model, chain: list[SubgroupData], probe_set: list[Vec] | None = None
) -> tuple[tuple[Vec, int], ...]:
    """Certify the limit stage from chain = lcs_chain(model, d); returns each
    probe with the index at which it exits the module chain.

    (a) the center parts of stages 2 through d >= 2 are constantly the full
    <t> (vacuous for the base model); (b) every probe vector exits the module
    chain within _PROBE_EXIT_BOUND steps, so the limit's module part is
    trivial.  The limit stage is then <t> (none for the base model) with a
    zero module part.
    """
    if len(chain) < 2:
        raise PreconditionError(f"the limit-stage certificate needs depth >= 2, got {len(chain)}")
    exps = tuple(stage.center_exp for stage in chain[1:])
    if model.central and any(e != 0 for e in exps):
        raise TheoremViolationError(f"center parts of finite stages not constant: {exps}")
    probes = probe_set if probe_set is not None else _default_probes(2)
    images = [stage.module for stage in chain]  # Z^2 (U - I)^i, the module part of stage i + 1
    results: list[tuple[Vec, int]] = []
    for v in probes:
        for i in range(1, _PROBE_EXIT_BOUND + 1):
            if i == len(images):  # extended past the chain one product at a time
                images.append(_pair_mul(images[-1], _U_MINUS_I))
            if not ideal_contains(images[i], v):
                results.append((v, i))
                break
        else:
            raise TheoremViolationError(f"probe {v} never exits the module chain")
    return tuple(results)


@dataclass(frozen=True)
class TransfiniteReport:
    """Stages past the limit for a truncation: orders and quotient orders."""

    k: int
    orders: tuple[int, ...]
    quotient_orders: tuple[int, ...]
    terminates_at: int | None  # None: the bound cut the chain before it died
    bound: int

    @property
    def ok(self) -> bool:
        halving = self.orders[0] == 1 << self.k and all(q == 2 for q in self.quotient_orders)
        if self.bound < self.k:  # the caller stopped the chain before it could die
            return halving and len(self.quotient_orders) == self.bound
        return halving and self.terminates_at == self.k and self.orders[-1] == 1


def transfinite_chain(k: int, j_bound: int | None = None) -> TransfiniteReport:
    """Stages omega + j of the level-k truncation, until trivial.

    Starting from the limit stage (<t>, zero module), each step is one
    lcs_step; the center halves each time, so the chain dies at j = k with
    all successive quotients of order 2.
    """
    model = Model(k)
    limit = j_bound if j_bound is not None else k
    stages = [SubgroupData(0, (0, 0))]
    while stages[-1].center_exp < k and len(stages) <= limit:
        stages.append(lcs_step(model, stages[-1]))
    # the center <t^(2^e)> of a stage has order 2^(k - e) in Z/2^k
    orders = tuple(1 << max(0, k - s.center_exp) for s in stages)
    quotients = tuple(orders[i] // orders[i + 1] for i in range(len(orders) - 1))
    terminates = next((i for i, o in enumerate(orders) if o == 1), None)
    return TransfiniteReport(k, orders, quotients, terminates, limit)


def commutator_preimage(r: int, level: int) -> int:
    """y with [y, b] = t^r at center level ``level``: -2y = r mod 2**level, y the
    preimage of -r under doubling below 2**(level - 1).  Verified before returning."""
    mod = 1 << level
    y = (-r % mod) >> 1
    if (-2 * y - r) % mod:
        raise TheoremViolationError(f"preimage check failed for t^{r} at level {level}")
    return y


# all odd numerators at levels 1 to 3 and seven at each of levels 4 to 10
DEFAULT_SAMPLE_COUNT = 56


def default_center_samples(seed: int = 0) -> Iterator[Dyadic]:
    """Deterministic nonzero dyadic samples across denominators up to 2**10.

    All odd numerators are taken at levels with at most 7 of them; deeper
    levels contribute a seeded sample of 7 odd numerators each.  Levels are
    drawn in ascending order and one at a time, so a consumer that stops
    early draws the same samples as the full run, and no more.
    """
    import random

    rng = random.Random(seed)
    for k in range(1, 11):
        odds = range(1, 1 << k, 2)
        for n in odds if len(odds) <= 7 else sorted(rng.sample(odds, 7)):
            yield Dyadic(n, k)


@dataclass(frozen=True)
class WitnessSample:
    model_ok: bool
    commutator_power_ok: bool

    @property
    def ok(self) -> bool:
        return self.model_ok and self.commutator_power_ok


@dataclass(frozen=True)
class WitnessReport:
    """Executable evidence that the colimit model is not transfinitely nilpotent."""

    j_bound: int
    samples: tuple[WitnessSample, ...]
    five_term_consistent: bool
    links: int  # the [y_(j+1), b] = y_j checks run, over all samples

    @property
    def passed(self) -> bool:
        return self.five_term_consistent and bool(self.samples) and all(s.ok for s in self.samples)


# The longest chain whose witness takes about a minute with the 56 default
# samples (shared 2-vCPU VM, Python 3.11): every link multiplies centers of
# up to c.k + J bits, so the time grows quadratically in J
WITNESS_J_BOUND = 13_000


def witness_not_transfinitely_nilpotent(tower: TowerPrefix, j_bound: int, samples: list[Dyadic]) -> WitnessReport:
    """Certify that the limit stage of the colimit model never shrinks.

    For each sampled nonzero center element c: (a) c lies in the limit stage,
    witnessed by the constancy certificate plus an explicit iterated-commutator
    power expression evaluated in a truncation deep enough to hold c; (b) a
    full chain of commutator preimages c = [y1, b], y1 = [y2, b], ... of
    length j_bound exists, built as residues of the level L = c.k + j_bound
    truncation and verified both mod 2**L (by commutator_preimage) and in
    the group kernel, on b-free triples with [x, b] = x^-1 x^b, so c lies in
    every stage omega + j.  Requires at least one even-norm edge, since
    otherwise the prefix's center colimit is trivial.
    """
    if not 0 <= j_bound <= WITNESS_J_BOUND:
        raise PreconditionError(f"stage bound {j_bound} is outside [0, {WITNESS_J_BOUND}], the bounds of a witness")
    if not tower.has_even_edge():
        raise InsufficientTowerError(
            "no even-norm edge: the center colimit of this prefix is trivial"
        )
    if not samples:
        raise PreconditionError("at least one center sample is required")
    if any(s.num == 0 for s in samples):
        raise PreconditionError("witness samples must be nonzero center elements")

    # Raises unless the limit stage is certified.  lcs_step reads only
    # model.central, never model.k, so the certificate (center parts and probe
    # exits) is the same at every truncation level, the prefix's included.
    model = Model(max(s.k for s in samples) + j_bound)
    gamma_omega(model, lcs_chain(model, 12))

    # w_e = [a, a^b, b, ..., b] with e letters b is t^((-2)^e), so the residue r of
    # denominator 2^(level - e) is the odd power (r >> e) * (-1)^e of w_e, for every sample.
    w = [free_comm((0, 1, 0), (0, 0, 1))]
    for _ in range(j_bound):
        w.append(comm_b(w[-1]))
    out: list[WitnessSample] = []
    links = 0
    for c in samples:
        # link j, of denominator 2^(c.k + j), as a residue of the level c.k + j_bound center
        level = c.k + j_bound
        chain = [c.residue(level)]
        for _ in range(j_bound):
            chain.append(commutator_preimage(chain[-1], level))
        centers = [(r, 0, 0) for r in chain]
        checks = [free_eq(comm_b(centers[j + 1]), centers[j], level) for j in range(j_bound)]
        links += len(checks)
        model_ok = all(checks)
        comm_ok = all(
            free_eq(free_pow(w[e], ((r >> e) * (-1) ** e) % (1 << (level - e))), t_r, level)
            for e, r, t_r in zip(range(j_bound, -1, -1), chain, centers)
        )
        out.append(WitnessSample(model_ok, comm_ok))

    return WitnessReport(
        j_bound=j_bound,
        samples=tuple(out),
        five_term_consistent=homology.colim_h2(tower).value == "zero",
        links=links,
    )
