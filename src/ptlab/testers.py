"""One-sided sampling testers and the detection-probability harness.

All testers are one-sided: an input satisfying the property is always
accepted; a rejection carries the sampled witness. The harness measures
rejection rates over a batch of trials on one stream: trial i draws from
its own counter block of the batch's generator (see `rng`), so its draws
depend only on (seed, path, i) and reports are identical for a fixed seed
no matter how trials are scheduled or split over processes.

Within a trial, the universal tester draws one vertex sample and decides
it on the host's rows under the sample's bitmask. The density testers draw
their t tuples in blocks, one `integers` call per block, sized so that the
block is expected to hold the distinct-vertex tuples still needed (at most
`_BLOCK` tuples); a tuple with a repeated vertex is dropped and made up for
in the next block, so the t tuples tested are independent and uniform over
tuples of distinct vertices. Bounded draws take the generator's words in
order whatever the block shape, so a trial tests the same tuples, in the
same order, as one draw per tuple would. Each tuple is tested on the
adjacency rows directly, with no induced subgraph built.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .graphs import Graph, complete_graph, count_triangles, sample_vertices
from .recognizers import _resolve, is_triangle_free
from .rng import _MAX_TRIALS, Stream, _trial_streams

__all__ = [
    "Verdict",
    "TesterConfig",
    "TesterReport",
    "MinBudgetResult",
    "wilson95",
    "universal_tester",
    "triangle_tester",
    "induced_p3_tester",
    "run_tester",
    "estimate_detection",
    "min_budget_for_detection",
    "theoretical_sample_counts",
    "DEFAULT_BUDGET_CAP",
]

DEFAULT_BUDGET_CAP = 1 << 14
_DESK_BUDGET = 10 ** 9
# most tuples one draw makes for a density tester
_BLOCK = 256
# the detection probability the minimal-budget search asks for
_TARGET = 2 / 3
_K3 = complete_graph(3)


@dataclass(frozen=True)
class Verdict:
    """Accept, or Reject with the sampled witness tuple."""

    accepted: bool
    witness: tuple[int, ...] | None = None


# frozen, so every accepting trial can share one instance
_ACCEPTED = Verdict(True)


@dataclass(frozen=True)
class TesterConfig:
    """Which tester to run and with what budget.

    kind "universal" samples d vertices and decides the property named by
    `property_name` on them exactly; "triple-density" / "quadruple-density"
    sample t uniform 3-/4-subsets and look for a triangle / an induced 4-path.
    """

    __test__ = False  # keep pytest from collecting the Test* name

    kind: str
    d: int | None = None
    t: int | None = None
    property_name: str | None = None

    def __post_init__(self):
        if self.kind == "universal":
            if self.d is None or self.d < 0:
                raise ValueError("universal tester needs d >= 0")
            if not self.property_name:
                raise ValueError("universal tester needs a property name")
        elif self.kind in ("triple-density", "quadruple-density"):
            if self.t is None or self.t < 1:
                raise ValueError(f"{self.kind} tester needs t >= 1")
        else:
            raise ValueError(f"unknown tester kind {self.kind!r}")

    def queries_per_trial(self) -> int:
        if self.kind == "universal":
            return self.d * (self.d - 1) // 2
        return (3 if self.kind == "triple-density" else 6) * self.t

    def to_json(self) -> dict:
        return {"kind": self.kind, "d": self.d, "t": self.t,
                "property": self.property_name}


def wilson95(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    z = 1.959963984540054
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - margin), min(1.0, center + margin))


@dataclass(frozen=True)
class TesterReport:
    """Monte-Carlo estimate of a tester's rejection probability."""

    __test__ = False

    config: TesterConfig
    trials: int
    rejections: int
    rejection_rate: float
    wilson_lo: float
    wilson_hi: float
    queries_per_trial: int

    def to_json(self) -> dict:
        return {"config": self.config.to_json(), "trials": self.trials,
                "rejections": self.rejections, "rejection_rate": self.rejection_rate,
                "wilson95": [self.wilson_lo, self.wilson_hi],
                "queries_per_trial": self.queries_per_trial}


def universal_tester(g: Graph, d: int, property_name: str, rng: Stream) -> Verdict:
    """Sample d vertices; accept iff their induced subgraph has the named
    property (one-sided), decided by the property's scan core on the host's
    rows under the sample's mask."""
    if d > g.n:
        raise ValueError(f"cannot sample d={d} from n={g.n}")
    sample = sample_vertices(g.n, d, rng)
    member = _resolve(property_name)[0](g.rows, sum(1 << v for v in sample)) is None
    return _ACCEPTED if member else Verdict(False, sample)


def _distinct_tuples(gen, n: int, k: int, t: int) -> Iterator[list[int]]:
    """t independent uniform k-tuples of distinct vertices of 0..n-1.

    Each draw is a block of ceil(needed / q) tuples, at most _BLOCK, where q
    = n!/((n-k)! n^k) is the share of k-tuples with distinct vertices;
    tuples with a repeated vertex are dropped, and so are the tuples of a
    block beyond the t-th distinct one.
    """
    distinct, total = math.perm(n, k), n ** k
    while t:
        block = min(_BLOCK, -(-t * total // distinct))
        for tup in gen.integers(0, n, size=(block, k)).tolist():
            if len(set(tup)) == k:
                yield tup
                t -= 1
                if not t:
                    return


def triangle_tester(g: Graph, t: int, rng: Stream) -> Verdict:
    """t independent uniform vertex triples; reject iff one spans a triangle."""
    if t < 1:
        raise ValueError("need t >= 1")
    if g.n < 3:
        raise ValueError(f"triple tester needs n >= 3, got {g.n}")
    rows = g.rows
    for u, v, w in _distinct_tuples(rng.gen, g.n, 3, t):
        if (rows[u] >> v) & 1 and (rows[v] >> w) & 1 and (rows[u] >> w) & 1:
            return Verdict(False, tuple(sorted((u, v, w))))
    return _ACCEPTED


def induced_p3_tester(g: Graph, t: int, rng: Stream) -> Verdict:
    """t independent uniform 4-subsets; reject iff one induces a path with
    three edges, i.e. its degrees inside the subset are 1, 1, 2, 2."""
    if t < 1:
        raise ValueError("need t >= 1")
    if g.n < 4:
        raise ValueError(f"quadruple tester needs n >= 4, got {g.n}")
    rows = g.rows
    for quad in _distinct_tuples(rng.gen, g.n, 4, t):
        a, b, c, d = quad
        mask = (1 << a) | (1 << b) | (1 << c) | (1 << d)
        if sorted((rows[v] & mask).bit_count() for v in quad) == [1, 1, 2, 2]:
            return Verdict(False, tuple(sorted(quad)))
    return _ACCEPTED


def run_tester(g: Graph, config: TesterConfig, rng: Stream) -> Verdict:
    if config.kind == "universal":
        return universal_tester(g, config.d, config.property_name, rng)
    if config.kind == "triple-density":
        return triangle_tester(g, config.t, rng)
    return induced_p3_tester(g, config.t, rng)


def _sample_masks(n: int, d: int, trials: int, rng: Stream) -> Iterator[int]:
    """Trial i's uniform d-subset of 0..n-1, as a bitmask, for the trials of
    the batch on `rng`: the sample the universal tester decides."""
    for trial in _trial_streams(rng, 0, trials):
        yield sum(1 << v for v in sample_vertices(n, d, trial))


def _count_rejections(g: Graph, config: TesterConfig, rng: Stream,
                      lo: int, hi: int) -> int:
    return sum(not run_tester(g, config, trial).accepted
               for trial in _trial_streams(rng, lo, hi))


def _rejection_chunk(args) -> int:
    g, config, seed, path, lo, hi = args
    return _count_rejections(g, config, Stream(seed, path), lo, hi)


def estimate_detection(g: Graph, config: TesterConfig, trials: int,
                       rng: Stream, threads: int = 1) -> TesterReport:
    """Run the configured tester on `trials` independent trials of `rng`.

    Trial i always draws from counter block i of the batch generator keyed
    by (rng.seed, rng.path), so the report is bit-identical for a fixed seed
    regardless of `threads`. With `threads` > 1 (and at least 4 trials per
    thread) the trials are split into `threads` chunks, run by at most
    os.cpu_count() worker processes. At most 2**64 - 1 trials fit the layout.
    """
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"need 1 <= trials <= {_MAX_TRIALS}, got {trials}")
    if threads <= 1 or trials < 4 * threads:
        rejections = _count_rejections(g, config, rng, 0, trials)
    else:
        bounds = [trials * i // threads for i in range(threads + 1)]
        jobs = [(g, config, rng.seed, rng.path, bounds[i], bounds[i + 1])
                for i in range(threads)]
        # imported here: the process pool's modules cost every other caller
        # about 1.3 MB of resident memory and some import time
        from concurrent.futures import ProcessPoolExecutor
        # the pool starts all its workers at once: no more than the CPUs
        with ProcessPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            rejections = sum(pool.map(_rejection_chunk, jobs))
    lo, hi = wilson95(rejections, trials)
    return TesterReport(config, trials, rejections, rejections / trials,
                        lo, hi, config.queries_per_trial())


@dataclass(frozen=True)
class MinBudgetResult:
    """Outcome of the minimal-budget search.

    budget is the least probed budget whose Wilson lower bound met the
    target, or None if the cap was exhausted first (capped=True); curve
    lists every probe as (budget, rate, wilson_lo, wilson_hi).
    """

    kind: str
    target: float
    budget: int | None
    capped: bool
    curve: tuple[tuple[int, float, float, float], ...]
    analytic_floor: float | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "target": self.target, "budget": self.budget,
                "capped": self.capped,
                "curve": [list(p) for p in self.curve],
                "analytic_floor": self.analytic_floor}


def min_budget_for_detection(g: Graph, kind: str, rng: Stream, trials: int = 300,
                             property_name: str | None = None,
                             cap: int = DEFAULT_BUDGET_CAP,
                             threads: int = 1) -> MinBudgetResult:
    """Doubling-then-binary search for the least budget (d for the universal
    tester, t for density testers) whose measured rejection rate meets the
    target 2/3 with its Wilson lower bound. The doubling stops at the cap
    (for the universal tester, the smaller of the cap and n), which is
    probed itself.

    Each budget value is measured on its own substream, so probes are
    reproducible and independent of the search path. When the tester looks
    for triangles (triple-density, or universal on a property that forbids
    exactly a triangle: triangle-free, induced-h-free with H = K3) and g has
    some, the analytic sample-size floor (3*delta)^(-1/3) for the triangle
    density delta = triangles/n^3 is reported alongside.
    """
    cap_eff = min(cap, g.n) if kind == "universal" else cap
    probes: dict[int, TesterReport] = {}

    def measure(budget: int) -> TesterReport:
        if budget not in probes:
            if kind == "universal":
                config = TesterConfig("universal", d=budget, property_name=property_name)
            else:
                config = TesterConfig(kind, t=budget)
            probes[budget] = estimate_detection(g, config, trials,
                                                rng.child(budget), threads)
        return probes[budget]

    def ok(budget: int) -> bool:
        return measure(budget).wilson_lo >= _TARGET

    failed, budget = 0, 1
    while budget < cap_eff and not ok(budget):
        failed, budget = budget, min(2 * budget, cap_eff)
    if budget > cap_eff or not ok(budget):
        found = None
    else:
        lo = failed + 1
        hi = budget
        while lo < hi:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid + 1
        found = hi
    curve = tuple((b, r.rejection_rate, r.wilson_lo, r.wilson_hi)
                  for b, r in sorted(probes.items()))
    if kind == "universal":  # the probes have validated property_name
        recognizer = _resolve(property_name)[1]
        seeks_triangles = (recognizer is is_triangle_free
                           or getattr(recognizer, "keywords", {}).get("h") == _K3)
    else:
        seeks_triangles = kind == "triple-density"
    triangles = count_triangles(g) if seeks_triangles else 0
    floor = (3 * (triangles / g.n ** 3)) ** (-1 / 3) if triangles else None
    return MinBudgetResult(kind, _TARGET, found, found is None, curve, floor)


def theoretical_sample_counts(epsilon) -> dict:
    """Guarantee-level sample counts for distance parameter epsilon.

    The quadruple tester's guaranteed budget is t = 2*(100/epsilon)^16,
    returned exactly (it dwarfs any desk budget, so experiments must pass
    explicit budgets); the triple tester's guaranteed budget comes from a
    removal-lemma constant with no closed form, which is reported as such.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0,1], got {epsilon}")
    t_exact = 2 * (Fraction(100) / eps) ** 16
    p3_t = math.ceil(t_exact)
    return {
        "p3_t": p3_t,
        "exceeds_desk_budget": p3_t > _DESK_BUDGET,
        "triangle_note": "removal-lemma constant, not computable here",
    }
