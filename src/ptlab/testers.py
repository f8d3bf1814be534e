"""One-sided sampling testers and the detection-probability harness.

All testers are one-sided: an input satisfying the property is always
accepted; a rejection carries the sampled witness. The harness measures
rejection rates over a batch of trials on one stream: trial i draws from
its own counter block of the batch's generator (see `rng`), so its draws
depend only on (seed, path, i) and reports are identical for a fixed seed
no matter how trials are scheduled or split over processes.

Within a trial, the universal tester draws one vertex sample and decides
it on the host's rows under the sample's bitmask. When the property
holds every bipartite graph (comparability, perfect, induced-h-free for
a non-bipartite h), one odd-cycle scan accepts a bipartite sample, and
the property's core runs only on a sample with an odd cycle; the verdict
is the core's either way (`_universal_core`). The density testers draw
their t tuples in blocks, one `integers` call per block, sized so that
the block is expected to hold the distinct-vertex tuples still needed
(at most `_BLOCK` tuples); a tuple with a repeated vertex is dropped and
made up for in the next block, so the t tuples tested are independent
and uniform over tuples of distinct vertices. Bounded draws take the
generator's words in order whatever the block shape, so a trial tests
the same tuples, in the same order, as one draw per tuple would. Each
tuple is tested on the adjacency rows directly, with no induced subgraph
built.

`estimate_detection` decides batches without those loops, with the same
counts. The trials' raw words come from the batch's numpy Philox, one
`random_raw` a trial (`rng._trial_words`). A universal batch turns them
into every trial's sample at once, as `sample_vertices` draws it, and
decides each sample on the host's rows under the sample's mask, as a
single trial does (the decision, `_universal_core`, is resolved once per
batch). A density batch turns them into the values the trials' `integers`
draws would give (Lemire's method on 32-bit halves) and decides all the
trials' tuples at once on the host's pair codes. A trial the words cannot
settle (too few distinct vertices for a sample; a rejected half, or too
few distinct tuples and no hit, for a density trial) runs on its own trial
stream; `run_tester` stays the single-trial API. Every batch is split into
chunks whose temporaries fit `_CHUNK_BYTES`; a density batch whose
pair-code table (one byte a vertex pair) or one trial's words would not
fit runs every trial that way, in the memory of the host's rows.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator

import numpy as np

from .graphs import Graph, count_triangles, sample_vertices
from .recognizers import _find_odd_cycle, _find_triangle, _resolve
from .rng import _MAX_TRIALS, Stream, _as_int, _trial_streams, _trial_words

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
# the byte budget of one chunk of a batched decision's per-trial temporaries
_CHUNK_BYTES = 1 << 17
# the detection probability the minimal-budget search asks for
_TARGET = 2 / 3


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
        # budgets as plain ints, read as `Graph` reads vertex counts
        for budget in ("d", "t"):
            if getattr(self, budget) is not None:
                object.__setattr__(self, budget, _as_int(getattr(self, budget)))
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


# slotted: with no instance dict a kept report takes about 48 bytes less
# (CPython 3.11), for callers that keep many (min-budget probes, curves)
@dataclass(frozen=True, slots=True)
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


def _universal_core(g: Graph, d: int, property_name: str):
    """The decision on a d-vertex sample of g, on the rows under the
    sample's mask: None iff the sample induces a member of the named
    property, as the property's scan core decides it.

    When every bipartite graph is a member, the odd-cycle scan decides
    first: a bipartite sample is accepted, and the core runs only on a
    sample with an odd cycle. The core is then run once here on d isolated
    vertices, a bipartite graph, so a core that refuses d vertices (perfect
    above PERFECT_EXACT_BOUND) refuses before any sample is decided.
    """
    if d > g.n:
        raise ValueError(f"cannot sample d={d} from n={g.n}")
    core, _, bipartite_members = _resolve(property_name)
    if not bipartite_members:
        return core
    core([0] * d, (1 << d) - 1)

    def decide(rows, mask):
        return None if _find_odd_cycle(rows, mask) is None else core(rows, mask)
    return decide


def universal_tester(g: Graph, d: int, property_name: str, rng: Stream) -> Verdict:
    """Sample d vertices; accept iff their induced subgraph has the named
    property (one-sided), decided by `_universal_core`."""
    decide = _universal_core(g, d, property_name)
    sample = sample_vertices(g.n, d, rng)
    member = decide(g.rows, sum(1 << v for v in sample)) is None
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


def _density_hit(degrees: list[int]) -> bool:
    """The density testers' verdict on a tuple of distinct vertices, by its
    induced degrees: three edges inside it, every degree 1 or 2 (a triangle
    for a triple, an induced 4-path for a quadruple)."""
    return sum(degrees) == 6 and all(1 <= deg <= 2 for deg in degrees)


def _density_tester(g: Graph, k: int, t: int, rng: Stream) -> Verdict:
    """t independent uniform k-tuples of distinct vertices; reject iff one
    hits (`_density_hit`)."""
    if t < 1:
        raise ValueError("need t >= 1")
    if g.n < k:
        raise ValueError(f"{'triple' if k == 3 else 'quadruple'} tester needs n >= {k}, got {g.n}")
    rows = g.rows
    for tup in _distinct_tuples(rng.gen, g.n, k, t):
        mask = sum(1 << v for v in tup)
        if _density_hit([(rows[v] & mask).bit_count() for v in tup]):
            return Verdict(False, tuple(sorted(tup)))
    return _ACCEPTED


def triangle_tester(g: Graph, t: int, rng: Stream) -> Verdict:
    """t independent uniform vertex triples; reject iff one spans a triangle."""
    return _density_tester(g, 3, t, rng)


def induced_p3_tester(g: Graph, t: int, rng: Stream) -> Verdict:
    """t independent uniform 4-subsets; reject iff one induces a path with
    three edges."""
    return _density_tester(g, 4, t, rng)


def run_tester(g: Graph, config: TesterConfig, rng: Stream) -> Verdict:
    if config.kind == "universal":
        return universal_tester(g, config.d, config.property_name, rng)
    if config.kind == "triple-density":
        return triangle_tester(g, config.t, rng)
    return induced_p3_tester(g, config.t, rng)


def _sample_masks(n: int, d: int, rng: Stream, lo: int, hi: int) -> Iterator[int]:
    """Trial i's uniform d-subset of 0..n-1, the sample the universal tester
    decides, as a bitmask, for trials lo..hi-1 of the batch on `rng`.

    It is the subset `sample_vertices` draws on the trial's stream. Its first
    block of words is the trial's first 2k raw words (`_trial_words`), k =
    min(d, n - d): a word w below the largest multiple of n gives vertex
    w mod n, the first k distinct vertices are the draw, and the sample is
    their complement when k < d. A vertex's first occurrence in a trial's
    words is found by sorting (`np.unique`), in O(k log k) a trial. A trial
    whose 2k words hold fewer than k distinct vertices is drawn by
    `sample_vertices` on its own trial stream. Chunks keep the (trials, n)
    and (trials, 2k) temporaries within `_CHUNK_BYTES`, down to one trial.
    """
    k = min(d, n - d)
    width = 2 * k
    # no word is rejected when n is a power of two (or 0, with no words)
    limit = (1 << 64) - (1 << 64) % n if n else 1 << 64
    step = max(1, _CHUNK_BYTES // max(n, 8 * width, 1))
    for start, words in zip(range(lo, hi, step), _trial_words(rng, lo, hi, width, step)):
        trials = len(words)
        vertex = (words % np.uint64(n)).astype(np.intp)
        valid = (words < np.uint64(limit) if limit < 1 << 64
                 else np.ones(words.shape, bool))
        # one code per (trial, vertex), n for a rejected word
        code = np.where(valid, vertex, n)
        code += np.arange(trials).reshape(-1, 1) * (n + 1)
        fresh = np.zeros(trials * width, bool)
        fresh[np.unique(code, return_index=True)[1]] = True
        fresh = fresh.reshape(trials, width) & valid
        fresh &= np.cumsum(fresh, axis=1) <= k
        member = np.zeros((trials, n), bool)
        trial, column = np.nonzero(fresh)
        member[trial, vertex[trial, column]] = True
        if k < d:
            member = ~member
        for j in np.flatnonzero(np.count_nonzero(fresh, axis=1) < k).tolist():
            member[j] = False
            member[j, list(sample_vertices(n, d, next(_trial_streams(
                rng, start + j, start + j + 1))))] = True
        yield from _row_ints(member)


def _row_ints(bits: np.ndarray) -> list[int]:
    """The rows of a 2-d bool array as ints: bit j of the i-th is bits[i, j].
    Rows of at most 64 bits are read as uint64 words, longer ones by
    `int.from_bytes`."""
    rows, m = bits.shape
    nbytes = 8 * max(1, -(-m // 64))
    packed = np.zeros((rows, nbytes), np.uint8)
    packed[:, :(m + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    if nbytes == 8:
        return packed.view("<u8")[:, 0].tolist()
    data = packed.tobytes()
    return [int.from_bytes(data[i:i + nbytes], "little") for i in range(0, len(data), nbytes)]


def _adjacency(g: Graph) -> np.ndarray:
    """g's adjacency matrix, as an (n, n) uint8 array of 0s and 1s, unpacked
    from its rows' little-endian bytes."""
    n, nbytes = g.n, (g.n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in g.rows), np.uint8)
    return np.unpackbits(packed.reshape(n, nbytes), axis=1, count=n, bitorder="little")


def _universal_rejections(g: Graph, config: TesterConfig, rng: Stream,
                          lo: int, hi: int) -> int:
    """Rejections of universal trials lo..hi-1 of the batch on `rng`, with the
    verdicts `universal_tester` gives: each trial's sample (`_sample_masks`)
    is decided on the host's rows under its mask by `_universal_core`,
    resolved once for the batch."""
    decide = _universal_core(g, config.d, config.property_name)
    return sum(decide(g.rows, mask) is not None
               for mask in _sample_masks(g.n, config.d, rng, lo, hi))


def _halves(words: np.ndarray) -> np.ndarray:
    """Raw 64-bit words as the 32-bit halves `next_uint32` reads of them,
    in order: each word's low half, then its high one (a last axis twice
    as long)."""
    return np.asarray(words, "<u8").view("<u4")


def _lemire_values(halves: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The values numpy's bounded 32-bit draws in 0..n-1 make of 32-bit
    halves (`_halves`), for 2 <= n <= 2**32, and which of them they reject.

    A half h gives (h * n) >> 32 and is rejected, and the next half read
    instead, when (h * n) mod 2**32 < 2**32 mod n (Lemire's method). So the
    values not rejected, in order, are the draws `integers(0, n)` makes of
    the same halves.
    """
    scaled = halves.astype(np.uint64) * n
    return scaled >> 32, (scaled & 0xFFFFFFFF) < (1 << 32) % n


def _verdict_table(k: int) -> np.ndarray:
    """The verdict on a k-tuple by its pair code.

    The code reads the tuple's position pairs, in `combinations` order, as
    base-3 digits, the first pair most significant: 2 if both positions hold
    one vertex, else the pair's adjacency bit. The entry is -1 for a repeated
    vertex, else 1 if the tuple hits (`_density_hit`) and 0 if not.
    """
    pairs = list(combinations(range(k), 2))
    return np.array([-1 if 2 in digits else int(_density_hit(
        [sum(d for d, pair in zip(digits, pairs) if v in pair) for v in range(k)]))
        for digits in product(range(3), repeat=len(pairs))], np.int8)  # in code order


_VERDICTS = {k: _verdict_table(k) for k in (3, 4)}


def _density_rejections(g: Graph, config: TesterConfig, rng: Stream,
                        lo: int, hi: int) -> int:
    """Rejections of density trials lo..hi-1 of the batch on `rng`, decided
    together in numpy with the verdicts `run_tester` gives.

    Each trial takes its first `width` raw words (`_trial_words`), a
    multiple of 4 sized so its tuples are expected to hold the t distinct
    ones with about three standard deviations to spare. `_lemire_values`
    turns them into the values the trial's `integers` draws would give, and
    consecutive k of them form the tuples `_distinct_tuples` yields, since
    its blocks end on tuple boundaries. A trial rejects iff one of its first
    t distinct tuples hits (`_verdict_table`). A trial whose used words hold
    a rejected half, or whose tuples hold fewer than t distinct ones and no
    hit, is run by `run_tester` on its own trial stream. Hosts the tester
    refuses, and batches whose words (8 bytes each) or pair-code table (one
    byte a vertex pair) would not fit `_CHUNK_BYTES`, run trial by trial.
    """
    n, t = g.n, config.t
    k = 3 if config.kind == "triple-density" else 4
    if n < k:  # the tester refuses the host
        return _trial_rejections(g, config, rng, lo, hi)
    share = math.perm(n, k) / n ** k
    tuples = math.ceil((t + 3 * math.sqrt(t * (1 - share)) + 2) / share)
    width = -(-k * tuples // 8) * 4
    if 8 * width > _CHUNK_BYTES or n * n > _CHUNK_BYTES:
        return _trial_rejections(g, config, rng, lo, hi)
    tuples = 2 * width // k  # every whole tuple the words hold
    pair_codes = _adjacency(g)
    np.fill_diagonal(pair_codes, 2)
    pair_codes = pair_codes.ravel()
    table = _VERDICTS[k]
    rejections = 0
    step = _CHUNK_BYTES // (8 * width)
    for start, words in zip(range(lo, hi, step), _trial_words(rng, lo, hi, width, step)):
        values, rejected = _lemire_values(_halves(words), n)
        # vertex at position i of each trial's tuples, as one (trials, tuples) array per i
        at = (values[:, :k * tuples].reshape(-1, tuples, k).transpose(2, 0, 1)
              .astype(np.intp, order="C"))
        code = np.zeros(at.shape[1:], np.int16)
        for i, j in combinations(range(k), 2):
            code *= 3
            code += pair_codes.take(at[i] * n + at[j])
        verdicts = table.take(code)
        rank = np.cumsum(verdicts >= 0, axis=1)
        rejects = ((verdicts == 1) & (rank <= t)).any(axis=1)
        unsettled = rejected[:, :k * tuples].any(axis=1) | (~rejects & (rank[:, -1] < t))
        rejections += int(np.count_nonzero(rejects & ~unsettled))
        for i in np.flatnonzero(unsettled).tolist():
            rejections += _trial_rejections(g, config, rng, start + i, start + i + 1)
    return rejections


def _trial_rejections(g: Graph, config: TesterConfig, rng: Stream,
                      lo: int, hi: int) -> int:
    return sum(not run_tester(g, config, trial).accepted
               for trial in _trial_streams(rng, lo, hi))


def _count_rejections(g: Graph, config: TesterConfig, rng: Stream,
                      lo: int, hi: int) -> int:
    """Rejections of trials lo..hi-1 of the batch on `rng`."""
    if config.kind == "universal":
        return _universal_rejections(g, config, rng, lo, hi)
    return _density_rejections(g, config, rng, lo, hi)


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
    trials = _as_int(trials)
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"need 1 <= trials <= {_MAX_TRIALS}, got {trials}")
    if threads <= 1 or trials < 4 * threads:
        rejections = _count_rejections(g, config, rng, 0, trials)
    else:
        if config.kind == "universal":  # refuse a bad config before any process starts
            _universal_core(g, config.d, config.property_name)
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
    for triangles (triple-density, or universal on a property whose scan
    core is the triangle scan: triangle-free, induced-h-free with H = K3)
    and g has some, the analytic sample-size floor (3*delta)^(-1/3) for the
    triangle density delta = triangles/n^3 is reported alongside.
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
    # the probes have validated property_name
    seeks_triangles = (_resolve(property_name)[0] is _find_triangle if kind == "universal"
                       else kind == "triple-density")
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
