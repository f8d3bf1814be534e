"""Composed experiments: the hardness-gap pipeline and the easy-side curve.

pipeline_hardness chains the planted tripartite construction through random
tripartite extraction into the five-part gadget, then measures detection
rates for induced-5-cycle-freeness (universal tester) and for the ordered
comparability check, against a control graph matched to the same certified
farness lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .decomposition import DISTANCE_CAP_BOUND, DISTANCE_N_BOUND, distance_to_property
from .gadgets import AP_EXACT_BOUND, GadgetBundle, ap3_free_set, build_c5_gadget, rs_graph
from .graphs import Graph, flip_pairs, gnp, random_cograph
from .packing import PackingError, WitnessPacking, farness_lower_bound, random_tripartite_extract
from .recognizers import _find_triangle, _later_masks, _order_hit, is_cograph
from .rng import Stream
from .testers import (
    _CHUNK_BYTES,
    TesterConfig,
    _halves,
    _lemire_values,
    _packed_rows,
    _sample_masks,
    estimate_detection,
    wilson95,
)

__all__ = [
    "HardnessRow",
    "pipeline_hardness",
    "pipeline_easy",
    "sampled_c5_packing",
    "match_gnp_control",
]


def _gadget_samples(f: Graph, gb: GadgetBundle, d: int, trials: int, rng: Stream
                    ) -> Iterator[tuple[int, bool, bool]]:
    """(mask, inner triangle-free, order check passed) for trial i of the batch
    on `rng`: the d-vertex sample of the five-part gadget `gb` over f, whose
    inner portion is f's, at the gadget's top f.n indices."""
    later = _later_masks(gb.labeling)
    for mask in _sample_masks(gb.graph.n, d, rng, 0, trials):
        yield (mask, _find_triangle(f.rows, mask >> 4 * f.n) is None,
               _order_hit(gb.graph.rows, mask, later) is None)


@dataclass(frozen=True)
class HardnessRow:
    k: int
    graph: str  # "gadget" | "control"
    property: str
    farness: float
    d: int
    trials: int
    rejection_rate: float
    wilson_lo: float
    wilson_hi: float

    def as_list(self) -> list:
        return [getattr(self, name) for name in HARDNESS_HEADER]


HARDNESS_HEADER = [f.name for f in fields(HardnessRow)]


# a 5-subset's ten vertex pairs, and which two of its five vertices each pair holds
_C5_PAIRS = np.array(list(combinations(range(5), 2))).T
_C5_INCIDENCE = (_C5_PAIRS[:, :, None] == np.arange(5)).sum(axis=0)


def _choice5_chunks(gen: np.random.Generator, n: int, budget: int
                    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The 5-subsets the next `budget` calls of `gen.choice(n, 5,
    replace=False)` draw, in chunks: (sets, ends), where row i of sets is a
    call's subset, sorted, and ends[i] counts the 32-bit halves that the
    calls up to and including it read. `gen` is not moved (`_skip_halves`).

    For 5 of n, `choice` runs Floyd's algorithm (its tail shuffle is for
    samples above n / 50 with n over 10,000): for j = n-5..n-1 it draws in
    0..j and takes that value, or j itself if an earlier draw took the
    value. It then shuffles, drawing in 0..i for i = 4..1. Each draw is a
    bounded 32-bit draw on `next_uint32` (`_lemire_values`), so n is at most
    2**32; one in 0..0 reads nothing. The halves are the generator's pending
    half, if it holds one, then the low and high halves of a copy's raw
    words. Chunks grow from 64 calls; a chunk's calls read their halves in
    turn, decoded at once, up to the first call with a rejected half, which
    is decoded half by half.
    """
    if budget <= 0:
        return
    if n < 5:
        gen.choice(n, 5, replace=False)  # refused as choice refuses it, before any draw
    ranges = [r for r in (*range(n - 4, n + 1), 5, 4, 3, 2) if r > 1]
    width, floyd = len(ranges), 5 - (n == 5)  # at n = 5 the first draw reads nothing
    columns = np.array(ranges, np.uint64)
    source = np.random.Philox()
    source.state = state = gen.bit_generator.state
    halves = np.array([state["uinteger"]] if state["has_uint32"] else [], np.uint32)
    base = pos = 0  # halves[pos] is the next half, after base + pos read ones

    def window(count: int) -> np.ndarray:
        nonlocal halves, base, pos
        if len(halves) - pos < count:
            more = _halves(source.random_raw(-(-(count - len(halves) + pos) // 2)))
            halves, base, pos = np.concatenate((halves[pos:], more)), base + pos, 0
        return halves[pos:pos + count]

    def subsets(values: np.ndarray) -> np.ndarray:
        sets = np.zeros((len(values), 5), np.int64)
        sets[:, 5 - floyd:] = values[:, :floyd]
        for c in range(1, 5):
            repeat = (sets[:, :c] == sets[:, c:c + 1]).any(axis=1)
            sets[repeat, c] = n - 5 + c
        sets.sort(axis=1)
        return sets

    step, cap = 64, max(64, _CHUNK_BYTES // (48 * width))  # six uint64 temporaries a column
    while budget > 0:
        calls = min(step, budget)
        values, rejected = _lemire_values(window(calls * width).reshape(calls, width), columns)
        clean = int(np.argmax(rejected.any(axis=1))) if rejected.any() else calls
        if clean:
            yield subsets(values[:clean]), base + pos + width * np.arange(1, clean + 1)
        pos += width * clean
        budget -= clean
        if clean < calls:
            drawn = []
            for r in ranges:
                while True:
                    value, rejected = _lemire_values(window(1), r)
                    pos += 1
                    if not rejected[0]:
                        break
                drawn.append(value[0])
            yield subsets(np.array([drawn], np.uint64)), np.array([base + pos])
            budget -= 1
        step = min(2 * step, cap)


def _skip_halves(gen: np.random.Generator, halves: int) -> None:
    """Move `gen` on as `halves` reads of `next_uint32` would: its pending
    half first, then whole raw words, the last word's high half left
    pending when an odd number of its halves is read."""
    if not halves:
        return
    bitgen = gen.bit_generator
    fresh = halves - bitgen.state["has_uint32"]
    left = {"has_uint32": 0}
    if fresh:
        bitgen.random_raw((fresh - 1) // 2, output=False)
        left = {"has_uint32": fresh % 2, "uinteger": int(bitgen.random_raw()) >> 32}
    bitgen.state = {**bitgen.state, **left}


def sampled_c5_packing(g: Graph, target: int, budget: int, rng: Stream) -> WitnessPacking:
    """Greedy induced-5-cycle witness packing collected from random 5-subsets
    (pairwise overlap at most one vertex); certifies farness for graphs too
    large to enumerate.

    The subsets are the ones `rng.gen.choice(g.n, 5, replace=False)` draws,
    one call at a time, until `target` witnesses are packed or `budget`
    calls are made, and `rng` is left where those calls leave it
    (`_choice5_chunks`, `_skip_halves`). Five distinct vertices induce a
    5-cycle iff each has exactly two neighbours among them; that is decided
    for a chunk of subsets at once on g's packed rows, and the greedy
    overlap check runs on the hits, in draw order.
    """
    packed = _packed_rows(g)
    chosen: list[tuple[int, ...]] = []
    masks: list[int] = []
    used = 0
    for sets, ends in _choice5_chunks(rng.gen, g.n, budget if target > 0 else 0):
        used = int(ends[-1])
        first, second = sets[:, _C5_PAIRS[0]], sets[:, _C5_PAIRS[1]]
        bits = (packed[first, second >> 3] >> (second & 7)) & 1
        for i in np.flatnonzero(((bits @ _C5_INCIDENCE) == 2).all(axis=1)).tolist():
            pick = tuple(sets[i].tolist())
            mask = sum(1 << v for v in pick)
            if all((mask & m).bit_count() <= 1 for m in masks):
                chosen.append(pick)
                masks.append(mask)
                if len(chosen) >= target:
                    used = int(ends[i])
                    break
        if len(chosen) >= target:
            break
    _skip_halves(rng.gen, used)
    return WitnessPacking("inducedC5", tuple(sorted(chosen)), g.n).verified_in(g)


# the control's edge densities, in the order tried, and its 5-subset draws per density
_CONTROL_PS = (0.5, 0.4, 0.6, 0.3, 0.7)
_CONTROL_BUDGET = 60_000


def match_gnp_control(n: int, target: int, rng: Stream) -> tuple[Graph, WitnessPacking]:
    """First random graph over the density grid whose sampled 5-cycle packing
    certifies at least `target` witnesses."""
    for j, p in enumerate(_CONTROL_PS):
        g = gnp(n, p, rng.child(j, 0))
        packing = sampled_c5_packing(g, target, _CONTROL_BUDGET, rng.child(j, 1))
        if len(packing) >= target:
            return g, packing
    raise PackingError(
        f"no control graph on {n} vertices reached {target} certified witnesses")


def pipeline_hardness(ks: Sequence[int], d: int, trials: int, rng: Stream,
                      retries: int = 9, threads: int = 1
                      ) -> tuple[list[HardnessRow], dict]:
    """Detection rates for the five-part gadget versus a farness-matched
    random control, for each planted size k. Also tallies the mechanism over
    the order-check samples (trial i of the batch on the planted size's
    stream child(2)): samples whose inner portion is triangle-free must pass
    the ordered comparability check, every time."""
    rows: list[HardnessRow] = []
    mechanism: dict[str, dict] = {}

    def universal_row(k: int, graph: str, g: Graph, prop: str, far: float,
                      stream: Stream) -> HardnessRow:
        rep = estimate_detection(g, TesterConfig("universal", d=d, property_name=prop),
                                 trials, stream, threads)
        return HardnessRow(k, graph, prop, far, d, trials,
                           rep.rejection_rate, rep.wilson_lo, rep.wilson_hi)

    for idx, k in enumerate(ks):
        kstream = rng.child(idx)
        s = ap3_free_set(k, "exact" if k <= AP_EXACT_BOUND else "behrend")
        rb = rs_graph(k, s)
        f, labeling, retained = random_tripartite_extract(
            rb.graph, rb.certificate, kstream.child(0), retries=retries)
        gb = build_c5_gadget(f, labeling.relabel(("V2", "V3", "V5")), retained)
        gadget = gb.graph
        far = float(gb.farness)

        rows.append(universal_row(k, "gadget", gadget, "induced-c5-free", far, kstream.child(1)))

        rejections = trifree = passed = 0
        for _, inner_free, ok in _gadget_samples(f, gb, d, trials, kstream.child(2)):
            rejections += not ok
            trifree += inner_free
            passed += inner_free and ok
        lo, hi = wilson95(rejections, trials)
        rows.append(HardnessRow(k, "gadget", "comparability-order", far, d, trials,
                                rejections / trials, lo, hi))
        mechanism[str(k)] = {"trifree_samples": trifree, "trifree_pass": passed}

        control, cpack = match_gnp_control(gadget.n, len(gb.certificate), kstream.child(4))
        cfar = float(farness_lower_bound(cpack))
        rows.append(universal_row(k, "control", control, "induced-c5-free", cfar,
                                  kstream.child(5)))
        rows.append(universal_row(k, "control", control, "comparability", cfar,
                                  kstream.child(6)))
    return rows, {"mechanism": mechanism}


EASY_HEADER = ["n", "epsilon", "distance", "graph", "t", "trials",
               "rejection_rate", "wilson_lo", "wilson_hi"]


def pipeline_easy(n: int, distances: Sequence[int], budgets: Sequence[int],
                  trials: int, rng: Stream, threads: int = 1) -> list[list]:
    """Quadruple-tester rejection curves on graphs at oracle-certified edit
    distance from cograph-hood, plus an always-accepted cograph control."""
    if n > DISTANCE_N_BOUND:
        raise ValueError(f"easy pipeline needs the exact distance oracle (n <= {DISTANCE_N_BOUND})")
    if not all(0 <= want <= DISTANCE_CAP_BOUND for want in distances):
        raise ValueError(
            f"distances must lie in 0..{DISTANCE_CAP_BOUND}, the oracle's cap, got {list(distances)}")
    rows: list[list] = []
    base = random_cograph(n, rng.child(0))
    for di, want in enumerate(distances):
        for attempt in range(400):
            # fresh cograph per attempt: dense cographs absorb small flips
            start = random_cograph(n, rng.child(1, di, attempt, 0))
            g = flip_pairs(start, want + attempt % 3, rng.child(1, di, attempt, 1))
            dist = distance_to_property(g, is_cograph, cap=want)
            if dist == want:
                break
        else:
            raise ValueError(f"no graph at certified distance {want} found")
        eps = dist / (n * n)
        for t in budgets:
            rep = estimate_detection(g, TesterConfig("quadruple-density", t=t),
                                     trials, rng.child(2, di, t), threads)
            rows.append([n, eps, dist, "far", t, trials,
                         rep.rejection_rate, rep.wilson_lo, rep.wilson_hi])
    for t in budgets:
        rep = estimate_detection(base, TesterConfig("quadruple-density", t=t),
                                 trials, rng.child(3, t), threads)
        rows.append([n, 0.0, 0, "cograph", t, trials,
                     rep.rejection_rate, rep.wilson_lo, rep.wilson_hi])
    return rows
