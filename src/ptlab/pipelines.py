"""Composed experiments: the hardness-gap pipeline and the easy-side curve.

pipeline_hardness chains the planted tripartite construction through random
tripartite extraction into the five-part gadget, then measures detection
rates for induced-5-cycle-freeness (universal tester) and for the ordered
comparability check, against a control graph matched to the same certified
farness lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .decomposition import AboveCap, distance_to_property
from .gadgets import ap3_free_set, build_c5_gadget, rs_graph
from .graphs import Graph, flip_pairs, gnp, random_cograph, sample_vertices
from .packing import PackingError, WitnessPacking
from .recognizers import _find_triangle, _later_masks, _order_hit, is_cograph
from .rng import Stream, _trial_streams
from .testers import TesterConfig, estimate_detection, wilson95

__all__ = [
    "HardnessRow",
    "pipeline_hardness",
    "pipeline_easy",
    "sampled_c5_packing",
    "match_gnp_control",
]


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
        return [self.k, self.graph, self.property, self.farness, self.d,
                self.trials, self.rejection_rate, self.wilson_lo, self.wilson_hi]


HARDNESS_HEADER = ["k", "graph", "property", "farness", "d", "trials",
                   "rejection_rate", "wilson_lo", "wilson_hi"]


def sampled_c5_packing(g: Graph, target: int, budget: int, rng: Stream) -> WitnessPacking:
    """Greedy induced-5-cycle witness packing collected from random 5-subsets
    (pairwise overlap at most one vertex); certifies farness for graphs too
    large to enumerate."""
    gen = rng.gen
    chosen: list[tuple[int, ...]] = []
    vsets: list[set[int]] = []
    for _ in range(budget):
        if len(chosen) >= target:
            break
        pick = tuple(sorted(int(v) for v in gen.choice(g.n, size=5, replace=False)))
        mask = sum(1 << v for v in pick)
        if any((g.rows[v] & mask).bit_count() != 2 for v in pick):  # 2-regular: a C5
            continue
        ps = set(pick)
        if all(len(ps & vs) <= 1 for vs in vsets):
            chosen.append(pick)
            vsets.append(ps)
    return WitnessPacking("inducedC5", tuple(sorted(chosen)), g.n).verified_in(g)


def match_gnp_control(n: int, target: int, rng: Stream,
                      ps: Sequence[float] = (0.5, 0.4, 0.6, 0.3, 0.7),
                      budget: int = 60_000) -> tuple[Graph, WitnessPacking]:
    """First random graph over the density grid whose sampled 5-cycle packing
    certifies at least `target` witnesses."""
    for j, p in enumerate(ps):
        g = gnp(n, p, rng.child(j, 0))
        packing = sampled_c5_packing(g, target, budget, rng.child(j, 1))
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
    from .packing import random_tripartite_extract

    rows: list[HardnessRow] = []
    mechanism: dict[str, dict] = {}
    for idx, k in enumerate(ks):
        kstream = rng.child(idx)
        s = ap3_free_set(k, "exact" if k <= 40 else "behrend")
        rb = rs_graph(k, s)
        f, labeling, retained = random_tripartite_extract(
            rb.graph, rb.certificate, kstream.child(0), retries=retries)
        gb = build_c5_gadget(f, labeling.relabel(("V2", "V3", "V5")), retained)
        gadget = gb.graph
        far = float(gb.farness)

        rep = estimate_detection(
            gadget, TesterConfig("universal", d=d, property_name="induced-c5-free"),
            trials, kstream.child(1), threads)
        rows.append(HardnessRow(k, "gadget", "induced-c5-free", far, d, trials,
                                rep.rejection_rate, rep.wilson_lo, rep.wilson_hi))

        offset = 4 * f.n
        later = _later_masks(gb.labeling)
        rejections = trifree = passed = 0
        for sample in _trial_streams(kstream.child(2), 0, trials):
            pick = sample_vertices(gadget.n, d, sample)
            ok = _order_hit(gadget.rows, sum(1 << v for v in pick), later) is None
            if not ok:
                rejections += 1
            fmask = sum(1 << (v - offset) for v in pick if v >= offset)
            if _find_triangle(f.rows, fmask) is None:
                trifree += 1
                if ok:
                    passed += 1
        lo, hi = wilson95(rejections, trials)
        rows.append(HardnessRow(k, "gadget", "comparability-order", far, d, trials,
                                rejections / trials, lo, hi))
        mechanism[str(k)] = {"trifree_samples": trifree, "trifree_pass": passed}

        control, cpack = match_gnp_control(gadget.n, len(gb.certificate), kstream.child(4))
        cfar = float(Fraction(len(cpack), control.n ** 2))
        rep = estimate_detection(
            control, TesterConfig("universal", d=d, property_name="induced-c5-free"),
            trials, kstream.child(5), threads)
        rows.append(HardnessRow(k, "control", "induced-c5-free", cfar, d, trials,
                                rep.rejection_rate, rep.wilson_lo, rep.wilson_hi))
        rep = estimate_detection(
            control, TesterConfig("universal", d=d, property_name="comparability"),
            trials, kstream.child(6), threads)
        rows.append(HardnessRow(k, "control", "comparability", cfar, d, trials,
                                rep.rejection_rate, rep.wilson_lo, rep.wilson_hi))
    return rows, {"mechanism": mechanism}


EASY_HEADER = ["n", "epsilon", "distance", "graph", "t", "trials",
               "rejection_rate", "wilson_lo", "wilson_hi"]


def pipeline_easy(n: int, distances: Sequence[int], budgets: Sequence[int],
                  trials: int, rng: Stream, threads: int = 1) -> list[list]:
    """Quadruple-tester rejection curves on graphs at oracle-certified edit
    distance from cograph-hood, plus an always-accepted cograph control."""
    if n > 10:
        raise ValueError("easy pipeline needs the exact distance oracle (n <= 10)")
    rows: list[list] = []
    base = random_cograph(n, rng.child(0))
    for di, want in enumerate(distances):
        found = None
        for attempt in range(400):
            # fresh cograph per attempt: dense cographs absorb small flips
            start = random_cograph(n, rng.child(1, di, attempt, 0))
            cand = flip_pairs(start, want + attempt % 3, rng.child(1, di, attempt, 1))
            dist = distance_to_property(cand, is_cograph)
            if not isinstance(dist, AboveCap) and dist == want:
                found = (cand, dist)
                break
        if found is None:
            raise ValueError(f"no graph at certified distance {want} found")
        g, dist = found
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
