"""Composed experiments: the hardness-gap pipeline and the easy-side curve.

pipeline_hardness chains the planted tripartite construction through random
tripartite extraction into the five-part gadget, then measures detection
rates for induced-5-cycle-freeness (universal tester) and for the ordered
comparability check, against a control graph matched to the same certified
farness lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Sequence

from .decomposition import DISTANCE_CAP_BOUND, DISTANCE_N_BOUND, distance_to_property
from .gadgets import AP_EXACT_BOUND, GadgetBundle, ap3_free_set, build_c5_gadget, rs_graph
from .graphs import Graph, flip_pairs, gnp, random_cograph
from .packing import (PackingError, WitnessPacking, _pack_greedily, farness_lower_bound,
                      random_tripartite_extract)
from .recognizers import _find_induced_c5, _find_triangle, _later_masks, _order_hit, is_cograph
from .rng import Stream
from .testers import TesterConfig, _sample_masks, estimate_detection, wilson95

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


# vertices per control sample: a 10-vertex sample of a G(n, p) control
# nearly always holds an induced 5-cycle, so a trial gives about one witness
_CONTROL_D = 10


def sampled_c5_packing(g: Graph, target: int, budget: int, rng: Stream) -> WitnessPacking:
    """Greedy induced-5-cycle witness packing collected from random vertex
    samples (`packing._pack_greedily`); certifies farness for graphs too
    large to enumerate.

    Trial i of the batch on `rng`, for i < `budget`, is the d-vertex sample
    the universal tester draws (`_sample_masks`), d = min(_CONTROL_D, g.n),
    and offers its first induced 5-cycle (`_find_induced_c5`); the offers
    are packed in trial order until `target` witnesses are packed. Trials
    are drawn in windows of 16, 32, 64, ... so that an early stop reads few
    words; `rng` itself is not moved. Hosts under about 2d vertices see few
    distinct samples (below d + 1 vertices, one: the whole host); every
    `pipeline_hardness` host has at least 30.
    """
    d = min(_CONTROL_D, g.n)

    def hits() -> Iterator[tuple[int, ...]]:
        lo, width = 0, 16
        while lo < budget:
            hi = min(budget, lo + width)
            for sample in _sample_masks(g.n, d, rng, lo, hi):
                hit = _find_induced_c5(g.rows, sample)
                if hit is not None:
                    yield hit
            lo, width = hi, 2 * width

    chosen = _pack_greedily(hits(), target)
    return WitnessPacking("inducedC5", tuple(sorted(chosen)), g.n).verified_in(g)


# the control's edge densities, in the order tried, and its samples per density
_CONTROL_PS = (0.5, 0.4, 0.6, 0.3, 0.7)
_CONTROL_BUDGET = 4_000


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
