"""Randomized search for extremal graphs: few induced 4-paths subject to
having no beta-cut, or to being far from cograph-hood.

The searches produce empirical UPPER-bound candidates for the extremal
densities; every record is checked against the guarantee-level floor
((beta/100)^12 resp. (epsilon/100)^16), whose violation would falsify the
implementation, not the guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .decomposition import (AboveCap, BETA_EXACT_BOUND, DISTANCE_CAP_BOUND, DISTANCE_N_BOUND,
                            _crossings, _validate_beta, distance_to_property)
from .graphs import Graph, _p4_delta, count_induced_p3, gnp, pair_count, pair_from_index
from .recognizers import is_cograph
from .rng import Stream

__all__ = [
    "ExtremalRecord",
    "search_min_p3_density",
    "estimate_f",
]


@dataclass(frozen=True)
class ExtremalRecord:
    """Best graph found, its induced-4-path density, and how it qualifies."""

    n: int
    graph: Graph
    p3_count: int
    beta: Optional[Fraction] = None
    epsilon: Optional[Fraction] = None
    provenance: dict | None = None
    p3_density: Fraction = field(init=False)  # p3_count / n^4
    certified: bool = field(default=True, init=False)  # both searches certify or refuse

    def __post_init__(self):
        object.__setattr__(self, "p3_density", Fraction(self.p3_count, self.n ** 4))
        floor = self.density_floor()
        if self.p3_density < floor:
            raise AssertionError(
                f"record density {self.p3_density} below guaranteed floor {floor}; "
                "the search or the counters are broken")

    def density_floor(self) -> Fraction:
        """Guarantee-level lower bound on the density for this family."""
        if self.beta is not None:
            return (self.beta / 100) ** 12
        assert self.epsilon is not None
        return (self.epsilon / 100) ** 16

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "beta": None if self.beta is None else str(self.beta),
            "epsilon": None if self.epsilon is None else str(self.epsilon),
            "p3_count": self.p3_count,
            "p3_density": float(self.p3_density),
            "density_floor": float(self.density_floor()),
            "certified": self.certified,
            "provenance": self.provenance,
        }


def _hill_climb(n: int, qualifier, effort: int, rng: Stream,
                **family: Fraction) -> ExtremalRecord:
    """The record of the best graph over `effort` restarts of
    first-improvement hill-climbing on single-pair toggles, staying inside
    `qualifier`; `family` is the record's beta=... or epsilon=....

    The qualifier answers three calls: `start(g)`, does the start graph g
    qualify; `toggled(g, u, v)`, g with the pair toggled if that qualifies,
    else None (g always qualifies); and `moved(g, u, v)`, the climb now
    stands on g, the graph it stood on with the pair (u, v), u < v, toggled.

    Equal-count moves are accepted with probability 1/2 to drift across
    plateaus; ties in the final reduction go to the lexicographically least
    adjacency encoding, so the result is restart-order independent. A
    candidate's count comes first, from the induced 4-paths through the
    toggled pair: one that would raise it is dropped before the qualifier
    is asked, and the tie coin is drawn only for a qualifying equal count.
    """
    if effort < 1:
        raise ValueError("effort must be >= 1")
    total_pairs = pair_count(n)
    best: tuple[int, tuple, Graph] | None = None
    for restart in range(effort):
        child = rng.child(restart)
        gen = child.gen
        g = None
        for attempt in range(40):
            cand = gnp(n, 0.5, child.child(attempt))
            if qualifier.start(cand):
                g = cand
                break
        if g is None:
            continue
        count = count_induced_p3(g)
        for _ in range(4 * total_pairs):
            order = gen.permutation(total_pairs)
            moved = False
            for idx in order:
                u, v = pair_from_index(n, int(idx))
                c2 = count + _p4_delta(g.rows, u, v)
                if c2 > count:
                    continue
                cand = qualifier.toggled(g, u, v)
                if cand is None:
                    continue
                if c2 < count or int(gen.integers(0, 2)) == 0:
                    g, count = cand, c2
                    qualifier.moved(g, u, v)
                    moved = True
                    break
            if not moved:
                break
        if best is None or (count, g.rows) < (best[0], best[1]):
            best = (count, g.rows, g)
    if best is None:
        raise ValueError(
            f"no qualifying graph found in {effort} restarts at n={n}")
    return ExtremalRecord(
        n=n, graph=best[2], p3_count=best[0],
        provenance={"seed": rng.seed, "path": list(rng.path), "effort": effort}, **family)


class _CutFree:
    """Qualifier of the beta search: no bipartition is a beta-cut.

    Toggling the pair (u, v) changes the crossing count by one on exactly
    the bipartitions that separate u and v. So on a cut-free graph, adding
    the edge makes a cut iff a separating bipartition sits one below its
    dense threshold, and removing it iff one sits one above its sparse
    threshold. `near[e]` lists those side1 masks (vertex 0 in side1) for
    e = 0 (adding) and e = 1 (removing), read from `cross`, the crossing
    counts of the graph the climb stands on.

    `start` takes `cross` from one `_crossings` scan (beta already
    validated). `moved` adds the accepted toggle's +1 or -1 to it in place,
    through `cube`, a (2,)*(n-1) view of the scan's whole 2^(n-1) array in
    which axis n-1-v is vertex v's bit: the two quarters with u and v on
    different sides, or for u = 0, which never leaves side1, the half with
    v off side1. Neither touches the last entry, which is no bipartition.
    """

    def __init__(self, beta: Fraction):
        self.beta = beta
        self.near: tuple[list[int], list[int]] = ([], [])

    def start(self, g: Graph) -> bool:
        cross, sparse_max, dense_min, _ = _crossings(g, self.beta)
        if ((cross <= sparse_max) | (cross >= dense_min)).any():
            return False
        self.cross, self.sparse_max, self.dense_min = cross, sparse_max, dense_min
        # `cross` is the scan's array but its last entry
        self.cube = cross.base.reshape((2,) * (g.n - 1))
        self._list_near()
        return True

    def moved(self, g: Graph, u: int, v: int) -> None:
        step = 1 if g.rows[u] >> v & 1 else -1
        axis = g.n - 1
        for bit in (0, 1) if u else (0,):
            # length-1 slices, so that even a single entry stays a view
            at = [slice(None)] * axis
            at[axis - v] = slice(bit, bit + 1)
            if u:
                at[axis - u] = slice(1 - bit, 2 - bit)
            part = self.cube[tuple(at)]
            part += step
        self._list_near()

    def _list_near(self) -> None:
        # index r of the scan stands for side1 mask 2r + 1
        self.near = tuple((2 * np.flatnonzero(self.cross == near) + 1).tolist()
                          for near in (self.dense_min - 1, self.sparse_max + 1))

    def toggled(self, g: Graph, u: int, v: int) -> Graph | None:
        for m in self.near[g.rows[u] >> v & 1]:
            if ((m >> u) ^ (m >> v)) & 1:
                return None
        return g.with_toggled([(u, v)])


class _FarFromCograph:
    """Qualifier of the farness search: the exact edit distance to the
    nearest cograph is at least need = ceil(`threshold`), asked afresh of
    each graph as "is it above need - 1" (need 0 qualifies unasked)."""

    def __init__(self, threshold: Fraction):
        self.need = math.ceil(threshold)

    def start(self, g: Graph) -> bool:
        return self.need == 0 or isinstance(
            distance_to_property(g, is_cograph, cap=self.need - 1), AboveCap)

    def toggled(self, g: Graph, u: int, v: int) -> Graph | None:
        cand = g.with_toggled([(u, v)])
        return cand if self.start(cand) else None

    def moved(self, g: Graph, u: int, v: int) -> None:
        pass


def search_min_p3_density(n: int, beta, effort: int, rng: Stream) -> ExtremalRecord:
    """Hill-climb for a graph with no beta-cut and few induced 4-paths.

    The no-cut constraint is exact at every step (certified for n <= 22,
    where exact enumeration is allowed): each start graph gets one full
    crossing scan, each accepted toggle adds its +1 or -1 to the kept
    counts of the bipartitions that separate its pair, and a toggle is
    decided from the bipartitions one crossing away from a cut.

    Starts are drawn from G(n, 1/2). At beta = 1/3 none of the seeded starts
    tried at n <= 16 was free of 1/3-cuts, so such a call ends in the
    "no qualifying graph found" refusal.
    """
    if n > BETA_EXACT_BOUND:
        raise ValueError(f"certified search limited to n <= {BETA_EXACT_BOUND}")
    b = _validate_beta(beta)
    if n < 2:
        raise ValueError(f"cuts need n >= 2, got {n}")
    return _hill_climb(n, _CutFree(b), effort, rng, beta=b)


def estimate_f(n: int, epsilon, effort: int, rng: Stream) -> ExtremalRecord:
    """Hill-climb for a graph far from cograph-hood with few induced 4-paths.

    Farness is certified by the exact edit-distance oracle: a graph
    qualifies when its distance to the nearest cograph is at least
    epsilon * n^2. Thresholds beyond the oracle's cap cannot be certified
    and are refused.
    """
    if n > DISTANCE_N_BOUND:
        raise ValueError(f"certified farness limited to n <= {DISTANCE_N_BOUND}")
    if n < 1:
        raise ValueError(f"farness needs n >= 1, got {n}")
    eps = Fraction(epsilon)
    if eps < 0:
        raise ValueError("epsilon must be >= 0")
    threshold = eps * n * n
    if threshold > DISTANCE_CAP_BOUND + 1:
        raise ValueError(
            f"farness threshold {threshold} exceeds what the distance oracle "
            f"(cap {DISTANCE_CAP_BOUND}) can certify")

    return _hill_climb(n, _FarFromCograph(threshold), effort, rng, epsilon=eps)
