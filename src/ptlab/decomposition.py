"""Sparse/dense cuts, cut refinement, and exact edit-distance oracles.

A beta-cut is a bipartition whose crossing density is at most beta (sparse)
or at least 1-beta (dense); beta = 0 gives exact cuts. Densities and beta
are compared in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .graphs import Graph, _co_rows, _trusted_graph, component, induced_subgraph, iter_bits
from .recognizers import RecognitionResult
from .rng import Stream

__all__ = [
    "Cut",
    "NotFound",
    "Refinement",
    "AboveCap",
    "find_cut",
    "find_beta_cut",
    "refine_along_cuts",
    "distance_to_property",
    "BETA_EXACT_BOUND",
    "DISTANCE_N_BOUND",
    "DISTANCE_CAP_BOUND",
]

BETA_EXACT_BOUND = 22
DISTANCE_N_BOUND = 10
DISTANCE_CAP_BOUND = 5
_HEURISTIC_RESTARTS = 20


@dataclass(frozen=True)
class Cut:
    """A bipartition with its crossing density and sparse/dense kind.

    `edits` is the number of pair toggles needed to make the cut exact
    (erase the crossing edges if sparse, complete them if dense).
    """

    side1: tuple[int, ...]
    side2: tuple[int, ...]
    kind: str  # "sparse" | "dense"
    crossing_density: Fraction
    edits: int

    def __post_init__(self):
        if not self.side1 or not self.side2:
            raise ValueError("both cut sides must be nonempty")
        if self.kind not in ("sparse", "dense"):
            raise ValueError(f"bad cut kind {self.kind!r}")


@dataclass(frozen=True)
class NotFound:
    """Heuristic search gave up after `effort` restarts; certifies nothing."""

    effort: int

    def __bool__(self) -> bool:
        return False


def _cut(n: int, mask1: int, kind: str, cross: int, prod: int) -> Cut:
    """The cut (mask1, rest) of `kind` with `cross` of its `prod` pairs crossing."""
    return Cut(tuple(iter_bits(mask1)), tuple(iter_bits(((1 << n) - 1) ^ mask1)), kind,
               Fraction(cross, prod), cross if kind == "sparse" else prod - cross)


def _cut_thresholds(n: int, beta: Fraction) -> list[list[int]]:
    """Per side1 size s < n: the largest sparse crossing count, the smallest
    dense one and the pair count prod = s(n-s). In exact integers, cross/prod
    <= beta iff cross <= floor(beta*prod), and cross/prod >= 1-beta iff cross
    >= ceil((1-beta)*prod)."""
    num, den = beta.numerator, beta.denominator
    prods = [s * (n - s) for s in range(n)]
    return [[num * p // den for p in prods], [-(-(den - num) * p // den) for p in prods], prods]


def find_cut(g: Graph) -> Cut | None:
    """Exact (beta = 0) cut: exists iff g or its complement is disconnected.

    Returns the sparse cut off vertex 0's component, or, when g is connected,
    the dense cut off its co-component: no edits, but its side1 need not be
    the least (edge 0-2 plus isolated 1, 3 gives (0, 2), not (0, 1, 2)).
    """
    if g.n < 2:
        raise ValueError(f"cuts need n >= 2, got {g.n}")
    full = (1 << g.n) - 1
    for rows, kind in ((g.rows, "sparse"), (_co_rows(g.rows, full), "dense")):
        comp = component(rows, full)
        if comp != full:
            prod = comp.bit_count() * (g.n - comp.bit_count())
            return _cut(g.n, comp, kind, 0 if kind == "sparse" else prod, prod)
    return None


def _validate_beta(beta) -> Fraction:
    b = Fraction(beta)
    if not 0 <= 2 * b.numerator < b.denominator:
        raise ValueError(f"beta must satisfy 0 <= beta < 1/2, got {beta}")
    return b


def _validate_mode(mode: str, rng: Stream | None) -> None:
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "heuristic" and rng is None:
        raise ValueError("heuristic mode needs an rng stream")


def find_beta_cut(g: Graph, beta, mode: str = "exact",
                  rng: Stream | None = None) -> Union[Cut, None, NotFound]:
    """Find a beta-cut.

    Exact mode (n <= 22) classifies all 2^(n-1) bipartitions in one numpy
    pass over their crossing counts: the answer is a minimum-edit cut (ties
    broken by lexicographically least side1, which always contains vertex 0)
    or a definitive None. Heuristic mode runs randomized local search over
    vertex flips from 20 random starts and returns a cut or NotFound(20),
    which does NOT certify nonexistence. At beta = 0 either mode, at any n,
    returns `find_cut`'s cut: vertex 0's component, or co-component if g is
    connected. The mode, and the heuristic mode's rng, are checked at every beta.
    """
    b = _validate_beta(beta)
    if g.n < 2:
        raise ValueError(f"cuts need n >= 2, got {g.n}")
    _validate_mode(mode, rng)
    if b == 0:
        return find_cut(g)
    if mode == "exact":
        if g.n > BETA_EXACT_BOUND:
            raise ValueError(
                f"exact beta-cut enumeration refused for n={g.n} > {BETA_EXACT_BOUND}")
        return _beta_cut_exact(g, b)
    return _beta_cut_heuristic(g, b, rng)


def _crossings(g: Graph, beta: Fraction) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Crossing counts of all 2^(n-1) - 1 bipartitions, and per bipartition
    the thresholds of its side1 size: (cross, sparse_max, dense_min, prod).
    A bipartition is a sparse beta-cut iff cross <= sparse_max and a dense
    one iff cross >= dense_min; prod is its pair count.

    Index r stands for side1 = {0} | {v : bit v-1 of r}, in the numeric order
    of r. Crossing counts double over vertices 1..n-1: adding v to side1
    changes the count by deg(v) - 2|N(v) & side1|, the intersection size
    read from a popcount table built by the same doubling. Each side1 size
    has exact integer thresholds (the largest sparse count and the smallest
    dense count), so any rational beta classifies every bipartition without
    overflow; all counts stay below n*n <= 484 and fit int16.
    """
    n = g.n
    half = 1 << (n - 1)
    rows = g.rows
    index = np.arange(half, dtype=np.int32)
    minus2pop = np.zeros(half, dtype=np.int16)  # -2 * popcount(r)
    cross = np.empty(half, dtype=np.int16)
    cross[0] = rows[0].bit_count()
    for v in range(1, n):
        h = 1 << (v - 1)
        np.subtract(minus2pop[:h], 2, out=minus2pop[h:2 * h])
        # neighbours of v among 1..v-1, in the bit positions of r
        low = (rows[v] >> 1) & (h - 1)
        np.add(cross[:h], minus2pop[index[:h] & low], out=cross[h:2 * h])
        cross[h:2 * h] += rows[v].bit_count() - 2 * (rows[v] & 1)
    # the last index puts every vertex in side1: not a bipartition
    cross, size = cross[:-1], minus2pop[:-1] // -2 + 1
    sparse_max, dense_min, prod = np.array(_cut_thresholds(n, beta), dtype=np.int16)[:, size]
    return cross, sparse_max, dense_min, prod


def _beta_cut_exact(g: Graph, beta: Fraction) -> Cut | None:
    """Minimum-edit beta-cut over the `_crossings` of all bipartitions, ties
    broken by lexicographically least side1."""
    n = g.n
    cross, sparse_max, dense_min, prod = _crossings(g, beta)
    unfit = n * n  # above every edit count
    edits = np.where(cross <= sparse_max, cross,
                     np.where(cross >= dense_min, prod - cross, unfit))
    best = edits.min()
    if best == unfit:
        return None
    tied = np.flatnonzero(edits == best)
    # lexicographically least side1 tuple, one vertex at a time: the tied
    # candidates agree on every vertex below the one `bit` stands for; one
    # with no vertex from there on is a prefix of all others and wins,
    # otherwise those holding that vertex do
    bit = 1
    while len(tied) > 1 and tied[0] >= bit:
        has = (tied & bit) != 0
        if has.any():
            tied = tied[has]
        bit <<= 1
    r = int(tied[0])
    kind = "sparse" if cross[r] <= sparse_max[r] else "dense"
    return _cut(n, 1 | (r << 1), kind, int(cross[r]), int(prod[r]))


def _beta_cut_heuristic(g: Graph, beta: Fraction, rng: Stream) -> Union[Cut, NotFound]:
    n = g.n
    full = (1 << n) - 1
    sparse_max, dense_min, prods = _cut_thresholds(n, beta)
    for attempt in range(_HEURISTIC_RESTARTS):
        gen = rng.child(attempt).gen
        mask1 = sum(int(b) << v for v, b in enumerate(gen.integers(0, 2, size=n)))
        if mask1 in (0, full):
            mask1 ^= 1  # both sides nonempty
        cross = sum((g.rows[v] & (full ^ mask1)).bit_count() for v in iter_bits(mask1))
        for _ in range(4 * n * n):  # flip budget per restart
            s1 = mask1.bit_count()
            prod = prods[s1]
            kind = ("sparse" if cross <= sparse_max[s1] else
                    "dense" if cross >= dense_min[s1] else None)
            if kind is not None:
                return _cut(n, mask1 if mask1 & 1 else full ^ mask1, kind, cross, prod)
            # objective (float guidance only): crossing density's distance
            # from {0, 1}; the classification above is exact
            score = min(cross / prod, 1 - cross / prod)
            mask2 = full ^ mask1
            moves = []
            for v in range(n):
                vm = 1 << v
                new1 = mask1 ^ vm
                if new1 == 0 or new1 == full:
                    continue
                nprod = prods[new1.bit_count()]
                # v's edges into its own side start crossing, those across stop
                across = (g.rows[v] & (mask2 if vm & mask1 else mask1)).bit_count()
                ncross = cross + g.rows[v].bit_count() - 2 * across
                nscore = min(ncross / nprod, 1 - ncross / nprod)
                if nscore < score:
                    moves.append((nscore, v, ncross))
            if not moves:
                break
            moves.sort()
            tied = [(v, nc) for sc, v, nc in moves if sc == moves[0][0]]
            pick, cross = tied[int(gen.integers(0, len(tied)))]
            mask1 ^= 1 << pick
    return NotFound(_HEURISTIC_RESTARTS)


@dataclass(frozen=True)
class Refinement:
    """Result of repeatedly splitting parts along beta-cuts.

    `modified_graph` has every used cut made exact; `edited_pairs` is the
    Hamming distance between the input's and the modified graph's edge sets.
    In exact mode every final part is certified beta-cut-free; in heuristic
    mode that is best-effort only.
    """

    parts: tuple[tuple[int, ...], ...]
    edited_pairs: int
    modified_graph: Graph
    certified: bool


def refine_along_cuts(g: Graph, beta, mode: str = "exact",
                      rng: Stream | None = None) -> Refinement:
    """Split parts along beta-cuts of their induced subgraphs until none has
    one, editing each used cut to an exact cut (erase crossing edges if
    sparse, complete them if dense). The mode, and the heuristic mode's
    rng, are checked up front, whether or not any part is split."""
    b = _validate_beta(beta)
    _validate_mode(mode, rng)
    rows = list(g.rows)
    edited = 0
    final: list[tuple[int, ...]] = []
    work: list[tuple[int, ...]] = [tuple(range(g.n))]
    certified = mode == "exact" or b == 0
    counter = 0
    while work:
        part = work.pop()
        if len(part) < 2:
            final.append(part)
            continue
        sub = induced_subgraph(g, part)
        counter += 1
        res = find_beta_cut(sub, b, mode=mode,
                            rng=rng.child(counter) if rng is not None else None)
        if not res:
            final.append(part)
            continue
        side1 = tuple(part[i] for i in res.side1)
        side2 = tuple(part[i] for i in res.side2)
        make_edge = res.kind == "dense"
        for u in side1:
            for v in side2:
                has = bool((rows[u] >> v) & 1)
                if has != make_edge:
                    rows[u] ^= 1 << v
                    rows[v] ^= 1 << u
                    edited += 1
        work.append(side1)
        work.append(side2)
    final.sort()
    return Refinement(tuple(final), edited, _trusted_graph(g.n, rows), certified)


@dataclass(frozen=True)
class AboveCap:
    """Edit distance exceeds the search cap (distance > cap)."""

    cap: int


def distance_to_property(g: Graph, recognizer: Callable[[Graph], RecognitionResult],
                         cap: int = DISTANCE_CAP_BOUND) -> Union[int, AboveCap]:
    """Minimum number of pair toggles to reach the property, or AboveCap.

    Iterative deepening on the toggle budget. Branching is witness-driven:
    any edit set reaching a hereditary property must toggle some pair inside
    the recognizer's forbidden-structure witness, so only those pairs are
    tried, each pair at most once along a chain. Failures memoize the best
    budget known insufficient for a graph.
    """
    if g.n > DISTANCE_N_BOUND:
        raise ValueError(f"edit-distance oracle limited to n <= {DISTANCE_N_BOUND}")
    if not 0 <= cap <= DISTANCE_CAP_BOUND:
        raise ValueError(f"edit-distance cap limited to 0..{DISTANCE_CAP_BOUND}, got {cap}")
    failed_at: dict[tuple[int, ...], int] = {}

    def search(h: Graph, budget: int, banned: frozenset) -> bool:
        if failed_at.get(h.rows, -1) >= budget:
            return False
        res = recognizer(h)
        if res.member:
            return True
        if budget == 0:
            failed_at[h.rows] = max(failed_at.get(h.rows, -1), 0)
            return False
        witness = res.witness
        assert witness is not None, "distance search needs witness-producing recognizers"
        for i, u in enumerate(witness):
            for v in witness[i + 1:]:
                pair = (u, v) if u < v else (v, u)
                if pair in banned:
                    continue
                if search(h.with_toggled([pair]), budget - 1, banned | {pair}):
                    return True
        failed_at[h.rows] = max(failed_at.get(h.rows, -1), budget)
        return False

    for k in range(cap + 1):
        if search(g, k, frozenset()):
            return k
    return AboveCap(cap)
