"""Definition-level oracles for `ptlab.verify` and the tests.

Each function answers one definition by brute force and imports nothing
from ptlab, so a fault in the code under test cannot hide in a helper it
shares with its oracle. A graph is its host adjacency rows (`rows[v]` an
int whose set bits are v's neighbours, as in `Graph.rows`) plus, for a
question about part of it, a vertex set in host indexing.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

# by size, the sorted induced degrees of K3, the 4-vertex path and C5, each
# the only graph on its vertices with them
PATTERN_DEGREES = {3: [2, 2, 2], 4: [1, 1, 2, 2], 5: [2] * 5}


def labeled_graphs(n: int) -> Iterator[list[int]]:
    """Rows of every labeled graph on n vertices: graph number `mask` has the
    i-th pair of `combinations(range(n), 2)` exactly when bit i is set."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield rows


def degrees(rows: Sequence[int], vs: Sequence[int]) -> list[int] | None:
    """Sorted degrees of the subgraph induced on vs; None if a vertex repeats (fewer mask bits)."""
    mask = sum([1 << v for v in vs])
    if mask.bit_count() != len(vs):
        return None
    return sorted([(rows[v] & mask).bit_count() for v in vs])


def induces(rows: Sequence[int], vs: Sequence[int]) -> bool:
    """Do the distinct vertices vs induce K3, the 4-vertex path or C5 (by len(vs))?"""
    return len(vs) in PATTERN_DEGREES and degrees(rows, vs) == PATTERN_DEGREES[len(vs)]


def induced_sets(rows: Sequence[int], vs: Iterable[int], k: int) -> list[tuple[int, ...]]:
    """The k-subsets of vs, in `combinations` order, inducing the size-k pattern."""
    return [s for s in combinations(vs, k) if induces(rows, s)]


def complement(rows: Sequence[int], vs: Iterable[int]) -> list[int]:
    """Host-indexed rows of the complement of the subgraph induced on vs, empty outside vs."""
    vs = set(vs)
    mask = sum(1 << v for v in vs)
    return [mask & ~row & ~(1 << v) if v in vs else 0 for v, row in enumerate(rows)]


def reach(rows: Sequence[int], vs: Sequence[int]) -> set[int]:
    """The vertices of vs joined to vs[0] inside vs, by breadth-first search."""
    inside = sum(1 << v for v in vs)
    seen = layer = 1 << vs[0]
    while layer:
        out = 0
        for v in vs:
            if layer >> v & 1:
                out |= rows[v]
        layer = out & inside & ~seen
        seen |= layer
    return {v for v in vs if seen >> v & 1}


def odd_hole(rows: Sequence[int], vs: Sequence[int]) -> bool:
    """Do the distinct vertices vs induce an odd cycle of length >= 5 (connected, degrees 2)?"""
    k = len(vs)
    return k >= 5 and k % 2 == 1 and degrees(rows, vs) == [2] * k and len(reach(rows, vs)) == k


def odd_hole_or_antihole(rows: Sequence[int], vs: Sequence[int]) -> bool:
    return odd_hole(rows, vs) or odd_hole(complement(rows, vs), vs)


def two_colourable(rows: Sequence[int], vs: Iterable[int]) -> bool:
    """Can the subgraph induced on vs be coloured with two colours, no edge inside one
    colour? Depth-first colouring from each uncoloured vertex, testing every pair."""
    vs = list(vs)
    colour: dict[int, int] = {}
    for root in vs:
        if root in colour:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in vs:
                if w != v and rows[v] >> w & 1:
                    if w not in colour:
                        colour[w] = 1 - colour[v]
                        stack.append(w)
                    elif colour[w] == colour[v]:
                        return False
    return True


# --- membership by definition -------------------------------------------------

def triangle_free(rows: Sequence[int], vs: Sequence[int]) -> bool:
    return not induced_sets(rows, vs, 3)


def cograph(rows: Sequence[int], vs: Sequence[int]) -> bool:
    """Is the subgraph induced on vs built from single vertices by disjoint union and
    complement? Cographs are closed under induced subgraphs, so two or more vertices form
    one iff they, or their complement, split into a part with no edges to the rest, and
    both parts are cographs."""
    vs = list(vs)
    if len(vs) < 2:
        return True
    for adjacent in (rows, complement(rows, vs)):
        part = reach(adjacent, vs)
        if len(part) < len(vs):
            return (cograph(rows, [v for v in vs if v in part])
                    and cograph(rows, [v for v in vs if v not in part]))
    return False


def perfect(rows: Sequence[int], vs: Sequence[int]) -> bool:
    """No odd hole or odd antihole inside vs (the strong perfect graph theorem)."""
    return not any(odd_hole_or_antihole(rows, s)
                   for k in range(5, len(vs) + 1, 2) for s in combinations(vs, k))


def transitively_orientable(rows: Sequence[int], vs: Iterable[int]) -> bool:
    """Is the subgraph induced on vs a comparability graph? Complete
    backtracking over its edge orientations, refusing an arc that starts or
    ends a directed 2-path whose ends are not joined, or joined against it."""
    verts = sorted(set(vs))
    edges = [(u, v) for u, v in combinations(verts, 2) if rows[u] >> v & 1]
    out = [0] * len(rows)  # the arc x -> y sets bit y of out[x]

    def can_add(x: int, y: int) -> bool:
        for z in verts:
            if out[y] >> z & 1 and (not rows[x] >> z & 1 or out[z] >> x & 1):
                return False
            if out[z] >> x & 1 and (not rows[z] >> y & 1 or out[y] >> z & 1):
                return False
        return True

    def rec(i: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        for x, y in ((u, v), (v, u)):
            if can_add(x, y):
                out[x] ^= 1 << y
                if rec(i + 1):
                    return True
                out[x] ^= 1 << y
        return False

    return rec(0)


def bipartitions(rows: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(side 1, crossing edges, crossing pairs) of every bipartition into nonempty sides with
    vertex 0 in side 1, by ascending mask of side 1; edges are counted pair by pair."""
    n = len(rows)
    for mask in range(1, (1 << n) - 1, 2):
        ones = [v for v in range(n) if mask >> v & 1]
        cross = sum(rows[a] >> b & 1 for a in ones for b in range(n) if not mask >> b & 1)
        yield tuple(ones), cross, len(ones) * (n - len(ones))
