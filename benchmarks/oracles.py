"""Independent oracles for the benchmark's output checks.

Nothing here imports ptlab. A graph is given as `(n, rows)`, where
`rows[v]` is an int whose set bits are v's neighbours (the data layout of
`ptlab.Graph.rows`); everything else is recomputed from the edge list by
brute force over vertex subsets, bipartitions, toggle sets or
orientations, so a fault in ptlab's algorithms cannot hide in a shared
helper.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def adjacency(n: int, rows) -> list[set[int]]:
    """Neighbour sets read off bitset rows, bit by bit."""
    return [{w for w in range(n) if (rows[v] >> w) & 1} for v in range(n)]


def edge_list(n: int, rows) -> list[tuple[int, int]]:
    adj = adjacency(n, rows)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if v in adj[u]]


def toggled(n: int, rows, pairs) -> list[int]:
    out = list(rows)
    for u, v in pairs:
        out[u] ^= 1 << v
        out[v] ^= 1 << u
    return out


# --- counts over vertex subsets ---------------------------------------------

def triangles(n: int, rows) -> list[tuple[int, int, int]]:
    """Every vertex triple spanning three edges."""
    adj = adjacency(n, rows)
    return [(a, b, c) for a, b, c in combinations(range(n), 3)
            if b in adj[a] and c in adj[a] and c in adj[b]]


def _is_p4(adj, quad) -> bool:
    degs = sorted(sum(1 for w in quad if w != v and w in adj[v]) for v in quad)
    return degs == [1, 1, 2, 2]


def induced_p4_count(n: int, rows) -> int:
    """4-vertex subsets inducing a path with three edges (degrees 1,1,2,2;
    three edges on four vertices with that degree sequence is always P4)."""
    adj = adjacency(n, rows)
    return sum(1 for quad in combinations(range(n), 4) if _is_p4(adj, quad))


def induces_c5(n: int, rows, five) -> bool:
    """Five vertices, each with exactly two neighbours among them, connected."""
    vs = set(five)
    if len(vs) != 5 or not all(0 <= v < n for v in vs):
        return False
    adj = {v: {w for w in vs if (rows[v] >> w) & 1} for v in vs}
    if any(len(adj[v]) != 2 or v in adj[v] for v in vs):
        return False
    seen, todo = set(), [next(iter(vs))]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(adj[v])
    return seen == vs


# --- membership by definition ------------------------------------------------

def _has_odd_hole(adj, n: int) -> bool:
    """An induced chordless cycle of odd length >= 5, over vertex subsets."""
    for size in range(5, n + 1, 2):
        for vs in combinations(range(n), size):
            s = set(vs)
            if any(len(adj[v] & s) != 2 for v in vs):
                continue
            seen, todo = set(), [vs[0]]
            while todo:
                v = todo.pop()
                if v not in seen:
                    seen.add(v)
                    todo.extend(adj[v] & s)
            if len(seen) == size:
                return True
    return False


def _transitively_orientable(n: int, edges) -> bool:
    """Backtracking over edge orientations; rejects a partial orientation as
    soon as a directed 2-path a->b->c lacks the arc a->c."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    out = [set() for _ in range(n)]
    inn = [set() for _ in range(n)]

    def consistent(a: int, b: int) -> bool:
        # prune on the new arc a->b as first or second leg of a directed
        # 2-path; `closed` re-checks the complete orientation
        for c in out[b]:
            if c == a or c not in adj[a] or a in out[c]:
                return False
        for z in inn[a]:
            if z == b or b not in adj[z] or z in out[b]:
                return False
        return True

    def closed() -> bool:
        for a in range(n):
            for b in out[a]:
                for c in out[b]:
                    if c not in out[a]:
                        return False
        return True

    def rec(i: int) -> bool:
        if i == len(edges):
            return closed()
        u, v = edges[i]
        choices = ((u, v), (v, u)) if i else ((u, v),)  # reversal symmetry
        for a, b in choices:
            if consistent(a, b):
                out[a].add(b)
                inn[b].add(a)
                if rec(i + 1):
                    return True
                out[a].discard(b)
                inn[b].discard(a)
        return False

    return rec(0)


def member(prop: str, n: int, rows) -> bool:
    """Membership by definition: triangle-free (no triangle), cograph (no
    induced P4), perfect (no odd hole or odd antihole), comparability (a
    transitive orientation exists)."""
    if prop == "triangle-free":
        return not triangles(n, rows)
    if prop == "cograph":
        return induced_p4_count(n, rows) == 0
    if prop == "perfect":
        full = (1 << n) - 1
        co = [(full ^ rows[v]) & ~(1 << v) for v in range(n)]
        return not (_has_odd_hole(adjacency(n, rows), n)
                    or _has_odd_hole(adjacency(n, co), n))
    if prop == "comparability":
        return _transitively_orientable(n, edge_list(n, rows))
    raise ValueError(f"no oracle for property {prop!r}")


def toggle_distance_at_least(prop: str, n: int, rows, k: int) -> bool:
    """True iff no set of fewer than k pair toggles reaches the property."""
    pairs = list(combinations(range(n), 2))
    for size in range(k):
        for chosen in combinations(pairs, size):
            if member(prop, n, toggled(n, rows, chosen)):
                return False
    return True


def toggle_distance_reaches(prop: str, n: int, rows, k: int) -> bool:
    """True iff some set of exactly k pair toggles reaches the property."""
    pairs = list(combinations(range(n), 2))
    return any(member(prop, n, toggled(n, rows, chosen))
               for chosen in combinations(pairs, k))


# --- cuts --------------------------------------------------------------------

def has_beta_cut(n: int, rows, beta: Fraction) -> bool:
    """Some bipartition has crossing density <= beta or >= 1 - beta, by
    integer enumeration of all 2^(n-1) - 1 bipartitions (side of vertex 0
    fixed)."""
    edges = edge_list(n, rows)
    num, den = beta.numerator, beta.denominator
    for code in range(1 << (n - 1)):
        side = (code << 1) | 1
        s1 = bin(side).count("1")
        if s1 == n:
            continue
        prod = s1 * (n - s1)
        cross = sum(1 for u, v in edges if ((side >> u) & 1) != ((side >> v) & 1))
        if cross * den <= num * prod or cross * den >= (den - num) * prod:
            return True
    return False


# --- packings, covers, sets -------------------------------------------------

def _tri_edges(t) -> set[frozenset]:
    a, b, c = t
    return {frozenset((a, b)), frozenset((b, c)), frozenset((a, c))}


def packing_error(n: int, rows, tuples) -> str | None:
    """Why `tuples` is not a family of edge-disjoint triangles, or None."""
    tri = set(triangles(n, rows))
    used: set[frozenset] = set()
    for t in tuples:
        key = tuple(sorted(t))
        if key not in tri:
            return f"{t} is not a triangle"
        es = _tri_edges(key)
        if es & used:
            return f"{t} shares an edge with an earlier triangle"
        used |= es
    return None


def cover_error(n: int, rows, cover) -> str | None:
    """Why deleting `cover` does not leave n, rows triangle-free, or None."""
    adj = adjacency(n, rows)
    for u, v in cover:
        if v not in adj[u]:
            return f"cover pair {(u, v)} is not an edge"
    rest = toggled(n, rows, cover)
    left = triangles(n, rest)
    return f"triangle {left[0]} survives the cover" if left else None


def max_packing_size(n: int, rows, limit: int = 200_000) -> int | None:
    """Maximum number of edge-disjoint triangles by include/exclude
    recursion over the triangle list; None when more than `limit` nodes
    would be needed."""
    tris = [_tri_edges(t) for t in triangles(n, rows)]
    nodes = 0

    def rec(i: int, used: frozenset) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise OverflowError
        if i == len(tris):
            return 0
        best = rec(i + 1, used)
        if not tris[i] & used:
            best = max(best, 1 + rec(i + 1, used | tris[i]))
        return best

    try:
        return rec(0, frozenset())
    except OverflowError:
        return None


def cover_exists(n: int, rows, size: int, limit: int = 100_000) -> bool | None:
    """Whether some set of `size` edges meets every triangle, over all
    such edge sets; None when there are more than `limit` of them."""
    tris = [_tri_edges(t) for t in triangles(n, rows)]
    edges = sorted({e for t in tris for e in t}, key=sorted)
    count = 1
    for i in range(size):
        count = count * (len(edges) - i) // (i + 1)
    if count > limit:
        return None
    return any(all(t & set(chosen) for t in tris)
               for chosen in combinations(edges, size))


def three_ap(elements) -> tuple[int, int, int] | None:
    """A 3-term arithmetic progression a < b < c (c - b = b - a) inside the
    set, or None."""
    s = set(elements)
    for a, b in combinations(sorted(s), 2):
        if 2 * b - a in s:
            return (a, b, 2 * b - a)
    return None
