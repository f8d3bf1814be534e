"""Immutable graphs with bitset adjacency rows, counting primitives, and generators.

Vertices are dense indices 0..n-1. Each adjacency row is a Python int used
as a bitset, so adjacency tests, neighborhood intersections, and popcounts
are single word-parallel operations.

Path-counting convention: `count_induced_p3` counts induced paths with
three edges (four vertices), indexing paths by edge count.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .rng import Stream

__all__ = [
    "Graph",
    "Digraph",
    "PartLabeling",
    "complement",
    "induced_subgraph",
    "count_triangles",
    "count_induced_p3",
    "count_induced_c5",
    "component",
    "sample_vertices",
    "gnp",
    "random_cograph",
    "flip_pairs",
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "iter_bits",
    "pair_count",
    "pair_from_index",
    "C5_EXACT_BOUND",
]

# Exact induced-C5 counting is refused above this vertex count; use the
# sampling estimator in ptlab.testers instead.
C5_EXACT_BOUND = 64


def _as_int(x) -> int:
    """`x` as a plain int; bools, which `operator.index` reads as 0 and 1, are refused."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


def _vertex_count(n) -> int:
    """n as a plain int (`_as_int`), refused below 0."""
    n = _as_int(n)
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    return n


def _checked_rows(n, rows: Sequence, kind: str, loop: str) -> tuple[int, tuple[int, ...]]:
    """n and the rows as plain ints (`_vertex_count`, `_as_int`), one row per
    vertex, each inside 0..n-1 and without its own vertex's bit (a `loop`)."""
    n = _vertex_count(n)
    if len(rows) != n:
        raise ValueError(f"expected {n} {kind} rows, got {len(rows)}")
    rows = tuple(map(_as_int, rows))
    for u, row in enumerate(rows):
        if row < 0 or row >> n:
            raise ValueError(f"row {u} has bits outside 0..{n - 1}")
        if (row >> u) & 1:
            raise ValueError(f"{loop} at vertex {u}")
    return n, rows


def _checked_pairs(n: int, pairs: Iterable, pair: str, loop: str) -> Iterator[tuple[int, int]]:
    """The one check of caller pairs: each (u, v) as plain ints (`_as_int`),
    refused outside 0..n-1 or as a loop, the message led by `pair` or `loop`."""
    for u, v in pairs:
        u, v = _as_int(u), _as_int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{pair} ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"{loop} ({u},{v})")
        yield u, v


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph; immutable after construction.

    Caller input is checked once, where it enters: `Graph(n, rows)` and
    unpickling validate the rows (integers, numpy ints too; floats, strings
    and bools refused; in range, loop-free, symmetric), and `from_edges` and
    `with_toggled` check the caller's pairs (`_checked_pairs`) and set both
    bits themselves. Graphs built from checked pairs or derived from a valid
    graph (`induced_subgraph`, `complement`, cut refinement, tripartite
    extraction) skip the O(m) symmetry pass.
    """

    __slots__ = ("n", "rows", "_m")

    def __init__(self, n: int, rows: Sequence[int]):
        n, rows = _checked_rows(n, rows, "adjacency", "self-loop")
        for u, row in enumerate(rows):
            for v in iter_bits(row):
                if not (rows[v] >> u) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.rows = rows
        self._m = sum(r.bit_count() for r in rows) // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        n = _vertex_count(n)
        rows = [0] * n
        for u, v in _checked_pairs(n, edges, "edge", "self-loop"):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return _trusted_graph(n, rows)

    @property
    def m(self) -> int:
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographic."""
        for u in range(self.n):
            for v in iter_bits(self.rows[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def with_toggled(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with each listed pair's edge/non-edge status flipped."""
        n = self.n
        rows = list(self.rows)
        for u, v in _checked_pairs(n, pairs, "cannot toggle pair", "cannot toggle self-pair"):
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        return _trusted_graph(n, rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # pickling support (rows are validated again on rebuild; cheap at desk scale)
    def __reduce__(self):
        return (Graph, (self.n, self.rows))


def _trusted_graph(n: int, rows: Sequence[int]) -> Graph:
    """Graph from rows that are valid by construction (Python ints, in
    range, loop-free, symmetric), skipping `Graph.__init__`'s check."""
    g = object.__new__(Graph)
    g.n = n
    g.rows = rows = tuple(rows)
    g._m = sum(r.bit_count() for r in rows) // 2
    return g


class Digraph:
    """Directed graph; row(u) holds the out-neighbors of u. No self-arcs.

    Antiparallel arc pairs are representable; whether they are legal is the
    poset recognizer's business, not the type's.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int]):
        self.n, self.rows = _checked_rows(n, rows, "arc", "self-arc")

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        rows = [0] * n
        for u, v in _checked_pairs(n, arcs, "arc", "self-arc"):
            rows[u] |= 1 << v
        return cls(n, rows)

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.rows[u]):
                yield (u, v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Digraph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(("digraph", self.n, self.rows))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"

    def __reduce__(self):
        return (Digraph, (self.n, self.rows))


@dataclass(frozen=True)
class PartLabeling:
    """Named, disjoint, possibly empty vertex parts covering 0..n-1, in a
    fixed order. `n` and the vertices are stored as plain ints (bools refused).

    The part order is meaningful: it defines the linear order used by
    order-transitivity checks (all of part i before all of part j for i<j).
    """

    n: int
    names: tuple[str, ...]
    parts: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, named_parts: Sequence[tuple[str, Iterable[int]]]):
        n = _as_int(n)
        names = tuple(name for name, _ in named_parts)
        parts = tuple(tuple(sorted(set(map(_as_int, vs)))) for _, vs in named_parts)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate part names in {names}")
        seen = 0
        for name, part in zip(names, parts):
            for v in part:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} out of range in part {name}")
                if (seen >> v) & 1:
                    raise ValueError(f"vertex {v} appears in two parts")
                seen |= 1 << v
        if seen != (1 << n) - 1:
            missing = [v for v in range(n) if not (seen >> v) & 1]
            raise ValueError(f"parts do not cover all vertices; missing {missing}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "parts", parts)

    def part(self, name: str) -> tuple[int, ...]:
        return self.parts[self.names.index(name)]

    def part_mask(self, name: str) -> int:
        return sum(1 << v for v in self.part(name))

    def relabel(self, names: Sequence[str]) -> "PartLabeling":
        """Same parts under new names (e.g. X,Y,Z -> V2,V3,V5)."""
        if len(names) != len(self.parts):
            raise ValueError(f"need {len(self.parts)} names, got {len(names)}")
        return PartLabeling(self.n, list(zip(names, self.parts)))


def _co_rows(rows: Sequence[int], mask: int) -> dict[int, int]:
    """Complement rows inside `mask`, for the vertices of `mask` in ascending order."""
    return {v: (mask & ~rows[v]) ^ (1 << v) for v in iter_bits(mask)}


def complement(g: Graph) -> Graph:
    return _trusted_graph(g.n, _co_rows(g.rows, (1 << g.n) - 1).values())


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on `vertices`, reindexed in ascending vertex order.

    Numpy integers are taken as ints (so `1 << v` cannot overflow); floats
    and booleans are refused."""
    vs = sorted(set(map(_as_int, vertices)))
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        raise ValueError(f"vertex set {vs[:8]}... out of range for n={g.n}")
    bit = {1 << v: 1 << i for i, v in enumerate(vs)}  # host bit -> new bit
    mask = sum(bit)  # the kept host bits
    rows = []
    for v in vs:
        row, new = g.rows[v] & mask, 0
        while row:
            low = row & -row
            new |= bit[low]
            row ^= low
        rows.append(new)
    return _trusted_graph(len(rows), rows)


def component(rows: Sequence[int], mask: int) -> int:
    """The connected component of the lowest vertex of `mask` in the
    subgraph induced on `mask`, as a mask (0 for an empty mask)."""
    comp = frontier = mask & -mask
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow |= rows[low.bit_length() - 1]
        frontier = grow & mask & ~comp
        comp |= frontier
    return comp


def _triangle_fans(rows: Sequence[int], mask: int) -> Iterator[tuple[int, int, int]]:
    """(u, v, ws) for each edge u < v of `mask`, lexicographic, whose common
    neighbors above v (the mask ws) are nonempty: each triangle is one bit of
    one ws, and the first fan's lowest bit closes the least triangle."""
    for u in iter_bits(mask):
        above = rows[u] & mask & (-1 << (u + 1))  # u's neighbors above v, as v rises
        while above:
            low = above & -above
            above ^= low
            v = low.bit_length() - 1
            ws = above & rows[v]
            if ws:
                yield u, v, ws


def count_triangles(g: Graph) -> int:
    """Number of vertex triples inducing K3 (row-intersection popcounts)."""
    return sum(ws.bit_count() for _, _, ws in _triangle_fans(g.rows, (1 << g.n) - 1))


def _p4_fans(rows: Sequence[int], mask: int) -> Iterator[tuple[int, int, int, int]]:
    """(a, u, v, ds) for each middle edge u < v of `mask`, lexicographic, and
    end a ~ u, a !~ v, ascending, whose far ends ds (d ~ v, d !~ u, d !~ a)
    are nonempty: each induced 4-path a-u-v-d is one bit of one ds."""
    for u in iter_bits(mask):
        ru = rows[u] & mask
        for v in iter_bits(ru & (-1 << (u + 1))):
            rv = rows[v] & mask
            d_side = rv & ~ru & ~(1 << u)
            for a in iter_bits(ru & ~rv & ~(1 << v)):
                ds = d_side & ~rows[a]
                if ds:
                    yield a, u, v, ds


def count_induced_p3(g: Graph) -> int:
    """Number of 4-vertex subsets inducing a path with three edges (`_p4_fans`)."""
    return sum(fan[3].bit_count() for fan in _p4_fans(g.rows, (1 << g.n) - 1))


def _p4_delta(rows: Sequence[int], u: int, v: int) -> int:
    """Change in the induced-P4 count when the pair (u, v) is toggled.

    Only 4-sets holding both u and v change. With A = N(u) minus N(v),
    B = N(v) minus N(u), C = N(u) & N(v) and R the vertices adjacent to
    neither (u and v left out of all four), those 4-sets induce:
    - with u~v: x-u-v-y for x in A, y in B, x !~ y (uv the middle edge), or
      u-v-x-y / v-u-x-y for x in B resp. A and y in N(x) & R (uv an end edge);
    - with u !~ v: u-x-y-v for x in A, y in B, x ~ y (u and v the ends), or
      y-u-x-v / u-x-v-y for x in C and y in A resp. B outside N(x) (u and v
      at distance two).
    The toggle trades one family for the other.
    """
    ru, rv = rows[u], rows[v]
    others = ((1 << len(rows)) - 1) ^ (1 << u) ^ (1 << v)
    a, b = ru & ~rv & others, rv & ~ru & others
    ab = a | b
    rest = others & ~ru & ~rv
    # P4s through the edge uv minus those through the non-edge
    gain = a.bit_count() * b.bit_count()
    for x in iter_bits(ab):
        gain += (rows[x] & rest).bit_count()
    for x in iter_bits(a):
        gain -= 2 * (rows[x] & b).bit_count()
    for x in iter_bits(ru & rv):
        gain -= (ab & ~rows[x]).bit_count()
    return -gain if (ru >> v) & 1 else gain


def count_induced_c5(g: Graph) -> int:
    """Number of 5-vertex subsets inducing a 5-cycle. Exact; refuses large n.

    Canonical enumeration: v0 is the cycle's minimum vertex, its two cycle
    neighbors v1 < v4, then v2 ~ v1 and v3 ~ v2,v4 subject to the C5
    non-adjacency pattern, so each copy is generated exactly once.
    """
    if g.n > C5_EXACT_BOUND:
        raise ValueError(
            f"exact induced-C5 count refused for n={g.n} > {C5_EXACT_BOUND}; "
            "use the sampling estimator")
    return sum(fan[4].bit_count() for fan in _induced_c5_fans(g.rows, (1 << g.n) - 1))


def _induced_c5_fans(rows: Sequence[int], mask: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Canonical induced-5-cycle enumeration inside `mask`, grouped by the last vertex.

    Yields (v0, v1, v2, v4, v3s) for every path v1-v0-v4 with v0 the
    cycle's minimum vertex and v1 < v4, and every v2 extending it, whose
    closing set v3s (vertices adjacent to v2 and v4 that complete an induced
    5-cycle) is nonempty. Each induced 5-cycle is one bit of one v3s. The
    closers N(v4) outside N(v0) and N(v1), above v0, are computed once per
    pair (v1, v4), which is skipped when it has none.
    """
    for v0 in iter_bits(mask):
        above = mask >> (v0 + 1) << (v0 + 1)
        nbrs = rows[v0] & above
        out0 = above ^ nbrs  # above v0, outside N[v0]
        while nbrs:
            low1 = nbrs & -nbrs
            nbrs ^= low1  # now v0's neighbors above v1
            v1 = low1.bit_length() - 1
            r1 = rows[v1]
            out01 = out0 ^ (out0 & r1)
            v2_side = r1 & out0
            v4s = nbrs ^ (nbrs & r1)
            while v4s:
                low4 = v4s & -v4s
                v4s ^= low4
                v4 = low4.bit_length() - 1
                r4 = rows[v4]
                closing = r4 & out01
                if not closing:
                    continue
                v2s = v2_side ^ (v2_side & r4)
                while v2s:
                    low2 = v2s & -v2s
                    v2s ^= low2
                    v2 = low2.bit_length() - 1
                    v3s = rows[v2] & closing
                    if v3s:
                        yield v0, v1, v2, v4, v3s


def sample_vertices(n: int, d: int, rng: Stream) -> tuple[int, ...]:
    """Uniform d-subset of 0..n-1, without replacement, sorted.

    Draws k = min(d, n - d) vertices in O(k): the first k distinct values of
    a sequence of uniform vertices, each a raw 64-bit word w taken as
    w mod n and kept only below the largest multiple of n (so exactly
    uniform, with no float scaling). Those k distinct values form a uniform
    k-subset; for d > n/2 the sample is its complement.
    """
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    k = min(d, n - d)
    seen: set[int] = set()
    if k:
        bitgen = rng.gen.bit_generator
        limit = (1 << 64) - (1 << 64) % n
        while len(seen) < k:
            # twice the shortfall, so one block nearly always suffices
            for w in bitgen.random_raw(2 * (k - len(seen))).tolist():
                if w < limit:
                    seen.add(w % n)
                    if len(seen) == k:
                        break
    if k < d:
        return tuple(v for v in range(n) if v not in seen)
    return tuple(sorted(seen))


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_from_index(n: int, idx: int) -> tuple[int, int]:
    """Unrank a pair index in lexicographic order of (u, v), u < v."""
    u = 0
    remaining = idx
    row = n - 1
    while remaining >= row:
        remaining -= row
        u += 1
        row -= 1
    return (u, u + 1 + remaining)


def gnp(n: int, p: float, rng: Stream) -> Graph:
    """Erdos-Renyi G(n, p): each pair independently an edge with probability p."""
    n = _vertex_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    if p == 0.0:
        return empty_graph(n)
    if p == 1.0:
        return complete_graph(n)
    draws = rng.gen.random(pair_count(n))
    rows = [0] * n
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if draws[idx] < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            idx += 1
    return _trusted_graph(n, rows)


def random_cograph(n: int, rng: Stream) -> Graph:
    """Random cograph: a random cotree of disjoint unions and joins.

    Recursively splits the vertex range at a uniform point and combines the
    halves by disjoint union or join, chosen by fair coin. Every output is a
    cograph by construction (single vertices closed under union/join).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gen = rng.gen

    def build(size: int) -> list[int]:
        if size == 1:
            return [0]
        left_size = int(gen.integers(1, size))
        left = build(left_size)
        right = build(size - left_size)
        rows = [r for r in left] + [r << left_size for r in right]
        if int(gen.integers(0, 2)) == 0:  # join
            left_mask = (1 << left_size) - 1
            right_mask = ((1 << (size - left_size)) - 1) << left_size
            for v in range(left_size):
                rows[v] |= right_mask
            for v in range(left_size, size):
                rows[v] |= left_mask
        return rows

    return Graph(n, build(n))


def flip_pairs(g: Graph, k: int, rng: Stream) -> Graph:
    """Toggle k distinct uniformly chosen vertex pairs of g."""
    total = pair_count(g.n)
    if not 0 <= k <= total:
        raise ValueError(f"need 0 <= k <= C(n,2)={total}, got {k}")
    if k == 0:
        return g
    picks = rng.gen.choice(total, size=k, replace=False)
    return g.with_toggled(pair_from_index(g.n, int(i)) for i in picks)


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << v) for v in range(n)])


def path_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges), 0-1-2-...-(n-1)."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs >= 3 vertices, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def _induces_c5(rows: Sequence[int], mask: int) -> bool:
    """Do the vertices of `mask` induce a 5-cycle? Five vertices each with two
    neighbors among them are one 5-cycle (no C3 + C2 split exists)."""
    return mask.bit_count() == 5 and all((rows[v] & mask).bit_count() == 2
                                         for v in iter_bits(mask))
