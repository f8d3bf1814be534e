"""Edge-disjoint triangle packings, triangle edge covers, and witness packings.

A witness packing certifies a farness lower bound: its tuples induce the
forbidden structure (triangles, or induced 5-cycles), and one rule limits
their overlap for both kinds: no vertex pair lies in two tuples, so two
tuples share at most one vertex and one pair edit destroys at most one
tuple. For triangles that is edge-disjointness.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import inf
from typing import ClassVar, Iterable, Sequence

from .graphs import Graph, PartLabeling, _trusted_graph, _triangle_fans, iter_bits
from .rng import Stream, _as_int

__all__ = [
    "PackingError",
    "WitnessPacking",
    "triangles_of",
    "triangle_packing",
    "triangle_cover",
    "exact_affordable",
    "greedy_c5_packing",
    "farness_lower_bound",
    "random_tripartite_extract",
    "tripartition_retention_samples",
    "TRIANGLE_EXACT_MAX_TRIANGLES",
    "TRIANGLE_EXACT_MAX_N",
]

TRIANGLE_EXACT_MAX_TRIANGLES = 10_000
TRIANGLE_EXACT_MAX_N = 14


class PackingError(ValueError):
    """A packing failed verification or construction."""


@dataclass(frozen=True)
class WitnessPacking:
    """A list of vertex tuples certifying a farness lower bound.

    kind "triangle": 3-tuples, each a triangle; kind "inducedC5": 5-tuples,
    each an induced 5-cycle. Under either kind two tuples share at most one
    vertex. Vertices and host_n must be integers (numpy ints included, bools
    refused). `verified` is no constructor argument: only `verified_in` sets
    it, on the copy it returns, so a packing that says it is verified was
    checked in a host.
    """

    # kind -> (tuple size, the shape each tuple must have, what two tuples
    # sharing two vertices share)
    _KINDS: ClassVar[dict[str, tuple[int, str, str]]] = {
        "triangle": (3, "a triangle", "an edge"),
        "inducedC5": (5, "an induced 5-cycle", "two vertices"),
    }

    kind: str
    tuples: tuple[tuple[int, ...], ...]
    host_n: int
    verified: bool = field(default=False, init=False)

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown packing kind {self.kind!r}")
        object.__setattr__(self, "host_n", _as_int(self.host_n))
        object.__setattr__(self, "tuples", tuple(tuple(map(_as_int, t)) for t in self.tuples))
        size = self._KINDS[self.kind][0]
        for t in self.tuples:
            if len(t) != size or len(set(t)) != size:
                raise ValueError(f"{self.kind} tuple {t} must have {size} distinct vertices")
            if min(t) < 0 or max(t) >= self.host_n:
                raise ValueError(f"tuple {t} out of range for host_n={self.host_n}")

    def __len__(self) -> int:
        return len(self.tuples)

    def verified_in(self, g: Graph) -> "WitnessPacking":
        """Re-verify every tuple's shape and the pairwise overlap rule in `g`.

        Every vertex of a tuple has exactly two neighbours inside it: on 3
        or 5 distinct vertices that is one triangle or one induced 5-cycle.
        Any two tuples' vertex masks share at most one bit.
        """
        if g.n != self.host_n:
            raise PackingError(f"host has {g.n} vertices, packing says {self.host_n}")
        _, shape, shared = self._KINDS[self.kind]
        masks = [sum(1 << v for v in t) for t in self.tuples]
        for t, mask in zip(self.tuples, masks):
            if any((g.rows[v] & mask).bit_count() != 2 for v in t):
                raise PackingError(f"tuple {t} is not {shape}")
        for i, mask in enumerate(masks):
            for j in range(i + 1, len(masks)):
                if (mask & masks[j]).bit_count() > 1:
                    raise PackingError(f"tuples {i} and {j} share {shared}")
        checked = copy(self)
        object.__setattr__(checked, "verified", True)
        return checked

    def to_json(self) -> dict:
        return {"kind": self.kind, "tuples": [list(t) for t in self.tuples],
                "host_n": self.host_n, "verified": self.verified}

    @classmethod
    def from_json(cls, data: dict) -> "WitnessPacking":
        """The packing a sidecar describes, unverified whatever the file
        claims: only `verified_in` a host makes it a certificate."""
        return cls(data["kind"], data["tuples"], data["host_n"])


def triangles_of(g: Graph) -> list[tuple[int, int, int]]:
    """All triangles (u, v, w) with u < v < w, lexicographic."""
    return [(u, v, w) for u, v, ws in _triangle_fans(g.rows, (1 << g.n) - 1)
            for w in iter_bits(ws)]


def _pack_greedily(hits: Iterable[Sequence[int]], target: float = inf
                   ) -> list[tuple[int, ...]]:
    """The greedy witness packing: each hit, sorted, in the order offered,
    kept when none of its vertex pairs lies in a hit already kept, until
    `target` are kept (no hit is read after that)."""
    chosen: list[tuple[int, ...]] = []
    used: set[tuple[int, int]] = set()
    hits = iter(hits)
    while len(chosen) < target and (hit := next(hits, None)) is not None:
        hit = tuple(sorted(hit))
        pairs = list(combinations(hit, 2))
        if used.isdisjoint(pairs):
            used.update(pairs)
            chosen.append(hit)
    return chosen


def exact_affordable(g: Graph, tris: Sequence) -> bool:
    """Whether the exact packing and cover searches take g: at most
    TRIANGLE_EXACT_MAX_N vertices and TRIANGLE_EXACT_MAX_TRIANGLES triangles."""
    return g.n <= TRIANGLE_EXACT_MAX_N and len(tris) <= TRIANGLE_EXACT_MAX_TRIANGLES


def _exact_index(g: Graph, tris: Sequence[tuple[int, int, int]]
                 ) -> tuple[list[int], dict[tuple[int, int], int], list[int], list[int]]:
    """Refuse an unaffordable exact search, then index the triangles' edges.

    Returns per-triangle edge bitmasks, the edge index, hit[e] (the mask of
    triangles through edge bit e) and disjoint[i] (the mask of triangles
    edge-disjoint from triangle i; its bits above the last triangle are set
    too, so it is negative and only ever ANDed).
    """
    if not exact_affordable(g, tris):
        raise ValueError(
            f"exact mode limited to n <= {TRIANGLE_EXACT_MAX_N} and "
            f"{TRIANGLE_EXACT_MAX_TRIANGLES} triangles, got n={g.n} with "
            f"{len(tris)} triangles")
    # the triangles are sorted, so each edge is keyed as a (low, high) pair
    index: dict[tuple[int, int], int] = {}
    masks = []
    for a, b, c in tris:
        mask = 0
        for e in ((a, b), (b, c), (a, c)):
            mask |= 1 << index.setdefault(e, len(index))
        masks.append(mask)
    hit = [0] * len(index)
    for i, m in enumerate(masks):
        for b in iter_bits(m):
            hit[b] |= 1 << i
    disjoint = []
    for m in masks:
        c = 0
        for b in iter_bits(m):
            c |= hit[b]
        disjoint.append(~c)
    return masks, index, hit, disjoint


def _greedy(avail: int, disjoint: Sequence[int]) -> int:
    """The mask of a maximal edge-disjoint packing of the triangles in
    `avail`, picking the lowest-index triangle first."""
    picked = 0
    while avail:
        low = avail & -avail
        picked |= low
        avail &= disjoint[low.bit_length() - 1]
    return picked


def triangle_packing(g: Graph, mode: str = "exact",
                     rng: Stream | None = None) -> WitnessPacking:
    """Maximum (exact) or maximal (greedy) family of edge-disjoint triangles.

    Exact mode is branch-and-bound over the lexicographic triangle list with
    a compatible-remainder bound; greedy scans lexicographically, or in a
    random order when a stream is supplied, and lower-bounds the maximum.
    """
    tris = triangles_of(g)
    if mode == "greedy":
        if rng is not None:
            rng.gen.shuffle(tris)
        return WitnessPacking("triangle", tuple(sorted(_pack_greedily(tris))), g.n).verified_in(g)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    emasks, _, hit, disjoint = _exact_index(g, tris)
    full = (1 << len(tris)) - 1
    best_set = list(iter_bits(_greedy(full, disjoint)))  # seed for early pruning
    chosen: list[int] = []

    # branch on the lowest edge still usable: either one of its triangles is
    # in the packing, or none is; bound remaining picks by available
    # triangles and by spanned edges / 3
    def dfs(avail: int) -> None:
        nonlocal best_set
        if not avail:
            if len(chosen) > len(best_set):
                best_set = chosen.copy()
            return
        count = 0
        edges = 0
        a = avail
        while a:
            low = a & -a
            count += 1
            edges |= emasks[low.bit_length() - 1]
            a ^= low
        if len(chosen) + min(count, edges.bit_count() // 3) <= len(best_set):
            return
        e = (edges & -edges).bit_length() - 1
        through = hit[e] & avail
        for t in iter_bits(through):
            chosen.append(t)
            dfs(avail & disjoint[t])
            chosen.pop()
        dfs(avail & ~through)

    dfs(full)
    best_set.sort()
    return WitnessPacking("triangle", tuple(tris[i] for i in best_set), g.n).verified_in(g)


def triangle_cover(g: Graph, mode: str = "exact") -> tuple[tuple[int, int], ...]:
    """A minimum set of edges covering every triangle ("exact", the only mode):
    branch-and-bound over an uncovered triangle's three edges, lower-bounded
    by a greedy edge-disjoint packing of the uncovered triangles."""
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    tris = triangles_of(g)
    if not tris:
        return ()
    _, index, hit, disjoint = _exact_index(g, tris)
    edge_of_bit = {i: e for e, i in index.items()}
    tri_edges = [[index[(a, b)], index[(b, c)], index[(a, c)]] for a, b, c in tris]
    full = (1 << len(tris)) - 1
    # initial feasible cover: all edges of a maximal greedy packing
    best = [e for i in iter_bits(_greedy(full, disjoint)) for e in tri_edges[i]]
    chosen: list[int] = []

    def dfs(uncovered: int) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = chosen.copy()
            return
        if len(chosen) + _greedy(uncovered, disjoint).bit_count() >= len(best):
            return
        target = (uncovered & -uncovered).bit_length() - 1
        for e in tri_edges[target]:
            chosen.append(e)
            dfs(uncovered & ~hit[e])
            chosen.pop()

    dfs(full)
    return tuple(sorted(edge_of_bit[e] for e in best))


def _require_verified_triangles(packing: WitnessPacking) -> None:
    if packing.kind != "triangle" or not packing.verified:
        raise PackingError("need a verified triangle packing of the host")


def greedy_c5_packing(gadget: Graph, labeling: PartLabeling,
                      planted: WitnessPacking) -> WitnessPacking:
    """Extend each planted triangle (a verified triangle packing of the inner
    tripartite graph) to an induced 5-cycle using one vertex from each of
    the two outer parts.

    Triangle by triangle, the lexicographically least (outer1, outer2) pair
    is taken whose new vertex pairs lie in no 5-tuple taken before (the
    triangle's own pairs lie in none: the planted triangles are
    edge-disjoint). Fails loudly if the pool runs dry, which signals
    inconsistent inputs (e.g. a packing of another inner graph).
    """
    _require_verified_triangles(planted)
    if gadget.n % 5:
        raise PackingError(f"gadget must have 5n vertices, got {gadget.n}")
    n = gadget.n // 5
    if planted.host_n != n:
        raise PackingError(
            f"planted packing lives on {planted.host_n} vertices, inner graph has {n}")
    offset = 4 * n
    pool1 = labeling.part("V1")
    pool4 = labeling.part("V4")
    # every V1 vertex precedes every V4 vertex, which precede the inner ones,
    # so each new pair below is already a (low, high) pair
    used: set[tuple[int, int]] = set()
    tuples = []
    for tri in planted.tuples:
        inner = [offset + a for a in tri]
        pick = None
        for v1 in pool1:
            if any((v1, a) in used for a in inner):
                continue
            for v4 in pool4:
                if (v1, v4) not in used and not any((v4, a) in used for a in inner):
                    pick = (v1, v4)
                    break
            if pick:
                break
        if pick is None:
            raise PackingError(
                f"vertex pool exhausted at triangle {tri}; planted packing inconsistent")
        t = tuple(sorted((*inner, *pick)))
        used.update(combinations(t, 2))
        tuples.append(t)
    return WitnessPacking("inducedC5", tuple(tuples), gadget.n).verified_in(gadget)


def farness_lower_bound(packing: WitnessPacking) -> Fraction:
    """|tuples| / host_n^2: a certified lower bound on the normalized edit
    distance to the matching freeness property (each pair edit destroys at
    most one tuple under the overlap rule)."""
    if not packing.verified:
        raise PackingError("farness bound requires a verified packing")
    if not packing.tuples:
        return Fraction(0)  # certifies nothing, on any host including n = 0
    return Fraction(len(packing.tuples), packing.host_n ** 2)


def _retained(assign: Sequence[int], tri: tuple[int, int, int]) -> bool:
    """Whether a tripartition keeps the triangle: one vertex in each part."""
    a, b, c = assign[tri[0]], assign[tri[1]], assign[tri[2]]
    return a != b != c != a


def _apply_tripartition(g: Graph, assign: Sequence[int],
                        packing: WitnessPacking) -> tuple[Graph, list]:
    rows = [0] * g.n
    for u in range(g.n):
        for v in iter_bits(g.rows[u]):
            if assign[u] != assign[v]:
                rows[u] |= 1 << v
    retained = [t for t in packing.tuples if _retained(assign, t)]
    return _trusted_graph(g.n, rows), retained


def random_tripartite_extract(g: Graph, packing: WitnessPacking, rng: Stream,
                              retries: int = 1) -> tuple[Graph, PartLabeling, WitnessPacking]:
    """Drop intra-part edges of a tripartition, keeping the packing triangles
    with one vertex per part; the best of `retries` uniform draws (each on
    its own child stream of `rng`) is returned, with parts X, Y, Z, any of
    which may be empty."""
    _require_verified_triangles(packing)
    if retries < 1:
        raise ValueError("retries must be >= 1")
    assigns = ([int(a) for a in rng.child(r).gen.integers(0, 3, size=g.n)]
               for r in range(retries))
    # the first assignment keeping the most packing triangles wins
    best_assign = max(assigns, key=lambda a: sum(_retained(a, t) for t in packing.tuples))
    f_graph, retained = _apply_tripartition(g, best_assign, packing)
    labeling = PartLabeling(g.n, [(name, [v for v in range(g.n) if best_assign[v] == i])
                                  for i, name in enumerate("XYZ")])
    kept = WitnessPacking("triangle", tuple(retained), g.n).verified_in(f_graph)
    return f_graph, labeling, kept


def tripartition_retention_samples(g: Graph, packing: WitnessPacking,
                                   trials: int, rng: Stream) -> list[float]:
    """Retained fraction of the packing for `trials` independent uniform
    tripartitions (statistical probe; expectation is 2/9 per triangle)."""
    _require_verified_triangles(packing)
    if not packing.tuples:
        raise ValueError("retention fraction undefined for an empty packing")
    gen = rng.gen
    total = len(packing.tuples)
    out = []
    for _ in range(trials):
        assign = gen.integers(0, 3, size=g.n).tolist()
        kept = sum(_retained(assign, t) for t in packing.tuples)
        out.append(kept / total)
    return out
