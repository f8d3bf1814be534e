"""Exact membership deciders for the tested graph properties.

Every decider returns a `RecognitionResult`; a negative answer carries a
witness (a forbidden induced structure, or a violating arc pattern for
posets) that re-verifies independently of the decision path. Each
structure scan is a core on (rows, mask): it sees only the vertices of
`mask`, in host indexing, and returns its first hit or None. Recognizers
pass all of g; the universal tester passes a sample's mask (`_resolve`), and
so do the gadgets' part-order and poset checks (`_order_hit`, `_poset_hit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, Sequence

from .graphs import (
    Graph,
    Digraph,
    PartLabeling,
    _co_rows,
    _induced_c5_fans,
    _p4_fans,
    _triangle_fans,
    components,
    cycle_graph,
    complete_graph,
    empty_graph,
    is_cycle_5,
    is_path_4,
    iter_bits,
    path_graph,
)

__all__ = [
    "RecognitionResult",
    "is_triangle_free",
    "is_induced_h_free",
    "is_cograph",
    "is_comparability",
    "is_perfect",
    "is_poset",
    "check_order_transitivity",
    "property_recognizer",
    "named_graph",
    "PERFECT_EXACT_BOUND",
]

PERFECT_EXACT_BOUND = 14


@dataclass(frozen=True)
class RecognitionResult:
    """Decision plus an optional forbidden-structure witness.

    `witness` is a vertex tuple (in the host graph's indexing) present
    exactly when `member` is False; `label` names the claimed structure.
    """

    member: bool
    witness: tuple[int, ...] | None = None
    label: str | None = None

    def __post_init__(self):
        if self.member and self.witness is not None:
            raise ValueError("members carry no witness")
        if not self.member and self.witness is None:
            raise ValueError("non-members must carry a witness")

    def __bool__(self) -> bool:
        return self.member


MEMBER = RecognitionResult(True)
# a scan core: (rows, mask) -> first hit inside mask, or None
_Core = Callable[[Sequence[int], int], object]


def _find_triangle(rows: Sequence[int], mask: int) -> tuple[int, ...] | None:
    """The lexicographically least triangle inside `mask` (the first
    `_triangle_fans` fan and its lowest closing vertex), or None."""
    for u, v, ws in _triangle_fans(rows, mask):
        return u, v, (ws & -ws).bit_length() - 1
    return None


def is_triangle_free(g: Graph) -> RecognitionResult:
    hit = _find_triangle(g.rows, (1 << g.n) - 1)
    return MEMBER if hit is None else RecognitionResult(False, hit, "triangle")


def _cograph_p4(rows: Sequence[int], mask: int) -> tuple[int, ...] | None:
    """Seinsche decomposition inside `mask`; the hit is the first induced
    4-path `_find_induced_p4` meets in a part both connected and co-connected."""
    crows = _co_rows(rows, mask)
    stack = [mask]
    while stack:
        part = stack.pop()
        if part.bit_count() <= 1:
            continue
        comps = components(rows, part)
        if len(comps) == 1:
            comps = components(crows, part)
        if len(comps) > 1:
            stack.extend(c for c in comps if c.bit_count() > 1)
            continue
        witness = _find_induced_p4(rows, part)
        if witness is None:
            raise AssertionError("non-decomposable subgraph without an induced 4-path")
        return witness
    return None


def is_cograph(g: Graph) -> RecognitionResult:
    """Decide by Seinsche decomposition; the witness is an induced 4-path."""
    hit = _cograph_p4(g.rows, (1 << g.n) - 1)
    return MEMBER if hit is None else RecognitionResult(False, hit, "induced-path-4")


# --- induced-H-freeness -----------------------------------------------------

INDUCED_H_MAX = 6


def _find_induced_h(rows: Sequence[int], mask: int, h: Graph) -> tuple[int, ...] | None:
    """First h.n-subset of `mask` (lexicographic) that induces a copy of h,
    or None. A subset with h's degree sequence is matched to h by
    backtracking over degree-compatible placements."""
    h_deg = [h.degree(i) for i in range(h.n)]
    want = sorted(h_deg)

    def place(vs: tuple[int, ...], deg: dict[int, int], image: list[int]) -> bool:
        i = len(image)
        if i == len(vs):
            return True
        return any(c not in image and deg[c] == h_deg[i]
                   and all((h.rows[i] >> j & 1) == (rows[c] >> w & 1)
                           for j, w in enumerate(image))
                   and place(vs, deg, image + [c]) for c in vs)

    for vs in combinations(iter_bits(mask), h.n):
        sub = sum(1 << v for v in vs)
        deg = {v: (rows[v] & sub).bit_count() for v in vs}
        if sorted(deg.values()) == want and place(vs, deg, []):
            return vs
    return None


def _find_induced_p4(rows: Sequence[int], mask: int) -> tuple[int, ...] | None:
    """First induced 4-path inside `mask` in `_p4_fans` order, sorted, or None."""
    for a, u, v, ds in _p4_fans(rows, mask):
        return tuple(sorted((a, u, v, (ds & -ds).bit_length() - 1)))
    return None


def _find_induced_c5(rows: Sequence[int], mask: int) -> tuple[int, ...] | None:
    """First induced 5-cycle inside `mask` in `_induced_c5_fans` order, sorted."""
    for v0, v1, v2, v4, v3s in _induced_c5_fans(rows, mask):
        return tuple(sorted((v0, v1, v2, next(iter_bits(v3s)), v4)))
    return None


def _h_core(h: Graph) -> tuple[_Core, str]:
    """The scan core deciding induced-h-freeness on (rows, mask), and its
    witness label; the one map from h to a core. The triangle (labeled as by
    `is_triangle_free`), the 5-cycle and the 4-vertex path take dedicated
    scans, any other h of at most INDUCED_H_MAX vertices the subset scan."""
    if not 1 <= h.n <= INDUCED_H_MAX:
        raise ValueError(f"induced-H search limited to 1 <= |V(H)| <= {INDUCED_H_MAX}, got {h.n}")
    if h.n == 3 and h.m == 3:
        return _find_triangle, "triangle"
    if is_cycle_5(h):
        return _find_induced_c5, "induced-cycle-5"
    if is_path_4(h):
        return _find_induced_p4, "induced-path-4"
    return partial(_find_induced_h, h=h), "induced-subgraph"


def is_induced_h_free(g: Graph, h: Graph) -> RecognitionResult:
    """Does g avoid h as an induced subgraph? Enumeration, guarded to small h."""
    core, label = _h_core(h)
    hit = core(g.rows, (1 << g.n) - 1)
    return MEMBER if hit is None else RecognitionResult(False, hit, label)


# --- comparability ----------------------------------------------------------

def _verify_transitive(out: Sequence[int] | dict[int, int], mask: int
                       ) -> tuple[int, int, int] | None:
    """A triple (u, v, z), u in `mask`, with u->v, v->z but not u->z, or None."""
    for u in iter_bits(mask):
        for v in iter_bits(out[u]):
            bad = out[v] & ~out[u]
            if bad:
                return (u, v, next(iter_bits(bad)))
    return None


def _force_orientation(rows: Sequence[int], mask: int
                       ) -> tuple[dict[int, int], tuple[int, int] | None]:
    """Orient g[mask] by implication-class forcing.

    Classes are grown inside the not-yet-oriented partial graph: edges
    {x,y},{x,z} with y,z currently non-adjacent must point the same way at
    x. Each completed class is removed before the next seed edge (lowest
    lexicographic) is oriented. Arcs are head (`out`) and tail (`inn`)
    bitmasks per vertex; on unoriented edges they hold the growing class.
    Returns the arc rows and None, or the seed arc of the first class that
    forces an edge both ways. The caller verifies transitivity.
    """
    rem = {v: rows[v] & mask for v in iter_bits(mask)}
    out = dict.fromkeys(rem, 0)
    inn = dict.fromkeys(rem, 0)
    for a in rem:
        while rem[a] >> (a + 1):
            b = next(iter_bits(rem[a] & (-1 << (a + 1))))
            out[a] |= 1 << b
            inn[b] |= 1 << a
            touched = (1 << a) | (1 << b)
            queue = [(a, b)]
            while queue:
                x, y = queue.pop()
                heads = rem[x] & ~rem[y] & ~(1 << y) & ~out[x]
                tails = rem[y] & ~rem[x] & ~(1 << x) & ~inn[y]
                if heads & inn[x] or tails & out[y]:
                    return out, (a, b)
                out[x] |= heads
                inn[y] |= tails
                for z in iter_bits(heads):
                    inn[z] |= 1 << x
                    queue.append((x, z))
                for z in iter_bits(tails):
                    out[z] |= 1 << y
                    queue.append((z, y))
                touched |= heads | tails
            for v in iter_bits(touched):
                rem[v] &= ~(out[v] | inn[v])
    return out, None


def _comparability_hit(rows: Sequence[int], mask: int) -> tuple[int, ...] | None:
    """None if forcing orients g[mask] transitively; else the seed arc of a
    contradicting class, or an intransitive triple of the orientation."""
    out, conflict = _force_orientation(rows, mask)
    return conflict or _verify_transitive(out, mask)


def _orientable_exhaustive(g: Graph) -> bool:
    """Complete backtracking over edge orientations with sound pruning."""
    adj = g.rows
    edges = list(g.edges())
    out = [0] * g.n
    inn = [0] * g.n

    def can_add(x: int, y: int) -> bool:
        for z in iter_bits(out[y]):
            if not (adj[x] >> z) & 1 or (out[z] >> x) & 1:
                return False
        for w in iter_bits(inn[x]):
            if not (adj[w] >> y) & 1 or (out[y] >> w) & 1:
                return False
        return True

    def rec(i: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        for x, y in ((u, v), (v, u)):
            if can_add(x, y):
                out[x] |= 1 << y
                inn[y] |= 1 << x
                if rec(i + 1):
                    return True
                out[x] &= ~(1 << y)
                inn[y] &= ~(1 << x)
        return False

    return rec(0)


def _minimal_failing_subset(core: _Core, rows: Sequence[int], mask: int) -> tuple[int, ...]:
    """Greedy vertex deletion from `mask` to a minimal set the core still hits.

    Valid because failing is preserved upward for hereditary properties: a
    superset of a failing set fails too, so one pass yields minimality.
    """
    keep = mask
    for v in iter_bits(mask):
        if keep.bit_count() <= 2:
            break
        if core(rows, keep & ~(1 << v)) is not None:
            keep &= ~(1 << v)
    return tuple(iter_bits(keep))


def is_comparability(g: Graph) -> RecognitionResult:
    """Does g admit a transitive orientation?

    Implication-class forcing, then a transitivity check of the full
    orientation; `_orientable_exhaustive` is its test oracle. A negative
    answer's witness is a minimal non-orientable induced subgraph.
    """
    full = (1 << g.n) - 1
    if _comparability_hit(g.rows, full) is None:
        return MEMBER
    return RecognitionResult(False, _minimal_failing_subset(_comparability_hit, g.rows, full),
                             "non-orientable-subgraph")


# --- perfectness ------------------------------------------------------------

def _find_odd_hole(rows: Sequence[int], mask: int) -> tuple[int, ...] | None:
    """A chordless odd cycle of length >= 5 inside `mask`, by DFS over chordless paths.

    Cycles are walked from their minimum vertex v0; a path v0..vk may grow
    only into vertices above v0 that avoid the neighborhoods of the path's
    interior (keeping it chordless), and closes at a neighbor of v0 when
    the resulting cycle has odd length at least 5.
    """
    for v0 in iter_bits(mask):
        above = mask & (-1 << (v0 + 1))
        for v1 in iter_bits(rows[v0] & above):
            # entries: (path, neighborhoods of interior v1..v_{k-1}, path bits)
            stack = [((v0, v1), 0, (1 << v0) | (1 << v1))]
            while stack:
                path, interior_nbrs, path_bits = stack.pop()
                last = path[-1]
                cands = rows[last] & above & ~interior_nbrs & ~path_bits
                if len(path) >= 4 and len(path) % 2 == 0:
                    closers = cands & rows[v0]
                    if closers:
                        return path + (next(iter_bits(closers)),)
                new_interior = interior_nbrs | rows[last]
                for w in iter_bits(cands & ~rows[v0]):
                    stack.append((path + (w,), new_interior, path_bits | (1 << w)))
    return None


def _odd_hole_or_antihole(rows: Sequence[int], mask: int
                          ) -> tuple[tuple[int, ...], str] | None:
    """An odd hole inside `mask`, else an odd antihole, as (sorted
    vertices, label), or None; refused above PERFECT_EXACT_BOUND vertices."""
    n = mask.bit_count()
    if n > PERFECT_EXACT_BOUND:
        raise ValueError(f"exact perfectness limited to n <= {PERFECT_EXACT_BOUND}, got {n}")
    hole = _find_odd_hole(rows, mask)
    if hole is not None:
        return tuple(sorted(hole)), "odd-hole"
    antihole = _find_odd_hole(_co_rows(rows, mask), mask)
    return None if antihole is None else (tuple(sorted(antihole)), "odd-antihole")


def is_perfect(g: Graph) -> RecognitionResult:
    """Perfect iff neither g nor its complement has an induced odd cycle of
    length >= 5 (strong perfect graph characterization); witness-producing,
    guarded to small n."""
    hit = _odd_hole_or_antihole(g.rows, (1 << g.n) - 1)
    return MEMBER if hit is None else RecognitionResult(False, *hit)


# --- posets and ordered orientations ----------------------------------------

def _poset_hit(rows: Sequence[int], mask: int) -> tuple[tuple[int, ...], str] | None:
    """The first antiparallel arc pair inside `mask`, else an intransitive
    triple, as (vertices, label); None if the arcs inside `mask` form a poset."""
    for u in iter_bits(mask):
        for v in iter_bits(rows[u] & mask & (-1 << (u + 1))):
            if (rows[v] >> u) & 1:
                return (u, v), "antiparallel"
    bad = _verify_transitive({u: rows[u] & mask for u in iter_bits(mask)}, mask)
    return None if bad is None else (bad, "intransitive")


def is_poset(d: Digraph) -> RecognitionResult:
    """Check the poset axioms: no antiparallel arcs, transitive (a Digraph
    has no self-arcs, so irreflexivity holds by construction)."""
    hit = _poset_hit(d.rows, (1 << d.n) - 1)
    return MEMBER if hit is None else RecognitionResult(False, *hit)


def _later_masks(labeling: PartLabeling) -> list[int]:
    """Per vertex, the mask of the vertices after it in part order (parts in
    labeling order, ascending index within a part)."""
    later, after = [0] * labeling.n, 0
    for v in reversed([v for part in labeling.parts for v in part]):
        later[v] = after
        after |= 1 << v
    return later


def _order_hit(rows: Sequence[int], mask: int, later: Sequence[int]
               ) -> tuple[int, int, int] | None:
    """An intransitive triple of g[mask] with each edge oriented toward its
    later end in part order (`_later_masks`), or None."""
    return _verify_transitive({u: rows[u] & mask & later[u] for u in iter_bits(mask)}, mask)


def check_order_transitivity(g: Graph, labeling: PartLabeling) -> RecognitionResult:
    """Is the part-order orientation of g transitive?

    A cheap sufficient condition for comparability: if it passes, the
    orientation itself is the certificate.
    """
    if labeling.n != g.n:
        raise ValueError(f"labeling covers {labeling.n} vertices, graph has {g.n}")
    bad = _order_hit(g.rows, (1 << g.n) - 1, _later_masks(labeling))
    return MEMBER if bad is None else RecognitionResult(False, bad, "intransitive")


# --- property registry -------------------------------------------------------

def _h_entry(h: Graph) -> tuple[_Core, Callable[[Graph], RecognitionResult]]:
    return _h_core(h)[0], partial(is_induced_h_free, h=h)


# each named property's (scan core, recognizer): the core for callers that
# need only the decision, the recognizer for a witness
_PROPERTIES: dict[str, tuple[_Core, Callable[[Graph], RecognitionResult]]] = {
    "triangle-free": (_find_triangle, is_triangle_free),
    "cograph": (_cograph_p4, is_cograph),
    "comparability": (_comparability_hit, is_comparability),
    "perfect": (_odd_hole_or_antihole, is_perfect),
    "induced-c5-free": _h_entry(cycle_graph(5)),
    "induced-p3-free": _h_entry(path_graph(4)),
}

_NAMED = {"cycle": cycle_graph, "path": path_graph, "complete": complete_graph,
          "empty": empty_graph}


def named_graph(token: str) -> Graph:
    """Small named graphs for CLI/property tokens: 'cycle:5', 'path:4',
    'complete:3', 'empty:2' (vertex counts, 1 to INDUCED_H_MAX)."""
    try:
        kind, k_str = token.split(":")
        k = int(k_str)
    except ValueError:
        raise ValueError(f"bad graph token {token!r}; expected kind:count") from None
    if kind not in _NAMED:
        raise ValueError(f"unknown graph kind {kind!r}")
    if not 1 <= k <= INDUCED_H_MAX:
        raise ValueError(f"induced-H search limited to 1 <= |V(H)| <= {INDUCED_H_MAX}, got {k}")
    return _NAMED[kind](k)


@lru_cache(maxsize=64)
def _resolve(name: str) -> tuple[_Core, Callable[[Graph], RecognitionResult]]:
    """A property name's (scan core, recognizer), resolved once per name
    (names as in `property_recognizer`). The core decides on (rows, mask):
    None means the vertices of the mask induce a member."""
    if name.startswith("induced-h-free:"):
        return _h_entry(named_graph(name.split(":", 1)[1]))
    if name not in _PROPERTIES:
        raise ValueError(f"unknown property {name!r}")
    return _PROPERTIES[name]


def property_recognizer(name: str) -> Callable[[Graph], RecognitionResult]:
    """Resolve a property name to its recognizer.

    Names: triangle-free, cograph, comparability, perfect,
    induced-c5-free, induced-p3-free (the 4-vertex path, edge-count
    naming), or induced-h-free:<kind>:<count>.
    """
    return _resolve(name)[1]
