"""Exact membership deciders for the tested graph properties.

Every decider returns a `RecognitionResult`; a negative answer carries a
witness (a forbidden induced structure, or a violating arc pattern for
posets) that re-verifies independently of the decision path. Each
structure scan is a core on (rows, mask): it sees only the vertices of
`mask`, in host indexing, and returns its first hit or None. Recognizers
pass all of g; the universal tester passes a sample's mask (`_CORES`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .graphs import (
    Graph,
    Digraph,
    PartLabeling,
    _induced_c5_fans,
    components,
    cycle_graph,
    complete_graph,
    empty_graph,
    induced_subgraph,
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
    "COMPARABILITY_EXHAUSTIVE_BOUND",
]

PERFECT_EXACT_BOUND = 14
COMPARABILITY_EXHAUSTIVE_BOUND = 8


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


def _co_rows(rows: Sequence[int], mask: int) -> dict[int, int]:
    """Complement rows inside `mask`, for the vertices of `mask`."""
    return {v: (mask & ~rows[v]) ^ (1 << v) for v in iter_bits(mask)}


def _find_triangle(rows: Sequence[int], mask: int) -> tuple[int, ...] | None:
    """First triangle inside `mask`: the first edge u < v (lexicographic)
    with a common neighbor, and the lowest such neighbor; sorted."""
    for u in iter_bits(mask):
        for v in iter_bits(rows[u] & mask & (-1 << (u + 1))):
            common = rows[u] & rows[v] & mask
            if common:
                return tuple(sorted((u, v, next(iter_bits(common)))))
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


def _induced_iso(g: Graph, vs: tuple[int, ...], h: Graph, h_deg: list[int]) -> bool:
    """Is g[vs] isomorphic to h? Backtracking on degree-compatible maps."""
    k = len(vs)
    sub = induced_subgraph(g, vs)
    if sub.m != h.m:
        return False
    sub_deg = [sub.degree(i) for i in range(k)]
    if sorted(sub_deg) != sorted(h_deg):
        return False
    image = [-1] * k  # h-vertex -> sub-vertex
    used = [False] * k

    def place(i: int) -> bool:
        if i == k:
            return True
        for cand in range(k):
            if used[cand] or sub_deg[cand] != h_deg[i]:
                continue
            ok = True
            for j in range(i):
                if h.has_edge(i, j) != sub.has_edge(cand, image[j]):
                    ok = False
                    break
            if ok:
                used[cand] = True
                image[i] = cand
                if place(i + 1):
                    return True
                used[cand] = False
        return False

    return place(0)


def _find_induced_p4(rows: Sequence[int], mask: int) -> tuple[int, ...] | None:
    """First induced 4-vertex path inside `mask`, scanning middle edges
    {u, v} in lexicographic order, or None."""
    for u in iter_bits(mask):
        for v in iter_bits(rows[u] & mask & (-1 << (u + 1))):
            a_side = rows[u] & ~rows[v] & mask & ~(1 << v)
            d_side = rows[v] & ~rows[u] & mask & ~(1 << u)
            for a in iter_bits(a_side):
                free = d_side & ~rows[a]
                if free:
                    d = next(iter_bits(free))
                    return tuple(sorted((a, u, v, d)))
    return None


def _find_induced_c5(rows: Sequence[int], mask: int) -> tuple[int, ...] | None:
    """First induced 5-cycle inside `mask` in `_induced_c5_fans` order, sorted."""
    for v0, v1, v2, v4, v3s in _induced_c5_fans(rows, mask):
        return tuple(sorted((v0, v1, v2, next(iter_bits(v3s)), v4)))
    return None


def is_induced_h_free(g: Graph, h: Graph) -> RecognitionResult:
    """Does g avoid h as an induced subgraph? Enumeration, guarded to small h.

    The 5-cycle and the 4-vertex path get dedicated early-exit scans; other
    shapes fall back to subset enumeration with isomorphism backtracking.
    """
    if h.n > INDUCED_H_MAX:
        raise ValueError(f"induced-H search limited to |V(H)| <= {INDUCED_H_MAX}, got {h.n}")
    if h.n > g.n:
        return MEMBER
    for shape, scan, label in ((is_cycle_5, _find_induced_c5, "induced-cycle-5"),
                               (is_path_4, _find_induced_p4, "induced-path-4")):
        if shape(h):
            hit = scan(g.rows, (1 << g.n) - 1)
            return MEMBER if hit is None else RecognitionResult(False, hit, label)
    h_deg = [h.degree(v) for v in range(h.n)]
    for vs in combinations(range(g.n), h.n):
        if _induced_iso(g, vs, h, h_deg):
            return RecognitionResult(False, vs, "induced-subgraph")
    return MEMBER


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
    n = g.n
    adj = g.rows
    edges = []
    for u in range(n):
        for v in iter_bits(adj[u] >> (u + 1)):
            edges.append((u, u + 1 + v))
    out = [0] * n
    inn = [0] * n

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


def _minimal_failing_subset(fails: Callable[[int], bool], mask: int) -> tuple[int, ...]:
    """Greedy vertex deletion from `mask` to a minimal set with `fails` true.

    Valid because failing is preserved upward for hereditary properties: a
    superset of a failing set fails too, so one pass yields minimality.
    """
    keep = mask
    for v in iter_bits(mask):
        if keep.bit_count() <= 2:
            break
        if fails(keep & ~(1 << v)):
            keep &= ~(1 << v)
    return tuple(iter_bits(keep))


def is_comparability(g: Graph, mode: str = "forcing") -> RecognitionResult:
    """Does g admit a transitive orientation?

    "forcing" runs implication-class forcing and then verifies the full
    orientation; "exhaustive" (n <= 8) searches all orientations and is the
    correctness oracle for the forcing path. A negative answer's witness is
    a minimal non-orientable induced subgraph.
    """
    if mode not in ("forcing", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive" and g.n > COMPARABILITY_EXHAUSTIVE_BOUND:
        raise ValueError(
            f"exhaustive orientation limited to n <= {COMPARABILITY_EXHAUSTIVE_BOUND}")

    def fails(mask: int) -> bool:
        if mode == "forcing":
            return _comparability_hit(g.rows, mask) is not None
        return not _orientable_exhaustive(induced_subgraph(g, iter_bits(mask)))

    full = (1 << g.n) - 1
    if not fails(full):
        return MEMBER
    return RecognitionResult(False, _minimal_failing_subset(fails, full),
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


def _odd_hole_or_antihole(rows: Sequence[int], mask: int, exact_bound: int = PERFECT_EXACT_BOUND
                          ) -> tuple[tuple[int, ...], str] | None:
    """An odd hole inside `mask`, else an odd antihole, as (sorted
    vertices, label), or None; refused above `exact_bound` vertices."""
    n = mask.bit_count()
    if n > exact_bound:
        raise ValueError(f"exact perfectness limited to n <= {exact_bound}, got {n}")
    hole = _find_odd_hole(rows, mask)
    if hole is not None:
        return tuple(sorted(hole)), "odd-hole"
    antihole = _find_odd_hole(_co_rows(rows, mask), mask)
    return None if antihole is None else (tuple(sorted(antihole)), "odd-antihole")


def is_perfect(g: Graph, exact_bound: int = PERFECT_EXACT_BOUND) -> RecognitionResult:
    """Perfect iff neither g nor its complement has an induced odd cycle of
    length >= 5 (strong perfect graph characterization); witness-producing,
    guarded to small n."""
    hit = _odd_hole_or_antihole(g.rows, (1 << g.n) - 1, exact_bound)
    return MEMBER if hit is None else RecognitionResult(False, *hit)


# --- posets and ordered orientations ----------------------------------------

def is_poset(d: Digraph) -> RecognitionResult:
    """Check the three poset axioms: no loops, no antiparallel arcs, transitive."""
    rows = d.rows
    for u in range(d.n):
        if (rows[u] >> u) & 1:
            return RecognitionResult(False, (u,), "loop")
    for u in range(d.n):
        for v in iter_bits(rows[u] >> (u + 1)):
            v += u + 1
            if (rows[v] >> u) & 1:
                return RecognitionResult(False, (u, v), "antiparallel")
    for u in range(d.n):
        for v in iter_bits(rows[u]):
            missing = rows[v] & ~rows[u] & ~(1 << u)
            if missing:
                z = next(iter_bits(missing))
                return RecognitionResult(False, (u, v, z), "intransitive")
    return MEMBER


def orient_by_part_order(g: Graph, labeling: PartLabeling) -> Digraph:
    """Orient every edge from the earlier part to the later (part order =
    labeling order; same-part ties go from the lower vertex index)."""
    if labeling.n != g.n:
        raise ValueError(f"labeling covers {labeling.n} vertices, graph has {g.n}")
    pidx = labeling.part_index_of()
    rows = [0] * g.n
    for u, v in g.edges():
        if (pidx[u], u) <= (pidx[v], v):
            rows[u] |= 1 << v
        else:
            rows[v] |= 1 << u
    return Digraph(g.n, rows)


def check_order_transitivity(g: Graph, labeling: PartLabeling) -> RecognitionResult:
    """Is the part-order orientation of g transitive?

    A cheap sufficient condition for comparability: if it passes, the
    orientation itself is the certificate.
    """
    d = orient_by_part_order(g, labeling)
    bad = _verify_transitive(d.rows, (1 << d.n) - 1)
    if bad is None:
        return MEMBER
    return RecognitionResult(False, bad, "intransitive")


# --- property registry -------------------------------------------------------

_CYCLE_5 = cycle_graph(5)
_PATH_4 = path_graph(4)

# each named property's scan core, for callers that need only the decision
_CORES = {"triangle-free": _find_triangle, "cograph": _cograph_p4,
          "comparability": _comparability_hit, "perfect": _odd_hole_or_antihole,
          "induced-c5-free": _find_induced_c5, "induced-p3-free": _find_induced_p4}


def named_graph(token: str) -> Graph:
    """Small named graphs for CLI/property tokens: 'cycle:5', 'path:4',
    'complete:3', 'empty:2' (counts are vertex counts)."""
    try:
        kind, k_str = token.split(":")
        k = int(k_str)
    except ValueError:
        raise ValueError(f"bad graph token {token!r}; expected kind:count") from None
    if kind == "cycle":
        return cycle_graph(k)
    if kind == "path":
        return path_graph(k)
    if kind == "complete":
        return complete_graph(k)
    if kind == "empty":
        return empty_graph(k)
    raise ValueError(f"unknown graph kind {kind!r}")


def property_recognizer(name: str) -> Callable[[Graph], RecognitionResult]:
    """Resolve a property name to its recognizer.

    Names: triangle-free, cograph, comparability, perfect,
    induced-c5-free, induced-p3-free (the 4-vertex path, edge-count
    naming), or induced-h-free:<kind>:<count>.
    """
    if name == "triangle-free":
        return is_triangle_free
    if name == "cograph":
        return is_cograph
    if name == "comparability":
        return is_comparability
    if name == "perfect":
        return is_perfect
    if name == "induced-c5-free":
        return lambda g: is_induced_h_free(g, _CYCLE_5)
    if name == "induced-p3-free":
        return lambda g: is_induced_h_free(g, _PATH_4)
    if name.startswith("induced-h-free:"):
        h = named_graph(name.split(":", 1)[1])
        return lambda g: is_induced_h_free(g, h)
    raise ValueError(f"unknown property {name!r}")
