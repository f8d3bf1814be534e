"""Exact membership deciders for the tested graph properties.

Every decider returns a `RecognitionResult`; a negative answer carries a
witness (a forbidden induced structure, or a violating arc pattern for
posets) that re-verifies independently of the decision path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .graphs import (
    Graph,
    Digraph,
    PartLabeling,
    _induced_c5_fans,
    complement,
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


def is_triangle_free(g: Graph) -> RecognitionResult:
    for u in range(g.n):
        for v in iter_bits(g.rows[u] >> (u + 1)):
            v += u + 1
            common = g.rows[u] & g.rows[v]
            if common:
                w = next(iter_bits(common))
                return RecognitionResult(False, tuple(sorted((u, v, w))), "triangle")
    return MEMBER


def is_cograph(g: Graph) -> RecognitionResult:
    """Decide by Seinsche decomposition: recurse into components of g, else
    of its complement; a subgraph where both are connected is a failure, and
    it must contain an induced 4-vertex path. The witness is the first one
    the middle-edge scan of `_find_induced_p4` meets inside that subgraph."""
    if g.n <= 1:
        return MEMBER
    crows = complement(g).rows
    stack = [(1 << g.n) - 1]
    while stack:
        mask = stack.pop()
        if mask.bit_count() <= 1:
            continue
        comps = components(g.rows, mask)
        if len(comps) == 1:
            comps = components(crows, mask)
        if len(comps) > 1:
            stack.extend(c for c in comps if c.bit_count() > 1)
            continue
        witness = _find_induced_p4(g, mask)
        if witness is None:
            raise AssertionError("non-decomposable subgraph without an induced 4-path")
        return RecognitionResult(False, witness, "induced-path-4")
    return MEMBER


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


def _find_induced_p4(g: Graph, mask: int) -> tuple[int, ...] | None:
    """First induced 4-vertex path inside `mask`, scanning middle edges
    {u, v} in lexicographic order, or None."""
    rows = g.rows
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


def is_induced_h_free(g: Graph, h: Graph) -> RecognitionResult:
    """Does g avoid h as an induced subgraph? Enumeration, guarded to small h.

    The 5-cycle and the 4-vertex path get dedicated early-exit scans; other
    shapes fall back to subset enumeration with isomorphism backtracking.
    """
    if h.n > INDUCED_H_MAX:
        raise ValueError(f"induced-H search limited to |V(H)| <= {INDUCED_H_MAX}, got {h.n}")
    if h.n > g.n:
        return MEMBER
    if is_cycle_5(h):
        fan = next(_induced_c5_fans(g), None)
        if fan is None:
            return MEMBER
        v0, v1, v2, v4, v3s = fan
        v3 = next(iter_bits(v3s))
        return RecognitionResult(False, tuple(sorted((v0, v1, v2, v3, v4))), "induced-cycle-5")
    if is_path_4(h):
        hit = _find_induced_p4(g, (1 << g.n) - 1)
        return MEMBER if hit is None else RecognitionResult(False, hit, "induced-path-4")
    h_deg = [h.degree(v) for v in range(h.n)]
    for vs in combinations(range(g.n), h.n):
        if _induced_iso(g, vs, h, h_deg):
            return RecognitionResult(False, vs, "induced-subgraph")
    return MEMBER


# --- comparability ----------------------------------------------------------

def _verify_transitive(out: list[int]) -> tuple[int, int, int] | None:
    """A triple (u, v, z) with u->v, v->z but not u->z, or None."""
    for u in range(len(out)):
        for v in iter_bits(out[u]):
            bad = out[v] & ~out[u]
            if bad:
                return (u, v, next(iter_bits(bad)))
    return None


def _force_orientation(g: Graph) -> list[int] | None:
    """Orient g by implication-class forcing; None on a class contradiction.

    Classes are grown inside the not-yet-oriented partial graph: edges
    {x,y},{x,z} with y,z currently non-adjacent must point the same way at
    x. Each completed class is removed before the next seed edge (lowest
    lexicographic) is oriented. For a comparability graph the union of the
    class orientations is transitive; the caller verifies.
    """
    n = g.n
    rem = list(g.rows)
    out = [0] * n
    for a in range(n):
        for b_off in iter_bits(rem[a] >> (a + 1)):
            b = a + 1 + b_off
            if not (rem[a] >> b) & 1:
                continue  # swept into an earlier class
            arcs = {(a, b)}
            queue = [(a, b)]
            while queue:
                x, y = queue.pop()
                for z in iter_bits(rem[x] & ~rem[y] & ~(1 << y)):
                    arc = (x, z)
                    if arc not in arcs:
                        if (z, x) in arcs:
                            return None
                        arcs.add(arc)
                        queue.append(arc)
                for z in iter_bits(rem[y] & ~rem[x] & ~(1 << x)):
                    arc = (z, y)
                    if arc not in arcs:
                        if (y, z) in arcs:
                            return None
                        arcs.add(arc)
                        queue.append(arc)
            for x, y in arcs:
                rem[x] &= ~(1 << y)
                rem[y] &= ~(1 << x)
                out[x] |= 1 << y
    return out


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


def _minimal_failing_subset(g: Graph, fails: Callable[[Graph], bool]) -> tuple[int, ...]:
    """Greedy vertex deletion to a minimal induced subgraph with `fails` true.

    Valid because failing is preserved upward for hereditary properties: a
    superset of a failing set fails too, so one pass yields minimality.
    """
    keep = list(range(g.n))
    for v in range(g.n):
        if len(keep) <= 2:
            break
        trial = [u for u in keep if u != v]
        if len(trial) < len(keep) and fails(induced_subgraph(g, trial)):
            keep = trial
    return tuple(keep)


def is_comparability(g: Graph, mode: str = "forcing") -> RecognitionResult:
    """Does g admit a transitive orientation?

    "forcing" runs implication-class forcing and then verifies the full
    orientation; "exhaustive" (n <= 8) searches all orientations and is the
    correctness oracle for the forcing path. A negative answer's witness is
    a minimal non-orientable induced subgraph.
    """
    if mode == "forcing":
        def decide(h: Graph) -> bool:
            out = _force_orientation(h)
            return out is not None and _verify_transitive(out) is None
    elif mode == "exhaustive":
        if g.n > COMPARABILITY_EXHAUSTIVE_BOUND:
            raise ValueError(
                f"exhaustive orientation limited to n <= {COMPARABILITY_EXHAUSTIVE_BOUND}")
        decide = _orientable_exhaustive
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if decide(g):
        return MEMBER
    witness = _minimal_failing_subset(g, lambda h: not decide(h))
    return RecognitionResult(False, witness, "non-orientable-subgraph")


# --- perfectness ------------------------------------------------------------

def _find_odd_hole(g: Graph) -> tuple[int, ...] | None:
    """A chordless odd cycle of length >= 5, by DFS over chordless paths.

    Cycles are walked from their minimum vertex v0; a path v0..vk may grow
    only into vertices above v0 that avoid the neighborhoods of the path's
    interior (keeping it chordless), and closes at a neighbor of v0 when
    the resulting cycle has odd length at least 5.
    """
    rows = g.rows
    for v0 in range(g.n):
        above = -1 << (v0 + 1)
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


def is_perfect(g: Graph, exact_bound: int = PERFECT_EXACT_BOUND) -> RecognitionResult:
    """Perfect iff neither g nor its complement has an induced odd cycle of
    length >= 5 (strong perfect graph characterization); witness-producing,
    guarded to small n."""
    if g.n > exact_bound:
        raise ValueError(f"exact perfectness limited to n <= {exact_bound}, got {g.n}")
    hole = _find_odd_hole(g)
    if hole is not None:
        return RecognitionResult(False, tuple(sorted(hole)), "odd-hole")
    antihole = _find_odd_hole(complement(g))
    if antihole is not None:
        return RecognitionResult(False, tuple(sorted(antihole)), "odd-antihole")
    return MEMBER


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
    bad = _verify_transitive(list(d.rows))
    if bad is None:
        return MEMBER
    return RecognitionResult(False, bad, "intransitive")


# --- property registry -------------------------------------------------------

_CYCLE_5 = cycle_graph(5)
_PATH_4 = path_graph(4)


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
