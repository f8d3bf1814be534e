"""Hard-instance constructions with machine-checkable certificates.

Each construction returns a GadgetBundle: the graph (or digraph), the part
labeling, and a verified witness packing; the bundle derives its farness
lower bound from that packing. Structural invariants are audited at
construction time; a bundle that exists is a bundle that checked out.

Both gadgets start from a triangle packing of their inner tripartite graph,
decided in one place: a supplied packing must be a triangle packing and is
re-verified in the inner graph; without one, the inner graph's exact
packing is used where the exact search is affordable, else its greedy one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Sequence, Union

from .graphs import Digraph, Graph, PartLabeling, count_triangles, iter_bits
from .packing import (
    PackingError,
    WitnessPacking,
    exact_affordable,
    farness_lower_bound,
    greedy_c5_packing,
    triangle_packing,
    triangles_of,
)

__all__ = [
    "ApFreeSet",
    "GadgetBundle",
    "ap3_free_set",
    "rs_graph",
    "build_c5_gadget",
    "build_poset_gadget",
    "AP_EXACT_BOUND",
    "BEHREND_SCAN_BOUND",
]

AP_EXACT_BOUND = 40
BEHREND_SCAN_BOUND = 10 ** 8


@dataclass(frozen=True)
class ApFreeSet:
    """A subset of 1..ground with no 3-term arithmetic progression."""

    ground: int
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        if elems and (elems[0] < 1 or elems[-1] > self.ground):
            raise ValueError(f"elements must lie in 1..{self.ground}")
        bad = _find_3ap(elems)
        if bad is not None:
            raise ValueError(f"3-term arithmetic progression {bad}")

    def __len__(self) -> int:
        return len(self.elements)


def _find_3ap(elems: Sequence[int]) -> tuple[int, int, int] | None:
    present = set(elems)
    for i, a in enumerate(elems):
        for b in elems[i + 1:]:
            c = 2 * b - a
            if c in present:
                return (a, b, c)
    return None


def _ap_free_exact(n: int) -> tuple[int, ...]:
    """A maximum 3-AP-free subset of 1..n (lexicographically first optimum).

    Bottom-up over the windows 1..m: sizes[m], the maximum for any m
    consecutive integers (shift-invariant), lets sizes[m - v + 1] bound what
    the window v..m can still add. Each window's search starts from a size
    known to be reachable, sizes[m - 1] (one less for the last window, so
    that it reaches a set even when n adds nothing), and records the first
    set it reaches at each larger size. Including v is tried before
    excluding it, so sets of one size are reached in lexicographic order and
    the last set recorded is the lexicographically first optimum.
    """
    sizes = [0] * (n + 1)
    for m in range(1, n + 1):
        best = sizes[m - 1] - (m == n)
        chosen: list[int] = []
        found: list[int] = []

        def dfs(v: int, banned: int) -> None:
            # banned has bit c set when some a < b in chosen have c = 2b - a
            nonlocal best, found
            if len(chosen) > best:
                best, found = len(chosen), chosen.copy()
            if v > m:
                return
            # window [v..m] has m-v+1 slots; its bound is known once v >= 2
            if v > 1 and len(chosen) + sizes[m - v + 1] <= best:
                return
            if not banned >> v & 1:
                chosen.append(v)
                dfs(v + 1, banned | sum(1 << (2 * v - a) for a in chosen))
                chosen.pop()
            dfs(v + 1, banned)

        dfs(1, 0)
        sizes[m] = best
    return tuple(found)


def _ap_free_behrend(n: int) -> tuple[int, ...]:
    """Sphere construction: digit vectors in base 2d-1 with digits < d lying
    on a common Euclidean sphere add without carries, so a progression would
    force a midpoint on the sphere; strict convexity forbids it. The best
    (digit bound, length) pair is scanned, then greedy augmentation fills in
    whatever small integers still fit."""
    best: list[int] = []
    d = 2
    while True:
        q = 2 * d - 1
        k = 1
        while q ** (k + 1) <= n:
            k += 1
        if q ** k > n and k == 1:
            break
        if d * (q ** k) > BEHREND_SCAN_BOUND:
            break
        spheres: dict[int, list[int]] = {}
        for digits in product(range(d), repeat=k):
            val = 0
            for c in digits:
                val = val * q + c
            if val + 1 > n:
                continue
            r = sum(c * c for c in digits)
            spheres.setdefault(r, []).append(val + 1)
        if spheres:
            cand = max(spheres.values(), key=len)
            if len(cand) > len(best):
                best = cand
        d += 1
    out = list(best)
    present = set(out)
    for v in range(1, n + 1):
        if v not in present and _fits_ap_free(v, out, present):
            out.append(v)
            present.add(v)
    return tuple(sorted(out))


def _fits_ap_free(v: int, elems: list[int], present: set[int]) -> bool:
    for a in elems:
        if a == v:
            continue
        if 2 * a - v in present:  # v, a, 2a-v with a as midpoint
            return False
        if 2 * v - a in present:  # a, v, 2v-a with v as midpoint
            return False
        if (a + v) % 2 == 0 and (a + v) // 2 in present:  # endpoint pair
            return False
    return True


def ap3_free_set(n: int, mode: str = "behrend") -> ApFreeSet:
    """A 3-AP-free subset of 1..n: maximum (exact backtracking, n <= 40) or
    the Behrend sphere construction with greedy augmentation."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if mode == "exact":
        if n > AP_EXACT_BOUND:
            raise ValueError(f"exact mode limited to n <= {AP_EXACT_BOUND}, got {n}")
        return ApFreeSet(n, _ap_free_exact(n))
    if mode == "behrend":
        return ApFreeSet(n, _ap_free_behrend(n))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class GadgetBundle:
    """A constructed hard instance plus its certificate.

    farness is derived, not passed: |certificate| / n^2 by
    farness_lower_bound, which refuses an unverified certificate. It is a
    lower bound on the normalized edit distance to the property the
    construction is far from.
    """

    graph: Union[Graph, Digraph]
    labeling: PartLabeling
    certificate: WitnessPacking
    farness: Fraction = field(init=False)

    def __post_init__(self):
        if self.certificate.host_n != self.graph.n:
            raise PackingError(f"certificate lives on {self.certificate.host_n} "
                               f"vertices, graph has {self.graph.n}")
        object.__setattr__(self, "farness", farness_lower_bound(self.certificate))


def rs_graph(k: int, s: ApFreeSet) -> GadgetBundle:
    """Tripartite graph on 6k vertices whose every triangle is planted.

    Parts X (k), Y (2k), Z (3k); for x in 1..k and a in S the triple
    X_x, Y_{x+a}, Z_{x+2a} spans a planted triangle. Any triangle forces an
    arithmetic progression in S, so 3-AP-freeness makes the k|S| planted,
    pairwise edge-disjoint triangles the only ones; this is audited by an
    exact triangle count after construction.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not s.elements:
        raise ValueError("difference set must be nonempty")
    if max(s.elements) > k:
        raise ValueError(f"difference set must lie in 1..{k}")
    n = 6 * k
    edges = []
    planted = []
    for x in range(1, k + 1):
        for a in s.elements:
            # X_x, Y_y and Z_z are vertices x - 1, k + y - 1 and 3k + z - 1
            xv, yv, zv = x - 1, k + x + a - 1, 3 * k + x + 2 * a - 1
            edges.extend([(xv, yv), (yv, zv), (xv, zv)])
            planted.append((xv, yv, zv))
    g = Graph.from_edges(n, edges)
    expected = k * len(s)
    actual = count_triangles(g)
    if actual != expected:
        raise AssertionError(
            f"construction audit failed: {actual} triangles, expected {expected}")
    labeling = PartLabeling(n, [
        ("X", range(k)), ("Y", range(k, 3 * k)), ("Z", range(3 * k, 6 * k))])
    cert = WitnessPacking("triangle", tuple(sorted(planted)), n).verified_in(g)
    return GadgetBundle(g, labeling, cert)


def _check_tripartite(g: Graph, labeling: PartLabeling, names: Sequence[str]) -> None:
    if labeling.n != g.n:
        raise ValueError(f"labeling covers {labeling.n} vertices, graph has {g.n}")
    if tuple(labeling.names) != tuple(names):
        raise ValueError(f"expected parts {tuple(names)}, got {labeling.names}")
    for name in names:
        mask = labeling.part_mask(name)
        for v in iter_bits(mask):
            if g.rows[v] & mask:
                raise ValueError(f"part {name} is not independent (edge inside at {v})")


def _inner_packing(f: Graph, packing: WitnessPacking | None) -> WitnessPacking:
    """The verified triangle packing of a gadget's inner graph f, which needs
    a vertex: a supplied packing must be a triangle packing and is
    re-verified in f; without one, f's exact packing where affordable, else
    its greedy one."""
    if f.n < 1:
        raise ValueError("inner graph must have at least one vertex")
    if packing is None:
        mode = "exact" if exact_affordable(f, triangles_of(f)) else "greedy"
        return triangle_packing(f, mode)
    if packing.kind != "triangle":
        raise PackingError(f"inner packing must be triangles, got {packing.kind!r}")
    return packing.verified_in(f)


def build_c5_gadget(f: Graph, labeling: PartLabeling,
                    packing: WitnessPacking | None = None) -> GadgetBundle:
    """Five-part graph on 5n vertices far from induced-C5-freeness but whose
    small samples are mostly comparability graphs.

    The inner tripartite graph f (parts V2, V3, V5) sits at indices
    4n..5n-1; the outer independent parts V1 (0..2n-1) and V4 (2n..4n-1)
    have 2n vertices each. Between-part rules: V1-V2, V1-V3, V3-V4, V4-V5
    empty; V1-V4, V1-V5, V2-V4 complete; V2-V3 and V3-V5 copy f's edges;
    V2-V5 is the bipartite complement of f's. Each triangle of f plus one
    vertex from V1 and one from V4 induces a 5-cycle, and the certificate
    packs those greedily from f's triangle packing (a supplied one, else
    the exact one where affordable and the greedy one beyond the guard).
    """
    _check_tripartite(f, labeling, ("V2", "V3", "V5"))
    packing = _inner_packing(f, packing)
    n = f.n
    offset = 4 * n
    big_n = 5 * n
    mask = {
        "V1": (1 << (2 * n)) - 1,
        "V4": ((1 << (2 * n)) - 1) << (2 * n),
        "V2": labeling.part_mask("V2") << offset,
        "V3": labeling.part_mask("V3") << offset,
        "V5": labeling.part_mask("V5") << offset,
    }
    rows = [0] * big_n
    # complete pairs
    for a, b in (("V1", "V4"), ("V1", "V5"), ("V2", "V4")):
        for v in iter_bits(mask[a]):
            rows[v] |= mask[b]
        for v in iter_bits(mask[b]):
            rows[v] |= mask[a]
    # copy f's edges into V2-V3 and V3-V5; complement into V2-V5
    m2, m3, m5 = (labeling.part_mask(p) for p in ("V2", "V3", "V5"))
    for u in range(n):
        ru = f.rows[u]
        um = 1 << u
        gu = offset + u
        if um & m2:
            rows[gu] |= (ru & m3) << offset
            rows[gu] |= (m5 & ~ru) << offset
        elif um & m3:
            rows[gu] |= (ru & (m2 | m5)) << offset
        else:
            rows[gu] |= (ru & m3) << offset
            rows[gu] |= (m2 & ~ru) << offset
    g = Graph(big_n, rows)
    parts = PartLabeling(big_n, [
        ("V1", range(2 * n)),
        ("V2", (offset + v for v in iter_bits(m2))),
        ("V3", (offset + v for v in iter_bits(m3))),
        ("V4", range(2 * n, 4 * n)),
        ("V5", (offset + v for v in iter_bits(m5))),
    ])
    _audit_c5_gadget(g, parts, f, offset)
    return GadgetBundle(g, parts, greedy_c5_packing(g, parts, packing))


def _audit_c5_gadget(g: Graph, parts: PartLabeling, f: Graph, offset: int) -> None:
    """Re-check all between-part edge rules bit-exactly."""
    masks = {name: parts.part_mask(name) for name in parts.names}
    rules = {
        ("V1", "V2"): "empty", ("V1", "V3"): "empty", ("V3", "V4"): "empty",
        ("V4", "V5"): "empty", ("V1", "V4"): "complete", ("V1", "V5"): "complete",
        ("V2", "V4"): "complete", ("V2", "V3"): "inner", ("V3", "V5"): "inner",
        ("V2", "V5"): "inner-complement",
    }
    for name in parts.names:
        for v in iter_bits(masks[name]):
            if g.rows[v] & masks[name]:
                raise AssertionError(f"audit: part {name} not independent")
    for (a, b), rule in rules.items():
        for v in iter_bits(masks[a]):
            got = g.rows[v] & masks[b]
            if rule == "empty":
                want = 0
            elif rule == "complete":
                want = masks[b]
            else:
                inner = f.rows[v - offset] << offset
                if rule == "inner":
                    want = inner & masks[b]
                else:
                    want = masks[b] & ~inner
            if got != want:
                raise AssertionError(f"audit: rule {a}-{b} ({rule}) violated at {v}")


def build_poset_gadget(t: Graph, labeling: PartLabeling,
                       packing: WitnessPacking | None = None) -> GadgetBundle:
    """Directed gadget on t's vertex set: V1->V2 and V2->V3 arcs copy t's
    edges, V1->V3 arcs are t's non-edges, nothing else. A vertex set induces
    a poset exactly when it spans no triangle of t, and every triangle of t
    forces at least one pair edit, so a triangle packing certifies farness
    (a supplied one, else t's exact one where affordable, else its greedy
    one).
    """
    _check_tripartite(t, labeling, ("V1", "V2", "V3"))
    packing = _inner_packing(t, packing)
    m1, m2, m3 = (labeling.part_mask(p) for p in ("V1", "V2", "V3"))
    rows = [0] * t.n
    for u in iter_bits(m1):
        rows[u] |= t.rows[u] & m2
        rows[u] |= m3 & ~t.rows[u]
    for u in iter_bits(m2):
        rows[u] |= t.rows[u] & m3
    return GadgetBundle(Digraph(t.n, rows), labeling, packing)
