"""Invariant checks: executable versions of each module's stated properties.

Each check is a module-level function that takes its stream, sizes and draw
count and returns None on pass or a detail string naming the falsifying
instance. Two tables run them. `SUITES` holds, per suite, its stream index
and its ordered (label, check) entries at the spec-level sizes, each entry a
function of the suite's stream Stream(seed, (index,)); `run_suite(name,
seed)` runs one suite's entries and returns one timed CheckResult each.
`ACCEPTANCE` holds the eleven acceptance criteria, each with its number,
wall-clock budget, label and a check at its pinned stream Stream(1300 + number)
and sizes, run through the same `_check`. Unit tests call the check functions
directly, at small sizes. Checks look up recognizers, counters, searches and
packings through this module's globals, so a test can monkeypatch one (say
`ptlab.verify.is_comparability`) to show that a check can fail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from typing import Callable, Iterator, Sequence

from . import oracles
from .decomposition import (AboveCap, DISTANCE_CAP_BOUND, distance_to_property, find_beta_cut,
                            find_cut, refine_along_cuts)
from .extremal import ExtremalRecord, estimate_f, search_min_p3_density
from .gadgets import AP_EXACT_BOUND, ap3_free_set, build_c5_gadget, build_poset_gadget, rs_graph
from .graphs import (
    Graph,
    PartLabeling,
    complement,
    count_induced_c5,
    count_induced_p3,
    count_triangles,
    cycle_graph,
    gnp,
    induced_subgraph,
    random_cograph,
    sample_vertices,
)
from .packing import (
    farness_lower_bound,
    triangle_cover,
    triangle_packing,
    tripartition_retention_samples,
)
from .pipelines import _gadget_samples
from .recognizers import (
    _comparability_hit,
    _find_triangle,
    _poset_hit,
    is_cograph,
    is_comparability,
    is_perfect,
    is_triangle_free,
)
from .rng import Stream
from .testers import TesterConfig, _sample_masks, estimate_detection, min_budget_for_detection

__all__ = ["ACCEPTANCE", "CheckResult", "SUITES", "SUITE_NAMES", "all_graphs", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail and not self.passed else ""
        return f"{mark}  {self.suite}: {self.name}{tail} ({self.seconds:.1f}s)"


def _check(suite: str, checks: Sequence[tuple[str, Callable[[], str | None]]]
           ) -> list[CheckResult]:
    """Run and time each (name, fn); fn returns None on pass or a falsifying detail."""
    out = []
    for name, fn in checks:
        start = time.perf_counter()
        try:
            detail = fn()
        except Exception as exc:  # a crash is a failure with the exception as witness
            detail = f"{type(exc).__name__}: {exc}"
        out.append(CheckResult(suite, name, detail is None, detail or "",
                               time.perf_counter() - start))
    return out


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, in `oracles.labeled_graphs` order."""
    return (Graph(n, rows) for rows in oracles.labeled_graphs(n))


@cache
def _p4_census(n: int) -> tuple[tuple[Graph, int], ...]:
    """Every n-vertex graph, in `all_graphs` order, with its brute-force
    induced 4-path count: built once per process and n, and read by each
    exhaustive check, which compares its own subject on every graph."""
    return tuple((g, len(oracles.induced_sets(g.rows, range(n), 4))) for g in all_graphs(n))


# --- graph-core ---------------------------------------------------------------

def counting_vs_naive(n: int) -> str | None:
    for g, p4 in _p4_census(n):
        if count_induced_p3(g) != p4:
            return f"p3 mismatch at rows={g.rows}"
        if count_induced_c5(g) != len(oracles.induced_sets(g.rows, range(n), 5)):
            return f"c5 mismatch at rows={g.rows}"
    return None


def complement_commutes(stream: Stream, draws: int) -> str | None:
    for i in range(draws):
        g = gnp(9, 0.5, stream.child(10, i))
        subset = sample_vertices(9, 5, stream.child(11, i))
        if induced_subgraph(complement(g), subset) != complement(induced_subgraph(g, subset)):
            return f"draw {i}"
    return None


def triangle_incremental(stream: Stream, draws: int) -> str | None:
    for i in range(draws):
        g = gnp(10, 0.5, stream.child(i))
        if g.m == 0:
            continue
        u, v = next(iter(g.edges()))
        through = (g.rows[u] & g.rows[v]).bit_count()
        if count_triangles(g) - count_triangles(g.with_toggled([(u, v)])) != through:
            return f"draw {i} edge {(u, v)}"
    return None


def construction_rejects() -> str | None:
    for rows, what in (([1, 0], "asymmetric"), ([1 | 2, 1], "self-loop")):
        try:
            Graph(2, rows)
            return f"{what} accepted"
        except ValueError:
            pass
    return None


def cograph_generator(stream: Stream) -> str | None:
    for i in range(100):
        if not is_cograph(random_cograph(10, stream.child(i))).member:
            return f"draw {i}"
    return None


def sampling_uniform(stream: Stream) -> str | None:
    trials = 100_000
    counts: dict[tuple, int] = {}
    for _ in range(trials):
        pick = sample_vertices(5, 2, stream)
        counts[pick] = counts.get(pick, 0) + 1
    expect = trials / 10
    se = math.sqrt(trials * 0.1 * 0.9)
    for pair in combinations(range(5), 2):
        got = counts.get(pair, 0)
        if abs(got - expect) > 3 * se:
            return f"pair {pair}: {got} vs {expect:.0f} +- {3 * se:.0f}"
    return None


# --- recognizers --------------------------------------------------------------

def seinsche_equivalence(n: int) -> str | None:
    """Cographs are the induced-4-path-free graphs (Seinsche): the cograph recognizer's
    4-path scan against the definition of a cograph, on every n-vertex graph."""
    for g in all_graphs(n):
        if is_cograph(g).member != oracles.cograph(g.rows, range(n)):
            return f"rows={g.rows}"
    return None


def forcing_vs_exhaustive(stream: Stream, draws: int) -> str | None:
    for g in all_graphs(5):
        if is_comparability(g).member != oracles.transitively_orientable(g.rows, range(5)):
            return f"rows={g.rows}"
    for i in range(draws):
        g = gnp(7, 0.5, stream.child(i))
        if is_comparability(g).member != oracles.transitively_orientable(g.rows, range(7)):
            return f"draw {i} rows={g.rows}"
    return None


def containment_chain(stream: Stream, draws: int) -> str | None:
    for i in range(draws):
        g = gnp(5 + i % 4, 0.5, stream.child(i))
        cg = is_cograph(g).member
        comp = is_comparability(g).member
        if cg and not comp:
            return f"cograph not comparability: draw {i} rows={g.rows}"
        if comp and not is_perfect(g).member:
            return f"comparability not perfect: draw {i} rows={g.rows}"
    return None


def generators_in_property(stream: Stream) -> str | None:
    for i in range(200):
        if not is_cograph(random_cograph(8, stream.child(4, i))).member:
            return f"cograph draw {i}"
    lower = (1 << 5) - 1
    upper = ((1 << 5) - 1) << 5
    for i in range(50):
        big = gnp(10, 0.6, stream.child(5, i))
        bip = Graph(10, [big.rows[v] & (upper if v < 5 else lower) for v in range(10)])
        if not is_triangle_free(bip).member:
            return f"bipartite draw {i}"
    return None


def witnesses_reverify(stream: Stream) -> str | None:
    for i in range(400):
        g = gnp(7, 0.5, stream.child(i))
        checks = [
            (is_triangle_free(g), lambda w: len(w) == 3 and oracles.induces(g.rows, w)),
            (is_cograph(g), lambda w: len(w) == 4 and oracles.induces(g.rows, w)),
            (is_perfect(g), lambda w: oracles.odd_hole_or_antihole(g.rows, w)),
        ]
        for res, good in checks:
            if not res.member and not good(res.witness):
                return f"draw {i} witness {res.witness} label {res.label}"
        rc = is_comparability(g)
        if (not rc.member and len(rc.witness) <= 8
                and oracles.transitively_orientable(g.rows, rc.witness)):
            return f"draw {i} comparability witness not non-orientable"
    return None


# --- decomposition ------------------------------------------------------------

def no_cut_implies_p4(n: int) -> str | None:
    # Seinsche: a graph with no exact cut contains an induced 4-path. The
    # converse fails (a 4-path plus an isolated vertex has a cut), so only
    # this direction is checked.
    for g, p4 in _p4_census(n):
        if find_cut(g) is None and p4 == 0:
            return f"cut-free without induced 4-path: rows={g.rows}"
    return None


def refinement_parts(stream: Stream, n: int, draws: int) -> str | None:
    for i in range(draws):
        g = gnp(n, 0.5, stream.child(i))
        ref = refine_along_cuts(g, 0)
        if ref.edited_pairs != 0:
            return f"beta=0 edited {ref.edited_pairs}"
        for part in ref.parts:
            if len(part) >= 2 and not oracles.induced_sets(g.rows, part, 4):
                return f"draw {i}: part {part} has no induced 4-path"
    return None


def edit_budget(stream: Stream) -> str | None:
    for i in range(60):
        n = 10 + (i % 3)
        beta = Fraction(1, 10 + (i % 5))
        g = gnp(n, 0.5, stream.child(i))
        ref = refine_along_cuts(g, beta)
        limit = beta * n * (n - 1) / 2
        if ref.edited_pairs > limit:
            return f"draw {i}: {ref.edited_pairs} > {float(limit):.2f}"
        ham = sum((a ^ b).bit_count()
                  for a, b in zip(g.rows, ref.modified_graph.rows)) // 2
        if ham != ref.edited_pairs:
            return f"draw {i}: hamming {ham} != edited {ref.edited_pairs}"
    return None


def distance_equals_nu(stream: Stream, draws: int) -> str | None:
    for i in range(draws):
        g = gnp(7, 0.4, stream.child(i))
        d = distance_to_property(g, is_triangle_free)
        nu = len(triangle_cover(g, "exact"))
        if isinstance(d, AboveCap):
            if nu <= d.cap:
                return f"draw {i}: oracle AboveCap but nu={nu}"
        elif d != nu:
            return f"draw {i}: distance {d} != nu {nu}"
        elif farness_lower_bound(triangle_packing(g, "exact")) > Fraction(d, 49):
            return f"draw {i}: packing farness above distance {d}/49"
    return None


def far_graphs_have_p3(stream: Stream, draws: int) -> str | None:
    eps = Fraction(1, 32)
    n = 8
    for i in range(draws):
        g = gnp(n, 0.5, stream.child(i))
        # far: edit distance at least eps * n^2 = 2, i.e. above 1
        if not isinstance(distance_to_property(g, is_cograph, cap=1), AboveCap):
            continue
        if count_induced_p3(g) == 0:
            return f"draw {i}: far graph with zero induced 4-paths"
        # weak largest-part reading: some refinement part has >= eps*n vertices
        ref = refine_along_cuts(g, eps)
        if max(len(p) for p in ref.parts) < eps * n:
            return f"draw {i}: largest part below eps*n"
    return None


# --- packing ------------------------------------------------------------------

def tau_nu_chain(stream: Stream, draws: int,
                 ns: Sequence[int] = (8, 9, 10, 11, 12)) -> str | None:
    """Draw i is G(ns[i % len(ns)], (.3, .5, .7)[i % 3]) from child i."""
    for i in range(draws):
        g = gnp(ns[i % len(ns)], [0.3, 0.5, 0.7][i % 3], stream.child(i))
        packing = triangle_packing(g, "exact")
        tau = len(packing)
        nu = len(triangle_cover(g, "exact"))
        if not tau <= nu <= 3 * tau:
            return f"draw {i}: tau={tau} nu={nu}"
        edges = [p for a, b, c in packing.tuples for p in ((a, b), (b, c), (a, c))]
        if count_triangles(g.with_toggled(edges)):
            return f"draw {i}: deleting the packing's edges leaves a triangle"
    return None


def packings_reverify(stream: Stream) -> str | None:
    for i in range(100):
        g = gnp(9, 0.6, stream.child(2, i))
        p = triangle_packing(g, "exact")
        p.verified_in(g)  # raises on failure
        q = triangle_packing(g, "greedy", stream.child(3, i))
        q.verified_in(g)
        if len(q) > len(p):
            return f"draw {i}: greedy beats exact"
    return None


def c5_packing_size() -> str | None:
    for k in (1, 2, 3, 4):
        rb = rs_graph(k, ap3_free_set(k, "exact"))
        gb = build_c5_gadget(rb.graph, rb.labeling.relabel(("V2", "V3", "V5")),
                             rb.certificate)
        if len(gb.certificate) != len(rb.certificate):
            return f"k={k}: {len(gb.certificate)} != planted {len(rb.certificate)}"
    return None


def distance_dominates_tau(stream: Stream, draws: int) -> str | None:
    for i in range(draws):
        g = gnp(7, 0.4, stream.child(i))
        tau = len(triangle_packing(g, "exact"))
        if not tau:  # every distance reaches 0
            continue
        # the distance must reach tau: ask whether it lies above tau - 1, or
        # above the cap, past which the oracle cannot see
        d = distance_to_property(g, is_triangle_free, cap=min(tau - 1, DISTANCE_CAP_BOUND))
        if not isinstance(d, AboveCap):
            return f"draw {i}: distance {d} < tau {tau}"
    return None


def tripartite_tau_bound() -> str | None:
    for k in (2, 3, 4):
        rb = rs_graph(k, ap3_free_set(k, "exact"))
        sizes = sorted(len(p) for p in rb.labeling.parts)
        tau = len(rb.certificate)  # maximum here: every triangle planted, disjoint
        if tau > sizes[0] * sizes[1]:
            return f"k={k}: tau {tau} > product {sizes[0] * sizes[1]}"
    return None


def retention_mean(stream: Stream, samples: int) -> str | None:
    g = cycle_graph(3)
    kept = tripartition_retention_samples(g, triangle_packing(g, "exact"), samples, stream)
    mean = sum(kept) / len(kept)
    se = math.sqrt((2 / 9) * (7 / 9) / len(kept))
    if abs(mean - 2 / 9) > 3 * se:
        return f"mean {mean:.5f} vs 2/9 +- {3 * se:.5f}"
    return None


# --- gadgets ------------------------------------------------------------------

def rs_exact_triangles(max_k: int, naive_k: int) -> str | None:
    """For k = 1..max_k, rs(k) holds exactly k|S| triangles (the constructor's
    audit) and its certificate re-verifies with k|S| of them; up to k =
    naive_k a brute-force scan of every vertex triple also finds k|S|."""
    for k in range(1, max_k + 1):
        s = ap3_free_set(k, "exact" if k <= AP_EXACT_BOUND else "behrend")
        rb = rs_graph(k, s)  # constructor audits count == k|S| and disjointness
        rb.certificate.verified_in(rb.graph)  # raises on failure
        if len(rb.certificate) != k * len(s):
            return f"k={k}: certificate holds {len(rb.certificate)} != {k * len(s)}"
        if k <= naive_k:
            naive = len(oracles.induced_sets(rb.graph.rows, range(rb.graph.n), 3))
            if naive != k * len(s):
                return f"k={k}: naive {naive} != {k * len(s)}"
    return None


def c5_gadget_rules_and_samples(stream: Stream, k: int, d: int, trials: int) -> str | None:
    """The planted 5-cycles of the five-part gadget over rs(k) re-verify
    (induced, pairwise sharing at most one vertex), and its d-vertex samples
    with a triangle-free inner part are comparability graphs; some sample
    must be triangle-free. Trial i samples from counter block i of the batch
    on `stream`."""
    rb = rs_graph(k, ap3_free_set(k, "exact"))
    f = rb.graph
    gb = build_c5_gadget(f, rb.labeling.relabel(("V2", "V3", "V5")),
                         rb.certificate)  # construction re-audits the 9 rules
    gb.certificate.verified_in(gb.graph)  # raises on failure
    trifree = 0
    for i, (mask, inner_free, ordered) in enumerate(_gadget_samples(f, gb, d, trials, stream)):
        trifree += inner_free
        if inner_free and not ordered:
            return f"trial {i}: triangle-free portion fails order transitivity"
        if inner_free and _comparability_hit(gb.graph.rows, mask) is not None:
            return f"trial {i}: triangle-free portion not comparability"
    if not trifree:
        return f"no triangle-free sample in {trials} trials"
    return None


def poset_gadget_samples(t: Graph, labeling: PartLabeling, stream: Stream, d: int,
                         trials: int) -> str | None:
    """d-vertex samples of the poset gadget over the tripartite t (parts V1,
    V2, V3) are posets iff they span no triangle of t; trial i samples from
    counter block i of the batch on `stream`."""
    pb = build_poset_gadget(t, labeling)
    for i, mask in enumerate(_sample_masks(t.n, d, stream, 0, trials)):
        tri_free = _find_triangle(t.rows, mask) is None
        ok = _poset_hit(pb.graph.rows, mask) is None
        if ok != tri_free:
            return f"trial {i}: poset={ok} but triangle-free={tri_free}"
    return None


def _rs_tripartite(k: int) -> tuple[Graph, PartLabeling]:
    rb = rs_graph(k, ap3_free_set(k, "exact"))
    return rb.graph, rb.labeling.relabel(("V1", "V2", "V3"))


def _triangle_free_tripartite(part: int, stream: Stream) -> tuple[Graph, PartLabeling]:
    """Random tripartite graph with parts V1, V2, V3 of `part` vertices: each
    V1-V2 pair, then each V2-V3 pair, in row order, is an edge with
    probability 1/2, and no V1-V3 pair is, so no triangle forms."""
    parts = [range(i * part, (i + 1) * part) for i in range(3)]
    gen = stream.gen
    edges = [(u, v) for a, b in ((0, 1), (1, 2)) for u in parts[a] for v in parts[b]
             if gen.random() < 0.5]
    return (Graph.from_edges(3 * part, edges),
            PartLabeling(3 * part, list(zip(("V1", "V2", "V3"), parts))))


def poset_gadget_both_sides(stream: Stream, k: int, part: int, d: int,
                            trials: int) -> str | None:
    """`poset_gadget_samples` over rs(k) on child 0, then over a triangle-free
    tripartite host with `part` vertices a part, drawn from child 1 and
    sampled on child 2, where every sample must be a poset."""
    detail = poset_gadget_samples(*_rs_tripartite(k), stream.child(0), d, trials)
    if detail:
        return f"rs({k}): {detail}"
    t, labeling = _triangle_free_tripartite(part, stream.child(1))
    if count_triangles(t):
        return f"triangle-free host has {count_triangles(t)} triangles"
    detail = poset_gadget_samples(t, labeling, stream.child(2), d, trials)
    return detail and f"triangle-free host: {detail}"


def farness_below_distance() -> str | None:
    rb = rs_graph(1, ap3_free_set(1, "exact"))  # n=6, farness 1/36
    # the distance must reach farness * 36: ask whether it lies above one less
    d = distance_to_property(rb.graph, is_triangle_free, cap=math.ceil(rb.farness * 36) - 1)
    if not isinstance(d, AboveCap):
        return f"farness {rb.farness} above true distance {d}/36"
    return None


def incidental_c5_census() -> str | None:
    # measured, not asserted either way: how many induced 5-cycles beyond
    # the one-vertex-per-part planted shape exist at small n
    lab = PartLabeling(3, [("V2", [0]), ("V3", [1]), ("V5", [2])])
    gb = build_c5_gadget(cycle_graph(3), lab)
    total = count_induced_c5(gb.graph)
    if total < len(gb.certificate):
        return f"census {total} below certificate {len(gb.certificate)}"
    return None


# --- testers ------------------------------------------------------------------

def one_sided(stream: Stream, trials: int) -> str | None:
    """No tester rejects a member: the 9-cycle or a cograph drawn from child 0,
    which the cograph recognizer must accept."""
    cg = random_cograph(16, stream.child(0))
    if not is_cograph(cg).member:
        return "the cograph host fails the cograph recognizer"
    tri_free = cycle_graph(9)
    runs = [
        (tri_free, TesterConfig("triple-density", t=4),
         "triple tester rejected a triangle-free graph"),
        (cg, TesterConfig("quadruple-density", t=4), "quadruple tester rejected a cograph"),
        (cg, TesterConfig("universal", d=8, property_name="cograph"),
         "universal tester rejected a cograph"),
        (tri_free, TesterConfig("universal", d=9, property_name="triangle-free"),
         "universal tester rejected a triangle-free graph"),
    ]
    for j, (g, cfg, what) in enumerate(runs, start=1):
        rep = estimate_detection(g, cfg, trials, stream.child(j))
        if rep.rejections:
            return f"{what} {rep.rejections} times"
    return None


def budget_accounting() -> str | None:
    if TesterConfig("universal", d=7, property_name="cograph").queries_per_trial() != 21:
        return "universal C(d,2)"
    if TesterConfig("triple-density", t=5).queries_per_trial() != 15:
        return "triple 3t"
    if TesterConfig("quadruple-density", t=5).queries_per_trial() != 30:
        return "quadruple 6t"
    return None


def binomial_consistency(g: Graph, kind: str, trials: int, stream: Stream) -> str | None:
    """Wilson 95% intervals of the density tester `kind` on g hold the binomial
    model 1 - (1 - p)^t for t in {1, 10, 100}; budget t draws from child t."""
    if kind == "triple-density":
        p = count_triangles(g) / math.comb(g.n, 3)
    else:
        p = count_induced_p3(g) / math.comb(g.n, 4)
    for t in (1, 10, 100):
        rep = estimate_detection(g, TesterConfig(kind, t=t), trials, stream.child(t))
        pred = 1 - (1 - p) ** t
        if not rep.wilson_lo <= pred <= rep.wilson_hi:
            return f"t={t}: pred {pred:.5f} outside ({rep.wilson_lo:.5f},{rep.wilson_hi:.5f})"
    return None


def density_testers_binomial(stream: Stream, k: int, trials: int) -> str | None:
    """`binomial_consistency` of the triple tester on rs(k) from child 0 and of
    the quadruple tester on the 5-cycle from child 1, every one of whose five
    quadruples induces a 4-path (p = 1)."""
    c5 = cycle_graph(5)
    if count_induced_p3(c5) != math.comb(5, 4):
        return f"5-cycle: {count_induced_p3(c5)} induced 4-paths, not one per quadruple"
    return (binomial_consistency(rs_graph(k, ap3_free_set(k, "exact")).graph,
                                 "triple-density", trials, stream.child(0))
            or binomial_consistency(c5, "quadruple-density", trials, stream.child(1)))


def monotone_in_budget(stream: Stream) -> str | None:
    g = gnp(40, 0.25, stream.child(7))
    prev_lo = 0.0
    for t in (1, 4, 16, 64):
        rep = estimate_detection(g, TesterConfig("triple-density", t=t), 2000, stream.child(8, t))
        if rep.wilson_hi < prev_lo:
            return f"rate dropped beyond interval at t={t}"
        prev_lo = max(prev_lo, rep.wilson_lo)
    return None


def deterministic_reports(stream: Stream) -> str | None:
    g = gnp(25, 0.3, stream.child(9))
    cfg = TesterConfig("triple-density", t=3)
    a = estimate_detection(g, cfg, 400, stream.child(10))
    b = estimate_detection(g, cfg, 400, stream.child(10))
    c = estimate_detection(g, cfg, 400, stream.child(10), threads=3)
    if a != b or a != c:
        return "reports differ across reruns or thread counts"
    return None


def hardness_gap(stream: Stream, k: int, seeds: int, trials: int) -> str | None:
    """Triangle-freeness is hard to test: on each of `seeds` seeds the
    universal tester, at `trials` trials a probe, needs a strictly larger
    budget to reject the planted-sparse rs(k) (child 1, seed, 0) than a G(n, p)
    control (child 1, seed, 1), the first of p = .12, .15, .2, .25, .3 (child
    0, j) whose greedy packing reaches rs(k)'s planted count; each budget is
    at least its analytic floor."""
    rb = rs_graph(k, ap3_free_set(k, "exact"))  # constructor audits count == k|S|
    rs, target = rb.graph, len(rb.certificate)
    for j, p in enumerate((0.12, 0.15, 0.2, 0.25, 0.3)):
        control = gnp(rs.n, p, stream.child(0, j))
        packing = triangle_packing(control, "greedy")
        if len(packing) >= target:
            break
    else:
        return "no control reached the target farness"
    if farness_lower_bound(packing) < farness_lower_bound(rb.certificate):
        return f"control farness {farness_lower_bound(packing)} below rs({k})'s"
    for seed in range(seeds):
        res_rs, res_ctrl = (
            min_budget_for_detection(g, "universal", stream.child(1, seed, side), trials=trials,
                                     property_name="triangle-free", cap=rs.n)
            for side, g in enumerate((rs, control)))
        if res_rs.budget is None or res_ctrl.budget is None:
            return f"seed {seed}: no budget (rs {res_rs.budget}, control {res_ctrl.budget})"
        if res_rs.budget <= res_ctrl.budget:
            return f"seed {seed}: rs budget {res_rs.budget} not above the control's {res_ctrl.budget}"
        for name, res in (("rs", res_rs), ("control", res_ctrl)):
            if res.analytic_floor > res.budget:
                return (f"seed {seed}: {name} budget {res.budget} below its analytic "
                        f"floor {res.analytic_floor:.2f}")
    return None


# --- extremal -----------------------------------------------------------------

def _fewest_p3_without_beta_cut(n: int, beta: Fraction) -> int | None:
    """Brute force over every labeled n-vertex graph: the fewest induced
    4-paths in one whose every bipartition has crossing density strictly
    between beta and 1 - beta, or None if no graph qualifies."""
    return min((len(oracles.induced_sets(rows, range(n), 4))
                for rows in oracles.labeled_graphs(n)
                if all(beta < Fraction(cross, prod) < 1 - beta
                       for _, cross, prod in oracles.bipartitions(rows))), default=None)


def search_floors(stream: Stream) -> str | None:
    """The certified searches respect the density floors. At beta = 1/5 the
    climbs at n = 5 (child 0, effort 200), 8 and 10 (children 1 and 2, effort
    400) stay at or above (beta/100)^12, and the n = 5 one meets the
    exhaustive optimum, one induced 4-path (the bull); the 5-cycle has no
    1/5-cut and its record reports density 0.008; `estimate_f` at n = 8 and
    eps = 1/32 (child 3, effort 30) stays at or above (eps/100)^16."""
    beta = Fraction(1, 5)
    floor12 = (beta / 100) ** 12
    best = _fewest_p3_without_beta_cut(5, beta)
    if best != 1:
        return f"exhaustive n=5 optimum {best}, not the bull's 1"
    for j, (n, effort) in enumerate(((5, 200), (8, 400), (10, 400))):
        rec = search_min_p3_density(n, beta, effort, stream.child(j))
        if n == 5 and rec.p3_density != Fraction(best, 5 ** 4):
            return f"n=5 record density {rec.p3_density} misses the optimum {best}/625"
        if rec.p3_density < floor12:
            return f"n={n} record density {rec.p3_density} below (beta/100)^12"
    c5 = cycle_graph(5)
    if find_beta_cut(c5, beta, "exact") is not None:
        return "the 5-cycle has a 1/5-cut"
    rec_c5 = ExtremalRecord(n=5, graph=c5, p3_count=count_induced_p3(c5), beta=beta)
    if float(rec_c5.p3_density) != 0.008:
        return f"the 5-cycle record reports density {float(rec_c5.p3_density)}"
    eps = Fraction(1, 32)
    rec_f = estimate_f(8, eps, 30, stream.child(3))
    if rec_f.p3_density < (eps / 100) ** 16:
        return f"estimate_f record density {rec_f.p3_density} below (eps/100)^16"
    return None


# --- the tables ---------------------------------------------------------------

# suite name -> (stream index, ordered (label, check) entries); each entry
# takes the suite's stream and runs its check at the spec-level sizes, looked
# up in this module's globals at call time so that a test can stub it
SUITES: dict[str, tuple[int, list[tuple[str, Callable[[Stream], str | None]]]]] = {
    "graph-core": (1, [
        ("induced counts match enumeration on all 6-vertex graphs",
         lambda rng: counting_vs_naive(6)),
        ("induced subgraph commutes with complement",
         lambda rng: complement_commutes(rng, 200)),
        ("edge deletion drops exactly the triangles through it",
         lambda rng: triangle_incremental(rng.child(20), 200)),
        ("construction rejects asymmetric and self-looped rows",
         lambda rng: construction_rejects()),
        ("random cographs always pass the recognizer",
         lambda rng: cograph_generator(rng.child(30))),
        ("2-subset sampling uniform within 3 standard errors",
         lambda rng: sampling_uniform(rng.child(40))),
    ]),
    "recognizers": (2, [
        ("cograph recognizer matches the cograph definition on all 6-vertex graphs",
         lambda rng: seinsche_equivalence(6)),
        ("forcing agrees with exhaustive orientation (all 5-vertex graphs + "
         "10000 random 7-vertex)",
         lambda rng: forcing_vs_exhaustive(rng.child(1), 10_000)),
        ("containment chain cograph => comparability => perfect (10000 draws, n <= 8)",
         lambda rng: containment_chain(rng.child(2), 10_000)),
        ("known-member generators always accepted",
         lambda rng: generators_in_property(rng)),
        ("every negative answer's witness re-verifies",
         lambda rng: witnesses_reverify(rng.child(6))),
    ]),
    "decomposition": (3, [
        ("no exact cut implies an induced 4-path (all 6-vertex graphs)",
         lambda rng: no_cut_implies_p4(6)),
        ("zero-beta refinement parts of size >= 2 contain an induced 4-path",
         lambda rng: refinement_parts(rng.child(1), 9, 100)),
        ("refinement edits bounded by beta * C(n,2) and equal Hamming distance",
         lambda rng: edit_budget(rng.child(2))),
        ("edit distance to triangle-freeness equals the exact cover number and bounds "
         "packing farness (1000 draws, n=7)",
         lambda rng: distance_equals_nu(rng.child(3), 1000)),
        ("far-from-cograph graphs have induced 4-paths and a refinement part of at "
         "least eps*n vertices", lambda rng: far_graphs_have_p3(rng.child(4), 300)),
    ]),
    "packing": (4, [
        ("tau <= nu <= 3*tau and a maximum packing is maximal over 200 draws (n <= 12)",
         lambda rng: tau_nu_chain(rng.child(1), 200)),
        ("packings re-verify; greedy never beats exact",
         lambda rng: packings_reverify(rng)),
        ("greedy 5-cycle packing size equals the planted count",
         lambda rng: c5_packing_size()),
        ("edit distance to triangle-freeness is at least tau",
         lambda rng: distance_dominates_tau(rng.child(4), 200)),
        ("tripartite tau bounded by the two smallest parts' product",
         lambda rng: tripartite_tau_bound()),
        ("tripartition retention mean within 3 SE of 2/9",
         lambda rng: retention_mean(rng.child(5), 100_000)),
    ]),
    "gadgets": (5, [
        ("rs triangle count exactly k|S| for k <= 30 (naive-checked to k=6)",
         lambda rng: rs_exact_triangles(30, 6)),
        ("five-part gadget: triangle-free samples are comparability graphs",
         lambda rng: c5_gadget_rules_and_samples(rng.child(1), 5, 12, 1000)),
        ("poset gadget samples are posets exactly when triangle-free",
         lambda rng: poset_gadget_samples(*_rs_tripartite(4), rng.child(2), 8, 1000)),
        ("bundle farness below exact edit distance at oracle scale",
         lambda rng: farness_below_distance()),
        ("induced 5-cycle census at small n covers the certificate",
         lambda rng: incidental_c5_census()),
    ]),
    "testers": (6, [
        ("one-sidedness: zero rejections across 10000 member trials",
         lambda rng: one_sided(rng, 2500)),
        ("query accounting: C(d,2), 3t, 6t", lambda rng: budget_accounting()),
        ("density-tester rates match the binomial model within Wilson 95%",
         lambda rng: binomial_consistency(rs_graph(12, ap3_free_set(12, "exact")).graph,
                                          "triple-density", 10_000, rng.child(6))),
        ("rejection rate non-decreasing in budget (within intervals)",
         lambda rng: monotone_in_budget(rng)),
        ("identical seed gives identical reports, independent of threads",
         lambda rng: deterministic_reports(rng)),
    ]),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one suite's table entries on its stream, each timed."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    index, checks = SUITES[name]
    rng = Stream(seed, (index,))
    return _check(name, [(label, partial(check, rng)) for label, check in checks])


# (number, wall-clock budget in seconds, label, check) per acceptance
# criterion; each check runs one check function at the criterion's pinned
# stream Stream(1300 + number), sizes and trial counts, looked up in this
# module's globals at call time so that a test can stub it
ACCEPTANCE: list[tuple[int, float, str, Callable[[], str | None]]] = [
    (1, 120, "tau <= nu <= 3*tau and maximal packings over 200 seeded G(12,p), "
             "zero violations",
     lambda: tau_nu_chain(Stream(1301), 200, ns=(12,))),
    (2, 60, "rs triangle count k|S| exactly for k <= 20, packing edge-disjoint, "
            "brute-force verified",
     lambda: rs_exact_triangles(20, 20)),
    (3, 180, "five-part gadget: triangle-free samples are comparability; "
             "planted 5-cycles re-verify with overlap <= 1",
     lambda: c5_gadget_rules_and_samples(Stream(1303), 6, 15, 1000)),
    (4, 60, "poset gadget: sample is a poset exactly when its triangle side is "
            "triangle-free",
     lambda: poset_gadget_both_sides(Stream(1304), 4, 6, 8, 1000)),
    (5, 60, "cograph recognizer matches the cograph definition on all 32768 graphs "
            "on 6 vertices",
     lambda: seinsche_equivalence(6)),
    (6, 60, "one-sidedness: zero rejections over 10^4 member trials",
     lambda: one_sided(Stream(1306), 2500)),
    (7, 120, "density-tester rates within Wilson 95% of 1-(1-p)^t for t in {1,10,100}",
     lambda: density_testers_binomial(Stream(1307), 20, 10_000)),
    (8, 60, "mean packing retention over 10^5 tripartitions within 3 SE of 2/9",
     lambda: retention_mean(Stream(1308), 100_000)),
    (9, 300, "10^3 search restarts at n <= 10 never violate the density floors; "
             "the 5-cycle record reports 0.008",
     lambda: search_floors(Stream(1309))),
    (10, 600, "planted-sparse graph needs a strictly larger universal budget than a "
              "farness-matched random control, 5 seeds; analytic floors respected",
     lambda: hardness_gap(Stream(1310), 40, 5, 300)),
    (11, 300, "edit distance to triangle-freeness equals nu on 10^3 draws; packing "
              "farness never exceeds true distance",
     lambda: distance_equals_nu(Stream(1311), 1000)),
]
