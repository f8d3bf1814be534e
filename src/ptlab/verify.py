"""Invariant checks: executable versions of each module's stated properties.

Each check is a module-level function that takes its stream, sizes and draw
count and returns None on pass or a detail string naming the falsifying
instance. The acceptance criteria and unit tests call these functions at
their own pinned streams and sizes; `run_suite(name)` runs one suite's checks
at the default (spec-level) sizes and returns one timed CheckResult each.
Checks look up recognizers, counters and packings through this module's
globals, so a test can monkeypatch one (say `ptlab.verify.is_comparability`)
to show that a check can fail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .decomposition import AboveCap, distance_to_property, find_cut, refine_along_cuts
from .gadgets import ap3_free_set, build_c5_gadget, build_poset_gadget, rs_graph
from .graphs import (
    Graph,
    PartLabeling,
    complement,
    components,
    count_induced_c5,
    count_induced_p3,
    count_triangles,
    cycle_graph,
    gnp,
    induced_subgraph,
    is_cycle_5,
    is_path_4,
    naive_induced_count,
    pair_from_index,
    random_cograph,
    sample_vertices,
)
from .packing import (
    farness_lower_bound,
    triangle_cover,
    triangle_packing,
    tripartition_retention_samples,
)
from .recognizers import (
    _comparability_hit,
    _find_triangle,
    _later_masks,
    _orientable_exhaustive,
    _order_hit,
    is_cograph,
    is_comparability,
    is_perfect,
    is_poset,
    is_triangle_free,
)
from .rng import Stream
from .testers import TesterConfig, estimate_detection

__all__ = ["CheckResult", "SUITE_NAMES", "all_graphs", "run_suite"]

SUITE_NAMES = ("graph-core", "recognizers", "decomposition", "packing",
               "gadgets", "testers")


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
    """Every labeled graph on n vertices, one per edge mask."""
    pairs = n * (n - 1) // 2
    for mask in range(1 << pairs):
        yield Graph.from_edges(
            n, [pair_from_index(n, i) for i in range(pairs) if (mask >> i) & 1])


# --- graph-core ---------------------------------------------------------------

def counting_vs_naive(n: int) -> str | None:
    for g in all_graphs(n):
        if count_induced_p3(g) != naive_induced_count(g, is_path_4, 4):
            return f"p3 mismatch at rows={g.rows}"
        if count_induced_c5(g) != naive_induced_count(g, is_cycle_5, 5):
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
    try:
        Graph(2, [1, 0])
        return "asymmetric accepted"
    except ValueError:
        pass
    try:
        Graph(2, [1 | 2, 1])
        return "self-loop accepted"
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


def suite_graph_core(seed: int = 0, exhaustive_n: int = 6, draws: int = 200) -> list[CheckResult]:
    rng = Stream(seed, (1,))
    return _check("graph-core", [
        (f"induced counts match enumeration on all {exhaustive_n}-vertex graphs",
         lambda: counting_vs_naive(exhaustive_n)),
        ("induced subgraph commutes with complement", lambda: complement_commutes(rng, draws)),
        ("edge deletion drops exactly the triangles through it",
         lambda: triangle_incremental(rng.child(20), draws)),
        ("construction rejects asymmetric and self-looped rows", construction_rejects),
        ("random cographs always pass the recognizer", lambda: cograph_generator(rng.child(30))),
        ("2-subset sampling uniform within 3 standard errors",
         lambda: sampling_uniform(rng.child(40))),
    ])


# --- recognizers --------------------------------------------------------------

def seinsche_equivalence(n: int) -> str | None:
    for g in all_graphs(n):
        if is_cograph(g).member != (naive_induced_count(g, is_path_4, 4) == 0):
            return f"rows={g.rows}"
    return None


def forcing_vs_exhaustive(stream: Stream, draws: int) -> str | None:
    for g in all_graphs(5):
        if is_comparability(g).member != _orientable_exhaustive(g):
            return f"rows={g.rows}"
    for i in range(draws):
        g = gnp(7, 0.5, stream.child(i))
        if is_comparability(g).member != _orientable_exhaustive(g):
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
            (is_triangle_free(g), lambda w: count_triangles(induced_subgraph(g, w)) >= 1),
            (is_cograph(g), lambda w: is_path_4(induced_subgraph(g, w))),
            (is_perfect(g), lambda w: _is_odd_hole_or_antihole(g, w)),
        ]
        for res, good in checks:
            if not res.member and not good(res.witness):
                return f"draw {i} witness {res.witness} label {res.label}"
        rc = is_comparability(g)
        if not rc.member:
            sub = induced_subgraph(g, rc.witness)
            if sub.n <= 8 and _orientable_exhaustive(sub):
                return f"draw {i} comparability witness not non-orientable"
    return None


def _is_odd_hole_or_antihole(g: Graph, w: tuple[int, ...]) -> bool:
    sub = induced_subgraph(g, w)
    for h in (sub, complement(sub)):
        k = h.n
        if k >= 5 and k % 2 == 1 and h.m == k and all(h.degree(v) == 2 for v in range(k)):
            # connected 2-regular odd graph of size n is one odd cycle
            if len(components(h.rows, (1 << k) - 1)) == 1:
                return True
    return False


def suite_recognizers(seed: int = 0, chain_draws: int = 10_000,
                      forcing_draws: int = 10_000) -> list[CheckResult]:
    rng = Stream(seed, (2,))
    return _check("recognizers", [
        ("cograph recognizer matches induced-4-path-freeness on all 6-vertex graphs",
         lambda: seinsche_equivalence(6)),
        (f"forcing agrees with exhaustive orientation (all 5-vertex graphs + "
         f"{forcing_draws} random 7-vertex)",
         lambda: forcing_vs_exhaustive(rng.child(1), forcing_draws)),
        (f"containment chain cograph => comparability => perfect ({chain_draws} draws, n <= 8)",
         lambda: containment_chain(rng.child(2), chain_draws)),
        ("known-member generators always accepted", lambda: generators_in_property(rng)),
        ("every negative answer's witness re-verifies", lambda: witnesses_reverify(rng.child(6))),
    ])


# --- decomposition ------------------------------------------------------------

def no_cut_implies_p4(n: int) -> str | None:
    # Seinsche: a graph with no exact cut contains an induced 4-path. The
    # converse fails (a 4-path plus an isolated vertex has a cut), so only
    # this direction is checked.
    for g in all_graphs(n):
        if find_cut(g) is None and naive_induced_count(g, is_path_4, 4) == 0:
            return f"cut-free without induced 4-path: rows={g.rows}"
    return None


def refinement_parts(stream: Stream, n: int, draws: int) -> str | None:
    for i in range(draws):
        g = gnp(n, 0.5, stream.child(i))
        ref = refine_along_cuts(g, 0)
        if ref.edited_pairs != 0:
            return f"beta=0 edited {ref.edited_pairs}"
        for part in ref.parts:
            if len(part) >= 2 and naive_induced_count(induced_subgraph(g, part), is_path_4, 4) == 0:
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
        elif farness_lower_bound(triangle_packing(g, "exact"), 7) > Fraction(d, 49):
            return f"draw {i}: packing farness above distance {d}/49"
    return None


def far_graphs_have_p3(stream: Stream, draws: int) -> str | None:
    eps = Fraction(1, 32)
    n = 8
    threshold = eps * n * n  # = 2
    for i in range(draws):
        g = gnp(n, 0.5, stream.child(i))
        d = distance_to_property(g, is_cograph)
        far = (d.cap + 1 >= threshold) if isinstance(d, AboveCap) else (d >= threshold)
        if not far:
            continue
        if count_induced_p3(g) == 0:
            return f"draw {i}: far graph with zero induced 4-paths"
        # weak largest-part reading: some refinement part has >= eps*n vertices
        ref = refine_along_cuts(g, eps)
        if max(len(p) for p in ref.parts) < eps * n:
            return f"draw {i}: largest part below eps*n"
    return None


def suite_decomposition(seed: int = 0, nu_draws: int = 1000,
                        far_draws: int = 300) -> list[CheckResult]:
    rng = Stream(seed, (3,))
    return _check("decomposition", [
        ("no exact cut implies an induced 4-path (all 6-vertex graphs)",
         lambda: no_cut_implies_p4(6)),
        ("zero-beta refinement parts of size >= 2 contain an induced 4-path",
         lambda: refinement_parts(rng.child(1), 9, 100)),
        ("refinement edits bounded by beta * C(n,2) and equal Hamming distance",
         lambda: edit_budget(rng.child(2))),
        (f"edit distance to triangle-freeness equals the exact cover number and bounds "
         f"packing farness ({nu_draws} draws, n=7)",
         lambda: distance_equals_nu(rng.child(3), nu_draws)),
        ("far-from-cograph graphs have induced 4-paths and a refinement part of at "
         "least eps*n vertices", lambda: far_graphs_have_p3(rng.child(4), far_draws)),
    ])


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
        d = distance_to_property(g, is_triangle_free)
        if not isinstance(d, AboveCap) and d < tau:
            return f"draw {i}: distance {d} < tau {tau}"
    return None


def tripartite_tau_bound() -> str | None:
    for i in range(60):
        k = 2 + i % 3
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


def suite_packing(seed: int = 0, chain_draws: int = 200) -> list[CheckResult]:
    rng = Stream(seed, (4,))
    return _check("packing", [
        (f"tau <= nu <= 3*tau and a maximum packing is maximal over {chain_draws} draws "
         "(n <= 12)",
         lambda: tau_nu_chain(rng.child(1), chain_draws)),
        ("packings re-verify; greedy never beats exact", lambda: packings_reverify(rng)),
        ("greedy 5-cycle packing size equals the planted count", c5_packing_size),
        ("edit distance to triangle-freeness is at least tau",
         lambda: distance_dominates_tau(rng.child(4), 200)),
        ("tripartite tau bounded by the two smallest parts' product", tripartite_tau_bound),
        ("tripartition retention mean within 3 SE of 2/9",
         lambda: retention_mean(rng.child(5), 100_000)),
    ])


# --- gadgets ------------------------------------------------------------------

def rs_exact_triangles(max_k: int) -> str | None:
    for k in range(1, max_k + 1):
        s = ap3_free_set(k, "exact" if k <= 40 else "behrend")
        rb = rs_graph(k, s)  # constructor audits count == k|S| and disjointness
        if k <= 6:
            naive = naive_induced_count(rb.graph, lambda h: h.m == 3, 3)
            if naive != k * len(s):
                return f"k={k}: naive {naive} != {k * len(s)}"
    return None


def c5_gadget_rules_and_samples(stream: Stream, k: int, d: int, trials: int) -> str | None:
    """d-vertex samples of the five-part gadget over rs(k) with a triangle-free
    inner part are comparability graphs; some sample must be triangle-free."""
    rb = rs_graph(k, ap3_free_set(k, "exact"))
    f = rb.graph
    gb = build_c5_gadget(f, rb.labeling.relabel(("V2", "V3", "V5")),
                         rb.certificate)  # construction re-audits the 9 rules
    later = _later_masks(gb.labeling)
    trifree = 0
    for i in range(trials):
        pick = sample_vertices(gb.graph.n, d, stream.child(i))
        inner = sum(1 << (v - 4 * f.n) for v in pick if v >= 4 * f.n)
        if _find_triangle(f.rows, inner) is not None:
            continue
        trifree += 1
        mask = sum(1 << v for v in pick)
        if _order_hit(gb.graph.rows, mask, later) is not None:
            return f"trial {i}: triangle-free portion fails order transitivity"
        if _comparability_hit(gb.graph.rows, mask) is not None:
            return f"trial {i}: triangle-free portion not comparability"
    if not trifree:
        return f"no triangle-free sample in {trials} trials"
    return None


def poset_gadget_samples(stream: Stream, k: int, d: int, trials: int) -> str | None:
    """d-vertex samples of the poset gadget over rs(k) are posets iff triangle-free."""
    rb = rs_graph(k, ap3_free_set(k, "exact"))
    t = rb.graph
    pb = build_poset_gadget(t, rb.labeling.relabel(("V1", "V2", "V3")), rb.certificate)
    for i in range(trials):
        pick = sample_vertices(t.n, d, stream.child(i))
        tri_free = _find_triangle(t.rows, sum(1 << v for v in pick)) is None
        ok = is_poset(pb.graph.induced(pick)).member
        if ok != tri_free:
            return f"trial {i}: poset={ok} but triangle-free={tri_free}"
    return None


def farness_below_distance() -> str | None:
    rb = rs_graph(1, ap3_free_set(1, "exact"))  # n=6, farness 1/36
    d = distance_to_property(rb.graph, is_triangle_free)
    dist = d if isinstance(d, int) else d.cap + 1
    if rb.farness > Fraction(dist, 36):
        return f"farness {rb.farness} above true distance {dist}/36"
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


def suite_gadgets(seed: int = 0, sample_trials: int = 1000,
                  rs_max_k: int = 30) -> list[CheckResult]:
    rng = Stream(seed, (5,))
    return _check("gadgets", [
        (f"rs triangle count exactly k|S| for k <= {rs_max_k} (naive-checked to k=6)",
         lambda: rs_exact_triangles(rs_max_k)),
        ("five-part gadget: triangle-free samples are comparability graphs",
         lambda: c5_gadget_rules_and_samples(rng.child(1), 5, 12, sample_trials)),
        ("poset gadget samples are posets exactly when triangle-free",
         lambda: poset_gadget_samples(rng.child(2), 4, 8, sample_trials)),
        ("bundle farness below exact edit distance at oracle scale", farness_below_distance),
        ("induced 5-cycle census at small n covers the certificate", incidental_c5_census),
    ])


# --- testers ------------------------------------------------------------------

def one_sided(stream: Stream, trials: int) -> str | None:
    """No tester rejects a member: the 9-cycle or a cograph drawn from child 0."""
    cg = random_cograph(16, stream.child(0))
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


def suite_testers(seed: int = 0, one_sided_trials: int = 10_000,
                  consistency_trials: int = 10_000) -> list[CheckResult]:
    rng = Stream(seed, (6,))
    return _check("testers", [
        (f"one-sidedness: zero rejections across {one_sided_trials} member trials",
         lambda: one_sided(rng, one_sided_trials // 4)),
        ("query accounting: C(d,2), 3t, 6t", budget_accounting),
        ("density-tester rates match the binomial model within Wilson 95%",
         lambda: binomial_consistency(rs_graph(12, ap3_free_set(12, "exact")).graph,
                                      "triple-density", consistency_trials, rng.child(6))),
        ("rejection rate non-decreasing in budget (within intervals)",
         lambda: monotone_in_budget(rng)),
        ("identical seed gives identical reports, independent of threads",
         lambda: deterministic_reports(rng)),
    ])


SUITES = {
    "graph-core": suite_graph_core,
    "recognizers": suite_recognizers,
    "decomposition": suite_decomposition,
    "packing": suite_packing,
    "gadgets": suite_gadgets,
    "testers": suite_testers,
}


def run_suite(name: str, seed: int = 0, **kwargs) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed=seed, **kwargs)
