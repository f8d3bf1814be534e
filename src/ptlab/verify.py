"""Invariant suites: executable versions of each module's stated properties.

`run_suite(name)` executes every check at its default (spec-level) size and
returns CheckResults; any failure carries the falsifying instance in its
detail string. Recognizers used by cross-module checks are injectable so a
deliberately broken one makes the suite fail (fault-injection fixture).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

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
from .packing import WitnessPacking, triangle_cover, triangle_packing
from .recognizers import (
    RecognitionResult,
    check_order_transitivity,
    is_cograph,
    is_comparability,
    is_perfect,
    is_poset,
    is_triangle_free,
)
from .rng import Stream
from .testers import TesterConfig, estimate_detection, universal_tester

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_suites"]

SUITE_NAMES = ("graph-core", "recognizers", "decomposition", "packing",
               "gadgets", "testers")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail and not self.passed else ""
        return f"{mark}  {self.suite}: {self.name}{tail}"


def _check(results: list, suite: str, name: str, fn: Callable[[], str | None]) -> None:
    """Run one check; fn returns None on pass or a falsifying detail."""
    try:
        detail = fn()
    except Exception as exc:  # a crash is a failure with the exception as witness
        results.append(CheckResult(suite, name, False, f"{type(exc).__name__}: {exc}"))
        return
    results.append(CheckResult(suite, name, detail is None, detail or ""))


def _all_graphs(n: int):
    pairs = n * (n - 1) // 2
    for mask in range(1 << pairs):
        yield Graph.from_edges(
            n, [pair_from_index(n, i) for i in range(pairs) if (mask >> i) & 1])


# --- graph-core ---------------------------------------------------------------

def suite_graph_core(seed: int = 0, exhaustive_n: int = 6, draws: int = 200) -> list[CheckResult]:
    rng = Stream(seed, (1,))
    out: list[CheckResult] = []

    def counting_vs_naive() -> str | None:
        for g in _all_graphs(exhaustive_n):
            if count_induced_p3(g) != naive_induced_count(g, is_path_4, 4):
                return f"p3 mismatch at rows={g.rows}"
            if count_induced_c5(g) != naive_induced_count(g, is_cycle_5, 5):
                return f"c5 mismatch at rows={g.rows}"
        return None
    _check(out, "graph-core", f"induced counts match enumeration on all {exhaustive_n}-vertex graphs",
           counting_vs_naive)

    def complement_commutes() -> str | None:
        for i in range(draws):
            g = gnp(9, 0.5, rng.child(10, i))
            subset = sample_vertices(9, 5, rng.child(11, i))
            a = induced_subgraph(complement(g), subset)
            b = complement(induced_subgraph(g, subset))
            if a != b:
                return f"draw {i}"
        return None
    _check(out, "graph-core", "induced subgraph commutes with complement", complement_commutes)

    def triangle_incremental() -> str | None:
        for i in range(draws):
            g = gnp(10, 0.5, rng.child(20, i))
            if g.m == 0:
                continue
            u, v = next(iter(g.edges()))
            through = (g.rows[u] & g.rows[v]).bit_count()
            if count_triangles(g) - count_triangles(g.with_toggled([(u, v)])) != through:
                return f"draw {i} edge {(u, v)}"
        return None
    _check(out, "graph-core", "edge deletion drops exactly the triangles through it",
           triangle_incremental)

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
    _check(out, "graph-core", "construction rejects asymmetric and self-looped rows",
           construction_rejects)

    def cograph_generator() -> str | None:
        for i in range(100):
            if not is_cograph(random_cograph(10, rng.child(30, i))).member:
                return f"seed path (30,{i})"
        return None
    _check(out, "graph-core", "random cographs always pass the recognizer", cograph_generator)

    def sampling_uniform() -> str | None:
        trials = 100_000
        counts: dict[tuple, int] = {}
        gen_stream = rng.child(40)
        for _ in range(trials):
            pick = sample_vertices(5, 2, gen_stream)
            counts[pick] = counts.get(pick, 0) + 1
        expect = trials / 10
        se = math.sqrt(trials * 0.1 * 0.9)
        for pair in combinations(range(5), 2):
            got = counts.get(pair, 0)
            if abs(got - expect) > 3 * se:
                return f"pair {pair}: {got} vs {expect:.0f} +- {3 * se:.0f}"
        return None
    _check(out, "graph-core", "2-subset sampling uniform within 3 standard errors",
           sampling_uniform)
    return out


# --- recognizers --------------------------------------------------------------

def suite_recognizers(seed: int = 0, chain_draws: int = 10_000,
                      forcing_draws: int = 10_000,
                      cograph_fn: Callable[[Graph], RecognitionResult] = is_cograph,
                      comparability_fn: Callable[..., RecognitionResult] = is_comparability,
                      perfect_fn: Callable[[Graph], RecognitionResult] = is_perfect,
                      ) -> list[CheckResult]:
    rng = Stream(seed, (2,))
    out: list[CheckResult] = []

    def seinsche_equivalence() -> str | None:
        for g in _all_graphs(6):
            direct = naive_induced_count(g, is_path_4, 4) == 0
            if cograph_fn(g).member != direct:
                return f"rows={g.rows}"
        return None
    _check(out, "recognizers", "cograph recognizer matches induced-4-path-freeness on all 6-vertex graphs",
           seinsche_equivalence)

    def forcing_vs_exhaustive() -> str | None:
        for g in _all_graphs(5):
            if comparability_fn(g).member != is_comparability(g, mode="exhaustive").member:
                return f"rows={g.rows}"
        for i in range(forcing_draws):
            g = gnp(7, 0.5, rng.child(1, i))
            if comparability_fn(g).member != is_comparability(g, mode="exhaustive").member:
                return f"draw {i} rows={g.rows}"
        return None
    _check(out, "recognizers",
           f"forcing agrees with exhaustive orientation (all 5-vertex graphs + {forcing_draws} random 7-vertex)",
           forcing_vs_exhaustive)

    def containment_chain() -> str | None:
        for i in range(chain_draws):
            n = 5 + i % 4
            g = gnp(n, 0.5, rng.child(2, i))
            cg = cograph_fn(g).member
            comp = comparability_fn(g).member
            perf = perfect_fn(g).member
            if cg and not comp:
                return f"cograph not comparability: draw {i} rows={g.rows}"
            if comp and not perf:
                return f"comparability not perfect: draw {i} rows={g.rows}"
        return None
    _check(out, "recognizers",
           f"containment chain cograph => comparability => perfect ({chain_draws} draws, n <= 8)",
           containment_chain)

    def generators_in_property() -> str | None:
        for i in range(200):
            if not cograph_fn(random_cograph(8, rng.child(4, i))).member:
                return f"cograph draw {i}"
        lower = (1 << 5) - 1
        upper = ((1 << 5) - 1) << 5
        for i in range(50):
            big = gnp(10, 0.6, rng.child(5, i))
            bip = Graph(10, [big.rows[v] & (upper if v < 5 else lower) for v in range(10)])
            if not is_triangle_free(bip).member:
                return f"bipartite draw {i}"
        return None
    _check(out, "recognizers", "known-member generators always accepted", generators_in_property)

    def witnesses_reverify() -> str | None:
        for i in range(400):
            g = gnp(7, 0.5, rng.child(6, i))
            checks = [
                (is_triangle_free(g), lambda w: count_triangles(induced_subgraph(g, w)) >= 1),
                (cograph_fn(g), lambda w: is_path_4(induced_subgraph(g, w))),
                (perfect_fn(g), lambda w: _is_odd_hole_or_antihole(g, w)),
            ]
            for res, good in checks:
                if not res.member and not good(res.witness):
                    return f"draw {i} witness {res.witness} label {res.label}"
            rc = comparability_fn(g)
            if not rc.member:
                sub = induced_subgraph(g, rc.witness)
                if sub.n <= 8 and is_comparability(sub, mode="exhaustive").member:
                    return f"draw {i} comparability witness not non-orientable"
        return None
    _check(out, "recognizers", "every negative answer's witness re-verifies", witnesses_reverify)
    return out


def _is_odd_hole_or_antihole(g: Graph, w: tuple[int, ...]) -> bool:
    sub = induced_subgraph(g, w)
    for h in (sub, complement(sub)):
        k = h.n
        if k >= 5 and k % 2 == 1 and h.m == k and all(h.degree(v) == 2 for v in range(k)):
            # connected 2-regular odd graph of size n is one odd cycle
            if len(components(h.rows, (1 << k) - 1)) == 1:
                return True
    return False


# --- decomposition ------------------------------------------------------------

def suite_decomposition(seed: int = 0, nu_draws: int = 1000,
                        far_draws: int = 300) -> list[CheckResult]:
    rng = Stream(seed, (3,))
    out: list[CheckResult] = []

    def no_cut_implies_p4() -> str | None:
        # Seinsche: a graph with no exact cut contains an induced 4-path. The
        # converse fails (a 4-path plus an isolated vertex has a cut), so only
        # this direction is checked.
        for g in _all_graphs(6):
            has_cut = find_cut(g) is not None
            has_p4 = naive_induced_count(g, is_path_4, 4) > 0
            if not has_cut and not has_p4:
                return f"cut-free without induced 4-path: rows={g.rows}"
        return None
    _check(out, "decomposition", "no exact cut implies an induced 4-path (all 6-vertex graphs)",
           no_cut_implies_p4)

    def refinement_parts() -> str | None:
        for i in range(100):
            g = gnp(9, 0.5, rng.child(1, i))
            ref = refine_along_cuts(g, 0)
            if ref.edited_pairs != 0:
                return f"beta=0 edited {ref.edited_pairs}"
            for part in ref.parts:
                if len(part) >= 2:
                    sub = induced_subgraph(g, part)
                    if naive_induced_count(sub, is_path_4, 4) == 0:
                        return f"draw {i}: part {part} has no induced 4-path"
        return None
    _check(out, "decomposition", "zero-beta refinement parts of size >= 2 contain an induced 4-path",
           refinement_parts)

    def edit_budget() -> str | None:
        for i in range(60):
            n = 10 + (i % 3)
            beta = Fraction(1, 10 + (i % 5))
            g = gnp(n, 0.5, rng.child(2, i))
            ref = refine_along_cuts(g, beta)
            limit = beta * n * (n - 1) / 2
            if ref.edited_pairs > limit:
                return f"draw {i}: {ref.edited_pairs} > {float(limit):.2f}"
            ham = sum((a ^ b).bit_count()
                      for a, b in zip(g.rows, ref.modified_graph.rows)) // 2
            if ham != ref.edited_pairs:
                return f"draw {i}: hamming {ham} != edited {ref.edited_pairs}"
        return None
    _check(out, "decomposition", "refinement edits bounded by beta * C(n,2) and equal Hamming distance",
           edit_budget)

    def distance_equals_nu() -> str | None:
        for i in range(nu_draws):
            g = gnp(7, 0.4, rng.child(3, i))
            d = distance_to_property(g, is_triangle_free)
            nu = len(triangle_cover(g, "exact"))
            if isinstance(d, AboveCap):
                if nu <= d.cap:
                    return f"draw {i}: oracle AboveCap but nu={nu}"
            elif d != nu:
                return f"draw {i}: distance {d} != nu {nu}"
        return None
    _check(out, "decomposition",
           f"edit distance to triangle-freeness equals the exact cover number ({nu_draws} draws, n=7)",
           distance_equals_nu)

    def far_graphs_have_p3() -> str | None:
        eps = Fraction(1, 32)
        n = 8
        threshold = eps * n * n  # = 2
        for i in range(far_draws):
            g = gnp(n, 0.5, rng.child(4, i))
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
    _check(out, "decomposition",
           "far-from-cograph graphs have induced 4-paths and a refinement part of at least eps*n vertices",
           far_graphs_have_p3)
    return out


# --- packing ------------------------------------------------------------------

def suite_packing(seed: int = 0, chain_draws: int = 200,
                  tau_fn: Callable[..., WitnessPacking] = triangle_packing,
                  ) -> list[CheckResult]:
    rng = Stream(seed, (4,))
    out: list[CheckResult] = []

    def tau_nu_chain() -> str | None:
        for i in range(chain_draws):
            n = 8 + (i % 5)
            g = gnp(n, [0.3, 0.5, 0.7][i % 3], rng.child(1, i))
            tau = len(tau_fn(g, "exact"))
            nu = len(triangle_cover(g, "exact"))
            if not tau <= nu <= 3 * tau:
                return f"draw {i}: tau={tau} nu={nu}"
            if len(triangle_cover(g, "from_packing")) > 3 * tau:
                return f"draw {i}: from_packing exceeds 3*tau"
        return None
    _check(out, "packing", f"tau <= nu <= 3*tau over {chain_draws} draws (n <= 12)", tau_nu_chain)

    def packings_reverify() -> str | None:
        for i in range(100):
            g = gnp(9, 0.6, rng.child(2, i))
            p = tau_fn(g, "exact")
            p.verified_in(g)  # raises on failure
            q = tau_fn(g, "greedy", rng.child(3, i))
            q.verified_in(g)
            if len(q) > len(p):
                return f"draw {i}: greedy beats exact"
        return None
    _check(out, "packing", "packings re-verify; greedy never beats exact", packings_reverify)

    def c5_packing_size() -> str | None:
        for k in (1, 2, 3, 4):
            s = ap3_free_set(k, "exact")
            rb = rs_graph(k, s)
            gb = build_c5_gadget(rb.graph, rb.labeling.relabel(("V2", "V3", "V5")),
                                 rb.certificate)
            if len(gb.certificate) != len(rb.certificate):
                return f"k={k}: {len(gb.certificate)} != planted {len(rb.certificate)}"
        return None
    _check(out, "packing", "greedy 5-cycle packing size equals the planted count", c5_packing_size)

    def distance_dominates_tau() -> str | None:
        for i in range(200):
            g = gnp(7, 0.4, rng.child(4, i))
            tau = len(tau_fn(g, "exact"))
            d = distance_to_property(g, is_triangle_free)
            if not isinstance(d, AboveCap) and d < tau:
                return f"draw {i}: distance {d} < tau {tau}"
        return None
    _check(out, "packing", "edit distance to triangle-freeness is at least tau", distance_dominates_tau)

    def tripartite_tau_bound() -> str | None:
        for i in range(60):
            k = 2 + i % 3
            s = ap3_free_set(k, "exact")
            rb = rs_graph(k, s)
            sizes = sorted(len(p) for p in rb.labeling.parts)
            tau = len(rb.certificate)  # maximum here: every triangle planted, disjoint
            if tau > sizes[0] * sizes[1]:
                return f"k={k}: tau {tau} > product {sizes[0] * sizes[1]}"
        return None
    _check(out, "packing", "tripartite tau bounded by the two smallest parts' product",
           tripartite_tau_bound)

    def retention_mean() -> str | None:
        from .packing import tripartition_retention_samples
        g = cycle_graph(3)
        p = tau_fn(g, "exact")
        samples = tripartition_retention_samples(g, p, 100_000, rng.child(5))
        mean = sum(samples) / len(samples)
        se = math.sqrt((2 / 9) * (7 / 9) / len(samples))
        if abs(mean - 2 / 9) > 3 * se:
            return f"mean {mean:.5f} vs 2/9 +- {3 * se:.5f}"
        return None
    _check(out, "packing", "tripartition retention mean within 3 SE of 2/9", retention_mean)
    return out


# --- gadgets ------------------------------------------------------------------

def suite_gadgets(seed: int = 0, sample_trials: int = 1000,
                  rs_max_k: int = 30) -> list[CheckResult]:
    rng = Stream(seed, (5,))
    out: list[CheckResult] = []

    def rs_exact_triangles() -> str | None:
        for k in range(1, rs_max_k + 1):
            s = ap3_free_set(k, "exact" if k <= 40 else "behrend")
            rb = rs_graph(k, s)  # constructor audits count == k|S| and disjointness
            if k <= 6:
                naive = naive_induced_count(rb.graph, lambda h: h.m == 3, 3)
                if naive != k * len(s):
                    return f"k={k}: naive {naive} != {k * len(s)}"
        return None
    _check(out, "gadgets", f"rs triangle count exactly k|S| for k <= {rs_max_k} (naive-checked to k=6)",
           rs_exact_triangles)

    def c5_gadget_rules_and_samples() -> str | None:
        s = ap3_free_set(5, "exact")
        rb = rs_graph(5, s)
        gb = build_c5_gadget(rb.graph, rb.labeling.relabel(("V2", "V3", "V5")),
                             rb.certificate)  # construction re-audits the 9 rules
        f = rb.graph
        inner_n = f.n
        for i in range(sample_trials):
            pick = sample_vertices(gb.graph.n, 12, rng.child(1, i))
            f_part = [v - 4 * inner_n for v in pick if v >= 4 * inner_n]
            if count_triangles(induced_subgraph(f, f_part)) == 0:
                sub = induced_subgraph(gb.graph, pick)
                lab = gb.labeling.restrict(pick)
                if not check_order_transitivity(sub, lab).member:
                    return f"trial {i}: triangle-free portion fails order transitivity"
                if not is_comparability(sub).member:
                    return f"trial {i}: triangle-free portion not comparability"
        return None
    _check(out, "gadgets", "five-part gadget: triangle-free samples are comparability graphs",
           c5_gadget_rules_and_samples)

    def poset_gadget_samples() -> str | None:
        s = ap3_free_set(4, "exact")
        rb = rs_graph(4, s)
        t = rb.graph
        pb = build_poset_gadget(t, rb.labeling.relabel(("V1", "V2", "V3")), rb.certificate)
        for i in range(sample_trials):
            pick = sample_vertices(t.n, 8, rng.child(2, i))
            tri_free = count_triangles(induced_subgraph(t, pick)) == 0
            ok = is_poset(pb.graph.induced(pick)).member
            if ok != tri_free:
                return f"trial {i}: poset={ok} but triangle-free={tri_free}"
        return None
    _check(out, "gadgets", "poset gadget samples are posets exactly when triangle-free",
           poset_gadget_samples)

    def farness_below_distance() -> str | None:
        s = ap3_free_set(1, "exact")
        rb = rs_graph(1, s)  # n=6, farness 1/36
        d = distance_to_property(rb.graph, is_triangle_free)
        dist = d if isinstance(d, int) else d.cap + 1
        if rb.farness > Fraction(dist, 36):
            return f"farness {rb.farness} above true distance {dist}/36"
        return None
    _check(out, "gadgets", "bundle farness below exact edit distance at oracle scale",
           farness_below_distance)

    def incidental_c5_census() -> str | None:
        # measured, not asserted either way: how many induced 5-cycles beyond
        # the one-vertex-per-part planted shape exist at small n
        f = cycle_graph(3)
        lab = PartLabeling(3, [("V2", [0]), ("V3", [1]), ("V5", [2])])
        gb = build_c5_gadget(f, lab)
        total = count_induced_c5(gb.graph)
        if total < len(gb.certificate):
            return f"census {total} below certificate {len(gb.certificate)}"
        return None
    _check(out, "gadgets", "induced 5-cycle census at small n covers the certificate",
           incidental_c5_census)
    return out


# --- testers ------------------------------------------------------------------

def suite_testers(seed: int = 0, one_sided_trials: int = 10_000,
                  consistency_trials: int = 10_000) -> list[CheckResult]:
    rng = Stream(seed, (6,))
    out: list[CheckResult] = []

    def one_sided() -> str | None:
        share = one_sided_trials // 4
        cg = random_cograph(16, rng.child(1))
        tri_free = cycle_graph(9)
        rep = estimate_detection(tri_free, TesterConfig("triple-density", t=4), share, rng.child(2))
        if rep.rejections:
            return f"triple tester rejected a triangle-free graph {rep.rejections} times"
        rep = estimate_detection(cg, TesterConfig("quadruple-density", t=4), share, rng.child(3))
        if rep.rejections:
            return f"quadruple tester rejected a cograph {rep.rejections} times"
        rep = estimate_detection(cg, TesterConfig("universal", d=8, property_name="cograph"),
                                 share, rng.child(4))
        if rep.rejections:
            return f"universal tester rejected a cograph {rep.rejections} times"
        rep = estimate_detection(tri_free, TesterConfig("universal", d=9, property_name="triangle-free"),
                                 share, rng.child(5))
        if rep.rejections:
            return f"universal tester rejected a triangle-free graph {rep.rejections} times"
        return None
    _check(out, "testers", f"one-sidedness: zero rejections across {one_sided_trials} member trials",
           one_sided)

    def budget_accounting() -> str | None:
        if TesterConfig("universal", d=7, property_name="cograph").queries_per_trial() != 21:
            return "universal C(d,2)"
        if TesterConfig("triple-density", t=5).queries_per_trial() != 15:
            return "triple 3t"
        if TesterConfig("quadruple-density", t=5).queries_per_trial() != 30:
            return "quadruple 6t"
        return None
    _check(out, "testers", "query accounting: C(d,2), 3t, 6t", budget_accounting)

    def binomial_consistency() -> str | None:
        s = ap3_free_set(12, "exact")
        rb = rs_graph(12, s)
        g = rb.graph
        p = count_triangles(g) / math.comb(g.n, 3)
        for t in (1, 10, 100):
            rep = estimate_detection(g, TesterConfig("triple-density", t=t),
                                     consistency_trials, rng.child(6, t))
            pred = 1 - (1 - p) ** t
            if not rep.wilson_lo <= pred <= rep.wilson_hi:
                return f"t={t}: pred {pred:.5f} outside ({rep.wilson_lo:.5f},{rep.wilson_hi:.5f})"
        return None
    _check(out, "testers", "density-tester rates match the binomial model within Wilson 95%",
           binomial_consistency)

    def monotone_in_budget() -> str | None:
        g = gnp(40, 0.25, rng.child(7))
        prev_lo = 0.0
        for t in (1, 4, 16, 64):
            rep = estimate_detection(g, TesterConfig("triple-density", t=t), 2000, rng.child(8, t))
            if rep.wilson_hi < prev_lo:
                return f"rate dropped beyond interval at t={t}"
            prev_lo = max(prev_lo, rep.wilson_lo)
        return None
    _check(out, "testers", "rejection rate non-decreasing in budget (within intervals)",
           monotone_in_budget)

    def deterministic_reports() -> str | None:
        g = gnp(25, 0.3, rng.child(9))
        cfg = TesterConfig("triple-density", t=3)
        a = estimate_detection(g, cfg, 400, Stream(seed, (6, 10)))
        b = estimate_detection(g, cfg, 400, Stream(seed, (6, 10)))
        c = estimate_detection(g, cfg, 400, Stream(seed, (6, 10)), threads=3)
        if a != b or a != c:
            return "reports differ across reruns or thread counts"
        return None
    _check(out, "testers", "identical seed gives identical reports, independent of threads",
           deterministic_reports)
    return out


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


def run_suites(names: Sequence[str], seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name in names:
        out.extend(run_suite(name, seed=seed))
    return out
