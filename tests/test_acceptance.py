"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every criterion pins its
tolerance and its wall-clock budget; expected values were computed from
independent oracles (naive enumeration, exhaustive search, binomial model),
never copied from the implementation under test.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from ptlab.decomposition import find_beta_cut
from ptlab.extremal import ExtremalRecord, estimate_f, search_min_p3_density
from ptlab.gadgets import ap3_free_set, build_c5_gadget, build_poset_gadget, rs_graph
from ptlab.graphs import (
    Graph,
    count_induced_p3,
    count_triangles,
    cycle_graph,
    gnp,
    random_cograph,
)
from ptlab.oracles import induced_sets
from ptlab.packing import farness_lower_bound, triangle_packing
from ptlab.recognizers import _poset_hit, is_cograph
from ptlab.rng import Stream
from ptlab.testers import _sample_masks, min_budget_for_detection
from ptlab.verify import (
    all_graphs,
    binomial_consistency,
    c5_gadget_rules_and_samples,
    distance_equals_nu,
    one_sided,
    poset_gadget_samples,
    retention_mean,
    seinsche_equivalence,
    tau_nu_chain,
)


@contextmanager
def criterion(number: int, budget_seconds: float, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.time() - start
    print(f"PASS criterion {number}: {label}  ({elapsed:.1f}s / budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its time budget"


def test_criterion_01_tau_nu_chain():
    with criterion(1, 120, "tau <= nu <= 3*tau and maximal packings over 200 seeded G(12,p), "
                           "zero violations"):
        detail = tau_nu_chain(Stream(1301), 200, ns=(12,))
        assert detail is None, detail


def test_criterion_02_rs_exactness():
    with criterion(2, 60, "rs triangle count k|S| exactly, packing edge-disjoint, brute-force verified"):
        for k in range(3, 21):
            s = ap3_free_set(k, "exact")
            bundle = rs_graph(k, s)
            expected = k * len(s)
            assert count_triangles(bundle.graph) == expected
            # brute force: every vertex triple
            g = bundle.graph
            assert len(induced_sets(g.rows, range(g.n), 3)) == expected, k
            # edge-disjointness is re-verified from scratch
            bundle.certificate.verified_in(g)
            assert len(bundle.certificate) == expected


def test_criterion_03_gadget_mechanism():
    with criterion(3, 180, "five-part gadget: triangle-free samples are comparability; "
                           "planted 5-cycles re-verify with overlap <= 1"):
        detail = c5_gadget_rules_and_samples(Stream(1303), 6, 15, 1000)
        assert detail is None, detail
        rb = rs_graph(6, ap3_free_set(6, "exact"))
        gb = build_c5_gadget(rb.graph, rb.labeling.relabel(("V2", "V3", "V5")), rb.certificate)
        gb.certificate.verified_in(gb.graph)  # induced 5-cycles + pairwise overlap <= 1
        vsets = [set(t) for t in gb.certificate.tuples]
        for a in range(len(vsets)):
            for b in range(a + 1, len(vsets)):
                assert len(vsets[a] & vsets[b]) <= 1


def _triangle_free_tripartite(n_per_part: int, rng: Stream) -> tuple[Graph, list]:
    """Random tripartite graph with no part-1 to part-3 edges (no triangles)."""
    n = 3 * n_per_part
    parts = [range(0, n_per_part), range(n_per_part, 2 * n_per_part),
             range(2 * n_per_part, n)]
    gen = rng.gen
    edges = []
    for u in parts[0]:
        for v in parts[1]:
            if gen.random() < 0.5:
                edges.append((u, v))
    for u in parts[1]:
        for v in parts[2]:
            if gen.random() < 0.5:
                edges.append((u, v))
    return Graph.from_edges(n, edges), parts


def test_criterion_04_poset_gadget():
    with criterion(4, 60, "poset gadget: sample is a poset exactly when its "
                          "triangle side is triangle-free"):
        from ptlab.graphs import PartLabeling
        rng = Stream(1304)
        # triangle-containing T
        detail = poset_gadget_samples(rng.child(0), 4, 8, 1000)
        assert detail is None, detail
        # triangle-free T: every sample must induce a poset
        t2, parts = _triangle_free_tripartite(6, rng.child(1))
        lab2 = PartLabeling(t2.n, [("V1", parts[0]), ("V2", parts[1]), ("V3", parts[2])])
        gb2 = build_poset_gadget(t2, lab2)
        assert count_triangles(t2) == 0
        for i, mask in enumerate(_sample_masks(t2.n, 8, rng.child(2), 0, 1000)):
            assert _poset_hit(gb2.graph.rows, mask) is None, i


def test_criterion_05_seinsche_equivalence():
    with criterion(5, 60, "cograph recognizer matches the cograph definition "
                          "on all 32768 graphs on 6 vertices"):
        detail = seinsche_equivalence(6)
        assert detail is None, detail


def test_criterion_06_one_sidedness():
    with criterion(6, 60, "one-sidedness: zero rejections over 10^4 member trials"):
        rng = Stream(1306)
        assert is_cograph(random_cograph(16, rng.child(0))).member
        detail = one_sided(rng, 2500)
        assert detail is None, detail


def test_criterion_07_binomial_consistency():
    with criterion(7, 120, "density-tester rates within Wilson 95% of 1-(1-p)^t "
                           "for t in {1,10,100}"):
        rng = Stream(1307)
        rs = rs_graph(20, ap3_free_set(20, "exact")).graph
        detail = binomial_consistency(rs, "triple-density", 10_000, rng.child(0))
        assert detail is None, detail
        c5 = cycle_graph(5)
        assert count_induced_p3(c5) == math.comb(5, 4)  # p = 1 for the quadruple tester
        detail = binomial_consistency(c5, "quadruple-density", 10_000, rng.child(1))
        assert detail is None, detail


def test_criterion_08_tripartition_constant():
    with criterion(8, 60, "mean packing retention over 10^5 tripartitions within "
                          "3 SE of 2/9"):
        detail = retention_mean(Stream(1308), 100_000)
        assert detail is None, detail


def test_criterion_09_bound_sanity():
    with criterion(9, 300, "10^3 search restarts at n <= 10 never violate the "
                           "density floors; the 5-cycle record reports 0.008"):
        beta = Fraction(1, 5)
        floor12 = (beta / 100) ** 12
        # exhaustive optimum at n=5 as the independent oracle
        best = None
        for g in all_graphs(5):
            if find_beta_cut(g, beta, "exact") is None:
                c = count_induced_p3(g)
                best = c if best is None else min(best, c)
        assert best == 1  # the bull graph

        rng = Stream(1309)
        rec5 = search_min_p3_density(5, beta, 200, rng.child(0))
        assert rec5.p3_density == Fraction(best, 5 ** 4)
        assert rec5.p3_density >= floor12

        rec8 = search_min_p3_density(8, beta, 400, rng.child(1))
        assert rec8.p3_density >= floor12
        rec10 = search_min_p3_density(10, beta, 400, rng.child(2))
        assert rec10.p3_density >= floor12

        # the 5-cycle qualifies and its record reports density 0.008
        c5 = cycle_graph(5)
        assert find_beta_cut(c5, beta, "exact") is None
        rec_c5 = ExtremalRecord(n=5, graph=c5, p3_count=count_induced_p3(c5), beta=beta)
        assert float(rec_c5.p3_density) == 0.008

        eps = Fraction(1, 32)
        rec_f = estimate_f(8, eps, 30, rng.child(3))
        assert rec_f.p3_density >= (eps / 100) ** 16


def test_criterion_10_hardness_gap():
    with criterion(10, 600, "planted-sparse graph needs a strictly larger universal "
                            "budget than a farness-matched random control, 5 seeds; "
                            "analytic floors respected"):
        rb = rs_graph(40, ap3_free_set(40, "exact"))
        rs = rb.graph
        n = rs.n
        target = len(rb.certificate)
        assert count_triangles(rs) == target

        control = None
        calib = Stream(1310, (0,))
        for j, p in enumerate((0.12, 0.15, 0.2, 0.25, 0.3)):
            g = gnp(n, p, calib.child(j))
            packing = triangle_packing(g, "greedy")
            if len(packing) >= target:
                control = g
                break
        assert control is not None, "no control reached the target farness"
        assert farness_lower_bound(triangle_packing(control, "greedy")) >= \
            farness_lower_bound(rb.certificate)

        for seed_idx in range(5):
            stream = Stream(1310, (1, seed_idx))
            res_rs = min_budget_for_detection(
                rs, "universal", stream.child(0), trials=300,
                property_name="triangle-free", cap=n)
            res_ctrl = min_budget_for_detection(
                control, "universal", stream.child(1), trials=300,
                property_name="triangle-free", cap=n)
            assert res_rs.budget is not None and res_ctrl.budget is not None
            assert res_rs.budget > res_ctrl.budget, \
                (seed_idx, res_rs.budget, res_ctrl.budget)
            assert res_rs.analytic_floor <= res_rs.budget
            assert res_ctrl.analytic_floor <= res_ctrl.budget


def test_criterion_11_edit_distance_cross_checks():
    with criterion(11, 300, "edit distance to triangle-freeness equals nu on 10^3 "
                            "draws; packing farness never exceeds true distance"):
        detail = distance_equals_nu(Stream(1311), 1000)
        assert detail is None, detail
