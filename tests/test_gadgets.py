from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

import ptlab.verify as verify
from ptlab.gadgets import (
    AP_EXACT_BOUND,
    ApFreeSet,
    GadgetBundle,
    ap3_free_set,
    build_c5_gadget,
    build_poset_gadget,
    rs_graph,
)
from ptlab.graphs import (
    Graph,
    PartLabeling,
    complete_graph,
    count_induced_c5,
    count_triangles,
    empty_graph,
)
from ptlab.oracles import induced_sets, induces
from ptlab.packing import PackingError, WitnessPacking, triangle_packing
from ptlab.recognizers import is_poset
from ptlab.rng import Stream
from ptlab.verify import (
    c5_gadget_rules_and_samples,
    farness_below_distance,
    poset_gadget_samples,
)


def exhaustive_max_ap_free(n):
    """The lexicographically least largest 3-AP-free subset of 1..n: every
    subset of each size, from n down, in lexicographic order."""
    for size in range(n, 0, -1):
        for combo in combinations(range(1, n + 1), size):
            present = set(combo)
            if all(2 * b - a not in present for i, a in enumerate(combo) for b in combo[i + 1:]):
                return combo
    return ()


def test_ap_free_examples():
    assert len(ap3_free_set(9, "exact")) == 5
    assert ap3_free_set(2, "exact").elements == (1, 2)
    assert ap3_free_set(1, "exact").elements == (1,)
    with pytest.raises(ValueError):
        ap3_free_set(41, "exact")
    with pytest.raises(ValueError):
        ApFreeSet(9, (1, 2, 3))
    with pytest.raises(ValueError):
        ApFreeSet(3, (1, 5))


def test_ap_free_exact_matches_exhaustive():
    for n in range(1, 13):
        assert len(ap3_free_set(n, "exact")) == len(exhaustive_max_ap_free(n)), n


def test_ap_free_exact_is_lexicographically_first_optimum():
    for n in range(1, 17):
        assert ap3_free_set(n, "exact").elements == exhaustive_max_ap_free(n), n


# sizes of the exact sets for n = 1..40; each size also agrees with a plain
# include/exclude search with no size bound
AP_EXACT_SIZES = [1, 2, 2, 3, 4, 4, 4, 4, 5, 5, 6, 6, 7, 8, 8, 8, 8, 8, 8, 9,
                  9, 9, 9, 10, 10, 11, 11, 11, 11, 12, 12, 13, 13, 13, 13, 14, 14, 14, 14, 15]


def test_ap_free_exact_sets_pinned(digest):
    sets = [ap3_free_set(n, "exact").elements for n in range(1, AP_EXACT_BOUND + 1)]
    assert [len(s) for s in sets] == AP_EXACT_SIZES
    assert digest(sets) == "361c56e408ae9d2a"


def test_ap_free_behrend_sets_pinned(digest):
    sets = [ap3_free_set(n, "behrend").elements for n in (1, 7, 40, 300, 1000, 2500)]
    assert [len(s) for s in sets] == [1, 4, 15, 48, 105, 176]
    assert digest(sets) == "01c0cebd7b0bb15b"


def test_ap_free_behrend_verified_and_reasonable():
    for n in (10, 50, 300):
        s = ap3_free_set(n, "behrend")
        assert s.elements  # construction verified 3-AP-free by the type
        if n <= 12:
            assert len(s) <= len(exhaustive_max_ap_free(n))


def test_rs_graph_example():
    bundle = rs_graph(5, ApFreeSet(5, (1, 2, 4)))
    g = bundle.graph
    assert g.n == 30 and g.m == 45
    assert count_triangles(g) == 15
    assert len(induced_sets(g.rows, range(g.n), 3)) == 15
    assert len(bundle.certificate) == 15
    assert bundle.farness == Fraction(15, 900)


def test_rs_graph_small_and_rejects():
    assert count_triangles(rs_graph(1, ApFreeSet(1, (1,))).graph) == 1
    with pytest.raises(ValueError):
        rs_graph(5, ApFreeSet(5, (1, 2, 3)))
    with pytest.raises(ValueError):
        rs_graph(2, ApFreeSet(5, (1, 4)))  # elements exceed k


def test_rs_graph_exactness_sweep():
    for k in range(1, 11):
        s = ap3_free_set(k, "exact")
        bundle = rs_graph(k, s)  # constructor audits count == k|S|
        assert count_triangles(bundle.graph) == k * len(s)


def test_c5_gadget_single_triangle():
    lab = PartLabeling(3, [("V2", [0]), ("V3", [1]), ("V5", [2])])
    gb = build_c5_gadget(complete_graph(3), lab)
    g = gb.graph
    assert g.n == 15
    tup = gb.certificate.tuples[0]
    assert induces(g.rows, tup)
    # exact census: brute-force enumeration is the oracle; the construction
    # contributes one completion per (outer1, outer2) pair = 36
    assert count_induced_c5(g) == len(induced_sets(g.rows, range(g.n), 5)) == 36
    assert gb.farness == Fraction(1, 225)


def test_c5_gadget_farness_scaling():
    # t edge-disjoint triangles in the inner graph give farness t/(5n)^2
    rb = rs_graph(4, ap3_free_set(4, "exact"))
    gb = build_c5_gadget(rb.graph, rb.labeling.relabel(("V2", "V3", "V5")),
                         rb.certificate)
    t = len(rb.certificate)
    assert gb.farness == Fraction(t, (5 * rb.graph.n) ** 2)


def test_c5_gadget_triangle_free_inner():
    lab = PartLabeling(3, [("V2", [0]), ("V3", [1]), ("V5", [2])])
    gb = build_c5_gadget(empty_graph(3), lab)
    assert len(gb.certificate) == 0
    # no planted-shape copies: every induced C5 would need the inner triangle
    assert count_induced_c5(gb.graph) == len(induced_sets(gb.graph.rows, range(gb.graph.n), 5))


def test_c5_gadget_rejects_bad_inner():
    lab = PartLabeling(3, [("V2", [0, 1]), ("V3", [2]), ("V5", [])])
    bad = complete_graph(3)  # edge inside V2
    with pytest.raises(ValueError):
        build_c5_gadget(bad, lab)


def test_c5_gadget_sampling_mechanism():
    detail = c5_gadget_rules_and_samples(Stream(83), 4, 10, 200)
    assert detail is None, detail


def test_poset_gadget_examples():
    lab = PartLabeling(3, [("V1", [0]), ("V2", [1]), ("V3", [2])])
    gb = build_poset_gadget(complete_graph(3), lab)
    assert gb.graph.has_arc(0, 1) and gb.graph.has_arc(1, 2)
    assert not gb.graph.has_arc(0, 2)
    assert not is_poset(gb.graph).member
    # no inner edges at all: only the complement arcs V1->V3 remain
    gb2 = build_poset_gadget(empty_graph(3), lab)
    assert gb2.graph.has_arc(0, 2) and is_poset(gb2.graph).member


def test_poset_gadget_samples():
    rb = rs_graph(3, ap3_free_set(3, "exact"))
    detail = poset_gadget_samples(rb.graph, rb.labeling.relabel(("V1", "V2", "V3")),
                                  Stream(89), 7, 300)
    assert detail is None, detail


def test_bundle_farness_below_exact_distance():
    detail = farness_below_distance()
    assert detail is None, detail


def test_fault_injection_farness_above_distance_is_caught(monkeypatch):
    # rs(1) is one triangle on 6 vertices, at distance 1: a claimed farness
    # of 2/36 asks for a distance above 1 and must fail the check
    real = verify.rs_graph
    monkeypatch.setattr(verify, "rs_graph", lambda k, s: SimpleNamespace(
        graph=real(k, s).graph, farness=Fraction(2, 36)))
    assert farness_below_distance() == "farness 1/18 above true distance 1/36"


# each gadget builder with the names of its inner graph's three parts
BUILDERS = [(build_c5_gadget, ("V2", "V3", "V5")), (build_poset_gadget, ("V1", "V2", "V3"))]


@pytest.mark.parametrize("build, names", BUILDERS)
def test_builders_refuse_a_packing_that_is_not_triangles(build, names):
    # a 5-cycle plus a lone vertex is tripartite and triangle-free, so its
    # verified 5-cycle packing certifies nothing about either gadget
    g = Graph.from_edges(6, [(0, 3), (0, 2), (1, 3), (1, 4), (2, 4)])
    lab = PartLabeling(6, [(names[0], [0, 1]), (names[1], [3, 4, 5]), (names[2], [2])])
    c5 = WitnessPacking("inducedC5", ((0, 1, 2, 3, 4),), 6).verified_in(g)
    with pytest.raises(PackingError, match="inner packing must be triangles"):
        build(g, lab, c5)
    assert len(build(g, lab).certificate) == 0


@pytest.mark.parametrize("build, names", BUILDERS)
def test_builders_refuse_an_empty_inner_graph(build, names):
    lab = PartLabeling(0, [(name, []) for name in names])
    with pytest.raises(ValueError, match="at least one vertex"):
        build(empty_graph(0), lab)


def test_c5_gadget_falls_back_to_greedy_beyond_the_exact_guard():
    rb = rs_graph(3, ap3_free_set(3, "exact"))  # 18 vertices: beyond the exact guard
    lab = rb.labeling.relabel(("V2", "V3", "V5"))
    gb = build_c5_gadget(rb.graph, lab)
    assert len(gb.certificate) == len(triangle_packing(rb.graph, "greedy"))
    assert gb == build_c5_gadget(rb.graph, lab, rb.certificate)


def test_bundle_derives_farness_from_a_verified_certificate():
    rb = rs_graph(2, ap3_free_set(2, "exact"))
    assert rb.farness == Fraction(len(rb.certificate), 12 ** 2)
    with pytest.raises(TypeError):
        GadgetBundle(rb.graph, rb.labeling, rb.certificate, rb.farness)
    with pytest.raises(PackingError, match="verified"):
        GadgetBundle(rb.graph, rb.labeling, WitnessPacking("triangle", rb.certificate.tuples, 12))
    other = rs_graph(1, ap3_free_set(1, "exact"))
    with pytest.raises(PackingError, match="graph has 6"):
        GadgetBundle(other.graph, other.labeling, rb.certificate)
