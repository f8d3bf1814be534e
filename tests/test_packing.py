from fractions import Fraction
from itertools import combinations, count

import numpy as np
import pytest

import ptlab.packing as packing
from ptlab.gadgets import ap3_free_set, build_c5_gadget, rs_graph
from ptlab.graphs import (
    Graph,
    PartLabeling,
    complete_graph,
    count_triangles,
    cycle_graph,
    empty_graph,
    gnp,
)
from ptlab.oracles import induced_sets, induces
from ptlab.packing import (
    PackingError,
    WitnessPacking,
    farness_lower_bound,
    random_tripartite_extract,
    triangle_cover,
    triangle_packing,
)
from ptlab.rng import Stream
from ptlab.verify import distance_dominates_tau, retention_mean


# the triangles come from `oracles.induced_sets` as ascending triples, so
# each one's pairs are the (u, v), u < v, of `combinations` and `g.edges()`

def naive_tau(g):
    """The most triangles of an edge-disjoint family, over every family: each
    triangle in or out in turn, a family dropped once two share an edge."""
    tris = induced_sets(g.rows, range(g.n), 3)

    def most(i, used):
        if i == len(tris):
            return 0
        pairs = set(combinations(tris[i], 2))
        without = most(i + 1, used)
        return max(without, 1 + most(i + 1, used | pairs)) if used.isdisjoint(pairs) else without

    return most(0, frozenset())


def naive_nu(g):
    """The fewest edges meeting every triangle, by iterative deepening: every
    cover holds one of the three edges of the first triangle it must meet."""
    tris = [set(combinations(t, 2)) for t in induced_sets(g.rows, range(g.n), 3)]

    def covers(chosen, r):
        left = [t for t in tris if not t & chosen]
        return not left or r > 0 and any(covers(chosen | {e}, r - 1) for e in left[0])

    return next(r for r in count() if covers(set(), r))


def test_packing_examples():
    assert len(triangle_packing(complete_graph(3))) == 1
    assert len(triangle_packing(complete_graph(4))) == 1  # any two triangles share an edge
    assert len(triangle_packing(cycle_graph(5))) == 0


def test_cover_examples():
    assert len(triangle_cover(complete_graph(3))) == 1
    cov = triangle_cover(complete_graph(4))
    assert len(cov) == 2
    assert count_triangles(complete_graph(4).with_toggled(cov)) == 0
    assert triangle_cover(cycle_graph(5)) == ()


def test_exact_tau_nu_match_naive():
    # looked up on the module, so that the fault tests below can patch them;
    # the dense G(8, 0.7) draws are where the bounds and the bans cut most
    rng = Stream(3)
    graphs = [gnp(7, 0.5, rng.child(i)) for i in range(25)]
    graphs += [gnp(8, 0.7, rng.child(8, i)) for i in range(15)]
    for i, g in enumerate(graphs):
        tau = len(packing.triangle_packing(g))
        nu = len(packing.triangle_cover(g))
        assert tau == naive_tau(g), i
        assert nu == naive_nu(g), i
        assert tau <= nu <= 3 * tau
        fp = {p for t in packing.triangle_packing(g).tuples for p in combinations(t, 2)}
        assert len(fp) <= 3 * tau
        assert count_triangles(g.with_toggled(fp)) == 0


def test_fault_injection_triangles_of_dropping_one_is_caught(monkeypatch):
    real = packing.triangles_of

    def lossy(g):
        tris = real(g)
        return tris[:-1] if g.n >= 7 and len(tris) >= 6 else tris

    monkeypatch.setattr(packing, "triangles_of", lossy)
    with pytest.raises(AssertionError):
        test_exact_tau_nu_match_naive()


def test_fault_injection_vertex_bound_one_too_loose_is_caught(patch_source):
    # a bound one too small cuts branches that beat the incumbent by one
    patch_source(packing, "triangle_packing", "// 3 <= room:", "// 3 <= room + 1:")
    with pytest.raises(AssertionError):
        test_exact_tau_nu_match_naive()


def test_fault_injection_cover_banning_an_edge_before_its_branch_is_caught(patch_source):
    # each edge banned before its own branch is tried, so no branch runs
    patch_source(packing, "triangle_cover", "if not banned >> e & 1:",
                 "banned |= 1 << e\n            if not banned >> e & 1:")
    with pytest.raises(AssertionError):
        test_exact_tau_nu_match_naive()


def test_greedy_never_beats_exact_and_is_maximal():
    rng = Stream(5)
    for i in range(20):
        g = gnp(9, 0.5, rng.child(i))
        exact = triangle_packing(g)
        greedy = triangle_packing(g, "greedy")
        shuffled = triangle_packing(g, "greedy", rng.child(100, i))
        assert len(greedy) <= len(exact)
        assert len(shuffled) <= len(exact)
        used = {p for t in greedy.tuples for p in combinations(sorted(t), 2)}
        for tri in induced_sets(g.rows, range(g.n), 3):
            assert used.intersection(combinations(tri, 2)), "greedy packing not maximal"


def test_exact_guards():
    with pytest.raises(ValueError):
        triangle_packing(complete_graph(15))


def test_packing_verification_catches_lies():
    g = cycle_graph(5)
    with pytest.raises(PackingError):
        WitnessPacking("triangle", ((0, 1, 2),), 5).verified_in(g)
    k6 = complete_graph(6)
    with pytest.raises(PackingError):
        # two triangles sharing an edge
        WitnessPacking("triangle", ((0, 1, 2), (0, 1, 3)), 6).verified_in(k6)
    with pytest.raises(PackingError, match="share an edge"):
        # the shared edge {1, 2} appears as (1, 2) and as (2, 1): tuples need not be sorted
        WitnessPacking("triangle", ((0, 1, 2), (2, 1, 3)), 4).verified_in(complete_graph(4))
    with pytest.raises(PackingError):
        WitnessPacking("inducedC5", ((0, 1, 2, 3, 4),), 6).verified_in(k6)


def _overlap_refusal():
    """verified_in's complaint about two induced 5-cycles, 0-1-2-3-4 and
    0-1-5-6-7, that share the edge 0-1 and so two vertices; None if it accepts."""
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5), (5, 6), (6, 7),
                             (7, 0)])
    try:
        packing.WitnessPacking("inducedC5", ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7)), 8).verified_in(g)
    except PackingError as exc:
        return str(exc)
    return None


def test_c5_packing_refuses_two_cycles_sharing_two_vertices():
    assert _overlap_refusal() == "tuples 0 and 1 share two vertices"


def test_fault_injection_c5_overlap_limit_of_two_is_caught(patch_source):
    patch_source(packing, "WitnessPacking", "if (mask & masks[j]).bit_count() > 1:",
                 "if (mask & masks[j]).bit_count() > 2:")
    assert _overlap_refusal() is None


def test_farness_lower_bound():
    pk = triangle_packing(complete_graph(4))
    assert farness_lower_bound(pk) == Fraction(1, 16)
    unverified = WitnessPacking("triangle", ((0, 1, 2),), 4)
    with pytest.raises(PackingError):
        farness_lower_bound(unverified)
    empty = WitnessPacking("triangle", (), 4).verified_in(complete_graph(4))
    assert farness_lower_bound(empty) == 0
    # no tuples certify nothing, even on no vertices (no 0/0)
    nothing = WitnessPacking("triangle", (), 0).verified_in(empty_graph(0))
    assert farness_lower_bound(nothing) == 0


def test_only_verified_in_marks_a_packing_verified():
    with pytest.raises(TypeError):
        WitnessPacking("triangle", ((0, 1, 2),), 3, True)
    with pytest.raises(TypeError):
        WitnessPacking("triangle", ((0, 1, 2),), 3, verified=True)
    claim = {"kind": "triangle", "tuples": [[0, 1, 2]], "host_n": 3, "verified": True}
    p = WitnessPacking.from_json(claim)
    assert not p.verified
    with pytest.raises(PackingError):
        farness_lower_bound(p)
    q = p.verified_in(complete_graph(3))
    assert q.verified and not p.verified and q.to_json() == claim


def test_packing_vertices_and_host_n_must_be_integers():
    p = WitnessPacking("triangle", ((np.int64(0), 1, np.int32(2)),), np.int64(3))
    assert p.tuples == ((0, 1, 2),) and p.host_n == 3
    assert type(p.host_n) is int and all(type(v) is int for v in p.tuples[0])
    # JSON booleans are no vertices, though operator.index reads them as 0 and 1
    for tuples, host_n in ((((0.0, 1.0, 2.0),), 3), (((0, 1, 2),), 3.0),
                           (((False, 1, 2),), 3), (((0, 1, 2),), True),
                           (((0, 1, 2),), "3"), ((("0", 1, 2),), 3)):
        with pytest.raises(TypeError):
            WitnessPacking("triangle", tuples, host_n)


def test_greedy_c5_packing_single_triangle():
    from ptlab.gadgets import build_c5_gadget
    lab = PartLabeling(3, [("V2", [0]), ("V3", [1]), ("V5", [2])])
    gb = build_c5_gadget(complete_graph(3), lab)
    cert = gb.certificate
    assert len(cert) == 1
    tup = cert.tuples[0]
    assert induces(gb.graph.rows, tup)
    assert 12 in tup and 13 in tup and 14 in tup


def test_greedy_c5_packing_from_planted():
    from ptlab.gadgets import ap3_free_set, rs_graph, build_c5_gadget
    for k in (2, 4, 6):
        rb = rs_graph(k, ap3_free_set(k, "exact"))
        gb = build_c5_gadget(rb.graph, rb.labeling.relabel(("V2", "V3", "V5")),
                             rb.certificate)
        cert = gb.certificate
        assert len(cert) == len(rb.certificate)
        vsets = [set(t) for t in cert.tuples]
        for i in range(len(vsets)):
            for j in range(i + 1, len(vsets)):
                assert len(vsets[i] & vsets[j]) <= 1


def test_fault_injection_c5_packing_forgetting_the_outer_pair_is_caught(patch_source):
    # without the (v1, v4) check, two vertex-disjoint planted triangles take
    # the same outer pair
    rb = rs_graph(2, ap3_free_set(2, "exact"))
    gb = build_c5_gadget(rb.graph, rb.labeling.relabel(("V2", "V3", "V5")), rb.certificate)
    patch_source(packing, "greedy_c5_packing", "(v1, v4) not in used and ", "")
    with pytest.raises(PackingError, match="share two vertices"):
        packing.greedy_c5_packing(gb.graph, gb.labeling, rb.certificate)


def test_greedy_c5_packing_empty():
    from ptlab.gadgets import build_c5_gadget
    lab = PartLabeling(3, [("V2", [0]), ("V3", [1]), ("V5", [2])])
    gb = build_c5_gadget(cycle_graph(3).with_toggled([(0, 1), (1, 2), (0, 2)]), lab)
    assert len(gb.certificate) == 0 and gb.farness == 0


def test_tripartite_extract_random_draws():
    rng = Stream(7)
    g = complete_graph(6)
    packing = triangle_packing(g)
    f, labeling, kept = random_tripartite_extract(g, packing, rng.child(0), retries=30)
    kept.verified_in(f)
    for name in ("X", "Y", "Z"):
        mask = labeling.part_mask(name)
        for v in range(6):
            if (mask >> v) & 1:
                assert not f.rows[v] & mask  # parts independent


def test_tripartite_extract_pinned(digest):
    rb = rs_graph(5, ap3_free_set(5, "exact"))
    k6 = complete_graph(6)
    hosts = ((rb.graph, rb.certificate), (k6, triangle_packing(k6)))
    runs = [random_tripartite_extract(g, pk, Stream(67, (g.n, r)), retries=r)
            for g, pk in hosts for r in (1, 4, 12)]
    assert [len(kept) for _, _, kept in runs] == [4, 8, 6, 1, 1, 2]
    assert digest([(f.rows, lab.parts, kept.tuples) for f, lab, kept in runs]) \
        == "b46096489a715e5c"


def test_c5_gadget_certificates_pinned(digest):
    # each planted host's gadget certificate, then the gadget over its
    # tripartite extraction, whose retained triangles need not be sorted
    certs = []
    for k in range(1, 13):
        rb = rs_graph(k, ap3_free_set(k, "exact"))
        f, labeling, kept = random_tripartite_extract(rb.graph, rb.certificate,
                                                      Stream(71, (k,)), retries=4)
        for inner, lab, pk in ((rb.graph, rb.labeling, rb.certificate), (f, labeling, kept)):
            certs.append(build_c5_gadget(inner, lab.relabel(("V2", "V3", "V5")), pk)
                         .certificate.tuples)
    assert sum(map(len, certs)) == 460
    assert digest(certs) == "780bf92a5f290889"


def test_greedy_triangle_packing_pinned(digest):
    packings = []
    for i, (n, p) in enumerate(((8, .5), (10, .6), (12, .7), (20, .5), (30, .4))):
        g = gnp(n, p, Stream(73, (i,)))
        for rng in (None, Stream(79, (i,))):
            packings.append(triangle_packing(g, "greedy", rng).tuples)
    assert sum(map(len, packings)) == 160
    assert digest(packings) == "5c4f037d1f166653"


def test_exact_packing_and_cover_pinned(digest):
    # ten seeded draws on each dense host, where the searches branch most
    found = []
    for i, (n, p) in enumerate(((9, .7), (10, .7), (11, .5), (12, .5))):
        for j in range(10):
            g = gnp(n, p, Stream(83, (i, j)))
            found.append((triangle_packing(g).tuples, triangle_cover(g)))
    assert sum(len(pk) for pk, _ in found) == 314
    assert sum(len(cover) for _, cover in found) == 340
    assert digest(found) == "b87e60b3510df9d8"


def test_tripartite_extract_empty_packing():
    g = cycle_graph(5)
    packing = triangle_packing(g)  # empty
    f, labeling, kept = random_tripartite_extract(g, packing, Stream(2))
    assert len(kept) == 0


def test_retention_mean_near_two_ninths():
    detail = retention_mean(Stream(11, (4,)), 30_000)
    assert detail is None, detail


def test_distance_dominates_tau():
    detail = distance_dominates_tau(Stream(13), 40)
    assert detail is None, detail


def test_packing_json_roundtrip():
    g = complete_graph(4)
    p = triangle_packing(g)
    data = p.to_json()
    assert data["kind"] == "triangle" and data["verified"]
    q = WitnessPacking.from_json(data)
    assert q.tuples == p.tuples and q.host_n == 4
