from itertools import combinations

import pytest

import ptlab.recognizers as R
from ptlab.graphs import (
    Digraph,
    Graph,
    PartLabeling,
    complement,
    complete_graph,
    count_triangles,
    cycle_graph,
    empty_graph,
    gnp,
    induced_subgraph,
    is_path_4,
    iter_bits,
    naive_induced_count,
    path_graph,
    random_cograph,
)
from ptlab.recognizers import (
    _orientable_exhaustive,
    check_order_transitivity,
    is_cograph,
    is_comparability,
    is_induced_h_free,
    is_perfect,
    is_poset,
    is_triangle_free,
    named_graph,
    property_recognizer,
)
from ptlab.rng import Stream
from ptlab.verify import all_graphs, forcing_vs_exhaustive, seinsche_equivalence


# --- independent oracles ------------------------------------------------------

def clique_number(g):
    best = 0
    for r in range(g.n, 0, -1):
        for vs in combinations(range(g.n), r):
            if induced_subgraph(g, vs).m == r * (r - 1) // 2:
                return r
    return best


def chromatic_number(g):
    for k in range(1, g.n + 1):
        colors = [0] * g.n

        def assign(v):
            if v == g.n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in range(v) if g.has_edge(u, v)):
                    colors[v] = c
                    if assign(v + 1):
                        return True
            return False

        if assign(0):
            return k
    raise AssertionError


def perfect_by_definition(g):
    """chi == omega for every induced subgraph (the defining property)."""
    for r in range(1, g.n + 1):
        for vs in combinations(range(g.n), r):
            sub = induced_subgraph(g, vs)
            if chromatic_number(sub) != clique_number(sub):
                return False
    return True


def orientable_naive(g):
    """Try all 2^m orientations, checking transitivity outright."""
    edges = list(g.edges())
    m = len(edges)
    for mask in range(1 << m):
        out = [0] * g.n
        for i, (u, v) in enumerate(edges):
            if (mask >> i) & 1:
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
        ok = True
        for u in range(g.n):
            for v in iter_bits(out[u]):
                if out[v] & ~out[u]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return m == 0


# --- triangle-free ------------------------------------------------------------

def test_triangle_free_examples():
    assert is_triangle_free(cycle_graph(5)).member
    res = is_triangle_free(complete_graph(4))
    assert not res.member and len(res.witness) == 3
    assert induced_subgraph(complete_graph(4), res.witness).m == 3


def test_triangle_free_rs_witness_is_planted():
    from ptlab.gadgets import ApFreeSet, rs_graph
    bundle = rs_graph(5, ApFreeSet(5, (1, 2, 4)))
    res = is_triangle_free(bundle.graph)
    assert not res.member
    assert tuple(sorted(res.witness)) in bundle.certificate.tuples


# --- induced-H-freeness ---------------------------------------------------------

def test_induced_h_free_examples():
    p4 = path_graph(4)
    assert not is_induced_h_free(cycle_graph(5), p4).member
    assert is_induced_h_free(complete_graph(4), p4).member
    with pytest.raises(ValueError):
        is_induced_h_free(empty_graph(8), cycle_graph(7))


def test_induced_k3_freeness_is_triangle_freeness():
    # H = K3 takes the triangle scan: same decision, witness and label
    assert R._resolve("induced-h-free:complete:3")[0] is R._find_triangle
    k3, rng = complete_graph(3), Stream(47)
    for i in range(120):
        g = gnp(3 + i % 9, (0.1, 0.3, 0.5)[i // 40], rng.child(i))
        assert is_induced_h_free(g, k3) == is_triangle_free(g), g.rows


def test_induced_h_free_matches_enumeration():
    rng = Stream(43)
    h_list = [path_graph(4), cycle_graph(4), cycle_graph(5), complete_graph(3)]
    for i in range(25):
        g = gnp(8, 0.5, rng.child(i))
        for h in h_list:
            def iso_to_h(sub, h=h):
                if sub.m != h.m:
                    return False
                if h.n == 5:
                    return all(sub.degree(v) == 2 for v in range(5))
                deg = sorted(sub.degree(v) for v in range(sub.n))
                want = sorted(h.degree(v) for v in range(h.n))
                if deg != want:
                    return False
                from itertools import permutations
                return any(all(h.has_edge(a, b) == sub.has_edge(p[a], p[b])
                               for a in range(h.n) for b in range(a + 1, h.n))
                           for p in permutations(range(h.n)))
            expect = naive_induced_count(g, iso_to_h, h.n) == 0
            assert is_induced_h_free(g, h).member == expect, (i, h)


def test_gadget_c5_witness_shape():
    from ptlab.gadgets import build_c5_gadget
    lab = PartLabeling(3, [("V2", [0]), ("V3", [1]), ("V5", [2])])
    gb = build_c5_gadget(complete_graph(3), lab)
    res = is_induced_h_free(gb.graph, cycle_graph(5))
    assert not res.member
    sub = induced_subgraph(gb.graph, res.witness)
    assert all(sub.degree(v) == 2 for v in range(5))


# --- cographs -------------------------------------------------------------------

def test_cograph_examples():
    assert is_cograph(cycle_graph(4)).member  # complement is 2*K2
    res = is_cograph(path_graph(4))
    assert not res.member and res.witness == (0, 1, 2, 3)
    assert not is_cograph(cycle_graph(5)).member


def test_cograph_matches_induced_p4_freeness_small():
    detail = seinsche_equivalence(5)
    assert detail is None, detail


def test_cograph_witness_reverifies():
    rng = Stream(47)
    for i in range(60):
        g = gnp(8, 0.5, rng.child(i))
        res = is_cograph(g)
        if not res.member:
            assert is_path_4(induced_subgraph(g, res.witness))
    non_cographs = 0
    for g in all_graphs(6):
        res = is_cograph(g)
        if not res.member:
            non_cographs += 1
            assert res.label == "induced-path-4"
            assert is_path_4(induced_subgraph(g, res.witness)), (g.rows, res.witness)
    # 2^15 labeled graphs minus the 5504 labeled cographs on 6 vertices
    assert non_cographs == 32768 - 5504


# --- comparability --------------------------------------------------------------

def test_comparability_examples():
    assert is_comparability(cycle_graph(6)).member
    res = is_comparability(cycle_graph(5))
    assert not res.member and res.witness == (0, 1, 2, 3, 4)
    assert not orientable_naive(cycle_graph(5))


def test_comparability_matches_naive_all_graphs_up_to_5():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert is_comparability(g).member == orientable_naive(g), g.rows


def test_comparability_forcing_vs_exhaustive_random():
    detail = forcing_vs_exhaustive(Stream(53), 300)
    assert detail is None, detail


def test_cographs_are_comparability():
    rng = Stream(59)
    for i in range(100):
        g = random_cograph(8, rng.child(i))
        assert _orientable_exhaustive(g)
        assert is_comparability(g).member


def test_comparability_witness_minimal():
    res = is_comparability(cycle_graph(7))
    assert not res.member
    sub = induced_subgraph(cycle_graph(7), res.witness)
    assert not is_comparability(sub).member
    for v in range(sub.n):
        others = [u for u in range(sub.n) if u != v]
        assert is_comparability(induced_subgraph(sub, others)).member


# --- perfectness -----------------------------------------------------------------

def test_perfect_examples():
    res = is_perfect(cycle_graph(5))
    assert not res.member and res.witness == (0, 1, 2, 3, 4) and res.label == "odd-hole"
    assert is_perfect(cycle_graph(6)).member
    res = is_perfect(complement(cycle_graph(7)))
    assert not res.member and res.label == "odd-antihole"
    with pytest.raises(ValueError):
        is_perfect(empty_graph(15))


def test_perfect_matches_definition_small():
    # chi == omega on every induced subgraph is the defining property
    assert perfect_by_definition(cycle_graph(6))
    assert not perfect_by_definition(cycle_graph(5))
    rng = Stream(61)
    for i in range(25):
        g = gnp(6, 0.5, rng.child(i))
        assert is_perfect(g).member == perfect_by_definition(g), g.rows


def test_perfect_matches_networkx():
    nx = pytest.importorskip("networkx")
    if not hasattr(nx, "is_perfect_graph"):
        pytest.skip(f"networkx {nx.__version__} has no is_perfect_graph")
    cases = [cycle_graph(5), cycle_graph(7), complement(cycle_graph(7))]
    rng = Stream(67)
    for n in range(5, 10):
        for j, p in enumerate((0.3, 0.5, 0.7)):
            cases.extend(gnp(n, p, rng.child(n, j, i)) for i in range(8))
    verdicts = []
    for g in cases:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        verdicts.append(is_perfect(g).member)
        assert verdicts[-1] == nx.is_perfect_graph(h), g.rows
    assert verdicts[:3] == [False, False, False]
    assert 20 < sum(verdicts) < len(cases) - 20  # both answers are well exercised


def test_containment_chain():
    rng = Stream(67)
    for i in range(300):
        g = gnp(7, 0.5, rng.child(i))
        cg, comp, perf = is_cograph(g).member, is_comparability(g).member, is_perfect(g).member
        assert not (cg and not comp)
        assert not (comp and not perf)


# --- posets and ordered orientation ----------------------------------------------

def test_poset_examples():
    assert is_poset(Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])).member
    res = is_poset(Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]))
    assert not res.member and res.label == "intransitive"
    res = is_poset(Digraph.from_arcs(2, [(0, 1), (1, 0)]))
    assert not res.member and res.label == "antiparallel"


def test_order_transitivity_examples():
    lab = PartLabeling(4, [("V1", [0, 1]), ("V2", [2, 3])])
    assert check_order_transitivity(empty_graph(4), lab).member
    # a path 0-2-1 oriented by part order: 0->2, 1->2 is transitive
    g = Graph.from_edges(4, [(0, 2), (1, 2)])
    assert check_order_transitivity(g, lab).member
    # triangle across three parts with the closing edge missing
    lab3 = PartLabeling(3, [("V1", [0]), ("V2", [1]), ("V3", [2])])
    g3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    res = check_order_transitivity(g3, lab3)
    assert not res.member and res.witness == (0, 1, 2)


def test_order_check_never_beats_recognizer():
    rng = Stream(71)
    for i in range(100):
        g = gnp(6, 0.5, rng.child(i))
        lab = PartLabeling(6, [("V1", [0, 1]), ("V2", [2, 3]), ("V3", [4, 5])])
        if check_order_transitivity(g, lab).member:
            assert is_comparability(g).member


# --- registry --------------------------------------------------------------------

def test_property_registry():
    assert property_recognizer("triangle-free")(cycle_graph(5)).member
    assert not property_recognizer("induced-c5-free")(cycle_graph(5)).member
    assert property_recognizer("induced-p3-free")(complete_graph(4)).member
    assert not property_recognizer("induced-h-free:cycle:4")(cycle_graph(4)).member
    assert named_graph("path:4") == path_graph(4)
    with pytest.raises(ValueError):
        property_recognizer("chromatic")
    with pytest.raises(ValueError):
        named_graph("moebius:5")


def test_induced_h_size_guard(monkeypatch):
    with pytest.raises(ValueError, match="limited to"):
        is_induced_h_free(cycle_graph(8), cycle_graph(7))
    with pytest.raises(ValueError, match="limited to"):
        property_recognizer("induced-h-free:path:7")
    # a token's count is refused before its graph is built
    monkeypatch.setitem(R._NAMED, "cycle", lambda k: pytest.fail("built"))
    with pytest.raises(ValueError, match="limited to"):
        named_graph(f"cycle:{10 ** 12}")
    # so is an H with no vertices, whose empty witness would "contain" it
    with pytest.raises(ValueError, match="limited to"):
        is_induced_h_free(cycle_graph(5), empty_graph(0))
    for token in ("cycle:0", "cycle:-3"):
        with pytest.raises(ValueError, match="limited to"):
            named_graph(token)
