import functools
import random
from itertools import combinations, permutations

import pytest

import ptlab.gadgets as GA
import ptlab.oracles as O
import ptlab.recognizers as R
from ptlab.graphs import (
    Digraph,
    Graph,
    PartLabeling,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp,
    induced_subgraph,
    iter_bits,
    path_graph,
    random_cograph,
)
from ptlab.recognizers import (
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

def perfect_by_definition(g):
    """chi == omega for every induced subgraph (the defining property): as
    chi >= omega always, each vertex set must be colourable with as many
    colours as its largest clique has vertices, by backtracking."""
    def colourable(vs, k, colours=()):
        if len(colours) == len(vs):
            return True
        v = vs[len(colours)]
        return any(colourable(vs, k, colours + (c,)) for c in range(k)
                   if all(c != cu or not g.has_edge(u, v) for u, cu in zip(vs, colours)))

    for r in range(1, g.n + 1):
        for vs in combinations(range(g.n), r):
            omega = max(len(c) for size in range(1, r + 1) for c in combinations(vs, size)
                        if all(g.has_edge(a, b) for a, b in combinations(c, 2)))
            if not colourable(vs, omega):
                return False
    return True


def orientable_naive(g):
    """Try all 2^m orientations, checking transitivity outright."""
    edges = list(g.edges())
    for mask in range(1 << len(edges)):
        out = [0] * g.n
        for i, (u, v) in enumerate(edges):
            a, b = (u, v) if mask >> i & 1 else (v, u)
            out[a] |= 1 << b
        if all(not out[v] & ~out[u] for u in range(g.n) for v in iter_bits(out[u])):
            return True
    return False


# --- triangle-free ------------------------------------------------------------

def test_triangle_free_examples():
    assert is_triangle_free(cycle_graph(5)).member
    res = is_triangle_free(complete_graph(4))
    assert not res.member and len(res.witness) == 3
    assert O.induces(complete_graph(4).rows, res.witness)


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


def _isomorphic(g, h):
    """Is g a relabeling of h? Decided by trying every vertex permutation."""
    return g.n == h.n and any(
        all(g.has_edge(p[a], p[b]) == h.has_edge(a, b)
            for a in range(h.n) for b in range(a + 1, h.n))
        for p in permutations(range(h.n)))


def test_induced_h_free_matches_enumeration():
    rng = Stream(43)
    h_list = [path_graph(4), cycle_graph(4), cycle_graph(5), complete_graph(3)]
    for i in range(25):
        g = gnp(8, 0.5, rng.child(i))
        for h in h_list:
            expect = not any(_isomorphic(induced_subgraph(g, vs), h)
                             for vs in combinations(range(g.n), h.n))
            assert is_induced_h_free(g, h).member == expect, (i, h)


def test_h_core_takes_a_dedicated_scan_exactly_for_its_graph():
    dedicated = [(complete_graph(3), R._find_triangle), (path_graph(4), R._find_induced_p4),
                 (cycle_graph(5), R._find_induced_c5)]
    for n in range(1, 7):
        for h in all_graphs(n):
            core, _ = R._h_core(h)
            for target, scan in dedicated:
                assert (core is scan) == _isomorphic(h, target), (h.rows, scan.__name__)


def test_gadget_c5_witness_shape():
    from ptlab.gadgets import build_c5_gadget
    lab = PartLabeling(3, [("V2", [0]), ("V3", [1]), ("V5", [2])])
    gb = build_c5_gadget(complete_graph(3), lab)
    res = is_induced_h_free(gb.graph, cycle_graph(5))
    assert not res.member and O.induces(gb.graph.rows, res.witness)


# --- cographs -------------------------------------------------------------------

def test_cograph_examples():
    assert is_cograph(cycle_graph(4)).member  # complement is 2*K2
    res = is_cograph(path_graph(4))
    assert not res.member and res.witness == (0, 1, 2, 3)
    assert not is_cograph(cycle_graph(5)).member


def test_cograph_matches_induced_p4_freeness_small():
    detail = seinsche_equivalence(5)
    assert detail is None, detail


def test_one_cograph_decider():
    """cograph, induced-p3-free and induced-h-free:path:4 all decide with the
    induced-4-path scan, so the cograph recognizer's answer, witness and
    label are those of induced-P4-freeness."""
    for name in ("cograph", "induced-p3-free", "induced-h-free:path:4"):
        assert R._resolve(name)[0] is R._find_induced_p4, name
    p4 = path_graph(4)
    graphs = list(all_graphs(6))
    rng = Stream(67)
    graphs += [gnp(n, p, rng.child(n, j)) for n in range(1, 13)
               for j, p in enumerate((0.2, 0.35, 0.5, 0.65, 0.8) * 40)]
    for g in graphs:
        assert is_cograph(g) == is_induced_h_free(g, p4), g.rows


def test_cograph_witness_reverifies():
    rng = Stream(47)
    graphs = [gnp(8, 0.5, rng.child(i)) for i in range(60)] + list(all_graphs(6))
    results = [is_cograph(g) for g in graphs]
    for g, res in zip(graphs, results):
        assert res.member or (res.label == "induced-path-4"
                              and O.induces(g.rows, res.witness)), (g.rows, res.witness)
    # 2^15 labeled graphs minus the 5504 labeled cographs on 6 vertices,
    # which the definition-level oracle counts too
    assert sum(not res.member for res in results[60:]) == 32768 - 5504
    assert sum(O.cograph(g.rows, range(6)) for g in graphs[60:]) == 5504


# --- comparability --------------------------------------------------------------

def test_comparability_examples():
    assert is_comparability(cycle_graph(6)).member
    res = is_comparability(cycle_graph(5))
    assert not res.member and res.witness == (0, 1, 2, 3, 4)
    assert not orientable_naive(cycle_graph(5))


def test_comparability_matches_naive_all_graphs_up_to_5():
    for n in range(1, 6):
        for g in all_graphs(n):  # and the exhaustive oracle against its cross-check
            assert (is_comparability(g).member == orientable_naive(g)
                    == O.transitively_orientable(g.rows, range(n))), g.rows


def test_comparability_forcing_vs_exhaustive_random():
    detail = forcing_vs_exhaustive(Stream(53), 300)
    assert detail is None, detail


def test_cographs_are_comparability():
    rng = Stream(59)
    for i in range(100):
        g = random_cograph(8, rng.child(i))
        assert O.transitively_orientable(g.rows, range(g.n))
        assert is_comparability(g).member


def test_comparability_witness_minimal():
    rows, res = cycle_graph(7).rows, is_comparability(cycle_graph(7))
    assert not res.member and not O.transitively_orientable(rows, res.witness)
    for v in res.witness:
        assert O.transitively_orientable(rows, set(res.witness) - {v})


# --- perfectness -----------------------------------------------------------------

def test_perfect_examples():
    res = is_perfect(cycle_graph(5))
    assert not res.member and res.witness == (0, 1, 2, 3, 4) and res.label == "odd-hole"
    assert is_perfect(cycle_graph(6)).member and not O.odd_hole(cycle_graph(6).rows, range(6))
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


def _planted_and_perfect_hosts():
    """Hosts on 10..14 vertices, where random hosts are almost never perfect:
    perfect ones (14-vertex samples of the rs(6) five-part gadget, random
    cographs, random bipartite graphs), then odd holes and odd antiholes of
    length 5..13 planted into random bipartite graphs."""
    rnd = random.Random(1014)
    rb = GA.rs_graph(6, GA.ap3_free_set(6, "exact"))
    gadget = GA.build_c5_gadget(rb.graph, rb.labeling.relabel(("V2", "V3", "V5")),
                                rb.certificate).graph

    def bipartite(n):
        side = [rnd.random() < 0.5 for _ in range(n)]
        p = rnd.choice((0.3, 0.5, 0.7))
        return {(u, v) for u, v in combinations(range(n), 2)
                if side[u] != side[v] and rnd.random() < p}

    perfect = [induced_subgraph(gadget, rnd.sample(range(gadget.n), 14)) for _ in range(20)]
    for n in range(10, 15):
        perfect.extend(random_cograph(n, Stream(1014, (n, i))) for i in range(4))
        perfect.extend(Graph.from_edges(n, bipartite(n)) for _ in range(4))
    planted = []
    for n in range(10, 15):
        for length in range(5, n + 1, 2):
            for anti in (False, True):
                edges, cyc = bipartite(n), rnd.sample(range(n), length)
                for i, j in combinations(range(length), 2):
                    pair = tuple(sorted((cyc[i], cyc[j])))
                    edges.discard(pair)
                    if (j - i in (1, length - 1)) != anti:
                        edges.add(pair)
                planted.append(Graph.from_edges(n, edges))
    return perfect, planted


def test_perfect_matches_networkx():
    """Random G(n, p) at n = 5..9, then the exhaustive and the witness side
    up to PERFECT_EXACT_BOUND (`_planted_and_perfect_hosts`)."""
    nx = pytest.importorskip("networkx")
    if not hasattr(nx, "is_perfect_graph"):
        pytest.skip(f"networkx {nx.__version__} has no is_perfect_graph")
    cases = [cycle_graph(5), cycle_graph(7), complement(cycle_graph(7))]
    rng = Stream(67)
    for n in range(5, 10):
        for j, p in enumerate((0.3, 0.5, 0.7)):
            cases.extend(gnp(n, p, rng.child(n, j, i)) for i in range(8))
    perfect, planted = _planted_and_perfect_hosts()
    assert max(g.n for g in perfect + planted) == R.PERFECT_EXACT_BOUND
    verdicts = []
    for g in cases + perfect + planted:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        verdicts.append(is_perfect(g).member)
        assert verdicts[-1] == nx.is_perfect_graph(h), g.rows
    random_verdicts = verdicts[:len(cases)]
    assert random_verdicts[:3] == [False, False, False]
    assert 20 < sum(random_verdicts) < len(cases) - 20  # both answers are well exercised
    assert verdicts[len(cases):] == [True] * len(perfect) + [False] * len(planted)


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


# every named property, and every induced-h-free token whose graph exists
FLAG_NAMES = [*R._PROPERTIES] + [
    f"induced-h-free:{kind}:{k}" for kind in R._NAMED for k in range(1, R.INDUCED_H_MAX + 1)
    if kind != "cycle" or k >= 3]


@functools.cache
def _bipartite_graphs():
    """Every graph on at most 6 vertices that the two-colouring oracle colours."""
    return tuple(Graph(n, rows) for n in range(7) for rows in O.labeled_graphs(n)
                 if O.two_colourable(rows, range(n)))


def bipartite_flag_mismatches(names=FLAG_NAMES):
    """The names whose registry flag (every bipartite graph a member) is
    wrong on the bipartite graphs of at most 6 vertices: flagged, but the
    recognizer rejects one, or unflagged, but it accepts them all."""
    bad = []
    for name in names:
        _, recognize, flagged = R._resolve(name)
        if all(recognize(g).member for g in _bipartite_graphs()) != flagged:
            bad.append(name)
    return bad


def test_bipartite_flag_holds_both_ways():
    assert bipartite_flag_mismatches() == []
    flagged = {name for name in FLAG_NAMES if R._resolve(name)[2]}
    assert flagged == {"triangle-free", "comparability", "perfect", "induced-c5-free",
                       "induced-h-free:cycle:3", "induced-h-free:cycle:5",
                       *(f"induced-h-free:complete:{k}" for k in range(3, 7))}


def test_fault_injection_flagged_cograph_is_caught(monkeypatch):
    # the 4-vertex path is bipartite and not a cograph
    monkeypatch.setitem(R._PROPERTIES, "cograph", R._PROPERTIES["cograph"][:2] + (True,))
    R._resolve.cache_clear()
    try:
        assert bipartite_flag_mismatches(["cograph"]) == ["cograph"]
    finally:
        R._resolve.cache_clear()


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
