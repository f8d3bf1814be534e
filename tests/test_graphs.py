import numpy as np
import pytest

import ptlab.graphs as graphs_module
import ptlab.recognizers as R
from ptlab.graphs import (
    Graph,
    Digraph,
    PartLabeling,
    _p4_delta,
    complement,
    complete_graph,
    component,
    count_induced_c5,
    count_induced_p3,
    count_triangles,
    cycle_graph,
    empty_graph,
    flip_pairs,
    gnp,
    induced_subgraph,
    iter_bits,
    pair_count,
    pair_from_index,
    path_graph,
    sample_vertices,
)
from ptlab.rng import Stream
from ptlab.verify import _induces, _naive_count, _p4_census, cograph_generator, sampling_uniform


def test_complement_examples():
    c5 = cycle_graph(5)
    assert complement(c5).m == 5
    assert count_induced_c5(complement(c5)) == 1  # self-complementary
    assert complement(complete_graph(4)) == empty_graph(4)
    p4 = path_graph(4)
    assert complement(complement(p4)) == p4
    assert complement(p4).m == 3


def test_induced_subgraph_examples():
    c5 = cycle_graph(5)
    sub = induced_subgraph(c5, {0, 1, 2, 3})
    assert sub.m == 3 and _induces(sub.rows, range(4))
    assert induced_subgraph(c5, set()).n == 0
    assert induced_subgraph(complete_graph(5), (0, 2, 4)) == complete_graph(3)
    with pytest.raises(ValueError):
        induced_subgraph(c5, {0, 9})


def test_count_triangles_examples():
    assert count_triangles(complete_graph(3)) == 1
    assert count_triangles(complete_graph(4)) == 4
    assert count_triangles(cycle_graph(5)) == 0


def test_count_induced_p3_examples():
    assert count_induced_p3(path_graph(4)) == 1
    assert count_induced_p3(cycle_graph(5)) == 5
    assert count_induced_p3(complete_graph(4)) == 0


def test_count_induced_c5_examples():
    assert count_induced_c5(cycle_graph(5)) == 1
    assert count_induced_c5(complete_graph(5)) == 0
    with pytest.raises(ValueError):
        count_induced_c5(empty_graph(70))


def test_counts_match_naive_enumeration():
    rng = Stream(7)
    for i in range(40):
        g = gnp(7, 0.45, rng.child(i))
        assert count_induced_p3(g) == _naive_count(g.rows, 4)
        assert count_induced_c5(g) == _naive_count(g.rows, 5)
        assert count_triangles(g) == _naive_count(g.rows, 3)


def test_induced_commutes_with_complement():
    rng = Stream(11)
    for i in range(30):
        g = gnp(8, 0.5, rng.child(i))
        vs = sample_vertices(8, 5, rng.child(100, i))
        assert induced_subgraph(complement(g), vs) == complement(induced_subgraph(g, vs))


def test_triangle_count_edge_increment():
    rng = Stream(13)
    for i in range(30):
        g = gnp(9, 0.5, rng.child(i))
        if g.m == 0:
            continue
        u, v = next(iter(g.edges()))
        through = (g.rows[u] & g.rows[v]).bit_count()
        assert count_triangles(g) - count_triangles(g.with_toggled([(u, v)])) == through


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph(2, [1, 0])  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, [1])  # self-loop
    with pytest.raises(ValueError):
        Graph(2, [4, 0])  # out of range
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Digraph(2, [2, 2])  # self-arc at 1


@pytest.mark.parametrize("cls, n, rows", [
    (Graph, 2, [2.5, 1.9]), (Graph, 2, ["2", "1"]), (Graph, 2, [True, False]),
    (Graph, 2.0, [2, 1]), (Graph, True, [0]), (Digraph, 2, [2.7, 0.0]),
    (Digraph, 2, ["2", "0"]), (Digraph, 2.0, [2, 0]), (Digraph, 2, [np.float64(2), 0]),
])
def test_construction_refuses_non_integer_rows(cls, n, rows):
    with pytest.raises(TypeError):
        cls(n, rows)


def test_construction_takes_numpy_integers():
    g = Graph(np.int64(2), np.array([2, 1], dtype=np.uint64))
    d = Digraph(np.int32(2), [np.int8(2), np.int64(0)])
    assert (g, d) == (Graph(2, [2, 1]), Digraph(2, [2, 0]))
    assert all(type(x) is int for x in (g.n, d.n, *g.rows, *d.rows))


@pytest.mark.parametrize("pair", [(0, 4), (4, 0), (-1, 2)])
def test_toggle_out_of_range_is_refused(pair):
    with pytest.raises(ValueError, match=rf"\({pair[0]},{pair[1]}\)"):
        path_graph(4).with_toggled([pair])
    with pytest.raises(ValueError, match="self-pair"):
        path_graph(4).with_toggled([(2, 2)])


def test_pair_readers_take_numpy_integers():
    # 1 << np.int64(65) overflows: the readers must shift plain ints
    pair = (np.int64(0), np.int64(65))
    g, d = Graph.from_edges(70, [pair]), Digraph.from_arcs(70, [pair])
    assert g.m == 1 and g.has_edge(0, 65) and g.has_edge(65, 0)
    assert d.m == 1 and d.has_arc(0, 65)
    assert all(type(r) is int for r in (*g.rows, *d.rows))
    assert Graph(g.n, g.rows) == g


@pytest.mark.parametrize("pair", [(True, 2), (0.5, 2)])
def test_pair_readers_refuse_non_integer_endpoints(pair):
    for read in (lambda: Graph.from_edges(3, [pair]), lambda: Digraph.from_arcs(3, [pair]),
                 lambda: empty_graph(3).with_toggled([pair])):
        with pytest.raises(TypeError):
            read()


def test_from_edges_reads_its_vertex_count():
    # the trusted result must never hold an unchecked n
    with pytest.raises(ValueError, match="vertex count"):
        Graph.from_edges(-1, [])
    for n in (True, 3.0):
        with pytest.raises(TypeError):
            Graph.from_edges(n, [])
    g = Graph.from_edges(np.int64(3), [(0, 1), (1, 0), (0, 1)])
    assert type(g.n) is int and g == Graph(3, [2, 1, 0])


def test_toggle_takes_numpy_integers():
    g = path_graph(70).with_toggled([(np.int64(0), np.int64(69))])
    assert g.has_edge(0, 69) and all(type(r) is int for r in g.rows)
    assert Graph(g.n, g.rows) == g
    with pytest.raises(TypeError):
        path_graph(4).with_toggled([(0, 2.0)])


def test_sampling_examples_and_determinism():
    rng = Stream(3)
    assert sample_vertices(5, 0, rng.child(0)) == ()
    assert sample_vertices(5, 5, rng.child(1)) == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        sample_vertices(4, 5, rng.child(2))
    assert sample_vertices(50, 10, Stream(3, (9,))) == sample_vertices(50, 10, Stream(3, (9,)))


def test_sampling_uniformity():
    # 10^5 draws of 2-subsets of 5: each of the 10 pairs within 3 SE of 0.1
    detail = sampling_uniform(Stream(17, (0,)))
    assert detail is None, detail


def test_gnp_edge_cases():
    rng = Stream(5)
    assert gnp(6, 0.0, rng.child(0)) == empty_graph(6)
    assert gnp(6, 1.0, rng.child(1)) == complete_graph(6)
    with pytest.raises(ValueError):
        gnp(5, 1.5, rng.child(2))
    # the vertex count is read before any draw, as `Graph` reads it
    with pytest.raises(ValueError):
        gnp(-1, 0.5, rng.child(3))
    for bad in (True, 6.0, "6"):
        with pytest.raises(TypeError):
            gnp(bad, 0.5, rng.child(4))
    assert gnp(np.int64(6), 0.5, rng.child(5)) == gnp(6, 0.5, rng.child(5))


def test_random_cograph_always_recognized():
    detail = cograph_generator(Stream(29))
    assert detail is None, detail


def test_flip_pairs():
    rng = Stream(31)
    g = empty_graph(6)
    flipped = flip_pairs(g, 4, rng.child(0))
    assert flipped.m == 4
    assert flip_pairs(g, 0, rng.child(1)) == g
    with pytest.raises(ValueError):
        flip_pairs(g, pair_count(6) + 1, rng.child(2))


def test_pair_indexing_roundtrip():
    n = 7
    seen = set()
    for i in range(pair_count(n)):
        u, v = pair_from_index(n, i)
        assert 0 <= u < v < n
        seen.add((u, v))
    assert len(seen) == pair_count(n)


def test_part_labeling():
    lab = PartLabeling(5, [("X", [0, 1]), ("Y", [2]), ("Z", [3, 4])])
    assert lab.part("Y") == (2,)
    renamed = lab.relabel(("V2", "V3", "V5"))
    assert renamed.part("V2") == (0, 1)
    empty_part = PartLabeling(np.int64(2), [("A", [np.int64(1), 0]), ("B", [])])
    assert empty_part.parts == ((0, 1), ()) and type(empty_part.n) is int
    assert all(type(v) is int for v in empty_part.parts[0])
    for n, part in ((3, [False, 1, 2]), (3, [0.0, 1, 2]), (True, [0])):
        with pytest.raises(TypeError):
            PartLabeling(n, [("A", part)])
    with pytest.raises(ValueError):
        PartLabeling(4, [("A", [0, 1]), ("B", [1, 2, 3])])  # overlap
    with pytest.raises(ValueError):
        PartLabeling(4, [("A", [0, 1]), ("B", [3])])  # not covering


def test_components_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = Stream(61)
    for i in range(300):
        n = 1 + i % 14
        g = gnp(n, (0.1, 0.25, 0.5)[i % 3], rng.child(i, 0))
        mask = int(rng.child(i, 1).gen.integers(0, 1 << n))
        vs = list(iter_bits(mask))
        h = nx.Graph()
        h.add_nodes_from(vs)
        h.add_edges_from((u, v) for u, v in g.edges() if u in vs and v in vs)
        got, todo = [], mask
        while todo:  # the component of the lowest vertex left, until none is
            comp = component(g.rows, todo)
            assert comp & todo & -todo, (g.rows, todo)
            got.append(set(iter_bits(comp)))
            todo &= ~comp
        want = sorted(nx.connected_components(h), key=min)
        assert got == want, (g.rows, mask)


@pytest.mark.parametrize("n, d", [(6, 3), (7, 4), (10, 8)])
def test_sampling_counts_uniform_over_every_subset(n, d):
    # (7, 4) and (10, 8) take the complement of a uniform 3- and 2-subset
    import math
    from collections import Counter
    subsets = math.comb(n, d)
    draws = 300 * subsets
    stream = Stream(19, (n, d))
    counts = Counter(sample_vertices(n, d, stream) for _ in range(draws))
    assert len(counts) == subsets
    assert all(len(s) == d and list(s) == sorted(set(s)) and 0 <= s[0] and s[-1] < n
               for s in counts)
    se = math.sqrt(300 * (1 - 1 / subsets))
    assert all(abs(c - 300) <= 5 * se for c in counts.values()), counts


def test_sampling_skips_words_above_the_last_multiple_of_n():
    n = 6
    top = (1 << 64) - (1 << 64) % n  # the first word that would bias w mod n

    class Words:
        def __init__(self, words):
            self.words = list(words)

        def random_raw(self, size):
            out, self.words = self.words[:size], self.words[size:]
            return np.array(out, dtype=np.uint64)

    class FakeStream:
        def __init__(self, words):
            self.gen = type("Gen", (), {"bit_generator": Words(words)})()

    # top and (1 << 64) - 1 are skipped; 7 and 13 both map to vertex 1
    assert sample_vertices(n, 2, FakeStream([top, 7, (1 << 64) - 1, 13, 20, 0])) == (1, 2)
    # d > n/2: the complement of {4}
    assert sample_vertices(n, 5, FakeStream([top, 4, 0])) == (0, 1, 2, 3, 5)


def test_induced_subgraph_takes_numpy_integers():
    g = gnp(70, 0.5, Stream(1))
    vs = (3, 65, 40, 68)
    sub = induced_subgraph(g, [np.int64(v) for v in vs])
    assert sub == induced_subgraph(g, vs) and all(type(r) is int for r in sub.rows)
    with pytest.raises(TypeError):
        induced_subgraph(g, [3, 65.0])


def test_booleans_are_not_vertices():
    with pytest.raises(TypeError):
        complete_graph(3).with_toggled([(False, True)])
    with pytest.raises(TypeError):
        complete_graph(3).with_toggled([(0, True)])
    with pytest.raises(TypeError):
        induced_subgraph(complete_graph(3), [False, True])
    with pytest.raises(TypeError):
        induced_subgraph(complete_graph(3), [0, 2, True])


def _toggles(seed, sizes, per_size):
    """(g, u, v) over seeded G(n, p) hosts and pairs, half of them edges of
    g and half non-edges wherever g has both."""
    rng = Stream(seed)
    for n in sizes:
        for i in range(per_size):
            g = gnp(n, (0.15, 0.35, 0.5, 0.65, 0.85)[i % 5], rng.child(n, i))
            pairs = [pair_from_index(n, k) for k in range(pair_count(n))]
            edges = [p for p in pairs if g.has_edge(*p)]
            non_edges = [p for p in pairs if not g.has_edge(*p)]
            pick = rng.child(n, i, 1).gen
            for j in range(4):
                side = (edges, non_edges)[j % 2] or edges or non_edges
                yield (g, *side[int(pick.integers(0, len(side)))])


def _delta_mismatches(delta, cases, count):
    """(rows, pair, delta, recount) wherever `delta` disagrees with the
    change of `count` across the toggle."""
    found = []
    for g, u, v in cases:
        got, want = delta(g.rows, u, v), count(g.with_toggled([(u, v)])) - count(g)
        if got != want:
            found.append((g.rows, (u, v), got, want))
    return found


def _naive_p4_count(g):
    return _naive_count(g.rows, 4)


# 10 sizes x 80 hosts x 4 toggles = 3,200 toggles, half edges, half non-edges
_RECOUNT_CASES = list(_toggles(1701, range(2, 12), 80))


def test_p4_delta_matches_full_recount():
    assert len(_RECOUNT_CASES) >= 3000
    assert {g.has_edge(u, v) for g, u, v in _RECOUNT_CASES} == {True, False}
    assert _delta_mismatches(_p4_delta, _RECOUNT_CASES, count_induced_p3) == []


def test_p4_delta_matches_naive_enumeration():
    cases = list(_toggles(1702, range(4, 9), 12))
    # and every pair of the 4-path and of its complement
    cases += [(g, *pair_from_index(4, k)) for g in (path_graph(4), complement(path_graph(4)))
              for k in range(6)]
    assert _delta_mismatches(_p4_delta, cases, _naive_p4_count) == []


def _distance_two_p4s(g, u, v):
    """Induced 4-paths through u and v at distance two once (u, v) is a
    non-edge of g, by brute force over the other two vertices."""
    if g.has_edge(u, v):
        g = g.with_toggled([(u, v)])
    rest = [w for w in range(g.n) if w not in (u, v)]
    return sum(1 for i, x in enumerate(rest) for y in rest[i + 1:]
               if _induces(g.rows, (u, v, x, y))
               and any(g.has_edge(u, w) and g.has_edge(v, w) for w in (x, y)))


def test_fault_injection_p4_delta_without_distance_two_case():
    # the delta as it would read without the u-x-v family: the non-edge
    # side undercounts by the induced 4-paths with u, v at distance two
    def broken(rows, u, v):
        g = Graph(len(rows), rows)
        missed = _distance_two_p4s(g, u, v)
        return _p4_delta(rows, u, v) + (-missed if g.has_edge(u, v) else missed)

    assert _delta_mismatches(broken, _RECOUNT_CASES, count_induced_p3)


def _p4_fan_mismatches():
    """How many 6-vertex graphs the counter, and the finder's decision,
    get wrong against the census's brute-force induced-4-path counts."""
    counts = finds = 0
    for g, p4 in _p4_census(6):
        counts += count_induced_p3(g) != p4
        finds += (R._find_induced_p4(g.rows, (1 << 6) - 1) is None) != (p4 == 0)
    return counts, finds


def test_fault_injection_p4_fans_dropping_low_ends(monkeypatch):
    # the counter and the finder both read the one fan generator: a fan
    # that skips every end a below the middle edge's u fails both
    assert _p4_fan_mismatches() == (0, 0)
    real = graphs_module._p4_fans

    def high_ends_only(rows, mask):
        return (fan for fan in real(rows, mask) if fan[0] > fan[1])

    monkeypatch.setattr(graphs_module, "_p4_fans", high_ends_only)
    monkeypatch.setattr(R, "_p4_fans", high_ends_only)
    counts, finds = _p4_fan_mismatches()
    assert counts and finds
