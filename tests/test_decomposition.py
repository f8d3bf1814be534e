from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from ptlab.decomposition import (
    AboveCap,
    Cut,
    NotFound,
    _beta_cut_exact,
    distance_to_property,
    find_beta_cut,
    find_cut,
    refine_along_cuts,
)
from ptlab.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    gnp,
    induced_subgraph,
    path_graph,
    random_cograph,
)
from ptlab.recognizers import (
    RecognitionResult,
    is_cograph,
    is_comparability,
    is_perfect,
    is_triangle_free,
)
from ptlab.rng import Stream
from ptlab.verify import no_cut_implies_p4, refinement_parts


def naive_beta_cuts(g, beta):
    """All (side1, kind) with vertex 0 in side1, by direct enumeration."""
    beta = Fraction(beta)
    found = []
    for size in range(1, g.n):
        for s1 in combinations(range(g.n), size):
            if 0 not in s1:
                continue
            s1set = set(s1)
            cross = sum(1 for u in s1 for v in range(g.n)
                        if v not in s1set and g.has_edge(u, v))
            prod = len(s1) * (g.n - len(s1))
            d = Fraction(cross, prod)
            if d <= beta:
                found.append((s1, "sparse", cross))
            elif d >= 1 - beta:
                found.append((s1, "dense", prod - cross))
    return found


def test_find_cut_examples():
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    cut = find_cut(two_k2)
    assert cut.kind == "sparse" and cut.side1 == (0, 1) and cut.edits == 0
    k23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    cut = find_cut(k23)
    assert cut.kind == "dense" and cut.crossing_density == 1
    assert find_cut(path_graph(4)) is None
    with pytest.raises(ValueError):
        find_cut(Graph(1, [0]))


def test_find_beta_cut_examples():
    assert find_beta_cut(cycle_graph(5), Fraction(1, 5)) is None
    disconnected = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    cut = find_beta_cut(disconnected, Fraction(2, 5))
    assert cut.kind == "sparse" and cut.crossing_density == 0
    res = find_beta_cut(cycle_graph(5), Fraction(2, 5))
    assert (res is not None) == bool(naive_beta_cuts(cycle_graph(5), Fraction(2, 5)))


def naive_best_cut(g, beta):
    """The minimum-edit cut of naive_beta_cuts, least side1 tuple on ties."""
    found = naive_beta_cuts(g, beta)
    if not found:
        return None
    side1, kind, edits = min(found, key=lambda c: (c[2], c[0]))
    prod = len(side1) * (g.n - len(side1))
    cross = edits if kind == "sparse" else prod - edits
    side2 = tuple(v for v in range(g.n) if v not in side1)
    return Cut(side1, side2, kind, Fraction(cross, prod), edits)


def disjoint_cliques(sizes):
    edges, start = [], 0
    for s in sizes:
        edges += [(start + a, start + b) for a in range(s) for b in range(a + 1, s)]
        start += s
    return Graph.from_edges(start, edges)


def tie_heavy_graphs(n):
    yield Graph(n, [0] * n)
    yield complete_graph(n)
    for center in (0, n - 1):
        yield Graph.from_edges(n, [(center, v) for v in range(n) if v != center])
    for a in range(1, n):
        yield disjoint_cliques([a, n - a])
    if n >= 3:
        yield disjoint_cliques([n // 3, n // 3, n - 2 * (n // 3)])


def naive_cases():
    """Seeded G(n, p) and tie-heavy graphs on 2..11 vertices."""
    rng = Stream(19)
    graphs = []
    for n in range(2, 12):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            graphs += [gnp(n, p, rng.child(n, int(p * 10), i)) for i in range(2)]
        graphs += list(tie_heavy_graphs(n))
    return graphs


def test_find_beta_cut_against_naive():
    for g in naive_cases():
        for beta in (Fraction(1, 20), Fraction(1, 5), Fraction(1, 3), Fraction(2, 5)):
            # minimum edits with lexicographically least side1 on ties
            assert find_beta_cut(g, beta) == naive_best_cut(g, beta), (g.rows, beta)


def naive_zero_cut(g):
    """Vertex 0's component by BFS over has_edge as a sparse cut, else its
    co-component (BFS over non-edges) as a dense one, else None."""
    for kind, adjacent in (("sparse", g.has_edge),
                           ("dense", lambda u, v: u != v and not g.has_edge(u, v))):
        seen, todo = {0}, [0]
        while todo:
            u = todo.pop()
            for v in range(g.n):
                if v not in seen and adjacent(u, v):
                    seen.add(v)
                    todo.append(v)
        if len(seen) < g.n:
            side1 = tuple(sorted(seen))
            prod = len(side1) * (g.n - len(side1))
            side2 = tuple(v for v in range(g.n) if v not in seen)
            return Cut(side1, side2, kind, Fraction(0 if kind == "sparse" else prod, prod), 0)
    return None


def test_beta_zero_keeps_vertex_zero_component():
    # the edge 0-2 with isolated 1 and 3, and its complement: beta = 0 cuts
    # off vertex 0's (co-)component, though the least zero-edit side1, which
    # the minimum-edit scan picks, is (0, 1, 2)
    g = Graph(4, [4, 0, 1, 0])
    co = complement(g)
    assert co.rows == (10, 13, 10, 7)
    for h, kind in ((g, "sparse"), (co, "dense")):
        for mode in ("exact", "heuristic"):
            cut = find_beta_cut(h, 0, mode, Stream(5))
            assert (cut.side1, cut.kind, cut.edits) == ((0, 2), kind, 0)
        assert _beta_cut_exact(h, Fraction(0)).side1 == (0, 1, 2)
    # and at any n: no exact-mode size bound applies
    assert find_beta_cut(disjoint_cliques([12, 12]), 0).side1 == tuple(range(12))
    for g in naive_cases():
        assert find_beta_cut(g, 0) == find_cut(g) == naive_zero_cut(g), g.rows


def test_find_beta_cut_at_exact_bound():
    two_k11 = disjoint_cliques([11, 11]).with_toggled([(10, 11)])
    assert two_k11.n == 22
    cut = find_beta_cut(two_k11, Fraction(1, 20))
    assert cut == Cut(tuple(range(11)), tuple(range(11, 22)), "sparse", Fraction(1, 121), 1)


def test_find_beta_cut_guards():
    with pytest.raises(ValueError):
        find_beta_cut(cycle_graph(5), Fraction(1, 2))
    with pytest.raises(ValueError):
        find_beta_cut(gnp(23, 0.5, Stream(1)), 0.1, "exact")
    with pytest.raises(ValueError):
        find_beta_cut(cycle_graph(5), 0.1, "heuristic")  # rng required


def test_heuristic_mode_returns_cut_or_notfound():
    rng = Stream(37)
    g = Graph.from_edges(30, [(i, i + 1) for i in range(29)])  # path: sparse cuts exist
    res = find_beta_cut(g, 0.05, "heuristic", rng.child(0))
    assert isinstance(res, Cut)
    dense = cycle_graph(5)
    res = find_beta_cut(dense, 0.01, "heuristic", rng.child(1))
    assert res is None or isinstance(res, (Cut, NotFound))
    assert not NotFound(20)  # falsy


def test_heuristic_results_pinned(digest):
    rng = Stream(61)
    cuts = []
    for i in range(30):
        g = gnp(4 + i % 12, (0.15, 0.5, 0.85)[i % 3], rng.child(0, i))
        beta = (Fraction(1, 10), Fraction(1, 4))[i % 2]
        cuts.append(find_beta_cut(g, beta, "heuristic", rng.child(1, i)))
    assert sum(isinstance(c, Cut) for c in cuts) == 25
    assert cuts.count(NotFound(20)) == 5
    assert digest(cuts) == "25c984c0cabba2f8"
    refs = []
    for i in range(6):
        g = gnp(12 + 3 * i, (0.2, 0.5, 0.8)[i % 3], rng.child(2, i))
        ref = refine_along_cuts(g, Fraction(1, 4), mode="heuristic", rng=rng.child(3, i))
        refs.append((ref.parts, ref.edited_pairs, ref.modified_graph.rows))
    assert [r[1] for r in refs] == [8, 23, 27, 35, 0, 64]
    assert digest(refs) == "f1793376a0ce91ad"


def test_refine_cograph_to_singletons():
    rng = Stream(41)
    for i in range(30):
        g = random_cograph(9, rng.child(i))
        ref = refine_along_cuts(g, 0)
        assert ref.edited_pairs == 0
        assert all(len(p) == 1 for p in ref.parts)
        assert ref.modified_graph == g


def test_refine_p4_single_part():
    ref = refine_along_cuts(path_graph(4), 0)
    assert ref.parts == ((0, 1, 2, 3),) and ref.edited_pairs == 0


def test_refine_budget_and_certification():
    rng = Stream(43)
    g = gnp(12, 0.5, rng.child(0))
    beta = Fraction(1, 10)
    ref = refine_along_cuts(g, beta)
    assert ref.certified
    assert ref.edited_pairs <= beta * 66
    ham = sum((a ^ b).bit_count()
              for a, b in zip(g.rows, ref.modified_graph.rows)) // 2
    assert ham == ref.edited_pairs
    for part in ref.parts:
        if len(part) >= 2:
            assert find_beta_cut(induced_subgraph(g, part), beta) is None


def test_refine_parts_contain_induced_p4():
    detail = refinement_parts(Stream(47), 8, 30)
    assert detail is None, detail


def test_cut_absence_forces_induced_p4_small():
    # Seinsche, exhaustively at n = 5: a graph with no exact cut contains an
    # induced 4-path. The naive 4-path count is the independent oracle.
    detail = no_cut_implies_p4(5)
    assert detail is None, detail


def test_distance_examples():
    assert distance_to_property(path_graph(4), is_cograph) == 1
    assert distance_to_property(complete_graph(4), is_triangle_free) == 2
    assert distance_to_property(cycle_graph(4), is_cograph) == 0


def naive_distance(g, recognizer, cap):
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    for k in range(cap + 1):
        for combo in combinations(pairs, k):
            if recognizer(g.with_toggled(combo)).member:
                return k
    return AboveCap(cap)


@lru_cache(maxsize=None)
def naive_answer(recognizer, rows):
    return naive_distance(Graph(len(rows), rows), recognizer, 3)


# the properties whose edit distance certify-style runs measure
DISTANCE_RECOGNIZERS = (is_triangle_free, is_cograph, is_perfect, is_comparability)


def two_c5s(shared):
    """Two 5-cycles on 10 - shared vertices; the second starts at vertex
    5 - shared, so with shared = 1 they meet in vertex 4."""
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    off = 5 - shared
    return Graph.from_edges(10 - shared, c5 + [(u + off, v + off) for u, v in c5])


# perfect distance 3; found by toggling one pair of a G(9, p) at distance 2
PERFECT_AT_3 = Graph(9, (118, 77, 147, 482, 421, 153, 267, 316, 216))


@lru_cache(maxsize=None)
def distance_cases():
    """(graph, recognizers) pairs: G(6, p) and G(7, p) on all four
    properties; on perfect and comparability also two odd holes (disjoint,
    or sharing a vertex), their complements (two odd antiholes), a host at
    perfect distance 3, and G(9, p), where those two reach distance 2 and 3."""
    rng = Stream(53)
    cases = [(gnp(6 + i % 2, (0.3, 0.5, 0.7)[i % 3], rng.child(i)), DISTANCE_RECOGNIZERS)
             for i in range(60)]
    hosts = [two_c5s(0), two_c5s(1), complement(two_c5s(0)), complement(two_c5s(1)),
             PERFECT_AT_3]
    hosts += [gnp(9, (0.3, 0.5, 0.7)[i % 3], rng.child(1, i)) for i in range(150)]
    return cases + [(g, (is_perfect, is_comparability)) for g in hosts]


def distance_mismatches(recognizer_of):
    """(recognizer, rows) where the witness-driven search, run on
    `recognizer_of(recognizer)`, disagrees with the naive toggle search run
    on the true recognizer, at cap 3."""
    return [(rec.__name__, g.rows) for g, recs in distance_cases() for rec in recs
            if distance_to_property(g, recognizer_of(rec), cap=3) != naive_answer(rec, g.rows)]


def test_distance_matches_naive_toggle_search():
    assert distance_mismatches(lambda rec: rec) == []
    reached = {(rec.__name__, naive_answer(rec, g.rows))
               for g, recs in distance_cases() for rec in recs}
    for name in ("is_perfect", "is_comparability"):
        assert {(name, 2), (name, 3)} <= reached, name


def test_fault_injection_distance_with_short_witnesses_is_caught():
    def dropping_last_witness_vertex(rec):
        def short(g):
            res = rec(g)
            return res if res.member else RecognitionResult(False, res.witness[:-1], res.label)
        return short

    caught = {name for name, _ in distance_mismatches(dropping_last_witness_vertex)}
    assert {"is_perfect", "is_comparability"} <= caught, caught


def test_distance_guards():
    with pytest.raises(ValueError):
        distance_to_property(gnp(11, 0.5, Stream(1)), is_cograph)
    with pytest.raises(ValueError):
        distance_to_property(cycle_graph(5), is_cograph, cap=6)
    # a negative cap is refused too, even for a member (distance 0)
    with pytest.raises(ValueError, match="cap limited to 0..5"):
        distance_to_property(cycle_graph(4), is_cograph, cap=-1)


def test_refine_heuristic_mode_runs():
    rng = Stream(59)
    g = gnp(30, 0.5, rng.child(0))
    ref = refine_along_cuts(g, Fraction(1, 3), mode="heuristic", rng=rng.child(1))
    assert not ref.certified
    assert ref.edited_pairs <= Fraction(1, 3) * 30 * 29 / 2
    assert sorted(v for part in ref.parts for v in part) == list(range(30))
    ham = sum((a ^ b).bit_count()
              for a, b in zip(g.rows, ref.modified_graph.rows)) // 2
    assert ham == ref.edited_pairs
