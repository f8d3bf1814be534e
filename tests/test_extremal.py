from fractions import Fraction

import pytest

from ptlab.decomposition import distance_to_property, find_beta_cut
from ptlab.extremal import ExtremalRecord, _no_beta_cut, estimate_f, search_min_p3_density
from ptlab.graphs import (complete_graph, count_induced_p3, cycle_graph, empty_graph, gnp,
                          path_graph)
from ptlab.recognizers import is_cograph
from ptlab.rng import Stream


def test_search_small_beta_zero():
    rec = search_min_p3_density(4, 0, 30, Stream(1, (0,)))
    # the 4-path (or its complement) is the unique cut-free shape at n=4
    assert rec.p3_count == 1 and rec.p3_density == Fraction(1, 256)
    assert rec.certified


def test_search_n5_finds_exhaustive_optimum():
    rec = search_min_p3_density(5, Fraction(1, 5), 60, Stream(1, (1,)))
    # exhaustively-verified optimum: the bull graph, one induced 4-path
    assert rec.p3_density == Fraction(1, 625)
    assert find_beta_cut(rec.graph, Fraction(1, 5)) is None


def test_c5_record_reports_its_density():
    c5 = cycle_graph(5)
    assert find_beta_cut(c5, Fraction(1, 5)) is None  # C5 qualifies
    rec = ExtremalRecord(n=5, graph=c5, p3_count=count_induced_p3(c5), beta=Fraction(1, 5))
    assert rec.p3_density == Fraction(5, 625) and float(rec.p3_density) == 0.008
    assert rec.p3_density >= rec.density_floor()
    assert rec.certified


def test_record_below_its_floor_is_refused():
    # a density of 0 is the only one below the (beta/100)^12 floor
    with pytest.raises(AssertionError, match="below guaranteed floor"):
        ExtremalRecord(n=5, graph=empty_graph(5), p3_count=0, beta=Fraction(1, 5))


def test_estimate_f_certifies_farness():
    rec = estimate_f(8, Fraction(2, 64), 15, Stream(2, (0,)))
    assert rec.epsilon == Fraction(2, 64)
    d = distance_to_property(rec.graph, is_cograph)
    assert d >= 2
    assert rec.p3_count > 0
    assert rec.p3_density >= rec.density_floor()


def test_estimate_f_epsilon_zero_reaches_cograph():
    rec = estimate_f(6, 0, 5, Stream(2, (1,)))
    assert rec.p3_count == 0
    assert is_cograph(rec.graph).member


def test_estimate_f_refuses_uncertifiable_threshold():
    with pytest.raises(ValueError):
        estimate_f(10, Fraction(1, 10), 5, Stream(3))  # threshold 10 > cap+1


def test_guards():
    with pytest.raises(ValueError):
        search_min_p3_density(23, 0.1, 5, Stream(4))
    with pytest.raises(ValueError, match="0 <= beta < 1/2"):
        search_min_p3_density(8, Fraction(1, 2), 5, Stream(4))
    with pytest.raises(ValueError, match="cuts need n >= 2, got 1"):
        search_min_p3_density(1, Fraction(1, 5), 5, Stream(4))
    with pytest.raises(ValueError):
        estimate_f(11, 0.01, 5, Stream(4))


@pytest.mark.parametrize("effort", [0, -2])
def test_effort_below_one_is_refused(effort):
    with pytest.raises(ValueError, match="effort must be >= 1"):
        search_min_p3_density(8, Fraction(1, 5), effort, Stream(4))
    with pytest.raises(ValueError, match="effort must be >= 1"):
        estimate_f(8, Fraction(1, 32), effort, Stream(4))


def test_reproducibility():
    a = search_min_p3_density(6, Fraction(1, 5), 10, Stream(9, (7,)))
    b = search_min_p3_density(6, Fraction(1, 5), 10, Stream(9, (7,)))
    assert a.graph == b.graph and a.p3_count == b.p3_count


def test_json_payload():
    rec = search_min_p3_density(5, Fraction(1, 5), 10, Stream(11))
    data = rec.to_json()
    assert data["n"] == 5 and data["certified"]
    assert data["p3_density"] >= data["density_floor"]


def test_records_pinned(digest):
    recs = [search_min_p3_density(7, Fraction(1, 5), 6, Stream(71, (0,))),
            search_min_p3_density(8, Fraction(1, 5), 4, Stream(71, (1,))),
            estimate_f(7, Fraction(2, 49), 4, Stream(71, (2,)))]
    assert [r.p3_count for r in recs] == [8, 10, 3]
    assert digest([(r.to_json(), r.graph.rows) for r in recs]) == "33f1efcad1f6c3fd"


def test_climb_records_pinned():
    # (graph.rows, p3_count) of beta = 1/5 climbs at n = 5, 8, 10, 12 and of
    # estimate_f(8, 1/32), pinned before the count-first climb replaced the
    # qualify-then-recount one: the tie coin and the permutations must be
    # drawn exactly as before, so the records may not move
    beta = Fraction(1, 5)
    recs = [search_min_p3_density(n, beta, effort, Stream(1601, (i,)))
            for i, (n, effort) in enumerate([(5, 30), (8, 20), (10, 8), (12, 4)])]
    recs.append(estimate_f(8, Fraction(1, 32), 6, Stream(1601, (4,))))
    assert [(r.graph.rows, r.p3_count) for r in recs] == [
        ((2, 13, 10, 22, 8), 1),
        ((18, 241, 40, 52, 11, 206, 162, 98), 10),
        ((40, 768, 1000, 885, 1000, 861, 828, 20, 638, 382), 12),
        ((3390, 385, 3545, 1973, 1453, 3417, 1060, 1566, 1599, 392, 509, 37), 54),
        ((246, 37, 235, 36, 33, 95, 37, 5), 3),
    ]


def brute_force_has_beta_cut(g, beta):
    """Does some bipartition have crossing density <= beta or >= 1 - beta?
    Every side1 holding vertex 0, edges counted pair by pair."""
    for side1 in range(1, 1 << g.n, 2):
        if side1 == (1 << g.n) - 1:
            continue
        ones = [v for v in range(g.n) if side1 >> v & 1]
        others = [v for v in range(g.n) if not side1 >> v & 1]
        density = Fraction(sum(g.has_edge(a, b) for a in ones for b in others),
                           len(ones) * len(others))
        if density <= beta or density >= 1 - beta:
            return True
    return False


@pytest.mark.parametrize("beta", [Fraction(0), Fraction(1, 5), Fraction(2, 5)])
def test_no_beta_cut_matches_find_beta_cut_and_brute_force(beta):
    rng = Stream(1703)
    graphs = [cycle_graph(5), path_graph(4), complete_graph(7), empty_graph(6)]
    graphs += [gnp(n, p, rng.child(n, i)) for n in range(2, 9)
               for i, p in enumerate((0.2, 0.4, 0.5, 0.6, 0.8) * 3)]
    for g in graphs:
        assert _no_beta_cut(g, beta) == (find_beta_cut(g, beta) is None), g.rows
        assert _no_beta_cut(g, beta) != brute_force_has_beta_cut(g, beta), g.rows
    # both answers occur below 2/5; at 2/5 small graphs all have a cut (so
    # did 300 G(n, 1/2) at each n = 9..16)
    assert len({_no_beta_cut(g, beta) for g in graphs}) == (1 if beta == Fraction(2, 5) else 2)
