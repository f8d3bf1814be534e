import math
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

import ptlab.extremal as extremal
import ptlab.oracles as O
from ptlab.decomposition import distance_to_property, find_beta_cut
from ptlab.extremal import (ExtremalRecord, _CutFree, _FarFromCograph, estimate_f,
                            search_min_p3_density)
from ptlab.graphs import (Graph, complete_graph, count_induced_p3, cycle_graph, empty_graph,
                          gnp, path_graph)
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
    with pytest.raises(ValueError, match="farness needs n >= 1, got 0"):
        estimate_f(0, Fraction(1, 2), 5, Stream(4))
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
    """Does some bipartition of `oracles.bipartitions` have density <= beta or >= 1 - beta?"""
    return any(not beta < Fraction(cross, prod) < 1 - beta
               for _, cross, prod in O.bipartitions(g.rows))


@pytest.mark.parametrize("beta", [Fraction(0), Fraction(1, 5), Fraction(2, 5)])
def test_no_beta_cut_matches_find_beta_cut_and_brute_force(beta):
    rng = Stream(1703)
    graphs = [cycle_graph(5), path_graph(4), complete_graph(7), empty_graph(6)]
    graphs += [gnp(n, p, rng.child(n, i)) for n in range(2, 9)
               for i, p in enumerate((0.2, 0.4, 0.5, 0.6, 0.8) * 3)]
    starts = [_CutFree(beta).start(g) for g in graphs]
    for g, cut_free in zip(graphs, starts):
        assert cut_free == (find_beta_cut(g, beta) is None), g.rows
        assert cut_free != brute_force_has_beta_cut(g, beta), g.rows
    assert len(set(starts)) == (1 if beta == Fraction(2, 5) else 2)


def test_climb_records_pinned_across_beta():
    # (graph.rows, p3_count) of climbs at beta = 1/7 (n = 6, 9, 11), beta = 0
    # (n = 7) and beta = 1/4 (n = 11), pinned before the toggle decision
    # moved from a full crossing scan to the near-cut lists
    cases = [(Fraction(1, 7), 6, 20), (Fraction(1, 7), 9, 20), (Fraction(1, 7), 11, 10),
             (Fraction(0), 7, 12), (Fraction(1, 4), 11, 10)]
    recs = [search_min_p3_density(n, beta, effort, Stream(1701, (i,)))
            for i, (beta, n, effort) in enumerate(cases)]
    assert [(r.graph.rows, r.p3_count) for r in recs] == [
        ((2, 57, 8, 54, 10, 10), 1),
        ((72, 152, 192, 67, 130, 448, 429, 374, 224), 12),
        ((490, 509, 130, 1011, 490, 1243, 955, 383, 1243, 72, 288), 12),
        ((34, 117, 98, 32, 2, 79, 38), 1),
        ((1158, 869, 131, 464, 552, 2002, 1962, 877, 1770, 498, 353), 46),
    ]


@pytest.mark.parametrize("n", [6, 9, 11])
def test_beta_one_third_climbs_find_no_start(n):
    # no G(n, 1/2) start at n <= 11 is free of 1/3-cuts (none of 2,000 seeded
    # draws at each of these n), so the pinned outcome is the refusal
    with pytest.raises(ValueError, match=f"no qualifying graph found in 2 restarts at n={n}"):
        search_min_p3_density(n, Fraction(1, 3), 2, Stream(1701, (n,)))


def brute_force_near_cuts(g, beta):
    """Side1 masks (vertex 0 in side1, ascending) of the bipartitions of
    `oracles.bipartitions` one added crossing edge from a dense cut, and of
    those one removed edge from a sparse cut."""
    cuts = [(sum(1 << v for v in side1), cross, prod)
            for side1, cross, prod in O.bipartitions(g.rows)]
    return ([mask for mask, cross, prod in cuts if Fraction(cross + 1, prod) >= 1 - beta],
            [mask for mask, cross, prod in cuts if Fraction(cross - 1, prod) <= beta])


def near_cut_decisions(beta, swap=False):
    """(toggles checked, toggles making a cut, disagreements) of the cut-free
    qualifier's toggle decision against the brute force on every pair of up to four seeded
    cut-free G(n, 1/2), n = 3..9; `swap` exchanges its two near-cut lists."""
    checked = cuts = wrong = 0
    for n in range(3, 10):
        kept = 0
        for i in range(40):
            g = gnp(n, 0.5, Stream(1705, (n, i)))
            q = _CutFree(beta)
            assert q.start(g) != brute_force_has_beta_cut(g, beta), g.rows
            if brute_force_has_beta_cut(g, beta):
                continue
            if swap:
                q.near = q.near[::-1]
            for u in range(n):
                for v in range(u + 1, n):
                    toggled = g.with_toggled([(u, v)])
                    cand = q.toggled(g, u, v)
                    assert cand is None or cand == toggled
                    cut = brute_force_has_beta_cut(toggled, beta)
                    checked += 1
                    cuts += cut
                    wrong += (cand is None) != cut
            kept += 1
            if kept == 4:
                break
    return checked, cuts, wrong


@pytest.mark.parametrize("beta", [Fraction(0), Fraction(1, 7), Fraction(1, 5)])
def test_near_cut_decision_matches_brute_force(beta):
    checked, cuts, wrong = near_cut_decisions(beta)
    assert checked > 300 and 0 < cuts < checked and wrong == 0


def test_near_cut_decision_has_no_start_at_one_third():
    # none of the seeded G(n, 1/2), n = 3..9, is free of 1/3-cuts, so at
    # beta = 1/3 only the start answers are compared
    assert near_cut_decisions(Fraction(1, 3)) == (0, 0, 0)


@pytest.mark.parametrize("beta", [Fraction(0), Fraction(1, 7), Fraction(1, 5)])
def test_near_cut_decision_with_swapped_lists_fails_the_oracle(beta):
    assert near_cut_decisions(beta, swap=True)[2] > 0


def test_near_cut_lists_follow_the_climb(monkeypatch):
    beta = Fraction(1, 5)
    seen = []
    real = _CutFree.toggled

    def checked(self, g, u, v):
        assert not brute_force_has_beta_cut(g, beta)
        assert self.near == brute_force_near_cuts(g, beta), g.rows
        if g.rows not in seen:
            seen.append(g.rows)
        return real(self, g, u, v)

    monkeypatch.setattr(_CutFree, "toggled", checked)
    search_min_p3_density(8, beta, 2, Stream(1706))
    assert len(seen) > 5  # the lists were checked on the start and after moves


def test_climb_scans_crossings_once_per_start_attempt_and_never_after_a_move(monkeypatch):
    events = []
    real_crossings, real_gnp, real_toggled = extremal._crossings, extremal.gnp, Graph.with_toggled
    real_moved = _CutFree.moved

    def crossings(g, beta):
        events.append(("scan", g.rows))
        return real_crossings(g, beta)

    def start(n, p, rng):
        g = real_gnp(n, p, rng)
        events.append(("start", g.rows))
        return g

    def with_toggled(g, pairs):
        cand = real_toggled(g, pairs)
        events.append(("toggle", g.rows, cand.rows))
        return cand

    def moved(self, g, u, v):
        events.append(("move", g.rows, (u, v)))
        return real_moved(self, g, u, v)

    monkeypatch.setattr(extremal, "_crossings", crossings)
    monkeypatch.setattr(extremal, "gnp", start)
    monkeypatch.setattr(Graph, "with_toggled", with_toggled)
    monkeypatch.setattr(_CutFree, "moved", moved)
    rec = search_min_p3_density(8, Fraction(1, 5), 3, Stream(1707))

    scans = starts = moves = rejected = 0
    at = None  # the graph the climb stands on
    stood = set()  # every graph it stood on
    for i, event in enumerate(events):
        after = events[i + 1] if i + 1 < len(events) else None
        if event[0] == "start":
            starts += 1
            assert after == ("scan", event[1])  # every start attempt is scanned once
            at = event[1]
            stood.add(at)
        elif event[0] == "toggle":
            assert event[1] == at  # candidates toggle the current graph
            if after is not None and after[:2] == ("move", event[2]):
                moves += 1
                u, v = after[2]
                assert real_toggled(Graph(len(at), at), [(u, v)]).rows == event[2]
                at = event[2]
                stood.add(at)
            else:
                rejected += 1
        elif event[0] == "move":
            assert events[i - 1][0] == "toggle" and events[i - 1][2] == event[1]
        else:
            scans += 1
            assert events[i - 1] == ("start", event[1])  # scanned only right after its start
    assert scans == starts
    assert moves > 0 and rejected > 0  # the coin refused some candidates
    assert rec.graph.rows in stood


def oracle_crossings(g, beta):
    return [cross for _, cross, _ in O.bipartitions(g.rows)]


def fresh_crossings(g, beta):
    return extremal._crossings(g, beta)[0].tolist()


# seeded climbs (n, beta, effort, stream), n = 3..10; no 3-vertex graph is
# free of exact cuts (its degrees would all be 1), so n = 3 is refused
SMALL_CLIMBS = [(n, beta, 2, Stream(1708, (n, k)))
                for k, beta in enumerate((Fraction(0), Fraction(1, 7), Fraction(1, 5)))
                for n in range(3, 11)]


def climb_checking_crossings(monkeypatch, climbs, expected):
    """Run `climbs`, asserting after every accepted move that the crossing
    counts of the cut-free qualifier equal `expected(g, beta)`; the number
    of moves checked. The qualifier is `extremal._CutFree` as it is at the
    call, which a fault test may have patched."""
    moves = 0
    real = extremal._CutFree.moved

    def checked(self, g, u, v):
        nonlocal moves
        real(self, g, u, v)
        moves += 1
        assert self.cross.tolist() == expected(g, self.beta), ("crossing counts", g.rows, u, v)

    monkeypatch.setattr(extremal._CutFree, "moved", checked)
    for n, beta, effort, rng in climbs:
        if n == 3:
            with pytest.raises(ValueError, match="no qualifying graph found"):
                search_min_p3_density(n, beta, effort, rng)
        else:
            search_min_p3_density(n, beta, effort, rng)
    return moves


def test_crossing_array_matches_the_oracle_after_every_move(monkeypatch):
    assert climb_checking_crossings(monkeypatch, SMALL_CLIMBS, oracle_crossings) > 100


def test_crossing_array_matches_a_fresh_scan_at_n_16(monkeypatch):
    climb = [(16, Fraction(1, 5), 1, Stream(1709))]
    assert climb_checking_crossings(monkeypatch, climb, fresh_crossings) > 20


@pytest.mark.parametrize("old, new", [
    # the sign flipped: an added edge counted as a removed one
    ("step = 1 if g.rows[u] >> v & 1 else -1", "step = -1 if g.rows[u] >> v & 1 else 1"),
    # only one of the two separating quarters updated
    ("for bit in (0, 1) if u else (0,):", "for bit in (0,) if u else (0,):"),
    # pairs (0, v) updated as if vertex 0 could leave side1
    ("for bit in (0, 1) if u else (0,):", "for bit in (0, 1) if u else (0, 1):"),
])
def test_fault_injection_crossing_array_update_is_caught(monkeypatch, patch_source, old, new):
    patch_source(extremal, "_CutFree", old, new)
    with pytest.raises(AssertionError, match="crossing counts"):
        climb_checking_crossings(monkeypatch, SMALL_CLIMBS, oracle_crossings)


def census_cograph_distances(n):
    """(rows, toggle distance to the nearest cograph) of every labeled graph on
    n vertices, by breadth-first search over single pair toggles out of the
    graphs `oracles.cograph` accepts: graph `mask ^ 1 << i` of
    `oracles.labeled_graphs` is graph `mask` with its i-th pair toggled."""
    graphs = list(O.labeled_graphs(n))
    dist = [0 if O.cograph(rows, range(n)) else None for rows in graphs]
    frontier = [mask for mask, d in enumerate(dist) if d == 0]
    while frontier:
        reached = []
        for mask in frontier:
            for i in range(n * (n - 1) // 2):
                if dist[mask ^ 1 << i] is None:
                    dist[mask ^ 1 << i] = dist[mask] + 1
                    reached.append(mask ^ 1 << i)
        frontier = reached
    return list(zip(graphs, dist))


def toggle_distance(rows, cap):
    """The fewest pair toggles turning rows into a graph `oracles.cograph`
    accepts, trying every set of at most `cap` pairs; cap + 1 if none does."""
    n = len(rows)
    for k in range(cap + 1):
        for chosen in combinations(combinations(range(n), 2), k):
            toggled = list(rows)
            for u, v in chosen:
                toggled[u] ^= 1 << v
                toggled[v] ^= 1 << u
            if O.cograph(toggled, range(n)):
                return k
    return cap + 1


@cache
def seeded_distances():
    """(rows, toggle distance capped at 3) of 36 seeded G(n, p), n = 7, 8."""
    return [(g.rows, toggle_distance(g.rows, 2))
            for n in (7, 8) for p in (0.3, 0.5, 0.7) for i in range(6)
            for g in [gnp(n, p, Stream(1801, (n, int(10 * p), i)))]]


def far_disagreements(graphs, thresholds):
    """(rows, threshold) at which `_FarFromCograph` says "far" other than
    exactly when the toggle distance is at least need = ceil(threshold)."""
    qualifiers = [(t, math.ceil(t), _FarFromCograph(t)) for t in thresholds]
    return [(rows, t) for rows, d in graphs for g in [Graph(len(rows), rows)]
            for t, need, q in qualifiers if q.start(g) != (d >= need)]


# needs 1..3, each asked at the thresholds need - 1/2 and need
THRESHOLDS = [Fraction(k, 2) for k in range(1, 7)]


def test_far_qualifier_matches_brute_force_on_all_6_vertex_graphs():
    graphs = census_cograph_distances(6)
    assert {d for _, d in graphs} == {0, 1, 2}  # so at need 3 no 6-vertex graph is far
    assert far_disagreements(graphs, [1, 2, 3]) == []


def test_far_qualifier_matches_brute_force_on_seeded_gnp():
    assert {min(d, 3) for _, d in seeded_distances()} >= {1, 2, 3}
    assert far_disagreements(seeded_distances(), THRESHOLDS) == []


def test_fault_injection_far_qualifier_asking_cap_need_is_caught(monkeypatch):
    real = extremal.distance_to_property
    monkeypatch.setattr(extremal, "distance_to_property",
                        lambda g, recognizer, cap: real(g, recognizer, cap=cap + 1))
    assert far_disagreements(seeded_distances(), THRESHOLDS) != []
