import pytest

import ptlab.pipelines
from ptlab.graphs import complete_graph, cycle_graph, empty_graph, gnp, sample_vertices
from ptlab.packing import PackingError, WitnessPacking
from ptlab.pipelines import (
    _CONTROL_BUDGET,
    EASY_HEADER,
    HARDNESS_HEADER,
    match_gnp_control,
    pipeline_easy,
    pipeline_hardness,
    sampled_c5_packing,
)
from ptlab.recognizers import _find_induced_c5
from ptlab.rng import Stream, _trial_streams


def test_sampled_c5_packing():
    g = gnp(40, 0.5, Stream(31).child(0))
    packing = sampled_c5_packing(g, 6, 20_000, Stream(31).child(1))
    assert packing.verified
    vsets = [set(t) for t in packing.tuples]
    for i in range(len(vsets)):
        for j in range(i + 1, len(vsets)):
            assert len(vsets[i] & vsets[j]) <= 1


def _reference_packing(g, target, budget, rng):
    """`sampled_c5_packing` drawn trial by trial: each trial's sample as
    `sample_vertices` draws it on the trial's own stream, and its first
    induced 5-cycle as `_find_induced_c5` finds it."""
    chosen, masks = [], []
    for trial in _trial_streams(rng, 0, budget):
        if len(chosen) >= target:
            break
        sample = sum(1 << v for v in sample_vertices(g.n, min(10, g.n), trial))
        hit = _find_induced_c5(g.rows, sample)
        if hit is None:
            continue
        mask = sum(1 << v for v in hit)
        if all((mask & m).bit_count() <= 1 for m in masks):
            chosen.append(hit)
            masks.append(mask)
    return WitnessPacking("inducedC5", tuple(sorted(chosen)), g.n).verified_in(g)


_HOSTS = {"gnp5": gnp(5, 0.5, Stream(1)), "C5": cycle_graph(5), "K6": complete_graph(6),
          "gnp7": gnp(7, 0.7, Stream(2)), "gnp12": gnp(12, 0.5, Stream(3)),
          "gnp40": gnp(40, 0.5, Stream(4)), "gnp120": gnp(120, 0.3, Stream(5))}


@pytest.mark.parametrize("host", list(_HOSTS))
def test_sampled_c5_packing_matches_the_draw_by_draw_loop(host):
    # budgets of 0 and 1, one too small to reach the target, and one that is
    # not; a target no host reaches reads every window. The caller's own
    # stream is never moved
    g = _HOSTS[host]
    for target in (0, 1, 3, 9, 10_000):
        for budget in (0, 1, 25, 1500):
            rng = Stream(59, (target, budget))
            packing = ptlab.pipelines.sampled_c5_packing(g, target, budget, rng)
            assert packing == _reference_packing(g, target, budget, rng), (host, target, budget)
            assert rng._gen is None, (host, target, budget)


def test_fault_injection_packing_with_a_looser_overlap_rule_is_caught(patch_source,
                                                                      monkeypatch):
    # the packing's own verification refuses it, or the loop's packing differs
    # a witness may share one vertex pair (two vertices) with those packed
    patch_source(ptlab.packing, "_pack_greedily", "used.isdisjoint(pairs)",
                 "len(used.intersection(pairs)) <= 1")
    monkeypatch.setattr(ptlab.pipelines, "_pack_greedily", ptlab.packing._pack_greedily)
    with pytest.raises((AssertionError, PackingError)):
        test_sampled_c5_packing_matches_the_draw_by_draw_loop("gnp40")


def test_fault_injection_packing_window_starting_one_trial_late_is_caught(patch_source):
    patch_source(ptlab.pipelines, "sampled_c5_packing", "lo, width = hi,", "lo, width = hi + 1,")
    with pytest.raises(AssertionError):
        test_sampled_c5_packing_matches_the_draw_by_draw_loop("gnp40")


def test_sampled_c5_packing_on_hosts_without_five_vertices_is_empty():
    for n in range(5):
        for target, budget in ((0, 5), (1, 1), (2, 30), (2, 0)):
            packing = sampled_c5_packing(empty_graph(n), target, budget, Stream(61))
            assert packing.tuples == () and packing.verified, (n, target, budget)
    with pytest.raises(PackingError):
        match_gnp_control(4, 1, Stream(61))


def test_match_gnp_control():
    g, packing = match_gnp_control(45, 4, Stream(37))
    assert len(packing) >= 4 and packing.verified


# the control rows as the 5-subset sampler found them: only the packings moved
@pytest.mark.parametrize("n, target, seed, rows_pinned, pinned", [
    (45, 4, 37, "7fe088d9f5ddb2ad", "abb3f9ee58a9d88c"),
    (60, 6, 5, "5dc04a8331af7749", "59b3e7205315ccf3"),
    (90, 12, 11, "680e9c20281033c7", "383b9eb2f2b3beb2"),
])
def test_match_gnp_control_pinned(digest, n, target, seed, rows_pinned, pinned):
    g, packing = match_gnp_control(n, target, Stream(seed))
    assert digest(list(g.rows)) == rows_pinned
    # the first density tried, p = 0.5, is the one kept on these hosts
    assert packing == _reference_packing(g, target, _CONTROL_BUDGET, Stream(seed).child(0, 1))
    assert digest((list(g.rows), packing.tuples)) == pinned


# packing sizes the 5-subset sampler reached at 60,000 draws from Stream(2),
# at a target no host reaches: the samples must certify at least as many
_FLOORS = {15: (2, 4, 1), 20: (4, 6, 4), 30: (12, 16, 12), 45: (25, 35, 24), 60: (35, 57, 40)}
_FLOOR_HOSTS = [(n, p, (n, (i,)), floor) for n, floors in _FLOORS.items()
                for i, (p, floor) in enumerate(zip((0.3, 0.5, 0.7), floors))]
_FLOOR_HOSTS += [(120, 0.5, (1, ()), 167), (240, 0.3, (1, ()), 190)]


@pytest.mark.parametrize("n, p, graph_stream, floor", _FLOOR_HOSTS)
def test_sampled_c5_packing_covers_the_subset_samplers_floor(n, p, graph_stream, floor):
    g = gnp(n, p, Stream(*graph_stream))
    assert len(sampled_c5_packing(g, 10_000, _CONTROL_BUDGET, Stream(2))) >= floor


def test_pipeline_hardness_small():
    rows, extra = pipeline_hardness([3], d=10, trials=60, rng=Stream(41), retries=5)
    assert len(rows) == 4
    by_key = {(r.graph, r.property): r for r in rows}
    assert ("gadget", "induced-c5-free") in by_key
    assert ("control", "comparability") in by_key
    mech = extra["mechanism"]["3"]
    assert mech["trifree_pass"] == mech["trifree_samples"]
    for r in rows:
        assert 0.0 <= r.wilson_lo <= r.rejection_rate <= r.wilson_hi <= 1.0
        assert len(r.as_list()) == len(HARDNESS_HEADER)


def test_pipeline_hardness_identical_for_one_two_and_three_threads():
    runs = [pipeline_hardness([3], d=10, trials=40, rng=Stream(47), retries=5,
                              threads=th)
            for th in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


def test_pipeline_hardness_pinned(digest):
    rows, extra = pipeline_hardness([3, 4], d=45, trials=80, rng=Stream(73), retries=4)
    assert extra == {"mechanism": {"3": {"trifree_samples": 58, "trifree_pass": 58},
                                   "4": {"trifree_samples": 66, "trifree_pass": 66}}}
    assert [r.rejection_rate for r in rows] == [0.2, 0.275, 1.0, 1.0,
                                                0.1375, 0.175, 1.0, 1.0]
    assert digest([r.as_list() for r in rows]) == "051c54f004805fc4"


def test_pipeline_easy_small():
    rows = pipeline_easy(9, distances=[1, 2], budgets=[1, 8], trials=80,
                         rng=Stream(43))
    assert len(rows) == 6  # 2 distances x 2 budgets + 2 control rows
    for row in rows:
        assert len(row) == len(EASY_HEADER)
    control = [r for r in rows if r[3] == "cograph"]
    assert all(r[6] == 0.0 for r in control)  # one-sided: never rejected
    far_big_budget = [r for r in rows if r[3] == "far" and r[4] == 8]
    assert all(r[6] > 0 for r in far_big_budget)


@pytest.mark.parametrize("distances", [[1, 6], [-1]])
def test_pipeline_easy_refuses_uncertifiable_distances_first(monkeypatch, distances):
    def no_work(*args):
        raise AssertionError("work started before the distances were checked")

    monkeypatch.setattr(ptlab.pipelines, "random_cograph", no_work)
    with pytest.raises(ValueError, match="distances must lie in 0..5"):
        pipeline_easy(9, distances, [1], 10, Stream(43))
