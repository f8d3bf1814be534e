import pytest

import ptlab.pipelines
from ptlab.graphs import gnp
from ptlab.pipelines import (
    EASY_HEADER,
    HARDNESS_HEADER,
    match_gnp_control,
    pipeline_easy,
    pipeline_hardness,
    sampled_c5_packing,
)
from ptlab.rng import Stream


def test_sampled_c5_packing():
    g = gnp(40, 0.5, Stream(31).child(0))
    packing = sampled_c5_packing(g, 6, 20_000, Stream(31).child(1))
    assert packing.verified
    vsets = [set(t) for t in packing.tuples]
    for i in range(len(vsets)):
        for j in range(i + 1, len(vsets)):
            assert len(vsets[i] & vsets[j]) <= 1


def test_match_gnp_control():
    g, packing = match_gnp_control(45, 4, Stream(37))
    assert len(packing) >= 4 and packing.verified


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
