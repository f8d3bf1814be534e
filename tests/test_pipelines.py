import re

import numpy as np
import pytest

import ptlab.pipelines
from ptlab.graphs import _induces_c5, complete_graph, cycle_graph, empty_graph, gnp
from ptlab.packing import WitnessPacking
from ptlab.pipelines import (
    EASY_HEADER,
    HARDNESS_HEADER,
    _skip_halves,
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


def _reference_packing(g, target, budget, rng):
    """`sampled_c5_packing` as one `choice` call per 5-subset, each tested
    with `_induces_c5`."""
    gen = rng.gen
    chosen, masks = [], []
    for _ in range(budget):
        if len(chosen) >= target:
            break
        pick = tuple(sorted(int(v) for v in gen.choice(g.n, size=5, replace=False)))
        mask = sum(1 << v for v in pick)
        if _induces_c5(g.rows, mask) and all((mask & m).bit_count() <= 1 for m in masks):
            chosen.append(pick)
            masks.append(mask)
    return WitnessPacking("inducedC5", tuple(sorted(chosen)), g.n).verified_in(g)


def _state(gen):
    """The whole state of a Philox generator, as plain values."""
    s = gen.bit_generator.state
    return ([s["state"][w].tolist() for w in ("counter", "key")], s["buffer"].tolist(),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


def _pending(seed, path, half):
    """A fresh stream, or one whose generator holds a pending 32-bit half."""
    rng = Stream(seed, path)
    if half:
        rng.gen.integers(0, 1000, dtype=np.uint32)
    return rng


_HOSTS = {"gnp5": gnp(5, 0.5, Stream(1)), "C5": cycle_graph(5), "K6": complete_graph(6),
          "gnp7": gnp(7, 0.7, Stream(2)), "gnp12": gnp(12, 0.5, Stream(3)),
          "gnp40": gnp(40, 0.5, Stream(4)), "gnp120": gnp(120, 0.3, Stream(5))}


@pytest.mark.parametrize("host", list(_HOSTS))
def test_sampled_c5_packing_matches_the_draw_by_draw_loop(host):
    # budgets of 0 and 1, one too small to reach the target, and one that is
    # not; every packing and the whole generator state left behind must agree
    g = _HOSTS[host]
    for target in (0, 1, 3, 9):
        for budget in (0, 1, 25, 1500):
            for half in (0, 1):
                want, got = (_pending(59, (target, budget), half) for _ in range(2))
                packing = sampled_c5_packing(g, target, budget, got)
                assert packing == _reference_packing(g, target, budget, want), \
                    (host, target, budget, half)
                assert _state(got.gen) == _state(want.gen), (host, target, budget, half)


def test_sampled_c5_packing_refuses_small_hosts_as_choice_does():
    for n in range(5):
        with pytest.raises(ValueError) as live:
            Stream(61).gen.choice(n, 5, replace=False)
        with pytest.raises(ValueError, match=re.escape(str(live.value))):
            sampled_c5_packing(empty_graph(n), 1, 1, Stream(61))
        # no draw is made without a target or a budget, so nothing is refused
        assert len(sampled_c5_packing(empty_graph(n), 0, 5, Stream(61))) == 0
        assert len(sampled_c5_packing(empty_graph(n), 2, 0, Stream(61))) == 0


@pytest.mark.parametrize("n", [5, 6, 7, 120, (1 << 31) - 1, (1 << 31) + 5, 3 << 30, (1 << 32) - 7])
@pytest.mark.parametrize("half", [0, 1])
def test_choice5_chunks_are_the_live_choice_draws(n, half):
    # checked against this numpy's own `choice`, not a pinned table
    calls = 400
    live, decoded = (_pending(67, (n % 1000,), half).gen for _ in range(2))
    before = _state(decoded)
    chunks = list(ptlab.pipelines._choice5_chunks(decoded, n, calls))
    assert _state(decoded) == before  # the decoder reads a copy
    sets = np.concatenate([sets for sets, _ in chunks])
    ends = np.concatenate([ends for _, ends in chunks])
    made = 0
    for stop in (calls // 3, calls // 3 + 1, calls):  # an odd and an even count of halves
        want = [sorted(live.choice(n, 5, replace=False).tolist()) for _ in range(stop - made)]
        assert sets[made:stop].tolist() == want, stop
        made = stop
        moved = _pending(67, (n % 1000,), half).gen
        _skip_halves(moved, int(ends[stop - 1]))
        assert _state(moved) == _state(live), stop
    if n in ((1 << 31) + 5, 3 << 30):  # about half and a quarter of those halves are rejected
        assert ends[-1] > 9 * calls + calls // 10


def test_fault_injection_decoder_without_the_repeat_rule_is_caught(patch_source):
    # Floyd's draws repeat often on few vertices: the subsets come out wrong
    patch_source(ptlab.pipelines, "_choice5_chunks", "sets[repeat, c] = n - 5 + c", "pass")
    with pytest.raises(AssertionError):
        test_choice5_chunks_are_the_live_choice_draws(6, 0)


def test_fault_injection_decoder_without_the_shuffle_draws_is_caught(patch_source):
    # the next call would start 4 halves early
    patch_source(ptlab.pipelines, "_choice5_chunks", "range(n - 4, n + 1), 5, 4, 3, 2)",
                 "range(n - 4, n + 1),)")
    with pytest.raises(AssertionError):
        test_choice5_chunks_are_the_live_choice_draws(120, 0)


def test_fault_injection_decoder_without_rejection_is_caught(monkeypatch):
    real = ptlab.pipelines._lemire_values
    monkeypatch.setattr(ptlab.pipelines, "_lemire_values", lambda halves, ranges: (
        real(halves, ranges)[0], np.zeros(np.shape(halves), bool)))
    with pytest.raises(AssertionError):
        test_choice5_chunks_are_the_live_choice_draws(3 << 30, 0)


def test_match_gnp_control():
    g, packing = match_gnp_control(45, 4, Stream(37))
    assert len(packing) >= 4 and packing.verified


@pytest.mark.parametrize("n, target, seed, pinned", [
    (45, 4, 37, "d8c4a14ab395194d"),
    (60, 6, 5, "1cb16ab88e56613b"),
    (90, 12, 11, "61bef3ad88ced322"),
])
def test_match_gnp_control_pinned(digest, n, target, seed, pinned):
    # the control's rows and packing as the draw-by-draw sampler gave them
    g, packing = match_gnp_control(n, target, Stream(seed))
    assert digest((list(g.rows), packing.tuples)) == pinned


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
