import concurrent.futures
import dataclasses
import math
import os
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import ptlab.recognizers as R
import ptlab.testers as T
from ptlab.gadgets import ap3_free_set, build_c5_gadget, rs_graph
from ptlab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnp,
    path_graph,
    random_cograph,
)
from ptlab.rng import Stream, _trial_streams
from ptlab.testers import (
    _BLOCK,
    TesterConfig,
    _distinct_tuples,
    estimate_detection,
    induced_p3_tester,
    min_budget_for_detection,
    run_tester,
    theoretical_sample_counts,
    triangle_tester,
    universal_tester,
    wilson95,
)
from ptlab.verify import _induces, binomial_consistency, budget_accounting


def test_one_sidedness():
    rng = Stream(101)
    cg = random_cograph(14, rng.child(0))
    trifree = cycle_graph(9)
    for i in range(200):
        assert triangle_tester(trifree, 5, rng.child(1, i)).accepted
        assert induced_p3_tester(cg, 5, rng.child(2, i)).accepted
        assert universal_tester(cg, 7, "cograph", rng.child(3, i)).accepted


def test_forced_rejections():
    rng = Stream(103)
    v = universal_tester(path_graph(4), 4, "cograph", rng.child(0))
    assert not v.accepted and v.witness == (0, 1, 2, 3)
    v = universal_tester(cycle_graph(5), 5, "cograph", rng.child(1))
    assert not v.accepted
    assert not triangle_tester(complete_graph(9), 1, rng.child(2)).accepted
    assert not induced_p3_tester(path_graph(4), 1, rng.child(3)).accepted
    # every quadruple of the 5-cycle induces a 4-path
    for i in range(100):
        assert not induced_p3_tester(cycle_graph(5), 1, rng.child(4, i)).accepted


def test_density_witnesses_reverify():
    rng = Stream(109)
    for j, p in enumerate((0.15, 0.5, 0.85)):
        g = gnp(30, p, rng.child(j))
        triangles = paths = 0
        for i in range(300):
            v = triangle_tester(g, 3, rng.child(j, 1, i))
            if not v.accepted:
                triangles += 1
                a, b, c = v.witness
                assert a < b < c and g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
            v = induced_p3_tester(g, 3, rng.child(j, 2, i))
            if not v.accepted:
                paths += 1
                assert list(v.witness) == sorted(set(v.witness))
                assert _induces(g.rows, v.witness), (g.rows, v.witness)
        assert 0 < triangles < 300 and 0 < paths < 300, (p, triangles, paths)


@pytest.mark.parametrize("n, k, t", [(4, 4, 600), (5, 3, 6000), (30, 4, 3 * _BLOCK + 7)])
def test_drawn_tuples_distinct_in_range_uniform(n, k, t):
    gen = Stream(113, (n, k)).gen
    blocks = []

    class Spy:
        def integers(self, lo, hi, size):
            blocks.append(size)
            return gen.integers(lo, hi, size=size)

    tuples = list(_distinct_tuples(Spy(), n, k, t))
    assert len(tuples) == t
    # one draw per block of at most _BLOCK tuples, the first one full
    assert blocks[0] == (min(t, _BLOCK), k)
    assert all(0 < b <= _BLOCK and width == k for b, width in blocks)
    assert len(blocks) >= math.ceil(t / _BLOCK)
    assert all(len(set(tup)) == k and all(0 <= v < n for v in tup) for tup in tuples)
    counts = Counter(map(tuple, tuples))
    ordered = math.perm(n, k)
    if t >= 20 * ordered:  # every ordered tuple within 5 SE of its share
        assert len(counts) == ordered
        mean = t / ordered
        se = math.sqrt(mean * (1 - 1 / ordered))
        assert all(abs(c - mean) <= 5 * se for c in counts.values()), counts


def _one_draw_per_tuple(g, k, t, rng):
    """Reference density tester: one draw per tuple, a repeat redrawn at
    once, each tuple checked on its induced subgraph."""
    gen = rng.gen
    for _ in range(t):
        while True:
            tup = tuple(int(v) for v in gen.integers(0, g.n, size=k))
            if len(set(tup)) == k:
                break
        if _induces(g.rows, tup):
            return tuple(sorted(tup))
    return None


def test_density_verdicts_match_one_draw_per_tuple():
    # bounded draws take the generator's words in order whatever the block
    # shape, so blocked trials test the same tuples in the same order
    rng = Stream(137)
    hosts = [cycle_graph(5), complete_graph(4), gnp(7, 0.5, rng.child(0)),
             gnp(40, 0.1, rng.child(1))]
    for j, g in enumerate(hosts):
        for t in (1, 7, _BLOCK + 30):
            for i in range(15):
                s = rng.child(2, j, t, i)
                assert triangle_tester(g, t, s.child(0)).witness == \
                    _one_draw_per_tuple(g, 3, t, s.child(0))
                assert induced_p3_tester(g, t, s.child(1)).witness == \
                    _one_draw_per_tuple(g, 4, t, s.child(1))


def _per_trial_rejections(g, config, trials, rng):
    """The reference count: every trial run by `run_tester` on its own
    trial stream, as the batch's trial layout defines it."""
    return sum(not run_tester(g, config, s).accepted for s in _trial_streams(rng, 0, trials))


DENSITY_HOSTS = {
    "K3": lambda: complete_graph(3),
    "C4": lambda: cycle_graph(4),
    "P4": lambda: path_graph(4),
    "C5": lambda: cycle_graph(5),
    "K9": lambda: complete_graph(9),
    "gnp40": lambda: gnp(40, 0.1, Stream(151)),
    "rs12": lambda: rs_graph(12, ap3_free_set(12, "exact")).graph,
}


@pytest.mark.parametrize("host", sorted(DENSITY_HOSTS))
def test_batched_density_counts_match_per_trial_reference(host, monkeypatch):
    g = DENSITY_HOSTS[host]()
    kinds = [kind for kind, k in (("triple-density", 3), ("quadruple-density", 4)) if g.n >= k]
    fallbacks = []
    monkeypatch.setattr(T, "run_tester", lambda *args: fallbacks.append(1) or run_tester(*args))
    for j, kind in enumerate(kinds):
        for t in (1, 7, 300):
            config = TesterConfig(kind, t=t)
            rng = Stream(157, (j, t))
            trials = {1: 2000, 7: 300, 300: 60 if g.n == 4 else 200}[t]
            expected = _per_trial_rejections(g, config, trials, rng)
            assert estimate_detection(g, config, trials, rng).rejections == expected, \
                (host, kind, t)
            if t == 7:
                rep = estimate_detection(g, config, trials, rng, threads=2)
                assert rep.rejections == expected, (host, kind, t, "threads=2")
    if host in ("K3", "C4", "P4"):  # at n = k most tuples repeat a vertex: some trials run alone
        assert fallbacks


def test_batch_spanning_several_chunks_matches_reference(monkeypatch):
    g = rs_graph(12, ap3_free_set(12, "exact")).graph
    real = T._lemire_values
    chunks = []
    monkeypatch.setattr(T, "_lemire_values", lambda words, n: chunks.append(len(words)) or
                        real(words, n))
    for kind in ("triple-density", "quadruple-density"):
        config = TesterConfig(kind, t=7)
        chunks.clear()
        rep = estimate_detection(g, config, 3000, Stream(163))
        assert len(chunks) > 1 and sum(chunks) == 3000
        assert rep.rejections == _per_trial_rejections(g, config, 3000, Stream(163))


def test_trial_with_a_rejected_half_runs_alone(monkeypatch):
    # small hosts all but never see a rejected half, so flag the first half
    # of every third trial as rejected and change its value: the batch must
    # send those trials to `run_tester` and still count exactly
    real = T._lemire_values

    def flag_first_halves(words, n):
        values, rejected = real(words, n)
        values[::3, 0] = (values[::3, 0] + 1) % n
        rejected[::3, 0] = True
        return values, rejected

    monkeypatch.setattr(T, "_lemire_values", flag_first_halves)
    g = gnp(12, 0.5, Stream(173))
    fallbacks = []
    monkeypatch.setattr(T, "run_tester", lambda *args: fallbacks.append(1) or run_tester(*args))
    for kind in ("triple-density", "quadruple-density"):
        config = TesterConfig(kind, t=3)
        fallbacks.clear()
        rep = estimate_detection(g, config, 90, Stream(179))
        assert rep.rejections == _per_trial_rejections(g, config, 90, Stream(179))
        assert len(fallbacks) >= 30


@pytest.mark.parametrize("n", [3, 5, 72, 1000, 3 << 30, (1 << 31) + 1])
def test_lemire_values_are_the_integers_draws(n):
    # several consecutive calls, odd sizes among them: a call that ends on
    # a word's low half leaves its high half to the next call
    sizes = (1, 2, 7, 64, 5, 33)
    gen = Stream(167, (n,)).gen
    expected = np.concatenate([gen.integers(0, n, size=c) for c in sizes])
    words = Stream(167, (n,)).gen.bit_generator.random_raw(2 * len(expected))
    values, rejected = T._lemire_values(words.reshape(4, -1), n)
    assert values.shape == rejected.shape == (4, len(expected))
    kept = values.ravel()[~rejected.ravel()]
    assert kept[:len(expected)].tolist() == expected.tolist()
    # about a quarter of all halves are rejected at 3 * 2**30, about half at
    # 2**31 + 1, and (almost) none at small n
    share = (1 << 32) % n / (1 << 32)
    assert abs(rejected.mean() - share) < 0.15


def test_fault_injection_lemire_without_rejection_is_caught(monkeypatch):
    real = T._lemire_values
    monkeypatch.setattr(T, "_lemire_values",
                        lambda words, n: (real(words, n)[0], np.zeros(2 * np.size(words), bool)
                                          .reshape(*np.shape(words)[:-1], -1)))
    with pytest.raises(AssertionError):
        test_lemire_values_are_the_integers_draws(3 << 30)


def test_fault_injection_kernel_counting_one_tuple_too_many_is_caught(monkeypatch):
    real = T._density_rejections
    monkeypatch.setattr(T, "_density_rejections", lambda g, config, *rest:
                        real(g, dataclasses.replace(config, t=config.t + 1), *rest))
    with pytest.raises(AssertionError):
        test_batched_density_counts_match_per_trial_reference("gnp40", monkeypatch)


@pytest.mark.parametrize("bad", [True, 2.5, 3.0, "3"])
def test_budgets_and_trials_must_be_integers(bad):
    with pytest.raises(TypeError):
        TesterConfig("triple-density", t=bad)
    with pytest.raises(TypeError):
        TesterConfig("universal", d=bad, property_name="cograph")
    with pytest.raises(TypeError):
        estimate_detection(cycle_graph(5), TesterConfig("triple-density", t=1), bad, Stream(1))


def test_budgets_and_trials_take_numpy_integers():
    g = cycle_graph(5)
    config = TesterConfig("quadruple-density", t=np.int64(2))
    assert type(config.t) is int and config == TesterConfig("quadruple-density", t=2)
    universal = TesterConfig("universal", d=np.int32(4), property_name="cograph")
    assert type(universal.d) is int and universal.queries_per_trial() == 6
    rep = estimate_detection(g, config, np.int64(40), Stream(1))
    assert type(rep.trials) is int and rep == estimate_detection(g, config, 40, Stream(1))


def test_c5_and_k3_reject_every_trial():
    c5 = estimate_detection(cycle_graph(5), TesterConfig("quadruple-density", t=1),
                            500, Stream(127, (0,)))
    k3 = estimate_detection(complete_graph(3), TesterConfig("triple-density", t=1),
                            500, Stream(127, (1,)))
    assert c5.rejections == c5.trials == 500
    assert k3.rejections == k3.trials == 500


def test_many_blocks_on_members_always_accept():
    t = 5000  # about 20 blocks per trial
    assert t > 10 * _BLOCK
    bipartite = Graph.from_edges(20, [(u, v) for u in range(10) for v in range(10, 20)
                                      if (u + v) % 3])
    rep = estimate_detection(bipartite, TesterConfig("triple-density", t=t), 20,
                             Stream(131, (0,)))
    assert rep.rejections == 0
    cg = random_cograph(20, Stream(131, (1,)))
    rep = estimate_detection(cg, TesterConfig("quadruple-density", t=t), 20,
                             Stream(131, (2,)))
    assert rep.rejections == 0


def test_tester_guards():
    rng = Stream(107)
    with pytest.raises(ValueError):
        universal_tester(cycle_graph(5), 6, "cograph", rng)
    with pytest.raises(ValueError):
        triangle_tester(complete_graph(2), 1, rng)
    with pytest.raises(ValueError):
        induced_p3_tester(complete_graph(3), 1, rng)
    with pytest.raises(ValueError):
        TesterConfig("universal", d=3)  # missing property
    with pytest.raises(ValueError):
        TesterConfig("triple-density")
    with pytest.raises(ValueError):
        TesterConfig("sextuple")


def test_query_accounting():
    assert budget_accounting() is None


def test_wilson_interval():
    lo, hi = wilson95(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0.02 < hi < 0.05
    lo, hi = wilson95(100, 100)
    assert hi == 1.0 and 0.95 < lo < 0.98
    lo, hi = wilson95(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson95(0, 0)


@pytest.mark.parametrize("n, k, t", [(5, 4, 1), (4, 4, 3), (9, 3, 4), (30, 4, 40)])
def test_density_blocks_sized_by_share_of_distinct_tuples(n, k, t):
    # a block is expected to hold the distinct tuples still needed
    gen = Stream(139, (n, k, t)).gen
    blocks = []

    class Spy:
        def integers(self, lo, hi, size):
            blocks.append(size)
            return gen.integers(lo, hi, size=size)

    assert len(list(_distinct_tuples(Spy(), n, k, t))) == t
    assert blocks[0] == (min(_BLOCK, math.ceil(t * n ** k / math.perm(n, k))), k)


def test_reports_identical_for_one_two_and_three_threads():
    rng = Stream(149)
    g = gnp(30, 0.3, rng.child(0))
    configs = [TesterConfig("universal", d=9, property_name="triangle-free"),
               TesterConfig("universal", d=12, property_name="perfect"),
               TesterConfig("triple-density", t=5),
               TesterConfig("quadruple-density", t=3)]
    for j, cfg in enumerate(configs):
        reps = [estimate_detection(g, cfg, 120, rng.child(1, j), threads=th)
                for th in (1, 2, 3)]
        assert reps[0] == reps[1] == reps[2]
        assert 0 < reps[0].rejections < 120, (cfg, reps[0])
    for kind in ("universal", "triple-density"):
        curves = [min_budget_for_detection(g, kind, rng.child(2), trials=60,
                                           property_name="triangle-free", cap=16,
                                           threads=th)
                  for th in (1, 2, 3)]
        assert curves[0] == curves[1] == curves[2]


class SerialPool:
    """Stands in for ProcessPoolExecutor: records its worker count and the
    chunks it is given, and maps them in this process."""

    seen: dict = {}

    def __init__(self, max_workers):
        SerialPool.seen["max_workers"] = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        SerialPool.seen["chunks"] = len(jobs)
        return map(fn, jobs)


@pytest.mark.parametrize("cpus, threads, workers", [(2, 8, 2), (16, 3, 3), (None, 5, 1)])
def test_pool_starts_at_most_one_worker_per_cpu(monkeypatch, cpus, threads, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    SerialPool.seen.clear()
    g = gnp(12, 0.5, Stream(3))
    cfg = TesterConfig("triple-density", t=3)
    rep = estimate_detection(g, cfg, 64, Stream(5), threads=threads)
    # the trials still go out in `threads` chunks, and the report is unchanged
    assert SerialPool.seen == {"max_workers": workers, "chunks": threads}
    assert rep == estimate_detection(g, cfg, 64, Stream(5))


def test_estimate_detection_deterministic_and_thread_invariant():
    g = gnp(25, 0.3, Stream(5).child(0))
    cfg = TesterConfig("triple-density", t=4)
    a = estimate_detection(g, cfg, 300, Stream(5, (1,)))
    b = estimate_detection(g, cfg, 300, Stream(5, (1,)))
    c = estimate_detection(g, cfg, 300, Stream(5, (1,)), threads=3)
    assert a == b == c
    assert a.wilson_lo <= a.rejection_rate <= a.wilson_hi


def test_one_sided_estimates_are_zero():
    g = cycle_graph(12)
    rep = estimate_detection(g, TesterConfig("triple-density", t=10), 1000, Stream(7))
    assert rep.rejections == 0 and rep.rejection_rate == 0.0


def test_complete_graph_universal_always_rejects():
    rep = estimate_detection(
        complete_graph(6), TesterConfig("universal", d=3, property_name="triangle-free"),
        500, Stream(9))
    assert rep.rejection_rate == 1.0


def test_binomial_consistency_small():
    g = rs_graph(12, ap3_free_set(12, "exact")).graph
    detail = binomial_consistency(g, "triple-density", 3000, Stream(11))
    assert detail is None, detail


def test_min_budget_examples():
    res = min_budget_for_detection(complete_graph(12), "triple-density",
                                   Stream(13), trials=200)
    assert res.budget == 1 and not res.capped
    # delta = C(12, 3) / 12^3 = 220 / 1728
    assert res.analytic_floor == (3 * (220 / 12 ** 3)) ** (-1 / 3)
    assert res.curve[0][0] == 1 and res.curve[0][1] == 1.0


def test_triangle_floor_follows_the_property_not_its_name():
    # induced-h-free:complete:3 is triangle-freeness under another name
    floors = [min_budget_for_detection(complete_graph(10), "universal", Stream(1), trials=50,
                                       property_name=name).analytic_floor
              for name in ("triangle-free", "induced-h-free:complete:3",
                           "induced-h-free:cycle:3", "induced-h-free:path:3")]
    assert floors[0] == floors[1] == floors[2] == (3 * (120 / 10 ** 3)) ** (-1 / 3)
    assert floors[3] is None


def test_min_budget_capped():
    g = cycle_graph(30)  # triangle-free: never detected
    res = min_budget_for_detection(g, "triple-density", Stream(17), trials=50, cap=8)
    assert res.capped and res.budget is None
    assert all(rate == 0.0 for _, rate, _, _ in res.curve)
    assert res.analytic_floor is None  # no triangles, so no floor
    # the quadruple tester looks for induced 4-paths: no triangle floor either
    res = min_budget_for_detection(complete_graph(6), "quadruple-density", Stream(17),
                                   trials=20, cap=2)
    assert res.capped and res.analytic_floor is None


def test_min_budget_meets_target_at_cap():
    # the target is first met at d = n = cap, which is not a power of two:
    # an 11-hole plus an isolated vertex, so a sample of 11 holds the hole
    # with probability 1/12 and the whole vertex set always does
    g = Graph.from_edges(12, [(v, (v + 1) % 11) for v in range(11)])
    res = min_budget_for_detection(g, "universal", Stream(5), trials=200,
                                   property_name="perfect", cap=12)
    assert res.budget == 12 and not res.capped
    lows = {b: lo for b, _, lo, _ in res.curve}
    assert lows[12] >= res.target > lows[11]


def test_min_budget_universal():
    g = complete_graph(40)
    res = min_budget_for_detection(g, "universal", Stream(19), trials=100,
                                   property_name="triangle-free")
    assert res.budget == 3  # the least d whose samples contain a triangle
    assert res.analytic_floor == (3 * (9880 / 40 ** 3)) ** (-1 / 3)  # C(40, 3) triangles


def test_theoretical_sample_counts():
    out = theoretical_sample_counts(1)
    assert out["p3_t"] == 2 * 100 ** 16
    assert out["exceeds_desk_budget"]
    assert "removal-lemma" in out["triangle_note"]
    assert theoretical_sample_counts(Fraction(1, 2))["p3_t"] == 2 * 200 ** 16
    with pytest.raises(ValueError):
        theoretical_sample_counts(2)
    with pytest.raises(ValueError):
        theoretical_sample_counts(0)


# rejections of 300 universal trials on Stream(1701, (j, d)), j the property's
# index in PINNED_PROPERTIES; computed when the universal tester still
# decided every sample on its induced subgraph
PINNED_PROPERTIES = ["triangle-free", "cograph", "comparability", "perfect",
                     "induced-c5-free", "induced-p3-free", "induced-h-free:cycle:4"]
PINNED_REJECTIONS = {
    "rs": {10: [146, 209, 36, 18, 12, 214, 44], 14: [259, 296, 146, 78, 78, 288, 162]},
    "gadget": {10: [1, 46, 2, 4, 2, 43, 282], 14: [2, 72, 5, 11, 3, 93, 300]},
}


def test_universal_reports_pinned():
    rb = rs_graph(5, ap3_free_set(5, "exact"))
    r3 = rs_graph(3, ap3_free_set(3, "exact"))
    gb = build_c5_gadget(r3.graph, r3.labeling.relabel(("V2", "V3", "V5")), r3.certificate)
    hosts = {"rs": rb.graph, "gadget": gb.graph}
    for host, by_d in PINNED_REJECTIONS.items():
        for d, expected in by_d.items():
            for j, prop in enumerate(PINNED_PROPERTIES):
                rep = estimate_detection(
                    hosts[host], TesterConfig("universal", d=d, property_name=prop), 300,
                    Stream(1701, (j, d)))
                assert rep.rejections == expected[j], (host, d, prop)


def test_universal_batch_resolves_its_property_once(monkeypatch):
    tokens = []
    real = R.named_graph
    monkeypatch.setattr(R, "named_graph", lambda token: tokens.append(token) or real(token))
    R._resolve.cache_clear()
    config = TesterConfig("universal", d=6, property_name="induced-h-free:cycle:4")
    rep = estimate_detection(gnp(20, 0.5, Stream(3)), config, 200, Stream(4))
    assert rep.rejections > 0
    assert tokens == ["cycle:4"]
