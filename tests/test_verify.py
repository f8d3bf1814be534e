from dataclasses import replace

import pytest

import ptlab.verify as verify
from ptlab.packing import WitnessPacking, triangle_packing
from ptlab.recognizers import RecognitionResult, is_comparability
from ptlab.verify import SUITE_NAMES, run_suite


def _failed(results):
    return {r.name: r.detail for r in results if not r.passed}


def test_scaled_suites_pass():
    scaled = {
        "graph-core": (dict(exhaustive_n=5, draws=40), 6),
        "recognizers": (dict(chain_draws=200, forcing_draws=150), 5),
        "decomposition": (dict(nu_draws=60, far_draws=25), 5),
        "packing": (dict(chain_draws=30), 6),
        "gadgets": (dict(sample_trials=120, rs_max_k=8), 5),
        "testers": (dict(one_sided_trials=800, consistency_trials=1500), 5),
    }
    assert set(scaled) == set(SUITE_NAMES)
    for name, (kwargs, count) in scaled.items():
        results = run_suite(name, **kwargs)
        assert len(results) == count, name
        for res in results:
            assert res.passed, res.line()


def test_fault_injection_breaks_containment_chain(monkeypatch):
    def broken_comparability(g, mode="forcing"):
        res = is_comparability(g, mode)
        if res.member and g.n >= 5 and mode == "forcing":
            # lie about membership: claim a forbidden structure exists; the
            # exhaustive mode stays honest as the oracle
            return RecognitionResult(False, tuple(range(min(5, g.n))), "induced-path-4")
        return res

    monkeypatch.setattr(verify, "is_comparability", broken_comparability)
    results = run_suite("recognizers", chain_draws=300, forcing_draws=50)
    failed = [r for r in results if not r.passed]
    assert failed, "broken recognizer must trip at least one check"
    assert any("chain" in r.name or "forcing" in r.name for r in failed)
    # the failure carries a falsifying instance
    assert any(r.detail for r in failed)


def test_fault_injection_breaks_distance_dominates_tau(monkeypatch):
    def over_reporting_packing(g, mode="exact", rng=None):
        p = triangle_packing(g, mode, rng)
        return WitnessPacking(p.kind, p.tuples + ((0, 1, 2),), g.n)

    monkeypatch.setattr(verify, "triangle_packing", over_reporting_packing)
    detail = _failed(run_suite("packing", chain_draws=5)).get(
        "edit distance to triangle-freeness is at least tau")
    assert detail and "< tau" in detail


def test_fault_injection_breaks_tau_nu_chain(monkeypatch):
    # drop one triangle from every packing of two or more: tau stays within
    # the chain often enough, but the dropped triangle survives the deletion
    def dropping_packing(g, mode="exact", rng=None):
        p = triangle_packing(g, mode, rng)
        return replace(p, tuples=p.tuples[1:]) if len(p) > 1 else p

    monkeypatch.setattr(verify, "triangle_packing", dropping_packing)
    detail = _failed(run_suite("packing", chain_draws=30)).get(
        "tau <= nu <= 3*tau and a maximum packing is maximal over 30 draws (n <= 12)")
    assert detail and "deleting the packing's edges leaves a triangle" in detail


def test_fault_injection_breaks_far_graphs_have_p3(monkeypatch):
    monkeypatch.setattr(verify, "count_induced_p3", lambda g: 0)
    results = run_suite("decomposition", nu_draws=2, far_draws=25)
    detail = _failed(results).get("far-from-cograph graphs have induced 4-paths "
                                  "and a refinement part of at least eps*n vertices")
    assert detail and "zero induced 4-paths" in detail


def test_fault_injection_breaks_gadget_mechanism(monkeypatch):
    # with every sample counted as holding a triangle, the mechanism check
    # has nothing to test and must say so instead of passing
    monkeypatch.setattr(verify, "count_triangles", lambda g: 1)
    results = run_suite("gadgets", sample_trials=20, rs_max_k=2)
    detail = _failed(results).get(
        "five-part gadget: triangle-free samples are comparability graphs")
    assert detail and "no triangle-free sample" in detail


def test_check_lines_carry_durations():
    ok, bad, crash = verify._check("s", [("ok", lambda: None), ("bad", lambda: "why"),
                                         ("crash", lambda: 1 / 0)])
    assert ok.line() == f"PASS  s: ok ({ok.seconds:.1f}s)"
    assert bad.line() == f"FAIL  s: bad  [why] ({bad.seconds:.1f}s)"
    assert not crash.passed and crash.detail.startswith("ZeroDivisionError")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")
