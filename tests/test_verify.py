from ptlab.packing import WitnessPacking, triangle_packing
from ptlab.recognizers import RecognitionResult, is_comparability
from ptlab.verify import SUITE_NAMES, run_suite


def test_scaled_suites_pass():
    scaled = {
        "graph-core": dict(exhaustive_n=5, draws=40),
        "recognizers": dict(chain_draws=200, forcing_draws=150),
        "decomposition": dict(nu_draws=60, far_draws=25),
        "packing": dict(chain_draws=30),
        "gadgets": dict(sample_trials=120, rs_max_k=8),
        "testers": dict(one_sided_trials=800, consistency_trials=1500),
    }
    assert set(scaled) == set(SUITE_NAMES)
    for name, kwargs in scaled.items():
        results = run_suite(name, **kwargs)
        assert results, name
        for res in results:
            assert res.passed, res.line()


def test_fault_injection_breaks_containment_chain():
    def broken_comparability(g, mode="forcing"):
        res = is_comparability(g, mode)
        if res.member and g.n >= 5:
            # lie about membership: claim a forbidden structure exists
            return RecognitionResult(False, tuple(range(min(5, g.n))), "induced-path-4")
        return res

    results = run_suite("recognizers", chain_draws=300, forcing_draws=50,
                        comparability_fn=broken_comparability)
    failed = [r for r in results if not r.passed]
    assert failed, "broken recognizer must trip at least one check"
    assert any("chain" in r.name or "forcing" in r.name for r in failed)
    # the failure carries a falsifying instance
    assert any(r.detail for r in failed)


def test_fault_injection_breaks_distance_dominates_tau():
    def over_reporting_packing(g, mode="exact", rng=None):
        p = triangle_packing(g, mode, rng)
        return WitnessPacking(p.kind, p.tuples + ((0, 1, 2),), g.n)

    results = run_suite("packing", chain_draws=5, tau_fn=over_reporting_packing)
    failed = {r.name: r.detail for r in results if not r.passed}
    detail = failed.get("edit distance to triangle-freeness is at least tau")
    assert detail and "< tau" in detail


def test_fault_injection_breaks_far_graphs_have_p3(monkeypatch):
    import ptlab.verify as verify
    monkeypatch.setattr(verify, "count_induced_p3", lambda g: 0)
    results = run_suite("decomposition", nu_draws=2, far_draws=25)
    failed = {r.name: r.detail for r in results if not r.passed}
    detail = failed.get("far-from-cograph graphs have induced 4-paths "
                        "and a refinement part of at least eps*n vertices")
    assert detail and "zero induced 4-paths" in detail


def test_unknown_suite_rejected():
    import pytest
    with pytest.raises(ValueError):
        run_suite("nonsense")
