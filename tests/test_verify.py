import argparse
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

import ptlab.oracles as oracles
import ptlab.pipelines as pipelines
import ptlab.recognizers as R
import ptlab.verify as verify
from ptlab.cli import build_parser
from ptlab.packing import WitnessPacking, triangle_packing
from ptlab.recognizers import RecognitionResult, is_comparability, is_perfect
from ptlab.rng import Stream
from ptlab.testers import _sample_masks
from ptlab.verify import ACCEPTANCE, SUITE_NAMES, SUITES, run_suite

# direct calls at small sizes, on the suites' own streams, of the checks no
# other test module calls; `ptlab verify-suite` runs them at full size
SMALL = {
    "counting_vs_naive": lambda: verify.counting_vs_naive(5),
    "complement_commutes": lambda: verify.complement_commutes(Stream(0, (1,)), 40),
    "triangle_incremental": lambda: verify.triangle_incremental(Stream(0, (1,)).child(20), 40),
    "construction_rejects": lambda: verify.construction_rejects(),
    "containment_chain": lambda: verify.containment_chain(Stream(0, (2,)).child(2), 200),
    "generators_in_property": lambda: verify.generators_in_property(Stream(0, (2,))),
    "witnesses_reverify": lambda: verify.witnesses_reverify(Stream(0, (2,)).child(6)),
    "edit_budget": lambda: verify.edit_budget(Stream(0, (3,)).child(2)),
    "far_graphs_have_p3": lambda: verify.far_graphs_have_p3(Stream(0, (3,)).child(4), 25),
    "packings_reverify": lambda: verify.packings_reverify(Stream(0, (4,))),
    "c5_packing_size": lambda: verify.c5_packing_size(),
    "tripartite_tau_bound": lambda: verify.tripartite_tau_bound(),
    "rs_exact_triangles": lambda: verify.rs_exact_triangles(8, 6),
    "incidental_c5_census": lambda: verify.incidental_c5_census(),
    "monotone_in_budget": lambda: verify.monotone_in_budget(Stream(0, (6,))),
    "deterministic_reports": lambda: verify.deterministic_reports(Stream(0, (6,))),
}

# the checks that `ACCEPTANCE`, run by tests/test_acceptance.py, and the
# other unit tests call
CALLED_ELSEWHERE = {
    "cograph_generator", "sampling_uniform", "seinsche_equivalence",
    "forcing_vs_exhaustive", "no_cut_implies_p4", "refinement_parts",
    "distance_equals_nu", "tau_nu_chain", "distance_dominates_tau", "retention_mean",
    "c5_gadget_rules_and_samples", "poset_gadget_samples", "poset_gadget_both_sides",
    "farness_below_distance", "one_sided", "budget_accounting", "binomial_consistency",
    "density_testers_binomial", "hardness_gap", "search_floors",
}


def _failed(results):
    return {r.name: r.detail for r in results if not r.passed}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_passes_at_small_sizes(name):
    assert SMALL[name]() is None


def test_table_holds_32_uniquely_labelled_checks_in_six_suites():
    assert SUITE_NAMES == ("graph-core", "recognizers", "decomposition", "packing",
                           "gadgets", "testers")
    assert [index for index, _ in SUITES.values()] == [1, 2, 3, 4, 5, 6]
    labels = [label for _, checks in SUITES.values() for label, _ in checks]
    assert len(labels) == 32 and len(set(labels)) == 32


def test_cli_suite_choices_follow_the_table():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["verify-suite"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == ("all",) + SUITE_NAMES


def test_acceptance_table_holds_11_uniquely_labelled_criteria_at_their_budgets():
    assert [number for number, _, _, _ in ACCEPTANCE] == list(range(1, 12))
    assert len({label for _, _, label, _ in ACCEPTANCE}) == 11
    assert [budget for _, budget, _, _ in ACCEPTANCE] == [120, 60, 180, 60, 60, 60, 120, 60,
                                                          300, 600, 300]


def test_every_table_entry_calls_a_directly_tested_check(monkeypatch):
    stubbed = SMALL.keys() | CALLED_ELSEWHERE
    called = []
    for name in stubbed:
        monkeypatch.setattr(verify, name, lambda *a, _name=name, **kw: called.append(_name))
    results = [res for name in SUITE_NAMES for res in run_suite(name)]
    assert len(results) == 32 and all(res.passed for res in results)
    assert len(called) == 32
    for number, _, _, check in ACCEPTANCE:
        # a row names only stubbed checks and Stream, so it keeps no logic of its own
        assert set(check.__code__.co_names) <= stubbed | {"Stream"}, number
        assert check() is None and len(called) == 32 + number, number
    assert set(called) == stubbed


def test_fault_injection_breaks_containment_chain(monkeypatch):
    def broken_comparability(g):
        res = is_comparability(g)
        if res.member and g.n >= 5:
            # lie about membership: claim a forbidden structure exists; the
            # exhaustive oracle stays honest
            return RecognitionResult(False, tuple(range(min(5, g.n))), "induced-path-4")
        return res

    monkeypatch.setattr(verify, "is_comparability", broken_comparability)
    detail = verify.containment_chain(Stream(0, (2,)).child(2), 300)
    assert detail and detail.startswith("cograph not comparability: draw")
    detail = verify.forcing_vs_exhaustive(Stream(0, (2,)).child(1), 0)
    assert detail and detail.startswith("rows=")


def test_fault_injection_breaks_distance_dominates_tau(monkeypatch):
    def over_reporting_packing(g, mode="exact", rng=None):
        p = triangle_packing(g, mode, rng)
        return WitnessPacking(p.kind, p.tuples + ((0, 1, 2),), g.n)

    monkeypatch.setattr(verify, "triangle_packing", over_reporting_packing)
    detail = verify.distance_dominates_tau(Stream(0, (4,)).child(4), 200)
    assert detail and "< tau" in detail


class _OneDraw:
    """Draw i of `stream` as the only draw of a one-draw check."""

    def __init__(self, stream, i):
        self.stream, self.i = stream, i

    def child(self, j):
        return self.stream.child(self.i + j)


@pytest.mark.parametrize("over_report", [False, True])
def test_distance_dominates_tau_gives_the_full_distance_verdict(monkeypatch, over_report):
    # per draw, the check fails exactly when the full distance, up to the
    # oracle's cap, lies below tau; with a packing that over-reports by one
    # triangle some draws fail, so both verdicts occur
    if over_report:
        def packing(g, mode="exact", rng=None):
            p = triangle_packing(g, mode, rng)
            return WitnessPacking(p.kind, p.tuples + ((0, 1, 2),), g.n)
        monkeypatch.setattr(verify, "triangle_packing", packing)
    stream = Stream(0, (4,)).child(4)
    verdicts = []
    for i in range(60):
        g = verify.gnp(7, 0.4, stream.child(i))
        tau = len(verify.triangle_packing(g, "exact"))
        d = verify.distance_to_property(g, R.is_triangle_free)
        full = not isinstance(d, verify.AboveCap) and d < tau
        verdicts.append(full)
        assert (verify.distance_dominates_tau(_OneDraw(stream, i), 1) is not None) == full, i
    assert any(verdicts) == over_report


def test_fault_injection_breaks_tau_nu_chain(monkeypatch):
    # drop one triangle from every packing of two or more: tau stays within
    # the chain often enough, but the dropped triangle survives the deletion
    def dropping_packing(g, mode="exact", rng=None):
        p = triangle_packing(g, mode, rng)
        return replace(p, tuples=p.tuples[1:]) if len(p) > 1 else p

    monkeypatch.setattr(verify, "triangle_packing", dropping_packing)
    detail = verify.tau_nu_chain(Stream(0, (4,)).child(1), 30)
    assert detail and "deleting the packing's edges leaves a triangle" in detail


def test_fault_injection_breaks_far_graphs_have_p3(monkeypatch):
    monkeypatch.setattr(verify, "count_induced_p3", lambda g: 0)
    detail = verify.far_graphs_have_p3(Stream(0, (3,)).child(4), 25)
    assert detail and "zero induced 4-paths" in detail


def test_fault_injection_breaks_gadget_mechanism(monkeypatch):
    # with every sample counted as holding a triangle, the mechanism check
    # has nothing to test and must say so instead of passing
    monkeypatch.setattr(pipelines, "_find_triangle", lambda rows, mask: (0, 1, 2))
    detail = verify.c5_gadget_rules_and_samples(Stream(0, (5,)).child(1), 5, 12, 20)
    assert detail and "no triangle-free sample" in detail


def test_fault_injection_gadget_samples_reading_the_v4_block(monkeypatch):
    # the shared sample generator with the inner portion read from the V4
    # block, two blocks below f's own top f.n indices
    def v4_block(f, gb, d, trials, rng):
        later = R._later_masks(gb.labeling)
        for mask in _sample_masks(gb.graph.n, d, rng, 0, trials):
            inner = (mask >> 2 * f.n) & ((1 << f.n) - 1)
            yield (mask, R._find_triangle(f.rows, inner) is None,
                   R._order_hit(gb.graph.rows, mask, later) is None)

    stream = Stream(0, (5,)).child(1)  # the gadgets suite's entry at seed 0
    assert verify.c5_gadget_rules_and_samples(stream, 5, 12, 1000) is None
    monkeypatch.setattr(verify, "_gadget_samples", v4_block)
    detail = verify.c5_gadget_rules_and_samples(stream, 5, 12, 1000)
    assert detail and detail.startswith("trial "), detail


def test_fault_injection_poset_gadget_triangle_free_side(monkeypatch):
    # a poset check that is honest on the rs(4) gadget's 24 vertices but
    # reports a non-poset on the 18-vertex triangle-free host's gadget
    monkeypatch.setattr(verify, "_poset_hit",
                        lambda rows, mask: (0, 1, 2) if len(rows) == 18 else R._poset_hit(rows, mask))
    detail = verify.poset_gadget_both_sides(Stream(1304), 4, 6, 8, 100)
    assert detail == "triangle-free host: trial 0: poset=False but triangle-free=True", detail


def test_fault_injection_search_floors_climb_missing_the_optimum(monkeypatch):
    # a climb whose record is the 5-cycle, five induced 4-paths where the bull has one
    def climb(n, beta, effort, rng):
        return verify.ExtremalRecord(n=5, graph=verify.cycle_graph(5), p3_count=5, beta=beta)

    monkeypatch.setattr(verify, "search_min_p3_density", climb)
    detail = verify.search_floors(Stream(1309))
    assert detail == "n=5 record density 1/125 misses the optimum 1/625", detail


def test_fault_injection_hardness_gap_without_a_gap(monkeypatch):
    # every host, planted or control, gets the same budget
    monkeypatch.setattr(verify, "min_budget_for_detection",
                        lambda g, *a, **kw: SimpleNamespace(budget=19, analytic_floor=10.5))
    detail = verify.hardness_gap(Stream(1310), 40, 5, 300)
    assert detail == "seed 0: rs budget 19 not above the control's 19", detail


@pytest.mark.parametrize("beta, fewest", [(Fraction(1, 5), 1), (Fraction(1, 4), 5),
                                          (Fraction(1, 3), None)])
def test_fewest_p3_without_beta_cut_at_n5(beta, fewest):
    # among 5-vertex graphs with no beta-cut the bull has the fewest induced
    # 4-paths at beta = 1/5; none qualifies at beta = 1/3
    assert verify._fewest_p3_without_beta_cut(5, beta) == fewest


@pytest.mark.parametrize("n", range(6))
def test_all_graphs_yields_each_labeled_graph_once_in_pair_order(n):
    pairs = list(combinations(range(n), 2))
    graphs = list(verify.all_graphs(n))
    assert len(graphs) == 2 ** len(pairs) == len(set(graphs))
    for mask, g in enumerate(graphs):
        assert g.n == n and list(g.edges()) == [p for i, p in enumerate(pairs) if mask >> i & 1]


def _hole_off_by_a_vertex(g):
    """A non-perfect answer's witness with its last vertex swapped for the
    lowest vertex outside it, which no longer induces a chordless odd cycle."""
    res = is_perfect(g)
    if res.member or len(res.witness) == g.n:
        return res
    outside = min(set(range(g.n)) - set(res.witness))
    return RecognitionResult(False, res.witness[:-1] + (outside,), res.label)


def _comparability_one_short(g):
    """A minimal non-orientable witness less one vertex, which is orientable."""
    res = is_comparability(g)
    return res if res.member else RecognitionResult(False, res.witness[1:], res.label)


@pytest.mark.parametrize("name, fake, shows", [
    ("is_perfect", _hole_off_by_a_vertex, "label odd-"),
    ("is_comparability", _comparability_one_short, "comparability witness not non-orientable"),
])
def test_fault_injection_witness_not_the_structure_it_claims(monkeypatch, name, fake, shows):
    monkeypatch.setattr(verify, name, fake)
    detail = verify.witnesses_reverify(Stream(0, (2,)).child(6))  # the suite's stream at seed 0
    assert detail and shows in detail, detail


def test_fault_injection_orientation_oracle_always_true(monkeypatch):
    monkeypatch.setattr(oracles, "transitively_orientable", lambda rows, vs: True)
    detail = verify.forcing_vs_exhaustive(Stream(0, (2,)).child(1), 0)
    assert detail and detail.startswith("rows=") and detail.count(",") == 4, detail


def test_fault_injection_cograph_oracle_without_complement_test(patch_source):
    # without the complement split only edgeless graphs are cographs
    patch_source(oracles, "cograph", "(rows, complement(rows, vs))", "(rows,)")
    detail = verify.seinsche_equivalence(5)
    assert detail and detail.startswith("rows="), detail


def test_fault_injection_pattern_oracle_with_claw_degrees(monkeypatch):
    # the oracle's 4-vertex path degrees swapped for the claw's: the census
    # counts claws, so the induced-4-path counter must disagree with it
    verify._p4_census.cache_clear()
    monkeypatch.setitem(oracles.PATTERN_DEGREES, 4, [1, 1, 1, 3])
    try:
        detail = verify.counting_vs_naive(5)
    finally:
        verify._p4_census.cache_clear()  # drop the broken census
    assert detail and detail.startswith("p3 mismatch"), detail


def test_check_lines_carry_durations():
    ok, bad, crash = verify._check("s", [("ok", lambda: None), ("bad", lambda: "why"),
                                         ("crash", lambda: 1 / 0)])
    assert ok.line() == f"PASS  s: ok ({ok.seconds:.1f}s)"
    assert bad.line() == f"FAIL  s: bad  [why] ({bad.seconds:.1f}s)"
    assert not crash.passed and crash.detail.startswith("ZeroDivisionError")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")
