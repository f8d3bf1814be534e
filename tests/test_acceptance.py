"""Acceptance suite: one test per criterion of `ptlab.verify.ACCEPTANCE`.

Run with `pytest tests/test_acceptance.py -v -s`. Each test runs its
criterion's check through `verify._check`, the runner `run_suite` uses,
prints the result's line and fails on a falsifying detail or on a run over
the criterion's wall-clock budget. The checks, their pinned streams, sizes
and budgets live in the table.
"""

import ptlab.verify as verify


def run_criterion(number: int) -> None:
    n, budget, label, check = verify.ACCEPTANCE[number - 1]
    [res] = verify._check(f"criterion {n}", [(label, check)])
    print(res.line())
    assert res.passed, res.detail
    assert res.seconds < budget, f"criterion {n} took {res.seconds:.1f}s, budget {budget}s"


def test_criterion_01_tau_nu_chain():
    run_criterion(1)


def test_criterion_02_rs_exactness():
    run_criterion(2)


def test_criterion_03_gadget_mechanism():
    run_criterion(3)


def test_criterion_04_poset_gadget():
    run_criterion(4)


def test_criterion_05_seinsche_equivalence():
    run_criterion(5)


def test_criterion_06_one_sidedness():
    run_criterion(6)


def test_criterion_07_binomial_consistency():
    run_criterion(7)


def test_criterion_08_tripartition_constant():
    run_criterion(8)


def test_criterion_09_bound_sanity():
    run_criterion(9)


def test_criterion_10_hardness_gap():
    run_criterion(10)


def test_criterion_11_edit_distance_cross_checks():
    run_criterion(11)
