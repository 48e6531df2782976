"""The verification harness itself: green on honest code, red on sabotage."""

from __future__ import annotations

import pytest

import flowpoly.assigning as asg
from flowpoly.abelian import parse_group
from flowpoly.errors import BudgetError, ConsistencyError
from flowpoly.flows import enumerate_zero_sum
from flowpoly.graphs import MultiGraph
from flowpoly.harness import (
    SUITE_NAMES,
    default_groups,
    run_classical_checks,
    run_verification,
)
from flowpoly.polynomial import IntPolynomial

from conftest import k4, single_edge, single_loop, triangle


def test_small_run_passes_every_suite():
    graphs = [triangle(), single_edge(), single_loop(), k4()]
    report = run_verification(graphs, default_groups(), seed=3)
    assert report.passed
    assert set(report.suites) == set(SUITE_NAMES)
    assert report.graph_count == 4
    for suite in report.suites.values():
        assert suite.failures == 0
        assert suite.first_failure is None


def test_classical_checks_pass():
    suite = run_classical_checks()
    assert suite.ok
    assert suite.checked == 11


def test_harness_detects_wrong_nbb(monkeypatch):
    import flowpoly.assigning as asg
    import flowpoly.harness as harness

    real = asg.poly_nbb

    def corrupted(g, b, order=None, **kwargs):
        coeffs = real(g, b, order, **kwargs).coefficients or (0,)
        return IntPolynomial((coeffs[0] + 1,) + coeffs[1:])

    monkeypatch.setattr(harness.asg, "poly_nbb", corrupted)
    report = run_verification([triangle()], (parse_group("Z2"),), seed=0)
    assert not report.passed
    assert report["algorithm_equivalence"].failures > 0
    assert report["algorithm_equivalence"].first_failure is not None


def _shift_brute_force_counts(monkeypatch) -> None:
    """Make the harness read every brute-force count one too high."""
    import flowpoly.harness as harness

    real = harness.nz_flow_index_counts

    class Shifted(dict):
        def get(self, key, default=0):
            return super().get(key, default) + 1

    def corrupted(g, spec, **kwargs):
        return Shifted(real(g, spec, **kwargs))

    monkeypatch.setattr(harness, "nz_flow_index_counts", corrupted)


def test_harness_detects_wrong_counts(monkeypatch):
    _shift_brute_force_counts(monkeypatch)
    report = run_verification([single_loop()], (parse_group("Z3"),), seed=0)
    assert not report.passed
    assert report["oracle_equivalence"].failures > 0


def test_decomposition_suite_sees_wrong_counts(monkeypatch):
    # The decomposition sums come from the oracle loop's own brute-force
    # counts, so a shifted count must fail that suite too.
    _shift_brute_force_counts(monkeypatch)
    report = run_verification([triangle(), single_edge()], default_groups(), seed=0)
    assert report["decomposition"].checked == 8
    assert report["decomposition"].failures == 8
    assert "miss targets" in report["decomposition"].first_failure
    assert report["oracle_equivalence"].failures > 0


def test_report_serialization():
    report = run_verification([triangle()], (parse_group("Z2"),))
    payload = report["oracle_equivalence"].as_dict()
    assert payload["name"] == "oracle_equivalence"
    assert payload["failures"] == 0
    assert payload["checked"] == 4  # the four zero-sum functions over Z2


def test_one_assigning_two_polynomials_raises(monkeypatch):
    # Adding k - 4 over Z2xZ2 keeps every value at |A| = 4, so only the
    # cross-group comparison of one assigning's polynomials can see it.
    import flowpoly.harness as harness

    real = harness.asg.poly_subset_expansion
    klein = parse_group("Z2xZ2")

    def corrupted(g, b, **kwargs):
        poly = real(g, b, **kwargs)
        if b.spec != klein:
            return poly
        coeffs = list(poly.coefficients) + [0] * (2 - len(poly.coefficients))
        coeffs[0] -= 4
        coeffs[1] += 1
        return IntPolynomial(tuple(coeffs))

    monkeypatch.setattr(harness.asg, "poly_subset_expansion", corrupted)
    specs = (parse_group("Z4"), klein)
    with pytest.raises(ConsistencyError, match="one assigning produced two polynomials"):
        run_verification([triangle()], specs, seed=0)


def test_budget_caps_the_polynomial_routes():
    # Five parallel edges: either route builds 6 plan states, while the
    # boundary functions and flows stay within a budget of 4.
    g = MultiGraph.from_pairs(2, [(0, 1)] * 5)
    with pytest.raises(BudgetError, match="plan states"):
        run_verification([g], (parse_group("Z2"),), budget=4)


def _record_budgets(monkeypatch, names):
    """Wrap each named assigning function to record the budget it is given."""
    import flowpoly.harness as harness

    seen = []

    def recording(real):
        def call(g, b, *args, **kwargs):
            seen.append((real.__name__, kwargs.get("budget")))
            return real(g, b, *args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(harness.asg, name, recording(getattr(harness.asg, name)))
    return seen


def test_budget_reaches_every_polynomial_call(monkeypatch):
    seen = _record_budgets(monkeypatch, ("poly_subset_expansion", "poly_nbb"))
    run_verification([single_loop()], (parse_group("Z3"),), budget=12345)
    assert {name for name, _ in seen} == {"poly_subset_expansion", "poly_nbb"}
    assert {budget for _, budget in seen} == {12345}


def test_one_subset_expansion_per_assigning_class(monkeypatch):
    # Over Z3 the triangle's b = 0 gives the zero assigning, pointwise below
    # the other classes; the monotonicity suite compares the coefficients
    # the classes hold instead of recomputing them.
    z3 = parse_group("Z3")
    g = triangle()
    seen = _record_budgets(monkeypatch, ("poly_subset_expansion",))
    report = run_verification([g], (z3,))
    classes = {asg.induced_assigning(g, b) for b in enumerate_zero_sum(g, z3)}
    assert len(classes) > 1
    assert len(seen) == len(classes)
    assert report["comparison_monotonicity"].checked > len(classes)


def test_lemma_suites_skip_graphs_above_the_subset_table():
    g = MultiGraph.from_pairs(3, [(0, 1)] * 4 + [(1, 2)] * 4 + [(2, 0)] * 3)
    assert g.edge_count == 11
    report = run_verification([g], (parse_group("Z2"), parse_group("Z3")), seed=0)
    assert report.passed
    assert (report["inclusion_lemma"].checked, report["inclusion_lemma"].skipped) == (0, 5)
    pairing = report["broken_bond_pairing"]
    assert (pairing.checked, pairing.skipped) == (0, 15)
    # Z2 and Z3 differ in order, so group_invariance has no pair to compare.
    assert report["group_invariance"].checked == 0
    for name in SUITE_NAMES:
        if name not in ("inclusion_lemma", "broken_bond_pairing", "group_invariance"):
            assert report[name].checked > 0, name
