"""The verification harness itself: green on honest code, red on sabotage."""

from __future__ import annotations

import pytest

from flowpoly.abelian import parse_group
from flowpoly.errors import ConsistencyError
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


def test_harness_detects_wrong_counts(monkeypatch):
    import flowpoly.harness as harness

    real = harness.count_nz_flows_bruteforce

    def corrupted(g, b, **kwargs):
        return real(g, b, **kwargs) + 1

    monkeypatch.setattr(harness, "count_nz_flows_bruteforce", corrupted)
    report = run_verification([single_loop()], (parse_group("Z3"),), seed=0)
    assert not report.passed
    assert report["oracle_equivalence"].failures > 0


def test_decomposition_suite_sees_wrong_counts(monkeypatch):
    # The decomposition sums come from the oracle loop's own brute-force
    # counts, so a shifted count must fail that suite too.
    import flowpoly.harness as harness

    real = harness.count_nz_flows_bruteforce

    def corrupted(g, b, **kwargs):
        return real(g, b, **kwargs) + 1

    monkeypatch.setattr(harness, "count_nz_flows_bruteforce", corrupted)
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
