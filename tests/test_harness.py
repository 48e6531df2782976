"""The verification harness itself: green on honest code, red on sabotage."""

from __future__ import annotations

from flowpoly.abelian import parse_group
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
