"""Acceptance gate: every criterion checked exactly (tolerance zero).

The catalog is every labelled multigraph with at most 4 vertices and 6
edges, loops and parallel edges included (9024 graphs), paired with the
groups Z2, Z3, Z4 and Z2xZ2 and with every locally zero-sum boundary
function over each group.  One pass/fail line is printed per criterion;
the sweep itself runs once and is shared by the criterion tests.
"""

from __future__ import annotations

import time

import pytest

from flowpoly.abelian import parse_group
from flowpoly.assigning import poly_subset_expansion
from flowpoly.catalog import all_multigraphs, bridged_triangles, complete, cycle, path
from flowpoly.flows import BFunction, count_nz_flows_bruteforce
from flowpoly.harness import run_classical_checks, run_verification
from flowpoly.polynomial import IntPolynomial

CATALOG_MAX_N = 4
CATALOG_MAX_M = 6
GROUPS = tuple(parse_group(name) for name in ("Z2", "Z3", "Z4", "Z2xZ2"))
SEED = 2024


def announce(capsys, criterion: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion} {name}: {verdict} ({detail})", flush=True)


@pytest.fixture(scope="module")
def sweep():
    graphs = list(all_multigraphs(CATALOG_MAX_N, CATALOG_MAX_M))
    assert len(graphs) == 9024
    started = time.time()
    report = run_verification(graphs, GROUPS, seed=SEED)
    report.elapsed = time.time() - started
    return report


def _detail(suite, extra: str = "") -> str:
    base = f"checked={suite.checked}, failures={suite.failures}"
    if suite.skipped:
        base += f", skipped={suite.skipped}"
    return base + extra


def _assert_suite(suite):
    assert suite.failures == 0, suite.first_failure
    assert suite.checked > 0


def test_criterion_1_oracle_equivalence(sweep, capsys):
    suite = sweep["oracle_equivalence"]
    ok = suite.ok and suite.checked == sweep.instance_count
    announce(capsys, 1, "oracle equivalence", ok, _detail(suite, f", sweep={sweep.elapsed:.0f}s"))
    assert suite.checked == sweep.instance_count  # every (graph, group, b) triple
    _assert_suite(suite)
    assert sweep.elapsed < 300  # the stated single-worker runtime budget


def test_criterion_2_algorithm_equivalence(sweep, capsys):
    suite = sweep["algorithm_equivalence"]
    announce(capsys, 2, "algorithm equivalence", suite.ok, _detail(suite))
    _assert_suite(suite)


def test_criterion_3_order_and_orientation_independence(sweep, capsys):
    orders = sweep["order_independence"]
    orientation = sweep["orientation_independence"]
    ok = orders.ok and orientation.ok
    announce(
        capsys,
        3,
        "order and orientation independence",
        ok,
        f"orders: {_detail(orders)}; reversals: {_detail(orientation)}",
    )
    _assert_suite(orders)
    _assert_suite(orientation)


def test_criterion_4_group_invariance(sweep, capsys):
    suite = sweep["group_invariance"]
    announce(capsys, 4, "group invariance", suite.ok, _detail(suite))
    _assert_suite(suite)
    assert suite.skipped > 0  # some order-4 assignings exist over Z4 only; logged


def test_criterion_5_comparison_monotonicity(sweep, capsys):
    suite = sweep["comparison_monotonicity"]
    announce(capsys, 5, "comparison monotonicity", suite.ok, _detail(suite))
    _assert_suite(suite)


def test_criterion_6_decomposition(sweep, capsys):
    suite = sweep["decomposition"]
    announce(capsys, 6, "decomposition identities", suite.ok, _detail(suite))
    _assert_suite(suite)
    assert suite.checked == sweep.graph_count * len(GROUPS)


def test_criterion_7_classical_specialization(capsys):
    suite = run_classical_checks()
    cycle_poly = IntPolynomial((-1, 1))
    details = []
    for length in range(3, 7):
        poly = poly_subset_expansion(cycle(length), BFunction.zero(GROUPS[0], length))
        details.append(poly == cycle_poly)
    k4_poly = poly_subset_expansion(complete(4), BFunction.zero(GROUPS[1], 4))
    details.append(k4_poly == IntPolynomial((-6, 11, -6, 1)))
    for spec in GROUPS[:3]:
        brute = count_nz_flows_bruteforce(complete(4), BFunction.zero(spec, 4))
        details.append(k4_poly.eval(spec.order) == brute)
    for g in (path(2), path(3), bridged_triangles()):
        details.append(
            poly_subset_expansion(g, BFunction.zero(GROUPS[0], g.vertex_count)).is_zero
        )
    ok = suite.ok and all(details)
    announce(capsys, 7, "classical specialization", ok, f"checked={suite.checked + len(details)}")
    assert suite.failures == 0, suite.first_failure
    assert all(details)


def test_criterion_8_structural_coefficients(sweep, capsys):
    suite = sweep["coefficient_structure"]
    announce(capsys, 8, "structural coefficient bounds", suite.ok, _detail(suite))
    _assert_suite(suite)


def test_criterion_9_lemma_suites(sweep, capsys):
    inclusion = sweep["inclusion_lemma"]
    pairing = sweep["broken_bond_pairing"]
    ok = inclusion.ok and pairing.ok
    announce(
        capsys,
        9,
        "inclusion and pairing lemmas",
        ok,
        f"inclusion: {_detail(inclusion)}; pairing: {_detail(pairing)}",
    )
    _assert_suite(inclusion)
    _assert_suite(pairing)
