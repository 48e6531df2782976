"""The verification harness itself: green on honest code, red on sabotage."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

import flowpoly.assigning as asg
import flowpoly.harness as harness
from flowpoly.abelian import parse_group
from flowpoly.errors import BudgetError, ConsistencyError
from flowpoly.catalog import all_multigraphs
from flowpoly.flows import enumerate_zero_sum
from flowpoly.graphs import MultiGraph
from flowpoly.harness import (
    SUITE_NAMES,
    default_groups,
    run_classical_checks,
    run_verification,
)
from flowpoly.polynomial import IntPolynomial

from conftest import k4, reversals_changing_histogram, single_edge, single_loop, triangle


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


def _shift_constant_term(poly: IntPolynomial) -> IntPolynomial:
    coeffs = poly.coefficients or (0,)
    return IntPolynomial((coeffs[0] + 1,) + coeffs[1:])


def test_harness_detects_wrong_nbb(monkeypatch):
    import flowpoly.assigning as asg
    import flowpoly.harness as harness

    real = asg.poly_nbb_orders

    def corrupted(g, b, orders, **kwargs):
        return [_shift_constant_term(poly) for poly in real(g, b, orders, **kwargs)]

    monkeypatch.setattr(harness.asg, "poly_nbb_orders", corrupted)
    report = run_verification([triangle()], (parse_group("Z2"),), seed=0)
    assert not report.passed
    assert report["algorithm_equivalence"].failures > 0
    assert report["algorithm_equivalence"].first_failure is not None


def test_harness_detects_an_order_dependent_nbb(monkeypatch):
    # Only orders that start with the greatest edge id see the defect, and
    # the plan's order (None) never does.
    real = asg.poly_nbb_orders

    def corrupted(g, b, orders, **kwargs):
        top = (max(g.edge_ids),) if g.edge_ids else ()
        return [
            _shift_constant_term(poly) if order is not None and order.sequence[:1] == top else poly
            for order, poly in zip(orders, real(g, b, orders, **kwargs))
        ]

    monkeypatch.setattr(harness.asg, "poly_nbb_orders", corrupted)
    report = run_verification(all_multigraphs(3, 4), default_groups(), seed=0)
    assert report["order_independence"].failures > 0
    assert report["algorithm_equivalence"].failures > 0
    assert "depends on the edge order" in report["order_independence"].first_failure


def test_one_generator_per_graph(monkeypatch):
    made = []

    class Counting(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(harness.random, "Random", Counting)
    report = run_verification([triangle(), k4()], default_groups(), seed=0)
    assert report.passed
    assert report["order_independence"].checked > 2
    assert len(made) == 2


def test_shuffled_orders_follow_the_seed(monkeypatch):
    real = asg.poly_nbb_orders
    seen = []

    def recording(g, b, orders, **kwargs):
        seen.append((g, [None if order is None else order.sequence for order in orders]))
        return real(g, b, orders, **kwargs)

    monkeypatch.setattr(harness.asg, "poly_nbb_orders", recording)
    graphs = [triangle(), k4()]
    runs = []
    for seed in (0, 0, 1):
        seen.clear()
        run_verification(graphs, default_groups(), seed=seed)
        runs.append(list(seen))
    for g, orders in runs[0]:
        assert orders[0] is None
        assert len(orders) == 1 + harness.RANDOM_ORDERS
        for sequence in orders[1:]:
            assert sorted(sequence) == list(g.edge_ids)
    assert runs[0] == runs[1]
    assert k4().edge_count >= 4
    assert [o for g, o in runs[0] if g == k4()] != [o for g, o in runs[2] if g == k4()]


def _shift_brute_force_counts(monkeypatch) -> None:
    """Make the harness read every brute-force count one too high."""
    import flowpoly.harness as harness

    real = harness.nz_orientation_walk

    class Shifted(dict):
        def get(self, key, default=0):
            return super().get(key, default) + 1

    def corrupted(g, spec, **kwargs):
        hist, changed = real(g, spec, **kwargs)
        return Shifted(hist), changed

    monkeypatch.setattr(harness, "nz_orientation_walk", corrupted)


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


def test_a_corrupted_pin_byte_fails_oracle_and_decomposition(monkeypatch):
    # The first b over Z3 of the triangle is zero; adding 1 at its pin,
    # vertex 2, leaves a b that sums to 1, so its component-sum verdict is
    # false and no q^m(G) is added for it.
    real = asg.zero_sum_columns

    def corrupted(g, spec, **kwargs):
        for size, columns in real(g, spec, **kwargs):
            pin = columns[-1]
            columns[-1] = bytes([(pin[0] + 1) % spec.order]) + pin[1:]
            yield size, columns

    monkeypatch.setattr(asg, "zero_sum_columns", corrupted)
    report = run_verification([triangle()], (parse_group("Z3"),), seed=0)
    assert report["decomposition"].failures == 1
    assert "miss targets" in report["decomposition"].first_failure
    assert report["oracle_equivalence"].failures == 1
    assert "(0,), (0,), (1,)" in report["oracle_equivalence"].first_failure
    assert "is not compatible" in report["oracle_equivalence"].first_failure


def test_no_per_b_assigning_or_flow_count(monkeypatch):
    import flowpoly.flows as flows

    calls = {"induced_assigning": 0, "count_flows": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(asg, "induced_assigning", counting(asg, "induced_assigning"))
    monkeypatch.setattr(flows, "count_flows", counting(flows, "count_flows"))
    # Also counted should the harness import count_flows by name.
    monkeypatch.setattr(harness, "count_flows", flows.count_flows, raising=False)
    report = run_verification([triangle(), single_edge(), k4()], default_groups(), seed=0)
    assert report.passed
    assert report.instance_count > 0
    assert calls == {"induced_assigning": 0, "count_flows": 0}


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

    real = harness.asg.poly_subset_expansions
    klein = parse_group("Z2xZ2")

    def corrupt(poly):
        coeffs = list(poly.coefficients) + [0] * (2 - len(poly.coefficients))
        coeffs[0] -= 4
        coeffs[1] += 1
        return IntPolynomial(tuple(coeffs))

    def corrupted(g, bs, **kwargs):
        polys = real(g, bs, **kwargs)
        return [corrupt(poly) if b.spec == klein else poly for b, poly in zip(bs, polys)]

    monkeypatch.setattr(harness.asg, "poly_subset_expansions", corrupted)
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
    seen = _record_budgets(monkeypatch, ("poly_subset_expansions", "poly_nbb_orders"))
    run_verification([single_loop()], (parse_group("Z3"),), budget=12345)
    assert {name for name, _ in seen} == {"poly_subset_expansions", "poly_nbb_orders"}
    assert {budget for _, budget in seen} == {12345}


def test_one_subset_expansion_per_assigning_class(monkeypatch):
    # Over Z3 the triangle's b = 0 gives the zero assigning, pointwise below
    # the other classes; the monotonicity suite compares the coefficients
    # the classes hold instead of recomputing them.  Each (graph, group)
    # makes one batched call, one b per class.
    real = harness.asg.poly_subset_expansions
    batches = []

    def recording(g, bs, **kwargs):
        batches.append((g, bs[0].spec, len(bs)))
        return real(g, bs, **kwargs)

    monkeypatch.setattr(harness.asg, "poly_subset_expansions", recording)
    z3, z4 = parse_group("Z3"), parse_group("Z4")
    graphs = [triangle(), k4()]
    report = run_verification(graphs, (z3, z4))
    expected = [
        (g, spec, len({asg.induced_assigning(g, b) for b in enumerate_zero_sum(g, spec)}))
        for g in graphs
        for spec in (z3, z4)
    ]
    assert batches == expected
    assert all(size > 1 for _, _, size in batches)
    assert report["comparison_monotonicity"].checked > batches[0][2]


def test_one_broken_bond_call_per_assigning_class(monkeypatch):
    # One call counts a class under the plan's order and every shuffle.
    z3 = parse_group("Z3")
    g = triangle()
    seen = _record_budgets(monkeypatch, ("poly_nbb_orders", "poly_nbb"))
    report = run_verification([g], (z3,))
    classes = {asg.induced_assigning(g, b) for b in enumerate_zero_sum(g, z3)}
    assert [name for name, _ in seen] == ["poly_nbb_orders"] * len(classes)
    assert report["order_independence"].checked == len(classes)
    assert report["algorithm_equivalence"].checked == len(classes) * harness.RANDOM_ORDERS


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


@pytest.mark.usefixtures("wrong_z4_negation")
def test_orientation_suite_fails_once_per_changing_reversal():
    graphs = list(all_multigraphs(3, 3))
    specs = (parse_group("Z3"), parse_group("Z4"))
    expected = sum(len(reversals_changing_histogram(g, spec)) for g in graphs for spec in specs)
    assert expected > 0
    report = run_verification(graphs, specs, seed=0)
    suite = report["orientation_independence"]
    assert suite.failures == expected
    assert "changed some nowhere-zero flow count" in suite.first_failure


def _corrupt_signatures(monkeypatch, corrupt) -> None:
    """Make the lemma suites read corrupt(compat) for every compat signature."""
    real = asg.compat_signature
    monkeypatch.setattr(asg, "compat_signature", lambda g, b: corrupt(real(g, b)))


def test_inclusion_lemma_fails_on_a_corrupted_signature(monkeypatch):
    # Bit 0 is S = {}.  Without it, each of the four classes over Z2 still
    # has every single triangle edge compatible, but putting that edge
    # back gives S = {}, which is not.
    _corrupt_signatures(monkeypatch, lambda compat: compat & ~1)
    report = run_verification([triangle()], (parse_group("Z2"),), seed=0)
    assert report["inclusion_lemma"].failures == report["inclusion_lemma"].checked == 4
    assert "not closed under shrinking" in report["inclusion_lemma"].first_failure
    assert report["broken_bond_pairing"].failures == 0


def test_pairing_lemma_fails_on_a_corrupted_signature(monkeypatch):
    # Keep only S in {{}, {e0}, {e1}, {e2}}, the subsets that leave the
    # triangle connected: one deleted triangle edge is compatible, but
    # deleting the other edge of its bond as well splits the triangle.
    # Each of the four classes over Z2 has a compatible bond, and each
    # order finds it.
    _corrupt_signatures(monkeypatch, lambda compat: compat & 0b10111)
    report = run_verification([triangle()], (parse_group("Z2"),), seed=0)
    pairing = report["broken_bond_pairing"]
    assert pairing.checked == 4 * (1 + harness.PAIRING_ORDERS)
    assert pairing.failures == pairing.checked
    assert "adding back the greatest bond edge" in pairing.first_failure
    assert report["inclusion_lemma"].failures == 0


def test_harness_reads_no_private_name_of_assigning():
    # The harness reaches assigning only through its public names, so the
    # encoding of per-subset compatibility stays inside assigning.
    tree = ast.parse(Path(harness.__file__).read_text())
    private = [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "asg"
        and node.attr.startswith("_")
    ]
    assert private == []
    # The walk does see the harness's public reads of asg.
    assert any(
        isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "asg"
        for node in ast.walk(tree)
    )
