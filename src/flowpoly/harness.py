"""Cross-theorem verification sweeps over graph catalogs.

One pass per graph checks every suite at once: the two polynomial
algorithms against the brute-force flow counts, order and orientation
independence, invariance across groups of equal order, coefficient
monotonicity and positivity, the decomposition identities, and the two
structural lemmas the broken-bond argument rests on.

The polynomial depends on b only through its assigning α, so the boundary
functions of each group fall into assigning classes keyed by α.  Each
class's polynomial is computed once, from its first b, and every b's
brute-force count is checked against it.  The first class seen for an α
stands for it in the order-dependent and lemma checks; a class of another
group with the same α but a different polynomial raises ConsistencyError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import assigning as asg
from .abelian import GroupSpec, parse_group
from .catalog import bridged_triangles, complete, cycle, path
from .errors import ConsistencyError, InputError
from .flows import (
    BFunction,
    DEFAULT_BUDGET,
    count_flows,
    count_nz_flows_bruteforce,
    enumerate_zero_sum,
    nz_flow_index_counts,
)
from .graphs import MultiGraph, bonds, component_count, cycle_rank, reverse_edge
from .polynomial import IntPolynomial

DEFAULT_GROUP_NAMES = ("Z2", "Z3", "Z4", "Z2xZ2")

SUITE_NAMES = (
    "oracle_equivalence",
    "algorithm_equivalence",
    "order_independence",
    "orientation_independence",
    "group_invariance",
    "comparison_monotonicity",
    "decomposition",
    "coefficient_structure",
    "inclusion_lemma",
    "broken_bond_pairing",
)


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: int = 0
    skipped: int = 0
    first_failure: str | None = None

    def fail(self, message: str) -> None:
        self.failures += 1
        if self.first_failure is None:
            self.first_failure = message

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "failures": self.failures,
            "skipped": self.skipped,
            "first_failure": self.first_failure,
        }


@dataclass
class VerificationReport:
    suites: dict[str, SuiteResult]
    graph_count: int = 0
    instance_count: int = 0

    @property
    def passed(self) -> bool:
        return all(suite.ok for suite in self.suites.values())

    def __getitem__(self, name: str) -> SuiteResult:
        return self.suites[name]


def default_groups() -> tuple[GroupSpec, ...]:
    return tuple(parse_group(name) for name in DEFAULT_GROUP_NAMES)


def run_verification(
    graphs: Iterable[MultiGraph],
    specs: Sequence[GroupSpec],
    *,
    seed: int = 0,
    random_orders: int = 5,
    pairing_orders: int = 2,
    include_reversals: bool = True,
    comparison_calls: int = 3,
    budget: int = DEFAULT_BUDGET,
    progress: Callable[[int], None] | None = None,
) -> VerificationReport:
    """Run every verification suite over the given graphs and groups.

    ``budget`` caps each brute-force flow enumeration, as in the flows module.
    """
    report = VerificationReport({name: SuiteResult(name) for name in SUITE_NAMES})
    for spec in specs:
        if spec.order < 2:
            raise InputError("verification groups must have order >= 2")
    for index, g in enumerate(graphs):
        _check_graph(
            index,
            g,
            specs,
            report,
            seed=seed,
            random_orders=random_orders,
            pairing_orders=pairing_orders,
            include_reversals=include_reversals,
            comparison_calls=comparison_calls,
            budget=budget,
        )
        report.graph_count += 1
        if progress is not None:
            progress(report.graph_count)
    return report


@dataclass
class _AssigningClass:
    representative: BFunction  # the first b seen with this assigning
    poly: IntPolynomial  # computed from the representative
    members: int = 0


def _check_graph(
    index: int,
    g: MultiGraph,
    specs: Sequence[GroupSpec],
    report: VerificationReport,
    *,
    seed: int,
    random_orders: int,
    pairing_orders: int,
    include_reversals: bool,
    comparison_calls: int,
    budget: int,
) -> None:
    suites = report.suites
    label = f"graph#{index}(n={g.vertex_count}, edges={list(g.pairs())})"
    top = cycle_rank(g)
    bridgeless = all(len(bond) > 1 for bond in bonds(g))
    two_edge_connected = bridgeless and component_count(g) <= 1

    # Classes keyed by alpha bits: one dict per group, and merged holds the
    # first class seen for each alpha over all groups.
    merged: dict[int, _AssigningClass] = {}
    per_spec_classes: list[dict[int, _AssigningClass]] = []
    histograms = []

    m = g.edge_count
    for spec in specs:
        hist = nz_flow_index_counts(g, spec, budget=budget)
        histograms.append(hist)
        classes: dict[int, _AssigningClass] = {}
        suite1 = suites["oracle_equivalence"]
        order = spec.order
        # The decomposition sums run over the same b as the oracle.
        total_nz = 0
        total_all = 0
        for b in enumerate_zero_sum(g, spec, budget=budget):
            report.instance_count += 1
            alpha = asg.alpha_bits(g, b)
            cls = classes.get(alpha)
            if cls is None:
                cls = classes[alpha] = _AssigningClass(b, asg.poly_subset_expansion(g, b))
                first = merged.setdefault(alpha, cls)
                if cls.poly != first.poly:
                    raise ConsistencyError(
                        f"{label}: one assigning produced two polynomials, "
                        f"{first.poly} for b={first.representative.values} over "
                        f"{first.representative.spec} and {cls.poly} for "
                        f"b={b.values} over {spec}"
                    )
            cls.members += 1

            brute = count_nz_flows_bruteforce(g, b, budget=budget)
            total_nz += brute
            total_all += count_flows(g, b)
            suite1.checked += 1
            if cls.poly.eval(order) != brute:
                suite1.fail(
                    f"{label} over {spec}: b={b.values} has polynomial value "
                    f"{cls.poly.eval(order)} but brute-force count {brute}"
                )
        per_spec_classes.append(classes)

        suites["decomposition"].checked += 1
        if total_nz != (order - 1) ** m or total_all != order**m:
            suites["decomposition"].fail(
                f"{label} over {spec}: sums ({total_nz}, {total_all}) miss targets "
                f"({(order - 1) ** m}, {order ** m})"
            )

        if include_reversals:
            suite3 = suites["orientation_independence"]
            for edge in g.edges:
                if edge.is_loop:
                    continue
                reversed_hist = nz_flow_index_counts(
                    reverse_edge(g, edge.id), spec, budget=budget
                )
                suite3.checked += 1
                if reversed_hist != hist:
                    suite3.fail(
                        f"{label} over {spec}: reversing edge {edge.id} changed "
                        "some nowhere-zero flow count"
                    )

    signless = {alpha: cls.poly.signless_coefficients(top) for alpha, cls in merged.items()}
    _check_algorithms(index, g, merged, suites, seed, random_orders, label)
    _check_lemmas(g, merged, suites, seed, pairing_orders, label)
    _check_group_invariance(specs, per_spec_classes, histograms, suites, label)
    _check_monotonicity(g, merged, signless, suites, comparison_calls, label)

    if bridgeless:
        suite8 = suites["coefficient_structure"]
        for vector in signless.values():
            suite8.checked += 1
            if two_edge_connected and vector[0] != 1:
                suite8.fail(f"{label}: leading signless coefficient {vector[0]} != 1")
            elif any(value < 1 for value in vector):
                suite8.fail(f"{label}: non-positive signless coefficient in {vector}")


def _check_algorithms(
    index: int,
    g: MultiGraph,
    merged: dict[int, _AssigningClass],
    suites: dict[str, SuiteResult],
    seed: int,
    random_orders: int,
    label: str,
) -> None:
    suite2 = suites["algorithm_equivalence"]
    suite_order = suites["order_independence"]
    for alpha, cls in merged.items():
        expected = cls.poly
        rng = random.Random(f"{seed}:{index}:{alpha}")
        produced = [asg.poly_nbb(g, cls.representative)]
        for _ in range(random_orders):
            order = asg.EdgeOrder.shuffled(g, rng)
            produced.append(asg.poly_nbb(g, cls.representative, order))
        for poly in produced[1:]:
            suite2.checked += 1
            if poly != expected:
                suite2.fail(
                    f"{label}: broken-bond polynomial {poly} != expansion {expected} "
                    f"for b={cls.representative.values}"
                )
        suite_order.checked += 1
        if len(set(produced)) > 1:
            suite_order.fail(
                f"{label}: broken-bond polynomial depends on the edge order "
                f"for b={cls.representative.values}"
            )


def _check_lemmas(
    g: MultiGraph,
    merged: dict[int, _AssigningClass],
    suites: dict[str, SuiteResult],
    seed: int,
    pairing_orders: int,
    label: str,
) -> None:
    suite_in = suites["inclusion_lemma"]
    suite_pair = suites["broken_bond_pairing"]
    if g.edge_count > asg._TABLE_MAX_EDGES:  # the per-subset table would not fit
        suite_in.skipped += len(merged)
        suite_pair.skipped += len(merged) * (pairing_orders + 1)
        return
    partition_id = asg._structure(g).partition_id
    subset_count = len(partition_id)
    pos_of = {edge.id: i for i, edge in enumerate(g.edges)}
    for alpha, cls in merged.items():
        sigma = asg.compat_signature(g, cls.representative)
        compat = [sigma >> pid & 1 for pid in partition_id]
        # Deleting one more edge never breaks compatibility; the general
        # subset-pair statement follows by chaining single removals.
        suite_in.checked += 1
        ok = True
        for mask in range(subset_count):
            if not compat[mask]:
                continue
            remaining = mask
            while remaining:
                low = remaining & -remaining
                if not compat[mask ^ low]:
                    ok = False
                    break
                remaining ^= low
            if not ok:
                break
        if not ok:
            suite_in.fail(f"{label}: compatibility is not closed under shrinking the subset")

        rng = random.Random(f"pairing:{seed}:{label}:{alpha}")
        orders = [asg.EdgeOrder.default(g)]
        for _ in range(pairing_orders):
            orders.append(asg.EdgeOrder.shuffled(g, rng))
        full = subset_count - 1
        compatible_bonds = [
            (bond, sum(1 << pos_of[edge_id] for edge_id in bond))
            for bond in asg.b_compatible_bonds(g, cls.representative)
        ]
        for order in orders:
            broken_ok = True
            rank = order.rank_map()
            suite_pair.checked += 1
            for bond, bond_mask in compatible_bonds:
                top_bit = 1 << pos_of[max(bond, key=rank.__getitem__)]
                base = bond_mask & ~top_bit
                free = full & ~bond_mask
                t = free
                while True:
                    subset = base | t
                    if compat[subset] and not compat[subset | top_bit]:
                        broken_ok = False
                        break
                    if t == 0:
                        break
                    t = (t - 1) & free
                if not broken_ok:
                    break
            if not broken_ok:
                suite_pair.fail(
                    f"{label}: adding back the greatest bond edge broke compatibility"
                )


def _check_group_invariance(
    specs: Sequence[GroupSpec],
    per_spec_classes: list[dict[int, _AssigningClass]],
    histograms: list[Mapping[tuple[int, ...], int]],
    suites: dict[str, SuiteResult],
    label: str,
) -> None:
    suite4 = suites["group_invariance"]
    for i, spec_a in enumerate(specs):
        for j, spec_b in enumerate(specs):
            if i == j or spec_a.order != spec_b.order:
                continue
            partners = per_spec_classes[j]
            for alpha, cls in per_spec_classes[i].items():
                partner = partners.get(alpha)
                if partner is None:
                    suite4.skipped += cls.members
                    continue
                suite4.checked += cls.members
                count_a = histograms[i].get(cls.representative.indices, 0)
                count_b = histograms[j].get(partner.representative.indices, 0)
                if count_a != count_b:
                    suite4.fail(
                        f"{label}: equal assignings over {spec_a} and {spec_b} "
                        f"count {count_a} vs {count_b} nowhere-zero flows"
                    )


def _check_monotonicity(
    g: MultiGraph,
    merged: dict[int, _AssigningClass],
    signless: dict[int, tuple[int, ...]],
    suites: dict[str, SuiteResult],
    comparison_calls: int,
    label: str,
) -> None:
    suite5 = suites["comparison_monotonicity"]
    exercised = 0
    for a1, c1 in merged.items():
        for a2, c2 in merged.items():
            if a1 & ~a2:
                continue
            suite5.checked += 1
            v1, v2 = signless[a1], signless[a2]
            if any(x > y for x, y in zip(v1, v2)):
                suite5.fail(
                    f"{label}: assigning {a1:b} <= {a2:b} pointwise but "
                    f"coefficients {v1} exceed {v2}"
                )
            elif exercised < comparison_calls and a1 != a2:
                exercised += 1
                outcome = asg.compare_coefficients(g, c1.representative, c2.representative)
                if not (outcome.pointwise_le and outcome.consistent):
                    suite5.fail(
                        f"{label}: compare_coefficients disagrees with the sweep "
                        f"for b={c1.representative.values}"
                    )


def run_classical_checks() -> SuiteResult:
    """Fixed known polynomials: cycles, the complete graph on four vertices,
    and annihilation by bridges."""
    suite = SuiteResult("classical_specialization")
    cycle_poly = IntPolynomial((-1, 1))
    for length in range(3, 7):
        g = cycle(length)
        b = BFunction.zero(parse_group("Z2"), g.vertex_count)
        suite.checked += 1
        if asg.poly_subset_expansion(g, b) != cycle_poly:
            suite.fail(f"cycle of length {length} did not give k - 1")

    k4 = complete(4)
    k4_poly = IntPolynomial((-6, 11, -6, 1))
    b = BFunction.zero(parse_group("Z2"), 4)
    suite.checked += 1
    if asg.poly_subset_expansion(k4, b) != k4_poly:
        suite.fail("complete graph on 4 vertices did not give k^3 - 6k^2 + 11k - 6")
    for name in ("Z2", "Z3", "Z4"):
        spec = parse_group(name)
        suite.checked += 1
        expected = k4_poly.eval(spec.order)
        actual = count_nz_flows_bruteforce(k4, BFunction.zero(spec, 4))
        if expected != actual:
            suite.fail(f"K4 over {spec}: polynomial gives {expected}, count is {actual}")

    for g in (path(2), path(3), bridged_triangles()):
        b = BFunction.zero(parse_group("Z3"), g.vertex_count)
        suite.checked += 1
        if not asg.poly_subset_expansion(g, b).is_zero:
            suite.fail(f"bridged graph with edges {list(g.pairs())} gave a nonzero polynomial")
    return suite
