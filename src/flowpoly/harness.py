"""Cross-theorem verification sweeps over graph catalogs.

One pass per graph checks every suite at once: the two polynomial
algorithms against the brute-force flow counts, order and orientation
independence, invariance across groups of equal order, coefficient
monotonicity and positivity, the decomposition identities, and the two
structural lemmas the broken-bond argument rests on.

The polynomial depends on b only through its assigning α, so the boundary
functions of each group fall into assigning classes keyed by α.  The b of
each group come from ``assigning.zero_sum_assignings`` as index tuples,
each with its α and its compatibility verdict, all read from column sums
over Λ(G) and the components; the index tuple is the oracle's key.  After
that one pass, ``assigning.class_polynomials`` picks each class's first
compatible b, builds a BFunction for it alone, and computes every class's
polynomial from one batched ``poly_subset_expansions`` call per group, in
which b that reach the same blocks and sums share the states of one loop.
Every b's brute-force count is then checked against its class's value at
|A|, in enumeration order.  The decomposition suite adds |A|^m(G) for each
b whose verdict is compatible; a b that is not fails the oracle suite,
since no polynomial exists for it.  A class also keeps its signless
coefficients and its first b's brute-force count, which the monotonicity,
coefficient-structure and group-invariance suites read.  The first class
seen for an α stands for it in the order-dependent and lemma checks; a
class of another group with the same α but a different polynomial raises
ConsistencyError.

The effort per graph is fixed.  Each class's broken-bond polynomial is
computed under the edge plan's order and ``RANDOM_ORDERS`` shuffled ones,
all from one ``assigning.poly_nbb_orders`` call: it checks compatibility
and sums b over the bond sides once, and runs one state loop per distinct
family of broken bonds.  The pairing lemma is checked under the default
order and the first ``PAIRING_ORDERS`` of those shuffled ones.  Every
shuffle of a graph is drawn once, class by class, from one generator
seeded by (seed, graph index).  The oracle counts and the orientation
suite read one tally walk per group, ``flows.nz_orientation_walk``: it
returns the nowhere-zero boundary histogram and the non-loop edges whose
reversal would change it, so no reversed copy of the graph is built.
The lemma suites read each class's compatible edge subsets from
``assigning.compat_signature`` as one int, bit S for subset mask S, and
test each implication over all masks at once with shifts and ANDs.  Above
10 edges it raises BudgetError, and they count their checks as skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import assigning as asg
from .abelian import GroupSpec, parse_group
from .catalog import bridged_triangles, complete, cycle, path
from .errors import BudgetError, ConsistencyError, InputError
from .flows import (
    BFunction,
    DEFAULT_BUDGET,
    count_nz_flows_bruteforce,
    nz_orientation_walk,
)
from .graphs import MultiGraph, bonds, component_count, cycle_rank
from .polynomial import IntPolynomial

DEFAULT_GROUP_NAMES = ("Z2", "Z3", "Z4", "Z2xZ2")

RANDOM_ORDERS = 5
PAIRING_ORDERS = 2

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
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Run every verification suite over the given graphs and groups.

    ``seed`` fixes the shuffled edge orders: those of the i-th graph come
    from one generator seeded by (seed, i).  ``budget`` caps each
    enumeration of zero-sum boundary functions and of flows, as in the flows
    module, and the plan states of each call of either polynomial route.
    """
    report = VerificationReport({name: SuiteResult(name) for name in SUITE_NAMES})
    for spec in specs:
        if spec.order < 2:
            raise InputError("verification groups must have order >= 2")
    for index, g in enumerate(graphs):
        _check_graph(index, g, specs, report, seed=seed, budget=budget)
        report.graph_count += 1
    return report


@dataclass
class _AssigningClass:
    representative: BFunction  # the first b seen with this assigning
    poly: IntPolynomial  # computed from the representative
    value: int  # poly at the order of the representative's group
    signless: tuple[int, ...]  # poly's signless coefficients, a_0 first
    count: int  # the representative's nowhere-zero flows, by brute force
    members: int = 0


def _check_graph(
    index: int,
    g: MultiGraph,
    specs: Sequence[GroupSpec],
    report: VerificationReport,
    *,
    seed: int,
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

    m = g.edge_count
    reversible = sum(1 for edge in g.edges if not edge.is_loop)
    suite1 = suites["oracle_equivalence"]
    for spec in specs:
        hist, changed = nz_orientation_walk(g, spec, budget=budget)
        classes: dict[int, _AssigningClass] = {}
        order = spec.order
        flows_if_compatible = order**top  # the zeros-allowed count of a compatible b
        seen = list(asg.zero_sum_assignings(g, spec, budget=budget))
        for alpha, (b, poly) in asg.class_polynomials(g, spec, seen, budget=budget).items():
            cls = classes[alpha] = _AssigningClass(
                b, poly, poly.eval(order), poly.signless_coefficients(top), hist.get(b.indices, 0)
            )
            first = merged.setdefault(alpha, cls)
            if cls.poly != first.poly:
                raise ConsistencyError(
                    f"{label}: one assigning produced two polynomials, "
                    f"{first.poly} for b={first.representative.values} over "
                    f"{first.representative.spec} and {cls.poly} for "
                    f"b={b.values} over {spec}"
                )
        # The decomposition sums run over the same b as the oracle.
        total_nz = 0
        total_all = 0
        for indices, alpha, compatible in seen:
            brute = hist.get(indices, 0)
            total_nz += brute
            if not compatible:
                # An incompatible b has no polynomial and no flow.
                suite1.fail(
                    f"{label} over {spec}: b={BFunction.from_indices(spec, indices).values} "
                    "from the zero-sum enumeration is not compatible"
                )
                continue
            total_all += flows_if_compatible
            cls = classes[alpha]
            cls.members += 1
            if cls.value != brute:
                suite1.fail(
                    f"{label} over {spec}: b={BFunction.from_indices(spec, indices).values} "
                    f"has polynomial value {cls.value} but brute-force count {brute}"
                )
        report.instance_count += len(seen)
        suite1.checked += len(seen)
        per_spec_classes.append(classes)

        suites["decomposition"].checked += 1
        if total_nz != (order - 1) ** m or total_all != order**m:
            suites["decomposition"].fail(
                f"{label} over {spec}: sums ({total_nz}, {total_all}) miss targets "
                f"({(order - 1) ** m}, {order ** m})"
            )

        suite3 = suites["orientation_independence"]
        suite3.checked += reversible
        for edge_id in changed:
            suite3.fail(
                f"{label} over {spec}: reversing edge {edge_id} changed "
                "some nowhere-zero flow count"
            )

    # One generator per graph draws each class's shuffled orders, in the
    # order the classes were first seen; both order-dependent suites read them.
    rng = random.Random(f"{seed}:{index}")
    shuffles = [[asg.EdgeOrder.shuffled(g, rng) for _ in range(RANDOM_ORDERS)] for _ in merged]
    _check_algorithms(g, merged, shuffles, suites, budget, label)
    _check_lemmas(g, merged, shuffles, suites, label)
    _check_group_invariance(specs, per_spec_classes, suites, label)
    _check_monotonicity(merged, suites, label)

    if bridgeless:
        suite8 = suites["coefficient_structure"]
        for cls in merged.values():
            vector = cls.signless
            suite8.checked += 1
            if two_edge_connected and vector[0] != 1:
                suite8.fail(f"{label}: leading signless coefficient {vector[0]} != 1")
            elif any(value < 1 for value in vector):
                suite8.fail(f"{label}: non-positive signless coefficient in {vector}")


def _check_algorithms(
    g: MultiGraph,
    merged: dict[int, _AssigningClass],
    shuffles: list[list[asg.EdgeOrder]],
    suites: dict[str, SuiteResult],
    budget: int,
    label: str,
) -> None:
    suite2 = suites["algorithm_equivalence"]
    suite_order = suites["order_independence"]
    for cls, shuffled in zip(merged.values(), shuffles):
        expected = cls.poly
        # None: the count runs under the edge plan's order, not the edge ids.
        orders = [None, *shuffled]
        produced = asg.poly_nbb_orders(g, cls.representative, orders, budget=budget)
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
    shuffles: list[list[asg.EdgeOrder]],
    suites: dict[str, SuiteResult],
    label: str,
) -> None:
    suite_in = suites["inclusion_lemma"]
    suite_pair = suites["broken_bond_pairing"]
    try:
        compats = [asg.compat_signature(g, cls.representative) for cls in merged.values()]
    except BudgetError:  # more edges than the per-subset bitset covers
        suite_in.skipped += len(merged)
        suite_pair.skipped += len(merged) * (PAIRING_ORDERS + 1)
        return
    # holding[i] has bit S for each subset mask S that deletes edge i.
    m = g.edge_count
    every = (1 << (1 << m)) - 1
    holding = [
        ((1 << (1 << i)) - 1 << (1 << i)) * (every // ((1 << (2 << i)) - 1))
        for i in range(m)
    ]
    pos_of = {edge.id: i for i, edge in enumerate(g.edges)}
    default = asg.EdgeOrder.default(g)
    for cls, shuffled, compat in zip(merged.values(), shuffles, compats):
        # Deleting one more edge never breaks compatibility; the general
        # subset-pair statement follows by chaining single removals.  The
        # compatible masks that delete edge i, shifted down by 2^i, are
        # those masks without edge i, and each must be compatible too.
        suite_in.checked += 1
        if any((compat & holding[i]) >> (1 << i) & ~compat for i in range(m)):
            suite_in.fail(f"{label}: compatibility is not closed under shrinking the subset")

        # The rank of each edge position under each order.
        edge_ranks = []
        for order in [default, *shuffled[:PAIRING_ORDERS]]:
            rank = order.rank_map()
            edge_ranks.append([rank[edge.id] for edge in g.edges])
        compatible_bonds = [
            [pos_of[edge_id] for edge_id in bond]
            for bond in asg.b_compatible_bonds(g, cls.representative)
        ]
        for edge_rank in edge_ranks:
            suite_pair.checked += 1
            for bond in compatible_bonds:
                top = max(bond, key=edge_rank.__getitem__)
                # The compatible masks without the top edge that turn
                # incompatible with it, among those deleting the rest.
                broken = compat & ~holding[top] & ~(compat >> (1 << top))
                for i in bond:
                    if i != top:
                        broken &= holding[i]
                if broken:
                    suite_pair.fail(
                        f"{label}: adding back the greatest bond edge broke compatibility"
                    )
                    break


def _check_group_invariance(
    specs: Sequence[GroupSpec],
    per_spec_classes: list[dict[int, _AssigningClass]],
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
                if cls.count != partner.count:
                    suite4.fail(
                        f"{label}: equal assignings over {spec_a} and {spec_b} "
                        f"count {cls.count} vs {partner.count} nowhere-zero flows"
                    )


def _check_monotonicity(
    merged: dict[int, _AssigningClass],
    suites: dict[str, SuiteResult],
    label: str,
) -> None:
    suite5 = suites["comparison_monotonicity"]
    for a1, c1 in merged.items():
        for a2, c2 in merged.items():
            if a1 & ~a2:
                continue
            suite5.checked += 1
            v1, v2 = c1.signless, c2.signless
            if any(x > y for x, y in zip(v1, v2)):
                suite5.fail(
                    f"{label}: assigning {a1:b} <= {a2:b} pointwise but "
                    f"coefficients {v1} exceed {v2}"
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
