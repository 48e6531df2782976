#!/usr/bin/env python3
"""Group structure versus flow counts, demonstrated on the triangle and K4.

Shows three effects on the complete graph K4 and the triangle:

* the counting polynomial depends on the boundary function only through its
  assigning, so matching assignings over Z4 and Z2xZ2 give equal counts;
* some assignings over Z4 have no counterpart over Z2xZ2 at all (every
  nonzero Klein element is an involution, so two of the four vertex values
  must cancel);
* pointwise-larger assignings have pointwise-larger signless coefficients.
"""

from __future__ import annotations

from flowpoly.abelian import parse_group
from flowpoly.assigning import class_polynomials, compare_coefficients, zero_sum_assignings
from flowpoly.catalog import complete, cycle
from flowpoly.flows import BFunction, count_nz_flows_bruteforce
from flowpoly.graphs import cycle_rank, lambda_family

Z4 = parse_group("Z4")
KLEIN = parse_group("Z2xZ2")
Z3 = parse_group("Z3")


def main() -> None:
    k4 = complete(4)

    print("== matching assignings across groups of order 4 (K4) ==")
    by_z4 = class_polynomials(k4, Z4, zero_sum_assignings(k4, Z4))
    by_klein = class_polynomials(k4, KLEIN, zero_sum_assignings(k4, KLEIN))
    members = range(len(lambda_family(k4)))
    matched = sorted(
        (alpha for alpha in by_z4 if alpha in by_klein),
        key=lambda a: tuple(a >> i & 1 for i in members),
    )
    for alpha in matched[:4]:
        (b, p), (b2, p2) = by_z4[alpha], by_klein[alpha]
        assert p == p2
        print(
            f"  b={b.values} over Z4 and b'={b2.values} over Z2xZ2: "
            f"polynomial {p}, counts {count_nz_flows_bruteforce(k4, b)} == "
            f"{count_nz_flows_bruteforce(k4, b2)}"
        )

    print()
    print("== assignings realizable over Z4 only ==")
    orphans = [alpha for alpha in by_z4 if alpha not in by_klein]
    print(f"  {len(orphans)} of {len(by_z4)} Z4 assignings have no Z2xZ2 partner")
    for alpha in orphans:
        b, p = by_z4[alpha]
        print(
            f"  b={b.values}: polynomial {p}, "
            f"{count_nz_flows_bruteforce(k4, b)} nowhere-zero flows over Z4"
        )

    print()
    print("== coefficient monotonicity on the triangle ==")
    c3 = cycle(3)
    zero = BFunction.zero(Z3, 3)
    ones = BFunction(Z3, ((1,), (1,), (1,)))
    report = compare_coefficients(c3, zero, ones)
    top = cycle_rank(c3)
    print(f"  zero boundary:  signless coefficients {report.signless_first} (degree {top})")
    print(f"  all-ones over Z3: signless coefficients {report.signless_second}")
    print(f"  pointwise <= holds: {report.pointwise_le}; coefficients ordered: "
          f"{report.coefficientwise_le}")


if __name__ == "__main__":
    main()
