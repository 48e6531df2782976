"""Command line interface: text document formats and subcommands.

Reports are JSON objects with fixed key order, printed to stdout.  Exit
codes: 0 success, 2 parse or input error, 3 incompatible boundary function,
4 resource guard (out of memory included), 5 verification failure.  A
reader that closes the pipe before the report ends (``flowpoly bonds g |
head``) cuts the report short but changes no exit code: the command still
exits with its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import assigning as asg
from .abelian import GroupSpec, parse_group
from .catalog import all_multigraphs, complete, cycle, random_catalog
from .errors import (
    BudgetError,
    ConsistencyError,
    IncompatibleError,
    InputError,
    ParseError,
)
from .flows import (
    BFunction,
    DEFAULT_BUDGET,
    count_flows,
    count_flows_bruteforce,
    count_nz_flows_bruteforce,
    decomposition_check,
    require_compatible,
)
from .graphs import MultiGraph, bonds, cycle_rank, lambda_family
from .harness import DEFAULT_GROUP_NAMES, run_classical_checks, run_verification

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4
EXIT_VERIFY = 5


# ---------------------------------------------------------------------------
# Document formats.


def parse_graph_document(text: str) -> MultiGraph:
    """Read "n m" then m lines "tail head"; '#' lines are comments."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        raise ParseError("empty graph document")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"header must be two integers, got {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise ParseError("vertex and edge counts must be nonnegative")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    pairs = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'tail head', got {line!r}")
        try:
            tail, head = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"edge line must be two integers, got {line!r}") from exc
        if not (0 <= tail < n and 0 <= head < n):
            raise ParseError(f"edge {line!r} references a vertex outside [0, {n})")
        pairs.append((tail, head))
    return MultiGraph.from_pairs(n, pairs)


def format_graph_document(g: MultiGraph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{e.tail} {e.head}" for e in g.edges)
    return "\n".join(lines) + "\n"


def parse_b_document(text: str, spec: GroupSpec, vertex_count: int) -> BFunction:
    """One line per vertex with comma-separated residues for the group."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if len(lines) != vertex_count:
        raise ParseError(f"expected {vertex_count} value lines, found {len(lines)}")
    values = []
    for line in lines:
        parts = [part.strip() for part in line.split(",")]
        try:
            residues = tuple(int(part) for part in parts)
        except ValueError as exc:
            raise ParseError(f"bad residue line {line!r}") from exc
        if len(residues) != spec.rank:
            raise ParseError(
                f"line {line!r} has {len(residues)} residues, group {spec} needs {spec.rank}"
            )
        for residue, order in zip(residues, spec.cyclic_orders):
            if not 0 <= residue < order:
                raise ParseError(f"residue {residue} out of range for Z{order} in {line!r}")
        values.append(residues)
    return BFunction(spec, tuple(values))


def format_b_document(b: BFunction) -> str:
    return "\n".join(",".join(str(r) for r in value) for value in b.values) + "\n"


# ---------------------------------------------------------------------------
# Shared argument handling.


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_graph(args) -> MultiGraph:
    return parse_graph_document(_read_file(args.graph))


def _load_b(args, g: MultiGraph, spec: GroupSpec) -> BFunction:
    if getattr(args, "b_file", None):
        return parse_b_document(_read_file(args.b_file), spec, g.vertex_count)
    return BFunction.zero(spec, g.vertex_count)


def _parse_order(args, g: MultiGraph) -> asg.EdgeOrder | None:
    text = getattr(args, "order", None)
    if text is None:
        return None
    try:
        ids = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad order {text!r}: expected comma-separated edge ids") from exc
    order = asg.EdgeOrder(ids)
    order.validate_for(g)
    return order


def _vertex_subset_budget(args, g: MultiGraph) -> None:
    """The lambda family and the bond sides walk up to 2^n vertex subsets."""
    if 1 << g.vertex_count > args.budget:
        raise BudgetError(
            f"enumeration of 2^{g.vertex_count} vertex subsets exceeds budget {args.budget}"
        )


def _edge_sets(sets) -> list[list[int]]:
    return [sorted(s) for s in sets]


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_poly(args) -> tuple[dict, int]:
    g = _load_graph(args)
    spec = parse_group(args.group)
    b = _load_b(args, g, spec)
    if args.algorithm != "subset":
        _vertex_subset_budget(args, g)  # poly_nbb walks the bond sides
    order = _parse_order(args, g)
    # Each route checks that b is compatible with g.
    report = {
        "command": "poly",
        "n": g.vertex_count,
        "m": g.edge_count,
        "mG": cycle_rank(g),
        "group": str(spec),
        "algorithm": args.algorithm,
    }
    code = EXIT_OK
    if args.algorithm in ("subset", "both"):
        poly = asg.poly_subset_expansion(g, b, budget=args.budget)
    else:
        poly = asg.poly_nbb(g, b, order, budget=args.budget)
    report["polynomial"] = poly.format()
    report["coefficients_signless"] = list(poly.signless_coefficients(cycle_rank(g)))
    if args.algorithm == "both":
        other = asg.poly_nbb(g, b, order, budget=args.budget)
        agree = other == poly
        report["agree"] = agree
        if not agree:
            report["polynomial_nbb"] = other.format()
            code = EXIT_VERIFY
    report["pass"] = code == EXIT_OK
    return report, code


def cmd_flows(args) -> tuple[dict, int]:
    g = _load_graph(args)
    spec = parse_group(args.group)
    b = _load_b(args, g, spec)
    report = {
        "command": "flows",
        "group": str(spec),
        "nowhere_zero": bool(args.nowhere_zero),
        "mG": cycle_rank(g),
    }
    if args.nowhere_zero:
        require_compatible(g, b)
        brute = count_nz_flows_bruteforce(g, b, budget=args.budget)
        poly_value = asg.poly_subset_expansion(g, b, budget=args.budget).eval(spec.order)
        report["counts"] = {"bruteforce": brute, "polynomial": poly_value}
        agree = brute == poly_value
    else:
        brute = count_flows_bruteforce(g, b, budget=args.budget)
        formula = count_flows(g, b)
        report["counts"] = {"bruteforce": brute, "formula": formula}
        agree = brute == formula
    report["agree"] = agree
    report["pass"] = agree
    return report, EXIT_OK if agree else EXIT_VERIFY


def cmd_bonds(args) -> tuple[dict, int]:
    g = _load_graph(args)
    order = _parse_order(args, g)
    _vertex_subset_budget(args, g)
    report = {
        "command": "bonds",
        "n": g.vertex_count,
        "m": g.edge_count,
        "bonds": _edge_sets(bonds(g)),
    }
    if args.group is not None:
        spec = parse_group(args.group)
        b = _load_b(args, g, spec)
        report["group"] = str(spec)
        report["b_compatible_bonds"] = _edge_sets(asg.b_compatible_bonds(g, b))
        report["broken_bonds"] = _edge_sets(asg.broken_bonds(g, b, order))
    report["pass"] = True
    return report, EXIT_OK


def cmd_lambda(args) -> tuple[dict, int]:
    g = _load_graph(args)
    _vertex_subset_budget(args, g)
    family = lambda_family(g)
    report = {
        "command": "lambda",
        "n": g.vertex_count,
        "lambda": [sorted(x) for x in family],
    }
    if args.group is not None:
        spec = parse_group(args.group)
        b = _load_b(args, g, spec)
        alpha = asg.induced_assigning(g, b)
        report["group"] = str(spec)
        report["alpha"] = [alpha >> i & 1 for i in range(len(family))]
    report["pass"] = True
    return report, EXIT_OK


def cmd_connectivity(args) -> tuple[dict, int]:
    g = _load_graph(args)
    spec = parse_group(args.group)
    other = None
    if args.compare is not None:
        other = parse_group(args.compare)
        if other.order != spec.order:
            raise ParseError(
                f"comparison group {other} must share the order of {spec}"
            )
        _vertex_subset_budget(args, g)  # zero_sum_assignings walks the lambda family
    connected, witness = asg.is_A_connected(g, spec, budget=args.budget)
    report = {
        "command": "connectivity",
        "group": str(spec),
        "connected": connected,
        "witness": [list(v) for v in witness.values] if witness is not None else None,
    }
    code = EXIT_OK
    if other is not None:
        other_connected, _ = asg.is_A_connected(g, other, budget=args.budget)
        alphas, alphas_other = (
            {alpha for _, alpha, _ in asg.zero_sum_assignings(g, group, budget=args.budget)}
            for group in (spec, other)
        )
        hypothesis = alphas <= alphas_other
        consistent = not (other_connected and hypothesis) or connected
        report["compare"] = {
            "group": str(other),
            "connected": other_connected,
            "hypothesis_holds": hypothesis,
            "consistent": consistent,
        }
        if not consistent:
            code = EXIT_VERIFY
    report["pass"] = code == EXIT_OK
    return report, code


def cmd_decompose(args) -> tuple[dict, int]:
    g = _load_graph(args)
    spec = parse_group(args.group)
    total_nz, total_all, ok = decomposition_check(g, spec, budget=args.budget)
    m = g.edge_count
    report = {
        "command": "decompose",
        "group": str(spec),
        "m": m,
        "counts": {
            "nowhere_zero_sum": total_nz,
            "nowhere_zero_target": (spec.order - 1) ** m,
            "all_sum": total_all,
            "all_target": spec.order**m,
        },
        "pass": ok,
    }
    return report, EXIT_OK if ok else EXIT_VERIFY


def cmd_check(args) -> tuple[dict, int]:
    specs = tuple(parse_group(name) for name in args.groups.split(","))
    if args.catalog == "small":
        graphs = all_multigraphs(args.max_n, args.max_m)
    elif args.catalog == "cycles":
        graphs = [cycle(k) for k in range(3, 7) if k <= args.max_n and k <= args.max_m]
    elif args.catalog == "complete":
        graphs = [
            complete(k)
            for k in range(2, args.max_n + 1)
            if k * (k - 1) // 2 <= args.max_m
        ]
    else:
        if args.max_n < 1 or args.max_m < 0:
            raise ParseError("the random catalog needs --max-n >= 1 and --max-m >= 0")
        graphs = random_catalog(args.seed, 40, args.max_n, args.max_m)
    report_data = run_verification(graphs, specs, seed=args.seed, budget=args.budget)
    if report_data.graph_count == 0:
        raise ParseError(
            f"the {args.catalog} catalog selects no graph under "
            f"--max-n {args.max_n} --max-m {args.max_m}"
        )
    suites = [suite.as_dict() for suite in report_data.suites.values()]
    suites.append(run_classical_checks().as_dict())
    ok = all(s["failures"] == 0 for s in suites)
    report = {
        "command": "check",
        "catalog": args.catalog,
        "groups": args.groups.split(","),
        "seed": args.seed,
        "graphs": report_data.graph_count,
        "instances": report_data.instance_count,
        "suites": suites,
        "pass": ok,
    }
    return report, EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_graph_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="path to a graph document ('n m' header, edge lines)")


def _add_b_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--b-file", help="path to a boundary-function document (default: b = 0)"
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_budget_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_BUDGET,
        help="max edge functions, zero-sum boundary functions, vertex subsets "
        "and summed plan states that one enumeration may visit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowpoly",
        description="Count nowhere-zero group-valued flows of multigraphs via "
        "assigning polynomials, with brute-force cross-checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("poly", help="compute the counting polynomial")
    _add_graph_arg(p)
    p.add_argument("--group", required=True, help="group such as Z3 or Z2xZ2")
    _add_b_args(p)
    p.add_argument(
        "--algorithm",
        choices=["subset", "nbb", "both"],
        default="subset",
        help="subset expansion, broken-bond counting, or both with a cross-check",
    )
    p.add_argument("--order", help="edge order as comma-separated edge ids, least first")
    _add_budget_flag(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("flows", help="count flows by brute force and cross-check")
    _add_graph_arg(p)
    p.add_argument("--group", required=True)
    _add_b_args(p)
    p.add_argument(
        "--nowhere-zero",
        action="store_true",
        help="count nowhere-zero flows (default counts all flows)",
    )
    _add_budget_flag(p)
    p.set_defaults(func=cmd_flows)

    p = sub.add_parser("bonds", help="list bonds, optionally with compatibility data")
    _add_graph_arg(p)
    p.add_argument("--group")
    _add_b_args(p)
    p.add_argument("--order")
    _add_budget_flag(p)
    p.set_defaults(func=cmd_bonds)

    p = sub.add_parser("lambda", help="list the lambda family, optionally with assigning bits")
    _add_graph_arg(p)
    p.add_argument("--group")
    _add_b_args(p)
    _add_budget_flag(p)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("check", help="run the verification suites over a catalog")
    p.add_argument(
        "--catalog",
        choices=["small", "cycles", "complete", "random"],
        default="small",
    )
    p.add_argument("--groups", default=",".join(DEFAULT_GROUP_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-m", type=int, default=6)
    _add_budget_flag(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("connectivity", help="decide group connectivity")
    _add_graph_arg(p)
    p.add_argument("--group", required=True)
    p.add_argument("--compare", help="second group of the same order to compare")
    _add_budget_flag(p)
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("decompose", help="check the flow-count decomposition identities")
    _add_graph_arg(p)
    p.add_argument("--group", required=True)
    _add_budget_flag(p)
    p.set_defaults(func=cmd_decompose)

    return parser


# Holds no data derived from inputs; parse_args returns a fresh namespace.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        report, code = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IncompatibleError as exc:
        print(f"incompatible boundary function: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource guard: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    try:
        print(json.dumps(report, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so that the flush at
        # exit does not fail on the closed pipe too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
