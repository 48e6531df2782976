"""The benchmark's three workloads: inputs, one timed operation, and checks.

Each workload builds plain-data operations from the seed in ``setup``;
``prepare`` turns one into fresh flowpoly objects outside the timed region
(so no per-instance state survives from one repeat to the next), ``run``
is the timed call, ``summarize`` reduces its output to plain data, and
``check`` tests the summaries against the reference code and against
properties every correct answer has.  ``check`` returns a list of
problems, empty when every output is right.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import reference as ref
from flowpoly import assigning, catalog, cli, flows, graphs, harness
from flowpoly.abelian import parse_group

# Reference flow counts are skipped above this many state extensions.
MAX_REF_STEPS = 2_000_000


def _random_zero_sum(rng: random.Random, group: ref.Group, n: int, pairs, nonzero: bool):
    """Element indices summing to zero on every component; nonzero if asked."""
    while True:
        b = [rng.randrange(group.order) for _ in range(n)]
        for block in ref.components(n, pairs):
            total = 0
            for v in block[:-1]:
                total = group.add[total][b[v]]
            b[block[-1]] = group.neg[total]
        if not nonzero or any(b):
            return b


def _check_count(problems: list[str], label: str, n: int, pairs, group_name: str, b, coeffs):
    """Compare the polynomial's value at |A| with the reference count;
    False when the count is over budget and was skipped."""
    group = ref.Group(ref.group_orders(group_name))
    expected = ref.count_nz_flows(n, pairs, group, b, MAX_REF_STEPS)
    if expected is None:
        return False
    got = ref.poly_eval(coeffs, group.order)
    if got != expected:
        problems.append(f"{label}: value {got} at |A|={group.order}, reference count {expected}")
    return True


# ---------------------------------------------------------------------------


class Sweep:
    """run_verification on single graphs of a fixed stride of the catalog."""

    name = "sweep"
    groups = ("Z2", "Z3", "Z4", "Z2xZ2")

    def __init__(self, seed: int, short: bool) -> None:
        self.seed = seed
        self.stride = 401 if short else 64

    def setup(self, workdir: Path) -> list:
        graphs_ = list(catalog.all_multigraphs(4, 6))
        ops = [(g.vertex_count, g.pairs()) for g in graphs_[:: self.stride]]
        random.Random(self.seed).shuffle(ops)
        return ops

    def prepare(self, op):
        n, pairs = op
        return graphs.MultiGraph.from_pairs(n, pairs), tuple(parse_group(x) for x in self.groups)

    def run(self, args):
        g, specs = args
        return harness.run_verification([g], specs, seed=self.seed)

    def summarize(self, report) -> dict:
        return {
            "graphs": report.graph_count,
            "instances": report.instance_count,
            "suites": {name: [s.checked, s.failures] for name, s in report.suites.items()},
        }

    def check(self, ops, outputs) -> list[str]:
        problems: list[str] = []
        checked: dict[str, int] = {}
        orders = [ref.Group(ref.group_orders(x)).order for x in self.groups]
        for (n, pairs), out in zip(ops, outputs):
            if out is None:
                continue
            label = f"graph n={n} edges={list(pairs)}"
            c = ref.component_count(n, pairs)
            expected = sum(k ** (n - c) for k in orders)
            if out["graphs"] != 1 or out["instances"] != expected:
                problems.append(f"{label}: {out['instances']} instances, expected {expected}")
            for name, (count, failures) in out["suites"].items():
                checked[name] = checked.get(name, 0) + count
                if failures:
                    problems.append(f"{label}: suite {name} reports {failures} failures")
        if not checked:
            problems.append("no suite was reported")
        for name, count in checked.items():
            if count == 0:
                problems.append(f"suite {name} checked nothing")
        return problems


# ---------------------------------------------------------------------------


def wheel(rim: int) -> tuple[int, list]:
    return rim + 1, [(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)]


def prism(size: int) -> tuple[int, list]:
    outer = [(i, (i + 1) % size) for i in range(size)]
    inner = [(size + i, size + (i + 1) % size) for i in range(size)]
    return 2 * size, outer + inner + [(i, size + i) for i in range(size)]


def cube() -> tuple[int, list]:
    return 8, [(a, a ^ bit) for a in range(8) for bit in (1, 2, 4) if a < a ^ bit]


def petersen() -> tuple[int, list]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + inner + [(i, 5 + i) for i in range(5)]


def complete_graph(n: int) -> tuple[int, list]:
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_bipartite(a: int, b: int) -> tuple[int, list]:
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


class PolyLarge:
    """`flowpoly poly --algorithm both` in-process on named 11-16 edge graphs."""

    name = "poly_large"
    zero_group = "Z3"
    nonzero_groups = ("Z3", "Z2xZ2", "Z5", "Z2xZ3")

    def __init__(self, seed: int, short: bool) -> None:
        self.seed = seed
        self.graphs = {"W6": wheel(6), "prism3": prism(3)} if short else {
            "W6": wheel(6),
            "W7": wheel(7),
            "W8": wheel(8),
            "prism5": prism(5),
            "Q3": cube(),
            "petersen": petersen(),
            "K6": complete_graph(6),
            "K3,4": complete_bipartite(3, 4),
        }

    def setup(self, workdir: Path) -> list:
        """Per graph: b = 0 and one nonzero b per group, written to workdir.

        The nonzero b are drawn from a fixed stream, not from the seed: how
        many bonds a b makes compatible sets how much poly_nbb prunes (on
        W8 one call took 0.26 s to 0.65 s across four b), which would add
        to the spread between seeds.  The seed relabels the vertices and
        orients the edges; that leaves the work and the edge order alone.
        """
        rng = random.Random(self.seed)
        fixed = random.Random("poly_large")
        ops = []
        for name, (n, base) in self.graphs.items():
            label = list(range(n))
            rng.shuffle(label)
            pairs = [(label[t], label[h]) for t, h in base]
            pairs = [(h, t) if rng.random() < 0.5 else (t, h) for t, h in pairs]
            graph_path = workdir / f"{name}.graph"
            lines = [f"{n} {len(pairs)}"] + [f"{t} {h}" for t, h in pairs]
            graph_path.write_text("\n".join(lines) + "\n")
            ops.append(self._op(name, n, pairs, self.zero_group, [0] * n, graph_path, None))
            for group_name in self.nonzero_groups:
                group = ref.Group(ref.group_orders(group_name))
                drawn = _random_zero_sum(fixed, group, n, base, True)
                b = [0] * n
                for v, value in enumerate(drawn):
                    b[label[v]] = value
                b_path = workdir / f"{name}.{group_name}.b"
                b_path.write_text("".join(",".join(map(str, group.residues(x))) + "\n" for x in b))
                ops.append(self._op(name, n, pairs, group_name, b, graph_path, b_path))
        return ops

    @staticmethod
    def _op(name, n, pairs, group_name, b, graph_path, b_path) -> dict:
        argv = ["poly", str(graph_path), "--group", group_name, "--algorithm", "both"]
        if b_path is not None:
            argv += ["--b-file", str(b_path)]
        return {"graph": name, "n": n, "pairs": pairs, "group": group_name, "b": b, "argv": argv}

    def prepare(self, op):
        return list(op["argv"])

    def run(self, argv):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue()

    def summarize(self, output) -> dict:
        code, text = output
        if code != 0:
            raise RuntimeError(f"flowpoly poly exited with code {code}")
        report = json.loads(text)
        return {
            "code": code,
            "agree": report.get("agree"),
            "mG": report["mG"],
            "signless": report["coefficients_signless"],
        }

    def check(self, ops, outputs) -> list[str]:
        problems: list[str] = []
        zero_signless: dict[str, list[int]] = {}
        z3_unchecked = 0
        for op, out in zip(ops, outputs):
            if out is not None and not any(op["b"]):
                zero_signless[op["graph"]] = out["signless"]
        for op, out in zip(ops, outputs):
            if out is None:
                continue
            label = f"{op['graph']} over {op['group']} b={op['b']}"
            n, pairs = op["n"], op["pairs"]
            if out["code"] != 0 or out["agree"] is not True:
                problems.append(f"{label}: exit {out['code']}, agree={out['agree']}")
            top = ref.cycle_rank(n, pairs)
            if out["mG"] != top or len(out["signless"]) != top + 1:
                problems.append(f"{label}: cycle rank {out['mG']}, reference {top}")
                continue
            coeffs = ref.from_signless(out["signless"], top)
            done = _check_count(problems, label, n, pairs, op["group"], op["b"], coeffs)
            if not done and op["group"] == "Z3":
                z3_unchecked += 1
            if op["graph"].startswith("W") and not any(op["b"]):
                expected = ref.wheel_flow_poly(n - 1)
                if coeffs != expected:
                    problems.append(f"{label}: {coeffs} is not the wheel closed form {expected}")
            zero = zero_signless.get(op["graph"])
            if zero is None:
                problems.append(f"{label}: no b = 0 answer to compare with")
            elif any(a0 > ab for a0, ab in zip(zero, out["signless"])):
                problems.append(
                    f"{label}: signless {out['signless']} below the b = 0 coefficients {zero}"
                )
        if z3_unchecked:
            problems.append(f"{z3_unchecked} Z3 inputs exceeded the reference count budget")
        return problems


# ---------------------------------------------------------------------------


class PolySmall:
    """Both algorithms on a seeded stream of distinct small random multigraphs."""

    name = "poly_small"
    groups = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "Z2xZ3", "Z3xZ3")

    def __init__(self, seed: int, short: bool) -> None:
        self.seed = seed
        self.per_class = 1 if short else 16
        self.max_edges = 6 if short else 10

    def setup(self, workdir: Path) -> list:
        """per_class graphs for every vertex count 1..7 and edge count
        0..max_edges, so each seed gives the same mix of sizes."""
        rng = random.Random(self.seed)
        seen = set()
        ops = []
        for n in range(1, 8):
            for m in range(self.max_edges + 1):
                made = 0
                # Small classes hold fewer distinct graphs than asked for.
                for _ in range(50 * self.per_class):
                    if made == self.per_class:
                        break
                    pairs = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
                    if (n, pairs) in seen:
                        continue
                    seen.add((n, pairs))
                    group_name = rng.choice(self.groups)
                    group = ref.Group(ref.group_orders(group_name))
                    b = _random_zero_sum(rng, group, n, pairs, False)
                    order = list(range(m))
                    rng.shuffle(order)
                    ops.append({"n": n, "pairs": pairs, "group": group_name, "b": b,
                                "residues": [group.residues(x) for x in b], "order": order})
                    made += 1
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        g = graphs.MultiGraph.from_pairs(op["n"], op["pairs"])
        spec = parse_group(op["group"])
        b = flows.BFunction(spec, tuple(op["residues"]))
        return g, b, assigning.EdgeOrder(tuple(op["order"]))

    def run(self, args):
        g, b, order = args
        return assigning.poly_subset_expansion(g, b), assigning.poly_nbb(g, b, order)

    def summarize(self, output) -> dict:
        subset, nbb = output
        return {"subset": list(subset.coefficients), "nbb": list(nbb.coefficients)}

    def check(self, ops, outputs) -> list[str]:
        problems: list[str] = []
        for op, out in zip(ops, outputs):
            if out is None:
                continue
            n, pairs = op["n"], op["pairs"]
            label = f"n={n} edges={list(pairs)} over {op['group']} b={op['b']}"
            if out["subset"] != out["nbb"]:
                problems.append(f"{label}: subset {out['subset']} != nbb {out['nbb']} "
                                f"under order {op['order']}")
            rank = ref.cycle_rank(n, pairs)
            if ref.degree(out["subset"]) > rank:
                problems.append(f"{label}: degree above the cycle rank {rank}")
            _check_count(problems, label, n, pairs, op["group"], op["b"], out["subset"])
        return problems


WORKLOADS = {w.name: w for w in (Sweep, PolyLarge, PolySmall)}
