"""CLI round trips, subcommand reports, exit codes, and determinism."""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from flowpoly.cli import (
    EXIT_DOMAIN,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_VERIFY,
    format_b_document,
    format_graph_document,
    main,
    parse_b_document,
    parse_graph_document,
)
import flowpoly
from flowpoly import flows
from flowpoly.abelian import parse_group
from flowpoly.errors import ParseError
from flowpoly.flows import BFunction

from conftest import multigraphs

C3_DOC = """# a triangle
3 3
0 1
1 2
2 0
"""

K2_DOC = "2 1\n0 1\n"

LOOP_DOC = "1 1\n0 0\n"


@pytest.fixture
def c3_file(tmp_path):
    target = tmp_path / "c3.graph"
    target.write_text(C3_DOC)
    return str(target)


@pytest.fixture
def k2_file(tmp_path):
    target = tmp_path / "k2.graph"
    target.write_text(K2_DOC)
    return str(target)


@pytest.fixture
def k8_file(tmp_path):
    """K8: 28 edges, whose subset expansion builds about 8000 plan states."""
    target = tmp_path / "k8.graph"
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    target.write_text(f"8 {len(pairs)}\n" + "".join(f"{i} {j}\n" for i, j in pairs))
    return str(target)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# ---------------------------------------------------------------------------
# Documents.


def test_graph_document_round_trip_example():
    g = parse_graph_document(C3_DOC)
    assert g.pairs() == ((0, 1), (1, 2), (2, 0))
    assert parse_graph_document(format_graph_document(g)) == g


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=6))
def test_graph_document_round_trip(g):
    assert parse_graph_document(format_graph_document(g)) == g


@pytest.mark.parametrize(
    "text",
    ["", "3\n", "2 1\n0 1\n1 0\n", "2 2\n0 1\n", "2 1\n0 5\n", "2 1\nx y\n"],
)
def test_graph_document_rejects(text):
    with pytest.raises(ParseError):
        parse_graph_document(text)


def test_b_document_round_trip():
    spec = parse_group("Z2xZ3")
    b = BFunction(spec, ((1, 2), (0, 0), (1, 1)))
    assert parse_b_document(format_b_document(b), spec, 3) == b


def test_b_document_rejects_bad_shapes():
    spec = parse_group("Z2xZ2")
    with pytest.raises(ParseError):
        parse_b_document("1,1\n", spec, 2)
    with pytest.raises(ParseError):
        parse_b_document("1\n0\n", spec, 2)
    with pytest.raises(ParseError):
        parse_b_document("2,0\n0,0\n", spec, 2)


# ---------------------------------------------------------------------------
# poly subcommand.


def test_poly_triangle(capsys, c3_file):
    code, report, _ = run_cli(capsys, "poly", c3_file, "--group", "Z3")
    assert code == 0
    assert report["polynomial"] == "k - 1"
    assert report["coefficients_signless"] == [1, 1]
    assert report["mG"] == 1
    assert report["pass"] is True


def test_poly_both_algorithms_agree(capsys, c3_file):
    code, report, _ = run_cli(
        capsys, "poly", c3_file, "--group", "Z3", "--algorithm", "both"
    )
    assert code == 0
    assert report["agree"] is True


def test_poly_bridge_is_zero(capsys, k2_file):
    code, report, _ = run_cli(capsys, "poly", k2_file, "--group", "Z2")
    assert code == 0
    assert report["polynomial"] == "0"
    assert report["coefficients_signless"] == [0]


def test_poly_nonzero_pair(capsys, k2_file, tmp_path):
    b_file = tmp_path / "b.txt"
    b_file.write_text("1\n1\n")
    code, report, _ = run_cli(
        capsys, "poly", k2_file, "--group", "Z2", "--b-file", str(b_file)
    )
    assert code == 0
    assert report["polynomial"] == "1"
    assert report["coefficients_signless"] == [1]


def test_poly_respects_order_flag(capsys, c3_file):
    code, report, _ = run_cli(
        capsys,
        "poly",
        c3_file,
        "--group",
        "Z3",
        "--algorithm",
        "nbb",
        "--order",
        "2,0,1",
    )
    assert code == 0
    assert report["polynomial"] == "k - 1"


def test_poly_incompatible_b_exits_domain(capsys, k2_file, tmp_path):
    b_file = tmp_path / "b.txt"
    b_file.write_text("1\n0\n")
    code, report, err = run_cli(
        capsys, "poly", k2_file, "--group", "Z2", "--b-file", str(b_file)
    )
    assert code == EXIT_DOMAIN
    assert report is None
    assert "component" in err


@pytest.mark.parametrize(
    "argv, walks",
    [
        (("poly",), 1),
        (("poly", "--algorithm", "nbb"), 1),
        (("poly", "--algorithm", "both"), 2),
        (("bonds",), 2),
    ],
    ids=["poly", "poly-nbb", "poly-both", "bonds"],
)
def test_one_compatibility_walk_per_route(capsys, monkeypatch, c3_file, tmp_path, argv, walks):
    # The commands leave the compatibility check to the library calls, each
    # of which walks the components once; an incompatible b still exits 3.
    calls = []
    walk = flows.incompatible_component

    def counting(g, b):
        calls.append(g)
        return walk(g, b)

    monkeypatch.setattr(flows, "incompatible_component", counting)
    command, *flags = argv
    code, _, _ = run_cli(capsys, command, c3_file, "--group", "Z2", *flags)
    assert code == 0
    assert len(calls) == walks
    b_file = tmp_path / "b.txt"
    b_file.write_text("1\n0\n0\n")
    code, report, err = run_cli(
        capsys, command, c3_file, "--group", "Z2", "--b-file", str(b_file), *flags
    )
    assert code == EXIT_DOMAIN
    assert report is None
    assert err == (
        "incompatible boundary function: component [0, 1, 2] sums to (1,), "
        "expected the group zero\n"
    )


def test_poly_k8_honours_budget(capsys, k8_file):
    code, report, err = run_cli(
        capsys, "poly", k8_file, "--group", "Z3", "--budget", "1000"
    )
    assert code == EXIT_RESOURCE
    assert report is None
    assert "resource guard" in err


def test_poly_group_above_the_table_limit_exits_resource(capsys, k2_file):
    code, report, err = run_cli(capsys, "poly", k2_file, "--group", "Z2049")
    assert code == EXIT_RESOURCE
    assert report is None
    assert "too large for table-based enumeration" in err


@pytest.mark.parametrize(
    "flags",
    [["--algorithm", "subset"], ["--algorithm", "nbb", "--budget", str(1 << 545)]],
    ids=["subset", "nbb"],
)
def test_poly_block_labels_past_sys_maxunicode_exit_resource(capsys, tmp_path, flags):
    # 544 vertices over Z2048 need labels up to 544 * 2048 = sys.maxunicode + 1.
    # The nbb route first checks its 2^544 vertex subsets against --budget.
    target = tmp_path / "path544.graph"
    target.write_text("544 543\n" + "".join(f"{v} {v + 1}\n" for v in range(543)))
    code, report, err = run_cli(capsys, "poly", str(target), "--group", "Z2048", *flags)
    assert code == EXIT_RESOURCE
    assert report is None
    assert err == "resource guard: 544 vertices over Z2048 overflow the block labels\n"


def _wheel_file(tmp_path, rim: int, extra: int = 0) -> str:
    """The wheel with rim vertices 0..rim-1 and hub rim, plus extra hub loops."""
    pairs = [(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)]
    pairs += [(rim, rim)] * extra
    target = tmp_path / f"w{rim}.graph"
    target.write_text(f"{rim + 1} {len(pairs)}\n" + "".join(f"{t} {h}\n" for t, h in pairs))
    return str(target)


# (k - 2)^12 + (k - 2), the nowhere-zero flow polynomial of W12
W12_CLOSED_FORM = (
    "k^12 - 24k^11 + 264k^10 - 1760k^9 + 7920k^8 - 25344k^7 + 59136k^6"
    " - 101376k^5 + 126720k^4 - 112640k^3 + 67584k^2 - 24575k + 4094"
)


def test_poly_subset_w12_closed_form(capsys, tmp_path):
    code, report, _ = run_cli(
        capsys, "poly", _wheel_file(tmp_path, 12), "--group", "Z3", "--algorithm", "subset"
    )
    assert code == 0
    assert report["m"] == 24
    assert report["polynomial"] == W12_CLOSED_FORM


def test_poly_nbb_w12_closed_form(capsys, tmp_path):
    code, report, _ = run_cli(
        capsys, "poly", _wheel_file(tmp_path, 12), "--group", "Z3", "--algorithm", "nbb"
    )
    assert code == 0
    assert report["m"] == 24
    assert report["polynomial"] == W12_CLOSED_FORM


def test_poly_w12_hub_loop_needs_no_flag(capsys, tmp_path):
    graph = _wheel_file(tmp_path, 12, extra=1)
    code, report, _ = run_cli(
        capsys, "poly", graph, "--group", "Z3", "--algorithm", "subset"
    )
    assert code == 0
    assert report["m"] == 25
    # W12_CLOSED_FORM times k - 1, the factor of the loop
    assert report["polynomial"] == (
        "k^13 - 25k^12 + 288k^11 - 2024k^10 + 9680k^9 - 33264k^8 + 84480k^7"
        " - 160512k^6 + 228096k^5 - 239360k^4 + 180224k^3 - 92159k^2 + 28669k - 4094"
    )


def test_poly_k8_both_routes_agree(capsys, k8_file):
    code, report, _ = run_cli(
        capsys, "poly", k8_file, "--group", "Z3", "--algorithm", "both"
    )
    assert code == 0
    assert report["agree"] is True


def _grid_file(tmp_path, side: int) -> str:
    """The side x side grid, vertex r * side + c at row r and column c."""
    pairs = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    pairs += [(v, v + side) for v in range(side * (side - 1))]
    target = tmp_path / f"grid{side}.graph"
    target.write_text(
        f"{side * side} {len(pairs)}\n" + "".join(f"{t} {h}\n" for t, h in pairs)
    )
    return str(target)


def test_poly_grid6_subset_runs_and_nbb_walks_vertex_subsets(capsys, tmp_path):
    graph = _grid_file(tmp_path, 6)
    code, report, _ = run_cli(capsys, "poly", graph, "--group", "Z2", "--algorithm", "subset")
    assert code == 0
    assert report["mG"] == 25
    # the bond sides broken-bond counting walks are bounded by 2^36 vertex subsets
    code, report, err = run_cli(capsys, "poly", graph, "--group", "Z2", "--algorithm", "both")
    assert code == EXIT_RESOURCE
    assert report is None
    assert "2^36 vertex subsets" in err


def test_poly_nbb_relabelled_k9_counts_under_the_plan_order(capsys, tmp_path):
    # With no --order, broken-bond counting follows the edge plan; under the
    # edge ids of this relabelling it builds more than 20000 plan states.
    pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    rng = random.Random(3)
    label = list(range(9))
    rng.shuffle(label)
    pairs = [(label[t], label[h]) for t, h in pairs]
    rng.shuffle(pairs)
    graph = tmp_path / "k9.graph"
    graph.write_text(f"9 {len(pairs)}\n" + "".join(f"{t} {h}\n" for t, h in pairs))
    code, report, _ = run_cli(
        capsys, "poly", str(graph), "--group", "Z3", "--algorithm", "nbb", "--budget", "20000"
    )
    assert code == 0
    assert report["mG"] == 28


def test_poly_nbb_honours_vertex_subset_budget(capsys, tmp_path):
    graph = tmp_path / "path30.graph"
    graph.write_text("30 29\n" + "".join(f"{i} {i + 1}\n" for i in range(29)))
    code, report, err = run_cli(
        capsys, "poly", str(graph), "--group", "Z2", "--algorithm", "nbb", "--budget", "1000"
    )
    assert code == EXIT_RESOURCE
    assert report is None
    assert "2^30 vertex subsets" in err


# ---------------------------------------------------------------------------
# flows subcommand.


def test_flows_loop_nowhere_zero(capsys, tmp_path):
    graph = tmp_path / "loop.graph"
    graph.write_text(LOOP_DOC)
    code, report, _ = run_cli(
        capsys, "flows", str(graph), "--group", "Z3", "--nowhere-zero"
    )
    assert code == 0
    assert report["counts"] == {"bruteforce": 2, "polynomial": 2}
    assert report["agree"] is True


def test_flows_nowhere_zero_long_cycle(capsys, tmp_path):
    target = tmp_path / "c1001.graph"
    target.write_text("1001 1001\n" + "".join(f"{i} {(i + 1) % 1001}\n" for i in range(1001)))
    code, report, _ = run_cli(capsys, "flows", str(target), "--group", "Z2", "--nowhere-zero")
    assert code == 0
    assert report["counts"] == {"bruteforce": 1, "polynomial": 1}
    assert report["agree"] is True


def test_flows_triangle_z2(capsys, c3_file):
    code, report, _ = run_cli(
        capsys, "flows", c3_file, "--group", "Z2", "--nowhere-zero"
    )
    assert code == 0
    assert report["counts"]["bruteforce"] == 1


def test_flows_all_flows_formula(capsys, c3_file):
    code, report, _ = run_cli(capsys, "flows", c3_file, "--group", "Z3")
    assert code == 0
    assert report["counts"] == {"bruteforce": 3, "formula": 3}


def test_flows_budget_exit(capsys, c3_file):
    code, report, err = run_cli(
        capsys, "flows", c3_file, "--group", "Z4", "--nowhere-zero", "--budget", "3"
    )
    assert code == EXIT_RESOURCE
    assert "budget" in err


def test_flows_nowhere_zero_k8_honours_budget(capsys, k8_file):
    # Over Z2 the brute-force guard sees (|A| - 1)^m = 1 step; the plan states remain.
    code, report, err = run_cli(
        capsys, "flows", k8_file, "--group", "Z2", "--nowhere-zero", "--budget", "1000"
    )
    assert code == EXIT_RESOURCE
    assert report is None
    assert "resource guard" in err


# ---------------------------------------------------------------------------
# bonds and lambda subcommands.


def test_bonds_triangle(capsys, c3_file):
    code, report, _ = run_cli(capsys, "bonds", c3_file)
    assert code == 0
    assert report["bonds"] == [[0, 1], [0, 2], [1, 2]]


def test_bonds_with_b(capsys, k2_file):
    code, report, _ = run_cli(capsys, "bonds", k2_file, "--group", "Z2")
    assert code == 0
    assert report["b_compatible_bonds"] == [[0]]
    assert report["broken_bonds"] == [[]]


def test_bonds_rejects_bad_order_without_group(capsys, c3_file):
    code, report, err = run_cli(capsys, "bonds", c3_file, "--order", "9,9,9")
    assert code == EXIT_PARSE
    assert report is None
    assert "not a permutation" in err


def test_lambda_triangle(capsys, c3_file):
    code, report, _ = run_cli(capsys, "lambda", c3_file, "--group", "Z3")
    assert code == 0
    assert report["lambda"] == [[0], [0, 1], [0, 2], [1], [1, 2], [2]]
    assert report["alpha"] == [0] * 6


def test_lambda_path30_honours_budget(capsys, tmp_path):
    graph = tmp_path / "path30.graph"
    graph.write_text("30 29\n" + "".join(f"{i} {i + 1}\n" for i in range(29)))
    code, _, err = run_cli(capsys, "lambda", str(graph), "--budget", "1000")
    assert code == EXIT_RESOURCE
    assert "resource guard" in err


def test_bonds_honours_budget(capsys, tmp_path):
    # The check bounds the bond sides by 2^30 vertex subsets; a path has 29.
    graph = tmp_path / "path30.graph"
    graph.write_text("30 29\n" + "".join(f"{i} {i + 1}\n" for i in range(29)))
    code, report, err = run_cli(capsys, "bonds", str(graph), "--budget", "1000")
    assert code == EXIT_RESOURCE
    assert report is None
    assert "2^30 vertex subsets" in err


def test_lambda_isolated_vertex(capsys, tmp_path):
    graph = tmp_path / "v.graph"
    graph.write_text("1 0\n")
    code, report, _ = run_cli(capsys, "lambda", str(graph))
    assert code == 0
    assert report["lambda"] == []


# ---------------------------------------------------------------------------
# connectivity and decompose subcommands.


def test_connectivity_bridge(capsys, k2_file):
    code, report, _ = run_cli(capsys, "connectivity", k2_file, "--group", "Z4")
    assert code == 0
    assert report["connected"] is False
    assert report["witness"] == [[0], [0]]


def test_connectivity_loop(capsys, tmp_path):
    graph = tmp_path / "loop.graph"
    graph.write_text(LOOP_DOC)
    code, report, _ = run_cli(capsys, "connectivity", str(graph), "--group", "Z2")
    assert code == 0
    assert report["connected"] is True
    assert report["witness"] is None


def test_connectivity_compare_groups(capsys, c3_file):
    code, report, _ = run_cli(
        capsys, "connectivity", c3_file, "--group", "Z4", "--compare", "Z2xZ2"
    )
    assert code == 0
    assert report["compare"]["consistent"] is True


def test_connectivity_compare_rejects_order_mismatch(capsys, c3_file):
    # A budget of 1 would stop the vertex-subset guard and is_A_connected,
    # so the mismatch must be reported before either runs.
    code, _, err = run_cli(
        capsys, "connectivity", c3_file, "--group", "Z4", "--compare", "Z3",
        "--budget", "1",
    )
    assert code == EXIT_PARSE
    assert "must share the order" in err


def test_connectivity_k8_honours_budget(capsys, k8_file):
    code, report, err = run_cli(
        capsys, "connectivity", k8_file, "--group", "Z2", "--budget", "1000"
    )
    assert code == EXIT_RESOURCE
    assert report is None
    assert "resource guard" in err


def test_connectivity_compare_honours_budget(capsys, tmp_path):
    # No edges, so one zero-sum b and no plan states; the lambda family
    # walked for --compare is bounded by 2^25 vertex subsets.
    graph = tmp_path / "isolated25.graph"
    graph.write_text("25 0\n")
    code, report, err = run_cli(
        capsys, "connectivity", str(graph), "--group", "Z2", "--compare", "Z2",
        "--budget", "1000",
    )
    assert code == EXIT_RESOURCE
    assert report is None
    assert "2^25 vertex subsets" in err


def test_connectivity_budget_caps_boundary_functions(capsys, tmp_path):
    # A 20-cycle over Z3: its 2^20 edge functions fit the default budget,
    # the 3^19 zero-sum boundary functions do not.
    graph = tmp_path / "c20.graph"
    graph.write_text("20 20\n" + "".join(f"{i} {(i + 1) % 20}\n" for i in range(20)))
    code, report, err = run_cli(capsys, "connectivity", str(graph), "--group", "Z3")
    assert code == EXIT_RESOURCE
    assert report is None
    assert "zero-sum boundary functions" in err


def test_decompose_honours_budget(capsys, tmp_path):
    # A 30-edge perfect matching over Z2: (|A| - 1)^m = 1 edge function,
    # but |A|^(n - c) = 2^30 zero-sum boundary functions.
    graph = tmp_path / "matching30.graph"
    graph.write_text("60 30\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(30)))
    code, report, err = run_cli(
        capsys, "decompose", str(graph), "--group", "Z2", "--budget", "1000"
    )
    assert code == EXIT_RESOURCE
    assert report is None
    assert "zero-sum boundary functions" in err


def test_decompose(capsys, c3_file):
    code, report, _ = run_cli(capsys, "decompose", c3_file, "--group", "Z2")
    assert code == 0
    assert report["counts"] == {
        "nowhere_zero_sum": 1,
        "nowhere_zero_target": 1,
        "all_sum": 8,
        "all_target": 8,
    }


# ---------------------------------------------------------------------------
# check subcommand.


def test_check_tiny_catalog(capsys):
    code, report, _ = run_cli(
        capsys, "check", "--catalog", "small", "--max-n", "2", "--max-m", "3"
    )
    assert code == 0
    assert report["pass"] is True
    names = {suite["name"] for suite in report["suites"]}
    assert "oracle_equivalence" in names
    assert "classical_specialization" in names


def test_check_cycles_catalog(capsys):
    code, report, _ = run_cli(
        capsys, "check", "--catalog", "cycles", "--groups", "Z5", "--max-m", "5"
    )
    assert code == 0
    assert report["pass"] is True


def test_check_cycles_catalog_honours_max_n(capsys):
    code, report, _ = run_cli(capsys, "check", "--catalog", "cycles", "--groups", "Z2", "--max-n", "3")
    assert code == 0
    assert report["graphs"] == 1


def test_check_honours_budget(capsys):
    code, report, err = run_cli(
        capsys, "check", "--catalog", "complete", "--max-n", "4", "--budget", "1"
    )
    assert code == EXIT_RESOURCE
    assert report is None
    assert "resource guard" in err


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("subcommand", ["poly", "check"])
def test_budget_below_one_is_a_parse_error(capsys, c3_file, subcommand, value):
    argv = [c3_file, "--group", "Z3"] if subcommand == "poly" else ["--catalog", "cycles"]
    with pytest.raises(SystemExit) as exc:
        main([subcommand, *argv, "--budget", value])
    assert exc.value.code == EXIT_PARSE
    assert f"--budget: must be >= 1, got {value}" in capsys.readouterr().err


# b = 0 needs no flag: "--b" is ambiguous between --b-file and --budget, or
# abbreviates --budget where there is no --b-file.
NO_SUCH_FLAGS = [["--force"], ["--b", "zero"]]


def test_check_has_no_force_flag(capsys):
    for flag in NO_SUCH_FLAGS:
        with pytest.raises(SystemExit) as exc:
            main(["check", *flag])
        assert exc.value.code == EXIT_PARSE
        assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand", ["poly", "flows", "bonds", "lambda", "connectivity", "decompose"]
)
def test_graph_subcommands_have_no_force_flag(capsys, c3_file, subcommand):
    for flag in NO_SUCH_FLAGS:
        with pytest.raises(SystemExit) as exc:
            main([subcommand, c3_file, "--group", "Z3", *flag])
        assert exc.value.code == EXIT_PARSE
        assert flag[0] in capsys.readouterr().err


def test_b_file_does_not_carry_over_to_the_next_call(capsys, k2_file, tmp_path):
    # main parses with one parser built at import; each call starts afresh.
    b_file = tmp_path / "ones.b"
    b_file.write_text("1\n1\n")
    code, report, _ = run_cli(capsys, "lambda", k2_file, "--group", "Z2", "--b-file", str(b_file))
    assert code == 0
    assert report["alpha"] == [1, 1]
    code, report, _ = run_cli(capsys, "lambda", k2_file, "--group", "Z2")
    assert code == 0
    assert report["alpha"] == [0, 0]


@pytest.mark.parametrize("bound", [["--max-n", "0"], ["--max-m", "-1"]])
def test_check_random_rejects_empty_size_bounds(capsys, bound):
    code, report, err = run_cli(capsys, "check", "--catalog", "random", *bound)
    assert code == EXIT_PARSE
    assert report is None
    assert "--max-n >= 1 and --max-m >= 0" in err


@pytest.mark.parametrize(
    "selection",
    [
        ["--catalog", "small", "--max-n", "-1"],
        ["--catalog", "small", "--max-m", "-1"],
        ["--catalog", "complete", "--max-n", "1"],
        ["--catalog", "cycles", "--max-m", "2"],
        ["--catalog", "cycles", "--max-n", "2"],
    ],
)
def test_check_rejects_an_empty_catalog(capsys, selection):
    code, report, err = run_cli(capsys, "check", *selection)
    assert code == EXIT_PARSE
    assert report is None
    assert "selects no graph" in err


def test_check_rejects_trivial_group(capsys):
    code, report, err = run_cli(capsys, "check", "--groups", "Z1", "--max-n", "1")
    assert code == EXIT_PARSE
    assert report is None
    assert "order >= 2" in err


def test_check_random_graphs_above_ten_edges(capsys):
    code, report, _ = run_cli(
        capsys, "check", "--catalog", "random", "--max-n", "5", "--max-m", "12"
    )
    assert code == 0
    suites = {suite["name"]: suite for suite in report["suites"]}
    assert suites["inclusion_lemma"]["skipped"] > 0
    assert suites["broken_bond_pairing"]["skipped"] > 0


def test_check_is_byte_deterministic(capsys):
    args = ["check", "--catalog", "random", "--seed", "9", "--max-n", "3", "--max-m", "4"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# Error mapping.


def test_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    code, _, err = run_cli(capsys, "poly", str(bad), "--group", "Z2")
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_missing_file_is_parse_error(capsys):
    code, _, _ = run_cli(capsys, "poly", "/nonexistent.graph", "--group", "Z2")
    assert code == EXIT_PARSE


def test_bad_group_is_parse_error(capsys, c3_file):
    code, _, _ = run_cli(capsys, "poly", c3_file, "--group", "Q8")
    assert code == EXIT_PARSE


def test_verification_failure_exit(capsys, c3_file, monkeypatch):
    import flowpoly.cli as cli

    monkeypatch.setattr(cli, "count_nz_flows_bruteforce", lambda g, b, budget: 99)
    code, report, _ = run_cli(
        capsys, "flows", c3_file, "--group", "Z2", "--nowhere-zero"
    )
    assert code == EXIT_VERIFY
    assert report["agree"] is False


def test_closed_pipe_ends_without_a_traceback(tmp_path):
    # A reader that stops after one line, as in "flowpoly bonds g | head -1",
    # closes the pipe while the report is still being written: K11's bonds
    # report runs to about 290 kB, well past a pipe buffer.
    pairs = [(i, j) for i in range(11) for j in range(i + 1, 11)]
    graph = tmp_path / "k11.graph"
    graph.write_text(f"11 {len(pairs)}\n" + "".join(f"{t} {h}\n" for t, h in pairs))
    src = str(Path(flowpoly.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "flowpoly.cli", "bonds", str(graph)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


def _limit_address_space() -> None:
    limit = 400_000_000
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("command", ["flows", "poly", "decompose", "connectivity"])
def test_out_of_memory_is_a_resource_guard(tmp_path, command):
    # 30 million vertices overrun a 400 MB address space, in the zero b or
    # the adjacency lists; the command must end with exit 4, not a traceback.
    graph = tmp_path / "huge.graph"
    graph.write_text("30000000 0\n")
    src = str(Path(flowpoly.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flowpoly.cli", command, str(graph), "--group", "Z2"],
        capture_output=True,
        env=env,
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert proc.returncode == EXIT_RESOURCE, proc.stderr
    assert b"Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr == b"resource guard: out of memory\n"
