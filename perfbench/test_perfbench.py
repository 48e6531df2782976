"""Tests of the benchmark itself: reference code, checks, tracing, short runs.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import reference as ref  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

run.import_flowpoly()

import workloads  # noqa: E402
from tracer import CacheSet, Tracer  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def naive_nz_count(n, pairs, group, b):
    """Enumerate every nowhere-zero edge function and compare boundaries."""
    total = 0
    for values in itertools.product(range(1, group.order), repeat=len(pairs)):
        acc = [0] * n
        for (t, h), a in zip(pairs, values):
            acc[h] = group.add[acc[h]][a]
            acc[t] = group.add[acc[t]][group.neg[a]]
        total += acc == list(b)
    return total


SMALL_GRAPHS = [
    (1, [(0, 0)]),
    (2, [(0, 1), (0, 1), (1, 0)]),
    (3, [(0, 1), (1, 2), (2, 0), (1, 1)]),
    (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    (4, [(0, 1), (0, 1), (2, 3), (2, 3), (3, 2)]),
    (3, [(0, 1), (1, 2)]),
]


@pytest.mark.parametrize("n,pairs", SMALL_GRAPHS)
@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z2xZ2", "Z5"])
def test_reference_count_matches_enumeration(n, pairs, name):
    group = ref.Group(ref.group_orders(name))
    for b in itertools.product(range(group.order), repeat=n):
        assert ref.count_nz_flows(n, pairs, group, list(b), 10**6) == naive_nz_count(
            n, pairs, group, b
        )


def test_reference_count_gives_up_above_budget():
    n, pairs = workloads.petersen()
    group = ref.Group((5,))
    assert ref.count_nz_flows(n, pairs, group, [0] * n, 10) is None


def test_component_count_and_cycle_rank():
    assert ref.component_count(0, []) == 0
    assert ref.component_count(5, [(0, 1), (3, 4), (4, 3), (2, 2)]) == 3
    assert ref.components(5, [(0, 1), (3, 4), (2, 2)]) == [[0, 1], [2], [3, 4]]
    assert ref.cycle_rank(*workloads.petersen()) == 6


def test_wheel_closed_form():
    assert ref.wheel_flow_poly(3) == [-6, 11, -6, 1]  # W3 is K4
    for rim in (4, 5, 6):
        n, pairs = workloads.wheel(rim)
        for k in (3, 4, 5):
            group = ref.Group((k,))
            count = ref.count_nz_flows(n, pairs, group, [0] * n, 10**7)
            assert ref.poly_eval(ref.wheel_flow_poly(rim), k) == count


def outputs_of(workload, workdir):
    """Ops and first-round summaries of a short workload, run untimed."""
    ops = workload.setup(workdir)
    return workload, ops, [workload.summarize(workload.run(workload.prepare(op))) for op in ops]


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    return outputs_of(workloads.Sweep(3, True), tmp_path_factory.mktemp("sweep"))


@pytest.fixture(scope="module")
def large_outputs(tmp_path_factory):
    return outputs_of(workloads.PolyLarge(3, True), tmp_path_factory.mktemp("large"))


@pytest.fixture(scope="module")
def small_outputs(tmp_path_factory):
    return outputs_of(workloads.PolySmall(3, True), tmp_path_factory.mktemp("small"))


def test_sweep_check_rejects_corruption(sweep_outputs):
    workload, ops, outputs = sweep_outputs
    assert workload.check(ops, outputs) == []
    bad = copy.deepcopy(outputs)
    bad[0]["instances"] += 1
    assert any("instances" in p for p in workload.check(ops, bad))
    bad = copy.deepcopy(outputs)
    bad[1]["suites"]["decomposition"][1] = 1
    assert any("reports 1 failures" in p for p in workload.check(ops, bad))
    bad = copy.deepcopy(outputs)
    for out in bad:
        out["suites"]["inclusion_lemma"][0] = 0
    assert any("checked nothing" in p for p in workload.check(ops, bad))


def _find(ops, outputs, graph, zero):
    return next(i for i, op in enumerate(ops) if op["graph"] == graph and any(op["b"]) != zero)


def test_poly_large_check_rejects_corruption(large_outputs):
    workload, ops, outputs = large_outputs
    assert workload.check(ops, outputs) == []
    i = _find(ops, outputs, "prism3", zero=False)

    bad = copy.deepcopy(outputs)
    bad[i]["signless"][-1] += 1
    assert any("reference count" in p for p in workload.check(ops, bad))

    bad = copy.deepcopy(outputs)
    bad[i]["agree"] = False
    assert any("agree=False" in p for p in workload.check(ops, bad))

    # Keep the value at 3 but move two coefficients of the wheel at b = 0.
    w = _find(ops, outputs, "W6", zero=True)
    bad = copy.deepcopy(outputs)
    top = bad[w]["mG"]
    coeffs = ref.from_signless(bad[w]["signless"], top)
    coeffs[1] += 3
    coeffs[2] -= 1
    bad[w]["signless"] = [abs(c) for c in reversed(coeffs)]
    problems = workload.check(ops, bad)
    assert any("closed form" in p for p in problems)
    assert not any("reference count" in p for p in problems)

    # Lower a nonzero-b coefficient below the b = 0 one.
    bad = copy.deepcopy(outputs)
    zero = outputs[_find(ops, outputs, "prism3", zero=True)]["signless"]
    bad[i]["signless"] = list(zero)
    bad[i]["signless"][1] -= 1
    assert any("below the b = 0" in p for p in workload.check(ops, bad))


def test_poly_small_check_rejects_corruption(small_outputs):
    workload, ops, outputs = small_outputs
    assert workload.check(ops, outputs) == []
    i = next(i for i, out in enumerate(outputs) if len(out["subset"]) > 1)

    bad = copy.deepcopy(outputs)
    bad[i]["nbb"][0] += 1
    assert any("!= nbb" in p for p in workload.check(ops, bad))

    bad = copy.deepcopy(outputs)
    bad[i]["subset"][0] += 1
    bad[i]["nbb"][0] += 1
    assert any("reference count" in p for p in workload.check(ops, bad))

    bad = copy.deepcopy(outputs)
    rank = ref.cycle_rank(ops[i]["n"], ops[i]["pairs"])
    bad[i]["subset"] = bad[i]["nbb"] = [0] * (rank + 1) + [1]
    assert any("degree above" in p for p in workload.check(ops, bad))


def test_tracer_restores_functions_and_counts_calls(tmp_path):
    from flowpoly import assigning, graphs
    from flowpoly.abelian import GroupSpec

    originals = (graphs.components, assigning.poly_nbb, GroupSpec.validate)
    tracer = Tracer()
    assert tracer.missing == []
    workload = workloads.PolySmall(5, True)
    ops = workload.setup(tmp_path)
    with tracer.active(0, root="op"):
        assert graphs.components is not originals[0]
        workload.run(workload.prepare(ops[-1]))
    assert (graphs.components, assigning.poly_nbb, GroupSpec.validate) == originals
    dump = tracer.dump()
    assert dump["stats"]["assigning.poly_nbb"]["calls"] == 1
    assert [span[3] for span in dump["spans"]][-1] == "op"


def test_cache_set_finds_every_flowpoly_cache():
    from flowpoly import assigning, flows, graphs

    caches = CacheSet()
    for cache in (flows._boundary_histogram, assigning._structure, graphs._lambda_family_cached):
        assert any(cache is c for c in caches.caches)
    graphs.lambda_family(graphs.MultiGraph.from_pairs(2, [(0, 1)]))
    caches.clear()
    assert graphs._lambda_family_cached.cache_info().currsize == 0


def test_speedometer_rescales_by_nearby_calibrations():
    meter = speed.Speedometer()
    # A host at nominal speed for the first second, then at half speed.
    meter.marks = [i / 100 for i in range(200)]
    meter.times = [speed.NOMINAL_CALIBRATION_S] * 100 + [2 * speed.NOMINAL_CALIBRATION_S] * 100
    assert meter.rescale((0.30, 0.0), (0.50, 0.0)) == pytest.approx(0.20)
    assert meter.rescale((1.50, 0.0), (1.70, 0.0)) == pytest.approx(0.10)
    # Time spent calibrating inside the interval is taken out.
    assert meter.rescale((1.50, 0.01), (1.70, 0.03)) == pytest.approx(0.09)
    # Past the last calibration, the nearest ones set the scale.
    assert meter.rescale((5.0, 0.0), (5.2, 0.0)) == pytest.approx(0.10)


def test_speedometer_not_started_leaves_times_alone():
    meter = speed.Speedometer()
    assert meter.rescale((1.0, 0.0), (1.25, 0.0)) == 0.25


def test_speedometer_calibrates_on_its_timer():
    meter = speed.Speedometer()
    meter.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        meter.stop()
    assert len(meter.times) > speed.MIN_SAMPLES
    assert meter.marks == sorted(meter.marks)
    assert 0 < meter.paused < 0.2


def bench(*args, cwd=BENCH_DIR.parent):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_metric(workload, trace):
    seed = 7 + trace
    trace_file = run.OUT_DIR / f"trace-{workload}-seed{seed}-short.json"
    trace_file.unlink(missing_ok=True)
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--short")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    # Only the traced run wraps flowpoly and writes spans.
    assert trace_file.is_file() == bool(trace)
    if trace:
        assert json.loads(trace_file.read_text())["spans"]


def test_run_without_flowpoly_fails(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode == 1  # a clean exit, not a signal from a timer left running
    assert done.stdout.strip() == ""
