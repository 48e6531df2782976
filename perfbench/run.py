#!/usr/bin/env python3
"""Benchmark of flowpoly: end-to-end metrics, or per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads are ``sweep``, ``poly_large`` and ``poly_small`` (see README.md).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--short`` runs
a small version of the workload in seconds, for the benchmark's own tests.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from the fresh interpreter

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Speedometer  # noqa: E402
from tracer import CacheSet, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"

MIN_ROUNDS = 2  # every operation is timed at least this many times
SETUP_PROBES = 8  # fresh interpreters timed besides this one


def import_flowpoly() -> None:
    """Import flowpoly from the checkout's src/ and nothing else."""
    src = ROOT / "src"
    if not (src / "flowpoly" / "__init__.py").is_file():
        raise SystemExit(f"flowpoly sources not found under {src}")
    sys.path.insert(0, str(src))
    import flowpoly
    import flowpoly.cli  # noqa: F401  (imports every layer)

    if Path(flowpoly.__file__).resolve().parent != (src / "flowpoly").resolve():
        raise SystemExit(f"imported flowpoly from {flowpoly.__file__}, not from {src}")


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten operations above it; the
    maximum when there are too few operations for that (short runs only)."""
    if count <= 20:
        return 100
    p = math.floor(100 * (1 - 10 / count))
    while count - math.ceil(p / 100 * count) < 10:
        p -= 1
    return p


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure(workload, ops, seconds: float, caches, speed, tracer=None):
    """Time every operation in whole rounds until the time is spent.

    Each timed call starts cold: every flowpoly cache is emptied and the
    inputs are rebuilt as new objects.  Each call's time is rescaled to
    nominal host speed (see speed.py), and an operation's time is the median
    of its rescaled repeats.  Outputs are kept from the first round; later
    ones must equal them.
    """
    count = len(ops)
    samples: list[list[tuple]] = [[] for _ in range(count)]  # (begin, end) clocks
    outputs: list = [None] * count
    failed: set[int] = set()
    problems: list[str] = []
    repeats = 0
    round_times: list[float] = []
    while len(round_times) < MIN_ROUNDS or sum(round_times) + round_times[-1] <= seconds:
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            if i in failed:
                continue
            args = workload.prepare(op)
            caches.clear()
            gc.collect()
            try:
                if tracer is None:
                    begin = speed.clock()
                    raw = workload.run(args)
                    end = speed.clock()
                else:
                    with tracer.active(repeats, root=f"op {i}"):
                        begin = speed.clock()
                        raw = workload.run(args)
                        end = speed.clock()
                summary = workload.summarize(raw)
            except Exception:  # an operation that fails is counted, not fatal
                print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
                failed.add(i)
                outputs[i] = None
                continue
            repeats += 1
            samples[i].append((begin, end))
            if not round_times:
                outputs[i] = summary
            elif summary != outputs[i]:
                problems.append(f"operation {i}: round {len(round_times) + 1} output differs")
        round_times.append(time.perf_counter() - round_start)
    caches.clear()
    kept = [i for i in range(count) if i not in failed]
    if not kept:
        raise SystemExit("every operation failed")
    times = [statistics.median(speed.rescale(*sample) for sample in samples[i]) for i in kept]
    unscaled = [statistics.median(end[0] - begin[0] - (end[1] - begin[1])
                                  for begin, end in samples[i]) for i in kept]
    stats = {"round_times_s": round_times, "timed_calls": repeats,
             "calibrations": len(speed.times),
             "calibration_median_s": statistics.median(speed.times) if speed.times else None,
             "op_times_s": times, "raw_ops_per_s": len(kept) / sum(unscaled)}
    return times, outputs, failed, problems, stats


def setup_probe(workload_name: str, seed: int, short: bool) -> float:
    """Rescaled set-up time of a fresh interpreter, as it measures it itself."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"] + (["--short"] if short else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def layer_metrics(tracer, caches, repeats: int, setup_stats: dict) -> dict:
    """Per-layer metrics: counts and self seconds per timed operation."""
    stats = tracer.dump()["stats"]

    def per_op(key: str, *names: str) -> float:
        total = sum(stats.get(name, {}).get(key, 0) for name in names)
        return total / repeats if repeats else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def cache(path: str) -> tuple[int, int]:
        module_name, attr = path.split(".")
        return caches.totals(getattr(sys.modules[f"flowpoly.{module_name}"], attr, None))

    hits, misses = cache("assigning._poly_from_signature")
    algorithms = ("assigning.poly_subset_expansion", "assigning.poly_nbb")
    nbb_masks = per_op("masks", "assigning.poly_nbb")
    values = {
        "abelian.validate.calls": per_op("calls", "abelian.GroupSpec.validate"),
        "abelian.validate.self_s": per_op("self_s", "abelian.GroupSpec.validate"),
        "abelian.arith.calls": per_op("calls", "abelian.GroupSpec.add", "abelian.GroupSpec.negate"),
        "flows.enumerate_zero_sum.yielded": per_op("yielded", "flows.enumerate_zero_sum"),
        "flows.enumerate_zero_sum.self_s": per_op("self_s", "flows.enumerate_zero_sum"),
        "flows.bruteforce.self_s": per_op(
            "self_s", "flows.count_nz_flows_bruteforce", "flows.nz_flow_boundary_counts"
        ),
        "flows.histogram.builds": ratio(cache("flows._boundary_histogram")[1], repeats),
        "flows.decomposition_check.self_s": per_op("self_s", "flows.decomposition_check"),
        "graphs.components.calls": per_op("calls", "graphs.components"),
        "graphs.components.self_s": per_op("self_s", "graphs.components"),
        "graphs.bonds.self_s": per_op("self_s", "graphs.bonds"),
        "graphs.lambda_family.self_s": per_op("self_s", "graphs.lambda_family"),
        "assigning.compat_signature.calls": per_op("calls", "assigning.compat_signature"),
        "assigning.compat_signature.self_s": per_op("self_s", "assigning.compat_signature"),
        "assigning.table.builds": ratio(cache("assigning._structure")[1], repeats),
        "assigning.signature_poly.hit_ratio": ratio(hits, hits + misses),
        "assigning.poly_subset_expansion.self_s": per_op("self_s", algorithms[0]),
        "assigning.poly_nbb.self_s": per_op("self_s", algorithms[1]),
        "assigning.broken_bonds.self_s": per_op("self_s", "assigning.broken_bonds"),
        "assigning.masks_scanned": per_op("masks", *algorithms),
        "assigning.nbb.useful_ratio": ratio(per_op("counted", algorithms[1]), nbb_masks),
        "assigning.induced_assigning.self_s": per_op("self_s", "assigning.induced_assigning"),
        "polynomial.self_s": per_op(
            "self_s",
            "polynomial.IntPolynomial.__init__",
            "polynomial.IntPolynomial.eval",
            "polynomial.IntPolynomial.signless_coefficients",
        ),
        "harness.self_s": per_op("self_s", "harness.run_verification"),
        "catalog.all_multigraphs.self_s": setup_stats.get("catalog.all_multigraphs", {}).get(
            "self_s", 0.0
        ),
        "cli.main.self_s": per_op("self_s", "cli.main"),
        "cli.parse.self_s": per_op("self_s", "cli.parse_graph_document", "cli.parse_b_document"),
    }
    units = {"calls": "count", "yielded": "count", "builds": "count", "masks_scanned": "count",
             "self_s": "s", "hit_ratio": "ratio", "useful_ratio": "ratio"}
    return {name: {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
            for name, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "poly_large", "poly_small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--short", action="store_true", help="small inputs, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Traced runs are not rescaled: calibrations would land in the spans.
    speed = Speedometer()
    if not args.trace:
        speed.start()
    try:
        return benchmark(args, speed)
    finally:
        speed.stop()  # a timer left running would kill the process as it exits


def benchmark(args, speed: Speedometer) -> int:
    """Set up, measure and check one workload; print the result line."""
    import_flowpoly()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.short)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if tracer is None:
            ops = workload.setup(Path(workdir))
        else:
            with tracer.active(-1):
                ops = workload.setup(Path(workdir))
        own_setup = speed.rescale((_STARTED, 0.0), speed.clock())
        speed.stop()
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        setup_stats = {}
        if tracer is not None:
            setup_stats = tracer.dump()["stats"]
            tracer.reset()
            setup_times = [own_setup]
        else:
            probes = 1 if args.short else SETUP_PROBES
            setup_times = [own_setup] + [
                setup_probe(args.workload, args.seed, args.short) for _ in range(probes)
            ]
        gc.collect()
        gc.freeze()  # set-up objects are not rescanned by every collection
        caches = CacheSet()
        if not args.trace:
            speed.start()
        try:
            times, outputs, failed, problems, run_stats = measure(
                workload, ops, args.seconds, caches, speed, tracer
            )
        finally:
            speed.stop()
        repeats = run_stats["timed_calls"]
    problems += workload.check(ops, outputs)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is None:
        p_tail = tail_percentile(len(ops))
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": percentile(times, p_tail) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        metrics = layer_metrics(tracer, caches, repeats, setup_stats)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}" + ("-short" if args.short else "")
    info = {"workload": args.workload, "seed": args.seed, "operations": len(ops),
            **run_stats, "setup_times_s": setup_times, "problems": problems, "result": result}
    if tracer is None:
        info["tail_percentile"] = p_tail
        (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(info, indent=1) + "\n")
    else:
        traced = {**info, **tracer.dump()}
        untraced = OUT_DIR / f"result-{stem}.json"
        if untraced.is_file():  # both measured as is, not rescaled
            plain = json.loads(untraced.read_text())["raw_ops_per_s"]
            traced["untraced_raw_ops_per_s"] = plain
            traced["tracing_overhead"] = plain / traced["raw_ops_per_s"] - 1
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(traced) + "\n")
    print(f"{args.workload}: {len(ops)} operations, {len(run_stats['round_times_s'])} rounds, "
          f"{repeats} timed calls, {len(problems)} problems", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
