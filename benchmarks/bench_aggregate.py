"""PR-9 benchmark: per-chunk adaptive aggregation on a skew-mixed graph.

The workload is a graph built from two regimes glued together -- a
uniform region (many rows of equal degree 4, where the bucketed strategy
wins every chunk: one reshape + SIMD sum) followed by a skew region
(cycling degrees 1..32, where reduceat wins: bucketed pays a per-distinct
dispatch on every one of the 32 buckets).  No single whole-kernel
strategy is right for both halves, which is exactly the case the
per-chunk adaptive selector exists for.

The run first **calibrates the cost model on this machine** (a
chunk-scale-matched grid of synthetic workloads, non-negative
least-squares fit), points ``FEATGRAPH_COST_PROFILE`` at the fresh
profile, then measures **aggregate seconds** from the kernel's
``ExecStats`` for each whole-kernel strategy and for the adaptive
per-chunk plan.  Each measurement is the best of ``--rounds`` batches of
``--repeats`` runs, which keeps process-scheduling noise out of the
ratios.  Every strategy's output is parity-checked against a float64
``np.add.at`` oracle.

On a single-core runner the ``parallel`` strategy is recorded as skipped
(its combine degrades to the serial path, so timing it would just
duplicate reduceat) and it is excluded from the best-single comparison.

Usage::

    PYTHONPATH=src python benchmarks/bench_aggregate.py            # report
    PYTHONPATH=src python benchmarks/bench_aggregate.py --check    # CI:
        # fail unless the adaptive per-chunk plan beats the best single
        # whole-kernel strategy >=1.15x on aggregate seconds, parity
        # holds, and nothing regressed >2x vs the committed baseline
    PYTHONPATH=src python benchmarks/bench_aggregate.py \
        --write-baseline  # refresh benchmarks/results/BENCH_PR9_baseline.json

Also collectable by pytest: the smoke test runs a tiny scale with an
injected deterministic calibration measure and asserts parity plus plan
structure without touching the committed JSON files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from repro import tensorir as T
from repro.core import builtins as dgl_builtins
from repro.core.api import spmat, spmm
from repro.core.compile import KernelCache, use_kernel_cache
from repro.core.cost import COST_PROFILE_ENV
from repro.graph.sparse import CSRMatrix
from repro.runtime.calibrate import Workload, calibrate, save_profile
from repro.runtime.strategies import reset_cost_model_cache
from repro.tensorir.runtime import WorkPool

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_PR9.json"
BASELINE_PATH = ROOT / "benchmarks" / "results" / "BENCH_PR9_baseline.json"

#: CI gate: the adaptive per-chunk plan must beat the best single
#: whole-kernel strategy by at least this factor on aggregate seconds.
ADAPTIVE_GATE = 1.15

#: CI gate: a strategy is a regression when its aggregate seconds exceed
#: the committed baseline by more than this factor.
REGRESSION_FACTOR = 2.0

FEATURE_WIDTH = 64
CHUNK_EDGES = 2048

UNIFORM_ROWS = 16384
UNIFORM_DEGREE = 4
SKEW_CYCLES = 128
SKEW_MAX_DEGREE = 32
N_SRC = 4096


def build_skew_mixed_graph(scale: float = 1.0, seed: int = 0):
    """Uniform-degree region followed by a cycling-degree skew region.

    At full scale: 16384 rows of degree 4 (64Ki edges) then 128 cycles of
    degrees 1..32 (66Ki edges).  With 2048-edge chunks that is ~32 chunks
    of pure uniform shape and ~33 chunks of high-distinct shape -- the two
    regimes the calibrated model must tell apart.
    """
    uniform_rows = max(int(UNIFORM_ROWS * scale), 32)
    skew_cycles = max(int(SKEW_CYCLES * scale), 2)
    deg = np.concatenate([
        np.full(uniform_rows, UNIFORM_DEGREE, dtype=np.int64),
        np.tile(np.arange(1, SKEW_MAX_DEGREE + 1, dtype=np.int64),
                skew_cycles),
    ])
    indptr = np.concatenate([[0], np.cumsum(deg)])
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, N_SRC, int(deg.sum()))
    csr = CSRMatrix((len(deg), N_SRC), indptr, indices)
    meta = {"uniform_rows": uniform_rows, "uniform_degree": UNIFORM_DEGREE,
            "skew_cycles": skew_cycles, "skew_max_degree": SKEW_MAX_DEGREE,
            "n_src": N_SRC, "n_dst": len(deg), "edges": int(deg.sum())}
    return csr, meta


def calibration_grid(width: int = FEATURE_WIDTH,
                     chunk_edges: int = CHUNK_EDGES) -> list[Workload]:
    """Synthetic chunks matched to the benchmark's chunk scale.

    The default grid in :func:`repro.runtime.calibrate.workloads` spans
    sizes up to millions of edges; reduceat's cost is not affine across
    cache cliffs at that range, so a fit over it mispredicts small
    chunks.  This grid keeps every workload near ``chunk_edges`` while
    still separating the regimes: uniform degrees isolate the per-value
    term, cycling degrees the per-distinct dispatch.
    """
    grid: list[Workload] = []
    for d in (2, 4, 8):
        grid.append(Workload(f"uniform{d}",
                             np.full(max(chunk_edges // d, 4), d), width))
    for top in (16, 32, 48):
        cyc = np.arange(1, top + 1)
        reps = max(round(chunk_edges / int(cyc.sum())), 1)
        grid.append(Workload(f"cycle{top}", np.tile(cyc, reps), width))
    return grid


def _oracle(csr: CSRMatrix, x: np.ndarray) -> np.ndarray:
    out = np.zeros((csr.shape[0], x.shape[1]), dtype=np.float64)
    np.add.at(out, csr.row_of_edge(), x.astype(np.float64)[csr.indices])
    return out


def _agg_seconds(kernel, bindings, repeats: int, rounds: int) -> float:
    """Best-of-``rounds`` mean aggregate seconds over ``repeats`` runs."""
    kernel.run(bindings)  # warmup (compile + first-touch)
    best = math.inf
    for _ in range(rounds):
        before = kernel.exec_stats.as_dict()["aggregate_seconds"]
        for _ in range(repeats):
            kernel.run(bindings)
        after = kernel.exec_stats.as_dict()["aggregate_seconds"]
        best = min(best, (after - before) / repeats)
    return best


def run_suite(scale: float = 1.0, repeats: int = 3, rounds: int = 3,
              width: int = FEATURE_WIDTH, chunk_edges: int = CHUNK_EDGES,
              calibration_repeats: int = 5, measure=None, log=print):
    """Calibrate, measure every strategy plus adaptive; return the payload.

    ``measure(strategy_name, workload) -> seconds`` is forwarded to
    :func:`repro.runtime.calibrate.calibrate` so tests can inject
    deterministic timings instead of running the microbenchmarks.
    """
    csr, graph_meta = build_skew_mixed_graph(scale)
    cpu_count = os.cpu_count() or 1
    pool_meta = WorkPool()
    singles = ["reduceat", "bucketed"]
    parallel_skipped = None
    if cpu_count > 1 and pool_meta.num_workers > 1:
        singles.append("parallel")
    else:
        parallel_skipped = (f"single-core runner (cpu_count={cpu_count}, "
                            f"workers={pool_meta.num_workers}): parallel "
                            "combine degrades to the serial path")

    log(f"  calibrating cost model ({len(calibration_grid(width, chunk_edges))}"
        f" workloads x {calibration_repeats} repeats) ...")
    model = calibrate(measure=measure, repeats=calibration_repeats,
                      grid=calibration_grid(width, chunk_edges))

    old_profile = os.environ.get(COST_PROFILE_ENV)
    tmp = tempfile.NamedTemporaryFile(suffix=".json", delete=False)
    tmp.close()
    try:
        profile_path = save_profile(model, tmp.name)
        os.environ[COST_PROFILE_ENV] = str(profile_path)
        reset_cost_model_cache()

        A = spmat(csr)
        XV = T.placeholder((N_SRC, width), name="XV")
        with use_kernel_cache(KernelCache()):
            kernel = spmm(A, dgl_builtins.copy_u_msg(XV), "sum",
                          chunk_edges=chunk_edges)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((N_SRC, width)).astype(np.float32)
        bindings = {"XV": x}
        oracle = _oracle(csr, x)
        tol = 1e-4 * np.maximum(np.abs(oracle), 1.0)

        results = {}
        outputs = {}
        for name in singles + ["adaptive"]:
            kernel.agg_strategy = name
            outputs[name] = kernel.run(bindings)
            if not np.all(np.abs(outputs[name] - oracle) <= tol):
                raise AssertionError(
                    f"strategy {name} disagrees with the float64 oracle "
                    f"(max abs diff "
                    f"{float(np.max(np.abs(outputs[name] - oracle))):.3g})")
            agg_s = _agg_seconds(kernel, bindings, repeats, rounds)
            results[name] = {"aggregate_s": agg_s}
            log(f"  {name:9s} aggregate {agg_s * 1e3:8.2f} ms")

        if "parallel" in outputs and not np.array_equal(
                outputs["parallel"], outputs["reduceat"]):
            raise AssertionError("parallel is not bit-identical to reduceat")

        kernel.agg_strategy = "adaptive"
        acc = np.zeros((csr.shape[0], width), dtype=np.float32)
        plan = kernel.execution_plan(acc)
        assignments = Counter(
            s.name for s in plan.tasks[0].chunk_strategies or ())
        kernel.agg_strategy = None
    finally:
        if old_profile is None:
            os.environ.pop(COST_PROFILE_ENV, None)
        else:
            os.environ[COST_PROFILE_ENV] = old_profile
        reset_cost_model_cache()
        os.unlink(tmp.name)

    best_single = min(singles, key=lambda n: results[n]["aggregate_s"])
    speedup = (results[best_single]["aggregate_s"]
               / results["adaptive"]["aggregate_s"])
    for name in results:
        results[name]["speedup_vs_adaptive"] = (
            results[name]["aggregate_s"] / results["adaptive"]["aggregate_s"])
    return {
        "workload": "skew_mixed_copyu_sum",
        "graph": graph_meta,
        "width": width,
        "chunk_edges": chunk_edges,
        "repeats": repeats,
        "rounds": rounds,
        "cpu_count": cpu_count,
        "numpy_version": np.__version__,
        "workers": {"num_workers": pool_meta.num_workers},
        "parallel_skipped": parallel_skipped,
        "strategies": results,
        "adaptive_assignments": dict(assignments),
        "best_single": best_single,
        "adaptive_speedup_vs_best_single": speedup,
    }


def check_adaptive_gate(payload):
    """The adaptive per-chunk plan must clear ADAPTIVE_GATE."""
    speedup = payload["adaptive_speedup_vs_best_single"]
    assignments = payload["adaptive_assignments"]
    problems = []
    if len(assignments) < 2:
        problems.append(
            f"adaptive plan is not heterogeneous (assignments "
            f"{assignments}); the cost model is not separating the "
            "uniform and skew regions")
    if speedup < ADAPTIVE_GATE:
        problems.append(
            f"adaptive only {speedup:.2f}x faster than best single "
            f"strategy {payload['best_single']} on aggregate seconds "
            f"(gate {ADAPTIVE_GATE}x)")
    return problems


def check_against_baseline(payload, baseline, log=print):
    """Compare aggregate seconds to the committed baseline."""
    problems = []
    log(f"\n  baseline comparison ({BASELINE_PATH.name}):")
    for name, r in payload["strategies"].items():
        base = baseline["strategies"].get(name)
        if base is None:
            log(f"  {name:9s} (no baseline entry)")
            continue
        ratio = r["aggregate_s"] / base["aggregate_s"]
        flag = "  REGRESSION" if ratio > REGRESSION_FACTOR else ""
        log(f"  {name:9s} {ratio:5.2f}x vs baseline{flag}")
        if ratio > REGRESSION_FACTOR:
            problems.append(
                f"{name}: aggregate path {ratio:.2f}x slower than baseline "
                f"({r['aggregate_s'] * 1e3:.2f} ms vs "
                f"{base['aggregate_s'] * 1e3:.2f} ms)")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--check", action="store_true",
                    help="fail unless adaptive clears the "
                         f"{ADAPTIVE_GATE}x gate vs the best single "
                         "strategy and nothing regressed vs the baseline")
    ap.add_argument("--write-baseline", action="store_true",
                    help=f"also write {BASELINE_PATH}")
    args = ap.parse_args(argv)

    print(f"PR-9 adaptive aggregation: skew_mixed_copyu_sum @ "
          f"scale {args.scale:g}, F={FEATURE_WIDTH}, "
          f"chunk={CHUNK_EDGES}, best of {args.rounds}x{args.repeats}")
    payload = run_suite(args.scale, args.repeats, args.rounds)
    print(f"  assignments: {payload['adaptive_assignments']}")
    if payload["parallel_skipped"]:
        print(f"  parallel skipped: {payload['parallel_skipped']}")
    print(f"  adaptive vs best single ({payload['best_single']}): "
          f"{payload['adaptive_speedup_vs_best_single']:.2f}x")

    problems = check_adaptive_gate(payload)
    if baseline := (json.loads(BASELINE_PATH.read_text())
                    if BASELINE_PATH.exists() else None):
        problems += check_against_baseline(payload, baseline)
    else:
        print("  (no committed baseline; skipping regression check)")

    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n  wrote {RESULT_PATH.relative_to(ROOT)}")
    if args.write_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"  wrote {BASELINE_PATH.relative_to(ROOT)}")

    if problems:
        for p in problems:
            print(f"  FAIL: {p}", file=sys.stderr)
        if args.check:
            return 1
    return 0


# -- pytest entry point (quick smoke, no JSON output) -----------------------

def _synthetic_measure(name, wl):
    """Deterministic stand-in timings with the real strategies' shape:
    bucketed pays per distinct bucket, reduceat per segment."""
    s = wl.shape
    if name == "bucketed":
        return 2e-5 + 5e-6 * s.n_distinct + 2e-10 * s.values
    return 5e-6 + 5e-7 * s.n_segments + 4e-10 * s.values


def test_aggregate_adaptive_smoke():
    """Tiny-scale sweep with injected calibration timings: oracle parity
    holds, the plan is per-chunk heterogeneous, and stats are recorded."""
    payload = run_suite(scale=1 / 64, repeats=1, rounds=1, width=8,
                        chunk_edges=64, measure=_synthetic_measure,
                        log=lambda *a: None)
    assert "reduceat" in payload["strategies"]
    assert "adaptive" in payload["strategies"]
    for r in payload["strategies"].values():
        assert r["aggregate_s"] > 0
    n_chunks = sum(payload["adaptive_assignments"].values())
    assert n_chunks >= 2  # row-aligned chunks at 64 edges over ~1.3Ki edges
    assert payload["adaptive_speedup_vs_best_single"] > 0


if __name__ == "__main__":
    sys.exit(main())
