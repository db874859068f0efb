"""The repository's end-to-end benchmark, split by layer on request.

Run from the repository root::

    python3 perfbench/run.py --workload serve-sage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one after another

``--trace 0`` times the workload and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs a fixed amount of the workload's
work twice -- once plain, once with every layer's entry point wrapped by
:mod:`spans` -- and reports the per-layer metrics, the layer self-time
table, and the tracing overhead.  Either way the outputs are checked against
the independent ``minigun`` backend, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A
failed check exits with code 1.  Spans and the machine stamp are written to
``.perfbench-out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench-out"


def reset_environment() -> dict:
    """Clear every inherited ``FEATGRAPH_*`` setting to its default, and
    point the cost-model profile at a file that does not exist, so the
    aggregation strategy is chosen the same way on every machine."""
    cleared = sorted(k for k in os.environ if k.startswith("FEATGRAPH_"))
    for key in cleared:
        del os.environ[key]
    os.environ["FEATGRAPH_COST_PROFILE"] = str(
        OUT_DIR / "no-cost-profile.json")
    return {"cleared": cleared,
            "FEATGRAPH_COST_PROFILE": os.environ["FEATGRAPH_COST_PROFILE"]}


def source_digest() -> str:
    """sha256 over the program's sources: identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_stamp(seed: int, env: dict) -> dict:
    import numpy as np

    return {"cpu_count": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "seed": seed,
            "env": env}


def peak_memory(workload_cls, seed: int):
    """Set up a fresh instance and run one round of its measured work with
    :mod:`tracemalloc` on; returns the peak MiB the program held in Python
    and numpy allocations meanwhile, and the instance (closed).

    Not the process's peak RSS: that moved by a quarter between runs of one
    seed, with how much freed heap the allocator had kept or returned."""
    import tracemalloc
    from repro.core.compile import get_kernel_cache

    get_kernel_cache().clear()
    gc.collect()
    w = workload_cls(seed)
    tracemalloc.start()
    try:
        w.setup()
        w.measure(0, min_rounds=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        w.close()
    return peak / 2**20, w


def run_setup(workload_cls, seed: int, repeats: int):
    """Set the workload up ``repeats`` times, each from a cold kernel
    cache; returns the last instance and the median set-up time."""
    from repro.core.compile import get_kernel_cache

    times = []
    w = None
    for _ in range(repeats):
        if w is not None:
            w.close()
            w = None
            gc.collect()
        get_kernel_cache().clear()
        t0 = time.perf_counter()
        w = workload_cls(seed)
        w.setup()
        times.append(time.perf_counter() - t0)
    return w, statistics.median(times)


def traced_run(w, seed: int) -> dict:
    """The fixed work once to warm up, then plain, traced, plain, traced;
    returns the per-layer metrics of the last traced pass and the tracing
    overhead over all four (alternating, so a slow stretch of machine time
    hits both sides)."""
    import spans as tr
    from repro.core.compile import get_kernel_cache

    cache = get_kernel_cache()
    w.fixed_work()  # warm: compiles what set-up did not (e.g. backward)
    plain_s, traced_s = [], []
    for _ in range(2):
        w.fixed_work()
        plain_s.append(w.overhead_seconds)
        tracer = tr.install(tr.Tracer())
        k0, c0 = cache.stats(), w.layer_counters()
        try:
            wall_s = w.fixed_work(tracer)
        finally:
            tracer.uninstall()
        k1, c1 = cache.stats(), w.layer_counters()
        traced_s.append(w.overhead_seconds)

    metrics = tr.layer_metrics(tracer.spans, w.compute_roots)
    metrics.update(w.counter_metrics(c0, c1))
    metrics["loader.wait_ms"] = 1e3 * sum(
        ld.wait_seconds for ld in tracer.loaders)
    metrics["compile.binds"] = (k1["binds"] - k0["binds"]
                                + k1["fused_binds"] - k0["fused_binds"])
    metrics["compile.pipeline_runs"] = (
        k1["pipeline_runs"] - k0["pipeline_runs"]
        + k1["fused_compiles"] - k0["fused_compiles"])
    # share of compile calls served without running the pass pipeline:
    # a cached kernel, or a cached template bound to the new topology
    calls = sum(1 for sp in tracer.spans if sp[2] == "compile")
    metrics["compile.hit_rate"] = \
        1.0 - metrics["compile.pipeline_runs"] / calls if calls else 0.0
    metrics["trace.overhead_frac"] = sum(traced_s) / sum(plain_s) - 1.0
    table = tr.layer_table(tracer.spans, w.work_thread, wall_s)
    metrics["trace.span_frac"] = 1.0 - table[-1]["self_frac"]
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"trace-{w.name}-seed{seed}.jsonl")
    print_layer_table(w, table, metrics, tr.kernel_control_shares(
        tracer.spans), wall_s)
    return metrics


def print_layer_table(w, table, metrics, control, wall_s) -> None:
    print(f"\nlayer self time on thread {w.work_thread!r}, traced wall "
          f"{wall_s * 1e3:.1f} ms")
    print(f"{'layer':<34}{'calls':>8}{'total ms':>12}{'self ms':>12}"
          f"{'self %':>8}")
    for row in table:
        print(f"{row['layer']:<34}{row['calls']:>8}{row['total_ms']:>12.1f}"
              f"{row['self_ms']:>12.1f}{100 * row['self_frac']:>7.1f}%")
    total = sum(r["self_ms"] for r in table)
    print(f"{'sum':<34}{'':>8}{'':>12}{total:>12.1f}"
          f"{100 * total / (wall_s * 1e3):>7.1f}%")
    share = metrics["kernel.share"]
    print(f"\nkernel.share = {share:.3f} of compute time "
          f"(paper: sparse kernels > 0.60 of GNN time -> "
          f"{'holds' if share > 0.6 else 'does not hold'} here)")
    print(f"{'kernel primitive':<28}{'calls':>8}{'ms/call':>10}"
          f"{'control share':>15}")
    for prim, (calls, ms, ctrl) in sorted(control.items()):
        print(f"{prim:<28}{calls:>8}{ms:>10.3f}{100 * ctrl:>14.1f}%")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args) -> int:
    env = reset_environment()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    bench = spec()
    stamp = machine_stamp(args.seed, env)
    print("stamp " + json.dumps(stamp))
    workload_cls = WORKLOADS[args.workload]
    w, setup_s = run_setup(workload_cls, args.seed,
                           1 if args.trace else workload_cls.SETUP_REPEATS)
    try:
        if args.trace:
            names = [m["name"] for m in bench["per_layer"]]
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            measured = traced_run(w, args.seed)
        else:
            names = [m["name"] for m in bench["end_to_end"]]
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            measured = w.measure(args.seconds)
            measured["setup_s"] = setup_s
        problems = w.check()
        measured["serve.batch_variant_seeds"] = getattr(
            w, "batch_variant_seeds", 0)
    finally:
        w.close()
    attempted, failed = w.attempted, w.failed
    rounds = measured.pop("rounds", None)
    if not args.trace:
        measured["peak_mem_mb"], mw = peak_memory(workload_cls, args.seed)
        attempted += mw.attempted
        failed += mw.failed
        measured["ok_frac"] = 1.0 - failed / max(1, attempted)
    metrics = {n: {"value": float(measured.get(n, 0.0)), "unit": units[n]}
               for n in names}
    print(f"\n{w.name} seed {args.seed}:")
    for n in names:
        print(f"  {n:<34} {metrics[n]['value']:>14.6g} {units[n]}")
    for p in problems:
        print("CHECK FAILED: " + p)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"stamp": stamp, **result, "rounds": rounds},
                             indent=1))
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload, each in its own process: those BENCHMARK.json gates,
    then those that run by name only."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    why = {wl["name"]: wl["why"] for wl in spec()["workloads"]}
    status = 0
    for name in sorted(WORKLOADS, key=lambda n: n not in why):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}: {why.get(name, 'not gated by BENCHMARK.json')}",
              flush=True)
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload; default: all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (ROOT / "BENCHMARK.json", ROOT / "src" / "repro"):
        if not need.exists():
            print(f"{need} not found: run from the repository root",
                  file=sys.stderr)
            return 2
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
