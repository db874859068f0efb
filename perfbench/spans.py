"""In-memory span tracer that wraps the public entry points of each layer.

Tracing lives in the benchmark, not in the program: :func:`install` patches
each layer's public entry point -- at every binding a caller resolves it
through, e.g. ``repro.serve.service.build_blocks`` as well as
``repro.minidgl.sampling.build_blocks`` -- with a wrapper that records one
span per call, and :meth:`Tracer.uninstall` puts the originals back.  Timed
runs never install the wrappers, so they pay nothing for them.

A span is ``(id, parent, name, thread, start_ns, end_ns, op, attrs)``.
Spans nest per thread through a thread-local stack, so a span's parent is
the innermost open span on the same thread.  ``op`` is the request or
batch id the benchmark sets around each operation (:meth:`Tracer.op`).
Counters the program already keeps (``ExecStats``, ``KernelCache.stats()``,
``BlockLoader.wait_seconds`` ...) are read as-is, as deltas around a call
or around the traced phase.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

#: FeatGraphDGLBackend primitives, each a kernel call of the minidgl layer
KERNEL_PRIMITIVES = ("spmm_copy_sum", "spmm_mul_sum", "sddmm_dot",
                     "edge_softmax", "fused_copy_u_aggregate",
                     "fused_softmax_aggregate")

#: chunk strategies counted by ``plan.strategy.<name>``; ``scatter`` is an
#: SDDMM chunk, which writes edge rows and combines nothing
PLAN_STRATEGIES = ("reduceat", "bucketed", "parallel", "scatter")


class Tracer:
    """Collects spans in memory; thread-safe through list appends."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._next_id = itertools.count(1).__next__  # atomic under the GIL
        self._patches: list[tuple[object, str, object]] = []
        #: every BlockLoader created while installed (their wait counters)
        self.loaders: list = []

    # -- span recording -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self):
        return getattr(self._local, "op", None)

    @contextlib.contextmanager
    def op(self, op_id):
        """Tag every span this thread opens inside with ``op_id``."""
        prev = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = prev

    @contextlib.contextmanager
    def span(self, name: str):
        """Record ``name`` around the enclosed block; yields the span's
        attribute dict."""
        attrs: dict = {}
        stack = self._stack()
        sid = self._next_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name,
                               threading.current_thread().name, start, end,
                               self.current_op(), attrs))

    def record(self, name: str, start_s: float, end_s: float, op=None,
               thread: str = "requests", **attrs) -> None:
        """Add a span measured elsewhere (a request that crosses threads)."""
        self.spans.append((self._next_id(), None, name, thread,
                           int(start_s * 1e9), int(end_s * 1e9), op, attrs))

    # -- patching ---------------------------------------------------------
    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until
        :meth:`uninstall`; a class attribute is taken from the class itself,
        so a method is never replaced by one inherited from a base."""
        orig = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._patches.append((owner, attr, orig))

    def wrap(self, owner, attr: str, name: str, after=None,
             before=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``before(args)`` may snapshot counters as the call starts, and
        ``after(attrs, args, result, snapshot)`` add attributes to the span
        once it returned."""
        def make(orig):
            def wrapper(*args, **kwargs):
                with self.span(name) as attrs:
                    snapshot = before(args) if before is not None else None
                    result = orig(*args, **kwargs)
                    if after is not None:
                        after(attrs, args, result, snapshot)
                    return result
            return wrapper
        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output -------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, thread, start, end, op, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "thread": thread, "start_ns": start, "end_ns": end,
                    "op": op, **attrs}, default=str) + "\n")


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry point of every layer; returns ``tracer``."""
    # import_module: the repro.core package re-exports functions named
    # like its modules (repro.core.spmm is also a function there)
    (compile_mod, fusion, sddmm, spmm, autograd, backends, models, nn,
     optim, sampling, train, engine, cache, service) = (
        importlib.import_module(f"repro.{m}") for m in (
            "core.compile", "core.fusion", "core.sddmm", "core.spmm",
            "minidgl.autograd", "minidgl.backends", "minidgl.models",
            "minidgl.nn", "minidgl.optim", "minidgl.sampling",
            "minidgl.train", "runtime.engine", "serve.cache",
            "serve.service"))

    # queue -> batch: the batcher thread's unit of work.  Its spans carry
    # the batch id, and the batch span the ids of the requests it answered
    # (set by the load generator on each future, read once the batch ran)
    batch_ids = itertools.count()

    def make_run_batch(orig):
        def run_batch(self, batch):
            with tracer.op(f"batch-{next(batch_ids)}"), \
                    tracer.span("serve.batch") as attrs:
                orig(self, batch)
                attrs["requests"] = [getattr(f, "perfbench_rid", None)
                                     for f in batch]
        return run_batch
    tracer.patch(service.InferenceService, "_run_batch", make_run_batch)

    # sample: both call-site bindings of build_blocks
    def sample_attrs(attrs, args, result, _):
        attrs["edges"] = int(sum(b.adj.nnz for b in result))
    tracer.wrap(service, "build_blocks", "sample", sample_attrs)
    tracer.wrap(sampling, "build_blocks", "sample", sample_attrs)

    # loader: remember each BlockLoader to read its wait counter afterwards
    def make_loader_init(orig):
        def loader_init(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            tracer.loaders.append(self)
        return loader_init
    tracer.patch(sampling.BlockLoader, "__init__", make_loader_init)

    # gather: feature rows, through the serving cache or straight
    def gather_attrs(attrs, args, result, _):
        attrs["bytes"] = int(result.nbytes)
    tracer.wrap(cache.FeatureCache, "gather", "cache.gather", gather_attrs)
    tracer.wrap(sampling.Block, "gather_src_features", "gather",
                gather_attrs)

    # GNN layer: model, conv layers, dense transforms, loss, backward, step
    for cls in (models.GraphSage, models.GAT):
        tracer.wrap(cls, "forward", "model.fwd")
        tracer.wrap(cls, "forward_blocks", "model.fwd")
    for cls in (nn.SAGEConv, nn.GATConv):
        tracer.wrap(cls, "forward", "layer.fwd")
    tracer.wrap(nn.Linear, "forward", "layer.dense")
    tracer.wrap(train, "cross_entropy", "loss")
    tracer.wrap(autograd.Tensor, "backward", "layer.bwd")
    tracer.wrap(optim.Adam, "step", "optim.step")

    # kernel: each FeatGraph primitive of the minidgl backend
    def kernel_attrs(attrs, args, result, _):
        attrs["edges"] = int(args[1].nnz)
    for prim in KERNEL_PRIMITIVES:
        tracer.wrap(backends.FeatGraphDGLBackend, prim, f"kernel.{prim}",
                    kernel_attrs)

    # bind: compile-or-rebind through the pipeline and the fused templates
    tracer.wrap(compile_mod.CompilePipeline, "compile", "compile")
    tracer.wrap(fusion, "compile_fused", "compile")

    # plan: lowering of a bound kernel to an ExecutionPlan
    def plan_attrs(attrs, args, result, _):
        counts: dict = defaultdict(int)
        for task in result.tasks:
            default = result.strategy or "scatter"
            for ci in range(len(task.bounds)):
                chosen = task.strategy_for_chunk(ci)
                counts[chosen.name if chosen is not None else default] += 1
        attrs["chunks"] = dict(counts)
    for cls in (spmm.GeneralizedSpMM, sddmm.GeneralizedSDDMM,
                fusion.FusedKernel):
        tracer.wrap(cls, "execution_plan", "plan", plan_attrs)

    # evaluate + combine: the engine, with its ExecStats read as deltas
    def exec_read(args):
        st = args[0].stats
        return st.eval_seconds, st.aggregate_seconds, st.bytes_moved

    def exec_after(attrs, args, result, before):
        st = args[0].stats
        attrs["eval_s"] = st.eval_seconds - before[0]
        attrs["combine_s"] = st.aggregate_seconds - before[1]
        attrs["bytes"] = st.bytes_moved - before[2]
    tracer.wrap(engine.Executor, "run", "exec", exec_after, exec_read)
    return tracer


# ----------------------------------------------------------------------
# analysis: self times, per-layer metrics, the printed table
# ----------------------------------------------------------------------

def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: duration minus its children's.

    Children run on the parent's thread, nested inside it, so their
    durations never overlap and subtract directly."""
    child_ns: dict = defaultdict(int)
    for sid, parent, _n, _t, start, end, _o, _a in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return {s[0]: (s[5] - s[4]) - child_ns[s[0]] for s in spans}


def layer_table(spans, work_thread: str, wall_s: float) -> list[dict]:
    """Per span name on ``work_thread``: calls, inclusive and self ms.

    A final ``(outside spans)`` row holds the thread's wall time that no
    root span covers (idle waiting, benchmark glue), so the self-time
    column sums to ``wall_s``."""
    selfs = self_times(spans)
    rows: dict = {}
    root_ns = 0
    for sp in spans:
        sid, parent, name, thread, start, end = sp[:6]
        if thread != work_thread:
            continue
        row = rows.setdefault(name, {"layer": name, "calls": 0,
                                     "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (end - start) / 1e6
        row["self_ms"] += selfs[sid] / 1e6
        if parent is None:
            root_ns += end - start
    out = sorted(rows.values(), key=lambda r: -r["self_ms"])
    out.append({"layer": "(outside spans)", "calls": 0,
                "total_ms": max(0.0, wall_s * 1e3 - root_ns / 1e6),
                "self_ms": max(0.0, wall_s * 1e3 - root_ns / 1e6)})
    for row in out:
        row["self_frac"] = row["self_ms"] / (wall_s * 1e3) if wall_s else 0.0
    return out


def layer_metrics(spans, compute_roots: tuple[str, ...]) -> dict:
    """The per-layer metrics every span-derived name in BENCHMARK.json
    reads, summed over the traced phase (all threads).

    ``compute_roots`` names the spans whose time is the workload's compute
    (the denominator of ``kernel.share``)."""
    tot: dict = defaultdict(float)
    strategies: dict = defaultdict(int)
    for _sid, _p, name, _t, start, end, _op, attrs in spans:
        ms = (end - start) / 1e6
        if name.startswith("kernel."):
            tot["kernel.ms"] += ms
            tot["kernel.calls"] += 1
            tot["kernel.edges"] += attrs.get("edges", 0)
            tot[f"{name}.ms"] += ms
        elif name == "sample":
            tot["sample.ms"] += ms
            tot["sample.calls"] += 1
            tot["sample.edges"] += attrs.get("edges", 0)
        elif name == "gather":
            tot["gather.ms"] += ms
            tot["gather.mb"] += attrs.get("bytes", 0) / 1e6
        elif name == "cache.gather":
            tot["cache.gather_ms"] += ms
        elif name == "layer.fwd":
            tot["layer.fwd_ms"] += ms
        elif name == "layer.dense":
            tot["layer.dense_ms"] += ms
        elif name == "layer.bwd":
            tot["layer.bwd_ms"] += ms
        elif name == "optim.step":
            tot["optim.step_ms"] += ms
        elif name == "compile":
            tot["compile.ms"] += ms
        elif name == "plan":
            tot["plan.ms"] += ms
            for strat, n in attrs.get("chunks", {}).items():
                tot["plan.chunks"] += n
                strategies[strat] += n
        elif name == "exec":
            tot["exec.ms"] += ms
            tot["exec.eval_ms"] += attrs.get("eval_s", 0.0) * 1e3
            tot["exec.combine_ms"] += attrs.get("combine_s", 0.0) * 1e3
            tot["exec.mb_moved"] += attrs.get("bytes", 0) / 1e6
        if name in compute_roots:
            tot["_compute_ms"] += ms
    out = dict(tot)
    for strat in PLAN_STRATEGIES:
        out[f"plan.strategy.{strat}"] = strategies.get(strat, 0)
    compute = out.pop("_compute_ms", 0.0)
    out["kernel.share"] = out.get("kernel.ms", 0.0) / compute \
        if compute else 0.0
    out["kernel.control_ms"] = out.get("kernel.ms", 0.0) \
        - out.get("exec.ms", 0.0)
    return out


def kernel_control_shares(spans) -> dict[str, tuple[int, float, float]]:
    """Per kernel primitive: (calls, mean ms per call, control-plane share).

    The control plane is everything in a kernel call outside ``exec`` --
    fingerprinting, bind, plan lowering and strategy resolution."""
    children: dict = defaultdict(list)
    for sp in spans:
        if sp[1] is not None:
            children[sp[1]].append(sp)

    def exec_ns(sid):
        total = 0
        for ch in children.get(sid, ()):
            total += (ch[5] - ch[4]) if ch[2] == "exec" else exec_ns(ch[0])
        return total

    acc: dict = defaultdict(lambda: [0, 0, 0])
    for sp in spans:
        if sp[2].startswith("kernel."):
            row = acc[sp[2][len("kernel."):]]
            row[0] += 1
            row[1] += sp[5] - sp[4]
            row[2] += exec_ns(sp[0])
    return {prim: (n, tot / n / 1e6, 1.0 - ex / tot if tot else 0.0)
            for prim, (n, tot, ex) in acc.items()}
