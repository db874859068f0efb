"""Execution-plan lowering and Executor behaviour.

Covers the three contract areas of the unified engine: plan construction
(kernels lower to an ``ExecutionPlan`` instead of running private chunk
loops), strategy auto-selection/override resolution, and the unified
``ExecStats`` accounting every kernel family now shares.
"""

import numpy as np
import pytest

from repro import tensorir as T
from repro.core.api import spmat, spmm
from repro.graph.sparse import CSRMatrix, from_edges
from repro.runtime import (
    AggregateSink,
    ChunkCtx,
    ChunkPolicy,
    EdgeTask,
    ExecutionPlan,
    Executor,
    GatherPlan,
    ScatterSink,
    Stage,
    get_reducer,
    make_strategy,
    resolve_strategy,
    segment_info,
    select_strategy,
    strategy_from_env,
)
from repro.tensorir.runtime import ExecStats


def _copy_kernel(adj, n, f, **opts):
    XV = T.placeholder((n, f), name="XV")

    def msgfunc(src, dst, eid):
        return T.compute((f,), lambda i: XV[src, i], name="cp")

    return spmm(adj, msgfunc, aggregation=opts.pop("aggregation", "sum"),
                **opts)


@pytest.fixture
def graph():
    rng = np.random.default_rng(11)
    src = rng.integers(0, 30, 400)
    dst = rng.integers(0, 30, 400)
    return from_edges(30, 30, src, dst), src, dst


class TestPlanConstruction:
    def test_spmm_lowers_to_plan(self, graph):
        adj, src, dst = graph
        k = _copy_kernel(spmat(adj), 30, 4, chunk_edges=64)
        acc = np.zeros((30, 4), np.float32)
        plan = k.execution_plan(acc)
        assert isinstance(plan, ExecutionPlan)
        assert plan.label.startswith("spmm[")
        assert plan.strategy in ("reduceat", "bucketed", "parallel")
        assert plan.finalize is not None
        assert len(plan.tasks) >= 1
        for task in plan.tasks:
            assert task.stages and task.stages[0].sink is not None
            assert isinstance(task.stages[0].sink, AggregateSink)

    def test_bounds_are_row_aligned(self, graph):
        adj, *_ = graph
        k = _copy_kernel(spmat(adj), 30, 4, chunk_edges=64)
        plan = k.execution_plan(np.zeros((30, 4), np.float32))
        indptr = set(int(p) for p in adj.indptr)
        for task in plan.tasks:
            bounds = list(task.bounds)
            # contiguous cover of [0, nnz) with cuts on row boundaries
            assert bounds[0][0] == 0
            for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
                assert a1 == b0
            for c0, c1 in bounds:
                assert c1 - c0 > 0

    def test_chunk_policy_unaligned_covers_range(self):
        bounds = ChunkPolicy(7, row_aligned=False).bounds(nnz=30)
        assert bounds[0][0] == 0 and bounds[-1][1] == 30
        assert all(b0 == a1 for (_, a1), (b0, _) in zip(bounds, bounds[1:]))

    def test_chunk_policy_validates_inputs(self):
        with pytest.raises(ValueError):
            ChunkPolicy(8, row_aligned=True).bounds(nnz=10)
        with pytest.raises(ValueError):
            ChunkPolicy(8, row_aligned=False).bounds(indptr=np.array([0, 10]))

    def test_no_private_chunk_loops_left_in_kernels(self):
        """The refactor's point: kernel families delegate chunking to the
        runtime package instead of slicing edges themselves."""
        import inspect

        from repro.core import fusion, sddmm, softmax, spmm as spmm_mod

        for mod in (spmm_mod, sddmm, softmax, fusion):
            source = inspect.getsource(mod)
            assert "def _row_aligned_chunks" not in source
            assert "_segmented_combine" not in source


class TestChunkCtx:
    def test_lazy_batch_and_segments(self):
        gather = GatherPlan(src=np.arange(10), dst=np.sort(np.arange(10) // 3),
                            eid=np.arange(10))
        ctx = ChunkCtx(2, 8, gather)
        assert ctx.size == 6
        assert ctx._batch is None
        batch = ctx.batch
        assert np.array_equal(batch["src"], np.arange(2, 8))
        seg = ctx.segments
        assert np.array_equal(seg.seg_rows, np.unique(batch["dst"]))
        assert np.array_equal(ctx.local_eid, np.arange(6))

    def test_values_flow_between_stages(self):
        gather = GatherPlan(src=np.arange(6), dst=np.zeros(6, np.int64),
                            eid=np.arange(6))
        out = np.zeros((6, 2), np.float32)

        def first(bindings, ctx):
            return np.ones((ctx.size, 2), np.float32), 0

        def second(bindings, ctx):
            return ctx.values["a"] * 3.0, 0

        task = EdgeTask(gather=gather, bounds=[(0, 6)], stages=[
            Stage("a", first),
            Stage("b", second, ScatterSink(out)),
        ])
        Executor().run(ExecutionPlan([task]))
        assert np.all(out == 3.0)


class TestStrategySelection:
    def test_auto_prefers_bucketed_on_regular_graphs(self):
        degrees = np.full(4096, 8)  # one distinct degree, plenty of work
        assert select_strategy(degrees, 16) == "bucketed"

    def test_auto_falls_back_to_reduceat_on_irregular_small(self):
        degrees = np.arange(1, 40)  # distinct degrees ~ rows, little work
        assert select_strategy(degrees, 1) == "reduceat"

    def test_auto_picks_parallel_when_pool_is_wide(self):
        from repro.tensorir.runtime import WorkPool
        # every degree distinct (bucketing can't amortize) but enough
        # total work to shard: sum(1..724) = 262450 >= 1<<18
        degrees = np.arange(1, 725)
        with WorkPool(4) as pool:
            assert select_strategy(degrees, 1, pool) == "parallel"

    def test_default_worker_count_follows_default_pool(self, monkeypatch):
        """Without an explicit pool the worker count is the shared
        default pool's (which honours FEATGRAPH_NUM_WORKERS), not the
        host's cpu count: a 1-worker default never selects parallel."""
        from repro.tensorir import runtime
        # same shape as above: enough work to shard, too many degrees
        # to bucket (sum(1..1000) = 500500 < 512 * 1000)
        degrees = np.arange(1, 1001)
        with runtime.WorkPool(1) as pool:
            monkeypatch.setattr(runtime, "_default", pool)
            assert select_strategy(degrees, 1) == "reduceat"

    def test_empty_graph_selects_reduceat(self):
        assert select_strategy(np.zeros(10, np.int64), 8) == "reduceat"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("FEATGRAPH_AGG_STRATEGY", "bucketed")
        assert strategy_from_env() == "bucketed"
        monkeypatch.setenv("FEATGRAPH_AGG_STRATEGY", "auto")
        assert strategy_from_env() is None
        for bad in ("nope", "adaptive"):
            monkeypatch.setenv("FEATGRAPH_AGG_STRATEGY", bad)
            with pytest.raises(ValueError):
                strategy_from_env()

    def test_resolution_order(self, monkeypatch):
        degrees = np.full(4096, 8)
        monkeypatch.setenv("FEATGRAPH_AGG_STRATEGY", "parallel")
        # explicit request beats env
        assert resolve_strategy("reduceat", degrees, 16).name == "reduceat"
        # env beats auto (auto would say bucketed here)
        assert resolve_strategy(None, degrees, 16).name == "parallel"
        monkeypatch.delenv("FEATGRAPH_AGG_STRATEGY")
        assert resolve_strategy(None, degrees, 16).name == "bucketed"

    def test_kernel_attribute_pins_strategy(self, graph):
        adj, *_ = graph
        k = _copy_kernel(spmat(adj), 30, 4)
        k.agg_strategy = "reduceat"
        plan = k.execution_plan(np.zeros((30, 4), np.float32))
        assert plan.strategy == "reduceat"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("quantum")

    @pytest.mark.parametrize("req", ["adaptive", ["reduceat", "bucketed"]],
                             ids=["adaptive", "name-list"])
    def test_kernel_rejects_non_strategy_request(self, graph, req):
        # one strategy per kernel: no per-chunk modes, no name lists
        adj, *_ = graph
        k = _copy_kernel(spmat(adj), 30, 4)
        k.agg_strategy = req
        with pytest.raises(ValueError, match="unknown aggregation strategy"):
            k.run({"XV": np.zeros((30, 4), np.float32)})


class TestHistogramCaches:
    @staticmethod
    def _csr():
        deg = np.tile(np.arange(1, 9, dtype=np.int64), 32)
        indptr = np.concatenate([[0], np.cumsum(deg)])
        indices = np.random.default_rng(3).integers(0, 64, int(deg.sum()))
        return CSRMatrix((len(deg), 64), indptr, indices)

    def test_degree_stats_cached_by_fingerprint(self):
        from repro.runtime.histogram import (cache_info, clear_caches,
                                             degree_stats)

        clear_caches()
        csr = self._csr()
        a = degree_stats(csr)
        assert degree_stats(csr) is a
        assert int(a.sum()) == csr.nnz
        # same structure, different object: same cache entry
        clone = CSRMatrix(csr.shape, csr.indptr.copy(), csr.indices.copy())
        assert degree_stats(clone) is a
        assert cache_info()["degree"] == 1

    def test_different_edges_graph_forks_the_entry(self):
        from repro.runtime.histogram import (cache_info, clear_caches,
                                             degree_stats)

        clear_caches()
        csr = self._csr()
        other = CSRMatrix(csr.shape, csr.indptr,
                          (csr.indices + 1) % csr.shape[1])
        degree_stats(csr)
        degree_stats(other)
        assert cache_info()["degree"] == 2


class TestExecStatsAccounting:
    def test_one_add_chunk_per_chunk(self, graph):
        adj, src, dst = graph
        k = _copy_kernel(spmat(adj), 30, 4, chunk_edges=64)
        x = np.random.default_rng(0).random((30, 4)).astype(np.float32)
        before = k.exec_stats.as_dict()
        plan = k.execution_plan(np.zeros((30, 4), np.float32))
        n_chunks = sum(len(list(t.bounds)) for t in plan.tasks)
        k.run({"XV": x})
        after = k.exec_stats.as_dict()
        assert after["chunks"] - before["chunks"] == n_chunks
        assert after["eval_seconds"] >= before["eval_seconds"]

    def test_strategy_surfaced_in_stats(self, graph):
        adj, *_ = graph
        k = _copy_kernel(spmat(adj), 30, 4)
        k.agg_strategy = "reduceat"
        x = np.zeros((30, 4), np.float32)
        k.run({"XV": x})
        d = k.exec_stats.as_dict()
        assert d["agg_strategy"] == "reduceat"

    def test_executor_default_stats(self):
        ex = Executor()
        assert isinstance(ex.stats, ExecStats)
        ex.run(ExecutionPlan([], strategy="bucketed"))
        assert ex.stats.as_dict()["agg_strategy"] == "bucketed"

    def test_scatter_sink_books_bytes_only_when_asked(self):
        out = np.zeros((4, 2), np.float32)
        gather = GatherPlan(src=np.arange(4), dst=np.zeros(4, np.int64),
                            eid=np.arange(4))
        ctx = ChunkCtx(0, 4, gather)
        vals = np.ones((4, 2), np.float32)
        assert ScatterSink(out).apply(vals, ctx) == 0
        assert ScatterSink(out, count_bytes=True).apply(vals, ctx) == \
            vals.nbytes

    def test_finalize_runs_after_tasks(self):
        order = []
        gather = GatherPlan(src=np.arange(2), dst=np.zeros(2, np.int64),
                            eid=np.arange(2))
        task = EdgeTask(gather=gather, bounds=[(0, 2)], stages=[
            Stage("s", lambda b, c: (order.append("stage") or
                                     np.zeros((2, 1), np.float32), 0)),
        ])
        Executor().run(ExecutionPlan([task], finalize=lambda: order.append(
            "finalize")))
        assert order == ["stage", "finalize"]


class TestAggregateSink:
    def test_guard_zero_substitutes_ones(self):
        dst = np.zeros(4, np.int64)
        gather = GatherPlan(src=np.arange(4), dst=dst, eid=np.arange(4))
        ctx = ChunkCtx(0, 4, gather)
        acc = np.zeros((3, 2), np.float32)
        sink = AggregateSink(acc, get_reducer("sum"),
                             make_strategy("reduceat"), guard_zero=True)
        sink.apply(np.zeros((4, 2), np.float32), ctx)
        # row 0 summed to zero -> guarded to 1; untouched rows stay 0
        assert np.all(acc[0] == 1.0)
        assert np.all(acc[1:] == 0.0)

    def test_untouched_rows_not_written(self):
        dst = np.full(5, 2, np.int64)
        gather = GatherPlan(src=np.arange(5), dst=dst, eid=np.arange(5))
        ctx = ChunkCtx(0, 5, gather)
        acc = np.full((4, 3), 7.0, np.float32)
        sink = AggregateSink(acc, get_reducer("sum"),
                             make_strategy("bucketed"))
        sink.apply(np.ones((5, 3), np.float32), ctx)
        assert np.all(acc[2] == 12.0)
        for r in (0, 1, 3):
            assert np.all(acc[r] == 7.0)


class TestEndToEndParity:
    @pytest.mark.parametrize("strategy", ["reduceat", "bucketed", "parallel"])
    def test_kernel_matches_reference_under_every_strategy(self, graph,
                                                           strategy):
        adj, src, dst = graph
        k = _copy_kernel(spmat(adj), 30, 4, chunk_edges=64)
        k.agg_strategy = strategy
        x = np.random.default_rng(1).random((30, 4)).astype(np.float32)
        ref = np.zeros((30, 4), np.float32)
        np.add.at(ref, dst, x[src])
        got = k.run({"XV": x})
        assert np.allclose(got, ref, atol=1e-5)

    def test_env_override_changes_executed_strategy(self, graph,
                                                    monkeypatch):
        adj, *_ = graph
        monkeypatch.setenv("FEATGRAPH_AGG_STRATEGY", "reduceat")
        k = _copy_kernel(spmat(adj), 30, 4)
        k.run({"XV": np.zeros((30, 4), np.float32)})
        assert k.exec_stats.as_dict()["agg_strategy"] == "reduceat"

    def test_edge_softmax_plumbs_strategy_to_phases(self, graph):
        from repro.core.softmax import EdgeSoftmax

        adj, *_ = graph
        sm = EdgeSoftmax(spmat(adj), num_heads=2, fused=False,
                         agg_strategy="bucketed")
        assert sm._max_kernel.agg_strategy == "bucketed"
        assert sm._sum_kernel.agg_strategy == "bucketed"
        scores = np.random.default_rng(2).random(
            (adj.nnz, 2)).astype(np.float32)
        alpha = sm.run(scores)
        assert alpha.shape == (adj.nnz, 2)
        # a later instance without a pin clears the cached kernels' pin
        sm2 = EdgeSoftmax(spmat(adj), num_heads=2, fused=False)
        assert sm2._max_kernel.agg_strategy is None
