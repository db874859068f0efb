"""Worker-pool and runtime-counter tests."""

import threading

import numpy as np
import pytest

from repro.tensorir.runtime import ExecStats, WorkPool, default_pool


class TestParallelFor:
    def test_covers_range_exactly_once(self):
        pool = WorkPool(4)
        hits = np.zeros(1000, dtype=np.int64)
        lock = threading.Lock()

        def fn(lo, hi):
            with lock:
                hits[lo:hi] += 1

        pool.parallel_for(1000, fn)
        pool.shutdown()
        assert np.all(hits == 1)

    def test_empty_range_is_noop(self):
        pool = WorkPool(2)
        called = []
        pool.parallel_for(0, lambda lo, hi: called.append((lo, hi)))
        assert called == []
        pool.shutdown()

    def test_single_worker_runs_inline(self):
        pool = WorkPool(1)
        calls = []
        pool.parallel_for(10, lambda lo, hi: calls.append((lo, hi)))
        assert calls == [(0, 10)]

    def test_custom_chunk_count(self):
        pool = WorkPool(4)
        calls = []
        lock = threading.Lock()

        def fn(lo, hi):
            with lock:
                calls.append((lo, hi))

        pool.parallel_for(100, fn, num_chunks=10)
        pool.shutdown()
        assert len(calls) == 10
        assert sorted(calls)[0][0] == 0 and sorted(calls)[-1][1] == 100

    def test_sum_reduction_correct(self):
        pool = WorkPool(8)
        data = np.arange(10000, dtype=np.float64)
        partial = []
        lock = threading.Lock()

        def fn(lo, hi):
            s = data[lo:hi].sum()
            with lock:
                partial.append(s)

        pool.parallel_for(len(data), fn)
        pool.shutdown()
        assert sum(partial) == data.sum()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkPool(0)


class TestCooperativeFor:
    def test_tasks_processed_in_order(self):
        """All workers share one task at a time (LLC-contention avoidance)."""
        pool = WorkPool(4)
        events = []
        lock = threading.Lock()

        def fn(task, lo, hi):
            with lock:
                events.append(task)

        pool.cooperative_for([0, 1, 2], n_of=lambda t: 50, fn=fn)
        pool.shutdown()
        # task t's chunks must all appear before any of task t+1's
        last_seen = {}
        for i, t in enumerate(events):
            last_seen[t] = i
        first_seen = {}
        for i, t in reversed(list(enumerate(events))):
            first_seen[t] = i
        assert last_seen[0] < first_seen[1] < last_seen[1] < first_seen[2]


class TestMap:
    def test_map_preserves_order(self):
        pool = WorkPool(4)
        out = pool.map(lambda x: x * x, list(range(20)))
        pool.shutdown()
        assert out == [x * x for x in range(20)]

    def test_context_manager(self):
        with WorkPool(2) as pool:
            assert pool.map(lambda x: -x, [1, 2]) == [-1, -2]

    def test_default_pool_singleton(self):
        assert default_pool() is default_pool()


class TestEnvAndStats:
    def test_num_workers_env_var(self, monkeypatch):
        monkeypatch.setenv("FEATGRAPH_NUM_WORKERS", "3")
        assert WorkPool().num_workers == 3
        monkeypatch.delenv("FEATGRAPH_NUM_WORKERS")
        assert WorkPool().num_workers >= 1

    def test_explicit_count_beats_env(self, monkeypatch):
        monkeypatch.setenv("FEATGRAPH_NUM_WORKERS", "3")
        assert WorkPool(num_workers=2).num_workers == 2

    def test_stats_counts_dispatched_chunks(self):
        with WorkPool(4) as pool:
            s = pool.stats()
            assert s == {"workers": 4, "chunks_dispatched": 0,
                         "worker_chunks": {}, "active": False}
            pool.parallel_for(100, lambda lo, hi: None, num_chunks=10)
            pool.map(lambda x: x, [1, 2, 3])
            s = pool.stats()
            assert s["chunks_dispatched"] == 13
            assert s["active"]
            assert sum(s["worker_chunks"].values()) == 13

    def test_inline_paths_counted(self):
        with WorkPool(1) as pool:
            pool.parallel_for(5, lambda lo, hi: None)
            pool.map(lambda x: x, [7])
            assert pool.stats()["chunks_dispatched"] == 2
            assert not pool.stats()["active"]  # never spun up threads


class TestExecStats:
    def test_accumulates_and_reports(self):
        st = ExecStats()
        st.add_chunk(0.5, 0.25, 100, compiled=True)
        st.add_chunk(0.5, bytes_moved=50)
        d = st.as_dict()
        assert d["eval_seconds"] == 1.0
        assert d["aggregate_seconds"] == 0.25
        assert d["bytes_moved"] == 150
        assert d["chunks"] == 2 and d["compiled_chunks"] == 1
        assert "chunks=2" in repr(st)

    def test_thread_safe_under_contention(self):
        st = ExecStats()
        threads = [threading.Thread(
            target=lambda: [st.add_chunk(0.001, compiled=True)
                            for _ in range(500)]) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        d = st.as_dict()
        assert d["chunks"] == d["compiled_chunks"] == 4000
