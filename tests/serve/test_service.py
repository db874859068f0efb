"""Serving-layer coverage (ISSUE 10): correctness of scattered logits,
micro-batch coalescing of duplicate seeds, deadlines, admission control,
graceful shutdown, and the zero-recompile steady state."""

import threading
import time

import numpy as np
import pytest

from repro.core.compile import KernelCache, use_kernel_cache
from repro.graph.datasets import planted_partition
from repro.minidgl.backends import get_backend
from repro.minidgl.models import GCN
from repro.minidgl.train import infer_minibatch
from repro.serve import (
    DeadlineExceeded,
    InferenceService,
    Overloaded,
    ServiceClosed,
)

#: topology-independent pipeline passes that must never re-run once the
#: serving templates are warm (same ledger as tests/core/test_block_kernel_reuse)
EXPENSIVE_PASSES = ("build_expr", "fuse_fds", "lower", "validate",
                    "analyze", "simplify", "vectorize", "codegen")


@pytest.fixture(scope="module")
def dataset():
    return planted_partition(n=300, num_classes=4, feature_dim=16,
                             avg_degree=10, seed=0)


@pytest.fixture()
def model():
    return GCN(16, 4, hidden=8, dropout=0.0, seed=0)


@pytest.fixture()
def backend():
    return get_backend("featgraph")


def _service(model, dataset, backend, **kw):
    kw.setdefault("batch_window_ms", 0.0)
    return InferenceService(model, dataset, backend, **kw)


class TestCorrectness:
    def test_matches_infer_minibatch(self, model, dataset, backend):
        """Full-neighborhood serving returns exactly what the offline
        harness computes, rows in request order."""
        ids = np.array([5, 3, 9, 120])
        want, _ = infer_minibatch(model, dataset, backend, ids)
        with _service(model, dataset, backend) as svc:
            got, stats = svc.infer(ids)
        assert np.allclose(got, want, atol=1e-5)
        assert stats.batch_seeds == 4

    def test_single_seed_scalar_request(self, model, dataset, backend):
        want, _ = infer_minibatch(model, dataset, backend, np.array([42]))
        with _service(model, dataset, backend) as svc:
            got, _ = svc.infer(42)
        assert got.shape == (1, 4)
        assert np.allclose(got, want, atol=1e-5)

    def test_duplicate_seeds_within_request(self, model, dataset, backend):
        with _service(model, dataset, backend) as svc:
            got, stats = svc.infer(np.array([7, 7, 11]))
        assert got.shape == (3, 4)
        assert np.array_equal(got[0], got[1])
        assert stats.batch_seeds == 2  # deduplicated block

    @pytest.mark.parametrize("bad", [-1, 300, 10**6])
    def test_bad_seed_rejected_at_submit(self, model, dataset, backend, bad):
        """An out-of-range id raises at submit and never reaches the
        batcher, so the valid requests around it in one window get the
        logits they get when served alone."""
        svc = _service(model, dataset, backend, batch_window_ms=50.0,
                       start=False)
        first = svc.submit(np.array([1, 2]))
        with pytest.raises(ValueError, match="seed ids"):
            svc.submit(np.array([4, bad]))
        last = svc.submit(np.array([5]))
        svc.start()
        try:
            got_first, got_last = first.result(10.0), last.result(10.0)
        finally:
            svc.close()
        assert first.stats().batch_requests == 2
        for ids, got in (([1, 2], got_first), ([5], got_last)):
            with _service(model, dataset, backend) as alone:
                want, _ = alone.infer(np.array(ids))
            assert np.allclose(got, want, atol=1e-5)

    def test_empty_seed_request(self, model, dataset, backend):
        with _service(model, dataset, backend) as svc:
            got, stats = svc.infer(np.array([], dtype=np.int64))
        assert got.shape == (0, 4)
        assert stats.batch_seeds == 0


class TestMicroBatching:
    def test_duplicate_seeds_across_concurrent_requests(self, model, dataset,
                                                        backend):
        """Concurrent requests sharing seeds coalesce into one deduplicated
        batch, and each still receives its own correctly-ordered logits."""
        want, _ = infer_minibatch(model, dataset, backend,
                                  np.array([1, 2, 3]))
        svc = _service(model, dataset, backend, batch_window_ms=100.0,
                       start=False)
        f1 = svc.submit(np.array([1, 2, 3]))
        f2 = svc.submit(np.array([3, 1]))
        f3 = svc.submit(2)
        svc.start()
        try:
            r1 = f1.result(10.0)
            r2 = f2.result(10.0)
            r3 = f3.result(10.0)
        finally:
            svc.close()
        assert np.allclose(r1, want, atol=1e-5)
        assert np.allclose(r2, want[[2, 0]], atol=1e-5)
        assert np.allclose(r3, want[[1]], atol=1e-5)
        # all three rode one batch over the 3 unique seeds
        for fut in (f1, f2, f3):
            assert fut.stats().batch_requests == 3
            assert fut.stats().batch_seeds == 3
        assert svc.stats()["batches"] == 1

    def test_max_batch_seeds_splits_batches(self, model, dataset, backend):
        svc = _service(model, dataset, backend, batch_window_ms=100.0,
                       max_batch_seeds=4, start=False)
        futs = [svc.submit(np.array([i, i + 50, i + 100])) for i in range(3)]
        svc.start()
        try:
            for f in futs:
                f.result(10.0)
        finally:
            svc.close()
        # 3 seeds per request, cap 4 -> one request per batch
        assert svc.stats()["batches"] == 3
        assert all(f.stats().batch_requests == 1 for f in futs)

    def test_occupancy_and_stats_fields(self, model, dataset, backend):
        with _service(model, dataset, backend, max_batch_seeds=8) as svc:
            _, stats = svc.infer(np.array([4, 9]))
        assert stats.occupancy == pytest.approx(2 / 8)
        assert stats.queue_seconds >= 0
        assert stats.sample_seconds > 0
        assert stats.compute_seconds > 0
        assert stats.total_seconds >= stats.compute_seconds
        assert np.isnan(stats.cache_hit_rate)  # no cache configured


class TestDeadlines:
    def test_expired_request_gets_timely_error(self, model, dataset, backend):
        """A request whose deadline passes while it waits is failed with
        DeadlineExceeded when its batch forms -- promptly, not at the end
        of the queue's natural drain."""
        with _service(model, dataset, backend, batch_window_ms=50.0) as svc:
            t0 = time.perf_counter()
            fut = svc.submit(np.array([3]), deadline_s=1e-4)
            with pytest.raises(DeadlineExceeded):
                fut.result(10.0)
            assert time.perf_counter() - t0 < 2.0
            assert svc.stats()["expired"] == 1
            # the failure still carries queue accounting
            assert fut.stats().compute_seconds == 0.0

    def test_expired_request_does_not_poison_batchmates(self, model, dataset,
                                                        backend):
        svc = _service(model, dataset, backend, batch_window_ms=100.0,
                       start=False)
        ok = svc.submit(np.array([1, 2]))
        doomed = svc.submit(np.array([5]), deadline_s=1e-4)
        svc.start()
        try:
            got = ok.result(10.0)
            with pytest.raises(DeadlineExceeded):
                doomed.result(10.0)
        finally:
            svc.close()
        want, _ = infer_minibatch(model, dataset, backend, np.array([1, 2]))
        assert np.allclose(got, want, atol=1e-5)
        assert ok.stats().batch_requests == 1  # the expired one dropped out

    def test_generous_deadline_is_met(self, model, dataset, backend):
        with _service(model, dataset, backend) as svc:
            got, _ = svc.infer(np.array([8]), deadline_s=30.0)
        assert got.shape == (1, 4)


class TestAdmissionControl:
    def test_rejects_beyond_queue_depth(self, model, dataset, backend):
        svc = _service(model, dataset, backend, max_queue_depth=3,
                       start=False)
        futs = [svc.submit(np.array([i])) for i in range(3)]
        with pytest.raises(Overloaded):
            svc.submit(np.array([99]))
        assert svc.stats()["rejected"] == 1
        # accepted requests still complete once the batcher runs
        svc.start()
        try:
            for f in futs:
                assert f.result(10.0).shape == (1, 4)
        finally:
            svc.close()
        assert svc.stats()["served"] == 3

    def test_saturation_then_recovery(self, model, dataset, backend):
        """After the queue drains, admission opens again."""
        svc = _service(model, dataset, backend, max_queue_depth=2,
                       start=False)
        svc.submit(np.array([0]))
        svc.submit(np.array([1]))
        with pytest.raises(Overloaded):
            svc.submit(np.array([2]))
        svc.start()
        try:
            got, _ = svc.infer(np.array([2]), timeout=10.0)
        finally:
            svc.close()
        assert got.shape == (1, 4)


class TestShutdown:
    def test_close_drains_queued_requests(self, model, dataset, backend):
        svc = _service(model, dataset, backend, start=False)
        futs = [svc.submit(np.array([i, i + 10])) for i in range(5)]
        svc.start()
        svc.close(drain=True)
        for f in futs:
            assert f.result(0.0).shape == (2, 4)  # already resolved
        assert svc.stats()["served"] == 5

    def test_close_without_drain_cancels(self, model, dataset, backend):
        svc = _service(model, dataset, backend, start=False)
        futs = [svc.submit(np.array([i])) for i in range(3)]
        svc.close(drain=False)
        for f in futs:
            with pytest.raises(ServiceClosed):
                f.result(0.0)
        assert svc.stats()["cancelled"] == 3

    @pytest.mark.parametrize("seeds", [[1], []], ids=["one", "empty"])
    def test_submit_after_close_rejected(self, model, dataset, backend,
                                         seeds):
        svc = _service(model, dataset, backend)
        svc.close()
        before = svc.stats()
        with pytest.raises(ServiceClosed):
            svc.submit(np.array(seeds, dtype=np.int64))
        after = svc.stats()
        assert (after["accepted"], after["served"]) == \
            (before["accepted"], before["served"])


class TestFeatureCacheIntegration:
    def test_repeat_requests_hit_the_cache(self, model, dataset, backend):
        with _service(model, dataset, backend,
                      feature_cache_bytes=1 << 20) as svc:
            ids = np.array([5, 3, 9])
            first, s1 = svc.infer(ids)
            second, s2 = svc.infer(ids)
        assert np.allclose(first, second)
        assert s1.cache_hit_rate == 0.0
        assert s2.cache_hit_rate == 1.0  # identical frontier, fully pinned
        cache = svc.stats()["cache"]
        assert cache["hits"] > 0 and cache["misses"] > 0

    def test_cached_logits_match_uncached(self, model, dataset, backend):
        ids = np.arange(0, 40, 3)
        with _service(model, dataset, backend) as plain:
            want, _ = plain.infer(ids)
        # a tiny budget forces eviction churn; results must be identical
        with _service(model, dataset, backend,
                      feature_cache_bytes=8 * 16 * 4) as svc:
            for _ in range(3):
                got, _ = svc.infer(ids)
                assert np.allclose(got, want, atol=1e-6)


class TestZeroRecompileSteadyState:
    def test_100_served_batches_are_pure_binds(self, dataset, backend):
        """THE serving acceptance check: after a one-batch warmup, 100
        served batches (fresh sampled topologies every time) re-run no
        expensive compile pass and add no pipeline runs -- every kernel is
        a frozen-template bind."""
        model = GCN(16, 4, hidden=8, dropout=0.0, seed=0)
        rng = np.random.default_rng(7)
        with use_kernel_cache(KernelCache()) as cache:
            with _service(model, dataset, backend, fanouts=[3, 3],
                          rng=np.random.default_rng(1)) as svc:
                svc.infer(np.array([0, 1, 2, 3]))  # warmup compiles
                frozen = dict(cache.stats()["pass_counts"])
                runs = cache.stats()["pipeline_runs"]
                binds_before = cache.stats()["binds"]
                for _ in range(100):
                    seeds = rng.choice(300, size=4, replace=False)
                    logits, _ = svc.infer(seeds)
                    assert logits.shape == (4, 4)
                stats = cache.stats()
                assert svc.stats()["batches"] == 101
            for p in EXPENSIVE_PASSES:
                assert stats["pass_counts"].get(p, 0) == frozen.get(p, 0), (
                    f"pass {p!r} re-ran during steady-state serving")
            assert stats["pipeline_runs"] == runs
            assert stats["binds"] > binds_before  # served by rebinding


class TestConcurrentClients:
    def test_closed_loop_clients_all_served_correctly(self, model, dataset,
                                                      backend):
        """8 closed-loop clients hammering the service: every response
        matches the offline reference for its seed."""
        want, _ = infer_minibatch(model, dataset, backend, np.arange(300))
        errors: list[BaseException] = []

        def client(cid):
            rng = np.random.default_rng(cid)
            try:
                for _ in range(10):
                    seed = int(rng.integers(0, 300))
                    got, _ = svc.infer(seed, timeout=30.0)
                    if not np.allclose(got[0], want[seed], atol=1e-4):
                        raise AssertionError(f"wrong logits for seed {seed}")
            except BaseException as exc:
                errors.append(exc)

        with _service(model, dataset, backend, batch_window_ms=2.0,
                      max_queue_depth=256,
                      feature_cache_bytes=1 << 20) as svc:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        assert not errors, errors[0]
        assert svc.stats()["served"] == 80
