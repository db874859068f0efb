"""Pluggable segment-reduction strategies.

Aggregating a chunk's per-edge messages into destination rows is a
segmented reduction, and *how* the segments are reduced dominates GNN
aggregation cost -- the chunk's degree histogram decides which shape of
vectorization wins.  Three strategies implement one interface:

``reduceat``
    The sorted-CSR baseline: one ``ufunc.reduceat`` over the chunk's
    segment starts.  One C call, no index construction; the generic inner
    loop pays per segment, which hurts when rows are long and the feature
    width is large.

``bucketed``
    Degree-bucketed vectorization (the paper's hybrid-partitioning idea
    applied to numpy): rows of equal degree ``d`` are gathered into one
    dense ``(rows, d, F)`` batch and reduced with a single
    ``ufunc.reduce`` along the degree axis -- numpy's tight SIMD reduction
    instead of reduceat's per-segment dispatch.  Pays a fancy-index gather
    and one Python-level iteration per *distinct* degree, so it wins
    exactly when segments are plentiful relative to distinct degrees.

``parallel``
    Rows sharded across :class:`~repro.tensorir.runtime.WorkPool` workers,
    segment-aligned, each worker reducing its shard with ``reduceat`` into
    a per-worker slice of a partial buffer; the combine into the
    accumulator is one vectorized step after all shards land.  Because
    shard boundaries never split a segment and each segment is reduced by
    the same ``reduceat`` primitive, results are **bit-identical across
    worker counts** (and to the ``reduceat`` strategy).

Parity contract (pinned by ``tests/runtime/test_strategies.py`` and the
fuzzer's ``--exec-strategy`` stage): for order-insensitive reducers
(max/min) every strategy is bit-identical to the ``reduceat`` oracle; for
sum/prod/mean the bucketed strategy reassociates (numpy's pairwise SIMD
reduce vs reduceat's internal order), so agreement is bounded at 1e-6
relative -- ``reduceat`` itself matches neither a sequential nor a
pairwise Python recomputation bit-for-bit, so exact equality across
differently-vectorized sums is not a meaningful target.

:func:`select_strategy` picks one strategy per kernel from the degree
histogram, the feature width and the worker count (the paper's hybrid
partitioning likewise routes rows by a degree threshold);
``FEATGRAPH_AGG_STRATEGY`` or a kernel's ``agg_strategy`` pins one of
:data:`STRATEGY_NAMES` instead.
"""

from __future__ import annotations

import os
import warnings
from typing import Sequence

import numpy as np

from repro.runtime.plan import SegmentInfo
from repro.runtime.reducers import Reducer
from repro.tensorir.runtime import WorkPool, default_pool

__all__ = [
    "AGG_STRATEGY_ENV",
    "AggregationStrategy",
    "ReduceatStrategy",
    "DegreeBucketedStrategy",
    "ParallelStrategy",
    "STRATEGY_NAMES",
    "make_strategy",
    "strategy_from_env",
    "select_strategy",
    "resolve_strategy",
]

#: environment override: "reduceat" | "bucketed" | "parallel" | "auto"
AGG_STRATEGY_ENV = "FEATGRAPH_AGG_STRATEGY"

STRATEGY_NAMES = ("reduceat", "bucketed", "parallel")

#: estimated ufunc work (edge-values) that must back each distinct degree
#: for bucketing's per-bucket Python dispatch to pay for itself
_BUCKET_WORK_PER_DEGREE = 512

#: minimum edge-values in a chunk before sharding it across workers beats
#: the dispatch cost of waking the pool
_PARALLEL_MIN_WORK = 1 << 18

#: below this many edges a parallel combine runs inline (serial reduceat)
_PARALLEL_MIN_EDGES = 4096


class AggregationStrategy:
    """Interface: combine one chunk's per-edge values into the accumulator.

    ``acc`` is the (rows, \\*feat) accumulator (identity-initialized);
    ``seg`` the chunk's :class:`~repro.runtime.plan.SegmentInfo`; ``msgs``
    the (edges, \\*feat) values, CSR-sorted so each segment is contiguous.
    Implementations must write ``acc[seg.seg_rows] =
    reducer.ufunc(acc[seg.seg_rows], <per-segment reduction>)`` semantics
    and nothing else -- rows absent from the chunk stay untouched.
    """

    name = "?"

    def combine(self, acc: np.ndarray, seg: SegmentInfo, msgs: np.ndarray,
                reducer: Reducer) -> None:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class ReduceatStrategy(AggregationStrategy):
    """Sorted-CSR ``ufunc.reduceat`` -- the baseline and the oracle."""

    name = "reduceat"

    def combine(self, acc, seg, msgs, reducer):
        vals = reducer.ufunc.reduceat(msgs, seg.starts, axis=0)
        rows = seg.seg_rows
        acc[rows] = reducer.ufunc(acc[rows], vals)


class DegreeBucketedStrategy(AggregationStrategy):
    """Equal-degree rows batched into dense ``(rows, d, F)`` reductions."""

    name = "bucketed"

    def combine(self, acc, seg, msgs, reducer):
        lengths = seg.lengths
        order = np.argsort(lengths, kind="stable")
        sorted_len = lengths[order]
        # bucket boundaries: equal-degree runs of the sorted histogram
        bnd = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_len)) + 1, [len(order)]))
        ufunc = reducer.ufunc
        for b0, b1 in zip(bnd[:-1], bnd[1:]):
            d = int(sorted_len[b0])
            segs = order[b0:b1]
            starts = seg.starts[segs]
            if d == 1:
                vals = msgs[starts]
            else:
                pos = starts[:, None] + np.arange(d)
                batch = msgs[pos]
                if batch.dtype == np.float32 and not reducer.order_insensitive:
                    # The dense reduction visits elements in CSR order, which
                    # differs from whatever order produced a caller's oracle;
                    # for long float32 segments the sequential rounding drift
                    # between two orders is the dominant error.  Accumulating
                    # in float64 lands near the true value regardless of
                    # order, keeping every comparison inside the contract.
                    vals = ufunc.reduce(
                        batch, axis=1, dtype=np.float64).astype(np.float32)
                else:
                    vals = ufunc.reduce(batch, axis=1)
            rows = seg.seg_rows[segs]
            acc[rows] = ufunc(acc[rows], vals)


class ParallelStrategy(AggregationStrategy):
    """Segment-aligned row shards reduced concurrently on a WorkPool.

    Every worker fills its own slice of one per-chunk partial buffer
    (per-worker partial accumulators), then the main thread folds the
    whole buffer into ``acc`` in a single deterministic step.
    """

    name = "parallel"

    def __init__(self, pool: WorkPool | None = None,
                 min_edges: int = _PARALLEL_MIN_EDGES):
        self._pool = pool
        self.min_edges = min_edges

    @property
    def pool(self) -> WorkPool:
        return self._pool if self._pool is not None else default_pool()

    def combine(self, acc, seg, msgs, reducer):
        pool = self.pool
        n_seg = len(seg.starts)
        n_edges = len(seg.rows)
        workers = pool.num_workers
        if workers <= 1 or n_edges < self.min_edges or n_seg < 2:
            ReduceatStrategy().combine(acc, seg, msgs, reducer)
            return
        cuts = self._shard_cuts(seg, min(workers, n_seg), n_edges)
        partial = np.empty((n_seg,) + msgs.shape[1:], dtype=msgs.dtype)

        def shard(bounds):
            s0, s1 = bounds
            end = seg.starts[s1] if s1 < n_seg else n_edges
            partial[s0:s1] = reducer.ufunc.reduceat(
                msgs[:end], seg.starts[s0:s1], axis=0)
        pool.map(shard, list(zip(cuts[:-1], cuts[1:])))
        rows = seg.seg_rows
        acc[rows] = reducer.ufunc(acc[rows], partial)

    @staticmethod
    def _shard_cuts(seg: SegmentInfo, shards: int,
                    n_edges: int) -> np.ndarray:
        """Edge-balanced segment-index cuts (never split a segment)."""
        targets = (np.arange(1, shards) * n_edges) // shards
        cuts = np.searchsorted(seg.starts, targets, side="left")
        cuts = np.unique(np.concatenate(([0], cuts, [len(seg.starts)])))
        return cuts


def make_strategy(name: str, pool: WorkPool | None = None
                  ) -> AggregationStrategy:
    """Instantiate a strategy by name."""
    if name == "reduceat":
        return ReduceatStrategy()
    if name == "bucketed":
        return DegreeBucketedStrategy()
    if name == "parallel":
        return ParallelStrategy(pool=pool)
    raise ValueError(
        f"unknown aggregation strategy {name!r} "
        f"(known: {'/'.join(STRATEGY_NAMES)})")


def strategy_from_env() -> str | None:
    """The ``FEATGRAPH_AGG_STRATEGY`` override, validated; None if unset
    or ``auto``."""
    value = os.environ.get(AGG_STRATEGY_ENV, "").strip().lower()
    if value in ("", "auto"):
        return None
    if value not in STRATEGY_NAMES:
        raise ValueError(
            f"{AGG_STRATEGY_ENV}={value!r}: expected one of "
            f"{'/'.join(STRATEGY_NAMES)} or 'auto'")
    return value


def select_strategy(degrees: Sequence[int], width: int,
                    pool: WorkPool | None = None) -> str:
    """Pick a strategy name from the degree histogram and feature width.

    ``degrees`` is the per-destination in-degree of the topology (or the
    portion of it one pass covers).  Degree-bucketing wins when its
    per-distinct-degree Python dispatch is amortized by the vectorized
    work it unlocks (``nnz * width`` edge-values across ``distinct``
    buckets); failing that, large kernels shard across an available
    multi-worker pool (``pool``, else the default pool); everything else
    stays on ``reduceat``.
    """
    degrees = np.asarray(degrees)
    nonzero = degrees[degrees > 0]
    if len(nonzero) == 0:
        return "reduceat"
    values = int(nonzero.sum()) * max(1, int(width))
    if values >= _BUCKET_WORK_PER_DEGREE * len(np.unique(nonzero)):
        return "bucketed"
    workers = (pool if pool is not None else default_pool()).num_workers
    if workers > 1 and values >= _PARALLEL_MIN_WORK:
        return "parallel"
    return "reduceat"


#: env-override strategy names already warned about (one warning per
#: process, not one per kernel lowering)
_ENV_OVERRIDE_WARNED: set = set()


def resolve_strategy(requested: str | None, degrees, width: int,
                     pool: WorkPool | None = None) -> AggregationStrategy:
    """Resolution order: explicit request > env override > auto-select.

    ``requested`` (a kernel's ``agg_strategy``) is None or one of
    :data:`STRATEGY_NAMES`; anything else raises :class:`ValueError`.
    When the env override forces a strategy the selector would not have
    picked for this workload, a :class:`UserWarning` is emitted once per
    process per strategy name -- a global override hitting hundreds of
    kernel lowerings must not repeat itself per kernel.
    """
    if requested is not None and requested not in STRATEGY_NAMES:
        raise ValueError(
            f"unknown aggregation strategy {requested!r} "
            f"(known: {'/'.join(STRATEGY_NAMES)})")
    env = None if requested else strategy_from_env()
    name = requested or env or select_strategy(degrees, width, pool)
    if env is not None and env not in _ENV_OVERRIDE_WARNED:
        picked = select_strategy(degrees, width, pool)
        if picked != env:
            _ENV_OVERRIDE_WARNED.add(env)
            warnings.warn(
                f"{AGG_STRATEGY_ENV}={env!r} overrides the selector's "
                f"choice ({picked!r} for this workload); further kernels "
                "will use the override silently", UserWarning,
                stacklevel=2)
    return make_strategy(name, pool=pool)
