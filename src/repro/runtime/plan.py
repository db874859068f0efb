"""Execution plans: what a bound kernel lowers to before it runs.

The four kernel families (spmm / sddmm / softmax phases / fused chains)
used to each hand-roll the same runtime loop: slice the edge set into
chunks, gather the chunk's ``src``/``dst``/``eid`` index vectors, evaluate
the UDF batch, and push the values into an accumulator or an output
buffer.  An :class:`ExecutionPlan` reifies that loop as data:

- a **chunking policy** (:class:`ChunkPolicy`): the target edge count,
  shrunk by :func:`effective_chunk_edges` when a compiled program reports
  its per-item workset, and whether chunk boundaries must fall on CSR row
  boundaries (row alignment is what makes segmented reduction and
  cooperative threading race-free);
- a **gather plan** (:class:`GatherPlan`): the traversal-ordered
  ``src``/``dst``/``eid`` arrays a chunk's batch is sliced from;
- per-chunk **stages** (:class:`Stage`): an evaluate callable plus a sink
  (segmented aggregation via a pluggable strategy, or an edge-indexed
  scatter).  Single kernels have one stage; fused chains have one per
  planned stage.

The :class:`~repro.runtime.engine.Executor` interprets the plan; the
aggregation strategies live in :mod:`repro.runtime.strategies`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CHUNK_WORKSET_BYTES",
    "MIN_CHUNK_EDGES",
    "effective_chunk_edges",
    "row_aligned_chunks",
    "ChunkPolicy",
    "GatherPlan",
    "SegmentInfo",
    "segment_info",
    "Stage",
    "EdgeTask",
    "ExecutionPlan",
]

#: per-chunk gathered-bytes target when a compiled program reports its
#: workset; keeps the chunk's intermediates cache-resident (a UDF touching
#: 4 KB per edge runs chunks of 2K edges, not 128K)
CHUNK_WORKSET_BYTES = 8 * 1024 * 1024

#: floor on workset-derived chunk sizes -- tinier chunks would re-expose
#: the per-chunk dispatch overhead compilation exists to amortize
MIN_CHUNK_EDGES = 1024


def effective_chunk_edges(chunk_edges: int, prog) -> int:
    """Shrink ``chunk_edges`` so one chunk's gathered workset stays within
    :data:`CHUNK_WORKSET_BYTES`, using the compiled program's per-item
    accounting.  No-op for interpreted execution (``prog is None``)."""
    ws = prog.stats.workset_bytes_per_item if prog is not None else 0
    if ws <= 0:
        return chunk_edges
    return min(chunk_edges, max(MIN_CHUNK_EDGES, CHUNK_WORKSET_BYTES // ws))


def row_aligned_chunks(indptr: np.ndarray,
                       target: int) -> list[tuple[int, int]]:
    """Split ``[0, nnz)`` into chunks of ~``target`` edges whose boundaries
    fall on CSR row boundaries, so every destination row's edges land in
    exactly one chunk and segmented reduction never splits a row."""
    nnz = int(indptr[-1])
    if nnz == 0:
        return []
    bounds = [0]
    while bounds[-1] < nnz:
        want = bounds[-1] + target
        if want >= nnz:
            bounds.append(nnz)
            break
        # advance to the smallest row boundary covering `want`; if the
        # row containing it is huge, take the next boundary past start.
        j = int(np.searchsorted(indptr, want, side="left"))
        end = int(indptr[j])
        if end <= bounds[-1]:
            j = int(np.searchsorted(indptr, bounds[-1], side="right"))
            end = int(indptr[j])
        bounds.append(end)
    return list(zip(bounds[:-1], bounds[1:]))


@dataclass(frozen=True)
class ChunkPolicy:
    """How an edge range is sliced into chunks."""

    target_edges: int
    row_aligned: bool = True

    def bounds(self, *, indptr: np.ndarray | None = None,
               nnz: int | None = None, prog=None) -> list[tuple[int, int]]:
        """Materialize chunk bounds.

        Row-aligned policies slice along ``indptr`` row boundaries;
        unaligned ones slice ``[0, nnz)`` evenly.  ``prog`` (a compiled
        vector program) shrinks the target via
        :func:`effective_chunk_edges`.
        """
        target = effective_chunk_edges(self.target_edges, prog)
        if self.row_aligned:
            if indptr is None:
                raise ValueError("row-aligned chunking needs indptr")
            return row_aligned_chunks(np.asarray(indptr), target)
        if nnz is None:
            raise ValueError("unaligned chunking needs nnz")
        n = int(nnz)
        return [(c0, min(n, c0 + target)) for c0 in range(0, n, target)]


@dataclass
class GatherPlan:
    """Traversal-ordered edge endpoint arrays a chunk batch slices from."""

    src: np.ndarray
    dst: np.ndarray
    eid: np.ndarray

    def batch(self, c0: int, c1: int) -> dict:
        """The evaluator batch for edges ``[c0, c1)``."""
        return {"src": self.src[c0:c1], "dst": self.dst[c0:c1],
                "eid": self.eid[c0:c1]}


@dataclass
class SegmentInfo:
    """Equal-destination runs of one chunk (rows sorted within the chunk).

    ``starts[i]`` is the chunk-local offset of segment ``i``;
    ``seg_rows[i]`` its destination row; ``lengths[i]`` its edge count
    (the chunk's degree histogram, which the bucketed strategy groups by).
    """

    rows: np.ndarray       # per-edge destination, sorted
    starts: np.ndarray     # (n_segments,) chunk-local segment starts
    seg_rows: np.ndarray   # (n_segments,) destination row per segment
    lengths: np.ndarray    # (n_segments,) segment sizes


def segment_info(dst_sorted: np.ndarray) -> SegmentInfo:
    """Boundaries of equal-destination runs in a sorted chunk.

    A zero-edge chunk has zero segments (the engine never schedules one,
    but degenerate graphs reach this through the chunking helpers)."""
    if len(dst_sorted) == 0:
        empty = np.empty(0, dtype=np.int64)
        return SegmentInfo(rows=np.asarray(dst_sorted), starts=empty,
                           seg_rows=empty, lengths=empty)
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(dst_sorted)) + 1))
    lengths = np.diff(np.concatenate((starts, [len(dst_sorted)])))
    return SegmentInfo(rows=dst_sorted, starts=starts,
                       seg_rows=dst_sorted[starts], lengths=lengths)


@dataclass
class Stage:
    """One evaluate+sink step of a chunk.

    ``evaluate(bindings, ctx)`` returns ``(values, bytes_moved)``; the
    engine stores the values under ``name`` in the chunk context (later
    stages of a fused chain read them) and hands them to ``sink``.
    ``compiled`` feeds the ExecStats compiled-chunk counter.
    """

    name: str
    evaluate: Callable          # (bindings, ChunkCtx) -> (ndarray, int)
    sink: object | None = None  # engine.AggregateSink / engine.ScatterSink
    compiled: bool = False


@dataclass
class EdgeTask:
    """One pass over an edge range: a gather plan, chunk bounds, stages.

    SpMM kernels emit one task per (feature tile x graph partition);
    SDDMM one per feature tile; fused chains a single multi-stage task.
    Tasks run in order -- the cooperative one-partition-at-a-time schedule
    -- while chunks within a task may run on a WorkPool.
    """

    gather: GatherPlan
    bounds: Sequence[tuple[int, int]]
    stages: Sequence[Stage]
    #: segments are computed lazily per chunk only when a sink needs them
    needs_segments: bool = True

    def strategy_for_chunk(self, ci: int):
        """Always None: every chunk of a task combines through its sink's
        strategy.  Kept for plan readers that count strategies per chunk
        (``perfbench/spans.py``)."""
        return None


@dataclass
class ExecutionPlan:
    """Everything the :class:`~repro.runtime.engine.Executor` needs."""

    tasks: Sequence[EdgeTask]
    label: str = ""
    #: name of the aggregation strategy the plan's sinks use (None for
    #: pure scatter plans); surfaced through ExecStats for benchmarks
    strategy: str | None = None
    finalize: Callable | None = None
    extras: dict = field(default_factory=dict)
