"""Fingerprint-keyed caches of degree histograms and chunk boundaries.

Strategy selection and plan lowering both interrogate the topology --
the degree histogram for :func:`~repro.runtime.strategies.select_strategy`,
row-aligned chunk bounds for the
:class:`~repro.runtime.plan.ChunkPolicy`.  Both are pure functions of the
CSR structure, yet they used to be recomputed on **every kernel
invocation** -- repeated mini-batch inference over one graph paid the
``np.diff``/``searchsorted`` tax per call.

This module memoizes those derivations keyed by
:meth:`repro.graph.CSRMatrix.fingerprint` (a stable content hash, safe
across garbage collection unlike ``id()``).  The caches are small LRUs:
workloads cycle through a handful of graphs (train/valid/test splits,
partitions), not thousands.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.runtime.plan import row_aligned_chunks

__all__ = ["degree_stats", "chunk_bounds", "cache_info", "clear_caches"]

#: distinct (fingerprint, params) entries kept per cache
_CACHE_SIZE = 32


class _LRU(OrderedDict):
    def get_or_compute(self, key, compute):
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = compute()
        self[key] = value
        if len(self) > _CACHE_SIZE:
            self.popitem(last=False)
        return value


_degree_cache = _LRU()
_bounds_cache = _LRU()


def degree_stats(csr) -> np.ndarray:
    """Per-destination in-degree of ``csr`` (all rows, int64), cached on
    its fingerprint.  The array is shared between callers: read only."""
    return _degree_cache.get_or_compute(
        csr.fingerprint(), lambda: np.diff(csr.indptr).astype(np.int64))


def chunk_bounds(csr, target: int) -> list[tuple[int, int]]:
    """Row-aligned chunk bounds for ``csr`` at ``target`` edges per chunk,
    cached on (fingerprint, target)."""
    def compute():
        return row_aligned_chunks(np.asarray(csr.indptr), int(target))
    return _bounds_cache.get_or_compute((csr.fingerprint(), int(target)),
                                        compute)


def cache_info() -> dict:
    """Entry counts per cache (diagnostics / tests)."""
    return {"degree": len(_degree_cache), "bounds": len(_bounds_cache)}


def clear_caches() -> None:
    _degree_cache.clear()
    _bounds_cache.clear()
