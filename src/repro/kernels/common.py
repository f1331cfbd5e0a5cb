"""Shared kernel machinery: segment sums, row chunking, work partitions.

The transpose and SpMV kernels reduce over the row-major entry stream as a
*segmented reduction* with :func:`segment_sum` (``np.add.reduceat`` with
empty-segment repair) instead of per-row Python loops.  Row chunking bounds
the ``(entries, k)`` intermediate so large matrices never materialize
multi-GB temporaries — the paper hit exactly this wall (§6.3.5, "they used
a huge amount of the available RAM").  :data:`DEFAULT_CHUNK_ELEMENTS` is
the same bound for the forward row-group executor
(:mod:`repro.kernels.rowgroups`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import KernelError

__all__ = [
    "segment_sum",
    "iter_row_chunks",
    "balanced_partitions",
    "DEFAULT_CHUNK_ELEMENTS",
]

#: Upper bound on elements (entries x k) materialized per chunk (~256 MB f64).
DEFAULT_CHUNK_ELEMENTS = 32_000_000


def segment_sum(flat: np.ndarray, indptr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum rows of ``flat`` over the segments described by ``indptr``.

    ``flat`` has one row per entry, ``indptr`` is a CSR-style pointer with
    ``indptr[-1] == len(flat)``.  Empty segments produce zero rows —
    ``np.add.reduceat`` alone mishandles them (it returns the element at a
    repeated index), so reduction runs over nonempty segments only.
    """
    nseg = indptr.size - 1
    k = flat.shape[1] if flat.ndim == 2 else 1
    if out is None:
        out = np.zeros((nseg, k), dtype=flat.dtype)
    else:
        out[:] = 0
    if flat.shape[0] == 0:
        return out
    seg_len = np.diff(indptr)
    nonempty = seg_len > 0
    starts = indptr[:-1][nonempty]
    reduced = np.add.reduceat(flat, starts, axis=0)
    out[nonempty] = reduced
    return out


def iter_row_chunks(
    indptr: np.ndarray, k: int, max_elements: int = DEFAULT_CHUNK_ELEMENTS
) -> Iterator[tuple[int, int]]:
    """Yield ``(row_start, row_end)`` ranges whose entry count times ``k``
    stays under ``max_elements``.

    A single row larger than the budget still gets its own chunk (the
    kernel must make progress), so the bound is soft for pathological rows.
    """
    if k <= 0:
        raise KernelError(f"k must be positive, got {k}")
    nrows = indptr.size - 1
    budget_entries = max(1, max_elements // max(k, 1))
    r0 = 0
    while r0 < nrows:
        target = indptr[r0] + budget_entries
        r1 = int(np.searchsorted(indptr, target, side="right")) - 1
        r1 = max(r1, r0 + 1)
        r1 = min(r1, nrows)
        yield r0, r1
        r0 = r1


def balanced_partitions(indptr: np.ndarray, parts: int) -> list[tuple[int, int]]:
    """Split rows into ``parts`` contiguous ranges with near-equal nnz.

    This is the static OpenMP-style schedule the paper's parallel kernels
    use, except balanced by work rather than row count; partitions may be
    empty for very skewed matrices (a single huge row cannot be split).
    """
    if parts < 1:
        raise KernelError(f"parts must be >= 1, got {parts}")
    nrows = indptr.size - 1
    total = int(indptr[-1])
    bounds = [0]
    for p in range(1, parts):
        target = total * p // parts
        r = int(np.searchsorted(indptr, target, side="left"))
        r = min(max(r, bounds[-1]), nrows)
        bounds.append(r)
    bounds.append(nrows)
    return [(bounds[i], bounds[i + 1]) for i in range(parts)]
