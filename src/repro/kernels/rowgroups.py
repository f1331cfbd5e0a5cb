"""Row-group lowering and the one forward SpMM executor.

Every format lowers once into groups of rows that share a stored length.
A group is ``(rows, idx[n, L], val[n, m, L])``: ``n`` items, each gathering
``L`` rows of the dense operand and contracting them against ``m`` value
rows.  One executor runs every group as a batched matmul::

    C[rows] = val @ B[idx]          # (n, m, L) @ (n, L, k) -> (n, m, k)

so the per-row dot products fuse into regular, padding-free rectangles —
the core idea of SELL-C-sigma (sort rows by length, run few regular
shapes).  Each format keeps its own *stored* work:

* **CSR / COO / CSR5** group rows by exact length (no padding);
* **ELL** is a single zero-copy group of width ``W``, padding included;
* **SELL / BELL** group their chunks or slices by stored width, padding
  included; SELL writes straight to its permuted output rows;
* **BCSR** groups block rows by tile count: a block row is one item with
  ``m = br`` value rows over ``nb * bc`` gathered columns of a zero-padded B.

The lowering is k-independent, built lazily on the first multiply and
memoized on the (immutable) format instance; it is never pickled (see
:meth:`repro.formats.base.SparseFormat.__getstate__`), so the plan cache's
disk tier keeps storing only the conversion artifact.

Exactness: each output row is one matmul over that row's stored slots, in
stored order, whatever batch or thread computes it — so within a format
every schedule (threads, static/dynamic, ``chunk_elements``) and every
variant name is bit-identical.  Across formats only an rtol budget holds:
padding and slot order change the summation.  Padding slots keep their
IEEE semantics (``0 * inf`` is NaN) in ELL, SELL, BELL and BCSR.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import KernelError
from .common import DEFAULT_CHUNK_ELEMENTS

__all__ = ["RowGroup", "RowGroups", "lower", "lowered", "run_row_groups", "LOWERINGS"]

#: Gathered elements one batch aims for, below the ``chunk_elements`` cap:
#: a ``(n, L, k)`` gather of 2**16 float64 (512 KiB) stays cache-resident.
#: On a 2-CPU x86 host this ran 1.3-2.8x faster than whole-group gathers
#: (cant, torso1, dlmc_mag_90 at k=32).  Results do not depend on it.
BATCH_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class RowGroup:
    """``n`` items of one stored length ``L``.

    ``rows`` is the ``(n, m)`` array of output rows, or an ``int`` when the
    items' output rows are the contiguous run starting there (the executor
    then writes the matmul straight into C).
    """

    rows: np.ndarray | int
    idx: np.ndarray  # (n, L) rows of B to gather
    val: np.ndarray  # (n, m, L) values

    @property
    def length(self) -> int:
        return self.idx.shape[1]


class RowGroups:
    """A format's lowering: its groups plus the output/operand geometry."""

    def __init__(self, groups: list[RowGroup], out_rows: int, b_pad: int = 0):
        self.groups = tuple(groups)
        #: Rows of the output buffer (BCSR pads to whole block rows).
        self.out_rows = out_rows
        #: Zero rows appended to B (BCSR pads to whole block columns).
        self.b_pad = b_pad
        self.entries = sum(g.idx.size for g in self.groups)
        self._schedules: dict[tuple[int, int], list[list[tuple[int, int, int]]]] = {}

    @property
    def nbytes(self) -> int:
        """Bytes this lowering holds (views of the format count in full)."""
        return sum(
            g.idx.nbytes + g.val.nbytes + (0 if isinstance(g.rows, int) else g.rows.nbytes)
            for g in self.groups
        )

    def schedule(self, budget_entries: int, parts: int) -> list[list[tuple[int, int, int]]]:
        """Work items ``(group, row0, row1)`` cut into ``parts`` balanced slices.

        An item gathers at most ``budget_entries`` stored slots (a single
        item wider than that runs alone).  Slices cover the concatenated
        item list in order with near-equal stored slots each; empty slices
        are dropped.  Memoized per ``(budget_entries, parts)``.
        """
        key = (budget_entries, parts)
        cached = self._schedules.get(key)
        if cached is not None:
            return cached
        per_part = max(1, -(-self.entries // parts))
        slices: list[list[tuple[int, int, int]]] = [[] for _ in range(parts)]
        done = 0
        for gi, group in enumerate(self.groups):
            n, length = group.idx.shape
            step = max(1, budget_entries // length)
            r0 = 0
            while r0 < n:
                part = min(done // per_part, parts - 1)
                room = max(1, -(-((part + 1) * per_part - done) // length))
                r1 = min(n, r0 + step, r0 + room)
                slices[part].append((gi, r0, r1))
                done += (r1 - r0) * length
                r0 = r1
        result = [s for s in slices if s]
        if len(self._schedules) >= 32:
            self._schedules.clear()
        self._schedules[key] = result
        return result


# -- lowering -----------------------------------------------------------------


def _length_classes(lengths: np.ndarray):
    """Yield ``(L, members)`` per distinct nonzero length, members ascending."""
    order = np.argsort(lengths, kind="stable")
    uniq, first = np.unique(lengths[order], return_index=True)
    bounds = np.append(first, order.size)
    for gi, length in enumerate(uniq):
        if length > 0:
            yield int(length), order[bounds[gi] : bounds[gi + 1]]


def _out_rows(rows: np.ndarray) -> np.ndarray | int:
    """``rows`` as a start index when they form one contiguous run."""
    n, m = rows.shape
    start = int(rows[0, 0])
    if rows[-1, -1] - start == n * m - 1 and np.array_equal(
        rows.ravel(), np.arange(start, start + n * m)
    ):
        return start
    return rows


def _by_length(starts, lengths, out_rows, indices, values) -> list[RowGroup]:
    """Group flat stored rows (``starts[i]``, ``lengths[i]`` slots) by length."""
    groups = []
    for length, members in _length_classes(lengths):
        flat = starts[members][:, None] + np.arange(length)
        groups.append(
            RowGroup(
                _out_rows(out_rows[members][:, None]),
                indices[flat],
                values[flat].reshape(members.size, 1, length),
            )
        )
    return groups


def _lower_csr(A) -> RowGroups:
    indptr = A.indptr
    rows = np.arange(A.nrows, dtype=np.int64)
    return RowGroups(
        _by_length(indptr[:-1], np.diff(indptr), rows, A.indices, A.values), A.nrows
    )


def _lower_coo(A) -> RowGroups:
    indptr = A.row_segments()
    rows = np.arange(A.nrows, dtype=np.int64)
    return RowGroups(_by_length(indptr[:-1], np.diff(indptr), rows, A.cols, A.values), A.nrows)


def _lower_ell(A) -> RowGroups:
    # Zero-copy: the padded rectangle already is one group.
    group = RowGroup(0, A.indices, A.values.reshape(A.nrows, 1, A.width))
    return RowGroups([group], A.nrows)


def _lower_bell(A) -> RowGroups:
    rows = np.arange(A.nrows, dtype=np.int64)
    s = rows // A.row_block
    width = A.widths[s]
    starts = A.slice_ptr[s] + (rows % A.row_block) * width
    return RowGroups(_by_length(starts, width, rows, A.indices, A.values), A.nrows)


def _lower_sell(A) -> RowGroups:
    pos = np.arange(A.nrows, dtype=np.int64)
    width = A.widths[pos // A.chunk]
    groups = _by_length(A._flat_base(), width, A.permutation, A.indices, A.values)
    return RowGroups(groups, A.nrows)


def _lower_bcsr(A) -> RowGroups:
    br, bc = A.block_shape
    groups = []
    for ntiles, brows in _length_classes(np.diff(A.indptr)):
        tiles = A.indptr[brows][:, None] + np.arange(ntiles)  # (n, nb)
        cols = A.block_cols[tiles].astype(np.int64)[:, :, None] * bc + np.arange(bc)
        vals = A.blocks[tiles].transpose(0, 2, 1, 3)  # (n, br, nb, bc)
        groups.append(
            RowGroup(
                _out_rows(brows[:, None] * br + np.arange(br)),
                cols.reshape(brows.size, ntiles * bc),
                np.ascontiguousarray(vals).reshape(brows.size, br, ntiles * bc),
            )
        )
    return RowGroups(groups, A.nblockrows * br, b_pad=A.nblockcols * bc - A.ncols)


#: Format name -> lowering.  Every registered paper format has one.
LOWERINGS = {
    "coo": _lower_coo,
    "csr": _lower_csr,
    "csr5": _lower_csr,
    "ell": _lower_ell,
    "bcsr": _lower_bcsr,
    "bell": _lower_bell,
    "sell": _lower_sell,
}


def lower(A) -> RowGroups:
    """Build the row-group lowering of a format instance (not memoized)."""
    try:
        fn = LOWERINGS[A.format_name]
    except (KeyError, AttributeError):
        name = getattr(A, "format_name", type(A).__name__)
        raise KernelError(f"no SpMM kernel for format {name!r}") from None
    return fn(A)


def lowered(A) -> RowGroups:
    """The memoized lowering of ``A``, built on first use.

    Format arrays are immutable once built (the same contract the content
    fingerprint memo relies on), so the lowering lives on the instance.
    Two threads racing on the first call both build it; either result is
    identical, and the last assignment wins.
    """
    groups = A.__dict__.get("_row_groups")
    if groups is None:
        groups = lower(A)
        A._row_groups = groups
    return groups


# -- the executor -------------------------------------------------------------


def _run_items(groups: tuple[RowGroup, ...], items, B: np.ndarray, C: np.ndarray) -> None:
    k = B.shape[1]
    for gi, r0, r1 in items:
        g = groups[gi]
        gathered = B[g.idx[r0:r1]]  # (n, L, k)
        if isinstance(g.rows, int):
            m = g.val.shape[1]
            out = C[g.rows + r0 * m : g.rows + r1 * m].reshape(r1 - r0, m, k)
            np.matmul(g.val[r0:r1], gathered, out=out)
        else:
            C[g.rows[r0:r1]] = np.matmul(g.val[r0:r1], gathered)


def run_row_groups(
    A,
    B: np.ndarray,
    k: int | None = None,
    *,
    parts: int = 1,
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    pool=None,
    tracer=None,
) -> np.ndarray:
    """``C = A @ B`` through ``A``'s row groups.

    ``chunk_elements`` caps the gathered ``(n, L, k)`` intermediate of one
    batch (batches aim for :data:`BATCH_ELEMENTS` below that cap; a single
    row wider than the cap runs alone).  ``parts`` balanced slices of the
    work list run on ``pool`` (serially without one); ``tracer`` records
    ``chunks_scheduled`` and per-slice worker time.
    """
    if chunk_elements < 1:
        raise KernelError(f"chunk_elements must be >= 1, got {chunk_elements}")
    groups = lowered(A)
    B = A.check_dense_operand(B, k)
    kk = B.shape[1]
    if groups.b_pad:
        B = np.vstack([B, np.zeros((groups.b_pad, kk), dtype=B.dtype)])
    C = np.zeros((groups.out_rows, kk), dtype=A.policy.value)
    slices = groups.schedule(max(1, min(chunk_elements, BATCH_ELEMENTS) // kk), parts)

    def work(items) -> None:
        t0 = time.perf_counter()
        _run_items(groups.groups, items, B, C)
        if tracer is not None:
            tracer.record_worker(time.perf_counter() - t0)

    if tracer is not None:
        tracer.count("chunks_scheduled", len(slices))
    if pool is None or len(slices) <= 1:
        for items in slices:
            work(items)
    else:
        list(pool.map(work, slices))  # consume to propagate worker errors
    return C if groups.out_rows == A.nrows else C[: A.nrows]
