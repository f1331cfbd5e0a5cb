"""SELL-C-sigma format (sorted sliced ELLPACK).

The paper's related work cites Anzt, Tomov & Dongarra's SELL-C-sigma
kernels [13]; the format generalizes the future-work BELL: before slicing
rows into chunks of C, rows are *sorted by length within windows of sigma
rows*, so each chunk groups similarly-long rows and the per-chunk padding
almost vanishes — even on heavy-tailed matrices where plain ELL explodes.
``sigma = 1`` degenerates to BELL-style slicing; ``sigma = nrows`` is a full
sort (minimum padding, worst locality perturbation).

Storage: a row permutation, per-chunk widths, and flat chunk-major padded
index/value arrays, exactly one dense rectangle per chunk.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..dtypes import DEFAULT_POLICY, DTypePolicy
from ..errors import FormatError
from ..matrices.coo_builder import Triplets
from .base import SparseFormat
from .registry import register_format

__all__ = ["SELL"]


@register_format("sell")
class SELL(SparseFormat):
    """SELL-C-sigma: window-sorted rows, per-chunk ELL padding.

    Attributes
    ----------
    chunk:
        Rows per chunk (the C parameter, the SIMD/warp width target).
    sigma:
        Sorting-window size; rows are reordered by descending length only
        within windows of ``sigma`` rows.
    permutation:
        ``permutation[i]`` is the original row stored at sorted position i.
    chunk_ptr, widths:
        Flat offsets and ELL width per chunk.
    indices, values:
        Flat chunk-major padded storage (row-major inside a chunk).
    row_nnz:
        Real nonzeros per *original* row.
    """

    def __init__(
        self,
        nrows: int,
        ncols: int,
        *,
        chunk: int,
        sigma: int,
        permutation: np.ndarray,
        chunk_ptr: np.ndarray,
        widths: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        row_nnz: np.ndarray,
        policy: DTypePolicy = DEFAULT_POLICY,
    ):
        super().__init__(nrows, ncols, policy)
        chunk, sigma = int(chunk), int(sigma)
        if chunk < 1 or sigma < 1:
            raise FormatError(f"chunk and sigma must be >= 1, got C={chunk}, sigma={sigma}")
        nchunks = -(-nrows // chunk)
        permutation = np.ascontiguousarray(permutation, dtype=np.int64)
        chunk_ptr = np.ascontiguousarray(chunk_ptr, dtype=np.int64)
        widths = np.ascontiguousarray(widths, dtype=np.int64)
        indices = policy.index_array(indices)
        values = policy.value_array(values)
        row_nnz = np.ascontiguousarray(row_nnz, dtype=np.int64)
        if permutation.shape != (nrows,) or not np.array_equal(
            np.sort(permutation), np.arange(nrows)
        ):
            raise FormatError("permutation must be a permutation of all rows")
        if chunk_ptr.size != nchunks + 1 or widths.size != nchunks:
            raise FormatError("SELL chunk arrays sized inconsistently")
        if chunk_ptr[0] != 0 or chunk_ptr[-1] != values.size:
            raise FormatError("chunk_ptr must start at 0 and end at stored size")
        if indices.shape != values.shape or indices.ndim != 1:
            raise FormatError("SELL indices/values must be flat and equally sized")
        if row_nnz.shape != (nrows,):
            raise FormatError("SELL row_nnz must have length nrows")
        self.chunk = chunk
        self.sigma = sigma
        self.nchunks = nchunks
        self.permutation = permutation
        self.chunk_ptr = chunk_ptr
        self.widths = widths
        self.indices = indices
        self.values = values
        self.row_nnz = row_nnz

    def rows_in_chunk(self, c: int) -> int:
        """Rows in chunk ``c`` (the last chunk may be short)."""
        return min(self.chunk, self.nrows - c * self.chunk)

    @classmethod
    def from_triplets(
        cls,
        triplets: Triplets,
        policy: DTypePolicy = DEFAULT_POLICY,
        *,
        chunk: int = 32,
        sigma: int = 256,
        **params: Any,
    ) -> "SELL":
        if params:
            raise FormatError(f"unknown SELL parameters: {params}")
        chunk, sigma = int(chunk), int(sigma)
        if chunk < 1 or sigma < 1:
            raise FormatError(f"chunk and sigma must be >= 1, got C={chunk}, sigma={sigma}")
        nrows, ncols = triplets.nrows, triplets.ncols
        counts = triplets.row_counts()

        # Window-sort rows by descending length (stable: preserves the
        # original order among equal-length rows for locality).
        permutation = np.arange(nrows, dtype=np.int64)
        for w0 in range(0, nrows, sigma):
            w1 = min(w0 + sigma, nrows)
            order = np.argsort(-counts[w0:w1], kind="stable")
            permutation[w0:w1] = w0 + order

        sorted_counts = counts[permutation]
        nchunks = -(-nrows // chunk)
        padded = np.zeros(nchunks * chunk, dtype=np.int64)
        padded[:nrows] = sorted_counts
        widths = padded.reshape(nchunks, chunk).max(axis=1)
        np.clip(widths, 1, None, out=widths)
        rows_per_chunk = np.minimum(chunk, nrows - np.arange(nchunks) * chunk)
        chunk_ptr = np.zeros(nchunks + 1, dtype=np.int64)
        np.cumsum(widths * rows_per_chunk, out=chunk_ptr[1:])

        total = int(chunk_ptr[-1])
        indices = np.zeros(total, dtype=policy.index)
        values = np.zeros(total, dtype=policy.value)
        if triplets.nnz:
            starts = np.cumsum(counts) - counts  # per original row
            # Flat base offset of each sorted position.
            pos = np.arange(nrows, dtype=np.int64)
            base = chunk_ptr[pos // chunk] + (pos % chunk) * widths[pos // chunk]
            # Scatter each original row's entries to its sorted slot.
            orig_rows = triplets.rows.astype(np.int64)
            sorted_pos_of_row = np.empty(nrows, dtype=np.int64)
            sorted_pos_of_row[permutation] = pos
            slot = np.arange(triplets.nnz, dtype=np.int64) - starts[orig_rows]
            flat = base[sorted_pos_of_row[orig_rows]] + slot
            indices[flat] = triplets.cols
            values[flat] = triplets.values
            # Locality padding: repeat each row's last real column.
            nonempty = counts > 0
            last_col = np.zeros(nrows, dtype=np.int64)
            last_col[nonempty] = triplets.cols[(starts + counts - 1)[nonempty]].astype(np.int64)
            row_width = widths[pos // chunk]  # per sorted position
            orig_at_pos = permutation
            pad_counts = row_width - counts[orig_at_pos]
            pad_pos = np.repeat(pos, pad_counts)
            within = np.arange(int(pad_counts.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(pad_counts) - pad_counts, pad_counts
            )
            pad_flat = base[pad_pos] + counts[orig_at_pos][pad_pos] + within
            indices[pad_flat] = last_col[orig_at_pos[pad_pos]]
        return cls(
            nrows,
            ncols,
            chunk=chunk,
            sigma=sigma,
            permutation=permutation,
            chunk_ptr=chunk_ptr,
            widths=widths,
            indices=indices,
            values=values,
            row_nnz=counts,
            policy=policy,
        )

    def _flat_base(self) -> np.ndarray:
        """Flat offset of each sorted position's first slot."""
        pos = np.arange(self.nrows, dtype=np.int64)
        return self.chunk_ptr[pos // self.chunk] + (pos % self.chunk) * self.widths[
            pos // self.chunk
        ]

    def to_triplets(self) -> Triplets:
        base = self._flat_base()
        orig = self.permutation
        nnz_sorted = self.row_nnz[orig]
        rows = np.repeat(orig, nnz_sorted)
        slot = np.arange(rows.size, dtype=np.int64) - np.repeat(
            np.cumsum(nnz_sorted) - nnz_sorted, nnz_sorted
        )
        flat = np.repeat(base, nnz_sorted) + slot
        cols = self.indices[flat]
        vals = self.values[flat]
        order = np.lexsort((cols.astype(np.int64), rows))
        return Triplets(
            nrows=self.nrows,
            ncols=self.ncols,
            rows=self.policy.index_array(rows[order]),
            cols=self.policy.index_array(cols[order]),
            values=self.policy.value_array(vals[order]),
        )

    @property
    def nnz(self) -> int:
        return int(self.row_nnz.sum())

    @property
    def stored_entries(self) -> int:
        return int(self.values.size)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "permutation": self.permutation,
            "chunk_ptr": self.chunk_ptr,
            "widths": self.widths,
            "indices": self.indices,
            "values": self.values,
            "row_nnz": self.row_nnz,
        }
