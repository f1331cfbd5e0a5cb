"""Serial SpMM: the row-group executor on one thread.

Each format computes ``C = A @ B`` (optionally truncated to the first ``k``
columns of ``B``, the suite's ``-k`` parameter) by lowering once into
groups of rows that share a stored length and running every group as a
batched matmul — see :mod:`repro.kernels.rowgroups`.  The lowering keeps
each format's own stored work, which is the performance story the paper
measures: CSR/COO/CSR5 run exact row lengths, ELL runs its full padded
width, SELL/BELL their per-chunk or per-slice widths, and BCSR its dense
``br x bc`` tiles against gathered B panels.

``chunk_elements`` bounds the gathered intermediate per batch, so large
matrices never materialize multi-GB temporaries — the paper hit exactly
this wall (§6.3.5, "they used a huge amount of the available RAM").

Exactness: bit-identical to every other forward variant name of the same
format under any ``chunk_elements``; across formats, rtol only.
"""

from __future__ import annotations

import numpy as np

from .common import DEFAULT_CHUNK_ELEMENTS
from .rowgroups import run_row_groups

__all__ = ["serial_spmm", "spmm_serial_reference"]


def serial_spmm(
    A,
    B: np.ndarray,
    k: int | None = None,
    *,
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    **_opts,
) -> np.ndarray:
    """Serial SpMM for any registered paper format."""
    return run_row_groups(A, B, k, chunk_elements=chunk_elements)


def spmm_serial_reference(A, B: np.ndarray, k: int | None = None) -> np.ndarray:
    """Dense reference multiply for verification (tests only)."""
    B = A.check_dense_operand(B, k)
    return A.to_dense() @ B
