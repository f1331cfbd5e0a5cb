"""Grouped-row SpMM: the variant names ``grouped`` / ``grouped_parallel``.

Grouping rows by their stored length turns each group into a rectangular
problem whose row dot-products fuse into one batched matmul — the same
insight as sliced/sorted ELL (SELL-C-sigma).  That executor is now the one
every forward variant runs (:mod:`repro.kernels.rowgroups`), for every
format, so ``grouped`` is bit-identical to ``serial`` and
``grouped_parallel`` to ``parallel``.  Its lowering is memoized on the
format instance; plans built by :class:`~repro.kernels.plan.PlanCache`
hold that instance, so there is no second, private kernel cache.
"""

from __future__ import annotations

import numpy as np

from .parallel import parallel_spmm
from .serial import serial_spmm

__all__ = ["grouped_spmm"]


def grouped_spmm(A, B: np.ndarray, k: int | None = None, *, threads: int = 1, **opts) -> np.ndarray:
    """SpMM via the row-group executor, on ``threads`` threads."""
    if threads <= 1:
        return serial_spmm(A, B, k, **opts)
    return parallel_spmm(A, B, k, threads=threads, **opts)
