"""Manually-optimized SpMM kernels (Study 9).

The paper's last study makes two hand optimizations (§5.11): it hoists the
sparse-value load out of the k loop, and it uses C++ templates to hard-code
the k trip count so the compiler emits SIMD and unrolled loops.  The Python
analog of "template instantiation" is hoisting everything call-invariant
out of the call path.  The row-group executor already does that for every
variant: its lowering (row groups, gathered index and value rectangles) is
built once per matrix and memoized on the format instance, and its batch
schedule once per ``(k, chunk_elements, threads)`` — so ``optimized`` is a
name for the same executor as ``serial`` and returns bit-identical results.
The SIMD effect itself is a compiler property; the analytic machine model
applies it through the trace's ``fixed_k`` flag, which is set for these
variants.

``specialize_spmm`` is the template: it returns a callable taking only B.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import KernelError
from .common import DEFAULT_CHUNK_ELEMENTS
from .rowgroups import lowered
from .serial import serial_spmm

__all__ = ["specialize_spmm", "optimized_spmm"]


def specialize_spmm(
    A, k: int, chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
) -> Callable[[np.ndarray], np.ndarray]:
    """Build a fixed-k kernel for matrix ``A`` (the "template" analog).

    The returned callable accepts the dense operand and returns C; the
    lowering is built here, ahead of the first call.  ``chunk_elements``
    bounds the per-batch intermediate, the tunable the autotuner samples.
    """
    if k < 1:
        raise KernelError(f"k must be >= 1, got {k}")
    lowered(A)
    return lambda B: serial_spmm(A, B, k, chunk_elements=chunk_elements)


#: Study 9's optimized kernel is the serial executor (see module docstring).
optimized_spmm = serial_spmm
