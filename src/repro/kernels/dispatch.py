"""Kernel dispatch: the suite's variant matrix.

The paper provides, per format, "serial, parallel, GPU, serial transpose,
parallel transpose, and GPU transpose kernels" (§4.2), plus the Study 9
manually-optimized variants.  ``run_spmm(A, B, variant=...)`` routes a
format instance to the right implementation; the table is keyed by variant
name only because every implementation internally dispatches on format type,
matching the paper's "re-implement the calculation function" extension
model.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import KernelError
from .gpu import gpu_spmm
from .parallel import parallel_spmm
from .serial import serial_spmm
from .spmv import parallel_spmv, serial_spmv
from .transpose import transpose_spmm

__all__ = [
    "run_spmm",
    "run_spmv",
    "kernel_variants",
    "get_kernel",
    "SPMM_VARIANTS",
    "SPMV_BASE",
]


def _serial_transpose(A, B, k=None, **opts):
    opts.pop("threads", None)
    return transpose_spmm(A, B, k, threads=1, **opts)


def _parallel_transpose(A, B, k=None, *, threads: int = 32, **opts):
    return transpose_spmm(A, B, k, threads=threads, **opts)


def _gpu_transpose(A, B, k=None, *, runtime=None, **opts):
    if runtime is not None:
        runtime.check_launch(A)
    opts.pop("threads", None)
    return transpose_spmm(A, B, k, threads=1, **opts)


SPMM_VARIANTS: dict[str, Callable] = {
    "serial": serial_spmm,
    "parallel": parallel_spmm,
    "gpu": gpu_spmm,
    "serial_transpose": _serial_transpose,
    "parallel_transpose": _parallel_transpose,
    "gpu_transpose": _gpu_transpose,
    # Study 9's optimized variants and the grouped variants name the same
    # row-group executor (see kernels/optimized.py, kernels/grouped.py).
    "optimized": serial_spmm,
    "optimized_parallel": parallel_spmm,
    "grouped": serial_spmm,
    "grouped_parallel": parallel_spmm,
}

SPMV_VARIANTS: dict[str, Callable] = {
    "serial": lambda A, x, **o: serial_spmv(A, x, **o),
    "parallel": lambda A, x, **o: parallel_spmv(A, x, **o),
    "gpu": lambda A, x, *, runtime=None, **o: (
        runtime.check_launch(A) if runtime is not None else None,
        serial_spmv(A, x, **o),
    )[1],
}

#: SpMM variant -> the SpMV kernel that computes the same k=1 product.
#: SpMV is SpMM with k=1 (§6.3.4): transposing a vector operand is a no-op
#: and the Study 9 specializations plan over k, so each SpMM variant
#: degenerates to its serial/parallel/gpu base at the k=1 boundary.
SPMV_BASE: dict[str, str] = {
    "serial": "serial",
    "parallel": "parallel",
    "gpu": "gpu",
    "serial_transpose": "serial",
    "parallel_transpose": "parallel",
    "gpu_transpose": "gpu",
    "optimized": "serial",
    "optimized_parallel": "parallel",
    "grouped": "serial",
    "grouped_parallel": "parallel",
}


def kernel_variants(operation: str = "spmm") -> list[str]:
    """Names of the available kernel variants for an operation."""
    table = SPMM_VARIANTS if operation == "spmm" else SPMV_VARIANTS
    return sorted(table)


def get_kernel(variant: str, operation: str = "spmm") -> Callable:
    """Look up a kernel implementation by variant name."""
    table = SPMM_VARIANTS if operation == "spmm" else SPMV_VARIANTS
    try:
        return table[variant]
    except KeyError:
        raise KernelError(
            f"unknown {operation} variant {variant!r}; available: {', '.join(sorted(table))}"
        )


def run_spmm(A, B: np.ndarray, variant: str = "serial", k: int | None = None, **options: Any) -> np.ndarray:
    """Execute ``C = A @ B`` with the named kernel variant.

    ``variant="auto"`` consults the autotuned dispatch table
    (:mod:`repro.tune`): a matrix that was tuned runs its recorded winning
    variant with the tuned ``threads``/``chunk_elements`` knobs, an untuned
    one falls back to a work-size heuristic.  Explicit keyword options win
    over tuned ones.  Pass ``tune_store=`` to consult a specific
    :class:`~repro.tune.store.TuneStore` instead of the process default.
    """
    if variant == "auto":
        from ..tune.store import resolve_auto_variant  # lazy: tune sits above kernels

        kk = k if k is not None else np.asarray(B).shape[1]
        variant, tuned_options = resolve_auto_variant(
            A, kk, store=options.pop("tune_store", None), tracer=options.get("tracer")
        )
        options = {**tuned_options, **options}
    return get_kernel(variant, "spmm")(A, B, k, **options)


def run_spmv(A, x: np.ndarray, variant: str = "serial", **options: Any) -> np.ndarray:
    """Execute ``y = A @ x`` with the named kernel variant.

    Accepts any SpMM variant name (or ``"auto"``): each is normalized to
    the SpMV kernel computing the same k=1 product (:data:`SPMV_BASE`), so
    a 1-D operand and its ``(n, 1)`` reshape always agree regardless of
    which variant the caller selected.
    """
    if variant == "auto":
        from ..tune.store import resolve_auto_variant  # lazy: tune sits above kernels

        variant, tuned_options = resolve_auto_variant(
            A, 1, store=options.pop("tune_store", None), tracer=options.get("tracer")
        )
        options = {**tuned_options, **options}
    if variant not in SPMV_VARIANTS and variant in SPMV_BASE:
        variant = SPMV_BASE[variant]
    return get_kernel(variant, "spmv")(A, x, **options)


def spmm(A, B: np.ndarray, variant: str = "serial", k: int | None = None, **options: Any) -> np.ndarray:
    """Deprecated alias of :func:`run_spmm` — use :func:`repro.api.multiply`."""
    from .._compat import warn_legacy

    warn_legacy("repro.kernels.dispatch.spmm()", "repro.api.multiply()")
    return run_spmm(A, B, variant=variant, k=k, **options)


def spmv(A, x: np.ndarray, variant: str = "serial", **options: Any) -> np.ndarray:
    """Deprecated alias of :func:`run_spmv` — use :func:`repro.api.multiply`."""
    from .._compat import warn_legacy

    warn_legacy("repro.kernels.dispatch.spmv()", "repro.api.multiply()")
    return run_spmv(A, x, variant=variant, **options)
