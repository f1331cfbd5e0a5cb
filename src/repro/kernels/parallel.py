"""CPU-parallel SpMM (the paper's OpenMP kernels).

The paper parallelizes the outer row loop with OpenMP (§4.2).  Here the
parallel kernel is the same row-group executor as the serial one (see
:mod:`repro.kernels.rowgroups`): its work list — batches of equal-length
rows — is cut into balanced contiguous slices by stored slots and handed
to a process-shared ``ThreadPoolExecutor``.  Workers write disjoint rows
of C, so no locking or merging is needed, and NumPy releases the GIL
inside its gathers and matmuls, so the threads genuinely overlap.

Two schedules mirror OpenMP's: ``static`` cuts ``threads`` slices;
``dynamic`` over-decomposes into ``threads * 4`` slices that workers pull
as they finish — the paper's skewed matrices (``torso1``) are where
dynamic pays.

Exactness: every output row is computed the same way whichever slice
holds it, so results are bit-identical to the serial kernel (and every
other forward variant name) for any thread count, schedule, and
``chunk_elements``.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import KernelError
from .common import DEFAULT_CHUNK_ELEMENTS
from .rowgroups import run_row_groups

__all__ = [
    "parallel_spmm",
    "effective_threads",
    "shared_pool",
    "shutdown_shared_pools",
]

DEFAULT_THREADS = 32  # the paper's default for all parallel studies (§5.1)

#: Process-lifetime executors, one per worker count.  Creating a
#: ``ThreadPoolExecutor`` per call costs more than a small SpMM at bench
#: scales, so every parallel call reuses these instead.
_SHARED_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def shared_pool(threads: int) -> ThreadPoolExecutor:
    """A reusable executor with ``threads`` workers (created on first use)."""
    if threads < 1:
        raise KernelError(f"threads must be >= 1, got {threads}")
    with _POOLS_LOCK:
        pool = _SHARED_POOLS.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=f"spmm{threads}"
            )
            _SHARED_POOLS[threads] = pool
        return pool


def shutdown_shared_pools() -> None:
    """Tear down the shared executors (idempotent; re-creation is lazy)."""
    with _POOLS_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False)


atexit.register(shutdown_shared_pools)


def _reset_pools_after_fork() -> None:
    """Re-arm the shared-pool registry in a forked child.

    A fork clones the registry dict but not the executors' worker threads:
    the child inherits pool objects whose queues nobody drains, so the
    first ``shared_pool()`` user hangs forever (the process execution
    backend trips this directly under the ``fork`` start method).  Clearing
    the registry — and replacing the lock, which a parent thread may have
    held mid-fork — makes children lazily recreate live pools instead.
    """
    global _POOLS_LOCK
    _POOLS_LOCK = threading.Lock()
    _SHARED_POOLS.clear()


if hasattr(os, "register_at_fork"):  # POSIX only; Windows never forks
    os.register_at_fork(after_in_child=_reset_pools_after_fork)


def _thread_cap() -> tuple[int, str]:
    """The usable-CPU cap and where it came from (``affinity``/``cpu_count``).

    ``os.cpu_count()`` reports installed cores and ignores CPU affinity
    masks and cgroup quotas — inside containers and CI runners it
    oversubscribes, and oversubscribed wall-clock numbers are noise.
    ``sched_getaffinity`` sees the actual mask where the platform has one.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            usable = len(getaffinity(0))
        except OSError:  # pragma: no cover - platform quirk
            usable = 0
        if usable:
            return usable, "affinity"
    return os.cpu_count() or 1, "cpu_count"


def effective_threads(requested: int, tracer=None) -> int:
    """Clamp a wall-clock thread count to the CPUs this process may use.

    The paper's default of 32 threads oversubscribes smaller hosts and
    makes wall-clock numbers meaningless; model-mode runs never reach this
    code and keep the paper's counts.  A clamp is recorded on the tracer
    (``thread_clamp`` warning, ``threads_requested``/``threads_used``
    counters, and a ``threads_cap_affinity``/``threads_cap_cpu_count``
    marker naming the cap's source) so traced runs show it happened.
    """
    cap, source = _thread_cap()
    used = min(requested, cap)
    if tracer is not None:
        tracer.count("threads_requested", requested)
        tracer.count("threads_used", used)
        tracer.count(f"threads_cap_{source}")
        if used < requested:
            tracer.warn("thread_clamp")
    return used


def parallel_spmm(
    A,
    B: np.ndarray,
    k: int | None = None,
    *,
    threads: int = DEFAULT_THREADS,
    schedule: str = "static",
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    tracer=None,
    **_opts,
) -> np.ndarray:
    """CPU-parallel SpMM for any registered paper format."""
    if threads < 1:
        raise KernelError(f"threads must be >= 1, got {threads}")
    if schedule == "static":
        per_thread = 1
    elif schedule == "dynamic":
        per_thread = 4
    else:
        raise KernelError(f"unknown schedule {schedule!r}; use 'static' or 'dynamic'")
    used = effective_threads(threads, tracer)
    return run_row_groups(
        A,
        B,
        k,
        parts=used * per_thread,
        chunk_elements=chunk_elements,
        pool=shared_pool(used) if used > 1 else None,
        tracer=tracer,
    )
