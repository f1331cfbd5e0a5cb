"""The batched SpMM execution engine.

The paper's suite (and the facade's :func:`repro.api.benchmark`) serves one
``(matrix, format, variant)`` cell per call, paying format conversion and
plan construction every time.  Auto-tuning and feature-driven dispatch work
(Katagiri & Sato; SpChar) shows those per-matrix costs only pay off when
amortized across many multiplications — the serving scenario the ROADMAP
targets.  :class:`Engine` is that amortization layer:

* requests (:class:`~repro.engine.request.SpmmRequest`) are grouped by
  matrix **content fingerprint**: the first request of a group builds the
  conversion artifact + :class:`~repro.kernels.plan.ExecutionPlan` (through
  the shared :class:`~repro.kernels.plan.PlanCache`), everyone else shares
  it — a per-key lock guarantees exactly one build even under concurrency;
* execution happens on a bounded :class:`~repro.engine.scheduler.WorkerPool`
  with backpressure (``max_in_flight``), per-request futures, and
  cancellation of queued work;
* ``variant="auto"`` resolves through the :mod:`repro.tune` store once per
  ``(matrix, k)`` and is memoized for the rest of the batch;
* every stage is observable on the PR 1 tracer as ``engine_*`` counters
  (queue wait, plan build/share, execute seconds) that flow into
  ``BENCH_*.json`` trajectories via ``spmm-bench serve``.

Results are bit-identical to the serial single-call path: plans never
change kernel arithmetic, and the dense operand is generated exactly as
:meth:`repro.bench.suite.SpmmBenchmark.make_dense` does.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from typing import Iterable, Sequence

import numpy as np

from ..bench.observe import Tracer
from ..bench.timing import TimingStats, measure
from ..bench.verify import verify_result
from ..dtypes import DEFAULT_POLICY, DTypePolicy
from ..errors import EngineClosedError, EngineError
from ..formats.base import SparseFormat
from ..formats.registry import get_format
from ..kernels.dispatch import run_spmm
from ..kernels.plan import (
    PlanCache,
    fingerprint_triplets,
    matrix_fingerprint,
    params_token,
    plan_supported,
)
from ..matrices.coo_builder import Triplets
from ..matrices.suite import load_matrix
from ..tune.store import (
    TuneStore,
    get_active_store,
    resolve_auto_format,
    resolve_auto_variant,
)
from .backends import BACKEND_NAMES, Backend, make_backend
from .backends.shm import SharedArray
from .migration import MigrationManager, MigrationPolicy
from .request import SpmmRequest, SpmmResult

__all__ = ["Engine", "DEFAULT_WORKERS", "BACKEND_NAMES"]

#: Worker default: enough to overlap NumPy kernels (they release the GIL)
#: without oversubscribing small CI hosts.
DEFAULT_WORKERS = max(1, min(4, (os.cpu_count() or 2) - 1))


class Engine:
    """Batched SpMM execution with plan sharing and a bounded worker pool.

    Parameters
    ----------
    workers:
        Worker threads executing requests (default: host-derived).
    max_in_flight:
        Backpressure window — queued + executing requests; blocking
        submits wait for a slot, non-blocking ones raise
        :class:`~repro.errors.EngineBusyError`.
    plan_cache:
        Shared :class:`~repro.kernels.plan.PlanCache`; created on demand.
        Pass a disk-backed cache to share conversions across processes.
    tracer:
        :class:`~repro.bench.observe.Tracer` receiving ``engine_*``
        counters; created on demand so :attr:`stats` always works.
    tune_store:
        :class:`~repro.tune.store.TuneStore` consulted for
        ``variant="auto"`` / ``fmt="auto"`` requests (default: the
        process-wide store).
    selector:
        Optional trained :class:`~repro.select.selector.FormatSelector`
        used as the ``fmt="auto"`` cold-start fallback when the tune store
        has no entry for a matrix (the SpChar trajectory-trained path);
        without one, untuned ``fmt="auto"`` requests fall back to CSR.
    policy:
        Dtype policy for loading/formatting/operand generation.
    backend:
        Execution backend: ``"thread"`` (bounded worker threads, the
        default), ``"process"`` (worker subprocesses with shared-memory
        operands — see :mod:`repro.engine.backends`), or a pre-built
        :class:`~repro.engine.backends.Backend` instance.  ``None`` reads
        ``SPMM_ENGINE_BACKEND`` from the environment, defaulting to
        ``"thread"``.
    backend_options:
        Extra keyword arguments for the backend constructor (e.g.
        ``start_method="spawn"`` for the process backend).
    close_backend:
        Whether :meth:`close` shuts the backend down.  Pass ``False`` when
        several engines share one pre-built backend (the serving front-end
        runs one engine per tenant over a single worker pool); the owner
        of the backend calls ``backend.shutdown()`` itself after every
        sharing engine has closed.
    migration:
        Adaptive online format migration
        (:class:`~repro.engine.migration.MigrationPolicy`, a bool, or
        ``None`` to read ``SPMM_MIGRATION`` from the environment,
        defaulting to off).  When enabled, hot plan groups are re-pointed
        at a faster bit-identical (format, variant, threads) cell by a
        background worker once the measured conversion cost amortizes —
        see :mod:`repro.engine.migration` and ``migration_*`` counters.
    """

    #: Cap on the id()-keyed fingerprint memo.  Batch workloads reuse a few
    #: matrix objects; a serving workload streams one-shot matrices through,
    #: and without a cap the memo would pin every one of them in memory.
    FP_MEMO_CAPACITY = 1024
    #: Cap on matrices kept published in shared memory (process backend).
    #: Each holds three segments and their file descriptors; a serving
    #: workload of one-shot matrices would otherwise grow both until the
    #: process runs out of descriptors.  Least recently used go first.
    SHM_MATRIX_CAPACITY = 64

    def __init__(
        self,
        *,
        workers: int | None = None,
        max_in_flight: int = 64,
        plan_cache: PlanCache | None = None,
        tracer: Tracer | None = None,
        tune_store: TuneStore | None = None,
        selector=None,
        policy: DTypePolicy = DEFAULT_POLICY,
        backend: str | Backend | None = None,
        backend_options: dict | None = None,
        close_backend: bool = True,
        migration: MigrationPolicy | bool | None = None,
    ):
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.tracer = tracer if tracer is not None else Tracer()
        self.tune_store = tune_store
        self.selector = selector
        self.policy = policy
        self.workers = workers or DEFAULT_WORKERS
        migration_policy = MigrationPolicy.coerce(migration)
        #: Online format-migration manager (None when disabled): watches
        #: per-group traffic and swaps cached plans on a background thread
        #: once the Katagiri amortization rule pays — see
        #: :mod:`repro.engine.migration`.  Default off for a bare engine
        #: (``migration=True`` or ``SPMM_MIGRATION=1`` turns it on); the
        #: serving front-end enables it per tenant.
        self._migrations: MigrationManager | None = (
            MigrationManager(
                plan_cache=self.plan_cache,
                tracer=self.tracer,
                policy=migration_policy,
                tune_store=tune_store,
                dtype_policy=policy,
            )
            if migration_policy.enabled
            else None
        )
        if isinstance(backend, Backend):
            self._backend = backend
        else:
            name = backend or os.environ.get("SPMM_ENGINE_BACKEND", "thread")
            self._backend = make_backend(
                name,
                workers=self.workers,
                max_in_flight=max_in_flight,
                cache_dir=self.plan_cache.directory,
                tracer=self.tracer,
                **(backend_options or {}),
            )
        self.backend = self._backend.name
        self._close_backend = close_backend
        self._lock = threading.Lock()
        self._closed = False
        #: fingerprint -> published matrix (process backend), an LRU capped
        #: at SHM_MATRIX_CAPACITY; insertion order is recency order.
        self._shm_matrices: dict[str, _SharedMatrix] = {}
        #: Memos shared across requests: suite-name -> triplets, fingerprint
        #: -> triplets (for SparseFormat inputs), (fingerprint, k) -> auto
        #: resolution, and the per-plan-key build locks.
        self._matrix_memo: dict = {}
        self._auto_memo: dict[tuple[str, int], tuple[str, dict, int]] = {}
        self._auto_fmt_memo: dict[tuple[str, int], tuple[str, dict, int]] = {}
        self._plan_locks: dict[tuple, threading.Lock] = {}
        self._built_keys: set[tuple] = set()
        self._format_memo: dict[tuple, SparseFormat] = {}
        #: id(triplets) -> (triplets, fingerprint).  Holding the object
        #: keeps the id stable; the engine assumes matrices are not mutated
        #: mid-batch (the serving contract), so one sha256 per matrix.
        self._fp_memo: dict[int, tuple[Triplets, str]] = {}

    # -- lifecycle ------------------------------------------------------------

    def close(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Shut the backend down; queued requests finish unless cancelled.

        Shared-memory segments published for worker processes are unlinked
        once the backend has drained — after ``close`` returns, no engine
        segment remains in the OS namespace.  An engine built with
        ``close_backend=False`` quiesces its own work instead of shutting
        the shared backend down (that is the backend owner's job).
        """
        with self._lock:
            self._closed = True
        if self._migrations is not None:
            self._migrations.close()
        if self._close_backend:
            self._backend.shutdown(wait=wait, cancel_pending=cancel_pending)
        else:
            if cancel_pending:
                self.cancel_pending()
            if wait:
                self._backend.quiesce()
        with self._lock:
            published = list(self._shm_matrices.values())
            self._shm_matrices.clear()
            for entry in published:
                entry.evicted = True
        for entry in published:
            if entry.pins == 0:
                entry.destroy(self.tracer)

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until no request is queued or executing (engine stays open)."""
        return self._backend.quiesce(timeout=timeout)

    def quiesce(self, timeout: float | None = None) -> bool:
        """Alias for :meth:`drain`, matching the backend-contract verb."""
        return self.drain(timeout=timeout)

    def in_flight(self) -> int:
        """Exact count of requests queued or executing right now."""
        return self._backend.in_flight()

    def cancel_pending(self) -> int:
        """Cancel every request still waiting in the queue."""
        cancelled = self._backend.cancel_pending()
        if cancelled:
            self.tracer.count("engine_cancelled", cancelled)
        return cancelled

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close(wait=True)

    @property
    def stats(self) -> dict:
        """Engine/backend/shm counters plus the plan cache's hit/miss stats."""
        out = {
            k: v
            for k, v in self.tracer.counters.items()
            if k.startswith(("engine_", "shm_", "migration_"))
        }
        out["backend"] = self.backend
        out["plan_cache"] = dict(self.plan_cache.stats)
        return out

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        request: SpmmRequest,
        *,
        block: bool = True,
        timeout: float | None = None,
    ) -> "Future[SpmmResult]":
        """Enqueue one request; returns a future resolving to its result.

        Blocks when ``max_in_flight`` requests are pending (backpressure);
        ``block=False`` raises :class:`~repro.errors.EngineBusyError`
        instead.  ``future.cancel()`` works while the request is queued.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        if not isinstance(request, SpmmRequest):
            raise EngineError(f"submit() takes an SpmmRequest, got {type(request).__name__}")
        self.tracer.count("engine_submitted")
        submitted_at = time.perf_counter()
        return self._backend.submit(
            self._execute, request, submitted_at, block=block, timeout=timeout
        )

    def map_batch(self, requests: Iterable[SpmmRequest]) -> list[SpmmResult]:
        """Run a batch synchronously; results come back in request order.

        The convenience path for throughput workloads: submit everything
        (the engine's grouping and plan sharing do the batching work), then
        wait.  Any request failure propagates after the batch drains.
        """
        futures = [self.submit(req) for req in requests]
        results: list[SpmmResult] = []
        error: BaseException | None = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return results

    def run(self, request: SpmmRequest) -> SpmmResult:
        """Execute one request and wait for its result."""
        return self.submit(request).result()

    # -- per-request pipeline (worker threads) --------------------------------

    def _execute(self, request: SpmmRequest, submitted_at: float) -> SpmmResult:
        started = time.perf_counter()
        queue_wait = started - submitted_at
        self.tracer.count("engine_queue_wait_s", queue_wait)
        try:
            triplets, name = self._resolve_matrix(request)
            variant, tuned_opts = self._resolve_variant(request, triplets)
            fmt, fmt_params = self._resolve_format(request, triplets)
            threads = int(tuned_opts.get("threads", request.threads))
            fingerprint = self._fingerprint(triplets)
            # Online migration: a group whose redirect landed executes on
            # the migrated (format, variant, threads, params) cell from
            # here on; requests resolved before the swap keep their plan.
            migrated = False
            if self._migrations is not None and plan_supported(variant):
                target = self._migrations.resolve(
                    fingerprint, fmt, variant, request.k, threads, fmt_params
                )
                if target is not None:
                    fmt, variant, threads = target.format_name, target.variant, target.threads
                    fmt_params = dict(target.format_params)
                    migrated = True
                    self.tracer.count("migration_served")
            B = self._dense_operand(request, triplets)
            if self._backend.remote and plan_supported(variant):
                body = self._run_remote(
                    request, triplets, fmt, fmt_params, variant, threads, B, migrated
                )
            else:
                if self._backend.remote:
                    # Unplannable variants (GPU simulation) cannot rebuild
                    # from the PlanCache tier in a worker; keep them local.
                    self.tracer.count("engine_backend_local_fallback")
                body = self._run_local(
                    request, triplets, name, fmt, fmt_params, variant, threads, tuned_opts, B
                )
            output, timing, provenance, plan_time, execute_s, verified = body
            if self._migrations is not None and not migrated and plan_supported(variant):
                per_call_s = (
                    timing.mean
                    if timing is not None
                    else execute_s / max(request.repeats, 1)
                )
                self._migrations.observe(
                    triplets,
                    fingerprint,
                    fmt,
                    variant,
                    request.k,
                    threads,
                    per_call_s,
                    conversion_s=plan_time if provenance == "built" else 0.0,
                    fmt_params=fmt_params,
                )
        except BaseException:
            self.tracer.count("engine_failed")
            raise
        self.tracer.count("engine_completed")
        return SpmmResult(
            request=request,
            output=output,
            fingerprint=fingerprint,
            variant=variant,
            timing=timing,
            useful_flops=2 * triplets.nnz * request.k,
            plan_provenance=provenance,
            queue_wait_s=queue_wait,
            plan_time_s=plan_time,
            execute_s=execute_s,
            verified=verified,
            migrated=migrated,
        )

    def _run_local(
        self,
        request: SpmmRequest,
        triplets: Triplets,
        name: str,
        fmt: str,
        fmt_params: dict,
        variant: str,
        threads: int,
        tuned_opts: dict,
        B: np.ndarray,
    ) -> tuple:
        """Plan-acquire + execute + verify in this thread (thread backend)."""
        t_plan = time.perf_counter()
        kernel, provenance = self._acquire_kernel(
            request, triplets, name, fmt, fmt_params, variant, threads, tuned_opts, B
        )
        plan_time = time.perf_counter() - t_plan
        self.tracer.count("engine_plan_s", plan_time)

        t_exec = time.perf_counter()
        output, timing = measure(kernel, n_runs=request.repeats, warmup=0)
        execute_s = time.perf_counter() - t_exec
        self.tracer.count("engine_execute_s", execute_s)
        self.tracer.record_worker(execute_s)
        self.tracer.count("engine_repeats", request.repeats)

        verified: bool | None = None
        if request.verify:
            verified = verify_result(triplets, B, output, k=request.k)
        return output, timing, provenance, plan_time, execute_s, verified

    def _run_remote(
        self,
        request: SpmmRequest,
        triplets: Triplets,
        fmt: str,
        fmt_params: dict,
        variant: str,
        threads: int,
        B: np.ndarray,
        migrated: bool = False,
    ) -> tuple:
        """Ship one task to a backend worker process over shared memory.

        The matrix triplets are published to shared memory once per
        fingerprint and reused for later requests of the group while they
        stay among the :attr:`SHM_MATRIX_CAPACITY` most recent; the
        dense operand and the pre-sized output travel per request and are
        unlinked as soon as the reply lands — a failed or dead worker
        cannot leak a per-request segment.  Migrated groups arrive here
        already redirected: the spec carries the *effective* cell, and the
        worker rebuilds its plan from the shared on-disk tier (which the
        migration probe populated), so the swap propagates across
        processes without shipping plan objects.
        """
        fingerprint = self._fingerprint(triplets)
        shared = self._shared_matrix(fingerprint, triplets)
        try:
            B_seg = SharedArray.from_array(B, tracer=self.tracer)
            C_seg = SharedArray.empty(
                (triplets.nrows, B.shape[1]), self.policy.value, tracer=self.tracer
            )
            spec = {
                "fingerprint": fingerprint,
                "matrix": shared.descriptor,
                "fmt": fmt,
                "fmt_params": dict(fmt_params or {}),
                "variant": variant,
                "k": request.k,
                "threads": threads,
                "repeats": request.repeats,
                "policy": self.policy,
                "B": B_seg.spec,
                "C": C_seg.spec,
                "verify": request.verify,
                "migrated": migrated,
            }
            self.tracer.count("engine_backend_remote_tasks")
            t_remote = time.perf_counter()
            try:
                reply = self._backend.run_task(spec)
                output = C_seg.copy_out()
            except EngineError:
                self.tracer.count("engine_backend_worker_errors")
                raise
            finally:
                B_seg.destroy(tracer=self.tracer)
                C_seg.destroy(tracer=self.tracer)
        finally:
            self._release_shared_matrix(shared)
        self.tracer.count("engine_backend_remote_s", time.perf_counter() - t_remote)

        # Fold the worker-side trace (plan-cache traffic, thread clamps)
        # into the parent tracer so trajectories see the whole story.
        for counter, value in reply.get("counters", {}).items():
            self.tracer.count(counter, value)
        for warning, times in reply.get("warnings", {}).items():
            for _ in range(int(times)):
                self.tracer.warn(warning)

        times = reply["times"]
        timing = TimingStats(tuple(times)) if times else None
        provenance = reply["provenance"]
        plan_time = reply["plan_time_s"]
        execute_s = reply["execute_s"]
        self.tracer.count("engine_plan_s", plan_time)
        self.tracer.count(f"engine_plan_{provenance}")
        self.tracer.count("engine_execute_s", execute_s)
        self.tracer.record_worker(execute_s, worker=("proc", reply.get("pid")))
        self.tracer.count("engine_repeats", request.repeats)
        return output, timing, provenance, plan_time, execute_s, reply["verified"]

    def _shared_matrix(self, fingerprint: str, triplets: Triplets) -> "_SharedMatrix":
        """Publish a matrix's triplet arrays to shm, once per fingerprint.

        The returned entry is pinned for the caller's task; release it with
        :meth:`_release_shared_matrix`.  Publishing past
        :attr:`SHM_MATRIX_CAPACITY` evicts the least recently used entry —
        its segments are unlinked at once, or, while a task still maps
        them, when that task releases its pin.
        """
        with self._lock:
            hit = self._shm_matrices.pop(fingerprint, None)
            if hit is not None:
                self._shm_matrices[fingerprint] = hit  # most recent last
                hit.pins += 1
        if hit is not None:
            self.tracer.count("shm_matrix_reused")
            return hit
        segments = [
            SharedArray.from_array(triplets.rows, tracer=self.tracer),
            SharedArray.from_array(triplets.cols, tracer=self.tracer),
            SharedArray.from_array(triplets.values, tracer=self.tracer),
        ]
        descriptor = {
            "nrows": triplets.nrows,
            "ncols": triplets.ncols,
            "rows": segments[0].spec,
            "cols": segments[1].spec,
            "values": segments[2].spec,
        }
        entry = _SharedMatrix(descriptor, segments)
        evicted = []
        with self._lock:
            race = self._shm_matrices.get(fingerprint)
            if race is not None:
                race.pins += 1
            else:
                self._shm_matrices[fingerprint] = entry
                while len(self._shm_matrices) > self.SHM_MATRIX_CAPACITY:
                    old = self._shm_matrices.pop(next(iter(self._shm_matrices)))
                    old.evicted = True
                    if old.pins == 0:
                        evicted.append(old)
        for old in evicted:
            old.destroy(self.tracer)
            self.tracer.count("shm_matrix_evicted")
        if race is not None:
            # Another thread published first; keep theirs, free ours.
            entry.destroy(self.tracer)
            return race
        return entry

    def _release_shared_matrix(self, entry: "_SharedMatrix") -> None:
        """Drop a task's pin; unlink an evicted entry once nothing maps it."""
        with self._lock:
            entry.pins -= 1
            orphaned = entry.evicted and entry.pins == 0
        if orphaned:
            entry.destroy(self.tracer)
            self.tracer.count("shm_matrix_evicted")

    # -- matrix / variant resolution ------------------------------------------

    def _fingerprint(self, triplets: Triplets) -> str:
        """Content fingerprint, hashed once per matrix object per engine."""
        key = id(triplets)
        with self._lock:
            hit = self._fp_memo.get(key)
            if hit is not None:
                # Refresh recency so long-lived hot matrices survive the cap.
                self._fp_memo.pop(key)
                self._fp_memo[key] = hit
                return hit[1]
        fp = fingerprint_triplets(triplets)
        with self._lock:
            self._fp_memo[key] = (triplets, fp)
            while len(self._fp_memo) > self.FP_MEMO_CAPACITY:
                self._fp_memo.pop(next(iter(self._fp_memo)))
        return fp

    def _resolve_matrix(self, request: SpmmRequest) -> tuple[Triplets, str]:
        """Triplets + display name for a request's matrix, memoized."""
        matrix = request.matrix
        if isinstance(matrix, Triplets):
            return matrix, "matrix"
        if isinstance(matrix, str):
            key = ("suite", matrix, request.scale, self.policy.name)
            with self._lock:
                hit = self._matrix_memo.get(key)
            if hit is None:
                hit = load_matrix(matrix, scale=request.scale, policy=self.policy)
                with self._lock:
                    self._matrix_memo[key] = hit
            return hit, matrix
        if isinstance(matrix, SparseFormat):
            key = ("fp", matrix_fingerprint(matrix))
            with self._lock:
                hit = self._matrix_memo.get(key)
            if hit is None:
                hit = matrix.to_triplets()
                with self._lock:
                    self._matrix_memo[key] = hit
            return hit, getattr(matrix, "_suite_name", "matrix")
        raise EngineError(
            "request.matrix must be a suite name, Triplets, or SparseFormat; "
            f"got {type(matrix).__name__}"
        )

    def _resolve_variant(
        self, request: SpmmRequest, triplets: Triplets
    ) -> tuple[str, dict]:
        """Pin ``variant="auto"`` via the tune store, once per (matrix, k).

        The memo entry carries the tune-store version it was resolved
        against and is re-validated on every hit: a decision recorded
        after the memo landed (an online migration, a fresh ``repro
        tune`` run) invalidates it, so a stale memo can never pin a
        pre-migration plan for the rest of the engine's life.
        """
        if request.variant != "auto":
            return request.variant, {}
        store = self.tune_store if self.tune_store is not None else get_active_store()
        version = store.version
        memo_key = (self._fingerprint(triplets), request.k)
        with self._lock:
            hit = self._auto_memo.get(memo_key)
        if hit is not None:
            variant, opts, seen_version = hit
            if seen_version == version:
                return variant, opts
            self.tracer.count("engine_auto_revalidated")
        variant, opts = resolve_auto_variant(
            triplets, request.k, store=self.tune_store, tracer=self.tracer
        )
        self.tracer.count("engine_auto_resolved")
        with self._lock:
            self._auto_memo[memo_key] = (variant, opts, version)
        return variant, opts

    def _resolve_format(
        self, request: SpmmRequest, triplets: Triplets
    ) -> tuple[str, dict]:
        """Pin ``fmt="auto"`` via the tune store / trained selector.

        Memoized per (matrix, k) with the same tune-store-version
        revalidation as :meth:`_resolve_variant`; explicit formats pass
        straight through with their request parameters.
        """
        if request.fmt != "auto":
            return request.fmt, request.format_kwargs
        store = self.tune_store if self.tune_store is not None else get_active_store()
        version = store.version
        memo_key = (self._fingerprint(triplets), request.k)
        with self._lock:
            hit = self._auto_fmt_memo.get(memo_key)
        if hit is not None:
            fmt, params, seen_version = hit
            if seen_version == version:
                return fmt, dict(params)
            self.tracer.count("engine_auto_revalidated")
        fmt, params = resolve_auto_format(
            triplets,
            request.k,
            store=self.tune_store,
            selector=self.selector,
            tracer=self.tracer,
        )
        self.tracer.count("engine_auto_format_resolved")
        with self._lock:
            self._auto_fmt_memo[memo_key] = (fmt, params, version)
        return fmt, dict(params)

    # -- migration ------------------------------------------------------------

    @property
    def migration_enabled(self) -> bool:
        return self._migrations is not None

    def force_migration(self, request: SpmmRequest):
        """Probe and (if a bit-identical candidate exists) swap, synchronously.

        The testing/oracle hook: runs the full probe pipeline on the
        calling thread, skipping only the amortization rule — the
        bit-identity gate still applies.  Returns the
        :class:`~repro.engine.migration.MigrationOutcome`.
        """
        if self._migrations is None:
            raise EngineError("migration is disabled for this engine")
        triplets, _name = self._resolve_matrix(request)
        variant, tuned_opts = self._resolve_variant(request, triplets)
        fmt, fmt_params = self._resolve_format(request, triplets)
        if not plan_supported(variant):
            raise EngineError(f"variant {request.variant!r} is not migratable")
        return self._migrations.migrate_now(
            triplets,
            self._fingerprint(triplets),
            fmt,
            variant,
            request.k,
            int(tuned_opts.get("threads", request.threads)),
            force=True,
            fmt_params=fmt_params,
        )

    # -- plan acquisition ------------------------------------------------------

    def _acquire_kernel(
        self,
        request: SpmmRequest,
        triplets: Triplets,
        name: str,
        fmt: str,
        fmt_params: dict,
        variant: str,
        threads: int,
        tuned_opts: dict,
        B: np.ndarray,
    ):
        """A zero-argument kernel closure over ``B``, plus plan provenance.

        Plannable variants go through the shared :class:`PlanCache` behind
        a per-key lock, so one engine request builds and the rest of the
        fingerprint group shares.  ``fmt``/``fmt_params``/``variant``/
        ``threads`` are the *effective* cell — post migration-redirect — so
        a swapped group locks and builds under its target key while
        stragglers on the old key keep their plan.  Format parameters join
        the lock key: the same matrix under two (C, sigma) settings forms
        two groups that never share a plan.  Unplannable variants (GPU) at
        least share the conversion artifact through an engine-local memo.
        """
        fingerprint = self._fingerprint(triplets)
        if plan_supported(variant):
            key = (
                fingerprint,
                fmt,
                variant,
                request.k,
                threads,
                self.policy.name,
                params_token(fmt_params),
            )
            with self._lock:
                lock = self._plan_locks.setdefault(key, threading.Lock())
            with lock:
                plan, provenance = self.plan_cache.get_or_build_plan(
                    triplets,
                    fmt,
                    variant=variant,
                    k=request.k,
                    threads=threads,
                    policy=self.policy,
                    format_params=fmt_params,
                    tracer=self.tracer,
                    fingerprint=fingerprint,
                )
                with self._lock:
                    if provenance == "built":
                        self._built_keys.add(key)
                    elif provenance == "memory" and key in self._built_keys:
                        # Hit on a plan this engine built for an earlier
                        # request of the group: the batch-sharing win,
                        # distinct from a cache that was warm beforehand.
                        provenance = "shared"
            self.tracer.count(f"engine_plan_{provenance}")
            plan.matrix._suite_name = name

            def kernel(_plan=plan, _B=B):
                return _plan(_B, tracer=None)

            return kernel, provenance

        # Unplannable variant: memoize only the conversion artifact.
        fkey = (fingerprint, fmt, self.policy.name, params_token(fmt_params))
        with self._lock:
            A = self._format_memo.get(fkey)
        if A is None:
            A = get_format(fmt).from_triplets(
                triplets, policy=self.policy, **dict(fmt_params or {})
            )
            A._suite_name = name
            with self._lock:
                self._format_memo[fkey] = A
        self.tracer.count("engine_plan_unplanned")
        opts = dict(tuned_opts)
        if "parallel" in variant:
            opts.setdefault("threads", threads)

        def unplanned_kernel(_A=A, _B=B, _variant=variant, _opts=opts):
            return run_spmm(_A, _B, variant=_variant, k=request.k, **_opts)

        return unplanned_kernel, "unplanned"

    def _dense_operand(self, request: SpmmRequest, triplets: Triplets) -> np.ndarray:
        """The dense B panel — explicit, or generated exactly like the suite."""
        if request.dense is not None:
            B = np.asarray(request.dense)
            if B.ndim != 2 or B.shape[0] != triplets.ncols or B.shape[1] != request.k:
                raise EngineError(
                    f"dense operand must be ({triplets.ncols}, {request.k}), "
                    f"got {B.shape}"
                )
            return B
        rng = np.random.default_rng(request.seed + 1)
        return self.policy.value_array(
            rng.standard_normal((triplets.ncols, request.k))
        )


def batch_requests(
    matrix,
    panels: Sequence[np.ndarray],
    **request_kwargs,
) -> list[SpmmRequest]:
    """Helper: one request per dense panel against a single matrix."""
    return [SpmmRequest(matrix=matrix, dense=panel, **request_kwargs) for panel in panels]


class _SharedMatrix:
    """A matrix published to shared memory, pinned by in-flight tasks."""

    __slots__ = ("descriptor", "segments", "pins", "evicted")

    def __init__(self, descriptor: dict, segments: list[SharedArray]):
        self.descriptor = descriptor
        self.segments = segments
        #: Tasks currently mapping the segments; never unlinked while > 0.
        self.pins = 1
        #: Dropped from the engine's table; unlinked when ``pins`` reaches 0.
        self.evicted = False

    def destroy(self, tracer) -> None:
        for segment in self.segments:
            segment.destroy(tracer=tracer)
