"""The differential oracle: one multiply, every execution path.

PR 3's stale-plan aliasing bug was caught by eye; this module is the
machine that catches the next one.  For one logical ``C = A @ B`` it runs
every way the repository can compute the product —

* ``direct`` — the raw kernel via :func:`repro.kernels.dispatch.run_spmm`;
* ``api`` — the stable facade, :func:`repro.api.multiply`;
* ``legacy`` — the deprecated ``dispatch.spmm`` alias (shim must not skew);
* ``plan_uncached`` / ``plan_cached`` — a fresh :class:`PlanCache` build,
  then the memoized plan for the same key (provenance asserted);
* ``engine_direct`` / ``engine_batched`` — one request through the batched
  :class:`~repro.engine.Engine`, and a fingerprint-grouped batch whose
  members must agree bit-identically;
* ``server`` — the full serving stack (:class:`repro.serve.Client` →
  NDJSON socket → :class:`repro.serve.Server` → engine), which must agree
  **bit-identically** with the direct :func:`repro.api.multiply` result —
  the wire codec ships raw array bytes precisely so serialization cannot
  perturb a single ulp;
* ``auto`` — ``variant="auto"`` dispatch through an empty tune store (the
  heuristic fallback) resolved against the explicit variant's result;
* ``migration`` — the same request through a migration-enabled engine
  before and after :meth:`~repro.engine.Engine.force_migration`; the
  post-migration result must agree **bit-identically** with the
  pre-migration one (the online-migration swap gate's contract);

— and asserts every result agrees with an independent dense reference
within a tolerance scaled to the accumulation depth
(:func:`repro.verify.reference.result_tolerance`).  Paths that share a
closure (cached vs uncached plan; duplicate batch members) must agree
**bit-identically**, not just within tolerance.

The oracle is deliberately reusable: the fuzzer holds one instance for a
whole run so engine workers and plan caches amortize across cases, and
:meth:`DifferentialOracle.check_single` re-runs exactly one (path, fmt,
variant) cell — the predicate the shrinker minimizes against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..formats.registry import format_names, get_format
from ..kernels.dispatch import SPMM_VARIANTS, run_spmm
from ..kernels.plan import PlanCache, plan_supported
from ..matrices.coo_builder import Triplets
from .reference import dense_reference, result_tolerance

__all__ = [
    "PATH_NAMES",
    "DEFAULT_FORMAT_PARAMS",
    "Discrepancy",
    "OracleReport",
    "DifferentialOracle",
    "supported_variants",
]

#: Execution paths the oracle knows, in check order.
PATH_NAMES = (
    "direct",
    "api",
    "legacy",
    "plan_uncached",
    "plan_cached",
    "engine_direct",
    "engine_batched",
    "server",
    "auto",
    "migration",
)

#: Paths that are cheap enough to run on every fuzz case.
QUICK_PATHS = ("direct", "api", "plan_uncached", "plan_cached", "auto")

#: Format knobs chosen to exercise awkward geometry (blocks that do not
#: divide the dimensions, small tiles, short slices).
DEFAULT_FORMAT_PARAMS: dict[str, dict[str, int]] = {
    "bcsr": {"block_size": 3},
    "bell": {"row_block": 4},
    "csr5": {"tile_nnz": 16},
    "sell": {"chunk": 4, "sigma": 8},
}

#: Formats each non-universal variant supports (see kernels/transpose.py);
#: everything else runs on all registered formats.
_VARIANT_FORMATS = {
    "serial_transpose": ("coo", "csr", "csr5", "ell", "bcsr"),
    "parallel_transpose": ("coo", "csr", "csr5", "ell", "bcsr"),
}


def supported_variants(fmt: str, variants=None) -> tuple[str, ...]:
    """The subset of ``variants`` implemented for format ``fmt``."""
    names = variants if variants is not None else tuple(SPMM_VARIANTS)
    out = []
    for v in names:
        allowed = _VARIANT_FORMATS.get(v)
        if allowed is None or fmt in allowed:
            out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class Discrepancy:
    """One disagreement between an execution path and the reference."""

    path: str
    fmt: str
    variant: str
    k: int
    kind: str  # "value" | "shape" | "exception" | "bit" | "provenance"
    detail: str
    max_abs_err: float = float("nan")
    tolerance: float = float("nan")

    def describe(self) -> str:
        loc = f"{self.path}/{self.fmt}/{self.variant}/k{self.k}"
        if self.kind == "value":
            return (
                f"{loc}: max abs error {self.max_abs_err:.3e} "
                f"exceeds tolerance {self.tolerance:.3e}"
            )
        return f"{loc}: {self.kind} — {self.detail}"


@dataclass
class OracleReport:
    """Everything one differential check ran and everything it caught."""

    checks: int = 0
    discrepancies: list[Discrepancy] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def merge(self, other: "OracleReport") -> "OracleReport":
        self.checks += other.checks
        self.discrepancies.extend(other.discrepancies)
        return self


class DifferentialOracle:
    """Runs one logical multiply through every execution path.

    Parameters
    ----------
    formats:
        Format names to cover (default: every registered format).
    variants:
        Kernel variants to cover (default ``("serial", "parallel")``;
        unsupported (format, variant) pairs are skipped, not failed).
    paths:
        Execution paths from :data:`PATH_NAMES` (default: all of them).
    threads:
        Thread count handed to parallel variants/paths.
    rtol:
        Relative tolerance fed to the accumulation-scaled band.
    tracer:
        Optional :class:`~repro.bench.observe.Tracer`; receives
        ``fuzz_oracle_checks`` / ``fuzz_oracle_discrepancies`` counters.
    backend:
        Execution backend for the engine paths (``"thread"`` default,
        ``"process"`` runs them through worker subprocesses) — the lever
        for differential-checking the backends against each other.
    """

    def __init__(
        self,
        *,
        formats=None,
        variants=("serial", "parallel"),
        paths=PATH_NAMES,
        threads: int = 2,
        rtol: float = 1e-6,
        format_params: dict[str, dict] | None = None,
        tracer=None,
        backend: str = "thread",
    ):
        self.formats = tuple(formats) if formats is not None else tuple(format_names())
        self.variants = tuple(variants)
        unknown = [p for p in paths if p not in PATH_NAMES]
        if unknown:
            raise ValueError(f"unknown oracle paths: {unknown}; known: {PATH_NAMES}")
        self.paths = tuple(paths)
        self.threads = int(threads)
        self.rtol = float(rtol)
        self.format_params = dict(DEFAULT_FORMAT_PARAMS if format_params is None else format_params)
        self.tracer = tracer
        self.backend = backend
        self._engine = None
        self._migration_engine = None
        self._server = None
        self._client = None

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut down the shared engine and server, if they were created."""
        if self._client is not None:
            self._client.close()
            self._client = None
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._engine is not None:
            self._engine.close(wait=True)
            self._engine = None
        if self._migration_engine is not None:
            self._migration_engine.close(wait=True)
            self._migration_engine = None

    def __enter__(self) -> "DifferentialOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _get_engine(self):
        if self._engine is None:
            from ..engine import Engine  # lazy: engine imports bench.verify

            self._engine = Engine(workers=2, max_in_flight=16, backend=self.backend)
        return self._engine

    def _get_migration_engine(self):
        """A second engine with eager online migration, for the pre/post check."""
        if self._migration_engine is None:
            from ..engine import Engine, MigrationPolicy  # lazy (see _get_engine)

            self._migration_engine = Engine(
                workers=2,
                max_in_flight=16,
                backend=self.backend,
                migration=MigrationPolicy(min_hits=1, margin=0.0, probe_repeats=1),
            )
        return self._migration_engine

    def _get_client(self):
        """One lazily-started server + client pair for the whole oracle run."""
        if self._client is None:
            from ..serve import Client, Server  # lazy: serve imports the engine

            self._server = Server(backend=self.backend, workers=2).start()
            self._client = Client(port=self._server.port)
        return self._client

    # -- the check ------------------------------------------------------------

    def check(
        self,
        triplets: Triplets,
        B: np.ndarray | None = None,
        k: int | None = None,
        seed: int = 0,
        paths=None,
        variants=None,
    ) -> OracleReport:
        """Differential-check one matrix across formats, variants, paths.

        ``paths``/``variants`` narrow this one check to a subset of the
        configured coverage (the fuzzer rotates subsets across cases).
        """
        if B is None:
            rng = np.random.default_rng(seed + 1)
            B = rng.standard_normal((triplets.ncols, k or 8))
        B = np.asarray(B, dtype=np.float64)
        kk = int(k if k is not None else B.shape[1])
        reference = dense_reference(triplets, B, kk)
        tolerance = result_tolerance(reference, self.rtol)
        use_paths = tuple(paths) if paths is not None else self.paths
        use_variants = tuple(variants) if variants is not None else self.variants
        report = OracleReport()
        for fmt in self.formats:
            A = self._build(fmt, triplets)
            for variant in supported_variants(fmt, use_variants):
                for path in use_paths:
                    outcome = self._run_path(path, triplets, A, fmt, variant, B, kk)
                    if outcome is None:  # path not applicable to this cell
                        continue
                    report.checks += 1
                    report.discrepancies.extend(
                        self._judge(outcome, path, fmt, variant, kk, reference, tolerance)
                    )
        if self.tracer is not None:
            self.tracer.count("fuzz_oracle_checks", report.checks)
            if report.discrepancies:
                self.tracer.count("fuzz_oracle_discrepancies", len(report.discrepancies))
        return report

    def check_single(
        self,
        triplets: Triplets,
        k: int,
        fmt: str,
        variant: str,
        path: str,
        seed: int = 0,
    ) -> list[Discrepancy]:
        """Re-run exactly one (path, fmt, variant) cell — the shrink predicate."""
        rng = np.random.default_rng(seed + 1)
        B = rng.standard_normal((triplets.ncols, k))
        reference = dense_reference(triplets, B, k)
        tolerance = result_tolerance(reference, self.rtol)
        A = self._build(fmt, triplets)
        outcome = self._run_path(path, triplets, A, fmt, variant, B, k)
        if outcome is None:
            return []
        return self._judge(outcome, path, fmt, variant, k, reference, tolerance)

    # -- internals -------------------------------------------------------------

    def _build(self, fmt: str, triplets: Triplets):
        return get_format(fmt).from_triplets(triplets, **self.format_params.get(fmt, {}))

    def _kernel_options(self, variant: str) -> dict[str, Any]:
        return {"threads": self.threads} if "parallel" in variant else {}

    def _run_path(self, path, triplets, A, fmt, variant, B, k):
        """Execute one path; returns list of results, or None if inapplicable."""
        try:
            if path == "direct":
                return [run_spmm(A, B, variant=variant, k=k, **self._kernel_options(variant))]
            if path == "api":
                from .. import api  # lazy: api imports bench.suite imports bench.verify

                return [
                    api.multiply(
                        triplets,
                        B,
                        fmt=fmt,
                        fmt_params=self.format_params.get(fmt),
                        variant=variant,
                        k=k,
                        **self._kernel_options(variant),
                    )
                ]
            if path == "legacy":
                from ..kernels import dispatch

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    return [
                        dispatch.spmm(A, B, variant=variant, k=k, **self._kernel_options(variant))
                    ]
            if path in ("plan_uncached", "plan_cached"):
                return self._run_plan_path(path, triplets, fmt, variant, B, k)
            if path in ("engine_direct", "engine_batched"):
                return self._run_engine_path(path, triplets, fmt, variant, B, k)
            if path == "server":
                return self._run_server_path(triplets, fmt, variant, B, k)
            if path == "migration":
                return self._run_migration_path(triplets, fmt, variant, B, k)
            if path == "auto":
                return self._run_auto_path(A, variant, B, k)
            raise AssertionError(f"unreachable path {path!r}")
        except _Inapplicable:
            return None
        except Exception as exc:  # noqa: BLE001 - the oracle reports, never raises
            return [exc]

    def _run_plan_path(self, path, triplets, fmt, variant, B, k):
        if not plan_supported(variant):
            return None
        cache = PlanCache(maxsize=8)
        plan, provenance = cache.get_or_build_plan(
            triplets,
            fmt,
            variant=variant,
            k=k,
            threads=self.threads if "parallel" in variant else 1,
            format_params=self.format_params.get(fmt),
        )
        uncached = plan(B)
        if provenance != "built":
            return [_ProvenanceViolation(f"cold build reported provenance {provenance!r}")]
        if path == "plan_uncached":
            return [uncached]
        plan2, provenance2 = cache.get_or_build_plan(
            triplets,
            fmt,
            variant=variant,
            k=k,
            threads=self.threads if "parallel" in variant else 1,
            format_params=self.format_params.get(fmt),
        )
        if provenance2 != "memory":
            return [_ProvenanceViolation(f"warm lookup reported provenance {provenance2!r}")]
        cached = plan2(B)
        if not np.array_equal(uncached, cached):
            return [_BitViolation("cached plan result differs bit-wise from uncached build")]
        return [cached]

    def _run_engine_path(self, path, triplets, fmt, variant, B, k):
        if variant == "auto":
            return None
        from ..engine import SpmmRequest  # lazy (see _get_engine)

        engine = self._get_engine()
        request = SpmmRequest(
            matrix=triplets,
            k=k,
            fmt=fmt,
            fmt_params=self.format_params.get(fmt),
            variant=variant,
            threads=self.threads if "parallel" in variant else 1,
            repeats=1,
            dense=np.ascontiguousarray(B[:, :k]),
        )
        if path == "engine_direct":
            return [engine.run(request).output]
        results = engine.map_batch([request, request, request])
        outputs = [r.output for r in results]
        for other in outputs[1:]:
            if not np.array_equal(outputs[0], other):
                return [_BitViolation("engine batch members disagree bit-wise")]
        return [outputs[0]]

    def _run_server_path(self, triplets, fmt, variant, B, k):
        """Client → socket → server → engine, bit-identical to api.multiply."""
        if variant == "auto":
            return None
        from .. import api  # lazy: api imports bench.suite imports bench.verify

        dense = np.ascontiguousarray(B[:, :k])
        params = self.format_params.get(fmt)
        reply = self._get_client().multiply(
            triplets,
            dense=dense,
            fmt=fmt,
            fmt_params=params,
            variant=variant,
            k=k,
            threads=self.threads if "parallel" in variant else 1,
        )
        direct = api.multiply(
            triplets, dense, fmt=fmt, fmt_params=params, variant=variant, k=k,
            **self._kernel_options(variant),
        )
        if not np.array_equal(reply.output, direct):
            return [_BitViolation("served result differs bit-wise from api.multiply")]
        return [reply.output]

    def _run_migration_path(self, triplets, fmt, variant, B, k):
        """Pre/post online-migration outputs must be bit-identical."""
        if variant == "auto" or not plan_supported(variant):
            return None
        from ..engine import SpmmRequest  # lazy (see _get_engine)
        from ..errors import EngineError

        engine = self._get_migration_engine()
        request = SpmmRequest(
            matrix=triplets,
            k=k,
            fmt=fmt,
            fmt_params=self.format_params.get(fmt),
            variant=variant,
            threads=self.threads if "parallel" in variant else 1,
            repeats=1,
            dense=np.ascontiguousarray(B[:, :k]),
        )
        pre = engine.run(request).output
        try:
            engine.force_migration(request)
        except EngineError:
            return None  # no plannable target for this cell: skip, not fail
        post = engine.run(request).output
        if not np.array_equal(pre, post):
            return [_BitViolation(
                "post-migration result differs bit-wise from pre-migration"
            )]
        return [post]

    def _run_auto_path(self, A, variant, B, k):
        # auto is one resolution per matrix, not per variant: run it once
        # (against the first configured variant) to keep the check linear.
        if variant != self.variants[0]:
            return None
        from ..tune.store import TuneStore  # lazy: tune sits above kernels

        return [run_spmm(A, B, variant="auto", k=k, tune_store=TuneStore())]

    def _judge(self, outcome, path, fmt, variant, k, reference, tolerance):
        """Compare one path's results against the reference."""
        found: list[Discrepancy] = []
        for result in outcome:
            if isinstance(result, _ProvenanceViolation):
                found.append(
                    Discrepancy(path, fmt, variant, k, "provenance", str(result))
                )
            elif isinstance(result, _BitViolation):
                found.append(Discrepancy(path, fmt, variant, k, "bit", str(result)))
            elif isinstance(result, Exception):
                found.append(
                    Discrepancy(
                        path, fmt, variant, k, "exception",
                        f"{type(result).__name__}: {result}",
                    )
                )
            elif np.asarray(result).shape != reference.shape:
                found.append(
                    Discrepancy(
                        path, fmt, variant, k, "shape",
                        f"result shape {np.asarray(result).shape} != "
                        f"reference {reference.shape}",
                    )
                )
            else:
                arr = np.asarray(result, dtype=np.float64)
                max_err = float(np.abs(arr - reference).max()) if reference.size else 0.0
                if not np.isfinite(arr).all():
                    found.append(
                        Discrepancy(
                            path, fmt, variant, k, "value",
                            "non-finite entries in result",
                            max_abs_err=float("inf"), tolerance=tolerance,
                        )
                    )
                elif max_err > tolerance:
                    found.append(
                        Discrepancy(
                            path, fmt, variant, k, "value",
                            "result disagrees with dense reference",
                            max_abs_err=max_err, tolerance=tolerance,
                        )
                    )
        return found


class _Inapplicable(Exception):
    """Raised internally when a path cannot serve a cell (skip, not fail)."""


class _ProvenanceViolation(str):
    """Plan-cache provenance contract broken (wrapped as a sentinel result)."""


class _BitViolation(str):
    """Bit-identity contract broken (wrapped as a sentinel result)."""
