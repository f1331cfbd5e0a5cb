"""Fixed-RPS load generator: hot-reuse vs cold-one-shot request mixes.

The engine's whole premise is amortization — plans, conversions, and
tuning decisions pay off only when a matrix is seen again.  Whether they
pay off under *traffic* depends on the request mix, so the load generator
replays exactly that axis (the Katagiri run-time data-transformation
framing): a **hot** request re-uses one of a small set of suite matrices
(same content fingerprint → plan-cache hits), a **cold** request ships a
one-shot synthetic matrix inline (fresh fingerprint → cold build every
time).  Requests are paced on a fixed open-loop schedule (request ``i``
fires at ``t0 + i/rps`` regardless of how long earlier ones took) across
a pool of connection threads, which is what actually builds queue depth
on the server and makes the p99 mean something.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..bench.observe import Tracer
from ..errors import BenchConfigError, ServeError, ServeRejectedError, ServeRemoteError
from ..matrices.coo_builder import CooBuilder
from .client import Client
from .config import DEFAULT_PRIORITY, PRIORITIES
from .metrics import DepthTracker, LatencyRecorder
from .trajectory import build_serve_trajectory

__all__ = ["LoadGenReport", "LoadGenSpec", "run_loadgen"]


@dataclass(frozen=True)
class LoadGenSpec:
    """One load-generation run, in the facade's keyword vocabulary.

    ``mix`` is the hot fraction: ``0.8`` sends 80% hot requests (drawn
    from ``matrices``, all plan-cache-hot after first sight) and 20% cold
    one-shots (synthetic ``cold_side``² matrices with index-salted content
    so every one is a fresh fingerprint).  ``priorities`` cycles the
    admission class across requests.
    """

    rps: float = 20.0
    duration_s: float = 5.0
    mix: float = 0.8
    matrices: tuple[str, ...] = ("dw4096",)
    fmt: str = "csr"
    variant: str = "serial"
    k: int = 8
    threads: int = 1
    repeats: int = 1
    scale: int = 64
    cold_side: int = 192
    cold_density: float = 0.02
    connections: int = 4
    tenant: str = "default"
    priorities: tuple[str, ...] = (DEFAULT_PRIORITY,)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rps <= 0:
            raise BenchConfigError(f"rps must be > 0, got {self.rps}")
        if self.duration_s <= 0:
            raise BenchConfigError(f"duration_s must be > 0, got {self.duration_s}")
        if not 0.0 <= self.mix <= 1.0:
            raise BenchConfigError(f"mix must be in [0, 1], got {self.mix}")
        if self.connections < 1:
            raise BenchConfigError(f"connections must be >= 1, got {self.connections}")
        if not self.matrices:
            raise BenchConfigError("need at least one hot matrix")
        unknown = [p for p in self.priorities if p not in PRIORITIES]
        if unknown:
            raise BenchConfigError(
                f"unknown priorities {unknown}; known: {', '.join(PRIORITIES)}"
            )

    @property
    def total_requests(self) -> int:
        return max(1, int(self.rps * self.duration_s))

    def describe(self) -> dict:
        return {
            "rps": self.rps,
            "duration_s": self.duration_s,
            "mix": self.mix,
            "matrices": list(self.matrices),
            "fmt": self.fmt,
            "variant": self.variant,
            "k": self.k,
            "threads": self.threads,
            "repeats": self.repeats,
            "scale": self.scale,
            "connections": self.connections,
            "tenant": self.tenant,
            "priorities": list(self.priorities),
            "seed": self.seed,
        }


@dataclass
class LoadGenReport:
    """What the load run saw from the client side, plus the server snapshot."""

    spec: LoadGenSpec
    sent: int = 0
    completed: int = 0
    rejected: dict = field(default_factory=dict)
    failed: int = 0
    hot_sent: int = 0
    cold_sent: int = 0
    hot_plan_hits: int = 0
    hot_migrated: int = 0
    elapsed_s: float = 0.0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    hot_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    cold_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    #: Per-call kernel seconds of hot requests, split into the run's first
    #: and last third (by schedule index).  Online migration lands
    #: mid-run, so the late window is the steady state the swap bought —
    #: comparing the two (and comparing late windows across
    #: ``--migration``/``--no-migration`` runs) is the repeat-call
    #: speedup demonstration.
    hot_kernel_early: LatencyRecorder = field(default_factory=LatencyRecorder)
    hot_kernel_late: LatencyRecorder = field(default_factory=LatencyRecorder)
    behind_schedule_s: float = 0.0
    server_stats: dict = field(default_factory=dict)

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def offered_rps(self) -> float:
        return self.spec.rps

    def summary_lines(self) -> list[str]:
        lat = self.latency.summary()
        lines = [
            f"offered {self.offered_rps:.1f} RPS for {self.spec.duration_s:.1f}s "
            f"({self.sent} requests, {self.spec.connections} connections, "
            f"hot mix {self.spec.mix:.0%})",
            f"completed {self.completed}, failed {self.failed}, rejected "
            + (", ".join(f"{code}={n}" for code, n in sorted(self.rejected.items()))
               or "none"),
            f"achieved {self.achieved_rps:.1f} RPS over {self.elapsed_s:.2f}s",
            f"latency p50 {lat['p50_s'] * 1e3:.2f} ms  p95 {lat['p95_s'] * 1e3:.2f} ms  "
            f"p99 {lat['p99_s'] * 1e3:.2f} ms  max {lat['max_s'] * 1e3:.2f} ms",
        ]
        if self.hot_sent and self.cold_sent:
            lines.append(
                f"hot p50 {self.hot_latency.summary()['p50_s'] * 1e3:.2f} ms "
                f"({self.hot_sent} reqs, {self.hot_plan_hits} plan reuses)  vs  "
                f"cold p50 {self.cold_latency.summary()['p50_s'] * 1e3:.2f} ms "
                f"({self.cold_sent} reqs)"
            )
        steady = self.steady_state()
        if steady is not None:
            lines.append(
                f"hot kernel p50: first third {steady['early_p50_s'] * 1e3:.3f} ms "
                f"-> last third {steady['late_p50_s'] * 1e3:.3f} ms "
                f"(x{steady['speedup']:.2f}, {self.hot_migrated} served migrated)"
            )
        return lines

    def steady_state(self) -> dict | None:
        """Early-vs-late hot kernel time, or None without both windows."""
        if not (self.hot_kernel_early.count and self.hot_kernel_late.count):
            return None
        early = self.hot_kernel_early.summary()["p50_s"]
        late = self.hot_kernel_late.summary()["p50_s"]
        return {
            "early_p50_s": early,
            "late_p50_s": late,
            "speedup": early / late if late > 0 else 0.0,
            "hot_migrated": self.hot_migrated,
        }


def _cold_matrix(spec: LoadGenSpec, index: int):
    """A one-shot synthetic matrix whose content no other request shares."""
    rng = np.random.default_rng((spec.seed << 20) ^ (index * 2654435761 % 2**31))
    n = spec.cold_side
    builder = CooBuilder(n, n)
    nnz = max(n, int(n * n * spec.cold_density))
    builder.add_batch(
        rng.integers(0, n, size=nnz),
        rng.integers(0, n, size=nnz),
        rng.standard_normal(nnz),
    )
    # Salt one entry with the index so every cold matrix fingerprints fresh
    # even if the rng ever collides.
    builder.add(index % n, (index * 7) % n, 1.0 + index)
    return builder.finish()


def run_loadgen(
    host: str,
    port: int,
    spec: LoadGenSpec,
    *,
    tracer: Tracer | None = None,
) -> LoadGenReport:
    """Drive a fixed-RPS mix against a live server; returns the report.

    Every request is scheduled at ``t0 + i/rps``; a connection thread that
    falls behind sends immediately and the lag is recorded, so the offered
    load is honest even when the server is the bottleneck.  Latency is
    measured from that due time, so time a request spends queued behind a
    stalled one counts against it (no coordinated omission).
    """
    tracer = tracer if tracer is not None else Tracer()
    report = LoadGenReport(spec=spec)
    total = spec.total_requests
    rng = np.random.default_rng(spec.seed)
    is_hot = rng.random(total) < spec.mix
    # Pre-build the cold matrices so generation cost never pollutes latency.
    cold = {
        i: _cold_matrix(spec, i) for i in range(total) if not is_hot[i]
    }
    lock = threading.Lock()
    next_index = [0]
    t0 = time.perf_counter() + 0.05  # let every thread reach the loop

    def connection_worker() -> None:
        try:
            client = Client(host, port, tenant=spec.tenant)
        except ServeError:
            tracer.warn("loadgen_connect_failed")
            return
        with client:
            while True:
                with lock:
                    i = next_index[0]
                    if i >= total:
                        return
                    next_index[0] += 1
                sched = t0 + i / spec.rps
                now = time.perf_counter()
                if sched > now:
                    time.sleep(sched - now)
                else:
                    with lock:
                        report.behind_schedule_s += now - sched
                hot = bool(is_hot[i])
                matrix = (
                    spec.matrices[i % len(spec.matrices)] if hot else cold[i]
                )
                priority = spec.priorities[i % len(spec.priorities)]
                try:
                    reply = client.multiply(
                        matrix,
                        fmt=spec.fmt,
                        variant=spec.variant,
                        k=spec.k,
                        threads=spec.threads,
                        repeats=spec.repeats,
                        scale=spec.scale if hot else 1,
                        seed=spec.seed,
                        priority=priority,
                        tag="hot" if hot else "cold",
                    )
                except ServeRejectedError as exc:
                    with lock:
                        report.sent += 1
                        report.rejected[exc.code] = report.rejected.get(exc.code, 0) + 1
                    tracer.count(f"loadgen_rejected_{exc.code}")
                    continue
                except (ServeRemoteError, ServeError):
                    with lock:
                        report.sent += 1
                        report.failed += 1
                    tracer.count("loadgen_failed")
                    continue
                # Open-loop latency runs from the due time, not the send:
                # a stall then shows in every request queued behind it.
                latency = time.perf_counter() - sched
                with lock:
                    report.sent += 1
                    report.completed += 1
                    if hot:
                        report.hot_sent += 1
                        if reply.plan_provenance in ("shared", "memory", "disk"):
                            report.hot_plan_hits += 1
                        if reply.migrated:
                            report.hot_migrated += 1
                    else:
                        report.cold_sent += 1
                report.latency.record(latency)
                (report.hot_latency if hot else report.cold_latency).record(latency)
                if hot and reply.mean_time_s is not None:
                    if i < total // 3:
                        report.hot_kernel_early.record(reply.mean_time_s)
                    elif i >= total - total // 3:
                        report.hot_kernel_late.record(reply.mean_time_s)
                tracer.count("loadgen_completed")
                tracer.count("loadgen_latency_s", latency)

    threads = [
        threading.Thread(target=connection_worker, name=f"loadgen-{j}", daemon=True)
        for j in range(spec.connections)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.elapsed_s = time.perf_counter() - start

    # Snapshot the server's own counters so the trajectory carries both
    # sides of the story (admission verdicts, engine/plan traffic).
    try:
        with Client(host, port, tenant=spec.tenant) as probe:
            report.server_stats = probe.stats()
    except ServeError:
        tracer.warn("loadgen_stats_unavailable")
    return report


def loadgen_trajectory(report: LoadGenReport, *, tracer: Tracer | None = None) -> dict:
    """A ``BENCH_serve.json`` trajectory from the client's vantage point."""
    tracer = tracer if tracer is not None else Tracer()
    server_counters = report.server_stats.get("counters", {})
    for name, value in server_counters.items():
        tracer.count(name, value)
    for code, count in report.rejected.items():
        tracer.count(f"loadgen_rejected_{code}", count)
    depth = DepthTracker()
    server_depth = report.server_stats.get("queue_depth_summary")
    rps = {
        "offered": report.offered_rps,
        "achieved": report.achieved_rps,
        "behind_schedule_s": report.behind_schedule_s,
    }
    trajectory = build_serve_trajectory(
        config={"role": "loadgen", **report.spec.describe()},
        tracer=tracer,
        latency=report.latency,
        queue_depth=depth,
        latency_by_priority={
            "hot": report.hot_latency,
            "cold": report.cold_latency,
        },
        elapsed_s=report.elapsed_s,
        rps=rps,
        extra={
            "client": {
                "sent": report.sent,
                "completed": report.completed,
                "failed": report.failed,
                "rejected": dict(report.rejected),
                "hot_sent": report.hot_sent,
                "cold_sent": report.cold_sent,
                "hot_plan_hits": report.hot_plan_hits,
                "hot_migrated": report.hot_migrated,
            },
            "server_latency_s": report.server_stats.get("latency_s", {}),
            "steady_state": report.steady_state(),
        },
    )
    if server_depth is not None:
        trajectory["queue_depth"] = server_depth
    return trajectory
