"""The ``local_kernels`` workload: the kernel layer in-process.

No engine, wire or server: formats are built before timing, then rounds
of :mod:`probe` cells run until ``--seconds`` have gone (and at least
:data:`MIN_ROUNDS`).  Forward cells call :func:`repro.api.multiply` with
variants serial and parallel (threads = nproc); backward cells call
``transpose_spmm``.  k = 32 throughout.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from common import Counts, Metric, RunResult, median, p95_with_tail, percentile, timed
from probe import geomean, make_cells, ratios, run_round, trace_overhead

K = 32
FORMATS = ("coo", "csr", "ell", "bcsr", "sell")
VARIANTS = ("serial", "parallel")
#: (suite matrix, scale, formats).  ELL on torso1 is left out: padding to
#: the longest row costs seconds per call, the Study 1 effect the analytic
#: model already covers.
FORWARD = (
    ("cant", 16, FORMATS),
    ("shallow_water1", 16, FORMATS),
    ("dlmc_mag_90", 1, FORMATS),
    ("dlmc_block_95", 1, FORMATS),
    ("torso1", 16, ("csr", "coo", "sell")),
)
BACKWARD = ("cant", "dlmc_mag_90")
BACKWARD_FORMATS = ("coo", "csr", "ell", "bcsr")
SETUP_REPEATS = 5
#: Rounds every cell gets at least, so the p95 over calls keeps ten beyond.
MIN_ROUNDS = 4
#: Latency limit of one call for ``slo_attainment``.
SLO_S = 5.0


def set_up() -> tuple[dict, dict, dict]:
    """Load every matrix and build every cell's operand, timed per step.

    Returns triplets by matrix; built formats by ``(matrix, fmt)`` and
    transposes by ``(matrix, fmt, "T")``; and the per-step seconds.
    """
    from repro.formats.registry import get_format
    from repro.kernels.backward import transpose_format
    from repro.matrices.suite import DL_SUITE, SUITE

    times = {"load": [], "convert": {fmt: [] for fmt in FORMATS}}
    triplets, built = {}, {}
    for name, scale, fmts in FORWARD:
        spec = SUITE.get(name) or DL_SUITE.get(name)
        triplets[name], seconds = timed(spec.build, scale=scale)
        times["load"].append(seconds)
        for fmt in fmts:
            built[name, fmt], seconds = timed(get_format(fmt).from_triplets, triplets[name])
            times["convert"][fmt].append(seconds)
    for name in BACKWARD:
        for fmt in BACKWARD_FORMATS:
            built[name, fmt, "T"] = transpose_format(built[name, fmt])
    return triplets, built, times


def run(root: Path, args) -> RunResult:
    from repro.bench.observe import Tracer

    threads = os.cpu_count() or 1
    counts = Counts()
    rng = np.random.default_rng(args.seed)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        triplets, built, setup_times = set_up()
        setups.append(time.perf_counter() - t0)

    forward = [(name, fmt, variant, K) for name, _scale, fmts in FORWARD
               for fmt in fmts for variant in VARIANTS]
    backward = [(name, fmt, K) for name in BACKWARD for fmt in BACKWARD_FORMATS]
    cells = make_cells(triplets, built, forward, backward, rng, threads)

    for cell in cells:  # first calls: checked, untimed
        cell.check(cell.call()[0], counts)

    tracer = Tracer() if args.trace else None
    calls = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        calls += run_round(cells, rng, rounds % 2 == 1, counts, tracer)
        rounds += 1

    details = {
        "provenance": {"threads": threads, "k": K, "rounds": rounds},
        "setup_runs_s": setups,
        "cells": {c.label: {"ratio": c.ratio, "kernel_min_s": min(c.kernel_s),
                            "scipy_min_s": min(c.scipy_s)} for c in cells},
    }
    latencies = [t for t, ok in calls if ok]
    # Measured on every run, bounded nowhere: see the README, *Steadiness*.
    unbounded = {
        "latency_p50_s": Metric(median(latencies), "s", len(latencies)),
        "latency_p95_s": Metric(p95_with_tail(latencies) if not counts.failed
                                else percentile(latencies, 95), "s", len(latencies)),
        "throughput_rps": Metric(len(calls) / sum(t for t, _ok in calls), "1/s", len(calls)),
    }
    if args.trace:
        return RunResult(counts, {**layer_metrics(cells, setup_times, built, calls), **unbounded},
                         details, tracer.spans)
    metrics = {
        **unbounded,
        "slo_attainment": Metric(sum(ok and t <= SLO_S for t, ok in calls) / len(calls),
                                 "share", len(calls)),
        "setup_s": Metric(median(setups), "s", len(setups)),
        "spmm_native_ratio": Metric(geomean(ratios(cells, "forward")), "ratio", len(forward)),
        "backward_native_ratio": Metric(geomean(ratios(cells, "backward")), "ratio",
                                        len(backward)),
    }
    return RunResult(counts, metrics, details)


#: Per-layer metrics of layers this workload never runs: no server, wire,
#: engine, backend or load generator.
NOT_EXERCISED = (
    ("serve.server_latency_p50_s", "s"), ("serve.outside_server_p50_s", "s"),
    ("serve.wire.reply_bytes", "bytes"), ("serve.wire.request_bytes", "bytes"),
    ("serve.wire.encode_reply_s", "s"), ("serve.wire.decode_reply_s", "s"),
    ("serve.wire.encode_request_s", "s"), ("serve.wire.decode_request_s", "s"),
    ("serve.queue_depth_p95", "count"), ("serve.unattributed_share", "share"),
    ("engine.queue_wait_p50_s", "s"), ("engine.plan_hit_share", "share"),
    ("engine.plan_s", "s"), ("engine.execute_s", "s"),
    ("engine.migrated_share", "share"), ("engine.migration_swaps", "count"),
    ("engine.fingerprint_s", "s"), ("engine.backend_remote_s", "s"),
    ("engine.shm_bytes", "bytes"), ("engine.shm_held_per_request", "count"),
    ("loadgen.late_p95_s", "s"),
)


def layer_metrics(cells, setup_times, built, calls) -> dict[str, Metric]:
    m = {name: Metric(0.0, unit, 0) for name, unit in NOT_EXERCISED}
    forward = [c for c in cells if c.kind == "forward"]
    m["kernels.time_p50_s"] = Metric(median(t for t, ok in calls if ok), "s", len(calls))
    for fmt in FORMATS:
        for variant in VARIANTS:
            group = [c for c in forward if c.fmt == fmt and c.variant == variant]
            m[f"kernels.{fmt}.{variant}.native_ratio"] = Metric(
                median(c.ratio for c in group), "ratio", len(group))
            m[f"kernels.{fmt}.{variant}.mflops"] = Metric(
                median(2 * c.nnz * c.k / min(c.kernel_s) / 1e6 for c in group),
                "MFLOPS", len(group))
    for fmt in BACKWARD_FORMATS:
        group = [c for c in cells if c.kind == "backward" and c.fmt == fmt]
        m[f"kernels.backward.{fmt}.native_ratio"] = Metric(
            median(c.ratio for c in group), "ratio", len(group))
    serial = {(c.matrix, c.fmt): min(c.kernel_s) for c in forward if c.variant == "serial"}
    speedups = [serial[c.matrix, c.fmt] / min(c.kernel_s)
                for c in forward if c.variant == "parallel"]
    m["kernels.parallel_speedup"] = Metric(median(speedups), "ratio", len(speedups))
    m["kernels.flops"] = Metric(float(np.mean([2 * c.nnz * c.k for c in cells])), "flop",
                                len(cells))
    computed = [c.operand.nbytes + 8 * c.k * sum(c.operand.shape) for c in cells]
    m["kernels.bytes_computed"] = Metric(float(np.mean(computed)), "bytes", len(cells))
    for fmt in FORMATS:
        seconds = setup_times["convert"][fmt]
        m[f"formats.{fmt}.convert_s"] = Metric(median(seconds), "s", len(seconds))
        stored = [A.padding_ratio for key, A in built.items() if key[1:] == (fmt,)]
        m[f"formats.{fmt}.stored_per_nnz"] = Metric(float(np.mean(stored)), "ratio",
                                                    len(stored))
    m["matrices.load_s"] = Metric(median(setup_times["load"]), "s", len(setup_times["load"]))
    m["trace_overhead_share"] = Metric(trace_overhead(cells), "share", len(cells))
    return m
