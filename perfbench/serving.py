"""The served workloads: ``serve_hot`` and ``serve_cold_proc``.

Each run starts fresh ``spmm-bench serve --listen`` processes, drives
them with :class:`repro.serve.Client` from this process (``nproc``
connection threads at most), and stops them with SIGTERM once the
clients have closed.

Phases of an untraced run:

1. *Inputs and references.*  Every request the run can send is derived
   from the seed; its scipy reference is computed before any server
   exists.
2. *Set-up, five times.*  Spawn a server, wait for a ping, answer every
   distinct request shape once; all but the last server are stopped again,
   in the background.
   ``setup_s`` is the median.
3. *Settle.*  Every shape once more (cold: eight more one-shot
   matrices), one request at a time.
4. *Open loop* at the workload's fixed rate (:mod:`traffic`), timed from
   each request's due time, alternating :data:`CYCLES` times with a
   *closed loop* of ``nproc`` back-to-back connections; the closed loop
   gets a fifth of ``--seconds``.
5. *Teardown.*  SIGTERM, bounded wait, exit code 0 required; for the
   process backend the ``/dev/shm`` segment count must match phase 1's.

Between phases, while no request is in flight, rounds of :mod:`probe`
cells time the kernel on the workload's own shapes against scipy
(``spmm_native_ratio``, ``backward_native_ratio``): the wire has no
backward operation, and a served kernel time cannot be interleaved with
scipy's.

A traced run (``--trace 1``) sets up once, runs the open loop with a
seeded half of the requests inside a :class:`repro.bench.observe.Span`,
and replays the wire, fingerprint, conversion and load functions on the
run's own inputs.  A traced ``serve_hot`` run then repeats this with the
``serve_cold_proc`` traffic, each taking half of ``--seconds``, and takes
the layers the thread backend never runs from it (:data:`COLD_LAYERS`).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    OUT_DIR,
    Counts,
    Metric,
    RunInvalid,
    RunResult,
    median,
    p95_with_tail,
    percentile,
    run_stem,
    timed,
)
from probe import geomean, make_cells, ratios, run_round, scipy_csr
from server_proc import ServerProcess, shm_segments
from traffic import CLIENT_TIMEOUT_S, Connection, Op, Sample, closed_loop, open_loop

SETUP_REPEATS = 5
#: The open loop sends at least this many requests, so its p95 keeps ten
#: samples beyond it.
MIN_OPEN_REQUESTS = 210


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    backend: str
    #: Open-loop offered rate: about a third (hot) and a sixth (cold) of the
    #: closed-loop capacity on a 2-CPU host.  At half, a host slowdown of 2x
    #: (seen on a shared host for tens of seconds at a time) saturates the
    #: two connections and a run's median swings from 7 ms to 300 ms; at a
    #: quarter, the cold p95 still spread 50% over seeds.  At 9 rps the hot
    #: requests are 111 ms apart, so the slowest shape (about 60 ms) still
    #: ends before the next request is due when the host runs 1.5x slower.
    rate_rps: float
    #: Share of ``--seconds`` given to the open loop; the closed loop gets
    #: the rest.  The two alternate :data:`CYCLES` times.
    open_share: float
    #: Latency limit for ``slo_attainment``.  On ``serve_hot`` a limit of
    #: 0.12 s, between the slowest shape's median (73-92 ms over ten seeds)
    #: and its time with the kernel twice as slow, was met by 73-100% of the
    #: requests from run to run: the host ran up to 1.7x slower for whole
    #: runs (p95 190 ms).  At 0.5 s it catches only gross regressions.
    slo_s: float
    #: A run whose generator started requests later than this (p95, beyond
    #: the time its connection became free) fell behind its own schedule
    #: and is invalid.
    lag_limit_s: float
    #: Probe rounds at each point between phases.
    probe_rounds: int
    #: Closed-loop requests prepared per second of the closed loop: about
    #: twice the closed-loop capacity measured on a 2-CPU host (hot 24-30,
    #: cold 125-235 rps).  A run that uses them all before the closed loop
    #: ends is invalid, so every run measures the same window.
    closed_headroom_rps: float
    #: Online format migration in the server (``--migration``).
    migration: bool = True


WORKLOADS = {
    # Migration off: it moves each hot shape to whichever variant its
    # probes found fastest, and on a 2-CPU host close candidates (serial,
    # parallel, optimized) won in some servers and not others: ``cant`` k32
    # was served at 40-57 ms kernel time from run to run.  The parallel
    # winners also follow the host's speed about twice as much as a serial
    # kernel: over ten seeds the hot ``latency_p50_s`` spread 0.27.
    "serve_hot": ServeWorkload("serve_hot", "thread", 9.0, 0.8, 0.5, 0.04, 2, 60.0,
                               migration=False),
    "serve_cold_proc": ServeWorkload("serve_cold_proc", "process", 30.0, 0.8, 0.1, 0.015, 5,
                                     400.0),
}
#: Open- and closed-loop phases alternate this many times in an untraced
#: run, so both metrics sample the whole run.  Back to back (open loop
#: first, closed loop in the last fifth), ``throughput_rps`` read whatever
#: stretch of a shared host the closed loop fell in: its spread was 0.31
#: in one set of ten ``serve_hot`` runs.
CYCLES = 6
#: Per-layer metrics a traced ``serve_hot`` run takes from its
#: ``serve_cold_proc`` phase: the process backend, a large request, and a
#: plan built per request are layers the hot traffic never runs.
COLD_LAYERS = (
    "serve.wire.request_bytes", "serve.wire.encode_request_s", "serve.wire.decode_request_s",
    "engine.plan_s", "engine.fingerprint_s", "engine.backend_remote_s", "engine.shm_bytes",
    "engine.shm_held_per_request",
)

#: ``serve_hot`` request shapes: (suite matrix, scale, k).  Format and
#: variant are the client defaults (csr, serial).
HOT_SHAPES = (("cant", 16, 32), ("cant", 16, 8), ("torso1", 16, 8), ("shallow_water1", 16, 32))
COLD_SIDE = 512
COLD_DENSITY = 0.01
#: Cold matrices are dense 4x4 tiles (BCSR's default block) at 1% of the
#: tiles, so every served format's kernel stays a small share of a cold
#: request (0.1-0.25 ms serial at k=8, like CSR's).  On a
#: uniformly random 1% matrix BCSR stores ~15 entries per nonzero and its
#: kernel alone took ~2.5 ms, a third of the cold tail.
COLD_BLOCK = 4
COLD_K = 8
COLD_FORMATS = ("csr", "ell", "bcsr", "sell")
BACKWARD_FORMATS = ("coo", "csr", "ell", "bcsr")
#: Random streams of the cold generator, each its own sequence of one-shot
#: matrices.
COLD_STREAMS = {"setup": 0, "settle": 1, "open": 2, "closed": 3, "probe": 4}


# -- inputs -------------------------------------------------------------------


def cold_matrix(seed: int, stream: int, index: int):
    """One 512², 1% one-shot matrix; its content is unique to its key."""
    from repro.matrices.generators import block_sparse_matrix

    key = int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])
    return block_sparse_matrix(COLD_SIDE, COLD_SIDE, block_size=COLD_BLOCK,
                               block_density=COLD_DENSITY, seed=key)


def served_operand(dense_seed: int, ncols: int, k: int) -> np.ndarray:
    """The dense operand the server generates for a request's ``seed``.

    ``Client.multiply`` documents it as seeded exactly like the engine's;
    if that convention changed, every reply would fail its check.
    """
    return np.random.default_rng(dense_seed + 1).standard_normal((ncols, k))


def hot_ops(seed: int) -> list[Op]:
    """One op per hot shape."""
    from repro.matrices.suite import load_matrix

    ops = []
    for j, (name, scale, k) in enumerate(HOT_SHAPES):
        triplets = load_matrix(name, scale=scale)
        dense_seed = 1000 * seed + j
        ref = scipy_csr(triplets) @ served_operand(dense_seed, triplets.ncols, k)
        ops.append(Op(f"{name}/s{scale}/k{k}", "csr", k, scale, dense_seed, ref,
                      triplets.nnz, name))
    return ops


def hot_sequence(ops: list[Op], n: int, rng: np.random.Generator) -> list[Op]:
    """``n`` requests in blocks holding every shape once, each block in seeded order.

    A free shuffle lets runs of the slowest shape queue behind each other
    in some seeds and not others, which moved the hot p95 with the seed.
    """
    blocks = [rng.permutation(len(ops)) for _ in range(-(-n // len(ops)))]
    return [ops[j] for block in blocks for j in block][:n]


def cold_ops(seed: int, stream: str, n: int) -> list[Op]:
    """``n`` one-shot requests, formats cycling csr/ell/bcsr/sell."""
    sid = COLD_STREAMS[stream]
    ops = []
    for i in range(n):
        triplets = cold_matrix(seed, sid, i)
        dense_seed = (seed * len(COLD_STREAMS) + sid) * 1_000_003 + i
        ref = scipy_csr(triplets) @ served_operand(dense_seed, COLD_SIDE, COLD_K)
        fmt = COLD_FORMATS[i % len(COLD_FORMATS)]
        ops.append(Op(f"cold/{fmt}", fmt, COLD_K, 1, dense_seed, ref, triplets.nnz,
                      lambda i=i: cold_matrix(seed, sid, i)))
    return ops


def op_triplets(op: Op):
    from repro.matrices.suite import load_matrix

    if isinstance(op.matrix, str):
        return load_matrix(op.matrix, scale=op.scale)
    return op.matrix()


def probe_cells(ws: ServeWorkload, seed: int, rng: np.random.Generator):
    """Kernel cells on the workload's own shapes: forward and backward.

    Hot: each request shape in csr.  Cold: eight one-shot matrices, each
    format of the served cycle (forward) and of the transposed kernels
    (backward) twice.
    """
    from repro.formats.registry import get_format
    from repro.kernels.backward import transpose_format

    triplets, built, forward, backward = {}, {}, [], []
    if ws.name == "serve_hot":
        for op in hot_ops(seed):
            triplets[op.group] = op_triplets(op)
            forward.append((op.group, "csr", "serial", op.k))
            backward.append((op.group, "csr", op.k))
    else:
        for i in range(8):
            name = f"cold{i}"
            triplets[name] = cold_matrix(seed, COLD_STREAMS["probe"], i)
            forward.append((name, COLD_FORMATS[i % 4], "serial", COLD_K))
            backward.append((name, BACKWARD_FORMATS[i % 4], COLD_K))
    for name, fmt, _variant, _k in forward:
        built[name, fmt] = get_format(fmt).from_triplets(triplets[name])
    for name, fmt, _k in backward:
        A = built.get((name, fmt)) or get_format(fmt).from_triplets(triplets[name])
        built[name, fmt, "T"] = transpose_format(A)
    return make_cells(triplets, built, forward, backward, rng)


def native_seconds(ws: ServeWorkload, cells) -> dict[str, float]:
    """scipy's fastest time per request group, from the probe's forward cells."""
    forward = [c for c in cells if c.kind == "forward"]
    if ws.name == "serve_hot":
        return {c.matrix: min(c.scipy_s) for c in forward}
    return {f"cold/{fmt}": median(min(c.scipy_s) for c in forward if c.fmt == fmt)
            for fmt in COLD_FORMATS}


# -- phases -------------------------------------------------------------------


def set_up(root, ws, warm_ops, out_path, inject, counts) -> tuple[ServerProcess, int, float]:
    """Spawn, ping, answer every shape once; returns the set-up seconds."""
    from repro.errors import ServeError
    from repro.serve import Client

    t0 = time.perf_counter()
    server = ServerProcess(root, ws.backend, ws.migration, out_path, inject)
    try:
        port = server.wait_port()
        try:
            with Client(port=port, timeout=CLIENT_TIMEOUT_S) as client:
                client.ping()
        except ServeError as exc:
            raise RunInvalid(f"server did not answer a ping: {exc}")
        conn = Connection(port, counts, threading.Lock())
        for op in warm_ops:
            conn.call(op)
        conn.close()
    except BaseException:
        server.kill()
        raise
    return server, port, time.perf_counter() - t0


def stats(port: int) -> dict:
    from repro.serve import Client

    with Client(port=port, timeout=CLIENT_TIMEOUT_S) as client:
        return client.stats()


def settle(port: int, ops: list[Op], counts: Counts) -> None:
    """Send each op once, one at a time: the warm-up before timing."""
    conn = Connection(port, counts, threading.Lock())
    try:
        for op in ops:
            conn.call(op)
    finally:
        conn.close()


# -- the workload ---------------------------------------------------------------


def run(root: Path, args) -> RunResult:
    if not (args.trace and args.workload == "serve_hot"):
        return measure(root, args, WORKLOADS[args.workload], args.seconds, run_stem(args))
    hot = measure(root, args, WORKLOADS["serve_hot"], args.seconds / 2, run_stem(args))
    cold = measure(root, args, WORKLOADS["serve_cold_proc"], args.seconds / 2,
                   run_stem(args) + ".cold")
    hot.counts.attempted += cold.counts.attempted
    hot.counts.failed += cold.counts.failed
    for reason, n in cold.counts.reasons.items():
        hot.counts.reasons[reason] = hot.counts.reasons.get(reason, 0) + n
    hot.metrics.update({name: cold.metrics[name] for name in COLD_LAYERS})
    cold.details.pop("provenance")
    hot.details["serve_cold_proc"] = cold.details
    hot.spans += cold.spans
    return hot


def measure(root: Path, args, ws: ServeWorkload, seconds: float, stem: str) -> RunResult:
    """One run of one serve workload over ``seconds``."""
    connections = os.cpu_count() or 1
    counts = Counts()
    rng = np.random.default_rng(args.seed)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    open_seconds = ws.open_share * seconds
    closed_seconds = seconds - open_seconds
    n_open = max(MIN_OPEN_REQUESTS, int(round(ws.rate_rps * open_seconds)))
    n_closed = int(ws.closed_headroom_rps * closed_seconds)
    cycles = 1 if args.trace else CYCLES

    if ws.name == "serve_hot":
        shapes = hot_ops(args.seed)
        warm_ops = settle_ops = shapes
        open_ops = hot_sequence(shapes, n_open, rng)
        closed_ops = hot_sequence(shapes, n_closed, rng)
    else:
        warm_ops = cold_ops(args.seed, "setup", len(COLD_FORMATS))
        settle_ops = cold_ops(args.seed, "settle", 2 * len(COLD_FORMATS))
        open_ops = cold_ops(args.seed, "open", n_open)
        closed_ops = cold_ops(args.seed, "closed", n_closed)

    cells = probe_cells(ws, args.seed, rng)
    probe_calls = [0]

    def probe():
        for _ in range(ws.probe_rounds):
            run_round(cells, rng, probe_calls[0] % 2 == 1, counts)
            probe_calls[0] += 1

    probe()
    shm_before = shm_segments() if ws.backend == "process" else None
    setups: list[float] = []
    repeats = 1 if args.trace else SETUP_REPEATS
    server = None
    # Set-up servers other than the last are stopped in the background: a
    # process-backend server takes ~1.4 s to exit, nearly all of it waiting
    # on its workers, not computing.
    retiring: list[threading.Thread] = []
    stopped: list[bool] = []
    try:
        for r in range(repeats):
            server, port, setup_seconds = set_up(root, ws, warm_ops,
                                                 out_dir / f"{stem}.server{r}.json",
                                                 args.inject, counts)
            setups.append(setup_seconds)
            probe()
            if r < repeats - 1:
                retiring.append(threading.Thread(
                    target=lambda s=server: stopped.append(s.stop())))
                retiring[-1].start()
        for thread in retiring:
            thread.join()
        for ok in stopped:
            if not ok:
                counts.fail("teardown", attempted=False)
        settle(port, settle_ops, counts)
        before = stats(port)["counters"]
        shm_open = shm_segments()
        # A seeded half of the traced run's requests go inside spans.
        traced = list(rng.random(len(open_ops)) < 0.5) if args.trace else []
        samples, spans = [], []
        completed, closed_elapsed = 0, 0.0
        for c in range(cycles):
            part = slice(len(open_ops) * c // cycles, len(open_ops) * (c + 1) // cycles)
            got, got_spans = open_loop(port, open_ops[part], ws.rate_rps, connections, counts,
                                       traced[part])
            samples += got
            spans += got_spans
            if c == cycles - 1:
                # A traced run has one cycle: its counters cover the open loop.
                server_stats = stats(port)
                shm_held = ((shm_segments() - shm_open) / len(samples)
                            if shm_open is not None else 0.0)
            part = slice(n_closed * c // cycles, n_closed * (c + 1) // cycles)
            done, elapsed = closed_loop(port, closed_ops[part], closed_seconds / cycles,
                                        connections, counts)
            completed += done
            closed_elapsed += elapsed
        probe()
    except BaseException:
        for thread in retiring:
            thread.join()
        if server is not None:
            server.kill()
        raise
    if not server.stop():
        counts.fail("teardown", attempted=False)
    config = server.config()
    if shm_before is not None and shm_segments() != shm_before:
        counts.fail("shm_leak", attempted=False)
    probe()

    late_p95 = percentile([s.own_lag for s in samples], 95)
    if late_p95 > ws.lag_limit_s:
        raise RunInvalid(
            f"load generator fell behind its schedule: own lateness p95 "
            f"{late_p95 * 1e3:.1f} ms > {ws.lag_limit_s * 1e3:.1f} ms"
        )
    good = [s for s in samples if s.correct]
    groups: dict[str, list[Sample]] = {}
    for s in good:
        groups.setdefault(s.op.group, []).append(s)
    native = native_seconds(ws, cells)
    details = {
        "provenance": {"server_config": config, "backend": config.get("backend"),
                       "rate_rps": ws.rate_rps, "slo_s": ws.slo_s,
                       "connections": connections},
        "open_loop": {"sent": len(samples), "correct": len(good),
                      "late_p95_s": percentile([s.started - s.due for s in samples], 95)},
        "groups": {
            group: {"n": len(g), "latency_p50_s": median(s.latency for s in g),
                    "kernel_p50_s": median(s.reply.mean_time_s for s in g),
                    "native_s": native[group],
                    "variants": sorted({(s.reply.variant, s.reply.migrated) for s in g})}
            for group, g in sorted(groups.items())
        },
        "probe": {c.label: c.ratio for c in cells},
        "setup_runs_s": setups,
        "server_counters": server_stats.get("counters", {}),
    }
    n = len(good)
    window_p95s = windowed_p95(good, strict=not counts.failed)
    details["window_p95_s"] = window_p95s
    # Each group (request shape) is an equal share of the traffic; one
    # median over the mix would sit in the gap between two shapes.
    group_p50 = [median(s.latency for s in g) for g in groups.values()]
    # Measured on every run, bounded nowhere: see the README, *Steadiness*.
    unbounded = {
        "latency_p50_s": Metric(float(np.mean(group_p50)) if group_p50 else 0.0, "s", n),
        "latency_p95_s": Metric(min(window_p95s), "s", n),
        "throughput_rps": Metric(completed / closed_elapsed, "1/s", completed),
    }
    if args.trace:
        metrics = layer_metrics(ws, samples, before, server_stats, cells, native, open_ops,
                                args.seed)
        metrics["engine.shm_held_per_request"] = Metric(shm_held, "count", len(samples))
        return RunResult(counts, {**metrics, **unbounded}, details, spans)

    forward, backward = ratios(cells, "forward"), ratios(cells, "backward")
    metrics = {
        **unbounded,
        "slo_attainment": Metric(sum(s.latency <= ws.slo_s for s in good) / len(samples),
                                 "share", len(samples)),
        "setup_s": Metric(median(setups), "s", len(setups)),
        "spmm_native_ratio": Metric(geomean(forward), "ratio", len(forward)),
        "backward_native_ratio": Metric(geomean(backward), "ratio", len(backward)),
    }
    return RunResult(counts, metrics, details)


def windowed_p95(samples: list[Sample], strict: bool) -> list[float]:
    """The p95 of each run of consecutive requests, in due order.

    Windows hold at least :data:`MIN_OPEN_REQUESTS` requests, so each p95
    keeps ten samples beyond it: at 45 s ``serve_hot`` has one window,
    ``serve_cold_proc`` five.  ``latency_p95_s`` is the lowest.  On a
    shared host, bursts of CPU steal slowed 17% of one cold run's requests
    (a calm run: under 5%), in clusters of a few seconds; a p95 over the
    whole run, or the median of three windows, read ~8 ms in some runs and
    ~13 ms in others (spread 43% over ten seeds), following the bursts,
    not the server.  The bursts still count in ``slo_attainment``.  With
    ``strict`` false (failed requests left the run short) the tail rule is
    not enforced.
    """
    latencies = [s.latency for s in sorted(samples, key=lambda s: s.due)]
    windows = np.array_split(np.array(latencies), max(1, len(latencies) // MIN_OPEN_REQUESTS))
    if not strict:
        return [percentile(w, 95) for w in windows]
    return [p95_with_tail(w) for w in windows]


# -- per-layer metrics (traced run) ------------------------------------------------


def wire_replay(ops: list[Op], repeats: int = 3) -> tuple[dict, dict]:
    """Time the wire functions on this run's own request and reply payloads.

    Returns the mean per replayed request of each wire time and size, and
    per request group the mean of the four wire times summed.

    The request is built as ``Client.multiply`` builds it, the reply as the
    server does, with the reference standing in for the output (same
    dtype and shape, so the same bytes).
    """
    from repro.serve.wire import (
        PROTOCOL_VERSION,
        decode_array,
        decode_matrix,
        decode_message,
        encode_array,
        encode_matrix,
        encode_message,
    )

    rows = {key: [] for key in ("enc_req", "dec_req", "enc_rep", "dec_rep", "req_b", "rep_b")}
    by_group: dict[str, list[float]] = {}
    for op in ops:
        req = op.request()
        message = {
            "v": PROTOCOL_VERSION, "op": "multiply", "id": "0" * 12,
            "tenant": "default", "priority": "normal",
            "req": {**req, "variant": "serial", "threads": 1, "repeats": 1, "verify": False},
        }
        reply = {
            "v": PROTOCOL_VERSION, "id": "0" * 12, "ok": True,
            "result": {"fingerprint": "0" * 32, "variant": "serial",
                       "plan_provenance": "memory", "queue_wait_s": 0.0,
                       "mean_time_s": 0.0, "latency_s": 0.0, "verified": None,
                       "tenant": "default", "priority": "normal", "migrated": False},
        }
        times = {key: [] for key in ("enc_req", "dec_req", "enc_rep", "dec_rep")}
        for _ in range(repeats):
            t0 = time.perf_counter()
            message["req"]["matrix"] = encode_matrix(req["matrix"])
            line = encode_message(message)
            t1 = time.perf_counter()
            decode_matrix(decode_message(line)["req"]["matrix"])
            t2 = time.perf_counter()
            reply["result"]["output"] = encode_array(op.reference)
            reply_line = encode_message(reply)
            t3 = time.perf_counter()
            decode_array(decode_message(reply_line)["result"]["output"])
            t4 = time.perf_counter()
            for key, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                times[key].append(dt)
        for key, values in times.items():
            rows[key].append(median(values))
        rows["req_b"].append(len(line))
        rows["rep_b"].append(len(reply_line))
        by_group.setdefault(op.group, []).append(sum(median(v) for v in times.values()))
    return ({key: float(np.mean(values)) for key, values in rows.items()},
            {group: float(np.mean(values)) for group, values in by_group.items()})


def format_replay(matrices: list, repeats: int = 3) -> dict:
    """Per format: median ``from_triplets`` seconds, stored entries per nnz, count."""
    from repro.formats.registry import get_format

    out = {}
    for fmt in ("coo", "csr", "ell", "bcsr", "sell"):
        seconds, stored = [], []
        for triplets in matrices:
            if fmt == "ell" and triplets.row_counts().max() * triplets.nrows > 8 * triplets.nnz:
                # Padding every row to the longest would store over 8x the
                # nonzeros (torso1): seconds and hundreds of MB per build.
                continue
            runs = [timed(get_format(fmt).from_triplets, triplets) for _ in range(repeats)]
            seconds.append(median(t for _a, t in runs))
            stored.append(runs[0][0].padding_ratio)
        out[fmt] = (median(seconds), float(np.mean(stored)), len(seconds))
    return out


def timed_loads(ws: ServeWorkload, seed: int) -> list[tuple[object, float]]:
    """``(triplets, seconds)`` of making the workload's matrices from scratch.

    Hot: uncached suite builds; cold: the one-shot generator.
    """
    from repro.matrices.suite import DL_SUITE, SUITE

    if ws.name != "serve_hot":
        return [timed(cold_matrix, seed, COLD_STREAMS["open"], i) for i in range(16)]
    seen = dict.fromkeys((name, scale) for name, scale, _k in HOT_SHAPES)
    return [timed((SUITE.get(name) or DL_SUITE.get(name)).build, scale=scale)
            for name, scale in seen]


def bytes_computed(samples: list[Sample]) -> float:
    """Mean computed bytes per request: stored A + dense B read + C written."""
    from repro.formats.registry import get_format

    sizes: dict[int, int] = {}
    for s in samples:
        if id(s.op) not in sizes:
            triplets = op_triplets(s.op)
            A = get_format(s.op.fmt).from_triplets(triplets)
            sizes[id(s.op)] = A.nbytes + 8 * s.op.k * (triplets.ncols + triplets.nrows)
    return float(np.mean([sizes[id(s.op)] for s in samples]))


def layer_metrics(ws, samples, before, server_stats, cells, native, open_ops,
                  seed) -> dict[str, Metric]:
    from repro.kernels.plan import matrix_fingerprint

    good = [s for s in samples if s.correct]
    n = len(good)
    after = server_stats["counters"]

    def per(name, per_name):
        """Counter growth over the open loop, per unit of another counter."""
        d = after.get(per_name, 0.0) - before.get(per_name, 0.0)
        return (after.get(name, 0.0) - before.get(name, 0.0)) / d if d else 0.0

    m: dict[str, Metric] = {}
    replay_ops = (list({op.group: op for op in open_ops}.values())
                  if ws.name == "serve_hot" else open_ops[:16])
    wire, wire_by_group = wire_replay(replay_ops)
    k = len(replay_ops)
    m["serve.server_latency_p50_s"] = Metric(median(s.reply.latency_s for s in good), "s", n)
    m["serve.outside_server_p50_s"] = Metric(
        median(s.roundtrip - s.reply.latency_s for s in good), "s", n)
    m["serve.wire.reply_bytes"] = Metric(wire["rep_b"], "bytes", k)
    m["serve.wire.request_bytes"] = Metric(wire["req_b"], "bytes", k)
    m["serve.wire.encode_reply_s"] = Metric(wire["enc_rep"], "s", k)
    m["serve.wire.decode_reply_s"] = Metric(wire["dec_rep"], "s", k)
    m["serve.wire.encode_request_s"] = Metric(wire["enc_req"], "s", k)
    m["serve.wire.decode_request_s"] = Metric(wire["dec_req"], "s", k)
    depth = server_stats.get("queue_depth_summary", {})
    m["serve.queue_depth_p95"] = Metric(float(depth.get("p95", 0.0)), "count",
                                        int(depth.get("samples", 0)))
    # Per request, the share of the round trip that neither the server's own
    # latency nor the wire replays of its group account for.
    m["serve.unattributed_share"] = Metric(median(
        (s.roundtrip - s.reply.latency_s - wire_by_group[s.op.group]) / s.roundtrip
        for s in good), "share", n)

    completed = int(after.get("engine_completed", 0) - before.get("engine_completed", 0))
    tasks = int(after.get("engine_backend_remote_tasks", 0)
                - before.get("engine_backend_remote_tasks", 0))
    m["engine.queue_wait_p50_s"] = Metric(median(s.reply.queue_wait_s for s in good), "s", n)
    m["engine.plan_hit_share"] = Metric(
        sum(s.reply.plan_provenance in ("memory", "shared", "disk") for s in good) / n,
        "share", n)
    m["engine.plan_s"] = Metric(per("engine_plan_s", "engine_completed"), "s", completed)
    m["engine.execute_s"] = Metric(per("engine_execute_s", "engine_completed"), "s", completed)
    m["engine.migrated_share"] = Metric(sum(s.reply.migrated for s in good) / n, "share", n)
    m["engine.migration_swaps"] = Metric(after.get("migration_completed", 0.0), "count", 1)
    fp_times = [median(timed(matrix_fingerprint, op_triplets(op))[1] for _ in range(3))
                for op in replay_ops]
    m["engine.fingerprint_s"] = Metric(median(fp_times), "s", k)
    m["engine.backend_remote_s"] = Metric(
        per("engine_backend_remote_s", "engine_backend_remote_tasks"), "s", tasks)
    m["engine.shm_bytes"] = Metric(per("shm_bytes_shipped", "engine_backend_remote_tasks"),
                                   "bytes", tasks)

    m["kernels.time_p50_s"] = Metric(median(s.reply.mean_time_s for s in good), "s", n)
    for fmt in ("coo", "csr", "ell", "bcsr", "sell"):
        # Requests use the client's default variant, serial: served kernel
        # time over scipy's time for the same shape.
        group = [s for s in good if s.op.fmt == fmt]
        served = [s.reply.mean_time_s / native[s.op.group] for s in group]
        mflops = [s.op.flops / s.reply.mean_time_s / 1e6 for s in group]
        m[f"kernels.{fmt}.serial.native_ratio"] = Metric(
            median(served) if group else 0.0, "ratio", len(group))
        m[f"kernels.{fmt}.serial.mflops"] = Metric(
            median(mflops) if group else 0.0, "MFLOPS", len(group))
        m[f"kernels.{fmt}.parallel.native_ratio"] = Metric(0.0, "ratio", 0)
        m[f"kernels.{fmt}.parallel.mflops"] = Metric(0.0, "MFLOPS", 0)
    for fmt in BACKWARD_FORMATS:
        values = [c.ratio for c in cells if c.kind == "backward" and c.fmt == fmt]
        m[f"kernels.backward.{fmt}.native_ratio"] = Metric(
            median(values) if values else 0.0, "ratio", len(values))
    m["kernels.parallel_speedup"] = Metric(0.0, "ratio", 0)
    m["kernels.flops"] = Metric(float(np.mean([s.op.flops for s in good])), "flop", n)
    m["kernels.bytes_computed"] = Metric(bytes_computed(good), "bytes", n)

    loads = timed_loads(ws, seed)
    for fmt, (seconds, stored, count) in format_replay([t for t, _s in loads]).items():
        m[f"formats.{fmt}.convert_s"] = Metric(seconds, "s", count)
        m[f"formats.{fmt}.stored_per_nnz"] = Metric(stored, "ratio", count)
    m["matrices.load_s"] = Metric(median(s for _t, s in loads), "s", len(loads))

    m["loadgen.late_p95_s"] = Metric(percentile([s.own_lag for s in samples], 95), "s",
                                     len(samples))
    # Traced over untraced p50, per request group so the mix cannot bias it.
    shares = []
    for group in {s.op.group for s in good}:
        traced = [s.latency for s in good if s.op.group == group and s.traced]
        untraced = [s.latency for s in good if s.op.group == group and not s.traced]
        if traced and untraced:
            shares.append(median(traced) / median(untraced) - 1.0)
    m["trace_overhead_share"] = Metric(median(shares), "share", n)
    return m
