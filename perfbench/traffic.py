"""Requests, connections, and the open- and closed-loop load generators.

The open loop times each request from its *due* time, ``t0 + i / rate``,
to its decoded reply.  ``repro.serve.loadgen`` times from the actual send
instead, which hides the wait a stall imposes on the requests queued
behind it, so its latencies are not reused here.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from common import Counts, RunInvalid, within_tolerance

#: Seconds a client waits for one reply before the request counts as failed.
CLIENT_TIMEOUT_S = 20.0


@dataclass
class Op:
    """One request the run may send, with its reference answer."""

    group: str
    fmt: str
    k: int
    scale: int
    #: The request's ``seed``: the server generates the dense operand from it.
    dense_seed: int
    reference: np.ndarray
    nnz: int
    #: Suite name, or a zero-argument function regenerating the triplets.
    matrix: "str | Callable"

    def request(self) -> dict:
        matrix = self.matrix if isinstance(self.matrix, str) else self.matrix()
        return {"matrix": matrix, "fmt": self.fmt, "k": self.k, "scale": self.scale,
                "seed": self.dense_seed}

    @property
    def flops(self) -> int:
        return 2 * self.nnz * self.k


@dataclass
class Sample:
    op: Op
    due: float
    started: float
    done: float
    #: Start delay beyond both the due time and the moment the connection
    #: was free: the generator's own lateness.
    own_lag: float
    reply: object
    correct: bool
    traced: bool

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def roundtrip(self) -> float:
        return self.done - self.started


class Connection:
    """A client connection that reconnects after a transport failure.

    Every call is checked against the op's reference after the clock has
    stopped; a wrong output, a reject, a remote error or a timeout counts
    as a failed operation.
    """

    def __init__(self, port: int, counts: Counts, lock: threading.Lock):
        self.port = port
        self.counts = counts
        self.lock = lock
        self.client = None

    def call(self, op: Op, request: dict | None = None):
        """``(reply, decoded_at, correct)``; reply is None when the call failed.

        ``request`` is ``op.request()`` made ahead of time, so generating a
        one-shot matrix stays out of a timed interval.
        """
        from repro.errors import ServeError, ServeRejectedError, ServeRemoteError
        from repro.serve import Client

        if request is None:
            request = op.request()
        try:
            if self.client is None:
                self.client = Client(port=self.port, timeout=CLIENT_TIMEOUT_S)
            reply = self.client.multiply(**request)
        except ServeRejectedError as exc:
            return self._failed(f"rejected_{exc.code}")
        except ServeRemoteError:
            return self._failed("remote_error")
        except ServeError:
            self.close()
            return self._failed("transport_or_timeout")
        done = time.perf_counter()
        correct = within_tolerance(reply.output, op.reference)
        with self.lock:
            if correct:
                self.counts.ok()
            else:
                self.counts.fail("wrong_output")
        return reply, done, correct

    def _failed(self, reason: str):
        with self.lock:
            self.counts.fail(reason)
        return None, time.perf_counter(), False

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


def _run_threads(target, n: int) -> None:
    threads = [threading.Thread(target=target, name=f"perfbench-conn-{j}") for j in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(port, ops, rate, connections, counts, traced) -> tuple[list[Sample], list]:
    """Send ``ops[i]`` at ``t0 + i / rate`` over ``connections`` threads.

    ``traced[i]`` puts request ``i`` inside a span; an empty list traces
    nothing.  Returns the samples and the spans.
    """
    from repro.bench.observe import Tracer

    lock = threading.Lock()
    samples: list[Sample] = []
    tracers: list[Tracer] = []
    next_index = [0]
    t0 = time.perf_counter() + 0.05

    def worker():
        tracer = Tracer()  # a Tracer's span stack belongs to one thread
        with lock:
            tracers.append(tracer)
        conn = Connection(port, counts, lock)
        try:
            while True:
                free = time.perf_counter()
                with lock:
                    i = next_index[0]
                    next_index[0] += 1
                if i >= len(ops):
                    return
                request = ops[i].request()
                due = t0 + i / rate
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                started = time.perf_counter()
                in_span = bool(traced) and traced[i]
                if in_span:
                    with tracer.span("serve.client.multiply", request=i, group=ops[i].group):
                        reply, done, correct = conn.call(ops[i], request)
                else:
                    reply, done, correct = conn.call(ops[i], request)
                sample = Sample(ops[i], due, started, done, started - max(due, free),
                                reply, correct, in_span)
                with lock:
                    samples.append(sample)
        finally:
            conn.close()

    _run_threads(worker, connections)
    return samples, [span for tracer in tracers for span in tracer.spans]


def closed_loop(port, ops: list[Op], seconds: float, connections: int,
                counts) -> tuple[int, float]:
    """Correct replies over back-to-back clients, and the seconds they took.

    Runs for ``seconds``; running out of ``ops`` first makes the run
    invalid, since its window would depend on the host's speed.
    """
    lock = threading.Lock()
    next_index = [0]
    completed = [0]
    start = time.perf_counter()
    stop_at = start + seconds

    def worker():
        conn = Connection(port, counts, lock)
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    i = next_index[0]
                    next_index[0] += 1
                if i >= len(ops):
                    return
                _reply, _done, correct = conn.call(ops[i], ops[i].request())
                if correct:
                    with lock:
                        completed[0] += 1
        finally:
            conn.close()

    _run_threads(worker, connections)
    if next_index[0] > len(ops):
        raise RunInvalid(f"closed loop used all {len(ops)} prepared requests "
                         f"before its {seconds:.1f} s were up")
    return completed[0], time.perf_counter() - start
