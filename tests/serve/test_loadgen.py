"""Load-generator and regression-gate tests."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import BenchConfigError
from repro.serve import LoadGenSpec, Server, run_loadgen
from repro.serve import loadgen as loadgen_module
from repro.serve.loadgen import loadgen_trajectory
from repro.serve.metrics import DepthTracker, LatencyRecorder, percentile
from repro.serve.trajectory import (
    build_serve_trajectory,
    gate_serve_trajectory,
    load_serve_baseline,
)


class TestMetrics:
    def test_percentiles_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 96.0
        assert percentile(samples, 99) == 100.0
        assert percentile(samples, 100) == 100.0
        assert percentile(samples, 0) == 1.0
        assert percentile([], 50) == 0.0

    def test_recorder_reservoir_bounds_memory(self):
        rec = LatencyRecorder(capacity=100, seed=0)
        for i in range(1000):
            rec.record(float(i))
        summary = rec.summary()
        assert summary["count"] == 1000
        assert len(rec._samples) == 100
        assert summary["max_s"] == 999.0
        assert summary["mean_s"] == pytest.approx(499.5)

    def test_depth_tracker_peak(self):
        depth = DepthTracker()
        for _ in range(5):
            depth.adjust(+1)
        depth.adjust(-2)
        assert depth.depth == 3
        assert depth.summary()["max"] == 5


class TestSpecValidation:
    def test_rejects_bad_mix(self):
        with pytest.raises(BenchConfigError):
            LoadGenSpec(mix=1.5)

    def test_rejects_bad_rps(self):
        with pytest.raises(BenchConfigError):
            LoadGenSpec(rps=0)

    def test_rejects_unknown_priority(self):
        with pytest.raises(BenchConfigError):
            LoadGenSpec(priorities=("urgent",))

    def test_total_requests(self):
        assert LoadGenSpec(rps=10, duration_s=2.0).total_requests == 20


class TestLoadGen:
    def test_sustains_mix_and_builds_gateable_trajectory(self):
        srv = Server(backend="thread", workers=2)
        srv.start()
        try:
            spec = LoadGenSpec(rps=25, duration_s=1.2, mix=0.7,
                               connections=2, cold_side=64, k=4)
            report = run_loadgen("127.0.0.1", srv.port, spec)
            assert report.sent == spec.total_requests
            assert report.completed >= 1
            assert report.hot_sent + report.cold_sent == report.completed
            # Hot requests re-use the suite matrix: plans must be shared.
            assert report.hot_plan_hits >= report.hot_sent - 1
            assert report.server_stats["counters"]["serve_admitted"] >= report.completed
        finally:
            srv.stop()
        trajectory = loadgen_trajectory(report)
        assert trajectory["accounting"]["balanced"]
        assert trajectory["rps"]["offered"] == 25
        assert trajectory["client"]["completed"] == report.completed
        regressed, messages = gate_serve_trajectory(
            trajectory, {"p99_s": 60.0, "rps": 1.0}
        )
        assert not regressed, messages

    def test_priority_classes_cycle(self):
        srv = Server(backend="thread", workers=2)
        srv.start()
        try:
            spec = LoadGenSpec(rps=20, duration_s=1.0, mix=1.0, connections=2,
                               priorities=("interactive", "batch"))
            report = run_loadgen("127.0.0.1", srv.port, spec)
            counters = report.server_stats["counters"]
            assert counters["serve_admitted_interactive"] >= 1
            assert counters["serve_admitted_batch"] >= 1
        finally:
            srv.stop()


class _StallingClient:
    """Stands in for ``Client``: the first multiply stalls, the rest are instant."""

    STALL_S = 0.4
    calls = 0
    lock = threading.Lock()

    def __init__(self, host, port, tenant="default"):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def multiply(self, matrix, **kwargs):
        with self.lock:
            first = _StallingClient.calls == 0
            _StallingClient.calls += 1
        if first:
            time.sleep(self.STALL_S)
        return SimpleNamespace(plan_provenance="memory", migrated=False, mean_time_s=None)

    def stats(self):
        return {}


class TestOpenLoopLatency:
    def test_stall_shows_in_requests_queued_behind_it(self, monkeypatch):
        """Latency runs from the due time: on one connection, requests due
        during a 0.4 s stall wait for it, and that wait is their latency."""
        monkeypatch.setattr(loadgen_module, "Client", _StallingClient)
        monkeypatch.setattr(_StallingClient, "calls", 0)
        spec = LoadGenSpec(rps=20, duration_s=0.5, mix=1.0, connections=1)
        report = run_loadgen("127.0.0.1", 0, spec)
        assert report.completed == spec.total_requests == 10
        samples = sorted(report.latency._samples, reverse=True)
        # Request i (due at i * 50 ms) waits out the stall until ~400 ms.
        assert samples[0] >= 0.9 * _StallingClient.STALL_S
        assert sum(s >= 0.1 for s in samples) >= 5
        assert report.behind_schedule_s > 0.5


class TestGate:
    def _trajectory(self, **overrides):
        from repro.bench.observe import Tracer

        tracer = Tracer()
        tracer.count("serve_admitted", 10)
        tracer.count("serve_completed", 10)
        latency = LatencyRecorder()
        for ms in (1, 2, 3, 4, 5):
            latency.record(ms / 1e3)
        trajectory = build_serve_trajectory(
            config={}, tracer=tracer, latency=latency,
            queue_depth=DepthTracker(), elapsed_s=1.0,
            rps={"achieved": 10.0},
        )
        trajectory.update(overrides)
        return trajectory

    def test_p99_regression_trips(self):
        trajectory = self._trajectory()
        regressed, messages = gate_serve_trajectory(
            trajectory, {"p99_s": 0.001}, tolerance=0.5
        )
        assert regressed
        assert any("p99" in m for m in messages)

    def test_rps_shortfall_trips(self):
        trajectory = self._trajectory()
        regressed, messages = gate_serve_trajectory(
            trajectory, {"p99_s": 1.0, "rps": 100.0}, rps_tolerance=0.1
        )
        assert regressed
        assert any("RPS" in m for m in messages)

    def test_accounting_imbalance_always_trips(self):
        trajectory = self._trajectory()
        trajectory["accounting"]["balanced"] = False
        regressed, messages = gate_serve_trajectory(trajectory, {"p99_s": 60.0})
        assert regressed
        assert any("imbalance" in m for m in messages)

    def test_within_gate_passes(self):
        trajectory = self._trajectory()
        regressed, _ = gate_serve_trajectory(
            trajectory, {"p99_s": 0.005, "rps": 10.0},
            tolerance=1.0, rps_tolerance=0.25,
        )
        assert not regressed

    def test_baseline_loader_validates(self, tmp_path):
        path = tmp_path / "baseline.json"
        with pytest.raises(BenchConfigError):
            load_serve_baseline(path)
        path.write_text('{"rps": 5}')
        with pytest.raises(BenchConfigError):
            load_serve_baseline(path)
        path.write_text('{"p99_s": 0.1, "rps": 5}')
        assert load_serve_baseline(path)["p99_s"] == 0.1
