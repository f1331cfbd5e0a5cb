"""Process-backend shared memory stays bounded under one-shot matrices.

Every matrix a process-backend engine ships is published as three shared
memory segments.  A serving workload streams one-shot matrices through,
so the engine keeps at most ``SHM_MATRIX_CAPACITY`` of them (LRU), never
unlinks a segment an in-flight task still maps, and unlinks the rest on
``close()``.
"""

import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.bench.observe import Tracer
from repro.engine import Engine, SpmmRequest
from repro.engine.backends.shm import live_segments

from ..conftest import make_random_triplets

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method",
)
_SHM_DIR = Path("/dev/shm")
CAP = 4


def _shm_count() -> int:
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return len(live_segments())
    return len(os.listdir(_SHM_DIR))


def _one_shot(seed: int) -> SpmmRequest:
    t = make_random_triplets(12, 10, density=0.3, seed=seed)
    return SpmmRequest(matrix=t, fmt="csr", k=3, repeats=1, verify=True)


@needs_fork
def test_one_shot_matrices_keep_shm_bounded():
    tracer = Tracer()
    before = _shm_count()
    engine = Engine(workers=1, backend="process", tracer=tracer)
    engine.SHM_MATRIX_CAPACITY = CAP
    peak = 0
    try:
        for seed in range(300):
            result = engine.run(_one_shot(seed))
            assert result.verified
            peak = max(peak, _shm_count() - before)
            assert len(engine._shm_matrices) <= CAP
    finally:
        engine.close()
    assert peak <= CAP * 3
    assert tracer.counters["shm_matrix_evicted"] == 300 - CAP
    assert _shm_count() == before
    assert not live_segments()


@needs_fork
def test_repeated_matrix_is_reused_not_republished():
    tracer = Tracer()
    request = _one_shot(0)
    with Engine(workers=1, backend="process", tracer=tracer) as engine:
        engine.SHM_MATRIX_CAPACITY = CAP
        outputs = [engine.run(request).output for _ in range(3)]
    assert tracer.counters["shm_matrix_reused"] == 2
    assert "shm_matrix_evicted" not in tracer.counters
    for out in outputs[1:]:
        assert np.array_equal(out, outputs[0])


def test_eviction_waits_for_in_flight_pins():
    """An evicted entry a task still maps is unlinked only on release."""
    engine = Engine(workers=1, backend="thread")
    engine.SHM_MATRIX_CAPACITY = 1
    try:
        first_t = make_random_triplets(6, 6, density=0.5, seed=1)
        first = engine._shared_matrix("a", first_t)  # pinned, as by a task
        names = [seg.spec.name for seg in first.segments]
        released = engine._shared_matrix("b", make_random_triplets(6, 6, density=0.5, seed=2))
        engine._release_shared_matrix(released)
        # "a" left the table but its segments survive while pinned.
        assert "a" not in engine._shm_matrices
        assert set(names) <= set(live_segments())
        worker = threading.Thread(target=engine._release_shared_matrix, args=(first,))
        worker.start()
        worker.join()
        assert not set(names) & set(live_segments())
    finally:
        engine.close()
    assert not live_segments()


def test_concurrent_pins_never_lose_a_mapped_segment():
    """Eight threads (more than cores) pin and release six matrices through
    a two-entry LRU with a tiny switch interval: a lost pin update would
    unlink a segment some thread still maps, or leak one past close()."""
    import sys

    engine = Engine(workers=1, backend="thread")
    engine.SHM_MATRIX_CAPACITY = 2
    matrices = [make_random_triplets(5, 5, density=0.6, seed=s) for s in range(6)]
    errors = []

    def worker(offset):
        try:
            for i in range(60):
                j = (i + offset) % len(matrices)
                entry = engine._shared_matrix(f"m{j}", matrices[j])
                names = {seg.spec.name for seg in entry.segments}
                if not names <= set(live_segments()):
                    errors.append(f"pinned m{j} lost a segment")
                engine._release_shared_matrix(entry)
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        engine.close()
    assert not errors, errors[:3]
    assert not live_segments()
