"""Self-checks of the benchmark itself.

The injected-slowdown checks run the benchmark with one layer made twice
as slow (see ``inject.py``).  For each of three seeds the unmodified and
the slowed tree run back to back, in alternating order, so both runs of a
pair see the same phase of a shared host; a metric's change is the median
over the pairs of slowed over unmodified.  A slowdown must move the metric
the layer table predicts past its ``BENCHMARK.json`` bound, and a format
conversion slowdown must leave ``serve_hot`` inside all its bounds.  They
take about 25 minutes::

    python3 -m pytest perfbench/test_selfcheck.py

This file is not part of the repository's tier-1 suite (``testpaths`` is
``tests``).
"""

from __future__ import annotations

import functools
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
SEEDS = (101, 102, 103)


def run(workload: str, inject: str, seed: int) -> dict[str, float]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
           "--inject", inject]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0, line
    return {name: m["value"] for name, m in line["metrics"].items()}


@functools.cache
def pairs(workload: str, inject: str) -> list[tuple[dict, dict]]:
    """``(unmodified, slowed)`` metrics per seed, each pair run back to back."""
    out = []
    for i, seed in enumerate(SEEDS):
        sides = ("none", inject) if i % 2 == 0 else (inject, "none")
        runs = {side: run(workload, side, seed) for side in sides}
        out.append((runs["none"], runs[inject]))
    return out


def worsening(workload: str, inject: str, metric: str) -> float:
    """Median over the pairs of the share by which the metric got worse."""
    change = statistics.median(slow[metric] / base[metric] - 1.0
                               for base, slow in pairs(workload, inject))
    return change if METRICS[metric]["better"] == "lower" else -change


def past_bound(workload: str, inject: str, metric: str) -> bool:
    return worsening(workload, inject, metric) > METRICS[metric]["bound"]


def describe(workload: str, inject: str, metric: str) -> str:
    runs = ", ".join(f"{base[metric]:.4g} -> {slow[metric]:.4g}"
                     for base, slow in pairs(workload, inject))
    return (f"{workload} {metric} with a 2x {inject} slowdown: {runs}; "
            f"worse by {worsening(workload, inject, metric):+.1%} (median), "
            f"bound {METRICS[metric]['bound']:.0%}")


def inside(workload: str, inject: str, metric: str):
    """A test parameter asserting the metric stays inside its bound."""
    return pytest.param(workload, inject, metric, id=f"{workload}-{inject}-{metric}")


@pytest.mark.parametrize("workload, inject, metric", [
    ("local_kernels", "kernel", "spmm_native_ratio"),
    ("serve_hot", "kernel", "spmm_native_ratio"),
    ("local_kernels", "convert", "setup_s"),
])
def test_slowdown_moves_predicted_metric(workload, inject, metric):
    assert past_bound(workload, inject, metric), describe(workload, inject, metric)


@pytest.mark.parametrize("workload, inject, metric", [
    *(inside("serve_hot", "convert", m) for m in METRICS),
])
def test_slowdown_leaves_other_serve_workload_inside(workload, inject, metric):
    assert not past_bound(workload, inject, metric), describe(workload, inject, metric)


def test_refuses_to_run_without_package_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, nonzero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_hot", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
