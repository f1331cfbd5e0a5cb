"""Shared pieces of the benchmark: statistics, checks, provenance, output.

Everything here is workload-agnostic.  The workload modules
(:mod:`serving`, :mod:`local`) produce a :class:`RunResult`; :func:`emit`
prints the human-readable table, the provenance line, and the final
one-line JSON object the benchmark contract asks for.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Where runs leave their full records, traces and server trajectories
#: (relative to the checkout root; ignored by git).
OUT_DIR = ".perfbench_out"

#: Samples a percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10


class RunInvalid(Exception):
    """The run cannot produce trustworthy numbers; nothing is reported."""


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, the rule the serving layer reports with."""
    from repro.serve.metrics import percentile as nearest_rank

    return float(nearest_rank(list(values), q))


def p95_with_tail(values) -> float:
    """The p95, refusing sample sets that leave fewer than ten beyond it."""
    values = list(values)
    beyond = len(values) - int(np.ceil(0.95 * len(values)))
    if beyond < TAIL_SAMPLES:
        raise RunInvalid(
            f"p95 over {len(values)} samples leaves {beyond} beyond it; "
            f"need {TAIL_SAMPLES}"
        )
    return percentile(values, 95)


def within_tolerance(output: np.ndarray, reference: np.ndarray) -> bool:
    """The repository's verification rule: max abs error within the band."""
    from repro.verify.reference import result_tolerance

    if output.shape != reference.shape:
        return False
    return bool(np.abs(output - reference).max() <= result_tolerance(reference))


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call, timed with ``perf_counter``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@dataclass
class Counts:
    """Operations attempted and failed, plus why the failures happened."""

    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, attempted: bool = True) -> None:
        """Record one failure; ``attempted=False`` for run-level checks."""
        if attempted:
            self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class RunResult:
    counts: Counts
    metrics: dict[str, Metric]
    details: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def source_digest(root: Path) -> str:
    """sha256 over the package sources: identifies the code outside git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, args) -> dict:
    import scipy

    from repro.bench.observe import git_sha

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject": args.inject,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(cwd=root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_stem(args) -> str:
    """File-name stem of one run's outputs under :data:`OUT_DIR`."""
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    return stem if args.inject == "none" else f"{stem}_inject-{args.inject}"


def emit(root: Path, args, result: RunResult, expected: list[str]) -> dict:
    """Print the table and provenance, write the full record, return the line."""
    missing = sorted(set(expected) - set(result.metrics))
    if result.counts.attempted < 1:
        raise RunInvalid("no operation was attempted")
    if missing:
        raise RunInvalid(f"metrics not produced: {', '.join(missing)}")
    prov = provenance(root, args)
    prov.update(result.details.pop("provenance", {}))
    print(f"{'metric':<40} {'value':>14} {'unit':<8} samples")
    for name in expected + sorted(set(result.metrics) - set(expected)):
        m = result.metrics[name]
        print(f"{name:<40} {m.value:>14.6g} {m.unit:<8} {m.samples}")
    if result.counts.reasons:
        print("failures: " + json.dumps(result.counts.reasons, sort_keys=True))
    print("provenance: " + json.dumps(prov, sort_keys=True))

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = run_stem(args)
    record = {
        "provenance": prov,
        "attempted": result.counts.attempted,
        "failed": result.counts.failed,
        "failures": result.counts.reasons,
        "metrics": {
            name: {"value": m.value, "unit": m.unit, "samples": m.samples}
            for name, m in result.metrics.items()
        },
        "details": result.details,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    if result.spans:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for span in result.spans:
                fh.write(json.dumps(span.to_dict(), default=str) + "\n")

    return {
        "correct": result.counts.failed == 0,
        "attempted": result.counts.attempted,
        "failed": result.counts.failed,
        "metrics": {
            name: {"value": result.metrics[name].value, "unit": result.metrics[name].unit}
            for name in expected
        },
    }
