"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload serve_hot --seed 0 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Exit
codes: 0 measured (check ``correct``), 2 cannot run here (no package
sources, no scipy), 3 the run was invalid and reports nothing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("serve_hot", "serve_cold_proc", "local_kernels")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="none", choices=("none", "kernel", "convert"),
                        help="self-check only: make one layer twice as slow")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an error, so the servers of a run are stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no package sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import scipy  # noqa: F401  - the native reference; no fallback
    except ImportError:
        print("error: scipy is required as the native reference", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    import local
    import serving
    from common import RunInvalid, emit

    if args.inject != "none":
        from inject import install

        install(args.inject)
    module = local if args.workload == "local_kernels" else serving
    try:
        result = module.run(ROOT, args)
        line = emit(ROOT, args, result, expected)
    except RunInvalid as exc:
        print(f"run invalid: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
