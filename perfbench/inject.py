"""Injected slowdowns for the benchmark's self-check.

Each slowdown wraps public layer functions so every call takes twice its
own time (the wrapper sleeps for as long as the call took).  Nothing in
``src/`` changes; the wrappers are installed in the benchmark process by
``run.py --inject KIND`` and in the server process by launching it
through this file::

    python perfbench/inject.py KIND serve --listen 127.0.0.1:0 ...

which installs the slowdown and then runs the ``spmm-bench`` CLI.  The
process backend forks its workers from the server process, so they
inherit the wrappers.

Kinds:

* ``kernel`` — every SpMM kernel call: ``kernels.dispatch.run_spmm``
  (also where ``repro.api`` and the engine imported it) and
  ``ExecutionPlan.__call__``, the plan-cached route the engine takes
  instead of ``run_spmm``.
* ``convert`` — format conversion: ``from_triplets`` of every registered
  format class.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

KINDS = ("kernel", "convert")


def _doubled(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            time.sleep(time.perf_counter() - t0)

    return wrapper


def _install_kernel() -> None:
    from repro.kernels import dispatch
    from repro.kernels.plan import ExecutionPlan

    original = dispatch.run_spmm
    slow = _doubled(original)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "run_spmm", None) is original:
            module.run_spmm = slow
    ExecutionPlan.__call__ = _doubled(ExecutionPlan.__call__)


def _install_convert() -> None:
    from repro.formats.registry import iter_formats

    for _name, cls in iter_formats():
        # ``from_triplets`` is a classmethod: wrap the underlying function so
        # subclasses calling ``super()`` keep binding the right class.
        original = cls.__dict__.get("from_triplets")
        if isinstance(original, classmethod):
            cls.from_triplets = classmethod(_doubled(original.__func__))


def install(kind: str) -> None:
    """Install one slowdown in this process (importing the package first)."""
    import repro.api  # noqa: F401  - bind every module that re-exports run_spmm
    import repro.engine  # noqa: F401
    import repro.serve  # noqa: F401

    if kind == "kernel":
        _install_kernel()
    elif kind == "convert":
        _install_convert()
    else:
        raise ValueError(f"unknown slowdown {kind!r}; known: {', '.join(KINDS)}")


def main(argv: list[str]) -> int:
    """``inject.py KIND CLI-ARGS...``: slow one layer, then run the CLI."""
    if len(argv) < 2 or argv[0] not in KINDS:
        print(f"usage: inject.py {{{','.join(KINDS)}}} CLI-ARGS...", file=sys.stderr)
        return 2
    install(argv[0])
    from repro.cli import main as cli_main

    return cli_main(argv[1:])


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
