"""Benchmark parameters — the suite's command-line surface (paper §4.3).

"We currently have parameters for controlling the number of times the
calculation function will be called; the thread count for parallel kernels;
the block size for applicable block formats (currently just BCSR); and the
length of the k-loop.  A debug flag is also provided."

Study 3.1 added the thread-list sweep; this implementation also exposes the
kernel variant, the dtype policy (§6.3.5), and the OpenMP-style schedule.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace

from ..dtypes import DEFAULT_POLICY, POLICY_32, POLICY_64, DTypePolicy
from ..errors import BenchConfigError
from ..kernels.common import DEFAULT_CHUNK_ELEMENTS

__all__ = ["BenchParams"]

_POLICIES = {"32": POLICY_32, "64": POLICY_64, "mixed": DEFAULT_POLICY}


@dataclass(frozen=True)
class BenchParams:
    """Runtime configuration of one benchmark run."""

    n_runs: int = 5
    threads: int = 32
    block_size: int = 4
    k: int = 128
    variant: str = "serial"
    schedule: str = "static"
    #: Per-batch intermediate budget (entries x k) of the kernels — the
    #: tunable the autotuner samples (see repro.tune).
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
    thread_list: tuple[int, ...] = field(default_factory=tuple)
    dtype_policy: DTypePolicy = DEFAULT_POLICY
    seed: int = 0
    warmup: int = 1
    verify: bool = True
    debug: bool = False
    #: Explicit format-constructor parameters as ``(name, value)`` pairs
    #: (e.g. a tuned SELL ``(("chunk", 32), ("sigma", 512))``) — merged
    #: over :meth:`format_params`'s per-format defaults.  Only meaningful
    #: for the single format this benchmark builds.
    fmt_params: tuple = ()

    def __post_init__(self) -> None:
        # n_runs=0 is the empty-run contract: the calculation executes once
        # untimed (outputs verifiable), timing is None, measured MFLOPS 0.0.
        if self.n_runs < 0:
            raise BenchConfigError(f"n_runs must be >= 0, got {self.n_runs}")
        if self.threads < 1:
            raise BenchConfigError(f"threads must be >= 1, got {self.threads}")
        if self.block_size < 1:
            raise BenchConfigError(f"block_size must be >= 1, got {self.block_size}")
        if self.k < 1:
            raise BenchConfigError(f"k must be >= 1, got {self.k}")
        if self.warmup < 0:
            raise BenchConfigError(f"warmup must be >= 0, got {self.warmup}")
        if self.chunk_elements < 1:
            raise BenchConfigError(
                f"chunk_elements must be >= 1, got {self.chunk_elements}"
            )
        if any(t < 1 for t in self.thread_list):
            raise BenchConfigError(f"thread_list entries must be >= 1: {self.thread_list}")
        object.__setattr__(
            self,
            "fmt_params",
            tuple(sorted((str(n), v) for n, v in dict(self.fmt_params or {}).items())),
        )

    def format_params(self, format_name: str) -> dict:
        """Format-specific constructor knobs for this configuration.

        Explicit :attr:`fmt_params` pairs override the per-format defaults
        — the autotuner's (chunk, sigma) sampling rides this override.
        """
        if format_name == "bcsr":
            defaults = {"block_size": self.block_size}
        elif format_name == "bell":
            defaults = {"row_block": max(self.block_size, 2) * 8}
        elif format_name == "csr5":
            defaults = {"tile_nnz": 256}
        elif format_name == "sell":
            defaults = {"chunk": 32, "sigma": max(self.block_size, 2) * 64}
        else:
            defaults = {}
        if self.fmt_params:
            defaults.update(dict(self.fmt_params))
        return defaults

    def kernel_options(self) -> dict:
        """Options forwarded to the kernel variant."""
        opts: dict = {}
        if "parallel" in self.variant:
            opts["threads"] = self.threads
            if self.variant == "parallel":
                opts["schedule"] = self.schedule
        if self.chunk_elements != DEFAULT_CHUNK_ELEMENTS and not self.variant.startswith("gpu"):
            opts["chunk_elements"] = self.chunk_elements
        return opts

    def with_(self, **changes) -> "BenchParams":
        """Copy with fields replaced (sweeps mutate via copies)."""
        return replace(self, **changes)

    # -- CLI (paper: "Parameters are input as command line arguments, which
    # the suite defines and parses.") --------------------------------------

    @staticmethod
    def add_arguments(parser: argparse.ArgumentParser) -> None:
        """Register the suite's options on an argparse parser."""
        parser.add_argument("-n", "--n-runs", type=int, default=5,
                            help="times the calculation function is called")
        parser.add_argument("-t", "--threads", type=int, default=32,
                            help="thread count for parallel kernels")
        parser.add_argument("-b", "--block-size", type=int, default=4,
                            help="block size for blocked formats (BCSR)")
        parser.add_argument("-k", type=int, default=128, dest="k",
                            help="length of the k loop (dense operand width)")
        parser.add_argument("--variant", default="serial",
                            help="kernel variant (serial/parallel/gpu/...)")
        parser.add_argument("--schedule", default="static", choices=["static", "dynamic"],
                            help="parallel loop schedule")
        parser.add_argument("--chunk-elements", type=int, default=DEFAULT_CHUNK_ELEMENTS,
                            dest="chunk_elements",
                            help="per-batch intermediate budget (entries x k) of the kernels")
        parser.add_argument("--thread-list", default="",
                            help="comma-separated thread counts to sweep (Study 3.1)")
        parser.add_argument("--dtypes", default="mixed", choices=sorted(_POLICIES),
                            help="index/value width policy (see paper 6.3.5)")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--no-verify", action="store_true",
                            help="skip verification against the COO reference")
        parser.add_argument("--debug", action="store_true")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "BenchParams":
        """Build params from parsed argparse results."""
        thread_list: tuple[int, ...] = ()
        if args.thread_list:
            try:
                thread_list = tuple(int(tok) for tok in args.thread_list.split(","))
            except ValueError as exc:
                raise BenchConfigError(f"bad --thread-list: {args.thread_list!r}") from exc
        return cls(
            n_runs=args.n_runs,
            threads=args.threads,
            block_size=args.block_size,
            k=args.k,
            variant=args.variant,
            schedule=args.schedule,
            chunk_elements=getattr(args, "chunk_elements", DEFAULT_CHUNK_ELEMENTS),
            thread_list=thread_list,
            dtype_policy=_POLICIES[args.dtypes],
            seed=args.seed,
            verify=not args.no_verify,
            debug=args.debug,
        )
