"""Kernel cells timed against scipy on the same operands, in this process.

A cell is one (matrix, format, variant) product: forward ``A @ B`` through
:func:`repro.api.multiply`, or backward ``A^T @ G`` through
``transpose_spmm`` on a transpose built once with
``kernels.backward.transpose_format``.  Each round times every cell once,
each kernel call right next to scipy's product on the same operands, the
order alternating between rounds.

A cell's ratio is its fastest kernel call over scipy's fastest call (scipy
runs twice per round, back to back, so its cache is warm at least once).
On a small shared host scipy's memory-bound product runs in two speed
modes about 1.7x apart that switch every few seconds, while the kernel
barely moves; the minimum over rounds spread across the run reads the
fast mode for both, where a median follows whichever mode a round landed
in.  Ratios of many cells combine by their geometric mean: the cells fall
in clusters (ELL near 10x, CSR near 30x, ...) and a median over a handful
of them flips between clusters from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from common import Counts, median, timed, within_tolerance

#: scipy calls per cell and round; the fastest counts.
NATIVE_REPEATS = 2


@dataclass
class Cell:
    kind: str  # "forward" | "backward"
    matrix: str
    fmt: str
    variant: str
    threads: int
    k: int
    nnz: int
    operand: object  # built format (forward) or built transpose (backward)
    native: object  # scipy matrix (forward) or its transpose (backward)
    dense: np.ndarray
    reference: np.ndarray
    kernel_s: list = field(default_factory=list)
    scipy_s: list = field(default_factory=list)
    traced_s: list = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.kind}/{self.matrix}/{self.fmt}/{self.variant}/k{self.k}"

    @property
    def ratio(self) -> float:
        return min(self.kernel_s) / min(self.scipy_s)

    def call(self):
        """``(output, seconds)`` of one kernel call."""
        from repro.api import multiply
        from repro.kernels.transpose import transpose_spmm

        if self.kind == "backward":
            return timed(transpose_spmm, self.operand, self.dense, self.k)
        if self.variant == "parallel":
            return timed(multiply, self.operand, self.dense, variant="parallel",
                         threads=self.threads)
        return timed(multiply, self.operand, self.dense, variant=self.variant)

    def check(self, output, counts: Counts) -> bool:
        if within_tolerance(output, self.reference):
            counts.ok()
            return True
        counts.fail(f"wrong_output_{self.kind}")
        return False


def scipy_csr(triplets):
    import scipy.sparse

    return scipy.sparse.csr_matrix(
        (triplets.values, (triplets.rows, triplets.cols)),
        shape=(triplets.nrows, triplets.ncols),
    )


def make_cells(triplets: dict, built: dict, forward, backward, rng, threads: int = 1):
    """Cells over prebuilt operands, with their dense operands and references.

    ``forward``: ``(matrix, fmt, variant, k)``; ``backward``:
    ``(matrix, fmt, k)`` with ``built[matrix, fmt, "T"]`` the transpose.
    """
    natives = {name: scipy_csr(t) for name, t in triplets.items()}
    cells = []
    for name, fmt, variant, k in forward:
        S, t = natives[name], triplets[name]
        B = rng.standard_normal((t.ncols, k))
        cells.append(Cell("forward", name, fmt, variant, threads, k, t.nnz,
                          built[name, fmt], S, B, S @ B))
    for name, fmt, k in backward:
        St, t = natives[name].T, triplets[name]
        G = rng.standard_normal((t.nrows, k))
        cells.append(Cell("backward", name, fmt, "serial", 1, k, t.nnz,
                          built[name, fmt, "T"], St, G, St @ G))
    return cells


def run_round(cells, rng, flip: bool, counts: Counts, tracer=None) -> list[tuple[float, bool]]:
    """Time every cell once, in seeded order; returns ``(seconds, correct)``.

    With a tracer, each cell runs a second time inside a span, so traced
    and untraced calls of one cell can be compared.
    """
    def traced_call(cell):
        with tracer.span("kernel.call", request=cell.label):
            output, seconds = cell.call()
        cell.check(output, counts)
        return seconds

    calls = []
    for j in rng.permutation(len(cells)):
        cell = cells[j]
        if tracer is not None and flip:
            traced = traced_call(cell)
        if flip:
            output, tk = cell.call()
            ts = scipy_seconds(cell)
        else:
            ts = scipy_seconds(cell)
            output, tk = cell.call()
        ok = cell.check(output, counts)
        if tracer is not None and not flip:
            traced = traced_call(cell)
        cell.kernel_s.append(tk)
        cell.scipy_s.append(ts)
        calls.append((tk, ok))
        if tracer is not None:
            cell.traced_s.append(traced / tk)
    return calls


def scipy_seconds(cell: Cell) -> float:
    return min(timed(cell.native.__matmul__, cell.dense)[1] for _ in range(NATIVE_REPEATS))


def ratios(cells, kind: str) -> list[float]:
    return [c.ratio for c in cells if c.kind == kind]


def geomean(values) -> float:
    values = list(values)
    return float(np.exp(np.mean(np.log(values))))


def trace_overhead(cells) -> float:
    """Median over cells of the traced/untraced call-time ratio, minus one."""
    return median(median(c.traced_s) for c in cells if c.traced_s) - 1.0
