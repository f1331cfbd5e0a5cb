"""The sparse-format base class — analog of the paper's C++ core class.

The paper's suite (§4.1) is "defined as a C++ class which defines formatting
and calculation functions that will be specific to every format.  By default,
the library defines the COO format.  All other formats will format their
structures based on the COO representation.  A custom format will simply
extend the class, and re-implement the calculation and formatting functions."

:class:`SparseFormat` mirrors that contract:

* :meth:`SparseFormat.from_triplets` is the *formatting* function — every
  format builds itself from the COO-like :class:`~repro.matrices.Triplets`.
* :meth:`SparseFormat.spmm` / :meth:`SparseFormat.spmv` are the *calculation*
  functions, dispatched through :mod:`repro.kernels` so serial / parallel /
  GPU / transpose / optimized variants can be swapped per run.
* :meth:`SparseFormat.footprint` reports the memory cost (§6.3.5).

Subclasses register themselves by name via
:func:`repro.formats.registry.register_format`.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from ..dtypes import DEFAULT_POLICY, DTypePolicy, footprint_report
from ..errors import ShapeError
from ..matrices.coo_builder import Triplets

__all__ = ["SparseFormat"]


class SparseFormat(abc.ABC):
    """Abstract sparse matrix in a specific storage format.

    Attributes
    ----------
    nrows, ncols:
        Logical matrix shape.
    policy:
        Dtype policy the structure was built with.
    """

    #: Registry name, set by the ``register_format`` decorator.
    format_name: str = "abstract"

    def __init__(self, nrows: int, ncols: int, policy: DTypePolicy = DEFAULT_POLICY):
        if nrows <= 0 or ncols <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {nrows}x{ncols}")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.policy = policy

    # -- formatting -------------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def from_triplets(
        cls, triplets: Triplets, policy: DTypePolicy = DEFAULT_POLICY, **params: Any
    ) -> "SparseFormat":
        """Format the COO-like triplets into this representation.

        ``params`` carries format-specific knobs (e.g. BCSR block size).
        """

    @abc.abstractmethod
    def to_triplets(self) -> Triplets:
        """Convert back to canonical triplets (drops any padding)."""

    # -- structure --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of the logical matrix."""
        return (self.nrows, self.ncols)

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of *logical* nonzeros (excluding padding)."""

    @property
    @abc.abstractmethod
    def stored_entries(self) -> int:
        """Number of *stored* entries including padding.

        For COO/CSR this equals :attr:`nnz`; for blocked formats it is
        larger, and ``stored_entries - nnz`` quantifies the padding waste the
        paper attributes blocked-format slowdowns to.
        """

    @abc.abstractmethod
    def arrays(self) -> dict[str, np.ndarray]:
        """Named constituent arrays, for footprint reports and tests."""

    @property
    def padding_ratio(self) -> float:
        """Stored entries per logical nonzero (1.0 = no padding)."""
        return self.stored_entries / max(self.nnz, 1)

    def footprint(self) -> dict[str, int]:
        """Per-array and total byte footprint (paper §6.3.5)."""
        return footprint_report(self.arrays())

    @property
    def nbytes(self) -> int:
        """Total structure bytes."""
        return self.footprint()["total"]

    # -- calculation ------------------------------------------------------

    def spmm(self, B: np.ndarray, variant: str = "serial", **options: Any) -> np.ndarray:
        """Sparse-dense multiply ``C = A @ B`` via a registered kernel.

        Parameters
        ----------
        B:
            Dense right-hand side, shape ``(ncols, k)``.
        variant:
            Kernel variant: ``serial``, ``parallel``, ``gpu``,
            ``serial_transpose``, ``parallel_transpose``, ``gpu_transpose``,
            ``optimized`` ... (see :mod:`repro.kernels.dispatch`).
        options:
            Variant options, e.g. ``threads=32`` for parallel kernels.
        """
        from ..kernels.dispatch import run_spmm  # lazy: kernels import formats

        return run_spmm(self, B, variant=variant, **options)

    def spmv(self, x: np.ndarray, variant: str = "serial", **options: Any) -> np.ndarray:
        """Sparse matrix-vector multiply ``y = A @ x`` (paper §6.3.4)."""
        from ..kernels.dispatch import run_spmv

        return run_spmv(self, x, variant=variant, **options)

    def to_dense(self) -> np.ndarray:
        """Materialize densely (tests / small matrices only)."""
        return self.to_triplets().to_dense()

    # -- misc ---------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the format's own arrays only.

        The kernels memoize a row-group lowering on the instance
        (:func:`repro.kernels.rowgroups.lowered`); it is derived data,
        rebuilt on first use, and never written to the plan cache's disk
        tier or shipped to worker processes.
        """
        state = self.__dict__.copy()
        state.pop("_row_groups", None)
        return state

    def check_dense_operand(self, B: np.ndarray, k: int | None = None) -> np.ndarray:
        """Validate/clip the dense operand for SpMM.

        The suite's ``-k`` parameter (paper §4.3) limits the inner k loop:
        if ``k`` is given and smaller than ``B.shape[1]``, only the first
        ``k`` columns participate.
        """
        B = np.asarray(B)
        if B.ndim != 2:
            raise ShapeError(f"dense operand must be 2-D, got ndim={B.ndim}")
        if B.shape[0] != self.ncols:
            raise ShapeError(
                f"operand rows {B.shape[0]} != matrix cols {self.ncols}"
            )
        if k is not None:
            if k <= 0:
                raise ShapeError(f"k must be positive, got {k}")
            if k < B.shape[1]:
                B = B[:, :k]
        return np.ascontiguousarray(B, dtype=self.policy.value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.nrows}x{self.ncols} nnz={self.nnz} "
            f"stored={self.stored_entries}>"
        )
