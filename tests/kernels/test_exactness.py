"""The per-path exactness contract of the forward row-group executor.

Within one format every forward variant name is the same executor, and
each output row is one matmul over that row's stored slots whichever batch
or thread computes it: results are *bit-identical* across variant names,
thread counts, schedules, ``chunk_elements`` budgets, and plan-cache
states.  Across formats only an rtol budget holds (padding and slot order
change the summation), and padding slots keep IEEE semantics.
"""

import pickle

import numpy as np
import pytest

from repro.formats.registry import get_format
from repro.kernels.dispatch import run_spmm
from repro.kernels.plan import PlanCache
from repro.kernels.rowgroups import lowered
from repro.matrices.coo_builder import CooBuilder
from repro.verify.adversarial import build_adversarial
from repro.verify.reference import dense_reference, result_tolerance
from tests.conftest import ALL_FORMATS, FORMAT_PARAMS, build_format, make_random_triplets

FORWARD_VARIANTS = (
    "serial",
    "parallel",
    "optimized",
    "optimized_parallel",
    "grouped",
    "grouped_parallel",
    "gpu",
)
KS = (2, 3, 5, 8, 32, 33)
#: Budgets small enough to split groups into many batches, plus the default.
BUDGETS = (64, 257, 4096, None)
GEOMETRY = ("empty", "empty_rows", "short_chunk", "ragged_block_edge", "skewed_row")


def _schedules():
    for variant in FORWARD_VARIANTS:
        parallel = variant.endswith("parallel")
        for threads in (1, 2, 4) if parallel else (1,):
            for schedule in ("static", "dynamic") if parallel else ("static",):
                for budget in BUDGETS:
                    opts = {"threads": threads, "schedule": schedule}
                    if budget is not None:
                        opts["chunk_elements"] = budget
                    yield variant, opts


def _assert_all_identical(A, B, k):
    reference = run_spmm(A, B, variant="serial", k=k)
    for variant, opts in _schedules():
        C = run_spmm(A, B, variant=variant, k=k, **opts)
        assert C.dtype == reference.dtype and C.shape == reference.shape
        assert np.array_equal(C, reference), (variant, opts)
    return reference


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("k", KS)
def test_every_schedule_bit_identical(fmt, k):
    t = make_random_triplets(41, 37, density=0.15, seed=k)
    A = build_format(fmt, t)
    B = np.random.default_rng(k).standard_normal((A.ncols, k))
    C = _assert_all_identical(A, B, k)
    reference = dense_reference(t, B)
    assert np.abs(C - reference).max() <= result_tolerance(reference)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("case", GEOMETRY)
def test_geometry_zoo_bit_identical(fmt, case):
    t = build_adversarial(case)
    A = build_format(fmt, t)
    for k in (3, 8):
        B = np.random.default_rng(k).standard_normal((A.ncols, k))
        C = _assert_all_identical(A, B, k)
        reference = dense_reference(t, B)
        assert np.abs(C - reference).max() <= result_tolerance(reference)


def test_zoo_geometry_is_what_it_claims():
    assert build_adversarial("empty").nnz == 0
    assert (build_adversarial("empty_rows").row_counts() == 0).any()
    assert build_adversarial("short_chunk").nrows < FORMAT_PARAMS["sell"]["chunk"]
    ragged = build_adversarial("ragged_block_edge")
    block = FORMAT_PARAMS["bcsr"]["block_size"]
    assert ragged.nrows % block and ragged.ncols % block


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("threads", (1, 2))
def test_plan_cache_states_bit_identical(fmt, threads, tmp_path):
    """Cold build, memory hit and disk hit all run the same executor."""
    t = make_random_triplets(29, 31, density=0.2, seed=3)
    B = np.random.default_rng(3).standard_normal((31, 5))
    variant = "parallel" if threads > 1 else "serial"
    params = FORMAT_PARAMS.get(fmt)
    outputs = []
    first = PlanCache(directory=tmp_path)
    for expected in ("built", "memory"):
        plan, provenance = first.get_or_build_plan(
            t, fmt, variant=variant, k=5, threads=threads, format_params=params
        )
        assert provenance == expected
        outputs.append(plan(B))
    plan, provenance = PlanCache(directory=tmp_path).get_or_build_plan(
        t, fmt, variant=variant, k=5, threads=threads, format_params=params
    )
    assert provenance == "disk"
    outputs.append(plan(B))
    outputs.append(run_spmm(build_format(fmt, t), B, variant="serial"))
    for out in outputs[1:]:
        assert np.array_equal(out, outputs[0])


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_lowering_is_not_pickled(fmt, tmp_path):
    t = make_random_triplets(30, 30, density=0.2, seed=5)
    A = build_format(fmt, t)
    before = len(pickle.dumps(A))
    run_spmm(A, np.ones((30, 4)))
    assert "_row_groups" in A.__dict__
    clone = pickle.loads(pickle.dumps(A))
    assert "_row_groups" not in clone.__dict__
    assert len(pickle.dumps(A)) == before
    # The disk tier stores the conversion artifact only.
    cache = PlanCache(directory=tmp_path)
    plan, _ = cache.get_or_build_plan(t, fmt, variant="serial", k=4,
                                      format_params=FORMAT_PARAMS.get(fmt))
    plan(np.ones((30, 4)))
    (path,) = tmp_path.glob("*.plan.pkl")
    stored = pickle.loads(path.read_bytes())["matrix"]
    assert "_row_groups" not in stored.__dict__


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_lowering_bounded_by_twice_stored_bytes(fmt):
    t = make_random_triplets(64, 48, density=0.1, seed=6)
    A = build_format(fmt, t)
    assert lowered(A).nbytes <= 2 * A.nbytes


def test_batches_respect_the_chunk_budget():
    t = make_random_triplets(50, 40, density=0.3, seed=7)
    A = build_format("csr", t)
    k = 4
    budget = 40 * k
    groups = lowered(A)
    for items in groups.schedule(budget // k, parts=3):
        for gi, r0, r1 in items:
            length = groups.groups[gi].length
            assert (r1 - r0) * length * k <= max(budget, length * k)


def _padding_matrix():
    """Row 0 holds one entry at column 0; row 1 is three wide, so ELL-family
    formats pad row 0 with two zero slots that reuse column 0."""
    b = CooBuilder(4, 4)
    b.add_batch([0, 1, 1, 1, 2, 3], [0, 0, 1, 2, 3, 2], [1.0, 1.0, 2.0, 3.0, 1.0, 1.0])
    return b.finish()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_padding_keeps_ieee_semantics():
    t = _padding_matrix()
    B = np.ones((4, 2))
    B[0] = np.inf
    for fmt in ("coo", "csr", "csr5"):
        C = run_spmm(get_format(fmt).from_triplets(t), B)
        assert np.isposinf(C[0]).all(), fmt
    padded = (("ell", {}), ("sell", {"chunk": 4, "sigma": 4}), ("bell", {"row_block": 2}))
    for fmt, params in padded:
        C = run_spmm(get_format(fmt).from_triplets(t, **params), B)
        assert np.isnan(C[0]).all(), fmt  # 0 * inf in a padding slot
    # BCSR: row 0's zero slot at column 1 inside the (0, 0) tile.
    B = np.ones((4, 2))
    B[1] = np.inf
    assert np.isfinite(run_spmm(get_format("csr").from_triplets(t), B)[0]).all()
    C = run_spmm(get_format("bcsr").from_triplets(t, block_size=2), B)
    assert np.isnan(C[0]).all()
