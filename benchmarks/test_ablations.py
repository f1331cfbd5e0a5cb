"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures — these quantify the library's own engineering decisions:

* the row-group executor against scipy's native ``csr @ B``;
* static vs dynamic parallel schedule on skewed inputs;
* 32- vs 64-bit dtype policy (paper §6.3.5);
* BCSR reformat vs save/load (paper §6.3.2 interim tool);
* ELL vs BELL on heavy-tailed matrices (the §6.3.1 fix);
* reuse-distance model vs the LRU cache simulator.
"""

import numpy as np
import pytest

from repro.dtypes import POLICY_32, POLICY_64
from repro.formats.bcsr import BCSR
from repro.formats.registry import get_format
from repro.kernels.traces import reuse_distance_histogram, trace_spmm
from repro.machine.cache import SetAssociativeCache
from repro.matrices.suite import load_matrix

from conftest import K, SCALE, build, dense_operand


class TestExecutorVsNative:
    @pytest.mark.parametrize("variant", ("serial", "grouped"))
    def test_execution(self, benchmark, variant):
        A = build("pdb1HYS", "csr")
        B = dense_operand(A)
        # Build the memoized row-group lowering outside the timer.
        A.spmm(B, variant=variant)
        C = benchmark(lambda: A.spmm(B, variant=variant))
        assert C.shape == (A.nrows, K)

    def test_serial_csr_within_bound_of_scipy(self):
        """Serial CSR on cant (scale 16, k=32) stays within 8x scipy's
        ``csr @ B``.  The row-group executor measured 2.8-3.3x on a 2-CPU
        x86 host; the gather/scale/reduceat stream kernels it replaced ran
        25-55x, so the bound still separates the two designs."""
        import time

        sparse = pytest.importorskip("scipy.sparse")
        t = load_matrix("cant", scale=16)
        A = get_format("csr").from_triplets(t)
        S = sparse.csr_matrix((t.values, (t.rows, t.cols)), shape=A.shape)
        B = dense_operand(A)
        A.spmm(B)  # build the lowering outside the timer

        def seconds(fn):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        kernel, native = [], []
        for _ in range(5):  # interleaved, so host drift hits both alike
            kernel.append(seconds(lambda: A.spmm(B)))
            native.append(seconds(lambda: S @ B))
        assert np.allclose(A.spmm(B), S @ B)
        assert min(kernel) <= 8 * min(native)


class TestSchedules:
    @pytest.mark.parametrize("schedule", ("static", "dynamic"))
    def test_skewed_matrix(self, benchmark, schedule):
        A = build("torso1", "csr")
        B = dense_operand(A)
        C = benchmark(
            lambda: A.spmm(B, variant="parallel", threads=4, schedule=schedule)
        )
        assert C.shape[0] == A.nrows


class TestDtypePolicy:
    @pytest.mark.parametrize("policy", (POLICY_32, POLICY_64), ids=("32bit", "64bit"))
    def test_spmm(self, benchmark, policy):
        t = load_matrix("cant", scale=SCALE, policy=policy)
        A = get_format("csr").from_triplets(t, policy=policy)
        B = policy.value_array(np.random.default_rng(0).standard_normal((A.ncols, K)))
        C = benchmark(A.spmm, B)
        assert C.dtype == policy.value

    def test_footprint_halved(self):
        t32 = load_matrix("cant", scale=SCALE, policy=POLICY_32)
        t64 = load_matrix("cant", scale=SCALE, policy=POLICY_64)
        a32 = get_format("csr").from_triplets(t32, policy=POLICY_32)
        a64 = get_format("csr").from_triplets(t64, policy=POLICY_64)
        assert a64.nbytes > 1.8 * a32.nbytes


class TestBcsrPersistence:
    def test_reformat(self, benchmark):
        t = load_matrix("rma10", scale=SCALE)
        A = benchmark(lambda: BCSR.from_triplets(t, block_size=4))
        assert A.nnz == t.nnz

    def test_load_preformatted(self, benchmark, tmp_path):
        t = load_matrix("rma10", scale=SCALE)
        path = tmp_path / "m.bcsrz"
        BCSR.from_triplets(t, block_size=4).save(path)
        A = benchmark(lambda: BCSR.load(path))
        assert A.nnz == t.nnz


class TestEllVsBell:
    @pytest.mark.parametrize("fmt", ("ell", "bell"))
    def test_heavy_tail_spmm(self, benchmark, fmt):
        t = load_matrix("torso1", scale=SCALE)
        params = {"row_block": 32} if fmt == "bell" else {}
        A = get_format(fmt).from_triplets(t, **params)
        B = dense_operand(A, k=8)
        C = benchmark(lambda: A.spmm(B, k=8))
        assert C.shape == (A.nrows, 8)

    def test_bell_padding_advantage(self):
        t = load_matrix("torso1", scale=SCALE)
        ell = get_format("ell").from_triplets(t)
        bell = get_format("bell").from_triplets(t, row_block=32)
        assert bell.stored_entries < ell.stored_entries / 5


class TestCacheModelVsSimulator:
    def test_model_evaluation(self, benchmark):
        A = build("cant", "csr")
        tr = trace_spmm(A, K)
        frac = benchmark(tr.gather_hit_fraction, 4096)
        assert 0 <= frac <= 1

    def test_lru_simulation(self, benchmark):
        A = build("bcsstk13", "csr")
        cache = SetAssociativeCache(64 << 10, line_bytes=64, ways=8)
        addrs = (A.indices.astype(np.int64) * K * 8)[:20_000]

        def run():
            cache.reset()
            return sum(cache.access(int(a)) for a in addrs)

        hits = benchmark(run)
        assert 0 <= hits <= addrs.size

    def test_model_agrees_with_simulator_direction(self):
        """Banded matrices hit more than scattered, in both the model and
        the LRU simulator."""
        banded = build("cant", "csr")
        scattered = build("2cubes_sphere", "csr")
        cap = 512
        model_b = trace_spmm(banded, K).gather_hit_fraction(cap)
        model_s = trace_spmm(scattered, K).gather_hit_fraction(cap)

        def sim_rate(A):
            hist, unique = reuse_distance_histogram(A.indices[:20_000])
            cache = SetAssociativeCache(cap, line_bytes=1, ways=cap)
            hits = sum(cache.access(int(c)) for c in A.indices[:20_000])
            return hits / min(A.indices.size, 20_000)

        assert (model_b > model_s) == (sim_rate(banded) > sim_rate(scattered))
