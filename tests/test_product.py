import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmp import product
from rmp.distributions import (
    DistributionSpec,
    EntryTriple,
    cross_terms,
    make_stream,
    sample_triples,
)
from rmp.estimators import exact_discrete
from rmp.product import (
    CHAIN_CHUNK,
    STEP_BLOCK,
    build_matrix,
    chain_log_norms,
    chunk_sizes,
    direct_log_norm,
)
from rmp.selftest import _both_routes, _chain_triples

LOG2 = math.log(2.0)

CANCEL = EntryTriple(2, 5, 1), EntryTriple(1, -2, 3)  # Y_2 Y_1 = 0 for this pair


def one_chain(spec, n, seed=0):
    return float(chain_log_norms(spec, n, 1, seed)[0])


class TestKernelLogNorm:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_log2_per_unit_step(self, n):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        assert one_chain(spec, n) == pytest.approx(n * LOG2, rel=1e-15)

    @pytest.mark.parametrize("xi", [(2, 6, 3), (1, 1, 1), (1, 0, 0)])
    def test_single_step_is_matrix_norm(self, xi):
        # n=1: head ratio b/a and tail (a, c) give the Hilbert-Schmidt norm
        m = build_matrix(EntryTriple(*xi))
        got = one_chain(DistributionSpec.constant_triple(*xi), 1)
        assert got == pytest.approx(0.5 * math.log((m * m).sum()), rel=1e-12)

    def test_zero_c_kills_coupling(self):
        # c_1 = 0 makes the cross term a_1 whatever Y_2 is, so
        # ||Y_2 Y_1|| = hypot(a_2, c_2)
        zero_c, other = EntryTriple(1, 0, 0), EntryTriple(5, 7, 9)
        spec = DistributionSpec.discrete_atoms([(zero_c, 0.5), (other, 0.5)])
        got = chain_log_norms(spec, 2, 16, seed=0)
        chains = _chain_triples(spec, 2, 0, width=16)
        hits = [j for j, ts in enumerate(chains) if ts == [zero_c, other]]
        assert hits
        assert got[hits] == pytest.approx(math.log(math.hypot(5.0, 9.0)), rel=1e-15)

    def test_minus_inf_is_absorbing(self):
        # a chain is -inf exactly when the cancelling pair occurs in it,
        # however many steps follow
        spec = DistributionSpec.discrete_atoms(
            [(CANCEL[0], 0.4), (CANCEL[1], 0.3), ((4, 7, 9), 0.3)]
        )
        n, width = 20, 64
        got = chain_log_norms(spec, n, width, seed=0)
        firsts = []
        for j, ts in enumerate(_chain_triples(spec, n, 0, width)):
            pairs = [i for i in range(n - 1) if (ts[i], ts[i + 1]) == CANCEL]
            assert np.isneginf(got[j]) == bool(pairs)
            firsts += pairs[:1]
        assert firsts and min(firsts) < n - 2
        assert np.isfinite(got).any()

    def test_huge_accumulated_logs_do_not_overflow(self):
        out = one_chain(DistributionSpec.constant_triple(1e300, 1.0, 1e300), 100)
        assert math.isfinite(out)
        assert out > 6e4

    def test_exponential_chain_matches_direct(self):
        spec = DistributionSpec.exponential_rank_one(1.0)
        via_kernel, via_direct = _both_routes(spec, 100, 123)
        assert abs(via_kernel - via_direct) <= 1e-9 * max(1.0, abs(via_kernel))


class TestBuildMatrix:
    def test_ones(self):
        assert build_matrix(EntryTriple(1, 1, 1)).tolist() == [[1, 1], [1, 1]]

    def test_general(self):
        assert build_matrix(EntryTriple(2, 6, 3)).tolist() == [[2, 6], [3, 9]]

    def test_zero_b(self):
        assert build_matrix(EntryTriple(1, 0, 5)).tolist() == [[1, 0], [5, 0]]

    def test_singular(self):
        m = build_matrix(EntryTriple(3.0, 1.7, -2.2))
        assert np.linalg.det(m) == pytest.approx(0.0, abs=1e-12)


class TestDirectLogNorm:
    def test_single(self):
        assert direct_log_norm([np.ones((2, 2))]) == pytest.approx(LOG2, rel=1e-15)

    def test_pair(self):
        m = np.ones((2, 2))
        assert direct_log_norm([m, m]) == pytest.approx(2 * LOG2, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            direct_log_norm([])

    def test_zero_matrix(self):
        assert direct_log_norm([np.zeros((2, 2))]) == -math.inf

    def test_cancelling_pair(self):
        assert direct_log_norm([build_matrix(t) for t in CANCEL]) == -math.inf

    def test_binary_matrices_match_kernel(self):
        spec = DistributionSpec.binary_hill(2.0, 3.0, 0.5)
        via_kernel, via_direct = _both_routes(spec, 50, 9)
        assert abs(via_kernel - via_direct) <= 1e-9 * max(1.0, abs(via_kernel))

    def test_no_overflow_long_product(self):
        m = np.full((2, 2), 1e4)
        out = direct_log_norm([m] * 500)
        assert math.isfinite(out)


@st.composite
def triples(draw):
    def entry(nonzero=False):
        v = draw(
            st.floats(
                min_value=1e-3,
                max_value=1e3,
                allow_nan=False,
                allow_infinity=False,
            )
        )
        sign = -1.0 if draw(st.booleans()) else 1.0
        if not nonzero and draw(st.integers(0, 9)) == 0:
            return 0.0
        return sign * v

    return EntryTriple(entry(nonzero=True), entry(), entry())


@st.composite
def atom_laws(draw):
    atoms = draw(st.lists(triples(), min_size=1, max_size=4))
    return DistributionSpec.discrete_atoms([(t, 1.0 / len(atoms)) for t in atoms])


class TestProductFormulaProperty:
    @given(atom_laws(), st.integers(0, (1 << 64) - 1), st.integers(1, 40), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_kernel_agrees_with_direct(self, spec, seed, n, block):
        # step blocks of 1 to 8 put most steps of a chain on a block
        # boundary, where the kernel carries the last step into the next block
        with mock.patch.object(product, "STEP_BLOCK", block):
            via_kernel, via_direct = _both_routes(spec, n, seed)
        if math.isinf(via_kernel) or math.isinf(via_direct):
            assert via_kernel == via_direct == -math.inf
        else:
            assert abs(via_kernel - via_direct) <= 1e-9 * max(1.0, abs(via_kernel))


class TestHeadRatioOrder:
    @pytest.mark.parametrize("x", [0.1, 1.9])
    def test_cancelling_single_atom_is_minus_inf(self, x):
        # a + c (b/a) = x - x * 1 = 0 exactly, where b*c/a rounds to +-2e-16
        spec = DistributionSpec.discrete_atoms([((x, x, -x), 1.0)])
        assert _both_routes(spec, 2, 0) == (-math.inf, -math.inf)
        assert exact_discrete(spec)[0] == -math.inf

    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec.exponential_rank_one(1.0),
            DistributionSpec.cauchy_rank_one(),
            DistributionSpec.uniform_rank_one(1.0, 2.0),
            DistributionSpec.uniform_rank_one(1e300, 1e300),
        ],
        ids=["exponential", "cauchy", "uniform", "uniform-1e300"],
    )
    def test_rank_one_block_step_is_general_cross_terms(self, spec):
        # the rank-one step forms log|a + c| with no divide or multiply
        block, width = STEP_BLOCK, 64
        workspace = tuple(np.empty(block * width) for _ in range(3))
        _, _, got = product.block_step(spec)(block, width, make_stream(6), workspace)
        steps = sample_triples(spec, block * width, make_stream(6))
        A, B, C = (x.reshape(block, width) for x in steps)
        want = cross_terms((A[:-1], None, C[:-1]), (A[1:], B[1:], None))
        assert np.isfinite(want).all()
        assert np.array_equal(got, want)


class TestChainKernel:
    @pytest.mark.parametrize(
        "spec, n, width, seed",
        [
            (DistributionSpec.binary_hill(2.0, 3.0, 0.3), 200, 8, 21),
            # force a block boundary: the carry between blocks is replayed
            (DistributionSpec.exponential_rank_one(1.0), STEP_BLOCK + 37, 4, 3),
        ],
        ids=["single_block", "across_blocks"],
    )
    def test_matches_direct(self, spec, n, width, seed):
        got = chain_log_norms(spec, n, width, seed)
        for j, ts in enumerate(_chain_triples(spec, n, seed, width)):
            want = direct_log_norm(map(build_matrix, ts))
            assert abs(got[j] - want) <= 1e-12 * max(1.0, abs(want))

    def test_chunking_is_thread_invariant(self):
        spec = DistributionSpec.cauchy_rank_one()
        m = CHAIN_CHUNK + 11  # two chunks
        one = chain_log_norms(spec, 500, m, seed=5, threads=1)
        many = chain_log_norms(spec, 500, m, seed=5, threads=8)
        assert np.array_equal(one, many)

    def test_minus_inf_chains(self):
        spec = DistributionSpec.discrete_atoms(
            [((2.0, 5.0, 1.0), 0.5), ((1.0, -2.0, 3.0), 0.5)]
        )
        out = chain_log_norms(spec, 100, 64, seed=0)
        assert np.isneginf(out).any()


ONE_PER_FAMILY = (
    DistributionSpec.binary_hill(2.0, 3.0, 0.3),
    DistributionSpec.uniform_rank_one(1.0, 2.0),
    DistributionSpec.exponential_rank_one(1.5),
    DistributionSpec.cauchy_rank_one(),
    DistributionSpec.hill_random(0.5, 2.0),
    # the cancelling first pair sends chains to -inf
    DistributionSpec.discrete_atoms(
        [((2.0, 5.0, 1.0), 0.4), ((1.0, -2.0, 3.0), 0.3), ((3.0, 2.0, -1.0), 0.3)]
    ),
    DistributionSpec.constant_triple(2.0, 6.0, 3.0),
)


def allocating_chain_chunk(spec, n, width, gen):
    """The chain kernel as it was with fresh arrays for every block."""
    sumlog = np.zeros(width)
    head_ratio = None
    prev = None
    done = 0
    while done < n:
        block = min(STEP_BLOCK, n - done)
        a, b, c = sample_triples(spec, block * width, gen)
        A = a.reshape(block, width)
        B = b.reshape(block, width)
        C = c.reshape(block, width)
        if prev is None:
            head_ratio = B[0] / A[0]
        else:
            pa, _, pc = prev
            with np.errstate(divide="ignore"):
                sumlog += np.log(np.abs(pa + pc * (B[0] / A[0])))
        if block > 1:
            with np.errstate(divide="ignore"):
                cross = np.log(np.abs(A[:-1] + C[:-1] * (B[1:] / A[1:])))
            sumlog += cross.sum(axis=0)
        prev = (A[-1], B[-1], C[-1])
        done += block
    pa, _, pc = prev
    return sumlog + np.log(np.hypot(pa, pc)) + np.log(np.hypot(1.0, head_ratio))


class TestMapStreams:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_chunk_order_streams_sizes_and_workspaces(self, threads):
        spec, seed, chunk, length = DistributionSpec.cauchy_rank_one(), 17, 8, 5
        total = 4 * chunk + 3  # five chunks, the last one short

        def record(draw, size, gen, workspace):
            return draw, size, gen.random(), workspace

        got = product.map_streams(spec, seed, total, chunk, length, threads, record)
        draws, sizes, firsts, workspaces = zip(*got)
        assert list(sizes) == chunk_sizes(total, chunk) == [8, 8, 8, 8, 3]
        assert list(firsts) == [make_stream(seed, k).random() for k in range(5)]
        assert all(d is draws[0] for d in draws)  # the block step, taken once
        assert all(len(w) == 3 and all(b.shape == (length,) for b in w) for w in workspaces)
        if threads == 1:
            assert all(w is workspaces[0] for w in workspaces)


class TestChainWorkspace:
    @pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=lambda s: s.family)
    def test_bitwise_equal_to_allocating_kernel(self, spec):
        m = CHAIN_CHUNK + 11
        for n in (1, 2, STEP_BLOCK, 2 * STEP_BLOCK + 37):
            want = np.concatenate(
                [
                    allocating_chain_chunk(spec, n, width, make_stream(8, k))
                    for k, width in enumerate(chunk_sizes(m, CHAIN_CHUNK))
                ]
            )
            for threads in (1, 2):
                got = chain_log_norms(spec, n, m, seed=8, threads=threads)
                assert np.array_equal(got, want), (n, threads)

    def test_no_workspace_is_used_by_two_threads_at_once(self):
        # more threads than cores and a short switch interval interleave
        # the chunks; two chunks writing one workspace would corrupt both
        spec = ONE_PER_FAMILY[2]
        m = 24 * CHAIN_CHUNK
        want = chain_log_norms(spec, 300, m, seed=4, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = chain_log_norms(spec, 300, m, seed=4, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", ONE_PER_FAMILY[:2], ids=lambda s: s.family)
    def test_peak_memory_independent_of_chain_length(self, spec):
        def peak(n):
            tracemalloc.start()
            try:
                chain_log_norms(spec, n, 2 * CHAIN_CHUNK, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * STEP_BLOCK) <= 1.25 * peak(STEP_BLOCK)
