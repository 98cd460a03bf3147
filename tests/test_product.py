import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmp.distributions import DistributionSpec, EntryTriple, make_stream, sample_triples
from rmp.product import (
    CHAIN_CHUNK,
    STEP_BLOCK,
    accumulator_init,
    accumulator_step,
    build_matrix,
    chain_log_norms,
    direct_log_norm,
    log_norm,
)
from rmp.parallel import chunk_sizes

LOG2 = math.log(2.0)


def run_chain(triples):
    acc = accumulator_init(triples[0])
    for xi in triples[1:]:
        acc = accumulator_step(acc, xi)
    return acc


class TestAccumulator:
    def test_init_unit(self):
        acc = accumulator_init(EntryTriple(1, 1, 1))
        assert (acc.n, acc.sum_log_terms, acc.head_ratio, acc.tail) == (1, 0.0, 1.0, (1.0, 1.0))

    def test_init_general(self):
        acc = accumulator_init(EntryTriple(2, 6, 3))
        assert (acc.n, acc.sum_log_terms, acc.head_ratio, acc.tail) == (1, 0.0, 3.0, (2.0, 3.0))

    def test_init_zero_b(self):
        acc = accumulator_init(EntryTriple(1, 0, 0))
        assert (acc.head_ratio, acc.tail) == (0.0, (1.0, 0.0))

    def test_step_constant(self):
        acc = run_chain([EntryTriple(1, 1, 1), EntryTriple(1, 1, 1)])
        assert acc.n == 2
        assert acc.sum_log_terms == LOG2
        assert acc.tail == (1.0, 1.0)

    def test_step_exact_cancellation(self):
        acc = run_chain([EntryTriple(2, 5, 1), EntryTriple(1, -2, 3)])
        assert acc.sum_log_terms == -math.inf

    def test_step_zero_c_kills_coupling(self):
        acc = run_chain([EntryTriple(1, 0, 0), EntryTriple(5, 7, 9)])
        assert acc.sum_log_terms == 0.0

    def test_minus_inf_is_absorbing(self):
        acc = run_chain(
            [EntryTriple(2, 5, 1), EntryTriple(1, -2, 3), EntryTriple(4, 7, 9)]
        )
        assert acc.sum_log_terms == -math.inf
        assert log_norm(acc) == -math.inf

    def test_cross_term_is_asymmetric(self):
        # the cross term takes b from the incoming factor and c from the
        # pending one; swapping the pair must change the result
        t1, t2 = EntryTriple(1.0, 2.0, 3.0), EntryTriple(2.0, 5.0, 0.5)
        fwd = accumulator_step(accumulator_init(t1), t2).sum_log_terms
        rev = accumulator_step(accumulator_init(t2), t1).sum_log_terms
        assert fwd == math.log(abs(1.0 + 5.0 * 3.0 / 2.0))
        assert rev == math.log(abs(2.0 + 2.0 * 0.5 / 1.0))
        assert fwd != rev


class TestLogNorm:
    def test_single_ones_matrix(self):
        acc = accumulator_init(EntryTriple(1, 1, 1))
        assert log_norm(acc) == pytest.approx(LOG2, rel=1e-15)

    def test_two_ones_matrices(self):
        acc = run_chain([EntryTriple(1, 1, 1)] * 2)
        assert log_norm(acc) == pytest.approx(2 * LOG2, rel=1e-15)

    def test_rank_one_consistency(self):
        # n=1: must equal the Hilbert-Schmidt norm of the built matrix
        xi = EntryTriple(2.0, 6.0, 3.0)
        m = build_matrix(xi)
        assert log_norm(accumulator_init(xi)) == pytest.approx(
            0.5 * math.log((m * m).sum()), rel=1e-12
        )

    def test_exponential_chain_matches_direct(self):
        spec = DistributionSpec.exponential_rank_one(1.0)
        a, b, c = sample_triples(spec, 100, make_stream(123))
        triples = [EntryTriple(a[i], b[i], c[i]) for i in range(100)]
        via_acc = log_norm(run_chain(triples))
        via_direct = direct_log_norm([build_matrix(t) for t in triples])
        assert abs(via_acc - via_direct) <= 1e-9 * max(1.0, abs(via_acc))

    def test_huge_accumulated_logs_do_not_overflow(self):
        big = EntryTriple(1e300, 1.0, 1e300)
        acc = run_chain([big] * 100)
        assert math.isfinite(log_norm(acc))
        assert log_norm(acc) > 6e4


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

    def test_binary_matrices_match_accumulator(self):
        spec = DistributionSpec.binary_hill(2.0, 3.0, 0.5)
        a, b, c = sample_triples(spec, 50, make_stream(9))
        triples = [EntryTriple(a[i], b[i], c[i]) for i in range(50)]
        via_acc = log_norm(run_chain(triples))
        via_direct = direct_log_norm([build_matrix(t) for t in triples])
        assert abs(via_acc - via_direct) <= 1e-9 * max(1.0, abs(via_acc))

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


class TestProductFormulaProperty:
    @given(st.lists(triples(), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_accumulator_agrees_with_direct(self, ts):
        via_acc = log_norm(run_chain(ts))
        via_direct = direct_log_norm([build_matrix(t) for t in ts])
        if math.isinf(via_acc) or math.isinf(via_direct):
            assert math.isinf(via_acc) and math.isinf(via_direct)
        else:
            assert abs(via_acc - via_direct) <= 1e-9 * max(1.0, abs(via_acc))


class TestChainKernel:
    def test_matches_scalar_accumulators_single_block(self):
        spec = DistributionSpec.binary_hill(2.0, 3.0, 0.3)
        n, width = 200, 8
        got = chain_log_norms(spec, n, width, seed=21)
        a, b, c = sample_triples(spec, n * width, make_stream(21, 0))
        for j in range(width):
            ts = [
                EntryTriple(a[i * width + j], b[i * width + j], c[i * width + j])
                for i in range(n)
            ]
            want = log_norm(run_chain(ts))
            assert abs(got[j] - want) <= 1e-12 * max(1.0, abs(want))

    def test_matches_scalar_accumulators_across_blocks(self):
        spec = DistributionSpec.exponential_rank_one(1.0)
        width = 4
        n = STEP_BLOCK + 37  # force a block boundary
        got = chain_log_norms(spec, n, width, seed=3)
        # replicate the kernel's block-sampling layout
        gen = make_stream(3, 0)
        rows = [[] for _ in range(width)]
        done = 0
        while done < n:
            block = min(STEP_BLOCK, n - done)
            a, b, c = sample_triples(spec, block * width, gen)
            for i in range(block):
                for j in range(width):
                    rows[j].append(
                        EntryTriple(a[i * width + j], b[i * width + j], c[i * width + j])
                    )
            done += block
        for j in range(width):
            want = log_norm(run_chain(rows[j]))
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
                sumlog += np.log(np.abs(pa + B[0] * pc / A[0]))
        if block > 1:
            with np.errstate(divide="ignore"):
                cross = np.log(np.abs(A[:-1] + B[1:] * C[:-1] / A[1:]))
            sumlog += cross.sum(axis=0)
        prev = (A[-1], B[-1], C[-1])
        done += block
    pa, _, pc = prev
    return sumlog + np.log(np.hypot(pa, pc)) + np.log(np.hypot(1.0, head_ratio))


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
