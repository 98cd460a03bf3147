import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmp import estimators, product
from rmp.distributions import (
    DistributionSpec,
    EntryTriple,
    cross_terms,
    make_stream,
    sample_triples,
    sample_units,
)
from rmp.estimators import SAMPLE_CHUNK, estimate_sigma2_mc, exact_discrete
from rmp.families import _EXP_MIN_THETA, _HALF_MAX, FAMILIES
from rmp.product import (
    CHAIN_CHUNK,
    STEP_BLOCK,
    build_matrix,
    chain_log_norms,
    chunk_sizes,
    direct_log_norm,
)
from rmp.selftest import _block_triples, _both_routes, _chain_triples
from test_atom_law import block_lengths, cut_word_rows, word_rows
from test_distributions import QueueStream

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

    def test_entries_up_to_dbl_max(self):
        # rank-one steps [[s, s], [0, 0]] with s near DBL_MAX, the sums of
        # Uniform [-DBL_MAX/2, DBL_MAX/2]: a power of two above 2^1023 and
        # a product entry s (1 + 1) would overflow
        s = 1.5e308
        m = np.array([[s, s], [0.0, 0.0]])
        want = 2 * math.log(s) + 0.5 * math.log(8.0)  # [[2 s^2, 2 s^2], [0, 0]]
        assert direct_log_norm([m, np.ones((2, 2)), m]) == pytest.approx(want, rel=1e-15)


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


def exact_log_norm(matrices) -> float:
    """log Hilbert-Schmidt norm of the exact rational product of the float
    matrices Y_n ... Y_1; -inf for the zero matrix."""
    P = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for m in matrices:
        Y = [[Fraction(float(v)) for v in row] for row in m]
        P = [[Y[i][0] * P[0][j] + Y[i][1] * P[1][j] for j in range(2)] for i in range(2)]
    sq = sum(v * v for row in P for v in row)
    if sq == 0:
        return -math.inf
    return 0.5 * (math.log(sq.numerator) - math.log(sq.denominator))


# the atoms of two chains whose exact product is the zero matrix: (-1.5,
# -x, 0) after (x, 0, -1.5) gives the direct product a rounding residue,
# and the kernel's cross term 1 + c (-1 / c) of (c, -1, 0) after (1, 0, c)
# one of its own
_X = 303.6892280842416
DIRECT_RESIDUE = [((-1.5, -_X, 0.0), 0.25), ((_X, 0.0, -1.5), 0.25),
                  ((1.5, 0.0, 0.0), 0.25), ((1.0, 0.0, 0.0), 0.25)]
KERNEL_RESIDUE = [((1.0, 0.0, 0.0), 1 / 3), ((1.0, 0.0, 3.16015625), 1 / 3),
                  ((3.16015625, -1.0, 0.0), 1 / 3)]


class TestProductFormulaProperty:
    @given(atom_laws(), st.integers(0, (1 << 64) - 1), st.integers(1, 40), st.integers(1, 8))
    @example(DistributionSpec.discrete_atoms(DIRECT_RESIDUE), 0, 4, 1)
    @example(DistributionSpec.discrete_atoms(KERNEL_RESIDUE), 0, 4, 4)
    @settings(max_examples=200, deadline=None)
    def test_kernel_agrees_with_direct(self, spec, seed, n, block):
        # step blocks of 1 to 8 put most steps of a chain on a block
        # boundary, where the kernel carries the last step into the next block
        with mock.patch.object(product, "STEP_BLOCK", block):
            via_kernel, via_direct = _both_routes(spec, n, seed)
            [triples] = _chain_triples(spec, n, seed)
        if not (math.isinf(via_kernel) or math.isinf(via_direct)):
            assert abs(via_kernel - via_direct) <= 1e-9 * max(1.0, abs(via_kernel))
            return
        # a -inf is decided by the exact product of the replayed matrices.
        # Both routes round, so where it is 0 (or below their rounding) a
        # route may leave a residue: at most 2 n eps prod ||Y_j|| for the
        # direct product (2 roundings per entry and step) and ~4 eps
        # prod ||Y_j|| for the kernel's cancelling cross term; 8 n eps
        # covers both
        matrices = [build_matrix(t) for t in triples]
        want = exact_log_norm(matrices)
        floor = sum(math.log(np.linalg.norm(m)) for m in matrices)
        floor += math.log(8 * n * sys.float_info.epsilon)
        for got in (via_kernel, via_direct):
            if max(got, want) > floor:
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (got, want)


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
        # the rank-one step draws unit sums t and forms log|t| per term,
        # or one log per product of `group` of them, leaving out the
        # constant log|kappa| (product.log_kappa): the cross terms of the
        # triples it replays, log|kappa t|, up to rounding
        block, width = STEP_BLOCK, 64
        workspace = tuple(np.empty(block * width) for _ in range(3))
        _, _, got = product.block_step(spec)(block, width, make_stream(6), workspace)
        steps = _block_triples(spec, block, width, make_stream(6))
        A, B, C = (x.reshape(block, width) for x in steps)
        want = cross_terms((A[:-1], None, C[:-1]), (A[1:], B[1:], None))
        assert np.isfinite(want).all() and got.shape == want.shape
        log_kappa = math.log(abs(FAMILIES[spec.family].scale(spec)))
        assert product.log_kappa(spec) == log_kappa
        np.testing.assert_allclose(got + log_kappa, want, rtol=1e-15, atol=1e-15)
        t = sample_units(spec, (block - 1) * width, make_stream(6))
        with np.errstate(divide="ignore"):
            assert np.array_equal(got.ravel(), np.log(np.abs(t)))
        draw = product.block_step(spec, grouped=True)
        _, _, rows = draw(block, width, make_stream(6), workspace)
        group = FAMILIES[spec.family].group
        assert rows.shape == (-(-(block - 1) // group), width)
        # (block - 1) log|kappa|, which the chain adds once per chain, goes
        # on the first row before the sum, the order this check has always
        # used: a column that cancels to a few units (-5.6 of -360 + 354 on
        # the uniform law) leaves rtol 1e-13 no room for the other order's
        # rounding
        rows[0] += (block - 1) * log_kappa
        np.testing.assert_allclose(rows.sum(axis=0), want.sum(axis=0), rtol=1e-13)


class TestChainKernel:
    @pytest.mark.parametrize(
        "spec, n, width, seed",
        [
            (DistributionSpec.binary_hill(2.0, 3.0, 0.3), 200, 8, 21),
            # force a block boundary: the carry between blocks is replayed
            (DistributionSpec.exponential_rank_one(1.0), STEP_BLOCK + 37, 4, 3),
            # the extreme rank-one laws, whose unit sums the kernel
            # multiplies in groups, across a block boundary
            (DistributionSpec.exponential_rank_one(_EXP_MIN_THETA), STEP_BLOCK + 37, 4, 3),
            (DistributionSpec.exponential_rank_one(1e300), STEP_BLOCK + 37, 4, 3),
            (DistributionSpec.cauchy_rank_one(), STEP_BLOCK + 37, 4, 3),
            (DistributionSpec.uniform_rank_one(0.0, sys.float_info.min), STEP_BLOCK + 37, 4, 3),
            (DistributionSpec.uniform_rank_one(_HALF_MAX, _HALF_MAX), STEP_BLOCK + 37, 4, 3),
        ],
        ids=["single_block", "across_blocks", "exp-min-theta", "exp-1e300", "cauchy",
             "uniform-0-dbl-min", "uniform-half-max"],
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


def allocating_rank_one_block(spec, block, width, gen):
    """A rank-one block step with fresh arrays: the unit sums of block - 1
    steps folded by contiguous halving into products of up to `group` of
    them, one log each; no pair is drawn."""
    rows = sample_units(spec, (block - 1) * width, gen).reshape(block - 1, width)
    g = FAMILIES[spec.family].group
    while g > 1 and len(rows) > 1:
        r, h = len(rows), (len(rows) + 1) // 2
        rows = np.concatenate([rows[: r - h] * rows[h:], rows[r - h : h]])
        g //= 2
    with np.errstate(divide="ignore"):
        return np.log(np.abs(rows))


def allocating_chain_chunk(spec, n, width, gen):
    """The chain kernel with fresh arrays for every block.  A rank-one law
    draws its n - 1 unit sums by allocating_rank_one_block, in blocks of
    up to STEP_BLOCK, then its last pair, and adds (n - 1) log|kappa| and
    log hypot(1, 1) once.  Other laws run on replayed triples, whose
    terms a finite-support block sums by word, whole or cut, in blocks of
    up to STEP_BLOCK words (block_lengths)."""
    sumlog = np.zeros(width)
    if spec.is_rank_one:
        for done in range(0, n - 1, STEP_BLOCK):
            terms = min(STEP_BLOCK, n - 1 - done)
            sumlog += allocating_rank_one_block(spec, terms + 1, width, gen).sum(axis=0)
        x, _, y = sample_triples(spec, width, gen)
        sumlog += (n - 1) * math.log(abs(FAMILIES[spec.family].scale(spec))) + 0.5 * LOG2
        return sumlog + np.log(np.hypot(x, y))
    g = spec.atom_law.words.g if spec.is_discrete else 1
    head_ratio = None
    prev = None
    for block in block_lengths(n, g):
        a, b, c = _block_triples(spec, block, width, gen)
        A = a.reshape(block, width)
        B = b.reshape(block, width)
        C = c.reshape(block, width)
        first, last = (A[0], B[0], C[0]), (A[-1], B[-1], C[-1])
        with np.errstate(divide="ignore"):
            cross = np.log(np.abs(A[:-1] + C[:-1] * (B[1:] / A[1:])))
        if spec.is_discrete:
            cross = (word_rows if block % g == 0 else cut_word_rows)(cross, g)
        if prev is None:
            head_ratio = first[1] / first[0]
        else:
            pa, _, pc = prev
            with np.errstate(divide="ignore"):
                sumlog += np.log(np.abs(pa + pc * (first[1] / first[0])))
        if block > 1:
            sumlog += cross.sum(axis=0)
        prev = last
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


    def test_one_thread_run_imports_no_thread_pool(self):
        # concurrent.futures loads logging; a run needs neither, at one
        # thread or at two, whose chunks run on plain threads
        code = (
            "import sys, rmp.cli\n"
            "from rmp.distributions import DistributionSpec\n"
            "from rmp.product import chain_log_norms\n"
            "for threads in (1, 2):\n"
            "    chain_log_norms(DistributionSpec.cauchy_rank_one(), 600, 300, 1, threads)\n"
            "    print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
        )
        src = str(Path(product.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.split() == ["[]", "[]"]


def _address(buf) -> int:
    return buf.__array_interface__["data"][0]


def _mc_estimate_bytes(spec, n_samples, seed):
    """estimate_sigma2_mc's numbers as bytes, its wall time left out."""
    result, ladder = estimate_sigma2_mc(spec, n_samples, seed)
    numbers = [getattr(result, f) for f in ("value", "std_error", "n_samples",
                                            "minus_inf_events", "inf_nan_events")]
    numbers += [getattr(ladder, f) for f in ("c0", "c1", "lam", "c0_std_error",
                                             "c1_std_error", "lam_std_error")]
    return np.array(numbers, dtype=float).tobytes()


# one law per block step: chains take _rank_one_block, _sampled_block and
# _word_block (n = 1003 cuts a BinaryHill chain's last word), the Monte
# Carlo segment _rank_one_block, _sampled_block and _word_steps
BLOCK_STEP_LAWS = [
    pytest.param(DistributionSpec.exponential_rank_one(1.0), id="rank-one"),
    pytest.param(DistributionSpec.hill_random(0.5, 2.0), id="sampled"),
    pytest.param(DistributionSpec.binary_hill(2.0, 3.0, 0.3), id="words"),
]


class TestAlignedWorkspaces:
    @pytest.mark.parametrize("length", [1, 7, 8, 9, 1003, STEP_BLOCK * CHAIN_CHUNK])
    def test_buffers_start_on_a_line(self, length):
        buffers = product.workspace(length)
        assert len(buffers) == 3
        assert all(b.shape == (length,) and b.dtype == np.float64 for b in buffers)
        assert all(b.flags.c_contiguous and b.flags.writeable for b in buffers)
        assert all(_address(b) % 64 == 0 for b in buffers)
        starts = sorted(_address(b) for b in buffers)
        assert all(lo + 8 * length <= hi for lo, hi in zip(starts, starts[1:]))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "route",
        [
            lambda spec, threads: chain_log_norms(spec, 1003, CHAIN_CHUNK + 5, 3, threads),
            lambda spec, threads: estimate_sigma2_mc(spec, 3 * SAMPLE_CHUNK + 9, 3, threads),
        ],
        ids=["chains", "monte-carlo"],
    )
    @pytest.mark.parametrize("spec", BLOCK_STEP_LAWS)
    def test_every_buffer_a_body_gets_is_on_a_line(self, monkeypatch, spec, route, threads):
        seen = []  # (requested length, workspace) of every chunk
        original = product.map_streams

        def spying(spec, seed, total, chunk, length, threads, body, grouped=False):
            def spy(draw, size, gen, workspace):
                seen.append((length, workspace))
                return body(draw, size, gen, workspace)

            return original(spec, seed, total, chunk, length, threads, spy, grouped)

        monkeypatch.setattr(product, "map_streams", spying)
        monkeypatch.setattr(estimators, "map_streams", spying)
        route(spec, threads)
        assert len(seen) in (2, 4)  # two chain chunks, four Monte Carlo chunks
        for length, workspace in seen:
            assert [b.shape for b in workspace] == [(length,)] * 3
            assert all(_address(b) % 64 == 0 for b in workspace)

    @pytest.mark.parametrize("spec", BLOCK_STEP_LAWS)
    def test_values_do_not_depend_on_where_buffers_start(self, monkeypatch, spec):
        def run():
            chains = chain_log_norms(spec, 1003, CHAIN_CHUNK + 5, 3, threads=2)
            return chains.tobytes(), _mc_estimate_bytes(spec, 2 * SAMPLE_CHUNK + 9, 3)

        want = run()
        original = product.workspace
        for shift in range(1, 8):
            starts = []

            def shifted(length, shift=shift):
                buffers = tuple(b[shift : shift + length] for b in original(length + shift))
                starts.extend(_address(b) % 64 for b in buffers)
                return buffers

            monkeypatch.setattr(product, "workspace", shifted)
            assert run() == want, shift
            assert set(starts) == {8 * shift}


class TestMapChunks:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("n_chunks", [0, 1, 3, 9])
    def test_results_in_chunk_order(self, threads, n_chunks):
        # chunks finish out of order; 3 chunks on 4 threads is more
        # threads than chunks
        def fn(k):
            time.sleep(0.002 * ((5 * k) % 3))
            return k * k

        assert product.map_chunks(fn, n_chunks, threads) == [k * k for k in range(n_chunks)]

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_chunk_error_reraises_in_caller_and_joins(self, where):
        # chunks 0 and 1 meet at a barrier, so each thread runs one of
        # them; then any later chunk on the chosen thread raises
        before, caller = threading.active_count(), threading.get_ident()
        barrier = threading.Barrier(2, timeout=10)
        failed = []

        def fn(k):
            if k < 2:
                barrier.wait()
            elif (threading.get_ident() == caller) == (where == "caller"):
                failed.append(k)
                raise ValueError(k)
            time.sleep(0.002)
            return k

        with pytest.raises(ValueError) as err:
            product.map_chunks(fn, 40, 2)
        assert err.value.args == (min(failed),)
        assert threading.active_count() == before


# counts this process's threads right after `import rmp`, before numpy
# prints its build configuration
_BLAS_PROBE = """
import contextlib, io, os
import rmp
import numpy as np
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
config = io.StringIO()
with contextlib.redirect_stdout(config):
    np.show_config()
print(os.environ.get("OPENBLAS_NUM_THREADS"), "openblas" in config.getvalue().lower(), tasks)
"""


def blas_probe(**env):
    """(OPENBLAS_NUM_THREADS, whether numpy names OpenBLAS, thread count or
    None) of a fresh interpreter, OPENBLAS_NUM_THREADS unset unless given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(product.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True,
                         env={**base, **env, "PYTHONPATH": src}, check=True)
    var, openblas, tasks = out.stdout.split()
    return var, openblas == "True", None if tasks == "None" else int(tasks)


class TestBlasThreads:
    def test_import_pins_one_blas_thread(self):
        # numpy's OpenBLAS would start one spinning pool thread per extra CPU
        var, openblas, tasks = blas_probe()
        assert var == "1"
        if openblas and tasks is not None:
            assert tasks == 1

    def test_user_setting_wins(self):
        assert blas_probe(OPENBLAS_NUM_THREADS="3")[0] == "3"


RANK_ONE = (
    DistributionSpec.exponential_rank_one(1.0),
    DistributionSpec.cauchy_rank_one(),
    DistributionSpec.uniform_rank_one(1.0, 2.0),  # [-1, 2]
)


class TestRankOneChain:
    """A rank-one chain draws its n - 1 unit sums in blocks of up to
    STEP_BLOCK, then its last pair."""

    @pytest.mark.parametrize("n", [1, 2, STEP_BLOCK, STEP_BLOCK + 1, 2 * STEP_BLOCK + 1])
    @pytest.mark.parametrize("spec", RANK_ONE, ids=lambda s: s.family)
    def test_block_edges_match_direct(self, spec, n):
        # n - 1 terms: none (the pair alone), one, one short of a block,
        # exactly one block and exactly two; chunk 0 against the direct
        # product of a few replayed chains, chunk 1 (on a worker at two
        # threads) against the allocating kernel
        seed, m = 31, CHAIN_CHUNK + 4
        chains = _chain_triples(spec, n, seed, CHAIN_CHUNK)
        assert all(len(ts) == n for ts in chains)
        tail = allocating_chain_chunk(spec, n, m - CHAIN_CHUNK, make_stream(seed, 1))
        for threads in (1, 2):
            got = chain_log_norms(spec, n, m, seed, threads)
            for j in (0, 61, CHAIN_CHUNK - 1):
                want = direct_log_norm(map(build_matrix, chains[j]))
                assert abs(got[j] - want) <= 1e-12 * max(1.0, abs(want)), (j, threads)
            assert np.array_equal(got[CHAIN_CHUNK:], tail), threads

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cancelling_cauchy_step_ends_at_minus_inf(self, threads, monkeypatch):
        # u = 1/2 draws the unit sum tan(0) = 0, so x + y = 0 and the
        # product is the zero matrix whatever follows: here the first
        # block's last term of chain 2 of each chunk, then a full block
        widths = chunk_sizes(CHAIN_CHUNK + 4, CHAIN_CHUNK)

        def stream(seed, k):
            u = make_stream(seed, k).random(STEP_BLOCK * widths[k])
            u[(STEP_BLOCK - 1) * widths[k] + 2] = 0.5
            return QueueStream([u])

        monkeypatch.setattr(product, "make_stream", stream)
        spec = DistributionSpec.cauchy_rank_one()
        got = chain_log_norms(spec, 2 * STEP_BLOCK + 1, sum(widths), 0, threads)
        dead = [2, CHAIN_CHUNK + 2]
        assert np.isneginf(got[dead]).all()
        assert np.isfinite(np.delete(got, dead)).all()


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

    def test_peak_memory_fits_in_l2(self):
        # a running chunk's three buffers of STEP_BLOCK * CHAIN_CHUNK
        # doubles (1.5 MiB) and its per-chain rows stay within a 2 MiB L2
        spec = DistributionSpec.exponential_rank_one(1.0)
        chain_log_norms(spec, 2, 1, seed=1)  # numpy.random's lazy imports
        tracemalloc.start()
        try:
            chain_log_norms(spec, 4 * STEP_BLOCK + 37, 2 * CHAIN_CHUNK, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20
