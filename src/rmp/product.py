"""Overflow-safe log-norm of products of singular 2x2 matrices.

The product S_n = Y_n ... Y_2 Y_1 of matrices Y_j = [[a_j, b_j],
[c_j, c_j*(b_j/a_j)]] collapses to a rank-one matrix scaled by the
product of the scalar cross terms a_j + c_j (b_{j+1} / a_{j+1}), defined
once in distributions.cross_terms.  Its Hilbert-Schmidt norm is

    ||S_n|| = |prod of cross terms| * hypot(a_n, c_n) * hypot(1, b_1/a_1),

so log ||S_n|| is a sum of logs and the sum never overflows.  A single
cross term is still formed in linear space, in head-ratio order: the
ratio b_{j+1}/a_{j+1} first, then c_j times it, then the sum.  For a
rank-one law the ratio x/x is exactly 1, so its term is log |x_j + y_j|
and only that sum can overflow.  A finite-support law is rejected at
validation if one of its atom pairs gives a cross term that is not
finite, but two draws of a continuous law with extreme support can
still overflow to inf.  direct_log_norm, a naive rescaled
multiplication that shares no code with the kernel, validates it.

A cross term that is exactly zero makes S_n the zero matrix; this is a
legitimate state, represented by -inf, not an error.

Both sampled routes, chain_log_norms and the estimators' Monte Carlo
reducer, run their chunks through one function, map_streams.  Chunks do
not depend on the worker count, chunk k draws from the (seed, k) stream
and results merge in chunk order, so any thread count gives
bit-identical output.  A running chunk borrows one of the call's
workspaces of three float64 buffers, so memory is fixed whatever the
chain length, chain count or sample count are.

chain_log_norms runs many chains at once in chunks of CHAIN_CHUNK chains,
STEP_BLOCK steps at a time, in one kernel for every law.  A block is
sized so that its workspace stays in cache: STEP_BLOCK * CHAIN_CHUNK =
65 536 steps, so the three buffers of a running chunk take 1.5 MiB and
fit in a 2 MiB L2, where every elementwise pass of the block step then
reads and writes.  The Monte Carlo route sizes its own block (a segment
of m + 2 steps at width 1, m <= SAMPLE_CHUNK) and does not depend on
STEP_BLOCK.  Only the block step depends on the law.  A rank-one law,
whose cross term log |x_j + y_j| depends on step j alone, draws one sum
s_j = x_j + y_j per step (distributions.sample_sums) and takes log |s_j|,
with no divide or multiply; only the last step of a block is drawn as a
pair (x, y), the carry into the next block and a chain's tail.  Another
continuous law samples the block's triples into the workspace and forms
the cross terms in place.  A finite-support law draws atom indices and
gathers the cross term of each consecutive index pair (AtomLaw.cross),
with no divide or log per step, the values of sampled triples bit for
bit.  The Monte Carlo estimators draw their chain segments through the
same block step (block_step) at width 1.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .distributions import (
    DistributionSpec,
    EntryTriple,
    cross_terms,
    make_stream,
    sample_sums,
    sample_triples,
)

NEG_INF = float("-inf")

# chains per stream chunk / steps per sampling block for the vectorized
# kernel: three buffers of STEP_BLOCK * CHAIN_CHUNK doubles are 1.5 MiB
CHAIN_CHUNK = 128
STEP_BLOCK = 512


def build_matrix(xi: EntryTriple) -> np.ndarray:
    """The singular matrix [[a, b], [c, c*(b/a)]] generated by a triple."""
    d = xi.c * (xi.b / xi.a)
    return np.array([[xi.a, xi.b], [xi.c, d]])


def direct_log_norm(matrices) -> float:
    """log Hilbert-Schmidt norm of Y_n ... Y_1 by naive multiplication.

    Every step rescales by a power of two at least the max-abs entry
    (keeping entries in [-1, 1]) and accumulates the log scale, so the
    running product never overflows for any n.  Power-of-two scaling
    and explicit scalar 2x2 multiplication keep the arithmetic free of
    rescaling rounding and FMA contraction, so an exactly cancelling
    product really reaches the zero matrix.  Returns -inf in that case.
    This is the oracle chain_log_norms is validated against; it shares
    no code with the kernel.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    total = 0.0
    m = np.asarray(matrices[0], dtype=float)
    s = [[float(m[0, 0]), float(m[0, 1])], [float(m[1, 0]), float(m[1, 1])]]

    def rescale(s, total):
        top = max(abs(v) for row in s for v in row)
        if top == 0.0:
            return None, total
        scale = _pow2_at_least(top)
        return [[v / scale for v in row] for row in s], total + math.log(scale)

    s, total = rescale(s, total)
    if s is None:
        return NEG_INF
    for m in matrices[1:]:
        m = np.asarray(m, dtype=float)
        y = [[float(m[0, 0]), float(m[0, 1])], [float(m[1, 0]), float(m[1, 1])]]
        s = [
            [
                y[0][0] * s[0][0] + y[0][1] * s[1][0],
                y[0][0] * s[0][1] + y[0][1] * s[1][1],
            ],
            [
                y[1][0] * s[0][0] + y[1][1] * s[1][0],
                y[1][0] * s[0][1] + y[1][1] * s[1][1],
            ],
        ]
        s, total = rescale(s, total)
        if s is None:
            return NEG_INF
    sq = sum(v * v for row in s for v in row)
    return total + 0.5 * math.log(sq)


def _pow2_at_least(x: float) -> float:
    """Smallest power of two >= x, for finite x > 0."""
    frac, exp = math.frexp(x)  # x = frac * 2**exp, frac in [0.5, 1)
    return math.ldexp(1.0, exp - 1) if frac == 0.5 else math.ldexp(1.0, exp)


# -- vectorized many-chain kernel -----------------------------------------

def chain_log_norms(
    spec: DistributionSpec,
    n: int,
    n_chains: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """log ||S_n|| for n_chains independent chains of length n.

    Chains are cut into chunks of CHAIN_CHUNK; map_streams runs each
    through _chain_chunk on its (seed, k) stream, so the result is
    deterministic for a given (spec, n, n_chains, seed) regardless of
    the thread count.  Each running chunk's workspace is three buffers
    of min(STEP_BLOCK, n) * min(CHAIN_CHUNK, n_chains) doubles, at most
    1.5 MiB, which fit in a 2 MiB L2.  Chains whose product collapsed
    carry -inf.
    """
    if n < 1:
        raise ValueError("chain length must be >= 1")
    if n_chains < 1:
        raise ValueError("need at least one chain")
    body = functools.partial(_chain_chunk, n)
    length = min(STEP_BLOCK, n) * min(CHAIN_CHUNK, n_chains)
    parts = map_streams(spec, seed, n_chains, CHAIN_CHUNK, length, threads, body)
    return np.concatenate(parts)


def map_streams(spec, seed, total, chunk, length, threads, body):
    """[body(draw, size_k, make_stream(seed, k), workspace) for each chunk k].

    ``total`` items are cut into chunks of ``chunk``; the results come in
    chunk order whatever ``threads`` is.  draw is the law's block_step.
    workspace is three float64 buffers of ``length`` from a free list of
    the call, made on first need: one per chunk running at once.
    """
    sizes = chunk_sizes(total, chunk)
    draw = block_step(spec)
    free = []

    def run(k: int):
        try:
            workspace = free.pop()
        except IndexError:
            workspace = (np.empty(length), np.empty(length), np.empty(length))
        try:
            return body(draw, sizes[k], make_stream(seed, k), workspace)
        finally:
            free.append(workspace)

    return map_chunks(run, len(sizes), threads)


def chunk_sizes(total: int, chunk: int):
    """Sizes of consecutive chunks covering ``total`` items."""
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def map_chunks(fn, n_chunks: int, threads: int = 1):
    """Apply fn(0..n_chunks-1), returning results in chunk order."""
    if threads <= 1 or n_chunks <= 1:
        return [fn(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=min(threads, n_chunks)) as ex:
        return list(ex.map(fn, range(n_chunks)))


def block_step(spec: DistributionSpec):
    """The law's draw(block, width, gen, workspace), as map_streams passes it.

    _atom_block on the spec's AtomLaw for a finite-support law,
    _sampled_block otherwise.  At width 1 a block is one chain segment
    of ``block`` consecutive steps and its block - 1 cross terms.  Both
    write the cross terms into the third workspace buffer, so a caller
    that reads neither returned row may reuse the first two.
    """
    if spec.is_discrete:
        return functools.partial(_atom_block, spec.atom_law)
    return functools.partial(_sampled_block, spec)


def _chain_chunk(n, draw, width, gen, workspace) -> np.ndarray:
    """One chunk of ``width`` chains, in step blocks.

    draw(block, width, gen, workspace) fills ``workspace``, three float64
    buffers of at least min(STEP_BLOCK, n) * width entries, with the next
    ``block`` steps, each entry drawn over the whole block in turn (a
    rank-one law draws the sums of its first block - 1 steps, then the
    x's and y's of the last).  At width
    CHAIN_CHUNK the buffers take 1.5 MiB and stay in a 2 MiB L2 through
    all passes of the block step.  It returns the (a, b, c) rows of the
    first and the last step, and the (block - 1) x width cross terms
    within the block.  Only a and b of the first row are read; the last
    row is a copy, the carry into the next block.  A rank-one chain of n
    steps is thus the sum of log |s_j| over j < n (at a block's end s_j is
    x + y of the drawn pair), plus log hypot(x_n, y_n) + log hypot(1, 1).
    """
    sumlog = np.zeros(width)
    head_ratio = None
    prev = None  # (a, b, c) of the last absorbed step, each of shape (width,)
    done = 0
    while done < n:
        block = min(STEP_BLOCK, n - done)
        first, last, cross = draw(block, width, gen, workspace)
        if prev is None:
            head_ratio = first[1] / first[0]
        else:
            sumlog += cross_terms(prev, first)
        prev = last
        if block > 1:
            sumlog += cross.sum(axis=0)
        done += block
    pa, _, pc = prev
    return sumlog + np.log(np.hypot(pa, pc)) + np.log(np.hypot(1.0, head_ratio))


def _sampled_block(spec, block, width, gen, workspace):
    """Sampled steps; the cross terms land in the third buffer.

    A rank-one law's head ratio x/x is exactly 1, so the cross term of
    step j is log |x_j + y_j|, a function of that step's sum alone.  Its
    block draws the sums of its first block - 1 steps (sample_sums) into
    the third buffer, the first holding the second uniforms, and takes
    log |s| in place; then the (x, x, y) rows of its last step, fresh
    from sample_triples.  That row is the carry, whose x + y is the term
    into the next block and, at a chain's end, whose (x, y) give the
    tail; it also serves as the first row, of which only the head ratio
    1 is read.  Other laws sample the block's triples; their cross terms
    overwrite all but the last row of c, and their head ratios b's rows
    after the first.
    """
    if spec.is_rank_one:
        m = (block - 1) * width
        s = sample_sums(spec, m, gen, out=(workspace[2], workspace[0]))
        last = sample_triples(spec, width, gen)
        np.abs(s, out=s)
        with np.errstate(divide="ignore"):
            np.log(s, out=s)
        return last, last, s.reshape(block - 1, width)
    a, b, c = sample_triples(spec, block * width, gen, out=workspace)
    A, B, C = (x.reshape(block, width) for x in (a, b, c))
    last = (A[-1].copy(), B[-1].copy(), C[-1].copy())
    t1, t2 = (A[:-1], None, C[:-1]), (A[1:], B[1:], None)
    cross_terms(t1, t2, out=C[:-1], ratio=B[1:])
    return (A[0], B[0], C[0]), last, C[:-1]


def _atom_block(law, block, width, gen, workspace):
    """Atom indices (uniforms in the first buffer, indices in the second),
    then the cross terms of consecutive steps gathered into the third, with
    their table positions over the spent uniforms.
    """
    u_buf, idx_buf, cross_buf = workspace
    idx = law.indices(block * width, gen, out=(u_buf, idx_buf.view(np.intp), cross_buf))
    steps = idx.reshape(block, width)
    m, shape = (block - 1) * width, (block - 1, width)
    pairs = u_buf[:m].view(np.intp).reshape(shape)
    cross = law.cross(steps[:-1], steps[1:], cross_buf[:m].reshape(shape), pairs)
    return law.atoms[steps[0]].T, law.atoms[steps[-1]].T, cross
