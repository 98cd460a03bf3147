"""Overflow-safe log-norm of products of singular 2x2 matrices.

The product S_n = Y_n ... Y_2 Y_1 of matrices Y_j = [[a_j, b_j],
[c_j, b_j*c_j/a_j]] collapses to a rank-one matrix scaled by the
product of the scalar cross terms a_j + b_{j+1} c_j / a_{j+1}.  The
accumulator tracks log |that product| plus the generators of the
rank-one remainder, so log ||S_n|| (Hilbert-Schmidt norm) is a sum of
logs and the accumulated sum never overflows.  A single cross term is
still formed in linear space: EntryTriple rejects a triple whose own
b/a or b*c/a is not finite, but the cross term of two valid triples can
overflow to inf.  A naive rescaled-multiplication oracle is kept
alongside for validating the representation.

A cross term that is exactly zero makes S_n the zero matrix; this is a
legitimate state, represented by -inf, not an error.

chain_log_norms runs many chains at once in chunks of CHAIN_CHUNK chains,
sampled STEP_BLOCK steps at a time.  Each worker thread gets one
workspace of three float64 buffers, made once per call and reused for
every block of every chunk it runs, so memory is fixed whatever the
chain length and chain count are.  For a continuous law the sampler
writes the block's triples into the workspace and the cross terms are
formed in place.  A finite-support law has only k^2 distinct cross
terms, so the call builds its k x k table of their logs once
(AtomLaw.log_cross); a block then draws atom indices (uniforms in the
first buffer, indices in the second) and gathers the table entry of
each consecutive index pair into the third, with no divide or log per
step.  Both paths give the same values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    AtomLaw,
    DistributionSpec,
    EntryTriple,
    make_stream,
    sample_triples,
)
from .parallel import chunk_sizes, map_chunks

NEG_INF = float("-inf")

# chains per stream chunk / steps per sampling block for the vectorized kernel
CHAIN_CHUNK = 128
STEP_BLOCK = 4096


@dataclass(frozen=True)
class ProductAccumulator:
    """Running state of log ||Y_n ... Y_1||.

    sum_log_terms is the accumulated log |product of cross terms|
    (-inf once any cross term vanished; the sign is never needed since
    only |.| enters the norm).  head_ratio = b_1/a_1 is fixed at the
    first absorb; tail = (a_n, c_n) generates the last column block;
    pending is the most recent triple, needed to form the next cross
    term.
    """

    n: int
    sum_log_terms: float
    head_ratio: float
    tail: tuple[float, float]
    pending: EntryTriple


def accumulator_init(xi: EntryTriple) -> ProductAccumulator:
    """State after absorbing the first matrix."""
    return ProductAccumulator(
        n=1,
        sum_log_terms=0.0,
        head_ratio=xi.b / xi.a,
        tail=(xi.a, xi.c),
        pending=xi,
    )


def accumulator_step(acc: ProductAccumulator, xi: EntryTriple) -> ProductAccumulator:
    """Absorb the next matrix on the left.

    The cross term couples the pending triple with the incoming one as
    pending.a + xi.b * pending.c / xi.a (note the asymmetry: the b
    comes from the *new* factor).  An exact zero sends the sum to -inf,
    where it stays.
    """
    cross = acc.pending.a + xi.b * acc.pending.c / xi.a
    if cross == 0.0:
        s = NEG_INF
    else:
        s = acc.sum_log_terms + math.log(abs(cross))
    return ProductAccumulator(
        n=acc.n + 1,
        sum_log_terms=s,
        head_ratio=acc.head_ratio,
        tail=(xi.a, xi.c),
        pending=xi,
    )


def log_norm(acc: ProductAccumulator) -> float:
    """log of the Hilbert-Schmidt norm of the absorbed product.

    ||S_n|| = |prod of cross terms| * sqrt((a_n^2 + c_n^2) * (1 + (b_1/a_1)^2));
    hypot keeps the tail factor overflow-safe.  Returns -inf iff the
    product collapsed to the zero matrix.
    """
    ta, tc = acc.tail
    return (
        acc.sum_log_terms
        + math.log(math.hypot(ta, tc))
        + math.log(math.hypot(1.0, acc.head_ratio))
    )


def build_matrix(xi: EntryTriple) -> np.ndarray:
    """The singular matrix [[a, b], [c, b*c/a]] generated by a triple."""
    d = xi.b * xi.c / xi.a
    return np.array([[xi.a, xi.b], [xi.c, d]])


def direct_log_norm(matrices) -> float:
    """log Hilbert-Schmidt norm of Y_n ... Y_1 by naive multiplication.

    Every step rescales by a power of two at least the max-abs entry
    (keeping entries in [-1, 1]) and accumulates the log scale, so the
    running product never overflows for any n.  Power-of-two scaling
    and explicit scalar 2x2 multiplication keep the arithmetic free of
    rescaling rounding and FMA contraction, so an exactly cancelling
    product really reaches the zero matrix.  Returns -inf in that case.
    This is the oracle the accumulator is validated against; it shares
    no code with the accumulator path.
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

    Chains are partitioned into fixed-size chunks; chunk k draws from
    the (seed, k) substream, so the result is deterministic for a given
    (spec, n, n_chains, seed) regardless of the thread count.  Chains
    whose product collapsed carry -inf.
    """
    if n < 1:
        raise ValueError("chain length must be >= 1")
    if n_chains < 1:
        raise ValueError("need at least one chain")
    sizes = chunk_sizes(n_chains, CHAIN_CHUNK)
    length = min(STEP_BLOCK, n) * sizes[0]
    free = []  # idle workspaces; there are never more than chunks run at once
    law = AtomLaw(spec) if spec.is_discrete else None
    table = law.log_cross().ravel() if law is not None else None

    def run(k: int) -> np.ndarray:
        try:
            workspace = free.pop()
        except IndexError:
            workspace = (np.empty(length), np.empty(length), np.empty(length))
        gen = make_stream(seed, k)
        try:
            if law is not None:
                return _atom_chain_chunk(law, table, n, sizes[k], gen, workspace)
            return _chain_chunk(spec, n, sizes[k], gen, workspace)
        finally:
            free.append(workspace)

    return np.concatenate(map_chunks(run, len(sizes), threads))


def _chain_chunk(spec, n, width, gen, workspace) -> np.ndarray:
    """One chunk of ``width`` chains, sampled in step blocks.

    Each block is drawn into ``workspace``, three float64 buffers of at
    least min(STEP_BLOCK, n) * width entries, and its cross terms
    overwrite all but the last row of the c buffer.  The last row is
    copied out as the carry into the next block.
    """
    sumlog = np.zeros(width)
    head_ratio = None
    prev = None  # (a, c) of the last absorbed step, shape (width,)
    done = 0
    while done < n:
        block = min(STEP_BLOCK, n - done)
        a, b, c = sample_triples(spec, block * width, gen, out=workspace)
        A = a.reshape(block, width)
        B = b.reshape(block, width)
        C = c.reshape(block, width)
        if prev is None:
            head_ratio = B[0] / A[0]
        else:
            pa, pc = prev
            with np.errstate(divide="ignore"):
                sumlog += np.log(np.abs(pa + B[0] * pc / A[0]))
        prev = (A[-1].copy(), C[-1].copy())
        if block > 1:
            # log |A[:-1] + B[1:] * C[:-1] / A[1:]|, written over C[:-1]
            cross = C[:-1]
            np.multiply(B[1:], cross, out=cross)
            np.divide(cross, A[1:], out=cross)
            np.add(A[:-1], cross, out=cross)
            np.abs(cross, out=cross)
            with np.errstate(divide="ignore"):
                np.log(cross, out=cross)
            sumlog += cross.sum(axis=0)
        done += block
    pa, pc = prev
    return sumlog + np.log(np.hypot(pa, pc)) + np.log(np.hypot(1.0, head_ratio))


def _atom_chain_chunk(law, table, n, width, gen, workspace) -> np.ndarray:
    """_chain_chunk for a finite-support law, by atom index.

    ``table`` is law.log_cross() flattened, so the cross term of atom i
    followed by atom j is table[i * k + j].  Each block draws its atom
    indices into ``workspace`` (uniforms in the first buffer, indices in
    the second, search scratch in the third), then forms the index pairs
    of consecutive steps over the spent uniforms and gathers their cross
    terms into the third buffer.  The last row of indices is copied out
    as the carry into the next block; the head ratio and the tail come
    from the atom table.
    """
    k = law.k
    u_buf, idx_buf, cross_buf = workspace
    sumlog = np.zeros(width)
    first = prev = None  # atom indices of the first / last absorbed step
    done = 0
    while done < n:
        block = min(STEP_BLOCK, n - done)
        size = block * width
        idx = law.indices(size, gen, out=(u_buf, idx_buf.view(np.intp), cross_buf))
        steps = idx.reshape(block, width)
        if prev is None:
            first = steps[0].copy()
        else:
            sumlog += table[prev * k + steps[0]]
        prev = steps[-1].copy()
        if block > 1:
            pairs = u_buf[: size - width].view(np.intp).reshape(block - 1, width)
            np.multiply(steps[:-1], k, out=pairs)
            np.add(pairs, steps[1:], out=pairs)
            cross = cross_buf[: size - width].reshape(block - 1, width)
            np.take(table, pairs, out=cross, mode="clip")
            sumlog += cross.sum(axis=0)
        done += block
    a, b, c = law.atoms.T
    head_ratio = b[first] / a[first]
    return sumlog + np.log(np.hypot(a[prev], c[prev])) + np.log(np.hypot(1.0, head_ratio))
