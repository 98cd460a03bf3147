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
reducer, run their chunks through one function, map_streams, each with
a body that brings its law's block step.  Chunks do not depend on the
worker count, chunk k draws from the (seed, k) stream and results merge
in chunk order, so any thread count gives bit-identical output.
map_chunks runs the chunks on plain threads, the caller among them, that
take chunk indices from one counter.  A running chunk borrows one of the
call's workspaces of three float64 buffers of WORKSPACE doubles, so
memory is fixed whatever the chain length, chain count or sample count
are.  Each buffer starts on a 64-byte cache line (workspace), so every
elementwise pass of a block step streams whole lines.

chain_log_norms runs many chains at once in chunks of CHAIN_CHUNK chains,
one block at a time: _rank_one_chunk for a rank-one law, _chain_chunk
for every other law.  A block is STEP_BLOCK steps of a continuous law
and STEP_BLOCK words of g steps of a finite-support law (AtomLaw.g,
below), so a block step holds STEP_BLOCK *
CHAIN_CHUNK = 65 536 entries per buffer either way.  The three buffers
of a running chunk then take 1.5 MiB and fit in a 2 MiB L2, where every
elementwise pass of the block step reads and writes, and each numpy
call of the step works on 65 536 elements, enough for a second thread
to pay.  A Monte Carlo chunk is one segment of m + 2 steps at width 1,
m <= SAMPLE_CHUNK.  Only the block step depends on the law: a rank-one law
draws one unit sum per term (_rank_one_block) and a chain the pair of
its last step once, after its last block; another continuous law
samples the block's triples and forms the cross terms in place, and a
finite-support law gathers them from tables built once per law, with no
divide or log per step: its rmp.words.AtomLaw holds those tables, its
word length g and its two block steps, AtomLaw.block for a chain and
AtomLaw.step_rows for a Monte Carlo segment (see rmp.words).
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .distributions import (
    DistributionSpec,
    EntryTriple,
    cross_terms,
    make_stream,
    sample_triples,
    sample_units,
)
from .families import FAMILIES

NEG_INF = float("-inf")
LOG2 = math.log(2.0)

# chains per stream chunk / steps (a finite-support law's words) per
# sampling block for the vectorized kernel: three buffers of
# STEP_BLOCK * CHAIN_CHUNK doubles are 1.5 MiB
CHAIN_CHUNK = 128
STEP_BLOCK = 512
# lag rows per Monte Carlo chunk, one segment of SAMPLE_CHUNK + 2 steps
SAMPLE_CHUNK = 1 << 16
# doubles per workspace buffer (65 544): the longest prefix that a block
# step writes, a chain block or a Monte Carlo segment, rounded up to
# whole words of at most MAX_WORD_LENGTH steps (words.MAX_WORD_LENGTH;
# only a finite-support spec loads rmp.words), whole 64-byte lines too
MAX_WORD_LENGTH = 8
_LONGEST = max(STEP_BLOCK * CHAIN_CHUNK, SAMPLE_CHUNK + 2)
WORKSPACE = -(-_LONGEST // MAX_WORD_LENGTH) * MAX_WORD_LENGTH


def build_matrix(xi: EntryTriple) -> np.ndarray:
    """The singular matrix [[a, b], [c, c*(b/a)]] generated by a triple."""
    d = xi.c * (xi.b / xi.a)
    return np.array([[xi.a, xi.b], [xi.c, d]])


def direct_log_norm(matrices) -> float:
    """log Hilbert-Schmidt norm of Y_n ... Y_1 by naive multiplication.

    Every step rescales by a power of two 2^e at least the max-abs entry
    (keeping entries in [-1, 1]) and accumulates e log 2, so the running
    product never overflows for any n, nor does a step (one with an entry
    above 2^1022 is scaled by 1/4 first).  Power-of-two scaling and
    explicit scalar 2x2 multiplication keep the arithmetic free of
    rescaling rounding and FMA contraction; an entry still rounds, so an
    exactly zero product may come out ~2 n eps prod ||Y_j||, not -inf.
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
        frac, e = math.frexp(top)  # top = frac * 2**e, frac in [0.5, 1)
        if frac == 0.5:
            e -= 1
        return [[math.ldexp(v, -e) for v in row] for row in s], total + e * LOG2

    s, total = rescale(s, total)
    if s is None:
        return NEG_INF
    for m in matrices[1:]:
        m = np.asarray(m, dtype=float)
        y = [[float(m[0, 0]), float(m[0, 1])], [float(m[1, 0]), float(m[1, 1])]]
        if max(abs(v) for row in y for v in row) > 2.0**1022:
            y, total = [[v * 0.25 for v in row] for row in y], total + 2.0 * LOG2
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


def count_nonfinite(x: np.ndarray):
    """(-inf entries, +inf or NaN entries) of x: every route's
    minus_inf_events and inf_nan_events."""
    minus_inf = int(np.count_nonzero(np.isneginf(x)))
    return minus_inf, x.size - minus_inf - int(np.count_nonzero(np.isfinite(x)))


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
    through _chain_chunk (or _rank_one_chunk), bound to the law's
    grouped block step, on its (seed, k) stream, so the result is
    deterministic for a given (spec, n, n_chains, seed) regardless of
    the thread count.  A block of a finite-support law is up to
    STEP_BLOCK words of g steps, and its step needs one entry per word,
    so a chunk's workspace serves g times the steps.  Chains whose
    product collapsed carry -inf.
    """
    if n < 1:
        raise ValueError("chain length must be >= 1")
    if n_chains < 1:
        raise ValueError("need at least one chain")
    draw = block_step(spec, grouped=True)
    if spec.is_rank_one:
        body = functools.partial(_rank_one_chunk, spec, n, draw)
    else:
        g = spec.atom_law.g if spec.is_discrete else 1
        body = functools.partial(_chain_chunk, n, g, draw)
    return np.concatenate(map_streams(seed, n_chains, CHAIN_CHUNK, threads, body))


def map_streams(seed, total, chunk, threads, body):
    """[body(size_k, make_stream(seed, k), workspace) for each chunk k].

    ``total`` items are cut into chunks of ``chunk``; the results come in
    chunk order whatever ``threads`` is.  body brings its own draw, the
    law's block step.  workspace is three float64 buffers of WORKSPACE
    doubles, each on a cache line (workspace), from a free list of the
    call, made on first need: one per chunk running at once.
    """
    sizes = chunk_sizes(total, chunk)
    free = []

    def run(k: int):
        try:
            buffers = free.pop()
        except IndexError:
            buffers = workspace()
        try:
            return body(sizes[k], make_stream(seed, k), buffers)
        finally:
            free.append(buffers)

    return map_chunks(run, len(sizes), threads)


def workspace():
    """Three float64 buffers of WORKSPACE doubles, each starting on a
    64-byte cache line.

    np.empty puts a large array 16 bytes past a page, and then every
    64-byte vector load of a pass over it straddles two lines.  So the
    buffers are slices of one array, over-allocated by 7 doubles and cut
    at whole lines (WORKSPACE is a whole number of them).  No value
    depends on where a buffer starts.
    """
    raw = np.empty(3 * WORKSPACE + 7)
    start = (-raw.__array_interface__["data"][0] % 64) // 8
    return tuple(raw[start + i * WORKSPACE : start + (i + 1) * WORKSPACE] for i in range(3))


def chunk_sizes(total: int, chunk: int):
    """Sizes of consecutive chunks covering ``total`` items."""
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def map_chunks(fn, n_chunks: int, threads: int = 1):
    """Apply fn(0..n_chunks-1), returning results in chunk order.

    The calling thread and min(threads, n_chunks) - 1 worker threads
    (none at one thread or one chunk) take chunk indices in order from
    one counter under a lock and store each result at its index.  A
    chunk that raises stops the others from taking new chunks; once all
    are joined, the error of the lowest failing chunk is raised, the one
    a run in chunk order would meet first.
    """
    results = [None] * n_chunks
    errors = []
    lock = threading.Lock()
    taken = 0

    def work():
        nonlocal taken
        while True:
            with lock:
                if errors or taken == n_chunks:
                    return
                k, taken = taken, taken + 1
            try:
                results[k] = fn(k)
            except BaseException as e:  # also KeyboardInterrupt on the caller
                with lock:
                    errors.append((k, e))
                return

    workers = [
        threading.Thread(target=work, daemon=True) for _ in range(min(threads, n_chunks) - 1)
    ]
    for w in workers:
        w.start()
    work()
    for w in workers:
        w.join()
    if errors:
        raise min(errors, key=lambda ke: ke[0])[1]
    return results


def block_step(spec: DistributionSpec, grouped: bool = False):
    """The law's draw(block, width, gen, workspace), which a chunk body binds.

    For a finite-support law, its AtomLaw's step_rows, or with
    ``grouped`` its block; _rank_one_block for a rank-one law
    (``grouped``: in its family's groups); _sampled_block otherwise.
    Ungrouped, every step's term (less log_kappa) is a row, and at
    width 1 a block is one chain segment of ``block`` steps and its
    block - 1 cross terms; grouped, only the rows' column sums are the
    block's.  Ungrouped, the terms land in the third buffer and the
    first is left spent, so a caller may reuse it.  A rank-one block
    draws only the unit sums of its terms, and its caller holds
    np.errstate(divide="ignore") for their logs.
    """
    if spec.is_discrete:
        law = spec.atom_law
        return law.block if grouped else law.step_rows
    if spec.is_rank_one:
        group = FAMILIES[spec.family].group if grouped else None
        return functools.partial(_rank_one_block, spec, group)
    return functools.partial(_sampled_block, spec)


def log_kappa(spec: DistributionSpec) -> float:
    """log |kappa| of a rank-one law (terms log |t| + log |kappa|), else 0."""
    return math.log(abs(FAMILIES[spec.family].scale(spec))) if spec.is_rank_one else 0.0


def _chain_chunk(n, g, draw, width, gen, workspace) -> np.ndarray:
    """One chunk of ``width`` chains of a law that is not rank-one (those
    take _rank_one_chunk), in blocks of up to STEP_BLOCK words of ``g``
    steps (AtomLaw.g; a continuous law's word is one step).

    A block is min(STEP_BLOCK g, rest) steps rounded down to whole words;
    only a chain's final run of fewer than g steps is no whole word.
    draw(block, width, gen, workspace), the law's grouped block step,
    fills ``workspace``, three float64 buffers of WORKSPACE doubles (the
    1.5 MiB that a block at width CHAIN_CHUNK writes stay in a 2 MiB L2),
    with the next ``block`` steps: a whole-word block takes one entry per
    word and chain, a final cut word g.  It returns the (a, b, c) rows
    of the first and the last step, and rows whose column sums are those
    of the block's (block - 1) x width cross terms.  Only a and b of the
    first row are read; the last row is a copy, the carry into the next
    block.
    """
    sumlog = np.zeros(width)
    head_ratio = None
    prev = None  # (a, b, c) of the last absorbed step, each of shape (width,)
    done = 0
    while done < n:
        rest = n - done
        block = rest if rest < g else min(STEP_BLOCK, rest // g) * g
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


def _rank_one_chunk(spec, n, draw, width, gen, workspace) -> np.ndarray:
    """One chunk of ``width`` chains of a rank-one law.

    Every head ratio x/x is exactly 1, so step j's cross term is
    log |x_j + y_j| = log |t_j| + log |kappa| and

        log ||S_n|| = sum_{j < n} log |t_j| + (n - 1) log |kappa|
                      + log hypot(x_n, y_n) + log hypot(1, 1).

    The chunk draws the n - 1 unit sums in blocks of up to STEP_BLOCK
    steps per chain into ``workspace`` (draw, grouped: a block of b + 1
    steps gives b terms) and adds each block's column sums.  Only then
    does it draw the last step's pair (x_n, y_n), once, and add the
    constants.  One errstate covers the chunk: an exact t = 0, a
    cancelling step, sends its chain to -inf.
    """
    sumlog = np.zeros(width)
    with np.errstate(divide="ignore"):
        for done in range(0, n - 1, STEP_BLOCK):
            terms = min(STEP_BLOCK, n - 1 - done)
            _, _, rows = draw(terms + 1, width, gen, workspace)
            sumlog += rows.sum(axis=0)
        x, _, y = sample_triples(spec, width, gen)
        sumlog += (n - 1) * log_kappa(spec) + 0.5 * LOG2  # log hypot(1, 1)
        return sumlog + np.log(np.hypot(x, y))


def _rank_one_block(spec, group, block, width, gen, workspace):
    """Unit sums of a block's first block - 1 steps, and no triple.

    The head ratio x/x is exactly 1, so step j's cross term is
    log |x_j + y_j| = log |t_j| + log |kappa|.  The unit sums land in the
    third buffer (the first holds the second uniforms).  The block's
    last step is drawn by no one: its pair is read by no term of the
    block, and a chain draws only its own last pair (_rank_one_chunk).
    So no first or last row is returned, only the term rows.

    With ``group`` None every row is a term less log |kappa|, which the
    Monte Carlo segment adds once.  A chain needs only column sums:
    log2(group) halvings multiply rows [0, r - h) by rows [h, r) in place
    (h = ceil(r / 2); contiguous, so one pass each), leaving products of
    at most ``group`` unit sums, normal by the family's unit_bound (or 0
    after a cancelling step); one log each, without log |kappa|.  The
    caller holds np.errstate(divide="ignore").
    """
    t = sample_units(spec, (block - 1) * width, gen, out=(workspace[2], workspace[0]))
    rows = t.reshape(block - 1, width)
    g = group or 1
    while g > 1 and len(rows) > 1:
        r, h = len(rows), (len(rows) + 1) // 2
        np.multiply(rows[: r - h], rows[h:], out=rows[: r - h])
        rows, g = rows[:h], g // 2
    np.abs(rows, out=rows)
    np.log(rows, out=rows)
    return None, None, rows


def _sampled_block(spec, block, width, gen, workspace):
    """Sampled triples of a continuous law that is not rank-one; their
    cross terms overwrite all but the last row of c (in the third
    buffer), and their head ratios b's rows after the first.
    """
    a, b, c = sample_triples(spec, block * width, gen, out=workspace)
    A, B, C = (x.reshape(block, width) for x in (a, b, c))
    last = (A[-1].copy(), B[-1].copy(), C[-1].copy())
    t1, t2 = (A[:-1], None, C[:-1]), (A[1:], B[1:], None)
    cross_terms(t1, t2, out=C[:-1], ratio=B[1:])
    return (A[0], B[0], C[0]), last, C[:-1]
