"""Lyapunov exponent and CLT variance estimators.

Three independent routes are provided and cross-checked against each
other.  The first two return one Estimate record of lambda, sigma^2,
C_0, C_1 and their provenance (trajectory_lambda's lambda is one too);
the closed forms return the pair (lambda, sigma^2):

* Monte Carlo over the scalar cross terms x_j = log |a_j + c_j (b_{j+1} / a_{j+1})|
  of one chain segment per chunk,
* exact enumeration for finite-support laws: O(k^2) sums over the k x k
  table T of atom-pair cross terms whose entries the MC and chain
  kernels gather (rmp.words.AtomLaw.T),
* closed forms for the solvable families (uniform / exponential /
  Cauchy rank-one and the binary two-point multiplier).

The variance of the chain is sigma^2 = C_0 + 2 C_1 where C_0, C_1 are
the lag-0 and lag-1 autocovariances of the cross-term sequence (lags
beyond 1 vanish because the sequence is 1-dependent), both centered at
lambda.  The sequence is stationary, so lambda is its mean and sigma^2
its long-run variance (Hoeffding & Robbins, Duke Math. J. 1948): one
segment gives all three.  The Monte Carlo route cuts the lag rows
(x_j, x_{j+1}) of every segment into batches of consecutive rows, each
summarised by its count and sums centered at its segment's first term
(shifted data: Chan, Golub & LeVeque, Amer. Statist. 1983), so memory
is O(SAMPLE_CHUNK).  One combine recenters the batch table at lambda,
and its full batches give the standard errors.  The rows overlap, so
those are non-overlapping batch means (Flegal & Jones, Ann. Statist.
2010) rather than i.i.d. formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# cross_terms, make_stream, map_chunks and sample_triples stay module
# attributes: perfbench/tracing.py wraps them here by name, though this
# module calls none of them
from .distributions import (
    DistributionSpec,
    cross_terms,
    make_stream,
    sample_triples,
)
from .families import FAMILIES, NoClosedFormError
from .product import (
    NEG_INF,
    SAMPLE_CHUNK,
    block_step,
    chain_log_norms,
    count_nonfinite,
    log_kappa,
    map_chunks,
    map_streams,
)


@dataclass(frozen=True)
class Estimate:
    """lambda and sigma2 = c0 + 2*c1 of one route, with provenance.

    c0, c1 are the lag-0 and lag-1 autocovariances of the cross terms,
    centred at lam.  A field the route does not estimate is None, as is
    every standard error of exact enumeration, which has n_samples 0 and
    seed None; a standard error is NaN where the estimate degenerated.
    n_samples counts lag rows (Monte Carlo) or chains (trajectory_lambda).
    minus_inf_events counts the -inf cross terms, chains or atom pairs:
    it is > 0 exactly when lam = -inf, unless a +inf or NaN one, counted
    in inf_nan_events, made lam NaN.  sigma2, c0 and c1 are then NaN.
    """

    lam: float
    sigma2: float | None
    c0: float | None
    c1: float | None
    lam_std_error: float | None = None
    sigma2_std_error: float | None = None
    c0_std_error: float | None = None
    c1_std_error: float | None = None
    n_samples: int = 0
    seed: int | None = None
    minus_inf_events: int = 0
    inf_nan_events: int = 0


# -- batch-means reducer -----------------------------------------------------

def batch_length(n_rows: int) -> int:
    """Rows per batch: 2^floor(log2 sqrt(n_rows)), at most SAMPLE_CHUNK.

    A power of two no larger than SAMPLE_CHUNK divides every full chunk,
    so batches never cross a chunk and depend on n_rows only.
    """
    return min(1 << (math.isqrt(n_rows).bit_length() - 1), SAMPLE_CHUNK)


def _batches(d: np.ndarray, n: int, p: float) -> np.ndarray:
    """Table rows (n, p, Sxx, Sxy, Sx, Sy) of the len(d) - 1 rows of the
    centred terms d, in batches of n; see _segment."""
    dx, dy = d[:-1].reshape(-1, n), d[1:].reshape(-1, n)
    Sx = np.einsum("ij->i", dx)
    sums = np.einsum("ij,ij->i", dx, dx), np.einsum("ij,ij->i", dx, dy), Sx
    return np.column_stack([np.full((Sx.size, 2), (n, p)), *sums, Sx - dx[:, 0] + dy[:, -1]])


def _segment(c: np.ndarray, L: int, buf: np.ndarray):
    """(events, batch table) of one segment's cross terms c.

    The rows are the len(c) - 1 lag pairs (c[j], c[j + 1]).  Consecutive
    runs of L rows are batches, and the last len(c) - 1 mod L rows (only
    the last chunk has any) are one shorter tail batch.  d = c - c[0]
    (into ``buf``, a spent buffer of at least len(c)); a batch's row holds
    its count n, the pivot c[0] and the sums of dx^2, dx dy, dx and dy
    over its rows (dx, dy) of d, by einsum (never BLAS, so no row depends
    on the thread).  A term that is not finite makes its batch's sums so:
    it is an event, counted in events = count_nonfinite(c), and the
    table is None, since the variance is undefined.
    """
    full = (c.size - 1) // L * L
    with np.errstate(invalid="ignore"):  # -inf - (-inf) in a failing segment
        d = np.subtract(c, c[0], out=buf[: c.size])
        table = _batches(d[: full + 1], L, c[0])
        if full < c.size - 1:
            table = np.concatenate([table, _batches(d[full:], c.size - 1 - full, c[0])])
    if np.isfinite(table).all():
        return (0, 0), table
    return count_nonfinite(c), None


def _reduce(spec: DistributionSpec, n_samples: int, seed: int, threads: int):
    """One pass over n_samples lag rows of cross terms, chunk by chunk.

    map_streams cuts the rows into chunks of SAMPLE_CHUNK.  Chunk k of
    size m draws one chain segment of m + 2 consecutive steps from its
    (seed, k) stream with the chain kernel's block step, bound into the
    segment body, which gives m + 1 cross terms and m lag rows; _segment
    cuts them into batches of batch_length(n_samples) rows.  A
    finite-support law draws words of g atoms, ceil((m + 2) / g) of them
    with the last cut to the segment, and gathers each word's terms from
    its tables (rmp.words.AtomLaw.step_rows); a rank-one law draws only
    the m + 1 unit sums t_j, and its terms log |t_j| + log |kappa| come
    without the constant, which is added once, to the pivots.
    Returns (events, table): the counts of -inf terms and of +inf or NaN
    terms, and the batch rows of every chunk in chunk order (see
    _segment), or None if any term was not finite.  Memory is
    O(SAMPLE_CHUNK) per worker whatever n_samples is.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    L = batch_length(n_samples)
    draw = block_step(spec)

    def segment(m, gen, workspace):
        # the terms land in the last buffer; the first, spent, takes d.
        # A rank-one unit sum of exactly 0 is a -inf term
        with np.errstate(divide="ignore"):
            _, _, cross = draw(m + 2, 1, gen, workspace)
        return _segment(cross.ravel(), L, workspace[0])

    parts = map_streams(seed, n_samples, SAMPLE_CHUNK, threads, segment)
    events = tuple(sum(counts) for counts in zip(*(p[0] for p in parts)))
    if any(events):
        return events, None
    table = np.concatenate([p[1] for p in parts])
    table[:, 1] += log_kappa(spec)
    return events, table


def _batch_se(v: np.ndarray) -> float:
    """Sample std of the batch values v over sqrt(len(v)).

    NaN below two batches (estimate_sigma2_mc passes no variance batches
    when a batch is one row).  Exactly 0 when every batch agrees: v is
    centred at its first value, then at the mean of what is left.
    """
    if v.size < 2:
        return float("nan")
    d = v - v[0]
    d -= d.mean()
    return math.sqrt(float((d * d).sum()) / (v.size - 1) / v.size)


# -- Monte Carlo estimators ------------------------------------------------

def estimate_sigma2_mc(
    spec: DistributionSpec, n_samples: int, seed: int = 0, threads: int = 1
) -> Estimate:
    """CLT variance, with lambda, from one pass over chain segments.

    The n_samples rows are lag pairs (x_j, x_{j+1}) of consecutive cross
    terms, see _reduce.  With lam the mean of x and dx = x - lam,
    dy = x_{j+1} - lam,

        sigma2 = c0 + 2*c1,   c0 = mean(dx^2),   c1 = mean(dx*dy),

    both centered, so a law whose sigma2 is tiny next to lam^2 keeps its
    digits.  They come from the batch table of _reduce in one combine:
    batch b has n_b rows, pivot p_b and sums centered there, and with
    d = p_b - lam

        lam = p_0 + sum [n_b (p_b - p_0) + Sx] / n,
        c0 = sum [Sxx + 2 d Sx + n_b d^2] / n,
        c1 = sum [Sxy + d (Sx + Sy) + n_b d^2] / n,

    so a constant law (all sums 0) gives lam exactly and c0 = c1 = 0.
    Standard errors are batch means: each full batch (n_b = L; the tail
    is left out) gives its own mean less p_0 (a shift that keeps its
    digits), lam_b = p_b - p_0 + e, e = Sx / L, c0_b = Sxx / L - e^2 and
    c1_b = Sxy / L - e (Sx + Sy) / L + e^2, and a standard error is the
    sample std of a batch value over sqrt(batch count).
    Below 4 rows a batch is one row, with no spread of its own, so the
    standard errors of sigma2, c0 and c1 are NaN there.

    With K chunks, each its own chain segment, Var(lam) is
    (n sigma2 - 2 K c1) / n^2, while L Var(batch mean) = sigma2 - 2 c1 / L
    for batches of L rows; so where sigma2 << |c1| the SE of lam is far
    too wide (11x at sigma2 = 1.6e-10, c1 = -1.3e-5).  Three measured
    fixes fail there: s_b^2 / B + 2 c1 (B - K) / n^2 (B batch means of
    variance s_b^2) and the plug-in (n sigma2 - 2 K c1) / n^2 are <= 0 for
    43 % and 55 % of seeds, as the noise of s_b^2 / B and of sigma2 is
    above the target; the first floored at -2 K c1 / n^2 is ~30 % wide.
    Returns an Estimate with every field set.  If any cross term cancelled
    exactly, lam is -inf, the variance and every standard error are
    undefined (NaN), and the -inf terms are counted.  A +inf or NaN term
    is a numerical failure, counted in inf_nan_events; lam is then NaN
    too.
    """
    (minus_inf, inf_nan), table = _reduce(spec, n_samples, seed, threads)
    if table is None:
        nan = float("nan")
        lam = nan if inf_nan else NEG_INF
        return Estimate(lam, nan, nan, nan, nan, nan, nan, nan,
                        n_samples, seed, minus_inf, inf_nan)

    n, L = n_samples, batch_length(n_samples)
    n_b, p, Sxx, Sxy, Sx, Sy = table.T
    lam = float(p[0] + np.sum(n_b * (p - p[0]) + Sx) / n)
    d = p - lam
    c0 = float(np.sum(Sxx + 2.0 * d * Sx + n_b * d * d)) / n
    c1 = float(np.sum(Sxy + d * (Sx + Sy) + n_b * d * d)) / n
    _, p, Sxx, Sxy, Sx, Sy = table[n_b == L].T
    e = Sx / L
    lam_b, c0_b = p - p[0] + e, Sxx / L - e * e
    c1_b = Sxy / L - e * (Sx + Sy) / L + e * e
    if L < 2:
        # a one-row batch has no spread of its own
        c0_b = c1_b = c0_b[:0]
    return Estimate(
        lam, c0 + 2.0 * c1, c0, c1,
        _batch_se(lam_b), _batch_se(c0_b + 2.0 * c1_b), _batch_se(c0_b), _batch_se(c1_b),
        n, seed,
    )


def trajectory_lambda(
    spec: DistributionSpec,
    n: int,
    n_chains: int,
    seed: int = 0,
    threads: int = 1,
) -> Estimate:
    """Lyapunov exponent as the across-chain mean of log ||S_n|| / n.

    Runs n_chains independent chains of length n (chain_log_norms); the
    almost-sure limit of log ||S_n|| / n is the exponent.  Chains whose
    product collapsed contribute -inf and are counted, and so are chains
    whose log-norm came out +inf or NaN.  The Estimate holds lam, its
    standard error over the chains and the counts; sigma2, c0 and c1 are
    None.
    """
    if n < 2:
        raise ValueError("need chain length n >= 2")
    if n_chains < 1:
        raise ValueError("need n_chains >= 1")
    per_chain = chain_log_norms(spec, n, n_chains, seed, threads) / n
    n_inf, n_inf_nan = count_nonfinite(per_chain)
    if n_inf or n_inf_nan or n_chains < 2:
        se = float("nan")
    else:
        se = float(per_chain.std(ddof=1)) / math.sqrt(n_chains)
    return Estimate(
        float(per_chain.mean()), None, None, None, lam_std_error=se,
        n_samples=n_chains, seed=seed, minus_inf_events=n_inf, inf_nan_events=n_inf_nan,
    )


# -- exact enumeration ------------------------------------------------------

def exact_discrete(spec: DistributionSpec):
    """(lambda, sigma2, Estimate) by exact enumeration of a finite support.

    Sums over AtomLaw's k x k cross-term table, see exact_moments.
    Raises NotDiscreteError for continuous families.
    """
    law = spec.atom_law
    return exact_moments(law.T, law.p)


def exact_moments(T: np.ndarray, p: np.ndarray):
    """(lambda, sigma2, Estimate) of the cross-term table T of atoms with weights p.

    With T[i, j] the cross term of atom i followed by atom j,

        lambda = p^T T p,   D = T - lambda,   c0 = p^T (D o D) p,
        c1 = sum_j p_j (p^T D)_j (D p)_j,

    since the middle atom j of a triple couples both cross terms; O(k^2)
    and exact up to float arithmetic.  D is centered before the
    p-weighted sums: m2 - lambda^2 cancels when sigma2 is tiny next to
    lambda^2.  The Estimate has no standard errors, no samples and no
    seed.  If any atom pair cancels exactly (a -inf entry), lambda =
    -inf, the variance is undefined (NaN), and minus_inf_events counts
    the -inf entries.
    """
    events, _ = count_nonfinite(T)
    if events:
        nan = float("nan")
        return NEG_INF, nan, Estimate(NEG_INF, nan, nan, nan, minus_inf_events=events)
    lam = float(p @ T @ p)
    D = T - lam
    c0 = float(p @ (D * D) @ p)
    c1 = float(((p @ D) * (D @ p)) @ p)
    sigma2 = c0 + 2.0 * c1
    return lam, sigma2, Estimate(lam, sigma2, c0, c1)


# -- closed forms ------------------------------------------------------------

def closed_form(spec: DistributionSpec):
    """(lambda, sigma2) by the family's closed form; NoClosedFormError for
    a family or parameters without one (families._uniform_closed_form)."""
    solve = FAMILIES[spec.family].closed_form
    if solve is None:
        raise NoClosedFormError(f"no closed form for family {spec.family}")
    return solve(spec)
