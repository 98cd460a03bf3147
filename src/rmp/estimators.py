"""Lyapunov exponent and CLT variance estimators.

Three independent routes are provided and cross-checked against each
other:

* Monte Carlo over the scalar cross terms x_j = log |a_j + c_j (b_{j+1} / a_{j+1})|
  of one chain segment per chunk,
* exact enumeration for finite-support laws: O(k^2) sums over the k x k
  table of atom-pair cross terms that the MC and chain kernels gather
  from (AtomLaw.log_cross),
* closed forms for the solvable families (uniform / exponential /
  Cauchy rank-one and the binary two-point multiplier).

The variance of the chain is sigma^2 = C_0 + 2 C_1 where C_0, C_1 are
the lag-0 and lag-1 autocovariances of the cross-term sequence (lags
beyond 1 vanish because the sequence is 1-dependent), both centered at
lambda.  The sequence is stationary, so lambda is its mean and sigma^2
its long-run variance (Hoeffding & Robbins, Duke Math. J. 1948): one
segment gives all three.  The Monte Carlo route cuts the lag rows
(x_j, x_{j+1}) of every segment into batches of consecutive rows, each
summarised by its count, mean and sums centered at that mean, so memory
is O(SAMPLE_CHUNK).  The batch table is the only summary: one combine
recenters it at lambda for the estimates, and its full batches give the
standard errors.  The rows overlap, so those are non-overlapping batch
means (Flegal & Jones, Ann. Statist. 2010) rather than i.i.d. formulas.
"""

from __future__ import annotations

import math
import time
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
from .product import NEG_INF, chain_log_norms, map_chunks, map_streams

SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with provenance.

    std_error is None on exact (non-Monte-Carlo) paths and NaN when the
    estimate degenerated (non-finite samples).  n_samples counts cross
    terms (lag rows) on the Monte Carlo route; minus_inf_events counts
    cross terms (or chains) that vanished exactly, and inf_nan_events
    those that came out +inf or NaN, a numerical failure: the value is
    then NaN.
    """

    value: float
    std_error: float | None
    n_samples: int
    seed: int
    minus_inf_events: int = 0
    inf_nan_events: int = 0
    wall_time_s: float = 0.0


@dataclass(frozen=True)
class CovarianceLadder:
    """Autocovariances (c0, c1) of the cross-term sequence and the mean.

    sigma2 reconstructs the CLT variance as c0 + 2*c1 (lag >= 2 terms
    are identically zero by 1-dependence).  Standard errors (of c0, c1
    and of lam) are filled on the Monte Carlo path only.
    minus_inf_events counts the -inf cross terms the ladder was made
    from: sampled terms on the Monte Carlo path, ordered atom pairs of
    the table in exact enumeration.  It is > 0 exactly when lam = -inf,
    unless a +inf or NaN term made lam NaN.
    """

    c0: float
    c1: float
    lam: float
    c0_std_error: float | None = None
    c1_std_error: float | None = None
    lam_std_error: float | None = None
    minus_inf_events: int = 0

    @property
    def sigma2(self) -> float:
        return self.c0 + 2.0 * self.c1


# -- batch-means reducer -----------------------------------------------------

def _mean(xs: np.ndarray):
    """Mean along the last axis; exact (not just to rounding) for a constant row."""
    lo, hi = xs.min(axis=-1), xs.max(axis=-1)
    return np.where(lo == hi, lo, xs.mean(axis=-1))


def _summary(x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Batch sums of the rows (x, y): one (n, m, Sxx, Sxy, Sx, Sy) per batch.

    The last axis holds a batch's n rows and leading axes index batches.
    m = _mean(x), and with dx = x - m, dy = y - m the sums are
    Sxx = sum dx^2, Sxy = sum dx dy, Sx = sum dx and Sy = sum dy.  x and
    y are not written, so they may overlap.  ``out`` is an optional pair
    of float64 buffers, each at least x.size long and apart from x and
    y, that receive dx and dy instead of fresh arrays.  The sums run in
    einsum's own loops (never BLAS), so a row does not depend on the
    thread that computed it.
    """
    m = _mean(x)

    def centered(v, buf):
        dest = None if buf is None else buf[: v.size].reshape(v.shape)
        return np.subtract(v, m[..., None], out=dest)

    dx, dy = map(centered, (x, y), (None, None) if out is None else out)
    sums = (
        np.einsum("...k,...k->...", dx, dx),
        np.einsum("...k,...k->...", dx, dy),
        np.einsum("...k->...", dx),
        np.einsum("...k->...", dy),
    )
    return np.stack([np.full(m.shape, float(x.shape[-1])), m, *sums], axis=-1)


def batch_length(n_rows: int) -> int:
    """Rows per batch: 2^floor(log2 sqrt(n_rows)), at most SAMPLE_CHUNK.

    A power of two no larger than SAMPLE_CHUNK divides every full chunk,
    so batches never cross a chunk and depend on n_rows only.
    """
    return min(1 << (math.isqrt(n_rows).bit_length() - 1), SAMPLE_CHUNK)


def _segment(c: np.ndarray, L: int, out=None):
    """(events, batch table) of one segment's cross terms c.

    The rows are the len(c) - 1 lag pairs (c[j], c[j + 1]).  Consecutive
    runs of L rows are batches, and the last len(c) - 1 mod L rows (only
    the last chunk has any) are one shorter tail batch; the table holds
    their _summary rows in order.  A term that is not finite is an
    event, counted in events = (-inf terms, +inf or NaN terms), and then
    only the counts are returned (the table is None), since the variance
    is undefined.  ``out`` is _summary's optional pair of scratch buffers.
    """
    finite = np.isfinite(c)
    if not finite.all():
        minus_inf = int(np.count_nonzero(c == NEG_INF))
        return (minus_inf, c.size - minus_inf - int(np.count_nonzero(finite))), None
    x, y = c[:-1], c[1:]
    rows = x.size // L * L
    table = _summary(x[:rows].reshape(-1, L), y[:rows].reshape(-1, L), out)
    if rows < x.size:
        table = np.concatenate([table, _summary(x[None, rows:], y[None, rows:], out)])
    return (0, 0), table


def _reduce(spec: DistributionSpec, n_samples: int, seed: int, threads: int):
    """One pass over n_samples lag rows of cross terms, chunk by chunk.

    map_streams cuts the rows into chunks of SAMPLE_CHUNK.  Chunk k of
    size m draws one chain segment of m + 2 consecutive steps from its
    (seed, k) stream with the chain kernel's block step, which gives
    m + 1 cross terms and m lag rows; _segment cuts them into batches of
    batch_length(n_samples) rows.  A finite-support law draws atom
    indices and gathers its cross terms from AtomLaw's table, the same
    values bit for bit; a rank-one law draws the m + 1 unit sums t_j whose
    log |t_j| + log |kappa| are the terms, one each (map_streams' per-term
    block step), and a last pair that no term reads.
    Returns (events, table): the counts of -inf terms and of +inf or NaN
    terms, and the batch rows of every chunk in chunk order (see
    _summary), or None if any term was not finite.  Memory is
    O(SAMPLE_CHUNK) per worker whatever n_samples is.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    L = batch_length(n_samples)

    def segment(draw, m, gen, workspace):
        # the cross terms land in the last buffer; the other two are
        # spent draws, reused as the reducer's scratch
        _, _, cross = draw(m + 2, 1, gen, workspace)
        return _segment(cross.ravel(), L, workspace[:2])

    length = min(n_samples, SAMPLE_CHUNK) + 2
    parts = map_streams(spec, seed, n_samples, SAMPLE_CHUNK, length, threads, segment)
    events = tuple(sum(counts) for counts in zip(*(p[0] for p in parts)))
    if any(events):
        return events, None
    return events, np.concatenate([p[1] for p in parts])


def _batch_se(v: np.ndarray) -> float:
    """Sample std of the batch values v over sqrt(len(v)).

    NaN below two batches: batch_length leaves at least two full ones,
    but estimate_sigma2_mc passes no variance batches at all when a
    batch is one row long.  Exactly 0 when every batch agrees, since
    _mean is exact there.
    """
    if v.size < 2:
        return float("nan")
    d = v - _mean(v)
    return math.sqrt(float((d * d).sum()) / (v.size - 1) / v.size)


# -- Monte Carlo estimators ------------------------------------------------

def estimate_sigma2_mc(
    spec: DistributionSpec, n_samples: int, seed: int = 0, threads: int = 1
):
    """CLT variance, with lambda, from one pass over chain segments.

    The n_samples rows are lag pairs (x_j, x_{j+1}) of consecutive cross
    terms, see _reduce.  With lam the mean of x and dx = x - lam,
    dy = x_{j+1} - lam,

        sigma2 = c0 + 2*c1,   c0 = mean(dx^2),   c1 = mean(dx*dy),

    both centered, so a law whose sigma2 is tiny next to lam^2 keeps its
    digits.  They come from the batch table of _reduce in one combine:
    batch b has n_b rows, mean m_b and sums centered there, and with
    d = m_b - lam

        lam = m_0 + sum n_b (m_b - m_0) / n,
        c0 = sum [Sxx + 2 d Sx + n_b d^2] / n,
        c1 = sum [Sxy + d (Sx + Sy) + n_b d^2] / n,

    so a constant law gives lam exactly and c0 = c1 = 0.  Standard errors
    of lam, sigma2, c0 and c1 are batch means: each full batch (n_b =
    batch_length(n_samples); the tail is left out) gives its own
    (m_b, Sxx / n_b, Sxy / n_b), and a standard error is the sample std
    of a batch value over sqrt(number of batches).  Below 4 rows a batch
    is one row, whose centered sums are 0, so the standard errors of
    sigma2, c0 and c1 are NaN there.

    With K chunks, each its own chain segment, Var(lam) is
    (n sigma2 - 2 K c1) / n^2, while L Var(batch mean) = sigma2 - 2 c1 / L
    for batches of L rows; so where sigma2 << |c1| the SE of lam is far
    too wide (11x at sigma2 = 1.6e-10, c1 = -1.3e-5).  Three measured
    fixes fail there: s_b^2 / B + 2 c1 (B - K) / n^2 (B batch means of
    variance s_b^2) and the plug-in (n sigma2 - 2 K c1) / n^2 are <= 0 for
    43 % and 55 % of seeds, as the noise of s_b^2 / B and of sigma2 is
    above the target; the first floored at -2 K c1 / n^2 is ~30 % wide.
    Returns (EstimateResult, CovarianceLadder); the ladder carries lam
    and its standard error (estimate_lambda_mc reads them).  If any
    cross term cancelled exactly, lam is -inf, the variance and every
    standard error are undefined (NaN), and the -inf terms are counted.
    A +inf or NaN term is a numerical failure, counted in the result's
    inf_nan_events; lam is then NaN too.
    """
    t0 = time.perf_counter()
    (minus_inf, inf_nan), table = _reduce(spec, n_samples, seed, threads)
    if table is None:
        nan = float("nan")
        wall = time.perf_counter() - t0
        result = EstimateResult(nan, nan, n_samples, seed, minus_inf, inf_nan, wall)
        lam = nan if inf_nan else NEG_INF
        return result, CovarianceLadder(nan, nan, lam, nan, nan, nan, minus_inf)

    n, L = n_samples, batch_length(n_samples)
    n_b, m, Sxx, Sxy, Sx, Sy = table.T
    lam = float(m[0] + np.sum(n_b * (m - m[0])) / n)
    d = m - lam
    c0 = float(np.sum(Sxx + 2.0 * d * Sx + n_b * d * d)) / n
    c1 = float(np.sum(Sxy + d * (Sx + Sy) + n_b * d * d)) / n
    sigma2 = c0 + 2.0 * c1
    full = table[n_b == L]
    lam_b, c0_b, c1_b = full[:, 1], full[:, 2] / L, full[:, 3] / L
    if L < 2:
        # a one-row batch centered at its own mean has Sxx = Sxy = 0
        c0_b = c1_b = c0_b[:0]
    se = _batch_se(c0_b + 2.0 * c1_b)
    result = EstimateResult(sigma2, se, n, seed, wall_time_s=time.perf_counter() - t0)
    ladder = CovarianceLadder(
        c0, c1, lam, _batch_se(c0_b), _batch_se(c1_b), _batch_se(lam_b)
    )
    return result, ladder


def lambda_view(result: EstimateResult, ladder: CovarianceLadder) -> EstimateResult:
    """The Lyapunov exponent of an estimate_sigma2_mc pass as its own result."""
    return EstimateResult(
        ladder.lam,
        ladder.lam_std_error,
        result.n_samples,
        result.seed,
        ladder.minus_inf_events,
        result.inf_nan_events,
        result.wall_time_s,
    )


def estimate_lambda_mc(
    spec: DistributionSpec, n_samples: int, seed: int = 0, threads: int = 1
) -> EstimateResult:
    """Lyapunov exponent as the mean cross term: a view of estimate_sigma2_mc.

    The value and its batch-means standard error come from the same
    pass, so calling both costs two passes; call estimate_sigma2_mc
    once and take lambda_view of its result instead.  Any exactly
    cancelled term makes the value -inf (the event count is reported);
    the mean is then -inf by convention, not an error.
    """
    return lambda_view(*estimate_sigma2_mc(spec, n_samples, seed, threads))


def trajectory_lambda(
    spec: DistributionSpec,
    n: int,
    n_chains: int,
    seed: int = 0,
    threads: int = 1,
) -> EstimateResult:
    """Lyapunov exponent as the across-chain mean of log ||S_n|| / n.

    Runs n_chains independent chains of length n (chain_log_norms); the
    almost-sure limit of log ||S_n|| / n is the exponent.  Chains whose
    product collapsed contribute -inf and are counted, and so are chains
    whose log-norm came out +inf or NaN.
    """
    if n < 2:
        raise ValueError("need chain length n >= 2")
    if n_chains < 1:
        raise ValueError("need n_chains >= 1")
    t0 = time.perf_counter()
    per_chain = chain_log_norms(spec, n, n_chains, seed, threads) / n
    n_inf = int(np.isneginf(per_chain).sum())
    n_inf_nan = n_chains - n_inf - int(np.isfinite(per_chain).sum())
    value = float(per_chain.mean())
    if n_inf or n_inf_nan or n_chains < 2:
        se = float("nan")
    else:
        se = float(per_chain.std(ddof=1)) / math.sqrt(n_chains)
    return EstimateResult(
        value=value,
        std_error=se,
        n_samples=n_chains,
        seed=seed,
        minus_inf_events=n_inf,
        inf_nan_events=n_inf_nan,
        wall_time_s=time.perf_counter() - t0,
    )


# -- exact enumeration ------------------------------------------------------

def exact_discrete(spec: DistributionSpec):
    """(lambda, sigma2, ladder) by exact enumeration of a finite support.

    Sums over AtomLaw's k x k cross-term table, see exact_moments.
    Raises NotDiscreteError for continuous families.
    """
    law = spec.atom_law
    return exact_moments(law.log_cross(), law.p)


def exact_moments(T: np.ndarray, p: np.ndarray):
    """(lambda, sigma2, ladder) of the cross-term table T of atoms with weights p.

    With T[i, j] the cross term of atom i followed by atom j,

        lambda = p^T T p,   D = T - lambda,   c0 = p^T (D o D) p,
        c1 = sum_j p_j (p^T D)_j (D p)_j,

    since the middle atom j of a triple couples both cross terms; O(k^2)
    and exact up to float arithmetic.  D is centered before the
    p-weighted sums: m2 - lambda^2 cancels when sigma2 is tiny next to
    lambda^2.  If any atom pair cancels exactly (a -inf entry),
    lambda = -inf, the variance is undefined (NaN), and the ladder's
    minus_inf_events counts the -inf entries.
    """
    events = int(np.count_nonzero(np.isneginf(T)))
    if events:
        nan = float("nan")
        return NEG_INF, nan, CovarianceLadder(nan, nan, NEG_INF, minus_inf_events=events)
    lam = float(p @ T @ p)
    D = T - lam
    c0 = float(p @ (D * D) @ p)
    c1 = float(((p @ D) * (D @ p)) @ p)
    return lam, c0 + 2.0 * c1, CovarianceLadder(c0, c1, lam)


# -- closed forms ------------------------------------------------------------

def closed_form(spec: DistributionSpec):
    """(lambda, sigma2) by the family's closed form; NoClosedFormError for
    a family or parameters without one (families._uniform_closed_form)."""
    solve = FAMILIES[spec.family].closed_form
    if solve is None:
        raise NoClosedFormError(f"no closed form for family {spec.family}")
    return solve(spec)
