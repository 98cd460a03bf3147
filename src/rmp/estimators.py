"""Lyapunov exponent and CLT variance estimators.

Three independent routes are provided and cross-checked against each
other:

* Monte Carlo over the scalar cross terms x_j = log |a_j + b_{j+1} c_j / a_{j+1}|
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
segment gives all three.  The Monte Carlo route streams the lag rows
(x_j, x_{j+1}) of every segment into one reducer of centered co-moments
merged in chunk order, so memory is O(SAMPLE_CHUNK).  The rows overlap,
so standard errors come from non-overlapping batch means (Flegal &
Jones, Ann. Statist. 2010) rather than from i.i.d. formulas.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

# cross_terms, make_stream and sample_triples stay module attributes:
# perfbench/tracing.py wraps them here by name
from .distributions import (
    BINARY_HILL,
    CAUCHY_RANK_ONE,
    EXPONENTIAL_RANK_ONE,
    UNIFORM_RANK_ONE,
    AtomLaw,
    DistributionSpec,
    cross_terms,
    make_stream,
    sample_triples,
)
from .parallel import chunk_sizes, map_chunks
from .product import NEG_INF, block_step, chain_log_norms, workspace_pool

# Euler-Mascheroni constant, fixed to 20 digits so closed forms are
# constants rather than estimates.
EULER_GAMMA = 0.57721566490153286061

SAMPLE_CHUNK = 1 << 16


class NoClosedFormError(ValueError):
    """No closed-form values for this spec's family/parameters."""


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with provenance.

    std_error is None on exact (non-Monte-Carlo) paths and NaN when the
    estimate degenerated (-inf samples).  n_samples counts cross terms
    (lag rows) on the Monte Carlo route; minus_inf_events counts cross
    terms (or chains) that vanished exactly.
    """

    value: float
    std_error: float | None
    n_samples: int
    seed: int
    minus_inf_events: int = 0
    wall_time_s: float = 0.0


@dataclass(frozen=True)
class CovarianceLadder:
    """Autocovariances (c0, c1) of the cross-term sequence and the mean.

    sigma2 reconstructs the CLT variance as c0 + 2*c1 (lag >= 2 terms
    are identically zero by 1-dependence).  Standard errors (of c0, c1
    and of lam) are filled on the Monte Carlo path only.
    minus_inf_events counts the -inf cross terms the ladder was made
    from: sampled terms on the Monte Carlo path, ordered atom pairs of
    the table in exact enumeration.  It is > 0 exactly when lam = -inf.
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


# -- streaming co-moment reducer ---------------------------------------------

def _mean(xs: np.ndarray):
    """Mean along the last axis; exact (not just to rounding) for a constant row."""
    lo, hi = xs.min(axis=-1), xs.max(axis=-1)
    return np.where(lo == hi, lo, xs.mean(axis=-1))


def _summary(x: np.ndarray, y: np.ndarray | None, order: int, j_max: int, out=None):
    """(center m, power sums S) of rows (x, y) along the last axis.

    m = _mean(x), and S[..., i, j] = sum (x - m)^i (y - m)^j for
    j <= j_max and i + j <= order (other entries are 0), so S[..., 0, 0]
    is the row count; y is None when j_max = 0.  Leading axes are
    batches, each summarised on its own: 1-D rows give a scalar m and
    S of shape (order + 1, j_max + 1).  x and y are not written, so they
    may overlap.  ``out`` is an optional pair of float64 buffers, each at
    least x.size long and apart from x and y, that receive x - m and
    y - m instead of fresh arrays.  The sums run in einsum's own loops
    (never BLAS), so a summary does not depend on the thread that
    computed it.
    """
    lead = x.shape[:-1]
    shape = (order + 1, j_max + 1)
    S = np.zeros(lead + shape)
    if not x.shape[-1]:
        return np.zeros(lead)[()], S
    m = _mean(x)

    def centered(v, buf):
        dest = None if buf is None else buf[: v.size].reshape(v.shape)
        return np.subtract(v, m[..., None], out=dest)

    bufs = (None, None) if out is None else out
    x = centered(x, bufs[0])
    if y is not None:
        y = centered(y, bufs[1])
    # x^2 as one operand keeps every product at <= 3 einsum operands,
    # where einsum has fast loops
    x2 = x * x if order > 2 else None
    S[..., 0, 0] = x.shape[-1]
    for i, j in np.ndindex(shape):
        ops = ([x] * i if x2 is None else [x2] * (i // 2) + [x] * (i % 2)) + [y] * j
        if ops and i + j <= order:
            S[..., i, j] = np.einsum(",".join(["...k"] * len(ops)) + "->...", *ops)
    return m[()], S


def _shift(S: np.ndarray, d: float) -> np.ndarray:
    """Re-center power sums from m to m + d by the binomial expansion.

    (x - m - d)^i = sum_k C(i, k) (-d)^(i-k) (x - m)^k, and likewise for
    y, so entry (i, j) needs only entries (k <= i, l <= j).  d = 0
    returns S unchanged, so a constant law stays exactly at 0.
    """
    if d == 0.0:
        return S
    rows, cols = S.shape  # rows >= cols
    B = np.array(
        [[math.comb(i, l) * (-d) ** (i - l) if l <= i else 0.0 for l in range(rows)]
         for i in range(rows)]
    )
    out = B @ S @ B[:cols, :cols].T
    out[np.add.outer(np.arange(rows), np.arange(cols)) >= rows] = 0.0  # untracked
    return out


def _merge(a, b):
    """Pairwise merge of two (center, power sums) summaries, a before b.

    Chan, Golub & LeVeque (1979); Pebay, SAND2008-6212 (2008).
    """
    (ma, sa), (mb, sb) = a, b
    na, nb = sa[0, 0], sb[0, 0]
    if na == 0:
        return b
    if nb == 0:
        return a
    m = ma + (mb - ma) * nb / (na + nb)
    return m, _shift(sa, m - ma) + _shift(sb, m - mb)


def batch_length(n_rows: int) -> int:
    """Rows per batch: 2^floor(log2 sqrt(n_rows)), at most SAMPLE_CHUNK.

    A power of two no larger than SAMPLE_CHUNK divides every full chunk,
    so batches never cross a chunk and depend on n_rows only.
    """
    return min(1 << (math.isqrt(n_rows).bit_length() - 1), SAMPLE_CHUNK)


def _segment(c: np.ndarray, L: int, out=None):
    """(events, summary, batch summaries) of one segment's cross terms c.

    The rows are the len(c) - 1 lag pairs (c[j], c[j + 1]).  A -inf term
    is an event and drops both rows it belongs to (one at either end of
    the segment).  The summary is _summary of the kept rows at order 2
    in x and 1 in y.  Without events, consecutive runs of L rows are
    batches, each with its own _summary (the last len(c) - 1 mod L rows
    are in none); with events there are no batches (None).  ``out`` is
    _summary's optional pair of scratch buffers.
    """
    neg = c == NEG_INF
    events = int(np.count_nonzero(neg))
    x, y = c[:-1], c[1:]
    if events:
        keep = ~(neg[:-1] | neg[1:])
        return events, _summary(x[keep], y[keep], 2, 1, out), None
    rows = x.size // L * L
    batches = _summary(x[:rows].reshape(-1, L), y[:rows].reshape(-1, L), 2, 1, out)
    return 0, _summary(x, y, 2, 1, out), batches


def _reduce(spec: DistributionSpec, n_samples: int, seed: int, threads: int):
    """One pass over n_samples lag rows of cross terms, chunk by chunk.

    Chunk k of size m draws one chain segment of m + 2 consecutive
    triples from its (seed, k) stream with the chain kernel's block step
    (a finite-support law draws atom indices and gathers its cross terms
    from AtomLaw's table, the same values bit for bit), which gives
    m + 1 cross terms and m lag rows; _segment summarises them.
    Returns (events, (center, S), batches): the -inf term count, the
    chunk summaries merged in chunk order (S as in _summary at order 2
    in x and 1 in y), and the per-batch (lam, c0, c1) arrays of rows of
    batch_length(n_samples), in chunk order, or None if any term was
    -inf.  Memory is O(SAMPLE_CHUNK) per worker whatever n_samples is.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    sizes = chunk_sizes(n_samples, SAMPLE_CHUNK)
    L = batch_length(n_samples)
    draw = block_step(spec)
    borrow = workspace_pool(sizes[0] + 2)

    def run(k: int):
        gen = make_stream(seed, k)
        with borrow() as workspace:
            # the cross terms land in the last buffer; the other two are
            # spent draws, reused as the reducer's scratch
            _, _, cross = draw(sizes[k] + 2, 1, gen, workspace)
            return _segment(cross.ravel(), L, workspace[:2])

    parts = map_chunks(run, len(sizes), threads)
    events = sum(p[0] for p in parts)
    merged = functools.reduce(_merge, (p[1] for p in parts))
    if events:
        return events, merged, None
    lam_b = np.concatenate([p[2][0] for p in parts])
    S_b = np.concatenate([p[2][1] for p in parts])
    return 0, merged, (lam_b, S_b[:, 2, 0] / L, S_b[:, 1, 1] / L)


def _batch_se(v: np.ndarray) -> float:
    """Sample std of the batch values v over sqrt(len(v)).

    NaN below two batches (batch_length always leaves at least two);
    exactly 0 when every batch agrees, since _mean is exact there.
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
    digits.  Standard errors of lam, sigma2, c0 and c1 are batch means:
    the rows are cut into batches of batch_length(n_samples) rows inside
    chunks, each batch gives its own (lam, c0, c1), and a standard error
    is the sample std of a batch value over sqrt(number of batches).
    Returns (EstimateResult, CovarianceLadder); the ladder carries lam
    and its standard error (estimate_lambda_mc reads them).  If any
    cross term cancelled exactly, lam is -inf, the variance and every
    standard error are undefined (NaN), and the -inf terms are counted.
    """
    t0 = time.perf_counter()
    events, (lam, S), batches = _reduce(spec, n_samples, seed, threads)
    if events:
        nan = float("nan")
        wall = time.perf_counter() - t0
        result = EstimateResult(nan, nan, n_samples, seed, events, wall)
        return result, CovarianceLadder(nan, nan, NEG_INF, nan, nan, nan, events)

    n = n_samples
    M = S / n
    c0, c1 = float(M[2, 0]), float(M[1, 1])
    sigma2 = c0 + 2.0 * c1
    lam_b, c0_b, c1_b = batches
    se = _batch_se(c0_b + 2.0 * c1_b)
    result = EstimateResult(sigma2, se, n, seed, 0, time.perf_counter() - t0)
    ladder = CovarianceLadder(
        c0, c1, float(lam), _batch_se(c0_b), _batch_se(c1_b), _batch_se(lam_b)
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

    Runs n_chains independent accumulator chains of length n; the
    almost-sure limit of log ||S_n|| / n is the exponent.  Chains whose
    product collapsed contribute -inf and are counted.
    """
    if n < 2:
        raise ValueError("need chain length n >= 2")
    if n_chains < 1:
        raise ValueError("need n_chains >= 1")
    t0 = time.perf_counter()
    per_chain = chain_log_norms(spec, n, n_chains, seed, threads) / n
    n_inf = int(np.isneginf(per_chain).sum())
    value = float(per_chain.mean())
    if n_inf or n_chains < 2:
        se = float("nan")
    else:
        se = float(per_chain.std(ddof=1)) / math.sqrt(n_chains)
    return EstimateResult(
        value=value,
        std_error=se,
        n_samples=n_chains,
        seed=seed,
        minus_inf_events=n_inf,
        wall_time_s=time.perf_counter() - t0,
    )


# -- exact enumeration ------------------------------------------------------

def exact_discrete(spec: DistributionSpec):
    """(lambda, sigma2, ladder) by exact enumeration of a finite support.

    Sums over AtomLaw's k x k cross-term table, see exact_moments.
    Raises NotDiscreteError for continuous families.
    """
    law = AtomLaw(spec)
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
    """(lambda, sigma2) for the solvable families.

    Uniform rank-one is solvable only for supports [0, b], [-a, 0], or
    [-b, b]; other parameters raise NoClosedFormError rather than
    returning a non-oracle value.
    """
    f = spec.family
    if f == CAUCHY_RANK_ONE:
        return math.log(2.0), math.pi**2 / 4.0
    if f == EXPONENTIAL_RANK_ONE:
        return 1.0 - EULER_GAMMA - math.log(spec.theta), math.pi**2 / 6.0 - 1.0
    if f == UNIFORM_RANK_ONE:
        a, b = spec.a, spec.b
        if a == 0.0 and b > 0.0:
            return (
                2.0 * math.log(2.0) - 1.5 + math.log(b),
                1.25 - 2.0 * math.log(2.0) ** 2,
            )
        if b == 0.0 and a > 0.0:
            return (
                2.0 * math.log(2.0) - 1.5 + math.log(a),
                1.25 - 2.0 * math.log(2.0) ** 2,
            )
        if a == b:
            return math.log(2.0 * b) - 1.5, 1.25
        raise NoClosedFormError(
            f"no closed form for uniform support [-{a}, {b}]; "
            "solvable cases are a=0, b=0, or a=b"
        )
    if f == BINARY_HILL:
        return _binary_closed_form(spec.alpha, spec.beta, spec.p)
    raise NoClosedFormError(f"no closed form for family {f}")


def _binary_closed_form(alpha: float, beta: float, p: float):
    """Closed-form exponent and variance of the two-point multiplier.

    Grouped by the three distinct log magnitudes: the like-pair terms
    L1 = log|alpha + 1/alpha^2| and L3 = log|beta + 1/beta^2|, and the
    mixed-pair combination L2 = log(|alpha + 1/beta^2| |beta + 1/alpha^2|).
    """
    q = 1.0 - p
    # squares by multiplication, since float ** raises OverflowError
    inv_a2, inv_b2 = 1.0 / (alpha * alpha), 1.0 / (beta * beta)
    l1 = math.log(abs(alpha + inv_a2))
    l2 = math.log(abs(alpha + inv_b2) * abs(beta + inv_a2))
    l3 = math.log(abs(beta + inv_b2))
    lam = p * p * l1 + p * q * l2 + q * q * l3
    sigma2 = (
        p**2 * (1.0 + (2.0 - 3.0 * p) * p) * l1**2
        - 2.0 * q * p**2 * l1 * ((3.0 * p - 1.0) * l2 + 3.0 * q * l3)
        + q * (1.0 + 3.0 * (p - 1.0) * p) * p * l2**2
        + 2.0 * q**2 * (3.0 * p - 2.0) * p * l2 * l3
        - q**2 * (3.0 * p - 4.0) * p * l3**2
    )
    return lam, sigma2
