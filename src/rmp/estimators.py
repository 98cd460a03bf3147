"""Lyapunov exponent and CLT variance estimators.

Three independent routes are provided and cross-checked against each
other:

* Monte Carlo over the scalar cross terms log |a_1 + b_2 c_1 / a_2|
  (pairs for the exponent, non-overlapping triples for the variance),
* exact enumeration for finite-support laws: O(k^2) sums over the k x k
  table of atom-pair cross terms that the MC and chain kernels gather
  from (AtomLaw.log_cross),
* closed forms for the solvable families (uniform / exponential /
  Cauchy rank-one and the binary two-point multiplier).

The variance of the chain is sigma^2 = C_0 + 2 C_1 where C_0, C_1 are
the lag-0 and lag-1 autocovariances of the cross-term sequence (lags
beyond 1 vanish because the sequence is 1-dependent), both centered at
lambda.  The Monte Carlo estimators share one streaming reducer of
centered co-moments merged in chunk order, so memory is O(SAMPLE_CHUNK)
and standard errors come from the delta method on those co-moments.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

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
from .product import NEG_INF, chain_log_norms

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
    estimate degenerated (-inf samples).  minus_inf_events counts
    samples/chains whose cross term vanished exactly.
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
    are identically zero by 1-dependence).  Standard errors are filled
    on the Monte Carlo path only.
    """

    c0: float
    c1: float
    lam: float
    c0_std_error: float | None = None
    c1_std_error: float | None = None

    @property
    def sigma2(self) -> float:
        return self.c0 + 2.0 * self.c1


# -- streaming co-moment reducer ---------------------------------------------

def _mean(xs: np.ndarray) -> float:
    """Sample mean; exact (not just to rounding) for a constant batch."""
    lo, hi = xs.min(), xs.max()
    if lo == hi:
        return float(lo)
    return float(xs.mean())


def _summary(x: np.ndarray, y: np.ndarray | None, order: int, j_max: int):
    """(center m, power sums S) of one chunk of rows (x, y).

    m = _mean(x), and S[i, j] = sum (x - m)^i (y - m)^j for j <= j_max
    and i + j <= order (other entries are 0), so S[0, 0] is the row
    count; y is None when j_max = 0.  x and y are centered in place.
    The sums run in einsum's own loops (never BLAS), so a chunk's
    summary does not depend on the thread that computed it.
    """
    shape = (order + 1, j_max + 1)
    if not x.size:
        return 0.0, np.zeros(shape)
    m = _mean(x)
    x -= m
    if y is not None:
        y -= m
    # x^2 as one operand keeps every product at <= 3 einsum operands,
    # where einsum has fast loops
    x2 = x * x if order > 2 else None
    S = np.zeros(shape)
    S[0, 0] = x.size
    for i, j in np.ndindex(shape):
        ops = ([x] * i if x2 is None else [x2] * (i // 2) + [x] * (i % 2)) + [y] * j
        if ops and i + j <= order:
            S[i, j] = np.einsum(",".join("k" * len(ops)) + "->", *ops)
    return m, S


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


def _reduce(
    spec: DistributionSpec, n_samples: int, seed: int, threads: int, lagged: bool
):
    """Stream cross-term rows chunk by chunk into one merged summary.

    Each sample draws (xi_1, xi_2) from its (seed, chunk) stream and
    gives x = cross(xi_1, xi_2); with ``lagged`` it also draws xi_3 and
    gives y = cross(xi_2, xi_3).  A finite-support law draws atom
    indices instead and gathers x and y with AtomLaw.cross, whose table
    is built once per call; the values are the same bit for bit.
    Rows holding a -inf are counted and left out of the sums.  Returns
    (x events, row events, center, S) (center NaN if no row is left),
    S as in _summary at order 2 in x alone, or at order 4 with powers
    of y up to 2 when lagged.  Memory is O(SAMPLE_CHUNK) per worker
    whatever n_samples is.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    sizes = chunk_sizes(n_samples, SAMPLE_CHUNK)
    orders = (4, 2) if lagged else (2, 0)
    law = AtomLaw(spec) if spec.is_discrete else None

    def run(k: int):
        gen = make_stream(seed, k)
        m = sizes[k]
        if law is not None:
            i1, i2 = law.indices(m, gen), law.indices(m, gen)
            x = law.cross(i1, i2)
            y = law.cross(i2, law.indices(m, gen)) if lagged else None
        else:
            t1 = sample_triples(spec, m, gen)
            t2 = sample_triples(spec, m, gen)
            x = cross_terms(t1, t2)
            y = cross_terms(t2, sample_triples(spec, m, gen)) if lagged else None
        x_inf = np.isneginf(x)
        bad = x_inf | np.isneginf(y) if lagged else x_inf
        n_bad = int(bad.sum())
        if n_bad:
            x = x[~bad]
            y = y[~bad] if lagged else None
        return int(x_inf.sum()), n_bad, _summary(x, y, *orders)

    parts = map_chunks(run, len(sizes), threads)
    m, S = functools.reduce(_merge, (p[2] for p in parts))
    center = float(m) if S[0, 0] else float("nan")  # no row without events
    return sum(p[0] for p in parts), sum(p[1] for p in parts), center, S


# -- Monte Carlo estimators ------------------------------------------------

def estimate_lambda_mc(
    spec: DistributionSpec, n_samples: int, seed: int = 0, threads: int = 1
) -> EstimateResult:
    """Lyapunov exponent as the mean cross term over independent pairs.

    Each sample draws a fresh pair (xi_1, xi_2); the estimate is the
    sample mean with std error = sample std / sqrt(n).  Any exactly
    cancelled sample makes the value -inf (the event count is
    reported); the mean is then -inf by convention, not an error.
    """
    t0 = time.perf_counter()
    n_inf, _, lam, S = _reduce(spec, n_samples, seed, threads, lagged=False)
    if n_inf:
        lam, se = NEG_INF, float("nan")
    else:
        se = math.sqrt(S[2, 0] / (n_samples - 1)) / math.sqrt(n_samples)
    return EstimateResult(lam, se, n_samples, seed, n_inf, time.perf_counter() - t0)


def estimate_sigma2_mc(
    spec: DistributionSpec, n_samples: int, seed: int = 0, threads: int = 1
):
    """CLT variance from independent non-overlapping triples.

    Each sample draws (xi_1, xi_2, xi_3) and contributes
    x = cross(xi_1, xi_2) and y = cross(xi_2, xi_3).  With lam the mean
    of x from the same run and dx = x - lam, dy = y - lam,

        sigma2 = c0 + 2*c1,   c0 = mean(dx^2),   c1 = mean(dx*dy),

    both centered, so a law whose sigma2 is tiny next to lam^2 keeps its
    digits.  Standard errors come from the delta method on the centered
    co-moments M[i, j] = mean(dx^i dy^j):

        se(sigma2)^2 = (M40 + 4 M31 + 4 M22 - sigma2^2) / n,
        se(c0)^2 = (M40 - c0^2) / n,   se(c1)^2 = (M22 - c1^2) / n,

    which is asymptotically the leave-one-out jackknife.  The moments
    are merged chunk by chunk, so memory is O(SAMPLE_CHUNK), not O(n).
    Returns (EstimateResult, CovarianceLadder); if any cross term
    cancelled exactly the variance is undefined (NaN), the rows with a
    -inf are counted, and the ladder's lam is -inf if x had one.
    """
    t0 = time.perf_counter()
    x_inf, n_inf, lam, S = _reduce(spec, n_samples, seed, threads, lagged=True)
    if n_inf:
        nan = float("nan")
        lam = NEG_INF if x_inf else lam
        wall = time.perf_counter() - t0
        result = EstimateResult(nan, nan, n_samples, seed, n_inf, wall)
        return result, CovarianceLadder(nan, nan, lam, nan, nan)

    n = n_samples
    M = S / n
    c0, c1 = float(M[2, 0]), float(M[1, 1])
    sigma2 = c0 + 2.0 * c1
    var = (
        M[4, 0] + 4.0 * M[3, 1] + 4.0 * M[2, 2] - sigma2 * sigma2,
        M[4, 0] - c0 * c0,
        M[2, 2] - c1 * c1,
    )
    se, c0_se, c1_se = (math.sqrt(max(float(v), 0.0) / n) for v in var)
    result = EstimateResult(sigma2, se, n, seed, 0, time.perf_counter() - t0)
    return result, CovarianceLadder(c0, c1, lam, c0_se, c1_se)


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
    lambda = -inf and the variance is undefined (NaN).
    """
    if np.isneginf(T).any():
        nan = float("nan")
        return NEG_INF, nan, CovarianceLadder(nan, nan, NEG_INF)
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
