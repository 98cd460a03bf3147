"""CLT harness and degeneracy detection.

Simulates the normalized statistic Z = (log ||S_n|| - n*lambda) / sqrt(n)
over many independent chains and compares it against N(0, sigma^2).
The pair (lambda, sigma^2) is an *input* (closed form, exact
enumeration, or a Monte Carlo run), so the harness tests a hypothesis
rather than re-estimating it: a wrong lambda shifts every Z by
sqrt(n) * error and fails the fit decisively.

The degeneracy check applies the necessary conditions for sigma^2 = 0
when the entry law has an atom (a, b, c): the exponent must equal
log |a + bc/a| and all support points must satisfy a quartic identity.
Both are tested in log space on the same k x k cross-term table that
the exact enumeration sums (rmp.words.AtomLaw.T), so extreme
atoms cannot overflow them.  A failed check proves sigma^2 > 0; a passed
check only means degeneracy is not ruled out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, EntryTriple, SpecError
from .estimators import exact_moments
from .product import NEG_INF, chain_log_norms, count_nonfinite

HISTOGRAM_BINS = 40


@dataclass(frozen=True)
class CltReport:
    """Empirical summary of the normalized statistic over many chains.

    Histogram bins cover [-5 sigma, 5 sigma] (out-of-range values are
    clipped into the edge bins, so counts always total
    m_chains - minus_inf_events - inf_nan_events).  ks_distance is None
    when sigma2_used = 0, where the reference law is degenerate.
    """

    n: int
    m_chains: int
    lambda_used: float
    sigma2_used: float
    empirical_mean: float
    empirical_var: float
    ks_distance: float | None
    histogram: tuple[tuple[float, float, int], ...]
    minus_inf_events: int
    inf_nan_events: int
    seed: int


@dataclass(frozen=True)
class DegeneracyVerdict:
    """Outcome of the atomic-case degeneracy conditions.

    True means every necessary condition held for some atom
    ("degeneracy not ruled out"); False proves sigma^2 > 0.  Residuals
    are reported for the best candidate atom, in log units:
    lambda_residual = |lam - T[i, i]| and, per support point j,
    |T[i, j] + T[j, i] - 2 T[i, i]| (see degeneracy_check).
    """

    is_degenerate_candidate: bool
    atom: EntryTriple
    lambda_residual: float
    pairwise_residuals: tuple[tuple[EntryTriple, float], ...]
    lam: float
    sigma2: float
    tolerance: float


def ks_distance(samples, sigma2: float) -> float:
    """One-sample Kolmogorov-Smirnov distance against N(0, sigma2).

    sup_x |F_m(x) - Phi(x / sigma)| over the sorted samples, evaluating
    the empirical CDF from both sides of each jump.  Invariant under
    reordering of the samples.  Needs 0 < sigma2 < inf.
    """
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"need 0 < sigma2 < inf, got {sigma2}")
    xs = np.sort(np.asarray(samples, dtype=float))
    m = xs.size
    if m == 0:
        raise ValueError("need at least one sample")
    # Phi(z) = erfc(-z sqrt(1/2)) / 2, one stdlib call per sample
    w = (xs / math.sqrt(sigma2)) * -math.sqrt(0.5)
    f = 0.5 * np.fromiter(map(math.erfc, w.tolist()), float, m)
    grid = np.arange(1, m + 1) / m
    d_plus = float((grid - f).max())
    d_minus = float((f - (grid - 1.0 / m)).max())
    return max(d_plus, d_minus)


def simulate_normalized(
    spec: DistributionSpec,
    n: int,
    m_chains: int,
    lam: float,
    sigma2: float,
    seed: int = 0,
    threads: int = 1,
) -> CltReport:
    """Simulate Z_k = (log ||S_n|| - n*lam) / sqrt(n) over m_chains chains.

    Chains that collapse to the zero matrix are excluded from the
    statistics and counted in minus_inf_events, and chains whose
    log-norm came out +inf or NaN, a numerical failure, likewise in
    inf_nan_events.  The empirical mean is
    NaN when no chain is left, and the empirical variance when fewer
    than two are.  sigma2 must be finite and >= 0; sigma2 = 0 is the
    degenerate law, which has no KS distance.
    """
    if n < 10:
        raise ValueError("need chain length n >= 10")
    if m_chains < 10:
        raise ValueError("need m_chains >= 10")
    if not math.isfinite(lam):
        raise ValueError(f"need finite lambda, got {lam}")
    if not (math.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError(f"need finite sigma2 >= 0, got {sigma2}")
    log_norms = chain_log_norms(spec, n, m_chains, seed, threads)
    n_inf, n_inf_nan = count_nonfinite(log_norms)
    z = (log_norms[np.isfinite(log_norms)] - n * lam) / math.sqrt(n)

    emp_mean = float(z.mean()) if z.size else float("nan")
    emp_var = float(z.var(ddof=1)) if z.size > 1 else float("nan")

    ks = None
    if sigma2 > 0.0 and z.size:
        ks = ks_distance(z, sigma2)

    half = 5.0 * math.sqrt(sigma2) if sigma2 > 0.0 else 1.0
    edges = np.linspace(-half, half, HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(np.clip(z, -half, half), bins=edges)
    histogram = tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(HISTOGRAM_BINS)
    )
    return CltReport(
        n=n,
        m_chains=m_chains,
        lambda_used=lam,
        sigma2_used=sigma2,
        empirical_mean=emp_mean,
        empirical_var=emp_var,
        ks_distance=ks,
        histogram=histogram,
        minus_inf_events=n_inf,
        inf_nan_events=n_inf_nan,
        seed=seed,
    )


def degeneracy_check(spec: DistributionSpec, tolerance: float = 1e-9) -> DegeneracyVerdict:
    """Test the necessary conditions for a degenerate (sigma^2 = 0) CLT.

    Each atom i of the finite support is tried as the candidate.  With
    the law's table T = AtomLaw.T, T[i, j] = log |a_i + c_i (b_j / a_j)|,
    the exact exponent must equal T[i, i] = log |a_i + c_i (b_i / a_i)|,
    and every support point j must satisfy

        T[i, j] + T[j, i] = 2 T[i, i],

    the logarithm of the quartic identity
    (a_i + c_i b_j / a_j)^2 (a_j + c_j b_i / a_i)^2 = (a_i + c_i b_i / a_i)^4,
    so no power is formed and nothing overflows.  The residuals are
    absolute differences in log units and pass at
    tolerance * max(1, |T[i, i]|).  The verdict reports the atom
    whose worst scaled residual is smallest (the first on a tie), and
    pairwise_residuals holds |T[i, j] + T[j, i] - 2 T[i, i]| for every j.
    The table is built once and shared with the exact enumeration.
    Raises NotDiscreteError for continuous families, and SpecError when
    an atom pair cancels exactly: lambda is then -inf, sigma^2 undefined,
    and there is no CLT to be degenerate.  So the residuals are formed
    only on a finite table (validation rejects +inf and NaN entries).
    """
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance!r}")
    law = spec.atom_law
    T = law.T
    lam, sigma2, _ = exact_moments(T, law.p)
    if lam == NEG_INF:
        raise SpecError(
            "degeneracy check undefined: lambda = -inf (an atom pair cancels exactly)"
        )

    lam_atom = np.diag(T)
    lam_res = np.abs(lam - lam_atom)
    pair_res = np.abs(T + T.T - 2.0 * lam_atom[:, None])
    scale = np.maximum(1.0, np.abs(lam_atom))
    worst = np.maximum(lam_res, pair_res.max(axis=1)) / scale
    i = int(np.argmin(worst))
    triples = [EntryTriple(*row) for row in law.atoms.tolist()]
    return DegeneracyVerdict(
        is_degenerate_candidate=bool(worst[i] <= tolerance),
        atom=triples[i],
        lambda_residual=float(lam_res[i]),
        pairwise_residuals=tuple(zip(triples, pair_res[i].tolist())),
        lam=lam,
        sigma2=sigma2,
        tolerance=tolerance,
    )

