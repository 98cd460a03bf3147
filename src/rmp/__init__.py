"""Lyapunov exponents and CLT variances for products of singular 2x2 random matrices."""

from .clt import (
    CltReport,
    DegeneracyVerdict,
    degeneracy_check,
    ks_distance,
    simulate_normalized,
)
from .distributions import (
    DistributionSpec,
    EntryTriple,
    NotDiscreteError,
    SpecError,
    cross_term,
    enumerate_atoms,
    load_spec,
    make_stream,
    parse_spec,
    sample_triple,
    sample_triples,
)
from .estimators import (
    CovarianceLadder,
    EstimateResult,
    NoClosedFormError,
    closed_form,
    estimate_lambda_mc,
    estimate_sigma2_mc,
    exact_discrete,
    lambda_view,
    trajectory_lambda,
)
from .product import (
    ProductAccumulator,
    accumulator_init,
    accumulator_step,
    build_matrix,
    chain_log_norms,
    direct_log_norm,
    log_norm,
)

__version__ = "0.1.0"

__all__ = [
    "CltReport",
    "CovarianceLadder",
    "DegeneracyVerdict",
    "DistributionSpec",
    "EntryTriple",
    "EstimateResult",
    "NoClosedFormError",
    "NotDiscreteError",
    "ProductAccumulator",
    "SpecError",
    "accumulator_init",
    "accumulator_step",
    "build_matrix",
    "chain_log_norms",
    "closed_form",
    "cross_term",
    "degeneracy_check",
    "direct_log_norm",
    "enumerate_atoms",
    "estimate_lambda_mc",
    "estimate_sigma2_mc",
    "exact_discrete",
    "ks_distance",
    "lambda_view",
    "load_spec",
    "log_norm",
    "make_stream",
    "parse_spec",
    "sample_triple",
    "sample_triples",
    "simulate_normalized",
    "trajectory_lambda",
]
