"""Lyapunov exponents and CLT variances for products of singular 2x2 random matrices."""

import os

# Set before anything imports numpy, whose OpenBLAS otherwise starts one
# pool thread per extra CPU on load; they spin for ~0.1 s and take a core
# from the chain threads.  rmp's only BLAS calls are exact_moments'
# matrix-vector products (k <= 1024), so one thread serves them.  A value
# the user set wins, and a process that loaded numpy first keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
    load_spec,
    make_stream,
    parse_spec,
    sample_triples,
)
from .estimators import (
    Estimate,
    NoClosedFormError,
    closed_form,
    estimate_sigma2_mc,
    exact_discrete,
    trajectory_lambda,
)
from .product import (
    build_matrix,
    chain_log_norms,
    direct_log_norm,
)

__version__ = "0.1.0"

__all__ = [
    "CltReport",
    "DegeneracyVerdict",
    "DistributionSpec",
    "EntryTriple",
    "Estimate",
    "NoClosedFormError",
    "NotDiscreteError",
    "SpecError",
    "build_matrix",
    "chain_log_norms",
    "closed_form",
    "degeneracy_check",
    "direct_log_norm",
    "estimate_sigma2_mc",
    "exact_discrete",
    "ks_distance",
    "load_spec",
    "make_stream",
    "parse_spec",
    "sample_triples",
    "simulate_normalized",
    "trajectory_lambda",
]
