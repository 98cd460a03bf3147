"""Acceptance battery: every release gate as a runnable check.

Each check pins its seeds and tolerances; the full battery targets a
desk-scale budget (a few minutes on one core).  ``quick=True`` shrinks
sample counts for a smoke run (statistical acceptance bands scale with
the reported standard errors, and the KS line scales as 1/sqrt(m)).
A check's body returns (passed, detail); _criterion names and times it,
so every check_* returns a CheckResult.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .clt import degeneracy_check, simulate_normalized
from .distributions import (
    DistributionSpec,
    EntryTriple,
    make_stream,
    sample_triples,
    sample_units,
)
from .estimators import (
    NoClosedFormError,
    closed_form,
    estimate_sigma2_mc,
    exact_discrete,
    trajectory_lambda,
)
from . import product
from .families import CONSTANT_TRIPLE, EULER_GAMMA, FAMILIES
from .product import NEG_INF, build_matrix, chain_log_norms, direct_log_norm

LOG2 = math.log(2.0)
PI2 = math.pi**2

# KS acceptance line: asymptotic critical value at level 0.001 is
# 1.9495 / sqrt(m); 0.0437 for m = 2000.
KS_COEFF = 1.9495

# Variance acceptance band, in standard deviations of a sample variance:
# m normal draws give one of relative SD sqrt(2 / (m - 1)).  3.16 of them
# is 0.09995 sigma^2 at the full battery's m = 2000 chains, the 10 % band
# the check has always had there; at --quick's 300 chains it is 0.258.
VAR_BAND_SDS = 3.16


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _spec_zoo():
    """One representative spec per built-in family."""
    return {
        "cauchy": DistributionSpec.cauchy_rank_one(),
        "exponential": DistributionSpec.exponential_rank_one(1.0),
        "uniform_sym": DistributionSpec.uniform_rank_one(1.0, 1.0),
        "uniform_right": DistributionSpec.uniform_rank_one(0.0, 1.0),
        "binary": DistributionSpec.binary_hill(2.0, 3.0, 0.5),
        "hill": DistributionSpec.hill_random(0.5, 2.0),
        "atoms": DistributionSpec.discrete_atoms(
            [((1.0, 0.5, 1.0), 0.25), ((2.0, 1.0, -1.0), 0.5), ((-1.5, 2.0, 0.5), 0.25)]
        ),
        "constant": DistributionSpec.constant_triple(1.0, 1.0, 1.0),
    }


def _criterion(name):
    """Decorator: a check(quick, threads) -> (passed, detail) becomes one
    that returns its CheckResult under this name, with its wall time."""

    def wrap(check):
        @functools.wraps(check)
        def timed(quick=False, threads=1) -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = check(quick=quick, threads=threads)
            return CheckResult(name, passed, detail, time.perf_counter() - t0)

        return timed

    return wrap


def _band(value, se, target, k):
    """|value - target| <= k * se, with a printable summary."""
    err = abs(value - target)
    ok = err <= k * se
    return ok, f"err={err:.2e} vs {k}se={k * se:.2e}"


def _bands_at_3se(spec, lam, sigma2, quick, threads):
    """Estimate at seed 0 (1e6 rows, 1e5 quick); the _band of lambda and
    of sigma2 at 3 SE of the targets."""
    e = estimate_sigma2_mc(spec, 10**5 if quick else 10**6, seed=0, threads=threads)
    return (_band(e.lam, e.lam_std_error, lam, 3.0),
            _band(e.sigma2, e.sigma2_std_error, sigma2, 3.0))


# -- the ten criteria ---------------------------------------------------------

@_criterion("cauchy-exact-values")
def check_cauchy_exact_values(quick=False, threads=1):
    """Cauchy rank-one: lambda = log 2, sigma^2 = pi^2/4, within 3 SE."""
    spec = DistributionSpec.cauchy_rank_one()
    (ok1, d1), (ok2, d2) = _bands_at_3se(spec, LOG2, PI2 / 4.0, quick, threads)
    return ok1 and ok2, f"lambda {d1}; sigma2 {d2}"


@_criterion("exponential-exact-values")
def check_exponential_exact_values(quick=False, threads=1):
    """Exponential rank-one at theta in {0.5, 1, 2}, within 3 SE."""
    fails = []
    for theta in (0.5, 1.0, 2.0):
        spec = DistributionSpec.exponential_rank_one(theta)
        lam = 1.0 - EULER_GAMMA - math.log(theta)
        (ok1, _), (ok2, _) = _bands_at_3se(spec, lam, PI2 / 6.0 - 1.0, quick, threads)
        if not (ok1 and ok2):
            fails.append(f"theta={theta} lambda_ok={ok1} sigma2_ok={ok2}")
    return not fails, "; ".join(fails) or "theta 0.5/1/2 all within 3se"


@_criterion("uniform-case-table")
def check_uniform_case_table(quick=False, threads=1):
    """Uniform rank-one supports [0,1], [-1,0], [-1,1] vs closed forms."""
    fails = []
    for (a, b) in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        spec = DistributionSpec.uniform_rank_one(a, b)
        (ok1, _), (ok2, _) = _bands_at_3se(spec, *closed_form(spec), quick, threads)
        if not (ok1 and ok2):
            fails.append(f"(a,b)=({a},{b}) lambda_ok={ok1} sigma2_ok={ok2}")
    return not fails, "; ".join(fails) or "supports [0,1], [-1,0], [-1,1] all within 3se"


@_criterion("binary-formula-reproduction")
def check_binary_formula(quick=False, threads=1):
    """Enumeration equals the transcribed binary polynomials to 1e-12."""
    worst = 0.0
    for (al, be, p) in ((2.0, 3.0, 0.5), (2.0, 3.0, 0.9), (0.5, 4.0, 0.3)):
        spec = DistributionSpec.binary_hill(al, be, p)
        lam_e, sig_e, _ = exact_discrete(spec)
        lam_c, sig_c = closed_form(spec)
        worst = max(worst, abs(lam_e - lam_c), abs(sig_e - sig_c))
    return worst <= 1e-12, f"max |enumeration - polynomial| = {worst:.2e} (tol 1e-12)"


@_criterion("product-formula-oracle")
def check_product_formula_oracle(quick=False, threads=1):
    """Chain kernel vs naive rescaled multiplication of the triples it drew.

    200 chains of random length in [1, 200] and, per law, one chain that
    crosses a step block, within 1e-9 relative; chains of a law whose
    atom pair cancels must give -inf on both routes.
    """
    zoo = _spec_zoo()
    names = sorted(zoo)
    trials = 50 if quick else 200
    cases = []
    for trial in range(trials):
        gen = make_stream(4242, trial)
        n, seed = int(gen.integers(1, 201)), int(gen.integers(1 << 63))
        cases.append((names[trial % len(names)], n, seed))
    cases += [(name, product.STEP_BLOCK + 37, 4243) for name in names]
    worst, bad, fails = 0.0, None, 0
    for name, n, seed in cases:
        via_kernel, via_direct = _both_routes(zoo[name], n, seed)
        rel = abs(via_kernel - via_direct) / max(1.0, abs(via_kernel))
        fails += not rel <= 1e-9
        if rel > worst:
            worst, bad = rel, (name, n)
    cancelling = DistributionSpec.discrete_atoms(
        [((2.0, 5.0, 1.0), 0.5), ((1.0, -2.0, 3.0), 0.5)]
    )
    inf_ok = all(
        _both_routes(cancelling, 57, seed) == (NEG_INF, NEG_INF) for seed in range(3)
    )
    return not fails and inf_ok, (
        f"worst rel err {worst:.2e} at {bad}, {fails}/{len(cases)} chains off; "
        f"-inf agreement {inf_ok}"
    )


def _chain_triples(spec, n, seed, width=1):
    """The triples that chain_log_norms(spec, n, width, seed) draws, per chain.

    For width <= CHAIN_CHUNK every chain is in chunk 0, which draws from
    make_stream(seed, 0) block by block, step-major, so step i of chain
    j is entry i * width + j of its block.  A rank-one chain draws the
    unit sums of its first n - 1 steps in blocks of up to STEP_BLOCK,
    each the _block_triples of one step more, which is left out, and
    then its last step's pair (sample_triples).  Another law draws
    _block_triples of STEP_BLOCK words of g steps (a continuous law's
    word is one step) while whole words remain, the last such block
    shorter, then one block of the n mod g steps left.  STEP_BLOCK is
    read at call time, so the replay follows a kernel run with another
    block.
    """
    gen = make_stream(seed, 0)
    chains = [[] for _ in range(width)]

    def extend(steps, a, b, c):
        rows = (x.reshape(-1, width)[:steps].T.tolist() for x in (a, b, c))
        for chain, *entries in zip(chains, *rows):
            chain.extend(map(EntryTriple, *entries))

    if spec.is_rank_one:
        for done in range(0, n - 1, product.STEP_BLOCK):
            terms = min(product.STEP_BLOCK, n - 1 - done)
            extend(terms, *_block_triples(spec, terms + 1, width, gen))
        extend(1, *sample_triples(spec, width, gen))
        return chains
    g = spec.atom_law.g if spec.is_discrete else 1
    whole, span = n - n % g, product.STEP_BLOCK * g
    blocks = [min(span, whole - done) for done in range(0, whole, span)]
    if n % g:
        blocks.append(n % g)
    for block in blocks:
        extend(block, *_block_triples(spec, block, width, gen))
    return chains


def _block_triples(spec, block, width, gen):
    """Triples (a, b, c), block * width each, that replay one block step,
    block_step(spec) grouped or not.

    A finite-support block draws ceil(block / g) words of g atoms per
    chain, decodes each into its atoms and cuts the last to the block
    (AtomLaw.step_atoms), whether its steps are whole words or not.  Every
    other law that is not rank-one draws sample_triples of the whole
    block.  A rank-one block draws the unit sums t of its first
    block - 1 steps (sample_units) and nothing for its last, whose
    triple is (1, 1, 0): no term of the block reads more of it than its
    head ratio, 1 as for every rank-one step.  A unit sum step becomes
    the triple (s, s, 0) of its sum s = kappa t, whose cross term into
    any rank-one step is exactly s + 0 * 1, and an exact s = 0 the
    triple (1, 1, -1), whose term is 1 - 1 = 0.
    """
    if spec.is_discrete:
        law = spec.atom_law
        out = tuple(np.empty(block * width) for _ in range(3))
        return tuple(law.atoms[law.step_atoms(block, width, gen, out).ravel()].T)
    if not spec.is_rank_one:
        return sample_triples(spec, block * width, gen)
    s = sample_units(spec, (block - 1) * width, gen) * FAMILIES[spec.family].scale(spec)
    zero = s == 0.0
    a = np.concatenate([np.where(zero, 1.0, s), np.ones(width)])
    c = np.concatenate([np.where(zero, -1.0, 0.0), np.zeros(width)])
    return a, a, c


def _both_routes(spec, n, seed):
    """(chain_log_norms, direct_log_norm of the replayed triples) of one chain."""
    [triples] = _chain_triples(spec, n, seed)
    via_kernel = float(chain_log_norms(spec, n, 1, seed)[0])
    return via_kernel, direct_log_norm(map(build_matrix, triples))


def variance_band(m: int) -> float:
    """Relative half-width of the CLT variance band at m chains."""
    return VAR_BAND_SDS * math.sqrt(2.0 / (m - 1))


@_criterion("clt-normality")
def check_clt_normality(quick=False, threads=1):
    """KS vs N(0, sigma^2) and variance match for four families."""
    n = 2_000 if quick else 10_000
    m = 300 if quick else 2_000
    ks_line = KS_COEFF / math.sqrt(m)
    cases = [
        ("cauchy", DistributionSpec.cauchy_rank_one(), 10),
        ("exponential", DistributionSpec.exponential_rank_one(1.0), 11),
        ("uniform_sym", DistributionSpec.uniform_rank_one(1.0, 1.0), 12),
        ("binary", DistributionSpec.binary_hill(2.0, 3.0, 0.5), 13),
    ]
    fails = []
    details = []
    for name, spec, seed in cases:
        if spec.is_discrete:
            lam, sigma2, _ = exact_discrete(spec)
        else:
            lam, sigma2 = closed_form(spec)
        rep = simulate_normalized(spec, n, m, lam, sigma2, seed=seed, threads=threads)
        var_ok = abs(rep.empirical_var - sigma2) <= variance_band(m) * sigma2
        ks_ok = rep.ks_distance <= ks_line
        details.append(f"{name}: ks={rep.ks_distance:.4f} var/s2={rep.empirical_var / sigma2:.3f}")
        if not (var_ok and ks_ok):
            fails.append(f"{name} ks_ok={ks_ok} var_ok={var_ok}")
    return not fails, "; ".join(fails) or (
        f"{'; '.join(details)} (line {ks_line:.4f}, var band +-{variance_band(m):.3f})"
    )


@_criterion("law-of-large-numbers")
def check_law_of_large_numbers(quick=False, threads=1):
    """Trajectory exponent matches the per-family oracle within 4 SE."""
    n = 10**4 if quick else 10**5
    chains = 20 if quick else 50
    mc_n = 10**5 if quick else 10**6
    fails = []
    for i, (name, spec) in enumerate(sorted(_spec_zoo().items())):
        if spec.is_discrete:
            oracle, _, _ = exact_discrete(spec)
            oracle_se = 0.0
        else:
            try:
                oracle, _ = closed_form(spec)
                oracle_se = 0.0
            except NoClosedFormError:
                ref = estimate_sigma2_mc(spec, mc_n, seed=500 + i, threads=threads)
                oracle, oracle_se = ref.lam, ref.lam_std_error
        traj = trajectory_lambda(spec, n, chains, seed=100 + i, threads=threads)
        tol = 4.0 * math.hypot(traj.lam_std_error, oracle_se)
        if spec.family == CONSTANT_TRIPLE:
            ok = abs(traj.lam - oracle) <= 1e-12
        else:
            ok = abs(traj.lam - oracle) <= tol
        if not ok:
            fails.append(f"{name} err={abs(traj.lam - oracle):.2e} tol={tol:.2e}")
    return not fails, "; ".join(fails) or f"all {len(_spec_zoo())} families within 4se"


@_criterion("rank-one-c1-vanishing")
def check_rank_one_c1_vanishing(quick=False, threads=1):
    """Lag-1 autocovariance vanishes for rank-one families."""
    n = 10**5 if quick else 10**6
    cases = [
        ("uniform_sym", DistributionSpec.uniform_rank_one(1.0, 1.0)),
        ("uniform_right", DistributionSpec.uniform_rank_one(0.0, 1.0)),
        ("exponential", DistributionSpec.exponential_rank_one(1.0)),
        ("cauchy", DistributionSpec.cauchy_rank_one()),
    ]
    fails = []
    for i, (name, spec) in enumerate(cases):
        e = estimate_sigma2_mc(spec, n, seed=700 + i, threads=threads)
        if abs(e.c1) > 4.0 * e.c1_std_error:
            fails.append(f"{name} c1={e.c1:.2e} 4se={4 * e.c1_std_error:.2e}")
    return not fails, "; ".join(fails) or "c1 within 4se of 0 for all rank-one families"


@_criterion("degeneracy-detection")
def check_degeneracy_detection(quick=False, threads=1):
    """Constant/constant-Hill specs are degenerate; binary is not."""
    const = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
    hill_const = DistributionSpec.discrete_atoms([((1.0, 0.7, 1.0 / 0.7), 1.0)])
    binary = DistributionSpec.binary_hill(2.0, 3.0, 0.5)

    ok = True
    notes = []
    for name, spec in (("constant", const), ("hill-constant", hill_const)):
        _, sigma2, _ = exact_discrete(spec)
        verdict = degeneracy_check(spec)
        good = sigma2 == 0.0 and verdict.is_degenerate_candidate
        ok &= good
        notes.append(f"{name}: sigma2={sigma2} candidate={verdict.is_degenerate_candidate}")
    _, sigma2, _ = exact_discrete(binary)
    verdict = degeneracy_check(binary)
    good = sigma2 > 0.0 and not verdict.is_degenerate_candidate
    ok &= good
    notes.append(f"binary: sigma2={sigma2:.4f} candidate={verdict.is_degenerate_candidate}")
    return ok, "; ".join(notes)


@_criterion("determinism")
def check_determinism(quick=False, threads=1):
    """Identical flags give byte-identical JSON; threads do not matter."""
    with tempfile.TemporaryDirectory() as tmp:
        dist = os.path.join(tmp, "cauchy.json")
        with open(dist, "w", encoding="utf-8") as f:
            json.dump({"family": "CauchyRankOne"}, f)

        def run(cmd):
            proc = subprocess.run(
                [sys.executable, "-m", "rmp", *cmd],
                capture_output=True,
                check=True,
            )
            return proc.stdout

        samples = "5000" if quick else "20000"
        est = ["estimate", "--dist", dist, "--samples", samples, "--seed", "7"]
        clt = [
            "clt", "--dist", dist, "--n", "200", "--chains", "50",
            "--source", "closed-form", "--seed", "7",
        ]
        ok = True
        for cmd in (est, clt):
            one = run([*cmd, "--threads", "1"])
            one_again = run([*cmd, "--threads", "1"])
            eight = run([*cmd, "--threads", "8"])
            ok &= one == one_again == eight
    return ok, "estimate/clt JSON byte-identical across reruns and --threads 1 vs 8"


ALL_CHECKS = (
    check_cauchy_exact_values,
    check_exponential_exact_values,
    check_uniform_case_table,
    check_binary_formula,
    check_product_formula_oracle,
    check_clt_normality,
    check_law_of_large_numbers,
    check_rank_one_c1_vanishing,
    check_degeneracy_detection,
    check_determinism,
)


def run_battery(quick: bool = False, threads: int = 1):
    return [check(quick=quick, threads=threads) for check in ALL_CHECKS]
