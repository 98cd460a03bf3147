"""Acceptance battery: every release gate as a runnable check.

Each check pins its seeds and tolerances; the full battery targets a
desk-scale budget (a few minutes on one core).  ``quick=True`` shrinks
sample counts for a smoke run (statistical acceptance bands scale with
the reported standard errors, and the KS line scales as 1/sqrt(m)).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from .clt import degeneracy_check, simulate_normalized
from .distributions import (
    CONSTANT_TRIPLE,
    DistributionSpec,
    EntryTriple,
    make_stream,
    sample_triples,
)
from .estimators import (
    EULER_GAMMA,
    NoClosedFormError,
    closed_form,
    estimate_lambda_mc,
    estimate_sigma2_mc,
    exact_discrete,
    lambda_view,
    trajectory_lambda,
)
from .product import (
    accumulator_init,
    accumulator_step,
    build_matrix,
    direct_log_norm,
    log_norm,
)

LOG2 = math.log(2.0)
PI2 = math.pi**2

# KS acceptance line: asymptotic critical value at level 0.001 is
# 1.9495 / sqrt(m); 0.0437 for m = 2000.
KS_COEFF = 1.9495


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


def _band(est, target, k):
    """|estimate - target| <= k * std_error, with a printable summary."""
    err = abs(est.value - target)
    ok = err <= k * est.std_error
    return ok, f"err={err:.2e} vs {k}se={k * est.std_error:.2e}"


# -- the ten criteria ---------------------------------------------------------

def check_cauchy_exact_values(quick=False, threads=1) -> CheckResult:
    """Cauchy rank-one: lambda = log 2, sigma^2 = pi^2/4, within 3 SE."""
    t0 = time.perf_counter()
    n = 10**5 if quick else 10**6
    spec = DistributionSpec.cauchy_rank_one()
    sig, ladder = estimate_sigma2_mc(spec, n, seed=0, threads=threads)
    lam = lambda_view(sig, ladder)
    ok1, d1 = _band(lam, LOG2, 3.0)
    ok2, d2 = _band(sig, PI2 / 4.0, 3.0)
    return CheckResult(
        "cauchy-exact-values",
        ok1 and ok2,
        f"lambda {d1}; sigma2 {d2}",
        time.perf_counter() - t0,
    )


def check_exponential_exact_values(quick=False, threads=1) -> CheckResult:
    """Exponential rank-one at theta in {0.5, 1, 2}, within 3 SE."""
    t0 = time.perf_counter()
    n = 10**5 if quick else 10**6
    fails = []
    for theta in (0.5, 1.0, 2.0):
        spec = DistributionSpec.exponential_rank_one(theta)
        sig, ladder = estimate_sigma2_mc(spec, n, seed=0, threads=threads)
        lam = lambda_view(sig, ladder)
        ok1, _ = _band(lam, 1.0 - EULER_GAMMA - math.log(theta), 3.0)
        ok2, _ = _band(sig, PI2 / 6.0 - 1.0, 3.0)
        if not (ok1 and ok2):
            fails.append(f"theta={theta} lambda_ok={ok1} sigma2_ok={ok2}")
    return CheckResult(
        "exponential-exact-values",
        not fails,
        "; ".join(fails) or "theta 0.5/1/2 all within 3se",
        time.perf_counter() - t0,
    )


def check_uniform_case_table(quick=False, threads=1) -> CheckResult:
    """Uniform rank-one supports [0,1], [-1,0], [-1,1] vs closed forms."""
    t0 = time.perf_counter()
    n = 10**5 if quick else 10**6
    fails = []
    for (a, b) in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        spec = DistributionSpec.uniform_rank_one(a, b)
        lam_cf, sig_cf = closed_form(spec)
        sig, ladder = estimate_sigma2_mc(spec, n, seed=0, threads=threads)
        lam = lambda_view(sig, ladder)
        ok1, _ = _band(lam, lam_cf, 3.0)
        ok2, _ = _band(sig, sig_cf, 3.0)
        if not (ok1 and ok2):
            fails.append(f"(a,b)=({a},{b}) lambda_ok={ok1} sigma2_ok={ok2}")
    return CheckResult(
        "uniform-case-table",
        not fails,
        "; ".join(fails) or "supports [0,1], [-1,0], [-1,1] all within 3se",
        time.perf_counter() - t0,
    )


def check_binary_formula(quick=False, threads=1) -> CheckResult:
    """Enumeration equals the transcribed binary polynomials to 1e-12."""
    t0 = time.perf_counter()
    worst = 0.0
    for (al, be, p) in ((2.0, 3.0, 0.5), (2.0, 3.0, 0.9), (0.5, 4.0, 0.3)):
        spec = DistributionSpec.binary_hill(al, be, p)
        lam_e, sig_e, _ = exact_discrete(spec)
        lam_c, sig_c = closed_form(spec)
        worst = max(worst, abs(lam_e - lam_c), abs(sig_e - sig_c))
    return CheckResult(
        "binary-formula-reproduction",
        worst <= 1e-12,
        f"max |enumeration - polynomial| = {worst:.2e} (tol 1e-12)",
        time.perf_counter() - t0,
    )


def check_product_formula_oracle(quick=False, threads=1) -> CheckResult:
    """Accumulator log-norm vs naive rescaled multiplication, 200 trials."""
    t0 = time.perf_counter()
    zoo = _spec_zoo()
    names = sorted(zoo)
    trials = 50 if quick else 200
    worst = 0.0
    bad = None
    for trial in range(trials):
        spec = zoo[names[trial % len(names)]]
        gen = make_stream(4242, trial)
        n = int(gen.integers(1, 201))
        a, b, c = sample_triples(spec, n, gen)
        triples = [EntryTriple(a[i], b[i], c[i]) for i in range(n)]
        acc = accumulator_init(triples[0])
        for xi in triples[1:]:
            acc = accumulator_step(acc, xi)
        via_acc = log_norm(acc)
        via_direct = direct_log_norm([build_matrix(xi) for xi in triples])
        rel = abs(via_acc - via_direct) / max(1.0, abs(via_acc))
        if rel > worst:
            worst, bad = rel, (names[trial % len(names)], n)
    # constructed exact cancellations must agree as -inf on both routes
    cancel = [
        [EntryTriple(2.0, 5.0, 1.0), EntryTriple(1.0, -2.0, 3.0)],
        [EntryTriple(2.0, 5.0, 1.0), EntryTriple(1.0, -2.0, 3.0), EntryTriple(4.0, 7.0, 9.0)],
        [EntryTriple(1.0, 1.0, 1.0), EntryTriple(-1.0, 1.0, 1.0), EntryTriple(2.0, 2.0, 2.0)],
    ]
    inf_ok = True
    for triples in cancel:
        acc = accumulator_init(triples[0])
        for xi in triples[1:]:
            acc = accumulator_step(acc, xi)
        inf_ok &= math.isinf(log_norm(acc)) and math.isinf(
            direct_log_norm([build_matrix(xi) for xi in triples])
        )
    return CheckResult(
        "product-formula-oracle",
        worst <= 1e-9 and inf_ok,
        f"worst rel err {worst:.2e} at {bad}; -inf agreement {inf_ok}",
        time.perf_counter() - t0,
    )


def check_clt_normality(quick=False, threads=1) -> CheckResult:
    """KS vs N(0, sigma^2) and variance match for four families."""
    t0 = time.perf_counter()
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
        var_ok = abs(rep.empirical_var - sigma2) <= 0.1 * sigma2
        ks_ok = rep.ks_distance <= ks_line
        details.append(f"{name}: ks={rep.ks_distance:.4f}")
        if not (var_ok and ks_ok):
            fails.append(f"{name} ks_ok={ks_ok} var_ok={var_ok}")
    return CheckResult(
        "clt-normality",
        not fails,
        "; ".join(fails) or f"{'; '.join(details)} (line {ks_line:.4f})",
        time.perf_counter() - t0,
    )


def check_law_of_large_numbers(quick=False, threads=1) -> CheckResult:
    """Trajectory exponent matches the per-family oracle within 4 SE."""
    t0 = time.perf_counter()
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
                ref = estimate_lambda_mc(spec, mc_n, seed=500 + i, threads=threads)
                oracle, oracle_se = ref.value, ref.std_error
        traj = trajectory_lambda(spec, n, chains, seed=100 + i, threads=threads)
        tol = 4.0 * math.hypot(traj.std_error, oracle_se)
        if spec.family == CONSTANT_TRIPLE:
            ok = abs(traj.value - oracle) <= 1e-12
        else:
            ok = abs(traj.value - oracle) <= tol
        if not ok:
            fails.append(f"{name} err={abs(traj.value - oracle):.2e} tol={tol:.2e}")
    return CheckResult(
        "law-of-large-numbers",
        not fails,
        "; ".join(fails) or f"all {len(_spec_zoo())} families within 4se",
        time.perf_counter() - t0,
    )


def check_rank_one_c1_vanishing(quick=False, threads=1) -> CheckResult:
    """Lag-1 autocovariance vanishes for rank-one families."""
    t0 = time.perf_counter()
    n = 10**5 if quick else 10**6
    cases = [
        ("uniform_sym", DistributionSpec.uniform_rank_one(1.0, 1.0)),
        ("uniform_right", DistributionSpec.uniform_rank_one(0.0, 1.0)),
        ("exponential", DistributionSpec.exponential_rank_one(1.0)),
        ("cauchy", DistributionSpec.cauchy_rank_one()),
    ]
    fails = []
    for i, (name, spec) in enumerate(cases):
        _, ladder = estimate_sigma2_mc(spec, n, seed=700 + i, threads=threads)
        if abs(ladder.c1) > 4.0 * ladder.c1_std_error:
            fails.append(f"{name} c1={ladder.c1:.2e} 4se={4 * ladder.c1_std_error:.2e}")
    return CheckResult(
        "rank-one-c1-vanishing",
        not fails,
        "; ".join(fails) or "c1 within 4se of 0 for all rank-one families",
        time.perf_counter() - t0,
    )


def check_degeneracy_detection(quick=False, threads=1) -> CheckResult:
    """Constant/constant-Hill specs are degenerate; binary is not."""
    t0 = time.perf_counter()
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
    return CheckResult(
        "degeneracy-detection", ok, "; ".join(notes), time.perf_counter() - t0
    )


def check_determinism(quick=False, threads=1) -> CheckResult:
    """Identical flags give byte-identical JSON; threads do not matter."""
    t0 = time.perf_counter()
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
    return CheckResult(
        "determinism",
        ok,
        "estimate/clt JSON byte-identical across reruns and --threads 1 vs 8",
        time.perf_counter() - t0,
    )


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
