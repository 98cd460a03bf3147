"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a PASS line with the measured margins; the same
battery backs ``rmp selftest``.
"""

import math
import subprocess

import pytest

from rmp.selftest import (
    check_binary_formula,
    check_cauchy_exact_values,
    check_clt_normality,
    check_degeneracy_detection,
    check_determinism,
    check_exponential_exact_values,
    check_law_of_large_numbers,
    check_product_formula_oracle,
    check_rank_one_c1_vanishing,
    check_uniform_case_table,
    variance_band,
)


def _run(check, number, budget_s):
    result = check()
    line = f"criterion {number:2d} {result.name}: {result.detail} [{result.seconds:.2f}s]"
    print(("PASS " if result.passed else "FAIL ") + line)
    assert result.passed, line
    assert result.seconds < budget_s, f"over budget: {result.seconds:.1f}s > {budget_s}s"


def test_c01_cauchy_exact_values():
    # lambda = log 2 and sigma^2 = pi^2/4 within 3 SE at 1e6 samples, seed 0
    _run(check_cauchy_exact_values, 1, 5.0)


def test_c02_exponential_exact_values():
    # lambda = 1 - gamma - log(theta), sigma^2 = pi^2/6 - 1 for theta in {0.5, 1, 2}
    _run(check_exponential_exact_values, 2, 15.0)


def test_c03_uniform_case_table():
    # the three solvable uniform supports match their closed forms
    _run(check_uniform_case_table, 3, 15.0)


def test_c04_binary_formula_reproduction():
    # enumeration equals the transcribed polynomials to 1e-12 absolute
    _run(check_binary_formula, 4, 1.0)


def test_c05_product_formula_oracle():
    # chain kernel vs naive rescaled multiplication of the triples it drew:
    # 200 chains plus one per law across a step block, 1e-9 rel; -inf on a
    # cancelling law on both routes
    _run(check_product_formula_oracle, 5, 5.0)


def test_c06_clt_normality():
    # KS <= 0.0437 (alpha = 0.001 at m = 2000) and variance within 10%
    _run(check_clt_normality, 6, 180.0)


def test_c06_variance_band_scales_with_chain_count():
    # the full size's 2000 chains keep the 10 % band; --quick's 300
    # chains widen it by the sample variance's sqrt(2 / (m - 1))
    assert variance_band(2000) <= 0.1
    assert variance_band(300) == pytest.approx(0.1 * math.sqrt(1999 / 299), rel=1e-3)


def test_c07_law_of_large_numbers():
    # trajectory exponent matches the per-family oracle within 4 SE
    _run(check_law_of_large_numbers, 7, 30.0)


def test_c07_closed_form_bug_is_not_masked(monkeypatch):
    # only a missing closed form falls back to an MC oracle; any other
    # error in a closed form must surface instead of being papered over
    def broken(spec):
        raise RuntimeError("broken closed form")

    monkeypatch.setattr("rmp.selftest.closed_form", broken)
    with pytest.raises(RuntimeError, match="broken closed form"):
        check_law_of_large_numbers(quick=True)


def test_c08_rank_one_c1_vanishing():
    # lag-1 autocovariance compatible with 0 at 1e6 triples
    _run(check_rank_one_c1_vanishing, 8, 10.0)


def test_c09_degeneracy_detection():
    # point masses are degeneracy candidates with sigma^2 = 0; binary is not
    _run(check_degeneracy_detection, 9, 1.0)


def test_c10_determinism():
    # byte-identical JSON across reruns and thread counts
    _run(check_determinism, 10, 10.0)


def test_c10_failing_child_fails_the_check(monkeypatch):
    # a child that exits nonzero fails c10 with its command, exit code and
    # last stderr line, not a traceback; the fake raises on check=True, as
    # the real call does for a nonzero exit
    calls = []

    def failing(args, check=False, **kwargs):
        calls.append(args)
        if check:
            raise subprocess.CalledProcessError(1, args)
        err = b"Traceback (most recent call last):\nModuleNotFoundError: No module named 'rmp'\n"
        return subprocess.CompletedProcess(args, 1, stdout=b"", stderr=err)

    monkeypatch.setattr("rmp.selftest.subprocess.run", failing)
    result = check_determinism(quick=True)
    assert not result.passed and len(calls) == 1
    assert result.detail.startswith("rmp estimate --dist ")
    assert result.detail.endswith(
        "--threads 1 exited 1: ModuleNotFoundError: No module named 'rmp'"
    )
