import math

import numpy as np
import pytest
from scipy.special import ndtri

from rmp.clt import degeneracy_check, ks_distance, simulate_normalized
from rmp.distributions import DistributionSpec, NotDiscreteError, SpecError
from rmp.estimators import exact_discrete

LOG2 = math.log(2.0)


class TestKsDistance:
    def test_exact_quantile_construction(self):
        # samples at the quantiles of (k - 0.5)/m pin the distance at
        # half an empirical-CDF step
        m = 100
        samples = ndtri((np.arange(1, m + 1) - 0.5) / m)
        assert ks_distance(samples, 1.0) <= 0.5 / m + 1e-9

    def test_point_mass(self):
        assert ks_distance(np.zeros(50), 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_seeded_normal_below_ks_line(self):
        gen = np.random.default_rng(12345)
        samples = gen.standard_normal(2000)
        assert ks_distance(samples, 1.0) < 0.0437

    def test_reorder_invariant(self):
        gen = np.random.default_rng(3)
        samples = gen.standard_normal(500)
        shuffled = samples.copy()
        gen.shuffle(shuffled)
        assert ks_distance(samples, 2.0) == ks_distance(shuffled, 2.0)

    def test_scale_enters_through_sigma(self):
        gen = np.random.default_rng(5)
        z = gen.standard_normal(2000)
        assert ks_distance(2.0 * z, 4.0) < 0.0437
        # sup_x |Phi(x/2) - Phi(x)| is about 0.148, far above the KS line
        assert ks_distance(2.0 * z, 1.0) > 0.1

    def test_rejects_bad_sigma2(self):
        with pytest.raises(ValueError):
            ks_distance(np.zeros(10), 0.0)
        with pytest.raises(ValueError):
            ks_distance(np.array([]), 1.0)


class TestSimulateNormalized:
    def test_constant_collapses_to_zero(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        rep = simulate_normalized(spec, 100, 50, lam=LOG2, sigma2=0.0, seed=0)
        # zero up to summation rounding of log||S_n|| (about 1 ulp of n*log 2)
        assert abs(rep.empirical_mean) <= 1e-12
        assert rep.empirical_var <= 1e-24
        assert rep.ks_distance is None
        assert rep.minus_inf_events == 0
        assert sum(c for _, _, c in rep.histogram) == 50

    def test_histogram_totals_with_minus_inf(self):
        spec = DistributionSpec.discrete_atoms(
            [((2.0, 5.0, 1.0), 0.5), ((1.0, -2.0, 3.0), 0.5)]
        )
        lam = 0.1  # arbitrary finite hypothesis; chains mostly collapse
        rep = simulate_normalized(spec, 50, 40, lam=lam, sigma2=1.0, seed=0)
        assert rep.minus_inf_events > 0
        assert sum(c for _, _, c in rep.histogram) == 40 - rep.minus_inf_events

    def test_histogram_covers_five_sigma(self):
        spec = DistributionSpec.cauchy_rank_one()
        sigma2 = math.pi**2 / 4.0
        rep = simulate_normalized(spec, 200, 100, lam=LOG2, sigma2=sigma2, seed=1)
        assert len(rep.histogram) == 40
        left, right = rep.histogram[0][0], rep.histogram[-1][1]
        assert left == pytest.approx(-5.0 * math.sqrt(sigma2))
        assert right == pytest.approx(5.0 * math.sqrt(sigma2))
        assert sum(c for _, _, c in rep.histogram) == 100

    def test_wrong_lambda_blows_up_ks(self):
        spec = DistributionSpec.cauchy_rank_one()
        sigma2 = math.pi**2 / 4.0
        good = simulate_normalized(spec, 2000, 200, LOG2, sigma2, seed=2)
        bad = simulate_normalized(spec, 2000, 200, LOG2 + 0.05, sigma2, seed=2)
        assert good.ks_distance < 0.1
        assert bad.ks_distance > 3.0 * good.ks_distance

    def test_preconditions(self):
        spec = DistributionSpec.cauchy_rank_one()
        with pytest.raises(ValueError):
            simulate_normalized(spec, 5, 50, LOG2, 1.0)
        with pytest.raises(ValueError):
            simulate_normalized(spec, 100, 5, LOG2, 1.0)
        with pytest.raises(ValueError):
            simulate_normalized(spec, 100, 50, -math.inf, 1.0)


class TestDegeneracyCheck:
    def test_constant_candidate(self):
        verdict = degeneracy_check(DistributionSpec.constant_triple(1.0, 1.0, 1.0))
        assert verdict.is_degenerate_candidate
        assert verdict.lambda_residual == 0.0
        assert verdict.sigma2 == 0.0
        # quartic residual: (1+1)^2 (1+1)^2 = 2^4
        assert verdict.pairwise_residuals[0][1] == 0.0

    def test_constant_hill_atom(self):
        x = 0.7
        spec = DistributionSpec.discrete_atoms([((1.0, x, 1.0 / x), 1.0)])
        lam, sigma2, _ = exact_discrete(spec)
        verdict = degeneracy_check(spec)
        assert sigma2 == 0.0
        assert verdict.is_degenerate_candidate

    def test_binary_not_degenerate(self):
        spec = DistributionSpec.binary_hill(2.0, 3.0, 0.5)
        _, sigma2, _ = exact_discrete(spec)
        verdict = degeneracy_check(spec)
        assert sigma2 > 0.0
        assert not verdict.is_degenerate_candidate
        assert len(verdict.pairwise_residuals) == 2

    def test_necessity_on_degenerate_discrete_specs(self):
        # every discrete spec with sigma2 = 0 must be flagged a candidate
        for spec in (
            DistributionSpec.constant_triple(1.0, 1.0, 1.0),
            DistributionSpec.constant_triple(2.0, 6.0, 3.0),
            DistributionSpec.discrete_atoms([((1.0, 2.0, 0.5), 1.0)]),
        ):
            _, sigma2, _ = exact_discrete(spec)
            assert sigma2 == 0.0
            assert degeneracy_check(spec).is_degenerate_candidate

    def test_false_verdict_implies_positive_sigma2(self):
        specs = [
            DistributionSpec.binary_hill(2.0, 3.0, 0.5),
            DistributionSpec.binary_hill(0.5, 4.0, 0.3),
            DistributionSpec.discrete_atoms(
                [((1.0, 0.5, 1.0), 0.5), ((2.0, 1.0, -1.0), 0.5)]
            ),
        ]
        for spec in specs:
            verdict = degeneracy_check(spec)
            if not verdict.is_degenerate_candidate:
                _, sigma2, _ = exact_discrete(spec)
                assert sigma2 > 0.0

    def test_near_degenerate_two_atom_law(self):
        # sigma2 = 2.4999997e-15 (60-digit reference); an uncentered
        # exact_discrete returned 0.0 while the check said "not degenerate"
        spec = DistributionSpec.discrete_atoms(
            [((1e8, 1.0, 1.0), 0.5), ((1e8 * (1 + 1e-7), 1.0, 1.0), 0.5)]
        )
        verdict = degeneracy_check(spec)
        assert not verdict.is_degenerate_candidate
        assert verdict.sigma2 > 0.0

    def test_cancelling_law_raises(self):
        # lambda = -inf and sigma2 undefined: a False verdict would read
        # as "sigma2 > 0 proven"
        spec = DistributionSpec.discrete_atoms(
            [((2.0, 5.0, 1.0), 0.5), ((1.0, -2.0, 3.0), 0.5)]
        )
        with pytest.raises(SpecError, match="-inf"):
            degeneracy_check(spec)

    def test_continuous_rejected(self):
        with pytest.raises(NotDiscreteError):
            degeneracy_check(DistributionSpec.cauchy_rank_one())

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            degeneracy_check(DistributionSpec.constant_triple(1, 1, 1), tolerance=0.0)
