import decimal
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rmp.clt import degeneracy_check
from rmp.distributions import (
    MAX_ATOMS,
    AtomLaw,
    DistributionSpec,
    EntryTriple,
    SpecError,
    cross_term,
    enumerate_atoms,
    make_stream,
    sample_triples,
)
from rmp.estimators import (
    EULER_GAMMA,
    SAMPLE_CHUNK,
    NoClosedFormError,
    _merge,
    _summary,
    closed_form,
    cross_terms,
    estimate_lambda_mc,
    estimate_sigma2_mc,
    exact_discrete,
    trajectory_lambda,
)
from rmp.parallel import chunk_sizes
from rmp.product import chain_log_norms
from rmp.selftest import _spec_zoo

LOG2 = math.log(2.0)
PI2 = math.pi**2

CANCELLING = DistributionSpec.discrete_atoms(
    [((2.0, 5.0, 1.0), 0.5), ((1.0, -2.0, 3.0), 0.5)]
)

# sigma2 = 2.4999997e-15 next to lambda^2 = 339: m2 - lambda^2 cancels
# to 0 in float, and an uncentered c1 is off by six orders
TWO_ATOM = DistributionSpec.discrete_atoms(
    [((1e8, 1.0, 1.0), 0.5), ((1e8 * (1 + 1e-7), 1.0, 1.0), 0.5)]
)


def decimal_reference(spec, digits=60):
    """(lambda, c0, c1) of a finite law in `digits`-digit decimal arithmetic.

    Works from the stored float atoms, so it is the exact value for the
    law the code sees, independent of the float code under test.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        atoms = [(t, D(p)) for t, p in enumerate_atoms(spec)]
        X = [
            [abs(D(ti.a) + D(tj.b) * D(ti.c) / D(tj.a)).ln() for tj, _ in atoms]
            for ti, _ in atoms
        ]
        k = range(len(atoms))
        p = [pr for _, pr in atoms]
        lam = sum(p[i] * p[j] * X[i][j] for i in k for j in k)
        c0 = sum(p[i] * p[j] * (X[i][j] - lam) ** 2 for i in k for j in k)
        c1 = sum(
            p[i] * p[j] * p[l] * (X[i][j] - lam) * (X[j][l] - lam)
            for i in k for j in k for l in k
        )
        return float(lam), float(c0), float(c1)


def sigma2_rows(spec, n_samples, seed):
    """The (x, y) cross-term rows estimate_sigma2_mc draws, all chunks."""
    xs, ys = [], []
    for k, m in enumerate(chunk_sizes(n_samples, SAMPLE_CHUNK)):
        gen = make_stream(seed, k)
        t1, t2, t3 = (sample_triples(spec, m, gen) for _ in range(3))
        xs.append(cross_terms(t1, t2))
        ys.append(cross_terms(t2, t3))
    return np.concatenate(xs), np.concatenate(ys)


def jackknife_se(x, y):
    """Leave-one-out jackknife SEs of the centered (sigma2, c0, c1)."""
    # the centered estimators are shift invariant; the median keeps the
    # raw sums below well conditioned (and is exact for a constant law)
    c = float(np.median(x))
    x, y = x - c, y - c
    n = x.size
    lx = (x.sum() - x) / (n - 1)
    ly = (y.sum() - y) / (n - 1)
    c0 = ((x * x).sum() - x * x) / (n - 1) - lx * lx
    c1 = ((x * y).sum() - x * y) / (n - 1) - lx * ly

    def se(t):
        return math.sqrt((n - 1) / n * float(((t - t.mean()) ** 2).sum()))

    return se(c0 + 2.0 * c1), se(c0), se(c1)


class TestCrossTerm:
    def test_constant_hill(self):
        assert cross_term(EntryTriple(1, 1, 1), EntryTriple(1, 1, 1)) == LOG2

    def test_zero_c(self):
        assert cross_term(EntryTriple(1, 0, 0), EntryTriple(3, 5, 7)) == 0.0

    def test_exact_cancellation(self):
        assert cross_term(EntryTriple(2, 9, 1), EntryTriple(1, -2, 4)) == -math.inf


class TestLambdaMC:
    def test_constant_exact(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        r = estimate_lambda_mc(spec, 1024, seed=0)
        assert r.value == LOG2
        assert r.std_error == 0.0
        assert r.minus_inf_events == 0

    def test_cauchy_hits_log2(self):
        r = estimate_lambda_mc(DistributionSpec.cauchy_rank_one(), 10**5, seed=0)
        assert abs(r.value - LOG2) <= 3.0 * r.std_error

    def test_minus_inf_events(self):
        r = estimate_lambda_mc(CANCELLING, 1000, seed=0)
        assert r.value == -math.inf
        assert 0 < r.minus_inf_events <= r.n_samples
        assert math.isnan(r.std_error)

    def test_bitwise_deterministic(self):
        spec = DistributionSpec.exponential_rank_one(1.0)
        a = estimate_lambda_mc(spec, 200_000, seed=5, threads=1)
        b = estimate_lambda_mc(spec, 200_000, seed=5, threads=8)
        assert (a.value, a.std_error) == (b.value, b.std_error)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate_lambda_mc(DistributionSpec.cauchy_rank_one(), 1)


class TestSigma2MC:
    def test_constant_exactly_zero(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        for n in (1024, SAMPLE_CHUNK + 1000):  # one chunk, then a merge
            r, ladder = estimate_sigma2_mc(spec, n, seed=0)
            assert r.value == 0.0 and r.std_error == 0.0
            assert ladder.c0 == 0.0 and ladder.c1 == 0.0
            assert ladder.lam == LOG2

    def test_ladder_reconstruction_is_exact(self):
        r, ladder = estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), 50_000, seed=1)
        assert r.value == ladder.c0 + 2.0 * ladder.c1
        assert r.value == ladder.sigma2

    def test_exponential_hits_target(self):
        r, _ = estimate_sigma2_mc(
            DistributionSpec.exponential_rank_one(1.0), 200_000, seed=3
        )
        assert abs(r.value - (PI2 / 6.0 - 1.0)) <= 3.0 * r.std_error

    def test_undefined_on_cancellation(self):
        r, ladder = estimate_sigma2_mc(CANCELLING, 1000, seed=0)
        assert math.isnan(r.value)
        assert r.minus_inf_events > 0
        assert ladder.lam == -math.inf

    def test_no_row_left_gives_nan_lambda(self):
        # seed 18 draws two rows whose y cancels while x does not: no
        # row is left to average, so lam must not read as a number
        r, ladder = estimate_sigma2_mc(CANCELLING, 2, seed=18)
        assert math.isnan(r.value) and r.minus_inf_events == 2
        assert math.isnan(ladder.lam)

    def test_rank_one_c1_small(self):
        _, ladder = estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), 10**5, seed=2)
        assert abs(ladder.c1) <= 4.0 * ladder.c1_std_error

    def test_near_degenerate_two_atom_within_3se(self):
        _, c0, c1 = decimal_reference(TWO_ATOM)
        for seed in (0, 1, 2):
            r, _ = estimate_sigma2_mc(TWO_ATOM, 10**6, seed=seed)
            assert abs(r.value - (c0 + 2.0 * c1)) <= 3.0 * r.std_error

    def test_std_errors_match_centered_jackknife(self):
        for name, spec in sorted(_spec_zoo().items()):
            r, ladder = estimate_sigma2_mc(spec, 10**5, seed=4)
            jack = jackknife_se(*sigma2_rows(spec, 10**5, seed=4))
            got = (r.std_error, ladder.c0_std_error, ladder.c1_std_error)
            for g, j in zip(got, jack):
                assert abs(g - j) <= 0.02 * j, (name, got, jack)

    def test_memory_does_not_grow_with_samples(self):
        spec = DistributionSpec.exponential_rank_one(1.0)

        def peak(n):
            tracemalloc.start()
            try:
                estimate_sigma2_mc(spec, n, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1 << 22) <= 1.5 * peak(1 << 20)

    def test_bitwise_deterministic(self):
        spec = DistributionSpec.uniform_rank_one(1.0, 1.0)
        a, la = estimate_sigma2_mc(spec, 150_000, seed=9, threads=1)
        b, lb = estimate_sigma2_mc(spec, 150_000, seed=9, threads=4)
        assert (a.value, a.std_error, la.c0, la.c1) == (b.value, b.std_error, lb.c0, lb.c1)


class TestExactDiscrete:
    def test_constant(self):
        lam, sigma2, ladder = exact_discrete(
            DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        )
        assert lam == LOG2
        assert sigma2 == 0.0
        assert (ladder.c0, ladder.c1) == (0.0, 0.0)

    def test_binary_lambda_formula(self):
        # independent transcription of the two-point exponent formula
        al, be, p = 2.0, 3.0, 0.5
        lam, _, _ = exact_discrete(DistributionSpec.binary_hill(al, be, p))
        expected = (
            p**2 * math.log(abs(al + 1 / al**2))
            + p * (1 - p) * math.log(abs(al + 1 / be**2) * abs(be + 1 / al**2))
            + (1 - p) ** 2 * math.log(abs(be + 1 / be**2))
        )
        assert lam == pytest.approx(expected, abs=1e-14)

    def test_binary_matches_closed_form(self):
        for params in ((2.0, 3.0, 0.5), (2.0, 3.0, 0.9), (0.5, 4.0, 0.3)):
            spec = DistributionSpec.binary_hill(*params)
            lam_e, sig_e, _ = exact_discrete(spec)
            lam_c, sig_c = closed_form(spec)
            assert abs(lam_e - lam_c) <= 1e-12
            assert abs(sig_e - sig_c) <= 1e-12

    def test_huge_binary_multiplier_matches_closed_form(self):
        # beta^2 = 1e400 overflowed Python's float ** in both
        spec = DistributionSpec.binary_hill(2.0, 1e200, 0.5)
        lam, sigma2, _ = exact_discrete(spec)
        want_lam, want_sigma2 = closed_form(spec)
        assert lam == pytest.approx(want_lam, rel=1e-12)
        assert sigma2 == pytest.approx(want_sigma2, rel=1e-12)
        assert lam == pytest.approx(230.63452864859863, rel=1e-12)

    def test_cancelling_pair_gives_minus_inf(self):
        lam, sigma2, _ = exact_discrete(CANCELLING)
        assert lam == -math.inf
        assert math.isnan(sigma2)

    def test_continuous_rejected(self):
        from rmp.distributions import NotDiscreteError

        with pytest.raises(NotDiscreteError):
            exact_discrete(DistributionSpec.cauchy_rank_one())

    def test_atom_cap(self):
        # the one cap is MAX_ATOMS, checked at validation; 65 atoms enumerate
        atoms = [((float(i + 1), 0.0, 0.0), 1.0 / 65) for i in range(65)]
        lam, sigma2, ladder = exact_discrete(DistributionSpec.discrete_atoms(atoms))
        # b = 0: every cross term is log a_i, so the terms are independent
        logs = np.log(np.arange(1.0, 66.0))
        assert lam == pytest.approx(logs.mean(), rel=1e-14)
        assert sigma2 == pytest.approx(logs.var(), rel=1e-12)
        assert abs(ladder.c1) <= 1e-14
        k = MAX_ATOMS + 1
        atoms = [((float(i + 1), 0.0, 0.0), 1.0 / k) for i in range(k)]
        with pytest.raises(SpecError, match="too many atoms"):
            DistributionSpec.discrete_atoms(atoms)

    def test_near_degenerate_two_atom_matches_decimal(self):
        lam, c0, c1 = decimal_reference(TWO_ATOM)
        lam_e, sigma2, ladder = exact_discrete(TWO_ATOM)
        assert sigma2 == pytest.approx(c0 + 2.0 * c1, rel=1e-6)
        assert ladder.c0 == pytest.approx(c0, rel=1e-6)
        assert abs(ladder.c1 - c1) <= 1e-6 * sigma2
        assert lam_e == pytest.approx(lam, rel=1e-15)

    def test_mc_agrees_with_enumeration(self):
        spec = DistributionSpec.discrete_atoms(
            [((1.0, 0.5, 1.0), 0.25), ((2.0, 1.0, -1.0), 0.5), ((-1.5, 2.0, 0.5), 0.25)]
        )
        lam, sigma2, _ = exact_discrete(spec)
        lam_mc = estimate_lambda_mc(spec, 200_000, seed=0)
        sig_mc, _ = estimate_sigma2_mc(spec, 200_000, seed=0)
        assert abs(lam_mc.value - lam) <= 4.0 * lam_mc.std_error
        assert abs(sig_mc.value - sigma2) <= 4.0 * sig_mc.std_error


class TestClosedForm:
    def test_cauchy(self):
        assert closed_form(DistributionSpec.cauchy_rank_one()) == (LOG2, PI2 / 4.0)

    def test_exponential_theta_e(self):
        lam, sigma2 = closed_form(DistributionSpec.exponential_rank_one(math.e))
        assert lam == pytest.approx(-EULER_GAMMA, abs=1e-15)
        assert sigma2 == PI2 / 6.0 - 1.0

    def test_uniform_table(self):
        lam, sig = closed_form(DistributionSpec.uniform_rank_one(1.0, 1.0))
        assert lam == pytest.approx(LOG2 - 1.5, abs=1e-15)
        assert sig == 1.25
        lam0, sig0 = closed_form(DistributionSpec.uniform_rank_one(0.0, 1.0))
        assert lam0 == pytest.approx(2 * LOG2 - 1.5, abs=1e-15)
        assert sig0 == pytest.approx(1.25 - 2 * LOG2**2, abs=1e-15)
        lam1, sig1 = closed_form(DistributionSpec.uniform_rank_one(3.0, 0.0))
        assert lam1 == pytest.approx(2 * LOG2 - 1.5 + math.log(3.0), abs=1e-15)
        assert sig1 == sig0

    def test_uniform_off_table(self):
        with pytest.raises(NoClosedFormError, match="no closed form"):
            closed_form(DistributionSpec.uniform_rank_one(0.5, 1.0))

    def test_hill_has_none(self):
        with pytest.raises(NoClosedFormError):
            closed_form(DistributionSpec.hill_random(0.5, 2.0))


class TestTrajectoryLambda:
    def test_constant_chain(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        r = trajectory_lambda(spec, 1000, 4, seed=0)
        assert r.value == pytest.approx(LOG2, rel=1e-14)
        assert r.minus_inf_events == 0

    def test_cauchy(self):
        r = trajectory_lambda(DistributionSpec.cauchy_rank_one(), 10**4, 30, seed=1)
        assert abs(r.value - LOG2) <= 4.0 * r.std_error

    def test_binary_matches_enumeration(self):
        spec = DistributionSpec.binary_hill(2.0, 3.0, 0.5)
        lam, _, _ = exact_discrete(spec)
        r = trajectory_lambda(spec, 10**4, 30, seed=2)
        assert abs(r.value - lam) <= 4.0 * r.std_error

    def test_minus_inf_counted(self):
        r = trajectory_lambda(CANCELLING, 100, 32, seed=0)
        assert r.value == -math.inf
        assert r.minus_inf_events > 0


class TestReducer:
    def test_merged_chunks_equal_one_pass(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3000) * 3.0 + 5.0
        y = rng.standard_normal(3000) + 5.0
        parts = [
            _summary(x[a:b].copy(), y[a:b].copy(), 4, 2)
            for a, b in ((0, 700), (700, 701), (701, 701), (701, 3000))
        ]
        m, S = functools.reduce(_merge, parts)
        m1, S1 = _summary(x.copy(), y.copy(), 4, 2)
        assert m == pytest.approx(m1, rel=1e-14)
        assert S[0, 0] == 3000.0
        # first powers sum to ~0, so they get an absolute tolerance
        np.testing.assert_allclose(S, S1, rtol=1e-10, atol=1e-8)


def _extreme(draw):
    """A real m * 10^e with |m| in [1, 10) and e in [-300, 300]."""
    m = draw(st.floats(1.0, 10.0, exclude_max=True)) * draw(st.sampled_from([-1.0, 1.0]))
    return m * 10.0 ** draw(st.integers(-300, 300))


@st.composite
def extreme_atom_pairs(draw):
    p = draw(st.floats(0.05, 0.95))
    return [(tuple(_extreme(draw) for _ in range(3)), w) for w in (p, 1.0 - p)]


class TestExtremeAtoms:
    @given(extreme_atom_pairs())
    @settings(max_examples=200, deadline=None)
    def test_rejected_or_never_plus_inf_or_nan(self, atoms):
        # a law either fails validation or gives no +inf or NaN anywhere;
        # lambda is -inf (and the variance NaN) only on an exact cancellation
        try:
            spec = DistributionSpec.discrete_atoms(atoms)
        except SpecError:
            return
        lam, sigma2, _ = exact_discrete(spec)
        mc = estimate_lambda_mc(spec, 4096, seed=0).value
        chains = chain_log_norms(spec, 40, 8, seed=0)
        for v in (lam, mc, *chains):
            assert not (math.isnan(v) or v == math.inf)
        if lam != -math.inf:
            assert math.isfinite(sigma2)


@st.composite
def small_atom_laws(draw):
    """1 to 4 atoms: random reals, a small grid that makes coincidences
    (and exact cancellations) likely, or one triple repeated (sigma2 = 0)."""
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["real", "grid", "repeat"]))

    def real(lo, hi):
        if kind == "grid":
            x = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        else:
            x = draw(st.floats(lo, hi))
        return x * draw(st.sampled_from([-1.0, 1.0]))

    def triple():
        return real(0.1, 10.0), real(0.0, 10.0), real(0.0, 10.0)

    first = triple()
    triples = [first if kind == "repeat" else triple() for _ in range(k)]
    w = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    return DistributionSpec.discrete_atoms(
        [(t, wi / math.fsum(w)) for t, wi in zip(triples, w)]
    )


U = 2.0**-53  # unit roundoff


def gamma(n):
    return n * U / (1.0 - n * U)


def exact_error_bounds(spec, lam):
    """Bounds on the float error of exact_discrete's (lambda, c0, c1).

    Derived from the rounding of T: q = b_j c_i / a_j takes two
    roundings and v = a_i + q one more, so v is off by at most
    rho = u + gamma(2) (1 + u) |q| / |v| relative, and log |v| by
    -log(1 - rho), plus 4 ulp (8u |T|) for np.log itself.  The sums
    over k terms add the usual gamma(n) terms of a dot product, and the
    centered D = T - lam carries the error of T and of lam.  Returns
    None when a near cancellation makes rho >= 1/2 (no useful bound).
    """
    law = AtomLaw(spec)
    T, p = law.log_cross(), law.p
    k = law.k
    a, b, c = law.atoms.T
    q = b[None, :] * c[:, None] / a[None, :]
    rho = U + gamma(2) * (1.0 + U) * np.abs(q) / np.abs(a[:, None] + q)
    if rho.max() >= 0.5:
        return None
    e = -np.log1p(-rho) + 8.0 * U * np.abs(T)
    lam_err = p @ e @ p + gamma(2 * k) * (p @ np.abs(T) @ p)
    D = T - lam
    dD = e + lam_err + U * np.abs(D)
    c0_err = p @ (dD * (2.0 * np.abs(D) + dD)) @ p + gamma(2 * k + 1) * (p @ (D * D) @ p)
    r, s = p @ D, D @ p
    er = p @ dD + gamma(k) * (p @ np.abs(D))
    es = dD @ p + gamma(k) * (np.abs(D) @ p)
    c1_err = p @ (er * np.abs(s) + (np.abs(r) + er) * es) + gamma(k + 1) * (p @ np.abs(r * s))
    return lam_err, c0_err, c1_err


class TestTableEnumeration:
    @given(small_atom_laws())
    @settings(max_examples=300, deadline=None)
    def test_matches_decimal_within_rounding_bound(self, spec):
        lam, sigma2, ladder = exact_discrete(spec)
        assume(lam != -math.inf)  # an exact cancellation has no decimal log
        bounds = exact_error_bounds(spec, lam)
        assume(bounds is not None)
        lam_err, c0_err, c1_err = bounds
        ref_lam, ref_c0, ref_c1 = decimal_reference(spec)
        # the reference is rounded to float once per value, and sigma2
        # adds two roundings of its own on each side
        assert abs(lam - ref_lam) <= lam_err + U * abs(ref_lam)
        assert abs(ladder.c0 - ref_c0) <= c0_err + U * abs(ref_c0)
        assert abs(ladder.c1 - ref_c1) <= c1_err + U * abs(ref_c1)
        ref_sigma2 = ref_c0 + 2.0 * ref_c1
        slack = 3.0 * U * (abs(ref_c0) + 2.0 * abs(ref_c1))
        assert abs(sigma2 - ref_sigma2) <= c0_err + 2.0 * c1_err + slack

    @given(small_atom_laws())
    @settings(max_examples=300, deadline=None)
    def test_false_verdict_implies_positive_decimal_sigma2(self, spec):
        verdict = degeneracy_check(spec)
        assume(verdict.lam != -math.inf)
        if not verdict.is_degenerate_candidate:
            _, c0, c1 = decimal_reference(spec)
            assert c0 + 2.0 * c1 > 0.0
