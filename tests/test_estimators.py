import decimal
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rmp import product
from rmp.clt import degeneracy_check
from rmp.distributions import (
    _EXP_MIN_THETA,
    _HALF_MAX,
    MAX_ATOMS,
    AtomLaw,
    DistributionSpec,
    EntryTriple,
    SpecError,
    enumerate_atoms,
    make_stream,
    sample_triples,
)
from rmp.estimators import (
    EULER_GAMMA,
    SAMPLE_CHUNK,
    NoClosedFormError,
    _reduce,
    batch_length,
    closed_form,
    cross_terms,
    estimate_lambda_mc,
    estimate_sigma2_mc,
    exact_discrete,
    trajectory_lambda,
)
from rmp.product import chain_log_norms, chunk_sizes
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


def segment_rows(spec, n_samples, seed):
    """The (x, y) lag rows of every chunk's chain segment, one list entry per chunk."""
    rows = []
    for k, m in enumerate(chunk_sizes(n_samples, SAMPLE_CHUNK)):
        a, b, c = sample_triples(spec, m + 2, make_stream(seed, k))
        terms = cross_terms((a[:-1], None, c[:-1]), (a[1:], b[1:], None))
        rows.append((terms[:-1], terms[1:]))
    return rows


def batch_means_se(rows, n_samples):
    """Batch-means SEs of (sigma2, c0, c1, lambda), by plain numpy.

    Batches are L = 2^floor(log2 sqrt(n)) consecutive rows inside one
    chunk; each gives its own mean and centered c0, c1, and an SE is
    the batch values' sample std over sqrt(batch count).
    """
    L = 2 ** math.floor(math.log2(math.sqrt(n_samples)))
    lam, c0, c1 = [], [], []
    for x, y in rows:
        B = x.size // L
        xb, yb = x[: B * L].reshape(B, L), y[: B * L].reshape(B, L)
        m = xb.mean(axis=1, keepdims=True)
        lam.append(m[:, 0])
        c0.append(((xb - m) ** 2).mean(axis=1))
        c1.append(((xb - m) * (yb - m)).mean(axis=1))
    lam, c0, c1 = (np.concatenate(v) for v in (lam, c0, c1))

    def se(v):
        return float(v.std(ddof=1)) / math.sqrt(v.size)

    return se(c0 + 2.0 * c1), se(c0), se(c1), se(lam)


def one_cross_term(t1, t2) -> float:
    """cross_terms of one pair of triples, passed as length-1 arrays."""
    (x,) = cross_terms(*(np.array([t], dtype=float).T for t in (t1, t2)))
    return float(x)


class TestCrossTerm:
    def test_constant_hill(self):
        assert one_cross_term((1, 1, 1), (1, 1, 1)) == LOG2

    def test_zero_c(self):
        assert one_cross_term((1, 0, 0), (3, 5, 7)) == 0.0

    def test_exact_cancellation(self):
        assert one_cross_term((2, 9, 1), (1, -2, 4)) == -math.inf

    def test_asymmetric(self):
        # the cross term takes b from the incoming factor and c from the
        # pending one; swapping the pair must change the result
        t1, t2 = (1.0, 2.0, 3.0), (2.0, 5.0, 0.5)
        fwd, rev = one_cross_term(t1, t2), one_cross_term(t2, t1)
        assert fwd == np.log(abs(1.0 + 3.0 * (5.0 / 2.0)))
        assert rev == np.log(abs(2.0 + 0.5 * (2.0 / 1.0)))
        assert fwd != rev


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


def _ln(x) -> decimal.Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return decimal.Decimal(x).ln()


class TestOverflowingRankOneLaws:
    # x + y is finite, but x * y overflows; closed forms in 50 digits:
    # log(2b) - 3/2 on [-b, b], and 1 - gamma - log(theta)
    @pytest.mark.parametrize(
        "spec, lam",
        [
            (DistributionSpec.uniform_rank_one(1e300, 1e300),
             float(_ln(2) + _ln(1e300) - decimal.Decimal("1.5"))),
            (DistributionSpec.exponential_rank_one(1e-300),
             float(1 - decimal.Decimal("0.57721566490153286060651209") - _ln(1e-300))),
        ],
        ids=["uniform", "exponential"],
    )
    def test_lambda_within_4se_of_closed_form(self, spec, lam):
        r = estimate_lambda_mc(spec, 10**5, seed=0)
        assert math.isfinite(r.value) and r.minus_inf_events == 0
        assert abs(r.value - lam) <= 4.0 * r.std_error
        assert lam == pytest.approx(closed_form(spec)[0], rel=1e-15)


class TestRankOneOverflowBounds:
    # a rank-one law is valid only while x + y of two draws stays finite:
    # max(a, b) <= DBL_MAX/2 for Uniform, theta >= 2 m / DBL_MAX for
    # Exponential, with m its largest Exp(1) draw
    DBL_MAX = sys.float_info.max

    def test_overflowing_laws_rejected(self):
        # both once printed lambda = NaN with no event counted
        with pytest.raises(SpecError, match="overflow"):
            DistributionSpec.exponential_rank_one(1e-308)
        with pytest.raises(SpecError, match="overflow"):
            DistributionSpec.uniform_rank_one(1.7e308, 1e300)
        DistributionSpec.uniform_rank_one(1e300, 1e300)
        DistributionSpec.exponential_rank_one(1e-300)

    def test_uniform_bound_in_exact_decimal(self):
        D = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.traps[decimal.Inexact] = 2000, True
            half = D(_HALF_MAX)
            assert half == D(2) ** 1023 - D(2) ** 970 and 2 * half == D(self.DBL_MAX)
            # sums at or past the midpoint of DBL_MAX and 2^1024 round to inf
            inf_at = D(2) ** 1024 - D(2) ** 970
            above = np.nextafter(_HALF_MAX, math.inf)
            assert D(above) == D(2) ** 1023
            # a = 2^1023, b = 0: u = 0 draws x = -a, twice
            assert 2 * D(above) >= inf_at
            # a = 0, b = 2^1023 + 2^971: u = 1 - 2^-53 draws x = 2^1023 (the
            # doubles above it are 2^971 apart), twice
            wide = np.nextafter(above, math.inf)
            assert abs(D(wide) * (1 - D(2) ** -53) - D(above)) < D(2) ** 970
        for a, b in ((above, 0.0), (0.0, wide), (above, above)):
            with pytest.raises(SpecError, match="overflow"):
                DistributionSpec.uniform_rank_one(a, b)

    def test_exponential_bound_in_exact_decimal(self):
        # the largest Exp(1) draw, -log1p(-u) at u = 1 - 2^-53: 53 log 2
        D, m = decimal.Decimal, float(-np.log1p(-(1.0 - 2.0**-53)))
        assert abs(D(m) - 53 * _ln(2)) <= D(math.ulp(m))
        assert _EXP_MIN_THETA == 2.0 * m / self.DBL_MAX
        below = np.nextafter(_EXP_MIN_THETA, 0.0)
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.traps[decimal.Inexact] = 2000, True
            # m / theta <= DBL_MAX/2 at the bound: two draws sum to <= DBL_MAX
            assert 2 * D(m) <= D(_EXP_MIN_THETA) * D(self.DBL_MAX)
            # one double below, m / theta rounds up to 2^1023 (ties to even)
            assert D(m) >= D(below) * (D(2) ** 1023 - D(2) ** 969)
        assert m / _EXP_MIN_THETA <= _HALF_MAX and m / below == 2.0**1023
        with pytest.raises(SpecError, match="overflow"):
            DistributionSpec.exponential_rank_one(below)

    # (law at the bound, its closed-form lambda in 50 digits, the uniforms
    # that give its extreme draws; u = 0 would draw an Exp(1) zero forever)
    @pytest.mark.parametrize(
        "spec, lam, extremes",
        [
            (DistributionSpec.uniform_rank_one(_HALF_MAX, _HALF_MAX),
             float(_ln(2 * _HALF_MAX) - decimal.Decimal("1.5")),
             (0.0, 1.0 - 2.0**-53)),
            (DistributionSpec.exponential_rank_one(_EXP_MIN_THETA),
             float(1 - decimal.Decimal("0.57721566490153286060651209")
                   - _ln(_EXP_MIN_THETA)),
             (1.0 - 2.0**-53,)),
        ],
        ids=["uniform", "exponential"],
    )
    def test_law_at_bound_gives_finite_lambda(self, spec, lam, extremes):
        for u in extremes:
            x, _, y = sample_triples(spec, 2, _ExtremeStream(u))
            assert np.isfinite(x + y).all(), u
        r = estimate_lambda_mc(spec, 10**5, seed=0)
        assert math.isfinite(r.value) and r.minus_inf_events == 0
        assert abs(r.value - lam) <= 4.0 * r.std_error


class _ExtremeStream:
    """A stream whose every uniform is u, the sampler's extreme input."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out.fill(self.u)
        return out


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

    def test_last_term_event_makes_lambda_minus_inf(self):
        # the first seed whose chunk draws atoms 0, 0, 0, 1: the only -inf
        # is the segment's last term, which is never an x; lambda is -inf
        # all the same, since the law can cancel
        law = CANCELLING.atom_law
        seed = next(
            (s for s in range(1000)
             if law.indices(4, make_stream(s, 0)).tolist() == [0, 0, 0, 1]),
            None,
        )
        assert seed is not None
        r, ladder = estimate_sigma2_mc(CANCELLING, 2, seed=seed)
        assert math.isnan(r.value) and r.minus_inf_events == 1
        assert ladder.lam == -math.inf and ladder.minus_inf_events == 1
        assert math.isnan(ladder.lam_std_error)

    def test_rank_one_c1_small(self):
        _, ladder = estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), 10**5, seed=2)
        assert abs(ladder.c1) <= 4.0 * ladder.c1_std_error

    def test_near_degenerate_two_atom_within_3se(self):
        _, c0, c1 = decimal_reference(TWO_ATOM)
        for seed in (0, 1, 2):
            r, _ = estimate_sigma2_mc(TWO_ATOM, 10**6, seed=seed)
            assert abs(r.value - (c0 + 2.0 * c1)) <= 3.0 * r.std_error

    def test_std_errors_match_batch_means(self):
        n = SAMPLE_CHUNK + 30_000  # a full chunk, then a short one
        for name, spec in sorted(_spec_zoo().items()):
            r, ladder = estimate_sigma2_mc(spec, n, seed=4)
            want = batch_means_se(segment_rows(spec, n, seed=4), n)
            got = (r.std_error, ladder.c0_std_error, ladder.c1_std_error,
                   ladder.lam_std_error)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-15), name

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


ATOMS3 = DistributionSpec.discrete_atoms(
    [((1.0, 0.5, 1.0), 0.25), ((2.0, 1.0, -1.0), 0.5), ((-1.5, 2.0, 0.5), 0.25)]
)


class TestOnePass:
    @pytest.mark.parametrize(
        "spec", [DistributionSpec.exponential_rank_one(1.0), ATOMS3], ids=["exp1", "atoms3"]
    )
    def test_one_call_draws_n_plus_two_triples_per_chunk(self, spec, monkeypatch):
        n, seed = 2 * SAMPLE_CHUNK + 5, 3
        streams, counts = {}, []
        real_stream, real_sample = product.make_stream, product.sample_triples

        def stream(s, k):
            streams[k] = real_stream(s, k)
            return streams[k]

        def sample(spec, m, gen, out=None):
            counts.append(m)
            return real_sample(spec, m, gen, out=out)

        monkeypatch.setattr(product, "make_stream", stream)
        monkeypatch.setattr(product, "sample_triples", sample)
        estimate_sigma2_mc(spec, n, seed=seed)
        sizes = chunk_sizes(n, SAMPLE_CHUNK)
        assert sorted(streams) == list(range(len(sizes)))
        for k, m in enumerate(sizes):
            # each chunk's stream stands exactly m + 2 triples in
            ref = make_stream(seed, k)
            sample_triples(spec, m + 2, ref)
            assert streams[k].random() == ref.random(), k
        if not spec.is_discrete:  # a finite-support law draws atom indices
            assert sum(counts) == n + 2 * len(sizes)

    def test_pooled_workspaces_under_thread_stress(self):
        # more workers than cores, switching often: a workspace lent to two
        # chunks at once would change the sums
        spec = DistributionSpec.exponential_rank_one(1.0)
        n = 12 * SAMPLE_CHUNK
        want = _reduce(spec, n, 5, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _reduce(spec, n, 5, 16)
        finally:
            sys.setswitchinterval(interval)
        assert got[0] == want[0] == 0
        assert np.array_equal(got[1], want[1])

    def test_constant_std_errors_exactly_zero(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        for n in (1024, SAMPLE_CHUNK + 1000):
            r, ladder = estimate_sigma2_mc(spec, n, seed=0)
            ses = (r.std_error, ladder.c0_std_error, ladder.c1_std_error,
                   ladder.lam_std_error)
            assert ses == (0.0, 0.0, 0.0, 0.0)

    def test_batch_length(self):
        # n = 2 and 3 give batches of one row, so still two or more batches
        _, ladder = estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), 3, seed=0)
        assert math.isfinite(ladder.lam_std_error)
        assert batch_length(3) == 1 and batch_length(4) == 2
        assert batch_length(16384) == 128 and batch_length(4_000_000) == 1024
        assert batch_length(1 << 40) == SAMPLE_CHUNK

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_variance_std_errors_need_two_row_batches(self, n):
        # a one-row batch centered at its own mean has Sxx = Sxy = 0, so
        # below 4 rows the variance SEs are undefined, not 0
        r, ladder = estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), n, seed=1)
        ses = np.array([r.std_error, ladder.c0_std_error, ladder.c1_std_error])
        assert np.isnan(ses).all() if n < 4 else np.isfinite(ses).all()
        assert math.isfinite(ladder.lam_std_error)

    @pytest.mark.parametrize(
        "spec, cancels",
        [(CANCELLING, True), (DistributionSpec.binary_hill(2.0, 3.0, 0.5), False),
         (ATOMS3, False)],
        ids=["cancelling", "binary", "atoms3"],
    )
    def test_events_exactly_when_lambda_is_minus_inf(self, spec, cancels):
        lam, _, ladder = exact_discrete(spec)
        sig, mc = estimate_sigma2_mc(spec, 4096, seed=0)
        lam_mc = estimate_lambda_mc(spec, 4096, seed=0)
        assert ladder.minus_inf_events == (1 if cancels else 0)
        for value, events in (
            (lam, ladder.minus_inf_events),
            (mc.lam, mc.minus_inf_events),
            (mc.lam, sig.minus_inf_events),
            (lam_mc.value, lam_mc.minus_inf_events),
        ):
            assert (events > 0) is cancels
            assert (value == -math.inf) is cancels


class TestStdErrorCalibration:
    """z = (estimate - reference) / SE over independent seeds.

    Derivation of the bands.  With correct standard errors the z of one
    seed is close to N(0, 1): a t with B - 1 degrees of freedom for the
    B = 128 batches at n = 16384, whose variance 127/125 = 1.016 is 1 to
    the precision below.  Over N independent seeds, the sample mean of z
    then has standard deviation 1/sqrt(N), and the sample variance s^2
    has standard deviation sqrt(2/(N - 1)) ((N - 1) s^2 is chi-square
    with N - 1 degrees of freedom).  Each may deviate by 4 of its
    standard deviations: |mean| <= 4/sqrt(N) and
    |s^2 - 1| <= 4 sqrt(2/(N - 1)), i.e. 0.231 and 0.327 at N = 300.
    An SE off by a factor f scales s^2 by 1/f^2: halved (4) or doubled
    (1/4) SEs leave the band, which the test checks on its own z-scores.
    """

    N_SEEDS = 300
    N = 16384

    @staticmethod
    def _bands_hold(z):
        k = z.size
        mean_ok = abs(z.mean()) <= 4.0 / math.sqrt(k)
        var_ok = abs(z.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / (k - 1))
        return mean_ok and var_ok

    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec.exponential_rank_one(1.0),
            DistributionSpec.cauchy_rank_one(),
            DistributionSpec.binary_hill(2.0, 3.0, 0.5),
            ATOMS3,
        ],
        ids=["exp1", "cauchy", "binary", "atoms3"],
    )
    def test_z_scores_are_standard(self, spec):
        if spec.is_discrete:
            lam, sigma2, _ = exact_discrete(spec)
        else:
            lam, sigma2 = closed_form(spec)
        z_lam, z_sigma2 = [], []
        for seed in range(self.N_SEEDS):
            r, ladder = estimate_sigma2_mc(spec, self.N, seed=seed)
            z_lam.append((ladder.lam - lam) / ladder.lam_std_error)
            z_sigma2.append((r.value - sigma2) / r.std_error)
        for z in (np.array(z_lam), np.array(z_sigma2)):
            assert self._bands_hold(z), (z.mean(), z.var(ddof=1))
            # halved SEs double z, doubled SEs halve it
            assert not self._bands_hold(2.0 * z)
            assert not self._bands_hold(0.5 * z)


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
    @pytest.mark.parametrize(
        "name", sorted(set(_spec_zoo()) - {"constant"})  # constant: exactly 0 above
    )
    def test_combine_equals_two_pass(self, name):
        spec = _spec_zoo()[name]
        n = 2 * SAMPLE_CHUNK + 37  # two full chunks, then 37 rows: the tail row
        L = batch_length(n)
        _, table = _reduce(spec, n, 3, 1)
        assert table[:, 0].tolist() == [L] * (2 * SAMPLE_CHUNK // L) + [37]
        x, y = (np.concatenate(v) for v in zip(*segment_rows(spec, n, seed=3)))
        lam = x.mean()
        c0, c1 = np.mean((x - lam) ** 2), np.mean((x - lam) * (y - lam))
        _, ladder = estimate_sigma2_mc(spec, n, seed=3)
        got = (ladder.lam, ladder.c0, ladder.c1)
        assert got == pytest.approx((lam, c0, c1), rel=1e-12, abs=0)


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
        # an exact cancellation has no CLT; degeneracy_check raises there
        assume(exact_discrete(spec)[0] != -math.inf)
        verdict = degeneracy_check(spec)
        if not verdict.is_degenerate_candidate:
            _, c0, c1 = decimal_reference(spec)
            assert c0 + 2.0 * c1 > 0.0
