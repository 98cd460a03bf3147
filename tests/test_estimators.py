import dataclasses
import decimal
import itertools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rmp import estimators, product
from rmp.clt import degeneracy_check, simulate_normalized
from rmp.distributions import (
    DistributionSpec,
    EntryTriple,
    SpecError,
    make_stream,
    sample_triples,
    sample_units,
)
from rmp.estimators import (
    SAMPLE_CHUNK,
    NoClosedFormError,
    _reduce,
    _segment,
    batch_length,
    closed_form,
    cross_terms,
    estimate_sigma2_mc,
    exact_discrete,
    trajectory_lambda,
)
from rmp.families import (
    _EXP_MIN_THETA,
    _EXP_SUM_MAX,
    _HALF_MAX,
    EULER_GAMMA,
    FAMILIES,
    MAX_ATOMS,
)
from rmp.product import block_step, chain_log_norms, chunk_sizes
from rmp.selftest import _block_triples, _spec_zoo
from rmp.words import AtomLaw
from test_distributions import QueueStream

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
        atoms = [(t, D(p)) for t, p in FAMILIES[spec.family].atoms(spec)]
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
        a, b, c = _block_triples(spec, m + 2, 1, make_stream(seed, k))
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


def record_bytes(e) -> bytes:
    """Every field of an Estimate as bytes (None as NaN): equal bytes are
    equal values, signs of zeros included."""
    return np.array(dataclasses.astuple(e), dtype=float).tobytes()


class TestLambdaMC:
    def test_constant_exact(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        r = estimate_sigma2_mc(spec, 1024, seed=0)
        assert r.lam == LOG2
        assert r.lam_std_error == 0.0
        assert r.minus_inf_events == 0

    def test_cauchy_hits_log2(self):
        r = estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), 10**5, seed=0)
        assert abs(r.lam - LOG2) <= 3.0 * r.lam_std_error

    def test_minus_inf_events(self):
        r = estimate_sigma2_mc(CANCELLING, 1000, seed=0)
        assert r.lam == -math.inf
        assert 0 < r.minus_inf_events <= r.n_samples
        assert math.isnan(r.lam_std_error)

    def test_bitwise_deterministic(self):
        spec = DistributionSpec.exponential_rank_one(1.0)
        a = estimate_sigma2_mc(spec, 200_000, seed=5, threads=1)
        b = estimate_sigma2_mc(spec, 200_000, seed=5, threads=8)
        assert record_bytes(a) == record_bytes(b)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), 1)


def _ln(x) -> decimal.Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return decimal.Decimal(x).ln()


def _sums(spec, t):
    """The sums s = kappa t of a rank-one law's unit sums t."""
    return t * FAMILIES[spec.family].scale(spec)


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
        r = estimate_sigma2_mc(spec, 10**5, seed=0)
        assert math.isfinite(r.lam) and r.minus_inf_events == 0
        assert abs(r.lam - lam) <= 4.0 * r.lam_std_error
        assert lam == pytest.approx(closed_form(spec)[0], rel=1e-15)


class TestRankOneOverflowBounds:
    # a rank-one law is valid only while x + y of two draws, and the sum
    # s = kappa t of a unit sum, stay finite: max(a, b) <= DBL_MAX/2 for
    # Uniform, theta >= 2 m / DBL_MAX for Exponential, with m its largest
    # Exp(1) draw and 2 m its largest unit sum |t|
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
        # the largest unit sum |t|, -log w at the smallest product
        # w = u_1 u_2 = 2^-106, u = 2^-53: 106 log 2, which is 2 m
        S = float(-np.log(2.0**-106))
        assert (2.0**-53) ** 2 == 2.0**-106 and S == 2.0 * m == _EXP_SUM_MAX
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.traps[decimal.Inexact] = 2000, True
            # S / theta <= DBL_MAX at the bound
            assert D(S) <= D(_EXP_MIN_THETA) * D(self.DBL_MAX)
            # one double below, S / theta reaches the midpoint of DBL_MAX
            # and 2^1024, and rounds to inf
            assert D(S) >= D(below) * (D(2) ** 1024 - D(2) ** 970)
        spec = DistributionSpec.exponential_rank_one(_EXP_MIN_THETA)
        t = sample_units(spec, 2, _ExtremeStream([2.0**-53]))
        assert (t == -S).all() and (_sums(spec, t) == S / _EXP_MIN_THETA).all()
        assert S / _EXP_MIN_THETA <= self.DBL_MAX
        with np.errstate(over="ignore"):
            assert np.float64(S) / below == math.inf

    def test_exponential_unit_error_near_zero_in_decimal(self):
        """|t - t*| <= 10 u |t*| + (1 + 10 u) (u / (1 - u)).

        t* = log u_1 + log u_2 is the exact unit sum of the two uniforms,
        u = 2^-53.  fl(w) = u_1 u_2 (1 + d) with |d| <= u, and
        |log(1 + d)| <= u / (1 - u): an absolute error in t that the 4 ulp
        (8u) of np.log do not scale down as t* -> 0 (both uniforms near
        1).  Near t* = 0 the relative error of t is therefore not O(u),
        while -log1p(-u) of a single draw is.  No bound depends on theta,
        which only the constant kappa = -1/theta carries.
        """
        rng = make_stream(17)
        k = np.concatenate([np.arange(1.0, 65.0), rng.integers(1, 2**40, 2000).astype(float)])
        u1 = np.concatenate([1.0 - k * 2.0**-53, rng.random(500), [2.0**-53]])
        u2 = np.concatenate([1.0 - k[::-1] * 2.0**-53, rng.random(500), [2.0**-53]])
        keep = (u1 > 0.0) & (u2 > 0.0)  # w = 0 is redrawn
        u1, u2 = u1[keep], u2[keep]
        spec = DistributionSpec.exponential_rank_one(1.0)
        got = sample_units(spec, u1.size, _ExtremeStream([u1, u2]))
        D = decimal.Decimal
        beyond_relative = 0
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            u = D(2) ** -53
            floor = (1 + 10 * u) * (u / (1 - u))
            for g, a, b in zip(got.tolist(), u1.tolist(), u2.tolist()):
                exact = D(a).ln() + D(b).ln()
                err = abs(D(g) - exact)
                assert err <= 10 * u * abs(exact) + floor, (a, b)
                beyond_relative += err > 10 * u * abs(exact)
        assert beyond_relative  # the absolute term is needed

    # (law at the bound, its closed-form lambda in 50 digits, the uniforms
    # that give its extreme draws; u = 0 would draw an Exp(1) zero, a zero
    # product w, or a Uniform [0, b] zero, forever)
    @pytest.mark.parametrize(
        "spec, lam, extremes",
        [
            (DistributionSpec.uniform_rank_one(_HALF_MAX, _HALF_MAX),
             float(_ln(2 * _HALF_MAX) - decimal.Decimal("1.5")),
             (0.0, 1.0 - 2.0**-53)),
            (DistributionSpec.uniform_rank_one(0.0, _HALF_MAX),
             float(2 * _ln(2) - decimal.Decimal("1.5") + _ln(_HALF_MAX)),
             (1.0 - 2.0**-53,)),
            (DistributionSpec.uniform_rank_one(_HALF_MAX, 0.0),
             float(2 * _ln(2) - decimal.Decimal("1.5") + _ln(_HALF_MAX)),
             (0.0, 1.0 - 2.0**-53)),
            (DistributionSpec.exponential_rank_one(_EXP_MIN_THETA),
             float(1 - decimal.Decimal("0.57721566490153286060651209")
                   - _ln(_EXP_MIN_THETA)),
             (2.0**-53, 1.0 - 2.0**-53)),
        ],
        ids=["uniform", "uniform-0-b", "uniform-a-0", "exponential"],
    )
    def test_law_at_bound_gives_finite_lambda(self, spec, lam, extremes):
        # every pair of extreme uniforms, as the two draws x, y and as the
        # two uniforms of a unit sum, whose sum s = kappa t is finite too
        for pair in itertools.product(extremes, repeat=2):
            x, _, y = sample_triples(spec, 2, _ExtremeStream(pair))
            assert np.isfinite(x + y).all(), pair
            t = sample_units(spec, 2, _ExtremeStream(pair))
            assert np.isfinite(_sums(spec, t)).all(), pair
        r = estimate_sigma2_mc(spec, 10**5, seed=0)
        assert math.isfinite(r.lam) and r.minus_inf_events == 0
        assert abs(r.lam - lam) <= 4.0 * r.lam_std_error


class TestUniformSupportFloor:
    # below a + b = DBL_MIN every product W u of a draw is subnormal, one
    # of fewer than 2^52 values: (5e-324, 0) gave lambda = -743.747 with
    # SE 0 at 2e5 samples (closed form -744.554), every sum draw -2a
    DBL_MIN = sys.float_info.min

    @pytest.mark.parametrize(
        "a, b",
        [(5e-324, 0.0), (0.0, 5e-324), (np.nextafter(DBL_MIN, 0.0), 0.0)],
        ids=["a", "b", "below-floor"],
    )
    def test_subnormal_width_rejected(self, a, b):
        with pytest.raises(SpecError, match="DBL_MIN"):
            DistributionSpec.uniform_rank_one(a, b)

    @pytest.mark.parametrize("a, b", [(DBL_MIN, 0.0), (0.0, DBL_MIN)], ids=["a", "b"])
    def test_law_at_floor_within_4se_of_closed_form(self, a, b):
        spec = DistributionSpec.uniform_rank_one(a, b)
        r = estimate_sigma2_mc(spec, 10**5, seed=1)
        lam, sigma2 = closed_form(spec)
        assert abs(r.lam - lam) <= 4.0 * r.lam_std_error
        assert abs(r.sigma2 - sigma2) <= 4.0 * r.sigma2_std_error


class _ExtremeStream:
    """A stream whose calls return the given uniforms in turn, cycling: each
    fills its whole output with one of them (a number or an array)."""

    def __init__(self, us):
        self.us = itertools.cycle(us)

    def random(self, out):
        out[...] = next(self.us)
        return out


# the chain kernel multiplies at most this many unit sums before one log
GROUP_MAX = 16


def _fits(bound, g):
    """Every g-fold product of numbers in bound = (lo, hi), lo < 1 < hi,
    its g - 1 multiplies each rounded by at most 2^-53 relative, lies in
    [DBL_MIN, DBL_MAX]; in exact decimal.  Partial products lie between
    lo^g and hi^g too, so they are normal as well."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.traps[decimal.Inexact] = 8000, True
        lo, hi, u = D(bound[0]), D(bound[1]), D(2) ** -53
        return (lo ** g * (1 - u) ** (g - 1) >= D(sys.float_info.min)
                and hi ** g * (1 + u) ** (g - 1) <= D(sys.float_info.max))


# uniforms (u_1, u_2) of each grouped family's unit sums at the two ends of
# its |t|, and the law; -log w at w = 2^-106 and at the largest w < 1, and
# tan at the ends of pi (u - 1/2)
UNIT_ENDS = {
    "ExponentialRankOne": (DistributionSpec.exponential_rank_one(1.0),
                           (2.0**-53, 2.0**-53), (1.0 - 2.0**-53, 1.0 - 2.0**-53)),
    "CauchyRankOne": (DistributionSpec.cauchy_rank_one(), (0.0,), (0.5 + 2.0**-53,)),
}


def _unit_sums(spec, us):
    """The unit sums of spec drawn from uniform arrays us, one per uniform
    a draw takes (none of them gives a zero product w)."""
    return sample_units(spec, us[0].size, QueueStream(us))


class TestUnitSumGroups:
    """The chain kernel multiplies up to `group` unit sums before one log;
    a family's unit_bound on nonzero |t| must keep those products normal."""

    @pytest.mark.parametrize("name", sorted(UNIT_ENDS))
    def test_bound_pinned_in_decimal(self, name):
        spec, at_max, at_min = UNIT_ENDS[name]
        lo, hi = FAMILIES[name].unit_bound
        t_max, t_min = (_unit_sums(spec, [np.array([u]) for u in us])[0]
                        for us in (at_max, at_min))
        D = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 200
            if name == "ExponentialRankOne":
                # a nonzero u is at least 2^-53 and at most 1 - 2^-53, so
                # 2^-106 <= w <= fl((1 - 2^-53)^2) = 1 - 2^-52
                assert (1.0 - 2.0**-53) ** 2 == 1.0 - 2.0**-52
                assert abs(D(t_max) + 106 * D(2).ln()) <= D(math.ulp(t_max))
                exact_min = -(1 - D(2) ** -52).ln()
            else:
                # |u - 1/2| is 1/2 at most, and 2^-53 at least when not 0
                # (u is a multiple of 2^-53); tan is odd and increasing, and
                # tan(fl(pi)/2) = cot(e), e = (pi - fl(pi)) / 2
                pi = D("3.14159265358979323846264338327950288419716939937510582")
                e = (pi - D(math.pi)) / 2
                assert abs(D(-t_max) - (1 / e - e / 3)) <= D(math.ulp(t_max))
                exact_min = D(math.pi) * D(2) ** -53  # <= tan of it
                assert D(t_min) == exact_min
            assert -t_max == hi and D(lo) <= exact_min
            assert abs(D(abs(t_min)) - exact_min) <= 4 * D(math.ulp(t_min))
        # a sweep of uniforms near both ends stays in the bound
        edge = np.array([2.0**-53, 2.0**-52, 3 * 2.0**-53, 0.25, 0.5 - 2.0**-53, 0.5,
                         0.5 + 2.0**-52, 0.75, 1.0 - 2.0**-52, 1.0 - 2.0**-53])
        u1, u2 = (x.ravel() for x in np.meshgrid(edge, edge))
        t = np.abs(_unit_sums(spec, [u1, u2]))
        t = t[t != 0.0]
        assert ((lo <= t) & (t <= hi)).all()

    @pytest.mark.parametrize("record", FAMILIES.values(), ids=lambda r: r.name)
    def test_group_is_the_largest_its_bound_allows(self, record):
        # fails if a family is given a group that its bound does not allow
        g = record.group
        assert g & (g - 1) == 0 and 1 <= g <= GROUP_MAX
        if record.unit_bound is None:
            assert g == 1
        else:
            assert g == 1 or _fits(record.unit_bound, g)
            assert g == GROUP_MAX or not _fits(record.unit_bound, 2 * g)
        assert (g > 1) == (record.name in UNIT_ENDS)

    @pytest.mark.parametrize(
        "bound, largest",
        [((2.0**-53, 2.0**7), 16), ((2.0**-70, 2.0**7), 8), ((2.0**-53, 2.0**300), 2),
         ((2.0**-63.875, 2.0), 8), ((2.0**-600, 2.0), 1), ((0.5, 2.0**1000), 1)],
    )
    def test_fits_rejects_one_group_too_many(self, bound, largest):
        # the check above, on bounds whose largest group is known; 16-fold
        # products of 2^-63.875 are DBL_MIN up to rounding, which the
        # allowance for 15 roundings puts out of range
        assert largest == 1 or _fits(bound, largest)
        assert not _fits(bound, 2 * largest)

    @pytest.mark.parametrize("name", sorted(UNIT_ENDS))
    def test_folds_of_the_ends_and_their_mixes_stay_normal(self, name):
        # 17 columns of 16 steps: column k has the |t| minimum at k steps
        # and the maximum at the others, placed by a seeded shuffle
        spec, at_max, at_min = UNIT_ENDS[name]
        record = FAMILIES[name]
        g, width = record.group, record.group + 1
        rng = make_stream(23)
        low = np.array([rng.permutation(g) < k for k in range(width)]).T
        us = [np.where(low, a, b).ravel() for a, b in zip(at_min, at_max)]
        t = _unit_sums(spec, us)
        assert np.isin(np.abs(t), [abs(t.min()), abs(t.max())]).all()
        workspace = tuple(np.empty(g * width) for _ in range(3))
        stream = QueueStream(us)
        _, _, rows = block_step(spec, grouped=True)(g + 1, width, stream, workspace)
        assert rows.shape == (1, width) and np.isfinite(rows).all()
        # the rows are logs of products of unit sums: the chain adds
        # (n - 1) log|kappa| once (product._rank_one_chunk)
        D = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for j in range(width):
                want = sum(D(abs(v)).ln() for v in t.reshape(g, width)[:, j].tolist())
                assert abs(D(rows[0, j]) - want) <= D(1e-13) * max(1, abs(want))

    def test_zero_unit_sum_is_minus_inf_for_cauchy_and_redrawn_for_exponential(self):
        # u = 1/2 draws the Cauchy unit sum 0, a cancelling step; a zero
        # uniform draws the Exponential product w = 0, which is redrawn
        block, width = 33, 4
        u = np.full((block - 1) * width, 0.3)
        u[5 * width + 2] = 0.5
        workspace = tuple(np.empty(block * width) for _ in range(3))
        draw = block_step(DistributionSpec.cauchy_rank_one(), grouped=True)
        with np.errstate(divide="ignore"):  # held by the block's caller
            _, _, rows = draw(block, width, QueueStream([u]), workspace)
        total = rows.sum(axis=0)
        assert np.isneginf(total[2]) and np.isfinite(np.delete(total, 2)).all()
        u[5 * width + 2] = 0.0
        spec = DistributionSpec.exponential_rank_one(1.0)
        for grouped in (False, True):
            stream = QueueStream([u.copy(), np.full(u.size, 0.6)])
            _, _, rows = block_step(spec, grouped)(block, width, stream, workspace)
            assert np.isfinite(rows).all() and stream.gen.random() != make_stream(99).random()


# c = 1/x overflows in sample_triples on these supports, so cross terms
# come out +inf or NaN where the true lambda is finite (Hill's term
# 1 + x_2/x_1 does not change when the support is scaled); a support that
# reaches 0 passes validation, which rejects the one-signed [1e-310, 2e-310]
OVERFLOWING_HILL = [
    pytest.param(DistributionSpec.hill_random(0.0, 1e-310), id="subnormal"),
    pytest.param(DistributionSpec.hill_random(-1e-307, 1e-307), id="around-zero"),
]


class TestNonFiniteEvents:
    @pytest.mark.parametrize("spec", OVERFLOWING_HILL)
    def test_counted_on_every_sampled_route(self, spec):
        # these once gave lambda = sigma2 = NaN with no event counted
        with np.errstate(over="ignore", invalid="ignore"):
            (minus_inf, inf_nan), table = _reduce(spec, 4096, 0, 1)
            r = estimate_sigma2_mc(spec, 4096, seed=0)
            traj = trajectory_lambda(spec, 100, 20, seed=0)
            report = simulate_normalized(spec, 100, 20, 0.0, 1.0, seed=0)
        assert table is None and minus_inf == 0 and inf_nan > 0
        assert np.isnan(dataclasses.astuple(r)[:8]).all()  # values and SEs
        assert r.minus_inf_events == 0 and r.inf_nan_events == inf_nan
        assert traj.inf_nan_events > 0 and math.isnan(traj.lam_std_error)
        assert report.inf_nan_events > 0 and report.minus_inf_events == 0
        assert sum(c for *_, c in report.histogram) == 20 - report.inf_nan_events

    def test_finite_laws_count_none(self):
        for spec in _spec_zoo().values():
            assert estimate_sigma2_mc(spec, 4096, seed=0).inf_nan_events == 0
            assert simulate_normalized(spec, 20, 10, 0.0, 1.0).inf_nan_events == 0


class TestSigma2MC:
    def test_constant_exactly_zero(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        for n in (1024, SAMPLE_CHUNK + 1000):  # one chunk, then a merge
            r = estimate_sigma2_mc(spec, n, seed=0)
            assert r.sigma2 == 0.0 and r.sigma2_std_error == 0.0
            assert r.c0 == 0.0 and r.c1 == 0.0
            assert r.lam == LOG2

    def test_ladder_reconstruction_is_exact(self):
        r = estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), 50_000, seed=1)
        assert r.sigma2 == r.c0 + 2.0 * r.c1

    def test_exponential_hits_target(self):
        r = estimate_sigma2_mc(DistributionSpec.exponential_rank_one(1.0), 200_000, seed=3)
        assert abs(r.sigma2 - (PI2 / 6.0 - 1.0)) <= 3.0 * r.sigma2_std_error

    def test_undefined_on_cancellation(self):
        r = estimate_sigma2_mc(CANCELLING, 1000, seed=0)
        assert math.isnan(r.sigma2)
        assert r.minus_inf_events > 0
        assert r.lam == -math.inf

    def test_last_term_event_makes_lambda_minus_inf(self):
        # the first seed whose chunk draws a word that starts with atoms
        # 0, 0, 0, 1: the segment's 4 steps are cut from it, and the only
        # -inf is its last term, which is never an x; lambda is -inf all
        # the same, since the law can cancel
        law = CANCELLING.atom_law

        def first_steps(seed):
            drawn = law.draw(1, make_stream(seed, 0), [np.empty(1) for _ in range(3)])
            return law.digits[drawn[0], :4].tolist()

        seed = next((s for s in range(1000) if first_steps(s) == [0, 0, 0, 1]), None)
        assert seed is not None
        r = estimate_sigma2_mc(CANCELLING, 2, seed=seed)
        assert math.isnan(r.sigma2) and r.minus_inf_events == 1
        assert r.lam == -math.inf
        assert math.isnan(r.lam_std_error)

    def test_rank_one_c1_small(self):
        r = estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), 10**5, seed=2)
        assert abs(r.c1) <= 4.0 * r.c1_std_error

    def test_near_degenerate_two_atom_within_3se(self):
        _, c0, c1 = decimal_reference(TWO_ATOM)
        for seed in (0, 1, 2):
            r = estimate_sigma2_mc(TWO_ATOM, 10**6, seed=seed)
            assert abs(r.sigma2 - (c0 + 2.0 * c1)) <= 3.0 * r.sigma2_std_error

    def test_std_errors_match_batch_means(self):
        n = SAMPLE_CHUNK + 30_000  # a full chunk, then a short one
        for name, spec in sorted(_spec_zoo().items()):
            r = estimate_sigma2_mc(spec, n, seed=4)
            want = batch_means_se(segment_rows(spec, n, seed=4), n)
            got = (r.sigma2_std_error, r.c0_std_error, r.c1_std_error, r.lam_std_error)
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
        a = estimate_sigma2_mc(spec, 150_000, seed=9, threads=1)
        b = estimate_sigma2_mc(spec, 150_000, seed=9, threads=4)
        assert record_bytes(a) == record_bytes(b)


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
        real_stream = product.make_stream

        def stream(s, k):
            streams[k] = real_stream(s, k)
            return streams[k]

        def counted(name):
            real = getattr(product, name)

            def sample(spec, m, gen, out=None):
                counts.append((name, m))
                return real(spec, m, gen, out=out)

            monkeypatch.setattr(product, name, sample)

        monkeypatch.setattr(product, "make_stream", stream)
        counted("sample_triples")
        counted("sample_units")
        estimate_sigma2_mc(spec, n, seed=seed)
        sizes = chunk_sizes(n, SAMPLE_CHUNK)
        assert sorted(streams) == list(range(len(sizes)))
        for k, m in enumerate(sizes):
            # each chunk's stream stands exactly m + 2 steps in
            ref = make_stream(seed, k)
            _block_triples(spec, m + 2, 1, ref)
            assert streams[k].random() == ref.random(), k
        if not spec.is_discrete:  # a finite-support law draws words
            assert sum(m for _, m in counts) == n + len(sizes)
            # a rank-one chunk draws its m + 1 unit sums and no pair
            assert counts == [("sample_units", m + 1) for m in sizes]

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
        assert got[0] == want[0] == (0, 0)
        assert np.array_equal(got[1], want[1])

    def test_constant_std_errors_exactly_zero(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        for n in (1024, SAMPLE_CHUNK + 1000):
            r = estimate_sigma2_mc(spec, n, seed=0)
            ses = (r.sigma2_std_error, r.c0_std_error, r.c1_std_error, r.lam_std_error)
            assert ses == (0.0, 0.0, 0.0, 0.0)

    def test_batch_length(self):
        # n = 2 and 3 give batches of one row, so still two or more batches
        r = estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), 3, seed=0)
        assert math.isfinite(r.lam_std_error)
        assert batch_length(3) == 1 and batch_length(4) == 2
        assert batch_length(16384) == 128 and batch_length(4_000_000) == 1024
        assert batch_length(1 << 40) == SAMPLE_CHUNK

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_variance_std_errors_need_two_row_batches(self, n):
        # a one-row batch centered at its own mean has Sxx = Sxy = 0, so
        # below 4 rows the variance SEs are undefined, not 0
        r = estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), n, seed=1)
        ses = np.array([r.sigma2_std_error, r.c0_std_error, r.c1_std_error])
        assert np.isnan(ses).all() if n < 4 else np.isfinite(ses).all()
        assert math.isfinite(r.lam_std_error)

    @pytest.mark.parametrize(
        "spec, cancels",
        [(CANCELLING, True), (DistributionSpec.binary_hill(2.0, 3.0, 0.5), False),
         (ATOMS3, False)],
        ids=["cancelling", "binary", "atoms3"],
    )
    def test_events_exactly_when_lambda_is_minus_inf(self, spec, cancels):
        lam, _, exact = exact_discrete(spec)
        mc = estimate_sigma2_mc(spec, 4096, seed=0)
        assert exact.minus_inf_events == (1 if cancels else 0)
        for value, events in ((lam, exact.minus_inf_events), (mc.lam, mc.minus_inf_events)):
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
            r = estimate_sigma2_mc(spec, self.N, seed=seed)
            z_lam.append((r.lam - lam) / r.lam_std_error)
            z_sigma2.append((r.sigma2 - sigma2) / r.sigma2_std_error)
        for z in (np.array(z_lam), np.array(z_sigma2)):
            assert self._bands_hold(z), (z.mean(), z.var(ddof=1))
            # halved SEs double z, doubled SEs halve it
            assert not self._bands_hold(2.0 * z)
            assert not self._bands_hold(0.5 * z)


class TestExactDiscrete:
    def test_constant(self):
        lam, sigma2, e = exact_discrete(DistributionSpec.constant_triple(1.0, 1.0, 1.0))
        assert lam == LOG2
        assert sigma2 == 0.0
        assert (e.lam, e.sigma2, e.c0, e.c1) == (LOG2, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("spec", [ATOMS3, CANCELLING], ids=["atoms3", "cancelling"])
    def test_record_has_no_standard_errors_samples_or_seed(self, spec):
        lam, sigma2, e = exact_discrete(spec)
        assert record_bytes(e)[:16] == np.array([lam, sigma2]).tobytes()
        assert (e.lam_std_error, e.sigma2_std_error, e.c0_std_error, e.c1_std_error) == (
            None, None, None, None)
        assert (e.n_samples, e.seed, e.inf_nan_events) == (0, None, 0)

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
        lam, sigma2, e = exact_discrete(DistributionSpec.discrete_atoms(atoms))
        # b = 0: every cross term is log a_i, so the terms are independent
        logs = np.log(np.arange(1.0, 66.0))
        assert lam == pytest.approx(logs.mean(), rel=1e-14)
        assert sigma2 == pytest.approx(logs.var(), rel=1e-12)
        assert abs(e.c1) <= 1e-14
        k = MAX_ATOMS + 1
        atoms = [((float(i + 1), 0.0, 0.0), 1.0 / k) for i in range(k)]
        with pytest.raises(SpecError, match="too many atoms"):
            DistributionSpec.discrete_atoms(atoms)

    def test_near_degenerate_two_atom_matches_decimal(self):
        lam, c0, c1 = decimal_reference(TWO_ATOM)
        lam_e, sigma2, e = exact_discrete(TWO_ATOM)
        assert sigma2 == pytest.approx(c0 + 2.0 * c1, rel=1e-6)
        assert e.c0 == pytest.approx(c0, rel=1e-6)
        assert abs(e.c1 - c1) <= 1e-6 * sigma2
        assert lam_e == pytest.approx(lam, rel=1e-15)

    def test_mc_agrees_with_enumeration(self):
        spec = DistributionSpec.discrete_atoms(
            [((1.0, 0.5, 1.0), 0.25), ((2.0, 1.0, -1.0), 0.5), ((-1.5, 2.0, 0.5), 0.25)]
        )
        lam, sigma2, _ = exact_discrete(spec)
        mc = estimate_sigma2_mc(spec, 200_000, seed=0)
        assert abs(mc.lam - lam) <= 4.0 * mc.lam_std_error
        assert abs(mc.sigma2 - sigma2) <= 4.0 * mc.sigma2_std_error


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
        assert r.lam == pytest.approx(LOG2, rel=1e-14)
        assert r.minus_inf_events == 0

    def test_record_holds_lambda_alone(self):
        r = trajectory_lambda(DistributionSpec.cauchy_rank_one(), 100, 8, seed=3)
        assert (r.sigma2, r.c0, r.c1) == (None, None, None)
        assert (r.sigma2_std_error, r.c0_std_error, r.c1_std_error) == (None, None, None)
        assert (r.n_samples, r.seed) == (8, 3) and math.isfinite(r.lam_std_error)

    def test_cauchy(self):
        r = trajectory_lambda(DistributionSpec.cauchy_rank_one(), 10**4, 30, seed=1)
        assert abs(r.lam - LOG2) <= 4.0 * r.lam_std_error

    def test_binary_matches_enumeration(self):
        spec = DistributionSpec.binary_hill(2.0, 3.0, 0.5)
        lam, _, _ = exact_discrete(spec)
        r = trajectory_lambda(spec, 10**4, 30, seed=2)
        assert abs(r.lam - lam) <= 4.0 * r.lam_std_error

    def test_minus_inf_counted(self):
        r = trajectory_lambda(CANCELLING, 100, 32, seed=0)
        assert r.lam == -math.inf
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
        r = estimate_sigma2_mc(spec, n, seed=3)
        got = (r.lam, r.c0, r.c1)
        assert got == pytest.approx((lam, c0, c1), rel=1e-12, abs=0)


def pivot_estimate(segments):
    """estimate_sigma2_mc's Estimate of the given terms: each segment one
    chunk through _segment, then the combine."""
    n = sum(c.size - 1 for c in segments)
    L = batch_length(n)
    table = np.concatenate([_segment(c, L, np.empty(c.size))[1] for c in segments])
    with mock.patch.object(estimators, "_reduce", return_value=((0, 0), table)):
        return estimate_sigma2_mc(TWO_ATOM, n)


def decimal_two_pass(segments, digits=60):
    """(lambda, c0, c1) of the segments' lag rows in `digits`-digit decimal,
    mean first, then the centred sums."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        rows = [(D(x), D(y)) for c in segments for x, y in zip(c[:-1].tolist(), c[1:].tolist())]
        n = len(rows)
        lam = sum(x for x, _ in rows) / n
        c0 = sum((x - lam) ** 2 for x, _ in rows) / n
        c1 = sum((x - lam) * (y - lam) for x, y in rows) / n
        return lam, c0, c1


def _cauchy(n, seed):
    return np.random.default_rng(seed).standard_cauchy(n)


def _pivot_far_in_the_tail():
    # log |Cauchy| (the terms of a Cauchy rank-one law), first term the
    # lowest of the chunk, ~7 standard deviations below the mean; a second
    # chunk of the same law puts a second pivot in the combine
    first = np.log(np.abs(_cauchy(SAMPLE_CHUNK + 1, 1)))
    j = int(np.argmin(first))
    first[[0, j]] = first[[j, 0]]
    return [first, np.log(np.abs(_cauchy(5000, 2)))]


def _near_degenerate():
    # TWO_ATOM's own segments: sigma2 = 2.5e-15 next to lambda^2 = 339
    return [np.append(x, y[-1]) for x, y in segment_rows(TWO_ATOM, SAMPLE_CHUNK + 4999, 4)]


def _heavy_tailed():
    # Cauchy terms, first term the largest: one value that far out is most
    # of the spread, so |c[0] - mean| is many standard deviations
    c = _cauchy(4097, 3)
    j = int(np.argmax(np.abs(c)))
    c[[0, j]] = c[[j, 0]]
    assert abs(c[0] - c[:-1].mean()) >= 10 * c[:-1].std()
    return [c]


class TestPivotConditioning:
    @pytest.mark.parametrize(
        "segments",
        [_pivot_far_in_the_tail(), _near_degenerate(), _heavy_tailed()],
        ids=["pivot-in-the-tail", "near-degenerate", "heavy-tailed"],
    )
    def test_pivot_sums_match_decimal_two_pass(self, segments):
        # the pivot is a term, not a mean: centring at c[0] multiplies the
        # condition of c0 and c1 by up to 1 + (c[0] - mean)^2 / c0 (~50
        # and ~4100 in the tail cases), so their bounds are relative to
        # the spread c0, and lambda's to the larger of |lambda| and
        # sqrt(c0).  c1 also centres y at the float lambda, up to
        # eps |lambda| off, which moves it by that times mean(y) - mean(x):
        # 1.3e-12 c0 near degeneracy, in a float two-pass as well.
        # Measured: lambda <= 5.4e-15, c0 <= 4.2e-14, c1 <= 1.4e-12
        est = pivot_estimate(segments)
        lam, c0, c1 = decimal_two_pass(segments)
        D = decimal.Decimal
        assert abs(D(est.lam) - lam) <= D(1e-13) * max(abs(lam), c0.sqrt())
        assert abs(D(est.c0) - c0) <= D(1e-12) * c0
        assert abs(D(est.c1) - c1) <= D(1e-11) * c0


def _extreme(draw):
    """A real m * 10^e with |m| in [1, 10) and e in [-300, 300]."""
    m = draw(st.floats(1.0, 10.0, exclude_max=True)) * draw(st.sampled_from([-1.0, 1.0]))
    return m * 10.0 ** draw(st.integers(-300, 300))


@st.composite
def extreme_atom_pairs(draw):
    p = draw(st.floats(0.05, 0.95))
    return [(tuple(_extreme(draw) for _ in range(3)), w) for w in (p, 1.0 - p)]


def extreme_lambda_bound(spec):
    """Bound on exact_discrete's lambda error for atoms of any magnitude.

    T[i, j] = log |v|, v = fl(a_i + fl(c_i fl(b_j / a_j))).  With gradual
    underflow a rounding is fl(x) = x (1 + d) + e, |d| <= u, |e| <= eta,
    and an addition of doubles is exact when it underflows.  So with
    Q = c_i b_j / a_j and V = a_i + Q,

        |fl(c_i fl(b_j / a_j)) - Q| <= gamma(2) |Q| + (1 + u) |c_i| eta + eta,
        |v - V| <= (1 + u) |fl(c_i fl(b_j / a_j)) - Q| + u |V| = rho |V|,

    and |log |v| - log |V|| <= -log(1 - rho), plus 4 ulp (8u |T|) for
    np.log.  No step overflows: a law with a cross term that is not
    finite fails validation, and an overflow anywhere makes v inf or NaN.
    p^T T p over k^2 terms adds gamma(2k) p^T |T| p, as in
    exact_error_bounds.  Q would overflow a double, so the bound is
    formed in 50-digit decimal.  Returns None when rho >= 1/2 for some
    pair (a near cancellation, or an underflowed ratio that matters).
    """
    D = decimal.Decimal
    law = spec.atom_law
    T, p, atoms = law.log_cross(), law.p, law.atoms.tolist()
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        # eta = 2^-1075, half the smallest subnormal, is no double
        u, eta, g2, g2k = D(U), D(2) ** -1075, D(gamma(2)), D(gamma(2 * law.k))
        err = D(0)
        for i, (a_i, _, c_i) in enumerate(atoms):
            for j, (a_j, b_j, _) in enumerate(atoms):
                Q = D(c_i) * D(b_j) / D(a_j)
                V = D(a_i) + Q
                if V == 0:
                    return None
                rho = u + (1 + u) * (g2 * abs(Q) + (1 + u) * abs(D(c_i)) * eta + eta) / abs(V)
                if rho >= D("0.5"):
                    return None
                t = abs(D(T[i, j]))
                err += D(p[i]) * D(p[j]) * (-(1 - rho).ln() + 8 * u * t + g2k * t)
        return float(err)


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
        mc = estimate_sigma2_mc(spec, 4096, seed=0).lam
        chains = chain_log_norms(spec, 40, 8, seed=0)
        for v in (lam, mc, *chains):
            assert not (math.isnan(v) or v == math.inf)
        if lam != -math.inf:
            assert math.isfinite(sigma2)

    @given(extreme_atom_pairs())
    @settings(max_examples=200, deadline=None)
    def test_lambda_matches_decimal_within_rounding_bound(self, atoms):
        # on an accepted law that does not cancel, p^T T p in 50 digits
        # from the stored atoms; the reference is rounded to float once.
        # The 50-digit reference itself is off by < 1e-30 where rho < 1/2
        # (|Q / V| < 1 / (2 gamma(2)) bounds its cancellation)
        try:
            spec = DistributionSpec.discrete_atoms(atoms)
        except SpecError:
            return
        lam = exact_discrete(spec)[0]
        bound = extreme_lambda_bound(spec) if lam != -math.inf else None
        assume(bound is not None)
        ref = decimal_reference(spec, digits=50)[0]
        assert abs(lam - ref) <= bound + U * abs(ref)


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
        lam, sigma2, e = exact_discrete(spec)
        assume(lam != -math.inf)  # an exact cancellation has no decimal log
        bounds = exact_error_bounds(spec, lam)
        assume(bounds is not None)
        lam_err, c0_err, c1_err = bounds
        ref_lam, ref_c0, ref_c1 = decimal_reference(spec)
        # the reference is rounded to float once per value, and sigma2
        # adds two roundings of its own on each side
        assert abs(lam - ref_lam) <= lam_err + U * abs(ref_lam)
        assert abs(e.c0 - ref_c0) <= c0_err + U * abs(ref_c0)
        assert abs(e.c1 - ref_c1) <= c1_err + U * abs(ref_c1)
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
