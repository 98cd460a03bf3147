import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rmp.distributions import (
    CAUCHY_RANK_ONE,
    EXPONENTIAL_RANK_ONE,
    HILL_RANDOM,
    UNIFORM_RANK_ONE,
    AtomLaw,
    DistributionSpec,
    EntryTriple,
    NotDiscreteError,
    SpecError,
    cross_term,
    cross_terms,
    enumerate_atoms,
    make_stream,
    parse_spec,
    sample_triple,
    sample_triples,
)
from rmp.product import CHAIN_CHUNK, chain_log_norms


class TestParseSpec:
    def test_cauchy_no_params(self):
        spec = parse_spec('{"family": "CauchyRankOne"}')
        assert spec.family == "CauchyRankOne"

    def test_single_atom(self):
        spec = parse_spec('{"family": "DiscreteAtoms", "atoms": [[[1, 1, 1], 1.0]]}')
        assert spec.atoms == ((EntryTriple(1, 1, 1), 1.0),)

    def test_zero_a_atom_rejected(self):
        with pytest.raises(SpecError, match="a must be nonzero"):
            parse_spec('{"family": "DiscreteAtoms", "atoms": [[[0, 1, 1], 1.0]]}')

    def test_malformed_json(self):
        with pytest.raises(SpecError, match="malformed JSON"):
            parse_spec('{"family": ')

    def test_missing_family(self):
        with pytest.raises(SpecError, match="family"):
            parse_spec('{"theta": 1.0}')

    def test_unknown_family(self):
        with pytest.raises(SpecError, match="family"):
            parse_spec('{"family": "Gaussian"}')

    def test_unknown_field_named(self):
        with pytest.raises(SpecError, match="rate"):
            parse_spec('{"family": "ExponentialRankOne", "rate": 1.0}')

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(SpecError, match="sum to 1"):
            parse_spec(
                '{"family": "DiscreteAtoms", "atoms": [[[1, 1, 1], 0.5], [[2, 1, 1], 0.4]]}'
            )

    def test_nonpositive_probability(self):
        with pytest.raises(SpecError, match="strictly positive"):
            parse_spec(
                '{"family": "DiscreteAtoms", "atoms": [[[1, 1, 1], 1.0], [[2, 1, 1], 0.0]]}'
            )

    def test_binary_constraints(self):
        with pytest.raises(SpecError, match="alpha"):
            parse_spec('{"family": "BinaryHill", "alpha": 0, "beta": 3, "p": 0.5}')
        with pytest.raises(SpecError, match="beta"):
            parse_spec('{"family": "BinaryHill", "alpha": 2, "beta": -1, "p": 0.5}')
        with pytest.raises(SpecError, match="p must lie"):
            parse_spec('{"family": "BinaryHill", "alpha": 2, "beta": 3, "p": 1.5}')
        # alpha*beta^2 + 1 = 0 at alpha = -1/beta^2
        with pytest.raises(SpecError, match="alpha"):
            parse_spec('{"family": "BinaryHill", "alpha": -0.25, "beta": 2, "p": 0.5}')

    def test_binary_inverse_square_must_be_finite(self):
        # the atom (x, 1/x, 1) has head ratio and entry 1/x^2 = 1e320
        with pytest.raises(SpecError, match="1/beta\\^2"):
            DistributionSpec.binary_hill(2.0, 1e-160, 0.5)
        with pytest.raises(SpecError, match="1/alpha\\^2"):
            DistributionSpec.binary_hill(-1e-160, 3.0, 0.5)
        # 1/x^2 = 1e308 is just inside
        x = 1e-154
        with localcontext() as ctx:
            ctx.prec = 50
            assert 1 / Decimal(x) ** 2 < Decimal(sys.float_info.max)
        DistributionSpec.binary_hill(x, 3.0, 0.5)

    def test_uniform_constraints(self):
        with pytest.raises(SpecError, match="a must be >= 0"):
            parse_spec('{"family": "UniformRankOne", "a": -1, "b": 1}')
        with pytest.raises(SpecError, match="degenerate"):
            parse_spec('{"family": "UniformRankOne", "a": 0, "b": 0}')

    def test_support_width_must_be_finite(self):
        # width = hi - lo overflowed to inf and MC returned lambda = NaN
        with pytest.raises(SpecError, match="a \\+ b"):
            DistributionSpec.uniform_rank_one(1e308, 1e308)
        with pytest.raises(SpecError, match="b - a"):
            DistributionSpec.hill_random(-1e308, 1e308)
        DistributionSpec.uniform_rank_one(8e307, 8e307)
        DistributionSpec.hill_random(-8e307, 8e307)

    def test_theta_positive(self):
        with pytest.raises(SpecError, match="theta"):
            parse_spec('{"family": "ExponentialRankOne", "theta": 0}')

    def test_constant_value_field(self):
        spec = parse_spec('{"family": "ConstantTriple", "value": [2, 6, 3]}')
        assert spec.value == EntryTriple(2, 6, 3)
        with pytest.raises(SpecError, match="value"):
            parse_spec('{"family": "ConstantTriple", "value": [2, 6]}')

    def test_nonfinite_rejected(self):
        with pytest.raises(SpecError, match="finite"):
            DistributionSpec.constant_triple(float("inf"), 1.0, 1.0)


class TestFiniteSupportOverflow:
    def test_binary_degeneracy_still_rejected(self):
        # alpha^2 * beta + 1 = 0 at beta = -1/alpha^2
        with pytest.raises(SpecError, match="alpha, beta"):
            DistributionSpec.binary_hill(2.0, -0.25, 0.5)

    def test_overflowing_atom_pair_rejected(self):
        # each atom is valid, but atom 0 then atom 1 gives 1 + 1e200 * 1e200 / 1
        with pytest.raises(SpecError, match="atoms i, j = 0, 1 is not finite"):
            DistributionSpec.discrete_atoms([((1, 1, 1e200), 0.5), ((1, 1e200, 1), 0.5)])

    def test_overflowing_binary_pair_rejected(self):
        # alpha + 1/beta^2 = 1.7e308 + 1e308
        with pytest.raises(SpecError, match="not finite"):
            DistributionSpec.binary_hill(1.7e308, 1e-154, 0.5)
        # the pair never occurs when beta has probability 0
        DistributionSpec.binary_hill(1.7e308, 1e-154, 1.0)


def _triple_pair(n, seed):
    rng = np.random.default_rng(seed)
    a1, c1, a2, b2 = rng.normal(size=(4, n)) * 10.0 ** rng.integers(-5, 6, size=(4, n))
    b2[:5], c1[5:10] = 0.0, 0.0
    a2[10:12], b2[10:12], c1[10:12] = 1.0, 1.0, -a1[10:12]  # a1 + 1 * -a1 / 1 = 0
    return (a1, rng.normal(size=n), c1), (a2, b2, rng.normal(size=n))


class TestCrossTerms:
    def test_into_c1_equals_allocating(self):
        t1, t2 = _triple_pair(1000, 1)
        want = cross_terms(t1, t2)
        c1 = t1[2].copy()
        got = cross_terms((t1[0], None, c1), t2, out=c1)
        assert got is c1
        assert np.array_equal(got, want)
        assert np.isneginf(want).any()

    def test_formula_and_scalar_form(self):
        t1, t2 = _triple_pair(200, 3)
        got = cross_terms(t1, t2)
        with np.errstate(divide="ignore"):
            assert np.array_equal(got, np.log(np.abs(t1[0] + t2[1] * t1[2] / t2[0])))
        for i in range(200):
            x = cross_term(EntryTriple(*(v[i] for v in t1)), EntryTriple(*(v[i] for v in t2)))
            assert x == pytest.approx(got[i], rel=1e-15, abs=0)


def _atom_law(k, seed):
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], k) * rng.uniform(0.2, 3.0, k)
    b, c = rng.normal(size=k), rng.normal(size=k)
    w = rng.random(k) + 0.05
    return AtomLaw(
        DistributionSpec.discrete_atoms(
            [((a[i], b[i], c[i]), w[i] / w.sum()) for i in range(k)]
        )
    )


class TestAtomLawCross:
    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_gather_equals_table(self, k):
        law = _atom_law(k, seed=k)
        T = law.log_cross()
        rng = np.random.default_rng(k)
        i, j = rng.integers(0, k, size=(2, 40, 7))
        want = T[i, j]
        assert np.array_equal(law.cross(i, j), want)
        out, pairs = np.empty((40, 7)), np.empty((40, 7), np.intp)
        got = law.cross(i, j, out=out, pairs=pairs)
        assert got is out and np.array_equal(out, want)
        assert np.array_equal(pairs, i * k + j)
        assert np.array_equal(law.cross(i, j, out=np.empty((40, 7))), want)
        assert np.array_equal(law.cross(i, j, pairs=np.empty((40, 7), np.intp)), want)

    def test_table_is_built_once(self):
        law = _atom_law(3, seed=0)
        calls = []
        build = law.log_cross

        def counting():
            calls.append(1)
            return build()

        law.log_cross = counting
        first = law.cross(np.array([0, 1]), np.array([2, 2]))
        second = law.cross(np.array([0, 1]), np.array([2, 2]))
        assert len(calls) == 1
        assert np.array_equal(first, second)

    def test_threads_racing_on_the_first_call(self):
        # more threads than cores and a short switch interval interleave the
        # chunks' first calls; each must still gather from a whole table
        spec = DistributionSpec.discrete_atoms(
            [(tuple(row), 1.0 / 17) for row in _atom_law(17, seed=5).atoms]
        )
        m = 24 * CHAIN_CHUNK
        want = chain_log_norms(spec, 50, m, seed=2, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = chain_log_norms(spec, 50, m, seed=2, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)


class TestEntryTriple:
    def test_zero_a_rejected(self):
        with pytest.raises(SpecError, match="a must be nonzero"):
            EntryTriple(0.0, 1.0, 1.0)

    def test_overflowing_entry_rejected(self):
        # b*c/a = 1e400: lambda was +inf and build_matrix overflowed
        with pytest.raises(SpecError, match="b\\*c/a"):
            EntryTriple(1.0, 1e200, 1e200)

    def test_overflowing_head_ratio_rejected(self):
        # b/a = 1e310
        with pytest.raises(SpecError, match="head ratio"):
            EntryTriple(1e-300, 1e10, 1.0)

    @pytest.mark.parametrize("t", [(1.0, 1e154, 1.79e154), (1e-300, 1.79e8, 1.0)])
    def test_just_inside_the_boundary_accepted(self, t):
        xi = EntryTriple(*t)
        a, b, c = (Decimal(v) for v in t)
        with localcontext() as ctx:
            ctx.prec = 50
            entry, ratio = b * c / a, b / a
        top = Decimal(sys.float_info.max)
        assert entry < top and ratio < top
        assert xi.b * xi.c / xi.a == pytest.approx(float(entry), rel=1e-15)
        assert xi.b / xi.a == pytest.approx(float(ratio), rel=1e-15)

    def test_huge_entries_with_finite_ratios_accepted(self):
        xi = EntryTriple(1e300, 1.0, 1e300)
        assert (xi.b / xi.a, xi.b * xi.c / xi.a) == (1e-300, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(SpecError, match="finite"):
            EntryTriple(1.0, float("nan"), 1.0)


class TestSampling:
    def test_constant_point_mass(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        gen = make_stream(0)
        assert sample_triple(spec, gen) == EntryTriple(1.0, 1.0, 1.0)

    def test_binary_p1_degenerate(self):
        spec = DistributionSpec.binary_hill(2.0, 3.0, 1.0)
        gen = make_stream(0)
        for _ in range(5):
            assert sample_triple(spec, gen) == EntryTriple(2.0, 0.5, 1.0)

    def test_exponential_mean(self):
        # standard exponential sampler against its analytic mean of 1
        spec = DistributionSpec.exponential_rank_one(1.0)
        a, b, c = sample_triples(spec, 10**6, make_stream(42))
        assert np.all(a > 0) and np.all(c > 0)
        assert np.array_equal(a, b)
        assert abs(a.mean() - 1.0) < 0.01

    def test_reproducible(self):
        spec = DistributionSpec.cauchy_rank_one()
        x1 = sample_triples(spec, 1000, make_stream(7, 3))
        x2 = sample_triples(spec, 1000, make_stream(7, 3))
        for u, v in zip(x1, x2):
            assert np.array_equal(u, v)

    def test_substreams_differ(self):
        spec = DistributionSpec.cauchy_rank_one()
        a1, _, _ = sample_triples(spec, 1000, make_stream(7, 0))
        a2, _, _ = sample_triples(spec, 1000, make_stream(7, 1))
        assert not np.array_equal(a1, a2)

    def test_discrete_frequencies(self):
        atoms = [
            ((1.0, 1.0, 1.0), 0.25),
            ((2.0, 0.5, 1.0), 0.5),
            ((3.0, 2.0, -1.0), 0.25),
        ]
        spec = DistributionSpec.discrete_atoms(atoms)
        n = 10**5
        a, _, _ = sample_triples(spec, n, make_stream(0))
        for (triple, p) in atoms:
            freq = float((a == triple[0]).mean())
            assert abs(freq - p) <= 4.0 * math.sqrt(p * (1 - p) / n)

    def test_uniform_half_open_support_is_nonzero(self):
        spec = DistributionSpec.uniform_rank_one(0.0, 1.0)
        a, b, c = sample_triples(spec, 10**5, make_stream(1))
        assert np.all(a > 0.0)
        assert np.all((a <= 1.0) & (c >= 0.0) & (c <= 1.0))

    def test_hill_triple_shape(self):
        spec = DistributionSpec.hill_random(0.5, 2.0)
        a, b, c = sample_triples(spec, 1000, make_stream(5))
        assert np.all(a == 1.0)
        assert np.allclose(b * c, 1.0)

    def test_batch_matches_singles(self):
        spec = DistributionSpec.exponential_rank_one(2.0)
        batch = sample_triples(spec, 4, make_stream(11))
        gen = make_stream(11)
        singles = [sample_triple(spec, gen) for _ in range(4)]
        # batch order is the x block then the y block
        assert batch[0][0] == pytest.approx(singles[0].a, abs=0)


ONE_PER_FAMILY = (
    DistributionSpec.binary_hill(2.0, 3.0, 0.3),
    DistributionSpec.uniform_rank_one(1.0, 2.0),
    DistributionSpec.exponential_rank_one(1.5),
    DistributionSpec.cauchy_rank_one(),
    DistributionSpec.hill_random(0.5, 2.0),
    DistributionSpec.discrete_atoms(
        [((1.0, 0.5, 1.0), 0.25), ((2.0, 1.0, -1.0), 0.5), ((-1.5, 2.0, 0.5), 0.25)]
    ),
    DistributionSpec.constant_triple(2.0, 6.0, 3.0),
)


class TestSampleIntoBuffers:
    @pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=lambda s: s.family)
    @pytest.mark.parametrize("n", [1, 7, 4096])
    def test_out_is_bitwise_equal_and_aliases_buffers(self, spec, n):
        gen_ref, gen_out = make_stream(13, 2), make_stream(13, 2)
        ref = sample_triples(spec, n, gen_ref)
        bufs = tuple(np.full(n + 5, np.nan) for _ in range(3))
        got = sample_triples(spec, n, gen_out, out=bufs)
        for r, g, buf in zip(ref, got, bufs):
            assert g.shape == (n,) and g.dtype == np.float64
            assert np.array_equal(r, g)
            assert np.isnan(buf[n:]).all()
        assert np.shares_memory(got[0], bufs[0]) and np.shares_memory(got[2], bufs[2])
        if spec.is_rank_one:
            assert got[1] is got[0]
            assert np.isnan(bufs[1]).all()
        else:
            assert np.shares_memory(got[1], bufs[1])
        # both calls left the stream at the same position
        assert gen_ref.random() == gen_out.random()

    @pytest.mark.parametrize("out", [False, True])
    def test_uniform_is_gen_uniform(self, out):
        spec = DistributionSpec.uniform_rank_one(1.0, 2.0)
        n = 10_000
        bufs = tuple(np.empty(n) for _ in range(3)) if out else None
        a, b, c = sample_triples(spec, n, make_stream(3), out=bufs)
        ref = make_stream(3)
        assert np.array_equal(a, ref.uniform(-1.0, 2.0, n))
        assert np.array_equal(c, ref.uniform(-1.0, 2.0, n))

    @pytest.mark.parametrize("out", [False, True])
    def test_hill_is_gen_uniform(self, out):
        spec = DistributionSpec.hill_random(0.5, 2.0)
        n = 10_000
        bufs = tuple(np.empty(n) for _ in range(3)) if out else None
        a, b, c = sample_triples(spec, n, make_stream(4), out=bufs)
        x = make_stream(4).uniform(0.5, 2.0, n)
        assert np.array_equal(b, x)
        assert np.array_equal(c, 1.0 / x)
        assert np.all(a == 1.0)


class PlantedStream:
    """A Philox stream whose calls listed in ``plant`` return ``value`` at
    the given positions, so that the sampler sees exact zeros."""

    def __init__(self, value, plant):
        self.gen = make_stream(99)
        self.value = value
        self.plant = plant
        self.calls = []

    def random(self, size=None, out=None):
        u = self.gen.random(size, out=out)
        u[list(self.plant.get(len(self.calls), ()))] = self.value
        self.calls.append(u.size)
        return u

    def uniform(self, low, high, size):
        return low + (high - low) * self.random(size)


def _allocating_nonzero(draw, n):
    # the resampling loop as it was before sampling into buffers
    x = draw(n)
    while True:
        mask = x == 0.0
        k = int(mask.sum())
        if k == 0:
            return x
        x[mask] = draw(k)


def _allocating_triples(spec, n, gen):
    """Out-of-place reference sampler of the four continuous families."""
    f = spec.family
    if f == UNIFORM_RANK_ONE:
        draw = lambda k: gen.uniform(-spec.a, spec.b, k)
    elif f == EXPONENTIAL_RANK_ONE:
        draw = lambda k: -np.log1p(-gen.random(k)) / spec.theta
    elif f == CAUCHY_RANK_ONE:
        draw = lambda k: np.tan(np.pi * (gen.random(k) - 0.5))
    else:  # HILL_RANDOM
        x = _allocating_nonzero(lambda k: gen.uniform(spec.a, spec.b, k), n)
        return (np.ones(n), x, 1.0 / x)
    x = _allocating_nonzero(draw, n)
    return (x, x, draw(n))


class TestNonzeroResampling:
    # (spec, the uniform that maps to an exact 0.0 of the nonzero entry)
    CASES = [
        pytest.param(spec, u0, id=spec.family)
        for spec, u0 in (
            (DistributionSpec.uniform_rank_one(0.0, 1.0), 0.0),
            (DistributionSpec.exponential_rank_one(2.0), 0.0),
            (DistributionSpec.cauchy_rank_one(), 0.5),
            (DistributionSpec.hill_random(0.0, 2.0), 0.0),
        )
    ]

    @pytest.mark.parametrize("spec,u0", CASES)
    @pytest.mark.parametrize("out", [False, True])
    def test_zeros_are_redrawn_like_the_allocating_sampler(self, spec, u0, out):
        n = 50
        # three zeros in the first draw, and one again among their redraws
        plant = {0: (0, 3, n - 1), 1: (1,)}
        ref_gen, gen = PlantedStream(u0, plant), PlantedStream(u0, plant)
        ref = _allocating_triples(spec, n, ref_gen)
        bufs = tuple(np.empty(n) for _ in range(3)) if out else None
        got = sample_triples(spec, n, gen, out=bufs)
        nonzero = got[1] if spec.family == HILL_RANDOM else got[0]
        assert nonzero.all()
        for r, g in zip(ref, got):
            assert np.array_equal(r, g)
        assert gen.calls == ref_gen.calls
        assert gen.calls[:3] == [n, 3, 1]
        assert gen.gen.random() == ref_gen.gen.random()


class TestEnumerateAtoms:
    def test_constant(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        assert enumerate_atoms(spec) == [(EntryTriple(1, 1, 1), 1.0)]

    def test_binary(self):
        spec = DistributionSpec.binary_hill(2.0, 3.0, 0.25)
        atoms = enumerate_atoms(spec)
        assert atoms == [
            (EntryTriple(2.0, 0.5, 1.0), 0.25),
            (EntryTriple(3.0, 1.0 / 3.0, 1.0), 0.75),
        ]
        assert sum(p for _, p in atoms) == 1.0

    def test_probabilities_exactly_as_stated(self):
        atoms = [((1.0, 1.0, 1.0), 0.125), ((2.0, 1.0, 1.0), 0.875)]
        spec = DistributionSpec.discrete_atoms(atoms)
        assert [p for _, p in enumerate_atoms(spec)] == [0.125, 0.875]

    def test_continuous_raises(self):
        with pytest.raises(NotDiscreteError, match="not discrete"):
            enumerate_atoms(DistributionSpec.cauchy_rank_one())
