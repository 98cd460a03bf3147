import json
import math
import re
import sys
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from rmp import distributions, families, words
from rmp.distributions import (
    DistributionSpec,
    EntryTriple,
    NotDiscreteError,
    SpecError,
    cross_terms,
    make_stream,
    parse_spec,
    sample_triples,
    sample_units,
)
from rmp.families import (
    CAUCHY_RANK_ONE,
    EXPONENTIAL_RANK_ONE,
    FAMILIES,
    HILL_RANDOM,
    UNIFORM_RANK_ONE,
    MAX_ATOMS,
)
from rmp.estimators import NoClosedFormError, closed_form
from rmp.product import CHAIN_CHUNK, chain_log_norms
from rmp.selftest import KS_COEFF


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


# fl(x) of a real x is finite exactly when |x| < 2^1024 - 2^970, halfway
# from DBL_MAX to 2^1024 (a tie rounds to the even 2^1024, inf)
OVERFLOW_AT = Decimal(2) ** 1024 - Decimal(2) ** 970


class TestHillSupportBound:
    @pytest.mark.parametrize("near", [0.7, 1e-10, 3e-300, 2.0**-1000, 1e-307])
    def test_one_signed_boundary_pinned_in_decimal(self, near):
        # far is the largest double with fl(1/near) * far below the overflow
        # threshold in exact arithmetic: [near, far] and its mirror are
        # valid, and the next double is not
        with localcontext() as ctx:
            ctx.prec = 2000
            r = Decimal(1.0 / near)
            far = float(OVERFLOW_AT / r)
            while Decimal(far) * r >= OVERFLOW_AT:
                far = math.nextafter(far, 0.0)
            while Decimal(math.nextafter(far, math.inf)) * r < OVERFLOW_AT:
                far = math.nextafter(far, math.inf)
        past = math.nextafter(far, math.inf)
        DistributionSpec.hill_random(near, far)
        DistributionSpec.hill_random(-far, -near)
        for a, b in ((near, past), (-past, -near)):
            with pytest.raises(SpecError, match="too close to 0"):
                DistributionSpec.hill_random(a, b)
        # the kernels' cross term 1 + c_1 (x_2 / 1) at the extremes x_1 = near,
        # x_2 = far of the valid law is finite
        one = np.ones(1)
        term = cross_terms((one, None, np.array([1.0 / near])), (one, np.array([far]), None))
        assert np.isfinite(term).all()

    def test_reciprocal_overflow_rejected_straddling_kept(self):
        # 1/x overflows on the whole of [1e-310, 2e-310]; a support that
        # reaches or straddles 0 has no bound and keeps its counted events
        for a, b in ((1e-310, 2e-310), (-2e-310, -1e-310)):
            with pytest.raises(SpecError, match="too close to 0"):
                DistributionSpec.hill_random(a, b)
        DistributionSpec.hill_random(-1e-307, 1e-307)
        DistributionSpec.hill_random(0.0, 1e-310)


class TestMalformedSpec:
    # the Python API reaches values that parse_spec never passes on; each
    # must still raise SpecError, not a TypeError or ValueError of the
    # conversion, and a stray field before any table is built
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="BinaryHill", alpha=2.0, beta=3.0, p=0.3, atoms=[((1, 1, 1), None)]),
            dict(family="DiscreteAtoms", atoms=5),
            dict(family="DiscreteAtoms", atoms=[5]),
            dict(family="DiscreteAtoms", atoms=[(EntryTriple(1.0, 1.0, 1.0),)]),
            dict(family="CauchyRankOne", theta="x"),
        ],
        ids=["binary-stray-atoms", "atoms-int", "atoms-pair-int", "atoms-short-pair",
             "cauchy-stray-theta"],
    )
    def test_raises_spec_error(self, kwargs):
        with pytest.raises(SpecError):
            DistributionSpec(**kwargs)

    def test_stray_field_builds_no_law(self, monkeypatch):
        calls = []
        init = words.AtomLaw.__init__

        def counting(self, spec):
            calls.append(1)
            init(self, spec)

        monkeypatch.setattr(words.AtomLaw, "__init__", counting)
        atoms = [[EntryTriple(1.0, 2.0, 0.5), 1.0]]
        with pytest.raises(SpecError, match="alpha is not a parameter of DiscreteAtoms"):
            DistributionSpec(family="DiscreteAtoms", atoms=atoms, alpha=2.0)
        assert not calls
        DistributionSpec(family="DiscreteAtoms", atoms=atoms)
        assert len(calls) == 1


class TestAtomCap:
    @staticmethod
    def _validate(k):
        """(peak traced bytes, SpecError message or None) of validating k atoms."""
        atoms = [(EntryTriple(float(i + 1), 1.0, 1.0), 1.0 / k) for i in range(k)]
        tracemalloc.start()
        try:
            DistributionSpec.discrete_atoms(atoms)
        except SpecError as e:
            return tracemalloc.get_traced_memory()[1], str(e)
        else:
            return tracemalloc.get_traced_memory()[1], None
        finally:
            tracemalloc.stop()

    def test_cap_rejects_before_any_table(self):
        k = MAX_ATOMS + 1
        peak, error = self._validate(k)
        assert error is not None and "too many atoms" in error
        assert peak < 8 * k * k  # below one k x k float64 table
        # at the cap the table is built, and the same measurement sees it
        peak, error = self._validate(MAX_ATOMS)
        assert error is None and peak >= 8 * MAX_ATOMS**2


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
            assert np.array_equal(got, np.log(np.abs(t1[0] + t1[2] * (t2[1] / t2[0]))))
        for i in range(200):
            x = cross_terms(*((v[i : i + 1] for v in t) for t in (t1, t2)))
            assert x[0] == pytest.approx(got[i], rel=1e-15, abs=0)


def _atom_law(k, seed):
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], k) * rng.uniform(0.2, 3.0, k)
    b, c = rng.normal(size=k), rng.normal(size=k)
    w = rng.random(k) + 0.05
    return DistributionSpec.discrete_atoms(
        [((a[i], b[i], c[i]), w[i] / w.sum()) for i in range(k)]
    ).atom_law


class TestAtomLawCross:
    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_gather_equals_table(self, k):
        # the walk's two tables of the law's words: row l k^g + w of steps
        # holds the term from atom l into word w, then the g - 1 terms inside
        # w, each an entry of T, and that row of gather their sum; at g = 1
        # both are views of T, not copies
        law = _atom_law(k, seed=k)
        T = law.T
        g, n_words = law.g, len(law.sums)
        rng = np.random.default_rng(k)
        l, w = rng.integers(0, k, 40), rng.integers(0, n_words, 40)
        d = law.digits[w]
        want = np.column_stack([T[l, d[:, 0]], T[d[:, :-1], d[:, 1:]]])
        assert np.array_equal(np.take(law.steps, l * n_words + w, axis=0), want)
        assert law.steps.shape == (k * n_words, g) and not law.steps.flags.writeable
        assert np.shares_memory(law.steps, T) == (g == 1)
        assert law.gather.shape == (k * n_words, 1) and not law.gather.flags.writeable
        assert np.shares_memory(law.gather, T) == (g == 1)

    def test_table_is_built_once(self, monkeypatch):
        # the law builds its table when it is made; word draws only read it
        law = _atom_law(3, seed=0)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return cross_terms(*args, **kwargs)

        for module in (distributions, words):
            monkeypatch.setattr(module, "cross_terms", counting)
        workspace = tuple(np.empty(32) for _ in range(3))
        _, _, first = law.step_rows(7, 2, make_stream(0), workspace)
        first = first.copy()
        _, _, second = law.step_rows(7, 2, make_stream(0), workspace)
        assert not calls
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
        # c*(b/a) = 1e400: lambda was +inf and build_matrix overflowed
        with pytest.raises(SpecError, match="c\\*\\(b/a\\)"):
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
        assert xi.c * (xi.b / xi.a) == pytest.approx(float(entry), rel=1e-15)
        assert xi.b / xi.a == pytest.approx(float(ratio), rel=1e-15)

    def test_huge_entries_with_finite_ratios_accepted(self):
        xi = EntryTriple(1e300, 1.0, 1e300)
        assert (xi.b / xi.a, xi.c * (xi.b / xi.a)) == (1e-300, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(SpecError, match="finite"):
            EntryTriple(1.0, float("nan"), 1.0)


STREAM_KEYS = (
    (5 + 7 * 2**32, 0), (5, 7), (5, 0), (0, 0), (2**64 - 1, 2**64 - 1), (2**63, 1)
)


class TestMakeStream:
    @pytest.mark.parametrize("seed, chunk", STREAM_KEYS)
    def test_sfc64_keyed_by_four_words(self, seed, chunk):
        words = [seed & 0xFFFFFFFF, seed >> 32, chunk & 0xFFFFFFFF, chunk >> 32]
        seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        want = np.random.Generator(np.random.SFC64(seq))
        gen = make_stream(seed, chunk)
        assert isinstance(gen.bit_generator, np.random.SFC64)
        assert np.array_equal(gen.random(1000), want.random(1000))

    def test_distinct_keys_give_distinct_streams(self):
        # (5 + 7 * 2^32, 0) and (5, 7) share a stream if the key words of
        # an int depend on its size, as in SeedSequence([seed, chunk])
        firsts = [make_stream(seed, chunk).random() for seed, chunk in STREAM_KEYS]
        assert len(set(firsts)) == len(STREAM_KEYS)

    def test_chunk_defaults_to_zero(self):
        assert make_stream(9).random(4).tolist() == make_stream(9, 0).random(4).tolist()

    def test_state_copy_keeps_every_stream(self):
        # some states are copied out of a line-straddling bit generator;
        # every stream must be the plain SeedSequence one
        for seed in range(40):
            for chunk in (0, 1, 2, 63, 2**40 + 1):
                words = [seed, 0, chunk & 0xFFFFFFFF, chunk >> 32]
                seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
                want = np.random.Generator(np.random.SFC64(seq))
                got = make_stream(seed, chunk)
                assert np.array_equal(got.random(64), want.random(64)), (seed, chunk)
                assert np.array_equal(got.integers(2**63, size=8), want.integers(2**63, size=8))

    def test_state_does_not_straddle_a_cache_line(self, monkeypatch):
        # streams made one after another, each dropped when the next is
        # made, as one worker makes them, or two alive at once, as two do.
        # The park starts empty, as in a fresh process (the old one stays
        # referenced, so its slots are not freed), and the state's address
        # is read as make_stream reads it, since the ctypes view would
        # allocate objects that change the heap's layout
        monkeypatch.setattr(distributions, "_PARKED", [])
        bits = make_stream(0).bit_generator
        offset = distributions._state_offset()
        assert bits.ctypes.state_address == id(bits) + offset
        for alive in (1, 2):
            held = None
            for chunk in range(64):
                gen = make_stream(3, chunk)
                assert (id(gen.bit_generator) + offset) % 64 <= 32, (alive, chunk)
                held = gen if alive == 2 else None
                del gen
        assert len(distributions._PARKED) < distributions._PARK_LIMIT


class TestSampling:
    def test_constant_point_mass(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        gen = make_stream(0)
        a, b, c = sample_triples(spec, 1, gen)
        assert (a.tolist(), b.tolist(), c.tolist()) == ([1.0], [1.0], [1.0])

    def test_binary_p1_degenerate(self):
        spec = DistributionSpec.binary_hill(2.0, 3.0, 1.0)
        gen = make_stream(0)
        for _ in range(5):
            a, b, c = sample_triples(spec, 1, gen)
            assert (a.tolist(), b.tolist(), c.tolist()) == ([2.0], [0.5], [1.0])

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
        singles = [sample_triples(spec, 1, gen) for _ in range(4)]
        # batch order is the x block then the y block
        assert batch[0][0] == pytest.approx(singles[0][0][0], abs=0)


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


class ReplayStream:
    """Returns the given uniforms from random(out=x)."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[...] = self.u
        return out


EXP_THETAS = [1.0, 0.5, 3.0, 1.0 / 3.0, families._EXP_MIN_THETA, 1e300]


class TestExponentialDivisor:
    # the sampler divides log1p(-u) by -theta; IEEE division is
    # sign-symmetric, so that is -log1p(-u) / theta bit for bit
    @pytest.mark.parametrize("theta", EXP_THETAS)
    def test_sampler_is_formula_on_the_same_stream(self, theta):
        n = 10_000
        a, _, c = sample_triples(DistributionSpec.exponential_rank_one(theta), n, make_stream(5))
        ref = make_stream(5)
        for got in (a, c):
            want = -np.log1p(-ref.random(n)) / theta
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("theta", EXP_THETAS)
    def test_extreme_uniforms(self, theta):
        # u = 0 draws +0.0 (not -0.0); 1 - 2^-53 draws the largest value
        u = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
        got = families._exponential(ReplayStream(u), theta)(np.empty(u.size))
        want = -np.log1p(-u) / theta
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.signbit(got[0])


class PlantedStream:
    """A make_stream stream whose calls listed in ``plant`` return ``value`` at
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


def scanned_exponential_units(n, gen):
    """Exponential unit sums as drawn before the zero guard: every product
    w = u_1 u_2 scanned for 0 and redrawn by fill_nonzero, then one log."""
    t, scratch = np.empty(n), np.empty(n)

    def draw(x):
        v = scratch[: x.size]
        gen.random(out=x)
        gen.random(out=v)
        return np.multiply(x, v, out=x)

    return np.log(families.fill_nonzero(draw, t))


class TestExponentialZeroGuard:
    # the guard finds w = 0 by log's divide-by-zero flag instead of a scan
    N = 1 << 16
    ERRSTATES = [
        pytest.param({"divide": "ignore"}, id="caller-ignores-divide"),
        pytest.param({"all": "raise"}, id="caller-raises-all"),
    ]

    @pytest.mark.parametrize("errstate", ERRSTATES)
    @pytest.mark.parametrize("out", [False, True])
    def test_zeros_come_out_as_the_scan_drew_them(self, errstate, out):
        # u_1 = 0 in lanes 0, 7, 8 and N - 1, and again in the redraw of lane 7
        plant = {0: (0, 7, 8, self.N - 1), 2: (1,)}
        spec = DistributionSpec.exponential_rank_one(1.0)
        ref_gen, gen = PlantedStream(0.0, plant), PlantedStream(0.0, plant)
        with np.errstate(divide="ignore"):
            want = scanned_exponential_units(self.N, ref_gen)
        bufs = (np.empty(self.N + 3), np.empty(self.N + 3)) if out else None
        before = np.geterr()
        with warnings.catch_warnings(), np.errstate(**errstate):
            warnings.simplefilter("error")
            inside = np.geterr()
            got = sample_units(spec, self.N, gen, out=bufs)
            assert np.geterr() == inside
        assert np.geterr() == before
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.isfinite(got).all() and (got < 0.0).all()
        assert gen.calls == ref_gen.calls == [self.N, self.N, 4, 4, 1, 1]
        assert gen.gen.random() == ref_gen.gen.random()

    @pytest.mark.parametrize("errstate", ERRSTATES)
    def test_no_zero_draws_no_more(self, errstate):
        spec = DistributionSpec.exponential_rank_one(1.0)
        ref_gen, gen = PlantedStream(0.0, {}), PlantedStream(0.0, {})
        want = scanned_exponential_units(self.N, ref_gen)
        with warnings.catch_warnings(), np.errstate(**errstate):
            warnings.simplefilter("error")
            got = sample_units(spec, self.N, gen)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert gen.calls == [self.N, self.N]
        assert gen.gen.random() == ref_gen.gen.random()


class TestEnumerateAtoms:
    def test_constant(self):
        spec = DistributionSpec.constant_triple(1.0, 1.0, 1.0)
        assert FAMILIES[spec.family].atoms(spec) == [(EntryTriple(1, 1, 1), 1.0)]

    def test_binary(self):
        spec = DistributionSpec.binary_hill(2.0, 3.0, 0.25)
        atoms = FAMILIES[spec.family].atoms(spec)
        assert atoms == [
            (EntryTriple(2.0, 0.5, 1.0), 0.25),
            (EntryTriple(3.0, 1.0 / 3.0, 1.0), 0.75),
        ]
        assert sum(p for _, p in atoms) == 1.0

    def test_probabilities_exactly_as_stated(self):
        atoms = [((1.0, 1.0, 1.0), 0.125), ((2.0, 1.0, 1.0), 0.875)]
        spec = DistributionSpec.discrete_atoms(atoms)
        assert [p for _, p in FAMILIES[spec.family].atoms(spec)] == [0.125, 0.875]

    def test_continuous_raises(self):
        with pytest.raises(NotDiscreteError, match="not discrete"):
            DistributionSpec.cauchy_rank_one().atom_law


class QueueStream:
    """random(out) fills out with the next of the given values, then with
    make_stream(99)'s uniforms once they are used up."""

    def __init__(self, values):
        self.values = list(values)
        self.gen = make_stream(99)

    def random(self, out):
        if not self.values:
            return self.gen.random(out=out)
        out[...] = self.values.pop(0)
        return out


def _triangular_cdf(lo, hi):
    """CDF of x + y for x, y i.i.d. uniform on [lo, hi]."""
    w = hi - lo

    def cdf(s):
        z = (s - 2.0 * lo) / w  # x + y = 2 lo + w z, z triangular on [0, 2]
        return np.where(z <= 1.0, z * z / 2.0, 1.0 - (2.0 - z) ** 2 / 2.0)

    return cdf


SUM_LAWS = [
    pytest.param(DistributionSpec.uniform_rank_one(0.0, 1.0), _triangular_cdf(0.0, 1.0),
                 id="uniform-0-1"),
    pytest.param(DistributionSpec.uniform_rank_one(1.0, 1.0), _triangular_cdf(-1.0, 1.0),
                 id="uniform-sym"),
    # Gamma(2, theta): 1 - exp(-theta s)(1 + theta s)
    pytest.param(DistributionSpec.exponential_rank_one(1.0),
                 lambda s: -np.expm1(-s) - s * np.exp(-s), id="exp1"),
    pytest.param(DistributionSpec.exponential_rank_one(3.0),
                 lambda s: -np.expm1(-3.0 * s) - 3.0 * s * np.exp(-3.0 * s), id="exp3"),
    # Cauchy(0, 2)
    pytest.param(DistributionSpec.cauchy_rank_one(),
                 lambda s: 0.5 + np.arctan(s / 2.0) / np.pi, id="cauchy"),
]


def sample_sums(spec, n, gen):
    """n sums s = kappa t of a rank-one law, from its unit sums t."""
    return sample_units(spec, n, gen) * FAMILIES[spec.family].scale(spec)


class TestSampleSums:
    @pytest.mark.parametrize("spec, cdf", SUM_LAWS)
    def test_law_of_s_below_ks_line(self, spec, cdf):
        # the sampler alone against the exact CDF of s = x + y, at the
        # battery's one-sample KS line (level 0.001)
        n = 10**5
        s = np.sort(sample_sums(spec, n, make_stream(31)))
        f = cdf(s)
        i = np.arange(1, n + 1) / n
        ks = max(float((i - f).max()), float((f - (i - 1.0 / n)).max()))
        assert ks < KS_COEFF / math.sqrt(n), ks

    @pytest.mark.parametrize("spec", [s for s in ONE_PER_FAMILY if s.is_rank_one],
                             ids=lambda s: s.family)
    @pytest.mark.parametrize("n", [1, 7, 4096])
    def test_out_is_bitwise_equal_and_aliases_buffers(self, spec, n):
        gen_ref, gen_out = make_stream(13, 2), make_stream(13, 2)
        ref = sample_units(spec, n, gen_ref)
        bufs = (np.full(n + 5, np.nan), np.empty(n + 5))
        got = sample_units(spec, n, gen_out, out=bufs)
        assert got.shape == (n,) and np.array_equal(ref, got)
        assert np.shares_memory(got, bufs[0]) and np.isnan(bufs[0][n:]).all()
        assert gen_ref.random() == gen_out.random()

    def test_discrete_and_hill_rejected(self):
        for spec in ONE_PER_FAMILY:
            if not spec.is_rank_one:
                with pytest.raises(ValueError, match="not a rank-one family"):
                    sample_units(spec, 4, make_stream(0))

    # (law, uniforms (u_1, u_2) that draw t = 0 exactly, or the product
    # w = 0 of an Exponential unit sum log w; uniforms that give two draws
    # with x + y = 0, or None where no two draws can cancel)
    ZERO_SUMS = [
        pytest.param(DistributionSpec.exponential_rank_one(2.0), (0.0, 0.0), None,
                     id="exponential"),
        pytest.param(DistributionSpec.uniform_rank_one(0.0, 1.0), (0.0, 0.0), None,
                     id="uniform-0-b"),
        pytest.param(DistributionSpec.cauchy_rank_one(), (0.5,), (0.25, 0.75),
                     id="cauchy"),
        pytest.param(DistributionSpec.uniform_rank_one(1.0, 1.0), (0.25, 0.75),
                     (0.25, 0.75), id="uniform-sym"),
    ]

    @pytest.mark.parametrize("spec, zero, cancel", ZERO_SUMS)
    def test_exact_zero_redrawn_only_where_two_draws_cannot_cancel(self, spec, zero, cancel):
        # x is never 0, so x + y = 0 needs y = -x: impossible where both
        # draws have one sign, and there t = 0 is redrawn; elsewhere the
        # cancellation is kept, as for two draws
        s = sample_units(spec, 1, QueueStream(zero))
        if cancel is None:
            assert s[0] != 0.0
            x, _, y = sample_triples(spec, 10**5, make_stream(3))
            assert (np.sign(x) == np.sign(x[0])).all() and (x * y >= 0.0).all()
        else:
            assert s[0] == 0.0
            x, _, y = sample_triples(spec, 1, QueueStream(cancel))
            assert x[0] + y[0] == 0.0


# the fields of a valid document of each family
MINIMAL_DOCS = {
    "BinaryHill": {"alpha": 2, "beta": 3, "p": 0.5},
    "UniformRankOne": {"a": 1, "b": 1},
    "ExponentialRankOne": {"theta": 1},
    "CauchyRankOne": {},
    "HillRandom": {"a": 0.5, "b": 2},
    "DiscreteAtoms": {"atoms": [[[1, 0.5, 1], 0.25], [[2, 1, -1], 0.75]]},
    "ConstantTriple": {"value": [1, 1, 1]},
}


UNSOLVED_DOCS = {"UniformRankOne": {"a": 1, "b": 2}}


def _doc(record, **changes):
    """JSON of the family's minimal document with ``changes``; None drops a field."""
    doc = {"family": record.name, **MINIMAL_DOCS[record.name], **changes}
    return json.dumps({k: v for k, v in doc.items() if v is not None})


@pytest.mark.parametrize("record", FAMILIES.values(), ids=lambda r: r.name)
class TestFamilyRecords:
    def test_minimal_document_parses(self, record):
        assert set(MINIMAL_DOCS[record.name]) == set(record.fields)
        spec = parse_spec(_doc(record))
        assert spec.family == record.name

    def test_missing_and_unknown_fields_named(self, record):
        for name in record.fields:
            with pytest.raises(SpecError, match=f"'{name}'"):
                parse_spec(_doc(record, **{name: None}))
        with pytest.raises(SpecError, match="unknown field.*gamma"):
            parse_spec(_doc(record, gamma=1))

    def test_discrete_exactly_with_atoms(self, record):
        spec = parse_spec(_doc(record))
        assert spec.is_discrete == (record.atoms is not None)
        if spec.is_discrete:
            support = record.atoms(spec)
            assert spec.atom_law.k == len(support)
            assert spec.atom_law.p.tolist() == [p for _, p in support]
        else:
            with pytest.raises(NotDiscreteError):
                spec.atom_law

    def test_rank_one_exactly_with_sums(self, record):
        spec = parse_spec(_doc(record))
        assert spec.is_rank_one == (record.units is not None)
        assert (record.scale is None) == (record.units is None)
        if spec.is_rank_one:
            assert sample_units(spec, 4, make_stream(0)).shape == (4,)
            a, b, _ = sample_triples(spec, 4, make_stream(0))
            assert a is b  # the triple (x, x, y) of [[x, x], [y, y]]
        else:
            with pytest.raises(ValueError, match="not a rank-one family"):
                sample_units(spec, 4, make_stream(0))

    def test_closed_form_raises_exactly_without_one(self, record):
        spec = parse_spec(_doc(record))
        if record.closed_form is None:
            with pytest.raises(NoClosedFormError, match="no closed form"):
                closed_form(spec)
        else:
            assert all(map(math.isfinite, closed_form(spec)))
        # parameters that a family's closed form does not solve
        if record.name in UNSOLVED_DOCS:
            with pytest.raises(NoClosedFormError, match="no closed form"):
                closed_form(parse_spec(_doc(record, **UNSOLVED_DOCS[record.name])))


def test_readme_config_table_lists_every_family_and_its_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("## Distribution configs", 1)[1]
    first_table = re.search(r"^\|.*?\n(?!\|)", section, re.M | re.S).group()
    rows = re.findall(r"^\| `(\w+)` +\|([^|]*)\|", first_table, re.M)
    table = {name: tuple(f.split(":")[0] for f in re.findall(r"`([^`]+)`", cell))
             for name, cell in rows}
    assert table == {r.name: r.fields for r in FAMILIES.values()}
