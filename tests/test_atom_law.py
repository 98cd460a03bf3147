"""Finite-support laws by atom index: AtomLaw, index_search and the paths on them.

The references below are the discrete code paths as they were before
atom indices: the per-family sampler branches, the allocate-per-block
chain kernel on sampled triples, and the reducer's one-pass chunk body
on sampled triples.  The atom-index paths must reproduce them bit for
bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmp.clt import degeneracy_check
from rmp.distributions import (
    BINARY_HILL,
    CONSTANT_TRIPLE,
    AtomLaw,
    DistributionSpec,
    index_search,
    make_stream,
    sample_triples,
)
from rmp.estimators import (
    SAMPLE_CHUNK,
    _reduce,
    _summary,
    cross_terms,
    estimate_sigma2_mc,
    exact_discrete,
)
from rmp.product import CHAIN_CHUNK, STEP_BLOCK, chain_log_norms, chunk_sizes


def _random_atoms(k, seed, cancelling=False):
    rng = np.random.default_rng(seed)
    w = rng.random(k) + 0.05
    a = rng.choice([-1.0, 1.0], k) * rng.uniform(0.2, 3.0, k)
    b, c = rng.normal(size=k), rng.normal(size=k)
    atoms = [((a[i], b[i], c[i]), w[i] / w.sum()) for i in range(k)]
    if cancelling:  # 2 + (-2) * 1 / 1 = 0: chains and samples reach -inf
        atoms[:2] = [((2.0, 5.0, 1.0), atoms[0][1]), ((1.0, -2.0, 3.0), atoms[1][1])]
    return DistributionSpec.discrete_atoms(atoms)


LAWS = (
    DistributionSpec.binary_hill(2.0, 3.0, 0.0),
    DistributionSpec.binary_hill(2.0, 3.0, 0.3),
    DistributionSpec.binary_hill(2.0, 3.0, 1.0),
    DistributionSpec.discrete_atoms(
        [((1.0, 0.5, 1.0), 0.25), ((2.0, 1.0, -1.0), 0.5), ((-1.5, 2.0, 0.5), 0.25)]
    ),
    DistributionSpec.constant_triple(2.0, 6.0, 3.0),
    _random_atoms(5, seed=1, cancelling=True),
    _random_atoms(17, seed=2),
    _random_atoms(64, seed=3),
)
IDS = ("binary-p0", "binary-p0.3", "binary-p1", "atoms3", "constant",
       "atoms5", "atoms17", "atoms64")


def legacy_triples(spec, n, gen):
    """The discrete branches of sample_triples before atom indices."""
    if spec.family == CONSTANT_TRIPLE:
        v = spec.value
        return np.full(n, v.a), np.full(n, v.b), np.full(n, v.c)
    if spec.family == BINARY_HILL:
        a = np.where(gen.random(n) < spec.p, spec.alpha, spec.beta)
        return a, 1.0 / a, np.ones(n)
    cum = np.cumsum([p for _, p in spec.atoms])
    cum[-1] = max(cum[-1], 1.0)
    idx = np.searchsorted(cum, gen.random(n), side="right")
    table = np.array([(t.a, t.b, t.c) for t, _ in spec.atoms])
    return table[idx, 0], table[idx, 1], table[idx, 2]


def legacy_chain_chunk(spec, n, width, gen):
    """The chain kernel on sampled triples, with fresh arrays for every block."""
    sumlog = np.zeros(width)
    head_ratio = None
    prev = None
    done = 0
    while done < n:
        block = min(STEP_BLOCK, n - done)
        a, b, c = legacy_triples(spec, block * width, gen)
        A = a.reshape(block, width)
        B = b.reshape(block, width)
        C = c.reshape(block, width)
        if prev is None:
            head_ratio = B[0] / A[0]
        else:
            pa, pc = prev
            with np.errstate(divide="ignore"):
                sumlog += np.log(np.abs(pa + pc * (B[0] / A[0])))
        if block > 1:
            with np.errstate(divide="ignore"):
                cross = np.log(np.abs(A[:-1] + C[:-1] * (B[1:] / A[1:])))
            sumlog += cross.sum(axis=0)
        prev = (A[-1], C[-1])
        done += block
    pa, pc = prev
    return sumlog + np.log(np.hypot(pa, pc)) + np.log(np.hypot(1.0, head_ratio))


def one_pass_reduce(spec, n_samples, seed):
    """_reduce with its chunk body on sampled triples and cross_terms.

    Chunk k draws m + 2 triples and forms their m + 1 cross terms.  Every
    L-row batch, and the shorter tail of the last chunk, is summarised on
    its own, one 1-D _summary each; any -inf term leaves no table.
    """
    L = 1 << int(math.log2(math.isqrt(n_samples)))
    events, table = 0, []
    for k, m in enumerate(chunk_sizes(n_samples, SAMPLE_CHUNK)):
        a, b, c = legacy_triples(spec, m + 2, make_stream(seed, k))
        terms = cross_terms((a[:-1], None, c[:-1]), (a[1:], b[1:], None))
        events += int(np.isneginf(terms).sum())
        if not events:
            x, y = terms[:-1], terms[1:]
            table += [_summary(x[j:j + L], y[j:j + L]) for j in range(0, m, L)]
    return (events, None) if events else (0, np.array(table))


class TestPinnedToSampledTriples:
    @pytest.mark.parametrize("spec", LAWS, ids=IDS)
    @pytest.mark.parametrize("out", [False, True])
    def test_sampler(self, spec, out):
        for n in (1, 7, 4096):
            ref_gen, gen = make_stream(13, 2), make_stream(13, 2)
            want = legacy_triples(spec, n, ref_gen)
            bufs = tuple(np.empty(n) for _ in range(3)) if out else None
            got = sample_triples(spec, n, gen, out=bufs)
            for w, g in zip(want, got):
                assert np.array_equal(w, g), n
            if AtomLaw(spec).k == 1:
                # draws nothing now; the legacy BinaryHill drew n uniforms
                assert gen.random() == make_stream(13, 2).random()
            else:
                assert gen.random() == ref_gen.random()

    @pytest.mark.parametrize("spec", LAWS, ids=IDS)
    def test_chain_kernel(self, spec):
        m = CHAIN_CHUNK + 11
        for n in (1, 2, STEP_BLOCK, 2 * STEP_BLOCK + 37):
            want = np.concatenate(
                [
                    legacy_chain_chunk(spec, n, width, make_stream(8, k))
                    for k, width in enumerate(chunk_sizes(m, CHAIN_CHUNK))
                ]
            )
            for threads in (1, 2):
                got = chain_log_norms(spec, n, m, seed=8, threads=threads)
                assert np.array_equal(got, want), (n, threads)

    @pytest.mark.parametrize("spec", LAWS, ids=IDS)
    def test_reducer(self, spec):
        n = SAMPLE_CHUNK + 37
        want = one_pass_reduce(spec, n, 6)
        for threads in (1, 2):
            got = _reduce(spec, n, 6, threads)
            assert got[0] == want[0]
            if want[1] is None:
                assert got[1] is None
            else:
                assert np.array_equal(got[1], want[1])

    def test_cancelling_law_reaches_minus_inf(self):
        # the pins above compare -inf events, so make sure some happen
        spec = LAWS[IDS.index("atoms5")]
        assert _reduce(spec, 4096, 0, 1)[0] > 0
        assert np.isneginf(chain_log_norms(spec, 200, 64, seed=0)).any()


class TestAtomLaw:
    def test_tables(self):
        spec = LAWS[IDS.index("atoms3")]
        law = AtomLaw(spec)
        assert law.k == 3
        assert law.atoms.tolist() == [[1.0, 0.5, 1.0], [2.0, 1.0, -1.0], [-1.5, 2.0, 0.5]]
        assert law.cum.tolist() == [0.25, 0.75, 1.0, math.inf]
        T = law.log_cross()
        for i, (a1, _, c1) in enumerate(law.atoms):
            for j, (a2, b2, _) in enumerate(law.atoms):
                want = math.log(abs(a1 + b2 * c1 / a2))
                assert T[i, j] == pytest.approx(want, rel=1e-15, abs=0)

    def test_no_route_rebuilds_the_table(self, monkeypatch):
        builds = []
        init = AtomLaw.__init__

        def counting(self, spec):
            builds.append(spec.family)
            init(self, spec)

        monkeypatch.setattr(AtomLaw, "__init__", counting)
        spec = _random_atoms(5, seed=1)
        law = spec.atom_law
        assert len(builds) == 1
        sample_triples(spec, 100, make_stream(0))
        sample_triples(spec, 1, make_stream(0))
        chain_log_norms(spec, 50, 8, seed=0, threads=2)
        estimate_sigma2_mc(spec, 1000, seed=0, threads=2)
        exact_discrete(spec)
        degeneracy_check(spec)
        assert len(builds) == 1 and spec.atom_law is law
        # shared across threads, so read-only; log_cross hands out the table
        T = law.log_cross()
        assert T is law.log_cross()
        for arr in (law.atoms, law.p, law.cum, T):
            assert not arr.flags.writeable
        # not a field: equality, hash and repr are the fields' own
        twin = _random_atoms(5, seed=1)
        assert twin == spec and hash(twin) == hash(spec) and twin.atom_law is not law
        assert "AtomLaw" not in repr(spec)

    def test_binary_atoms_in_stream_order(self):
        # index 0 is the event u < p, which selected alpha before
        law = AtomLaw(DistributionSpec.binary_hill(2.0, 3.0, 0.25))
        assert law.atoms.tolist() == [[2.0, 0.5, 1.0], [3.0, 1.0 / 3.0, 1.0]]
        assert law.cum.tolist() == [0.25, 1.0]

    def test_cancellation_is_minus_inf(self):
        spec = DistributionSpec.discrete_atoms(
            [((2.0, 5.0, 1.0), 0.5), ((1.0, -2.0, 3.0), 0.5)]
        )
        assert AtomLaw(spec).log_cross()[0, 1] == -math.inf

    def test_last_atom_absorbs_rounding_slack(self):
        # ten atoms of 0.1: the float cumulative sum ends at 1 - 2^-53
        spec = DistributionSpec.discrete_atoms(
            [((float(i + 1), 1.0, 1.0), 0.1) for i in range(10)]
        )
        assert np.cumsum([0.1] * 10)[-1] < 1.0
        law = AtomLaw(spec)
        assert law.cum[9] == 1.0 and np.isinf(law.cum[10:]).all()
        u = np.array([np.nextafter(1.0, 0.0)])
        assert index_search(law.cum, u, np.empty(1, np.intp), np.empty(1)).tolist() == [9]


@st.composite
def cum_and_uniforms(draw):
    k = draw(st.integers(1, 64))
    if draw(st.booleans()):
        weights = [1.0] * k  # equal shares: cumulative sums that round
    else:
        weights = draw(st.lists(st.floats(1e-20, 1.0), min_size=k, max_size=k))
    total = math.fsum(weights)
    spec = DistributionSpec.discrete_atoms(
        [((1.0, 1.0, 1.0), w / total) for w in weights]
    )
    raw = np.cumsum([p for _, p in spec.atoms])
    probes = [0.0, np.nextafter(1.0, 0.0)]
    for x in raw:
        probes += [x, np.nextafter(x, 0.0), np.nextafter(x, 2.0)]
    probes += draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    u = np.array([x for x in probes if 0.0 <= x < 1.0])
    return spec, raw, u


class TestIndexSearch:
    @given(cum_and_uniforms())
    @settings(max_examples=300, deadline=None)
    def test_equals_searchsorted(self, case):
        spec, raw, u = case
        law = AtomLaw(spec)
        k = law.k
        n = len(u)
        idx = index_search(law.cum, u, np.empty(n, np.intp), np.empty(n))
        assert np.array_equal(idx, np.searchsorted(law.cum[:k], u, side="right"))
        # the last atom takes any u at or above a cumulative sum below 1
        assert np.array_equal(idx, np.minimum(np.searchsorted(raw, u, side="right"), k - 1))

    def test_power_of_two_padding(self):
        for k, size in ((1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (17, 32), (64, 64)):
            law = AtomLaw(_random_atoms(k, seed=k))
            assert len(law.cum) == size
            assert np.isinf(law.cum[k:]).all() and law.cum[k - 1] >= 1.0


class TestAtomChainMemory:
    @pytest.mark.parametrize("spec", (LAWS[3], LAWS[6]), ids=("atoms3", "atoms17"))
    def test_peak_is_three_buffers_whatever_the_chain_length(self, spec):
        def peak(n):
            tracemalloc.start()
            try:
                chain_log_norms(spec, n, 2 * CHAIN_CHUNK, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        long, short = peak(4 * STEP_BLOCK), peak(STEP_BLOCK)
        assert long <= 1.25 * short
        # the workspace is three buffers of STEP_BLOCK * CHAIN_CHUNK doubles;
        # a fourth, or a block-sized index array per block, would add a whole one
        assert long <= 3.25 * STEP_BLOCK * CHAIN_CHUNK * 8
