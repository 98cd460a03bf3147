"""Finite-support laws by words of atoms: AtomLaw and the paths on it.

The references below replay the words that a path draws (their atoms
through AtomLaw.digits, the last word cut to the steps drawn) and form
the cross terms of the replayed triples: the allocate-per-block chain
kernel, and the reducer's one-pass chunk body.  The word paths, which
gather their terms from tables, must reproduce them bit for bit.  A
chain's block sums its terms by word as the word kernel gathers them:
a block of whole words as AtomLaw.block does, a cut block over the g slots
of each word.  The chain kernel replica, allocating_chain_chunk, runs
every other law too; test_product and test_words import it from here.
"""

import math
import tracemalloc

import numpy as np
import pytest

from rmp.clt import degeneracy_check
from rmp.distributions import (
    DistributionSpec,
    make_stream,
    sample_triples,
    sample_units,
)
from rmp.estimators import (
    SAMPLE_CHUNK,
    _reduce,
    cross_terms,
    estimate_sigma2_mc,
    exact_discrete,
)
from rmp.families import FAMILIES
from rmp.product import CHAIN_CHUNK, STEP_BLOCK, chain_log_norms, chunk_sizes
from rmp.selftest import _block_triples
from rmp.words import AtomLaw

LOG2 = math.log(2.0)


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


def replayed_triples(spec, n, gen):
    """n triples of one chain, replayed from drawn words: ceil(n / g) words
    of the law's alias table, decoded through their digits, the last cut."""
    law = spec.atom_law
    r = -(-n // law.g)
    drawn = law.draw(r, gen, (np.empty(r), np.empty(r), np.empty(r)))
    idx = law.digits[drawn].ravel()[:n]
    return tuple(law.atoms[idx].T)


def word_rows(terms, g):
    """A block's (block - 1) x width step terms summed as the word kernel
    gathers them, block = R g: row 0 is S of the first word, row r >= 1
    the term into word r plus S of word r, each S the left-to-right sum
    of the word's own g - 1 terms."""
    rows = []
    for start in range(0, len(terms) + 1, g):
        s = np.zeros(terms.shape[1])
        for i in range(start, start + g - 1):
            s = s + terms[i]
        rows.append(s if start == 0 else terms[start - 1] + s)
    return np.array(rows)


def cut_word_rows(terms, g):
    """A cut block's (block - 1) x width step terms summed as the word kernel
    sums them: in R = ceil(block / g) words of g slots per chain, laid out
    R x width x g, the first word's first slot and the slots past the
    block's last step 0, and each word's slots summed."""
    block, width = len(terms) + 1, terms.shape[1]
    R = -(-block // g)
    slots = np.zeros((R * g, width))
    slots[1:block] = terms
    return np.ascontiguousarray(slots.reshape(R, g, width).transpose(0, 2, 1)).sum(axis=2)


def block_lengths(n, g):
    """The steps of a chain's blocks: STEP_BLOCK words of g steps while whole
    words remain, the last such block shorter, then the n mod g steps of
    its cut last word."""
    whole, span = n - n % g, STEP_BLOCK * g
    lengths = [min(span, whole - done) for done in range(0, whole, span)]
    return lengths + [n % g] if n % g else lengths


def allocating_rank_one_block(spec, block, width, gen):
    """A rank-one block step with fresh arrays: the unit sums of block - 1
    steps folded by contiguous halving into products of up to `group` of
    them, one log each; no pair is drawn."""
    rows = sample_units(spec, (block - 1) * width, gen).reshape(block - 1, width)
    g = FAMILIES[spec.family].group
    while g > 1 and len(rows) > 1:
        r, h = len(rows), (len(rows) + 1) // 2
        rows = np.concatenate([rows[: r - h] * rows[h:], rows[r - h : h]])
        g //= 2
    with np.errstate(divide="ignore"):
        return np.log(np.abs(rows))


def allocating_chain_chunk(spec, n, width, gen):
    """The chain kernel with fresh arrays for every block.  A rank-one law
    draws its n - 1 unit sums by allocating_rank_one_block, in blocks of
    up to STEP_BLOCK, then its last pair, and adds (n - 1) log|kappa| and
    log hypot(1, 1) once.  Other laws run on replayed triples, whose
    terms a finite-support block sums by word, whole or cut, in blocks of
    up to STEP_BLOCK words (block_lengths)."""
    sumlog = np.zeros(width)
    if spec.is_rank_one:
        for done in range(0, n - 1, STEP_BLOCK):
            terms = min(STEP_BLOCK, n - 1 - done)
            sumlog += allocating_rank_one_block(spec, terms + 1, width, gen).sum(axis=0)
        x, _, y = sample_triples(spec, width, gen)
        sumlog += (n - 1) * math.log(abs(FAMILIES[spec.family].scale(spec))) + 0.5 * LOG2
        return sumlog + np.log(np.hypot(x, y))
    g = spec.atom_law.g if spec.is_discrete else 1
    head_ratio = None
    prev = None
    for block in block_lengths(n, g):
        a, b, c = _block_triples(spec, block, width, gen)
        A = a.reshape(block, width)
        B = b.reshape(block, width)
        C = c.reshape(block, width)
        first, last = (A[0], B[0], C[0]), (A[-1], B[-1], C[-1])
        with np.errstate(divide="ignore"):
            cross = np.log(np.abs(A[:-1] + C[:-1] * (B[1:] / A[1:])))
        if spec.is_discrete:
            cross = (word_rows if block % g == 0 else cut_word_rows)(cross, g)
        if prev is None:
            head_ratio = first[1] / first[0]
        else:
            pa, _, pc = prev
            with np.errstate(divide="ignore"):
                sumlog += np.log(np.abs(pa + pc * (first[1] / first[0])))
        if block > 1:
            sumlog += cross.sum(axis=0)
        prev = last
    pa, _, pc = prev
    return sumlog + np.log(np.hypot(pa, pc)) + np.log(np.hypot(1.0, head_ratio))


def one_pass_reduce(spec, n_samples, seed):
    """_reduce with its chunk body on replayed triples and cross_terms.

    Chunk k replays the words of m + 2 triples and forms their m + 1
    cross terms, centred at the first, d = terms - terms[0].  Every L-row
    batch, and the shorter tail of the last chunk, is summed on its own:
    the row (n, terms[0], sum dx^2, sum dx dy, sum dx, sum dy) of its dx
    and the dy one step on; sum dy is sum dx less its first dx plus its
    last dy, as the reducer forms it.  Any -inf term leaves no table.  The events
    are (-inf terms, +inf or NaN terms); a finite law that passed
    validation has none of the second kind.
    """
    L = 1 << int(math.log2(math.isqrt(n_samples)))
    events, table = 0, []
    for k, m in enumerate(chunk_sizes(n_samples, SAMPLE_CHUNK)):
        a, b, c = replayed_triples(spec, m + 2, make_stream(seed, k))
        terms = cross_terms((a[:-1], None, c[:-1]), (a[1:], b[1:], None))
        events += int(np.isneginf(terms).sum())
        if events:
            continue
        d = terms - terms[0]
        for j in range(0, m, L):
            hi = min(j + L, m)
            dx, dy = d[j:hi], d[j + 1 : hi + 1]
            Sx = np.einsum("i->", dx)
            Sy = Sx - dx[0] + dy[-1]
            assert abs(Sy - dy.sum()) <= 1e-9 * max(1.0, np.abs(dy).sum())
            sums = np.einsum("i,i->", dx, dx), np.einsum("i,i->", dx, dy), Sx, Sy
            table.append([float(dx.size), terms[0], *sums])
    return ((events, 0), None) if events else ((0, 0), np.array(table))


class TestPinnedToSampledTriples:
    @pytest.mark.parametrize("spec", LAWS, ids=IDS)
    @pytest.mark.parametrize("out", [False, True])
    def test_sampler(self, spec, out):
        for n in (1, 7, 4096):
            ref_gen, gen = make_stream(13, 2), make_stream(13, 2)
            want = replayed_triples(spec, n, ref_gen)
            bufs = tuple(np.empty(n) for _ in range(3)) if out else None
            got = sample_triples(spec, n, gen, out=bufs)
            for w, g in zip(want, got):
                assert np.array_equal(w, g), n
            # one uniform per word, a one-atom law's too
            assert gen.random() == ref_gen.random()

    @pytest.mark.parametrize("spec", LAWS, ids=IDS)
    def test_chain_kernel(self, spec):
        m = CHAIN_CHUNK + 11
        for n in (1, 2, STEP_BLOCK, 2 * STEP_BLOCK + 37):
            want = np.concatenate(
                [
                    allocating_chain_chunk(spec, n, width, make_stream(8, k))
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
        assert _reduce(spec, 4096, 0, 1)[0][0] > 0
        assert np.isneginf(chain_log_norms(spec, 200, 64, seed=0)).any()


class TestAtomLaw:
    def test_tables(self):
        spec = LAWS[IDS.index("atoms3")]
        law = AtomLaw(spec)
        assert law.k == 3
        assert law.atoms.tolist() == [[1.0, 0.5, 1.0], [2.0, 1.0, -1.0], [-1.5, 2.0, 0.5]]
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
        for arr in (law.atoms, law.p, T):
            assert not arr.flags.writeable
        # not a field: equality, hash and repr are the fields' own
        twin = _random_atoms(5, seed=1)
        assert twin == spec and hash(twin) == hash(spec) and twin.atom_law is not law
        assert "AtomLaw" not in repr(spec)

    def test_binary_atoms_in_stream_order(self):
        # atom 0 is alpha, drawn with probability p, and atom 1 beta
        law = AtomLaw(DistributionSpec.binary_hill(2.0, 3.0, 0.25))
        assert law.atoms.tolist() == [[2.0, 0.5, 1.0], [3.0, 1.0 / 3.0, 1.0]]
        assert law.p.tolist() == [0.25, 0.75]

    def test_cancellation_is_minus_inf(self):
        spec = DistributionSpec.discrete_atoms(
            [((2.0, 5.0, 1.0), 0.5), ((1.0, -2.0, 3.0), 0.5)]
        )
        assert AtomLaw(spec).log_cross()[0, 1] == -math.inf


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
