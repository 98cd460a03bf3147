"""The word tables of a finite-support law (rmp.words.AtomLaw), checked exactly.

A word's alias mass is counted from the table's thresholds in exact
rationals and compared with the fractions.Fraction product of its atoms'
probabilities; its gathered sums are compared with the cross-term table
summed along the word.
"""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rmp import product
from rmp.distributions import DistributionSpec, make_stream
from rmp.estimators import SAMPLE_CHUNK, _reduce, cross_terms, estimate_sigma2_mc
from rmp.product import CHAIN_CHUNK, STEP_BLOCK, chain_log_norms, chunk_sizes
from rmp.selftest import _block_triples, _chain_triples
from rmp.words import UNITS, word_length

from test_atom_law import LAWS, IDS, _random_atoms, allocating_chain_chunk, one_pass_reduce
from test_distributions import QueueStream

CANCEL = ((2.0, 5.0, 1.0), (1.0, -2.0, 3.0))  # 2 + 1 * (-2 / 1) = 0

WORD_LAWS = LAWS + (
    # ten atoms of 0.1, whose float sum is 1 - 2^-53, and the smallest p that
    # a word's product underflows
    DistributionSpec.discrete_atoms([((float(i + 1), 1.0, 1.0), 0.1) for i in range(10)]),
    DistributionSpec.discrete_atoms([((1.0, 1.0, 1.0), 1e-300), ((2.0, 1.0, 1.0), 1.0)]),
    _random_atoms(16, seed=4),
)
WORD_IDS = IDS + ("tenths", "underflow", "atoms16")


def alias_mass(law):
    """The probability, in units of 2^-53, that the alias table draws each
    word: slot j keeps its own word for threshold[j] 2^53 - j M of its
    M = 2^53 / N values of m and gives the rest to its alias.  Exact:
    every threshold is a multiple of 2^-53."""
    M, size = UNITS // law.size, law.size
    units = [0] * len(law.sums)
    for j, t in enumerate(law.threshold):
        own = Fraction(t) * UNITS - j * M
        assert own.denominator == 1 and 0 <= own <= M
        for key, count in ((j, int(own)), (j + size, M - int(own))):
            if count:
                units[law.word[key]] += count
    return units


class TestWordLength:
    @pytest.mark.parametrize(
        "k, g", [(1, 8), (2, 8), (3, 4), (4, 4), (5, 2), (16, 2), (17, 1), (1024, 1)]
    )
    def test_largest_power_of_two_with_at_most_256_words(self, k, g):
        assert word_length(k) == g
        assert (g == 1 or k**g <= 256) and (g == 8 or k ** (2 * g) > 256)


@pytest.mark.parametrize("spec", WORD_LAWS, ids=WORD_IDS)
class TestWordTable:
    def test_alias_mass_is_the_product_of_probabilities(self, spec):
        law = spec.atom_law
        g, n_words = law.g, law.k**law.g
        mass = [Fraction(units, UNITS) for units in alias_mass(law)]
        assert sum(mass) == 1
        p = [Fraction(x) for x in law.p]
        exact = [math.prod((p[i] for i in digits), start=Fraction(1))
                 for digits in law.digits.tolist()]
        # the float product carries (1 + 2^-53)^(g - 1) - 1 relative error,
        # and rounding it to a count of 2^-53 half a count; the most probable
        # word also takes the slack 1 - sum of counts, at most the distance
        # of (sum p)^g from 1 plus every other word's error
        gamma = (1 + Fraction(1, 2**53)) ** (g - 1) - 1
        bound = [gamma * x + Fraction(1, 2**54) for x in exact]
        slack = abs(1 - sum(p) ** g) + sum(bound)
        top = int(np.argmax(np.rint(law.word_p * UNITS)))  # the first most probable
        for w in range(n_words):
            assert abs(mass[w] - exact[w]) <= bound[w] + (slack if w == top else 0), w

    def test_padded_and_massless_words_never_drawn(self, spec):
        law = spec.atom_law
        n_words = len(law.sums)
        assert n_words == law.k**law.g and (law.word < n_words).all()
        for j in range(n_words, law.size):  # padded slots keep nothing
            assert law.threshold[j] == j / law.size
        n = 4096
        drawn = law.draw(n, make_stream(3), (np.empty(n), np.empty(n), np.empty(n)))
        mass = alias_mass(law)
        assert all(mass[w] > 0 for w in set(drawn.tolist()))

    def test_each_uniform_draws_its_slots_word(self, spec):
        # u = m 2^-53 in slot j = floor(u N) draws word[j] for the first
        # threshold[j] 2^53 - j M of the slot's M values of m and word[j + N]
        # for the rest, as alias_mass counts them: the first and last value
        # of each part, for every slot
        law = spec.atom_law
        N = law.size
        M = UNITS // N
        u, want = [], []
        for j, t in enumerate(law.threshold):
            own = int(Fraction(t) * UNITS) - j * M
            parts = ((j * M, own, law.word[j]), (j * M + own, M - own, law.word[j + N]))
            for start, count, word in parts:
                if count:
                    u += [start / UNITS, (start + count - 1) / UNITS]
                    want += [word, word]
        n = len(u)
        gen = QueueStream([np.array(u)])
        drawn = law.draw(n, gen, (np.empty(n), np.empty(n), np.empty(n)))
        assert drawn.tolist() == want

    def test_ungrouped_replay_draws_single_atoms(self, spec):
        # the Monte Carlo segment's block step gives every single step its
        # own term, in words cut to the block: ceil(block / g) uniforms,
        # the terms of the replayed steps, a view of the third buffer
        g = spec.atom_law.g
        for block in range(3 * g + 1, 4 * g + 1):
            workspace = tuple(np.empty(4 * g) for _ in range(3))
            gen, ref = make_stream(3), make_stream(3)
            first, last, got = product.block_step(spec)(block, 1, gen, workspace)
            a, b, c = _block_triples(spec, block, 1, ref)
            want = cross_terms((a[:-1], None, c[:-1]), (a[1:], b[1:], None))
            assert got.shape == (block - 1, 1) and np.shares_memory(got, workspace[2])
            assert np.array_equal(got.ravel(), want), block
            assert np.array_equal(first, [a[:1], b[:1], c[:1]])
            assert np.array_equal(last, [a[-1:], b[-1:], c[-1:]])
            assert gen.random() == ref.random()

    def test_sums_follow_the_word(self, spec):
        law = spec.atom_law
        T = law.T
        for w, digits in enumerate(law.digits.tolist()):
            s = 0.0
            for i, j in zip(digits, digits[1:]):
                s += float(T[i, j])
            assert law.sums[w] == s
        n_words = len(law.sums)
        gather = law.gather.ravel()
        for w, digits in enumerate(law.digits.tolist()):
            for l in range(law.k):
                want = float(T[l, digits[0]]) + float(law.sums[w])
                assert gather[l * n_words + w] == want
            assert law.offset[w] == digits[-1] * n_words


# one law per word length: BinaryHill, 3, 5 and 17 atoms
CUT_LAWS = {g: LAWS[IDS.index(name)] for g, name in
            ((8, "binary-p0.3"), (4, "atoms3"), (2, "atoms5"), (1, "atoms17"))}


def remainders(g):
    """Step counts 1 ... g - 1 mod g, or 1 where every count is whole words."""
    return range(1, g) if g > 1 else [1]


@pytest.mark.parametrize("g", sorted(CUT_LAWS), ids=lambda g: f"g{g}")
class TestCutWords:
    def test_chains_of_every_remainder(self, g):
        # n < g (one cut word), n < STEP_BLOCK (a workspace rounded up to
        # whole words), and whole-word blocks, the last of them full
        # (STEP_BLOCK words) at n = STEP_BLOCK g + r, then a cut word of
        # r steps, in two chunks
        spec = CUT_LAWS[g]
        assert spec.atom_law.g == g
        m = CHAIN_CHUNK + 3
        for r in remainders(g):
            for n in sorted({r, 3 * g + r, STEP_BLOCK + r, STEP_BLOCK * g + r}):
                want = np.concatenate([
                    allocating_chain_chunk(spec, n, width, make_stream(4, k))
                    for k, width in enumerate(chunk_sizes(m, CHAIN_CHUNK))
                ])
                for threads in (1, 2):
                    got = chain_log_norms(spec, n, m, seed=4, threads=threads)
                    assert np.array_equal(got, want), (n, threads)

    def test_segments_of_every_remainder(self, g):
        # segments of m + 2 = r mod g steps: one short chunk, and a full
        # chunk (65 538 steps) followed by a short one
        spec = CUT_LAWS[g]
        for r in remainders(g):
            for n in (3 * g + r - 2, SAMPLE_CHUNK + 2 * g + r - 2):
                events, want = one_pass_reduce(spec, n, 6)
                for threads in (1, 2):
                    got = _reduce(spec, n, 6, threads)
                    assert got[0] == events and np.array_equal(got[1], want), (n, threads)


def test_one_atom_law_has_zero_variance_and_standard_errors():
    # a constant law's terms are all one number, so each segment's, cut
    # from words of 8 steps, centres at it exactly
    spec = DistributionSpec.constant_triple(1e80, 1.0, 1.0)
    for n in (3, 1001, SAMPLE_CHUNK + 5):
        r = estimate_sigma2_mc(spec, n, seed=2, threads=2)
        assert r.lam == spec.atom_law.T[0, 0]
        assert r.sigma2 == 0.0 and r.lam_std_error == 0.0, n
        assert r.sigma2_std_error == 0.0 or (n == 3 and math.isnan(r.sigma2_std_error)), n


class TestCancellation:
    @pytest.mark.parametrize("k", [2, 3, 5, 17])
    def test_minus_inf_inside_a_word_and_across_a_boundary(self, k):
        atoms = [(CANCEL[0], 1 / k), (CANCEL[1], 1 / k)]
        atoms += [((float(i + 3), 1.0, 0.5), 1 / k) for i in range(k - 2)]
        law = DistributionSpec.discrete_atoms(atoms).atom_law
        assert law.T[0, 1] == -math.inf
        for w, digits in enumerate(law.digits.tolist()):
            inside = any(d == (0, 1) for d in zip(digits, digits[1:]))
            assert bool(law.sums[w] == -math.inf) == inside
        for w, row in enumerate(law.gather[: len(law.sums), 0]):  # atom 0, then word w
            across = law.digits[w, 0] == 1
            assert bool(row == -math.inf) == bool(across or law.sums[w] == -math.inf)

    def test_chains_reach_minus_inf_at_word_boundaries(self):
        # chains of whole words of 4 steps: -inf exactly when the pair
        # occurs, at a boundary between words or inside one
        spec = DistributionSpec.discrete_atoms(
            [(CANCEL[0], 0.4), (CANCEL[1], 0.3), ((4.0, 7.0, 9.0), 0.3)]
        )
        n, width = 32, 64
        got = product.chain_log_norms(spec, n, width, seed=2)
        cancel = CANCEL
        where = set()
        for j, ts in enumerate(_chain_triples(spec, n, 2, width)):
            steps = [(t.a, t.b, t.c) for t in ts]
            pairs = [i for i in range(n - 1) if (steps[i], steps[i + 1]) == cancel]
            assert np.isneginf(got[j]) == bool(pairs)
            where.update(i % 4 for i in pairs)
        assert 3 in where and where - {3}  # across a boundary, and inside


def test_word_module_imported_only_by_a_finite_support_draw():
    # the tables' module stays out of parsing a continuous law and of a
    # run on one, Monte Carlo or chain; validating a finite-support law
    # builds its AtomLaw, so the module is loaded before its first draw
    code = (
        "import sys, rmp.cli\n"
        "from rmp.distributions import DistributionSpec, parse_spec\n"
        "from rmp.estimators import estimate_sigma2_mc\n"
        "from rmp.product import chain_log_norms\n"
        "parse_spec('{\"family\": \"CauchyRankOne\"}')\n"
        "parse_spec('{\"family\": \"HillRandom\", \"a\": 0.5, \"b\": 2}')\n"
        "print('rmp.words' in sys.modules)\n"
        "estimate_sigma2_mc(DistributionSpec.cauchy_rank_one(), 1000, seed=0)\n"
        "estimate_sigma2_mc(DistributionSpec.hill_random(0.5, 2.0), 1000, seed=0)\n"
        "chain_log_norms(DistributionSpec.cauchy_rank_one(), 16, 4, 1)\n"
        "chain_log_norms(DistributionSpec.hill_random(0.5, 2.0), 16, 4, 1)\n"
        "print('rmp.words' in sys.modules)\n"
        "spec = parse_spec('{\"family\": \"BinaryHill\", \"alpha\": 2, \"beta\": 3, \"p\": 0.3}')\n"
        "print('rmp.words' in sys.modules)\n"
        "estimate_sigma2_mc(spec, 1000, seed=0)\n"
    )
    src = str(Path(product.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.split() == ["False", "False", "True"]


@pytest.mark.parametrize("spec", WORD_LAWS, ids=WORD_IDS)
def test_validation_builds_every_table_read_only(spec):
    # a fresh spec, drawn from by no one: its AtomLaw already holds the
    # word tables, and every array of it is read-only (threads share it)
    law = dataclasses.replace(spec).atom_law
    tables = {name: arr for name, arr in vars(law).items() if isinstance(arr, np.ndarray)}
    assert set(tables) == {"atoms", "p", "T", "digits", "word_p", "sums",
                           "threshold", "word", "first", "offset", "gather", "steps"}
    assert not any(arr.flags.writeable for arr in tables.values())
