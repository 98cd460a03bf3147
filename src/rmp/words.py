"""A finite-support law, AtomLaw: its atoms, cross terms and words.

A law of k atoms draws words w = (i_1, ..., i_g) of g consecutive atom
indices, g the largest power of two <= 8 with k^g <= 256 (word_length).
A word takes one uniform through Walker's alias table over the k^g
words, with P[w] = p_{i_1} ... p_{i_g}.  T (AtomLaw.T) is the law's
k x k cross-term log table.  One walk reads a block's terms
(AtomLaw._walk): it draws the words and gathers, for each word w after
a word that ends in atom l, row (l, w) of one of two tables:

* ``gather``, one number B[l, w] = T[l, i_1] + S[w], with S[w] =
  T[i_1, i_2] + ... + T[i_{g-1}, i_g] summed left to right, for a
  chain's block of whole words (AtomLaw.block).  Its first word takes
  S[w] alone, as its term from the previous block is the carry that
  product._chain_chunk forms from the triples.  A block of g R steps
  (R <= STEP_BLOCK) thus draws R uniforms and gathers R terms per chain;
* ``steps``, the g terms (T[l, i_1], T[i_1, i_2], ..., T[i_{g-1}, i_g]),
  for every other block: the Monte Carlo segment (AtomLaw.step_rows),
  which needs each step's term, and a chain's final n mod g steps, a
  block of one cut word that AtomLaw.block sums by word.  The last word
  is cut to the block's steps.

At g = 1, S = 0 and both tables are views of T.

The alias table is exact in integers.  gen.random() returns m 2^-53, m
uniform on [0, 2^53), so each of the N slots (k^g padded to a power of
two) holds M = 2^53 / N values of m.  Word w gets c_w = round(P[w] 2^53)
of them, and the rounding slack, 2^53 - sum c_w, goes to the most
probable word; Vose's construction then splits the slots in integer
counts.  A draw takes slot j = floor(u N) and keeps word j if
u < threshold[j], else takes its alias, so word w is drawn with
probability exactly c_w 2^-53.  Padded words, and words whose c_w
rounds to 0, are never drawn.

Validation builds one AtomLaw per finite-support spec
(DistributionSpec.atom_law), and only then imports this module: a
continuous law never loads it.
"""

from __future__ import annotations

import itertools

import numpy as np

from .distributions import cross_terms
from .families import FAMILIES, SpecError

MAX_WORDS = 256
MAX_WORD_LENGTH = 8
UNITS = 1 << 53  # gen.random() returns m * 2^-53, 0 <= m < 2^53


def word_length(k: int) -> int:
    """g: the largest power of two <= 8 with k^g <= 256 (1 for k >= 17)."""
    g = MAX_WORD_LENGTH
    while g > 1 and k**g > MAX_WORDS:
        g //= 2
    return g


class AtomLaw:
    """A finite-support law as read-only arrays, built once per spec.

    Validation builds it and the spec keeps it (DistributionSpec.atom_law),
    so every route and thread shares one instance; every array is
    read-only.  ``atoms`` is the k x 3 table of the triples of the
    family's ``atoms(spec)``, one row (a, b, c) per atom, and ``p`` their
    probabilities exactly as stated (no renormalization).  ``T`` is the
    k x k table T[i, j] = log |a_i + c_i (b_j / a_j)|, -inf on
    cancellation: cross_terms of the atom columns, rows i against columns
    j, so T[i, j] equals the cross term of sampled triples equal to atoms
    i and j bit for bit (k^2 doubles, 8 MiB at k = 1024).  SpecError if
    an entry is +inf or NaN.

    Every draw of the law, sampled triples, Monte Carlo segments and
    chains alike, takes words of ``g`` atoms, k^g words in ``size`` =
    N >= k^g alias slots.  Word w's atoms are its base-k digits, the
    first the most significant (``digits``, k^g x g).  ``word_p`` is the
    float product of the digits' probabilities, left to right, and
    ``sums`` S[w].  ``threshold`` (N) is the alias table, and ``word``
    (2N) the word of key j (slot j's own) and of key j + N (its alias).
    The walk's tables have k k^g rows, row l k^g + w for word w after
    atom l, and ``offset[w]`` = last(w) k^g: ``gather`` (k k^g x 1)
    holds B[l, w], and ``steps`` (k k^g x g) T[l, first(w)], then the
    g - 1 terms inside w.  Both are views of T at g = 1.
    """

    def __init__(self, spec):
        support = FAMILIES[spec.family].atoms(spec)
        self.k = k = len(support)
        self.atoms = np.array([(t.a, t.b, t.c) for t, _ in support])
        self.p = np.array([p for _, p in support])
        a, b, c = self.atoms.T[:, :, None]
        with np.errstate(over="ignore", invalid="ignore"):
            self.T = T = cross_terms((a, b, c), (a.T, b.T, c.T))
        # each of the k^2 ordered atom pairs (i, j) is one possible cross
        # term, evaluated as the kernels evaluate it: +inf (or NaN) in
        # every estimator if it is not finite; -inf is a cancellation
        bad = np.argwhere(~(T < np.inf))
        if bad.size:
            i, j = bad[0]
            (ai, _, ci), (aj, bj, _) = self.atoms[i].tolist(), self.atoms[j].tolist()
            raise SpecError(
                f"cross term a_i + c_i*(b_j/a_j) = {ai!r} + {ci!r}*({bj!r}/{aj!r}) "
                f"of atoms i, j = {i}, {j} is not finite"
            )
        self.g = g = word_length(k)
        # the integer tables come from Python ints: validation, which
        # may be all a process does with the law, then pages in no numpy
        # integer arithmetic (~0.3 MiB of RSS)
        words = list(itertools.product(range(k), repeat=g))
        n_words = len(words)
        self.shift = (n_words - 1).bit_length()
        self.size = size = 1 << self.shift
        self.digits = np.array(words)
        inner = T[self.digits[:, :-1], self.digits[:, 1:]]
        self.word_p = self.p[self.digits[:, 0]]
        self.sums = np.zeros(n_words)
        for i in range(1, g):
            self.word_p = self.word_p * self.p[self.digits[:, i]]
            self.sums += inner[:, i - 1]
        counts = [int(c) for c in np.rint(self.word_p * UNITS)] + [0] * (size - n_words)
        counts[counts.index(max(counts))] += UNITS - sum(counts)
        M = UNITS // size
        accept, alias = _vose(counts, M)
        self.threshold = np.array([(j * M + a) / UNITS for j, a in enumerate(accept)])
        # a padded slot keeps nothing: its own key is never drawn, and
        # names its alias so that every key names a word
        own = [j if a else l for j, (a, l) in enumerate(zip(accept, alias))]
        self.word = np.array(own + alias)
        self.first = self.digits[:, 0]
        self.offset = np.array([w[-1] * n_words for w in words])
        gather = steps = T  # at g = 1 both are T itself
        if g > 1:
            gather = T[:, self.first] + self.sums
            inner = np.broadcast_to(inner, (k, n_words, g - 1))
            steps = np.concatenate([T[:, self.first, None], inner], axis=2)
        self.gather = gather.reshape(k * n_words, 1)
        self.steps = steps.reshape(k * n_words, g)
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    def draw(self, n: int, gen: np.random.Generator, out) -> np.ndarray:
        """n words, one uniform each.

        ``out`` is a triple of float64 buffers, each at least n long: the
        uniforms, the slots (as intp) and the words, returned as an intp
        view of the third, which first holds the slots' thresholds.
        """
        u, slot, word = (buf[:n] for buf in out)
        slot, key = slot.view(np.intp), word.view(np.intp)
        gen.random(out=u)
        # u N is exact and below N: the cast truncates it to the slot
        np.multiply(u, self.size, out=slot, casting="unsafe")
        np.take(self.threshold, slot, out=word, mode="clip")
        np.greater_equal(u, word, out=key)
        np.left_shift(key, self.shift, out=key)
        np.add(key, slot, out=key)
        # take reads each key before it writes that entry, so the words may
        # overwrite the keys; mode="clip" writes out directly
        return np.take(self.word, key, out=key, mode="clip")

    def step_atoms(self, n: int, width: int, gen, out) -> np.ndarray:
        """Atom indices of n steps of ``width`` chains, n x width, step-major.

        Draws ceil(n / g) words per chain into ``out`` (draw), decodes
        each into its g atoms, word r of a chain at steps r g to
        r g + g - 1, and cuts the last word to n.
        """
        words = self.draw(-(-n // self.g) * width, gen, out).reshape(-1, width)
        return self.digits[words].transpose(0, 2, 1).reshape(-1, width)[:n]

    def block(self, n: int, width: int, gen, workspace):
        """The grouped block step of n steps of ``width`` chains.

        Returns the (a, b, c) rows of the first and the last step and
        rows whose column sums are those of the block's (n - 1) x width
        cross terms.  A block of whole words walks ``gather`` (_walk), one
        row per word, and puts S of each chain's first word in row 0.  A
        block that is not, which only a chain's final run of fewer than g
        steps is, gathers its cut word's step terms (_step_terms) and
        sums them into the spent first buffer.
        """
        if n % self.g:
            first, last, terms = self._step_terms(n, width, gen, workspace)
            rows = workspace[0][: terms.shape[0] * width].reshape(-1, width)
            return first, last, np.sum(terms, axis=2, out=rows)
        words, first, last, terms = self._walk(n, width, gen, workspace, self.gather)
        terms = terms.reshape(-1, width)
        np.take(self.sums, words[0], out=terms[0], mode="clip")
        return first, last, terms

    def step_rows(self, n: int, width: int, gen, workspace):
        """The ungrouped block step of n steps of ``width`` chains.

        Returns the (a, b, c) rows of the first and the last step and
        the block's (n - 1) x width cross terms, step-major (_step_terms):
        a view of the third buffer at width 1.
        """
        first, last, terms = self._step_terms(n, width, gen, workspace)
        return first, last, terms.transpose(0, 2, 1).reshape(-1, width)[1:n]

    def _step_terms(self, n: int, width: int, gen, workspace):
        """n steps of ``width`` chains: slot i of word r of the walk over
        ``steps`` holds the term into step r g + i, and 0 if there is none
        (the first word's first slot and the slots past step n - 1).
        """
        _, first, last, terms = self._walk(n, width, gen, workspace, self.steps)
        terms[0, :, 0] = 0.0
        terms[-1, :, (n - 1) % self.g + 1 :] = 0.0
        return first, last, terms

    def _walk(self, n: int, width: int, gen, workspace, table):
        """Draw R = ceil(n / g) words per chain and gather their rows of
        ``table`` (``gather`` or ``steps``) in one take.

        Word r's row is offset[w_{r-1}] + w_r, and the first word's w_0.
        The uniforms, then these positions, fill the first buffer, the
        words the second and the R x width x columns rows the third.
        Returns the words (R x width), the (a, b, c) rows of the first
        step and of step n - 1, and the rows.
        """
        R = -(-n // self.g)
        u_buf, word_buf, row_buf = workspace
        words = self.draw(R * width, gen, (u_buf, row_buf, word_buf)).reshape(R, width)
        pos = u_buf[: R * width].view(np.intp).reshape(R, width)
        np.take(self.offset, words[:-1], out=pos[1:], mode="clip")
        np.add(pos[1:], words[1:], out=pos[1:])
        pos[0] = words[0]
        rows = row_buf[: R * width * table.shape[1]].reshape(R, width, -1)
        np.take(table, pos, axis=0, out=rows, mode="clip")
        first, last = self.first[words[0]], self.digits[words[-1], (n - 1) % self.g]
        return words, self.atoms[first].T, self.atoms[last].T, rows


def _vose(counts, capacity):
    """Vose's alias table of integer ``counts`` summing to len * capacity.

    Returns (accept, alias): slot j keeps word j for accept[j] of its
    ``capacity`` values and gives the rest to word alias[j].  Exact, as
    every count is an integer: the slots left over hold ``capacity``.
    """
    counts = list(counts)
    accept, alias = [capacity] * len(counts), list(range(len(counts)))
    small = [j for j, c in enumerate(counts) if c < capacity]
    large = [j for j, c in enumerate(counts) if c >= capacity]
    while small and large:
        s, l = small.pop(), large[-1]
        accept[s], alias[s] = counts[s], l
        counts[l] -= capacity - counts[s]
        if counts[l] < capacity:
            small.append(large.pop())
    return accept, alias
