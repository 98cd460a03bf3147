"""Words of g consecutive atoms: every finite-support law draws g steps at once.

A law of k atoms draws words w = (i_1, ..., i_g) of g consecutive atom
indices, g the largest power of two <= 8 with k^g <= 256 (word_length).
A word takes one uniform through Walker's alias table over the k^g
words, with P[w] = p_{i_1} ... p_{i_g}.  T is the law's k x k
cross-term log table (AtomLaw.log_cross) and l the last atom of the
word before.  Two gathers read a word's terms:

* a chain's block of whole words (WordTable.block, product.block_step
  grouped) gathers one number per word, B[l, w] = T[l, i_1] + S[w],
  with S[w] = T[i_1, i_2] + ... + T[i_{g-1}, i_g] summed left to right;
  its first word gathers S[w] alone, as its term from the previous block
  is the carry that product._chain_chunk forms from the triples.  A
  block of g R steps (R <= STEP_BLOCK) thus draws R uniforms and gathers
  R terms per chain;
* every other block (WordTable.step_terms): the Monte Carlo segment,
  which needs each step's term, and a chain's final n mod g steps, a
  block of one cut word.  It gathers the g terms of each word, the row
  (T[l, i_1], T[i_1, i_2], ..., T[i_{g-1}, i_g]) of ``steps``, and cuts
  the last word to the block's steps.

At g = 1, S = 0 and both tables are T itself.

The alias table is exact in integers.  gen.random() returns m 2^-53, m
uniform on [0, 2^53), so each of the N slots (k^g padded to a power of
two) holds M = 2^53 / N values of m.  Word w gets c_w = round(P[w] 2^53)
of them, and the rounding slack, 2^53 - sum c_w, goes to the most
probable word; Vose's construction then splits the slots in integer
counts.  A draw takes slot j = floor(u N) and keeps word j if
u < threshold[j], else takes its alias, so word w is drawn with
probability exactly c_w 2^-53.  Padded words, and words whose c_w
rounds to 0, are never drawn.

The tables are built once per law (AtomLaw.words), and this module is
imported only by the first finite-support draw of a run: a continuous
law never loads it.
"""

from __future__ import annotations

import numpy as np

MAX_WORDS = 256
MAX_WORD_LENGTH = 8
UNITS = 1 << 53  # gen.random() returns m * 2^-53, 0 <= m < 2^53


def word_length(k: int) -> int:
    """g: the largest power of two <= 8 with k^g <= 256 (1 for k >= 17)."""
    g = MAX_WORD_LENGTH
    while g > 1 and k**g > MAX_WORDS:
        g //= 2
    return g


class WordTable:
    """The words of an AtomLaw: their alias table and gather tables.

    ``g`` atoms per word, k^g words and ``size`` = N >= k^g alias slots.
    Word w's atoms are its base-k digits, the first the most significant
    (``digits``, k^g x g).  ``p`` is the float product of the digits'
    probabilities, left to right, and ``sums`` S[w].  ``threshold`` (N)
    is the alias table, and ``word`` (2N) the word of key j (slot j's
    own) and of key j + N (its alias).  ``gather`` is B, k x k^g, which
    is T itself at g = 1 (S = 0), and ``offset[w]`` the start of row
    last(w) in it.  ``steps`` holds the step terms, k k^g x g: row
    l k^g + w (the same position offset + w) is T[l, first(w)], then the
    g - 1 terms inside w; a view of T at g = 1.  Every array is
    read-only: the table is shared by threads.
    """

    def __init__(self, law):
        k, g = law.k, word_length(law.k)
        self.g, self.atoms = g, law.atoms
        n_words = k**g
        self.shift = (n_words - 1).bit_length()
        self.size = size = 1 << self.shift
        w = np.arange(n_words)
        self.digits = np.stack([w // k ** (g - 1 - i) % k for i in range(g)], axis=1)
        T = law.log_cross()
        inner = T[self.digits[:, :-1], self.digits[:, 1:]]
        self.p = law.p[self.digits[:, 0]]
        self.sums = np.zeros(n_words)
        for i in range(1, g):
            self.p = self.p * law.p[self.digits[:, i]]
            self.sums += inner[:, i - 1]
        counts = [int(c) for c in np.rint(self.p * UNITS)] + [0] * (size - n_words)
        counts[counts.index(max(counts))] += UNITS - sum(counts)
        accept, alias = _vose(counts, UNITS // size)
        self.threshold = (np.arange(size) * (UNITS // size) + accept) / UNITS
        # a padded slot keeps nothing: its own key is never drawn, and
        # names its alias so that every key names a word
        self.word = np.concatenate([np.where(accept > 0, np.arange(size), alias), alias])
        self.first, last = self.digits[:, 0], self.digits[:, -1]
        self.offset = last * n_words
        self.gather = T if g == 1 else T[:, self.first] + self.sums
        steps = T  # at g = 1 the rows are T itself
        if g > 1:
            inner = np.broadcast_to(inner, (k, n_words, g - 1))
            steps = np.concatenate([T[:, self.first, None], inner], axis=2)
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

    def block(self, rows: int, width: int, gen, workspace):
        """The block step of rows * g steps of ``width`` chains.

        Returns the (a, b, c) rows of the first and the last step and the
        rows x width terms: S of each chain's first word, then B[l, w] of
        each later one, in the third buffer.  The words land in the
        second, and the first holds the uniforms, then the gather
        positions.
        """
        n = rows * width
        u_buf, word_buf, term_buf = workspace
        words = self.draw(n, gen, (u_buf, term_buf, word_buf)).reshape(rows, width)
        terms = term_buf[:n].reshape(rows, width)
        pos = u_buf[: n - width].view(np.intp).reshape(rows - 1, width)
        np.take(self.offset, words[:-1], out=pos, mode="clip")
        np.add(pos, words[1:], out=pos)
        np.take(self.gather, pos, out=terms[1:], mode="clip")
        np.take(self.sums, words[0], out=terms[0], mode="clip")
        first, last = self.first[words[0]], self.digits[words[-1], -1]
        return self.atoms[first].T, self.atoms[last].T, terms

    def step_terms(self, n: int, width: int, gen, workspace):
        """The block step of n steps of ``width`` chains, one term per step.

        Draws R = ceil(n / g) words per chain and gathers the g terms of
        each (``steps``) in one take, word r after word r - 1 at the
        positions that ``block`` uses, and the first at its row l = 0.
        Returns the (a, b, c) rows of the first and the last step and the
        R x width x g terms in the third buffer: slot i of word r holds
        the term into step r g + i.  The first word's first slot and the
        last word's slots past step n - 1 are no term and hold 0.  The
        words land in the second buffer and the first holds the uniforms,
        then the gather positions; each buffer needs R g width entries.
        """
        g = self.g
        R = -(-n // g)
        u_buf, word_buf, term_buf = workspace
        words = self.draw(R * width, gen, (u_buf, term_buf, word_buf)).reshape(R, width)
        pos = u_buf[: R * width].view(np.intp).reshape(R, width)
        np.take(self.offset, words[:-1], out=pos[1:], mode="clip")
        np.add(pos[1:], words[1:], out=pos[1:])
        pos[0] = words[0]
        terms = term_buf[: R * width * g].reshape(R, width, g)
        np.take(self.steps, pos, axis=0, out=terms, mode="clip")
        cut = n - (R - 1) * g  # steps of the last word
        terms[0, :, 0] = 0.0
        terms[-1, :, cut:] = 0.0
        first, last = self.first[words[0]], self.digits[words[-1], cut - 1]
        return self.atoms[first].T, self.atoms[last].T, terms

    def atom_indices(self, words: np.ndarray) -> np.ndarray:
        """Atom indices of the steps of a rows x width array of words:
        (rows * g) x width, step-major, word r of a chain at rows r g to
        r g + g - 1."""
        rows, width = words.shape
        return self.digits[words].transpose(0, 2, 1).reshape(rows * self.g, width)


def _vose(counts, capacity):
    """Vose's alias table of integer ``counts`` summing to len * capacity.

    Returns (accept, alias): slot j keeps word j for accept[j] of its
    ``capacity`` values and gives the rest to word alias[j].  Exact, as
    every count is an integer: the slots left over hold ``capacity``.
    """
    counts = list(counts)
    accept = np.full(len(counts), capacity, dtype=np.int64)
    alias = np.arange(len(counts))
    small = [j for j, c in enumerate(counts) if c < capacity]
    large = [j for j, c in enumerate(counts) if c >= capacity]
    while small and large:
        s, l = small.pop(), large[-1]
        accept[s], alias[s] = counts[s], l
        counts[l] -= capacity - counts[s]
        if counts[l] < capacity:
            small.append(large.pop())
    return accept, alias
