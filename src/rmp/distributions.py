"""Joint laws of the entry triple (a, b, c) of a singular 2x2 random matrix.

A triple (a, b, c) with a != 0 determines the rank-one matrix
[[a, b], [c, c*(b/a)]].  The built-in families are:

* rank-one matrices [[x, x], [y, y]] with uniform, exponential, or
  standard-Cauchy entries ((a, b, c) = (x, x, y)),
* two-point "binary" multipliers x mapped to [[x, 1/x], [1, 1/x^2]],
* random Hill-type matrices [[1, x], [1/x, 1]],
* arbitrary finite atom lists and constant triples.

Specs are immutable and validated on construction.  Sampling draws from
SFC64 streams, one per (seed, chunk) key hashed through a SeedSequence
(make_stream), so (seed, chunk) pairs give reproducible, independent
substreams.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

BINARY_HILL = "BinaryHill"
UNIFORM_RANK_ONE = "UniformRankOne"
EXPONENTIAL_RANK_ONE = "ExponentialRankOne"
CAUCHY_RANK_ONE = "CauchyRankOne"
HILL_RANDOM = "HillRandom"
DISCRETE_ATOMS = "DiscreteAtoms"
CONSTANT_TRIPLE = "ConstantTriple"

FAMILIES = (
    BINARY_HILL,
    UNIFORM_RANK_ONE,
    EXPONENTIAL_RANK_ONE,
    CAUCHY_RANK_ONE,
    HILL_RANDOM,
    DISCRETE_ATOMS,
    CONSTANT_TRIPLE,
)

# families whose matrices have the rank-one form [[x, x], [y, y]]
RANK_ONE_FAMILIES = (UNIFORM_RANK_ONE, EXPONENTIAL_RANK_ONE, CAUCHY_RANK_ONE)

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_ATOM_SUM_TOL = 1e-12
# largest finite support: every route on it holds the k x k cross-term
# table, 8 MiB at k = 1024
MAX_ATOMS = 1024


class SpecError(ValueError):
    """Malformed or invalid distribution document."""


class NotDiscreteError(ValueError):
    """Finite-support enumeration requested for a continuous family."""


@dataclass(frozen=True)
class EntryTriple:
    """One draw (a, b, c); the matrix it generates is [[a, b], [c, c*(b/a)]].

    a must be nonzero, and the head ratio b/a and the entry c*(b/a), both
    evaluated in double precision, must be finite.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise SpecError(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise SpecError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.a == 0.0:
            raise SpecError("a must be nonzero")
        # the kernels form b/a and c*(b/a) in double precision, in this order
        if not math.isfinite(self.b / self.a):
            raise SpecError(f"head ratio b/a = {self.b!r}/{self.a!r} is not finite")
        if not math.isfinite(self.c * (self.b / self.a)):
            raise SpecError(
                f"matrix entry c*(b/a) = {self.c!r}*({self.b!r}/{self.a!r}) is not finite"
            )


def cross_terms(t1, t2, out=None, ratio=None) -> np.ndarray:
    """log |a_1 + c_1 (b_2 / a_2)| of two triple batches; -inf on cancellation.

    t1, t2 are (a, b, c) arrays that broadcast (t1's b and t2's c are not
    read).  Every vectorised path forms its cross terms here, by numpy's
    divide, multiply, add, abs and log in this order, so they agree bit
    for bit.  The head ratio b_2/a_2 comes first: it is exactly 1 for a
    rank-one law, whose term is then log |a_1 + c_1| with no overflow
    beyond that sum.  ``out`` may be c_1 itself, and ``ratio``, a buffer
    for b_2/a_2, may be b_2 itself, but not c_1: c_1 is read after the
    ratio is written.  Each one left out is allocated.
    """
    a1, _, c1 = t1
    a2, b2, _ = t2
    ratio = np.divide(b2, a2, out=ratio)
    out = np.multiply(c1, ratio, out=out)
    return log_abs_sum(a1, out, out=out)


def log_abs_sum(x, y, out=None) -> np.ndarray:
    """log |x + y| by numpy's add, abs and log; -inf where x + y = 0.

    The last three steps of cross_terms.  ``out`` may be x or y.
    """
    out = np.add(x, y, out=out)
    np.abs(out, out=out)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    return out


def make_stream(seed: int, chunk: int = 0) -> np.random.Generator:
    """SFC64 random stream for (seed, chunk).

    The stream is keyed by a SeedSequence of four uint32 words: the low
    and high halves of seed, then of chunk, each taken mod 2^64.  The
    fixed word count makes the key injective.  A SeedSequence of the two
    ints would split each into as many words as it needs and pad the
    pool with zeros, so (5 + 7 * 2^32, 0) and (5, 7) would share a
    stream.  SeedSequence hashes distinct keys to unrelated SFC64 states
    (each stream has period at least 2^64), so substreams are
    statistically independent, and chunked runs are deterministic for a
    given seed and chunk layout regardless of how chunks are scheduled.
    """
    seed, chunk = seed & _MASK64, chunk & _MASK64
    words = np.array(
        [seed & _MASK32, seed >> 32, chunk & _MASK32, chunk >> 32], dtype=np.uint32
    )
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


@dataclass(frozen=True)
class DistributionSpec:
    """Validated description of the joint law of (a, b, c).

    Field names mirror the JSON configuration grammar; only the fields
    relevant to ``family`` may be set.  Instances are immutable and
    safe to share across threads.
    """

    # the AtomLaw of a finite-support law, set once by validation; not a
    # field, so eq, hash and repr ignore it
    _atom_law = None

    family: str
    alpha: float | None = None
    beta: float | None = None
    p: float | None = None
    a: float | None = None
    b: float | None = None
    theta: float | None = None
    value: EntryTriple | None = None
    atoms: tuple[tuple[EntryTriple, float], ...] | None = field(default=None)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecError(
                f"family must be one of {', '.join(FAMILIES)}; got {self.family!r}"
            )
        if self.atoms is not None:
            object.__setattr__(self, "atoms", tuple(tuple(at) for at in self.atoms))
        _VALIDATORS[self.family](self)
        # normalize validated numerics so JSON integers behave like reals
        for name in ("alpha", "beta", "p", "a", "b", "theta"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, float(v))
        if self.atoms is not None:
            object.__setattr__(
                self, "atoms", tuple((t, float(p)) for t, p in self.atoms)
            )
        if self.is_discrete:
            object.__setattr__(self, "_atom_law", _validate_cross_terms(self))
        allowed = _FIELDS[self.family]
        for name in ("alpha", "beta", "p", "a", "b", "theta", "value", "atoms"):
            if name not in allowed and getattr(self, name) is not None:
                raise SpecError(f"{name} is not a parameter of {self.family}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def binary_hill(cls, alpha: float, beta: float, p: float) -> "DistributionSpec":
        return cls(family=BINARY_HILL, alpha=alpha, beta=beta, p=p)

    @classmethod
    def uniform_rank_one(cls, a: float, b: float) -> "DistributionSpec":
        return cls(family=UNIFORM_RANK_ONE, a=a, b=b)

    @classmethod
    def exponential_rank_one(cls, theta: float) -> "DistributionSpec":
        return cls(family=EXPONENTIAL_RANK_ONE, theta=theta)

    @classmethod
    def cauchy_rank_one(cls) -> "DistributionSpec":
        return cls(family=CAUCHY_RANK_ONE)

    @classmethod
    def hill_random(cls, a: float, b: float) -> "DistributionSpec":
        return cls(family=HILL_RANDOM, a=a, b=b)

    @classmethod
    def constant_triple(cls, a: float, b: float, c: float) -> "DistributionSpec":
        return cls(family=CONSTANT_TRIPLE, value=EntryTriple(a, b, c))

    @classmethod
    def discrete_atoms(cls, atoms) -> "DistributionSpec":
        atoms = tuple(
            (t if isinstance(t, EntryTriple) else EntryTriple(*t), float(p))
            for t, p in atoms
        )
        return cls(family=DISCRETE_ATOMS, atoms=atoms)

    @property
    def is_discrete(self) -> bool:
        return self.family in (BINARY_HILL, DISCRETE_ATOMS, CONSTANT_TRIPLE)

    @property
    def is_rank_one(self) -> bool:
        return self.family in RANK_ONE_FAMILIES

    @property
    def atom_law(self) -> "AtomLaw":
        """The AtomLaw that validation built, shared by every route.

        Raises NotDiscreteError for continuous families.
        """
        if self._atom_law is None:
            raise NotDiscreteError(
                f"{self.family} is not discrete; finite support unavailable"
            )
        return self._atom_law


# -- validation ----------------------------------------------------------

_FIELDS = {
    BINARY_HILL: ("alpha", "beta", "p"),
    UNIFORM_RANK_ONE: ("a", "b"),
    EXPONENTIAL_RANK_ONE: ("theta",),
    CAUCHY_RANK_ONE: (),
    HILL_RANDOM: ("a", "b"),
    DISCRETE_ATOMS: ("atoms",),
    CONSTANT_TRIPLE: ("value",),
}


def _need(spec, name) -> float:
    v = getattr(spec, name)
    if v is None:
        raise SpecError(f"{spec.family} requires field {name!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecError(f"{name} must be a real number, got {v!r}")
    if not math.isfinite(v):
        raise SpecError(f"{name} must be finite, got {v!r}")
    return float(v)


def _validate_binary(spec):
    alpha = _need(spec, "alpha")
    beta = _need(spec, "beta")
    p = _need(spec, "p")
    for name, x in (("alpha", alpha), ("beta", beta)):
        if x == 0.0:
            raise SpecError(f"{name} must be nonzero")
        if x == -1.0:
            raise SpecError(f"{name} must not be -1 (the log term degenerates)")
        # b/a and c*(b/a) of the atom (x, 1/x, 1)
        if not math.isfinite(1.0 / x / x):
            raise SpecError(f"{name} = {x!r} is too small: 1/{name}^2 is not finite")
    # squares by multiplication, since float ** raises OverflowError
    if alpha * (beta * beta) + 1.0 == 0.0 or (alpha * alpha) * beta + 1.0 == 0.0:
        raise SpecError(
            "alpha, beta must satisfy (alpha*beta^2+1)*(alpha^2*beta+1) != 0"
        )
    if not 0.0 <= p <= 1.0:
        raise SpecError(f"p must lie in [0, 1], got {p}")


# A rank-one cross term is log |x + y| of two draws; if neither exceeds
# DBL_MAX/2 = 2^1023 - 2^970 in magnitude, |x + y| <= DBL_MAX is finite.
_HALF_MAX = sys.float_info.max / 2
# S / DBL_MAX, with S = 73.4736011393542 the largest Exp(1) sum draw: -log p
# at p = (1 - u_1)(1 - u_2) = 2^-106 as numpy evaluates it (106 log 2).  S is
# also 2 m, m = -log1p(-u) at u = 1 - 2^-53 the largest single Exp(1) draw,
# so the bound covers x + y of a drawn pair too; the tests pin both
_EXP_MIN_THETA = 2.0 * 36.7368005696771 / sys.float_info.max


def _validate_uniform(spec):
    a = _need(spec, "a")
    b = _need(spec, "b")
    # entries live on [-a, b]; a,b are the endpoint magnitudes
    if a < 0.0:
        raise SpecError(f"a must be >= 0 (interval is [-a, b]), got {a}")
    if b < 0.0:
        raise SpecError(f"b must be >= 0 (interval is [-a, b]), got {b}")
    if a + b == 0.0:
        raise SpecError("interval [-a, b] is degenerate; need a + b > 0")
    # A draw x = fl(-a + fl(W u)), W = fl(a + b), 0 <= u <= 1 - 2^-53, lies in
    # [-a, b]: for a normal W, fl(W u) <= pred(W) < a + b, as W is the double
    # nearest a + b (a subnormal W adds exactly).  Tight for a: a = 2^1023
    # draws -2^1023 at u = 0.  One double short for b: b = 2^1023 draws at
    # most DBL_MAX/2, and the double after it draws 2^1023 (a = 0).
    if max(a, b) > _HALF_MAX:
        raise SpecError(
            f"interval [-a, b] too wide: a + b or x + y of two draws can overflow; "
            f"need max(a, b) <= DBL_MAX/2, got a = {a!r}, b = {b!r}"
        )


def _validate_exponential(spec):
    theta = _need(spec, "theta")
    if theta <= 0.0:
        raise SpecError(f"theta must be > 0, got {theta}")
    # A sum draw is fl(log p / -theta) <= fl(S / theta), and a single draw
    # fl(-log1p(-u) / theta) <= fl(m / theta) with S = 2 m.  S / DBL_MAX
    # (about 4.0871e-307) rounds up, so theta >= _EXP_MIN_THETA gives
    # S / theta <= DBL_MAX and m / theta <= DBL_MAX/2.  Tight: one double
    # below, S / theta overflows, and m / theta rounds to 2^1023.
    if theta < _EXP_MIN_THETA:
        raise SpecError(
            f"theta = {theta!r} too small: x + y of two draws can overflow; "
            f"need theta >= {_EXP_MIN_THETA!r}"
        )


def _validate_cauchy(spec):
    pass


def _validate_hill(spec):
    a = _need(spec, "a")
    b = _need(spec, "b")
    if not a < b:
        raise SpecError(f"need a < b for the multiplier support [a, b], got [{a}, {b}]")
    if not math.isfinite(b - a):
        raise SpecError(f"support [a, b] is too wide: b - a = {b!r} - {a!r} overflows")


def _validate_constant(spec):
    if spec.value is None:
        raise SpecError("ConstantTriple requires field 'value'")
    if not isinstance(spec.value, EntryTriple):
        raise SpecError("value must be an EntryTriple")


def _validate_atoms(spec):
    if spec.atoms is None or len(spec.atoms) == 0:
        raise SpecError("DiscreteAtoms requires a nonempty 'atoms' list")
    if len(spec.atoms) > MAX_ATOMS:
        raise SpecError(f"too many atoms: {len(spec.atoms)} > {MAX_ATOMS}")
    total = 0.0
    for i, pair in enumerate(spec.atoms):
        if len(pair) != 2:
            raise SpecError(f"atoms[{i}] must be a (triple, probability) pair")
        t, p = pair
        if not isinstance(t, EntryTriple):
            raise SpecError(f"atoms[{i}]: first element must be an EntryTriple")
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not math.isfinite(p):
            raise SpecError(f"atoms[{i}]: probability must be a finite real, got {p!r}")
        if p <= 0.0:
            raise SpecError(f"atoms[{i}]: probability must be strictly positive, got {p}")
        total += p
    if abs(total - 1.0) > _ATOM_SUM_TOL:
        raise SpecError(f"atom probabilities must sum to 1, got {total!r}")


def _validate_cross_terms(spec) -> "AtomLaw":
    """The law's AtomLaw, or SpecError if an atom pair's cross term overflows.

    Each of the k^2 ordered atom pairs (i, j) is one possible cross term
    a_i + c_i (b_j / a_j), evaluated as the kernels evaluate it.  If one is
    not finite, its log would be +inf (or NaN) in every estimator.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        law = AtomLaw(spec)
    T = law.log_cross()
    bad = np.argwhere(~(T < np.inf))  # +inf or NaN; -inf is a cancellation
    if bad.size:
        i, j = bad[0]
        (ai, _, ci), (aj, bj, _) = law.atoms[i].tolist(), law.atoms[j].tolist()
        raise SpecError(
            f"cross term a_i + c_i*(b_j/a_j) = {ai!r} + {ci!r}*({bj!r}/{aj!r}) "
            f"of atoms i, j = {i}, {j} is not finite"
        )
    return law


_VALIDATORS = {
    BINARY_HILL: _validate_binary,
    UNIFORM_RANK_ONE: _validate_uniform,
    EXPONENTIAL_RANK_ONE: _validate_exponential,
    CAUCHY_RANK_ONE: _validate_cauchy,
    HILL_RANDOM: _validate_hill,
    DISCRETE_ATOMS: _validate_atoms,
    CONSTANT_TRIPLE: _validate_constant,
}


# -- parsing -------------------------------------------------------------

def parse_spec(text: str) -> DistributionSpec:
    """Parse a JSON configuration document into a validated spec.

    The document is an object with a "family" string plus the fields of
    that family, e.g. ``{"family": "BinaryHill", "alpha": 2, "beta": 3,
    "p": 0.5}``.  Raises SpecError naming the offending field.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"malformed JSON: {e}") from e
    if not isinstance(obj, dict):
        raise SpecError("document must be a JSON object")
    if "family" not in obj:
        raise SpecError("missing required field 'family'")
    family = obj["family"]
    if family not in FAMILIES:
        raise SpecError(f"family must be one of {', '.join(FAMILIES)}; got {family!r}")
    extra = set(obj) - {"family"} - set(_FIELDS[family])
    if extra:
        raise SpecError(f"unknown field(s) for {family}: {', '.join(sorted(extra))}")

    kwargs = {}
    for name in _FIELDS[family]:
        if name not in obj:
            continue
        raw = obj[name]
        if name == "value":
            kwargs[name] = _parse_triple(raw, "value")
        elif name == "atoms":
            kwargs[name] = _parse_atoms(raw)
        else:
            kwargs[name] = raw
    return DistributionSpec(family=family, **kwargs)


def _parse_triple(raw, where: str) -> EntryTriple:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise SpecError(f"{where} must be a list [a, b, c] of three reals")
    try:
        return EntryTriple(*raw)
    except SpecError as e:
        raise SpecError(f"{where}: {e}") from e


def _parse_atoms(raw):
    if not isinstance(raw, list) or not raw:
        raise SpecError("atoms must be a nonempty list of [[a, b, c], p] pairs")
    out = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SpecError(f"atoms[{i}] must be a [[a, b, c], p] pair")
        triple = _parse_triple(pair[0], f"atoms[{i}]")
        out.append((triple, pair[1]))
    return tuple(out)


def load_spec(path: str) -> DistributionSpec:
    with open(path, "r", encoding="utf-8") as f:
        return parse_spec(f.read())


# -- sampling ------------------------------------------------------------

def sample_triples(spec: DistributionSpec, n: int, gen: np.random.Generator, out=None):
    """Draw n i.i.d. triples; returns float64 arrays (a, b, c) of length n.

    The stream is consumed in a fixed per-family order, so identical
    (spec, stream state) give identical arrays.  Components that must be
    nonzero are resampled on the measure-zero event of an exact 0.0.

    A finite-support law draws atom indices with AtomLaw.indices and
    gathers its atoms: n uniforms u, and atom #{j : cum[j] <= u} of the
    cumulative probabilities cum, where the last atom absorbs the
    rounding slack of cum (cum[-1] is raised to 1 if it fell below).  A
    law with a single atom draws nothing.

    ``out`` is an optional triple of float64 buffers, each at least n
    long.  Their first n entries are overwritten and the returned arrays
    are views of those prefixes, so they alias the buffers and are only
    valid until the buffers are written again.  Without ``out`` fresh
    buffers are allocated; the draws are the same either way.  For the
    rank-one families b is a itself, and the second buffer is untouched.
    """
    if out is None:
        out = (np.empty(n), np.empty(n), np.empty(n))
    a, b, c = (buf[:n] for buf in out)
    f = spec.family
    if spec.is_discrete:
        law = spec.atom_law
        idx = law.indices(n, gen, out=(c, np.empty(n, np.intp), b))
        # idx < k; mode="clip" writes out directly, where the default
        # mode="raise" buffers a copy
        for j, buf in enumerate((a, b, c)):
            np.take(law.atoms[:, j], idx, out=buf, mode="clip")
        return (a, b, c)
    if f == UNIFORM_RANK_ONE:
        return _rank_one(_uniform(gen, -spec.a, spec.b), a, c)
    if f == EXPONENTIAL_RANK_ONE:
        return _rank_one(_exponential(gen, spec.theta), a, c)
    if f == CAUCHY_RANK_ONE:
        return _rank_one(cauchy_draw(gen), a, c)
    if f == HILL_RANDOM:
        fill_nonzero(_uniform(gen, spec.a, spec.b), b)
        a.fill(1.0)
        np.divide(1.0, b, out=c)
        return (a, b, c)
    raise AssertionError(f"unhandled family {f}")


def _rank_one(draw, x, y):
    """(x, x, y) of the matrix [[x, x], [y, y]]; x is drawn first."""
    fill_nonzero(draw, x)
    return (x, x, draw(y))


# Each maker returns draw(x), which fills x in place from the stream and
# returns it.  The docstrings give the formula; the in-place steps keep
# its operation order, so the values are bitwise those of the formula.

def _uniform(gen, lo, hi):
    """lo + (hi - lo) * u, which is exactly gen.uniform(lo, hi)."""
    width = hi - lo

    def draw(x):
        gen.random(out=x)
        x *= width
        x += lo
        return x

    return draw


def _exponential(gen, theta):
    """-log1p(-u) / theta, as log1p(-u) / -theta.

    IEEE division is sign-symmetric, so negating the divisor instead of
    the dividend gives the same bits, signed zeros included, in one pass
    fewer.
    """
    divisor = -theta

    def draw(x):
        gen.random(out=x)
        np.negative(x, out=x)
        np.log1p(x, out=x)
        np.divide(x, divisor, out=x)
        return x

    return draw


def cauchy_draw(gen):
    """tan(pi * (u - 0.5))."""

    def draw(x):
        gen.random(out=x)
        np.subtract(x, 0.5, out=x)
        np.multiply(x, np.pi, out=x)
        np.tan(x, out=x)
        return x

    return draw


def fill_nonzero(draw, x: np.ndarray) -> np.ndarray:
    """Fill x by draw(x), then redraw its exact zeros until none is left.

    x.all() is the allocation-free check of the common path; gen.random
    can return exactly 0.0, so the redraw loop is reachable.
    """
    draw(x)
    while not x.all():
        mask = x == 0.0
        x[mask] = draw(np.empty(np.count_nonzero(mask)))
    return x


def enumerate_atoms(spec: DistributionSpec):
    """Finite support of a discrete spec as [(EntryTriple, probability)].

    Probabilities are returned exactly as stated (no renormalization);
    zero-probability branches of a degenerate BinaryHill are dropped.
    Raises NotDiscreteError for continuous families.
    """
    f = spec.family
    if f == CONSTANT_TRIPLE:
        return [(spec.value, 1.0)]
    if f == BINARY_HILL:
        out = []
        if spec.p > 0.0:
            out.append((EntryTriple(spec.alpha, 1.0 / spec.alpha, 1.0), spec.p))
        if spec.p < 1.0:
            out.append((EntryTriple(spec.beta, 1.0 / spec.beta, 1.0), 1.0 - spec.p))
        return out
    if f == DISCRETE_ATOMS:
        return list(spec.atoms)
    raise NotDiscreteError(f"{f} is not discrete; finite support unavailable")


# -- finite-support laws -------------------------------------------------

class AtomLaw:
    """A finite-support law as read-only arrays, built once per spec.

    Validation builds it and the spec keeps it (DistributionSpec.atom_law),
    so every route and thread shares one instance.  ``atoms`` is the
    k x 3 table of the triples of enumerate_atoms(spec), one row (a, b, c)
    per atom, and ``p`` their probabilities as stated.  ``cum`` holds the
    cumulative probabilities, the last raised to 1 if rounding left it
    below, padded with +inf to a power-of-two length for index_search.
    The cross term of atom i followed by atom j is one of k^2 numbers,
    kept in a table built here; ``cross`` gathers from it, so callers
    never see its layout.
    """

    def __init__(self, spec: DistributionSpec):
        support = enumerate_atoms(spec)
        self.k = len(support)
        self.atoms = np.array([(t.a, t.b, t.c) for t, _ in support])
        self.p = np.array([p for _, p in support])
        cum = np.cumsum(self.p)
        cum[-1] = max(cum[-1], 1.0)
        size = 1 << (self.k - 1).bit_length()  # smallest power of two >= k
        self.cum = np.concatenate([cum, np.full(size - self.k, np.inf)])
        a, b, c = self.atoms.T[:, :, None]
        self._table = cross_terms((a, b, c), (a.T, b.T, c.T))
        for arr in (self.atoms, self.p, self.cum, self._table):
            arr.flags.writeable = False

    def log_cross(self) -> np.ndarray:
        """k x k table T[i, j] = log |a_i + c_i (b_j / a_j)|; -inf on cancellation.

        cross_terms of the atom columns, broadcast as rows i against
        columns j, so T[i, j] equals the cross term of sampled triples
        equal to atoms i and j bit for bit.  T is the law's own read-only
        table, k^2 doubles: 8 MiB at k = 1024.
        """
        return self._table

    def cross(self, i, j, out=None, pairs=None) -> np.ndarray:
        """log_cross()[i, j] for atom index arrays i, j.

        ``out`` (float64, for the terms) and ``pairs`` (intp, for the table
        positions) are optional buffers shaped like i and j.
        """
        pairs = np.multiply(i, self.k, out=pairs)
        np.add(pairs, j, out=pairs)
        # every position is in range; mode="clip" writes out directly
        return np.take(self._table, pairs, out=out, mode="clip")

    def indices(self, n: int, gen: np.random.Generator, out=None) -> np.ndarray:
        """Atom indices of n draws: #{j : cum[j] <= u} for u = gen.random(n).

        This is np.searchsorted(cum, u, side="right"), and index 0 is the
        event u < cum[0], so a two-atom law consumes the stream exactly as
        the test u < p.  A single atom draws nothing.  ``out`` is an
        optional (float64, intp, float64) triple of buffers, each at least
        n long, for the uniforms, the indices and index_search's scratch;
        the returned indices are a view of the second.
        """
        if out is None:
            out = (np.empty(n), np.empty(n, np.intp), np.empty(n))
        u, idx, scratch = (buf[:n] for buf in out)
        if self.k == 1:
            idx.fill(0)
            return idx
        return index_search(self.cum, gen.random(out=u), idx, scratch)


def index_search(cum: np.ndarray, u: np.ndarray, idx: np.ndarray, scratch: np.ndarray):
    """idx = #{j : cum[j] <= u} elementwise, by a branch-free binary search.

    cum is sorted, its length a power of two 2^m, and every u < cum[-1];
    the result then equals np.searchsorted(cum, u, side="right").  Each
    of the m passes halves the candidate range of every element at once:
    with h the indices found so far, it compares u with the midpoints
    cum[h * 2s + s - 1] (s the remaining half width) and appends the
    outcome as the next bit of h.  idx (intp) receives the indices and
    scratch (contiguous float64) holds the gathered midpoints and, in its
    first len(u) bytes, the comparison; both are as long as u.
    """
    bit = len(cum) // 2
    if not bit:
        idx.fill(0)
        return idx
    np.less_equal(cum[bit - 1], u, out=idx)
    below = scratch.view(np.bool_)[: len(u)]
    bit //= 2
    while bit:
        # mode="clip" writes out directly; every index is in range
        np.take(cum[bit - 1 :: 2 * bit], idx, out=scratch, mode="clip")
        np.less_equal(scratch, u, out=below)
        np.left_shift(idx, 1, out=idx)
        np.add(idx, below, out=idx)
        bit //= 2
    return idx
