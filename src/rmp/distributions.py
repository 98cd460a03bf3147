"""What the families of entry-triple laws share.

DistributionSpec is one validated law of the triple (a, b, c), read by
parse_spec from the JSON grammar; its family's record in
families.FAMILIES decides its fields, validation and samplers.  Every
finite-support law is sampled through its one rmp.words.AtomLaw.

Specs are immutable and validated on construction.  Sampling draws from
SFC64 streams, one per (seed, chunk) key hashed through a SeedSequence
(make_stream), so (seed, chunk) pairs give reproducible, independent
substreams.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .families import (
    BINARY_HILL,
    CAUCHY_RANK_ONE,
    CONSTANT_TRIPLE,
    DISCRETE_ATOMS,
    EXPONENTIAL_RANK_ONE,
    FAMILIES,
    HILL_RANDOM,
    UNIFORM_RANK_ONE,
    EntryTriple,
    Family,
    NotDiscreteError,
    SpecError,
)

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_PARKED, _PARK_LIMIT = [], 256  # straddling SFC64s, ~320 bytes each (make_stream)


def _record(name) -> Family:
    """FAMILIES[name]; SpecError for a name that is not a family."""
    if isinstance(name, str) and name in FAMILIES:
        return FAMILIES[name]
    raise SpecError(f"family must be one of {', '.join(FAMILIES)}; got {name!r}")


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
    np.add(a1, out, out=out)
    np.abs(out, out=out)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    return out


@functools.cache
def _state_offset() -> int:
    """Where an SFC64 object (at id()) holds its state, read once."""
    bits = np.random.SFC64(0)
    return bits.ctypes.state_address - id(bits)


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

    A state at 40 mod 64 (by heap layout) straddles two cache lines, and a
    uniform costs ~13 % more: such a bit generator is parked (up to
    _PARK_LIMIT; a freed slot is handed out first) and built again.
    """
    seed, chunk = seed & _MASK64, chunk & _MASK64
    words = np.array(
        [seed & _MASK32, seed >> 32, chunk & _MASK32, chunk >> 32], dtype=np.uint32
    )
    seq = np.random.SeedSequence(words)
    bits = np.random.SFC64(seq)
    while (id(bits) + _state_offset()) % 64 > 32 and len(_PARKED) < _PARK_LIMIT:
        _PARKED.append(bits)
        bits = np.random.SFC64(seq)
    return np.random.Generator(bits)


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
        record = _record(self.family)
        for name in ("alpha", "beta", "p", "a", "b", "theta", "value", "atoms"):
            if name not in record.fields and getattr(self, name) is not None:
                raise SpecError(f"{name} is not a parameter of {self.family}")
        if record.validate is not None:
            record.validate(self)
        # normalize validated numerics so JSON integers behave like reals
        for name in ("alpha", "beta", "p", "a", "b", "theta"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, float(v))
        if self.atoms is not None:
            object.__setattr__(
                self, "atoms", tuple((t, float(p)) for t, p in self.atoms)
            )
        if record.atoms is not None:
            from .words import AtomLaw  # only a finite-support law loads it
            object.__setattr__(self, "_atom_law", AtomLaw(self))

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
        """The family has a finite support (atoms)."""
        return FAMILIES[self.family].atoms is not None

    @property
    def is_rank_one(self) -> bool:
        """The family is rank-one [[x, x], [y, y]]: it draws unit sums t."""
        return FAMILIES[self.family].units is not None

    @property
    def atom_law(self) -> "AtomLaw":
        """The rmp.words.AtomLaw that validation built, shared by every route.

        Raises NotDiscreteError for continuous families.
        """
        if self._atom_law is None:
            raise NotDiscreteError(
                f"{self.family} is not discrete; finite support unavailable"
            )
        return self._atom_law


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
    fields = _record(family).fields
    extra = set(obj) - {"family"} - set(fields)
    if extra:
        raise SpecError(f"unknown field(s) for {family}: {', '.join(sorted(extra))}")

    kwargs = {}
    for name in fields:
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

    A finite-support law draws ceil(n / g) words of g atoms from the
    alias table of its AtomLaw, one uniform each, decodes them into
    their atoms and cuts the last word to n (AtomLaw.step_atoms), as its
    Monte Carlo segment and chains draw.  Other laws draw by their
    family's ``triples``.

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
    if not spec.is_discrete:
        return FAMILIES[spec.family].triples(spec, gen, a, b, c)
    law = spec.atom_law
    idx = law.step_atoms(n, 1, gen, out).ravel()
    # idx < k; mode="clip" writes out directly, where the default
    # mode="raise" buffers a copy
    for j, buf in enumerate((a, b, c)):
        np.take(law.atoms[:, j], idx, out=buf, mode="clip")
    return (a, b, c)


def sample_units(spec: DistributionSpec, n: int, gen: np.random.Generator, out=None):
    """Draw n i.i.d. unit sums t of a rank-one law, by its family's ``units``.

    The head ratio x/x of a rank-one step is exactly 1, so its cross term
    is log |x + y| = log |t| + log |kappa| of the step's sum
    s = x + y = kappa t, with kappa = ``scale(spec)`` a constant of the
    law.  The draw divides, negates and scales nothing.  Where x + y of
    two draws cannot vanish, because both draws have one sign and x is
    never 0 (Exponential, and Uniform on [0, b] or [-a, 0]), t is never
    0 (an exact 0 is redrawn).  Elsewhere t = 0 is kept: it is the exact
    cancellation that x + y = 0 is for two draws.  ValueError for a law
    that is not rank-one.

    ``out`` is an optional pair of float64 buffers, each at least n long:
    the unit sums land in the first (the returned array is a view of its
    prefix), and the second is scratch for the second uniforms.  Without
    ``out`` fresh buffers are allocated; the draws are the same either way.
    """
    units = FAMILIES[spec.family].units
    if units is None:
        raise ValueError(f"{spec.family} is not a rank-one family")
    if out is None:
        out = (np.empty(n), np.empty(n))
    return units(spec, gen, out[0][:n], out[1])
