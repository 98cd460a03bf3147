"""The built-in families of entry-triple laws, one record each.

A triple (a, b, c) with a != 0 determines the rank-one matrix
[[a, b], [c, c*(b/a)]].  The built-in families are:

* rank-one matrices [[x, x], [y, y]] with uniform, exponential, or
  standard-Cauchy entries ((a, b, c) = (x, x, y)),
* two-point "binary" multipliers x mapped to [[x, 1/x], [1, 1/x^2]],
* random Hill-type matrices [[1, x], [1/x, 1]],
* arbitrary finite atom lists and constant triples.

FAMILIES maps each name to its Family record: its JSON fields and
validator, and whichever samplers, finite support and closed form it
has.  distributions.py holds what the families share.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

BINARY_HILL = "BinaryHill"
UNIFORM_RANK_ONE = "UniformRankOne"
EXPONENTIAL_RANK_ONE = "ExponentialRankOne"
CAUCHY_RANK_ONE = "CauchyRankOne"
HILL_RANDOM = "HillRandom"
DISCRETE_ATOMS = "DiscreteAtoms"
CONSTANT_TRIPLE = "ConstantTriple"

_ATOM_SUM_TOL = 1e-12
# largest finite support: every route on it holds the k x k cross-term
# table, 8 MiB at k = 1024
MAX_ATOMS = 1024

# Euler-Mascheroni constant, fixed to 20 digits so closed forms are
# constants rather than estimates.
EULER_GAMMA = 0.57721566490153286061


class SpecError(ValueError):
    """Malformed or invalid distribution document."""


class NotDiscreteError(ValueError):
    """Finite-support enumeration requested for a continuous family."""


class NoClosedFormError(ValueError):
    """No closed-form values for this spec's family/parameters."""


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


@dataclass(frozen=True)
class Family:
    """One family: its JSON ``fields`` and what it knows about its law.

    Every callable takes the validated spec first.  ``validate(spec)``
    raises SpecError, and None means any values of the fields are valid.
    The others are None where the family has no such thing:

    * ``triples(spec, gen, a, b, c)`` fills float64 arrays a, b, c of one
      length with i.i.d. draws from ``gen`` and returns the triple (a
      rank-one law returns (x, x, y) and leaves b untouched); a
      finite-support law is sampled from its atoms instead;
    * ``units(spec, gen, t, scratch)`` fills t with i.i.d. unit sums of a
      rank-one law, s = x + y = kappa t with kappa = ``scale(spec)``, and
      returns it; the first uniforms of a draw fill t, any second ones
      the scratch, which is as long as t;
    * ``unit_bound`` = (lo, hi) bounds every nonzero |t| for any
      parameters; ``group``, the unit sums the chain kernel multiplies
      before one log, is the largest power of two G <= 16 whose G-fold
      products of such |t| stay in [DBL_MIN, DBL_MAX] (tests check both);
    * ``atoms(spec)`` is the finite support as [(EntryTriple, probability)];
    * ``closed_form(spec)`` is (lambda, sigma2), or NoClosedFormError for
      parameters without one.
    """

    name: str
    fields: tuple[str, ...]
    validate: Callable | None = None
    triples: Callable | None = None
    units: Callable | None = None
    scale: Callable | None = None
    unit_bound: tuple[float, float] | None = None
    group: int = 1
    atoms: Callable | None = None
    closed_form: Callable | None = None


# -- validation ----------------------------------------------------------

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
# S / DBL_MAX, with S = 73.4736011393542 the largest Exp(1) unit sum |t|:
# -log w at w = u_1 u_2 = 2^-106 as numpy evaluates it (106 log 2).  S is
# also 2 m, m = -log1p(-u) at u = 1 - 2^-53 the largest single Exp(1) draw,
# so the bound covers x + y of a drawn pair too; the tests pin both
_EXP_SUM_MAX = 2.0 * 36.7368005696771
_EXP_MIN_THETA = _EXP_SUM_MAX / sys.float_info.max


def _validate_uniform(spec):
    a = _need(spec, "a")
    b = _need(spec, "b")
    # entries live on [-a, b]; a,b are the endpoint magnitudes
    if a < 0.0:
        raise SpecError(f"a must be >= 0 (interval is [-a, b]), got {a}")
    if b < 0.0:
        raise SpecError(f"b must be >= 0 (interval is [-a, b]), got {b}")
    # Below DBL_MIN = 2^-1022, W = a + b is subnormal (and exact), and so
    # is every W u, 0 <= u < 1: a multiple of 2^-1074 below W, one of
    # fewer than 2^52 values.  The draws then lie on a coarse lattice (at
    # W = 2^-1074 a uniform draw is 0 or -a, and a sum draw -2a), which is
    # not the continuous law at any sample size.  At W >= DBL_MIN, W u
    # takes the 2^52 or more values of a uniform double.
    if a + b < sys.float_info.min:
        raise SpecError(
            f"interval [-a, b] is degenerate; need a + b >= DBL_MIN = "
            f"{sys.float_info.min!r}, got a + b = {a + b!r}"
        )
    # A draw x = fl(-a + fl(W u)), W = fl(a + b), 0 <= u <= 1 - 2^-53, lies in
    # [-a, b]: for a normal W, fl(W u) <= pred(W) < a + b, as W is the double
    # nearest a + b.  Tight for a: a = 2^1023 draws -2^1023 at u = 0.  One
    # double short for b: b = 2^1023 draws at most DBL_MAX/2, and the double
    # after it draws 2^1023 (a = 0).
    if max(a, b) > _HALF_MAX:
        raise SpecError(
            f"interval [-a, b] too wide: a + b or x + y of two draws can overflow; "
            f"need max(a, b) <= DBL_MAX/2, got a = {a!r}, b = {b!r}"
        )


def _validate_exponential(spec):
    theta = _need(spec, "theta")
    if theta <= 0.0:
        raise SpecError(f"theta must be > 0, got {theta}")
    # A sum is fl(kappa t) <= fl(S / theta), and a single draw
    # fl(-log1p(-u) / theta) <= fl(m / theta) with S = 2 m.  S / DBL_MAX
    # (about 4.0871e-307) rounds up, so theta >= _EXP_MIN_THETA gives
    # S / theta <= DBL_MAX and m / theta <= DBL_MAX/2.  Tight: one double
    # below, S / theta overflows, and m / theta rounds to 2^1023.
    if theta < _EXP_MIN_THETA:
        raise SpecError(
            f"theta = {theta!r} too small: x + y of two draws can overflow; "
            f"need theta >= {_EXP_MIN_THETA!r}"
        )


def _validate_hill(spec):
    """A Hill cross term is 1 + (1/x_1) x_2.  On a one-signed support its
    magnitude is largest at |x_1| = min(|a|, |b|), |x_2| = max(|a|, |b|),
    and rounding is monotone, so every term is finite when
    fl(fl(1/a) b) (0 < a < b), or fl(fl(1/b) a) (a < b < 0), is; the
    bound is tight up to the last double a draw reaches.  A support that
    straddles 0, or ends at it, has no such bound: draws near 0 can
    overflow 1/x, and their +inf or NaN terms are counted in
    inf_nan_events.
    """
    a = _need(spec, "a")
    b = _need(spec, "b")
    if not a < b:
        raise SpecError(f"need a < b for the multiplier support [a, b], got [{a}, {b}]")
    if not math.isfinite(b - a):
        raise SpecError(f"support [a, b] is too wide: b - a = {b!r} - {a!r} overflows")
    if a > 0.0 or b < 0.0:
        near, far = (a, b) if a > 0.0 else (b, a)
        if not math.isfinite(1.0 / near * far):
            raise SpecError(
                f"support [a, b] = [{a!r}, {b!r}] is too close to 0 for its width: "
                f"the cross term 1 + (1/x_1) x_2 overflows at (1/{near!r}) * {far!r}"
            )


def _validate_constant(spec):
    if spec.value is None:
        raise SpecError("ConstantTriple requires field 'value'")
    if not isinstance(spec.value, EntryTriple):
        raise SpecError("value must be an EntryTriple")


def _validate_atoms(spec):
    if not isinstance(spec.atoms, (list, tuple)) or len(spec.atoms) == 0:
        raise SpecError("DiscreteAtoms requires a nonempty 'atoms' list")
    if len(spec.atoms) > MAX_ATOMS:
        raise SpecError(f"too many atoms: {len(spec.atoms)} > {MAX_ATOMS}")
    total = 0.0
    for i, pair in enumerate(spec.atoms):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
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


# -- sampling ------------------------------------------------------------
#
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


def _cauchy(gen):
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


def _rank_one(maker):
    """The triples sampler of [[x, x], [y, y]]: (x, x, y) by draw =
    maker(spec, gen), x drawn first and never 0."""

    def triples(spec, gen, a, b, c):
        draw = maker(spec, gen)
        fill_nonzero(draw, a)
        return (a, a, draw(c))

    return triples


def _hill_triples(spec, gen, a, b, c):
    """(1, x, 1/x) of [[1, x], [1/x, 1]], x uniform on [a, b] and never 0."""
    fill_nonzero(_uniform(gen, spec.a, spec.b), b)
    a.fill(1.0)
    np.divide(1.0, b, out=c)
    return (a, b, c)


def _exponential_units(spec, gen, t, scratch):
    """log w, w = u_1 u_2 with w = 0 redrawn; kappa = -1/theta.

    s = log w / -theta is Gamma(2, theta), the sum of two Exp(theta)
    draws -log u / theta, up to the rounding of w: an absolute error of
    about 2^-53 in t.  A nonzero u lies in [2^-53, 1 - 2^-53], so
    2^-52 <= |t| <= S for every theta.

    No scan looks for w = 0: log 0 = -inf is the one log of a draw that
    raises numpy's divide-by-zero flag, since a nonzero w is at least
    2^-106.  Only when it is raised are the -inf entries redrawn, in
    fill_nonzero's order, and logged, so the stream is consumed and the
    values come out as if the zeros had been redrawn before the log.
    """

    def draw(x):
        v = scratch[: x.size]
        gen.random(out=x)
        gen.random(out=v)
        return np.multiply(x, v, out=x)

    draw(t)
    try:
        with np.errstate(divide="raise"):
            return np.log(t, out=t)
    except FloatingPointError:
        zero = t == -np.inf
        t[zero] = np.log(fill_nonzero(draw, np.empty(np.count_nonzero(zero))))
        return t


def _cauchy_units(spec, gen, t, scratch):
    """tan(pi * (u - 0.5)); kappa = 2.  A nonzero |t| lies in
    [fl(pi) 2^-53, tan(fl(pi) / 2)], as |u - 0.5| >= 2^-53 or is 0."""
    return _cauchy(gen)(t)


def _uniform_units(spec, gen, t, scratch):
    """-a + (a + b) * (0.5 * (u_1 + u_2)); kappa = 2 (triangular on [-2a, 2b]).

    t is a uniform draw at h = (u_1 + u_2) / 2 <= 1 - 2^-53, so it lies
    in [-a, b] (see _validate_uniform) and nothing overflows.  t = 0 is
    redrawn on [0, b] and [-a, 0].
    """
    lo, width = -spec.a, spec.a + spec.b

    def draw(x):
        v = scratch[: x.size]
        gen.random(out=x)
        gen.random(out=v)
        x += v
        x *= 0.5
        x *= width
        x += lo
        return x

    return fill_nonzero(draw, t) if spec.a == 0.0 or spec.b == 0.0 else draw(t)


# -- finite supports -----------------------------------------------------

def _binary_atoms(spec):
    """The atoms (x, 1/x, 1) at x = alpha, beta; those of probability 0 dropped."""
    out = []
    if spec.p > 0.0:
        out.append((EntryTriple(spec.alpha, 1.0 / spec.alpha, 1.0), spec.p))
    if spec.p < 1.0:
        out.append((EntryTriple(spec.beta, 1.0 / spec.beta, 1.0), 1.0 - spec.p))
    return out


# -- closed forms ------------------------------------------------------------

def _uniform_closed_form(spec):
    """Solvable only for supports [0, b], [-a, 0] and [-b, b]; other
    parameters raise NoClosedFormError rather than return a non-oracle
    value."""
    a, b = spec.a, spec.b
    if a == 0.0 or b == 0.0:
        return 2.0 * math.log(2.0) - 1.5 + math.log(a + b), 1.25 - 2.0 * math.log(2.0) ** 2
    if a == b:
        return math.log(2.0 * b) - 1.5, 1.25
    raise NoClosedFormError(
        f"no closed form for uniform support [-{a}, {b}]; "
        "solvable cases are a=0, b=0, or a=b"
    )


def _binary_closed_form(spec):
    """Closed-form exponent and variance of the two-point multiplier.

    Grouped by the three distinct log magnitudes: the like-pair terms
    L1 = log|alpha + 1/alpha^2| and L3 = log|beta + 1/beta^2|, and the
    mixed-pair combination L2 = log(|alpha + 1/beta^2| |beta + 1/alpha^2|).
    """
    alpha, beta, p = spec.alpha, spec.beta, spec.p
    q = 1.0 - p
    # squares by multiplication, since float ** raises OverflowError
    inv_a2, inv_b2 = 1.0 / (alpha * alpha), 1.0 / (beta * beta)
    l1 = math.log(abs(alpha + inv_a2))
    l2 = math.log(abs(alpha + inv_b2) * abs(beta + inv_a2))
    l3 = math.log(abs(beta + inv_b2))
    lam = p * p * l1 + p * q * l2 + q * q * l3
    sigma2 = (
        p**2 * (1.0 + (2.0 - 3.0 * p) * p) * l1**2
        - 2.0 * q * p**2 * l1 * ((3.0 * p - 1.0) * l2 + 3.0 * q * l3)
        + q * (1.0 + 3.0 * (p - 1.0) * p) * p * l2**2
        + 2.0 * q**2 * (3.0 * p - 2.0) * p * l2 * l3
        - q**2 * (3.0 * p - 4.0) * p * l3**2
    )
    return lam, sigma2


FAMILIES = {f.name: f for f in (
    Family(BINARY_HILL, ("alpha", "beta", "p"), _validate_binary,
           atoms=_binary_atoms, closed_form=_binary_closed_form),
    Family(UNIFORM_RANK_ONE, ("a", "b"), _validate_uniform,
           triples=_rank_one(lambda spec, gen: _uniform(gen, -spec.a, spec.b)),
           units=_uniform_units, scale=lambda spec: 2.0,
           closed_form=_uniform_closed_form),
    Family(EXPONENTIAL_RANK_ONE, ("theta",), _validate_exponential,
           triples=_rank_one(lambda spec, gen: _exponential(gen, spec.theta)),
           units=_exponential_units, scale=lambda spec: -1.0 / spec.theta,
           unit_bound=(2.0**-53, _EXP_SUM_MAX), group=16,
           closed_form=lambda spec: (1.0 - EULER_GAMMA - math.log(spec.theta),
                                     math.pi**2 / 6.0 - 1.0)),
    Family(CAUCHY_RANK_ONE, (),
           triples=_rank_one(lambda spec, gen: _cauchy(gen)), units=_cauchy_units,
           scale=lambda spec: 2.0, unit_bound=(math.pi * 2.0**-53, 1.633123935319537e16),
           group=16,
           closed_form=lambda spec: (math.log(2.0), math.pi**2 / 4.0)),
    Family(HILL_RANDOM, ("a", "b"), _validate_hill, triples=_hill_triples),
    Family(DISCRETE_ATOMS, ("atoms",), _validate_atoms,
           atoms=lambda spec: list(spec.atoms)),
    Family(CONSTANT_TRIPLE, ("value",), _validate_constant,
           atoms=lambda spec: [(spec.value, 1.0)]),
)}
