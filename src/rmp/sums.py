"""Sums s = x + y of the entries of rank-one laws, drawn from the law of s.

A rank-one matrix [[x, x], [y, y]] has head ratio x/x = 1 exactly, so its
cross term is log |x + y|, a function of the one number s = x + y.  The
chain kernel's rank-one block step draws s here rather than the pair
(x, y) that distributions.sample_triples draws.
"""

from __future__ import annotations

import numpy as np

from .distributions import (
    CAUCHY_RANK_ONE,
    EXPONENTIAL_RANK_ONE,
    UNIFORM_RANK_ONE,
    DistributionSpec,
    cauchy_draw,
    fill_nonzero,
)


def sample_sums(spec: DistributionSpec, n: int, gen: np.random.Generator, out=None):
    """Draw n i.i.d. sums s = x + y of the entries of a rank-one law.

    The head ratio x/x of a rank-one step is exactly 1, so its cross term
    is log |x + y|, a function of s alone.  s is drawn from its own law:

    * ExponentialRankOne: -log((1 - u_1)(1 - u_2)) / theta, Gamma(2, theta):
      the sum of two Exp(theta) draws up to the rounding of the product,
      whose absolute error in s is at most about 2^-53 / theta;
    * CauchyRankOne: 2 tan(pi (u - 1/2)), Cauchy(0, 2), from one uniform;
    * UniformRankOne: 2 (-a + W h), h = (u_1 + u_2) / 2, W = a + b,
      triangular on [-2a, 2b].  -a + W h is a uniform draw at h <= 1 - 2^-53,
      so it lies in [-a, b] (see distributions._validate_uniform) and
      nothing overflows.

    Where x + y of two draws cannot vanish, because both draws have one
    sign and x is never 0 (Exponential, and Uniform on [0, b] or [-a, 0]),
    an exact s = 0 is redrawn.  Elsewhere s = 0 is kept: it is the exact
    cancellation that x + y = 0 is for two draws.

    ``out`` is an optional pair of float64 buffers, each at least n long:
    the sums land in the first (the returned array is a view of its
    prefix), and the second is scratch for the second uniforms.  Without
    ``out`` fresh buffers are allocated; the draws are the same either way.
    """
    if out is None:
        out = (np.empty(n), np.empty(n))
    s, scratch = out[0][:n], out[1]
    f = spec.family
    if f == EXPONENTIAL_RANK_ONE:
        return fill_nonzero(_exponential_sum(gen, spec.theta, scratch), s)
    if f == CAUCHY_RANK_ONE:
        return _cauchy_sum(gen)(s)
    if f == UNIFORM_RANK_ONE:
        draw = _uniform_sum(gen, -spec.a, spec.b, scratch)
        return fill_nonzero(draw, s) if spec.a == 0.0 or spec.b == 0.0 else draw(s)
    raise ValueError(f"{f} is not a rank-one family")


# Each maker returns draw(x), which fills x in place from the stream and
# returns it, as the makers of distributions.py do.

def _exponential_sum(gen, theta, scratch):
    """log((1 - u_1)(1 - u_2)) / -theta, the u_1 filling x first.

    1 - u is exact, and the product is at least 2^-106, a normal double.
    """
    divisor = -theta

    def draw(x):
        v = scratch[: x.size]
        gen.random(out=x)
        gen.random(out=v)
        np.subtract(1.0, x, out=x)
        np.subtract(1.0, v, out=v)
        np.multiply(x, v, out=x)
        np.log(x, out=x)
        np.divide(x, divisor, out=x)
        return x

    return draw


def _cauchy_sum(gen):
    """2 tan(pi * (u - 0.5))."""
    tan = cauchy_draw(gen)

    def draw(x):
        return np.multiply(tan(x), 2.0, out=x)

    return draw


def _uniform_sum(gen, lo, hi, scratch):
    """2 (lo + (hi - lo) * (0.5 * (u_1 + u_2))), the u_1 filling x first."""
    width = hi - lo

    def draw(x):
        v = scratch[: x.size]
        gen.random(out=x)
        gen.random(out=v)
        x += v
        x *= 0.5
        x *= width
        x += lo
        x *= 2.0
        return x

    return draw
