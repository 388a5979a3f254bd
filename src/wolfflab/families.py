"""Seeded random instance generation for the verification suites.

Measures are drawn from the documented family f(r) = a (1 + (r/b)^2)^{-c}
with a, b log-uniform in [0.1, 10] and c large enough that every energy
the checks need is finite (c > n/2 guarantees finite mass, hence finite
potentials and finite self energies for the exponents in play).  Half the
draws are truncated to a compact ball to exercise the closed-form tails.
"""

from __future__ import annotations

import numpy as np

from .measure import RadialDensity
from .params import DEFAULT_QUAD, ProblemParams, QuadratureConfig
from .radial_pde import RadialFunction

_COMPACT_PROB = 0.5  # share of random densities cut to a ball


def family_density_fn(a: float, b: float, c: float):
    def fn(s, _a=a, _b=b, _c=c):
        s = np.asarray(s, dtype=float)
        return _a * (1.0 + (s / _b) ** 2) ** (-_c)
    return fn


def family_density(dim: int, a: float, b: float, c: float,
                   quad: QuadratureConfig = DEFAULT_QUAD,
                   cut: float = None) -> RadialDensity:
    fn = family_density_fn(a, b, c)
    tail = None if cut is not None else (a * b ** (2.0 * c), 2.0 * c)
    return RadialDensity.from_function(dim, fn, quad, tail=tail, cut=cut)


def family_profile(a: float, b: float, c: float,
                   quad: QuadratureConfig = DEFAULT_QUAD) -> RadialFunction:
    """The same family as a radial function (for test profiles and
    analytic references), with its exact derivative."""
    grid = quad.radial_grid()
    vals = family_density_fn(a, b, c)(grid)
    deriv = -2.0 * a * c * grid / b ** 2 * (1.0 + (grid / b) ** 2) ** (-c - 1.0)
    return RadialFunction(grid, vals, a * b ** (2.0 * c), 2.0 * c, a, deriv)


def random_density(rng: np.random.Generator, params: ProblemParams,
                   quad: QuadratureConfig = DEFAULT_QUAD):
    """One random family density plus its descriptor."""
    a = 10.0 ** rng.uniform(-1.0, 1.0)
    b = 10.0 ** rng.uniform(-1.0, 1.0)
    c = params.n / 2.0 + rng.uniform(0.26, 2.0)
    cut = None
    if rng.uniform() < _COMPACT_PROB:
        cut = b * 10.0 ** rng.uniform(0.3, 1.3)
    desc = {"a": a, "b": b, "c": c, "cut": cut}
    return family_density(params.n, a, b, c, quad, cut=cut), desc


def random_pair(rng: np.random.Generator, params: ProblemParams,
                quad: QuadratureConfig = DEFAULT_QUAD):
    sigma, d1 = random_density(rng, params, quad)
    mu, d2 = random_density(rng, params, quad)
    return sigma, mu, {"sigma": d1, "mu": d2}


def random_test_profile(rng: np.random.Generator, params: ProblemParams,
                        quad: QuadratureConfig = DEFAULT_QUAD) -> RadialFunction:
    """Bounded finite-p-energy radial test profile: a family bump whose
    tail decays fast enough for finite p-energy."""
    a = 10.0 ** rng.uniform(-0.5, 0.5)
    b = 10.0 ** rng.uniform(-0.5, 0.5)
    # |u'|^p r^{n-1} ~ r^{n-1-p(2c+1)} integrable at infinity
    c_min = max(0.51, (params.n / params.p - 1.0) / 2.0)
    c = c_min + rng.uniform(0.25, 1.5)
    return family_profile(a, b, c, quad)
