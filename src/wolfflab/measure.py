"""Nonnegative Radon measures on R^n with exact or tightly-toleranced
ball-mass queries mu(B(x, r)).

Supported classes: radial densities (tabulated on a log grid, optionally
backed by an exact callable, with power-law tails and hard cutoffs),
finite atom sets, uniform spherical shells centered at the origin, and
finite sums of these.  These admit exact ball masses (lens volumes for
uniform annuli) or 1-D-quadrature ones, which keeps every downstream
inequality check trustworthy.

Balls are open: an atom at distance exactly r from the center does not
belong to B(x, r).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InfiniteEnergy,
    InvalidMeasure,
    NegativeRadius,
    NegativeScale,
    NonRadialMeasure,
    SignError,
)
from .params import DEFAULT_QUAD, QuadratureConfig, unit_ball_volume
from .quadrature import (_HEAD_FIT, Located, decade_tail, panel_nodes, power_integral,
                         power_law_head, power_tail_radius, segment_integral, segment_table)

_TINY = 1e-300
# Gauss points of a table piece, and geometric panels of a first piece
# from the origin (12 decades above its power-law head)
_TABLE_K = 10
_HEAD_PANELS = 60
# nodes per fused window pass, updated in place: bounds its temporaries
_WINDOW_NODES = 8192
# even n = 2m + 2: the series below y = _EVEN_SWITCH[m] (y < 1/2 for m > 5)
_EVEN_SWITCH = (0.0, 0.03, 0.12, 0.18, 0.23, 0.26)


@lru_cache(maxsize=16)
def _even_series(m: int, switch: float):
    """2F1(2a, 1; a+1; y) / (a B(a, a)), a = m + 1/2, highest power first, to
    1e-16 at y = switch: I_y(a, a) = (y(1-y))^a times it (DLMF 8.17.8)."""
    a = m + 0.5
    c = [math.exp(math.lgamma(2.0 * a) - 2.0 * math.lgamma(a)) / a]
    while c[-1] * switch ** (len(c) - 1) > 1e-16 * c[0]:
        c.append(c[-1] * (2.0 * a + len(c) - 1) / (a + len(c)))
    return c[::-1]


def _horner(coeffs, y):  # np.polyval(coeffs, y), in place
    out = np.full_like(y, coeffs[0])
    for c in coeffs[1:]:
        out *= y
        out += c
    return out


def _cap_area(n: int, x):
    """I_x(a, a), a = (n-1)/2, at x clipped to [0, 1]; see cap_fraction.
    Even n = 2m + 2 reduces int_0^alpha sin^2m, alpha = 2 arcsin(sqrt(y)) at
    y = min(x, 1-x) (reflected), to (alpha - sqrt(z) (1-2y) sum_j kappa_j
    z^(j-1)) / pi, z = y(1-y), kappa_j = 2^(4j-2) / (j C(2j, j)) > 0; below
    the switch, where that cancels to about 2e-15, _even_series."""
    x, m = np.asarray(x, dtype=float), n // 2 - 1
    if n % 2:
        x = np.clip(x, 0.0, 1.0)
        return x if n == 3 else x * x * (3.0 - 2.0 * x) if n == 5 else \
            _cap_series((n - 1) // 2, x)
    y = np.maximum(np.minimum(x, 1.0 - x), 0.0)
    switch = _EVEN_SWITCH[m] if m < len(_EVEN_SWITCH) else 0.5
    small = y < switch
    out, ys, yb = np.empty_like(y), y[small], y[~small]
    zs, zb = ys * (1.0 - ys), yb * (1.0 - yb)
    out[small] = zs ** m * np.sqrt(zs) * _horner(_even_series(m, switch), ys)
    kappa = [2.0 ** (4 * j - 2) / (j * math.comb(2 * j, j)) for j in range(m, 0, -1)]
    out[~small] = (2.0 * np.arcsin(np.sqrt(yb)) - np.sqrt(zb) * (1.0 - 2.0 * yb)
                   * _horner(kappa or [0.0], zb)) / math.pi
    return np.where(x > 0.5, 1.0 - out, out)


def _cap_series(a: int, x):
    """I_x(a, a) for integer a (odd n): with y = min(x, 1-x) <= 1/2 the
    binomial tail sum_{j=a}^{m} C(m, j) y^j (1-y)^{m-j}, m = 2a - 1, in
    powers of y/(1-y) <= 1, reflected by I_x(a, a) = 1 - I_{1-x}(a, a)."""
    y, m = np.minimum(x, 1.0 - x), 2 * a - 1
    tail = [math.comb(m, j) for j in range(m, a - 1, -1)]
    half = y ** a * (1.0 - y) ** (m - a) * np.polyval(tail, y / (1.0 - y))
    return np.where(x > 0.5, 1.0 - half, half)


@lru_cache(maxsize=16)
def _window_rule(edges: tuple, k: int, even: bool):
    """Nodes u and weights on [0, 1]: k-point Gauss panels split at edges.

    For even n the rule is mapped through psi(u) = (1 - cos(pi u))/2, which
    smooths the half-integer power of the cap at the window ends.  A single
    panel, only ever given windows whose ends are both cap ends, gets the
    midpoint rule in u: the mapped integrand is then a smooth periodic
    function of pi u, on which it converges geometrically and Gauss does not."""
    if even and len(edges) == 2:
        u, w = (np.arange(k) + 0.5) / k, np.full(k, 1.0 / k)
    else:
        u, w = (v.ravel() for v in panel_nodes(np.asarray(edges), k))
    if even:
        u, w = 0.5 - 0.5 * np.cos(np.pi * u), w * 0.5 * np.pi * np.sin(np.pi * u)
    return u, w


def cap_fraction(n: int, s, d, r):
    """Fraction of the sphere {|y| = s} lying in the open ball B(x, r),
    |x| = d.

    The cap {cos(theta) > c} with c = (s^2 + d^2 - r^2) / (2 s d) has
    normalized area I_x(a, a), a = (n-1)/2, at the cancellation-free
    x = (1-c)/2 = (r^2 - (s-d)^2) / (4 s d).  Closed forms: x (n = 3),
    x^2 (3 - 2x) (n = 5), a finite sum in the cap angle for even n (a
    hypergeometric series near x = 0 and 1, _cap_area) and a binomial sum
    for odd n >= 7 (_cap_series).  In R^(n+2) it is the volume fraction of a
    cap of the n-ball, onto which that sphere projects uniformly (_lens_parts).
    """
    s = np.asarray(s, float)
    d = np.asarray(d, float)
    r = np.asarray(r, float)
    denom = 4.0 * s * d
    gap = s - d
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = _cap_area(n, (r * r - gap * gap) / np.maximum(denom, _TINY))
    # point sphere or centered query: inside iff max(s, d) < r
    return np.where(denom > 0.0, frac, 1.0 * (np.maximum(s, d) < r))


def _lens_parts(n: int, d, r, R: float):
    """|B(x, r) cap B(0, R)|, |x| = d > 0, is omega_n (r^n A(x) + R^n A(x_R)),
    its caps beyond their common plane, A = _cap_area(n + 2, .) (cap_fraction).
    Returns x, 1 - x and R^n A(x_R), from sums exact before their last rounding."""
    s, g = R + r, R - r
    es, eg = (R - (s - (s - R))) + (r - (s - R)), (R - (g - (g - R))) + (-r - (g - R))  # TwoSum
    near, over = (s - d) + es, (d - g) - eg
    with np.errstate(over="ignore"):
        dr = np.maximum(4.0 * d * r, _TINY)
        return (near * ((d + g) + eg) / dr, over * (s + d) / dr,
                R ** n * _cap_area(n + 2, near * over / np.maximum(4.0 * d * R, _TINY)))


class RadonMeasure:
    """Base class; immutable after construction, queries are pure."""

    dim: int

    def ball_mass(self, center, radius):
        """mu(B(center, radius)); radius may be a scalar or an array."""
        center = _as_point(center, self.dim)
        r = _radius_array(radius)
        return _shape_like(self._ball_mass(center, r), radius)

    def centered_mass(self, r):
        """mu(B(0, r)); exact for every supported class, NaN at a NaN r."""
        r = np.asarray(r, dtype=float)
        flat = np.atleast_1d(r).ravel()
        out = np.where(np.isnan(flat), np.nan, self._centered_mass(flat))
        return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)

    def total_mass(self) -> float:
        raise NotImplementedError

    def support_radius(self) -> float:
        """Smallest R with all mass inside the closed ball of radius R; inf if none."""
        raise NotImplementedError

    @property
    def is_radial(self) -> bool:
        raise NotImplementedError

    def components(self):
        return [self]

    def scale(self, lam: float) -> "RadonMeasure":
        if lam < 0:
            raise NegativeScale(f"scale factor must be >= 0, got {lam}")
        return self._scale(float(lam))

    def radial_marks(self) -> list:
        """Radii of the origin-centered spheres where the measure has edges
        (support edges, shell radii)."""
        return []

    def effective_extent(self, rel_tol: float = 1e-12) -> float:
        """Radius past which the remaining mass is below rel_tol * total;
        inf only for genuinely infinite-mass measures."""
        return self.support_radius()

    # hooks: 1-d float arrays in, 1-d float arrays out
    def _ball_mass(self, center, r):
        # radial measures: the mass depends on |center| only
        return self._radial_mass(np.full_like(r, float(np.linalg.norm(center))), r)

    def _radial_mass(self, d, r):
        raise NotImplementedError

    def _centered_mass(self, r):
        raise NotImplementedError

    def _scale(self, lam):
        raise NotImplementedError


def _as_point(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"expected a point in R^{dim}, got shape {x.shape}")
    return x


def _radius_array(radius):
    r = np.atleast_1d(np.asarray(radius, dtype=float)).ravel()
    if np.any(r < 0):
        raise NegativeRadius("ball radius must be >= 0")
    return r


def _shape_like(values, like):
    if np.ndim(like) == 0:
        return float(np.asarray(values).reshape(-1)[0])
    return np.asarray(values).reshape(np.shape(like))


class Atom(RadonMeasure):
    """Point mass at an arbitrary location."""

    def __init__(self, location, weight: float):
        self.location = np.asarray(location, dtype=float).reshape(-1)
        self.dim = self.location.shape[0]
        if weight < 0:
            raise ValueError("atom weight must be >= 0")
        self.weight = float(weight)

    def __repr__(self):
        return f"Atom({self.location.tolist()}, {self.weight})"

    @property
    def is_radial(self):
        return self.weight == 0.0 or not np.any(self.location)

    def distance_from(self, x) -> float:
        return float(np.linalg.norm(np.asarray(x, float) - self.location))

    def _ball_mass(self, center, r):
        dist = self.distance_from(center)
        return self.weight * (dist < r)

    def _radial_mass(self, d, r):
        # radial atoms sit at the origin, so the distance from x is |x| = d
        return self.weight * (d < r)

    def _centered_mass(self, r):
        dist = float(np.linalg.norm(self.location))
        return self.weight * (dist < r)

    def total_mass(self):
        return self.weight

    def support_radius(self):
        return 0.0 if self.weight == 0 else float(np.linalg.norm(self.location))

    def _scale(self, lam):
        return Atom(self.location, lam * self.weight)


class SphericalShell(RadonMeasure):
    """Uniform surface measure on the sphere |x| = radius with given mass."""

    def __init__(self, dim: int, radius: float, total: float):
        if radius < 0:
            raise ValueError("shell radius must be >= 0")
        if total < 0:
            raise ValueError("shell mass must be >= 0")
        self.dim = int(dim)
        self.radius = float(radius)
        self.total = float(total)

    def __repr__(self):
        return f"SphericalShell(n={self.dim}, radius={self.radius}, mass={self.total})"

    @property
    def is_radial(self):
        return True

    def _radial_mass(self, d, r):
        if self.total == 0.0:
            return np.zeros_like(r)
        return self.total * cap_fraction(self.dim, self.radius, d, r)

    def _centered_mass(self, r):
        return self.total * (self.radius < r)

    def total_mass(self):
        return self.total

    def support_radius(self):
        return 0.0 if self.total == 0 else self.radius

    def _scale(self, lam):
        return SphericalShell(self.dim, self.radius, lam * self.total)

    def radial_marks(self):
        return [self.radius]


class RadialDensity(RadonMeasure):
    """Radial density f(s) (mass per unit volume), known by its table.

    The measure is f(s) dx restricted to {lo_cut <= |x| <= cut}.  The table
    holds the piece masses between the edges (the grid between the cuts,
    from 0 when lo_cut is 0), the shell values n omega_n s^{n-1} f(s) at
    its layout's points, per piece the partial-mass coefficients of its
    Gauss-point shell values, a first piece's exponent and, without a cut,
    a power-law tail coeff * s**(-exponent) past the last grid node.
    Centered masses read the table: whole pieces, then the integral of the
    interpolant through those shell values up to r (in a first piece from
    the origin, its power law r^e); integrate_against sums g times the
    shell values like the piece masses.  Off-center masses integrate the
    density over each window with panels of window_order points, or, for a
    density that is a constant (_level) on the annulus, are lens volumes
    (uniform_ball, its scaled copies and restricted annuli).  The
    density is the exact callable density_fn when one is given, the grid
    then serving only as the quadrature backbone; otherwise the values
    interpolated like a RadialFunction (monotone log-log, the tail past the
    last node).
    """

    def __init__(self, dim: int, grid, values, *,
                 density_fn: Optional[Callable] = None,
                 tail: Optional[tuple] = None, cut: Optional[float] = None,
                 lo_cut: float = 0.0, allow_infinite_mass: bool = False,
                 window_order: Optional[int] = None):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or len(grid) < 2 or grid[0] <= 0 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing and positive")
        if len(values) != len(grid):
            raise ValueError("values must match grid length")
        if np.any(values < 0):
            raise ValueError("density values must be >= 0")
        tail = None if tail is None else (float(tail[0]), float(tail[1]))
        if tail is not None and tail[0] < 0:
            raise ValueError("tail coefficient must be >= 0")
        lo_cut = float(lo_cut)
        if not lo_cut >= 0:
            raise ValueError("lo_cut must be >= 0")
        if density_fn is None:  # the node interpolant, with the tail past the grid
            from .radial_pde import RadialFunction
            density = RadialFunction(grid, values, *(tail or ())).eval
        else:
            density = lambda s: np.maximum(np.asarray(density_fn(s), dtype=float), 0.0)
        hi = float(cut) if cut is not None else (math.inf if tail is not None else float(grid[-1]))
        self._fill(dim, *_laid_out(density, dim, grid, lo_cut, hi), tail, density, hi,
                   window_order, None)
        if not allow_infinite_mass and math.isinf(self._total):
            raise ValueError(
                "density has infinite total mass; pass allow_infinite_mass=True")

    @classmethod
    def _table(cls, dim, layout, shell, piece_mass, coef, e0, tail=None, density=None,
               hi=math.inf, window_k=None, level=None) -> "RadialDensity":
        """The density known by a table: products, scaled and restricted densities."""
        out = cls.__new__(cls)
        out._fill(dim, layout, shell, piece_mass, coef, e0, tail, density, hi, window_k, level)
        return out

    def _fill(self, dim, layout, shell, piece_mass, coef, e0, tail, density, hi, window_k, level):
        edges = layout[0]
        self.dim, self.lo_cut, self._hi, self._density = int(dim), float(edges[0]), hi, density
        self._window_k, self._level = int(window_k or DEFAULT_QUAD.window_gauss_order), level
        self._nwn = self.dim * unit_ball_volume(self.dim)
        self._layout, self._shell = layout, shell  # see _table_layout, _pieces
        self._edges, self._piece_mass = edges, piece_mass
        self._coef, self._e0 = coef, e0  # see _pieces
        self._cum = np.concatenate([[0.0], np.cumsum(piece_mass)])
        self.tail = tail if tail is not None and tail[0] > 0 and math.isinf(hi) else None
        # the tail's shell mass n omega_n A s^{n-1-tau} past the last edge, as (c, e): c s^e
        self._law = None if self.tail is None else \
            (self._nwn * self.tail[0], self.dim - 1 - self.tail[1])
        self._tail_total = power_integral(*self._law, edges[-1]) if self.tail else 0.0
        self._total = float(self._cum[-1] + self._tail_total)

    @classmethod
    def from_function(cls, dim, fn, quad: QuadratureConfig = DEFAULT_QUAD, *,
                      tail=None, cut=None, lo_cut=0.0, allow_infinite_mass=False):
        """Tabulate a callable density on the configured log grid."""
        grid = quad.radial_grid()
        if cut is not None:
            grid = np.append(grid[grid < cut], cut)
        if len(grid) < 2:
            hi = cut if cut is not None else quad.r_max
            grid = np.geomspace(hi * 1e-4, hi, 33)
        vals = np.maximum(np.asarray(fn(grid), dtype=float), 0.0)
        return cls(dim, grid, vals, density_fn=fn, tail=tail, cut=cut,
                   lo_cut=lo_cut, allow_infinite_mass=allow_infinite_mass,
                   window_order=quad.window_gauss_order)

    @classmethod
    def uniform_ball(cls, dim, radius=1.0, density=1.0,
                     quad: QuadratureConfig = DEFAULT_QUAD):
        """A constant density on B(0, radius) (see _offcenter_mass)."""
        radius, density = float(radius), float(density)
        if not (0.0 < radius < math.inf and 0.0 <= density < math.inf):
            raise InvalidMeasure(f"need finite radius > 0, density >= 0: got {radius}, {density}")
        ball = cls.from_function(dim, lambda s: np.full(np.shape(s), density), quad, cut=radius)
        ball._level = density
        return ball

    def __repr__(self):
        return (f"RadialDensity(n={self.dim}, nodes={len(self.grid)}, "
                f"cut={self.cut}, tail={self.tail})")

    @property
    def grid(self):
        """The table's positive edges."""
        return self._edges[self._edges > 0]

    @property
    def cut(self):
        return self._hi if math.isfinite(self._hi) else None

    @property
    def is_radial(self):
        return True

    def total_mass(self):
        return self._total

    def radial_marks(self):
        return sorted({float(self._edges[0]), float(self._edges[-1])})

    def density_at(self, s):
        """Density at radii s, honoring the cuts."""
        s_in = np.asarray(s, dtype=float)
        s1 = np.atleast_1d(s_in).ravel().astype(float)
        out = np.where((s1 >= self.lo_cut) & (s1 <= self._hi), self._density(s1), 0.0)
        return float(out[0]) if s_in.ndim == 0 else out.reshape(s_in.shape)

    def support_radius(self):
        if self._total == 0.0:
            return 0.0
        if self._tail_total > 0:
            return math.inf
        nz = np.nonzero(self._piece_mass > 0)[0]
        return float(self._edges[nz[-1] + 1]) if len(nz) else 0.0

    def effective_extent(self, rel_tol: float = 1e-12):
        if self._tail_total == 0.0:
            return self.support_radius()
        if math.isinf(self._total):
            return math.inf
        # the first edge with at most the target beyond it, table and tail
        target = rel_tol * self._total
        ok = np.flatnonzero(self._total - self._cum[1:] <= target)
        if len(ok):
            return float(self._edges[ok[0] + 1])
        return power_tail_radius(*self._law, target)  # the tail alone holds more

    def _scale(self, lam):
        tail = None if self.tail is None else (lam * self.tail[0], self.tail[1])
        return RadialDensity._table(self.dim, self._layout, lam * self._shell,
                                    lam * self._piece_mass, lam * self._coef, self._e0, tail,
                                    lambda s, _d=self._density: lam * _d(s), self._hi,
                                    self._window_k, self._level and lam * self._level)

    def restricted(self, lo_cut: float, hi: float) -> "RadialDensity":
        """The density restricted to {lo_cut <= |x| <= hi}, its table laid
        out afresh on its own positive edges between the new cuts."""
        return RadialDensity._table(
            self.dim, *_laid_out(self._density, self.dim, self.grid, lo_cut, hi),
            self.tail, self._density, hi, self._window_k, self._level)

    def _centered_mass(self, r):
        # a pass at a time: bounds the located basis
        return np.concatenate([self.mass_at(Located(self._edges, r[j:j + _WINDOW_NODES]))
                               for j in range(0, len(r), _WINDOW_NODES)] or [np.zeros(0)])

    def mass_at(self, loc: Located):
        """Centered ball masses at radii located on this table's edges."""
        edges, cum = self._edges, self._cum
        if not loc.on(edges):
            raise ValueError("radii located on other edges")
        out = np.zeros(loc.size)  # the mass below the first edge
        if len(loc.r_beyond):
            out[loc.beyond] = cum[-1] + (power_integral(
                *self._law, edges[-1], np.maximum(loc.r_beyond, edges[-1])) if self.tail else 0.0)
        i = loc.idx
        if len(i):
            part = segment_integral(self._coef, loc)
            full = self._piece_mass[i]
            np.clip(part, 0.0, full, out=part)
            origin = np.flatnonzero((i == 0) & (loc.r > 0.0)) if edges[0] == 0.0 else ()
            if len(origin):  # a first piece from 0 grows like r^e0
                frac = (loc.r[origin] / edges[1]) ** self._e0
                part[origin] = np.clip(frac, 0.0, 1.0) * full[origin]
            out[loc.mid] = cum[i] + part
        return out

    # -- off-center masses ---------------------------------------------
    def _radial_mass(self, d, r):
        out = np.zeros_like(r)
        centered = d == 0.0
        if np.any(centered):
            out[centered] = self._centered_mass(r[centered])
        off = ~centered
        if np.any(off):
            out[off] = self._offcenter_mass(d[off], r[off])
        return out

    def _offcenter_mass(self, d, r):
        if self._level is not None:  # constant on the annulus: lens volumes
            n, hi = self.dim, self._hi
            # r^n stops at r = 1e18 hi, past which B(x, r)'s cap is < hi/r of the lens
            rn, (x, y, cap) = np.minimum(r, 1e18 * hi) ** n, _lens_parts(n, d, r, hi)
            part = _cap_area(n + 2, x)
            if self.lo_cut > 0.0:  # less the hole's lens, B(x, r)'s part from its smaller cap
                xl, yl, cap_lo = _lens_parts(n, d, r, self.lo_cut)
                part = np.where(xl > 0.5, _cap_area(n + 2, yl) - _cap_area(n + 2, y),
                                part - _cap_area(n + 2, xl))
                cap -= cap_lo
            return self._level * unit_ball_volume(n) * np.maximum(rn * part + cap, 0.0)
        # spheres with s <= r - d lie fully inside B(x, r)
        out = np.zeros_like(r)
        out[r > d] = self._centered_mass((r - d)[r > d])
        hi = self._hi
        a = np.maximum(np.abs(d - r), self.lo_cut)
        b = np.minimum(d + r, hi)
        # the gap s - d is lead + width u, with lead = -r exactly where the
        # window starts at d - r: no cancellation in s - d when r << d
        start = (r < d) & (a == d - r)
        lead = np.where(start, -r, a - d)
        whole = start & (b == d + r)
        width = np.where(whole, 2.0 * r, b - a)
        # resolution grows with the relative width (b - a)/b, split at 0.05
        # and 0.5: narrow windows see a smooth low-degree integrand; for even
        # n, a narrow window clipped at lo_cut or hi takes the middle tier
        tier = np.searchsorted((0.05, 0.5), (b - a) / np.maximum(b, _TINY))
        tier[(tier == 0) & ~whole & (self.dim % 2 == 0)] = 1
        tier[b <= a] = -1
        for i, rule in enumerate((((0.0, 1.0), 10), ((0.0, 0.5, 1.0), 12),
                                  ((0.0, 0.08, 0.5, 0.92, 1.0), self._window_k))):
            u, w = _window_rule(*rule, self.dim % 2 == 0)
            idx = np.flatnonzero(tier == i)
            step = max(1, _WINDOW_NODES // len(u))
            for rows in (idx[j:j + step] for j in range(0, len(idx), step)):
                gap = width[rows, None] * u
                s = gap + a[rows, None]
                gap += lead[rows, None]
                num = np.subtract(r[rows, None] ** 2, gap * gap, out=gap)  # 4 s d x
                f = self._density(s.ravel()).reshape(s.shape)
                scale = self._nwn * width[rows]
                if self.dim == 3:                         # s^2 x = s num / (4 d)
                    f *= s
                    f *= num
                    scale /= 4.0 * d[rows]
                else:
                    num /= 4.0 * s * d[rows, None]
                    f *= s ** (self.dim - 1)
                    f *= _cap_area(self.dim, num)
                out[rows] += scale * (f @ w)
        return out


def _table_layout(grid, lo_cut, hi):
    """Mass table on the grid between lo_cut and hi: edges, the points where
    it reads the shell mass (each panel's _TABLE_K Gauss points, then for a
    first piece from 0 its head's fit points and its end), the panels'
    weights, each panel's piece and the head's anchor (None without a first
    piece from 0).  A piece is one panel, except that a first piece from 0
    is _HEAD_PANELS geometric panels from edges[1] * 1e-12 (head below)."""
    end = [hi] if math.isfinite(hi) and hi > lo_cut else []
    edges = np.concatenate([[lo_cut], grid[(grid > lo_cut) & (grid < hi)], end])
    if lo_cut > 0.0 or len(edges) < 2:
        nodes, weights = panel_nodes(edges, _TABLE_K)
        return edges, nodes.ravel(), weights, np.arange(len(edges) - 1), None
    head = edges[1] * 1e-12
    nodes, weights = panel_nodes(
        np.append(np.geomspace(head, edges[1], _HEAD_PANELS + 1), edges[2:]), _TABLE_K)
    piece = np.repeat(np.arange(len(edges) - 1), [_HEAD_PANELS] + [1] * (len(edges) - 2))
    return edges, np.concatenate([nodes.ravel(), head * _HEAD_FIT, edges[1:2]]), weights, \
        piece, head


def _shell(density, dim):
    """The shell mass s -> n omega_n s^{n-1} f(s) of a density f, callable
    as power_law_head's integrand."""
    nwn = dim * unit_ball_volume(dim)
    return lambda s, _=None: density(s) * nwn * s ** (dim - 1)


def _piece_masses(shell, layout, vals):
    """Piece masses of the values vals of the function shell at a
    _table_layout's points and the exponent e of a first piece [0, b],
    whose mass grows like r^e, e = b shell(b) / its mass (1 without one).
    shell itself is called only in the head's stub."""
    edges, points, weights, piece, head = layout
    sums = (vals[:weights.size].reshape(weights.shape) * weights).sum(axis=1)
    masses = np.bincount(piece, sums, minlength=len(edges) - 1)
    e0 = 1.0
    if head is not None:  # the head's fit points, then the piece's end
        masses[0] += power_law_head(shell, head, vals[-4:-1])
        e0 = edges[1] * vals[-1] / masses[0] if masses[0] > 0 else 1.0
    return masses, e0


def _pieces(shell, layout, vals):
    """Piece masses, their partial-mass table and the first-piece exponent:
    _piece_masses with the segment_table of the pieces' Gauss-point values
    (unused for a first piece from 0), which a density keeps."""
    edges, weights = layout[0], layout[2]
    per_panel = vals[:weights.size].reshape(weights.shape)
    masses, e0 = _piece_masses(shell, layout, vals)
    return masses, segment_table(edges, per_panel[len(per_panel) - len(masses):]), e0


def _laid_out(density, dim, grid, lo_cut, hi):
    """Layout, shell masses at its points, piece masses, partial-mass
    coefficients and first-piece exponent of a density on the grid between
    lo_cut and hi."""
    layout, shell = _table_layout(grid, lo_cut, hi), _shell(density, dim)
    vals = shell(layout[1])
    return (layout, vals) + _pieces(shell, layout, vals)


class Sum(RadonMeasure):
    """Finite sum of measures; kept flat (no nested Sum)."""

    def __init__(self, terms: Sequence[RadonMeasure]):
        flat = []
        for t in terms:
            flat.extend(t.components())
        if not flat:
            raise ValueError("Sum needs at least one term")
        dims = {t.dim for t in flat}
        if len(dims) != 1:
            raise ValueError(f"mixed dimensions in Sum: {dims}")
        self.terms = list(flat)
        self.dim = flat[0].dim

    def __repr__(self):
        return f"Sum({self.terms!r})"

    def components(self):
        return list(self.terms)

    @property
    def is_radial(self):
        return all(t.is_radial for t in self.terms)

    def _ball_mass(self, center, r):
        return sum(t._ball_mass(center, r) for t in self.terms)

    def _radial_mass(self, d, r):
        return sum(t._radial_mass(d, r) for t in self.terms)

    def _centered_mass(self, r):
        return sum(t._centered_mass(r) for t in self.terms)

    def total_mass(self):
        return float(sum(t.total_mass() for t in self.terms))

    def support_radius(self):
        live = [t for t in self.terms if t.total_mass() > 0]
        if not live:
            return 0.0
        return max(t.support_radius() for t in live)

    def _scale(self, lam):
        return Sum([t._scale(lam) for t in self.terms])

    def radial_marks(self):
        return [m for t in self.terms for m in t.radial_marks()]

    def effective_extent(self, rel_tol: float = 1e-12):
        live = [t for t in self.terms if t.total_mass() > 0]
        return max((t.effective_extent(rel_tol) for t in live), default=0.0)


# -- module-level operations ---------------------------------------------

def ball_mass(mu: RadonMeasure, center, radius):
    return mu.ball_mass(center, radius)


def total_mass(mu: RadonMeasure) -> float:
    return mu.total_mass()


def support_radius(mu: RadonMeasure) -> float:
    return mu.support_radius()


def scale(mu: RadonMeasure, lam: float) -> RadonMeasure:
    return mu.scale(lam)


def add(mu: RadonMeasure, nu: RadonMeasure) -> RadonMeasure:
    return Sum([mu, nu])


def _split(mu: RadonMeasure):
    """The components of mu with mass: (radial ones, atoms)."""
    live = [c for c in mu.components() if c.total_mass() > 0]
    atoms = [c for c in live if isinstance(c, Atom)]
    return [c for c in live if not isinstance(c, Atom)], atoms


def zero_measure(dim: int) -> RadonMeasure:
    return Atom(np.zeros(dim), 0.0)


def dirac(dim: int, weight: float = 1.0, location=None) -> Atom:
    loc = np.zeros(dim) if location is None else np.asarray(location, float)
    return Atom(loc, weight)


def integrate_against(mu: RadonMeasure, g, quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Integral of a radial g over R^n against mu.

    g takes an array of radii (atoms enter at |location|).  Returns inf
    when g is infinite on a set of positive mass; raises SignError if g
    is negative on the support.
    """
    total = 0.0
    for comp in mu.components():
        if isinstance(comp, (Atom, SphericalShell)):
            radius, weight = (float(np.linalg.norm(comp.location)), comp.weight) \
                if isinstance(comp, Atom) else (comp.radius, comp.total)
            if weight == 0.0:
                continue
            val = float(np.asarray(g(np.atleast_1d(radius)), dtype=float).reshape(-1)[0])
            _check_sign(val)
            total += weight * val
        elif isinstance(comp, RadialDensity):
            total += _integrate_density(comp, g, quad)
        else:
            raise NonRadialMeasure(f"cannot integrate against {comp!r}")
        if math.isinf(total):
            return math.inf
    return float(total)


def _check_sign(val):
    if np.any(np.asarray(val) < -1e-12):
        raise SignError("integrand is negative on the support")


def _integrate_density(comp: RadialDensity, g, quad) -> float:
    """g against comp on its own table: g times the shell values at the
    table's points, summed by _piece_masses like the piece masses, then g
    against the tail law n omega_n A s^{n-1-tau} past the last edge."""
    if comp.total_mass() == 0.0:
        return 0.0
    shell = _shell(comp._density, comp.dim)
    with np.errstate(invalid="ignore", over="ignore"):
        total = float(np.sum(_piece_masses(lambda s, _=None: _weighed(g, s, shell(s)),
                                           comp._layout,
                                           _weighed(g, comp._layout[1], comp._shell))[0]))
    if comp._tail_total > 0 and math.isfinite(total):
        c, e = comp._law
        law = lambda s: _weighed(g, s, c * s ** e)
        total += decade_tail(law, float(comp._edges[-1]), quad.gauss_order, quad.rel_tol)
    return total


def _weighed(g, s, shell):
    """g(s) times shell values at s: infinite where g is infinite on mass,
    nothing where there is no mass."""
    gv = np.asarray(g(s), dtype=float)
    _check_sign(np.min(gv))
    with np.errstate(invalid="ignore", over="ignore"):
        out = gv * shell
    return np.where(shell > 0, np.where(np.isfinite(out), out, math.inf), 0.0)


def multiply_radial(mu: RadonMeasure, g) -> RadonMeasure:
    """Measure with density multiplied by a radial weight function g.

    g must expose grid and eval of radii or of a quadrature.Located on its
    grid (RadialFunction does), plus tail_coeff/tail_exp and center_value;
    the tail attributes drive the product's power-law tail.
    """
    out = [weighting(c, g.grid, np.empty(0))(g)[0] for c in mu.components()]
    return Sum(out) if len(out) > 1 else out[0]


def weighting(comp: RadonMeasure, wgrid, pts):
    """g -> (comp times g, its centered masses at pts) for weights on wgrid:
    a density's product table laid out and pts located on its edges here
    once, so a step's masses are cumulative piece masses plus one gather-sum
    over the shell values it forms.  These are formed in RadialDensity's
    order, so the table equals that of the RadialDensity with the product
    as its density_fn."""
    if not isinstance(comp, RadialDensity):
        def point(g):
            m = _weigh_point(comp, g)
            return m, m.centered_mass(pts)
        return point
    layout = _table_layout(np.union1d(comp._edges, wgrid), comp.lo_cut, comp._hi)
    edges, at = layout[0], layout[1]
    f, pw = comp.density_at(at), at ** (comp.dim - 1)
    at_pts, on_g = Located(edges, pts), [None]

    def table(g):
        if on_g[0] is None or not on_g[0].on(g.grid):
            on_g[0] = Located(g.grid, at)
        gf = np.maximum(f * np.maximum(g.eval(on_g[0]), 0.0), 0.0)
        density, vals = _product_density(comp, g), gf * comp._nwn * pw
        m = RadialDensity._table(comp.dim, layout, vals,
                                 *_pieces(_shell(density, comp.dim), layout, vals),
                                 _product_tail(comp, g), density, comp._hi, comp._window_k)
        return m, m.mass_at(at_pts)
    return table


def _weigh_point(comp, g):
    """An atom or a shell with its mass times g at its radius."""
    if isinstance(comp, Atom):
        if comp.weight == 0.0:
            return comp
        d = float(np.linalg.norm(comp.location))
        val = g.center_value if d == 0.0 else float(np.atleast_1d(g.eval(d))[0])
        if math.isinf(val):
            raise InfiniteEnergy("weight function is infinite at an atom")
        return Atom(comp.location, comp.weight * val)
    if isinstance(comp, SphericalShell):
        val = float(np.atleast_1d(g.eval(comp.radius))[0])
        return SphericalShell(comp.dim, comp.radius, comp.total * val)
    raise NonRadialMeasure(f"cannot weight {comp!r}")


def _product_tail(comp: RadialDensity, g):
    """Power-law tail of comp times g, from both tails."""
    if comp.tail is None:
        return None
    gc = float(getattr(g, "tail_coeff", 0.0) or 0.0)
    ge = float(getattr(g, "tail_exp", 0.0) or 0.0)
    return (comp.tail[0] * gc, comp.tail[1] + ge)


def _product_density(comp: RadialDensity, g):
    """The density of comp times the weight g."""
    return lambda s: np.maximum(
        comp.density_at(s) * np.maximum(np.asarray(g.eval(s), dtype=float), 0.0), 0.0)
