"""Radial profiles and the exact (quadrature-level) solver for
-Delta_p u = nu on R^n with radial measure data and decay at infinity.

The solution operator is the closed-form radial integration

    u(r) = int_r^inf ( nu(B(0, s)) / (n omega_n s^{n-1}) )^{1/(p-1)} ds,

the unique radial p-superharmonic potential with Riesz measure nu and
liminf 0 at infinity.  Because ball masses are exact, the only error is
1-D quadrature error between grid nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergentTail, NonMonotoneProfile, NonRadialMeasure
from .measure import RadialDensity, RadonMeasure
from .params import DEFAULT_QUAD, ProblemParams, QuadratureConfig, validate
from .quadrature import (_HEAD_FIT, Located, decade_tail, gauss_rule, log_bisect, panel_nodes,
                         panel_sum, power_integral, power_law_head, segment_integral,
                         segment_integrand, segment_table)

_TINY = 1e-300


class RadialFunction:
    """Radial profile on a log grid with an analytic power-law tail.

    values hold u(r_i); beyond the last node u(r) = tail_coeff * r**(-tail_exp);
    center_value is u(0+) (math.inf allowed).  deriv, when present, holds
    du/dr at the nodes (exact for solver output, monotone_deriv's monotone
    estimate for potential profiles), the slopes of the log-log cubic
    Hermite interpolant between nodes; without it u is a power law there.
    Solver output instead carries its segment table (partial, a
    quadrature.segment_table of |u'| at each segment's Gauss points):
    between nodes it falls from a node by the table's integral, and its
    slope is the table's integrand.
    """

    def __init__(self, grid, values, tail_coeff=0.0, tail_exp=0.0,
                 center_value=None, deriv=None, partial=None):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.grid.shape != self.values.shape or self.grid.ndim != 1:
            raise ValueError("grid and values must be matching 1-D arrays")
        if np.any(self.values < 0):
            raise ValueError("profile values must be >= 0")
        self.tail_coeff = float(tail_coeff)
        self.tail_exp = float(tail_exp)
        self.center_value = float(values[0]) if center_value is None else float(center_value)
        self.deriv = None if deriv is None else np.asarray(deriv, dtype=float)
        self._partial = partial
        with np.errstate(divide="ignore"):
            self._lng = np.log(self.grid)
            self._lnv = np.where(self.values > 0, np.log(np.maximum(self.values, _TINY)), -np.inf)
        # node slopes d log u / d log r of the cubic Hermite interpolant
        self._slope = None if deriv is None else \
            self.grid * self.deriv / np.maximum(self.values, _TINY)
        self._abs_deriv = None

    def __repr__(self):
        return (f"RadialFunction(nodes={len(self.grid)}, u(0)={self.center_value:.6g}, "
                f"tail={self.tail_coeff:.6g}*r^-{self.tail_exp:.6g})")

    # -- evaluation ------------------------------------------------------
    def eval(self, r):
        """u at radii r (or located on this grid): monotone log-log
        interpolation on the grid, analytic tail beyond, center value at 0."""
        keep = isinstance(r, Located)  # a location handed in may be read again
        loc = r if keep else Located(self.grid, r)
        if not loc.on(self.grid):
            raise ValueError("radii located on another grid")
        out = np.full(loc.size, self.center_value)  # the value at r = 0
        low = (loc.radii > 0) & (loc.radii < self.grid[0])
        out[low] = self._eval_below(loc.radii[low])
        out[loc.beyond] = self.tail_coeff * loc.r_beyond ** (-self.tail_exp) \
            if self.tail_coeff else 0.0
        out[loc.mid] = self._eval_grid(loc, keep)
        at, node = loc.on_edge()
        out[at] = self.values[node]  # stored node values verbatim, grid[-1] too
        out[~(loc.radii >= 0)] = np.nan  # a NaN or negative r is no radius
        return float(out[0]) if loc.shape == () else out.reshape(loc.shape)

    def _eval_grid(self, loc, keep):
        """u at the located segment radii.  A location that may be read
        again (keep) holds its place in log r for the next read."""
        v, idx = self.values, loc.idx
        v0, v1 = v[idx], v[idx + 1]
        if self._partial is not None:  # solver output
            return np.clip(v0 - segment_integral(self._partial, loc), v1, v0)
        pos = (v0 > 0) & (v1 > 0)
        sel = slice(None) if np.all(pos) else pos  # views when all positive
        i = idx[sel]
        i1 = i + 1
        if keep and loc.log is None:
            loc.log = self._log_place(loc.r, idx)
        t, h = (x[sel] for x in loc.log) if keep else self._log_place(loc.r[sel], i)
        y0, y1 = self._lnv[i], self._lnv[i1]
        if self._slope is None:
            val = np.exp(y0 * (1 - t) + y1 * t)
        else:  # cubic Hermite in log-log with the node slopes
            val = _log_hermite(t, h, y0, y1, self._slope[i], self._slope[i1])
        if sel is not pos:
            return val
        out = np.empty_like(v0)
        out[pos] = val
        lin = ~pos
        g, i = self.grid, idx[lin]
        t = (loc.r[lin] - g[i]) / (g[i + 1] - g[i])
        out[lin] = v0[lin] * (1 - t) + v1[lin] * t
        return out

    def _log_place(self, r, i):
        """The place t in log r of radii r in segments i, and h the
        segments' width there."""
        with np.errstate(divide="ignore", invalid="ignore"):
            h = self._lng[i + 1] - self._lng[i]
            return (np.log(r) - self._lng[i]) / h, h

    @property
    def head_slope(self):
        """Log-log slope a of the power law u = values[0] (r / grid[0])^a
        through the first two nodes, which continues u below the grid when
        u(0+) = inf; None for a finite center, one node or a zero value."""
        g, v = self.grid, self.values
        if not math.isinf(self.center_value) or len(v) < 2 or not (v[0] > 0 and v[1] > 0):
            return None
        ratio = v[1] / v[0]  # the difference of the logs where it underflows or overflows
        rise = math.log(ratio) if 0.0 < ratio < math.inf else math.log(v[1]) - math.log(v[0])
        return rise / math.log(g[1] / g[0])

    def _eval_below(self, r):
        g, v = self.grid, self.values
        if math.isinf(self.center_value):
            a = self.head_slope
            return np.full_like(r, math.inf) if a is None else v[0] * (r / g[0]) ** a
        # linear ramp between the center value and the first node
        t = r / g[0]
        return self.center_value * (1 - t) + v[0] * t

    def deriv_at(self, r):
        """du/dr at radii r (or located on this grid): minus abs_deriv,
        except on the grid of solver output, where it is minus the integrand
        of the segment table eval integrates, and the stored slope at nodes."""
        loc = r if isinstance(r, Located) else Located(self.grid, r)
        if self._partial is None:
            out = np.ravel(-self.abs_deriv.eval(loc))
        else:  # abs_deriv only off the table
            out = np.empty(loc.size)
            off = ~loc.mid
            out[off] = -np.ravel(self.abs_deriv.eval(loc.radii[off]))
            out[loc.mid] = -segment_integrand(self._partial, loc)
            at, node = loc.on_edge()
            out[at] = self.deriv[node]
        return float(out[0]) if loc.shape == () else out.reshape(loc.shape)

    @property
    def abs_deriv(self) -> RadialFunction:
        """|u'| as a profile on this grid, built once: the stored or
        differenced node slopes, the tail's A tau r^{-tau-1} beyond the
        grid and, when the first two slopes are positive, their power law
        below it."""
        if self._abs_deriv is None:
            d = np.abs(self.deriv if self.deriv is not None
                       else np.gradient(self.values, self.grid))
            center = math.inf if len(d) > 1 and d[0] > 0 and d[1] > 0 else d[0]
            self._abs_deriv = RadialFunction(self.grid, d, self.tail_coeff * self.tail_exp,
                                             self.tail_exp + 1.0, center)
        return self._abs_deriv

    # -- algebra ---------------------------------------------------------
    def __pow__(self, e: float):
        vals = self.values ** e
        deriv = None
        if self.deriv is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                deriv = np.where(self.values > 0,
                                 e * self.values ** (e - 1.0) * self.deriv, 0.0)
        center = self.center_value ** e if self.center_value > 0 else (
            0.0 if e > 0 else math.inf)
        tail_c = self.tail_coeff ** e if self.tail_coeff > 0 else 0.0
        return RadialFunction(self.grid, vals, tail_c, self.tail_exp * e,
                              center, deriv)

    def scaled(self, c):
        """c u; an array c scales node by node (c[0] the center, c[-1] the tail)."""
        deriv = None if self.deriv is None else c * self.deriv
        return RadialFunction(self.grid, c * self.values, np.ravel(c)[-1] * self.tail_coeff,
                              self.tail_exp, np.ravel(c)[0] * self.center_value, deriv)

    @property
    def sup_norm(self):
        m = float(np.max(self.values)) if len(self.values) else 0.0
        return max(self.center_value, m)

    def is_nonincreasing(self):
        """Whether no node value rises by more than 1e-9 relative."""
        rise = np.diff(self.values)
        return bool(np.all(rise <= 1e-9 * np.maximum(self.values[:-1], _TINY) + 1e-300))

    def truncated(self, level: float) -> RadialFunction:
        """min(u, level).  For solver output the kink radius, where u falls
        through level, is a node, and the segment table holds u's slope at
        each segment's Gauss points beyond it and 0 inside."""
        above = self.values >= level
        if self._partial is None or above.all() or not above.any():
            deriv = None if self.deriv is None else np.where(above, 0.0, self.deriv)
            return RadialFunction(self.grid, np.minimum(self.values, level), self.tail_coeff,
                                  self.tail_exp, min(self.center_value, level), deriv)
        i = int(np.argmin(above)) - 1  # the last node at or above level
        kink = log_bisect(lambda r: self.eval(r) < level, self.grid[i:i + 1],
                          self.grid[i + 1:i + 2], 1e-15)[1][0]
        g = np.union1d(self.grid, [kink])
        inside = g < kink
        vals, deriv = np.where(inside, level, np.minimum(self.eval(g), level)), self.deriv_at(g)
        nodes = panel_nodes(g, len(self._partial))[0]
        slopes = np.where(nodes > kink, -self.deriv_at(nodes), 0.0)
        return RadialFunction(g, vals, self.tail_coeff, self.tail_exp, level,
                              np.where(inside, 0.0, deriv), segment_table(g, slopes))


def _log_hermite(t, h, y0, y1, d0, d1):
    """exp of the cubic Hermite in log-log at places t in segments of log
    width h, with end values y0, y1 and node slopes d0, d1 (d log u / d log r),
    clipped between y0 and y1: h00 y0 + h10 d0 h + h01 y1 + h11 d1 h, summed
    left to right.  Each basis term is formed in turn in one buffer, by the
    operations of 2 t^3 - 3 t^2 + 1 etc. in their order, so the bits are
    those of four basis arrays (d0 and d1 are scaled in place)."""
    t2 = t * t
    t3 = t2 * t
    b, w = np.multiply(t3, 2.0), np.multiply(t2, 3.0)
    b -= w
    b += 1.0  # h00 = 2 t^3 - 3 t^2 + 1
    val = b * y0
    np.multiply(t2, 2.0, out=w)
    np.subtract(t3, w, out=b)
    b += t  # h10 = t^3 - 2 t^2 + t
    d0 *= h
    b *= d0
    val += b
    np.multiply(t3, -2.0, out=b)
    np.multiply(t2, 3.0, out=w)
    b += w  # h01 = -2 t^3 + 3 t^2
    b *= y1
    val += b
    np.subtract(t3, t2, out=b)  # h11 = t^3 - t^2
    d1 *= h
    b *= d1
    val += b
    # keep the interpolant between the node values
    np.clip(val, np.minimum(y0, y1), np.maximum(y0, y1), out=val)
    return np.exp(val, out=val)


def nodewise_max(funcs) -> RadialFunction:
    """Pointwise max of profiles sharing one grid; the tail follows the
    profile that dominates at infinity."""
    funcs = list(funcs)
    g = funcs[0].grid
    for f in funcs[1:]:
        if len(f.grid) != len(g) or not np.allclose(f.grid, g):
            raise ValueError("nodewise_max needs profiles on a shared grid")
    vals = np.max([f.values for f in funcs], axis=0)
    probe = g[-1] * 10.0
    tail_vals = [f.tail_coeff * probe ** (-f.tail_exp) for f in funcs]
    best = int(np.argmax(tail_vals))
    center = max(f.center_value for f in funcs)
    winner = np.argmax([f.values for f in funcs], axis=0)
    deriv = None if any(f.deriv is None for f in funcs) else \
        np.stack([f.deriv for f in funcs])[winner, np.arange(len(g))]
    return RadialFunction(g, vals, funcs[best].tail_coeff, funcs[best].tail_exp,
                          center, deriv)


def zero_profile(quad: QuadratureConfig = DEFAULT_QUAD) -> RadialFunction:
    g = quad.radial_grid()
    return RadialFunction(g, np.zeros_like(g), 0.0, 1.0, 0.0, np.zeros_like(g))


def monotone_deriv(grid, values):
    """du/dr at the nodes from pchip's monotone slopes of log u in log r
    (Fritsch-Carlson: weighted harmonic means of the secants inside, a
    shape-preserving three-point rule at the ends); None unless there are
    at least 3 nodes and every value is finite and positive."""
    g, v = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    if len(v) < 3 or not np.all(np.isfinite(v) & (v > 0)):
        return None
    h = np.diff(np.log(g))
    m = np.diff(np.log(v)) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    same = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    s = np.zeros_like(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        s[1:-1] = np.where(same, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
    for end, (h0, h1, m0, m1) in ((0, (h[0], h[1], m[0], m[1])),
                                  (-1, (h[-1], h[-2], m[-1], m[-2]))):
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        flip = np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0)
        s[end] = 0.0 if np.sign(d) != np.sign(m0) else 3.0 * m0 if flip else d
    return s * v / g


def marked_grid(grid, measures):
    """grid with the radial marks (support edges, shell radii) of the
    measures with mass that lie strictly inside it added as nodes."""
    grid = np.asarray(grid, dtype=float)
    marks = [b for m in measures if m.total_mass() > 0
             for b in m.radial_marks() if grid[0] < b < grid[-1]]
    return np.unique(np.concatenate([grid, marks])) if marks else grid


def solve_points(grid, quad: QuadratureConfig = DEFAULT_QUAD):
    """Radii where the radial solve on grid reads ball masses: the grid,
    the Gauss nodes panel by panel, then grid[0] / 4 and grid[0] / 2 (the
    head's fit points)."""
    nodes, _ = panel_nodes(grid, quad.gauss_order)
    return np.concatenate([grid, nodes.ravel(), grid[0] * _HEAD_FIT[:2]])


def solve_radial_p_laplace(nu: RadonMeasure, params: ProblemParams,
                           quad: QuadratureConfig = DEFAULT_QUAD,
                           grid=None) -> RadialFunction:
    """Radial p-superharmonic potential of a radial measure."""
    grid = marked_grid(quad.radial_grid() if grid is None else grid, [nu])
    pts = solve_points(grid, quad)
    return _solve_on_grid(nu, pts, nu.centered_mass(pts), params, quad, grid)


def _solve_on_grid(nu: RadonMeasure, pts, masses, params: ProblemParams,
                   quad: QuadratureConfig, grid) -> RadialFunction:
    """solve_radial_p_laplace on a grid holding nu's marks, with nu's ball
    masses at pts = solve_points(grid, quad) given."""
    validate(params)
    if not nu.is_radial:
        raise NonRadialMeasure("the radial solver needs a radial measure")
    n, p = params.n, params.p
    nwn = params.sphere_area
    ipm1 = 1.0 / (p - 1.0)
    if nu.total_mass() == 0.0:
        z = np.zeros_like(grid)
        return RadialFunction(grid, z, 0.0, params.tail_exp, 0.0, z)

    def h(s, m=None):
        m = nu.centered_mass(s) if m is None else m
        return (np.maximum(m, 0.0) / (nwn * s ** (n - 1))) ** ipm1

    hv = h(pts, masses)
    # per-segment Gauss integrals of h (panel_nodes' weights)
    weights = (0.5 * np.diff(grid))[:, None] * gauss_rule(quad.gauss_order)[1]
    seg = ((hseg := hv[len(grid):-2].reshape(weights.shape)) * weights).sum(axis=1)

    # tail beyond the last node
    m_end = masses[len(grid) - 1]
    total = nu.total_mass()
    if math.isinf(total):
        tail_val, tail_coeff, tail_exp = _divergent_mass_tail(h, params, quad, grid[-1])
    else:
        # constant ball mass beyond the grid; mass still outside r_max is
        # negligible by construction of finite-mass tails
        tail_exp = params.tail_exp
        tail_coeff = (m_end / nwn) ** ipm1 * (p - 1.0) / (n - p)
        tail_val = tail_coeff * grid[-1] ** (-tail_exp)

    u = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]]) + tail_val
    deriv = -hv[:len(grid)]

    center = u[0] + power_law_head(lambda r, _: h(r), grid[0], hv[[-2, -1, 0]])
    return RadialFunction(grid, u, tail_coeff, tail_exp, center, deriv, segment_table(grid, hseg))


def _divergent_mass_tail(h, params, quad, r_end):
    """Tail of int h beyond r_end for flagged infinite-mass measures, summed
    decade by decade, with the power law fitted far out as the profile's
    tail; DivergentTail when the integral cannot converge."""
    h1 = float(h(np.array([r_end * 1e6]))[0])
    h2 = float(h(np.array([r_end * 1e7]))[0])
    if h1 <= 0:
        return 0.0, 0.0, params.tail_exp
    expo = math.log(h2 / h1) / math.log(10.0)
    if expo >= -1.0 - 1e-9:
        raise DivergentTail("measure grows too fast at infinity for decay at infinity")
    val = decade_tail(h, r_end, quad.gauss_order, quad.rel_tol)
    tail_exp = -(expo + 1.0)
    return val, val * r_end ** tail_exp, tail_exp


def riesz_measure_of(u: RadialFunction, params: ProblemParams) -> RadonMeasure:
    """Radial measure with ball mass n omega_n r^{n-1} |u'(r)|^{p-1},
    reconstructed so node ball masses are exact."""
    validate(params)
    if not u.is_nonincreasing():
        raise NonMonotoneProfile("profile must be nonincreasing")
    n, p = params.n, params.p
    nwn = params.sphere_area
    wn = params.unit_ball_volume
    g = u.grid
    d = u.deriv if u.deriv is not None else np.gradient(u.values, g)
    slope = np.maximum(-d, 0.0)
    mass = nwn * g ** (n - 1) * slope ** (p - 1.0)
    mass = np.maximum.accumulate(mass)

    # a step density, constant below the first node and on each segment
    # (g[i-1], g[i]]: the table integrates it exactly, so node masses are exact
    vals = np.empty(len(g))
    vals[0] = mass[0] / (wn * g[0] ** n)
    vals[1:] = np.diff(mass) / (wn * (g[1:] ** n - g[:-1] ** n))
    vals = np.maximum(vals, 0.0)

    # Potential-type tails u ~ A r^{-(n-p)/(p-1)} have constant ball mass
    # beyond the grid (no density there).  Slower decay means the ball mass
    # keeps growing like r^eta: reconstruct the power-law density tail.
    tail = None
    if u.tail_coeff > 0:
        eta = n - 1 - (u.tail_exp + 1.0) * (p - 1.0)
        if eta > 1e-12:
            m_inf = nwn * (u.tail_coeff * u.tail_exp) ** (p - 1.0)
            tail = (m_inf * eta / nwn, n - eta)
    A, tau = tail or (0.0, 0.0)

    def step(s):
        out = vals[np.minimum(np.searchsorted(g, s), len(g) - 1)]
        above = s > g[-1]
        out[above] = A * s[above] ** (-tau)
        return out

    return RadialDensity(n, g, vals, density_fn=step, tail=tail,
                         allow_infinite_mass=tail is not None)


def riesz_ball_mass(u: RadialFunction, params: ProblemParams, r=None):
    """Ball-mass function n omega_n r^{n-1}|u'|^{p-1} at the grid nodes
    (or given radii) without building a measure."""
    validate(params)
    g = u.grid if r is None else np.asarray(r, dtype=float)
    slope = np.maximum(-u.deriv_at(g), 0.0)
    return params.sphere_area * g ** (params.n - 1) * slope ** (params.p - 1.0)


def dirichlet_energy(u: RadialFunction, params: ProblemParams,
                     weight_gamma: float = 1.0,
                     quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """int |u'|^p u^{gamma-1} n omega_n r^{n-1} dr; inf when divergent."""
    validate(params)
    if weight_gamma < 0:
        raise ValueError("weight_gamma must be >= 0")
    if not u.is_nonincreasing():
        raise NonMonotoneProfile("profile must be nonincreasing")
    n, p, gam = params.n, params.p, float(weight_gamma)
    nwn = params.sphere_area
    g = u.grid
    if not np.any(u.values > 0):
        return 0.0

    def integrand(s):
        loc = Located(g, s)  # one location for u and u'
        du, uv = -u.deriv_at(loc), u.eval(loc)
        out = np.zeros_like(s)
        live = du > 0
        if gam == 1.0:
            out[live] = du[live] ** p
        else:
            ok = live & (uv > 0)
            out[ok] = du[ok] ** p * uv[ok] ** (gam - 1.0)
            if np.any(live & (uv <= 0)):
                out[live & (uv <= 0)] = math.inf
        return out * nwn * s ** (n - 1)

    # grid panels plus the power-law head below the first node
    total = panel_sum(integrand, g, quad.gauss_order) \
        + power_law_head(lambda r, _: integrand(r), g[0])
    if math.isinf(total):
        return math.inf

    # tail: closed form from the analytic profile tail
    if u.tail_coeff > 0:
        A, tau = u.tail_coeff, u.tail_exp
        total += power_integral((A * tau) ** p * (A ** (gam - 1.0)) * nwn,
                                -p * (tau + 1.0) - tau * (gam - 1.0) + (n - 1), g[-1])
    return total
