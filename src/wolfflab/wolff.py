"""Wolff potentials, truncated Wolff potentials, support suprema and
cutoff measures.

The potential of a measure mu at x is the improper integral over all
scales of (mu(B(x, r)) / r^{n-p})^{1/(p-1)} dr/r.  The integrand is
piecewise smooth between ball-mass breakpoints (atom distances, support
edges relative to x), the integral below the smallest resolved radius is
a local power law handled in closed form, and beyond the support the
ball mass is constant so the tail integrates analytically:
((p-1)/(n-p)) * M^{1/(p-1)} * r0^{-(n-p)/(p-1)}.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveR, NonRadialMeasure, ZeroMeasure
from .measure import Atom, RadialDensity, RadonMeasure, SphericalShell, Sum
from .params import DEFAULT_QUAD, ProblemParams, QuadratureConfig, validate
from .quadrature import decade_tail, panel_sum, panelize, power_law_head
from .radial_pde import RadialFunction

_TINY = 1e-300


@dataclass(frozen=True)
class PotentialValue:
    value: float
    quad_error_estimate: float = 0.0

    def __float__(self):
        return float(self.value)


def wolff(mu: RadonMeasure, x, params: ProblemParams,
          quad: QuadratureConfig = DEFAULT_QUAD, R=None) -> PotentialValue:
    """Wolff potential of mu at the point x (truncated at R if given).

    Divergence is a value, not an error: returns inf when x carries an
    atom or when the integral diverges at either end.
    """
    validate(params)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (mu.dim,):
        raise ValueError(f"point has dimension {x.shape[0]}, measure lives on R^{mu.dim}")
    if R is not None and R <= 0:
        raise NonpositiveR("truncation radius must be > 0")
    return _wolff_point(mu, x, params, quad, R)


def truncated_wolff(mu: RadonMeasure, x, R: float, params: ProblemParams,
                    quad: QuadratureConfig = DEFAULT_QUAD) -> PotentialValue:
    if R is None or R <= 0:
        raise NonpositiveR("truncation radius must be > 0")
    return wolff(mu, x, params, quad, R=R)


def _wolff_point(mu, x, params, quad, R):
    n, p = params.n, params.p
    ipm1 = 1.0 / (p - 1.0)
    comps = [c for c in mu.components() if c.total_mass() > 0]
    if not comps:
        return PotentialValue(0.0, 0.0)
    d = float(np.linalg.norm(x))

    for c in comps:
        if isinstance(c, Atom) and c.distance_from(x) == 0.0:
            return PotentialValue(math.inf, 0.0)

    def massfn(r):
        out = np.zeros_like(r)
        for c in comps:
            if isinstance(c, Atom):
                out += c.weight * (c.distance_from(x) < r)
            else:
                out += c._radial_mass(np.full_like(r, d), r)
        return out

    breaks = set()
    finite_extent = 0.0
    infinite = False
    min_dist = math.inf
    for c in comps:
        if isinstance(c, Atom):
            dist = c.distance_from(x)
            breaks.add(dist)
            finite_extent = max(finite_extent, dist)
            min_dist = min(min_dist, dist)
        else:
            breaks.update(c.breakpoints(d))
            ext = c.effective_extent(quad.rel_tol * 1e-2)
            if math.isinf(ext):
                infinite = True
            else:
                finite_extent = max(finite_extent, d + ext)
            min_dist = min(min_dist, float(_support_distance(c, d)))
    if d > 0:
        breaks.add(d)
    breaks = sorted(b for b in breaks if b > 0)

    def integrand(r):
        m = massfn(r)
        return (np.maximum(m, 0.0)) ** ipm1 * r ** (-(n - p) * ipm1 - 1.0)

    head = 0.0
    if min_dist > 0:
        # no mass below the distance to the support: start there
        if R is not None and R <= min_dist:
            return PotentialValue(0.0, 0.0)
        r_lo = min_dist
    else:
        r_lo = min(quad.r_min, 0.25 * breaks[0] if breaks else quad.r_min)
        if R is not None:
            r_lo = min(r_lo, 0.5 * R)
        # local power law below r_lo
        head = power_law_head(integrand, r_lo)
        if math.isinf(head):
            return PotentialValue(math.inf, 0.0)

    if infinite:
        horizon = max(finite_extent, quad.r_max, 10.0 * max(d, 1.0))
    else:
        horizon = max(finite_extent, r_lo * 2.0)
    r_hi = min(R, horizon) if R is not None else horizon

    core = 0.0
    err = 0.0
    if r_hi > r_lo:
        left, _, _ = panelize(r_lo, r_hi, breaks, quad.panels_per_decade)
        core, err = _adaptive_panels(integrand, np.append(left, r_hi), quad)

    tail = 0.0
    if R is None or R > horizon:
        if infinite:
            tail = decade_tail(integrand, horizon, quad.gauss_order, quad.rel_tol,
                               upper=math.inf if R is None else R)
            if math.isinf(tail):
                return PotentialValue(math.inf, 0.0)
        else:
            m_tot = float(massfn(np.array([horizon * (1 + 1e-12)]))[0])
            e = (n - p) * ipm1
            c_t = m_tot ** ipm1 / e
            if R is None:
                tail = c_t * horizon ** (-e)
            else:
                tail = c_t * (horizon ** (-e) - R ** (-e))
    total = head + core + tail
    return PotentialValue(float(total), float(err))


def _support_distance(c, d):
    """Distance from points at radii d to the support of a radial component."""
    d = np.asarray(d, dtype=float)
    if isinstance(c, Atom):
        return d  # radial atoms sit at the origin
    if isinstance(c, SphericalShell):
        return np.abs(d - c.radius)
    return np.maximum(np.maximum(c.lo_cut - d, d - c.outer_extent()), 0.0)


def _adaptive_panels(f, edges, quad, max_refine=3):
    """Panel sum refined by geometric bisection until two successive sums
    agree to rel_tol; returns (sum, last difference)."""
    prev = panel_sum(f, edges, quad.gauss_order)
    err = math.inf
    for _ in range(max_refine):
        new = np.empty(2 * len(edges) - 1)
        new[0::2] = edges
        new[1::2] = np.sqrt(edges[:-1] * edges[1:])
        edges = new
        cur = panel_sum(f, edges, quad.gauss_order)
        err = abs(cur - prev)
        prev = cur
        if err <= quad.rel_tol * max(abs(cur), _TINY):
            break
    return prev, err


def wolff_profile(mu: RadonMeasure, params: ProblemParams,
                  quad: QuadratureConfig = DEFAULT_QUAD,
                  d_grid=None, R=None) -> RadialFunction:
    """Radial Wolff-potential profile of a radial measure.

    Evaluates W at a log grid of center distances in one vectorized pass
    (the potential of a radial measure is radial); the tail coefficient
    is the exact constant-mass asymptote.
    """
    validate(params)
    if not mu.is_radial:
        raise NonRadialMeasure("wolff_profile needs a radial measure")
    n, p = params.n, params.p
    ipm1 = 1.0 / (p - 1.0)
    e = (n - p) * ipm1
    comps = [c for c in mu.components() if c.total_mass() > 0]

    if d_grid is None:
        decades = math.log10(quad.r_max / quad.r_min)
        npts = int(round(decades * quad.profile_points_per_decade)) + 1
        d_grid = np.geomspace(quad.r_min, quad.r_max, npts)
    d_grid = np.asarray(d_grid, dtype=float)

    if not comps:
        z = np.zeros_like(d_grid)
        return RadialFunction(d_grid, z, 0.0, params.tail_exp, 0.0, None)

    total_mass = sum(c.total_mass() for c in comps)
    # the analytic constant-mass tail absorbs the sliver of mass beyond
    # the horizon, so the profile can use a looser horizon than pointwise
    extents = [c.effective_extent(max(quad.rel_tol * 1e-2, 1e-7)) for c in comps]
    if any(math.isinf(x) for x in extents) or math.isinf(total_mass):
        # rare flagged-infinite cases: pointwise fallback
        vals = np.array([
            _wolff_point(mu, _ray_point(d, mu.dim), params, quad, R).value
            for d in d_grid])
        return _profile_from_values(d_grid, vals, total_mass, params, mu, quad, R)
    ext = max(extents)

    def integrand(d, r):
        m = sum(c._radial_mass(d.ravel(), r.ravel()) for c in comps).reshape(r.shape)
        return np.maximum(m, 0.0) ** ipm1 * r ** (-e - 1.0)

    # ball-mass breakpoints of every distance: the support marks seen from
    # d, plus d itself (where the centered atoms enter the ball)
    marks = np.array(sorted({m for c in comps for m in c.radial_marks()}))
    dcol = d_grid[:, None]
    breaks = np.concatenate([np.abs(dcol - marks), dcol + marks, dcol], axis=1)
    first = np.min(np.where(breaks > 0, breaks, math.inf), axis=1)
    min_dist = np.min([_support_distance(c, d_grid) for c in comps], axis=0)
    in_support = min_dist <= 0
    # in-support: the ball mass is a clean power law below the first
    # geometry feature, so the closed-form head can start higher
    r_lo = np.minimum(quad.r_min, 0.25 * first)
    r_lo = np.maximum(r_lo, np.minimum(d_grid * 2e-3, 0.25 * first))
    if R is not None:
        r_lo = np.minimum(r_lo, 0.5 * R)
    r_lo = np.where(in_support, r_lo, min_dist)
    r_out = np.maximum(d_grid + ext, r_lo * 2.0)
    r_hi = r_out if R is None else np.minimum(r_out, R)

    core = np.zeros_like(d_grid)
    live = r_hi > r_lo
    if np.any(live):
        k = quad.profile_gauss_order
        left, right, row = panelize(r_lo[live], r_hi[live], breaks[live],
                                    quad.profile_r_panels_per_decade)
        d_nodes = np.repeat(d_grid[live][row], k)
        sums = panel_sum(lambda r: integrand(d_nodes, r), (left, right), k, rows=len(row))
        core[live] = np.bincount(row, weights=sums, minlength=int(np.sum(live)))

    # head below r_lo for distances inside the support
    head = np.zeros_like(d_grid)
    if np.any(in_support):
        d_in = d_grid[in_support]
        head[in_support] = power_law_head(
            lambda r: integrand(np.broadcast_to(d_in, r.shape), r), r_lo[in_support])

    # tail beyond the support: constant ball mass
    tail_coeff = total_mass ** ipm1 / e
    if R is None:
        tail = tail_coeff * r_out ** (-e)
    else:
        tail = np.where(R > r_out, tail_coeff * (r_out ** (-e) - R ** (-e)), 0.0)
    vals = head + core + tail

    center = _wolff_point(mu, np.zeros(mu.dim), params, quad, R).value
    tc = tail_coeff if R is None else 0.0
    return RadialFunction(d_grid, vals, tc, e, center, None, smooth=True)


def _ray_point(d, dim):
    x = np.zeros(dim)
    x[0] = d
    return x


def _profile_from_values(d_grid, vals, total_mass, params, mu, quad, R):
    center = _wolff_point(mu, np.zeros(mu.dim), params, quad, R).value
    if len(d_grid) >= 2 and vals[-1] > 0 and vals[-2] > 0:
        tau = math.log(vals[-2] / vals[-1]) / math.log(d_grid[-1] / d_grid[-2])
        coeff = vals[-1] * d_grid[-1] ** tau
    else:
        tau, coeff = params.tail_exp, 0.0
    return RadialFunction(d_grid, vals, coeff, tau, center, None,
                          smooth=bool(np.all(vals > 0)))


def wolff_sup_on_support(mu: RadonMeasure, params: ProblemParams,
                         quad: QuadratureConfig = DEFAULT_QUAD,
                         sample_budget: int = 200) -> float:
    """Supremum of the potential over a deterministic sample of supp mu.

    A lower bound of the true sup converging under sample refinement;
    exact inf for atomic components.
    """
    validate(params)
    comps = [c for c in mu.components() if c.total_mass() > 0]
    if not comps:
        raise ZeroMeasure("sup over the support of the zero measure")
    for c in comps:
        if isinstance(c, Atom):
            return math.inf  # the potential blows up at the atom itself
    # remaining components are radial: sample radii on the supports
    radii = []
    nd = max(1, sum(1 for c in comps if isinstance(c, RadialDensity)))
    per = max(8, sample_budget // max(nd, 1))
    include_zero = False
    for c in comps:
        if isinstance(c, SphericalShell):
            radii.append(np.array([c.radius]))
        elif isinstance(c, RadialDensity):
            hi = c.support_radius()
            if math.isinf(hi):
                hi = quad.r_max
            lo = max(c.lo_cut, hi * 1e-8, quad.r_min * 1e-2)
            if c.lo_cut == 0.0:
                include_zero = True
            radii.append(np.geomspace(lo, hi, per))
    d = np.unique(np.concatenate(radii))
    prof = wolff_profile(mu, params, quad, d_grid=d)
    best = float(np.max(prof.values))
    if include_zero:
        best = max(best, _wolff_point(mu, np.zeros(mu.dim), params, quad, None).value)
    return best


def cutoff_measure(mu: RadonMeasure, k: int, params: ProblemParams,
                   quad: QuadratureConfig = DEFAULT_QUAD) -> RadonMeasure:
    """Restriction of mu to {W mu <= k} intersected with the closed ball
    of radius 2^k.

    Atoms never survive (the potential is infinite on them); radial
    densities are restricted with interpolated crossing radii so the
    admissible set grows with k.
    """
    validate(params)
    if k < 1:
        raise ValueError("k must be >= 1")
    comps = mu.components()
    live = [c for c in comps if c.total_mass() > 0]
    if not live:
        return mu
    for c in live:
        if isinstance(c, Atom) and np.any(c.location):
            raise NonRadialMeasure("cutoffs need a radial measure")

    ball_cap = 2.0 ** k
    kept = []
    nontrivial = False
    atom_free = [c for c in live if not isinstance(c, Atom)]
    prof = None
    if atom_free:
        prof = wolff_profile(Sum(atom_free) if len(atom_free) > 1 else atom_free[0],
                             params, quad)

    def w_at(s):
        vals = prof.eval(s) if prof is not None else np.zeros_like(np.asarray(s, float))
        # prof covers the atom-free part; origin atoms contribute their
        # closed-form potential on top
        add = np.zeros_like(np.asarray(s, dtype=float))
        for c in live:
            if isinstance(c, Atom):
                e = (params.n - params.p) / (params.p - 1.0)
                add = add + c.weight ** (1.0 / (params.p - 1.0)) / e \
                    * np.asarray(s, dtype=float) ** (-e)
        return vals + add

    for c in live:
        if isinstance(c, Atom):
            nontrivial = True  # atoms are always cut away
            continue
        if isinstance(c, SphericalShell):
            if c.radius <= ball_cap and float(np.atleast_1d(w_at(np.array([c.radius])))[0]) <= k:
                kept.append(c)
            else:
                nontrivial = True
            continue
        # radial density: restrict to the contiguous admissible run
        lo_edge = c.lo_cut
        hi_edge = c.support_radius()
        if math.isinf(hi_edge):
            hi_edge = quad.r_max
        s = np.geomspace(max(lo_edge, hi_edge * 1e-9, quad.r_min * 1e-3), hi_edge, 257)
        ok = (w_at(s) <= k) & (s <= ball_cap)
        if not np.any(ok):
            nontrivial = True
            continue
        first, last = np.argmax(ok), len(ok) - 1 - np.argmax(ok[::-1])
        if np.all(ok[first:last + 1]) and ok[-1] and first == 0 and hi_edge <= ball_cap \
                and (lo_edge > 0 or float(np.atleast_1d(w_at(np.array([max(hi_edge * 1e-10, 1e-12)])))[0]) <= k):
            kept.append(c)  # identity: cutoff does not bite
            continue
        nontrivial = True
        lo_new = lo_edge if first == 0 else _crossing(s, w_at, k, first - 1, first)
        hi_new = hi_edge if ok[-1] else _crossing(s, w_at, k, last, last + 1)
        hi_new = min(hi_new, ball_cap, hi_edge)
        if hi_new <= lo_new:
            continue
        kept.append(RadialDensity(
            c.dim, c.grid, c.values, density_fn=c.density_fn,
            tail=c.tail if (c.tail is not None and hi_new >= float(c.grid[-1])) else None,
            cut=hi_new if math.isfinite(hi_new) else None,
            lo_cut=max(lo_new, c.lo_cut),
            allow_infinite_mass=c.allow_infinite_mass, interp=c.interp,
            window_order=c._window_k))

    if not nontrivial:
        return mu
    if not kept:
        from .measure import zero_measure
        return zero_measure(mu.dim)
    out = Sum(kept) if len(kept) > 1 else kept[0]
    _check_cutoff_energy(out, k, params, quad)
    return out


def _crossing(s, w_at, k, i0, i1):
    """Radius where W crosses k between samples i0 and i1 (log bisection)."""
    a, b = s[i0], s[i1]
    fa = float(np.atleast_1d(w_at(np.array([a])))[0]) - k
    for _ in range(40):
        m = math.sqrt(a * b)
        fm = float(np.atleast_1d(w_at(np.array([m])))[0]) - k
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
        if b / a < 1 + 1e-12:
            break
    return math.sqrt(a * b)


def _check_cutoff_energy(mu_k, k, params, quad):
    from .measure import integrate_against
    total = mu_k.total_mass()
    if total == 0:
        return
    prof = wolff_profile(mu_k, params, quad)
    energy = integrate_against(mu_k, prof.eval, quad)
    if energy > k * total * 1.02:
        warnings.warn(
            f"cutoff energy {energy:.4g} exceeds k*mass = {k * total:.4g}; "
            "quadrature may be too coarse", stacklevel=2)
