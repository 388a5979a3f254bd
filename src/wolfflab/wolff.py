"""Wolff potentials, truncated Wolff potentials, support suprema and
cutoff measures.

The potential of a measure mu at x is the improper integral over all
scales of (mu(B(x, r)) / r^{n-p})^{1/(p-1)} dr/r.  One routine,
_wolff_rows, evaluates it at an array of center distances: a pointwise
value is one row, with off-center atoms as step masses at their
distances, and a radial profile is one row per grid distance plus the
center.  The integrand is piecewise smooth between ball-mass breakpoints
(atom distances, support edges relative to x), the integral below the
smallest resolved radius is a local power law handled in closed form, and
beyond the support the ball mass is constant so the tail integrates
analytically: ((p-1)/(n-p)) * M^{1/(p-1)} * r0^{-(n-p)/(p-1)}; infinite
mass is summed decade by decade instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveR, NonRadialMeasure, ZeroMeasure
from .measure import Atom, MassTable, RadialDensity, RadonMeasure, SphericalShell, Sum
from .params import DEFAULT_QUAD, ProblemParams, QuadratureConfig, validate
from .quadrature import (decade_tail, log_bisect, panel_sum, panelize,
                         power_law_head)
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
    radial, atoms = _split(mu)
    dist = np.array([[a.distance_from(x) for a in atoms]])
    val, err = _wolff_rows(radial, atoms, np.array([np.linalg.norm(x)]), dist, params,
                           quad, R, _point_resolution(quad))
    return PotentialValue(float(val[0]), float(err[0]))


def truncated_wolff(mu: RadonMeasure, x, R: float, params: ProblemParams,
                    quad: QuadratureConfig = DEFAULT_QUAD) -> PotentialValue:
    if R is None or R <= 0:
        raise NonpositiveR("truncation radius must be > 0")
    return wolff(mu, x, params, quad, R=R)


def _point_resolution(quad):
    """(Gauss order, panels per decade, bisection rounds, extent tolerance)
    of a pointwise value."""
    return quad.gauss_order, quad.panels_per_decade, 3, quad.rel_tol * 1e-2


def _split(mu):
    """The components of mu with mass: (radial ones, atoms)."""
    live = [c for c in mu.components() if c.total_mass() > 0]
    atoms = [c for c in live if isinstance(c, Atom)]
    return [c for c in live if not isinstance(c, Atom)], atoms


def _wolff_rows(radial, atoms, d, dist, params, quad, R, resolution):
    """W at points with center distances d (one row each) and the error
    estimate of each row.

    radial components enter through their ball masses _radial_mass(d, r);
    atom j is a step mass at distance dist[i, j] from the point of row i.
    resolution = (k, ppd, refine, ext_tol): the core runs on k-point Gauss
    panels, ppd a decade, split at the ball-mass breakpoints and bisected
    up to `refine` times until two successive sums of a row agree to
    rel_tol (the estimate is their last difference: inf without
    refinement, 0 for rows without a core).  It ends where at most ext_tol
    of the mass lies beyond.
    """
    k, ppd, refine, ext_tol = resolution
    ipm1 = 1.0 / (params.p - 1.0)
    e = (params.n - params.p) * ipm1
    weights = np.array([a.weight for a in atoms])
    rows = len(d)
    if not radial and not atoms:
        return np.zeros(rows), np.zeros(rows)

    def integrand(i, r):
        i, r = np.broadcast_arrays(i, r)
        i, r1 = i.ravel(), r.ravel()
        m = sum(c._radial_mass(d[i], r1) for c in radial) \
            + np.sum(weights * (dist[i] < r1[:, None]), axis=1)
        return (np.maximum(m, 0.0) ** ipm1).reshape(r.shape) * r ** (-e - 1.0)

    # ball-mass breakpoints of every row: the support marks seen from d,
    # d itself (where centered atoms enter the ball) and the atom distances
    marks = np.array(sorted({m for c in radial for m in c.radial_marks()}))
    dcol = d[:, None]
    breaks = np.concatenate([np.abs(dcol - marks), dcol + marks, dcol, dist], axis=1)
    first = np.min(np.where(breaks > 0, breaks, math.inf), axis=1)
    gap = np.min([_support_distance(c, d) for c in radial] + list(dist.T), axis=0)
    inside = gap <= 0
    # inside the support the ball mass is a clean power law below the
    # first geometry feature, so the closed-form head starts at r_min (at
    # 2e-3 d far out) but below a quarter of it; outside, nothing lies
    # below the distance to the support
    r_lo = np.minimum(np.maximum(quad.r_min, 2e-3 * d), 0.25 * first)
    if R is not None:
        r_lo = np.minimum(r_lo, 0.5 * R)
    r_lo = np.where(inside, r_lo, gap)
    exts = [c.effective_extent(ext_tol) for c in radial]
    infinite = any(math.isinf(x) for x in exts)
    horizon = np.max([d + x for x in exts if math.isfinite(x)] + list(dist.T)
                     + [2.0 * r_lo], axis=0)
    if infinite:
        horizon = np.maximum(horizon, np.maximum(quad.r_max, 10.0 * np.maximum(d, 1.0)))
    r_hi = horizon if R is None else np.minimum(horizon, R)

    def row_sums(left, right, row):
        nodes_row = np.repeat(row, k)
        sums = panel_sum(lambda r: integrand(nodes_row, r), (left, right), k, rows=len(row))
        return np.bincount(row, weights=sums, minlength=rows)

    live = r_hi > r_lo
    core = np.zeros(rows)
    err = np.where(live, math.inf, 0.0)
    if np.any(live):
        left, right, row = panelize(r_lo[live], r_hi[live], breaks[live], ppd)
        row = np.flatnonzero(live)[row]
        core = row_sums(left, right, row)
        active = live
        for _ in range(refine):
            keep = active[row]
            mid = np.sqrt(left[keep] * right[keep])
            left = np.stack([left[keep], mid], axis=1).ravel()
            right = np.stack([mid, right[keep]], axis=1).ravel()
            row = np.repeat(row[keep], 2)
            cur = row_sums(left, right, row)
            err = np.where(active, np.abs(cur - core), err)
            core = np.where(active, cur, core)
            active = active & (err > quad.rel_tol * np.maximum(np.abs(core), _TINY))
            if not np.any(active):
                break

    head = np.zeros(rows)
    if np.any(inside):
        i_in = np.flatnonzero(inside)
        head[inside] = power_law_head(lambda r, cols: integrand(i_in[cols], r),
                                      r_lo[inside])

    # beyond the horizon: constant ball mass in closed form, or decade by
    # decade for infinite mass
    upper = math.inf if R is None else R
    if infinite:
        tail = np.zeros(rows)
        for i in np.flatnonzero(upper > horizon):
            tail[i] = decade_tail(lambda r: integrand(i, r), horizon[i], k,
                                  quad.rel_tol, upper)
    else:
        total = sum(c.total_mass() for c in radial) + float(np.sum(weights))
        tail = np.where(upper > horizon, total ** ipm1 / e
                        * (horizon ** (-e) - upper ** (-e)), 0.0)
    val = head + core + tail
    val[np.any(dist == 0.0, axis=1)] = math.inf
    return val, np.where(np.isinf(val), 0.0, err)


def _support_distance(c, d):
    """Distance from points at radii d to the support of a radial
    shell or density."""
    if isinstance(c, SphericalShell):
        return np.abs(d - c.radius)
    return np.maximum(np.maximum(c.lo_cut - d, d - c.support_radius()), 0.0)


def wolff_profile(mu: RadonMeasure, params: ProblemParams,
                  quad: QuadratureConfig = DEFAULT_QUAD,
                  d_grid=None, R=None) -> RadialFunction:
    """Radial Wolff-potential profile of a radial measure.

    Evaluates W at a log grid of center distances, batched (the potential
    of a radial measure is radial), and at the center.  The tail
    coefficient is the exact constant-mass asymptote, or for infinite mass
    the power law through the last two values.
    """
    validate(params)
    if not mu.is_radial:
        raise NonRadialMeasure("wolff_profile needs a radial measure")
    if d_grid is None:
        decades = math.log10(quad.r_max / quad.r_min)
        npts = int(round(decades * quad.profile_points_per_decade)) + 1
        d_grid = np.geomspace(quad.r_min, quad.r_max, npts)
    d_grid = np.asarray(d_grid, dtype=float)
    radial, atoms = _split(mu)

    def rows(d, resolution):  # radial atoms sit at the origin
        dist = np.repeat(d[:, None], len(atoms), axis=1)
        return _wolff_rows(radial, atoms, d, dist, params, quad, R, resolution)[0]

    # the constant-mass tail absorbs the sliver of mass beyond a looser
    # horizon, and a profile needs no refinement; but this resolution is
    # good only to about 1e-7 at the center and to 3e-3 near r_min for
    # infinite mass, so those rows keep the pointwise one
    point = _point_resolution(quad)
    total_mass = mu.total_mass()
    if math.isfinite(total_mass):
        coarse = (quad.profile_gauss_order, quad.profile_r_panels_per_decade, 0,
                  max(quad.rel_tol * 1e-2, 1e-7))
        vals = np.append(rows(d_grid, coarse), rows(np.zeros(1), point))
    else:
        vals = rows(np.append(d_grid, 0.0), point)
    vals, center = vals[:-1], vals[-1]
    ipm1 = 1.0 / (params.p - 1.0)
    tau = (params.n - params.p) * ipm1
    coeff = total_mass ** ipm1 / tau if R is None else 0.0
    if math.isinf(total_mass):  # the power law through the last two values
        if len(d_grid) >= 2 and vals[-1] > 0 and vals[-2] > 0:
            tau = math.log(vals[-2] / vals[-1]) / math.log(d_grid[-1] / d_grid[-2])
            coeff = vals[-1] * d_grid[-1] ** tau
        else:
            tau, coeff = params.tail_exp, 0.0
    return RadialFunction(d_grid, vals, coeff, tau, center, None, smooth=True)


def wolff_sup_on_support(mu: RadonMeasure, params: ProblemParams,
                         quad: QuadratureConfig = DEFAULT_QUAD,
                         sample_budget: int = 200) -> float:
    """Supremum of the potential over a deterministic sample of supp mu.

    A lower bound of the true sup converging under sample refinement;
    exact inf for atomic components.
    """
    validate(params)
    radial, atoms = _split(mu)
    if not radial and not atoms:
        raise ZeroMeasure("sup over the support of the zero measure")
    if atoms:
        return math.inf  # the potential blows up at the atom itself
    # sample radii on the supports of the radial components
    radii = []
    nd = max(1, sum(1 for c in radial if isinstance(c, MassTable)))
    per = max(8, sample_budget // max(nd, 1))
    include_zero = False
    for c in radial:
        if isinstance(c, SphericalShell):
            radii.append(np.array([c.radius]))
        elif isinstance(c, MassTable):
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
    return max(best, prof.center_value) if include_zero else best


def cutoff_measure(mu: RadonMeasure, k: int, params: ProblemParams,
                   quad: QuadratureConfig = DEFAULT_QUAD) -> RadonMeasure:
    """Restriction of mu to {W mu <= k} intersected with the closed ball
    of radius 2^k.

    Atoms never survive (the potential is infinite on them); radial
    densities are restricted with interpolated crossing radii so the
    admissible set grows with k.  A product table (multiply_radial) has no
    tabulated values to restrict and raises NonRadialMeasure.
    """
    validate(params)
    if k < 1:
        raise ValueError("k must be >= 1")
    atom_free, atoms = _split(mu)
    if any(np.any(a.location) for a in atoms):
        raise NonRadialMeasure("cutoffs need a radial measure")
    if any(not isinstance(c, (SphericalShell, RadialDensity)) for c in atom_free):
        raise NonRadialMeasure("cutoffs need tabulated radial densities")

    ball_cap = 2.0 ** k
    kept = []
    nontrivial = bool(atoms)  # atoms are always cut away
    prof = wolff_profile(Sum(atom_free), params, quad) if atom_free else None

    def w_at(s):
        s = np.asarray(s, dtype=float)
        vals = prof.eval(s) if prof is not None else np.zeros_like(s)
        # prof covers the atom-free part; origin atoms contribute their
        # closed-form potential on top
        e = (params.n - params.p) / (params.p - 1.0)
        return vals + sum(a.weight ** (1.0 / (params.p - 1.0)) / e * s ** (-e)
                          for a in atoms)

    for c in atom_free:
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
    """Radius where W crosses k between samples i0 and i1."""
    above = w_at(s[i0:i0 + 1]) > k
    a, b = log_bisect(lambda m: (w_at(m) > k) != above, s[i0:i0 + 1], s[i1:i1 + 1], 1e-12)
    return float(np.sqrt(a * b)[0])


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
