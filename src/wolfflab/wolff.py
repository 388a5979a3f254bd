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

from .errors import BadPoint, NonpositiveR, NonRadialMeasure, ZeroMeasure
from .measure import (Atom, RadialDensity, RadonMeasure, SphericalShell, Sum,
                      integrate_against, zero_measure)
from .params import DEFAULT_QUAD, ProblemParams, QuadratureConfig, validate
from .quadrature import (decade_tail, log_bisect, panel_sum, panelize,
                         power_law_head)
from .radial_pde import RadialFunction, monotone_deriv

_TINY = 1e-300
# head start on a support edge, relative to the usual one
_EDGE_HEAD = 1e-3
# sample radii shared by the densities of wolff_sup_on_support
_SUP_SAMPLES = 200


@dataclass(frozen=True)
class PotentialValue:
    """A potential, its quadrature error estimate and whether refinement
    stopped before its depth limit (every panel met its share of
    rel_tol).  The flag is stricter than estimate <= rel_tol * |value|:
    a row can pass that test with some panels still above their share."""
    value: float
    quad_error_estimate: float = 0.0
    converged: bool = True

    def __float__(self):
        return float(self.value)


def wolff(mu: RadonMeasure, x, params: ProblemParams,
          quad: QuadratureConfig = DEFAULT_QUAD, R=None) -> PotentialValue:
    """Wolff potential of mu at the point x (truncated at R if given).

    Divergence is a value, not an error: returns inf when x carries an
    atom or when the integral diverges at either end.  A point of the
    wrong dimension or with a non-finite coordinate raises BadPoint, and
    an R that is not > 0 (NaN included) NonpositiveR.
    """
    validate(params)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (mu.dim,):
        raise BadPoint(f"point has dimension {x.shape[0]}, measure lives on R^{mu.dim}")
    if not np.all(np.isfinite(x)):
        raise BadPoint(f"point has a non-finite coordinate: {x}")
    if R is not None and not R > 0:
        raise NonpositiveR(f"truncation radius must be > 0, got {R}")
    radial, atoms = _split(mu)
    dist = np.array([[a.distance_from(x) for a in atoms]])
    val, err, converged = _wolff_rows(radial, atoms, np.array([np.linalg.norm(x)]), dist,
                                      params, quad, R, _point_resolution(quad))
    return PotentialValue(float(val[0]), float(err[0]), bool(converged[0]))


def truncated_wolff(mu: RadonMeasure, x, R: float, params: ProblemParams,
                    quad: QuadratureConfig = DEFAULT_QUAD) -> PotentialValue:
    if R is None or not R > 0:
        raise NonpositiveR(f"truncation radius must be > 0, got {R}")
    return wolff(mu, x, params, quad, R=R)


def _point_resolution(quad):
    """(Gauss order, panels per decade, bisection depth, extent tolerance)
    of a pointwise value."""
    return quad.gauss_order, quad.panels_per_decade, 3, quad.rel_tol * 1e-2


def _split(mu):
    """The components of mu with mass: (radial ones, atoms)."""
    live = [c for c in mu.components() if c.total_mass() > 0]
    atoms = [c for c in live if isinstance(c, Atom)]
    return [c for c in live if not isinstance(c, Atom)], atoms


def _wolff_rows(radial, atoms, d, dist, params, quad, R, resolution):
    """W at points with center distances d (one row each), the error
    estimate of each row and whether its refinement converged.

    radial components enter through their ball masses _radial_mass(d, r);
    atom j is a step mass at distance dist[i, j] from the point of row i.
    resolution = (k, ppd, refine, ext_tol): the core runs on k-point Gauss
    panels, ppd a decade, split at the ball-mass breakpoints and refined
    panel by panel (globally adaptive, as in QUADPACK): the first round
    bisects every panel, and each later one only the panels whose estimate
    exceeds their share rel_tol * |row sum| / (panels in the row), so no
    panel is bisected more than `refine` times.  A bisected panel's
    estimate is |its halves' sum - its sum|, split evenly between the
    halves; a row's estimate is the sum over its panels (inf without
    refinement, 0 for rows without a core or with an infinite value), and
    it converged when no panel is above its share after the last round.
    The core ends where at most ext_tol min(1, p - 1) of the mass lies
    beyond, as the integrand goes like the mass to the 1/(p - 1).
    """
    k, ppd, refine, ext_tol = resolution
    ipm1 = 1.0 / (params.p - 1.0)
    e = (params.n - params.p) * ipm1
    weights = np.array([a.weight for a in atoms])
    rows = len(d)
    if not radial and not atoms:
        return np.zeros(rows), np.zeros(rows), np.ones(rows, dtype=bool)

    def integrand(i, r):
        i, r = np.broadcast_arrays(i, r)
        i, r1 = i.ravel(), r.ravel()
        m = sum(c._radial_mass(d[i], r1) for c in radial) \
            + np.sum(weights * (dist[i] < r1[:, None]), axis=1)
        # (m r^{p-n})^{1/(p-1)} / r: as p -> 1+, m^{1/(p-1)} alone underflows
        # where r^{-e-1} overflows
        return (np.maximum(m, 0.0).reshape(r.shape) * r ** (params.p - params.n)) ** ipm1 / r

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
    # on a support edge or shell the ball mass is a power law only to
    # first order in r, so the head starts lower there (error ~ r_lo^2)
    on_edge = (d > 0) & np.isin(d, [e for c in radial for e in _support_edges(c)])
    r_lo = np.where(on_edge, _EDGE_HEAD * r_lo, r_lo)
    if R is not None:
        r_lo = np.minimum(r_lo, 0.5 * R)
    r_lo = np.where(inside, r_lo, gap)
    exts = [c.effective_extent(ext_tol * min(1.0, params.p - 1.0)) for c in radial]
    infinite = any(math.isinf(x) for x in exts)
    horizon = np.max([d + x for x in exts if math.isfinite(x)] + list(dist.T)
                     + [2.0 * r_lo], axis=0)
    if infinite:
        horizon = np.maximum(horizon, np.maximum(quad.r_max, 10.0 * np.maximum(d, 1.0)))
    r_hi = horizon if R is None else np.minimum(horizon, R)

    def sums(left, right, row):  # one Gauss sum per panel
        nodes_row = np.repeat(row, k)
        return panel_sum(lambda r: integrand(nodes_row, r), (left, right), k, rows=len(row))

    def above_share(est, row, core):  # panels whose estimate exceeds their share
        count = np.maximum(np.bincount(row, minlength=rows), 1)
        return est > (quad.rel_tol * np.maximum(np.abs(core), _TINY) / count)[row]

    live = r_hi > r_lo
    core, err, converged = np.zeros(rows), np.zeros(rows), np.ones(rows, dtype=bool)
    if np.any(live):
        left, right, row = panelize(r_lo[live], r_hi[live], breaks[live], ppd)
        row = np.flatnonzero(live)[row]
        s = sums(left, right, row)
        core = np.bincount(row, weights=s, minlength=rows)
        est = np.full(len(s), math.inf)
        for _ in range(refine):
            split = above_share(est, row, core)
            if not np.any(split):
                break
            keep = ~split
            mid = np.sqrt(left[split] * right[split])
            left2 = np.stack([left[split], mid], axis=1).ravel()
            right2 = np.stack([mid, right[split]], axis=1).ravel()
            row2 = np.repeat(row[split], 2)
            halves = sums(left2, right2, row2)
            change = halves.reshape(-1, 2).sum(axis=1) - s[split]
            core += np.bincount(row[split], weights=change, minlength=rows)
            left, right = np.append(left[keep], left2), np.append(right[keep], right2)
            s, row = np.append(s[keep], halves), np.append(row[keep], row2)
            est = np.append(est[keep], np.repeat(0.5 * np.abs(change), 2))
        err = np.bincount(row, weights=est, minlength=rows)
        converged = np.bincount(row, weights=above_share(est, row, core), minlength=rows) == 0

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
    exact = np.isinf(val)
    return val, np.where(exact, 0.0, err), converged | exact


def _support_edges(c):
    """Inner and outer radius of the support of a radial shell or density."""
    if isinstance(c, SphericalShell):
        return c.radius, c.radius
    return c.lo_cut, c.support_radius()


def _support_distance(c, d):
    """Distance from points at radii d to the support of a radial
    shell or density."""
    lo, hi = _support_edges(c)
    return np.maximum(np.maximum(lo - d, d - hi), 0.0)


def wolff_profile(mu: RadonMeasure, params: ProblemParams,
                  quad: QuadratureConfig = DEFAULT_QUAD,
                  d_grid=None) -> RadialFunction:
    """Radial Wolff-potential profile of a radial measure.

    Evaluates W at a log grid of center distances, batched (the potential
    of a radial measure is radial), and at the center.  The tail
    coefficient is the exact constant-mass asymptote, or for infinite mass
    the power law through the last two values.  Between the distances the
    profile interpolates with monotone log-log slopes (monotone_deriv).
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
        return _wolff_rows(radial, atoms, d, dist, params, quad, None, resolution)[0]

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
    coeff = total_mass ** ipm1 / tau
    if math.isinf(total_mass):  # the power law through the last two values
        if len(d_grid) >= 2 and vals[-1] > 0 and vals[-2] > 0:
            tau = math.log(vals[-2] / vals[-1]) / math.log(d_grid[-1] / d_grid[-2])
            coeff = vals[-1] * d_grid[-1] ** tau
        else:
            tau, coeff = params.tail_exp, 0.0
    return RadialFunction(d_grid, vals, coeff, tau, center, monotone_deriv(d_grid, vals))


def wolff_sup_on_support(mu: RadonMeasure, params: ProblemParams,
                         quad: QuadratureConfig = DEFAULT_QUAD) -> float:
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
    nd = max(1, sum(1 for c in radial if isinstance(c, RadialDensity)))
    per = max(8, _SUP_SAMPLES // nd)
    include_zero = False
    for c in radial:
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
    return max(best, prof.center_value) if include_zero else best


def cutoff_measure(mu: RadonMeasure, k: int, params: ProblemParams,
                   quad: QuadratureConfig = DEFAULT_QUAD) -> RadonMeasure:
    """Restriction of mu to {W mu <= k} intersected with the closed ball
    of radius 2^k.

    Atoms never survive (the potential is infinite on them); radial
    densities, products included, are restricted with interpolated crossing
    radii so the admissible set grows with k.
    """
    validate(params)
    if k < 1:
        raise ValueError("k must be >= 1")
    atom_free, atoms = _split(mu)
    if any(np.any(a.location) for a in atoms):
        raise NonRadialMeasure("cutoffs need a radial measure")

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
        kept.append(c.restricted(max(lo_new, c.lo_cut), hi_new))

    if not nontrivial:
        return mu
    if not kept:
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
    total = mu_k.total_mass()
    if total == 0:
        return
    prof = wolff_profile(mu_k, params, quad)
    energy = integrate_against(mu_k, prof.eval, quad)
    if energy > k * total * 1.02:
        warnings.warn(
            f"cutoff energy {energy:.4g} exceeds k*mass = {k * total:.4g}; "
            "quadrature may be too coarse", stacklevel=2)
