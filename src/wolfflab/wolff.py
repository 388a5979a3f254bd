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
beyond the support the ball mass is constant, so the tail is a power law
too (quadrature.power_integral); infinite mass is summed decade by decade.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadPoint, NonpositiveR, NonRadialMeasure, ZeroMeasure
from .measure import (RadialDensity, RadonMeasure, SphericalShell, Sum, _split,
                      zero_measure)
from .params import DEFAULT_QUAD, ProblemParams, QuadratureConfig, validate
from .quadrature import (_HEAD_FIT, decade_tails, kronrod_sum, log_bisect, panel_sum,
                         panelize, power_integral, power_law_head)
from .radial_pde import RadialFunction, marked_grid, monotone_deriv

_TINY = 1e-300
# head start on a support edge, relative to the usual one
_EDGE_HEAD = 1e-3
# sample radii on a density's support: shared by the densities of
# wolff_sup_on_support, each its own in cutoff_measure
_SUP_SAMPLES = 200


@dataclass(frozen=True)
class PotentialValue:
    """A potential, its quadrature error estimate and whether refinement
    stopped before its depth limit (every panel met its share of
    rel_tol).  The flag is stricter than estimate <= rel_tol * |value|:
    a row can pass that test with some panels still above their share.
    Both cover the quadrature in r, not the ball masses it integrates."""
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
    of a pointwise value: a coarse start that the Kronrod estimate refines
    where it needs to, down to 2^4 times the starting panels a decade."""
    return quad.gauss_order, quad.panels_per_decade, 4, quad.rel_tol * 1e-2


def _wolff_rows(radial, atoms, d, dist, params, quad, R, resolution):
    """W at points with center distances d (one row each), the error
    estimate of each row and whether its refinement converged.

    radial components enter through their ball masses _radial_mass(d, r);
    atom j is a step mass at distance dist[i, j] from the point of row i.
    resolution = (k, ppd, refine, ext_tol): the core runs on panels, ppd a
    decade, split at the ball-mass breakpoints.  Without refinement a panel
    takes its k-point Gauss sum; else its (2k + 1)-point Kronrod sum with
    the estimate |Kronrod - Gauss|, and each round bisects the panels whose
    estimate exceeds their share rel_tol * |row sum| / (panels in the row),
    each half with its own estimate (globally adaptive, as in QUADPACK), so
    no panel is bisected more than `refine` times.  At even n, where the
    mass goes like (r - r_b)^(j + 1/2) from r_b = |d - mark| and d + mark
    (first contacts included), panel ends there are graded (end codes, kept
    by halves; quadrature.panel_nodes).  A row's estimate is the sum over
    its panels (inf without refinement, 0 for rows without a core or with
    an infinite value), and it converged when no panel is above its share
    after the last round; both cover the quadrature in r, not the ball
    masses.  The core ends where at most ext_tol min(1, p - 1) of the mass
    lies beyond, as the integrand goes like the mass to the 1/(p - 1).
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

    def sums(left, right, row, grade, f=integrand):  # per panel: its sum and estimate
        nodes_row = np.repeat(row, 2 * k + 1 if refine else k)
        if refine:  # the Kronrod sum and |Kronrod - Gauss|
            return kronrod_sum(lambda r: f(nodes_row, r), (left, right), k, grade)
        return (panel_sum(lambda r: f(nodes_row, r), (left, right), k, len(row), grade),
                np.full(len(row), math.inf))  # a Gauss sum, without estimate

    i_in, fit = np.flatnonzero(inside), None
    fit_r = np.multiply.outer(_HEAD_FIT, r_lo[inside])

    def with_fit(i, r):  # the head-fit radii of rows inside join the first call
        nonlocal fit
        vals = integrand(np.append(i, np.broadcast_to(i_in, fit_r.shape)), np.append(r, fit_r))
        fit = vals[len(r):].reshape(fit_r.shape)
        return vals[:len(r)]

    def above_share(est, row, core):  # panels whose estimate exceeds their share
        count = np.maximum(np.bincount(row, minlength=rows), 1)
        return est > (quad.rel_tol * np.maximum(np.abs(core), _TINY) / count)[row]

    live = r_hi > r_lo
    core, err, converged = np.zeros(rows), np.zeros(rows), np.ones(rows, dtype=bool)
    if np.any(live):
        left, right, row = panelize(r_lo[live], r_hi[live], breaks[live], ppd)
        row = np.flatnonzero(live)[row]
        grade = np.zeros(len(row), dtype=int)  # end codes: ends on a support mark
        if params.n % 2 == 0 and len(marks):
            on_mark = lambda r: np.any(r[:, None] == breaks[row, :2 * len(marks)], axis=1)
            grade = on_mark(left) + 2 * on_mark(right)
        s, est = sums(left, right, row, grade, with_fit)
        core = np.bincount(row, weights=s, minlength=rows)
        for _ in range(refine):
            split = above_share(est, row, core)
            if not np.any(split):
                break
            keep = ~split
            mid = np.sqrt(left[split] * right[split])
            left2 = np.stack([left[split], mid], axis=1).ravel()
            right2 = np.stack([mid, right[split]], axis=1).ravel()
            row2 = np.repeat(row[split], 2)
            grade2 = (grade[split, None] & np.array([1, 2])).ravel()  # outer ends' codes
            halves, est2 = sums(left2, right2, row2, grade2)
            change = halves.reshape(-1, 2).sum(axis=1) - s[split]
            core += np.bincount(row[split], weights=change, minlength=rows)
            left, right = np.append(left[keep], left2), np.append(right[keep], right2)
            s, row = np.append(s[keep], halves), np.append(row[keep], row2)
            est, grade = np.append(est[keep], est2), np.append(grade[keep], grade2)
        err = np.bincount(row, weights=est, minlength=rows)
        converged = np.bincount(row, weights=above_share(est, row, core), minlength=rows) == 0

    head = np.zeros(rows)
    if np.any(inside):
        head[inside] = power_law_head(lambda r, cols: integrand(i_in[cols], r),
                                      r_lo[inside], fit=fit)

    # beyond the horizon: constant ball mass in closed form, or decade by
    # decade for infinite mass
    upper = math.inf if R is None else R
    if infinite:
        tail = np.zeros(rows)
        far = np.flatnonzero(upper > horizon)
        tail[far] = decade_tails(lambda j, r: integrand(far[j], r), horizon[far], k,
                                 quad.rel_tol, upper)
    else:
        total = sum(c.total_mass() for c in radial) + float(np.sum(weights))
        tail = power_integral(total ** ipm1, -e - 1.0, horizon, np.maximum(upper, horizon))
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

    Evaluates W at center distances d_grid, by default a log grid with the
    measure's support edges and shell radii as nodes, batched (the
    potential of a radial measure is radial), and at the center.  The tail
    coefficient is the exact constant-mass asymptote, or for infinite mass
    the power law through the last two values.  Between the distances the
    profile interpolates with monotone log-log slopes (monotone_deriv).
    """
    validate(params)
    if not mu.is_radial:
        raise NonRadialMeasure("wolff_profile needs a radial measure")
    d_grid = marked_grid(quad.radial_grid(quad.profile_points_per_decade), [mu]) \
        if d_grid is None else np.asarray(d_grid, dtype=float)
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


def _support_profile(mu, radial, params, quad, count):
    """count log-spaced radii on the support of each radial component of
    mu (to r_max when it is unbounded, led by the origin when it reaches
    it), the index of each radius's component and the profile of mu on
    all of them."""
    samples = []
    for c in radial:  # a shell's samples all sit on its radius
        lo, hi = _support_edges(c)
        hi = quad.r_max if math.isinf(hi) else hi
        s = np.geomspace(min(hi, max(lo, hi * 1e-8, quad.r_min * 1e-2)), hi, count)
        samples.append(s if lo > 0 else np.append(0.0, s))
    s = np.concatenate(samples)
    comp = np.repeat(np.arange(len(samples)), [len(x) for x in samples])
    return s, comp, wolff_profile(mu, params, quad, d_grid=np.unique(s[s > 0]))


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
    nd = sum(isinstance(c, RadialDensity) for c in radial)
    s, _, prof = _support_profile(mu, radial, params, quad, max(8, _SUP_SAMPLES // max(1, nd)))
    return float(np.max(prof.eval(s)))


def cutoff_measure(mu: RadonMeasure, k: int, params: ProblemParams,
                   quad: QuadratureConfig = DEFAULT_QUAD) -> RadonMeasure:
    """Restriction of mu to {W mu <= k} intersected with the closed ball
    of radius 2^k; mu itself when nothing is cut.

    W is the profile of the whole measure, origin atoms included (W is not
    additive in mu unless p = 2), and atoms never survive.  Each shell or
    density keeps every run of its sampled support where W <= k, between
    crossing radii bisected all at once, so the admissible set grows with
    k; densities, products included, are cut by RadialDensity.restricted.
    """
    validate(params)
    if k < 1:
        raise ValueError("k must be >= 1")
    radial, atoms = _split(mu)
    if any(np.any(a.location) for a in atoms):
        raise NonRadialMeasure("cutoffs need a radial measure")
    if not radial:
        return zero_measure(mu.dim) if atoms else mu
    cap = 2.0 ** k
    s, comp, prof = _support_profile(mu, radial, params, quad, _SUP_SAMPLES)
    admissible = lambda r: (prof.eval(r) <= k) & (r <= cap)
    ok = admissible(s)
    # W crosses k between neighbouring samples of a component that disagree
    # (at the next one, next to the origin); a run ends on its admissible side
    j = np.flatnonzero((ok[1:] != ok[:-1]) & (comp[1:] == comp[:-1]))
    a, b = log_bisect(lambda m: admissible(m) != ok[j], np.where(s[j] > 0, s[j], s[j + 1]),
                      s[j + 1], 1e-12)
    crossings = np.where(ok[j], a, b)
    kept, whole = [], not atoms
    for i, c in enumerate(radial):
        o, (lo_edge, hi_edge) = ok[comp == i], _support_edges(c)
        ends = np.concatenate([[lo_edge] if o[0] else [], crossings[comp[j] == i],
                               [min(hi_edge, cap)] if o[-1] else []])
        if list(ends) == [lo_edge, hi_edge]:  # the cutoff does not bite
            kept.append(c)
        else:
            whole = False
            kept.extend(c.restricted(r0, r1) for r0, r1 in ends.reshape(-1, 2) if r1 > r0)
    if whole:
        return mu
    if not kept:
        return zero_measure(mu.dim)
    out = Sum(kept) if len(kept) > 1 else kept[0]
    _check_cutoff_energy(out, k, params, quad)
    return out


def _check_cutoff_energy(mu_k, k, params, quad):
    from .energy import wolff_energy  # energy builds on this module
    energy, bound = wolff_energy(mu_k, 1, params, quad), k * mu_k.total_mass()
    if energy > 1.02 * bound:
        warnings.warn(f"cutoff energy {energy:.4g} exceeds k*mass = {bound:.4g}; "
                      "quadrature may be too coarse", stacklevel=2)
