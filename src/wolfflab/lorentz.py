"""Decreasing rearrangements and Lorentz norms for radial profiles.

For a nonincreasing radial profile the rearrangement is the exact change
of variables t = omega_n r^n; non-monotone profiles go through the
distribution function on a grid scan.  Lorentz norms integrate
(t^{1/r} f*(t))^rho dt/t with closed-form head and tail (power-law tails
of the profile turn into power laws in t).
"""

from __future__ import annotations

import math

import numpy as np

from .energy import InequalityReport, sigma_energy, wolff_energy
from .errors import ModeMismatch
from .measure import RadonMeasure
from .params import (DEFAULT_QUAD, Mode, ProblemParams, QuadratureConfig,
                     derive_exponents, unit_ball_volume, validate)
from .quadrature import panel_sum, power_integral
from .radial_pde import RadialFunction
from .wolff import wolff_profile


def rearrange(u: RadialFunction, params: ProblemParams) -> RadialFunction:
    """Decreasing rearrangement f*(t) of a radial profile on R^n, as a
    RadialFunction in t."""
    validate(params)
    n = params.n
    wn = unit_ball_volume(n)
    if u.is_nonincreasing():
        # log t = log(wn r^n) is affine in log r, so the log-log
        # interpolant in t, with slopes du/dt = u'/(n wn r^{n-1}), is the
        # one in r
        deriv = None if u.deriv is None else u.deriv / (n * wn * u.grid ** (n - 1))
        # u = A r^{-tau}  =>  f*(t) = A (t/wn)^{-tau/n}
        tail_exp = u.tail_exp / n
        return RadialFunction(wn * u.grid ** n, u.values, u.tail_coeff * wn ** tail_exp,
                              tail_exp, u.center_value, deriv)
    # non-monotone: distribution function on a grid scan
    levels = np.unique(u.values)[::-1]
    levels = levels[levels > 0]
    r = u.grid
    vol_seg = wn * np.diff(r ** n)
    mids = np.sqrt(r[:-1] * r[1:])
    vmid = u.eval(mids)
    t_list = [0.0]
    f_list = [float(levels[0]) if len(levels) else 0.0]
    for a in levels:
        meas = float(np.sum(vol_seg[vmid > a])) + wn * r[0] ** n * (u.center_value > a)
        t_list.append(meas)
        f_list.append(float(a))
    t = np.asarray(t_list[1:])
    f = np.asarray(f_list[1:])
    keep = np.concatenate([[True], np.diff(t) > 0])
    return RadialFunction(np.maximum(t[keep], wn * r[0] ** n * 1e-6), f[keep],
                          center_value=f_list[0])


def lorentz_norm(u: RadialFunction, r_idx: float, rho_idx: float,
                 params: ProblemParams,
                 quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Lorentz norm of a radial profile; inf when divergent.

    Integrates (t^{1/r} f*(t))^rho dt/t over the rearrangement's nodes up
    to the last positive one, with the power-law head and tail in closed
    form; rho = inf is the weak norm sup t^{1/r} f*(t).
    """
    if r_idx <= 0 or rho_idx <= 0:
        raise ValueError("Lorentz indices must be positive")
    f = rearrange(u, params)
    pos = f.values > 0
    if not np.any(pos) and f.center_value == 0 and f.tail_coeff == 0:
        return 0.0
    last = int(np.nonzero(pos)[0][-1]) if np.any(pos) else 0

    if math.isinf(rho_idx):
        return _weak_norm(f, r_idx, last)

    e_head = rho_idx / r_idx - 1.0
    total = _ends(f, e_head, rho_idx, last)
    # grid part up to the last positive node
    if last > 0 and math.isfinite(total):
        total += panel_sum(lambda t: f.eval(t) ** rho_idx * t ** e_head,
                           f.grid[:last + 1], quad.gauss_order)
    return total ** (1.0 / rho_idx)


def _ends(f: RadialFunction, e_head: float, rho_idx: float, last: int) -> float:
    """Closed-form power-law parts of int (t^{1/r} f*(t))^rho dt/t below
    the first node, where f* = v (t/t[0])^a (v = f*(t[0]) and its head
    slope for an infinite center, else the center value and a = 0), and
    past the last positive node; inf when either diverges."""
    t = f.grid
    v, a = (f.values[0], f.head_slope) if math.isinf(f.center_value) else (f.center_value, 0.0)
    total = 0.0 if a is None or not v > 0 else power_integral(
        v ** rho_idx * t[0] ** (e_head + 1.0), e_head + rho_idx * a, 0.0, 1.0)
    if f.tail_coeff > 0:
        total += power_integral(f.tail_coeff ** rho_idx, e_head - rho_idx * f.tail_exp, t[last])
    return total


def _weak_norm(f: RadialFunction, r_idx, last):
    t = f.grid
    cand = float(np.max(t[:last + 1] ** (1.0 / r_idx) * f.values[:last + 1]))
    if f.tail_coeff > 0:
        e = 1.0 / r_idx - f.tail_exp
        if e > 1e-14:
            return math.inf
        if abs(e) <= 1e-14:
            cand = max(cand, f.tail_coeff)
        else:
            cand = max(cand, f.tail_coeff * t[last] ** e)
    a = f.head_slope
    if a is not None:
        # below the grid t^{1/r} f*(t) is a power law with exponent 1/r + a;
        # its sup is at the first node unless it is flat or blows up
        e = 1.0 / r_idx + a
        if e < -1e-14:
            return math.inf
        if abs(e) <= 1e-14:
            cand = max(cand, f.values[0] * t[0] ** -a)
    return cand


def check_lorentz_embedding(mu: RadonMeasure, gamma: float,
                            params: ProblemParams,
                            quad: QuadratureConfig = DEFAULT_QUAD,
                            bound: float = 1e3):
    """Lorentz norm of the potential profile against the gamma-energy."""
    validate(params)
    if params.mode is not Mode.FINITE_GAMMA:
        raise ModeMismatch("embedding check needs finite gamma")
    ex = derive_exponents(params)
    prof = wolff_profile(mu, params, quad)
    lhs = lorentz_norm(prof, ex.lorentz_r, ex.lorentz_rho, params, quad)
    energy = wolff_energy(mu, gamma, params, quad, profile=prof)
    rhs = energy ** (1.0 / (params.p - 1.0 + gamma)) if math.isfinite(energy) else math.inf
    return InequalityReport.build("lorentz_embed", lhs, rhs, bound)


def density_condition_exponents(params: ProblemParams, role: str,
                                q: float = None):
    """Target Lorentz exponents (s, t) sufficient for the finiteness
    conditions, per role of the measure."""
    validate(params)
    if params.mode is not Mode.FINITE_GAMMA:
        raise ModeMismatch("density conditions need finite gamma")
    n, p, g = params.n, params.p, params.gamma
    if role == "sigma":
        qq = params.q_list[0] if q is None else q
        s = n * (p - 1.0 + g) / (n * (p - 1.0 - qq) + p * (g + qq))
        t = (p - 1.0 + g) / (p - 1.0 - qq)
    elif role == "mu":
        s = n * (p - 1.0 + g) / (n * (p - 1.0) + p * g)
        t = (p - 1.0 + g) / (p - 1.0)
    else:
        raise ValueError(f"role must be 'sigma' or 'mu', got {role!r}")
    return s, t


def check_density_conditions(f_exponents, role: str, params: ProblemParams,
                             density=None,
                             quad: QuadratureConfig = DEFAULT_QUAD):
    """Sufficiency check of supplied Lorentz exponents against the target
    pair, plus (optionally) the concrete implication 'norm finite =>
    energy finite' on a given radial density.

    Lorentz spaces over different first indices are not nested on R^n, so
    (s, t) dominates the target only when s matches and t is no larger.
    """
    s, t = f_exponents
    s_star, t_star = density_condition_exponents(params, role)
    dominates = (abs(s - s_star) <= 1e-12 * max(1.0, abs(s_star))) and t <= t_star + 1e-12
    report = {
        "role": role,
        "supplied": (float(s), float(t)),
        "target": (float(s_star), float(t_star)),
        "dominates": bool(dominates),
    }
    if density is not None:
        prof = _density_profile(density, quad)
        norm = lorentz_norm(prof, s_star, t_star, params, quad)
        if role == "mu":
            energy = wolff_energy(density, params.gamma, params, quad)
        else:
            energy = sigma_energy(density, params.gamma, params.q_list[0], params, quad)
        report["instance_norm"] = norm
        report["instance_energy"] = energy
        report["implication_holds"] = (not math.isfinite(norm)) or math.isfinite(energy)
    return report


def _density_profile(density, quad) -> RadialFunction:
    """View a radial density as a RadialFunction for norm computations."""
    grid = density.grid
    center = float(density.density_at(grid[0] * 0.5))
    return RadialFunction(grid, density.density_at(grid), *(density.tail or (0.0, 0.0)),
                          center)
