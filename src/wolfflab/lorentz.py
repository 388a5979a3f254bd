"""Decreasing rearrangements and Lorentz norms for radial profiles.

For a nonincreasing radial profile the rearrangement is the exact change
of variables t = omega_n r^n; non-monotone profiles go through the
distribution function on a grid scan.  Lorentz norms integrate
(t^{1/r} f*(t))^rho dt/t with closed-form head and tail (power-law tails
of the profile turn into power laws in t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModeMismatch
from .measure import RadonMeasure
from .params import (DEFAULT_QUAD, Mode, ProblemParams, QuadratureConfig,
                     derive_exponents, unit_ball_volume, validate)
from .quadrature import panel_sum
from .radial_pde import RadialFunction, _loglog_interp


@dataclass(frozen=True)
class RearrangedProfile:
    """Nonincreasing rearrangement tabulated against measure values t."""

    t_grid: np.ndarray
    fstar: np.ndarray
    # f*(t) ~ tail_coeff * t**(-tail_exp) past the grid; head_value is
    # f*(0+), inf allowed with the head power law below the first node
    tail_coeff: float = 0.0
    tail_exp: float = 0.0
    head_value: float = 0.0
    head_coeff: float = 0.0
    head_exp: float = 0.0


def rearrange(u: RadialFunction, params: ProblemParams) -> RearrangedProfile:
    """Decreasing rearrangement of a radial profile on R^n."""
    validate(params)
    n = params.n
    wn = unit_ball_volume(n)
    if u.is_nonincreasing(slack=1e-9):
        t = wn * u.grid ** n
        fstar = u.values.copy()
        tail_coeff = tail_exp = 0.0
        if u.tail_coeff > 0:
            # u = A r^{-tau}  =>  f*(t) = A (t/wn)^{-tau/n}
            tail_exp = u.tail_exp / n
            tail_coeff = u.tail_coeff * wn ** tail_exp
        head_value = u.center_value
        head_coeff = head_exp = 0.0
        if math.isinf(head_value) and len(u.grid) > 1 \
                and u.values[0] > 0 and u.values[1] > 0:
            tau0 = math.log(u.values[0] / u.values[1]) / math.log(u.grid[1] / u.grid[0])
            head_exp = tau0 / n
            head_coeff = u.values[0] * (wn * u.grid[0] ** n) ** head_exp
        return RearrangedProfile(t, fstar, tail_coeff, tail_exp,
                                 head_value, head_coeff, head_exp)
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
    return RearrangedProfile(np.maximum(t[keep], wn * r[0] ** n * 1e-6),
                             f[keep], 0.0, 0.0, f_list[0], 0.0, 0.0)


def lorentz_norm(u: RadialFunction, r_idx: float, rho_idx: float,
                 params: ProblemParams,
                 quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Lorentz norm of a radial profile; inf when divergent.

    For nonincreasing profiles the rearrangement is the exact change of
    variables t = omega_n r^n, so the norm integral is evaluated in r
    directly against the profile's own interpolation; other profiles go
    through the rearranged table.
    """
    if r_idx <= 0 or rho_idx <= 0:
        raise ValueError("Lorentz indices must be positive")
    rp = rearrange(u, params)
    if u.is_nonincreasing(slack=1e-9) and not math.isinf(rho_idx) \
            and np.any(u.values > 0):
        return _norm_in_r(u, rp, r_idx, rho_idx, params, quad)
    return lorentz_norm_rearranged(rp, r_idx, rho_idx, quad)


def _ends(rp: RearrangedProfile, e_head: float, rho_idx: float, last: int) -> float:
    """Closed-form power-law parts of int (t^{1/r} f*(t))^rho dt/t below
    the first node and past the last positive node; inf when either
    diverges."""
    t = rp.t_grid
    total = 0.0
    if math.isinf(rp.head_value):
        if rp.head_coeff > 0:
            e = e_head - rho_idx * rp.head_exp
            if e <= -1.0:
                return math.inf
            total += rp.head_coeff ** rho_idx * t[0] ** (e + 1.0) / (e + 1.0)
    elif rp.head_value > 0:
        total += rp.head_value ** rho_idx * t[0] ** (e_head + 1.0) / (e_head + 1.0)
    if rp.tail_coeff > 0:
        e = e_head - rho_idx * rp.tail_exp
        if e >= -1.0:
            return math.inf
        total += rp.tail_coeff ** rho_idx * t[last] ** (e + 1.0) / (-e - 1.0)
    return total


def _norm_in_r(u: RadialFunction, rp: RearrangedProfile, r_idx, rho_idx,
               params, quad) -> float:
    """Norm integral substituted back to r: dt/t = n dr/r, t = w_n r^n."""
    n = params.n
    wn = unit_ball_volume(n)
    last = int(np.nonzero(u.values > 0)[0][-1])
    total = _ends(rp, rho_idx / r_idx - 1.0, rho_idx, last)
    if last > 0 and math.isfinite(total):
        total += panel_sum(
            lambda rr: (wn * rr ** n) ** (rho_idx / r_idx)
            * np.maximum(u.eval(rr), 0.0) ** rho_idx * n / rr,
            u.grid[:last + 1], quad.gauss_order)
    return total ** (1.0 / rho_idx)


def lorentz_norm_rearranged(rp: RearrangedProfile, r_idx: float, rho_idx: float,
                            quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    pos = rp.fstar > 0
    if not np.any(pos) and rp.head_value == 0 and rp.tail_coeff == 0:
        return 0.0
    last = int(np.nonzero(pos)[0][-1]) if np.any(pos) else 0

    if math.isinf(rho_idx):
        return _weak_norm(rp, r_idx, last)

    e_head = rho_idx / r_idx - 1.0
    total = _ends(rp, e_head, rho_idx, last)
    # grid part up to the last positive node
    if last > 0 and math.isfinite(total):
        t, f = rp.t_grid[:last + 1], rp.fstar[:last + 1]
        total += panel_sum(lambda tq: _loglog_interp(t, f, tq) ** rho_idx * tq ** e_head,
                           t, quad.gauss_order)
    return total ** (1.0 / rho_idx)


def _weak_norm(rp, r_idx, last):
    t = rp.t_grid
    cand = float(np.max(t[:last + 1] ** (1.0 / r_idx) * rp.fstar[:last + 1]))
    if rp.tail_coeff > 0:
        e = 1.0 / r_idx - rp.tail_exp
        if e > 1e-14:
            return math.inf
        if abs(e) <= 1e-14:
            cand = max(cand, rp.tail_coeff)
        else:
            cand = max(cand, rp.tail_coeff * t[last] ** e)
    if math.isinf(rp.head_value) and rp.head_coeff > 0:
        e = 1.0 / r_idx - rp.head_exp
        if e < -1e-14:
            return math.inf
        if abs(e) <= 1e-14:
            cand = max(cand, rp.head_coeff)
        else:
            cand = max(cand, rp.head_coeff * t[0] ** e)
    return cand


def check_lorentz_embedding(mu: RadonMeasure, gamma: float,
                            params: ProblemParams,
                            quad: QuadratureConfig = DEFAULT_QUAD,
                            bound: float = 1e3):
    """Lorentz norm of the potential profile against the gamma-energy."""
    from .energy import InequalityReport, wolff_energy
    from .wolff import wolff_profile

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
    from .energy import InequalityReport, wolff_energy, sigma_energy

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


def export_rearranged_csv(rp: RearrangedProfile, path: str):
    """Write the rearranged profile as two-column CSV (t, fstar)."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "fstar"])
        for t, f in zip(rp.t_grid, rp.fstar):
            w.writerow([repr(float(t)), repr(float(f))])


def _density_profile(density, quad) -> RadialFunction:
    """View a radial density as a RadialFunction for norm computations."""
    grid = density.grid
    vals = density.density_at(grid)
    tail = density.tail if density.tail is not None else (0.0, 0.0)
    cut = getattr(density, "cut", None)
    if cut is not None:
        tail = (0.0, 0.0)
    center = float(density.density_at(grid[0] * 0.5))
    return RadialFunction(grid, vals, tail[0], tail[1], center)
