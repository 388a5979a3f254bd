"""Generalized energy functionals and the core inequality checks:
the mutual-energy product bound, the quasi-triangle comparability of
energies under measure addition, the logarithmic Caccioppoli / Picone
test, and the weighted norm inequality.

Empirical constants are recorded per instance and aggregated by suites;
pass/fail uses a configurable bound (default 1e3) meant to catch
implementation blunders, not to certify sharp constants.  A report whose
right-hand side is infinite passes vacuously and is flagged.

The mutual-energy check accepts the full range -gamma < q < p-1 even
though the solver only accepts 0 < q < p-1; the wider range is exactly
what the product bound supports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ExponentError, InfiniteEnergy
from .measure import (RadonMeasure, Sum, _split, add, integrate_against,
                      multiply_radial)
from .params import DEFAULT_QUAD, ProblemParams, QuadratureConfig, validate
from .radial_pde import RadialFunction, dirichlet_energy
from .wolff import wolff, wolff_profile

DEFAULT_BOUND = 1e3
_PICONE_SLACK = 1e-6  # relative quadrature slack of the Picone bound


@dataclass
class InequalityReport:
    """One verified inequality instance."""

    name: str
    lhs: float
    rhs: float
    ratio: float = None
    empirical_constant: float = None
    passed: bool = False
    vacuous: bool = False
    bound: float = DEFAULT_BOUND
    instance: dict = field(default_factory=dict)

    @classmethod
    def build(cls, name, lhs, rhs, bound=DEFAULT_BOUND, instance=None, extra=None):
        lhs = float(lhs)
        rhs = float(rhs)
        vacuous = math.isinf(rhs)
        ratio = None
        if math.isfinite(lhs) and math.isfinite(rhs) and rhs > 0:
            ratio = lhs / rhs
        if vacuous:
            passed = True
        elif lhs == 0.0:
            passed = True
        else:
            passed = math.isfinite(lhs) and rhs > 0 and lhs <= bound * rhs
        rep = cls(name=name, lhs=lhs, rhs=rhs, ratio=ratio,
                  empirical_constant=ratio, passed=passed, vacuous=vacuous,
                  bound=bound, instance=dict(instance or {}))
        if extra:
            rep.instance.update(extra)
        return rep

    def as_dict(self):
        return asdict(self)


def wolff_energy(mu: RadonMeasure, gamma: float, params: ProblemParams,
                 quad: QuadratureConfig = DEFAULT_QUAD,
                 profile: RadialFunction = None) -> float:
    """Self energy: integral of (W mu)^gamma against mu.

    gamma = 0 is the total mass; atomic components make it infinite for
    gamma > 0 (the potential blows up on the atom).
    """
    validate(params)
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0.0:
        return mu.total_mass()
    if mu.total_mass() == 0.0:
        return 0.0
    if _split(mu)[1]:
        return math.inf
    prof = profile if profile is not None else wolff_profile(mu, params, quad)
    return integrate_against(mu, lambda s: prof.eval(s) ** gamma, quad)


def sigma_energy(sigma: RadonMeasure, gamma: float, q: float,
                 params: ProblemParams,
                 quad: QuadratureConfig = DEFAULT_QUAD,
                 profile: RadialFunction = None) -> float:
    """Coefficient-side energy: the self energy with exponent
    (gamma+q)(p-1)/(p-1-q)."""
    e = (gamma + q) * (params.p - 1.0) / (params.p - 1.0 - q)
    return wolff_energy(sigma, e, params, quad, profile)


def mutual_energy(sigma: RadonMeasure, mu: RadonMeasure, gamma: float, q: float,
                  params: ProblemParams,
                  quad: QuadratureConfig = DEFAULT_QUAD,
                  mu_profile: RadialFunction = None) -> float:
    """Cross energy: integral of (W mu)^{gamma+q} against sigma."""
    validate(params)
    if not (-gamma < q < params.p - 1.0):
        raise ExponentError(f"need -gamma < q < p-1, got q={q}")
    e = gamma + q
    if sigma.total_mass() == 0.0:
        return 0.0
    if mu.total_mass() == 0.0:
        return 0.0
    radial_part, atoms = _split(sigma)
    total = 0.0
    for a in atoms:
        w = wolff(mu, a.location, params, quad).value
        total += a.weight * w ** e
        if math.isinf(total):
            return math.inf
    if radial_part:
        prof = mu_profile if mu_profile is not None else wolff_profile(mu, params, quad)
        total += integrate_against(Sum(radial_part), lambda s: prof.eval(s) ** e, quad)
    return float(total)


def check_mutual_energy_estimate(sigma: RadonMeasure, mu: RadonMeasure,
                                 gamma: float, q: float, params: ProblemParams,
                                 quad: QuadratureConfig = DEFAULT_QUAD,
                                 bound: float = DEFAULT_BOUND,
                                 instance=None) -> InequalityReport:
    """Product bound: the cross energy against the two self energies,
    with exponents (gamma+q)/(p-1+gamma) and (p-1-q)/(p-1+gamma)."""
    validate(params)
    p, g = params.p, gamma
    mu_prof = None
    if mu.total_mass() > 0 and not _split(mu)[1] and mu.is_radial:
        mu_prof = wolff_profile(mu, params, quad)
    lhs = mutual_energy(sigma, mu, g, q, params, quad, mu_profile=mu_prof)
    e_mu = wolff_energy(mu, g, params, quad, profile=mu_prof)
    e_sig = sigma_energy(sigma, g, q, params, quad)
    exp_mu = (g + q) / (p - 1.0 + g)
    exp_sig = (p - 1.0 - q) / (p - 1.0 + g)
    if math.isinf(e_mu) or math.isinf(e_sig):
        rhs = math.inf
    else:
        rhs = e_mu ** exp_mu * e_sig ** exp_sig
    return InequalityReport.build(
        "mutual_energy", lhs, rhs, bound, instance,
        extra={"e_mu": e_mu, "e_sigma": e_sig, "gamma": g, "q": q})


def check_quasi_triangle(mu: RadonMeasure, nu: RadonMeasure, gamma: float,
                         params: ProblemParams,
                         quad: QuadratureConfig = DEFAULT_QUAD,
                         bound: float = DEFAULT_BOUND,
                         instance=None) -> InequalityReport:
    """Two-sided comparability of E(mu+nu) with E(mu) + E(nu)."""
    validate(params)
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    e_sum = wolff_energy(add(mu, nu), gamma, params, quad)
    e_mu = wolff_energy(mu, gamma, params, quad)
    e_nu = wolff_energy(nu, gamma, params, quad)
    parts = e_mu + e_nu
    rep = InequalityReport.build("quasi_triangle", e_sum, parts, bound, instance,
                                 extra={"e_mu": e_mu, "e_nu": e_nu, "gamma": gamma})
    # lower direction: each part is dominated by the sum (monotonicity),
    # so parts <= 2 * e_sum up to quadrature noise
    if math.isfinite(parts) and math.isfinite(e_sum) and e_sum > 0:
        lower_ratio = parts / e_sum
        rep.instance["lower_ratio"] = lower_ratio
        rep.passed = rep.passed and lower_ratio <= max(bound, 2.0 + 1e-6)
    return rep


def check_picone_caccioppoli(u: RadialFunction, v: RadialFunction,
                             nu_v: RadonMeasure, params: ProblemParams,
                             quad: QuadratureConfig = DEFAULT_QUAD,
                             instance=None) -> InequalityReport:
    """Test-function bound: int u^p v^{1-p} d(nu_v) <= int |grad u|^p dx.

    u must be a bounded finite-p-energy radial profile; v the potential of
    nu_v (positive on its support).
    """
    validate(params)
    p = params.p
    rhs = dirichlet_energy(u, params, weight_gamma=1.0, quad=quad)
    if math.isinf(rhs):
        raise InfiniteEnergy("test profile has infinite p-energy")

    def g(s):
        uv = u.eval(s)
        vv = v.eval(s)
        out = np.zeros_like(uv)
        live = uv > 0
        out[live] = uv[live] ** p * vv[live] ** (1.0 - p)
        return out

    lhs = integrate_against(nu_v, g, quad)
    return InequalityReport.build("picone", lhs, rhs, 1.0 + _PICONE_SLACK, instance)


def check_weighted_norm(sigma: RadonMeasure, f, gamma: float, q: float,
                        params: ProblemParams,
                        quad: QuadratureConfig = DEFAULT_QUAD,
                        bound: float = DEFAULT_BOUND,
                        instance=None) -> InequalityReport:
    """Weighted norm inequality: ||W(f dsigma)||_{L^{gamma+q}(dsigma)}
    against ||f||_{L^{(gamma+q)/q}(dsigma)}^{1/(p-1)}.

    The constant here depends on the coefficient measure through its
    finiteness-condition energy E_sigma, so pass/fail applies to the
    constant normalized by E_sigma^theta, theta = (p-1-q)/((gamma+q)(p-1))
    (the exponent that makes the normalized constant scale-invariant in
    sigma); the raw ratio of the two norms is still reported.
    """
    validate(params)
    p = params.p
    if not (0 < q < p - 1):
        raise ExponentError(f"need 0 < q < p-1, got q={q}")
    weighted = multiply_radial(sigma, f)
    if weighted.total_mass() == 0.0:
        return InequalityReport.build("weighted_norm", 0.0, 0.0, bound, instance)
    prof = wolff_profile(weighted, params, quad)
    lhs = integrate_against(
        sigma, lambda s: prof.eval(s) ** (gamma + q), quad) ** (1.0 / (gamma + q))
    dual = (gamma + q) / q
    f_norm = integrate_against(
        sigma, lambda s: np.maximum(np.asarray(f.eval(s), dtype=float), 0.0) ** dual,
        quad) ** (1.0 / dual)
    rhs = f_norm ** (1.0 / (p - 1.0))
    e_sig = sigma_energy(sigma, gamma, q, params, quad)
    theta = (p - 1.0 - q) / ((gamma + q) * (p - 1.0))
    rep = InequalityReport.build(
        "weighted_norm", lhs, rhs, bound, instance,
        extra={"f_norm": f_norm, "sigma_energy": e_sig, "energy_power": theta})
    if math.isinf(e_sig):
        rep.vacuous = True
        rep.passed = True
    elif rep.ratio is not None and e_sig > 0:
        normalized = rep.ratio / e_sig ** theta
        rep.instance["normalized_constant"] = normalized
        rep.empirical_constant = normalized
        rep.passed = normalized <= bound
    return rep


def generalized_energy(u: RadialFunction, sigma_list, q_list,
                       mu: RadonMeasure, gamma: float,
                       params: ProblemParams,
                       quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """int u^gamma d(nu[u]) computed through the measure decomposition
    nu[u] = sum_m u^{q_m} sigma^(m) + mu."""
    total = 0.0
    for sig, q in zip(sigma_list, q_list):
        total += integrate_against(
            sig, lambda s: np.maximum(u.eval(s), 0.0) ** (gamma + q), quad)
        if math.isinf(total):
            return math.inf
    if mu is not None and mu.total_mass() > 0:
        gam_fn = (lambda s: np.maximum(u.eval(s), 0.0) ** gamma) if gamma > 0 \
            else (lambda s: np.ones_like(np.asarray(s, dtype=float)))
        total += integrate_against(mu, gam_fn, quad)
    return float(total)
