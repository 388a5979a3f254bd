"""Monotone iteration for minimal solutions of
-Delta_p u = sum_m sigma^(m) u^{q_m} + mu with radial data.

The scheme starts from an explicit subsolution (or from zero when the
pure measure term is present), solves the linear-in-measure problem
-Delta_p u_{j+1} = sum_m sigma^(m) u_j^{q_m} + mu exactly at each step;
those iterates increase pointwise to the minimal solution.  Anderson
mixing of log u reaches the limit first, and increasing plain steps from
just below it certify it.  Convergence needs a small sup-relative change
between iterates and agreement of the composed right-hand measure with
the Riesz measure of the iterate.  Every iterate lives on one grid, so a
step is array work on nodes fixed once per solve; the Riesz measure is
the last step's composed measure.

Endpoints: the bounded variant tracks sup norms under sup-norm finiteness
hypotheses; the intrinsic (gamma = 0) variant runs the same Picard map
from the potential-power seed and reports the fixed-point diagnostics
without asserting monotonicity (the seed may start above the solution).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .errors import (ModeMismatch, MonotonicityViolated, NotConverged,
                     SubsolutionSearchFailed, UnboundedCondition, ZeroMeasure)
from .energy import InequalityReport, generalized_energy, sigma_energy, wolff_energy
from .lorentz import lorentz_norm
from .measure import (RadonMeasure, Sum, _split, integrate_against, scale, weighting,
                      zero_measure)
from .params import (DEFAULT_QUAD, Mode, ProblemParams, QuadratureConfig,
                     derive_exponents, validate)
from .radial_pde import (RadialFunction, dirichlet_energy, marked_grid,
                         _solve_on_grid, nodewise_max, riesz_ball_mass, solve_points,
                         solve_radial_p_laplace, zero_profile)
from .wolff import (cutoff_measure, truncated_wolff, wolff_profile,
                    wolff_sup_on_support)

_EPS = 1e-300
_TRUNCATION_BOUND = 10.0
# the mixed estimate is certified from this many rel_tol below it
_CERT_GAP = 10.0
_DEPTH = 5  # Anderson history length


@dataclass
class IterationState:
    j: int
    residual: float
    mass_residual: float
    sup_norm: float
    energies: dict = field(default_factory=dict)


@dataclass
class Solution:
    u: RadialFunction
    riesz: RadonMeasure
    residual_final: float
    generalized_energy: float = None
    lorentz_norm: float = None
    iterations_used: int = 0
    converged: bool = False
    mode: Mode = Mode.FINITE_GAMMA
    sup_norm: float = None
    trace: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    _lower_bound: object = field(default=None, repr=False)  # the ratio, or a call forming it

    @property
    def lower_bound_ratio(self) -> float:
        """The lower-bound ratio of a finite-gamma solution (_finalize),
        formed on the first read; None for the endpoints."""
        if callable(self._lower_bound):
            self._lower_bound = self._lower_bound()
        return self._lower_bound


def _as_list(sigma_list):
    if sigma_list is None:
        return []
    if isinstance(sigma_list, RadonMeasure):
        return [sigma_list]
    return list(sigma_list)


def _fixed_composer(sigma_list, q_list, mu, wgrid, pts):
    """u -> (the measure sum_m sigma^(m) u^{q_m} + mu, its ball masses at
    pts) for iterates on wgrid, each sigma density's mass table laid out and
    located here once (mu's masses read once); the zero measure when the
    mass is not positive (or NaN)."""
    terms = [([weighting(c, wgrid, pts) for c in s.components()], q)
             for s, q in zip(sigma_list, q_list) if s.total_mass() != 0.0]
    zero = zero_measure(mu.dim if mu is not None else sigma_list[0].dim)
    rest = [mu] if mu is not None and mu.total_mass() > 0 else [zero]
    mu_m = rest[0].centered_mass(pts)

    def compose(u):
        parts = [w(g) for ws, q in terms for g in [u ** q] for w in ws]
        nu = Sum([m for m, _ in parts] + rest)
        return nu if nu.total_mass() > 0 else zero, \
            sum((masses for _, masses in parts), mu_m)
    return compose


def initial_subsolution(sigma: RadonMeasure, q: float, params: ProblemParams,
                        quad: QuadratureConfig = DEFAULT_QUAD,
                        grid=None) -> RadialFunction:
    """Starting subsolution c * v^{(p-1)/(p-1-q)} where v solves
    -Delta_p v = ((p-1-q)/(p-1))^{p-1} sigma; the scale c <= 1 is
    fixed by a halving search certified by the node-level ball-mass
    comparison riesz(u0) <= sigma * u0^q."""
    validate(params)
    if sigma.total_mass() == 0.0:
        raise ZeroMeasure("subsolution needs a nonzero coefficient measure")
    p = params.p
    beta = (p - 1.0) / (p - 1.0 - q)
    tilde = scale(sigma, ((p - 1.0 - q) / (p - 1.0)) ** (p - 1.0))
    v = solve_radial_p_laplace(tilde, params, quad, grid=grid)
    base = v ** beta
    lhs1 = riesz_ball_mass(base, params)
    rhs1 = _fixed_composer([sigma], [q], None, base.grid, base.grid)(base)[1]
    live = lhs1 > 0
    if np.any(live & (rhs1 <= 0)):
        raise SubsolutionSearchFailed("coefficient measure cannot dominate the seed")
    c = 1.0
    for _ in range(60):
        ok = np.all(c ** (p - 1.0 - q) * lhs1[live] <= rhs1[live] * (1.0 + 1e-9))
        if ok:
            return base.scaled(c)
        c *= 0.5
    raise SubsolutionSearchFailed("no admissible scale above 2^-60")


def iterate_once(u_prev: RadialFunction, sigma_list, q_list, mu,
                 params: ProblemParams,
                 quad: QuadratureConfig = DEFAULT_QUAD,
                 grid=None) -> RadialFunction:
    """One monotone step: solve with the measure composed from u_prev."""
    sigma_list = _as_list(sigma_list)
    nu = _fixed_composer(sigma_list, q_list, mu, u_prev.grid, np.empty(0))(u_prev)[0]
    return solve_radial_p_laplace(nu, params, quad, grid=grid)


def _inputs(sigma_list, q_list, mu, params, quad, mode, mismatch):
    """Checked solver inputs: (sigma terms, mu, master grid).  A None
    sigma term or mu is the zero measure, and each term's q_m must lie in
    (0, p - 1) as params' own do (ExponentError)."""
    validate(replace(params, q_list=params.q_list + tuple(q_list)))
    if params.mode is not mode:
        raise ModeMismatch(mismatch)
    sigma_list = [zero_measure(params.n) if s is None else s
                  for s in _as_list(sigma_list)]
    if len(sigma_list) != len(q_list):
        raise ValueError("sigma_list and q_list lengths differ")
    mu = mu if mu is not None else zero_measure(params.n)
    if not any(s.total_mass() > 0 for s in sigma_list) and mu.total_mass() == 0.0:
        raise ZeroMeasure("all data vanish: (sigma, mu) must not be (0, 0)")
    return sigma_list, mu, marked_grid(quad.radial_grid(), sigma_list + [mu])


def _picard(sigma_list, q_list, mu, params, quad, u0, grid) -> Solution:
    """Picard iteration u_{j+1} = T(u_j), the potential of
    sum_m sigma^(m) u_j^{q_m} + mu, from u0 on the grid; one exact solve
    when every sigma vanishes.

    T is monotone and r-subhomogeneous, r = max q_m/(p-1), so v -> log T(e^v)
    contracts by r in the sup norm.  The loop mixes log x at the nodes
    (type-II Anderson, depth _DEPTH) from the shape u0/sup u0: the next input
    is T(x) scaled nodewise, which keeps T(x)'s log-slopes and so plain
    Picard's fixed point.  At max|log T(x) - log x| <= rel_tol plain steps
    certify T(x), taken _CERT_GAP rel_tol below (it lies above u0; they
    increase and converge).  A zero or NaN node of T(x), or a failed
    certificate, restarts plain Picard from u0 with the steps left.
    Iterates must increase except at gamma = 0, whose seed may start above
    the solution; at gamma = inf each step records its sup-recursion
    constant sup T(x) / (sup x^r + 1)."""
    if not any(s.total_mass() > 0 for s in sigma_list):
        u = solve_radial_p_laplace(mu, params, quad, grid=grid)
        return Solution(u=u, riesz=mu, residual_final=0.0, converged=True,
                        iterations_used=1, mode=params.mode, sup_norm=u.sup_norm)
    monotone = params.mode is not Mode.GAMMA_ZERO
    sup_recursion = params.mode is Mode.GAMMA_INFINITY
    pts = solve_points(grid, quad)
    compose = _fixed_composer(sigma_list, q_list, mu, grid, pts)
    r = max(q for s, q in zip(sigma_list, q_list) if s.total_mass() > 0) / (params.p - 1.0)
    x = u0.scaled(1.0 / u0.sup_norm) if 0 < u0.sup_norm < math.inf else u0
    u0_vals = u0.values if np.array_equal(u0.grid, grid) else u0.eval(grid)
    (current, cur_m), phase, hist, best = compose(x), "mix", [], math.inf
    trace, residual, converged, u = [], math.inf, False, u0
    for j in range(1, quad.max_iter + 1):
        u = _solve_on_grid(current, pts, cur_m, params, quad, grid)
        # at the nodes eval returns the stored values
        x_vals = x.values if np.array_equal(x.grid, u.grid) else x.eval(u.grid)
        residual = float(np.max(np.abs(u.values - x_vals)
                                / np.maximum(u.values, _EPS))) if len(u.grid) else 0.0
        mixing, nxt = phase == "mix", u
        if mixing and not np.all((u.values > 0) & (u.values < math.inf)):  # 0, inf or NaN
            nxt, phase = u0, "plain"
        elif mixing and np.all(x_vals > 0):
            f = np.log(u.values) - np.log(x_vals)
            f_max = float(np.max(np.abs(f)))
            # the last _DEPTH + 1 (log x, f), dropped when f grows past twice its best
            hist = ([] if f_max > 2.0 * best else hist[-_DEPTH:]) + [(np.log(x_vals), f)]
            best = min(best, f_max)
            if f_max <= quad.rel_tol:
                nxt, phase = u.scaled(1.0 - _CERT_GAP * quad.rel_tol), "certify"
                if monotone and np.any(nxt.values < u0_vals):
                    nxt, phase = u0, "plain"
            elif len(hist) > 1:
                dx, df = (np.diff(np.column_stack(h)) for h in zip(*hist))
                gamma = np.linalg.lstsq(df, f, rcond=None)[0]
                nxt = u.scaled(np.exp(-(dx + df) @ gamma))
        elif not mixing:
            # relative when certifying: the mixed estimate may be tiny
            floor = x_vals - 1e-12 if phase == "plain" else x_vals * (1.0 - 1e-12)
            if monotone and np.any(u.values < floor):
                if phase == "plain":
                    worst = float(np.max(x_vals - u.values))
                    raise MonotonicityViolated(
                        f"iterate decreased by {worst:.3e} at step {j}")
                nxt, phase = u0, "plain"
        nu, nu_m = compose(nxt)
        m1, m0 = nu_m[:len(grid)], cur_m[:len(grid)]  # at the grid nodes
        mass_residual = float(np.max(np.abs(m1 - m0) / np.maximum(m1, _EPS)))
        state = IterationState(j=j, residual=residual, mass_residual=mass_residual,
                               sup_norm=u.sup_norm)
        if sup_recursion and x.sup_norm > 0:
            state.energies["sup_recursion_constant"] = \
                u.sup_norm / (x.sup_norm ** r + 1.0)
        trace.append(state)
        x, current, cur_m = nxt, nu, nu_m
        if not mixing and nxt is u and residual <= quad.conv_tol \
                and mass_residual <= 10.0 * quad.rel_tol:
            converged = True
            break
    current = current if converged else compose(u)[0]  # unconverged: u's measure
    return Solution(u=u, riesz=current, residual_final=residual,
                    converged=converged, iterations_used=len(trace),
                    mode=params.mode, sup_norm=u.sup_norm, trace=trace)


def solve_minimal(sigma_list, q_list, mu, params: ProblemParams,
                  quad: QuadratureConfig = DEFAULT_QUAD, *,
                  start: RadialFunction = None,
                  check_conditions: bool = True) -> Solution:
    """Minimal solution for finite gamma; raises NotConverged (carrying the
    partial Solution) when the iteration cap is hit."""
    sigma_list, mu, grid = _inputs(sigma_list, q_list, mu, params, quad,
                                   Mode.FINITE_GAMMA,
                                   "solve_minimal needs finite gamma > 0")
    profiles = _lower_bound_profiles(sigma_list, mu, params, quad)
    energies = {}
    if check_conditions:
        g = params.gamma
        sigma_prof, mu_prof = profiles()
        for m, (sig, q, prof) in enumerate(zip(sigma_list, q_list, sigma_prof)):
            if prof is not None:
                energies[f"sigma{m}_energy"] = e = sigma_energy(sig, g, q, params,
                                                                quad, profile=prof)
                if math.isinf(e):
                    warnings.warn(f"coefficient energy for term {m} is infinite",
                                  stacklevel=2)
        if mu.total_mass() > 0:
            energies["mu_energy"] = e = wolff_energy(mu, g, params, quad,
                                                     profile=mu_prof)
            if math.isinf(e):
                warnings.warn("datum energy is infinite", stacklevel=2)

    u0 = start if start is not None else _start(sigma_list, q_list, mu, params,
                                                quad, grid)
    sol = _picard(sigma_list, q_list, mu, params, quad, u0, grid)
    _finalize(sol, sigma_list, q_list, mu, params, quad, profiles, check_conditions)
    sol.extras["condition_energies"] = energies
    if not sol.converged:
        raise NotConverged(
            f"no convergence within {quad.max_iter} iterations "
            f"(residual {sol.residual_final:.3e})", solution=sol)
    return sol


def _start(sigma_list, q_list, mu, params, quad, grid):
    """Starting iterate: the largest explicit subsolution of the sigma
    terms when mu vanishes, zero otherwise."""
    if mu.total_mass() == 0.0:
        subs = [initial_subsolution(s, q, params, quad, grid=grid)
                for s, q in zip(sigma_list, q_list) if s.total_mass() > 0]
        if subs:
            return subs[0] if len(subs) == 1 else nodewise_max(subs)
    return RadialFunction(grid, np.zeros_like(grid), 0.0, params.tail_exp,
                          0.0, np.zeros_like(grid))


def _lower_bound_profiles(sigma_list, mu, params, quad):
    """A call giving W sigma^(m) of the live terms (None for the others)
    and W mu for an atom-free mu with mass (else None), the profiles that
    the condition energies and the lower-bound ratio read; built on the
    first call only."""
    @cache
    def profiles():
        sigma_prof = [wolff_profile(s, params, quad) if s.total_mass() > 0 else None
                      for s in sigma_list]
        mu_prof = wolff_profile(mu, params, quad) if (
            mu.total_mass() > 0 and mu.is_radial and not _split(mu)[1]) else None
        return sigma_prof, mu_prof
    return profiles


def _finalize(sol: Solution, sigma_list, q_list, mu, params, quad, profiles, eager):
    """Energy and Lorentz norm of a finite-gamma solution, and its lower
    bound ratio min over the grid of
    u / [sum_m (W sigma^(m))^{(p-1)/(p-1-q_m)} + W mu] from profiles(): now
    when eager, else on the first read of Solution.lower_bound_ratio."""
    u = sol.u
    p = params.p
    sol.generalized_energy = generalized_energy(u, sigma_list, q_list, mu,
                                                params.gamma, params, quad)
    ex = derive_exponents(params)
    sol.lorentz_norm = lorentz_norm(u, ex.lorentz_r, ex.lorentz_rho, params, quad)

    def ratio():
        sigma_prof, mu_prof = profiles()
        denom = np.zeros_like(u.grid)
        for prof, q in zip(sigma_prof, q_list):
            if prof is not None:
                denom += np.maximum(prof.eval(u.grid), 0.0) ** ((p - 1.0) / (p - 1.0 - q))
        if mu_prof is not None:
            denom += np.maximum(mu_prof.eval(u.grid), 0.0)
        live = denom > 0
        return float(np.min(u.values[live] / denom[live])) if np.any(live) else None
    sol._lower_bound = ratio() if eager else ratio


def solve_with_exhaustion(sigma_list, q_list, mu, params: ProblemParams,
                          quad: QuadratureConfig = DEFAULT_QUAD,
                          k_max: int = 5):
    """Solve with all inputs replaced by their cutoff restrictions for
    k = 1..k_max; solutions increase in k."""
    sigma_list, mu, _ = _inputs(sigma_list, q_list, mu, params, quad, Mode.FINITE_GAMMA,
                                "exhaustion needs finite gamma > 0")
    sols = []
    for k in range(1, k_max + 1):
        sig_k = [cutoff_measure(s, k, params, quad) for s in sigma_list]
        mu_k = cutoff_measure(mu, k, params, quad)
        if all(s.total_mass() == 0 for s in sig_k) and mu_k.total_mass() == 0:
            u = zero_profile(quad)
            sol = Solution(u=u, riesz=zero_measure(params.n), residual_final=0.0,
                           converged=True, iterations_used=0, mode=params.mode)
        else:
            sol = solve_minimal(sig_k, q_list, mu_k, params, quad,
                                check_conditions=False)
        if sols:
            gap = sols[-1].u.eval(sol.u.grid) - sol.u.values
            if np.any(gap > 1e-10 * np.maximum(sol.u.values, 1.0)):
                raise MonotonicityViolated(
                    f"exhaustion level {k} fell below level {k - 1}")
        sols.append(sol)
    return sols


def solve_bounded_endpoint(sigma_list, q_list, mu, params: ProblemParams,
                           quad: QuadratureConfig = DEFAULT_QUAD) -> Solution:
    """Minimal bounded solution under sup-norm hypotheses (gamma = inf)."""
    sigma_list, mu, grid = _inputs(sigma_list, q_list, mu, params, quad,
                                   Mode.GAMMA_INFINITY,
                                   "bounded endpoint needs gamma = inf")
    for name, m in [("sigma", s) for s in sigma_list] + [("mu", mu)]:
        if m.total_mass() > 0 and math.isinf(wolff_sup_on_support(m, params, quad)):
            raise UnboundedCondition(f"potential of {name} is unbounded on its support")

    u0 = _start(sigma_list, q_list, mu, params, quad, grid)
    sol = _picard(sigma_list, q_list, mu, params, quad, u0, grid)
    consts = [st.energies.get("sup_recursion_constant") for st in sol.trace]
    consts = [c for c in consts if c is not None and math.isfinite(c)]
    sol.extras["sup_recursion_constant"] = max(consts) if consts else None
    sol.extras["bounded"] = math.isfinite(sol.sup_norm)
    if not sol.converged:
        raise NotConverged("bounded endpoint did not converge", solution=sol)
    return sol


def intrinsic_fixed_point(sigma, q, mu, params: ProblemParams,
                          quad: QuadratureConfig = DEFAULT_QUAD) -> Solution:
    """gamma = 0 endpoint: Picard iteration from the potential-power seed
    (W sigma)^{(p-1)/(p-1-q)}.

    Reports convergence of the L^q(d sigma) quantity, finiteness of the
    Riesz mass, and the weak Lorentz norm at (n(p-1)/(n-p), inf).
    Non-convergence is reported (converged=False), not raised: the
    intrinsic fixed point is a hypothesis, and the iteration cannot
    decide existence.
    """
    (sigma,), mu, grid = _inputs([sigma], [q], mu, params, quad, Mode.GAMMA_ZERO,
                                 "intrinsic endpoint needs gamma = 0")
    p = params.p
    live = sigma.total_mass() > 0
    u0 = wolff_profile(sigma, params, quad, d_grid=grid) ** ((p - 1.0) / (p - 1.0 - q)) \
        if live else None
    sol = _picard([sigma], [q], mu, params, quad, u0, grid)
    lq = integrate_against(sigma, lambda s: np.maximum(sol.u.eval(s), 0.0) ** q,
                           quad) if live else 0.0
    sol.extras["sigma_lq"] = lq
    sol.extras["riesz_mass"] = lq + mu.total_mass()
    r0 = params.n * (p - 1.0) / (params.n - p)
    sol.lorentz_norm = lorentz_norm(sol.u, r0, math.inf, params, quad)
    sol.extras["weak_lorentz_index"] = r0
    sol.extras["hypothesis_met"] = sol.converged
    return sol


def verify_solution(sol: Solution, sigma_list, q_list, mu,
                    params: ProblemParams,
                    quad: QuadratureConfig = DEFAULT_QUAD,
                    rng: np.random.Generator = None,
                    km_samples: int = 10) -> list:
    """Post-hoc verification reports for a converged Solution."""
    validate(params)
    sigma_list = _as_list(sigma_list)
    mu = mu if mu is not None else zero_measure(params.n)
    rng = rng if rng is not None else np.random.default_rng(0)
    u = sol.u
    p = params.p
    reports = []

    # (a) Riesz measure matches the composed right-hand side
    own = riesz_ball_mass(u, params)
    comp = sol.riesz.centered_mass(u.grid)
    live = comp > 0
    dev = float(np.max(np.abs(own[live] - comp[live]) / comp[live])) \
        if np.any(live) else 0.0
    reports.append(InequalityReport.build(
        "riesz_residual", dev, 10.0 * quad.rel_tol, bound=1.0))

    # (b) lower bound ratio: positivity is the claim, the magnitude is the
    # recorded empirical constant (it degrades as q -> p-1)
    ratio = sol.lower_bound_ratio
    if ratio is not None:
        reports.append(InequalityReport.build(
            "lower_bound", 1.0, ratio, bound=math.inf,
            extra={"empirical_c0": (1.0 / ratio) if ratio > 0 else math.inf}))

    # (c) two-sided pointwise sandwich at sampled (x, R)
    if sol.riesz.total_mass() > 0:
        lo_g, hi_g = u.grid[0] * 10, u.grid[-1] / 10
        samples = []
        for _ in range(km_samples):
            d = math.exp(rng.uniform(math.log(lo_g * 10), math.log(min(hi_g, 1e3))))
            samples.append((d, math.exp(rng.uniform(math.log(d * 0.1), math.log(d * 10)))))
        worst = km_sandwich_ratio(sol.riesz, u, samples, params, quad)
        reports.append(InequalityReport.build(
            "km_sandwich", worst, 1.0, bound=1e3))

    # (d) generalized energy decomposition (finite gamma)
    if params.mode is Mode.FINITE_GAMMA:
        g = params.gamma
        direct = integrate_against(
            sol.riesz, lambda s: np.maximum(u.eval(s), 0.0) ** g, quad) \
            if g > 0 else sol.riesz.total_mass()
        decomp = generalized_energy(u, sigma_list, q_list, mu, g, params, quad)
        gap = abs(direct - decomp) / max(abs(decomp), _EPS) \
            if math.isfinite(decomp) and math.isfinite(direct) else \
            (0.0 if direct == decomp else math.inf)
        reports.append(InequalityReport.build(
            "energy_decomposition", gap, 1e-6, bound=1.0,
            extra={"direct": direct, "decomposed": decomp}))

        # (e) gamma = 1: energy identity against the Dirichlet integral
        if abs(g - 1.0) < 1e-12:
            reports.append(energy_identity_report(u, decomp, params, quad))

        # (f) Lorentz norm finite at the solution-space indices
        reports.append(InequalityReport.build(
            "lorentz_finite", sol.lorentz_norm if sol.lorentz_norm is not None
            else math.inf, 1.0, bound=math.inf))
        reports[-1].passed = sol.lorentz_norm is not None and \
            math.isfinite(sol.lorentz_norm)

    # truncation-energy diagnostic: int |grad min(u, l)|^p <= C l
    lvl = 0.5 * (u.sup_norm if math.isfinite(u.sup_norm) else
                 float(np.max(u.values)))
    if lvl > 0:
        trunc = u.truncated(lvl)
        e_tr = dirichlet_energy(trunc, params, weight_gamma=1.0, quad=quad)
        reports.append(InequalityReport.build(
            "truncation_energy", e_tr, lvl * max(sol.riesz.total_mass(), _EPS),
            bound=_TRUNCATION_BOUND))
    return reports


def energy_identity_report(u: RadialFunction, measure_side: float,
                           params: ProblemParams,
                           quad: QuadratureConfig = DEFAULT_QUAD) -> InequalityReport:
    """gamma = 1: the Dirichlet integral of u against the measure side, the
    generalized energy of its data."""
    lhs = dirichlet_energy(u, params, weight_gamma=1.0, quad=quad)
    gap = abs(lhs - measure_side) / max(abs(measure_side), _EPS)
    return InequalityReport.build("energy_identity", gap, 1e-3, bound=1.0,
                                  extra={"dirichlet": lhs, "measure_side": measure_side})


def km_sandwich_ratio(nu: RadonMeasure, u: RadialFunction, samples,
                      params: ProblemParams,
                      quad: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Worst ratio in the two-sided pointwise sandwich
    W^R nu(x) <~ u(x) <~ inf_{B(x,R)} u + W^{2R} nu(x), u the potential of
    nu, over sampled (d, R) with x = d e_1; inf_{B(x,R)} u = u(d + R) for a
    nonincreasing radial u."""
    worst = 0.0
    for d, R in samples:
        x = np.zeros(params.n)
        x[0] = d
        w_r = truncated_wolff(nu, x, R, params, quad).value
        w_2r = truncated_wolff(nu, x, 2.0 * R, params, quad).value
        u_x = float(np.atleast_1d(u.eval(d))[0])
        inf_b = float(np.atleast_1d(u.eval(d + R))[0])
        if u_x > 0 and w_r > 0:
            worst = max(worst, w_r / u_x)
        if u_x > 0 and inf_b + w_2r > 0:
            worst = max(worst, u_x / (inf_b + w_2r))
    return worst
