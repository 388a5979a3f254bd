import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wolfflab import (DivergentTail, ExponentError, ModeMismatch, MonotonicityViolated, NotConverged,
                      QuadratureConfig, RadialDensity, SphericalShell,
                      UnboundedCondition,
                      ZeroMeasure, add, dirac, initial_subsolution,
                      intrinsic_fixed_point, iterate_once, multiply_radial, params,
                      riesz_ball_mass, scale, solve_bounded_endpoint,
                      solve_minimal, solve_radial_p_laplace,
                      solve_with_exhaustion, verify_solution, zero_measure)
from wolfflab.families import family_density
from wolfflab.measure import Sum
import wolfflab.solver
from wolfflab.solver import _fixed_composer
from wolfflab.radial_pde import marked_grid, nodewise_max, solve_points, zero_profile

from reference import plain_picard, reference_product


def manufactured_sigma(quad):
    """Coefficient engineered so (1 + r^2)^{-1/2} solves the n=3, p=2,
    q=1/2 problem with no pure measure term."""
    return RadialDensity.from_function(
        3, lambda s: 3.0 * (1.0 + np.asarray(s, float) ** 2) ** (-2.25),
        quad, tail=(3.0, 4.5))


def u_star(r):
    return (1.0 + np.asarray(r, float) ** 2) ** (-0.5)


def test_manufactured_convergence(pp3, quad):
    sigma = manufactured_sigma(quad)
    sol = solve_minimal([sigma], [0.5], None, pp3, quad)
    assert sol.converged and sol.iterations_used <= 50
    rs = np.geomspace(1e-2, 1e2, 400)
    err = np.max(np.abs(sol.u.eval(rs) - u_star(rs)) / u_star(rs))
    assert err < 1e-4
    assert math.isfinite(sol.generalized_energy)
    assert math.isfinite(sol.lorentz_norm)
    assert sol.lower_bound_ratio > 0


def test_pure_measure_single_step(pp3, quad):
    sol = solve_minimal([], [], dirac(3), pp3, quad, check_conditions=False)
    assert sol.converged and sol.iterations_used == 1
    assert sol.u.eval(1.0) == pytest.approx(1.0 / (4 * math.pi), rel=1e-10)


def test_all_zero_rejected(pp3, quad):
    with pytest.raises(ZeroMeasure):
        solve_minimal([zero_measure(3)], [0.5], zero_measure(3), pp3, quad)


def test_mode_mismatch(quad):
    pp_inf = params(3, 2.0, 0.5, math.inf)
    with pytest.raises(ModeMismatch):
        solve_minimal([], [], dirac(3), pp_inf, quad)


def test_initial_subsolution_is_subsolution(pp3, quad):
    sigma = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    u0 = initial_subsolution(sigma, 0.5, pp3, quad)
    lhs = riesz_ball_mass(u0, pp3)
    rhs = multiply_radial(sigma, u0 ** 0.5).centered_mass(u0.grid)
    live = lhs > 0
    assert np.all(lhs[live] <= rhs[live] * (1.0 + 1e-9))


def test_initial_subsolution_scaling(pp3, quad):
    sigma = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    u0 = initial_subsolution(sigma, 0.5, pp3, quad)
    lam = 4.0
    u0l = initial_subsolution(scale(sigma, lam), 0.5, pp3, quad)
    want = lam ** (1.0 / (pp3.p - 1.0 - 0.5)) * u0.values
    ratio = u0l.values / want
    # equal up to the halving-search granularity of the scale c
    assert np.allclose(ratio, ratio[0], rtol=1e-12)
    assert 0.5 <= ratio[0] <= 2.0


def test_initial_subsolution_zero_sigma(pp3, quad):
    with pytest.raises(ZeroMeasure):
        initial_subsolution(zero_measure(3), 0.5, pp3, quad)


def test_iterate_once_from_zero(pp3, quad):
    mu = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    u1 = iterate_once(zero_profile(quad), [zero_measure(3)], [0.5], mu, pp3, quad)
    direct = solve_radial_p_laplace(mu, pp3, quad)
    assert np.allclose(u1.eval(direct.grid), direct.values, rtol=1e-12)
    # zero data: stays zero
    u0 = iterate_once(zero_profile(quad), [zero_measure(3)], [0.5], None, pp3, quad)
    assert not np.any(u0.values)
    # the zero iterate lies on the step's grid with the potential tail rate
    pp5 = params(5, 2.0, 0.5, 1.0)
    z = iterate_once(zero_profile(quad), [zero_measure(5)], [0.5], None, pp5, quad)
    assert np.array_equal(z.grid, quad.radial_grid()) and z.tail_exp == pp5.tail_exp


def test_iterate_once_monotone_in_input(pp3, quad):
    sigma = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    mu = family_density(3, 0.5, 1.0, 2.2, quad)
    small = solve_radial_p_laplace(mu, pp3, quad)
    big = small.scaled(2.0)
    u_small = iterate_once(small, [sigma], [0.5], mu, pp3, quad)
    u_big = iterate_once(big, [sigma], [0.5], mu, pp3, quad)
    assert np.all(u_big.values >= u_small.eval(u_big.grid) * (1 - 1e-13))


def test_mixed_data_solution(pp3, quad):
    sigma = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    mu = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    sol = solve_minimal([sigma], [0.5], mu, pp3, quad)
    assert sol.converged
    assert sol.lower_bound_ratio > 0
    assert math.isfinite(sol.generalized_energy)
    # residual trace is eventually decreasing
    res = [st.residual for st in sol.trace]
    assert res[-1] <= quad.conv_tol


def test_monotone_trace(pp3, quad):
    sigma = manufactured_sigma(quad)
    sol = solve_minimal([sigma], [0.5], None, pp3, quad)
    assert all(st.residual >= -1e-15 for st in sol.trace)


def test_minimality_probe(pp3, quad):
    sigma = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    mu = family_density(3, 0.4, 0.8, 2.3, quad)
    sol = solve_minimal([sigma], [0.5], mu, pp3, quad)
    u = sol.u
    # candidate supersolutions: lambda^{1/(p-1)} u for lambda > 1 solves
    # -Delta_p w = lambda (sigma u^q + mu) >= sigma w^q + mu
    for lam in (1.5, 3.0, 10.0):
        w = u.scaled(lam ** (1.0 / (pp3.p - 1.0)))
        m_w = riesz_ball_mass(w, pp3)
        need = add(multiply_radial(sigma, w ** 0.5), mu).centered_mass(w.grid)
        live = need > 0
        assert np.all(m_w[live] >= need[live] * (1 - 1e-9))  # supersolution
        assert np.all(u.values <= w.values * (1.0 + 1e-6))  # minimality


def test_initialization_independence(pp3, quad):
    sigma = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    mu = family_density(3, 0.4, 0.8, 2.3, quad)
    sol_zero = solve_minimal([sigma], [0.5], mu, pp3, quad,
                             check_conditions=False)
    u0 = initial_subsolution(sigma, 0.5, pp3, quad,
                             grid=sol_zero.u.grid)
    sol_sub = solve_minimal([sigma], [0.5], mu, pp3, quad, start=u0,
                            check_conditions=False)
    gap = np.max(np.abs(sol_sub.u.eval(sol_zero.u.grid) - sol_zero.u.values)
                 / np.maximum(sol_zero.u.values, 1e-300))
    assert gap <= 10.0 * quad.conv_tol


def test_not_converged_carries_solution(pp3):
    tight = QuadratureConfig(points_per_decade=32, max_iter=3)
    sigma = manufactured_sigma(tight)
    with pytest.raises(NotConverged) as exc:
        solve_minimal([sigma], [0.5], None, pp3, tight, check_conditions=False)
    assert exc.value.solution is not None
    assert exc.value.solution.iterations_used == 3


def test_exhaustion_trivial_and_monotone(pp3, suite_quad):
    sigma = family_density(3, 0.3, 0.5, 2.5, suite_quad, cut=3.0)
    mu = family_density(3, 0.2, 0.6, 2.5, suite_quad, cut=2.0)
    sols = solve_with_exhaustion([sigma], [0.5], mu, pp3, suite_quad, k_max=5)
    assert len(sols) == 5
    vals = [s.u.eval(np.array([0.5]))[0] for s in sols]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
    direct = solve_minimal([sigma], [0.5], mu, pp3, suite_quad,
                           check_conditions=False)
    assert vals[-1] == pytest.approx(direct.u.eval(np.array([0.5]))[0],
                                     rel=10 * suite_quad.conv_tol)


def test_exhaustion_cuts_atomic_mu(pp3, suite_quad):
    sigma = family_density(3, 0.3, 0.5, 2.5, suite_quad, cut=3.0)
    sols = solve_with_exhaustion([sigma], [0.5], dirac(3), pp3, suite_quad,
                                 k_max=3)
    ref = solve_minimal([sigma], [0.5], None, pp3, suite_quad,
                        check_conditions=False)
    got = sols[-1].u.eval(np.array([1.0]))[0]
    assert got == pytest.approx(ref.u.eval(np.array([1.0]))[0], rel=1e-6)


@pytest.mark.parametrize("q", [0.0, -1.0, 1.0, 5.0])
def test_per_term_q_outside_range_raises(pp3, suite_quad, q):
    # q = 0 gave a "converged" solve of q = 0.5, q = -1 a monotonicity
    # failure and q = 5 a raw ValueError
    sigma = family_density(3, 1.0, 1.0, 2.5, suite_quad)
    with pytest.raises(ExponentError):
        solve_minimal([sigma], [q], None, pp3, suite_quad, check_conditions=False)


def test_bounded_endpoint_ball(quad):
    pp_inf = params(3, 2.0, 0.5, math.inf)
    sigma = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    sol = solve_bounded_endpoint([sigma], [0.5], None, pp_inf, quad)
    assert sol.converged
    assert math.isfinite(sol.sup_norm)
    assert sol.sup_norm == pytest.approx(sol.u.center_value)
    # the trace keeps the sup-recursion constant and no per-step energies
    assert all(set(st.energies) == {"sup_recursion_constant"} for st in sol.trace)
    assert sol.extras["sup_recursion_constant"] == max(
        st.energies["sup_recursion_constant"] for st in sol.trace)


def test_bounded_endpoint_rejects_atom(quad):
    pp_inf = params(3, 2.0, 0.5, math.inf)
    sigma = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    with pytest.raises(UnboundedCondition):
        solve_bounded_endpoint([sigma], [0.5], dirac(3), pp_inf, quad)


def test_bounded_endpoint_manufactured(quad):
    pp_inf = params(3, 2.0, 0.5, math.inf)
    sigma = manufactured_sigma(quad)
    sol = solve_bounded_endpoint([sigma], [0.5], None, pp_inf, quad)
    assert sol.sup_norm == pytest.approx(1.0, abs=1e-4)


def test_intrinsic_zero_sigma(quad):
    pp0 = params(3, 2.0, 0.5, 0.0)
    mu = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    sol = intrinsic_fixed_point(None, 0.5, mu, pp0, quad)
    assert sol.converged and sol.iterations_used == 1
    assert math.isfinite(sol.lorentz_norm)
    assert sol.extras["riesz_mass"] == pytest.approx(mu.total_mass(), rel=1e-9)


def test_intrinsic_manufactured(quad):
    pp0 = params(3, 2.0, 0.5, 0.0)
    sigma = manufactured_sigma(quad)
    sol = intrinsic_fixed_point(sigma, 0.5, None, pp0, quad)
    assert sol.converged
    rs = np.geomspace(1e-2, 1e2, 200)
    err = np.max(np.abs(sol.u.eval(rs) - u_star(rs)) / u_star(rs))
    assert err < 1e-3
    assert math.isfinite(sol.extras["sigma_lq"])


def test_intrinsic_scaling(quad):
    pp0 = params(3, 2.0, 0.5, 0.0)
    sigma = manufactured_sigma(quad)
    lam = 1e-6
    sol = intrinsic_fixed_point(scale(sigma, lam), 0.5, None, pp0, quad)
    assert sol.converged
    rs = np.geomspace(1e-1, 1e1, 50)
    want = lam ** (1.0 / (pp0.p - 1.0 - 0.5)) * u_star(rs)
    assert np.allclose(sol.u.eval(rs), want, rtol=1e-5)


def test_verify_solution_manufactured(pp3, quad):
    sigma = manufactured_sigma(quad)
    sol = solve_minimal([sigma], [0.5], None, pp3, quad)
    reports = verify_solution(sol, [sigma], [0.5], None, pp3, quad)
    by_name = {r.name: r for r in reports}
    assert by_name["riesz_residual"].passed
    assert by_name["lower_bound"].passed
    assert by_name["km_sandwich"].passed
    assert by_name["energy_decomposition"].passed
    assert by_name["energy_identity"].passed
    assert by_name["energy_identity"].lhs < 1e-3
    assert by_name["lorentz_finite"].passed
    assert by_name["truncation_energy"].passed


def test_verify_solution_pure_measure(pp3, quad):
    mu = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    sol = solve_minimal([], [], mu, pp3, quad, check_conditions=False)
    reports = verify_solution(sol, [], [], mu, pp3, quad)
    assert all(r.passed for r in reports)


def test_bounded_endpoint_zero_sigma_is_one_solve(quad):
    # with every sigma zero the bounded endpoint makes the one exact solve
    # of the pure measure problem, so no step records a sup-recursion
    pp_inf = params(3, 2.0, 0.5, math.inf)
    mu = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    sol = solve_bounded_endpoint([zero_measure(3)], [0.5], mu, pp_inf, quad)
    assert sol.converged and sol.iterations_used == 1 and sol.trace == []
    assert sol.extras["sup_recursion_constant"] is None
    assert sol.extras["bounded"] and sol.sup_norm == sol.u.sup_norm
    direct = solve_radial_p_laplace(mu, pp_inf, quad, grid=sol.u.grid)
    assert np.array_equal(sol.u.values, direct.values)


def test_condition_warnings_for_atomic_sigma(pp3, quad):
    # atomic sigma has infinite coefficient energy: warn, not raise
    sigma = add(RadialDensity.uniform_ball(3, 1.0, 1.0, quad), dirac(3, 0.1))
    mu = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            solve_minimal([sigma], [0.5], mu, pp3, quad)
        except Exception:
            pass
    assert any("infinite" in str(w.message) for w in caught)


# -- the Picard step on fixed node sets -------------------------------------

def _step_case(case, n, quad):
    """(sigma, mu) of one reference case."""
    tailed = family_density(n, 2.0, 0.8, n / 2.0 + 1.0, quad)
    if case == "tailed":
        return tailed, None
    if case == "cut":
        return family_density(n, 2.0, 0.8, n / 2.0 + 1.0, quad, cut=1.7), None
    if case == "shell_atom_mu":
        return tailed, add(SphericalShell(n, 0.7, 0.3), dirac(n, 0.2))
    return RadialDensity.from_function(
        n, lambda s: np.asarray(s, float) ** -2.5, quad, tail=(1.0, 2.5),
        allow_infinite_mass=True), None


@pytest.mark.parametrize("n,p", [(3, 1.5), (3, 2.0), (3, 2.95),
                                 (5, 1.5), (5, 2.0), (5, 2.95)])
@pytest.mark.parametrize("case", ["tailed", "cut", "shell_atom_mu", "infinite"])
def test_fixed_step_matches_composed_solve(case, n, p):
    # one step on the fixed node sets against the solve of the composed
    # measure built from reference products: the same node values, slopes,
    # center value and tail, and the same node ball masses (to 1e-15 when
    # mu has several parts: the composer adds mu's masses first)
    quad = QuadratureConfig(points_per_decade=16)
    pp = params(n, p, 0.5 * (p - 1.0), 1.0)
    qs = [pp.q]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sigma, mu = _step_case(case, n, quad)
        grid = marked_grid(quad.radial_grid(), [sigma] + ([mu] if mu else []))
        u = solve_radial_p_laplace(family_density(n, 1.0, 1.0, n / 2.0 + 1.0, quad),
                                   pp, quad, grid=grid)
        assert np.array_equal(u.grid, grid)
        nu = Sum([reference_product(sigma, u ** qs[0])] + ([mu] if mu else []))
        try:
            ref = solve_radial_p_laplace(nu, pp, quad, grid=grid)
        except DivergentTail:
            with pytest.raises(DivergentTail):
                iterate_once(u, [sigma], qs, mu, pp, quad, grid=grid)
            return
        got = iterate_once(u, [sigma], qs, mu, pp, quad, grid=grid)
        masses = _fixed_composer([sigma], qs, mu, grid, grid)(u)[1]
    for name in ("grid", "values", "deriv", "center_value", "tail_coeff", "tail_exp"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    if mu is None:
        assert np.array_equal(masses[:len(grid)], nu.centered_mass(grid))
    else:
        assert np.allclose(masses[:len(grid)], nu.centered_mass(grid), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("case", ["tailed", "cut", "shell_atom_mu", "infinite"])
def test_composer_masses_are_the_composed_measures(case):
    # the composer reads its masses at every solve point (nodes, Gauss
    # nodes, head fit points) from points located once per solve; they are
    # the centered masses of the measure it composes
    quad = QuadratureConfig(points_per_decade=32)
    pp = params(3, 2.0, 0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sigma, mu = _step_case(case, 3, quad)
        grid = marked_grid(quad.radial_grid(), [sigma] + ([mu] if mu else []))
        u = solve_radial_p_laplace(family_density(3, 1.0, 1.0, 2.5, quad), pp, quad,
                                   grid=grid)
        pts = solve_points(grid, quad)
        compose = _fixed_composer([sigma], [0.5], mu, grid, pts)
        for w in (u, u.scaled(3.0)):
            nu, masses = compose(w)
            np.testing.assert_allclose(masses, nu.centered_mass(pts), rtol=1e-14, atol=0.0)


def _count_calls(monkeypatch):
    """Count the measure-building calls of the solver layers."""
    import wolfflab.energy
    import wolfflab.measure
    import wolfflab.solver
    counts = {"init": 0, "multiply_radial": 0, "integrate_against": 0}
    init = RadialDensity.__init__

    def counted_init(self, *args, **kwargs):
        counts["init"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RadialDensity, "__init__", counted_init)
    for name in ("multiply_radial", "integrate_against"):
        fn = getattr(wolfflab.measure, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (wolfflab.measure, wolfflab.solver, wolfflab.energy):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    return counts


def _unconverged_run(max_iter):
    """(sigma, q, params, quad) of a run still unconverged after 10 and 30
    steps: q/(p-1) = 0.9 and conv_tol 1e-14, whose plain steps after the
    mixing shrink by about 0.9 each."""
    quad = QuadratureConfig(points_per_decade=32, max_iter=max_iter, conv_tol=1e-14)
    return _family_problem(3, 2.0, 0.9, quad) + (quad,)


def test_picard_steps_build_no_measures(monkeypatch):
    # a step builds no RadialDensity and calls neither multiply_radial
    # nor integrate_against: 10 and 30 allowed
    # steps cost the same number of such calls.  Nor does the solve build
    # a product after the loop: the subsolution's scaled sigma is a table
    # too, so the solve builds no RadialDensity and never calls multiply_radial
    counts = _count_calls(monkeypatch)
    seen = []
    for max_iter in (10, 30):
        sigma, q, pp, quad = _unconverged_run(max_iter)
        before = dict(counts)
        try:
            sol = solve_minimal([sigma], [q], None, pp, quad,
                                check_conditions=False)
        except NotConverged as e:
            sol = e.solution
        seen.append({k: counts[k] - before[k] for k in counts})
        assert all(st.energies == {} for st in sol.trace)
    assert seen[0] == seen[1]
    assert seen[0]["init"] == 0 and seen[0]["multiply_radial"] == 0
    assert sol.iterations_used > 10


def test_picard_locates_fixed_sets_once_per_solve(monkeypatch):
    # the table points on the iterate's grid (head fits included) and the
    # solve points in each table's edges are located once per solve, and
    # the solve reads its head fit from the composed masses: on this
    # atom-free problem 10 and 30 allowed steps build the same number of
    # locations
    from wolfflab.quadrature import Located
    sizes = []

    def counted(self, edges, r, _init=Located.__init__):
        sizes.append(np.size(r))
        _init(self, edges, r)
    monkeypatch.setattr(Located, "__init__", counted)
    seen = []
    for max_iter in (10, 30):
        sigma, q, pp, quad = _unconverged_run(max_iter)
        del sizes[:]
        try:
            sol = solve_minimal([sigma], [q], None, pp, quad,
                                check_conditions=False)
        except NotConverged as e:
            sol = e.solution
        seen.append(len(sizes))
    assert seen[0] == seen[1] > 0
    assert sol.iterations_used > 10


# -- Anderson mixing of log u, certified by plain steps ----------------------

def _family_problem(n, p, r, quad):
    """sigma = (1 + s^2)^{-(n/2 + 1)} with q = r (p - 1), gamma = 1."""
    q = r * (p - 1.0)
    return family_density(n, 1.0, 1.0, n / 2.0 + 1.0, quad), q, params(n, p, q, 1.0)


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([3, 5]), p=st.sampled_from([1.5, 2.0, 2.95]),
       r=st.sampled_from([0.3, 0.5, 0.9]), log_a=st.floats(-3.0, 3.0))
def test_split_amplitude_covariance(n, p, r, log_a):
    # u solves -Delta_p u = sigma u^q  =>  a u solves it for a^{p-1-q} sigma;
    # each solve is within conv_tol of the fixed point
    quad = QuadratureConfig(points_per_decade=16)
    sigma, q, pp = _family_problem(n, p, r, quad)
    a = 10.0 ** log_a
    sol = solve_minimal([sigma], [q], None, pp, quad, check_conditions=False)
    sol_a = solve_minimal([scale(sigma, a ** (p - 1.0 - q))], [q], None, pp, quad,
                          check_conditions=False)
    assert np.array_equal(sol_a.u.grid, sol.u.grid)
    rel = np.max(np.abs(sol_a.u.values - a * sol.u.values) / (a * sol.u.values))
    assert rel <= 10.0 * quad.conv_tol


@pytest.mark.parametrize("n,p,r", [(3, 2.0, 0.3), (3, 1.5, 0.5), (5, 2.95, 0.5)])
def test_split_matches_plain_picard(n, p, r):
    # the mixed solution against plain Picard by iterate_once from the
    # same subsolution, run until its step is below conv_tol (1 - r), so
    # that it lies within conv_tol of its limit
    quad = QuadratureConfig(points_per_decade=16)
    sigma, q, pp = _family_problem(n, p, r, quad)
    sol = solve_minimal([sigma], [q], None, pp, quad, check_conditions=False)
    grid = marked_grid(quad.radial_grid(), [sigma])
    u0 = initial_subsolution(sigma, q, pp, quad, grid=grid)
    ref = plain_picard(u0, [sigma], [q], None, pp, quad, grid, quad.conv_tol * (1.0 - r))
    assert ref is not None
    rel = np.max(np.abs(sol.u.values - ref.values) / ref.values)
    assert rel <= 10.0 * quad.conv_tol


def test_split_solves_ratio_0_9():
    # q/(p-1) = 0.9: plain Picard stops unconverged after 200 steps
    quad = QuadratureConfig(points_per_decade=32)
    sigma, q, pp = _family_problem(3, 2.0, 0.9, quad)
    sol = solve_minimal([sigma], [q], None, pp, quad, check_conditions=False)
    assert sol.converged and sol.iterations_used <= 25
    reports = {r.name: r for r in verify_solution(sol, [sigma], [q], None, pp, quad,
                                                  km_samples=2)}
    assert reports["riesz_residual"].passed


@pytest.mark.parametrize("endpoint", ["minimal", "bounded", "intrinsic"])
def test_split_serves_every_endpoint(endpoint, quad):
    # manufactured sup u = 1: every endpoint converges in 9 steps instead
    # of about 30
    sigma = manufactured_sigma(quad)
    if endpoint == "minimal":
        sol = solve_minimal([sigma], [0.5], None, params(3, 2.0, 0.5, 1.0), quad,
                            check_conditions=False)
    elif endpoint == "bounded":
        sol = solve_bounded_endpoint([sigma], [0.5], None, params(3, 2.0, 0.5, math.inf),
                                     quad)
    else:
        sol = intrinsic_fixed_point(sigma, 0.5, None, params(3, 2.0, 0.5, 0.0), quad)
    assert sol.converged and sol.iterations_used <= 12
    assert len(sol.trace) == sol.iterations_used
    err = np.max(np.abs(sol.u.values - u_star(sol.u.grid)) / u_star(sol.u.grid))
    assert err < 1e-3


def test_split_certificate_needs_start_below(pp3, suite_quad):
    # a start above the solution fails the certificate, and plain Picard
    # from it decreases
    sigma = manufactured_sigma(suite_quad)
    sol = solve_minimal([sigma], [0.5], None, pp3, suite_quad, check_conditions=False)
    assert np.all(sol.u.values >= initial_subsolution(
        sigma, 0.5, pp3, suite_quad, grid=sol.u.grid).values)
    with pytest.raises(MonotonicityViolated):
        solve_minimal([sigma], [0.5], None, pp3, suite_quad, start=sol.u.scaled(2.0),
                      check_conditions=False)


def test_split_failed_certificate_falls_back(pp3, suite_quad, monkeypatch):
    # certifying from above the fixed point makes the first certifying step
    # decrease: plain Picard restarts from the subsolution with the steps left
    sigma = manufactured_sigma(suite_quad)
    split = solve_minimal([sigma], [0.5], None, pp3, suite_quad, check_conditions=False)
    monkeypatch.setattr(wolfflab.solver, "_CERT_GAP", -1e3)
    sol = solve_minimal([sigma], [0.5], None, pp3, suite_quad, check_conditions=False)
    shape = split.iterations_used - 1
    assert sol.converged and sol.iterations_used > shape + 1 + 20
    sups = [st.sup_norm for st in sol.trace[shape + 1:]]
    assert sups[0] < 0.9 * split.sup_norm and all(b >= a for a, b in zip(sups, sups[1:]))
    rel = np.max(np.abs(sol.u.values - split.u.values) / split.u.values)
    assert rel <= 10.0 * suite_quad.conv_tol


def test_two_sigma_terms_mix_to_plain_picard():
    # the paper's case of several sub-natural terms: plain Picard takes 97
    # steps at q = (0.5, 0.95); the mixed loop reaches the same fixed point
    quad = QuadratureConfig(points_per_decade=32)
    pp = params(3, 2.0, 0.5, 1.0)
    sigmas = [family_density(3, 1.0, 1.0, 2.5, quad), family_density(3, 0.5, 2.0, 2.0, quad)]
    qs = [0.5, 0.95]
    sol = solve_minimal(sigmas, qs, None, pp, quad, check_conditions=False)
    assert sol.converged and sol.iterations_used <= 20
    u0 = nodewise_max([initial_subsolution(s, q, pp, quad, grid=sol.u.grid)
                       for s, q in zip(sigmas, qs)])
    ref = plain_picard(u0, sigmas, qs, None, pp, quad, sol.u.grid,
                       quad.conv_tol * (1.0 - max(qs)))
    assert ref is not None
    rel = np.max(np.abs(sol.u.values - ref.values) / ref.values)
    assert rel <= 10.0 * quad.conv_tol


def test_large_sigma_with_mu_converges():
    # amplitude 20 at q/(p-1) = 0.9 with mu: plain Picard stops unconverged
    # after 200 steps
    quad = QuadratureConfig(points_per_decade=32)
    pp = params(3, 2.0, 0.9, 1.0)
    sigma = family_density(3, 20.0, 1.0, 2.5, quad)
    mu = RadialDensity.uniform_ball(3, 1.0, 0.3, quad)
    sol = solve_minimal([sigma], [0.9], mu, pp, quad, check_conditions=False)
    assert sol.converged and sol.iterations_used <= 20
    reports = {r.name: r for r in verify_solution(sol, [sigma], [0.9], mu, pp, quad,
                                                  km_samples=2)}
    assert reports["riesz_residual"].passed


def test_tiny_start_never_mixes_to_zero(pp3, suite_quad):
    # u = 0 is a fixed point of the mixed map too: a start 1e-150 times the
    # subsolution must still reach the positive solution
    sigma = manufactured_sigma(suite_quad)
    sol = solve_minimal([sigma], [0.5], None, pp3, suite_quad, check_conditions=False)
    u0 = initial_subsolution(sigma, 0.5, pp3, suite_quad, grid=sol.u.grid)
    tiny = solve_minimal([sigma], [0.5], None, pp3, suite_quad, start=u0.scaled(1e-150),
                         check_conditions=False)
    assert tiny.converged and np.all(tiny.u.values > 0)
    rel = np.max(np.abs(tiny.u.values - sol.u.values) / sol.u.values)
    assert rel <= 10.0 * suite_quad.conv_tol


def test_truncation_energy_closed_form(pp3, suite_quad):
    # u = (1 + r^2)^{-1/2}, l = 1/2: int |grad min(u, l)|^2 is
    # 4 pi int_{sqrt 3}^inf r^4 (1 + r^2)^{-3} dr = pi^2/4 + 9 sqrt(3) pi/16
    sigma = manufactured_sigma(suite_quad)
    sol = solve_minimal([sigma], [0.5], None, pp3, suite_quad, check_conditions=False)
    reports = {r.name: r for r in verify_solution(sol, [sigma], [0.5], None, pp3,
                                                  suite_quad, km_samples=1)}
    exact = math.pi ** 2 / 4.0 + 9.0 * math.sqrt(3.0) * math.pi / 16.0
    assert abs(reports["truncation_energy"].lhs - exact) <= 1e-6
