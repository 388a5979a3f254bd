import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wolfflab import (DivergentTail, NonMonotoneProfile, NonRadialMeasure,
                      QuadratureConfig, RadialDensity, RadialFunction, Sum, dirac,
                      dirichlet_energy, integrate_against, params,
                      riesz_measure_of, scale, solve_minimal, solve_radial_p_laplace,
                      truncated_wolff, Atom)
from wolfflab.families import family_density, random_density
from wolfflab.quadrature import Located
from wolfflab.radial_pde import riesz_ball_mass


def fundamental(n, p, nwn, r):
    return (1.0 / nwn) ** (1.0 / (p - 1)) * (p - 1.0) / (n - p) \
        * r ** (-(n - p) / (p - 1.0))


def test_fundamental_solutions(np_grid_params, quad):
    for n, p in np_grid_params:
        pp = params(n, p, (p - 1) / 2, 1.0)
        u = solve_radial_p_laplace(dirac(n), pp, quad)
        for r in (0.1, 1.0, 10.0):
            want = fundamental(n, p, pp.sphere_area, r)
            assert u.eval(r) == pytest.approx(want, rel=1e-6)
        assert math.isinf(u.center_value)
        assert u.tail_exp == pytest.approx((n - p) / (p - 1))


def test_fundamental_n3_value(pp3, quad):
    u = solve_radial_p_laplace(dirac(3), pp3, quad)
    assert u.eval(1.0) == pytest.approx(1.0 / (4 * math.pi), rel=1e-12)


def test_solver_homogeneity(pp3, quad, rng):
    nu = family_density(3, 1.0, 1.2, 2.4, quad)
    u = solve_radial_p_laplace(nu, pp3, quad)
    for lam in (1e-3, 7.0, 1e3):
        ul = solve_radial_p_laplace(scale(nu, lam), pp3, quad)
        assert np.allclose(ul.values, lam ** (1.0 / (pp3.p - 1)) * u.values,
                           rtol=1e-13)


def test_solver_comparison(pp3, quad):
    nu1 = family_density(3, 1.0, 1.2, 2.4, quad)
    nu2 = Sum([nu1, dirac(3, 0.3)])
    u1 = solve_radial_p_laplace(nu1, pp3, quad)
    u2 = solve_radial_p_laplace(nu2, pp3, quad)
    assert np.all(u2.eval(u1.grid) >= u1.values * (1 - 1e-14))


def test_rejects_non_radial(pp3, quad):
    with pytest.raises(NonRadialMeasure):
        solve_radial_p_laplace(Atom([1.0, 0, 0], 1.0), pp3, quad)


def test_riesz_of_fundamental_is_unit_mass(pp3, quad):
    u = solve_radial_p_laplace(dirac(3), pp3, quad)
    nu = riesz_measure_of(u, pp3)
    r = np.array([1e-4, 0.01, 1.0, 100.0])
    assert np.allclose(nu.centered_mass(r), 1.0, rtol=1e-12)


def test_riesz_of_constant_is_zero(pp3):
    g = np.geomspace(1e-3, 1e3, 50)
    const = RadialFunction(g, np.full_like(g, 2.0), 0.0, 0.0, 2.0,
                           np.zeros_like(g))
    nu = riesz_measure_of(const, pp3)
    assert nu.total_mass() == 0.0


def test_riesz_round_trip_seeded(np_grid_params, quad):
    worst = 0.0
    for n, p in np_grid_params:
        pp = params(n, p, (p - 1) / 2, 1.0)
        for seed in range(7):
            gen = np.random.default_rng(seed)
            nu, _ = random_density(gen, pp, quad)
            u = solve_radial_p_laplace(nu, pp, quad)
            back = riesz_measure_of(u, pp)
            r = u.grid[:: len(u.grid) // 40]
            m0 = nu.centered_mass(r)
            m1 = back.centered_mass(r)
            live = m0 > 1e-12 * nu.total_mass()
            worst = max(worst, float(np.max(
                np.abs(m1[live] - m0[live]) / m0[live])))
    assert worst < 1e-6


def test_riesz_rejects_increasing_profile(pp3):
    g = np.geomspace(0.1, 10, 30)
    vals = np.linspace(1.0, 2.0, 30)
    with pytest.raises(NonMonotoneProfile):
        riesz_measure_of(RadialFunction(g, vals), pp3)


def test_eval_nodes_tail_center(pp3, quad):
    nu = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    u = solve_radial_p_laplace(nu, pp3, quad)
    idx = len(u.grid) // 2
    assert u.eval(u.grid[idx]) == u.values[idx]
    r_far = u.grid[-1] * 2.0
    assert u.eval(r_far) == pytest.approx(
        u.tail_coeff * r_far ** (-u.tail_exp), rel=1e-14)
    # center of the unit-ball potential: 2 pi / (4 pi) = 1/2 of W(0)/n w_n
    assert u.eval(0.0) == pytest.approx(2 * math.pi / (4 * math.pi), rel=1e-9)


def test_eval_fundamental_below_grid(pp3, quad):
    u = solve_radial_p_laplace(dirac(3), pp3, quad)
    r = 0.5 * u.grid[0]
    assert u.eval(r) == pytest.approx(1.0 / (4 * math.pi * r), rel=1e-9)


def test_dirichlet_energy_examples(pp3, quad):
    assert math.isinf(dirichlet_energy(
        solve_radial_p_laplace(dirac(3), pp3, quad), pp3, 1.0, quad))
    g = np.geomspace(1e-3, 1e3, 60)
    zero = RadialFunction(g, np.zeros_like(g), 0.0, 1.0, 0.0, np.zeros_like(g))
    assert dirichlet_energy(zero, pp3, 1.0, quad) == 0.0


def test_energy_identity_ball(pp3, quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    u = solve_radial_p_laplace(ball, pp3, quad)
    lhs = dirichlet_energy(u, pp3, 1.0, quad)
    rhs = integrate_against(ball, u.eval, quad)
    assert lhs == pytest.approx(rhs, rel=1e-4)


def test_weighted_energy_gamma(pp3, quad):
    # gamma * int |grad u|^p u^{gamma-1} dx = int u^gamma d nu[u]
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    u = solve_radial_p_laplace(ball, pp3, quad)
    gamma = 2.0
    lhs = gamma * dirichlet_energy(u, pp3, gamma, quad)
    rhs = integrate_against(ball, lambda s: u.eval(s) ** gamma, quad)
    assert lhs == pytest.approx(rhs, rel=1e-4)


def test_km_sandwich_property(np_grid_params, quad):
    for n, p in np_grid_params:
        pp = params(n, p, (p - 1) / 2, 1.0)
        worst = 0.0
        for seed in range(5):
            gen = np.random.default_rng(100 + seed)
            nu, _ = random_density(gen, pp, quad)
            u = solve_radial_p_laplace(nu, pp, quad)
            for _ in range(6):
                d = 10.0 ** gen.uniform(-2, 2)
                R = d * 10.0 ** gen.uniform(-1, 1)
                x = np.zeros(n)
                x[0] = d
                w_r = truncated_wolff(nu, x, R, pp, quad).value
                w_2r = truncated_wolff(nu, x, 2 * R, pp, quad).value
                u_x = u.eval(d)
                inf_b = u.eval(d + R)
                if u_x > 0 and w_r > 0:
                    worst = max(worst, w_r / u_x)
                if u_x > 0:
                    worst = max(worst, u_x / (inf_b + w_2r))
        assert 1e-3 < worst < 1e3


def test_divergent_tail_raises(pp3, quad):
    # tau <= p: potential cannot decay at infinity
    heavy = RadialDensity.from_function(
        3, lambda s: (1.0 + np.asarray(s, float)) ** (-1.5), quad,
        tail=(1.0, 1.5), allow_infinite_mass=True)
    with pytest.raises(DivergentTail):
        solve_radial_p_laplace(heavy, pp3, quad)


def test_infinite_mass_convergent_tail(pp3, quad):
    # p < tau < n: infinite mass but decaying potential with the slow tail
    tau = 2.5
    nu = RadialDensity.from_function(
        3, lambda s: (1.0 + np.asarray(s, float) ** 2) ** (-tau / 2), quad,
        tail=(1.0, tau), allow_infinite_mass=True)
    u = solve_radial_p_laplace(nu, pp3, quad)
    assert np.all(np.isfinite(u.values))
    assert u.tail_exp == pytest.approx((tau - pp3.p) / (pp3.p - 1.0), rel=1e-6)


@pytest.mark.parametrize("tau", [2.25, 2.5, 2.75])
def test_infinite_mass_power_density_closed_form(pp3, suite_quad, tau):
    # density s^-tau, 2 < tau < 3, in n = 3 at p = 2: mu(B(0, r)) =
    # 4 pi r^(3-tau)/(3-tau) and u = r^(2-tau)/((3-tau)(tau-2)); the mass
    # table's head at 0 and the solver's decade tail at infinity are exact
    mu = RadialDensity.from_function(
        3, lambda s: np.asarray(s, float) ** -tau, suite_quad,
        tail=(1.0, tau), allow_infinite_mass=True)
    assert mu.centered_mass(1.0) == pytest.approx(4 * math.pi / (3 - tau), rel=1e-10)
    u = solve_radial_p_laplace(mu, pp3, suite_quad)
    coeff = 1.0 / ((3 - tau) * (tau - 2))
    assert u.values == pytest.approx(coeff * u.grid ** (2 - tau), rel=1e-10)
    assert u.tail_coeff == pytest.approx(coeff, rel=1e-10)
    assert u.tail_exp == pytest.approx(tau - 2, rel=1e-10)


def test_deriv_at_power_law_without_segment_table(quad):
    # without a segment table |u'| is the log-log interpolant of the node
    # slopes, continued by their power law below the grid and by the
    # tail's derivative beyond it: exact for a power law everywhere
    C, b = 2.5, 0.7
    g = quad.radial_grid()
    u = RadialFunction(g, C * g ** -b, C, b, math.inf, -C * b * g ** (-b - 1.0))
    r = np.concatenate([g[::50], np.sqrt(g[:-1] * g[1:])[::50],
                        g[0] * np.array([0.5, 1e-3]), g[-1] * np.array([2.0, 1e3])])
    assert np.allclose(u.deriv_at(r), -C * b * r ** (-b - 1.0), rtol=1e-13, atol=0.0)
    assert u.deriv_at(1.0) == pytest.approx(-C * b, rel=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("edge", ["low", "high"])
@pytest.mark.parametrize("with_mu", [False, True])
def test_solver_slope_matches_ball_mass_formula(suite_quad, n, edge, with_mu):
    # between nodes solver output's slope is the Gauss-point interpolant
    # that eval integrates; it stays within 1e-13 of the ball-mass formula
    # -(nu(B(0, s)) / (n w_n s^{n-1}))^{1/(p-1)} at random in-grid radii.
    # sol.u lies one Picard step (2.5e-10) from sol.riesz, so sol.riesz is
    # solved once more.  At p = 1.1, n = 6 the slope falls like s^-50 past
    # the support and the interpolant is 2.6e-12 off, hence p = 1.15
    p = 1.15 if edge == "low" else n - 0.1
    pp = params(n, p, 0.5 * (p - 1.0), 1.0)
    sigma = family_density(n, 1.0, 1.0, n / 2.0 + 1.0, suite_quad)
    mu = RadialDensity.uniform_ball(n, 1.0, 0.3, suite_quad) if with_mu else None
    sol = solve_minimal([sigma], [pp.q], mu, pp, suite_quad)
    u = solve_radial_p_laplace(sol.riesz, pp, suite_quad, grid=sol.u.grid)
    g = u.grid
    s = np.exp(np.random.default_rng(n).uniform(np.log(g[0]), np.log(g[-1]), 2000))
    want = -(sol.riesz.centered_mass(s) / (pp.sphere_area * s ** (n - 1))) ** (1.0 / (p - 1.0))
    np.testing.assert_allclose(u.deriv_at(s), want, rtol=1e-13, atol=0.0)


def test_stored_derivative_matches_mass_formula(pp3, quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    u = solve_radial_p_laplace(ball, pp3, quad)
    m = riesz_ball_mass(u, pp3)
    assert np.allclose(m, ball.centered_mass(u.grid), rtol=1e-12)


@pytest.mark.parametrize("ppd", [32, 64])
def test_solver_output_is_exact_between_nodes(ppd):
    # between nodes solver output falls from a node by the integral of |u'|
    # through the segment's Gauss values; the log-log Hermite interpolant
    # with the exact node slopes is 6.9e-8 (32 ppd) off here
    quad = QuadratureConfig(points_per_decade=ppd)
    u = solve_radial_p_laplace(family_density(3, 1.0, 1.0, 2.5, quad),
                               params(3, 2.0, 0.5, 1.0), quad)
    r = np.geomspace(1e-2, 1e2, 401)
    np.testing.assert_allclose(u.eval(r), (1.0 + r * r) ** -0.5 / 3.0, rtol=1e-13, atol=0.0)


# -- located evaluation ----------------------------------------------------

def _reference_eval(f, r):
    """RadialFunction.eval as written before located evaluation, locating
    the radii inside: the arithmetic the located form must reproduce."""
    out = np.empty_like(r)
    g, v = f.grid, f.values
    at0, low, high = r == 0.0, (r > 0) & (r < g[0]), r > g[-1]
    out[at0] = f.center_value
    if np.any(low):
        out[low] = f._eval_below(r[low])
    if np.any(high):
        out[high] = f.tail_coeff * r[high] ** (-f.tail_exp) if f.tail_coeff else 0.0
    mid = ~(at0 | low | high)
    rm = r[mid]
    k = np.searchsorted(g, rm)
    idx = np.clip(k - 1, 0, len(g) - 2)
    hit = np.clip(k, 0, len(g) - 1)
    on_node = g[hit] == rm
    v0, v1 = v[idx], v[idx + 1]
    val = np.empty_like(rm)
    pos = (v0 > 0) & (v1 > 0)
    if np.any(pos):
        i = idx[pos]
        h = f._lng[i + 1] - f._lng[i]
        t = (np.log(rm[pos]) - f._lng[i]) / h
        y0, y1 = f._lnv[i], f._lnv[i + 1]
        if f.deriv is not None:
            slope = g * f.deriv / np.maximum(v, 1e-300)
            s0, s1 = slope[i] * h, slope[i + 1] * h
            t2 = t * t
            t3 = t2 * t
            w = (2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + t) * s0 \
                + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * s1
            val[pos] = np.exp(np.clip(w, np.minimum(y0, y1), np.maximum(y0, y1)))
        else:
            val[pos] = np.exp(y0 * (1 - t) + y1 * t)
    lin = ~pos
    if np.any(lin):
        i = idx[lin]
        t = (rm[lin] - g[i]) / (g[i + 1] - g[i])
        val[lin] = v0[lin] * (1 - t) + v1[lin] * t
    val[on_node] = v[hit[on_node]]
    out[mid] = val
    return out


_node_values = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                        min_size=12, max_size=12)


@settings(deadline=None, max_examples=60)
@given(log_lo=st.floats(-4.0, 0.0), width=st.floats(0.5, 4.0),
       vals=st.tuples(_node_values, _node_values),
       slopes=st.one_of(st.none(), st.lists(st.floats(0.0, 1e3), min_size=12,
                                            max_size=12)),
       monotone=st.booleans(), center=st.sampled_from([None, 2e3, math.inf]),
       tail=st.sampled_from([0.0, 0.7]),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_located_eval_matches_eval(log_lo, width, vals, slopes, monotone, center,
                                   tail, fracs):
    # r = 0, radii below the grid, on and between nodes and past the last
    # node, for profiles with zero values, with and without node slopes,
    # with the monotone slopes of potential profiles (positive values) and
    # an infinite center value
    from wolfflab.radial_pde import monotone_deriv
    grid = np.geomspace(10.0 ** log_lo, 10.0 ** (log_lo + width), 12)
    deriv = None if slopes is None else -np.array(slopes)
    vals = [np.array(v) + 1.0 if monotone else np.array(v) for v in vals]
    f, f2 = (RadialFunction(grid, v, tail, 1.5, center,
                            monotone_deriv(grid, v) if monotone else deriv)
             for v in vals)
    between = grid[0] * (grid[-1] / grid[0]) ** np.array(fracs)
    r = np.concatenate([[0.0], grid[0] * np.array([1e-3, 0.5]), grid, between,
                        np.sqrt(grid[1:] * grid[:-1]), grid[-1] * np.array([1.5, 1e3])])
    loc = Located(f.grid, r)
    for h in (f, f2):
        want = _reference_eval(h, r)
        assert np.array_equal(h.eval(r), want, equal_nan=True)
        assert np.array_equal(h.eval(loc), want, equal_nan=True)
    assert f.eval(float(grid[3])) == f.values[3]
    # a NaN or negative r is no radius: NaN, not the tail or the center value
    assert np.all(np.isnan(f.eval([math.nan, -grid[3]])))
    assert np.all(np.isnan(f.deriv_at([math.nan, -grid[3]])))


def test_head_slope_where_the_node_ratio_leaves_the_double_range():
    # v[1] / v[0] underflows to 0: the slope is the difference of the logs,
    # not a raw math domain error; a ratio inside the range keeps its log
    g = np.geomspace(1.0, 10.0, 12)
    f = RadialFunction(g, np.zeros(12), 0.0, 1.5, None,
                       -np.array([2.0, 5e-324] + [0.0] * 10))
    assert np.all(np.isnan(f.deriv_at([math.nan, -g[3]])))
    assert f.abs_deriv.head_slope == (math.log(5e-324) - math.log(2.0)) / math.log(g[1] / g[0])
    h = RadialFunction(np.array([1.0, 2.0]), np.array([1e300, 1e-30]), 0.0, 1.5, math.inf)
    assert h.head_slope == (math.log(1e-30) - math.log(1e300)) / math.log(2.0)
    with np.errstate(over="ignore"):
        assert h.eval([1e-3])[0] == math.inf
    k = RadialFunction(np.array([1.0, 2.0]), np.array([3.0, 1.0]), 0.0, 1.5, math.inf)
    assert k.head_slope == math.log(1.0 / 3.0) / math.log(2.0)


def test_eval_matches_reference_at_window_ordered_radii(suite_quad):
    # at 12,288 radii in runs of geometric nodes about many centers (the
    # order in which product windows read a profile), with the grid nodes,
    # r = 0 and radii past the grid, a 385-node profile evaluates as
    # _reference_eval does, bit for bit: at one-shot radii, at a location
    # read twice (the second read from its kept place in log r), with and
    # without node slopes and with zero node values
    from wolfflab.radial_pde import monotone_deriv
    grid = suite_quad.radial_grid()
    assert len(grid) == 385
    rng = np.random.default_rng(28)
    centers = np.exp(rng.uniform(np.log(grid[0] / 10.0), np.log(grid[-1] * 10.0), 48))
    r = np.concatenate([np.multiply.outer(centers, np.geomspace(0.1, 10.0, 256)).ravel(),
                        [0.0], grid, [grid[-1] * 2.0]])
    assert len(r) >= 10_000
    vals = (1.0 + grid * grid) ** -0.75
    cut = np.where(grid < 1e3, vals, 0.0)
    profiles = [RadialFunction(grid, vals, 1.0, 1.5, None, monotone_deriv(grid, vals)),
                RadialFunction(grid, vals, 1.0, 1.5, math.inf),
                RadialFunction(grid, cut, 0.0, 1.5, None, -1.5 * cut / grid)]
    for f in profiles:
        want = _reference_eval(f, r)
        loc = Located(f.grid, r)
        assert np.array_equal(f.eval(r), want, equal_nan=True)
        assert np.array_equal(f.eval(loc), want, equal_nan=True)
        assert loc.log is not None and np.array_equal(f.eval(loc), want, equal_nan=True)
        assert loc._y is None  # no segment table read the location


def test_location_is_tied_to_its_grid():
    grid = np.geomspace(1e-2, 1e2, 9)
    f = RadialFunction(grid, 1.0 / grid)
    other = RadialFunction(grid * 1.5, 1.0 / grid)
    same = RadialFunction(grid.copy(), 2.0 / grid)
    loc = Located(f.grid, [0.3, 3.0])
    assert np.array_equal(same.eval(loc), same.eval([0.3, 3.0]))
    with pytest.raises(ValueError, match="another grid"):
        other.eval(loc)
