import math

import numpy as np
import pytest

from wolfflab import (RadialDensity, RadialFunction, check_density_conditions,
                      check_lorentz_embedding, density_condition_exponents,
                      dirac, lorentz_norm, params, rearrange,
                      scale, solve_radial_p_laplace, unit_ball_volume)
from wolfflab.families import family_density, family_profile

from oracles import lebesgue_radial_integral

W3 = 4.0 * math.pi / 3.0


def indicator_profile():
    """u = 1 on B(0,1): grid ends exactly at the jump radius."""
    g = np.geomspace(1e-6, 1.0, 385)
    return RadialFunction(g, np.ones_like(g), 0.0, 0.0, 1.0)


def test_indicator_rearrangement(pp3):
    rp = rearrange(indicator_profile(), pp3)
    assert np.allclose(rp.grid, W3 * indicator_profile().grid ** 3)
    assert np.all(rp.values == 1.0)
    assert rp.tail_coeff == 0.0


def test_indicator_lorentz_norm(pp3, quad):
    got = lorentz_norm(indicator_profile(), 6.0, 2.0, pp3, quad)
    want = math.sqrt(3.0) * W3 ** (1.0 / 6.0)
    assert got == pytest.approx(want, rel=1e-9)


def test_power_profile_rearrangement(pp3, quad):
    # u(r) = 1/r in R^3: f*(t) = (w_3 / t)^{1/3}
    g = quad.radial_grid()
    u = RadialFunction(g, 1.0 / g, 1.0, 1.0, math.inf)
    rp = rearrange(u, pp3)
    want = (W3 / rp.grid) ** (1.0 / 3.0)
    assert np.allclose(rp.values, want, rtol=1e-12)
    assert rp.tail_exp == pytest.approx(1.0 / 3.0)


def test_rearrangement_change_of_variables_exact(pp3, quad):
    u = family_profile(1.3, 0.7, 1.1, quad)
    rp = rearrange(u, pp3)
    assert np.array_equal(rp.values, u.values)
    assert np.allclose(rp.grid, W3 * u.grid ** 3, rtol=1e-15)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rearrangement_is_the_profile_in_t(n, quad):
    # log t (t = w_n r^n) is affine in log r, so with the slopes carried
    # over the log-log interpolant in t is the one in r: between the nodes, on the
    # power law of the first two nodes below them (infinite center) and on
    # the tail beyond.  Off-node radii stay within 1e3 of 1: rounding of
    # log t (|log t| ~ 60 at the ends of the default grid) alone reaches
    # 1.5e-14 there.
    pp = params(n, 2.0, 0.5, 1.0)
    g = quad.radial_grid()
    a, c = 0.5, 1.25
    vals = g ** -a * (1.0 + g * g) ** -c
    u = RadialFunction(g, vals, 1.0, a + 2.0 * c, math.inf,
                       vals * (-a / g - 2.0 * c * g / (1.0 + g * g)))
    f = rearrange(u, pp)
    mids = np.sqrt(g[:-1] * g[1:])
    r = np.concatenate([mids[(mids > 1e-3) & (mids < 1e3)],
                        g[0] * np.array([0.9, 0.5, 0.1]),
                        g[-1] * np.array([1.1, 10.0, 1e3])])
    got = f.eval(unit_ball_volume(n) * r ** n)
    assert np.allclose(got, u.eval(r), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("a_exp", [1.0, 2.0, 1.5])
def test_equimeasurability(pp3, quad, a_exp):
    # integral of (f*)^a dt equals the norm at equal indices (a, a) to the
    # a-th power; compare against an independent Lebesgue quadrature.
    # tail 2c = 4 keeps every tested power integrable over R^3.
    u = family_profile(1.2, 0.9, 2.0, quad)
    lhs = lebesgue_radial_integral(
        lambda r: float(np.atleast_1d(u.eval(r))[0]) ** a_exp, 3)
    got = lorentz_norm(u, a_exp, a_exp, pp3, quad) ** a_exp
    assert got == pytest.approx(lhs, rel=1e-6)


def test_equimeasurability_non_monotone(pp3, quad):
    # bump profile: increases then decays; rearrangement goes through the
    # distribution-function scan
    g = quad.radial_grid()
    vals = g ** 2 / (1.0 + g ** 2) ** 2
    u = RadialFunction(g, vals, 1.0, 2.0, 0.0)
    rp = rearrange(u, pp3)
    assert np.all(np.diff(rp.values) <= 1e-15)
    assert np.all(np.diff(rp.grid) > 0)
    # distribution function agrees with a brute-force scan at the
    # library's own level values
    from oracles import rearrangement_by_scan
    idx = [10, 25, 40]
    levels = rp.values[idx]
    t_oracle = rearrangement_by_scan(
        lambda r: r ** 2 / (1.0 + r ** 2) ** 2, 3, levels)
    for i, t_want in zip(idx, t_oracle):
        assert rp.grid[i] == pytest.approx(t_want, rel=1e-2)


def test_norm_at_equal_indices_matches_lebesgue(pp3, quad):
    u = family_profile(1.1, 1.4, 1.2, quad)
    r_idx = 4.0  # 4 * tail_exp = 9.6 > 3: integrable
    got = lorentz_norm(u, r_idx, r_idx, pp3, quad)
    want = lebesgue_radial_integral(
        lambda r: float(np.atleast_1d(u.eval(r))[0]) ** r_idx, 3) ** (1.0 / r_idx)
    assert got == pytest.approx(want, rel=1e-6)


def test_dilation_scaling(pp3, quad):
    u = family_profile(1.0, 1.0, 1.2, quad)
    lam = 3.7
    # u(./lam) has profile values on the dilated grid with tail coeff scaled
    ud = RadialFunction(u.grid * lam, u.values, u.tail_coeff * lam ** u.tail_exp,
                        u.tail_exp, u.center_value,
                        None if u.deriv is None else u.deriv / lam)
    r_idx, rho_idx = 5.0, 2.5
    n0 = lorentz_norm(u, r_idx, rho_idx, pp3, quad)
    n1 = lorentz_norm(ud, r_idx, rho_idx, pp3, quad)
    assert n1 == pytest.approx(lam ** (3.0 / r_idx) * n0, rel=1e-8)


def test_weak_norm_borderline(pp3, quad):
    # the potential of a point mass sits exactly on the weak-norm line
    u = solve_radial_p_laplace(dirac(3), pp3, quad)
    r_idx = 3.0 * (pp3.p - 1.0) / (3.0 - pp3.p)  # n(p-1)/(n-p)
    weak = lorentz_norm(u, r_idx, math.inf, pp3, quad)
    assert math.isfinite(weak) and weak > 0
    strong = lorentz_norm(u, r_idx, 2.0, pp3, quad)
    assert math.isinf(strong)


def test_embedding_vacuous_for_atom(pp3, quad):
    rep = check_lorentz_embedding(dirac(3), 1.0, pp3, quad)
    assert rep.vacuous and rep.passed


def test_embedding_ball(pp3, quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    rep = check_lorentz_embedding(ball, 1.0, pp3, quad)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
    assert rep.ratio is not None and rep.passed


def test_embedding_scale_invariance(pp3, quad):
    fam = family_density(3, 1.2, 0.8, 2.4, quad)
    base = check_lorentz_embedding(fam, 1.0, pp3, quad)
    for lam in (1e-3, 1e3):
        rep = check_lorentz_embedding(scale(fam, lam), 1.0, pp3, quad)
        assert rep.ratio == pytest.approx(base.ratio, rel=1e-10)


def test_density_condition_exponent_examples():
    pp = params(3, 2.0, 0.5, 1.0)
    s, t = density_condition_exponents(pp, "sigma")
    assert s == pytest.approx(4.0 / 3.0)
    assert t == pytest.approx(4.0)
    s, t = density_condition_exponents(pp, "mu")
    assert s == pytest.approx(1.2)
    assert t == pytest.approx(2.0)


def test_density_condition_dominance(pp3, quad):
    s_star, t_star = density_condition_exponents(pp3, "sigma")
    res = check_density_conditions((s_star, t_star), "sigma", pp3)
    assert res["dominates"]
    res = check_density_conditions((s_star, t_star * 2), "sigma", pp3)
    assert not res["dominates"]
    res = check_density_conditions((s_star * 1.1, t_star), "sigma", pp3)
    assert not res["dominates"]


def test_density_condition_instance_implication(pp3, quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    res = check_density_conditions(
        density_condition_exponents(pp3, "sigma"), "sigma", pp3,
        density=ball, quad=quad)
    assert math.isfinite(res["instance_norm"])
    assert math.isfinite(res["instance_energy"])
    assert res["implication_holds"]
