import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wolfflab import (DimensionError, ExponentError, Mode, ModeMismatch,
                      ProblemParams, QuadratureConfig, derive_exponents,
                      params, validate)


def test_validate_accepts_strict_interior():
    pp = params(3, 2.0, [0.5], 1.0)
    assert pp.mode is Mode.FINITE_GAMMA
    assert validate(pp) is pp


def test_validate_rejects_p_equal_n():
    with pytest.raises(DimensionError):
        params(3, 3.0, [0.5], 1.0)


def test_validate_rejects_p_below_one():
    with pytest.raises(DimensionError):
        params(3, 1.0, [0.5], 1.0)


def test_validate_rejects_q_at_boundary():
    with pytest.raises(ExponentError):
        params(3, 2.0, [1.0], 1.0)
    with pytest.raises(ExponentError):
        params(3, 2.0, [0.0], 1.0)


def test_validate_rejects_near_boundary_q():
    # exponent algebra overflows when p-1-q underflows; strictness is
    # enforced with a numerical margin
    with pytest.raises(ExponentError):
        params(3, 2.0, [1.0 - 1e-12], 1.0)
    params(3, 2.0, [1.0 - 1e-3], 1.0)  # comfortably interior: fine


def test_mode_inference_and_mismatch():
    assert params(3, 2.0, 0.5, math.inf).mode is Mode.GAMMA_INFINITY
    assert params(3, 2.0, 0.5, 0.0).mode is Mode.GAMMA_ZERO
    bad = ProblemParams(n=3, p=2.0, q_list=(0.5,), gamma=1.0,
                        mode=Mode.GAMMA_ZERO)
    with pytest.raises(ModeMismatch):
        validate(bad)


def test_exponents_first_example():
    ex = derive_exponents(params(3, 2.0, 0.5, 1.0))
    assert ex.lorentz_r == pytest.approx(6.0, abs=0)
    assert ex.lorentz_rho == pytest.approx(2.0, abs=0)
    assert ex.sigma_energy_exp[0] == pytest.approx(3.0, abs=0)
    assert ex.tail_exp == pytest.approx(1.0, abs=0)


def test_exponents_second_example():
    ex = derive_exponents(params(5, 2.0, 0.5, 1.0))
    assert ex.lorentz_r == pytest.approx(10.0 / 3.0, rel=1e-15)
    assert ex.lorentz_rho == pytest.approx(2.0)
    assert ex.tail_exp == pytest.approx(3.0)


def test_exponents_third_example():
    ex = derive_exponents(params(4, 3.0, 1.0, 2.0))
    assert ex.sigma_energy_exp[0] == pytest.approx(6.0)
    assert ex.lorentz_r == pytest.approx(16.0)
    assert ex.lorentz_rho == pytest.approx(4.0)


def test_exponents_reject_endpoint_modes():
    with pytest.raises(ModeMismatch):
        derive_exponents(params(3, 2.0, 0.5, math.inf))
    with pytest.raises(ModeMismatch):
        derive_exponents(params(3, 2.0, 0.5, 0.0))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 8),
       p=st.floats(1.05, 7.5),
       q_rel=st.floats(0.05, 0.95),
       gamma=st.floats(0.01, 50.0))
def test_mutual_exponents_sum_to_one(n, p, q_rel, gamma):
    if not p < n:
        return
    q = q_rel * (p - 1.0)
    try:
        pp = params(n, p, [q], gamma)
    except ExponentError:
        return
    ex = derive_exponents(pp)
    for a, b in zip(ex.mutual_rhs_exp_mu, ex.mutual_rhs_exp_sigma):
        assert a + b == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 8), p=st.floats(1.1, 2.9),
       g1=st.floats(0.1, 10.0), g2=st.floats(0.1, 10.0))
def test_lorentz_r_increasing_in_gamma(n, p, g1, g2):
    if not (p < n and g1 < g2):
        return
    e1 = derive_exponents(params(n, p, [(p - 1) / 2], g1))
    e2 = derive_exponents(params(n, p, [(p - 1) / 2], g2))
    assert e1.lorentz_r < e2.lorentz_r


def test_quadrature_config_invariants():
    with pytest.raises(ValueError):
        QuadratureConfig(r_min=1.0, r_max=0.5)
    with pytest.raises(ValueError):
        QuadratureConfig(points_per_decade=4)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=2.0)
    g = QuadratureConfig().radial_grid()
    assert g[0] == pytest.approx(1e-6) and g[-1] == pytest.approx(1e6)


def test_validate_rejects_nan_gamma():
    with pytest.raises(ModeMismatch):
        validate(ProblemParams(n=3, p=2.0, q_list=(0.5,), gamma=math.nan))


@pytest.mark.parametrize("field, value", [
    ("max_iter", 200.5), ("max_iter", True), ("points_per_decade", 32.0),
    ("points_per_decade", math.inf), ("r_max", math.inf),
])
def test_quadrature_config_rejects_malformed_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        QuadratureConfig(**{field: value})


def test_refine_doubles_density():
    q = QuadratureConfig()
    assert q.refine().points_per_decade == 2 * q.points_per_decade
