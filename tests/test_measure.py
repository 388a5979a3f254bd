import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import beta, betainc

from wolfflab import (Atom, NegativeRadius, NegativeScale, QuadratureConfig,
                      RadialDensity, SignError,
                      SphericalShell, Sum, add, ball_mass, cutoff_measure,
                      dirac, integrate_against, multiply_radial, params,
                      riesz_measure_of, scale, solve_radial_p_laplace,
                      support_radius, total_mass, zero_measure)
from wolfflab.families import family_density, family_density_fn
from wolfflab.measure import _EVEN_SWITCH, _cap_area, cap_fraction, weighting
from wolfflab.params import unit_ball_volume
from wolfflab.quadrature import Located
from wolfflab.radial_pde import RadialFunction

from oracles import MC_LENS_VOLUME, mc_lens_volume, sphere_intersection_volume
from reference import reference_product

W3 = 4.0 * math.pi / 3.0


# -- atoms -------------------------------------------------------------------

def test_atom_open_ball_indicator():
    mu = dirac(3)
    x = np.array([0.5, 0.0, 0.0])
    assert ball_mass(mu, x, 0.7) == 1.0
    assert ball_mass(mu, x, 0.3) == 0.0
    # open ball: the boundary does not count
    assert ball_mass(mu, x, 0.5) == 0.0


def test_atom_mass_and_support():
    a = Atom(np.zeros(3), 3.5)
    assert total_mass(a) == 3.5
    assert support_radius(a) == 0.0


def test_sum_of_atoms_support():
    mu = Sum([Atom([1.0, 0, 0], 1.0), Atom([0, 4.0, 0], 2.0)])
    assert support_radius(mu) == pytest.approx(4.0)
    assert total_mass(mu) == pytest.approx(3.0)


# -- uniform ball ------------------------------------------------------------

def test_uniform_ball_centered_mass(quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    for r in (0.1, 0.5, 1.0, 2.0, 50.0):
        want = W3 * min(r, 1.0) ** 3
        assert ball.centered_mass(r) == pytest.approx(want, rel=1e-13)
    assert total_mass(ball) == pytest.approx(W3, rel=1e-13)
    assert support_radius(ball) == pytest.approx(1.0)


def test_uniform_ball_off_center_vs_monte_carlo(quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    got = ball_mass(ball, np.array([0.8, 0.0, 0.0]), 0.5)
    # frozen 1e7-sample Monte Carlo oracle: agree to 3 significant digits
    assert got == pytest.approx(MC_LENS_VOLUME, rel=5e-4)


def test_uniform_ball_off_center_vs_closed_form(quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    for d, r in [(0.8, 0.5), (0.3, 0.9), (1.5, 1.0), (2.0, 1.5), (0.2, 1.5)]:
        got = ball_mass(ball, np.array([d, 0.0, 0.0]), r)
        want = sphere_intersection_volume(d, 1.0, r)
        assert got == pytest.approx(want, rel=2e-9, abs=1e-12)


def test_monte_carlo_oracle_consistency():
    # re-derive the frozen oracle with fewer samples; 3 sigma agreement
    est, err = mc_lens_volume(n_samples=1_000_000, seed=777)
    assert abs(est - MC_LENS_VOLUME) < 3.0 * (err + 7.6e-5)


# -- shells -------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["tailed", "no_tail", "shell", "atom"])
def test_centered_mass_of_nan_radius_is_nan(kind):
    # a NaN is no radius: not the total mass (a density's table puts it past
    # the last edge) and not 0 (a shell's or atom's comparison is False)
    g = np.geomspace(1e-2, 1e2, 9)
    mu = {"tailed": lambda: RadialDensity(3, g, np.exp(-g), tail=(1.0, 5.0)),
          "no_tail": lambda: RadialDensity(3, g, np.exp(-g)),
          "shell": lambda: SphericalShell(3, 1.0, 2.0),
          "atom": lambda: Atom([0.5, 0.0, 0.0], 1.5)}[kind]()
    assert math.isnan(mu.centered_mass(math.nan))
    got = mu.centered_mass([0.7, math.nan, 50.0])
    assert math.isnan(got[1]) and not np.any(np.isnan(got[[0, 2]]))
    assert got[2] == mu.centered_mass(50.0)


def test_shell_centered_and_offcenter():
    sh = SphericalShell(3, 1.0, 2.0)
    assert sh.centered_mass(0.5) == 0.0
    assert sh.centered_mass(1.5) == 2.0
    # half of the sphere is within distance sqrt(2) of a point on it... use
    # the cap formula directly: fraction at (s=1, d=1, r) equals r^2/4
    got = ball_mass(sh, np.array([1.0, 0.0, 0.0]), 1.0)
    assert got == pytest.approx(2.0 * 0.25, rel=1e-12)


def test_cap_fraction_against_direct_sampling(rng):
    for n in (3, 4, 5, 6):
        s, d, r = 1.3, 0.9, 1.1
        v = rng.normal(size=(200_000, n))
        v /= np.linalg.norm(v, axis=1)[:, None]
        pts = s * v
        pts[:, 0] -= d
        frac_mc = np.mean(np.linalg.norm(pts, axis=1) < r)
        frac = cap_fraction(n, s, d, r)
        assert frac == pytest.approx(frac_mc, abs=4e-3)


def test_cap_fraction_small_radius_stability():
    # r much smaller than d: the stable form must not cancel away; at
    # x = r^2 / (4 s d) = 2.5e-19, I_x(a, a) = x^a / (a B(a, a)) to 1e-18
    x = (1e-7) ** 2 / (4.0 * 100.0 * 100.0)
    for n in (3, 4, 5, 6):
        a = 0.5 * (n - 1)
        frac = cap_fraction(n, 100.0, 100.0, 1e-7)
        assert frac == pytest.approx(x ** a / (a * beta(a, a)), rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_closed_form_caps_match_betainc(n):
    # the whole range of x: for even n both sides of the switch from the
    # series to the finite sum in the cap angle, near x = 0 and x = 1, and
    # for n >= 6 both sides of the reflection at x = 1/2.  betainc is taken
    # at min(x, 1 - x) and reflected: at x = 1 - 2^-53 and n = 2,
    # betainc(1/2, 1/2, x) itself is 2.8e-9 off (mpmath: 1 - 6.708e-9)
    a = 0.5 * (n - 1)
    switch = _EVEN_SWITCH[n // 2 - 1] if n % 2 == 0 and n // 2 - 1 < len(_EVEN_SWITCH) else 0.3
    near = switch * (1.0 + np.linspace(-1e-6, 1e-6, 21))
    x = np.concatenate([np.geomspace(1e-300, 1.0, 601), near, 1.0 - near,
                        np.linspace(0.0, 1.0, 1001),
                        1.0 - np.geomspace(1e-16, 1e-1, 31),
                        0.5 + np.linspace(-1e-3, 1e-3, 21)])
    y = np.minimum(x, 1.0 - x)
    want = np.where(x > 0.5, 1.0 - betainc(a, a, y), betainc(a, a, y))
    np.testing.assert_allclose(_cap_area(n, x), want, rtol=1e-14, atol=1e-300)


# -- algebra -------------------------------------------------------------------

def test_scale_and_add_exact(quad, rng):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    mu = Sum([ball, Atom([0.3, 0.1, 0.0], 0.7)])
    for _ in range(100):
        lam = 10.0 ** rng.uniform(-3, 3)
        x = rng.normal(size=3)
        r = 10.0 ** rng.uniform(-2, 1)
        m1 = ball_mass(scale(mu, lam), x, r)
        m0 = ball_mass(mu, x, r)
        assert m1 == pytest.approx(lam * m0, rel=1e-13, abs=1e-300)


def test_additivity_exact(quad, rng):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    atom = Atom([0.2, 0.0, 0.4], 1.3)
    both = add(ball, atom)
    for _ in range(50):
        x = rng.normal(size=3)
        r = 10.0 ** rng.uniform(-2, 1)
        assert ball_mass(both, x, r) == pytest.approx(
            ball_mass(ball, x, r) + ball_mass(atom, x, r), rel=1e-14)


def test_ball_mass_monotone_in_radius(quad, rng):
    fam = family_density(3, 1.7, 0.8, 2.1, quad)
    for _ in range(20):
        x = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        r = np.sort(10.0 ** rng.uniform(-3, 2, size=40))
        m = ball_mass(fam, x, r)
        assert np.all(np.diff(m) >= -1e-12 * np.maximum(m[1:], 1e-300))


def test_scale_to_zero(quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    z = scale(ball, 0.0)
    assert total_mass(z) == 0.0
    assert ball_mass(z, np.zeros(3), 10.0) == 0.0


def test_add_two_diracs():
    two = add(dirac(3), dirac(3))
    assert ball_mass(two, np.zeros(3), 0.1) == pytest.approx(2.0)


def test_negative_guards(quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    with pytest.raises(NegativeRadius):
        ball_mass(ball, np.zeros(3), -0.5)
    with pytest.raises(NegativeScale):
        scale(ball, -1.0)


@pytest.mark.parametrize("lo_cut", [math.nan, -0.5])
def test_lo_cut_must_be_nonnegative(quad, lo_cut):
    grid = quad.radial_grid()
    with pytest.raises(ValueError, match="lo_cut"):
        RadialDensity(3, grid, np.ones_like(grid), lo_cut=lo_cut)


def test_infinite_mass_needs_flag(quad):
    fn = lambda s: (1.0 + np.asarray(s, float)) ** (-1.0)
    with pytest.raises(ValueError):
        RadialDensity.from_function(3, fn, quad, tail=(1.0, 1.0))
    ok = RadialDensity.from_function(3, fn, quad, tail=(1.0, 1.0),
                                     allow_infinite_mass=True)
    assert math.isinf(total_mass(ok))


# -- integration -----------------------------------------------------------------

def test_integrate_atom_constant():
    mu = Atom([0.3, 0.4, 0.0], 2.0)
    val = integrate_against(mu, lambda s: np.full_like(np.asarray(s, float), 7.0))
    assert val == pytest.approx(14.0)


def test_integrate_ball_linear(quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    val = integrate_against(ball, lambda s: np.asarray(s, float), quad)
    assert val == pytest.approx(math.pi, rel=1e-12)


def test_integrate_infinite_on_positive_mass(quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)

    def g(s):
        s = np.asarray(s, float)
        return np.where(s < 0.5, np.inf, 1.0)

    assert math.isinf(integrate_against(ball, g, quad))


def test_integrate_sign_error(quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    with pytest.raises(SignError):
        integrate_against(ball, lambda s: -np.ones_like(np.asarray(s, float)), quad)


def test_integrate_family_against_one_matches_mass(quad):
    fam = family_density(3, 2.0, 1.5, 2.3, quad)
    val = integrate_against(fam, lambda s: np.ones_like(np.asarray(s, float)), quad)
    assert val == pytest.approx(total_mass(fam), rel=1e-9)


@pytest.mark.parametrize("case", ["tailed", "cut", "lo_cut"])
def test_integration_reads_the_table_only(case, quad):
    # integrate_against sums g against the table's own shell values and its
    # tail law: the density callable is never called, and the integral of 1
    # is the table's total mass, the same sums
    calls = [0]
    family = family_density_fn(2.0, 0.8, 2.5)

    def fn(s):
        calls[0] += 1
        return family(s)

    tail = None if case == "cut" else (2.0 * 0.8 ** 5, 5.0)
    mu = RadialDensity.from_function(3, fn, quad, tail=tail, cut=1.7 if case == "cut" else None,
                                     lo_cut=0.3 if case == "lo_cut" else 0.0)
    g = next(_product_weights(quad))
    one = lambda s: np.ones_like(np.asarray(s, float))
    for m in (mu, scale(mu, 2.5), mu.restricted(mu.lo_cut, 1.2), multiply_radial(mu, g)):
        calls[0] = 0
        total = integrate_against(m, one, quad)
        assert integrate_against(m, lambda s: 1.0 / (1.0 + np.asarray(s, float)), quad) > 0.0
        assert calls[0] == 0
        assert total == pytest.approx(m.total_mass(), rel=1e-9 if m.tail else 1e-14, abs=0.0)


def test_tabulated_density_without_callable(quad):
    # table-only densities must keep exact node-level cumulative masses
    grid = np.geomspace(1e-3, 10.0, 200)
    vals = (1.0 + grid ** 2) ** (-2.0)
    tab = RadialDensity(3, grid, vals)
    fam = family_density(3, 1.0, 1.0, 2.0, quad, cut=10.0)
    # a 50-node-per-decade table is a slightly different measure than the
    # callable; interpolation error is O(h^2) ~ 3e-4
    r = np.array([0.01, 0.1, 1.0, 5.0, 10.0])
    assert np.allclose(tab.centered_mass(r), fam.centered_mass(r), rtol=1e-3)
    m = tab.centered_mass(np.sort(np.concatenate([grid, grid * 1.0371])))
    assert np.all(np.diff(m) >= -1e-15)


def test_zero_measure_helpers():
    z = zero_measure(3)
    assert total_mass(z) == 0.0


def test_random_offcenter_mass_vs_monte_carlo(quad):
    # randomized instances against a fresh Monte Carlo estimate, 3 sigma
    for seed in range(3):
        gen = np.random.default_rng(5000 + seed)
        a = 10.0 ** gen.uniform(-0.5, 0.5)
        b = 10.0 ** gen.uniform(-0.5, 0.5)
        c = 1.5 + gen.uniform(0.5, 1.5)
        fam = family_density(3, a, b, c, quad)
        d = 10.0 ** gen.uniform(-0.5, 0.5)
        r = 10.0 ** gen.uniform(-0.5, 0.5)
        n_mc = 2_000_000
        v = gen.normal(size=(n_mc, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        pts = v * (r * gen.uniform(size=n_mc) ** (1.0 / 3.0))[:, None]
        pts[:, 0] += d
        f_vals = a * (1.0 + (np.linalg.norm(pts, axis=1) / b) ** 2) ** (-c)
        vol = 4.0 / 3.0 * math.pi * r ** 3
        est = vol * float(np.mean(f_vals))
        sd = vol * float(np.std(f_vals)) / math.sqrt(n_mc)
        got = ball_mass(fam, np.array([d, 0.0, 0.0]), r)
        assert abs(got - est) < 3.0 * sd + 1e-12


# -- off-center window quadrature -------------------------------------------

_SMOOTH = lambda s: (1.0 + np.asarray(s, float) ** 2) ** -4.0


def _reference_mass(mu, fn, n, d, r):
    """mu(B(x, r)), |x| = d, with the window integral done by adaptive quad."""
    a, b = abs(d - r), d + r
    nwn = n * unit_ball_volume(n)
    g = lambda s: fn(s) * nwn * s ** (n - 1) * cap_fraction(n, s, d, r)
    inner = mu.centered_mass(max(r - d, 0.0))
    return inner + scipy_quad(g, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("n", [4, 6])
def test_even_n_offcenter_mass_against_quad(quad, n):
    # the cap behaves like (1 - t^2)^((n-1)/2) at the window ends, a
    # half-integer power for even n
    mu = RadialDensity.from_function(n, _SMOOTH, quad, tail=(1.0, 8.0))
    for d in (0.3, 1.0, 3.7):
        r = d * np.geomspace(1e-3, 10.0, 25)
        got = mu._radial_mass(np.full_like(r, d), r)
        want = [_reference_mass(mu, _SMOOTH, n, d, ri) for ri in r]
        np.testing.assert_allclose(got, want, rtol=1e-8)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_small_ball_mass_is_density_times_volume(quad, n):
    # r << d: the gap s - d must not be formed by cancellation
    mu = RadialDensity.from_function(n, _SMOOTH, quad, tail=(1.0, 8.0))
    for d in (2.4e-3, 1.15, 37.0):
        x = np.zeros(n)
        x[0] = d
        for ratio in (1e-6, 1e-9, 3e-12):
            r = ratio * d
            want = _SMOOTH(d) * unit_ball_volume(n) * r ** n
            assert ball_mass(mu, x, r) / want == pytest.approx(1.0, abs=1e-8)


@lru_cache(maxsize=None)
def _window_density(n, kind):
    quad = QuadratureConfig(points_per_decade=32)
    c = 0.5 * n + 1.0
    fn = family_density_fn(1.3, 0.7, c)
    if kind == "cut":
        return RadialDensity.from_function(n, fn, quad, cut=2.1)
    tail = (1.3 * 0.7 ** (2.0 * c), 2.0 * c)
    return RadialDensity.from_function(n, fn, quad, tail=tail,
                                       lo_cut=0.45 if kind == "lo_cut" else 0.0)


def _relative_width(mu, d, r):
    # as in RadialDensity._offcenter_mass
    a = max(abs(d - r), mu.lo_cut)
    b = min(d + r, mu._hi)
    return (b - a) / max(b, 1e-300)


@settings(deadline=None, max_examples=30)
@given(n=st.sampled_from([3, 4, 5, 6]),
       kind=st.sampled_from(["tailed", "cut", "lo_cut"]),
       log_d=st.floats(-2.0, 1.5),
       log_r=st.lists(st.floats(-4.0, 2.0), min_size=2, max_size=40))
def test_offcenter_mass_window_properties(n, kind, log_d, log_r):
    mu = _window_density(n, kind)
    d = 10.0 ** log_d
    r = np.sort(10.0 ** np.array(log_r))
    m = mu._radial_mass(np.full_like(r, d), r)
    # nondecreasing in r, between the masses of the balls about the origin
    # inside and around B(x, r)
    assert np.all(np.diff(m) >= -1e-12 * m[1:])
    assert np.all(m >= mu.centered_mass(np.maximum(r - d, 0.0)) * (1.0 - 1e-12))
    assert np.all(m <= mu.centered_mass(d + r) * (1.0 + 1e-12))
    # no jump where the window changes tier; for r < d the relative width
    # grows with r, so bisect to neighbouring floats around each switch
    for bound in (0.05, 0.5):
        lo, hi = d * 1e-9, d * (1.0 - 1e-9)
        if _relative_width(mu, d, lo) > bound or _relative_width(mu, d, hi) <= bound:
            continue
        while True:
            mid = math.sqrt(lo * hi)
            if mid in (lo, hi):
                break
            lo, hi = (lo, mid) if _relative_width(mu, d, mid) > bound else (mid, hi)
        pair = mu._radial_mass(np.full(2, d), np.array([lo, hi]))
        assert abs(pair[1] - pair[0]) <= 1e-9 * pair[1]


# -- located mass tables -----------------------------------------------------

_LOCATED_DENSITIES = {
    "family": lambda s: 2.0 * (1.0 + (np.asarray(s, float) / 0.7) ** 2) ** -2.5,
    "power": lambda s: np.asarray(s, float) ** -1.5,
}


def _scipy_centered_mass(mu, fn, r):
    """mu(B(0, r)) of a density fn on mu's edges by scipy quad, piece by
    piece, and past the last edge of mu's power-law tail A s^-tau."""
    edges, n = mu._edges, mu.dim
    nwn = n * unit_ball_volume(n)

    def integral(f, a, b):
        return scipy_quad(lambda s: f(s) * nwn * s ** (n - 1), a, b,
                          epsabs=1e-300, epsrel=1e-14, limit=200)[0]

    cum = np.concatenate([[0.0], np.cumsum([integral(fn, a, b) for a, b in
                                            zip(edges[:-1], edges[1:])])])
    out = np.zeros_like(r)
    for j, rj in enumerate(r):
        i = np.searchsorted(edges, rj, side="right") - 1
        if i >= len(edges) - 1:
            out[j] = cum[-1]
            if mu.tail is not None and rj > edges[-1]:
                A, tau = mu.tail
                cuts = np.geomspace(edges[-1], rj, 7)  # at most half a decade each
                out[j] += sum(integral(lambda s: A * s ** -tau, a, b)
                              for a, b in zip(cuts[:-1], cuts[1:]))
        elif i >= 0:
            out[j] = cum[i] + integral(fn, edges[i], rj)
    return out


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(deadline=None, max_examples=60)
@given(n=st.sampled_from([2, 3, 5]), log_lo=st.floats(-3.0, 0.0),
       from_zero=st.booleans(), kind=st.sampled_from(sorted(_LOCATED_DENSITIES)),
       scales=st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 1e4)), min_size=8, max_size=8),
       tail=st.sampled_from([None, (0.5, 7.5), (2.0, 3.0)]),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
# a first piece from the origin, where the power law r^e of the table is
# exact for a power-law density
@example(n=3, log_lo=-1e-12, from_zero=True, kind="power", scales=[1.0] * 8, tail=None,
         fracs=[0.0])
# no mass below the tail: the mass at the last edge is exactly 0
@example(n=5, log_lo=-1.0, from_zero=False, kind="family", scales=[0.0] * 8, tail=(0.5, 7.5),
         fracs=[0.0])
# the first piece with mass, at n = 2 the steepest shell s^-4: an 8-point
# interpolant was 1.9e-13 off scipy here
@example(n=2, log_lo=0.0, from_zero=False, kind="family", scales=[0.0] * 4 + [1.0] + [0.0] * 3,
         tail=None, fracs=[0.53125])
def test_located_masses_match_centered_mass(n, log_lo, from_zero, kind, scales, tail, fracs):
    # below and beyond the edges, on them and inside pieces; a density
    # scaled by arbitrary factors, zero among them, in blocks of 13 pieces;
    # no tail, a finite-mass tail or an infinite-mass one (the log tail for
    # n = 3, a growing mass for n = 5): located and plain masses agree bit
    # for bit, and with scipy to 1e-13 (in a first piece from the origin,
    # where the table's law is r^e, only for the power law)
    grid = np.geomspace(10.0 ** log_lo, 10.0 ** (log_lo + 3.0), 97)
    base, block = _LOCATED_DENSITIES[kind], np.array(scales)
    # constant on each piece: s in (grid[j-1], grid[j]] is in block j // 13
    fn = lambda s: base(s) * block[np.minimum(np.searchsorted(grid, s) // 13, 7)]
    mu = RadialDensity(n, grid, fn(grid), density_fn=fn, tail=tail,
                       lo_cut=0.0 if from_zero else grid[0], allow_infinite_mass=True)
    assert math.isinf(mu.total_mass()) == (tail is not None and tail[1] <= n)
    edges = mu._edges
    inside = edges[1] * (edges[-1] / edges[1]) ** np.array(fracs)
    r = np.concatenate([[0.0, grid[0] * 1e-3], edges, inside,
                        0.5 * (edges[1:] + edges[:-1]), edges[-1] * np.array([1.5, 1e3])])
    got = mu.centered_mass(r)
    assert np.array_equal(mu.mass_at(Located(edges, r)), got)
    checked = (r >= grid[0]) | (kind == "power" or not from_zero)
    np.testing.assert_allclose(got[checked], _scipy_centered_mass(mu, fn, r[checked]),
                               rtol=1e-13, atol=0.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("ppd", [32, 64])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", ["family", "rational"])
def test_centered_masses_between_edges_match_scipy(kind, n, ppd):
    # the partial piece integrates the interpolant through the piece's
    # Gauss-point values: exact between the edges, not only on them
    quad = QuadratureConfig(points_per_decade=ppd)
    if kind == "family":  # finite mass in every n
        fn = family_density_fn(1.0, 1.0, (n + 2) / 2.0)
        mu = family_density(n, 1.0, 1.0, (n + 2) / 2.0, quad)
    else:
        fn = lambda s: (1.0 + np.asarray(s, float) ** 2) ** -4.0
        mu = RadialDensity.from_function(n, fn, quad, tail=(1.0, 8.0))
    g = mu.grid[(mu.grid > 1e-3) & (mu.grid < 1e3)]
    rng = np.random.default_rng(n * ppd)
    i = rng.integers(0, len(g) - 1, 40)
    r = np.concatenate([g[i] + rng.uniform(0.0, 1.0, len(i)) * (g[i + 1] - g[i]),
                        0.5 * (g[:-1:16] + g[1::16])])
    nwn = n * unit_ball_volume(n)
    shell = lambda s: float(fn(s)) * nwn * s ** (n - 1)
    want = [scipy_quad(shell, 0.0, min(x, 1.0), epsabs=1e-300, epsrel=1e-14)[0]
            + (scipy_quad(shell, 1.0, x, epsabs=1e-300, epsrel=1e-14)[0] if x > 1.0 else 0.0)
            for x in r]
    np.testing.assert_allclose(mu.centered_mass(r), want, rtol=1e-13, atol=0.0)


def test_riesz_measure_masses_are_its_step_density_masses():
    # a step density, constant on each node segment: between the nodes its
    # masses grow like the volume, and the table reads them exactly
    quad = QuadratureConfig(points_per_decade=32)
    pp = params(3, 2.0, 0.5, 1.0)
    nu = riesz_measure_of(solve_radial_p_laplace(family_density(3, 1.0, 1.0, 2.5, quad),
                                                 pp, quad), pp)
    g = nu.grid
    mid = 0.5 * (g[1:] + g[:-1])
    want = nu.centered_mass(g[:-1]) + nu.density_at(mid) * W3 * (mid ** 3 - g[:-1] ** 3)
    np.testing.assert_allclose(nu.centered_mass(mid), want, rtol=1e-13, atol=0.0)


def test_effective_extent_is_the_first_edge_past_the_mass():
    # a tailed density's table runs to r_max, but its mass is spent long
    # before: the extent is the first edge with at most rel_tol of it beyond
    mu = family_density(3, 1.0, 1.0, 2.5)
    total = mu.total_mass()
    ext = mu.effective_extent(1e-7)
    k = int(np.flatnonzero(mu._edges == ext)[0])
    assert ext < mu.grid[-1]
    assert total - mu.centered_mass(ext) <= 1e-7 * total
    assert total - mu.centered_mass(mu._edges[k - 1]) > 1e-7 * total


@pytest.mark.parametrize("ppd", [32, 64])
def test_first_piece_of_a_singular_density_is_its_power_law(ppd):
    # s^-2.75 in n = 3: mu(B(0, r)) = 16 pi r^(1/4), so the first piece
    # [0, E1] has the exponent 1/4 that the density at E1 and the piece
    # mass give; no density is evaluated at the origin
    quad = QuadratureConfig(points_per_decade=ppd)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mu = RadialDensity.from_function(3, lambda s: np.asarray(s, float) ** -2.75,
                                         quad, cut=1.0)
        r = mu.grid[0] * np.array([0.25, 0.5])
        got = mu.centered_mass(r)
    np.testing.assert_allclose(got, 16.0 * math.pi * r ** 0.25, rtol=1e-12, atol=0.0)
    assert solve_radial_p_laplace(mu, params(3, 2.0, 0.5, 1.0), quad).center_value == math.inf


def test_table_location_is_tied_to_its_edges():
    grid = np.geomspace(1e-2, 1e2, 33)
    fn = family_density_fn(1.0, 1.0, 2.0)
    t = RadialDensity(3, grid, fn(grid), density_fn=fn)
    r = np.array([0.05, 3.0, 300.0])
    twice = RadialDensity(3, grid.copy(), 2.0 * fn(grid), density_fn=lambda s: 2.0 * fn(s))
    assert np.array_equal(twice.mass_at(Located(t._edges, r)), 2.0 * t.centered_mass(r))
    with pytest.raises(ValueError, match="other edges"):
        RadialDensity(3, grid * 2.0, fn(grid), density_fn=fn).mass_at(
            Located(t._edges, r))


def test_weighting_locates_a_weight_on_another_grid_afresh(quad):
    comp = family_density(3, 1.0, 1.0, 2.25, quad)
    wgrid = quad.radial_grid()
    pts = np.geomspace(1e-3, 1e3, 40)
    g1 = RadialFunction(wgrid, 1.0 / (1.0 + wgrid))
    other = np.geomspace(1e-4, 1e4, 200)
    g2 = RadialFunction(other, 1.0 / (1.0 + other), 1.0, 1.0)
    reused = weighting(comp, wgrid, pts)
    reused(g1)
    table, masses = reused(g2)
    fresh_table, fresh = weighting(comp, wgrid, pts)(g2)
    assert np.array_equal(masses, fresh)
    assert np.array_equal(table.centered_mass(pts), fresh)
    assert table.total_mass() == fresh_table.total_mass()


# -- products of a density and a weight ---------------------------------------

def _product_density_case(case, quad):
    fn = family_density_fn(2.0, 0.8, 2.5)
    if case == "tailed":
        return family_density(3, 2.0, 0.8, 2.5, quad)
    if case == "cut":
        return family_density(3, 2.0, 0.8, 2.5, quad, cut=1.7)
    if case == "lo_cut":
        return RadialDensity.from_function(3, fn, quad, tail=(2.0 * 0.8 ** 5, 5.0),
                                           lo_cut=0.3)
    if case == "infinite":
        return RadialDensity.from_function(3, lambda s: np.asarray(s, float) ** -2.5,
                                           quad, tail=(1.0, 2.5), allow_infinite_mass=True)
    pp = params(3, 2.0, 0.5, 1.0)  # a reconstructed Riesz measure
    return riesz_measure_of(solve_radial_p_laplace(family_density(3, 1.0, 1.0, 2.5, quad),
                                                   pp, quad), pp)


def _product_weights(quad):
    grid = quad.radial_grid()
    other = np.geomspace(3e-4, 3e3, 90)
    u = 1.0 / np.sqrt(1.0 + grid ** 2)
    yield RadialFunction(grid, u, 1.0, 1.0, 1.0, -grid * u ** 3)  # Hermite, tailed
    yield RadialFunction(other, np.exp(-other), 0.0, 1.0, 1.0)   # zero tail, other grid


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ["tailed", "cut", "lo_cut", "infinite", "segment"])
def test_product_table_is_the_product_density(case):
    # multiply_radial builds, bit for bit, the table of the RadialDensity
    # whose density_fn is the product: the same layout, piece masses, edge
    # values and every mass read from them
    quad = QuadratureConfig(points_per_decade=16)
    comp = _product_density_case(case, quad)
    for g in _product_weights(quad):
        got, ref = multiply_radial(comp, g), reference_product(comp, g)
        for name in ("_edges", "_piece_mass", "_coef", "_e0"):
            assert np.array_equal(getattr(got, name), getattr(ref, name), equal_nan=True)
        edges = ref._edges[ref._edges > 0]
        r = np.concatenate([[0.0, edges[0] * 1e-3], edges, np.sqrt(edges[1:] * edges[:-1]),
                            edges[-1] * np.array([1.5, 1e3])])
        assert np.array_equal(got.centered_mass(r), ref.centered_mass(r))
        d = np.repeat([0.05, 0.9, 4.0], 7)
        rr = d * np.tile([1e-3, 0.04, 0.3, 0.99, 1.0, 1.7, 30.0], 3)
        assert np.array_equal(got._radial_mass(d, rr), ref._radial_mass(d, rr))
        for name in ("total_mass", "support_radius", "effective_extent"):
            assert getattr(got, name)() == getattr(ref, name)()
        weight = lambda s: 1.0 / (1.0 + np.asarray(s, float))
        assert integrate_against(got, weight, quad) == integrate_against(ref, weight, quad)


def test_product_of_atoms_shells_and_a_density(quad):
    comp = family_density(3, 1.0, 1.0, 2.5, quad)
    mu = Sum([dirac(3, 0.2), SphericalShell(3, 0.7, 0.3), comp])
    g = next(_product_weights(quad))
    got = multiply_radial(mu, g).components()
    assert got[0].weight == 0.2 * g.center_value
    assert got[1].total == 0.3 * g.eval(0.7)
    ref = reference_product(comp, g)
    r = np.geomspace(1e-3, 1e3, 50)
    assert np.array_equal(got[2].centered_mass(r), ref.centered_mass(r))


def test_product_scales_multiplies_and_cuts_off(quad):
    comp = family_density(3, 1.0, 1.0, 2.5, quad)
    weights = list(_product_weights(quad))
    prod = multiply_radial(comp, weights[0])
    r = np.geomspace(1e-3, 1e3, 50)
    double = scale(prod, 2.0)
    assert np.array_equal(double.centered_mass(r), 2.0 * prod.centered_mass(r))
    assert np.array_equal(double.ball_mass([0.0, 0.0, 1.0], r),
                          2.0 * prod.ball_mass([0.0, 0.0, 1.0], r))
    assert np.array_equal(double.density_at(r), 2.0 * prod.density_at(r))
    assert scale(prod, 0.0).total_mass() == 0.0
    # a product of a product: its density is the product of both weights
    twice = multiply_radial(prod, weights[1])
    assert np.array_equal(twice.density_at(r),
                          prod.density_at(r) * np.maximum(weights[1].eval(r), 0.0))
    want = integrate_against(prod, lambda s: weights[1].eval(s), quad)
    assert twice.total_mass() == pytest.approx(want, rel=1e-6)
    # its cutoff is the cutoff of the RadialDensity with the product as density_fn
    pp = params(3, 2.0, 0.5, 1.0)
    ref = reference_product(comp, weights[0])
    for k in (1, 2, 3):
        got, want = cutoff_measure(prod, k, pp, quad), cutoff_measure(ref, k, pp, quad)
        assert np.array_equal(got.centered_mass(r), want.centered_mass(r))
