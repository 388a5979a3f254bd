import math
import sys

import numpy as np
import pytest
from scipy import integrate

from wolfflab import (Atom, BadPoint, NonpositiveR, QuadratureConfig, RadialDensity,
                      SphericalShell, Sum, ZeroMeasure, add, cutoff_measure, dirac,
                      params, scale, truncated_wolff, wolff, wolff_profile,
                      wolff_sup_on_support, integrate_against, zero_measure)
from wolfflab.families import family_density, family_density_fn
from wolfflab.wolff import PotentialValue

from oracles import ball_potential


def dirac_wolff(n, p, r):
    return (p - 1.0) / (n - p) * r ** (-(n - p) / (p - 1.0))


def test_dirac_closed_form(np_grid_params, quad):
    for n, p in np_grid_params:
        pp = params(n, p, (p - 1) / 2, 1.0)
        mu = dirac(n)
        for r in (0.1, 1.0, 10.0):
            x = np.zeros(n)
            x[0] = r
            got = wolff(mu, x, pp, quad)
            assert got.value == pytest.approx(dirac_wolff(n, p, r), rel=1e-6)
            assert got.quad_error_estimate < 1e-6 * got.value + 1e-12


def test_atom_at_query_point_is_infinite(pp3, quad):
    mu = Atom([0.5, 0.0, 0.0], 1.0)
    assert math.isinf(wolff(mu, [0.5, 0.0, 0.0], pp3, quad).value)


def test_ball_center_and_exterior(pp3, quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    at0 = wolff(ball, np.zeros(3), pp3, quad).value
    assert at0 == pytest.approx(2.0 * math.pi, rel=1e-6)
    at2 = wolff(ball, [2.0, 0.0, 0.0], pp3, quad).value
    assert at2 == pytest.approx(2.0 * math.pi / 3.0, rel=1e-6)


def test_ball_interior_matches_layer_cake(pp3, quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    for a in (0.2, 0.5, 0.8, 1.3, 3.0):
        got = wolff(ball, [a, 0.0, 0.0], pp3, quad).value
        assert got == pytest.approx(float(ball_potential(a)), rel=1e-9)


def test_truncated_dirac_examples(pp3, quad):
    mu = dirac(3)
    x = np.array([0.5, 0.0, 0.0])
    assert truncated_wolff(mu, x, 0.4, pp3, quad).value == 0.0
    assert truncated_wolff(mu, x, 1.0, pp3, quad).value == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(NonpositiveR):
        truncated_wolff(mu, x, 0.0, pp3, quad)


@pytest.mark.parametrize("x, R, error", [
    ([0.5, 0.0, 0.0], math.nan, NonpositiveR), ([0.5, 0.0, 0.0], -math.inf, NonpositiveR),
    ([math.nan, 0.0, 0.0], None, BadPoint), ([math.inf, 0.0, 0.0], None, BadPoint),
    ([0.5, 0.0, -math.inf], 2.0, BadPoint), ([0.5, 0.0], None, BadPoint),
    ([0.5, 0.0, 0.0, 0.0], None, BadPoint),
])
def test_nonfinite_or_misshaped_inputs_raise(x, R, error, pp3, quad):
    # these returned 0.0 or inf (a NaN R, a non-finite point) or raised a
    # raw ValueError (the wrong shape)
    for mu in (dirac(3), RadialDensity.uniform_ball(3, 1.0, 1.0, quad)):
        with pytest.raises(error):
            wolff(mu, x, pp3, quad, R=R)
        if R is not None:
            with pytest.raises(error):
                truncated_wolff(mu, x, R, pp3, quad)


def test_measure_without_mass_is_zero(pp3, quad):
    # no component with mass: the value is an exact 0, not an error
    for mu in (zero_measure(3), Atom([0.2, 0.0, 0.0], 0.0),
               Sum([dirac(3, 0.0), SphericalShell(3, 0.5, 0.0)])):
        for x in ([0.5, 0.0, 0.0], np.zeros(3)):
            assert wolff(mu, x, pp3, quad) == PotentialValue(0.0, 0.0, True)
            assert truncated_wolff(mu, x, 1.0, pp3, quad) == PotentialValue(0.0, 0.0, True)


def _ball_and_shell(n, quad):
    """A uniform ball (radius 1.6, density 1.9) plus a shell (radius 0.7,
    mass 0.45) and, at p = 2, its potential at distance d truncated at R:
    the Newton potential / (n - 2), minus mass * R^{2-n} / (n - 2) for an R
    beyond the support."""
    a, rho, rs, ms = 1.6, 1.9, 0.7, 0.45
    ball_volume = math.pi ** (n / 2) / math.gamma(n / 2 + 1)

    def exact(d, R=None):
        inner = a ** n * d ** (2 - n) if d >= a else d * d + n * (a * a - d * d) / 2
        newton = rho * ball_volume * inner + ms * max(d, rs) ** (2 - n)
        mass = rho * ball_volume * a ** n + ms
        return (newton - (0.0 if R is None else mass * R ** (2 - n))) / (n - 2)

    mu = Sum([RadialDensity.uniform_ball(n, a, rho, quad), SphericalShell(n, rs, ms)])
    return mu, exact


BALL_SHELL_D = (0.05, 0.4, 0.68, 0.72, 1.0, 1.55, 1.65, 2.5, 8.0)
DIRAC_NP = ((3, 1.5), (3, 2.5), (4, 3.0), (5, 2.5), (5, 4.0))


def _dirac_cases(n, p):
    """(x, R, exact) for the unit Dirac at the origin: the potential
    (p-1)/(n-p) * (r^-e - R^-e) for R > r = |x|, 0 below."""
    e = (n - p) / (p - 1.0)
    u = np.arange(1.0, n + 1.0) / np.linalg.norm(np.arange(1.0, n + 1.0))
    for r in (0.01, 0.5, 3.0, 200.0):
        for R in (None, 0.5 * r, 1.7 * r):
            tail = 0.0 if R is None else R ** -e
            yield r * u, R, max((p - 1.0) / (n - p) * (r ** -e - tail), 0.0)


@pytest.mark.parametrize("ppd", [32, 64])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_error_estimate_is_honest(n, ppd):
    # the estimate is at least a tenth of the true error; a row-level
    # estimate (the last change of the row sum) is about 60x below it at
    # n = 4, d = 1, 32 ppd
    quad = QuadratureConfig(points_per_decade=ppd)
    mu, exact = _ball_and_shell(n, quad)
    pp = params(n, 2.0, 0.5, 1.0)
    cases = [(mu, pp, d * np.eye(n)[0], R, exact(d, R))
             for d in BALL_SHELL_D for R in (None, 1.5 * (d + 1.6))]
    cases += [(dirac(n), params(n, p, (p - 1) / 2, 1.0), x, R, ex)
              for nn, p in DIRAC_NP if nn == n for x, R, ex in _dirac_cases(n, p)]
    for mu_i, pp_i, x, R, ex in cases:
        got = wolff(mu_i, x, pp_i, quad, R=R)
        assert abs(got.value - ex) <= max(10.0 * got.quad_error_estimate, 1e-12 * ex), \
            (x, R, got, ex)


def test_converged_flag(quad):
    tight = QuadratureConfig(rel_tol=1e-15)
    for n, p in DIRAC_NP:
        pp = params(n, p, (p - 1) / 2, 1.0)
        assert all(wolff(dirac(n), x, pp, quad, R=R).converged
                   for x, R, _ in _dirac_cases(n, p))
    for n in (3, 4, 5):
        pp = params(n, 2.0, 0.5, 1.0)
        mu, _ = _ball_and_shell(n, quad)
        # at n = 4 the cap area of a lens grows like a half-integer power
        # from its edges, which depth-3 Gauss panels resolve only to about
        # rel_tol near the support: those points are flagged, far ones not
        for d in BALL_SHELL_D[-2:] if n == 4 else BALL_SHELL_D:
            for R in (None, 1.5 * (d + 1.6)):
                assert wolff(mu, d * np.eye(n)[0], pp, quad, R=R).converged
    mu, _ = _ball_and_shell(4, tight)
    for d in BALL_SHELL_D[-2:]:
        assert not wolff(mu, d * np.eye(4)[0], params(4, 2.0, 0.5, 1.0), tight).converged


def test_refinement_only_splits_unconverged_panels(quad, monkeypatch):
    # n = 4, cut family at 64 ppd: uniform refinement would run all three
    # rounds, evaluating 1 + 2 + 4 + 8 = 15 times the first rule's nodes;
    # with exact ball masses two rounds converge
    wolff_module = sys.modules["wolfflab.wolff"]
    panel_sum = wolff_module.panel_sum
    calls = []

    def counting(f, edges, k, rows=None):
        calls.append((np.log(edges[1] / edges[0]), k))
        return panel_sum(f, edges, k, rows)

    monkeypatch.setattr(wolff_module, "panel_sum", counting)
    fn = family_density_fn(1.3, 0.7, 2.8)
    mu = family_density(4, 1.3, 0.7, 2.8, quad, cut=1.5)
    pp = params(4, 2.0, 0.5, 1.0)
    x = [0.4, 0.3, 0.0, 0.2]
    counts = []
    for _ in range(2):
        calls.clear()
        got = wolff(mu, x, pp, quad)
        counts.append([widths.size * k for widths, k in calls])
    assert counts[0] == counts[1]
    assert len(counts[0]) == 3  # the first rule and two rounds
    assert got.converged
    assert sum(counts[0]) < 0.5 * 15 * counts[0][0]
    # no panel is bisected more than three times
    first = np.min(calls[0][0])
    assert min(np.min(widths) for widths, _ in calls) >= first / 8 * (1 - 1e-12)
    assert got.value == pytest.approx(_newton_wolff(fn, 4, float(np.linalg.norm(x)), 1.5),
                                      rel=1e-11)


def _newton_wolff(fn, n, d, cut):
    """W_{1,2} of the radial density fn on B(0, cut) at |x| = d by Newton's
    theorem, (d^{2-n} mu(B(0, d)) + int_{|y| > d} |y|^{2-n} dmu) / (n - 2),
    with scipy quad."""
    nwn = n * math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    shell = lambda s: float(fn(s)) * nwn * s ** (n - 1)
    inner = integrate.quad(shell, 0.0, min(d, cut), epsabs=1e-300, epsrel=1e-13)[0]
    outer = integrate.quad(lambda s: shell(s) * s ** (2 - n), min(d, cut), cut,
                           epsabs=1e-300, epsrel=1e-13)[0]
    return (d ** (2 - n) * inner + outer) / (n - 2)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("kind", ["ball", "shell", "family"])
def test_pointwise_matches_newton_at_default_quad(kind, n, quad):
    # p = 2: W is the Newtonian potential / (n - 2), known from Newton's
    # theorem; with exact ball masses refinement converges on every point
    pp = params(n, 2.0, 0.5, 1.0)
    wn = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    if kind == "ball":
        mu = RadialDensity.uniform_ball(n, 1.0, 1.0, quad)
        want = lambda d: (wn * d * d + n * wn * (1.0 - d * d) / 2.0 if d < 1.0
                          else wn * d ** (2 - n)) / (n - 2)
    elif kind == "shell":
        mu = SphericalShell(n, 1.0, 2.0)
        want = lambda d: 2.0 * max(d, 1.0) ** (2 - n) / (n - 2)
    else:
        c = (n + 2) / 2.0
        mu = family_density(n, 1.0, 1.0, c, quad)
        want = lambda d: _newton_wolff(family_density_fn(1.0, 1.0, c), n, d, math.inf)
    for d in (0.3, 1.7, 6.0):
        x = np.zeros(n)
        x[0] = d
        got = wolff(mu, x, pp, quad)
        assert got.converged
        assert got.value == pytest.approx(want(d), rel=1e-12)


def test_truncation_below_full_and_converging(pp3, quad, rng):
    fam = family_density(3, 1.3, 0.9, 2.2, quad)
    x = np.array([0.7, 0.0, 0.0])
    full = wolff(fam, x, pp3, quad).value
    prev = 0.0
    for R in (0.1, 1.0, 10.0, 1e4, 1e10):
        t = truncated_wolff(fam, x, R, pp3, quad).value
        assert t <= full * (1 + 1e-12)
        assert t >= prev - 1e-12
        prev = t
    assert prev == pytest.approx(full, rel=1e-8)


def test_homogeneity(pp3, quad, rng):
    fam = family_density(3, 1.1, 1.4, 2.0, quad)
    for _ in range(5):
        lam = 10.0 ** rng.uniform(-3, 3)
        x = rng.normal(size=3)
        w0 = wolff(fam, x, pp3, quad).value
        w1 = wolff(scale(fam, lam), x, pp3, quad).value
        assert w1 == pytest.approx(lam ** (1.0 / (pp3.p - 1.0)) * w0, rel=1e-12)


def test_monotone_in_measure(pp3, quad, rng):
    fam = family_density(3, 1.1, 1.4, 2.0, quad)
    extra = SphericalShell(3, 0.7, 0.5)
    bigger = add(fam, extra)
    for _ in range(8):
        x = rng.normal(size=3) * rng.uniform(0.2, 3.0)
        assert wolff(fam, x, pp3, quad).value <= wolff(bigger, x, pp3, quad).value + 1e-14


@pytest.mark.parametrize("n,p", [(3, 2.0), (3, 1.5), (4, 3.0)])
def test_quasi_linearity_constant(n, p, quad, rng):
    pp = params(n, p, (p - 1) / 2, 1.0)
    c_p = max(1.0, 2.0 ** ((2.0 - p) / (p - 1.0)))
    sig = family_density(n, 1.2, 0.7, n / 2 + 1.1, quad)
    mu = family_density(n, 0.8, 1.6, n / 2 + 0.8, quad)
    for _ in range(6):
        a = 10.0 ** rng.uniform(-2, 2)
        b = 10.0 ** rng.uniform(-2, 2)
        x = np.zeros(n)
        x[0] = 10.0 ** rng.uniform(-1, 1)
        lhs = wolff(add(scale(sig, a), scale(mu, b)), x, pp, quad).value
        rhs = c_p * (a ** (1 / (p - 1)) * wolff(sig, x, pp, quad).value
                     + b ** (1 / (p - 1)) * wolff(mu, x, pp, quad).value)
        assert lhs <= rhs * (1.0 + 1e-10)


def test_weak_maximum_principle(pp3, quad, rng):
    recorded = 0.0
    for k in range(5):
        gen = np.random.default_rng(1000 + k)
        cut = 10.0 ** gen.uniform(-0.5, 0.5)
        mu = family_density(3, 10.0 ** gen.uniform(-1, 1),
                            10.0 ** gen.uniform(-1, 1), 2.5, quad, cut=cut)
        sup_on = wolff_sup_on_support(mu, pp3, quad)
        for d in (cut * 1.5, cut * 4.0, cut * 50.0):
            off = wolff(mu, [d, 0.0, 0.0], pp3, quad).value
            recorded = max(recorded, off / sup_on)
    assert recorded <= 1.0 + 1e-9  # radial compact case: potential peaks on the support


@pytest.mark.parametrize("n", [3, 4, 5])
def test_support_edge_matches_newton(n, quad):
    # on the edge of the unit ball its mass near x is a power law only to
    # first order in r; at p = 2 the potential there is |B_1| / (n - 2)
    ball = RadialDensity.uniform_ball(n, 1.0, 1.0, quad)
    got = wolff(ball, np.eye(n)[0], params(n, 2.0, 0.5, 1.0), quad)
    exact = math.pi ** (n / 2) / math.gamma(n / 2 + 1) / (n - 2)
    assert got.converged
    assert got.value == pytest.approx(exact, rel=1e-12)
    assert got.quad_error_estimate <= 1e-12 * exact


def test_sup_on_support_examples(pp3, quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    assert wolff_sup_on_support(ball, pp3, quad) == pytest.approx(2 * math.pi, rel=1e-9)
    assert math.isinf(wolff_sup_on_support(dirac(3), pp3, quad))
    sh = SphericalShell(3, 1.0, 1.0)
    direct = wolff(sh, [1.0, 0.0, 0.0], pp3, quad).value
    assert wolff_sup_on_support(sh, pp3, quad) == pytest.approx(direct, rel=1e-6)
    with pytest.raises(ZeroMeasure):
        wolff_sup_on_support(scale(ball, 0.0), pp3, quad)


def test_profile_matches_pointwise(pp3, quad):
    fam = family_density(3, 2.0, 1.5, 2.3, quad)
    prof = wolff_profile(fam, pp3, quad)
    for d in (1e-4, 0.05, 1.0, 8.0, 1e3):
        pv = wolff(fam, [d, 0.0, 0.0], pp3, quad).value
        assert prof.eval(d) == pytest.approx(pv, rel=5e-4)


@pytest.mark.parametrize("n,a,b,c", [(3, 3.1706122577693834, 0.32663945235595077, 2.5),
                                     (5, 1.3158019520898276, 0.7849195647514375, 3.5)])
def test_profile_and_pointwise_finite_near_p_one(n, a, b, c, suite_quad):
    # p = 1.05: m^{1/(p-1)} = m^20 underflows at small balls while
    # r^{-(n-p)/(p-1)-1} overflows; their product must not become NaN
    # (the sigma of the p = 1.05 solve rows of the benchmark, seed 1)
    pp = params(n, 1.05, 0.025, 1.0)
    sigma = family_density(n, a, b, c, suite_quad)
    prof = wolff_profile(sigma, pp, suite_quad)
    assert np.all(np.isfinite(prof.values)) and math.isfinite(prof.center_value)
    for d in np.geomspace(suite_quad.r_min, suite_quad.r_max, 9):
        x = np.zeros(n)
        x[0] = d
        assert math.isfinite(wolff(sigma, x, pp, suite_quad).value)


@pytest.mark.parametrize("case", ["compact", "tailed", "n5"])
def test_profile_matches_loglog_pchip(case, pp3, suite_quad):
    # the monotone node slopes reproduce SciPy's log-log pchip interpolant
    from scipy.interpolate import PchipInterpolator
    n, pp = (5, params(5, 2.5, 0.75, 1.0)) if case == "n5" else (3, pp3)
    mu = family_density(n, 2.0, 1.5, 2.3 if n == 3 else 3.2, suite_quad,
                        cut=4.0 if case == "compact" else None)
    prof = wolff_profile(mu, pp, suite_quad)
    ref = PchipInterpolator(np.log(prof.grid), np.log(prof.values))
    r = np.geomspace(prof.grid[0], prof.grid[-1], 2001)
    np.testing.assert_allclose(prof.eval(r), np.exp(ref(np.log(r))), rtol=1e-13)


def test_infinite_mass_profile(pp3, quad):
    # density s^-tau, tau = 2.5 in n = 3: mu(B(0, r)) ~ r^{n - tau} is
    # unbounded and W mu(x) = C |x|^{-(tau - p)/(p - 1)} exactly
    tau = 2.5
    mu = RadialDensity.from_function(3, lambda s: np.asarray(s, float) ** -tau, quad,
                                     tail=(1.0, tau), allow_infinite_mass=True)
    assert math.isinf(mu.total_mass())
    d = np.array([0.01, 0.1, 1.0, 10.0])
    prof = wolff_profile(mu, pp3, quad, d_grid=d)
    for di, got in zip(d, prof.values):
        pv = wolff(mu, [di, 0.0, 0.0], pp3, quad).value
        assert got == pytest.approx(pv, rel=5e-4)
    beta = (tau - pp3.p) / (pp3.p - 1.0)
    slopes = np.diff(np.log(prof.values)) / np.diff(np.log(d))
    assert slopes == pytest.approx(-beta, abs=1e-6)
    assert prof.tail_exp == pytest.approx(beta, abs=1e-6)


def test_rotation_invariance_with_atoms(np_grid_params, quad):
    gen = np.random.default_rng(4242)
    for n, p in np_grid_params:
        pp = params(n, p, (p - 1) / 2, 1.0)
        q_mat, _ = np.linalg.qr(gen.normal(size=(n, n)))
        locs = [gen.normal(size=n) * s for s in (0.3, 0.8, 1.5)]
        weights = (0.7, 1.2, 0.4)
        radial = [family_density(n, 1.1, 0.6, n / 2 + 0.9, quad, cut=1.7),
                  SphericalShell(n, 0.9, 0.8)]

        def measure(rot):
            return Sum([Atom(rot @ loc, w) for loc, w in zip(locs, weights)] + radial)

        mu, mu_rot = measure(np.eye(n)), measure(q_mat)
        for scale_x in (0.2, 0.7, 1.4):
            x = gen.normal(size=n) * scale_x
            assert wolff(mu_rot, q_mat @ x, pp, quad).value == pytest.approx(
                wolff(mu, x, pp, quad).value, rel=1e-12)
            truncated = truncated_wolff(mu, x, 2.0, pp, quad).value
            assert truncated > 0
            assert truncated_wolff(mu_rot, q_mat @ x, 2.0, pp, quad).value == \
                pytest.approx(truncated, rel=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_shell_newton(n, quad):
    # p = 2: the potential of a shell of mass M and radius R is
    # M max(|x|, R)^{2-n} / (n - 2)  (Newton's theorem)
    pp = params(n, 2.0, 0.5, 1.0)
    radius, mass = 1.0, 1.3
    sh = SphericalShell(n, radius, mass)
    d = np.array([0.05, 0.6, radius - 0.01, radius + 0.01, 2.0, 9.0])
    exact = mass * np.maximum(d, radius) ** (2.0 - n) / (n - 2.0)
    for di, ex in zip(d, exact):
        x = np.zeros(n)
        x[0] = di
        assert wolff(sh, x, pp, quad).value == pytest.approx(ex, rel=1e-8)
    assert wolff_profile(sh, pp, quad, d_grid=d).values == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("cut", [None, 2.5], ids=["tailed", "compact"])
def test_dilation(np_grid_params, quad, cut):
    # mu_t = mu(./t) has density t^-n f(s/t): W[mu_t](t x) = t^-tau W mu(x)
    for n, p in np_grid_params:
        pp = params(n, p, (p - 1) / 2, 1.0)
        tau = (n - p) / (p - 1.0)
        c = n / 2.0 + 0.8
        mu = family_density(n, 1.3, 0.7, c, quad, cut=cut)
        d = np.array([0.05, 0.7, 2.0, 5.0])
        base = wolff_profile(mu, pp, quad, d_grid=d).values
        for t in (0.1, 7.0):
            mu_t = family_density(n, 1.3 * t ** -n, 0.7 * t, c, quad,
                                  cut=None if cut is None else cut * t)
            prof = wolff_profile(mu_t, pp, quad, d_grid=t * d).values
            assert prof == pytest.approx(t ** -tau * base, rel=1e-4)
            for di in d:
                x = np.zeros(n)
                x[0] = di
                got = wolff(mu_t, t * x, pp, quad).value
                assert got == pytest.approx(t ** -tau * wolff(mu, x, pp, quad).value,
                                            rel=1e-6)


def test_cutoff_identity_when_trivial(pp3, quad):
    ball = RadialDensity.uniform_ball(3, 1.0, 1.0, quad)
    # sup W = 2 pi < 7 and support inside B(0, 2^7)
    cut = cutoff_measure(ball, 7, pp3, quad)
    assert cut is ball


def test_cutoff_removes_atoms(pp3, quad):
    assert cutoff_measure(dirac(3), 3, pp3, quad).total_mass() == 0.0
    mixed = add(dirac(3, 2.0), RadialDensity.uniform_ball(3, 1.0, 1.0, quad))
    cut = cutoff_measure(mixed, 9, pp3, quad)
    # the atom is always excluded, and it drags a neighborhood of the
    # origin (where W > k) out of the admissible set with it
    assert not any(isinstance(c, Atom) and c.weight > 0 for c in cut.components())
    m9 = cut.total_mass()
    assert 0 < m9 < 4 * math.pi / 3
    m12 = cutoff_measure(mixed, 12, pp3, quad).total_mass()
    assert m9 <= m12 < 4 * math.pi / 3


def test_cutoff_exhaustion_monotone(pp3, quad):
    big = family_density(3, 8.0, 2.0, 2.0, quad)  # sup W ~ 200: cutoffs bite hard
    d_samples = np.array([0.05, 0.3, 1.0, 4.0, 100.0])
    prev = np.zeros(len(d_samples))
    for k in range(1, 11):
        mk = cutoff_measure(big, k, pp3, quad)
        if mk.total_mass() == 0:
            continue
        vals = np.array([wolff(mk, [d, 0, 0], pp3, quad).value for d in d_samples])
        assert np.all(vals >= prev - 1e-10)
        prev = vals
    assert np.all(prev > 0)


def test_cutoff_exhaustion_reaches_identity(pp3, quad):
    light = family_density(3, 0.3, 0.5, 2.5, quad, cut=3.0)
    d_samples = np.array([0.05, 0.3, 1.0, 4.0])
    full = np.array([wolff(light, [d, 0, 0], pp3, quad).value for d in d_samples])
    prev = np.zeros(len(d_samples))
    identity_seen = False
    for k in range(1, 8):
        mk = cutoff_measure(light, k, pp3, quad)
        if mk is light:
            identity_seen = True
        vals = np.array([wolff(mk, [d, 0, 0], pp3, quad).value for d in d_samples])
        assert np.all(vals >= prev - 1e-10)
        prev = vals
    assert identity_seen
    assert np.allclose(prev, full, rtol=1e-12)


def test_cutoff_energy_bound(pp3, quad):
    big = family_density(3, 8.0, 2.0, 2.0, quad)
    for k in (1, 2, 4):
        mk = cutoff_measure(big, k, pp3, quad)
        if mk.total_mass() == 0:
            continue
        prof = wolff_profile(mk, pp3, quad)
        energy = integrate_against(mk, prof.eval, quad)
        assert energy <= k * mk.total_mass() * (1.0 + 1e-6)
