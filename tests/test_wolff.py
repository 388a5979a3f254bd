import math
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc

from wolfflab import (Atom, BadPoint, NonpositiveR, QuadratureConfig, RadialDensity,
                      SphericalShell, Sum, ZeroMeasure, add, cutoff_measure, dirac,
                      params, scale, truncated_wolff, wolff, wolff_profile,
                      wolff_sup_on_support, integrate_against, zero_measure)
from wolfflab.families import family_density, family_density_fn
from wolfflab.wolff import PotentialValue

from oracles import ball_potential, lens_volume


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
@pytest.mark.parametrize("n", [3, 4, 5, 6])
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


def _quad_reference(n, d, p):
    """W at distance d of _ball_and_shell's measure by scipy quad of the
    Wolff integrand with closed-form ball masses (lens volumes and
    betainc caps), split at the ball-mass breakpoints, plus the closed-form
    tail beyond d + 1.6, where the ball mass is the total."""
    a, rho, rs, ms = 1.6, 1.9, 0.7, 0.45
    vn = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    e = (n - p) / (p - 1.0)

    def f(r):
        cap = min(max((r - rs + d) * (r + rs - d) / (4.0 * rs * d), 0.0), 1.0)
        m = rho * lens_volume(n, a, d, r) + ms * betainc(0.5 * (n - 1), 0.5 * (n - 1), cap)
        return (m * r ** (p - n)) ** (1.0 / (p - 1.0)) / r

    ends = sorted({0.0, d, abs(d - rs), d + rs, abs(d - a), d + a})
    core = sum(integrate.quad(f, lo, hi, epsabs=1e-300, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(ends[:-1], ends[1:]) if hi > lo)
    total = rho * vn * a ** n + ms
    return core + total ** (1.0 / (p - 1.0)) * (d + a) ** -e / e


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 3.5])
@pytest.mark.parametrize("n", [4, 6])
def test_estimate_is_honest_at_even_n(n, p, quad):
    # the ball masses grow like a half-integer power of r - r_b from every
    # support edge and shell radius r_b at even n, which the graded panel
    # ends resolve: every point converges, with an estimate that covers
    # its error
    mu, _ = _ball_and_shell(n, quad)
    pp = params(n, p, 0.5 * (p - 1.0), 1.0)
    for d in BALL_SHELL_D:
        got = wolff(mu, d * np.eye(n)[0], pp, quad)
        want = _quad_reference(n, d, p)
        assert got.converged, (d, got)
        assert abs(got.value - want) <= max(10.0 * got.quad_error_estimate, 1e-12 * want), \
            (d, got, want)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_even_n_profile_rows_match_pointwise(p, suite_quad):
    # n = 4: the Gauss-only profile rows are graded like the pointwise ones
    mu, _ = _ball_and_shell(4, suite_quad)
    pp = params(4, p, 0.5 * (p - 1.0), 1.0)
    prof = wolff_profile(mu, pp, suite_quad)
    point = [wolff(mu, d * np.eye(4)[0], pp, suite_quad).value for d in prof.grid]
    np.testing.assert_allclose(prof.values, point, rtol=1e-8)


def test_converged_flag(quad):
    # at the default rel_tol every point converges, near the support too
    # (at even n the panels ending on a ball-mass breakpoint are graded);
    # at rel_tol 1e-17, below the double-precision floor of its error,
    # none does
    tight = QuadratureConfig(rel_tol=1e-17)
    for n, p in DIRAC_NP:
        pp = params(n, p, (p - 1) / 2, 1.0)
        assert all(wolff(dirac(n), x, pp, quad, R=R).converged
                   for x, R, _ in _dirac_cases(n, p))
    for n in (3, 4, 5):
        pp = params(n, 2.0, 0.5, 1.0)
        mu, _ = _ball_and_shell(n, quad)
        for d in BALL_SHELL_D:
            for R in (None, 1.5 * (d + 1.6)):
                assert wolff(mu, d * np.eye(n)[0], pp, quad, R=R).converged
                assert not wolff(mu, d * np.eye(n)[0], pp, tight, R=R).converged


def test_refinement_only_splits_unconverged_panels(quad, monkeypatch):
    # n = 3, the family's far field at |x| = 4, 64 ppd: a Kronrod pass gives
    # every panel its estimate, so refinement bisects only the panels above
    # their share
    wolff_module = sys.modules["wolfflab.wolff"]
    kronrod_sum, radial_mass = wolff_module.kronrod_sum, RadialDensity._radial_mass
    widths, nodes = [], []

    def counting_sum(f, edges, k, grade=None):
        widths.append(np.log(edges[1] / edges[0]))
        return kronrod_sum(f, edges, k, grade)

    def counting_mass(self, d, r):
        nodes.append(len(r))
        return radial_mass(self, d, r)

    monkeypatch.setattr(wolff_module, "kronrod_sum", counting_sum)
    monkeypatch.setattr(RadialDensity, "_radial_mass", counting_mass)
    fn = family_density_fn(1.3, 0.7, 2.8)
    mu = family_density(3, 1.3, 0.7, 2.8, quad)
    pp = params(3, 2.0, 0.5, 1.0)
    x = 4.0 * np.array([0.4, 0.3, 0.2]) / np.linalg.norm([0.4, 0.3, 0.2])
    counts = []
    for _ in range(2):
        widths.clear()
        nodes.clear()
        got = wolff(mu, x, pp, quad)
        counts.append(list(nodes))
    assert counts[0] == counts[1]
    assert got.converged
    assert len(widths) > 1  # the point refines
    # fewer nodes than one round that bisects every panel of the first pass
    assert sum(counts[0]) < counts[0][0] + 2 * (2 * quad.gauss_order + 1) * len(widths[0])
    # no panel is bisected more than three times
    first = np.min(widths[0])
    assert min(np.min(w) for w in widths) >= first / 8 * (1 - 1e-12)
    assert got.value == pytest.approx(_newton_wolff(fn, 3, 4.0, math.inf), rel=1e-12)


@pytest.mark.parametrize("n", range(3, 8))
def test_pointwise_value_does_not_depend_on_the_start(n, quad, monkeypatch):
    # pointwise rows start at panels_per_decade and the Kronrod estimate
    # refines them: a start 4x finer moves no value by more than 1e-13 and
    # no converged flag, from p near 1 to p near n, on a tailed family, a
    # cut one, a shell and an off-center atom seen from near and far points
    wolff_module = sys.modules["wolfflab.wolff"]
    start = wolff_module._point_resolution

    def finer(q):
        k, ppd, refine, ext_tol = start(q)
        return k, 4 * ppd, refine, ext_tol

    e = np.eye(n)
    mu = Sum([family_density(n, 1.3, 0.8, n / 2.0 + 0.7, quad),
              family_density(n, 0.6, 1.5, n / 2.0 + 0.4, quad, cut=2.2),
              SphericalShell(n, 1.1, 0.4), Atom(0.9 * e[1], 0.3)])
    points = [0.35 * e[0], 1.05 * (e[0] + e[2]) / math.sqrt(2.0), 2.9 * e[0]]
    for p in (1.05, 2.0, n - 0.1):
        pp = params(n, p, 0.5 * (p - 1.0), 1.0)
        got = [wolff(mu, x, pp, quad) for x in points]
        monkeypatch.setattr(wolff_module, "_point_resolution", finer)
        want = [wolff(mu, x, pp, quad) for x in points]
        monkeypatch.setattr(wolff_module, "_point_resolution", start)
        for a, b in zip(got, want):
            assert a.value == pytest.approx(b.value, rel=1e-13, abs=0.0)
            assert a.converged == b.converged


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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_heavy_finite_tails_match_newton(n, quad):
    # tails s^-tau just past tau = n have finite mass; at tau = n + 0.02 the
    # radius holding all but 1e-14 of it lies past the double range, formed
    # in logs it reads inf, and the rows then sum the tail decade by decade
    pp = params(n, 2.0, 0.5, 1.0)
    for tau in (n + 0.02, n + 0.1, n + 0.2):
        mu = family_density(n, 1.0, 1.0, tau / 2.0, quad)
        assert math.isfinite(mu.total_mass())
        for rel_tol in (1e-6, 1e-12, 1e-14):
            assert mu.effective_extent(rel_tol) > mu.grid[-1]
        for d in (0.5, 2.0):
            x = np.zeros(n)
            x[0] = d
            got = wolff(mu, x, pp, quad)
            want = _newton_wolff(family_density_fn(1.0, 1.0, tau / 2.0), n, d, math.inf)
            assert got.converged
            assert got.value == pytest.approx(want, rel=1e-10)


def test_heavy_finite_tail_profile(pp3, quad):
    # the c = 1.51 family at n = 3: its profile rows sum per-row decade
    # tails; the profile resolution is good to about 1e-5 here
    c = 1.51
    mu = family_density(3, 1.0, 1.0, c, quad)
    prof = wolff_profile(mu, pp3, quad)
    assert np.all(np.isfinite(prof.values)) and prof.tail_coeff == pytest.approx(
        mu.total_mass(), rel=1e-12)
    for d in (0.5, 2.0, 10.0):
        want = _newton_wolff(family_density_fn(1.0, 1.0, c), 3, d, math.inf)
        assert prof.eval(d) == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_near_field_converged_points_are_within_rel_tol(n, quad):
    # a ball, a shell and a family near their supports: every point
    # converges (at n = 4 too, with graded panel ends; 8 of the 20 did
    # before), and a point that converged is within rel_tol
    pp = params(n, 2.0, 0.5, 1.0)
    mu_bs, exact_bs = _ball_and_shell(n, quad)
    c = (n + 2) / 2.0
    mu = Sum(list(mu_bs.components()) + [family_density(n, 1.0, 1.0, c, quad)])
    fn = family_density_fn(1.0, 1.0, c)
    converged = 0
    for d in np.concatenate([BALL_SHELL_D[:-1], np.geomspace(0.02, 3.0, 12)]):
        got = wolff(mu, d * np.eye(n)[0], pp, quad)
        want = exact_bs(d) + _newton_wolff(fn, n, d, math.inf)
        if got.converged:
            converged += 1
            assert abs(got.value / want - 1.0) <= quad.rel_tol, (d, got, want)
    assert converged == 20


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


def test_profile_has_nodes_on_support_edges(suite_quad):
    # the default grid carries the support edges, where W has kinks: the
    # profile there is a node value, not an interpolant across the kink
    pp = params(3, 2.5, 0.5, 1.0)
    unit = RadialDensity.from_function(3, np.ones_like, suite_quad, cut=2.0, lo_cut=1.0)
    annulus = scale(unit, 1.0074)
    prof = wolff_profile(annulus, pp, suite_quad)
    for r in (1.0, 2.0):
        assert prof.eval(r) == pytest.approx(wolff(annulus, [r, 0.0, 0.0], pp, suite_quad).value,
                                             rel=1e-9)
    assert {1.0, 2.0} <= set(prof.grid)


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


def _w(mu, r, pp, quad):
    return wolff(mu, [r, 0.0, 0.0], pp, quad).value


def test_cutoff_keeps_every_admissible_run(suite_quad):
    # W of an annulus peaks just inside its inner edge; scaled so that the
    # peak tops k, the band where W > k splits it into two admissible runs
    pp, k = params(3, 2.5, 0.5, 1.0), 26
    unit = RadialDensity.from_function(3, np.ones_like, suite_quad, cut=2.0, lo_cut=1.0)
    annulus = scale(unit, (1.001 * k / _w(unit, 1.08, pp, suite_quad)) ** (pp.p - 1.0))
    pieces = cutoff_measure(annulus, k, pp, suite_quad).components()
    assert len(pieces) == 2
    (a0, a1), (b0, b1) = [(c.lo_cut, c.support_radius()) for c in pieces]
    assert a0 == 1.0 and a1 < 1.08 < b0 and b1 == 2.0
    for r in (a1, b0):
        assert abs(_w(annulus, r, pp, suite_quad) - k) <= 1e-4


@pytest.mark.parametrize("p, k", [(1.5, 40), (2.5, 13)])
def test_cutoff_reads_w_of_the_whole_measure(p, k, suite_quad):
    # W is not additive in mu unless p = 2: the ball around 2 delta_0 is
    # cut where W of the sum, atom included, crosses k.  The crossing is
    # that of the profile interpolant on the support samples (25 a decade
    # here), good to about 2e-5 relative at p = 1.5.
    pp = params(3, p, 0.25 * (p - 1.0), 1.0)
    mixed = add(dirac(3, 2.0), RadialDensity.uniform_ball(3, 1.0, 1.0, suite_quad))
    (piece,) = cutoff_measure(mixed, k, pp, suite_quad).components()
    assert piece.support_radius() == 1.0
    assert abs(_w(mixed, piece.lo_cut, pp, suite_quad) - k) <= 1e-4 * k


def test_cutoff_keeps_a_shell_whole_or_drops_it(pp3, suite_quad):
    shell = SphericalShell(3, 5.0, 20.0)  # W = 4 on it, inside B(0, 2^3)
    assert _w(shell, 5.0, pp3, suite_quad) == pytest.approx(4.0, rel=1e-12)
    assert cutoff_measure(shell, 3, pp3, suite_quad).total_mass() == 0.0
    assert cutoff_measure(shell, 5, pp3, suite_quad) is shell


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
