import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from wolfflab.quadrature import (Located, decade_tail, decade_tails, gauss_partial_basis,
                                 gauss_rule,
                                 kronrod_rule, kronrod_sum, panel_nodes, panel_sum, panelize,
                                 power_integral, power_law_head, power_tail_radius,
                                 segment_integral, segment_integrand, segment_table)


# -- panel sum ---------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 5, 12, 16])
def test_panel_sum_exact_for_polynomials(k):
    rng = np.random.default_rng(k)
    edges = np.array([0.3, 0.7, 1.9, 2.0, 5.5])
    for degree in range(2 * k):
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
        prim = poly.integ()
        exact = prim(edges[-1]) - prim(edges[0])
        scale = np.sum(np.abs(poly.coef)) * edges[-1] ** degree * edges[-1]
        assert abs(panel_sum(poly, edges, k) - exact) <= 1e-13 * scale
        per = panel_sum(poly, edges, k, rows=4)
        assert per == pytest.approx(prim(edges[1:]) - prim(edges[:-1]),
                                    rel=1e-12, abs=1e-13 * scale)
        halves = panel_sum(poly, edges, k, rows=2)
        assert halves == pytest.approx(prim(edges[[2, 4]]) - prim(edges[[0, 2]]),
                                       rel=1e-12, abs=1e-13 * scale)


def test_panel_nodes_accepts_edge_pairs():
    edges = np.array([0.5, 1.0, 4.0, 4.5, 9.0])
    for a, b in zip(panel_nodes(edges, 7), panel_nodes((edges[:-1], edges[1:]), 7)):
        assert np.array_equal(a, b)
    # a 2-D pair keeps its shape: one row of panels per window
    left, right = edges[:-1].reshape(2, 2), edges[1:].reshape(2, 2)
    nodes, weights = panel_nodes((left, right), 7)
    assert nodes.shape == (2, 2, 7)
    assert np.array_equal(nodes.reshape(4, 7), panel_nodes(edges, 7)[0])


@pytest.mark.parametrize("k", [12, 16])
def test_kronrod_rule_extends_gauss(k):
    x, w, g = kronrod_rule(k)
    gx, gw = gauss_rule(k)
    assert x.shape == w.shape == g.shape == (2 * k + 1,)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    assert w.sum() == pytest.approx(2.0, rel=1e-15)
    # the Gauss nodes are every other Kronrod node, with their own weights
    np.testing.assert_allclose(x[1::2], gx, rtol=0, atol=1e-15)
    assert np.array_equal(g[1::2], gw) and not np.any(g[::2])
    # exact on Legendre polynomials through degree 3k + 1 (k even), not beyond
    moments = np.polynomial.legendre.legvander(x, 3 * k + 2).T @ w
    assert moments[0] == pytest.approx(2.0, rel=1e-15)
    assert np.max(np.abs(moments[1:3 * k + 2])) < 1e-14
    assert abs(moments[3 * k + 2]) > 1e-6


def test_kronrod_sum_value_and_estimate():
    # per panel: the Kronrod sum, and the error of the Gauss sum as estimate
    left, right = np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.5, 3.0])
    value, est = kronrod_sum(np.exp, (left, right), 3)
    exact = np.exp(right) - np.exp(left)
    np.testing.assert_allclose(value, exact, rtol=1e-13)
    gauss = panel_sum(np.exp, (left, right), 3, rows=3)
    np.testing.assert_allclose(est, np.abs(gauss - exact), rtol=1e-6)
    # degree 2k - 1: the Gauss sum is exact, and so the estimate is rounding
    value, est = kronrod_sum(lambda r: r ** 31, (left, right), 16)
    assert np.all(est <= 1e-14 * value)


def test_graded_ends_smooth_half_integer_powers():
    # on [2, 3], (r - 2)^(3/2), (3 - r)^(1/2) and their product, graded
    # toward the left end, the right end and both (end codes 1, 2, 3): the
    # graded Gauss and Kronrod sums are within 1e-11 and the estimate is
    # too, where the plain rule (code 0) is off and its estimate is 230x its
    # Kronrod sum's error at code 1; the codes act per panel
    left, right = np.full(4, 2.0), np.full(4, 3.0)
    cases = [(lambda r: (r - 2.0) ** 1.5, 0.4), (lambda r: np.sqrt(3.0 - r), 2.0 / 3.0),
             (lambda r: (r - 2.0) ** 1.5 * np.sqrt(3.0 - r), math.pi / 16.0)]
    for code, (g, exact) in enumerate(cases, start=1):
        grade = np.array([code, 0, code, 0])
        value, est = kronrod_sum(g, (left, right), 10, grade)
        gauss = panel_sum(g, (left, right), 10, rows=4, grade=grade)
        for got in (value, gauss):
            assert abs(got[0] / exact - 1.0) <= 1e-11 and got[0] == got[2]
            assert abs(got[1] / exact - 1.0) > 1e-9
        assert est[0] <= 1e-11 * exact < 1e-6 * exact < est[1]
    np.testing.assert_array_equal(panel_nodes((left, right), 10, grade=np.zeros(4, int))[0],
                                  panel_nodes((left, right), 10)[0])


# -- batched panelization ------------------------------------------------------

_row = st.tuples(
    st.floats(-6.0, 3.0),                                # log10 lo
    st.floats(0.01, 6.0),                                # decades to hi
    st.lists(st.floats(-7.0, 10.0), max_size=6),          # log10 breakpoints
)


@settings(deadline=None, max_examples=40)
@given(rows=st.lists(_row, min_size=1, max_size=6), ppd=st.integers(1, 5))
def test_panelize_rows_match_single_builds(rows, ppd):
    lo = np.array([10.0 ** r[0] for r in rows])
    hi = lo * np.array([10.0 ** r[1] for r in rows])
    width = max(len(r[2]) for r in rows)
    brk = np.full((len(rows), width + 1), np.nan)  # NaN pads ragged rows
    for i, r in enumerate(rows):
        brk[i, :len(r[2])] = 10.0 ** np.array(r[2])
        brk[i, len(r[2])] = lo[i]  # on the row's edge: ignored
    left, right, row = panelize(lo, hi, brk, ppd)
    assert np.all(np.diff(row) >= 0)
    for i in range(len(rows)):
        a_left, a_right, a_row = panelize(lo[i], hi[i], brk[i][~np.isnan(brk[i])], ppd)
        assert np.all(a_row == 0)
        mine = np.stack([left[row == i], right[row == i]], axis=1)
        assert np.array_equal(mine, np.stack([a_left, a_right], axis=1))
        # contiguous cover of [lo, hi], positive widths
        assert mine[0, 0] == lo[i] and mine[-1, 1] == hi[i]
        assert np.array_equal(mine[1:, 0], mine[:-1, 1])
        assert np.all(mine[:, 1] > mine[:, 0])
        # no panel straddles a breakpoint, each one is an edge
        for c in brk[i]:
            if lo[i] < c < hi[i]:
                assert not np.any((mine[:, 0] < c) & (c < mine[:, 1]))
                assert c in mine[:, 0]
        # each span gets max(1, ceil(decades * ppd)) panels
        cuts = np.unique(np.concatenate([[lo[i], hi[i]], brk[i][
            (brk[i] > lo[i]) & (brk[i] < hi[i])]]))
        want = sum(max(1, math.ceil(math.log10(b / a) * ppd))
                   for a, b in zip(cuts[:-1], cuts[1:]))
        assert len(mine) == want


def test_panelize_geometric_within_a_span():
    left, right, _ = panelize(1e-3, 1e3, (), 4)
    ratios = right / left
    assert len(left) == 24
    assert ratios == pytest.approx(np.full(24, 10.0 ** 0.25), rel=1e-12)


def test_panelize_rejects_bad_rows():
    with pytest.raises(ValueError):
        panelize(0.0, 1.0)
    with pytest.raises(ValueError):
        panelize([1.0, 2.0], [3.0, 2.0])


# -- closed-form power integrals -------------------------------------------------

@pytest.mark.parametrize("e", [-3.5, -1.7, -1.0, -0.5, 0.0, 2.3])
@pytest.mark.parametrize("a, b", [(0.3, 4.0), (1e-3, 0.5), (0.0, 1.5), (0.7, math.inf),
                                  (2.0, 2.0), (0.0, 0.0)])
def test_power_integral_matches_quad(e, a, b):
    c = 1.7
    got = power_integral(c, e, a, b)
    if a == b:
        assert got == 0.0
    elif (b == math.inf and e >= -1.0) or (a == 0.0 and e <= -1.0):
        assert got == math.inf
    else:
        want = scipy_quad(lambda s: c * s ** e, a, b, epsabs=0.0, epsrel=1e-13,
                          limit=200)[0]
        assert got == pytest.approx(want, rel=1e-10)
        if e == -1.0:
            assert got == c * math.log(b / a)
        elif a > 0.0 and b < math.inf:
            assert got == pytest.approx(c * (b ** (e + 1.0) - a ** (e + 1.0)) / (e + 1.0),
                                        rel=1e-14)


@pytest.mark.parametrize("de", [-1e-9, -1e-13, 1e-13, 1e-9])
def test_power_integral_next_to_the_log(de):
    # anchored at a through expm1: no cancellation as e -> -1, where the
    # difference of powers would keep only a few digits
    a, b, x = 0.4, 30.0, de * math.log(30.0 / 0.4)
    want = 2.0 * a ** de * math.log(b / a) * (1.0 + x / 2.0 + x * x / 6.0)
    assert power_integral(2.0, -1.0 + de, a, b) == pytest.approx(want, rel=1e-15)
    assert power_integral(2.0, -1.0 + de, a, np.array([b]))[0] == pytest.approx(want,
                                                                                 rel=1e-15)


def test_power_integral_scalar_and_array_agree():
    rng = np.random.default_rng(7)
    e = np.concatenate([rng.uniform(-4.0, 2.0, 40), [-1.0, -1.0, 0.0, np.nan, np.nan]])
    a = np.concatenate([rng.uniform(0.0, 3.0, 40), [0.5, 0.0, 0.0, 0.0, 0.5]])
    b = a + np.concatenate([rng.uniform(0.0, 5.0, 40), [2.0, 1.0, 1.0, 1.0, np.inf]])
    a[:5], b[5:10], b[10:15] = 0.0, np.inf, a[10:15]
    c = rng.uniform(0.1, 5.0, len(e))
    got = power_integral(c, e, a, b)
    want = np.array([power_integral(*args) for args in zip(c, e, a, b)])
    assert all(isinstance(w, float) for w in want)
    assert np.array_equal(np.isinf(got), np.isinf(want)) and not np.any(np.isnan(got))
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)  # libm vs SIMD: last bit
    # a NaN exponent diverges at either improper end; every a = b gives 0
    assert np.all(np.isinf(got[-2:])) and np.all(got[10:15] == 0.0)
    assert power_integral(1.0, -2.0, 1.0, np.zeros(0)).shape == (0,)
    # scalar ends broadcast against array coefficients and exponents
    np.testing.assert_allclose(power_integral(c, e, 0.5, 2.0),
                               [power_integral(ci, ei, 0.5, 2.0) for ci, ei in zip(c, e)],
                               rtol=1e-15, atol=0.0)


def test_power_integral_overflow_is_inf():
    assert power_integral(1.0, 400.0, 0.0, 10.0) == math.inf
    assert power_integral(1.0, -3.0, 1e-200, math.inf) == math.inf
    assert power_integral(1.0, 2.0, 1e100, 1e200) == math.inf


@pytest.mark.parametrize("e", [-1.02, -1.5, -3.0, -7.0])
@pytest.mark.parametrize("c", [1e-3, 1.0, 50.0])
def test_power_tail_radius_inverts_the_tail(e, c):
    for m in (1e-14, 1e-3, 10.0):
        radius = power_tail_radius(c, e, m)
        log_radius = (math.log(m * (-e - 1.0) / c)) / (e + 1.0)
        if math.isinf(radius):  # past the double range
            assert log_radius > math.log(sys.float_info.max)
            continue
        assert power_integral(c, e, radius) == pytest.approx(m, rel=1e-12)
        assert power_integral(c, e, np.array([radius]))[0] == pytest.approx(m, rel=1e-12)
        assert radius == pytest.approx((m * (-e - 1.0) / c) ** (1.0 / (e + 1.0)), rel=1e-12)


def test_power_tail_radius_edges():
    # the c = 1.51 family's tail at n = 3: 1e800 reads inf, not OverflowError
    assert power_tail_radius(1.0, -1.02, 1e-14) == math.inf
    assert power_tail_radius(1.0, -1.0, 1.0) == math.inf  # no light tail
    assert power_tail_radius(1.0, -0.5, 1.0) == math.inf
    assert power_tail_radius(1.0, -2.0, 0.0) == math.inf
    assert power_tail_radius(2.0, -3.0, 1.0) == 1.0


# -- power-law head ------------------------------------------------------------

@pytest.mark.parametrize("kappa", [-0.95, -0.5, 0.0, 0.7, 3.0])
def test_head_exact_on_power_laws(kappa):
    r0 = np.array([1e-6, 0.3, 2.0, 50.0])
    got = power_law_head(lambda r, _: 2.5 * r ** kappa, r0)
    assert got == pytest.approx(2.5 * r0 ** (kappa + 1.0) / (kappa + 1.0), rel=1e-12)
    assert power_law_head(lambda r, _: 2.5 * r ** kappa, 0.3) == pytest.approx(
        2.5 * 0.3 ** (kappa + 1.0) / (kappa + 1.0), rel=1e-12)


@pytest.mark.parametrize("kappa", [-1.0, -1.5, -4.0])
def test_head_divergent_power_laws_are_infinite(kappa):
    got = power_law_head(lambda r, _: r ** kappa, np.array([1e-3, 1.0, 10.0]))
    assert np.all(np.isinf(got))
    assert math.isinf(power_law_head(lambda r, _: r ** kappa, 1.0))


def test_head_zero_and_nonfinite():
    assert power_law_head(lambda r, _: np.zeros_like(r), 1.0) == 0.0
    assert math.isinf(power_law_head(lambda r, _: np.full_like(r, np.inf), 1.0))
    # nothing below r0/2: no head at all
    assert power_law_head(lambda r, _: np.where(r > 0.6, 1.0, 0.0), 1.0) == 0.0


@pytest.mark.parametrize("kappa", [-1.5, -0.5, 0.0, 2.0])
def test_head_with_support_edge_inside(kappa):
    # f vanishes below an edge in (r0/4, r0/2): the stub is integrated on
    # either side of the located edge (finite even for kappa <= -1)
    r0 = np.array([0.8, 2.0, 3.0])
    edge = np.array([0.3, 0.9, 1.4])
    got = power_law_head(lambda r, cols: np.where(r > edge[cols], r ** kappa, 0.0), r0)
    exact = (r0 ** (kappa + 1.0) - edge ** (kappa + 1.0)) / (kappa + 1.0)
    assert np.all(np.isfinite(got))
    assert got == pytest.approx(exact, rel=1e-10)
    # rows without an edge keep the closed form in the same call
    mixed = power_law_head(
        lambda r, cols: np.where(r > (edge * [1, 0, 1])[cols], r ** 0.5, 0.0), r0)
    assert mixed[1] == pytest.approx(r0[1] ** 1.5 / 1.5, rel=1e-12)
    # the edge swept across (r0/4, r0/2), and a scalar r0
    sweep_r0 = np.full(47, 1.7)
    sweep_edge = np.linspace(0.26, 0.49, 47) * sweep_r0
    got = power_law_head(
        lambda r, cols: np.where(r > sweep_edge[cols], r ** kappa, 0.0), sweep_r0)
    exact = (sweep_r0 ** (kappa + 1.0) - sweep_edge ** (kappa + 1.0)) / (kappa + 1.0)
    assert got == pytest.approx(exact, rel=1e-10)
    assert power_law_head(lambda r, _: np.where(r > 0.4, r ** kappa, 0.0), 1.0) == \
        pytest.approx((1.0 - 0.4 ** (kappa + 1.0)) / (kappa + 1.0), rel=1e-10)


def test_head_stub_sees_only_stub_columns():
    # one stub among three columns: its edge search and panels evaluate
    # that column alone
    edge = np.array([0.0, 0.4, 0.0])
    widths = []

    def f(r, cols):
        widths.append(r.shape[1])
        return np.where(r > edge[cols], r, 0.0)

    got = power_law_head(f, np.ones(3))
    assert widths[0] == 3 and len(widths) > 1
    assert all(w == 1 for w in widths[1:])
    assert got == pytest.approx([0.5, (1.0 - 0.4 ** 2) / 2.0, 0.5], rel=1e-10)


# -- decade tail -----------------------------------------------------------------

@pytest.mark.parametrize("beta", [1.2, 2.0, 3.5, 7.0])
def test_tail_exact_on_decaying_power_law(beta):
    start = 0.37
    got = decade_tail(lambda r: 3.0 * r ** (-beta), start, 16, 1e-10)
    assert got == pytest.approx(3.0 * start ** (1.0 - beta) / (beta - 1.0), rel=1e-9)


@pytest.mark.parametrize("beta", [1.0, 0.5, -1.0])
def test_tail_infinite_when_increments_do_not_decay(beta):
    assert math.isinf(decade_tail(lambda r: r ** (-beta), 2.0, 16, 1e-10))


def test_tail_infinite_on_nonfinite_increment():
    assert math.isinf(decade_tail(lambda r: np.where(r > 30.0, np.inf, 1.0 / r ** 2),
                                  1.0, 16, 1e-10))


@pytest.mark.parametrize("upper", [0.5, 2.0, 45.0, 1e4])
def test_tail_stops_at_upper_cap(upper):
    got = decade_tail(lambda r: r ** -3.0, 0.5, 16, 1e-10, upper=upper)
    assert got == pytest.approx((0.5 ** -2 - upper ** -2) / 2.0, rel=1e-12, abs=0.0)
    if upper < 50.0:
        # a cap within the second decade ends the sum before the ratio
        # test, even where the untruncated integral diverges
        got = decade_tail(lambda r: 1.0 / r, 0.5, 16, 1e-10, upper=upper)
        assert got == pytest.approx(math.log(upper / 0.5), rel=1e-12, abs=0.0)


def test_tail_of_zero_is_zero():
    assert decade_tail(lambda r: np.zeros_like(r), 1.0, 16, 1e-10) == 0.0


@pytest.mark.parametrize("upper", [math.inf, 45.0])
def test_tails_of_many_rows_match_one_row_calls(upper):
    # rows that stop by the ratio test, at two zero decades, on divergence,
    # on a non-finite increment or at the cap read as their one-row calls,
    # bit for bit, from one call of the integrand per decade
    fs = [lambda r: 3.0 * r ** -2.5, lambda r: r ** -3.0, lambda r: np.zeros_like(r),
          lambda r: 1.0 / r, lambda r: np.where(r > 30.0, np.inf, r ** -2.0)]
    start = np.array([0.37, 0.5, 1.0, 2.0, 1.0])
    decades = []

    def one_row(g):
        def f(r):
            decades[-1] += 1
            return g(r)
        return f

    want = []
    for g, a in zip(fs, start):
        decades.append(0)
        want.append(decade_tail(one_row(g), a, 16, 1e-10, upper))
    calls = []

    def f(row, r):
        calls.append(len(r))
        out = np.empty_like(r)
        for j, g in enumerate(fs):
            out[row == j] = g(r[row == j])
        return out

    got = decade_tails(f, start, 16, 1e-10, upper)
    assert np.array_equal(got, want)
    assert len(calls) == max(decades)
    assert math.isinf(got[3]) == math.isinf(upper) and math.isinf(got[4])


def test_partial_gauss_integrates_the_interpolant():
    # sum_m coeffs_m B_m(y) is the integral from -1 to y of the interpolant
    # through the Gauss nodes: exact for polynomials of degree < k, zero at
    # y = -1 and the Gauss rule at y = 1
    # (a table on segments of half width 1 holds the coefficients themselves)
    k = 8
    x, w = gauss_rule(k)
    y = np.linspace(-1.0, 1.0, 9)
    basis = gauss_partial_basis(y, k)
    for deg in range(k):
        want = (y ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        coeffs = segment_table(np.array([-1.0, 1.0]), [x ** deg])[:, 0]
        np.testing.assert_allclose(coeffs @ basis, want, rtol=0.0, atol=4e-15)
    assert np.array_equal(basis[:, 0], np.zeros(k))
    unit = segment_table(2.0 * np.arange(k + 1.0), np.eye(k))  # node j's polynomial
    weights = unit.T @ gauss_partial_basis(np.ones(1), k)
    np.testing.assert_allclose(weights.ravel(), w, rtol=1e-14, atol=0.0)
    # a segment table on uneven edges, at the mass tables' k = 10 and the
    # solve's k = 16: at located radii its integral from the left edge and
    # its interpolant are exact; on an edge the integral is exactly 0 and
    # the last edge lies beyond the segments, where the whole last segment
    # is the Gauss rule
    edges = np.array([0.0, 0.07, 0.2, 0.21, 0.55, 1.0])
    r = np.concatenate([edges, edges[:-1] + 0.37 * np.diff(edges), [0.999999, 0.2000001]])
    rng = np.random.default_rng(5)
    for k in (10, 16):
        loc = Located(edges, r)
        assert np.array_equal(loc.on_edge()[1], np.arange(len(edges)))
        assert np.array_equal(loc.r_beyond, [1.0]) and len(loc.idx) == len(r) - 1
        for deg in range(k):
            poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, deg + 1))
            prim, scale = poly.integ(), np.sum(np.abs(poly.coef))
            table = segment_table(edges, poly(panel_nodes(edges, k)[0]))
            part = segment_integral(table, loc)
            np.testing.assert_allclose(part, prim(loc.r) - prim(edges[loc.idx]),
                                       rtol=0.0, atol=1e-14 * scale)
            assert np.all(part[loc.y == -1.0] == 0.0)
            np.testing.assert_allclose(np.cumsum(2.0 * table[0]), prim(edges[1:]) - prim(0.0),
                                       rtol=0.0, atol=1e-14 * scale)
            # the interpolant: on an edge and within 1e-6 of a segment's end
            # the Legendre form carries its coefficients' rounding times
            # sum (2m + 1) = k^2 (1.2e-14 here at k = 16)
            err = np.abs(segment_integrand(table, loc) - poly(loc.r))
            near_end = np.abs(loc.y) > 0.99
            assert np.all(err[~near_end] <= 1e-14 * scale)
            assert np.all(err[near_end] <= k * k * np.finfo(float).eps * scale)
