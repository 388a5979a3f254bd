"""Independent oracles the tests check against.

Values frozen below were produced by these routines (seeds recorded);
the oracles never touch the library's quadrature machinery.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import betainc

# -- frozen oracle outputs -------------------------------------------------

# Monte Carlo lens volume, unit density on B(0,1), query center |x| = 0.8,
# radius 0.5; 1e7 rejection samples, seed 12345 (mc_lens_volume below).
MC_LENS_VOLUME = 0.3672508198478302
MC_LENS_ERR = 7.6e-05

# Monte Carlo Newtonian self-energy of the unit ball (kernel 1/|x-y|),
# 1e7 pairs, seed 2024 (mc_ball_self_energy below); closed form 32 pi^2/15.
MC_BALL_SELF_ENERGY = 21.05429259177868
MC_BALL_SELF_ENERGY_ERR = 5.1e-03
BALL_SELF_ENERGY_CLOSED = 32.0 * math.pi ** 2 / 15.0

# 1-D quadrature of the layer-cake potential of the unit ball:
# integral over B(0,1) of (2 pi (1 - |x|^2/3))^{3/2} dx  (gamma=1, q=1/2
# mutual energy of the ball against itself); scipy.integrate.quad,
# abs/rel tolerance 1e-12 (quad_ball_mutual_energy below).
BALL_MUTUAL_ENERGY_15 = 47.41533413138348


def sphere_intersection_volume(d, R, r):
    """Exact volume of B(x, r) ∩ B(0, R) in R^3 for partial overlap."""
    if d >= R + r:
        return 0.0
    if d + r <= R:
        return 4.0 / 3.0 * math.pi * r ** 3
    if d + R <= r:
        return 4.0 / 3.0 * math.pi * R ** 3
    return (math.pi * (R + r - d) ** 2
            * (d * d + 2 * d * r - 3 * r * r + 2 * d * R + 6 * r * R - 3 * R * R)
            / (12.0 * d))


def lens_volume(n, a, d, r):
    """|B(0, a) cap B(x, r)|, |x| = d > 0: the caps of the two balls beyond
    their common plane, each (1/2) V_n R^n I_q((n+1)/2, 1/2) at q = 1 -
    c^2/R^2 for a plane at distance c >= 0 from its center, the rest of the
    ball for c < 0; R - c and R + c are formed without cancellation."""
    vn = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    if r >= d + a or a >= d + r or r <= d - a:
        return vn * min(a, r) ** n if r > d - a else 0.0

    def cap(R, R_minus_c, R_plus_c):
        part = 0.5 * vn * R ** n * betainc(0.5 * (n + 1), 0.5, R_minus_c * R_plus_c / R ** 2)
        return part if R_minus_c <= R else vn * R ** n - part

    return (cap(a, (r - d + a) * (r + d - a) / (2 * d), (d + a - r) * (d + a + r) / (2 * d))
            + cap(r, (a - d + r) * (a + d - r) / (2 * d), (d + r - a) * (d + r + a) / (2 * d)))


def ball_potential(a):
    """Newtonian-kernel potential of the unit-density unit ball in R^3 at
    radius a (layer-cake identity; W_{1,2} has kernel 1/|x-y| in R^3)."""
    a = np.asarray(a, dtype=float)
    inner = 2.0 * math.pi * (1.0 - a * a / 3.0)
    outer = np.where(a > 0, (4.0 * math.pi / 3.0) / np.maximum(a, 1e-300), np.inf)
    return np.where(a <= 1.0, inner, outer)


def mc_lens_volume(n_samples=10_000_000, seed=12345, d=0.8, r=0.5):
    """Rejection-sampling volume of B(x, r) ∩ B(0, 1), |x| = d."""
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < n_samples:
        m = min(1_000_000, n_samples - done)
        v = rng.normal(size=(m, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        pts = v * (r * rng.uniform(size=m) ** (1.0 / 3.0))[:, None]
        pts[:, 0] += d
        hits += int(np.sum(np.sum(pts ** 2, axis=1) < 1.0))
        done += m
    vol_query = 4.0 / 3.0 * math.pi * r ** 3
    frac = hits / n_samples
    return vol_query * frac, vol_query * math.sqrt(frac * (1 - frac) / n_samples)


def mc_ball_self_energy(n_pairs=10_000_000, seed=2024):
    """Pairwise 1/|x-y| double integral over B(0,1)^2 by Monte Carlo."""
    rng = np.random.default_rng(seed)
    acc = acc2 = 0.0
    done = 0
    while done < n_pairs:
        m = min(1_000_000, n_pairs - done)

        def ball(k):
            v = rng.normal(size=(k, 3))
            v /= np.linalg.norm(v, axis=1)[:, None]
            return v * (rng.uniform(size=k) ** (1.0 / 3.0))[:, None]

        vals = 1.0 / np.linalg.norm(ball(m) - ball(m), axis=1)
        acc += vals.sum()
        acc2 += (vals ** 2).sum()
        done += m
    vol = 4.0 / 3.0 * math.pi
    mean = acc / n_pairs
    var = acc2 / n_pairs - mean ** 2
    return vol * vol * mean, vol * vol * math.sqrt(var / n_pairs)


def quad_ball_mutual_energy(exponent=1.5):
    val, _ = integrate.quad(
        lambda a: 4.0 * math.pi * a * a * (2.0 * math.pi * (1 - a * a / 3.0)) ** exponent,
        0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    return val


def lebesgue_radial_integral(fn, n, a=1e-9, b=1e9):
    """Independent Lebesgue integral of a radial function via scipy."""
    wn = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    val, _ = integrate.quad(
        lambda t: fn(math.exp(t)) * n * wn * math.exp(t) ** n,
        math.log(a), math.log(b), limit=400, epsabs=1e-13, epsrel=1e-11)
    return val


def rearrangement_by_scan(u_fn, n, levels, r_hi=1e6, samples=400_000):
    """Brute-force decreasing rearrangement via the distribution function
    on a dense radial grid (independent of the library implementation)."""
    wn = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    r = np.geomspace(1e-8, r_hi, samples)
    vals = u_fn(r)
    vols = wn * np.diff(np.concatenate([[0.0], r ** n]))
    out = []
    for a in levels:
        out.append(float(np.sum(vols[vals > a])))
    return np.asarray(out)
