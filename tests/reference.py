"""A density times a radial weight, built independently of
measure.weighting: the RadialDensity whose density_fn is the product,
tabulated on the union of both grids and ended where the density ends."""

import math

import numpy as np

from wolfflab import RadialDensity


def reference_product(comp: RadialDensity, g) -> RadialDensity:
    fn = lambda s: comp.density_at(s) * np.maximum(g.eval(s), 0.0)
    grid = np.union1d(comp.grid, g.grid)
    if math.isfinite(comp._hi):
        grid = np.append(grid[grid < comp._hi], comp._hi)
    tail = None if comp.tail is None else \
        (comp.tail[0] * g.tail_coeff, comp.tail[1] + g.tail_exp)
    return RadialDensity(comp.dim, grid, np.maximum(fn(grid), 0.0), density_fn=fn,
                         tail=tail, cut=comp.cut, lo_cut=comp.lo_cut,
                         allow_infinite_mass=True, window_order=comp._window_k)


def plain_picard(u0, sigma_list, q_list, mu, pp, quad, grid, tol, max_steps=400):
    """Plain Picard iteration u <- iterate_once(u) from u0 on grid until the
    sup-relative change of a step is at most tol; None when it does not get
    there within max_steps."""
    from wolfflab import iterate_once
    u = u0
    for _ in range(max_steps):
        nxt = iterate_once(u, sigma_list, q_list, mu, pp, quad, grid=grid)
        change = np.max(np.abs(nxt.values - u.values) / np.maximum(nxt.values, 1e-300))
        u = nxt
        if change <= tol:
            return u
    return None
