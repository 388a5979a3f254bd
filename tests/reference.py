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
