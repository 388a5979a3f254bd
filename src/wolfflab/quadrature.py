"""Shared 1-D quadrature kernel: geometric Gauss panels, a closed-form
power-law head below the first node and a decade-by-decade tail with a
geometric remainder.

Every improper radial integral in the package runs through these helpers
so there is a single tolerance story.  Integrands are piecewise smooth
between known breakpoints (support edges, atom distances, grid knots);
panels never straddle a breakpoint, and are graded toward an end where the
integrand goes like a half-integer power (panel_nodes).  Integrands take an
array of radii (1-D, except in a batched head, whose integrand also takes
the columns it is evaluated on) and return values of the same shape.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_TINY = 1e-300
# power-law fit points and anchor of the head, in units of r0
_HEAD_FIT = np.array([0.25, 0.5, 1.0])
# a support edge inside (r0/4, r0/2) breaks the power law: the stub is
# integrated on geometric panels from r0 * 1e-9 to the edge and from the
# edge to r0
_STUB_PANELS = (36, 4)
_STUB_ORDER = 16


@lru_cache(maxsize=64)
def gauss_rule(k: int):
    x, w = np.polynomial.legendre.leggauss(k)
    return x, w


@lru_cache(maxsize=16)
def kronrod_rule(k: int):
    """The (2k + 1)-point Gauss-Kronrod extension of gauss_rule(k): nodes x
    (the Gauss nodes at x[1::2]), Kronrod weights w and Gauss weights g (0
    off x[1::2]).  Laurie's algorithm (Math. Comp. 66, 1997) completes the
    Legendre Jacobi matrix from its first ceil(3k/2) + 1 coefficients b (its
    diagonal stays 0, the weight being even); nodes are its eigenvalues."""
    j = np.arange(2 * k + 1.0)
    b = np.where(j <= (3 * k + 1) // 2, j * j / (4.0 * j * j - 1.0), 0.0)
    b[0] = 2.0
    s, t = np.zeros(k // 2 + 2), np.zeros(k // 2 + 2)
    t[1] = b[k + 1]
    for m in range(k - 1):
        i = np.arange((m + 1) // 2, -1, -1)
        s[i + 1] = np.cumsum(b[i + k + 1] * s[i] - b[m - i] * s[i + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(k - 1, 2 * k - 2):
        i = np.arange(m + 1 - k, (m - 1) // 2 + 1)
        j = k - 1 - m + i
        s[j + 1] = np.cumsum(b[m - i] * s[j + 2] - b[i + k + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + k + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    x, v = np.linalg.eigh(np.diag(np.sqrt(b[1:]), -1))  # reads the lower triangle
    g = np.zeros(2 * k + 1)
    g[1::2] = gauss_rule(k)[1]
    return 0.5 * (x - x[::-1]), v[0] ** 2 + v[0, ::-1] ** 2, g


@lru_cache(maxsize=16)
def _lagrange_in_legendre(k: int):
    """c[m, j] = w_j P_m(x_j) / 2 for the k-point Gauss rule (x, w): node
    j's Lagrange polynomial is sum_m (2m + 1) c[m, j] P_m."""
    x, w = gauss_rule(k)
    return 0.5 * w * np.polynomial.legendre.legvander(x, k - 1).T


def gauss_partial_basis(y, k: int):
    """B_m(y), m < k, the integral from -1 to y of (2m + 1) P_m: y + 1, then
    P_{m+1}(y) - P_{m-1}(y); shape (k,) + shape(y), all 0 at y = -1."""
    y = np.asarray(y, dtype=float)
    out = np.empty((k,) + y.shape)
    out[0] = y + 1.0
    prev, cur = np.ones_like(y), y
    for m in range(1, k):  # integer factors keep P_m(-1) = (-1)^m exact
        nxt = y * cur
        nxt *= 2 * m + 1
        nxt -= m * prev
        nxt /= m + 1
        np.subtract(nxt, prev, out=out[m])
        prev, cur = cur, nxt
    return out


class Located:
    """Radii located on increasing edges, free of values: a radius in
    [edges[0], edges[-1]) lies in segment idx (an edge starts its segment)
    at y in [-1, 1); the others lie below the edges or beyond them (NaN
    beyond)."""

    def __init__(self, edges, r):
        r_in = np.asarray(r, dtype=float)
        self.radii = r_in.reshape(-1)
        seg = self._seg = np.searchsorted(edges, self.radii, side="right") - 1
        self.edges, self.shape, self.size = edges, r_in.shape, len(self.radii)
        self.beyond = seg >= len(edges) - 1
        self.mid = ~self.beyond & (seg >= 0)
        self.r_beyond, r = self.radii[self.beyond], self.radii[self.mid]
        i = self.idx = seg[self.mid]
        a, b, self.r = edges[i], edges[i + 1], r
        self.y = ((r - a) - (b - r)) / (b - a)  # -1 exactly on the left edge
        self.basis = self.log = None  # formed once, by segment_integral and eval

    def on(self, edges) -> bool:
        return edges is self.edges or np.array_equal(edges, self.edges)

    def on_edge(self):
        """Positions of the radii that lie on an edge, and each one's edge."""
        seg = np.maximum(self._seg, 0)
        at = np.flatnonzero(self.edges[seg] == self.radii)
        return at, seg[at]


def segment_table(edges, vals):
    """Partial-integral table of the interpolants through vals[s, j], the
    values at segment s's k Gauss points: per basis term m a row over the
    segments of half * a_m, where the interpolant's integral from -1 to y on
    [-1, 1] is sum_m a_m B_m(y) (gauss_partial_basis), that is sum_j W_j(y)
    vals_j with W_j(y) the integral of node j's Lagrange polynomial (at
    y = 1 the Gauss weights).  einsum, as a first BLAS product sets up MBs
    of buffers."""
    vals = np.asarray(vals, dtype=float)
    a = np.einsum("...j,mj->...m", vals, _lagrange_in_legendre(vals.shape[-1]))
    return np.ascontiguousarray(((0.5 * np.diff(edges))[:, None] * a).T)


def segment_integral(table, loc: Located):
    """The interpolant's integral from the left edge to each located segment
    radius, sum_m table[m, idx] B_m(y); a location read at every step forms
    B_m(y) once."""
    if loc.basis is None or len(loc.basis) != len(table):
        loc.basis = gauss_partial_basis(loc.y, len(table))
    out = table[0][loc.idx] * loc.basis[0]
    for m in range(1, len(table)):
        out += table[m][loc.idx] * loc.basis[m]
    return out


def segment_integrand(table, loc: Located):
    """The interpolant at each located segment radius, the derivative of
    segment_integral: sum_m table[m, idx] (2m + 1) P_m(y) / half."""
    i, odd = loc.idx, 2.0 * np.arange(len(table))[:, None] + 1.0
    out = np.polynomial.legendre.legval(loc.y, odd * table[:, i], tensor=False)
    out *= 2.0 / (loc.edges[i + 1] - loc.edges[i])
    return out


def panelize(lo, hi, breakpoints=(), panels_per_decade: int = 4):
    """Geometric panels for many rows (lo, hi, breakpoints) at once.

    Row i covers [lo[i], hi[i]] with 0 < lo < hi.  The entries of
    breakpoints[i] strictly inside the row split it into spans (others,
    NaN padding included, are ignored) and a span of D decades gets
    max(1, ceil(D * panels_per_decade)) geometric panels, so no panel
    straddles a breakpoint.  Scalar lo, hi with a flat breakpoint list make
    one row.

    Returns (left, right, row): the panel ends, rows in order and each row
    left to right, and the row of each panel.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if not np.all((lo > 0) & (hi > lo)):
        raise ValueError(f"bad intervals: need 0 < lo < hi, got {lo}, {hi}")
    brk = np.asarray(breakpoints, dtype=float).reshape(len(lo), -1)
    inside = (brk > lo[:, None]) & (brk < hi[:, None])
    # ignored entries become hi: after sorting they close zero-width spans
    cuts = np.sort(np.where(inside, brk, hi[:, None]), axis=1)
    pts = np.concatenate([lo[:, None], cuts, hi[:, None]], axis=1)
    a, b = pts[:, :-1].ravel(), pts[:, 1:].ravel()
    span_row = np.repeat(np.arange(len(lo)), pts.shape[1] - 1)
    keep = b > a
    a, b, span_row = a[keep], b[keep], span_row[keep]
    log_ratio = np.log(b / a)
    counts = np.maximum(np.ceil(np.log10(b / a) * panels_per_decade), 1).astype(int)
    span = np.repeat(np.arange(len(a)), counts)
    ends = np.cumsum(counts)
    j = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    left = a[span] * np.exp(j / counts[span] * log_ratio[span])
    right = np.empty_like(left)
    right[:-1] = left[1:]
    right[ends - 1] = b
    return left, right, span_row[span]


@lru_cache(maxsize=16)
def _graded_rule(k: int, kronrod: bool):
    """Per end code (panel_nodes): the rule's nodes u(t) on [0, 1], weights * u'(t)."""
    x, w = kronrod_rule(k)[:2] if kronrod else gauss_rule(k)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    u = np.stack([t, t * t, t * (2.0 - t), t * t * (3.0 - 2.0 * t)])
    return u, w * np.stack([np.ones_like(t), 2.0 * t, 2.0 - 2.0 * t, 6.0 * t * (1.0 - t)])


def panel_nodes(edges, k: int, kronrod: bool = False, grade=None):
    """Gauss (Gauss-Kronrod with kronrod) nodes/weights for f(x) dx over panels.

    edges is either a 1-D array of consecutive panel edges or a pair
    (left, right) of equal-shape arrays of panel ends.  Returns arrays of
    shape (npanels, k), or left.shape + (k,); 2k + 1 nodes with kronrod.
    grade codes per panel the ends (bit 1 left, 2 right) where the integrand
    goes like (x - x_b)^(j + 1/2): the rule is graded quadratically there.
    """
    if isinstance(edges, tuple):
        lo, hi = (np.asarray(e, dtype=float) for e in edges)
    else:
        edges = np.asarray(edges, dtype=float)
        lo, hi = edges[:-1], edges[1:]
    t, w = kronrod_rule(k)[:2] if kronrod else gauss_rule(k)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[..., None] + half[..., None] * t
    weights = half[..., None] * w
    if grade is not None and np.any(grade):
        u, v = _graded_rule(k, kronrod)
        g = grade > 0
        width = (hi - lo)[g][:, None]
        nodes[g] = lo[g][:, None] + width * u[grade[g]]
        weights[g] = width * v[grade[g]]
    return nodes, weights


def panel_sum(f, edges, k: int, rows: int = None, grade=None):
    """k-point Gauss sum of f over the panels given by edges (as in
    panel_nodes, with its end codes grade).

    Returns the total, or with rows given one sum for each of `rows` equal
    runs of consecutive panels (rows = the panel count: one sum per
    panel).  f sees the nodes panel by panel, k at a time, or is its
    values there.
    """
    nodes, weights = panel_nodes(edges, k, grade=grade)
    vals = f(nodes.ravel()) if callable(f) else f
    vals = np.asarray(vals, dtype=float).reshape(nodes.shape) * weights
    return float(np.sum(vals)) if rows is None else vals.reshape(rows, -1).sum(axis=1)


def kronrod_sum(f, edges, k: int, grade=None):
    """Per panel (edges a pair as in panel_nodes, with its end codes grade),
    the Kronrod sum of f and |Kronrod - Gauss|, QUADPACK's error estimate of
    the k-point Gauss sum without its rescaling.  f sees the nodes panel by
    panel, 2k + 1 at a time."""
    nodes, weights = panel_nodes(edges, k, kronrod=True, grade=grade)
    _, w, g = kronrod_rule(k)
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape) * weights
    return vals.sum(axis=1), np.abs(vals @ (1.0 - g / w))


def power_law_head(f, r0, fit=None):
    """Integral of f over (0, r0) for f ~ C r^kappa below r0, elementwise
    over an array of r0.  fit, when known, is f at r0 * (1/4, 1/2, 1), of
    shape (3,) + shape(r0), and f is then called only for a stub.

    kappa is fitted from f(r0/4) and f(r0/2) and the power law is anchored
    at f(r0).  The head is 0 where f(r0/2) = 0, inf where kappa <= -1 or a
    fit value is not finite, and where f(r0/4) = 0 < f(r0/2) (a support edge
    inside (r0/4, r0/2)) the stub is integrated on either side of the edge.

    f is called as f(r, cols) with radii r of shape (j,) + shape(r0[cols]),
    column i of a 2-D call belonging to r0[cols][i]: cols is Ellipsis for
    all of r0, and for the stub of a 1-D r0 the indices of its stub
    columns, which alone are evaluated there.
    """
    r0 = np.asarray(r0, dtype=float)
    y = np.asarray(f(np.multiply.outer(_HEAD_FIT, r0), ...) if fit is None else fit,
                   dtype=float)
    y_q, y_h, y_0 = y
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa = np.log2(y_h / y_q)
        head = np.where(kappa > -1.0, y_0 * r0 / (kappa + 1.0), math.inf)
    head = np.where(y_h > 0, head, 0.0)
    stub = (y_q <= 0) & (y_h > 0)
    if np.any(stub):
        cols = np.flatnonzero(stub) if r0.ndim else ...
        head[cols] = _stub(lambda r: f(r, cols), r0[cols])
    head = np.where(np.all(np.isfinite(y), axis=0), head, math.inf)
    return float(head) if head.ndim == 0 else head


def log_bisect(pred, lo, hi, rel: float):
    """Geometric bisection of the brackets [lo, hi], elementwise, for a
    predicate that is False at lo and True at hi.  Returns the brackets
    once every hi/lo < 1 + rel, or after 64 halvings."""
    for _ in range(64):
        mid = np.sqrt(lo * hi)
        up = pred(mid)
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        if np.all(hi / lo < 1.0 + rel):
            break
    return lo, hi


def _stub(f, r0):
    """Integral of f over (0, r0) where f(r0/4) = 0 < f(r0/2): the edge
    between is found by log-bisection, and each side of it gets fixed-count
    geometric panels, so f always sees arrays of shape (j,) + shape(r0)."""
    _, hi = log_bisect(lambda r: np.asarray(f(r[None]), dtype=float)[0] > 0,
                       0.25 * r0, 0.5 * r0, 1e-15)
    below, above = _STUB_PANELS
    ends = np.concatenate([np.geomspace(r0 * 1e-9, hi, below + 1),
                           np.geomspace(hi, r0, above + 1)[1:]])
    nodes, weights = panel_nodes((ends[:-1], ends[1:]), _STUB_ORDER)
    nodes = np.moveaxis(nodes, -1, 1).reshape((-1,) + np.shape(r0))
    weights = np.moveaxis(weights, -1, 1).reshape(nodes.shape)
    return np.sum(np.asarray(f(nodes), dtype=float) * weights, axis=0)


def decade_tail(f, start: float, k: int, rel_tol: float,
                upper: float = math.inf) -> float:
    """Integral of a decaying power-law tail f over (start, upper).

    One decade at a time on four geometric k-point panels.  Once an
    increment is below rel_tol of the running total, the rest is the
    geometric series of the last decade ratio, also after 60 decades.
    Stops exactly at a finite upper and after two zero decades; inf when
    an increment is not finite or the increments stop decaying.
    """
    total = 0.0
    prev = None
    ratio = 1.0
    a = start
    for _ in range(60):
        b = min(a * 10.0, upper)
        if b <= a:
            return total
        inc = panel_sum(f, np.geomspace(a, b, 5), k)
        if not math.isfinite(inc):
            return math.inf
        total += inc
        if b == upper:
            return total
        if prev:
            ratio = inc / prev
            if ratio >= 1.0:
                return math.inf
            if inc <= rel_tol * max(total, _TINY):
                return total + inc * ratio / (1.0 - ratio)
        elif prev == 0.0 and inc == 0.0:
            return total
        prev = inc
        a = b
    if not prev or prev <= rel_tol * max(total, _TINY):
        return total
    return total + prev * ratio / (1.0 - ratio) if ratio < 0.999 else math.inf
