"""Problem parameters, exponent algebra and quadrature configuration.

The driving equation is -Delta_p u = sum_m sigma^(m) u^{q_m} + mu on R^n
with 1 < p < n and sub-natural growth 0 < q_m < p - 1.  The energy
exponent gamma selects the working regime: a finite gamma in (0, inf),
the bounded endpoint gamma = inf, or the intrinsic endpoint gamma = 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, ExponentError, ModeMismatch


class Mode(enum.Enum):
    FINITE_GAMMA = "finite_gamma"
    GAMMA_INFINITY = "gamma_infinity"
    GAMMA_ZERO = "gamma_zero"


def _infer_mode(gamma: float) -> Mode:
    if gamma == math.inf:
        return Mode.GAMMA_INFINITY
    if gamma == 0:
        return Mode.GAMMA_ZERO
    return Mode.FINITE_GAMMA


@dataclass(frozen=True)
class ProblemParams:
    """Dimension, p-Laplacian exponent, growth exponents and energy exponent.

    gamma = inf is a sentinel routed to sup-norm code paths; it never
    enters exponent arithmetic.
    """

    n: int
    p: float
    q_list: tuple[float, ...]
    gamma: float
    mode: Mode = None  # inferred from gamma when omitted

    def __post_init__(self):
        object.__setattr__(self, "q_list", tuple(float(q) for q in self.q_list))
        if self.mode is None:
            object.__setattr__(self, "mode", _infer_mode(self.gamma))

    @property
    def q(self) -> float:
        """The single growth exponent; only meaningful when M = 1."""
        if len(self.q_list) != 1:
            raise ExponentError("q is ambiguous for several growth terms")
        return self.q_list[0]

    @property
    def unit_ball_volume(self) -> float:
        return unit_ball_volume(self.n)

    @property
    def sphere_area(self) -> float:
        """Surface area of the unit sphere S^{n-1}."""
        return self.n * unit_ball_volume(self.n)

    @property
    def tail_exp(self) -> float:
        """Decay rate (n-p)/(p-1) of potentials of compactly supported measures."""
        return (self.n - self.p) / (self.p - 1.0)


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def params(n, p, q, gamma) -> ProblemParams:
    """Convenience constructor: q may be a scalar or a sequence."""
    q_list = (q,) if np.isscalar(q) else tuple(q)
    return validate(ProblemParams(n=n, p=float(p), q_list=q_list, gamma=float(gamma)))


def validate(pp: ProblemParams) -> ProblemParams:
    """Return pp unchanged iff every invariant holds, else raise."""
    if not (isinstance(pp.n, (int, np.integer)) and pp.n >= 2):
        raise DimensionError(f"n must be an integer >= 2, got {pp.n!r}")
    if not (1.0 < pp.p < pp.n):
        # outside 1 < p < n there is no nontrivial supersolution to verify
        raise DimensionError(f"p must satisfy 1 < p < n, got p={pp.p}, n={pp.n}")
    if len(pp.q_list) < 1:
        raise ExponentError("at least one growth exponent is required")
    for q in pp.q_list:
        # strictness enforced with a numerical margin: derived exponents
        # carry 1/(p-1-q) and overflow double range at the boundary
        if not (0.0 < q < (pp.p - 1.0) * (1.0 - 1e-10)):
            raise ExponentError(
                f"growth exponent must satisfy 0 < q < p-1 = {pp.p - 1.0}, got {q}"
            )
    if not pp.gamma >= 0:  # NaN too
        raise ModeMismatch(f"gamma must be >= 0, got {pp.gamma}")
    expected = _infer_mode(pp.gamma)
    if pp.mode is not expected:
        raise ModeMismatch(f"gamma={pp.gamma} is inconsistent with mode {pp.mode}")
    return pp


@dataclass(frozen=True)
class ExponentSet:
    """All derived exponents for the finite-gamma regime.

    lorentz indices (r, rho) are those of the solution space; the
    per-term exponents drive the mutual-energy product bound whose two
    right-hand powers sum to one.
    """

    lorentz_r: float
    lorentz_rho: float
    sigma_energy_exp: tuple[float, ...]
    mutual_lhs_exp: tuple[float, ...]
    mutual_rhs_exp_mu: tuple[float, ...]
    mutual_rhs_exp_sigma: tuple[float, ...]
    tail_exp: float


def derive_exponents(pp: ProblemParams) -> ExponentSet:
    validate(pp)
    if pp.mode is not Mode.FINITE_GAMMA:
        raise ModeMismatch("exponent set is only defined for finite gamma")
    n, p, g = pp.n, pp.p, pp.gamma
    return ExponentSet(
        lorentz_r=n * (p - 1.0 + g) / (n - p),
        lorentz_rho=p - 1.0 + g,
        sigma_energy_exp=tuple((g + q) * (p - 1.0) / (p - 1.0 - q) for q in pp.q_list),
        mutual_lhs_exp=tuple(g + q for q in pp.q_list),
        mutual_rhs_exp_mu=tuple((g + q) / (p - 1.0 + g) for q in pp.q_list),
        mutual_rhs_exp_sigma=tuple((p - 1.0 - q) / (p - 1.0 + g) for q in pp.q_list),
        tail_exp=(n - p) / (p - 1.0),
    )


@dataclass(frozen=True)
class QuadratureConfig:
    """Radial grid bounds, density and tolerances shared by all quadratures.

    The defaults pass every closed-form check at 1e-6 with margin.
    """

    r_min: float = 1e-6
    r_max: float = 1e6
    points_per_decade: int = 64
    rel_tol: float = 1e-10
    max_iter: int = 200
    conv_tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max < math.inf):
            raise ValueError("need 0 < r_min < r_max < inf")
        for name in ("points_per_decade", "max_iter"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if not (0 < self.rel_tol < 1 and 0 < self.conv_tol < 1):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.points_per_decade < 8:
            raise ValueError("points_per_decade must be >= 8")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def radial_grid(self, points_per_decade: int = None) -> np.ndarray:
        """Log grid on [r_min, r_max], points_per_decade (default: quad's own) a decade."""
        decades = math.log10(self.r_max / self.r_min)
        npts = int(round(decades * (points_per_decade or self.points_per_decade))) + 1
        return np.geomspace(self.r_min, self.r_max, npts)

    def refine(self, factor: int = 2) -> "QuadratureConfig":
        """Config with `factor` times denser quadratures everywhere."""
        return replace(self, points_per_decade=self.points_per_decade * factor)

    # resolutions derived from points_per_decade so a single knob
    # refines every quadrature consistently; panels_per_decade is the
    # start of pointwise rows, the one resolution the Kronrod estimate
    # refines (bisected up to 4 times, wolff._point_resolution)
    @property
    def panels_per_decade(self) -> int:
        return max(2, self.points_per_decade // 32)

    @property
    def gauss_order(self) -> int:
        return 16

    @property
    def window_gauss_order(self) -> int:
        return max(12, 8 + self.points_per_decade // 8)

    @property
    def profile_points_per_decade(self) -> int:
        return max(8, self.points_per_decade // 2)

    @property
    def profile_r_panels_per_decade(self) -> int:
        return max(1, self.points_per_decade // 32)

    @property
    def profile_gauss_order(self) -> int:
        return 12


DEFAULT_QUAD = QuadratureConfig()
