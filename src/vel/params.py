"""Gas parameters, self-similar profile constants, and closed-form evaluation.

The compactly supported self-similar density of the porous-medium flow with
adiabatic exponent gamma > 1 is

    rho(t, x) = (1+t)^(-3/(3g-1)) * (A - B (1+t)^(-2/(3g-1)) |x|^2)_+^(1/(g-1))

with B = (g-1)/(2g(3g-1)) and A fixed by the total mass M through a
one-dimensional moment integral, a Beta function, both in closed form.  The
support is the ball of radius Rbar(t) = sqrt(A/B) (1+t)^(1/(3g-1)); the
carrier velocity is u(t, x) = x / ((3g-1)(1+t)).  This module derives the
constants, evaluates the profile, and checks it against the porous medium
equation, the Darcy momentum balance, and mass conservation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta, roots_legendre

__all__ = [
    "GasParams",
    "BarenblattConstants",
    "BarenblattEval",
    "moment_integral",
    "derive_constants",
    "boundary_radius",
    "barenblatt_eval",
    "pme_darcy_residual",
    "mass_check",
    "sound_speed_slope",
]

# Gauss-Legendre order of the mass quadrature.
_MASS_ORDER = 64
# Step of the one-sided sound-speed slope at the boundary, relative to the
# radius: the secant's bias is then 1.5 steps relative at every scale.
_SLOPE_STEP = 1e-6


@dataclass(frozen=True)
class GasParams:
    """Adiabatic exponent and total mass of the gas."""

    gamma: float
    mass: float

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must exceed 1 and be finite, got {self.gamma}")
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")


@dataclass(frozen=True)
class BarenblattConstants:
    """Derived profile constants for one (gamma, mass) pair.

    a_bar, b_bar are the coefficients of the parabolic pressure profile
    sigma(y) = a_bar - b_bar |y|^2, iota = 1/(gamma-1), and r0 is the
    initial support radius sqrt(a_bar/b_bar).
    """

    a_bar: float
    b_bar: float
    iota: float
    r0: float


@dataclass(frozen=True)
class BarenblattEval:
    """Pointwise profile evaluation: density, velocity, sound speed squared."""

    density: float
    velocity: np.ndarray
    sound_speed_sq: float
    inside: bool


def moment_integral(iota):
    """Integral of y^2 (1 - y^2)^iota over (0, 1): (1/2) B(3/2, iota + 1).

    The substitution v = y^2 turns it into half the Beta integral.
    """
    return 0.5 * beta(1.5, iota + 1.0)


def derive_constants(params: GasParams) -> BarenblattConstants:
    """Derive (a_bar, b_bar, iota, r0) from gamma and the total mass.

    b_bar has the closed form (g-1)/(2g(3g-1)).  a_bar follows from

        u^((3g-1)/(2(g-1))) = M g^iota (g b_bar)^(3/2) / (4 pi I)

    with u = g * a_bar, where I is the moment integral: the positive root
    of a power, taken directly.
    """
    g = params.gamma
    iota = 1.0 / (g - 1.0)
    b_bar = (g - 1.0) / (2.0 * g * (3.0 * g - 1.0))
    mom = moment_integral(iota)
    rhs = params.mass * g**iota * (g * b_bar) ** 1.5 / (4.0 * math.pi * mom)
    p = (3.0 * g - 1.0) / (2.0 * (g - 1.0))
    a_bar = rhs ** (1.0 / p) / g
    r0 = math.sqrt(a_bar / b_bar)
    return BarenblattConstants(a_bar=a_bar, b_bar=b_bar, iota=iota, r0=r0)


def boundary_radius(c: BarenblattConstants, gamma, t):
    """Support radius sqrt(a_bar/b_bar) (1+t)^(1/(3g-1))."""
    return c.r0 * (1.0 + t) ** (1.0 / (3.0 * gamma - 1.0))


def _profile(c: BarenblattConstants, gamma, t, r2):
    """a_bar - b_bar (1+t)^(-2/(3g-1)) r^2 at squared radius r2, negative
    outside the support; the density is (1+t)^(-3/(3g-1)) profile^iota."""
    return c.a_bar - c.b_bar * (1.0 + t) ** (-2.0 / (3.0 * gamma - 1.0)) * r2


def _sound_speed_sq(c: BarenblattConstants, gamma, t, r2):
    """c^2 = g rho^(g-1) = g (1+t)^(-3(g-1)/(3g-1)) profile at squared
    radius r2 inside the support: linear in the profile, as iota (g-1) = 1,
    so it stays exact near g = 1, where rho = profile^iota underflows."""
    return (gamma * (1.0 + t) ** (-3.0 * (gamma - 1.0) / (3.0 * gamma - 1.0))
            * _profile(c, gamma, t, r2))


def _density(c: BarenblattConstants, gamma, t, x):
    """Closed-form density, valid for any t > -1; 0 outside the support."""
    profile = _profile(c, gamma, t, np.dot(x, x))
    if profile <= 0.0:
        return 0.0, False
    return (1.0 + t) ** (-3.0 / (3.0 * gamma - 1.0)) * profile**c.iota, True


def barenblatt_eval(c: BarenblattConstants, gamma, t, x) -> BarenblattEval:
    """Evaluate density, velocity, and sound speed squared at (t, x).

    Outside the support the density is exactly 0 with inside=False; the
    function is total so quadrature loops may cross the boundary.
    """
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    x = np.asarray(x, dtype=float)
    rho, inside = _density(c, gamma, t, x)
    if inside:
        vel = x / ((3.0 * gamma - 1.0) * (1.0 + t))
    else:
        vel = np.zeros(3)
    return BarenblattEval(
        density=rho,
        velocity=vel,
        sound_speed_sq=(_sound_speed_sq(c, gamma, t, np.dot(x, x))
                        if inside else 0.0),
        inside=inside,
    )


def pme_darcy_residual(c: BarenblattConstants, gamma, t, x, h):
    """Centered-difference residuals of the porous medium and Darcy laws.

    Returns (|d_t rho - lap(rho^g)|, |grad(rho^g) + rho u|) at (t, x); both
    vanish at second order in h because the profile is an exact solution.
    The point must keep a radial distance of more than 3h to the support
    boundary so every stencil point stays inside.
    """
    x = np.asarray(x, dtype=float)
    rad = boundary_radius(c, gamma, t)
    if rad - np.linalg.norm(x) <= 3.0 * h:
        raise ValueError(
            f"evaluation point within 3h of the vacuum boundary: "
            f"|x|={np.linalg.norm(x):.6g}, boundary={rad:.6g}, h={h:g}"
        )

    def rho(tt, xx):
        return _density(c, gamma, tt, xx)[0]

    def pressure(xx):
        return rho(t, xx) ** gamma

    d_t = (rho(t + h, x) - rho(t - h, x)) / (2.0 * h)
    lap = 0.0
    grad_p = np.zeros(3)
    p0 = pressure(x)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        pp, pm = pressure(x + e), pressure(x - e)
        lap += (pp - 2.0 * p0 + pm) / h**2
        grad_p[i] = (pp - pm) / (2.0 * h)
    ev = barenblatt_eval(c, gamma, t, x)
    pme_res = abs(d_t - lap)
    darcy_res = float(np.linalg.norm(grad_p + ev.density * ev.velocity))
    return pme_res, darcy_res


def mass_check(c: BarenblattConstants, gamma, t):
    """Total mass by radial Gauss-Legendre quadrature over the support.

    The radius is mapped as r = Rbar sin(pi u / 2), which flattens the
    (1 - r^2/Rbar^2)^iota endpoint factor so the rule converges fast for
    every gamma (plain nodes stall near the boundary for gamma > 2).
    """
    rad = boundary_radius(c, gamma, t)
    u, w = roots_legendre(_MASS_ORDER)
    u = 0.5 * (u + 1.0)  # map to (0, 1)
    w = 0.5 * w
    r = rad * np.sin(0.5 * math.pi * u)
    dr = rad * 0.5 * math.pi * np.cos(0.5 * math.pi * u)
    profile = np.maximum(_profile(c, gamma, t, r**2), 0.0)
    rho = (1.0 + t) ** (-3.0 / (3.0 * gamma - 1.0)) * profile**c.iota
    return float(4.0 * math.pi * np.sum(w * rho * r**2 * dr))


def sound_speed_slope(c: BarenblattConstants, gamma, t):
    """One-sided radial slope of the sound speed squared at the boundary.

    The closed form is -2 g b_bar (1+t)^(-1) Rbar(t): finite and negative,
    so the sound speed is C^(1/2) across the interface (physical vacuum).
    Returned value is a one-sided finite difference just inside.
    """
    rad = boundary_radius(c, gamma, t)
    h = _SLOPE_STEP * rad
    # c^2 is linear in r^2, so the secant at rad-h has O(h) bias only
    r1, r2 = rad - h, rad - 2.0 * h
    return (_sound_speed_sq(c, gamma, t, r1 * r1)
            - _sound_speed_sq(c, gamma, t, r2 * r2)) / h
