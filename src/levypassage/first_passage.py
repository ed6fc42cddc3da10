"""First-passage time T_b = inf{t : D_t >= b}: transforms and exact laws.

Routes for the discounted penalty transform
phi_w(delta, b) = E[exp(-delta T_b) w(b - D(T_b-), D(T_b) - b)]:

  * the Pollaczek-Khinchine series sum_k g*k * h built on the renewal kernels,
  * the scale-function identity E[e^{-delta T_b}] = Z(b) - delta/rho(delta) W(b),
  * exact closed forms for the pure-gamma (Park-Padgett) and Brownian-drift
    (inverse Gaussian) laws, and for Brownian drift and phase-type jumps the
    residue sum over the roots of phi_D(r) = delta (``ph_transform``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaincc, log_ndtr, ndtr

from .errors import WrongKind
from .lundberg import ScaleSet, residue_roots, solve_lundberg
from .models import KIND_BROWNIAN, KIND_PURE_GAMMA, ModelSpec
from .numerics import GridFunction
from .renewal import PenaltySpec, build_renewal_kernels, renewal_series

ROUTE_PK_SERIES = "pk_series"
ROUTE_SCALE = "scale_formula"


@dataclass(frozen=True)
class PassageTransform:
    """phi_w(delta, .) tabulated over thresholds b in [0, b_max]."""

    delta: float
    b_grid: GridFunction
    route: str

    def __call__(self, b):
        return self.b_grid(b)


def pk_series_transform(
    model: ModelSpec,
    delta: float,
    penalty: PenaltySpec = PenaltySpec(),
    b_max: float = 4.0,
    n: int = 2049,
) -> PassageTransform:
    """Penalty transform by the renewal series phi = sum_k g*k * h.

    The series converges for delta > 0 (the kernel g has mass below 1).
    ``renewal_series`` solves the renewal equation on the grid and on every
    other node, each in one power-series division, returns the Richardson
    step of the two (the solve the ODE-series scale route reads too), and
    raises SeriesNotConverged when the grid does not resolve it.
    """
    if delta <= 0:
        raise ValueError("the series route requires delta > 0")
    rho = solve_lundberg(model, delta)
    kernels = build_renewal_kernels(model, rho, b_max, n, penalty)
    total = renewal_series(kernels.g, kernels.h)
    return PassageTransform(
        delta, GridFunction(0.0, kernels.h.h, total), ROUTE_PK_SERIES
    )


def transform_from_scales(scales: ScaleSet) -> PassageTransform:
    """Whole-grid version of the scale-function identity (stable form)."""
    vals = scales.passage_transform_values()
    return PassageTransform(
        scales.delta, GridFunction(0.0, scales.h, vals), ROUTE_SCALE
    )


# ---------------------------------------------------------------------------
# Exact laws for the special cases


def gamma_exact_cdf(model: ModelSpec, b: float, t: float) -> float:
    """Park-Padgett cdf of T_b for the pure gamma process with drift mu:

        F(t) = Gamma(alpha t, z) / Gamma(alpha t) = P[D_t >= b],  z = (b - mu t)^+ / xi,

    which is 1 once the drift alone reaches b (mu t >= b).
    """
    if model.kind != KIND_PURE_GAMMA:
        raise WrongKind("exact gamma passage law needs kind=pure_gamma")
    if b <= 0 or t < 0:
        raise ValueError("need b > 0 and t >= 0")
    if t == 0:
        return 0.0
    x = b - model.mu * t
    if x <= 0:
        return 1.0
    return float(gammaincc(model.alpha * t, x / model.xi))


def gamma_exact_pdf(model: ModelSpec, b: float, t: float) -> float:
    """Park-Padgett density of T_b, the t-derivative of P[D_t >= b] =
    Q(alpha t, z) with z = (b - mu t)/xi:

        f(t) = alpha dQ(s, z)/ds + mu g_t(b - mu t),  s = alpha t,

    g_t the Gamma(s, xi) density: the last term is the drift moving the
    threshold.  With X ~ Gamma(s, 1), dQ/ds = E[(ln X - psi(s)); X > z] =
    -E[(ln X - psi(s)); X <= z] since E[ln X] = psi(s); the side where
    ln X - psi(s) keeps one sign is integrated (``_gamma_shape_derivative``),
    so no term cancels.  It is 0 once mu t >= b.
    """
    if model.kind != KIND_PURE_GAMMA:
        raise WrongKind("exact gamma passage law needs kind=pure_gamma")
    if b <= 0 or t <= 0:
        raise ValueError("need b > 0 and t > 0")
    x = b - model.mu * t
    if x <= 0:
        return 0.0
    s = model.alpha * t
    z = x / model.xi
    drift = model.mu / model.xi * math.exp((s - 1.0) * math.log(z) - z - math.lgamma(s))
    return model.alpha * _gamma_shape_derivative(s, z) + drift


def _gamma_shape_derivative(s: float, z: float) -> float:
    """dQ(s, z)/ds for the regularised upper incomplete gamma Q, by quadrature
    of a one-signed integrand scaled by the Gamma(s) density g at z.  Above
    psi(s) it is g(z) int_0^inf (ln(z + y) - psi) (1 + y/z)^{s-1} e^{-y} dy;
    below, x = z w^{1/c} with c = min(s, 1) gives -z g(z)/c int_0^1 (ln z +
    ln(w)/c - psi) w^{s/c-1} e^{z (1 - w^{1/c})} dw, free of the endpoint
    singularity x^{s-1} at s < 1."""
    from scipy.integrate import quad  # only this law reads it: the import costs 30 ms

    psi, log_z = float(digamma(s)), math.log(z)
    g_z = math.exp((s - 1.0) * log_z - z - math.lgamma(s))
    if log_z >= psi:
        inner = lambda y: (math.log1p(y / z) + log_z - psi) * math.exp((s - 1.0) * math.log1p(y / z) - y)
        return g_z * quad(inner, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    c = min(s, 1.0)
    inner = lambda w: (log_z + math.log(w) / c - psi) * math.exp((s / c - 1.0) * math.log(w) + z * (1.0 - w ** (1.0 / c)))
    return -z * g_z / c * quad(inner, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def inverse_gaussian_pdf(model: ModelSpec, b: float, t) -> np.ndarray:
    """Density of T_b for Brownian motion with positive drift (normalized
    inverse Gaussian):

        f(t) = b / sqrt(2 pi sigma^2 t^3) exp(-(b - mu t)^2 / (2 t sigma^2)).
    """
    if model.kind != KIND_BROWNIAN:
        raise WrongKind("inverse Gaussian law needs kind=brownian_drift")
    if model.mu <= 0:
        raise ValueError("inverse Gaussian density needs mu > 0")
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            t > 0,
            b
            / np.sqrt(2.0 * np.pi * model.sigma**2 * t**3)
            * np.exp(-((b - model.mu * t) ** 2) / (2.0 * t * model.sigma**2)),
            0.0,
        )
    return out if out.ndim else float(out)


def inverse_gaussian_cdf(model: ModelSpec, b: float, t) -> np.ndarray:
    """P(T_b <= t) for Brownian motion with drift."""
    if model.kind != KIND_BROWNIAN:
        raise WrongKind("inverse Gaussian law needs kind=brownian_drift")
    t = np.asarray(t, dtype=float)
    mu, sig = model.mu, model.sigma
    with np.errstate(divide="ignore", invalid="ignore"):
        st = sig * np.sqrt(t)
        # e^{2 mu b/sigma^2} Phi(.) as one exponential: the product is inf * 0
        # once 2 mu b/sigma^2 > 709
        reflected = np.exp(2.0 * mu * b / sig**2 + log_ndtr(-(b + mu * t) / st))
        out = np.where(t > 0, ndtr((mu * t - b) / st) + reflected, 0.0)
    return out if out.ndim else float(out)


def ph_transform(model: ModelSpec, delta: float, b: float) -> float:
    """E[e^{-delta T_b}] for Brownian drift and phase-type jumps, the residue
    sum over the roots r != rho of phi_D(r) = delta (``residue_roots``):

        sum_r (delta/rho) (rho - r)/r e^{r b}/phi_D'(r),

    which is 1 - (delta/rho) int_0^b u of the closed scale set.  At delta = 0
    it is 1 (T_b < inf almost surely), where the root r = 0 makes the factor
    0/0."""
    rho, r, res = residue_roots(model, delta)
    if delta == 0:
        return 1.0
    return float(np.real(np.sum(delta / rho * (rho - r) / r * np.exp(r * b) * res)))
