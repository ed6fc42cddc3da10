"""First-passage time T_b = inf{t : D_t >= b}: transforms and exact laws.

Routes for the discounted penalty transform
phi_w(delta, b) = E[exp(-delta T_b) w(b - D(T_b-), D(T_b) - b)]:

  * the Pollaczek-Khinchine series sum_k g*k * h built on the renewal kernels,
  * the scale-function identity E[e^{-delta T_b}] = Z(b) - delta/rho(delta) W(b),
  * exact closed forms for the pure-gamma (Park-Padgett), Brownian-drift
    (inverse Gaussian) and phase-type special cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammainc, gammaincc, log_ndtr, ndtr

from .errors import SeriesNotConverged, WrongKind
from .lundberg import ScaleSet, ph_root_data, solve_lundberg
from .models import (
    KIND_BROWNIAN,
    KIND_PH,
    KIND_PURE_GAMMA,
    ModelSpec,
)
from .numerics import GridFunction, hyp2f2
from .renewal import PenaltySpec, build_renewal_kernels, renewal_series

ROUTE_PK_SERIES = "pk_series"
ROUTE_SCALE = "scale_formula"
ROUTE_CLOSED = "closed_form"


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
    ``renewal_series`` solves the renewal equation on the grid in one
    power-series division, and raises SeriesNotConverged when the grid does
    not resolve it.
    """
    if delta <= 0:
        raise ValueError("the series route requires delta > 0")
    rho = solve_lundberg(model, delta).rho
    kernels = build_renewal_kernels(model, delta, rho, b_max, n, penalty)
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
    """Park-Padgett density of T_b, with z = (b - mu t)/xi:

        f(t) = alpha (psi(alpha t) - log z) gamma(alpha t, z)/Gamma(alpha t)
               + alpha/((alpha t)^2 Gamma(alpha t)) z^{alpha t}
                 2F2(alpha t, alpha t; alpha t+1, alpha t+1; -z)
               + mu g_t(b - mu t),

    g_t the Gamma(alpha t, xi) density: the last term is the drift moving the
    threshold of P[D_t >= b].  It is 0 once mu t >= b.
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
    first = model.alpha * (digamma(s) - math.log(z)) * float(gammainc(s, z))
    series = hyp2f2(s, s, s + 1.0, s + 1.0, -z)
    # (z^s / Gamma(s)) / s^2 in log space to survive large alpha*t
    log_pref = s * math.log(z) - math.lgamma(s) - 2.0 * math.log(s)
    second = model.alpha * math.exp(log_pref) * series
    drift = model.mu / model.xi * math.exp((s - 1.0) * math.log(z) - z - math.lgamma(s))
    return first + second + drift


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
    """E[e^{-delta T_b}] = sum_i A_i e^{-xi_i b} for phase-type jumps."""
    if model.kind != KIND_PH:
        raise WrongKind("phase-type transform needs kind=perturbed_cp_ph")
    data = ph_root_data(model, delta)
    val = np.sum(data.a_coeffs * np.exp(-data.xi_roots * b))
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise SeriesNotConverged("phase-type transform has a large imaginary residue")
    return float(val.real)
