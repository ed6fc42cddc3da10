"""Renewal-equation kernels for the perturbed-subordinator passage problem.

The penalty transform phi(delta, b) solves phi = phi * g + h (convolution in
the threshold variable) with

    g(delta, y) = (2/sigma^2) int_0^y e^{-kappa (y-s)} int_s^inf e^{-rho (x-s)} Q(dx) ds
    h(delta, y) = w(0,0) e^{-kappa y}
                  + (2/sigma^2) int_0^y e^{-kappa (y-s)} int_s^inf e^{-rho (x-s)} omega(x) dx ds

where kappa = rho(delta) - 2 mu / sigma^2 >= 0, omega(x) = int_x^inf
w(x, y - x) Q(dy), and w(u, v) takes the undershoot u = b - D(T-) and the
overshoot v = D(T) - b.  The w(0,0) weight on the first (creeping) term makes
the transform vanish for penalties that require a jump when the path creeps.

Both outer integrals are evaluated exactly in the s-variable by swapping the
integration order, which removes the logarithmic singularity of the inner
integral at s = 0 for gamma jumps:

    int_0^y e^{-kappa (y-s)} R(s) ds
        = [e^{-kappa y} C(y) + (1 - e^{-(kappa+rho) y}) R(y)] / (kappa + rho),

with C(y) = int_0^y (e^{kappa x} - e^{-rho x}) omega(x) dx and R(s) the inner
exponential tail.  C is accumulated with per-cell Gauss-Legendre nodes, so
integrable endpoint singularities of omega never get evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoPerturbation, SeriesNotConverged
from .models import LevyMeasureView, ModelSpec
from .numerics import GridFunction, cell_nodes, cumulative_from_cells, grid_convolve

SERIES_TERMS = 200  # terms of a renewal series sum_k g*k before it counts as not converged
_GL_TAIL_NODES, _GL_TAIL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_TAIL_NODES = 0.5 * (_GL_TAIL_NODES + 1.0)
_GL_TAIL_WEIGHTS = 0.5 * _GL_TAIL_WEIGHTS


@dataclass(frozen=True)
class RenewalKernels:
    delta: float
    rho: float
    kappa: float
    g: GridFunction
    h: GridFunction
    h_prime: GridFunction


def _swap_convolution(y, kappa, rho, cum_c, r_vals):
    """int_0^y exp(-kappa (y-s)) R(s) ds from C(y) and R(y) (see module doc)."""
    return (np.exp(-kappa * y) * cum_c + (-np.expm1(-(kappa + rho) * y)) * r_vals) / (
        kappa + rho
    )


def _omega_generic(
    view: LevyMeasureView, w: Callable, x: np.ndarray, v_max: float, n_panels: int = 48
) -> np.ndarray:
    """omega(x) = int_0^inf w(x, v) q(x + v) dv for 1-D x, by panel
    quadrature in v: one ``density_outer`` table per panel."""
    edges = np.linspace(0.0, v_max, n_panels + 1)
    out = np.zeros_like(x)
    for a, b in zip(edges[:-1], edges[1:]):
        v = a + (b - a) * _GL_TAIL_NODES
        wts = (b - a) * _GL_TAIL_WEIGHTS
        vals = w(x[:, None], v[None, :]) * view.density_outer(x, v)
        out += vals @ wts
    return out


def build_renewal_kernels(
    model: ModelSpec,
    delta: float,
    rho: float,
    x_max: float,
    n: int,
    omega: str | Callable = "one",
    creep_weight: float = 1.0,
    indicator_eps: float = 0.0,
) -> RenewalKernels:
    """Tabulate g, h, h' on the grid [0, x_max] with n points.

    ``omega`` selects the penalty: "one" (w identically 1, omega = Qbar),
    "overshoot_indicator" (w = 1{v > eps}, omega(x) = Qbar(x + eps)), or a
    broadcasting callable w(u, v) integrated numerically.
    """
    if model.sigma <= 0:
        raise NoPerturbation("renewal kernels require sigma > 0")
    kappa = rho - 2.0 * model.mu / model.sigma**2
    kappa = max(kappa, 0.0)  # exact value is >= 0; clamp tiny negatives
    h_step = x_max / (n - 1)
    xs = h_step * np.arange(n)
    two_over_s2 = 2.0 / model.sigma**2

    if not model.has_jumps:
        zero = GridFunction(0.0, h_step, np.zeros(n))
        h_vals = creep_weight * np.exp(-kappa * xs)
        hp_vals = -kappa * h_vals
        return RenewalKernels(
            delta,
            rho,
            kappa,
            zero,
            GridFunction(0.0, h_step, h_vals),
            GridFunction(0.0, h_step, hp_vals),
        )

    view = model.levy_measure()
    nodes, weights = cell_nodes(0.0, h_step, n - 1)
    factor_nodes = np.exp(kappa * nodes) - np.exp(-rho * nodes)

    # g: inner measure Q(dx)
    cq = cumulative_from_cells(
        np.sum(factor_nodes * view.density(nodes) * weights, axis=1)
    )
    rq = np.asarray(view.exp_tail(rho, xs), dtype=float)
    rq[0] = 0.0  # multiplied by an exactly-zero factor at y = 0; kill inf*0
    g_vals = two_over_s2 * _swap_convolution(xs, kappa, rho, cq, rq)
    g_vals[0] = 0.0

    # h: inner weight omega
    if omega == "one":
        omega_nodes = view.tail(nodes)
        r_omega = view.exp_tail_tail(rho, xs)
    elif omega == "overshoot_indicator":
        # omega(x) = Qbar(x + eps); the shifted tail obeys
        # int_s^inf e^{-rho(x-s)} Qbar(x+eps) dx = exp_tail_tail(rho, s+eps)
        omega_nodes = view.tail(nodes + indicator_eps)
        r_omega = view.exp_tail_tail(rho, xs + indicator_eps)
    else:
        v_max = float(view.default_x_max())
        omega_flat = _omega_generic(view, omega, nodes.ravel(), v_max)
        omega_nodes = omega_flat.reshape(nodes.shape)
        # backward recurrence R(s_i) = e^{-rho h} R(s_{i+1}) + cell integral,
        # seeded at the grid end by a direct tail quadrature of
        # int_{x_max}^{x_max+v_max} e^{-rho (x - x_max)} omega(x) dx
        cell_r = np.sum(
            np.exp(-rho * (nodes - xs[:-1, None])) * omega_nodes * weights, axis=1
        )
        tail_edges = xs[-1] + np.linspace(0.0, v_max, 49)
        tx = tail_edges[:-1, None] + np.diff(tail_edges)[:, None] * _GL_TAIL_NODES
        tw = np.diff(tail_edges)[:, None] * _GL_TAIL_WEIGHTS
        omega_tail = _omega_generic(view, omega, tx.ravel(), v_max).reshape(tx.shape)
        seed = np.sum(np.exp(-rho * (tx - xs[-1])) * omega_tail * tw)
        # R_i = sum_{k >= i} e^{-rho h (k - i)} r_k with r = (cell integrals, seed),
        # as a doubling scan: after the pass with stride s each entry sums its next
        # 2s terms, and the weights e^{-rho h s} <= 1 cannot overflow
        r_omega = np.append(cell_r, seed)
        stride = 1
        while stride < n:
            r_omega[:-stride] += math.exp(-rho * h_step * stride) * r_omega[stride:]
            stride *= 2
    c_omega = cumulative_from_cells(np.sum(factor_nodes * omega_nodes * weights, axis=1))
    conv = _swap_convolution(xs, kappa, rho, c_omega, r_omega)
    creep = creep_weight * np.exp(-kappa * xs)
    h_vals = creep + two_over_s2 * conv
    hp_vals = -kappa * creep + two_over_s2 * (r_omega - kappa * conv)

    return RenewalKernels(
        delta,
        rho,
        kappa,
        GridFunction(0.0, h_step, g_vals),
        GridFunction(0.0, h_step, h_vals),
        GridFunction(0.0, h_step, hp_vals),
    )


def renewal_series(g: GridFunction, first: GridFunction, raise_above: float) -> np.ndarray:
    """sum_k g*k * first on the grid of ``first``, stopped at the first term
    whose sup-norm is below 1e-10.  If SERIES_TERMS terms do not get there,
    the sum stands unless the last term's sup-norm exceeds ``raise_above``,
    in which case SeriesNotConverged is raised."""
    term = first
    total = term.values.copy()
    for _ in range(SERIES_TERMS):
        if np.max(np.abs(term.values)) < 1e-10:
            return total
        term = grid_convolve(g, term)
        total += term.values
    size = np.max(np.abs(term.values))
    if size > raise_above:
        raise SeriesNotConverged(f"renewal series term sup-norm {size:.2e} after {SERIES_TERMS} terms")
    return total
