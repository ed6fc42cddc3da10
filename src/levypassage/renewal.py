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

For a callable penalty, omega(x) = int_0^inf w(x, v) q(x + v) dv is one
call to the jump law's ``penalty_mass``, which integrates a table of w
against q through the law's own factors (phase type: alpha e^{xT} times
e^{vT} t; gamma: e^{-x/xi} e^{-v/xi} over x + v), on v-panels graded
towards v = 0.

``renewal_series`` solves phi = g * phi + h on the grid, and the ODE-series
scale route's equation with h' + g in place of h, as one power-series
division, and checks the solution against its own on every other node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoPerturbation, SeriesNotConverged
from .models import ModelSpec
from .numerics import GridFunction, cell_nodes, cumulative_from_cells, series_product, series_reciprocal

_GL_TAIL_NODES, _GL_TAIL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_TAIL_NODES = 0.5 * (_GL_TAIL_NODES + 1.0)
_GL_TAIL_WEIGHTS = 0.5 * _GL_TAIL_WEIGHTS
_OMEGA_PANELS = 48  # uniform 24-node panels over the jump support, for omega's v-integral and tail seed


@dataclass(frozen=True)
class PenaltySpec:
    """Bounded penalty w(undershoot, overshoot) of the crossing data.

    ``tag`` selects fast paths: "one" (w identically 1), or
    "overshoot_indicator" with threshold ``eps`` (w = 1{overshoot > eps}).
    A general broadcasting callable w(u, v) may be supplied instead.
    """

    tag: str = "one"
    eps: float = 0.0
    w: Callable | None = None

    def creep_value(self) -> float:
        """w(0, 0): the weight a continuous (creeping) crossing receives."""
        if self.tag == "one":
            return 1.0
        if self.tag == "overshoot_indicator":
            return 0.0
        return float(self.w(np.zeros(1), np.zeros(1))[0])


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


def _gl_panels(edges: np.ndarray):
    """24-point Gauss-Legendre nodes and weights on each panel between
    consecutive edges, as (panels, 24) arrays."""
    span = np.diff(edges)[:, None]
    return edges[:-1, None] + span * _GL_TAIL_NODES, span * _GL_TAIL_WEIGHTS


def _penalty_rule(v_max: float, x_min: float):
    """The v-rule of omega(x) = int_0^v_max w(x, v) q(x + v) dv: uniform
    panels, the first split at ratios of 4 down to the smallest x.  The gamma
    density alpha e^{-u/xi}/u at u = x + v falls by half within v = x, a
    peak the uniform first panel misses for small x."""
    uniform = np.linspace(0.0, v_max, _OMEGA_PANELS + 1)
    grade = max(0, math.ceil(math.log(uniform[1] / x_min, 4)))
    return _gl_panels(np.concatenate(([0.0], uniform[1] * 0.25 ** np.arange(grade, 0, -1), uniform[1:])))


def build_renewal_kernels(
    model: ModelSpec,
    delta: float,
    rho: float,
    x_max: float,
    n: int,
    penalty: PenaltySpec = PenaltySpec(),
) -> RenewalKernels:
    """Tabulate g, h, h' on the grid [0, x_max] with n points.

    The penalty's tag picks omega: "one" (w identically 1, omega = Qbar),
    "overshoot_indicator" (w = 1{v > eps}, omega(x) = Qbar(x + eps)), or
    else its broadcasting callable w(u, v), integrated numerically; the
    creeping term carries w(0, 0).
    """
    if model.sigma <= 0:
        raise NoPerturbation("renewal kernels require sigma > 0")
    kappa = rho - 2.0 * model.mu / model.sigma**2
    kappa = max(kappa, 0.0)  # exact value is >= 0; clamp tiny negatives
    h_step = x_max / (n - 1)
    xs = h_step * np.arange(n)
    two_over_s2 = 2.0 / model.sigma**2
    creep_weight = penalty.creep_value()

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
    if penalty.tag == "one":
        omega_nodes = view.tail(nodes)
        r_omega = view.exp_tail_tail(rho, xs)
    elif penalty.tag == "overshoot_indicator":
        # omega(x) = Qbar(x + eps); the shifted tail obeys
        # int_s^inf e^{-rho(x-s)} Qbar(x+eps) dx = exp_tail_tail(rho, s+eps)
        omega_nodes = view.tail(nodes + penalty.eps)
        r_omega = view.exp_tail_tail(rho, xs + penalty.eps)
    else:
        v_max = float(view.default_x_max())
        # omega at the cell nodes and at the nodes tx of a direct tail
        # quadrature of int_{x_max}^{x_max+v_max} e^{-rho (x - x_max)} omega(x) dx,
        # which seeds the backward recurrence R(s_i) = e^{-rho h} R(s_{i+1}) + cell integral
        tx, tw = _gl_panels(xs[-1] + np.linspace(0.0, v_max, _OMEGA_PANELS + 1))
        omega_all = view.penalty_mass(
            penalty.w, np.concatenate((nodes.ravel(), tx.ravel())), *_penalty_rule(v_max, nodes.min())
        )
        omega_nodes = omega_all[: nodes.size].reshape(nodes.shape)
        cell_r = np.sum(
            np.exp(-rho * (nodes - xs[:-1, None])) * omega_nodes * weights, axis=1
        )
        seed = np.sum(np.exp(-rho * (tx - xs[-1])) * omega_all[nodes.size :].reshape(tx.shape) * tw)
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


def _solve(g: np.ndarray, first: np.ndarray, h: float) -> np.ndarray:
    """phi = g * phi + first for samples on a grid of step h, g[0] = 0."""
    a = np.concatenate(([1.0], -h * g[1:]))
    return series_product(first - 0.5 * h * first[0] * g, series_reciprocal(a, g.size), g.size)


def renewal_series(g: GridFunction, first: GridFunction) -> np.ndarray:
    """phi = g * phi + first, i.e. sum_k g*k * first, exactly on the grid.

    With g(0) = 0, as renewal kernels have, the trapezoid convolution of
    ``grid_convolve`` reads phi = r + h (g . phi), with (.) the plain causal
    convolution of the samples and r = first - h/2 first(0) g, so phi(z) =
    r(z) / (1 - h g(z)) mod z^n.  The samples are point values, so solving
    again on every other node needs no new kernel; if that moves phi by
    more than 1e-2 of max|phi|, or either solve is not finite, the grid does
    not resolve the equation and SeriesNotConverged is raised."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in the raise below
        fine = _solve(g.values, first.values, g.h)
        gap = np.max(np.abs(fine[::2] - _solve(g.values[::2], first.values[::2], 2.0 * g.h)))
        size = np.max(np.abs(fine))
    if not gap <= 1e-2 * size < np.inf:  # a NaN or inf in either solve fails one of the two
        raise SeriesNotConverged(f"renewal solve unresolved: every other node moves phi by {gap:.2e} of {size:.2e}")
    return fine
