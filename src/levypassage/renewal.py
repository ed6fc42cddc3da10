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

``renewal_series`` sums the solution phi = sum_k g*k * h, and the ODE-series
scale route's sum with h' + g in place of h, by doubling: a handful of
convolutions by g*(2^s) instead of one convolution per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoPerturbation, SeriesNotConverged
from .models import ModelSpec
from .numerics import GridFunction, cell_nodes, cumulative_from_cells, grid_convolve

SERIES_DOUBLINGS = 8  # doubling steps (2^8 terms) of a renewal series sum_k g*k before it counts as not converged
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


def renewal_series(g: GridFunction, first: GridFunction, raise_above: float) -> np.ndarray:
    """sum_k g*k * first on the grid of ``first``, by doubling.  With
    p = g*(2^s), the step y <- y + p * y takes the partial sum from the terms
    k < 2^s to k < 2^(s+1), and p <- p * p; the trapezoid convolution of
    kernels vanishing at 0, as g does, is associative, so this is the term
    loop's sum.  It stops at the first step that adds less than 1e-10 in
    sup-norm; the terms left then are of the order of that step's square.
    If SERIES_DOUBLINGS steps do not get there, the sum stands unless the
    last step added more than ``raise_above`` (or overflowed), in which case
    SeriesNotConverged is raised."""
    total, power = first.values, g
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in the raise below
        for _ in range(SERIES_DOUBLINGS):
            added = grid_convolve(power, first.with_values(total)).values
            total = total + added
            size = np.max(np.abs(added))
            if size < 1e-10:
                return total
            power = grid_convolve(power, power)
    if not size <= raise_above:
        raise SeriesNotConverged(
            f"renewal series: the last of {SERIES_DOUBLINGS} doubling steps added {size:.2e} in sup-norm"
        )
    return total
