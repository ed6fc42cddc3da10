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
exponential tail.  For g, C is accumulated with five Gauss-Legendre nodes a
cell: (e^{kappa x} - e^{-rho x}) q(x) is smooth at 0 even for gamma jumps,
and five nodes hold its e^{-rho x} to rounding at rho h = 0.8.

The tagged penalties have omega(x) = Qbar(x + eps), eps = 0 for w = 1.  For
gamma jumps Qbar has a log singularity at 0, which a node rule resolves only
slowly, so C is taken by parts, with G the primitive of the factor, G(0) = 0:

    G(x) = expm1(kappa x) / kappa + expm1(-rho x) / rho   (first term x at kappa = 0)
    C(y) = G(y) Qbar(y + eps) + int_0^y G(x) q(x + eps) dx,

whose integrand is smooth at 0 and, at eps = 0, is g's table of q times G.
Qbar on the grid comes from the identity Qbar(s) = rho R(s) + R_q(s), R and
R_q the exponential tails of Qbar and of Q, which the kernels need anyway;
so Qbar itself, an exponential integral per point for gamma jumps, is never
evaluated.

For a callable penalty, omega(x) = int_0^inf w(x, v) q(x + v) dv is one
call to the jump law's ``penalty_mass``, which integrates a table of w
against q through the law's own factors (phase type: alpha e^{xT} times
e^{vT} t; gamma: e^{-x/xi} e^{-v/xi} over x + v), on v-panels graded
towards v = 0.  Its C and R take the cell rule of g, save the first cell,
which keeps the log singularity: there 24-node panels are graded by 4^-j
towards 0.

``renewal_series`` solves phi = g * phi + first on the grid as one
power-series division, checked against its own solve on every other node,
and takes one Richardson step on the two solves.  The PK series (first = h)
and the ODE-series scale route (first = h' + g) both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoPerturbation, SeriesNotConverged, UsageError
from .models import ModelSpec
from .numerics import GridFunction, cell_nodes, cumulative_from_cells, series_product, series_reciprocal

_GL_TAIL_NODES, _GL_TAIL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_TAIL_NODES = 0.5 * (_GL_TAIL_NODES + 1.0)
_GL_TAIL_WEIGHTS = 0.5 * _GL_TAIL_WEIGHTS
_OMEGA_PANELS = 48  # uniform 24-node panels over the jump support, for omega's v-integral and tail seed
# a callable penalty's first cell: 24-node panels [0, h 4^-12], ..., [h/4, h];
# with fewer, the log singularity of a gamma omega at 0 shows in h'(0)
_FIRST_CELL_GRADES = 12


@dataclass(frozen=True)
class PenaltySpec:
    """Bounded penalty w(undershoot, overshoot) of the crossing data.

    ``tag`` selects fast paths: "one" (w identically 1), or
    "overshoot_indicator" with threshold ``eps`` (w = 1{overshoot > eps}).
    Any other tag must come with a broadcasting callable w(u, v).  A
    negative or non-finite eps, or another tag without w, raises UsageError.
    """

    tag: str = "one"
    eps: float = 0.0
    w: Callable | None = None

    def __post_init__(self):
        if not 0.0 <= self.eps < math.inf:
            raise UsageError(f"penalty threshold eps must be finite and >= 0, got {self.eps}")
        if self.tag not in ("one", "overshoot_indicator") and not callable(self.w):
            raise UsageError(f"penalty tag {self.tag!r} needs a callable w(u, v)")

    def creep_value(self) -> float:
        """w(0, 0): the weight a continuous (creeping) crossing receives."""
        if self.tag == "one":
            return 1.0
        if self.tag == "overshoot_indicator":
            return 0.0
        return float(self.w(np.zeros(1), np.zeros(1))[0])


@dataclass(frozen=True)
class RenewalKernels:
    g: GridFunction
    h: GridFunction
    h_prime: GridFunction


def _swap_convolution(y, kappa, rho, cum_c, r_vals):
    """int_0^y exp(-kappa (y-s)) R(s) ds from C(y) and R(y) (see module doc)."""
    return (np.exp(-kappa * y) * cum_c + (-np.expm1(-(kappa + rho) * y)) * r_vals) / (
        kappa + rho
    )


def _factor(x, kappa, rho):
    """e^{kappa x} - e^{-rho x} and its primitive G(x) from G(0) = 0."""
    grow, decay = np.expm1(kappa * x), np.expm1(-rho * x)
    return grow - decay, (grow / kappa if kappa > 0 else x) + decay / rho


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
    rho: float,
    x_max: float,
    n: int,
    penalty: PenaltySpec = PenaltySpec(),
) -> RenewalKernels:
    """Tabulate g, h, h' on the grid [0, x_max] with n points.

    The penalty's tag picks omega: "one" (w identically 1, omega = Qbar),
    "overshoot_indicator" (w = 1{v > eps}, omega(x) = Qbar(x + eps)), both
    exact to rounding by the by-parts form of the module doc, or else its
    broadcasting callable w(u, v), integrated numerically on the cell nodes
    (the first cell on panels graded towards 0); the creeping term carries
    w(0, 0).
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
            zero,
            GridFunction(0.0, h_step, h_vals),
            GridFunction(0.0, h_step, hp_vals),
        )

    view = model.levy_measure()
    nodes, weights = cell_nodes(0.0, h_step, n - 1)
    q_nodes = view.density(nodes)

    # g: inner measure Q(dx)
    factor_nodes, primitive_nodes = _factor(nodes, kappa, rho)
    cq = cumulative_from_cells(np.sum(factor_nodes * q_nodes * weights, axis=1))
    rq, rq_tail = view.exp_tails(rho, xs)
    rq[0] = 0.0  # multiplied by an exactly-zero factor at y = 0; kill inf*0
    g_vals = two_over_s2 * _swap_convolution(xs, kappa, rho, cq, rq)
    g_vals[0] = 0.0

    # h: inner weight omega
    if penalty.tag in ("one", "overshoot_indicator"):
        # omega(x) = Qbar(x + eps), eps = 0 for "one"; its exponential tail is
        # int_s^inf e^{-rho(x-s)} Qbar(x+eps) dx, the second of exp_tails(rho, s+eps),
        # and C is taken by parts (module doc), Qbar read off the two tails
        eps = penalty.eps if penalty.tag == "overshoot_indicator" else 0.0
        r_eps, r_omega = view.exp_tails(rho, xs + eps) if eps > 0 else (rq, rq_tail)
        tail = rho * r_omega + r_eps  # at 0 times G(0) = 0
        q_omega = view.density(nodes + eps) if eps > 0 else q_nodes
        c_omega = _factor(xs, kappa, rho)[1] * tail + cumulative_from_cells(
            np.sum(primitive_nodes * q_omega * weights, axis=1)
        )
    else:
        v_max = float(view.default_x_max())
        # omega at the points px of each cell's rule (cell 0 on panels graded
        # towards the log singularity of a gamma omega at 0, the others on
        # their nodes) and at the nodes tx of a direct tail quadrature of
        # int_{x_max}^{x_max+v_max} e^{-rho (x - x_max)} omega(x) dx, which seeds
        # the backward recurrence R(s_i) = e^{-rho h} R(s_{i+1}) + cell integral
        fx, fw = _gl_panels(h_step * np.concatenate(([0.0], 0.25 ** np.arange(_FIRST_CELL_GRADES, -1, -1))))
        px = np.concatenate((fx.ravel(), nodes[1:].ravel()))
        pw = np.concatenate((fw.ravel(), weights[1:].ravel()))
        cell = np.concatenate((np.zeros(fx.size, dtype=int), np.repeat(np.arange(1, n - 1), nodes.shape[1])))
        tx, tw = _gl_panels(xs[-1] + np.linspace(0.0, v_max, _OMEGA_PANELS + 1))
        omega = view.penalty_mass(penalty.w, np.concatenate((px, tx.ravel())), *_penalty_rule(v_max, fx.min()))
        omega_px, omega_tx = omega[: px.size], omega[px.size :].reshape(tx.shape)
        cell_r = np.bincount(cell, np.exp(-rho * (px - xs[cell])) * omega_px * pw, n - 1)
        seed = np.sum(np.exp(-rho * (tx - xs[-1])) * omega_tx * tw)
        # R_i = sum_{k >= i} e^{-rho h (k - i)} r_k with r = (cell integrals, seed),
        # as a doubling scan: after the pass with stride s each entry sums its next
        # 2s terms, and the weights e^{-rho h s} <= 1 cannot overflow
        r_omega = np.append(cell_r, seed)
        stride = 1
        while stride < n:
            r_omega[:-stride] += math.exp(-rho * h_step * stride) * r_omega[stride:]
            stride *= 2
        c_omega = cumulative_from_cells(np.bincount(cell, _factor(px, kappa, rho)[0] * omega_px * pw, n - 1))
    conv = _swap_convolution(xs, kappa, rho, c_omega, r_omega)
    creep = creep_weight * np.exp(-kappa * xs)
    h_vals = creep + two_over_s2 * conv
    hp_vals = -kappa * creep + two_over_s2 * (r_omega - kappa * conv)

    return RenewalKernels(
        GridFunction(0.0, h_step, g_vals),
        GridFunction(0.0, h_step, h_vals),
        GridFunction(0.0, h_step, hp_vals),
    )


def _solve(g: np.ndarray, first: np.ndarray, h: float) -> np.ndarray:
    """phi = g * phi + first for samples on a grid of step h, g[0] = 0."""
    a = np.concatenate(([1.0], -h * g[1:]))
    return series_product(first - 0.5 * h * first[0] * g, series_reciprocal(a, g.size), g.size)


def renewal_series(g: GridFunction, first: GridFunction) -> np.ndarray:
    """phi = g * phi + first, i.e. sum_k g*k * first, on the grid less its
    leading O(h^2) error.

    With g(0) = 0, as renewal kernels have, the trapezoid convolution of
    ``grid_convolve`` reads phi = r + h (g . phi), with (.) the plain causal
    convolution of the samples and r = first - h/2 first(0) g, so phi(z) =
    r(z) / (1 - h g(z)) mod z^n (``_solve``).  The samples are point values,
    so solving again on every other node needs no new kernel; if that moves
    phi by more than 1e-2 of max|phi|, or either solve is not finite, the
    grid does not resolve the equation and SeriesNotConverged is raised.
    Otherwise the two solves give one Richardson step, (4 fine - coarse)/3 on
    the shared nodes, its correction interpolated linearly to the nodes
    between."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in the raise below
        fine = _solve(g.values, first.values, g.h)
        coarse = _solve(g.values[::2], first.values[::2], 2.0 * g.h)
        gap = np.max(np.abs(fine[::2] - coarse))
        size = np.max(np.abs(fine))
    if not gap <= 1e-2 * size < np.inf:  # a NaN or inf in either solve fails one of the two
        raise SeriesNotConverged(f"renewal solve unresolved: every other node moves phi by {gap:.2e} of {size:.2e}")
    nodes = np.arange(fine.size)
    return fine + np.interp(nodes, nodes[::2], (fine[::2] - coarse) / 3.0)
