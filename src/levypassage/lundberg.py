"""Lundberg roots and scale functions.

rho(delta) is the unique positive solution of phi_D(rho) = delta (requires
sigma > 0).  The scale function W_delta is defined through its Laplace
transform int_0^inf e^{-lambda x} W_delta(x) dx = 1/(phi_D(lambda) - delta)
for lambda > rho(delta); it vanishes at 0, is nondecreasing, and grows like
e^{rho x}/phi_D'(rho).  ``build_scale_set`` tabulates it by one of three
routes, which cross-validate each other: the closed residue sums over the
roots of phi_D(r) = delta for Brownian drift and phase-type jumps
(``residue_roots``), tilted Laplace inversion by Euler summation
(``numerics.euler_inversion``, about 1e-8), and the renewal ODE series.
Every route tabulates only the bounded e^{-rho x} W(x) and
U_delta density W' - rho W, and ``ScaleSet`` reads every law it serves from
them.

The escape probability P(process started at z > 0 never reaches 0) equals
1 - e^{-rho(0) z}; it is the bounded companion of the delta = 0 scale
function and the factor every last-passage law is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CardinalityMismatch,
    NoConvergence,
    NoPerturbation,
    RepeatedRoots,
    WrongKind,
)
from .models import KIND_BROWNIAN, KIND_PH, ModelSpec
from .numerics import (
    GridFunction,
    cumulative_from_cells,
    euler_inversion,
    find_root_bracketed,
    poly_roots_complex,
)
from .renewal import build_renewal_kernels, renewal_series

ROUTE_CLOSED = "closed"
ROUTE_INVERSION = "laplace_inversion"
ROUTE_ODE_SERIES = "ode_series"


def solve_lundberg(model: ModelSpec, delta: float) -> float:
    """Unique rho > 0 with phi_D(rho) = delta.

    Exists for sigma > 0 because phi_D is strictly convex with
    phi_D'(0) = -E[D_1] < 0 and grows quadratically.  Every kind, Brownian
    drift too, takes the one bracketed solve.  The root belongs to
    the model: each one solved is kept in the instance, so a model solves
    each delta once (a ``dataclasses.replace`` copy starts with none).
    """
    if model.sigma <= 0:
        raise NoPerturbation(
            "the generalized Lundberg equation has no positive solution for sigma = 0"
        )
    if delta < 0:
        raise ValueError("discount rate delta must be nonnegative")
    roots = _kept(model, "_roots")
    if delta not in roots:
        roots[delta] = _positive_root(lambda u: float(model.phi_d(u)), model, delta)
    return roots[delta]


def _kept(model: ModelSpec, name: str) -> dict:
    """The dict of results by delta that ``model`` keeps under ``name``."""
    kept = model.__dict__.get(name)
    if kept is None:
        kept = {}
        object.__setattr__(model, name, kept)
    return kept


def _positive_root(phi, model: ModelSpec, delta: float) -> float:
    # minimizer of the convex exponent: phi' crosses 0 once
    hi = 1.0
    while model.phi_d_prime(hi) <= 0:
        hi *= 2.0
        if hi > 1e12:
            raise NoPerturbation("phi_D' never becomes positive")
    u_min = find_root_bracketed(lambda u: float(model.phi_d_prime(u)), 0.0, hi)
    # phi_D(u_min) < 0; an exponent that dominates phi_D may sit above delta
    # there, with its root further left
    lo = u_min
    while phi(lo) >= delta and lo > 1e-12:
        lo /= 2.0
    hi = max(2.0 * u_min, 1.0)
    while phi(hi) <= delta:
        hi *= 2.0
        if hi > 1e12:
            raise NoPerturbation("failed to bracket the Lundberg root")
    root = find_root_bracketed(lambda u: phi(u) - delta, lo, hi)
    # phi_D(rho) sums terms as large as (sigma rho)^2/2 and the residual
    # carries their rounding: 3.1e-9 at rho = 1e7, sigma = 1e-3
    resid = abs(phi(root) - delta)
    if not resid <= 1e-9 * max(1.0, delta, (model.sigma * root) ** 2):
        raise NoConvergence(f"Lundberg residual {resid:g} at rho = {root:g}")
    return root


def lundberg_truncated(model: ModelSpec, delta: float, n: int) -> float:
    """Root rho_n of the level-n truncated exponent (jumps below 1/n removed).

    rho_n is nondecreasing in n and converges to rho(delta) from below.
    """
    if model.sigma <= 0:
        raise NoPerturbation("truncated Lundberg equation needs sigma > 0")
    if not model.has_jumps:
        raise WrongKind("truncation applies to models with a jump part")
    view = model.levy_measure()
    eps = 1.0 / n
    lam_n = float(view.tail(eps))

    def phi_n(u: float) -> float:
        jump = math.exp(-u * eps) * float(view.exp_tails(u, eps)[0]) - lam_n
        return -model.mu * u + 0.5 * (model.sigma * u) ** 2 + jump

    # the truncated exponent dominates phi_D, so its root lies left of rho(delta)
    return _positive_root(phi_n, model, delta)


# ---------------------------------------------------------------------------
# Escape probability (never return to 0)


def escape_rate(model: ModelSpec) -> float:
    """rho(0), solved once per model; +inf for nondecreasing paths (sigma = 0)."""
    if model.sigma == 0:
        return math.inf
    return solve_lundberg(model, 0.0)


def escape_probability(z, rate: float):
    """P(process started at z never returns to (-inf, 0]) = 1 - e^{-rate z},
    with rate = rho(0) (``escape_rate``).

    rate = +inf encodes strictly increasing paths (sigma = 0): the escape is
    certain from any z >= 0 (the process leaves the level immediately and
    never decreases), impossible from z < 0.
    """
    z = np.asarray(z, dtype=float)
    if math.isinf(rate):
        out = np.where(z >= 0, 1.0, 0.0)
    else:
        # z <= 0 (and NaN) is clamped to 0 before expm1, which then gives 0 with
        # no overflow; 0.0 - e makes that +0.0, where -e would give -0.0
        out = 0.0 - np.expm1(-rate * np.fmax(z, 0.0))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Scale sets


@dataclass(frozen=True)
class ScaleSet:
    """W_delta on [0, x_max] through its two bounded tables: the tilted
    T(x) = e^{-rho x} W(x), increasing to 1/phi_D'(rho), and the U_delta
    density u = W' - rho W.

    W = e^{rho x} T, W' = rho W + u and Z = 1 + delta int_0^x W are derived
    on demand; they grow like e^{rho x} and overflow once rho x > 709, so
    no law in the library is read from them.  Each route tabulates u from
    a cancellation-free expression: recomputing W' - rho W from W at large
    rho x would lose all digits."""

    delta: float
    rho: float
    tilted: GridFunction
    u_delta: GridFunction
    route: str
    phi_prime_at_rho: float

    @property
    def x_max(self) -> float:
        return self.tilted.x_max

    @property
    def h(self) -> float:
        return self.tilted.h

    @property
    def w(self) -> GridFunction:
        growth = np.exp(self.rho * self.tilted.grid())
        return self.tilted.with_values(growth * self.tilted.values)

    @property
    def w_prime(self) -> GridFunction:
        return self.u_delta.with_values(self.rho * self.w.values + self.u_delta.values)

    @property
    def z(self) -> GridFunction:
        return self.tilted.with_values(1.0 + self.delta * self.w.cumulative().values)

    def r_b(self, b: float, y):
        """Reflected resolvent kernel W(b) W'(y)/W'(b) - W(y) = (W(b) u(y) -
        W(y) u(b)) / W'(b), divided through by e^{rho b}:

            (T(b) u(y) - e^{-rho(b-y)} T(y) u(b)) / (rho T(b) + e^{-rho b} u(b)).

        No factor grows with rho b: nothing overflows, and the two terms cancel
        only as y -> b, where r_b vanishes."""
        rho = self.rho
        t_b, u_b = float(self.tilted(b)), float(self.u_delta(b))
        y = np.asarray(y, dtype=float)
        num = t_b * self.u_delta(y) - np.exp(-rho * (b - y)) * self.tilted(y) * u_b
        return num / (rho * t_b + math.exp(-rho * b) * u_b)

    def passage_transform_values(self) -> np.ndarray:
        """E[e^{-delta T_b}] on the grid via the stable form

            phi(delta, b) = 1 - (delta/rho) int_0^b u_delta(y) dy,

        equal to Z(b) - (delta/rho) W(b) but free of the e^{rho b}
        cancellation that kills the direct form at large thresholds."""
        if self.delta == 0:
            return np.ones(self.tilted.n)
        vals = 1.0 - (self.delta / self.rho) * self.u_delta.cumulative().values
        return np.maximum(vals, 0.0)

    def laplace_numeric(self, beta: float) -> float:
        """int_0^inf e^{-beta x} W(x) dx = int_0^inf e^{-(beta-rho) x} T(x) dx:
        grid trapezoid plus the analytic tail
        e^{-(beta-rho) x_max} * T(x_max) / (beta - rho).

        Its own error is T's linear interpolation across the boundary layer
        of width 1/rho at the origin, not the trapezoid weights: against
        1/(phi_D(beta) - delta) it reads -6.7e-4 at sigma = 0.05 (perturbed
        gamma mu = 0.5, alpha = xi = 1, delta = 0.5, beta = rho + 5; rho h =
        0.81 on 2049 nodes over [0, 4]) on the inversion route's table,
        which is right to 1e-8.  So the identity checks a scale table only
        where rho h is small."""
        gap = beta - self.rho
        if gap <= 0:
            raise ValueError("transform abscissa must exceed rho(delta)")
        core = np.trapezoid(np.exp(-gap * self.tilted.grid()) * self.tilted.values, dx=self.h)
        tail = self.tilted.values[-1] * math.exp(-gap * self.x_max) / gap
        return float(core + tail)

    def laplace_exact(self, model: ModelSpec, beta: float) -> float:
        return 1.0 / (float(model.phi_d(beta)) - self.delta)


def residue_roots(model: ModelSpec, delta: float) -> tuple[float, np.ndarray, np.ndarray]:
    """rho(delta), the other roots r of phi_D(r) = delta and the residues
    1/phi_D'(r) there, for the kinds whose 1/(phi_D(s) - delta) is rational:
    Brownian drift and phase-type jumps.  Their scale function is the
    residue sum over all roots

        W_delta(x) = sum_r e^{r x}/phi_D'(r)

    (Kuznetsov, Kyprianou & Rivero, Levy Matters II, LNM 2061, 2012, sec. 5).
    Clearing det(uI - T) from phi_D(u) - delta leaves a polynomial of degree
    m + 2 (m = 0 for Brownian drift: the quadratic), its coefficients from the
    Faddeev-LeVerrier recursion.  Besides rho its roots have Re r < 0, save
    r = 0 at delta = 0, which is set exactly.  They must be distinct, and the
    residues must meet sum 1/phi_D'(r) = W(0) = 0 and sum r/phi_D'(r) =
    W'(0+) = 2/sigma^2 (1e-8 of their terms).  Like rho, they are kept in
    the model, so each delta is solved once."""
    kept = _kept(model, "_residue_roots")
    if delta not in kept:
        kept[delta] = _residue_roots(model, delta)
    return kept[delta]


def _residue_roots(model: ModelSpec, delta: float) -> tuple[float, np.ndarray, np.ndarray]:
    if model.kind not in (KIND_BROWNIAN, KIND_PH):
        raise WrongKind("residue sums need kind=brownian_drift or perturbed_cp_ph")
    rho, ph = solve_lundberg(model, delta), model.ph
    m = 0 if ph is None else ph.order
    # Faddeev-LeVerrier: det(uI - T) = sum_k c_k u^{m-k}, adj(uI - T) = sum_k B_k u^{m-1-k}
    char, adj, mk, ck = [1.0], [], np.zeros((m, m)), 1.0
    for k in range(m):
        b = mk + ck * np.eye(m)
        adj.append(ph.alpha @ b @ ph.exit_vector)
        mk = ph.t_mat @ b
        ck = -np.trace(mk) / (k + 1)
        char.append(ck)
    # p(u) = (sigma^2 u^2/2 - mu u - lam - delta) det(uI - T) + lam alpha adj(uI - T) t
    lam = 0.0 if ph is None else model.lam
    p = np.convolve([0.5 * model.sigma**2, -model.mu, -(lam + delta)], char)
    p[3:] += lam * np.asarray(adj)
    roots = poly_roots_complex(p)
    scale = max(1.0, float(np.max(np.abs(roots))))
    gaps = np.abs(np.subtract.outer(roots, roots))[np.triu_indices(roots.size, 1)]
    if np.min(gaps) < 1e-7 * scale:
        raise RepeatedRoots("the roots of phi_D(r) = delta are numerically repeated")
    others = np.delete(roots, np.argmin(np.abs(roots - rho)))
    # one Newton step on phi_D(r) = delta: the root near -delta/E[D_1] comes
    # out of the polynomial to about 1e-16 absolute, so at delta < 1e-12 it
    # needs the step for its sign and its relative digits
    others = others - (model.phi_d(others) - delta) / model.phi_d_prime(others)
    right = others.real >= (-1e-12 * scale if delta == 0 else 0.0)
    if np.count_nonzero(right) != (delta == 0):
        raise CardinalityMismatch(
            f"{np.count_nonzero(right)} roots besides rho with Re r >= 0 at delta = {delta:g}"
        )
    others[right] = 0.0  # phi_D(0) = 0 exactly
    residues = 1.0 / model.phi_d_prime(others)
    at_rho = 1.0 / float(model.phi_d_prime(rho))
    for power, want in ((0, 0.0), (1, 2.0 / model.sigma**2)):
        terms = np.append(others**power * residues, rho**power * at_rho)
        if abs(np.sum(terms) - want) > 1e-8 * np.sum(np.abs(terms)):
            raise RepeatedRoots(f"residue identity off by {abs(np.sum(terms) - want):.2e}")
    others.flags.writeable = residues.flags.writeable = False  # every caller shares them
    return rho, others, residues


def _scale_set_closed(model: ModelSpec, delta: float, x_max: float, n: int) -> ScaleSet:
    """The residue sum over the roots of phi_D(r) = delta (``residue_roots``):

        T(x) = sum_r e^{(r - rho) x}/phi_D'(r),
        u(x) = sum_{r != rho} (r - rho) e^{r x}/phi_D'(r),

    no term growing, real parts taken after the conjugate pairs are summed.
    The residue identities give T(0) = 0 and u(0) = 2/sigma^2, set exactly."""
    rho, r, res = residue_roots(model, delta)
    xs = np.linspace(0.0, x_max, n)
    decay = np.exp(np.outer(xs, r))
    phip = float(model.phi_d_prime(rho))
    # einsum, not decay @ ...: a matvec this thin is slower on BLAS threads than on one
    tilt = 1.0 / phip + np.exp(-rho * xs) * np.real(np.einsum("ij,j->i", decay, res))
    u = np.real(np.einsum("ij,j->i", decay, (r - rho) * res))
    tilt[0], u[0] = 0.0, 2.0 / model.sigma**2
    tilt, u = GridFunction(0.0, xs[1], tilt), GridFunction(0.0, xs[1], u)
    return ScaleSet(delta, rho, tilt, u, ROUTE_CLOSED, phip)


def _scale_set_inversion(model: ModelSpec, delta: float, x_max: float, n: int) -> ScaleSet:
    """W from numerical inversion of 1/(phi_D(lambda) - delta).

    The tilted function e^{-rho x} W(x), whose transform is
    1/(phi_D(s + rho) - delta), is inverted instead so the target is bounded;
    the U-density W' - rho W, bounded too, is inverted from its own transform
    (s - rho)/(phi_D(s) - delta), whose singularity at s = rho is removable.
    Both go through ``euler_inversion`` (about 1e-8 of their maximum) on every
    grid point but 0, where the limits are T(0) = 0 and u(0+) = W'(0) =
    2/sigma^2 (the transform is ~ 2/(sigma^2 s) as s -> inf)."""
    if model.sigma <= 0:
        raise NoPerturbation("scale functions require sigma > 0")
    rho = solve_lundberg(model, delta)
    xs = np.linspace(0.0, x_max, n)
    tilt = euler_inversion(lambda s: 1.0 / (model.phi_d(s + rho) - delta), xs[1:])
    u = euler_inversion(lambda s: (s - rho) / (model.phi_d(s) - delta), xs[1:])
    tilt = GridFunction(0.0, xs[1], np.concatenate(([0.0], tilt)))
    u = GridFunction(0.0, xs[1], np.concatenate(([2.0 / model.sigma**2], u)))
    return ScaleSet(delta, rho, tilt, u, ROUTE_INVERSION, float(model.phi_d_prime(rho)))


def _linear_cell_weights(z: float) -> tuple[float, float]:
    """(int_0^1 e^{-z v} (1 - v) dv, int_0^1 e^{-z v} v dv) for z > 0: the
    weights of a cell's two end values when a linear function is integrated
    against e^{-z v} exactly.  The first is (e^{-z} - 1 + z)/z^2, whose
    closed form cancels as z -> 0, so below 1/2 it is summed as
    sum_k (-z)^k/(k+2)! instead; the second is (1 - e^{-z})/z less the first."""
    if z < 0.5:
        first = sum((-z) ** k / math.factorial(k + 2) for k in range(16))
    else:
        first = (z + math.expm1(-z)) / z**2
    return first, -math.expm1(-z) / z - first


def _scale_set_ode_series(model: ModelSpec, delta: float, x_max: float, n: int) -> ScaleSet:
    """W from the renewal route: W' - rho W = H with

        H(delta, x) = -(rho/delta) sum_k g*k * (h' + g)(x),

    hence W(x) = int_0^x e^{rho (x-y)} H(y) dy and W' = rho W + H exactly.
    The series is ``renewal_series``, the grid solution less its O(h^2)
    error, which raises SeriesNotConverged when the grid does not resolve
    it.  The tilted
    T(x) = int_0^x e^{-rho y} H(y) dy takes H linear on each cell and
    integrates e^{-rho y} against it exactly, so T stays right where the
    boundary layer of width 1/rho is narrower than a cell.

    The extra g in the driver comes from differentiating the renewal
    equation phi = phi * g + h: since phi(0) = h(0) = 1 the derivative obeys
    phi' = g * phi' + (h' + g); the boundary term is dropped when the
    convolution derivative is moved onto h (it vanishes only for g = 0)."""
    if model.sigma <= 0:
        raise NoPerturbation("scale functions require sigma > 0")
    if delta <= 0:
        raise ValueError("the ODE-series route requires delta > 0")
    rho = solve_lundberg(model, delta)
    kernels = build_renewal_kernels(model, rho, x_max, n)
    first = kernels.h_prime.with_values(kernels.h_prime.values + kernels.g.values)
    h_vals = -(rho / delta) * renewal_series(kernels.g, first)
    h_step = kernels.g.h
    left, right = _linear_cell_weights(rho * h_step)
    decay = np.exp(-rho * kernels.g.grid()[:-1])
    tilt = cumulative_from_cells(h_step * decay * (left * h_vals[:-1] + right * h_vals[1:]))
    tilt, u = GridFunction(0.0, h_step, tilt), GridFunction(0.0, h_step, h_vals)
    return ScaleSet(delta, rho, tilt, u, ROUTE_ODE_SERIES, float(model.phi_d_prime(rho)))


def build_scale_set(
    model: ModelSpec,
    delta: float,
    x_max: float,
    n: int = 2049,
    route: str = "auto",
) -> ScaleSet:
    """ScaleSet by the preferred route per model kind.

    auto: the closed residue sums for Brownian drift and phase-type jumps at
    every delta >= 0; for the gamma kinds the ODE-series route when delta > 0
    (its U-density comes out bounded and stable on long grids), tilted
    Laplace inversion at delta = 0."""
    if route == "auto":
        if model.kind in (KIND_BROWNIAN, KIND_PH):
            route = ROUTE_CLOSED
        elif delta > 0:
            route = ROUTE_ODE_SERIES
        else:
            route = ROUTE_INVERSION
    if route == ROUTE_CLOSED:
        return _scale_set_closed(model, delta, x_max, n)
    if route == ROUTE_INVERSION:
        return _scale_set_inversion(model, delta, x_max, n)
    if route == ROUTE_ODE_SERIES:
        return _scale_set_ode_series(model, delta, x_max, n)
    raise ValueError(f"unknown scale route {route!r}")
