"""Lundberg roots and scale functions.

rho(delta) is the unique positive solution of phi_D(rho) = delta (requires
sigma > 0).  The scale function W_delta is defined through its Laplace
transform int_0^inf e^{-lambda x} W_delta(x) dx = 1/(phi_D(lambda) - delta)
for lambda > rho(delta); it vanishes at 0, is nondecreasing, and grows like
e^{rho x}/phi_D'(rho).  ``build_scale_set`` tabulates it by one of four
routes, which cross-validate each other: the closed forms for Brownian
drift and for phase-type jumps, tilted Laplace inversion, and the renewal
ODE series.  Every route tabulates only the bounded e^{-rho x} W(x) and
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
    find_root_bracketed,
    poly_roots_complex,
    stehfest_coefficients,
)
from .renewal import build_renewal_kernels, renewal_series

ROUTE_CLOSED_BM = "closed_bm"
ROUTE_CLOSED_PH = "closed_ph"
ROUTE_INVERSION = "laplace_inversion"
ROUTE_ODE_SERIES = "ode_series"

_STEHFEST_TERMS = 14  # Gaver-Stehfest terms; more are unstable in doubles


@dataclass(frozen=True)
class LundbergRoot:
    delta: float
    rho: float


def solve_lundberg(model: ModelSpec, delta: float) -> LundbergRoot:
    """Unique rho > 0 with phi_D(rho) = delta.

    Exists for sigma > 0 because phi_D is strictly convex with
    phi_D'(0) = -E[D_1] < 0 and grows quadratically.
    """
    if model.sigma <= 0:
        raise NoPerturbation(
            "the generalized Lundberg equation has no positive solution for sigma = 0"
        )
    if delta < 0:
        raise ValueError("discount rate delta must be nonnegative")
    if model.kind == KIND_BROWNIAN:
        gam = math.sqrt(model.mu**2 + 2.0 * delta * model.sigma**2)
        return LundbergRoot(delta, (model.mu + gam) / model.sigma**2)
    rho = _positive_root(lambda u: float(model.phi_d(u)), model, delta)
    return LundbergRoot(delta, rho)


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
    resid = abs(phi(root) - delta)
    if not resid <= 1e-9 * max(1.0, delta):
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
        jump = math.exp(-u * eps) * float(view.exp_tail(u, eps)) - lam_n
        return -model.mu * u + 0.5 * (model.sigma * u) ** 2 + jump

    # the truncated exponent dominates phi_D, so its root lies left of rho(delta)
    return _positive_root(phi_n, model, delta)


# ---------------------------------------------------------------------------
# Escape probability (never return to 0)


def escape_rate(model: ModelSpec) -> float:
    """rho(0); +inf for nondecreasing paths (sigma = 0)."""
    if model.sigma == 0:
        return math.inf
    return solve_lundberg(model, 0.0).rho


def escape_probability(z, rho0: float):
    """P(process started at z never returns to (-inf, 0]) = 1 - e^{-rho0 z}.

    rho0 = +inf encodes strictly increasing paths (sigma = 0): the escape is
    certain from any z >= 0 (the process leaves the level immediately and
    never decreases), impossible from z < 0.
    """
    z = np.asarray(z, dtype=float)
    if math.isinf(rho0):
        out = np.where(z >= 0, 1.0, 0.0)
    else:
        # z <= 0 (and NaN) is clamped to 0 before expm1, which then gives 0 with
        # no overflow; 0.0 - e makes that +0.0, where -e would give -0.0
        out = 0.0 - np.expm1(-rho0 * np.fmax(z, 0.0))
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
    rho: LundbergRoot
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
        growth = np.exp(self.rho.rho * self.tilted.grid())
        return self.tilted.with_values(growth * self.tilted.values)

    @property
    def w_prime(self) -> GridFunction:
        return self.u_delta.with_values(self.rho.rho * self.w.values + self.u_delta.values)

    @property
    def z(self) -> GridFunction:
        return self.tilted.with_values(1.0 + self.delta * self.w.cumulative().values)

    def r_b(self, b: float, y):
        """Reflected resolvent kernel W(b) W'(y)/W'(b) - W(y) = (W(b) u(y) -
        W(y) u(b)) / W'(b), divided through by e^{rho b}:

            (T(b) u(y) - e^{-rho(b-y)} T(y) u(b)) / (rho T(b) + e^{-rho b} u(b)).

        No factor grows with rho b: nothing overflows, and the two terms cancel
        only as y -> b, where r_b vanishes."""
        rho = self.rho.rho
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
        vals = 1.0 - (self.delta / self.rho.rho) * self.u_delta.cumulative().values
        return np.maximum(vals, 0.0)

    def laplace_numeric(self, beta: float) -> float:
        """int_0^inf e^{-beta x} W(x) dx = int_0^inf e^{-(beta-rho) x} T(x) dx:
        grid trapezoid plus the analytic tail
        e^{-(beta-rho) x_max} * T(x_max) / (beta - rho)."""
        gap = beta - self.rho.rho
        if gap <= 0:
            raise ValueError("transform abscissa must exceed rho(delta)")
        core = np.trapezoid(np.exp(-gap * self.tilted.grid()) * self.tilted.values, dx=self.h)
        tail = self.tilted.values[-1] * math.exp(-gap * self.x_max) / gap
        return float(core + tail)

    def laplace_exact(self, model: ModelSpec, beta: float) -> float:
        return 1.0 / (float(model.phi_d(beta)) - self.delta)


def _scale_set_bm(model: ModelSpec, delta: float, x_max: float, n: int) -> ScaleSet:
    """Brownian drift: W = (e^{r+ x} - e^{r- x})/gamma, gamma = sqrt(mu^2 +
    2 delta sigma^2), with r+- = (mu +- gamma)/sigma^2 the two real roots of
    phi_D(u) = delta and r+ = rho(delta)."""
    if model.kind != KIND_BROWNIAN:
        raise WrongKind("closed-form Brownian scale function needs kind=brownian_drift")
    root = solve_lundberg(model, delta)
    gam = math.sqrt(model.mu**2 + 2.0 * delta * model.sigma**2)
    rp = root.rho
    rm = (model.mu - gam) / model.sigma**2
    xs = np.linspace(0.0, x_max, n)
    tilt = GridFunction(0.0, xs[1], (1.0 - np.exp((rm - rp) * xs)) / gam)
    u = GridFunction(0.0, xs[1], 2.0 / model.sigma**2 * np.exp(rm * xs))
    return ScaleSet(delta, root, tilt, u, ROUTE_CLOSED_BM, float(model.phi_d_prime(rp)))


@dataclass(frozen=True)
class PHRootData:
    """Roots and partial-fraction coefficients of the phase-type scale form."""

    delta: float
    rho: float
    xi_roots: np.ndarray  # set I_delta: phi_D(-xi) = delta, Re xi > 0
    eta_roots: np.ndarray  # set J_delta: poles of phi_D(-eta), Re eta > 0
    a_coeffs: np.ndarray
    varrho: float

    def phi_minus(self, u) -> np.ndarray:
        """prod_j (u+eta_j)/eta_j * prod_i xi_i/(u+xi_i)."""
        u = np.atleast_1d(np.asarray(u, dtype=complex))
        num = np.ones_like(u)
        for e in self.eta_roots:
            num *= (u + e) / e
        den = np.ones_like(u)
        for x in self.xi_roots:
            den *= x / (u + x)
        return num * den

    def phi_minus_partial(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=complex))
        return np.sum(
            self.a_coeffs[None, :]
            * self.xi_roots[None, :]
            / (self.xi_roots[None, :] + u[:, None]),
            axis=1,
        )


def ph_root_data(model: ModelSpec, delta: float) -> PHRootData:
    """Solve the cleared polynomial of phi_D(u) = delta for a phase-type model.

    Multiplying by det(uI - T) turns the rational Lundberg equation into a
    degree m+2 polynomial; the m+1 roots with negative real part give the set
    I_delta (as xi = -root), the positive real one is rho(delta)."""
    if model.kind != KIND_PH:
        raise WrongKind("phase-type root data needs kind=perturbed_cp_ph")
    if delta <= 0:
        raise ValueError("phase-type closed form requires delta > 0")
    t_mat = model.ph.t_mat
    m = model.ph.order
    # Faddeev-LeVerrier: charpoly coefficients and adjugate of (uI - T)
    char = [1.0]
    b_mats = []
    mk = np.zeros((m, m))
    ck = 1.0
    for k in range(m):
        b = mk + ck * np.eye(m)
        b_mats.append(b)
        mk = t_mat @ b
        ck = -np.trace(mk) / (k + 1)
        char.append(ck)
    char = np.asarray(char)  # det(uI - T) coefficients, degree m
    adj_vec = np.array([model.ph.alpha @ b @ model.ph.exit_vector for b in b_mats])
    # p(u) = (sigma^2 u^2/2 - mu u - lam - delta) det(uI-T) + lam * alpha adj(uI-T) t
    quad = np.array([0.5 * model.sigma**2, -model.mu, -(model.lam + delta)])
    p = np.convolve(quad, char)
    p[-m:] += model.lam * adj_vec
    roots = poly_roots_complex(p)
    scale = np.max(np.abs(roots))
    neg = roots[roots.real < -1e-12 * scale]
    xi = -neg
    eta = np.linalg.eigvals(-t_mat)
    if np.any(eta.real <= 0):
        raise CardinalityMismatch("sub-generator eigenvalues must have Re(-T) > 0")
    if xi.size != eta.size + 1:
        raise CardinalityMismatch(
            f"card(I_delta)={xi.size} but card(J_delta)+1={eta.size + 1}"
        )
    # distinct-root requirement
    for i in range(xi.size):
        for j in range(i + 1, xi.size):
            if abs(xi[i] - xi[j]) < 1e-7 * max(1.0, scale):
                raise RepeatedRoots("phase-type roots are numerically repeated")
    # partial fractions: A_i = residue of phi_minus at u = -xi_i, over xi_i
    a = np.empty(xi.size, dtype=complex)
    for i, x in enumerate(xi):
        others = np.delete(xi, i)
        num = np.prod((eta - x) / eta)
        a[i] = num * np.prod(others) / np.prod(others - x)
    varrho = np.sum(a * xi)
    if abs(varrho.imag) > 1e-8 * max(1.0, abs(varrho.real)):
        raise RepeatedRoots("varrho has a large imaginary residue")
    rho = solve_lundberg(model, delta).rho
    data = PHRootData(delta, rho, xi, eta, a, float(varrho.real))
    # internal consistency: partial fractions reproduce the product form
    probe = np.linspace(0.3, 3.7, 5)
    err = np.max(np.abs(data.phi_minus(probe) - data.phi_minus_partial(probe)))
    if err > 1e-8:
        raise RepeatedRoots(f"partial-fraction residual {err:.2e} above 1e-8")
    return data


def _scale_set_ph(model: ModelSpec, delta: float, x_max: float, n: int) -> ScaleSet:
    """Phase-type jumps: W = 2/(sigma^2 varrho) sum_i A_i xi_i/(rho + xi_i)
    [e^{rho x} - e^{-xi_i x}], real part taken after summing conjugate pairs."""
    data = ph_root_data(model, delta)
    xs = np.linspace(0.0, x_max, n)
    pref = 2.0 / (model.sigma**2 * data.varrho)
    coef = data.a_coeffs * data.xi_roots / (data.rho + data.xi_roots)
    edecay = np.exp(-np.outer(xs, data.xi_roots))
    tilt = pref * np.real((1.0 - edecay * np.exp(-data.rho * xs)[:, None]) @ coef)
    u = pref * np.real(edecay @ (coef * (data.rho + data.xi_roots)))
    tilt, u = GridFunction(0.0, xs[1], tilt), GridFunction(0.0, xs[1], u)
    root, phip = LundbergRoot(delta, data.rho), float(model.phi_d_prime(data.rho))
    return ScaleSet(delta, root, tilt, u, ROUTE_CLOSED_PH, phip)


def scale_via_inversion(
    model: ModelSpec,
    delta: float,
    x_max: float,
    n: int = 2049,
) -> ScaleSet:
    """W from numerical inversion of 1/(phi_D(lambda) - delta).

    The tilted function e^{-rho x} W(x), whose transform is
    1/(phi_D(s + rho) - delta), is inverted instead so the target is bounded,
    by Gaver-Stehfest on real abscissae; the U-density W' - rho W, bounded
    too, is inverted from its own transform (s - rho)/(phi_D(s) - delta),
    whose singularity at s = rho is removable."""
    if model.sigma <= 0:
        raise NoPerturbation("scale functions require sigma > 0")
    root = solve_lundberg(model, delta)
    rho = root.rho
    xs = np.linspace(0.0, x_max, n)
    h = xs[1] - xs[0]

    def tilted_transform(s):
        s = np.asarray(s)
        return 1.0 / (np.asarray(model.phi_d((s + rho).ravel())).reshape(s.shape) - delta)

    def u_transform(s):
        s = np.asarray(s)
        return (s - rho) / (np.asarray(model.phi_d(s.ravel())).reshape(s.shape) - delta)

    positive = xs[1:]
    coeffs = stehfest_coefficients(_STEHFEST_TERMS)
    s_nodes = np.log(2.0) * np.arange(1, _STEHFEST_TERMS + 1)[None, :] / positive[:, None]
    tilt_pos = np.log(2.0) / positive * (tilted_transform(s_nodes) @ coeffs)
    u_pos = np.log(2.0) / positive * (u_transform(s_nodes) @ coeffs)
    tilt = np.maximum(np.concatenate(([0.0], tilt_pos)), 0.0)
    # u(0+) = W'(0) = 2/sigma^2 (transform ~ 2/(sigma^2 s) as s -> inf)
    u = np.maximum(np.concatenate(([2.0 / model.sigma**2], u_pos)), 0.0)
    tilt, u = GridFunction(0.0, h, tilt), GridFunction(0.0, h, u)
    return ScaleSet(delta, root, tilt, u, ROUTE_INVERSION, float(model.phi_d_prime(rho)))


def scale_via_ode_series(
    model: ModelSpec,
    delta: float,
    x_max: float,
    n: int = 2049,
) -> ScaleSet:
    """W from the renewal route: W' - rho W = H with

        H(delta, x) = -(rho/delta) sum_k g*k * (h' + g)(x),

    hence W(x) = int_0^x e^{rho (x-y)} H(y) dy and W' = rho W + H exactly.

    The extra g in the driver comes from differentiating the renewal
    equation phi = phi * g + h: since phi(0) = h(0) = 1 the derivative obeys
    phi' = g * phi' + (h' + g); the boundary term is dropped when the
    convolution derivative is moved onto h (it vanishes only for g = 0)."""
    if model.sigma <= 0:
        raise NoPerturbation("scale functions require sigma > 0")
    if delta <= 0:
        raise ValueError("the ODE-series route requires delta > 0")
    root = solve_lundberg(model, delta)
    rho = root.rho
    kernels = build_renewal_kernels(model, delta, rho, x_max, n)
    first = kernels.h_prime.with_values(kernels.h_prime.values + kernels.g.values)
    series = renewal_series(kernels.g, first, raise_above=1e-6)
    h_vals = -(rho / delta) * series
    xs = kernels.g.grid()
    h_step = kernels.g.h
    integrand = np.exp(-rho * xs) * h_vals
    tilt = np.concatenate(
        ([0.0], np.cumsum(0.5 * h_step * (integrand[1:] + integrand[:-1])))
    )
    tilt, u = GridFunction(0.0, h_step, tilt), GridFunction(0.0, h_step, h_vals)
    return ScaleSet(delta, root, tilt, u, ROUTE_ODE_SERIES, float(model.phi_d_prime(rho)))


def build_scale_set(
    model: ModelSpec,
    delta: float,
    x_max: float,
    n: int = 2049,
    route: str = "auto",
) -> ScaleSet:
    """ScaleSet by the preferred route per model kind.

    auto: closed form for Brownian drift always and for phase-type jumps when
    delta > 0; the ODE-series route for other jump models with delta > 0 (its
    U-density comes out bounded and stable on long grids); tilted Laplace
    inversion for delta = 0."""
    if route == "auto":
        if model.kind == KIND_BROWNIAN:
            route = ROUTE_CLOSED_BM
        elif model.kind == KIND_PH and delta > 0:
            route = ROUTE_CLOSED_PH
        elif delta > 0:
            route = ROUTE_ODE_SERIES
        else:
            route = ROUTE_INVERSION
    if route == ROUTE_CLOSED_BM:
        return _scale_set_bm(model, delta, x_max, n)
    if route == ROUTE_CLOSED_PH:
        return _scale_set_ph(model, delta, x_max, n)
    if route == ROUTE_INVERSION:
        return scale_via_inversion(model, delta, x_max, n)
    if route == ROUTE_ODE_SERIES:
        return scale_via_ode_series(model, delta, x_max, n)
    raise ValueError(f"unknown scale route {route!r}")
