"""Degradation models: Brownian-perturbed subordinators.

The process is D_t = mu*t + J_t + sigma*B_t with J a driftless subordinator
(gamma or compound-Poisson with phase-type jumps).  A ModelSpec is the single
source of truth for the Laplace exponent

    phi_D(u) = -mu*u + int_0^inf (exp(-u x) - 1) Q(dx) + sigma^2 u^2 / 2,

so that E[exp(-u D_t)] = exp(t * phi_D(u)), and for the Levy measure Q.

The gamma jump part uses the shape/scale convention: Q(dx) = alpha x^-1
exp(-x/xi) dx, hence the jump contribution to phi_D is -alpha*log(1 + u*xi)
and E[J_1] = alpha*xi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import expm
from scipy.special import exp1

from .errors import HorizonExceeded, NoJumpPart, SchemaError
from .numerics import find_root_bracketed

KIND_BROWNIAN = "brownian_drift"
KIND_PURE_GAMMA = "pure_gamma"
KIND_PERTURBED_GAMMA = "perturbed_gamma"
KIND_PH = "perturbed_cp_ph"

_GAMMA_KINDS = (KIND_PURE_GAMMA, KIND_PERTURBED_GAMMA)
ALL_KINDS = (KIND_BROWNIAN, KIND_PURE_GAMMA, KIND_PERTURBED_GAMMA, KIND_PH)

# the gamma jumps below this share of xi ride in the drift of the law's
# compound-Poisson view (``GammaMeasure.compound_poisson``)
_GAMMA_CUT = 1e-12


def _e1_scaled(z: np.ndarray) -> np.ndarray:
    """exp(z) * E1(z) for z > 0, overflow-free: scipy's exp1 up to z = 40,
    the asymptotic series above, both within 4e-16 relative at the switch."""
    shape = np.shape(z)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    small = z <= 40.0
    out[small] = np.exp(z[small]) * exp1(z[small])
    big = np.flatnonzero(~small)
    if not big.size:
        return out.reshape(shape)
    # sum_k (-1)^k k! / z^k: for k < z its terms fall and the error is below
    # the first term left out, 39!/40^39 = 7e-17 at most; each point stops
    # at its first term below 1e-17
    zl = z[big]
    acc = np.ones_like(zl)
    live = np.arange(zl.size)
    term = np.ones_like(zl)
    for k in range(1, 40):
        term = -term * k / zl[live]
        acc[live] += term
        keep = np.abs(term) >= 1e-17
        live, term = live[keep], term[keep]
        if not live.size:
            break
    out[big] = acc / zl
    return out.reshape(shape)


@dataclass(frozen=True)
class PhaseType:
    """Representation (alpha, T) of a phase-type jump-size law."""

    alpha: np.ndarray
    t_mat: np.ndarray

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        t_mat = np.atleast_2d(np.asarray(self.t_mat, dtype=float))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "t_mat", t_mat)
        m = alpha.size
        if t_mat.shape != (m, m):
            raise ValueError(f"T must be {m}x{m}, got {t_mat.shape}")
        if np.any(alpha < 0) or alpha.sum() > 1 + 1e-12:
            raise ValueError("initial distribution entries must be >= 0 and sum <= 1")
        if np.any(np.diag(t_mat) >= 0):
            raise ValueError("sub-generator diagonal must be negative")
        off = t_mat - np.diag(np.diag(t_mat))
        if np.any(off < -1e-12):
            raise ValueError("sub-generator off-diagonals must be nonnegative")
        if np.any(t_mat.sum(axis=1) > 1e-12):
            raise ValueError("sub-generator row sums must be nonpositive")

    @property
    def order(self) -> int:
        return self.alpha.size

    @property
    def exit_vector(self) -> np.ndarray:
        return -self.t_mat @ np.ones(self.order)

    def moment(self, k: int) -> float:
        """E[J^k] = k! * alpha (-T)^-k 1."""
        v = np.ones(self.order)
        for _ in range(k):
            v = np.linalg.solve(-self.t_mat, v)
        return math.factorial(k) * float(self.alpha @ v)

    def _eig_action(self):
        cached = self.__dict__.get("_eig_cache")
        if cached is None:
            w, v = np.linalg.eig(self.t_mat)
            try:
                vinv = np.linalg.inv(v)
                ok = np.linalg.cond(v) < 1e10
            except np.linalg.LinAlgError:
                ok = False
                vinv = None
            cached = (ok, w, v, vinv)
            object.__setattr__(self, "_eig_cache", cached)
        return cached

    def _chain(self):
        """(mean holds, start table, move tables) of the absorbing phase chain.
        The tables are cumulative probabilities over the phases, absorption
        taking the rest: a uniform u lands in the phase whose interval holds
        it, counted as the number of entries at or below u (m for absorption)."""
        cached = self.__dict__.get("_chain_cache")
        if cached is None:
            rates = -np.diag(self.t_mat)
            moves = np.column_stack((self.t_mat + np.diag(rates), self.exit_vector))
            start = np.append(self.alpha, max(0.0, 1.0 - self.alpha.sum()))
            start_cum = np.cumsum(start / start.sum())[:-1]
            cached = (1.0 / rates, start_cum, np.cumsum(moves / rates[:, None], axis=1)[:, :-1])
            object.__setattr__(self, "_chain_cache", cached)
        return cached

    def _action(self, x: np.ndarray, front: np.ndarray, rear: np.ndarray) -> np.ndarray:
        """front @ expm(x_i T) @ rear for every x_i of a 1-D x; the rows of a
        2-D front or the columns of a 2-D rear (not both) add a last axis.
        The one place the matrix-exponential method is chosen: the cached
        eigensystem when it is well conditioned, else batched
        scaling-and-squaring (defective T)."""
        ok, w, v, vinv = self._eig_action()
        if ok:
            coef = ((vinv @ rear).T * (front @ v)).T
            return np.real(np.exp(np.outer(x, w)) @ coef)
        return front @ expm(x[:, None, None] * self.t_mat[None, :, :]) @ rear

    def front_action(self, x, rear: np.ndarray) -> np.ndarray:
        """alpha @ expm(x T) @ rear, vectorized over x >= 0."""
        return self._action(np.ravel(np.asarray(x, dtype=float)), self.alpha, rear).reshape(np.shape(x))

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = np.maximum(self.front_action(np.maximum(x, 0.0), self.exit_vector), 0.0)
        return np.where(x >= 0, inside, 0.0)

    def survival(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = np.clip(self.front_action(np.maximum(x, 0.0), np.ones(self.order)), 0.0, None)
        return np.where(x > 0, inside, self.alpha.sum())


def sample_phase_type(ph: PhaseType, rng: np.random.Generator, size: int) -> np.ndarray:
    """Exact phase-type samples by simulating the absorbing phase chain.  An
    order-1 law absorbs on leaving its one phase, so a draw is one
    exponential hold (0 where it starts absorbed, when alpha < 1)."""
    m = ph.order
    hold, start_cum, move_cum = ph._chain()
    if m == 1:
        total = hold[0] * rng.standard_exponential(size)
        if start_cum[0] < 1.0:
            total[rng.random(size) >= start_cum[0]] = 0.0
        return total
    state = np.searchsorted(start_cum, rng.random(size), side="right")
    total = np.zeros(size)
    active = state < m
    guard = 0
    while active.any():
        guard += 1
        if guard > 100_000:
            raise HorizonExceeded("phase chain failed to absorb")
        s = state[active]
        total[active] += hold[s] * rng.standard_exponential(s.size)
        u = rng.random(s.size)
        state[active] = (u[:, None] >= move_cum[s]).sum(axis=1)
        active = state < m
    return total


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one degradation model; immutable after validation.

    ``jumps`` is the Levy-measure view of the jump part J (None for Brownian
    drift); every jump-law quantity below reads from it.
    """

    kind: str
    mu: float = 0.0
    sigma: float = 0.0
    alpha: float | None = None  # gamma shape rate (1/time)
    xi: float | None = None  # gamma jump scale (deg units)
    lam: float | None = None  # compound-Poisson intensity (1/time)
    ph: PhaseType | None = None
    jumps: "LevyMeasureView | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.mu < 0:
            raise ValueError("drift mu must be nonnegative")
        if self.kind == KIND_PURE_GAMMA:
            if self.sigma != 0:
                raise ValueError("pure_gamma requires sigma = 0")
        elif self.sigma <= 0:
            raise ValueError(f"{self.kind} requires sigma > 0")
        jumps = None
        if self.kind in _GAMMA_KINDS:
            if not self.alpha or self.alpha <= 0 or not self.xi or self.xi <= 0:
                raise ValueError("gamma kinds require alpha > 0 and xi > 0")
            jumps = GammaMeasure(self.alpha, self.xi)
        elif self.kind == KIND_PH:
            if not self.lam or self.lam <= 0:
                raise ValueError("phase-type kind requires intensity lambda > 0")
            if self.ph is None:
                raise ValueError("phase-type kind requires a (alpha, T) representation")
            if abs(self.ph.alpha.sum() - 1.0) > 1e-12:  # phi_D and the D_t law assume it
                raise ValueError(
                    f"phase-type alpha sums to {self.ph.alpha.sum():.17g}, not 1: fold the "
                    "missing mass into lambda (lambda * sum(alpha), alpha / sum(alpha))"
                )
            jumps = PHMeasure(self.lam, self.ph)
        object.__setattr__(self, "jumps", jumps)
        if self.mean_d1 <= 0:
            raise ValueError(
                f"E[D_1] = {self.mean_d1:g} must be positive (process must drift to +inf)"
            )

    # -- moments of D_1

    @property
    def has_jumps(self) -> bool:
        return self.jumps is not None

    @property
    def jump_mean(self) -> float:
        return 0.0 if self.jumps is None else self.jumps.moment(1)

    @property
    def jump_second_moment(self) -> float:
        return 0.0 if self.jumps is None else self.jumps.moment(2)

    @property
    def mean_d1(self) -> float:
        return self.mu + self.jump_mean

    @property
    def var_d1(self) -> float:
        return self.sigma**2 + self.jump_second_moment

    # -- Laplace exponent and derivatives

    def phi_d(self, u):
        """phi_D(u) with E[exp(-u D_t)] = exp(t phi_D(u)); phi_D(0) = 0."""
        u = np.asarray(u)
        out = -self.mu * u + 0.5 * (self.sigma * u) ** 2
        if self.jumps is not None:
            out = out + self.jumps.phi(u)
        return out if out.ndim else out[()]

    def phi_d_prime(self, u):
        u = np.asarray(u)
        out = -self.mu + self.sigma**2 * u
        if self.jumps is not None:
            out = out + self.jumps.phi_prime(u)
        return out if out.ndim else out[()]

    def phi_d_second(self, u):
        u = np.asarray(u)
        out = np.full(np.shape(u) or (), self.sigma**2, dtype=float)
        if self.jumps is not None:
            out = out + self.jumps.phi_second(u)
        return out if out.ndim else out[()]

    def levy_measure(self) -> "LevyMeasureView":
        if self.jumps is None:
            raise NoJumpPart("Brownian-with-drift model has no jump part")
        return self.jumps


def _log1p_any(z):
    z = np.asarray(z)
    if np.iscomplexobj(z):
        return np.log(1.0 + z)
    return np.log1p(z)


# ---------------------------------------------------------------------------
# Levy measure views


class LevyMeasureView:
    """The jump law of J through its Levy measure Q: density, tails, the
    jump part of phi_D and its derivatives, moments, and exact sampling.
    ``_abscissa`` is Q's exponential-moment abscissa A: int e^{u x} Q(dx) is
    finite for u < A, so phi(u) is analytic for Re u > -A.  ``_rate`` is
    -phi(+inf), the rate of jumps: e^{-t rate} is the chance of none in a
    time t (0 for infinite activity)."""

    def phi(self, u):
        """int_0^inf (e^{-u x} - 1) Q(dx), for real or complex u."""
        raise NotImplementedError

    def phi_prime(self, u):
        raise NotImplementedError

    def phi_second(self, u):
        raise NotImplementedError

    def moment(self, k: int) -> float:
        """int_0^inf x^k Q(dx), so E[J_1] for k = 1 and Var[J_1] for k = 2."""
        raise NotImplementedError

    def sample_bridged(self, rng: np.random.Generator, m: int, dt):
        """(draws, bridge): m exact draws of J over a scalar or per-draw
        length dt, and bridge(bridge_rng, rows) -> (counts, sizes, rest), the
        jumps of J's path given the draws ``rows``: how many each row has,
        their sizes row after row in one array, each row's in an exchangeable
        order, and the rest of each draw (0 if none), which the path takes
        linearly.  Given the sizes, the jumps sit at iid uniform epochs."""
        raise NotImplementedError

    def compound_poisson(self) -> "_CompoundPoisson":
        """This law with a finite jump rate: a compound-Poisson view of its
        jumps, whose ``drift`` is the mean per unit time of the jumps it
        leaves out."""
        raise NotImplementedError

    def tilt(self, rho: float) -> "LevyMeasureView":
        """The Esscher-tilted measure e^{-rho x} Q(dx), as a view of the same
        family: its phi(u) is phi(u + rho) - phi(rho)."""
        raise NotImplementedError

    def density(self, x) -> np.ndarray:
        raise NotImplementedError

    def penalty_mass(self, w: Callable, x: np.ndarray, v: np.ndarray, wts: np.ndarray) -> np.ndarray:
        """omega(x_i) = sum_j w(x_i, v_j) q(x_i + v_j) wts_j for 1-D x > 0:
        the v-integral of a penalty w(u, v) against the jump density, on a
        rule (v, wts) of (panels, nodes) arrays.  w is tabulated one panel
        at a time, called with u a row of x and v a column of the panel's
        nodes (x runs along the table's long axis), and q enters through
        factors of the law, never as a table of its own."""
        raise NotImplementedError

    def tail(self, x) -> np.ndarray:
        """Qbar(x) = Q([x, inf))."""
        raise NotImplementedError

    def exp_tails(self, rho: float, x) -> tuple[np.ndarray, np.ndarray]:
        """(int_x^inf exp(-rho (u - x)) Q(du), int_x^inf exp(-rho (u - x)) Qbar(u) du),
        the exponential tails of Q and Qbar, which share special-function values."""
        raise NotImplementedError

    def default_x_max(self) -> float:
        """Smallest x with Qbar(x) < 1e-12 * Qbar(1e-3) (jump-support cutoff)."""
        target = 1e-12 * float(self.tail(1e-3))
        hi = 1.0
        while float(self.tail(hi)) >= target:
            hi *= 2.0
            if hi > 1e9:
                return hi
        return find_root_bracketed(
            lambda x: float(self.tail(x)) - target, 1e-3, hi, tol=abs(target)
        )


class _CompoundPoisson:
    """A jump law of finite rate ``_rate`` and its exact jump sizes.
    ``drift`` is the mean per unit time of the jumps the view leaves out of
    its law, which a path takes as drift (0 when it leaves none out)."""

    _rate: float
    drift = 0.0

    def sample_jumps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n iid jump sizes, from the view's jump measure / ``_rate``."""
        raise NotImplementedError

    def tilt(self, rho: float) -> "_CompoundPoisson":
        """The view of the Esscher-tilted measure e^{-rho x} Q(dx)."""
        raise NotImplementedError


class _CutGamma(_CompoundPoisson):
    """The gamma jumps of at least eps, alpha x^-1 e^{-x/xi} dx on
    [eps, inf), at rate alpha E1(eps/xi).  The jumps below eps have mean
    ``drift`` = alpha xi (1 - e^{-eps/xi}) per unit time; what is left of
    them is a martingale M with E[M_t^2] = t int_0^eps x^2 Q(dx) <=
    alpha eps^2 t / 2, so a path D' that takes the drift for them is off the
    true D by E[sup_{s<=t} |D - D'|^2] <= 2 alpha eps^2 t (Doob; Asmussen &
    Rosinski, J. Appl. Probab. 38(2) 2001)."""

    def __init__(self, alpha: float, xi: float, eps: float):
        self.alpha, self.xi, self.eps = alpha, xi, eps
        self._rate = alpha * float(exp1(eps / xi))
        self.drift = -alpha * xi * math.expm1(-eps / xi)
        # the rejection envelope: x^-1 on [eps, c] and c^-1 e^{-x/xi} above c
        self._c = max(eps, xi)
        self._mass_low = math.log(self._c / eps)
        self._mass_high = xi / self._c * math.exp(-self._c / xi)

    def sample_jumps(self, rng, n):
        """Exact draws by rejection from the envelope: a uniform on its total
        mass picks the branch by the envelope's masses log(c/eps) : (xi/c)
        e^{-c/xi} and the point within it, log-uniform on [eps, c] or c plus
        an Exp(xi) draw, kept with probability e^{-x/xi} or c/x (an Exp(1)
        draw above x/xi or log(x/c))."""
        out = np.empty(n)
        todo = np.arange(n)
        c, xi = self._c, self.xi
        while todo.size:
            u = rng.random(todo.size) * (self._mass_low + self._mass_high)
            x = self.eps * np.exp(u)
            bar = x / xi  # -log of the acceptance probability
            high = np.flatnonzero(u >= self._mass_low)
            x[high] = c - xi * np.log1p((self._mass_low - u[high]) / self._mass_high)
            bar[high] = np.log(x[high] / c)
            keep = rng.standard_exponential(todo.size) > bar
            out[todo[keep]] = x[keep]
            todo = todo[~keep]
        return out

    def tilt(self, rho):
        """The tilted gamma law alpha x^-1 e^{-x (1/xi + rho)} dx, cut at the same eps."""
        return _CutGamma(self.alpha, self.xi / (1.0 + rho * self.xi), self.eps)


class GammaMeasure(LevyMeasureView):
    """Q(dx) = alpha x^-1 exp(-x/xi) dx."""

    def __init__(self, alpha: float, xi: float):
        self.alpha = alpha
        self.xi = xi
        self._abscissa = 1.0 / xi
        self._rate = math.inf

    def phi(self, u):
        return -self.alpha * _log1p_any(u * self.xi)

    def phi_prime(self, u):
        return -(self.alpha * self.xi / (1.0 + u * self.xi))

    def phi_second(self, u):
        return self.alpha * self.xi**2 / (1.0 + u * self.xi) ** 2

    def moment(self, k: int) -> float:
        return self.alpha * math.factorial(k - 1) * self.xi**k

    def sample_bridged(self, rng, m, dt):
        """Given its total G over [0, dt], the path is G times a Dirichlet
        process with base alpha Leb[0, dt] (Ferguson 1973): atoms at iid
        uniform epochs, weights V_i prod_{j<i} (1 - V_j) with V_i ~ Beta(1,
        alpha dt) (Sethuraman 1994), 1 - V = U^{1/(alpha dt)} in log space.
        A row draws sticks, k a pass with k doubling from 16, until the stick
        left times G is below eps = _GAMMA_CUT xi; that rest moves linearly,
        as the compound-Poisson view's drift takes the jumps below eps.  The
        sticks come in size-biased order, so each row's are shuffled."""
        total = rng.gamma(self.alpha * dt, self.xi, m)
        span = np.broadcast_to(dt, (m,))

        def bridge(bridge_rng, rows):
            shape, floor = self.alpha * span[rows], math.log(_GAMMA_CUT * self.xi)
            left = np.log(total[rows], out=np.full(rows.size, -np.inf), where=total[rows] > 0)  # log of G x stick left
            sizes, live, k = [np.zeros((rows.size, 0))], np.flatnonzero(left >= floor), 16
            while live.size:
                shrink = np.log1p(-bridge_rng.random((live.size, k))) / shape[live, None]  # log(1 - V)
                levels = left[live, None] + np.hstack((np.zeros((live.size, 1)), np.cumsum(shrink, axis=1)))
                drawn = levels[:, :-1] >= floor  # a prefix of each row
                sizes.append(np.zeros((rows.size, k)))
                sizes[-1][live] = np.where(drawn, np.exp(levels[:, :-1]) * -np.expm1(shrink), 0.0)
                left[live] = levels[np.arange(live.size), drawn.sum(axis=1)]
                live, k = live[levels[:, -1] >= floor], 2 * k
            sizes = np.hstack(sizes)
            sizes = np.take_along_axis(sizes, np.argsort(bridge_rng.random(sizes.shape), axis=1), 1)
            return np.count_nonzero(sizes, axis=1), sizes[sizes > 0], np.exp(left)

        return total, bridge

    def compound_poisson(self):
        """The jumps of at least eps = _GAMMA_CUT xi, the mean of the rest
        as drift (``_CutGamma``)."""
        return _CutGamma(self.alpha, self.xi, _GAMMA_CUT * self.xi)

    def tilt(self, rho):
        return GammaMeasure(self.alpha, self.xi / (1.0 + rho * self.xi))

    def density(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(x > 0, self.alpha / x * np.exp(-x / self.xi), 0.0)
        return out

    def penalty_mass(self, w, x, v, wts):
        """q(x + v) = alpha e^{-x/xi} e^{-v/xi} / (x + v): the exponential
        splits off, so each panel is one table w / (x + v)."""
        acc = np.zeros(x.size)
        for v_row, c_row in zip(v, wts * np.exp(-v / self.xi)):
            acc += c_row @ (w(x[None, :], v_row[:, None]) / np.add.outer(v_row, x))
        return self.alpha * np.exp(-x / self.xi) * acc

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        return self.alpha * exp1(x / self.xi)

    def exp_tails(self, rho, x):
        """alpha e^{-x/xi} e^{z} E1(z) and (alpha/rho) [E1(x/xi) - e^{rho x} E1(z)]
        for z = x (rho + 1/xi), both from one scaled E1(z); the second is
        alpha/rho log(1 + rho xi) at x = 0."""
        x = np.asarray(x, dtype=float)
        z1 = x / self.xi
        e1_z = _e1_scaled(x * (rho + 1.0 / self.xi))
        tail = self.alpha * np.exp(-z1) * e1_z
        tail_tail = np.empty_like(x)
        zero = x <= 0
        tail_tail[zero] = self.alpha / rho * math.log1p(rho * self.xi)
        if (~zero).any():
            z1 = z1[~zero]
            tail_tail[~zero] = self.alpha / rho * np.exp(-z1) * (_e1_scaled(z1) - e1_z[~zero])
        return tail, tail_tail


class PHMeasure(LevyMeasureView, _CompoundPoisson):
    """Q(dx) = lam * alpha exp(x T) t dx (finite activity)."""

    def __init__(self, lam: float, ph: PhaseType):
        self.lam = lam
        self.ph = ph
        self._rate = lam

    @cached_property
    def _abscissa(self) -> float:
        return float(np.min(-self.ph._eig_action()[1].real))

    def _resolvent(self, u, power: int, rear=None):
        """alpha (uI - T)^-power r for r = ``rear`` (default the exit vector t),
        batched over u (real or complex).  With T = V diag(w) V^-1 this is the
        pole-residue sum sum_k (alpha V)_k (V^-1 r)_k / (u - w_k)^power, O(m)
        per argument over the cached eigensystem; where V is ill-conditioned
        (a defective T) it is one batched m x m solve per power, the rule
        ``PhaseType._action`` follows."""
        shape = np.shape(u)
        u = np.atleast_1d(np.asarray(u))
        rear = self.ph.exit_vector if rear is None else rear
        ok, w, v, vinv = self.ph._eig_action()
        if ok:
            out = (1.0 / np.subtract.outer(u, w)) ** power @ ((self.ph.alpha @ v) * (vinv @ rear))
            return (out if np.iscomplexobj(u) else out.real).reshape(shape)
        m = self.ph.order
        mats = u[:, None, None] * np.eye(m)[None, :, :] - self.ph.t_mat[None, :, :]
        x = np.broadcast_to(rear, (u.size, m))
        for _ in range(power):
            x = np.linalg.solve(mats, x[..., None])[..., 0]
        return (x @ self.ph.alpha).reshape(shape)

    def phi(self, u):
        # alpha (uI - T)^-1 t - 1 = -u alpha (uI - T)^-1 1 (alpha 1 = 1, t = -T 1): 0 at u = 0 exactly
        return -self.lam * u * self._resolvent(u, power=1, rear=np.ones(self.ph.order))

    def phi_prime(self, u):
        return -(self.lam * self._resolvent(u, power=2))

    def phi_second(self, u):
        return 2.0 * self.lam * self._resolvent(u, power=3)

    def moment(self, k: int) -> float:
        return self.lam * self.ph.moment(k)

    def compound_poisson(self):
        return self

    def sample_jumps(self, rng, n):
        return sample_phase_type(self.ph, rng, n)

    def sample_bridged(self, rng, m, dt):
        """The bridge takes each row's drawn jumps, iid, in their drawn order,
        which sums to the total exactly."""
        counts = rng.poisson(self.lam * dt, m)
        n_jumps = int(counts.sum())
        sizes = self.sample_jumps(rng, n_jumps) if n_jumps else np.zeros(0)
        owner = np.repeat(np.arange(m), counts)
        total = np.bincount(owner, weights=sizes, minlength=m) if n_jumps else np.zeros(m)

        def bridge(bridge_rng, rows):
            k = counts[rows]
            first = (np.cumsum(counts) - counts)[rows]  # each row's first jump in sizes
            return k, sizes[np.repeat(first - (np.cumsum(k) - k), k) + np.arange(k.sum())], 0.0

        return total, bridge

    def tilt(self, rho):
        """lam alpha e^{x (T - rho I)} t dx, renormalised through
        v = (rho I - T)^{-1} t and D = diag(v): rate lam (alpha v) and
        PhaseType(alpha D / (alpha v), D^{-1} (T - rho I) D)."""
        m = self.ph.order
        shifted = self.ph.t_mat - rho * np.eye(m)
        v = np.linalg.solve(-shifted, self.ph.exit_vector)
        mass = float(self.ph.alpha @ v)
        return PHMeasure(
            self.lam * mass, PhaseType(self.ph.alpha * v / mass, shifted * v[None, :] / v[:, None])
        )

    def density(self, x):
        return self.lam * self.ph.density(x)

    def penalty_mass(self, w, x, v, wts):
        """q(x + v) = lam sum_k R_k(x) C_k(v), with rows R(x) = alpha e^{xT}
        and columns C(v) = e^{vT} t (e^{(x+v)T} = e^{xT} e^{vT}): each panel
        adds (wts C)^T W to an (m, x.size) sum, and the rows multiply it once."""
        m = self.ph.order
        rows = self.ph._action(x, self.ph.alpha, np.eye(m))
        cols = self.ph._action(v.ravel(), np.eye(m), self.ph.exit_vector).reshape(*v.shape, m)
        acc = np.zeros((m, x.size))
        for v_row, c_rows in zip(v, wts[..., None] * cols):
            acc += c_rows.T @ w(x[None, :], v_row[:, None])
        return self.lam * np.sum(rows.T * acc, axis=0)

    def tail(self, x):
        return self.lam * self.ph.survival(x)

    def exp_tails(self, rho, x):
        """lam alpha e^{xT} (rho I - T)^{-1} r for r = t and for r = 1."""
        m = self.ph.order
        shifted, rears = rho * np.eye(m) - self.ph.t_mat, (self.ph.exit_vector, np.ones(m))
        return tuple(self.lam * self.ph.front_action(x, np.linalg.solve(shifted, rear)) for rear in rears)


# ---------------------------------------------------------------------------
# JSON ingest


def _need(doc: dict, key: str, typ, where: str, default=None):
    """doc[key], checked to be a ``typ`` (float: a JSON number, not a bool);
    ``default`` stands in for a missing key when one is given."""
    if key not in doc:
        if default is not None:
            return default
        raise SchemaError(f"{where}.{key}: missing")
    val = doc[key]
    if typ is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise SchemaError(f"{where}.{key}: expected number, got {type(val).__name__}")
        return float(val)
    if not isinstance(val, typ):
        raise SchemaError(f"{where}.{key}: expected {typ.__name__}, got {type(val).__name__}")
    return val


def _matrix(doc, key: str, where: str) -> np.ndarray:
    raw = _need(doc, key, list, where)
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise SchemaError(f"{where}.{key}[{i}]: expected row (list of numbers)")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(f"{where}.{key}[{i}][{j}]: expected number")
        rows.append([float(v) for v in row])
    return np.asarray(rows)


def model_from_dict(doc: dict, where: str = "$") -> ModelSpec:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected object")
    kind = _need(doc, "kind", str, where)
    if kind not in ALL_KINDS:
        raise SchemaError(f"{where}.kind: unknown kind {kind!r}, expected one of {ALL_KINDS}")
    mu = _need(doc, "mu", float, where, default=0.0)
    sigma = _need(doc, "sigma", float, where, default=0.0 if kind == KIND_PURE_GAMMA else None)
    try:
        if kind == KIND_BROWNIAN:
            return ModelSpec(kind=kind, mu=mu, sigma=sigma)
        if kind in _GAMMA_KINDS:
            alpha = _need(doc, "alpha", float, where)
            xi = _need(doc, "xi", float, where)
            return ModelSpec(kind=kind, mu=mu, sigma=sigma, alpha=alpha, xi=xi)
        lam = _need(doc, "lambda", float, where)
        ph_doc = _need(doc, "ph", dict, where)
        alpha_vec = _need(ph_doc, "alpha", list, f"{where}.ph")
        for i, v in enumerate(alpha_vec):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(f"{where}.ph.alpha[{i}]: expected number")
        t_mat = _matrix(ph_doc, "T", f"{where}.ph")
        ph = PhaseType(np.asarray([float(v) for v in alpha_vec]), t_mat)
        return ModelSpec(kind=kind, mu=mu, sigma=sigma, lam=lam, ph=ph)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def model_from_json(text: str) -> ModelSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return model_from_dict(doc)


def model_to_dict(model: ModelSpec) -> dict:
    doc: dict = {"kind": model.kind, "mu": model.mu, "sigma": model.sigma}
    if model.kind in _GAMMA_KINDS:
        doc["alpha"] = model.alpha
        doc["xi"] = model.xi
    elif model.kind == KIND_PH:
        doc["lambda"] = model.lam
        doc["ph"] = {
            "alpha": model.ph.alpha.tolist(),
            "T": model.ph.t_mat.tolist(),
        }
    return doc
