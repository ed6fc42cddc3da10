"""Last-passage time L_b = sup{t : D_t <= b} laws, free and reflected.

Everything is built from two ingredients: the marginal density of D_t and
the escape probability

    P(never return below b | currently at a > b) = 1 - e^{-rho(0) (a - b)},

with rho(0) the positive Lundberg root at zero discount.  In particular

    P(L_b < t)              = int_b^inf esc(a-b) f_{D_t}(a) da,
    P(L_b >= t, D_t in da)  = (1 - esc(a-b)) f_{D_t}(a) da.

For nondecreasing paths (sigma = 0) the escape probability is 1 above the
threshold and the last passage coincides with the first passage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.fft import irfft, next_fast_len
from scipy.special import gammainc, gammaincc, gammainccinv, gammaln, log_ndtr, ndtr, xlogy

from .errors import NoJumpPart, TailNotDominated, UnresolvedKernel, WrongKind
from .first_passage import PassageTransform
from .lundberg import ScaleSet, escape_probability, escape_rate
from .models import (
    KIND_BROWNIAN,
    KIND_PERTURBED_GAMMA,
    KIND_PURE_GAMMA,
    ModelSpec,
)
from .numerics import GridFunction, _pcd_core_integral

_LATTICE_TAIL = 1e-16  # |characteristic function| at the Nyquist frequency of density_lattice
_LATTICE_MAX = 1 << 18  # most lattice points per period density_lattice may use
_LATTICE_BATCH = 1 << 16  # complex entries (1 MB) per batch of density_lattice rows
_GRID_MIN_SD = 1.5  # least width, in grid steps, of the Gaussian part of a phase-type D_t grid
_ESCAPE_MAX_NODES = 1 << 21  # most frequencies a pair's own Fourier sum may need (rounded up, a 64 MB table at most)
_ESCAPE_TOL = 1e-12  # absolute error escape_mass may leave
_ESCAPE_ROUNDING = 3e-15  # measured rounding error of an escape sum per unit of its damping bound
_DAMPINGS = 0.9 * 2.0 ** (-0.5 * np.arange(25))  # candidate |gamma|, as fractions of a strip


def perturbed_gamma_density(model: ModelSpec, t: float, a) -> np.ndarray:
    """Closed-form density of D_t = mu t + G_t + sigma B_t for gamma G:

        f(a) = (sigma sqrt(t))^{alpha t - 1} / (sqrt(2 pi) xi^{alpha t})
               e^{-atil^2/(2 sigma^2 t) + z^2/4} D_{-alpha t}(z),

    with atil = a - mu t and z = sigma sqrt(t)/xi - atil/(sigma sqrt(t)),
    evaluated in log space through the parabolic-cylinder core integral.
    The prefactor power is alpha t - 1 (fixed against the direct convolution
    of the gamma and Gaussian densities, which also fixes the exponent sign).
    """
    if model.kind != KIND_PERTURBED_GAMMA:
        raise WrongKind("closed-form density needs kind=perturbed_gamma")
    a_in = np.asarray(a, dtype=float)
    scalar = a_in.ndim == 0
    a = np.atleast_1d(a_in)
    s = model.alpha * t
    st = model.sigma * math.sqrt(t)
    atil = a - model.mu * t
    z = st / model.xi - atil / st
    log_core = _pcd_core_integral(s, z)  # log int_0^inf e^{-(x+z)^2/2} x^{s-1} dx
    log_f = (
        0.5 * (st / model.xi) ** 2
        - atil / model.xi
        + (s - 1.0) * math.log(st)
        - 0.5 * math.log(2.0 * math.pi)
        - s * math.log(model.xi)
        - math.lgamma(s)
        + log_core
    )
    out = np.exp(log_f)
    return float(out[0]) if scalar else out


def density_lattice(model: ModelSpec, t, x0, step: float, n: int) -> np.ndarray:
    """f_t(x0 + j step) for j = 0..n-1: one row per horizon t_i and start x0_i.

    For perturbed gamma and phase type each row is one inverse real FFT of
    the characteristic function, e^{t psi_D(i w) + i w x0} on the frequencies
    of a lattice of step step/K (the lattice technique of Carr & Madan,
    J. Comput. Finance 2(4), 1999).  The inverse DFT samples the density
    periodised with period P = N step/K, so N is sized for P to cover each
    row and the support of the D_t law at its horizon.  Mass past that support's upper end (a
    compound-Poisson tail at short horizons) aliases onto the low end of the
    period.  The integer oversampling K is the least that brings
    |e^{t psi_D(i w)}| at the Nyquist frequency below 1e-16 for the shortest
    horizon (nothing is truncated).  psi_D is evaluated once; a horizon
    enters only through e^{t psi_D}.  A regime that would need more than
    2^18 lattice points raises ``UnresolvedKernel``.

    Brownian motion and pure gamma (sigma = 0) evaluate their closed forms
    at every lattice point, in batches of rows; pure gamma raises
    ``UnresolvedKernel`` once alpha t < 1, where its density is unbounded at
    the origin.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), t.shape)
    return density_of_dt(model, float(t.min()))._lattice(t, x0, step, n)


def _gaussian_escape_mass(u, tau: float, rho0: float):
    """int_u^inf (1 - e^{-rho0 (v - u)}) phi_tau(v) dv for v ~ N(0, tau^2):

        Phi-bar(u/tau) - e^{rho0 u + (rho0 tau)^2 / 2} Phi-bar(u/tau + rho0 tau),

    formed as -Phi-bar(u/tau) expm1(.) with the exponent taken from log
    normal tails, so it neither overflows nor loses the far right tail.
    """
    z = np.asarray(u, dtype=float) / tau
    a = rho0 * tau
    expo = a * z + 0.5 * a * a + log_ndtr(-(z + a)) - log_ndtr(-z)
    return np.clip(-ndtr(-z) * np.expm1(expo), 0.0, 1.0)


def _softplus(x):
    """log(1 + e^x) without overflow: np.logaddexp(0, x), at a third of its cost.
    e^{-|x|} is floored at e^{-700}, which moves no value above 1e-304 and
    keeps exp off its slow underflow path (the escape bounds at betas near
    the abscissa run to |x| in the thousands)."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(np.maximum(-np.abs(x), -700.0)))


@dataclass(frozen=True)
class MarginalDensityD:
    """Law of D_t = mu t + J_t + sigma B_t at horizon t, one subclass per model kind.

    Each subclass holds its kind's support, grid size and point density (called
    as the object); closed forms replace the base's Fourier escape mass.  ``f``
    tabulates the density on ``n`` points over the support for quadratures
    over D_t, on first use, so a closed-form kind's points cost no grid.
    """

    model: ModelSpec
    t: float
    n = 4097  # points of the grid f, a class constant per kind

    def _support(self, t):
        """[lo, hi] of the density, for a horizon or an array of them."""
        mean = self.model.mean_d1 * t
        spread = np.sqrt(self.model.var_d1 * t)
        return mean - 10.0 * spread - 1.0, mean + 14.0 * spread + 1.0

    @cached_property
    def f(self) -> GridFunction:
        lo, hi = self._support(self.t)
        xs = np.linspace(lo, hi, self.n)
        return GridFunction(lo, xs[1] - xs[0], self._grid_values(xs))

    def _grid_values(self, xs):
        return self._pdf(xs)

    def __call__(self, a):
        out = np.asarray(self._pdf(a), dtype=float)
        return out if out.ndim else float(out)

    def escape_mass(self, c, t):
        """int_c^inf esc(a - c) f_{D_u}(a) da for every threshold/horizon pair
        (c_i, u_i) of c and t broadcast together: c of any sign, each u_i
        finite and at least the law's own horizon; P(L_c < u) for c > 0."""
        c_in, t_in = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(t, dtype=float))
        if not np.all((t_in >= self.t) & (t_in < math.inf)):
            raise ValueError(f"escape-mass horizons must be finite and at least the law's t = {self.t:g}")
        out = self._escape(np.ravel(c_in), np.ravel(t_in), escape_rate(self.model))
        return out.reshape(c_in.shape) if c_in.ndim else float(out[0])

    def _jumped(self, s, t):
        """E[e^{s D_t}; some jump by t] = e^{expo} share for Re s < A, at
        horizons t broadcast against s: expo = t phi_D(-s), and share =
        1 - e^{-t (phi_J(-s) + rate)} takes out the no-jump part (1 at an
        infinite rate); neither grows with t.  Where Re t (phi_J(-s) + rate)
        < -700 (only off the real axis) the product is below e^{-700} J(Re s),
        and the exponent of share is capped there so share stays finite."""
        model = self.model
        jump, rate = model.jumps.phi(-s), model.jumps._rate
        expo = t * (s * (model.mu + 0.5 * model.sigma**2 * s) + jump)
        if rate == math.inf:
            return expo, 1.0
        share = t * (-rate - jump)
        np.minimum(share.real, 700.0, out=share.real)
        np.expm1(share, out=share)
        return expo, np.negative(share, out=share)

    def _escape(self, c, t, rho0):
        """C(c, t) = E[g(D_t - c)], g(x) = (1 - e^{-rho0 x}) 1{x > 0}, for 1-D
        pairs (c_i, t_i): the no-jump share e^{-rate t} in closed form, plus the
        rest by the damped Fourier sum (Carr & Madan, J. Comput. Finance 2(4), 1999)

            R(c) = (h/pi) Re sum'_k rho0 e^{-s_k c} J(s_k) / (s_k (s_k + rho0)) - p / expm1(gamma P),

        J(s) = E[e^{s D_t}; some jump by t], read from ``_jumped`` as an
        exponent and a jump share, p = J(0), s_k = gamma - i k h, h = 2 pi / P,
        k = 0 halved.  The fraction transforms g on 0 < gamma < A, the jump law's
        exponential-moment abscissa, and g - 1 on -rho0 < gamma < 0 (the sum is
        then of R - p).  The sum holds the images e^{gamma n P} of its function
        at c + n P; the last term takes out their limits, p to the left and -p
        to the right.  By |R - p|(x) <= e^{rho0 x} and R(x) <= e^{-beta x} J(beta),
        0 <= beta < A, P and the last node leave each image sum and the tail
        below 1e-18 of the bound |rho0 / (gamma (gamma + rho0))| e^{-gamma c} J(gamma).
        A pair may take a damping within a factor 10 of its least bound (Lee,
        J. Comput. Finance 7(3), 2004), at most _ESCAPE_TOL over the rounding
        error per unit of bound, in at most _ESCAPE_MAX_NODES nodes; it takes
        the one with the fewest nodes.  With none, C is 1 where
        1 - C(c) <= e^{rho0 c} is below _ESCAPE_TOL, R is 0 where a Chernoff
        bound puts it below _ESCAPE_TOL, and else this raises
        ``UnresolvedKernel`` naming the first such pair.

        psi_D is evaluated once at the candidate dampings for all pairs, and
        periods only where a damping is near.  Each pair's period and top
        frequency are rounded up to powers of sqrt(2), so no pair is summed on
        more than twice its own node count, and its damping and nodes do not
        depend on the other pairs.  Pairs that share all three are summed
        together by ``_fourier_sum``.
        """
        model = self.model
        tau, edge = model.sigma * np.sqrt(t), model.jumps._abscissa
        gamma = np.concatenate([_DAMPINGS * edge, -_DAMPINGS * rho0])
        beta = edge * (1.0 - 2.0 ** -np.array([0.0, 1.0, 2.0, 4.0, 7.0, 11.0]))
        horizons, at = np.unique(t, return_inverse=True)
        expo, share = self._jumped(np.concatenate([gamma, beta]), horizons[:, None])
        log_j = np.real(expo) + np.log(np.real(share))  # log J, never formed from J
        log_jg, log_jb, jumped = log_j[:, : gamma.size], log_j[:, gamma.size :], np.exp(log_j[at, gamma.size])
        scale = np.log(np.abs(rho0 / (gamma * (gamma + rho0)))) + math.log(1e-18)
        floor = (log_jg + scale)[at] - np.outer(c, gamma)  # 1e-18 times the bound, in logs
        tau_u = model.sigma * np.sqrt(horizons)[:, None]
        w_max = (np.sqrt(np.maximum(2.0 * np.log(rho0 * tau_u / math.pi) - 2.0 * scale, 1.0)) / tau_u)[at]
        gap = beta - gamma[:, None]
        bound, period = floor - math.log(1e-18), np.full(floor.shape, np.nan)
        rounded = math.log(_ESCAPE_TOL / _ESCAPE_ROUNDING)  # largest bound with rounding inside tolerance
        while True:  # periods only where a damping is near the least bound; drop those over the node cap
            near = bound <= np.minimum(bound.min(axis=1, keepdims=True) + math.log(10.0), rounded)
            i, j = np.nonzero(near & np.isnan(period))
            with np.errstate(divide="ignore", invalid="ignore"):  # beta <= gamma, or no bound
                right = _softplus(log_jb[at[i]] - (log_jg + scale)[at[i], j, None] - gap[j] * c[i, None]) / gap[j]
            right = np.min(np.where(gap[j] > 0, right, np.inf), axis=1)
            period[i, j] = np.maximum(_softplus(rho0 * c[i] - floor[i, j]) / (rho0 + gamma[j]), right)
            capped = near & ~(w_max * period / (2.0 * np.pi) + 1.0 <= _ESCAPE_MAX_NODES)
            if not capped.any():
                break
            bound[capped] = np.inf
        done, low = near.any(axis=1), rho0 * c <= math.log(_ESCAPE_TOL)  # low: 1 - C(c) <= e^{rho0 c}
        unresolved = ~(done | low | (np.min(log_jb[at] - np.outer(c, beta), axis=1) <= math.log(_ESCAPE_TOL)))
        if unresolved.any():
            i = int(np.argmax(unresolved))
            raise UnresolvedKernel(
                f"no damping resolves the escape mass at t = {t[i]:g}, c = {c[i]:g} (sigma sqrt(t) = "
                f"{tau[i]:g}) to {_ESCAPE_TOL:g} in at most {_ESCAPE_MAX_NODES} Fourier nodes"
            )
        # each near damping's nodes, in half octaves, once its period and top
        # frequency are rounded up to powers of sqrt(2); a pair takes the
        # damping with the fewest (the first one, on a tie)
        size = np.full(near.shape, np.inf)
        size[near] = np.ceil(2.0 * np.log2(period[near])) + np.ceil(2.0 * np.log2(w_max[near]))
        pick = np.flatnonzero(done)
        damping = np.argmin(size[pick], axis=1)
        octaves = np.ceil(2.0 * np.log2([period[pick, damping], w_max[pick, damping]]))
        keys = np.column_stack([damping, octaves.T]).astype(int)
        order = np.lexsort((at[pick], *keys.T[::-1]))  # by damping, period, frequency, then horizon
        pick, keys = pick[order], keys[order]
        first = np.ones(pick.size, dtype=bool)
        first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
        starts = np.flatnonzero(first)
        out = np.zeros(c.size)
        for (j, p_exp, w_exp), members in zip(keys[starts], np.split(pick, starts[1:])):
            p = 2.0 ** (0.5 * p_exp)
            n = int(2.0 ** (0.5 * (p_exp + w_exp)) / (2.0 * np.pi)) + 2
            new = np.diff(at[members], prepend=-1) != 0
            rows = at[members][new]
            out[members] = self._fourier_sum(
                c[members], np.cumsum(new) - 1, horizons[rows], log_jg[rows, j], gamma[j], p, n, rho0
            ) - jumped[members] / math.expm1(min(gamma[j] * p, 700.0))  # past e^700 they vanish
        gaussian = jumped < 1.0
        out[gaussian] += (1.0 - jumped[gaussian]) * _gaussian_escape_mass(
            c[gaussian] - model.mu * t[gaussian], tau[gaussian], rho0
        )
        return np.clip(np.where(low & ~done, 1.0, out), 0.0, 1.0)

    def _fourier_sum(self, c, row, u, unit, gamma, p, n, rho0):
        """(h/pi) Re sum'_{k<n} rho0 e^{-s_k c} J(s_k) / (s_k (s_k + rho0)),
        s_k = gamma - i k h, h = 2 pi / p, k = 0 halved, for thresholds c at
        horizons u[row] (row nondecreasing); unit = log J(gamma) at each u.

        Each distinct horizon has one coefficient row, its terms over
        e^{unit - gamma c}, built _LATTICE_BATCH entries at a time and as
        an m x m table: node k = q m + r splits e^{i k h c} into
        e^{i r h c} e^{i q m h c}, so a threshold costs 2 m exponentials and
        a table product."""
        h = 2.0 * np.pi / p
        m = math.isqrt(n - 1) + 1
        out = np.empty(c.size)
        per = max(1, _LATTICE_BATCH // (m * m))  # coefficient rows per batch
        for r0 in range(0, u.size, per):
            coef = np.zeros((u[r0 : r0 + per].size, m * m), dtype=complex)  # row u, column q m + r
            for k in range(0, n, _LATTICE_BATCH):
                s = gamma - 1j * h * np.arange(k, min(k + _LATTICE_BATCH, n))
                expo, share = self._jumped(s, u[r0 : r0 + per, None])
                expo -= unit[r0 : r0 + per, None]  # J(s) / e^{unit} = e^{expo - unit} share
                np.multiply(rho0 / (s * (s + rho0)) * np.exp(expo, out=expo), share, out=coef[:, k : k + s.size])
            coef[:, 0] *= 0.5
            coef = coef.reshape(-1, m, m)
            lo, hi = np.searchsorted(row, [r0, r0 + per])
            batch = max(1, _LATTICE_BATCH // (2 * m if coef.shape[0] == 1 else m * m))  # pairs
            for s0 in range(lo, hi, batch):
                sub = slice(s0, min(s0 + batch, hi))
                hc = h * c[sub, None]
                e_r, e_q = np.exp(1j * hc * np.arange(m)), np.exp(1j * hc * m * np.arange(m))
                if coef.shape[0] == 1:
                    part = e_r @ coef[0].T
                else:  # each pair's own horizon row
                    part = np.matmul(coef[row[sub] - r0], e_r[..., None])[..., 0]
                out[sub] = h / np.pi * np.exp(unit[row[sub]] - gamma * c[sub]) * np.real((part * e_q).sum(axis=1))
        return out

    def check_point_density(self) -> None:
        """Raise ``UnresolvedKernel`` where point values of the density at
        horizons >= t cannot stand for it (only at sigma = 0)."""

    def _joint_mass(self, b: float) -> float:
        """P(L_b >= t): trapezoid sums of (1 - esc(a - b)) f(a) over the grid,
        split at a = b, each on as many nodes as the grid has."""
        f = self.f
        lo, hi = f.x0, f.x_max
        total = 0.0
        if lo < b:
            xs = np.linspace(lo, min(b, hi), self.n)
            total += float(np.trapezoid(f(xs), xs))
        if hi > b:
            xs = np.linspace(b, hi, self.n)
            vals = (1.0 - escape_probability(xs - b, escape_rate(self.model))) * f(xs)
            total += float(np.trapezoid(vals, xs))
        return total

    def _pdf_rows(self, t, x0, step: float, n: int) -> np.ndarray:
        """``density_lattice`` rows from a closed form ``_pdf(a, t)`` taking a
        column of horizons, _LATTICE_BATCH entries at a time."""
        out = np.empty((t.size, n))
        batch = max(1, _LATTICE_BATCH // n)
        for s in range(0, t.size, batch):
            rows = slice(s, s + batch)
            out[rows] = self._pdf(x0[rows, None] + step * np.arange(n), t[rows, None])
        return out

    def _lattice(self, t, x0, step: float, n: int) -> np.ndarray:
        """``density_lattice`` rows for horizons t >= self.t, by inverse FFTs."""
        lo, hi = self._support(t)
        period = max(n * step, float(np.max(np.maximum(hi - x0, x0 + (n - 1) * step - lo))))
        cells = math.ceil(period / step)
        ks = np.arange(1, _LATTICE_MAX // cells + 1)
        model = self.model
        decays = self.t * np.real(model.phi_d(1j * np.pi * ks / step)) <= math.log(_LATTICE_TAIL)
        if not decays.any():
            raise UnresolvedKernel(
                f"|E e^(i w D_t)| at t = {self.t:g} stays above {_LATTICE_TAIL:g} up to the "
                f"Nyquist frequency of {_LATTICE_MAX} lattice points (sigma = {model.sigma:g})"
            )
        k = int(ks[np.argmax(decays)])
        size = next_fast_len(k * cells, real=True)
        dx = step / k
        omega = 2.0 * np.pi / (size * dx) * np.arange(size // 2 + 1)
        psi = model.phi_d(1j * omega)
        out = np.empty((t.size, n))
        batch = max(1, _LATTICE_BATCH // omega.size)
        for s in range(0, t.size, batch):
            rows = slice(s, s + batch)
            spec = np.exp(t[rows, None] * psi + 1j * np.outer(x0[rows], omega))
            out[rows] = irfft(spec, size, axis=1)[:, : k * n : k] / dx
        return np.maximum(out, 0.0)


class _BrownianD(MarginalDensityD):
    """N(mu t, sigma^2 t); its escape mass is the ``bm_last_passage_cdf`` formula."""

    def _pdf(self, a, t=None):  # t: the law's horizon, or a column of them
        t = self.t if t is None else t
        scale = self.model.sigma * np.sqrt(t)
        z = (a - self.model.mu * t) / scale
        return np.exp(-0.5 * z**2) / (math.sqrt(2.0 * math.pi) * scale)

    def _escape(self, c, t, rho0):
        return _gaussian_escape_mass(c - self.model.mu * t, self.model.sigma * np.sqrt(t), rho0)

    def _lattice(self, t, x0, step, n):
        return self._pdf_rows(t, x0, step, n)


class _PerturbedGammaD(MarginalDensityD):
    """Gaussian plus gamma: the closed-form density ``perturbed_gamma_density``."""

    def _support(self, t):
        lo, hi = super()._support(t)
        top = self.model.mu * t + self.model.xi * gammainccinv(self.model.alpha * t, 1e-13)
        return lo, np.maximum(hi, top)

    def _pdf(self, a):
        return perturbed_gamma_density(self.model, self.t, a)


class _PureGammaD(_PerturbedGammaD):
    """The perturbed-gamma law at sigma = 0: D_t - mu t ~ Gamma(alpha t, xi),
    rho0 = inf, the escape mass is P(D_t > c) and L_b is the first passage."""

    n = 16385  # steep (or singular) left endpoint

    def _support(self, t):
        return self.model.mu * t, super()._support(t)[1]

    def _pdf(self, a, t=None):  # t: the law's horizon, or a column of them
        t = self.t if t is None else t
        z = (np.asarray(a) - self.model.mu * t) / self.model.xi
        shape = self.model.alpha * t
        with np.errstate(divide="ignore", invalid="ignore"):  # z < 0 is outside the support
            dens = np.exp(xlogy(shape - 1.0, z) - z - gammaln(shape)) / self.model.xi
        return np.where(z >= 0, dens, 0.0)

    def _escape(self, c, t, rho0):
        return gammaincc(self.model.alpha * t, np.maximum(c - self.model.mu * t, 0.0) / self.model.xi)

    def check_point_density(self) -> None:
        if self.model.alpha * self.t < 1.0:
            raise UnresolvedKernel(
                f"the gamma density of D_t at t = {self.t:g} has shape alpha t < 1 and is unbounded "
                "at the origin; its point values need a cell-mass chain (ROADMAP direction 2)"
            )

    def _joint_mass(self, b):
        # L_b is the first passage, so P(L_b >= t) = P(D_t <= b), exactly
        return float(gammainc(self.model.alpha * self.t, max(b - self.model.mu * self.t, 0.0) / self.model.xi))

    def _lattice(self, t, x0, step, n):
        self.check_point_density()
        return self._pdf_rows(t, x0, step, n)


class _PhaseTypeD(MarginalDensityD):
    """No closed form: the density is the grid ``f``, one inverse FFT of the
    characteristic function.  Its support reaches past the jump tail: the upper
    end is at least mu t plus the Chernoff bound of the 1e-13 quantile of J_t,
    so at short horizons the tail is not folded onto the grid's low end.  A
    Gaussian part narrower than 1.5 grid steps (short horizons at small sigma)
    is widened to 1.5 steps in ``f`` only: the mean is kept, the variance grows
    by at most (1.5 h)^2, and a grid quadrature whose threshold lies within a
    few steps of mu t is off by O(rho0 h)."""

    n = 16385  # f: kernel_a's point values and the O(h^2) sums of _joint_mass, not the chain

    def _support(self, t):
        # P(J_t > x) <= e^{t phi_J(-s) - s x} for 0 < s < A, at the 1e-13 tail
        # that _PerturbedGammaD takes from the gamma isf
        lo, hi = super()._support(t)
        s = self.model.jumps._abscissa * (1.0 - 2.0 ** -np.arange(1.0, 8.0))
        tail = np.min((np.multiply.outer(t, self.model.jumps.phi(-s)) + math.log(1e13)) / s, axis=-1)
        return lo, np.maximum(hi, self.model.mu * t + tail)

    def _grid_values(self, xs):
        h = xs[1] - xs[0]
        # the trapezoid rule keeps a Gaussian's mass only to 2 e^{-2 pi^2 (sd/h)^2}
        # (1e-19 at 1.5 steps), and the lattice could not resolve it at all
        sigma = max(self.model.sigma, _GRID_MIN_SD * h / math.sqrt(self.t))
        widened = replace(self, model=replace(self.model, sigma=sigma))
        return widened._lattice(np.array([self.t]), xs[:1], h, self.n)[0]

    def _pdf(self, a):  # the grid f on the support, 0 outside it
        return np.interp(a, self.f.grid(), self.f.values, left=0.0, right=0.0)


def density_of_dt(model: ModelSpec, t: float) -> MarginalDensityD:
    """The law of D_t for the model's kind (the one place that picks it); its
    grid has 4097 points, or 16385 for pure gamma and phase type.  Raises
    ``ValueError`` unless 0 < t < inf."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t!r}")
    if model.kind == KIND_BROWNIAN:
        law = _BrownianD
    elif model.kind == KIND_PURE_GAMMA:
        law = _PureGammaD
    elif model.kind == KIND_PERTURBED_GAMMA:
        law = _PerturbedGammaD
    else:
        law = _PhaseTypeD
    return law(model, t)


# ---------------------------------------------------------------------------
# Free-process last passage


def last_passage_cdf(model: ModelSpec, b: float, t: float) -> float:
    """P(L_b < t) = int_b^inf esc(a - b) f_{D_t}(a) da, by ``escape_mass``."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    return density_of_dt(model, t).escape_mass(b, t)


def last_passage_joint_density(model: ModelSpec, b: float, t: float, a):
    """Density of [L_b >= t, D_t in da]: (1 - esc(a-b)) f_{D_t}(a)."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    a = np.asarray(a, dtype=float)
    out = (1.0 - escape_probability(a - b, escape_rate(model))) * density_of_dt(model, t)(a)
    return out if np.ndim(out) else float(out)


def last_passage_joint_mass(model: ModelSpec, b: float, t: float) -> float:
    """P(L_b >= t): the a-integral of the joint density, split at a = b where
    the escape factor may be discontinuous (sigma = 0 kinds)."""
    if b <= 0:
        raise ValueError("threshold must be positive")
    return density_of_dt(model, t)._joint_mass(b)


def bm_last_passage_density(model: ModelSpec, b: float, t) -> np.ndarray:
    """Density of L_b for Brownian motion with drift:

        mu / (sigma sqrt(2 pi t)) exp(-(b - mu t)^2 / (2 t sigma^2)).
    """
    if model.kind != KIND_BROWNIAN:
        raise WrongKind("closed-form last-passage density needs kind=brownian_drift")
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            t > 0,
            model.mu
            / (model.sigma * np.sqrt(2.0 * np.pi * t))
            * np.exp(-((b - model.mu * t) ** 2) / (2.0 * t * model.sigma**2)),
            0.0,
        )
    return out if out.ndim else float(out)


def bm_last_passage_cdf(model: ModelSpec, b: float, t) -> np.ndarray:
    """Closed-form P(L_b < t) for Brownian motion with drift:

        Phi((mu t - b)/(sigma sqrt t)) - e^{2 mu b/sigma^2} Phi(-(mu t + b)/(sigma sqrt t)),

    the Gaussian escape mass with rho(0) = 2 mu/sigma^2, which stays finite
    where the product of the two factors would be inf * 0."""
    if model.kind != KIND_BROWNIAN:
        raise WrongKind("closed-form last-passage cdf needs kind=brownian_drift")
    t = np.asarray(t, dtype=float)
    mu, sig = model.mu, model.sigma
    with np.errstate(divide="ignore", invalid="ignore"):
        esc = _gaussian_escape_mass(b - mu * t, sig * np.sqrt(t), 2.0 * mu / sig**2)
        out = np.where(t > 0, esc, 0.0)
    return out if out.ndim else float(out)


def last_passage_overshoot_transform(
    model: ModelSpec,
    scales: ScaleSet,
    b: float,
    y,
    w,
    rho0: float | None = None,
):
    """Joint transform-density of (L_b, undershoot, overshoot):

        E[e^{-delta L_b}; b - D(L_b-) in dy, D(L_b) - b in dw] / (dy dw)
          = [e^{rho(b-y)} / phi_D'(rho) - W_delta(b-y)] [1 - e^{-rho(0) w}] q(w+y),

    for y >= 0, w > 0, with delta the scale set's discount.  The bracket is
    the delta-potential density of D at the pre-jump level b - y, on all of
    the real line.  For 0 <= y < b it equals
    e^{rho(b-y)} (1/phi_D'(rho) - tilted(b-y)) >= 0.  For y >= b the final
    crossing starts at or below the origin, W_delta(b-y) = 0 and the bracket
    is e^{rho(b-y)} / phi_D'(rho); the two branches meet at y = b because
    W_delta(0) = 0 when sigma > 0.  The scale set must tabulate [0, b].
    ``rho0``: ``escape_rate(model)`` by default; kept only because perfbench/workloads.py passes it.
    """
    if not model.has_jumps:
        raise NoJumpPart("the overshoot law requires a jump part")
    rho0 = escape_rate(model) if rho0 is None else rho0
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(y < 0):
        raise ValueError("undershoot must be nonnegative")
    if np.any(w <= 0):
        raise ValueError("overshoot must be positive")
    level = b - y  # pre-jump level D(L_b-)
    above = level > 0
    tilted = np.zeros(level.shape)
    tilted[above] = scales.tilted(level[above])
    bracket = np.exp(scales.rho * level) * (1.0 / scales.phi_prime_at_rho - tilted)
    view = model.levy_measure()
    out = bracket * (-np.expm1(-rho0 * w)) * view.density(w + y)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Reflected-process last passage


def reflected_last_passage_transform(
    model: ModelSpec,
    phi: PassageTransform,
    b: float,
    rho0: float | None = None,
) -> float:
    """E[e^{-delta L*_b}] = E[D_1] int_b^inf W'(a-b) phi(delta, a) da.

    With the bounded escape form E[D_1] W(z) = 1 - e^{-rho(0) z} this is

        rho(0) int_b^inf e^{-rho(0)(a-b)} phi(delta, a) da,

    whose integrand always decays faster than e^{-rho(0)(a-b)} since
    phi <= 1 and is decreasing in a.
    ``rho0``: ``escape_rate(model)`` by default; kept only because perfbench/workloads.py passes it.
    """
    rho0 = escape_rate(model) if rho0 is None else rho0
    a_max = phi.b_grid.x_max
    if a_max <= b:
        raise TailNotDominated("transform grid must extend beyond the threshold")
    residual = math.exp(-rho0 * (a_max - b))
    if residual > 1e-6:
        raise TailNotDominated(
            f"grid tail residual {residual:.2e} > 1e-6; extend the phi grid"
        )
    xs = np.linspace(b, a_max, 8193)
    vals = rho0 * np.exp(-rho0 * (xs - b)) * phi.b_grid(xs)
    core = float(np.trapezoid(vals, xs))
    return core + residual * float(phi.b_grid(a_max))


def reflected_last_passage_exp_joint(
    model: ModelSpec,
    scales: ScaleSet,
    b: float,
    a,
):
    """Density of [L*_b >= T, D*_T in da] for an independent T ~ Exp(delta):

        (1 - esc(a-b)) * (-d phi(delta, a)/da),
        -d phi/da = (delta/rho) W'(a) - delta W(a) = (delta/rho) u_delta(a) >= 0.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a < b):
        raise ValueError("the joint density is supported on a >= b")
    delta, rho = scales.delta, scales.rho
    minus_dphi = delta / rho * np.asarray(scales.u_delta(a))
    out = (1.0 - escape_probability(a - b, escape_rate(model))) * minus_dphi
    return out if np.ndim(out) else float(out)
