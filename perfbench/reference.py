"""Reference values computed apart from ``levypassage``.

Nothing here imports the program.  Models arrive as the plain parameter
dicts the workloads draw (``kind``, ``mu``, ``sigma``, ``alpha``, ``xi``,
``lam``, ``ph_alpha``, ``ph_t``) and every formula is built from the
benchmark's own Laplace exponent

    phi(u) = -mu u + sigma^2 u^2 / 2 + (jump part),   E[e^{-u D_t}] = e^{t phi(u)}.

Routes, chosen so that none repeats an algorithm of the program:

* Brownian and phase-type models: phi(u) - delta is rational, so every
  quantity is a residue sum over the roots r_i of phi(r) = delta.  The roots
  come from the cleared polynomial sampled on a circle (inverse FFT), then
  Newton-polished on phi itself.
* Perturbed gamma: Talbot inversion (mpmath, 18 digits) of the exact Laplace
  transforms in the threshold variable.
* Pure gamma: the Park-Padgett law through scipy.special.gammaincc, its
  density as an integral over the gamma kernel.
* P(L_b < t): the Gaussian part is integrated in closed form (log_ndtr), the
  jump part by quadrature against the gamma density or the Poisson mixture of
  phase-type convolutions (block phase-type propagation).

The module is imported only after set-up time is measured, so its imports
(mpmath in particular) never count towards ``setup_s``.
"""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
from scipy import integrate, linalg, optimize, special

mp.mp.dps = 18
# the quadratures below ask for 1e-13 relative, at the edge of double
# precision; QUADPACK's round-off notice there is expected and carries no news
warnings.filterwarnings("ignore", category=integrate.IntegrationWarning)


# ---------------------------------------------------------------------------
# Laplace exponent and its roots


def ph_exit(p) -> np.ndarray:
    return -np.asarray(p["ph_t"]) @ np.ones(len(p["ph_alpha"]))


def phi(p, u):
    """Own phi_D(u) for real or complex u (numpy scalars or arrays)."""
    u = np.asarray(u)
    out = -p["mu"] * u + 0.5 * p["sigma"] ** 2 * u * u
    if p["kind"] in ("pure_gamma", "perturbed_gamma"):
        out = out - p["alpha"] * np.log(1.0 + u * p["xi"])
    elif p["kind"] == "perturbed_cp_ph":
        out = out + p["lam"] * (_ph_lt(p, u) - 1.0)
    return out


def phi_prime(p, u):
    u = np.asarray(u)
    out = -p["mu"] + p["sigma"] ** 2 * u
    if p["kind"] in ("pure_gamma", "perturbed_gamma"):
        out = out - p["alpha"] * p["xi"] / (1.0 + u * p["xi"])
    elif p["kind"] == "perturbed_cp_ph":
        out = out - p["lam"] * _ph_lt(p, u, power=2)
    return out


def _ph_lt(p, u, power: int = 1):
    """alpha (uI - T)^-power t: E[e^{-uJ}] for power 1, minus its u-derivative for 2."""
    a = np.asarray(p["ph_alpha"], dtype=complex)
    t_mat = np.asarray(p["ph_t"], dtype=complex)
    ex = ph_exit(p).astype(complex)
    flat = np.atleast_1d(u).astype(complex).ravel()
    out = np.empty(flat.size, dtype=complex)
    eye = np.eye(len(a))
    for j, uj in enumerate(flat):
        m = uj * eye - t_mat
        v = ex
        for _ in range(power):
            v = np.linalg.solve(m, v)
        out[j] = a @ v
    if not np.iscomplexobj(u) and np.all(np.abs(out.imag) == 0):
        out = out.real
    return out.reshape(np.shape(u)) if np.ndim(u) else out[0]


def rho(p, delta: float) -> float:
    """Positive root of phi(r) = delta (sigma > 0) by bracketing on phi itself."""
    if p["sigma"] == 0:
        return math.inf
    if p["kind"] == "brownian_drift":
        gam = math.sqrt(p["mu"] ** 2 + 2.0 * delta * p["sigma"] ** 2)
        return (p["mu"] + gam) / p["sigma"] ** 2
    f = lambda u: float(np.real(phi(p, u))) - delta
    fp = lambda u: float(np.real(phi_prime(p, u)))
    hi = 1.0
    while fp(hi) <= 0 or f(hi) <= 0:
        hi *= 2.0
    lo = optimize.brentq(fp, 0.0, hi, xtol=1e-15) if delta == 0 else 0.0
    return optimize.brentq(f, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)


def roots(p, delta: float) -> np.ndarray:
    """All roots of phi(r) = delta for a Brownian or phase-type model.

    (phi(u) - delta) det(uI - T) is a polynomial of degree m + 2; its
    coefficients are read off samples on a circle by an inverse FFT, and each
    root of it is then polished by Newton steps on phi - delta."""
    m = len(p["ph_alpha"]) if p["kind"] == "perturbed_cp_ph" else 0
    deg = m + 2
    n = 4 * (deg + 1)
    radius = 1.0 + rho(p, delta)
    if m:
        radius = max(radius, 1.0 + float(np.max(np.abs(np.linalg.eigvals(p["ph_t"])))))
    zs = radius * np.exp(2j * np.pi * np.arange(n) / n)
    vals = np.array(
        [
            (complex(phi(p, z)) - delta)
            * (np.linalg.det(z * np.eye(m) - np.asarray(p["ph_t"])) if m else 1.0)
            for z in zs
        ]
    )
    coef = np.fft.fft(vals) / n / radius ** np.arange(n)  # ascending powers
    r = np.roots(coef[: deg + 1][::-1])
    out = []
    for z in r:
        for _ in range(50):
            step = (complex(phi(p, z)) - delta) / complex(phi_prime(p, z))
            z = z - step
            if abs(step) <= 1e-15 * max(1.0, abs(z)):
                break
        out.append(z)
    out = np.array(out)
    if len(out) != deg or np.min(np.abs(out - rho(p, delta))) > 1e-9 * rho(p, delta):
        raise ArithmeticError("root set of phi(r) = delta not recovered")
    return out


class Residues:
    """Residue-sum forms for a Brownian or phase-type model at discount delta.

    W(x) = sum_i e^{r_i x}/phi'(r_i) over all roots r_i of phi(r) = delta."""

    def __init__(self, p, delta: float):
        self.p = p
        self.delta = delta
        self.rho = rho(p, delta)
        r = roots(p, delta)
        pos = np.argmin(np.abs(r - self.rho))
        r[pos] = self.rho
        self.r = r
        self.neg = np.delete(r, pos)
        self.dphi = np.array([complex(phi_prime(p, z)) for z in r])
        self.dphi_neg = np.delete(self.dphi, pos)
        self.dphi_rho = float(np.real(self.dphi[pos]))

    def _sum(self, coef, rr, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.real(np.exp(np.outer(x, rr)) @ coef)

    def w(self, x):
        return self._sum(1.0 / self.dphi, self.r, x)

    def w_prime(self, x):
        return self._sum(self.r / self.dphi, self.r, x)

    def z(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        c = 1.0 / (self.r * self.dphi)
        return 1.0 + self.delta * (self._sum(c, self.r, x) - np.real(np.sum(c)))

    def bracket(self, x):
        """e^{rho x}/phi'(rho) - W(x): the delta-potential density at level x."""
        return -self._sum(1.0 / self.dphi_neg, self.neg, x)

    def _fp_coef(self):
        return self.delta * (1.0 / self.neg - 1.0 / self.rho) / self.dphi_neg

    def first_passage(self, b):
        """E[e^{-delta T_b}]."""
        return self._sum(self._fp_coef(), self.neg, b)

    def creep(self, b):
        """E[e^{-delta T_b}; D(T_b) = b] = (sigma^2/2)(W'(b) - rho W(b))."""
        c = 0.5 * self.p["sigma"] ** 2 * (self.neg - self.rho) / self.dphi_neg
        return self._sum(c, self.neg, b)

    def reflected_last(self, b, rho0: float):
        """rho0 int_b^inf e^{-rho0 (a-b)} E[e^{-delta T_a}] da."""
        return rho0 * self._sum(self._fp_coef() / (rho0 - self.neg), self.neg, b)


# ---------------------------------------------------------------------------
# Perturbed gamma: Talbot inversion of exact transforms


class GammaTalbot:
    """Threshold-variable Laplace transforms of a perturbed-gamma model."""

    def __init__(self, p, delta: float):
        self.p = p
        self.delta = delta
        self.rho = rho(p, delta)
        self.dphi_rho = float(phi_prime(p, self.rho))

    def _phi(self, s):
        p = self.p
        return -p["mu"] * s + 0.5 * p["sigma"] ** 2 * s * s - p["alpha"] * mp.log(1 + s * p["xi"])

    def _fp_hat(self, s):
        d = self.delta
        return 1 / s + d / (self._phi(s) - d) * (1 / s - 1 / mp.mpf(self.rho))

    @staticmethod
    def _inv(fn, x):
        return float(mp.invertlaplace(fn, x, method="talbot"))

    def first_passage(self, b):
        return np.array([self._inv(self._fp_hat, x) for x in np.atleast_1d(b)])

    def bracket(self, x):
        k = mp.mpf(self.rho)
        fn = lambda s: 1 / (self.dphi_rho * (s - k)) - 1 / (self._phi(s) - self.delta)
        return np.array([self._inv(fn, v) for v in np.atleast_1d(x)])

    def reflected_last(self, b, rho0: float):
        r0 = mp.mpf(rho0)
        base = self._fp_hat(r0)
        fn = lambda s: (base - self._fp_hat(s)) / (s - r0)
        return rho0 * np.array([self._inv(fn, v) for v in np.atleast_1d(b)])

    def _tilted(self, fn, x):
        return np.array([math.exp(self.rho * v) * self._inv(fn, v) for v in np.atleast_1d(x)])

    def w(self, x):
        k, d = self.rho, self.delta
        return self._tilted(lambda s: 1 / (self._phi(s + k) - d), x)

    def w_prime(self, x):
        k, d = self.rho, self.delta
        return self._tilted(lambda s: (s + k) / (self._phi(s + k) - d), x)

    def z(self, x):
        k, d = self.rho, self.delta
        return self._tilted(
            lambda s: 1 / (s + k) + d / ((s + k) * (self._phi(s + k) - d)), x
        )


def scale_reference(p, delta: float):
    """Residue forms for Brownian / phase-type models, Talbot for perturbed gamma."""
    if p["kind"] == "perturbed_gamma":
        return GammaTalbot(p, delta)
    return Residues(p, delta)


def brownian_first_passage(p, delta: float, b):
    gam = math.sqrt(p["mu"] ** 2 + 2.0 * delta * p["sigma"] ** 2)
    return np.exp(-np.asarray(b, dtype=float) * (gam - p["mu"]) / p["sigma"] ** 2)


def brownian_passage_cdf(p, b: float, t):
    """P(T_b <= t) for Brownian motion with drift (inverse Gaussian), in log space."""
    t = np.asarray(t, dtype=float)
    st = p["sigma"] * np.sqrt(t)
    second = np.exp(2.0 * p["mu"] * b / p["sigma"] ** 2 + special.log_ndtr(-(b + p["mu"] * t) / st))
    return special.ndtr((p["mu"] * t - b) / st) + second


def threshold_laplace(p, delta: float, beta: float) -> float:
    """int_0^inf e^{-beta b} E[e^{-delta T_b}] db
    = 1/beta + delta/(beta (phi(beta) - delta)) - delta/(rho (phi(beta) - delta))."""
    f = float(np.real(phi(p, beta))) - delta
    return 1.0 / beta + delta / f * (1.0 / beta - 1.0 / rho(p, delta))


def simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule on an odd number of equally spaced values."""
    if values.size % 2 == 0:
        raise ValueError("Simpson needs an odd number of nodes")
    w = np.ones(values.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, values))


# ---------------------------------------------------------------------------
# Levy density of the jump part


def levy_density(p, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if p["kind"] == "perturbed_gamma":
        return p["alpha"] / x * np.exp(-x / p["xi"])
    a = np.asarray(p["ph_alpha"])
    t_mat = np.asarray(p["ph_t"])
    ex = ph_exit(p)
    return p["lam"] * np.array([a @ linalg.expm(v * t_mat) @ ex for v in x])


# ---------------------------------------------------------------------------
# Pure gamma (Park-Padgett)


def gamma_passage_cdf(p, b: float, t):
    """P(T_b <= t) = Q(alpha t, b / xi) for the driftless pure gamma process."""
    t = np.asarray(t, dtype=float)
    return special.gammaincc(p["alpha"] * t, b / p["xi"])


def gamma_passage_pdf(p, b: float, t: float) -> float:
    """d/dt Q(alpha t, z) = alpha int_z^inf (ln x - psi(s)) x^{s-1} e^{-x} dx / Gamma(s)."""
    s = p["alpha"] * t
    z = b / p["xi"]
    psi = special.digamma(s)
    lg = special.gammaln(s)
    f = lambda x: (math.log(x) - psi) * math.exp((s - 1.0) * math.log(x) - x - lg)
    val, _ = integrate.quad(f, z, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return p["alpha"] * val


def gamma_first_passage(p, delta: float, b: float) -> float:
    """E[e^{-delta T_b}] = int_0^inf delta e^{-delta t} P(T_b <= t) dt."""
    f = lambda t: delta * math.exp(-delta * t) * float(gamma_passage_cdf(p, b, t))
    val, _ = integrate.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    return val


# ---------------------------------------------------------------------------
# P(L_b < t) from an independent law of D_t


def _gauss_escape(c, b: float, s: float, rho0: float):
    """E[esc(c + s N - b); c + s N > b] with esc(z) = 1 - e^{-rho0 z}, N ~ N(0, 1)."""
    c = np.asarray(c, dtype=float)
    x = (c - b) / s
    log_second = -rho0 * (c - b) + 0.5 * (rho0 * s) ** 2 + special.log_ndtr(x - rho0 * s)
    return special.ndtr(x) - np.exp(log_second)


def last_passage_cdf(p, b: float, t: float) -> float:
    """P(L_b < t) = E[esc(D_t - b); D_t > b]."""
    if p["kind"] == "pure_gamma":
        return float(special.gammaincc(p["alpha"] * t, (b - p["mu"] * t) / p["xi"]))
    rho0 = rho(p, 0.0)
    s = p["sigma"] * math.sqrt(t)
    drift = p["mu"] * t
    if p["kind"] == "brownian_drift":
        return float(_gauss_escape(drift, b, s, rho0))
    if p["kind"] == "perturbed_gamma":
        shape = p["alpha"] * t
        xi = p["xi"]
        top = xi * max(float(special.gammainccinv(shape, 1e-18)), 1.0) * 1.5
        f = lambda g: math.exp(-g / xi) * float(_gauss_escape(drift + g, b, s, rho0))
        val, _ = integrate.quad(
            f, 0.0, top, weight="alg", wvar=(shape - 1.0, 0.0), epsabs=1e-17, epsrel=1e-13, limit=400
        )
        return val / (math.gamma(shape) * xi**shape)
    return _ph_last_passage_cdf(p, b, t, s, rho0)


def _ph_last_passage_cdf(p, b, t, s, rho0, panels: int = 64, nodes: int = 20) -> float:
    """Poisson mixture over the jump count k; S_k (sum of k phase-type sizes)
    is phase type with a block-bidiagonal generator, propagated exactly."""
    lt = p["lam"] * t
    k_max = int(lt + 8.0 * math.sqrt(lt) + 12)
    a = np.asarray(p["ph_alpha"], dtype=float)
    t_mat = np.asarray(p["ph_t"], dtype=float)
    ex = ph_exit(p)
    m = a.size
    big = np.zeros((k_max * m, k_max * m))
    for k in range(k_max):
        big[k * m : (k + 1) * m, k * m : (k + 1) * m] = t_mat
        if k + 1 < k_max:
            big[k * m : (k + 1) * m, (k + 1) * m : (k + 2) * m] = np.outer(ex, a)
    start = np.zeros(k_max * m)
    start[:m] = a
    pois = np.exp(
        np.arange(1, k_max + 1) * math.log(lt) - lt - special.gammaln(np.arange(2, k_max + 2))
    )
    mean_j = lt * float(a @ np.linalg.solve(-t_mat, np.ones(m)))
    top = 2.0 * mean_j + 40.0 / float(np.min(np.abs(np.linalg.eigvals(t_mat)))) + 10.0
    while True:
        u_top = start @ linalg.expm(top * big)
        tail = sum(pois[k] * u_top[: (k + 1) * m].sum() for k in range(k_max))
        if tail < 1e-17:
            break
        top *= 1.5
    width = top / panels
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    gx, gw = 0.5 * (gx + 1.0), 0.5 * gw
    node_props = [linalg.expm(v * width * big) for v in gx]
    panel_prop = linalg.expm(width * big)
    exit_blocks = np.kron(np.eye(k_max), ex.reshape(m, 1))  # (k_max m) x k_max
    u = start.copy()
    total = 0.0
    for j in range(panels):
        x0 = j * width
        dens = np.array([(u @ node_props[i]) @ exit_blocks @ pois for i in range(nodes)])
        total += width * float(np.dot(gw, dens * _gauss_escape(p["mu"] * t + x0 + gx * width, b, s, rho0)))
        u = u @ panel_prop
    return float(math.exp(-lt) * _gauss_escape(p["mu"] * t, b, s, rho0) + total)


# ---------------------------------------------------------------------------
# Digits


DIGITS_CAP = -math.log10(np.finfo(float).eps)  # 15.65: double precision


def digits(got: float, want: float) -> float:
    """Correct significant digits of ``got`` against ``want``, capped at double precision."""
    if got == want:
        return DIGITS_CAP
    rel = abs(got - want) / max(abs(want), np.finfo(float).tiny)
    return float(min(DIGITS_CAP, -math.log10(rel)))
