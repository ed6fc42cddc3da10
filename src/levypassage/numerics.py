"""Shared numerical kernels.

A special function (the parabolic-cylinder core integral, in log space),
grid functions with trapezoid convolution, power-series products and reciprocals
by FFT, Laplace inversion by Euler summation, and root finding.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (
    DegenerateLeadingCoefficient,
    GridMismatch,
    NoBracket,
    NoConvergence,
    OutOfGrid,
)

_EPS = np.finfo(float).eps

# 5-point Gauss-Legendre rule on [0, 1]
_GL_CELL_NODES, _GL_CELL_WEIGHTS = np.polynomial.legendre.leggauss(5)
_GL_CELL_NODES = 0.5 * (_GL_CELL_NODES + 1.0)
_GL_CELL_WEIGHTS = 0.5 * _GL_CELL_WEIGHTS


# ---------------------------------------------------------------------------
# Grid functions


@dataclass(frozen=True)
class GridFunction:
    """A real function tabulated on the uniform grid x0 + h*k, k = 0..n-1.

    Evaluation interpolates linearly; points outside the grid raise
    OutOfGrid.
    """

    x0: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if self.h <= 0:
            raise ValueError("grid step must be positive")
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("grid needs at least two values")

    # -- basic geometry

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x_max(self) -> float:
        return self.x0 + self.h * (self.n - 1)

    def grid(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.n)

    def same_grid(self, other: "GridFunction") -> bool:
        return (
            self.n == other.n
            and abs(self.x0 - other.x0) <= 1e-12 * max(1.0, abs(self.x0))
            and abs(self.h - other.h) <= 1e-12 * self.h
        )

    # -- evaluation

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        lo, hi = self.x0, self.x_max
        tol = 1e-9 * max(self.h, 1.0)
        inside = (x >= lo - tol) & (x <= hi + tol)
        if not inside.all():
            bad = x[~inside][0]
            raise OutOfGrid(f"x={bad:g} outside grid [{lo:g}, {hi:g}]")
        out = np.interp(np.clip(x, lo, hi), self.grid(), self.values)
        return float(out[0]) if scalar else out

    # -- calculus on the grid

    def cumulative(self) -> "GridFunction":
        """Trapezoid antiderivative on the same grid, starting at 0."""
        vals = self.values
        cum = np.concatenate(([0.0], np.cumsum(0.5 * self.h * (vals[1:] + vals[:-1]))))
        return GridFunction(self.x0, self.h, cum)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.x0, self.h, values)


def series_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of the power-series product a(z) b(z), by FFT
    at a power-of-two length long enough that nothing wraps below z^n."""
    a, b = a[:n], b[:n]
    m = 1 << (max(n, a.size + b.size - 1) - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, m) * np.fft.rfft(b, m), m)[:n]


def series_reciprocal(a: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of 1/a(z), a[0] != 0, by Newton's iteration:
    if a inv = 1 + z^k e(z), then inv - z^k inv e is right to 2k terms.  The
    steps end on the sizes ceil(n / 2^j), so the last one lands on n."""
    inv = np.array([1.0 / a[0]])
    for j in reversed(range((n - 1).bit_length())):
        m = -(-n >> j)  # ceil(n / 2^j)
        e = series_product(a, inv, m)[inv.size :]
        inv = np.concatenate((inv, -series_product(inv, e, m - inv.size)))
    return inv


def grid_convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Causal convolution (f*g)(x_k) = int_0^{x_k} f(y) g(x_k - y) dy: the
    series product of the samples with trapezoid end-weights.  Both inputs
    must share the grid and have x0 = 0."""
    if not f.same_grid(g):
        raise GridMismatch("convolution requires identical grids")
    if abs(f.x0) > 1e-12:
        raise GridMismatch("convolution grids must start at 0")
    a, b = f.values, g.values
    out = f.h * (series_product(a, b, a.size) - 0.5 * a[0] * b - 0.5 * b[0] * a)
    out[0] = 0.0
    return GridFunction(f.x0, f.h, out)


def cell_nodes(x0: float, h: float, n_cells: int):
    """Gauss-Legendre nodes/weights for cells [x0+k h, x0+(k+1) h], k<n_cells.

    Returns (nodes, weights) with shape (n_cells, 5); sum(f(nodes)*weights,
    axis=1) integrates f over each cell with degree-9 accuracy.  Nodes never
    touch cell endpoints, so integrable endpoint singularities are tolerated.
    """
    starts = x0 + h * np.arange(n_cells)[:, None]
    nodes = starts + h * _GL_CELL_NODES[None, :]
    weights = np.broadcast_to(h * _GL_CELL_WEIGHTS[None, :], nodes.shape)
    return nodes, weights


def cumulative_from_cells(cell_integrals: np.ndarray) -> np.ndarray:
    """Prefix sums of per-cell integrals, prepended with 0 (grid-aligned)."""
    return np.concatenate(([0.0], np.cumsum(cell_integrals)))


# ---------------------------------------------------------------------------
# Parabolic-cylinder core integral: D_p(z) = e^{z^2/4} J(z) / Gamma(-p) for p < 0


def _pcd_core_integral(s: float, z) -> np.ndarray:
    """log J(z), J(z) = int_0^inf exp(-(x+z)^2/2) x^(s-1) dx, vectorized over z.

    The factor e^{-max(z, 0)^2/2} is taken out into the log: at z > 0 the
    integrand is e^{-x^2/2 - x z} x^(s-1) times it, which would underflow
    past z = 37.6 while J itself is about Gamma(s)/z^s.  The x^(s-1)
    endpoint singularity (s < 1) is removed with the substitution v = x^s on
    [0, 1]; beyond 1 three Gauss-Legendre panels track the peak of the
    Gaussian factor at x = max(1, -z).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    lift = 0.5 * np.maximum(z, 0.0) ** 2
    # piece 1: x in [0, 1] with a Gauss-Jacobi rule carrying the exact
    # x^(s-1) weight, so the endpoint singularity/steepness never appears
    xj, wj = _jacobi_rule(s)
    p1 = 2.0 ** (-s) * np.sum(
        np.exp(lift[:, None] - 0.5 * (xj[None, :] + z[:, None]) ** 2) * wj[None, :], axis=1
    )
    # piece 2: panels [1, c1], [c1, c2], [c2, up] hugging the peak; the tail
    # width also grows with sqrt(s) since x^(s-1) pushes mass right
    peak = np.maximum(1.0, -z)
    width = 1.0 + math.sqrt(max(s, 1.0)) * 0.5
    c1 = np.maximum(1.0 + 1e-12, peak - 4.0 * width)
    c2 = np.maximum(c1 + 0.5, peak + 4.0 * width)
    up = np.maximum(c2 + 1.0, peak + 12.0 * width)
    total = p1
    for lo, hi in ((np.full_like(z, 1.0), c1), (c1, c2), (c2, up)):
        span = hi - lo
        xs = lo[:, None] + span[:, None] * _GL64_NODES[None, :]
        with np.errstate(over="ignore"):
            integ = np.exp(lift[:, None] - 0.5 * (xs + z[:, None]) ** 2 + (s - 1.0) * np.log(xs))
        total = total + span * np.sum(integ * _GL64_WEIGHTS[None, :], axis=1)
    with np.errstate(divide="ignore"):  # far tails: J underflows, log J = -inf
        return np.log(total) - lift


def _gl_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_GL64_NODES, _GL64_WEIGHTS = _gl_rule(64)


@lru_cache(maxsize=256)
def _jacobi_rule_cached(s_key: float):
    from scipy.special import roots_jacobi

    u, w = roots_jacobi(48, 0.0, s_key - 1.0)
    return 0.5 * (1.0 + u), w


def _jacobi_rule(s: float):
    return _jacobi_rule_cached(round(float(s), 14))


# ---------------------------------------------------------------------------
# Laplace inversion

# Euler summation (Abate & Whitt, ORSA J. Comput. 7, 1995): the Bromwich
# integral on Re s = A/(2t) by the trapezoid rule, whose alternating series
# is summed to N terms and then binomially averaged over M more.  The
# discretization error is about e^{-A} sup|f| (1e-8); the e^{A/2} prefactor
# multiplies rounding, so a larger A buys nothing in doubles.
_EULER_A, _EULER_N, _EULER_M = 18.4, 15, 11
_EULER_NODES = 0.5 * (_EULER_A + 2j * math.pi * np.arange(_EULER_N + _EULER_M + 1))
# term N + i enters the partial sums s_{N+j}, j >= i, each weighted C(M, j) 2^-M
_EULER_TAIL = np.cumsum([math.comb(_EULER_M, j) for j in range(_EULER_M, 0, -1)])[::-1] / 2.0**_EULER_M
_EULER_WEIGHTS = (-1.0) ** np.arange(_EULER_N + _EULER_M + 1) * np.concatenate(([0.5], np.ones(_EULER_N), _EULER_TAIL))


def euler_inversion(transform: Callable[[np.ndarray], np.ndarray], t):
    """f(t) from its Laplace transform F by Euler summation, for t > 0.

    ``transform`` takes an array of complex abscissae and returns F there,
    elementwise; it is called once, on the (points x 27) node array, and
    must be analytic on Re s > 0 with f continuous at every t."""
    t = np.asarray(t, dtype=float)
    ts = t.ravel()
    if np.any(ts <= 0):
        raise ValueError("Laplace inversion needs t > 0")
    f = math.exp(0.5 * _EULER_A) / ts * (np.real(transform(_EULER_NODES[None, :] / ts[:, None])) @ _EULER_WEIGHTS)
    return f.reshape(t.shape) if t.ndim else float(f[0])


# ---------------------------------------------------------------------------
# Root finding


def find_root_bracketed(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12) -> float:
    """Brent root of f on [lo, hi]; requires a sign change."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NoBracket(f"f({lo:g})={flo:g} and f({hi:g})={fhi:g} do not bracket a root")
    root = brentq(f, lo, hi, xtol=1e-15, rtol=4 * _EPS, maxiter=200)
    fr = f(root)
    if abs(fr) > tol and abs(hi - lo) > 1e-14 * max(1.0, abs(root)):
        # brentq converged on interval width; accept unless residual is wild
        if abs(fr) > max(tol, 1e-8 * (abs(flo) + abs(fhi))):
            raise NoConvergence(f"root residual {fr:g} above tolerance {tol:g}")
    return root


def poly_roots_complex(coeffs: Sequence[float]) -> np.ndarray:
    """All complex roots of a polynomial (coefficients highest degree first)."""
    c = np.asarray(coeffs, dtype=complex)
    if c.size < 2:
        raise DegenerateLeadingCoefficient("polynomial degree must be >= 1")
    if c[0] == 0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    roots = np.roots(c)
    norm = np.linalg.norm(np.abs(c))
    resid = np.abs(np.polyval(c, roots))
    scale = np.maximum(1.0, np.abs(roots)) ** (c.size - 1)
    if np.any(resid > 1e-8 * norm * scale):
        raise NoConvergence("polynomial root residuals above tolerance")
    return roots
