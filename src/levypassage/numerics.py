"""Shared numerical kernels.

A special function (the parabolic-cylinder core integral, by one quadrature
rule summed in log space around its integrand's peak), grid functions with
trapezoid convolution, power-series products and Newton reciprocals by FFT
at power-of-two lengths no longer than twice the series (short ones by direct
convolution), Laplace inversion by Euler summation, and root finding.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .errors import (
    DegenerateLeadingCoefficient,
    GridMismatch,
    NoBracket,
    NoConvergence,
    OutOfGrid,
)

_EPS = np.finfo(float).eps
# below about this many coefficients a power-series product is cheaper by
# np.convolve than by FFT, whose cost there is mostly call overhead
_DIRECT_TERMS = 256

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
    """The first n coefficients of the power-series product a(z) b(z).

    Up to _DIRECT_TERMS coefficients it is ``np.convolve``.  Beyond, with
    p = 2^floor(log2(n - 1)), so that p < n <= 2p, the first p coefficients
    of each factor go through one FFT of length 2p, which holds their whole
    product, and the n - p coefficients past p of each factor enter by a
    product of their own, truncated to n - p terms; the two past p never
    meet below z^2p.  On the library's 2^k + 1 node grids those two are one
    term each, where padding past n would double the FFT."""
    a, b = a[:n], b[:n]
    if n <= _DIRECT_TERMS:
        out = np.convolve(a, b)[:n]
        return np.concatenate((out, np.zeros(n - out.size)))
    p = 1 << (n - 2).bit_length()
    out = np.fft.irfft(np.fft.rfft(a[:p], 2 * p) * np.fft.rfft(b[:p], 2 * p), 2 * p)[:n]
    for high, low in ((a, b), (b, a)):
        if high.size > p:
            out[p:] += series_product(high[p:], low, n - p)
    return out


def series_reciprocal(a: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of 1/a(z), a[0] != 0, by Newton's iteration
    (Brent & Kung, J. ACM 25, 1978): if a inv = 1 + z^k e(z) with inv of k
    terms, then inv - z^k inv e is right to 2k terms.  The steps double k
    through the powers of two and end with one step to n.

    A step from k to m terms reads e from the coefficients k..m-1 of
    a[:m] inv, the middle product (Hanrot, Quercia & Zimmermann, AAECC 14,
    2004): at a cyclic FFT length L >= m its wrapped terms land below k,
    where they are not read, and inv e, of m - 1 terms, does not wrap, so
    both products share the spectrum of inv.  A step adding fewer than
    _DIRECT_TERMS coefficients takes both products by ``np.convolve``."""
    a = np.concatenate((a[:n], np.zeros(n - a[:n].size)))
    inv = np.array([1.0 / a[0]])
    while inv.size < n:
        k = inv.size
        m = min(2 * k, n)
        if m - k < _DIRECT_TERMS:
            e = np.convolve(a[1:m], inv, "valid")  # e[t] = sum_i a[k + t - i] inv[i]
            step = np.convolve(inv[: m - k], e)[: m - k]
        else:
            size = 1 << (m - 1).bit_length()
            spectrum = np.fft.rfft(inv, size)
            e = np.fft.irfft(np.fft.rfft(a[:m], size) * spectrum, size)[k:m]
            step = np.fft.irfft(np.fft.rfft(e, size) * spectrum, size)[: m - k]
        inv = np.concatenate((inv, -step))
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

    Each node's term w x^(s-1) e^{-(x+z)^2/2} is kept as a log and summed
    relative to the largest, so log J stays finite where J leaves the doubles.
    Three 64-point Gauss-Legendre panels span 8 curvature widths below the
    peak x*, x*(x* + z) = s - 1, to 16 above.  A peak within 8 widths of 0 is
    read as at least e = min(1, 40/z), and a Gauss-Jacobi rule carrying
    x^fmod(s - 1, 1) spans [0, e], over which e^{-x z} falls by at most e^{-40}.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))[:, None]
    root = 0.5 * (np.sqrt(np.maximum(z * z + 4.0 * (s - 1.0), 0.0)) - z)
    power = max(s - 1.0, 0.0)  # below s = 1 the widths are the Gaussian factor's
    far = root**2 + power > 64.0  # root > 8 root / sqrt(root^2 + power): the peak is over 8 widths clear of 0
    edge = 40.0 / np.maximum(z, 40.0)
    peak = np.where(far, root, np.maximum(root, edge))
    width = peak / np.sqrt(peak**2 + power)
    lo = np.where(far, peak - 8.0 * width, edge)
    edges = np.concatenate((lo, peak + width * np.array([1.0, 4.0, 16.0])), axis=1)
    starts = np.concatenate((0.0 * lo, edges[:, :-1]), axis=1)[:, :, None]
    spans = np.concatenate((np.minimum(lo, edge), np.diff(edges, axis=1)), axis=1)[:, :, None]
    rule_nodes, rule_log_w = _rules(math.fmod(s - 1.0, 1.0))
    out = np.empty(len(z))
    for i in range(0, len(z), 64):  # blocks of 64 rows keep the 64 x 256 terms in cache
        b = slice(i, i + 64)
        nodes = starts[b] + spans[b] * rule_nodes
        terms = np.log(spans[b]) + rule_log_w + (s - 1.0) * np.log(nodes) - 0.5 * (nodes + z[b, :, None]) ** 2
        top = terms.max(axis=(1, 2))
        out[b] = top + np.log(np.exp(terms - top[:, None, None]).sum(axis=(1, 2)))
    return out


@lru_cache(maxsize=256)
def _rules(beta: float):
    """Nodes and log weights on [0, 1], one row per piece: first the 64-point
    Gauss-Jacobi rule for int_0^1 f(y) dy, exact when f(y)/y^beta is a polynomial
    of degree < 128, by Golub-Welsch (scipy's roots_jacobi loses 1e-11 as beta
    nears -1); then 64-point Gauss-Legendre for each of the three panels."""
    k = np.arange(1.0, 64.0)
    c = 2.0 * k + beta
    diag = np.concatenate(([beta / (beta + 2.0)], beta**2 / (c * (c + 2.0))))
    u, v = eigh_tridiagonal(diag, 2.0 * k * (k + beta) / (c * np.sqrt(c * c - 1.0)))
    y, (x, w) = 0.5 * (1.0 + u), np.polynomial.legendre.leggauss(64)
    log_w = 2.0 * np.log(np.abs(v[0])) - math.log(beta + 1.0) - beta * np.log(y)
    return np.vstack([y] + 3 * [0.5 * (1.0 + x)]), np.vstack([log_w] + 3 * [np.log(0.5 * w)])


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
