"""Shared numerical kernels.

Special functions (2F2, the parabolic-cylinder core integral), tabulated
functions on uniform grids with trapezoid convolution, Gaver-Stehfest
weights for numerical Laplace inversion, and root finding.
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

# 4-point Gauss-Legendre rule on [0, 1]
_GL4_NODES = np.array(
    [0.06943184420297371, 0.33000947820757187, 0.6699905217924281, 0.9305681557970263]
)
_GL4_WEIGHTS = np.array(
    [0.17392742256872693, 0.3260725774312731, 0.3260725774312731, 0.17392742256872693]
)


# ---------------------------------------------------------------------------
# Grid functions


@dataclass(frozen=True)
class GridFunction:
    """A real function tabulated on the uniform grid x0 + h*k, k = 0..n-1.

    Evaluation interpolates linearly; points outside the grid raise
    OutOfGrid unless ``extrapolate`` is "zero".
    """

    x0: float
    h: float
    values: np.ndarray
    extrapolate: str = "error"  # "error" | "zero"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if self.h <= 0:
            raise ValueError("grid step must be positive")
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("grid needs at least two values")
        if self.extrapolate not in ("error", "zero"):
            raise ValueError(f"unknown extrapolation mode {self.extrapolate!r}")

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
        if self.extrapolate == "error" and not inside.all():
            bad = x[~inside][0]
            raise OutOfGrid(f"x={bad:g} outside grid [{lo:g}, {hi:g}]")
        if self.extrapolate == "zero":
            out = np.zeros_like(x)
            out[inside] = np.interp(np.clip(x[inside], lo, hi), self.grid(), self.values)
        else:
            out = np.interp(np.clip(x, lo, hi), self.grid(), self.values)
        return float(out[0]) if scalar else out

    # -- calculus on the grid

    def cumulative(self) -> "GridFunction":
        """Trapezoid antiderivative on the same grid, starting at 0."""
        vals = self.values
        cum = np.concatenate(([0.0], np.cumsum(0.5 * self.h * (vals[1:] + vals[:-1]))))
        return GridFunction(self.x0, self.h, cum, extrapolate=self.extrapolate)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.x0, self.h, values, extrapolate=self.extrapolate)


def grid_convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Causal convolution (f*g)(x_k) = int_0^{x_k} f(y) g(x_k - y) dy.

    Trapezoid end-weights; the FFT path for long grids gives identical weights.
    Both inputs must share the grid and have x0 = 0.
    """
    if not f.same_grid(g):
        raise GridMismatch("convolution requires identical grids")
    if abs(f.x0) > 1e-12:
        raise GridMismatch("convolution grids must start at 0")
    a, b = f.values, g.values
    n = a.size
    if n > 1024:
        m = 1 << int(np.ceil(np.log2(2 * n)))
        full = np.fft.irfft(np.fft.rfft(a, m) * np.fft.rfft(b, m), m)[:n]
    else:
        full = np.convolve(a, b)[:n]
    out = f.h * (full - 0.5 * a[0] * b - 0.5 * b[0] * a)
    out[0] = 0.0
    return GridFunction(f.x0, f.h, out, extrapolate=f.extrapolate)


def cell_nodes(x0: float, h: float, n_cells: int):
    """Gauss-Legendre nodes/weights for cells [x0+k h, x0+(k+1) h], k<n_cells.

    Returns (nodes, weights) with shape (n_cells, 4); sum(f(nodes)*weights,
    axis=1) integrates f over each cell with degree-7 accuracy.  Nodes never
    touch cell endpoints, so integrable endpoint singularities are tolerated.
    """
    starts = x0 + h * np.arange(n_cells)[:, None]
    nodes = starts + h * _GL4_NODES[None, :]
    weights = np.broadcast_to(h * _GL4_WEIGHTS[None, :], nodes.shape)
    return nodes, weights


def cumulative_from_cells(cell_integrals: np.ndarray) -> np.ndarray:
    """Prefix sums of per-cell integrals, prepended with 0 (grid-aligned)."""
    return np.concatenate(([0.0], np.cumsum(cell_integrals)))


# ---------------------------------------------------------------------------
# Generalized hypergeometric 2F2


def hyp2f2(a: float, b: float, c: float, d: float, z: float, max_terms: int = 10000) -> float:
    """2F2(a, b; c, d; z) by direct series with term recurrence.

    Stops once |term| < 1e-15 |partial sum| for three consecutive terms.
    """
    for p, name in ((c, "c"), (d, "d")):
        if p <= 0 and p == int(p):
            raise ValueError(f"{name} must not be a nonpositive integer")
    total = 1.0
    term = 1.0
    quiet = 0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (d + k)) * z / (k + 1.0)
        total += term
        if abs(term) < 1e-15 * max(abs(total), 1e-300):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
    raise NoConvergence(f"2F2 series not converged after {max_terms} terms")


# ---------------------------------------------------------------------------
# Parabolic-cylinder core integral: D_p(z) = e^{z^2/4} J(z) / Gamma(-p) for p < 0


def _pcd_core_integral(s: float, z) -> np.ndarray:
    """J(z) = int_0^inf exp(-(x+z)^2/2) x^(s-1) dx, vectorized over z.

    The x^(s-1) endpoint singularity (s < 1) is removed with the substitution
    v = x^s on [0, 1]; beyond 1 three Gauss-Legendre panels track the peak of
    the Gaussian factor at x = max(1, -z).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    # piece 1: x in [0, 1] with a Gauss-Jacobi rule carrying the exact
    # x^(s-1) weight, so the endpoint singularity/steepness never appears
    xj, wj = _jacobi_rule(s)
    p1 = 2.0 ** (-s) * np.sum(
        np.exp(-0.5 * (xj[None, :] + z[:, None]) ** 2) * wj[None, :], axis=1
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
            integ = np.exp(-0.5 * (xs + z[:, None]) ** 2 + (s - 1.0) * np.log(xs))
        total = total + span * np.sum(integ * _GL64_WEIGHTS[None, :], axis=1)
    return total


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
# Gaver-Stehfest weights


@lru_cache(maxsize=8)
def stehfest_coefficients(n: int) -> np.ndarray:
    """Gaver-Stehfest weights V_k, k = 1..n (n even), computed exactly."""
    half = n // 2
    v = np.empty(n)
    for k in range(1, n + 1):
        total = 0
        for j in range((k + 1) // 2, min(k, half) + 1):
            num = j**half * math.factorial(2 * j)
            den = (
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k)
            )
            total += num // den if num % den == 0 else num / den
        v[k - 1] = (-1) ** (k + half) * total
    return v


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
