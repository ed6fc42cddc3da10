import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, gammaincc, pbdv

from levypassage.errors import (
    DegenerateLeadingCoefficient,
    GridMismatch,
    NoBracket,
    OutOfGrid,
)
from levypassage.first_passage import gamma_exact_cdf, gamma_exact_pdf
from levypassage.last_passage import last_passage_joint_mass
from levypassage.models import KIND_PURE_GAMMA, ModelSpec
from levypassage.numerics import (
    GridFunction,
    _pcd_core_integral,
    euler_inversion,
    find_root_bracketed,
    grid_convolve,
    poly_roots_complex,
)


def _park_padgett(s, x):
    """(model, b, t) whose D_t - mu t ~ Gamma(s, xi) has (b - mu t)/xi = x:
    the Park-Padgett cdf of T_b there is Q(s, x), and P(D_t <= b) is P(s, x)."""
    model = ModelSpec(kind=KIND_PURE_GAMMA, mu=0.25, alpha=s / 2.0, xi=0.5)
    return model, 0.5 + 0.5 * x, 2.0


def _q(s, x):
    return gamma_exact_cdf(*_park_padgett(s, x))


class TestIncompleteGamma:
    """The regularised incomplete gammas the Park-Padgett laws read: the
    upper one is the first-passage cdf, the lower one P(L_b >= t) = P(D_t <= b)."""

    def test_gamma_1_0_is_one(self):
        assert _q(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_gamma_1_x_is_exp(self):
        assert _q(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_against_quadrature(self):
        # brute-force quadrature oracle for Gamma(2.5, 1.3)
        oracle, _ = quad(lambda t: t**1.5 * math.exp(-t), 1.3, 80.0, epsrel=1e-13, limit=300)
        assert _q(2.5, 1.3) * math.gamma(2.5) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_complement_identity(self, s, x):
        lower = last_passage_joint_mass(*_park_padgett(s, x))
        assert _q(s, x) + lower == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("s", [0.3, 1.7, 4.2, 23.0])
    @pytest.mark.parametrize("x", [0.05, 2.0, 30.0])
    def test_against_scipy(self, s, x):
        assert _q(s, x) == pytest.approx(gammaincc(s, x), rel=1e-12, abs=1e-300)

    def test_domain_error(self):
        model, b, t = _park_padgett(1.0, 1.0)
        for call in (
            lambda: gamma_exact_cdf(model, 0.0, t),
            lambda: gamma_exact_cdf(model, b, -1.0),
            lambda: gamma_exact_pdf(model, b, 0.0),
        ):
            with pytest.raises(ValueError):
                call()


def _pcd(p, z):
    """D_p(z) = e^{z^2/4} J(z) / Gamma(-p) for p < 0, log J the core integral."""
    z = np.asarray(z, dtype=float)
    return np.exp(0.25 * z * z + _pcd_core_integral(-p, z)) / math.gamma(-p)


class TestParabolicCylinder:
    """The core integral behind ``perturbed_gamma_density``, through D_p."""

    def test_value_at_zero(self):
        # D_{-1}(0) = int_0^inf e^{-x^2/2} dx = sqrt(pi/2)
        assert float(_pcd(-1.0, 0.0)[0]) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-10)

    def test_erfc_identity(self):
        # D_{-1}(z) = e^{z^2/4} sqrt(pi/2) erfc(z/sqrt(2))
        z = 1.0
        oracle = math.exp(z * z / 4) * math.sqrt(math.pi / 2) * erfc(z / math.sqrt(2))
        assert float(_pcd(-1.0, z)[0]) == pytest.approx(oracle, rel=1e-9)

    def test_large_z_decay(self):
        assert float(_pcd(-1.0, 10.0)[0]) < 0.1 * float(_pcd(-1.0, 0.0)[0])

    @pytest.mark.parametrize("p", [-0.5, -1.0, -2.3, -7.0])
    @pytest.mark.parametrize("z", [-3.0, -0.5, 0.0, 2.0, 10.0])
    def test_against_scipy(self, p, z):
        oracle = pbdv(p, z)[0]
        assert float(_pcd(p, z)[0]) == pytest.approx(oracle, rel=1e-11)

    def test_batch_matches_scalar(self):
        zs = np.array([-6.0, -1.0, 0.0, 3.0])
        batch = _pcd(-1.7, zs)
        singles = [float(_pcd(-1.7, z)[0]) for z in zs]
        assert batch == pytest.approx(singles, rel=1e-8)


def _gf(values, h=1e-3):
    return GridFunction(0.0, h, np.asarray(values, dtype=float))


class TestGridFunction:
    def test_interpolation_and_bounds(self):
        f = GridFunction(0.0, 0.5, [0.0, 1.0, 4.0])
        assert f(0.25) == pytest.approx(0.5)
        with pytest.raises(OutOfGrid):
            f(1.5)

    def test_cumulative_matches_integral(self):
        h = 1e-3
        xs = h * np.arange(2001)
        f = GridFunction(0.0, h, np.exp(-xs))
        cum = f.cumulative()
        assert cum(2.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-7)


class TestGridConvolve:
    def test_delta_approximation_identity(self):
        h = 1e-3
        n = 2001
        xs = h * np.arange(n)
        delta = np.zeros(n)
        delta[1] = 1.0 / h  # unit-mass spike near 0
        g_vals = np.cos(xs)
        out = grid_convolve(_gf(delta), _gf(g_vals))
        # (delta_h * g)(x) = g(x - h) up to O(h)
        inside = slice(10, n - 10)
        assert np.max(np.abs(out.values[inside] - np.cos(xs[inside] - h))) < 5e-3

    def test_ones_give_ramp(self):
        h = 1e-3
        n = 1501
        one = _gf(np.ones(n))
        out = grid_convolve(one, one)
        xs = one.grid()
        assert np.max(np.abs(out.values - xs)) < 1e-12  # trapezoid exact for constants

    def test_exponential_closed_form(self):
        h = 1e-3
        n = 2049
        xs = h * np.arange(n)
        f = _gf(np.exp(-xs))
        out = grid_convolve(f, f)
        assert out(1.0) == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_fft_matches_direct(self):
        rng = np.random.default_rng(0)
        vals_a = rng.random(1500)
        vals_b = rng.random(1500)
        big = grid_convolve(_gf(vals_a), _gf(vals_b))
        direct = np.convolve(vals_a, vals_b)[:1500] * 1e-3
        direct -= 0.5e-3 * (vals_a[0] * vals_b + vals_b[0] * vals_a)
        direct[0] = 0.0
        assert np.max(np.abs(big.values - direct)) < 1e-12

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            grid_convolve(_gf(np.ones(10)), _gf(np.ones(11)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_commutative_any_data(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (_gf(rng.standard_normal(64), h=0.05) for _ in range(2))
        ab = grid_convolve(a, b)
        ba = grid_convolve(b, a)
        assert np.max(np.abs(ab.values - ba.values)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_associative_on_kernels_vanishing_at_zero(self, seed):
        # the trapezoid end-weights make the product exactly associative when
        # the factors vanish at 0, which renewal kernels do; the general
        # defect is h^2/4 * g(0) * (c(0) f - f(0) c)
        rng = np.random.default_rng(seed)
        vals = [rng.standard_normal(64) for _ in range(3)]
        for v in vals:
            v[0] = 0.0
        a, b, c = (_gf(v, h=0.05) for v in vals)
        left = grid_convolve(grid_convolve(a, b), c)
        right = grid_convolve(a, grid_convolve(b, c))
        assert np.max(np.abs(left.values - right.values)) < 1e-10


class TestEulerInversion:
    def test_constant(self):
        assert euler_inversion(lambda s: 1.0 / s, 3.0) == pytest.approx(1.0, abs=1e-8)

    def test_ramp(self):
        assert euler_inversion(lambda s: 1.0 / s**2, 2.0) == pytest.approx(2.0, abs=1e-7)

    def test_exponential(self):
        got = euler_inversion(lambda s: 1.0 / (s + 1.0), 1.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_random_rational_round_trip(self):
        # 14-term Gaver-Stehfest reads 2.4e-3 here
        rng = np.random.default_rng(7)
        ts = np.array([0.3, 1.0, 2.7])
        for _ in range(10):
            poles = rng.uniform(0.2, 3.0, size=3)
            resid = rng.uniform(-1.0, 1.0, size=3)

            def transform(s):
                return sum(r / (s + p) for r, p in zip(resid, poles))

            exact = sum(r * np.exp(-p * ts) for r, p in zip(resid, poles))
            got = euler_inversion(transform, ts)
            scale = np.maximum(np.abs(exact), 1e-3)
            assert np.max(np.abs(got - exact) / scale) < 1e-6

    def test_shape_and_domain(self):
        ts = np.array([[0.5, 1.0], [2.0, 4.0]])
        got = euler_inversion(lambda s: 1.0 / (s + 2.0), ts)
        assert got.shape == ts.shape
        np.testing.assert_allclose(got, np.exp(-2.0 * ts), rtol=0.0, atol=1e-8)
        with pytest.raises(ValueError):
            euler_inversion(lambda s: 1.0 / s, np.array([1.0, 0.0]))


class TestRootFinding:
    def test_sqrt2(self):
        assert find_root_bracketed(lambda x: x * x - 2.0, 1.0, 2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-14
        )

    def test_cosine(self):
        assert find_root_bracketed(math.cos, 1.0, 2.0) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_lundberg_quadratic(self):
        # delta - phi_D for Brownian drift: root (mu + sqrt(mu^2+2 delta s^2))/s^2
        mu, sig, delta = 1.0, 1.0, 0.5
        f = lambda u: delta - (-mu * u + 0.5 * sig * sig * u * u)
        root = find_root_bracketed(f, 1.0, 5.0)
        assert root == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-13)

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)


class TestPolyRoots:
    def test_pure_imaginary(self):
        roots = sorted(poly_roots_complex([1.0, 0.0, 1.0]), key=lambda z: z.imag)
        assert roots[0] == pytest.approx(-1j, abs=1e-12)
        assert roots[1] == pytest.approx(1j, abs=1e-12)

    def test_integer_roots(self):
        roots = sorted(poly_roots_complex([1.0, -3.0, 2.0]), key=lambda z: z.real)
        assert roots[0] == pytest.approx(1.0, abs=1e-12)
        assert roots[1] == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_cubic_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        true_roots = rng.uniform(-2.0, 2.0, 3) + 1j * rng.uniform(-1.0, 1.0, 3)
        coeffs = np.poly(true_roots)
        got = poly_roots_complex(coeffs)
        got_sorted = np.sort_complex(got)
        want_sorted = np.sort_complex(true_roots)
        assert np.max(np.abs(got_sorted - want_sorted)) < 1e-8

    def test_degenerate(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            poly_roots_complex([0.0, 1.0, 2.0])
        with pytest.raises(DegenerateLeadingCoefficient):
            poly_roots_complex([3.0])
