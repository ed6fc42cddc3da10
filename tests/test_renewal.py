import numpy as np
import pytest
from scipy.special import exp1

from levypassage.errors import SeriesNotConverged, UsageError
from levypassage.first_passage import pk_series_transform
from levypassage.lundberg import build_scale_set, solve_lundberg
from levypassage.models import KIND_PERTURBED_GAMMA, GammaMeasure, ModelSpec, PhaseType, PHMeasure
from levypassage.numerics import GridFunction, cell_nodes, grid_convolve
from levypassage.renewal import (
    PenaltySpec,
    _penalty_rule,
    _solve,
    build_renewal_kernels,
    renewal_series,
)


def _term_loop(g, first, tol=1e-18):
    """sum_k g*k * first one term at a time, until a term's sup-norm is below
    tol: the reference of the exact solve."""
    term, total = first, first.values.copy()
    for _ in range(5000):
        if np.max(np.abs(term.values)) < tol:
            return total
        term = grid_convolve(g, term)
        total += term.values
    raise AssertionError("term loop did not converge")


class TestRenewalSeries:
    @pytest.mark.parametrize("delta", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("fixture", ["pgamma_model", "ph2_model"])
    def test_solve_is_the_term_sum(self, fixture, delta, request):
        # the grid solve under renewal_series, for the PK series (first = h)
        # and the ODE-series scale route (first = h' + g)
        model = request.getfixturevalue(fixture)
        kernels = build_renewal_kernels(model, solve_lundberg(model, delta), 4.0, 2049)
        ode_first = kernels.h_prime.with_values(kernels.h_prime.values + kernels.g.values)
        for first in (kernels.h, ode_first):
            want = _term_loop(kernels.g, first)
            got = _solve(kernels.g.values, first.values, kernels.g.h)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_extrapolated_solve_on_a_smooth_kernel(self):
        # g = x e^{-2x}, first = 1: phi = 4/3 - e^{-x}/2 + e^{-3x}/6.  The grid
        # solve is O(h^2) off (5.6e-7); renewal_series's Richardson step leaves 7e-12
        xs = np.linspace(0.0, 4.0, 2049)
        g = GridFunction(0.0, xs[1], xs * np.exp(-2.0 * xs))
        want = 4.0 / 3.0 - np.exp(-xs) / 2.0 + np.exp(-3.0 * xs) / 6.0
        first = g.with_values(np.ones(xs.size))
        assert np.max(np.abs(_solve(g.values, first.values, g.h) - want)) > 1e-7
        assert np.max(np.abs(renewal_series(g, first) - want)) < 1e-10

    @pytest.mark.parametrize("mass", [3.0, 1e4])
    def test_kernel_of_mass_above_one_raises(self, mass):
        # mass times a Gamma(2, 1/50) density, so the terms grow like mass^k
        # across the grid; at 1e4 the solution overflows
        xs = np.linspace(0.0, 4.0, 2049)
        g = GridFunction(0.0, xs[1], mass * 2500.0 * xs * np.exp(-50.0 * xs))
        with pytest.raises(SeriesNotConverged):
            renewal_series(g, g.with_values(np.ones(xs.size)))

    @pytest.mark.parametrize("sigma, delta", [(0.1, 0.5), (0.02, 0.01)])
    def test_unresolved_pk_series_raises(self, sigma, delta):
        # rho(delta) > 2 mu / sigma^2 puts the kernels' scale 1/rho under 0.01,
        # short of the step 20/1024; at sigma = 0.1 a term sum reads 8% low at b = 2
        model = ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.5, sigma=sigma, alpha=1.0, xi=1.0)
        with pytest.raises(SeriesNotConverged):
            pk_series_transform(model, delta, b_max=20.0, n=1025)

    def test_unresolved_ode_series_scale_raises(self):
        # the same grid through the ODE-series scale route, where a term sum
        # makes W 2.3 times its exact value at b = 1
        model = ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.5, sigma=0.1, alpha=1.0, xi=1.0)
        with pytest.raises(SeriesNotConverged):
            build_scale_set(model, 0.5, 20.0, 1025)


class TestOmega:
    """omega(x) = int_0^inf e^{-c v} q(x + v) dv at every cell node of a
    renewal grid, through the quadrature rule build_renewal_kernels uses."""

    C = 1.3
    NODES = cell_nodes(0.0, 4.0 / 2048, 2048)[0].ravel()

    def _omega(self, view):
        rule = _penalty_rule(float(view.default_x_max()), self.NODES.min())
        return view.penalty_mass(lambda u, v: np.exp(-self.C * v) + 0.0 * u, self.NODES, *rule)

    @pytest.mark.parametrize("alpha, xi", [(1.0, 1.0), (1.5, 0.7)])
    def test_gamma(self, alpha, xi):
        view = GammaMeasure(alpha, xi)
        want = alpha * np.exp(self.C * self.NODES) * exp1((self.C + 1.0 / xi) * self.NODES)
        np.testing.assert_allclose(self._omega(view), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "alpha, t_mat",
        [
            ([0.6, 0.4], [[-2.0, 0.5], [0.3, -1.0]]),
            ([1.0, 0.0, 0.0], [[-2.0, 1.5, 0.0], [0.0, -2.0, 1.5], [1.5, 0.0, -2.0]]),
        ],
    )
    def test_phase_type(self, alpha, t_mat):
        # lam alpha e^{xT} (cI - T)^{-1} t
        view = PHMeasure(0.8, PhaseType(alpha, t_mat))
        rear = np.linalg.solve(self.C * np.eye(view.ph.order) - view.ph.t_mat, view.ph.exit_vector)
        want = view.lam * view.ph.front_action(self.NODES, rear)
        np.testing.assert_allclose(self._omega(view), want, rtol=1e-12, atol=0.0)


def _kernels_mpmath(model, rho, y, eps, creep):
    """g, h and h' at y for a gamma model and omega(x) = Qbar(x + eps), each
    outer integral int_0^y e^{-kappa (y-s)} R(s) ds by mpmath quadrature of
    the closed inner tails R, at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        alpha, xi, rho, y = mp.mpf(model.alpha), mp.mpf(model.xi), mp.mpf(rho), mp.mpf(y)
        two_over_s2 = 2 / mp.mpf(model.sigma) ** 2
        kappa = max(rho - two_over_s2 * mp.mpf(model.mu), 0)

        def exp_tail(s):
            return alpha * mp.exp(rho * s) * mp.e1(s * (rho + 1 / xi))

        def exp_tail_tail(s):
            return alpha / rho * (mp.e1(s / xi) - mp.exp(rho * s) * mp.e1(s * (rho + 1 / xi)))

        # the inner tails change over s ~ 1/rho
        edges = sorted({mp.mpf(0), y, *(p for p in (1 / rho, 10 / rho) if p < y)})

        def outer(f):
            return mp.quad(lambda s: mp.exp(-kappa * (y - s)) * f(s), edges)

        conv = outer(lambda s: exp_tail_tail(s + eps))
        creep_y = creep * mp.exp(-kappa * y)
        return (
            float(two_over_s2 * outer(exp_tail)),
            float(creep_y + two_over_s2 * conv),
            float(-kappa * creep_y + two_over_s2 * (exp_tail_tail(y + eps) - kappa * conv)),
        )


class TestKernels:
    @pytest.mark.parametrize("penalty", [PenaltySpec(), PenaltySpec("overshoot_indicator", 0.3)], ids=["one", "eps"])
    @pytest.mark.parametrize("sigma", [None, 0.05])
    def test_against_mpmath(self, pgamma_model_wide, sigma, penalty):
        # the tail term of h by parts, Qbar never at a node: at sigma = 0.05
        # the node quadrature of Qbar once left h 2e-6 off near 0
        pytest.importorskip("mpmath")
        model = (
            pgamma_model_wide
            if sigma is None
            else ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.5, sigma=sigma, alpha=1.0, xi=1.0)
        )
        rho = solve_lundberg(model, 0.5)
        kernels = build_renewal_kernels(model, rho, 4.0, 2049, penalty)
        for i in (1, 2, 8, 64, 512, 2048):
            want = _kernels_mpmath(model, rho, kernels.g.h * i, penalty.eps, penalty.creep_value())
            got = [kernels.g.values[i], kernels.h.values[i], kernels.h_prime.values[i]]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"node {i}")

    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_overshoot_of_exponential_jumps(self, ph_model, eps):
        # Exp(theta) jumps are memoryless: given a jump crossing, the
        # overshoot is Exp(theta), so the transform scales by e^{-theta eps};
        # at b = 0 both are 0 up to the FFT product's rounding
        theta = -ph_model.ph.t_mat[0, 0]
        at_zero = pk_series_transform(ph_model, 0.5, PenaltySpec("overshoot_indicator", 0.0)).b_grid.values
        got = pk_series_transform(ph_model, 0.5, PenaltySpec("overshoot_indicator", eps)).b_grid.values
        np.testing.assert_allclose(got, np.exp(-theta * eps) * at_zero, rtol=1e-12, atol=1e-16)


class TestPenaltySpec:
    @pytest.mark.parametrize("eps", [-0.5, float("nan"), float("inf")])
    def test_bad_threshold_raises(self, eps):
        with pytest.raises(UsageError):
            PenaltySpec("overshoot_indicator", eps)

    @pytest.mark.parametrize("w", [None, 1.0])
    def test_unknown_tag_without_callable_raises(self, w):
        # a misspelt tag once fell through to the callable branch and died in a TypeError
        with pytest.raises(UsageError):
            PenaltySpec("overshoot-indicator", 0.5, w)
