import numpy as np
import pytest
from scipy.special import exp1

from levypassage.errors import SeriesNotConverged
from levypassage.first_passage import pk_series_transform
from levypassage.lundberg import build_scale_set, solve_lundberg
from levypassage.models import KIND_PERTURBED_GAMMA, GammaMeasure, ModelSpec, PhaseType, PHMeasure
from levypassage.numerics import GridFunction, cell_nodes, grid_convolve
from levypassage.renewal import _penalty_rule, build_renewal_kernels, renewal_series


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
        # the PK series (first = h) and the ODE-series scale route (first = h' + g)
        model = request.getfixturevalue(fixture)
        kernels = build_renewal_kernels(model, delta, solve_lundberg(model, delta).rho, 4.0, 2049)
        ode_first = kernels.h_prime.with_values(kernels.h_prime.values + kernels.g.values)
        for first in (kernels.h, ode_first):
            want = _term_loop(kernels.g, first)
            got = renewal_series(kernels.g, first)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

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
