import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import levypassage.lundberg as lundberg
from levypassage.errors import NoConvergence, NoPerturbation, Overflow, RepeatedRoots, WrongKind
from levypassage.lundberg import (
    ROUTE_CLOSED,
    ROUTE_INVERSION,
    ROUTE_ODE_SERIES,
    build_scale_set,
    escape_probability,
    escape_rate,
    lundberg_truncated,
    residue_roots,
    solve_lundberg,
)
from levypassage.models import KIND_PERTURBED_GAMMA, KIND_PH, KIND_PURE_GAMMA, ModelSpec, PhaseType
from levypassage.reflected import reflected_passage_density


def bisect(fn, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSolveLundberg:
    def test_bm_delta_zero(self, bm_model):
        assert solve_lundberg(bm_model, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_bm_quadratic(self, bm_model):
        assert solve_lundberg(bm_model, 0.5) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)

    def test_perturbed_gamma_vs_bisection(self, pgamma_model):
        # independent bisection oracle on rho^2/2 - log(1+rho) = 1
        oracle = bisect(lambda r: 0.5 * r * r - math.log1p(r) - 1.0, 1.0, 4.0)
        assert solve_lundberg(pgamma_model, 1.0) == pytest.approx(oracle, abs=1e-12)

    def test_residual_invariant(self, pgamma_model_wide, ph2_model):
        for model in (pgamma_model_wide, ph2_model):
            for delta in (0.0, 0.25, 1.0, 4.0):
                rho = solve_lundberg(model, delta)
                assert rho > 0
                assert abs(float(model.phi_d(rho)) - delta) <= 1e-10 * max(1.0, delta)

    def test_small_sigma_residual_is_relative(self):
        # rho = 1e7: phi_D(rho) sums terms near 5e7 whose rounding leaves a
        # residual of 3.1e-9, which an absolute 1e-9 test took for no root
        model = ModelSpec(kind=KIND_PH, mu=5.0, sigma=1e-3, lam=1.0, ph=PhaseType([1.0], [[-1.0]]))
        rho = solve_lundberg(model, 0.0)
        assert rho == pytest.approx(1e7, rel=1e-6)
        assert abs(float(model.phi_d(rho))) <= 1e-9 * (model.sigma * rho) ** 2

    @pytest.mark.parametrize("mu, sigma", [(0.5, 1e-3), (5.0, 0.1), (0.01, 3.0), (50.0, 1e-2)])
    def test_bm_generic_root_is_the_quadratic(self, mu, sigma):
        # Brownian drift takes the same bracketed solve as every kind
        model = ModelSpec(kind="brownian_drift", mu=mu, sigma=sigma)
        for delta in (0.0, 1e-6, 0.5, 100.0):
            exact = (mu + math.sqrt(mu * mu + 2.0 * delta * sigma**2)) / sigma**2
            assert solve_lundberg(model, delta) == pytest.approx(exact, rel=1e-13)

    def test_sigma_zero_rejected(self, gamma_model):
        with pytest.raises(NoPerturbation):
            solve_lundberg(gamma_model, 0.5)

    def test_off_root_raises_typed_error(self, pgamma_model, monkeypatch):
        # the residual check must survive python -O, so it cannot be an assert
        exact = lundberg.find_root_bracketed
        monkeypatch.setattr(
            lundberg, "find_root_bracketed", lambda f, lo, hi: exact(f, lo, hi) + 0.1
        )
        with pytest.raises(NoConvergence):
            solve_lundberg(dataclasses.replace(pgamma_model), 0.5)  # a copy holds no solved root

    def test_root_solved_once_per_model(self, pgamma_model, monkeypatch):
        model = dataclasses.replace(pgamma_model)
        calls = []
        phi_d = ModelSpec.phi_d
        monkeypatch.setattr(ModelSpec, "phi_d", lambda self, u: calls.append(u) or phi_d(self, u))
        first = solve_lundberg(model, 0.7)
        assert calls
        calls.clear()
        assert solve_lundberg(model, 0.7) == first and not calls
        # a copy with another sigma solves its own root, as a new model would
        wider = dataclasses.replace(model, sigma=2.0)
        fresh = ModelSpec(kind=model.kind, mu=model.mu, sigma=2.0, alpha=model.alpha, xi=model.xi)
        assert solve_lundberg(wider, 0.7) == solve_lundberg(fresh, 0.7) != first
        assert calls and solve_lundberg(model, 0.7) == first
        # a failed solve is not kept
        exact = lundberg.find_root_bracketed
        with monkeypatch.context() as patch:
            patch.setattr(lundberg, "find_root_bracketed", lambda f, lo, hi: exact(f, lo, hi) + 0.1)
            with pytest.raises(NoConvergence):
                solve_lundberg(model, 0.3)
        assert float(phi_d(model, solve_lundberg(model, 0.3))) == pytest.approx(0.3, abs=1e-9)


class TestLundbergTruncated:
    def test_monotone_in_level(self, pgamma_model):
        rho = solve_lundberg(pgamma_model, 1.0)
        seq = [lundberg_truncated(pgamma_model, 1.0, n) for n in (10, 100, 1000)]
        assert seq[0] <= seq[1] <= seq[2] <= rho
        assert rho - seq[-1] < 2e-3

    def test_monotone_in_delta(self, pgamma_model, ph_model):
        for model in (pgamma_model, ph_model):
            for n in (16, 256):
                roots = [lundberg_truncated(model, d, n) for d in (0.1, 1.0, 10.0)]
                assert roots[0] < roots[1] < roots[2]

    def test_ph_converges(self, ph_model):
        # finite activity: truncation only removes the tiny-jump mass
        rho = solve_lundberg(ph_model, 1.0)
        assert abs(lundberg_truncated(ph_model, 1.0, 2048) - rho) < 5e-4


class TestEscape:
    def test_rate_bm(self, bm_model):
        assert escape_rate(bm_model) == pytest.approx(2.0, rel=1e-13)

    def test_rate_pure_gamma_is_infinite(self, gamma_model):
        assert math.isinf(escape_rate(gamma_model))
        assert escape_probability(0.5, math.inf) == 1.0
        assert escape_probability(-0.5, math.inf) == 0.0

    def test_probability_form(self):
        assert escape_probability(1.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0))
        assert escape_probability(0.0, 2.0) == 0.0
        assert escape_probability(-3.0, 2.0) == 0.0


class TestClosedFormBM:
    def test_vanishes_at_zero(self, bm_model):
        scales = build_scale_set(bm_model, 0.7, 1.0, 65, route=ROUTE_CLOSED)
        assert scales.w.values[0] == 0.0

    def test_laplace_transform_identity(self, bm_model):
        # trapezoid sum of the closed-form table against 1/(phi_D(lambda) - delta)
        delta = 0.5
        rho = solve_lundberg(bm_model, delta)
        lam = rho + 1.0
        scales = build_scale_set(bm_model, delta, 40.0, 2**16 + 1, route=ROUTE_CLOSED)
        expect = 1.0 / (float(bm_model.phi_d(lam)) - delta)
        assert scales.laplace_numeric(lam) == pytest.approx(expect, rel=1e-6)

    def test_delta_zero_form(self, bm_model):
        # W_0(x) = (e^{rho0 x} - 1)/mu; its bounded companion
        # E[D_1] e^{-rho0 x} W_0(x) = 1 - e^{-rho0 x} is the escape probability
        x = 1.0
        scales = build_scale_set(bm_model, 0.0, 2.0, 3, route=ROUTE_CLOSED)
        w0 = float(scales.w.values[1])
        assert w0 == pytest.approx((math.exp(2.0 * x) - 1.0), rel=1e-12)
        bounded = bm_model.mean_d1 * math.exp(-2.0 * x) * w0
        assert bounded == pytest.approx(float(escape_probability(x, 2.0)), rel=1e-12)

    def test_wrong_kind(self, pgamma_model):
        with pytest.raises(WrongKind):
            build_scale_set(pgamma_model, 0.5, 1.0, route=ROUTE_CLOSED)


class TestClosedFormPH:
    def test_vanishes_at_zero(self, ph_model):
        scales = build_scale_set(ph_model, 0.5, 1.0, 65, route=ROUTE_CLOSED)
        assert scales.w.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_root_cardinality(self, bm_model, ph_model, ph2_model):
        # besides rho, m + 1 roots with Re r < 0; at delta = 0 one is r = 0 exactly
        for model, m in ((bm_model, 0), (ph_model, 1), (ph2_model, 2)):
            rho, others, _ = residue_roots(model, 0.5)
            assert rho == solve_lundberg(model, 0.5)
            assert others.size == m + 1
            assert np.all(others.real < 0)
            _, others, _ = residue_roots(model, 0.0)
            assert others.size == m + 1
            assert np.count_nonzero(others == 0.0) == 1
            assert np.all(others[others != 0.0].real < 0)

    def test_tiny_delta(self, bm_model, ph_model):
        # the root near -delta/E[D_1] comes out of the polynomial to 1e-16
        # absolute; a Newton step gives it its sign and digits, where at
        # delta = 1e-13 it counted as r = 0 and raised CardinalityMismatch
        for model in (bm_model, ph_model):
            _, others, _ = residue_roots(model, 1e-13)
            assert np.max(others.real) == pytest.approx(-1e-13 / model.mean_d1, rel=1e-9)

    def test_roots_solve_lundberg_reflection(self, ph2_model):
        # every root satisfies phi_D(r) = delta, rho and the roots left of the
        # axis (the reflected set, once kept as xi = -r) alike, and the
        # residues are 1/phi_D'(r)
        for delta in (0.0, 0.8):
            rho, others, res = residue_roots(ph2_model, delta)
            roots = np.append(others, rho)
            assert np.max(np.abs(np.asarray(ph2_model.phi_d(roots)) - delta)) < 1e-8
            assert np.max(np.abs(res * ph2_model.phi_d_prime(others) - 1.0)) < 1e-12

    def test_against_inversion_oracle(self, ph_model):
        # mpmath's Talbot inversion at 30 digits of 1/(phi_D(s + rho) - delta),
        # with phi_D the order-1 exponent u^2/2 + 1/(1+u) - 1 written in mpmath
        import mpmath as mp

        delta = 0.5
        w = build_scale_set(ph_model, delta, 2.0, 2049, route=ROUTE_CLOSED).w
        rho = solve_lundberg(ph_model, delta)

        def tilted(s):
            u = s + rho
            return 1 / (u * u / 2 + 1 / (1 + u) - 1 - delta)

        with mp.workdps(30):
            for x in (0.5, 1.0, 2.0):
                oracle = float(mp.invertlaplace(tilted, x, method="talbot") * mp.exp(rho * x))
                assert w(x) == pytest.approx(oracle, rel=1e-5)

    def test_real_valued_on_grid(self, ph2_model):
        # conjugate pairs cancel: the residue sum for W is real on the grid
        _, others, res = residue_roots(ph2_model, 1.0)
        xs = np.linspace(0.0, 4.0, 101)
        w = build_scale_set(ph2_model, 1.0, 4.0, 101, route=ROUTE_CLOSED).w.values
        terms = np.exp(np.outer(xs, others)) @ res
        assert np.max(np.abs(terms.imag)) < 1e-10 * max(1.0, np.max(np.abs(w)))

    def test_delta_zero_accepted(self, ph_model):
        # the residue sums hold at delta = 0 too; a negative delta is refused
        scales = build_scale_set(ph_model, 0.0, 4.0, 65, route=ROUTE_CLOSED)
        assert scales.w.values[0] == 0.0
        assert np.all(np.diff(scales.w.values) > 0)
        with pytest.raises(ValueError):
            residue_roots(ph_model, -0.1)


class TestScaleSets:
    @pytest.fixture(scope="class")
    def scale_sets(self, bm_model, pgamma_model, ph_model):
        out = {}
        for name, model in (("bm", bm_model), ("pg", pgamma_model), ("ph", ph_model)):
            for delta in (0.25, 1.0):
                out[name, delta] = build_scale_set(model, delta, x_max=4.0, n=2049)
        return out

    def test_boundary_values(self, scale_sets):
        for scales in scale_sets.values():
            assert scales.w.values[0] == 0.0
            assert scales.z.values[0] == 1.0

    def test_monotone_nonnegative(self, scale_sets):
        for scales in scale_sets.values():
            assert np.all(scales.w.values >= 0)
            assert np.all(np.diff(scales.w.values) >= -1e-12)

    def test_z_is_integrated_w(self, scale_sets):
        for scales in scale_sets.values():
            again = 1.0 + scales.delta * scales.w.cumulative().values
            assert np.max(np.abs(scales.z.values - again)) < 1e-12

    def test_tables_past_the_largest_double_are_refused(self, bm_model):
        # rho(0.5) = 2.414: e^{rho x} passes the largest double at x = 709.8/rho
        # = 294.0 and W' (2.4 W) before it; these tables once read inf at x = 300
        for x_max in (300.0, 294.0):
            scales = build_scale_set(bm_model, 0.5, x_max, 5)
            for table in ("w", "w_prime", "z"):
                with pytest.raises(Overflow, match="up to x = 292.1"):
                    getattr(scales, table)
        scales = build_scale_set(bm_model, 0.5, 292.0, 5)
        assert all(np.all(np.isfinite(getattr(scales, t).values)) for t in ("w", "w_prime", "z"))

    def test_tilted_limit(self, bm_model, pgamma_model, ph_model):
        # e^{-rho x} W(x) at the far grid end within 5% of 1/phi_D'(rho)
        for model in (bm_model, pgamma_model, ph_model):
            scales = build_scale_set(model, 1.0, x_max=8.0, n=2049)
            assert scales.tilted.values[-1] == pytest.approx(
                1.0 / scales.phi_prime_at_rho, rel=0.05
            )

    def test_laplace_identity(self, bm_model, pgamma_model, ph_model):
        for model in (bm_model, pgamma_model, ph_model):
            for delta in (0.25, 1.0, 4.0):
                rho = solve_lundberg(model, delta)
                scales = build_scale_set(model, delta, x_max=max(4.0, 28.0 / rho), n=4097)
                for mult in (1.5, 2.0, 3.0):
                    beta = mult * rho
                    num = scales.laplace_numeric(beta)
                    expect = scales.laplace_exact(model, beta)
                    assert num == pytest.approx(expect, rel=1e-4), (
                        f"{model.kind} delta={delta} beta={beta}"
                    )

    def test_route_agreement(self, bm_model, pgamma_model, ph_model):
        for model, closed_route in (
            (bm_model, ROUTE_CLOSED),
            (pgamma_model, None),
            (ph_model, ROUTE_CLOSED),
        ):
            for delta in (0.25, 1.0, 4.0):
                sets = [
                    build_scale_set(model, delta, 4.0, 2049, route=ROUTE_INVERSION),
                    build_scale_set(model, delta, 4.0, 2049, route=ROUTE_ODE_SERIES),
                ]
                if closed_route:
                    sets.append(build_scale_set(model, delta, 4.0, 2049, route=closed_route))
                for i in range(len(sets)):
                    for j in range(i + 1, len(sets)):
                        gap = np.max(np.abs(sets[i].tilted.values - sets[j].tilted.values))
                        assert gap < 1e-3, (
                            f"{model.kind} delta={delta}: routes "
                            f"{sets[i].route} vs {sets[j].route} gap {gap:.2e}"
                        )

    @staticmethod
    def _erlang2():
        # Erlang(2, 2) jumps: the generator has no eigenbasis, so phi_D takes
        # the batched solve of PHMeasure._resolvent
        ph = PhaseType([1.0, 0.0], [[-2.0, 2.0], [0.0, -2.0]])
        return ModelSpec(kind=KIND_PH, mu=1.0, sigma=0.5, lam=0.8, ph=ph)

    def test_inversion_matches_closed_forms(self, bm_model, ph_model, ph2_model):
        # both tables to 1e-7 of their maximum (Euler summation reads 1e-8;
        # 14-term Gaver-Stehfest read 1.6e-5 to 1.2e-4).  u is inverted from
        # its own transform; read as e^{rho x} times the inverted e^{-rho x} u
        # it was off by 140% at rho = 2.7 and 1e69 at rho = 100
        small_sigma = dataclasses.replace(ph_model, mu=0.5, sigma=0.1)
        for model, route in (
            (bm_model, ROUTE_CLOSED),
            (ph_model, ROUTE_CLOSED),
            (ph2_model, ROUTE_CLOSED),
            (small_sigma, ROUTE_CLOSED),
            (self._erlang2(), ROUTE_CLOSED),
        ):
            for delta in (0.25, 1.0, 4.0):
                inv = build_scale_set(model, delta, 4.0, 2049, route=ROUTE_INVERSION)
                closed = build_scale_set(model, delta, 4.0, 2049, route=route)
                for table in ("tilted", "u_delta"):
                    got, want = getattr(inv, table).values, getattr(closed, table).values
                    assert np.max(np.abs(got - want)) < 1e-7 * np.max(want), (
                        f"{model.kind} sigma={model.sigma} delta={delta} {table}"
                    )

    @pytest.mark.parametrize("sigma", [0.3, 0.1, 0.05, 0.02])
    def test_ode_series_tilted_matches_inversion_at_small_sigma(self, sigma):
        # the boundary layer of width 1/rho is narrower than a cell once
        # rho h > 0.1; the trapezoid rule across it read 5.7e-2 at sigma = 0.05
        # and 1.5 at 0.02, the exact cell integral reads 3.1e-4 at most
        model = ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.5, sigma=sigma, alpha=1.0, xi=1.0)
        ode = build_scale_set(model, 0.5, 4.0, 2049, route=ROUTE_ODE_SERIES).tilted.values
        inv = build_scale_set(model, 0.5, 4.0, 2049, route=ROUTE_INVERSION).tilted.values
        assert np.max(np.abs(ode - inv)) < 1e-3 * np.max(inv)

    @pytest.mark.parametrize(
        "mu, sigma, alpha, xi, delta",
        [(0.15, 0.9, 1.4, 0.8, 0.6), (0.1, 0.7, 0.6, 0.7, 0.4), (0.25, 1.0, 1.7, 1.0, 0.9)],
    )
    def test_ode_series_matches_inversion(self, mu, sigma, alpha, xi, delta):
        # perturbed gamma at passage_laws' sigma: the renewal solve's O(h^2)
        # error put both tables 4e-6 to 7e-6 of their maximum off; after the
        # Richardson step u reads 1.3e-6 to 1.8e-6 and the tilted table 9e-7
        model = ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=mu, sigma=sigma, alpha=alpha, xi=xi)
        ode = build_scale_set(model, delta, 4.0, 2049, route=ROUTE_ODE_SERIES)
        inv = build_scale_set(model, delta, 4.0, 2049, route=ROUTE_INVERSION)
        for table, bound in (("tilted", 1.5e-6), ("u_delta", 3e-6)):
            got, want = getattr(ode, table).values, getattr(inv, table).values
            assert np.max(np.abs(got - want)) < bound * np.max(want), table

    def test_linear_cell_weights_keep_their_digits(self):
        # both branches of the cell weights against quadrature, down to
        # rho h = 1e-9 where the closed form would cancel to nothing
        for z in (1e-9, 1e-4, 0.1, 0.4999, 0.5, 3.0, 60.0):
            left, right = lundberg._linear_cell_weights(z)
            want_left = quad(lambda v: math.exp(-z * v) * (1.0 - v), 0.0, 1.0, epsabs=0.0, epsrel=2e-14)[0]
            want_right = quad(lambda v: math.exp(-z * v) * v, 0.0, 1.0, epsabs=0.0, epsrel=2e-14)[0]
            assert left == pytest.approx(want_left, rel=1e-13), z
            assert right == pytest.approx(want_right, rel=1e-13), z

    def test_ode_series_matches_closed_bm(self, bm_model):
        # spec pins 1e-6 sup agreement for the jump-free case on [0, 4]
        ode = build_scale_set(bm_model, 0.5, 4.0, 4097, route=ROUTE_ODE_SERIES)
        closed = build_scale_set(bm_model, 0.5, 4.0, 4097, route=ROUTE_CLOSED)
        assert np.max(np.abs(ode.tilted.values - closed.tilted.values)) < 1e-6

    def test_ode_series_needs_positive_delta(self, pgamma_model):
        with pytest.raises(ValueError):
            build_scale_set(pgamma_model, 0.0, 4.0, route=ROUTE_ODE_SERIES)

    def test_inversion_handles_delta_zero(self, pgamma_model):
        scales = build_scale_set(pgamma_model, 0.0, 4.0, 1025, route=ROUTE_INVERSION)
        assert scales.w.values[0] == 0.0
        assert np.all(np.diff(scales.w.values) >= -1e-10)
        # Z = 1 identically at delta = 0
        assert np.max(np.abs(scales.z.values - 1.0)) < 1e-12

    def test_inversion_at_delta_zero_on_a_defective_generator(self):
        # phase type at delta = 0 takes the closed route by itself; the Euler
        # route on a generator with no eigenbasis reads 1e-8 off it
        model = self._erlang2()
        closed = build_scale_set(model, 0.0, 4.0, 2049)
        assert closed.route == ROUTE_CLOSED
        scales = build_scale_set(model, 0.0, 4.0, 2049, route=ROUTE_INVERSION)
        for table in ("w", "u_delta"):
            got, want = getattr(scales, table).values, getattr(closed, table).values
            assert np.max(np.abs(got - want)) < 1e-7 * np.max(want), table

    def test_closed_route_at_delta_zero(self, bm_model, ph_model, ph2_model):
        # the auto route is closed at delta = 0 for both kinds, within 1e-7 of
        # the Euler route (which reads 6e-9 to 1e-8), and continuous in delta
        order3 = ModelSpec(
            kind=KIND_PH, mu=0.1, sigma=0.8, lam=1.2,
            ph=PhaseType([0.5, 0.3, 0.2], [[-3.0, 1.0, 0.5], [0.2, -2.0, 0.3], [0.1, 0.4, -1.5]]),
        )
        for model in (bm_model, ph_model, ph2_model, order3, self._erlang2()):
            closed = build_scale_set(model, 0.0, 4.0, 2049)
            assert closed.route == ROUTE_CLOSED
            near = build_scale_set(model, 1e-10, 4.0, 2049)
            inv = build_scale_set(model, 0.0, 4.0, 2049, route=ROUTE_INVERSION)
            for table in ("tilted", "u_delta"):
                want = getattr(closed, table).values
                assert np.max(np.abs(getattr(inv, table).values - want)) < 1e-7 * np.max(want), table
                assert np.max(np.abs(getattr(near, table).values - want)) < 1e-8 * np.max(want), table


class TestReflectedKernel:
    """r_b(y) = W(b) W'(y)/W'(b) - W(y) on exponential jumps (lambda = 1,
    mu = 0.5, delta = 0.5, b = 4), where rho(delta) b runs from 54 to 1600
    and the direct form returns 0, inf or NaN."""

    B, DELTA = 4.0, 0.5

    def _model(self, sigma):
        return ModelSpec(
            kind=KIND_PH, mu=0.5, sigma=sigma, lam=1.0, ph=PhaseType([1.0], [[-1.0]])
        )

    def _r_b(self, sigma, ys):
        model = self._model(sigma)
        scales = build_scale_set(model, self.DELTA, 6.0)
        zs = np.full_like(ys, self.B + 0.5)
        dens = reflected_passage_density(model, scales, self.B, ys, zs)
        return dens / model.levy_measure().density(zs - ys)

    @staticmethod
    def _nodes(h):
        return np.array([round(y / h) * h for y in (0.5, 2.0, 3.9)])

    @pytest.mark.parametrize("sigma", [0.3, 0.1])
    def test_against_residue_sum(self, sigma):
        # W(x) = sum_r e^{r x}/phi_D'(r) over the three roots of phi_D(u) = delta,
        # (sigma^2 u^2/2 - mu u - delta)(1 + u) - lam u = 0, at 600 digits
        mp = pytest.importorskip("mpmath")
        ys = self._nodes(6.0 / 2048)
        got = self._r_b(sigma, ys)
        with mp.workdps(600):
            s2, mu, lam, delta = mp.mpf(sigma) ** 2, mp.mpf("0.5"), mp.mpf(1), mp.mpf("0.5")
            roots = mp.polyroots(
                [s2 / 2, s2 / 2 - mu, -mu - delta - lam, -delta], maxsteps=400, extraprec=2000
            )
            weights = [1 / (-mu + s2 * r - lam / (1 + r) ** 2) for r in roots]

            def w(x, k=0):
                return mp.re(sum(c * r**k * mp.exp(r * x) for c, r in zip(weights, roots)))

            b = mp.mpf(self.B)
            want = [float(w(b) * w(mp.mpf(y), 1) / w(b, 1) - w(mp.mpf(y))) for y in ys]
        assert got == pytest.approx(want, rel=1e-6)

    def test_finite_at_small_sigma(self):
        got = self._r_b(0.05, self._nodes(6.0 / 2048))
        assert np.all(np.isfinite(got)) and np.all(got >= 0)


class TestUMeasures:
    def test_u_delta_density_boundary(self, bm_model):
        scales = build_scale_set(bm_model, 0.5, 4.0, 2049)
        assert scales.u_delta(0.0) == pytest.approx(
            scales.w_prime.values[0], rel=1e-12
        )

    def test_u_delta_laplace_transform(self, bm_model):
        # int e^{-beta x} (W' - rho W) dx = (rho - beta)/(delta - phi_D(beta))
        delta = 0.5
        rho = solve_lundberg(bm_model, delta)
        beta = rho + 1.0
        gam = math.sqrt(1.0 + 2.0 * delta)
        rp, rm = (1.0 + gam), (1.0 - gam)

        def density(x):
            w = (math.exp(rp * x) - math.exp(rm * x)) / gam
            wp = (rp * math.exp(rp * x) - rm * math.exp(rm * x)) / gam
            return wp - rho * w

        val, _ = quad(lambda x: math.exp(-beta * x) * density(x), 0.0, 100.0, limit=500)
        expect = (rho - beta) / (delta - float(bm_model.phi_d(beta)))
        assert val == pytest.approx(expect, rel=1e-5)

    def test_u_delta_nonnegative_bm(self, bm_model):
        scales = build_scale_set(bm_model, 0.5, 4.0, 2049)
        xs = np.linspace(0.0, 4.0, 257)
        assert np.all(scales.u_delta(xs) >= -1e-12)
