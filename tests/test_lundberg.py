import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import levypassage.lundberg as lundberg
from levypassage.errors import NoConvergence, NoPerturbation, RepeatedRoots, WrongKind
from levypassage.lundberg import (
    ROUTE_CLOSED_BM,
    ROUTE_CLOSED_PH,
    ROUTE_INVERSION,
    ROUTE_ODE_SERIES,
    build_scale_set,
    escape_probability,
    escape_rate,
    lundberg_truncated,
    ph_root_data,
    scale_via_inversion,
    scale_via_ode_series,
    solve_lundberg,
)
from levypassage.models import KIND_PH, KIND_PURE_GAMMA, ModelSpec, PhaseType
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
        assert solve_lundberg(bm_model, 0.0).rho == pytest.approx(2.0, rel=1e-14)

    def test_bm_quadratic(self, bm_model):
        root = solve_lundberg(bm_model, 0.5)
        assert root.rho == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)

    def test_perturbed_gamma_vs_bisection(self, pgamma_model):
        # independent bisection oracle on rho^2/2 - log(1+rho) = 1
        oracle = bisect(lambda r: 0.5 * r * r - math.log1p(r) - 1.0, 1.0, 4.0)
        root = solve_lundberg(pgamma_model, 1.0)
        assert root.rho == pytest.approx(oracle, abs=1e-12)

    def test_residual_invariant(self, pgamma_model_wide, ph2_model):
        for model in (pgamma_model_wide, ph2_model):
            for delta in (0.0, 0.25, 1.0, 4.0):
                rho = solve_lundberg(model, delta).rho
                assert rho > 0
                assert abs(float(model.phi_d(rho)) - delta) <= 1e-10 * max(1.0, delta)

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
            solve_lundberg(pgamma_model, 0.5)


class TestLundbergTruncated:
    def test_monotone_in_level(self, pgamma_model):
        rho = solve_lundberg(pgamma_model, 1.0).rho
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
        rho = solve_lundberg(ph_model, 1.0).rho
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
        scales = build_scale_set(bm_model, 0.7, 1.0, 65, route=ROUTE_CLOSED_BM)
        assert scales.w.values[0] == 0.0

    def test_laplace_transform_identity(self, bm_model):
        # trapezoid sum of the closed-form table against 1/(phi_D(lambda) - delta)
        delta = 0.5
        rho = solve_lundberg(bm_model, delta).rho
        lam = rho + 1.0
        scales = build_scale_set(bm_model, delta, 40.0, 2**16 + 1, route=ROUTE_CLOSED_BM)
        expect = 1.0 / (float(bm_model.phi_d(lam)) - delta)
        assert scales.laplace_numeric(lam) == pytest.approx(expect, rel=1e-6)

    def test_delta_zero_form(self, bm_model):
        # W_0(x) = (e^{rho0 x} - 1)/mu; its bounded companion
        # E[D_1] e^{-rho0 x} W_0(x) = 1 - e^{-rho0 x} is the escape probability
        x = 1.0
        scales = build_scale_set(bm_model, 0.0, 2.0, 3, route=ROUTE_CLOSED_BM)
        w0 = float(scales.w.values[1])
        assert w0 == pytest.approx((math.exp(2.0 * x) - 1.0), rel=1e-12)
        bounded = bm_model.mean_d1 * math.exp(-2.0 * x) * w0
        assert bounded == pytest.approx(float(escape_probability(x, 2.0)), rel=1e-12)

    def test_wrong_kind(self, pgamma_model):
        with pytest.raises(WrongKind):
            build_scale_set(pgamma_model, 0.5, 1.0, route=ROUTE_CLOSED_BM)


class TestClosedFormPH:
    def test_vanishes_at_zero(self, ph_model):
        scales = build_scale_set(ph_model, 0.5, 1.0, 65, route=ROUTE_CLOSED_PH)
        assert scales.w.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_root_cardinality(self, ph_model, ph2_model):
        for model, m in ((ph_model, 1), (ph2_model, 2)):
            data = ph_root_data(model, 0.5)
            assert data.xi_roots.size == m + 1
            assert data.eta_roots.size == m
            assert np.all(data.xi_roots.real > 0)

    def test_partial_fraction_reproduces_product(self, ph2_model):
        data = ph_root_data(ph2_model, 1.0)
        us = np.linspace(0.1, 5.0, 7)
        gap = np.max(np.abs(data.phi_minus(us) - data.phi_minus_partial(us)))
        assert gap < 1e-8

    def test_roots_solve_lundberg_reflection(self, ph2_model):
        # every xi satisfies phi_D(-xi) = delta
        delta = 0.8
        data = ph_root_data(ph2_model, delta)
        vals = np.asarray(ph2_model.phi_d(-data.xi_roots))
        assert np.max(np.abs(vals - delta)) < 1e-8

    def test_against_inversion_oracle(self, ph_model):
        # mpmath's Talbot inversion at 30 digits of 1/(phi_D(s + rho) - delta),
        # with phi_D the order-1 exponent u^2/2 + 1/(1+u) - 1 written in mpmath
        import mpmath as mp

        delta = 0.5
        w = build_scale_set(ph_model, delta, 2.0, 2049, route=ROUTE_CLOSED_PH).w
        rho = solve_lundberg(ph_model, delta).rho

        def tilted(s):
            u = s + rho
            return 1 / (u * u / 2 + 1 / (1 + u) - 1 - delta)

        with mp.workdps(30):
            for x in (0.5, 1.0, 2.0):
                oracle = float(mp.invertlaplace(tilted, x, method="talbot") * mp.exp(rho * x))
                assert w(x) == pytest.approx(oracle, rel=1e-5)

    def test_real_valued_on_grid(self, ph2_model):
        data = ph_root_data(ph2_model, 1.0)
        xs = np.linspace(0.0, 4.0, 101)
        w = build_scale_set(ph2_model, 1.0, 4.0, 101, route=ROUTE_CLOSED_PH).w.values
        pref = 2.0 / (ph2_model.sigma**2 * data.varrho)
        coef = data.a_coeffs * data.xi_roots / (data.rho + data.xi_roots)
        terms = np.exp(data.rho * xs)[:, None] - np.exp(-np.outer(xs, data.xi_roots))
        imag = np.max(np.abs(np.imag(pref * (terms @ coef))))
        assert imag < 1e-10 * max(1.0, np.max(np.abs(w)))

    def test_delta_zero_rejected(self, ph_model):
        with pytest.raises(ValueError):
            ph_root_data(ph_model, 0.0)


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
                rho = solve_lundberg(model, delta).rho
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
            (bm_model, ROUTE_CLOSED_BM),
            (pgamma_model, None),
            (ph_model, ROUTE_CLOSED_PH),
        ):
            for delta in (0.25, 1.0, 4.0):
                sets = [
                    scale_via_inversion(model, delta, 4.0, 2049),
                    scale_via_ode_series(model, delta, 4.0, 2049),
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

    def test_inversion_u_density_matches_closed_forms(self, bm_model, ph_model):
        # u is inverted from its own transform; read as e^{rho x} times the
        # inverted e^{-rho x} u it was off by 140% at rho = 2.7 and 1e69 at rho = 100
        small_sigma = dataclasses.replace(ph_model, mu=0.5, sigma=0.1)
        for model, route in (
            (bm_model, ROUTE_CLOSED_BM),
            (ph_model, ROUTE_CLOSED_PH),
            (small_sigma, ROUTE_CLOSED_PH),
        ):
            for delta in (0.25, 1.0, 4.0):
                inv = scale_via_inversion(model, delta, 4.0, 2049).u_delta.values
                closed = build_scale_set(model, delta, 4.0, 2049, route=route).u_delta.values
                assert np.max(np.abs(inv - closed)) < 1e-4 * np.max(closed), (
                    f"{model.kind} sigma={model.sigma} delta={delta}"
                )

    def test_ode_series_matches_closed_bm(self, bm_model):
        # spec pins 1e-6 sup agreement for the jump-free case on [0, 4]
        ode = scale_via_ode_series(bm_model, 0.5, 4.0, 4097)
        closed = build_scale_set(bm_model, 0.5, 4.0, 4097, route=ROUTE_CLOSED_BM)
        assert np.max(np.abs(ode.tilted.values - closed.tilted.values)) < 1e-6

    def test_ode_series_needs_positive_delta(self, pgamma_model):
        with pytest.raises(ValueError):
            scale_via_ode_series(pgamma_model, 0.0, 4.0)

    def test_inversion_handles_delta_zero(self, pgamma_model):
        scales = scale_via_inversion(pgamma_model, 0.0, 4.0, 1025)
        assert scales.w.values[0] == 0.0
        assert np.all(np.diff(scales.w.values) >= -1e-10)
        # Z = 1 identically at delta = 0
        assert np.max(np.abs(scales.z.values - 1.0)) < 1e-12


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
        rho = solve_lundberg(bm_model, delta).rho
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
