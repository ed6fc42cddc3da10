import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from conftest import assert_within_se
from levypassage.errors import WrongKind
from levypassage.first_passage import (
    PenaltySpec,
    gamma_exact_cdf,
    gamma_exact_pdf,
    inverse_gaussian_cdf,
    inverse_gaussian_pdf,
    ph_transform,
    pk_series_transform,
    transform_from_scales,
)
from levypassage.last_passage import last_passage_cdf
from levypassage.lundberg import build_scale_set
from levypassage.mc import SimConfig, run_first_passage
from levypassage.models import KIND_PURE_GAMMA, ModelSpec

BM_EXACT = math.exp(-(math.sqrt(2.0) - 1.0))  # E[e^{-T_b/2}] for mu=sigma=b=1


class TestPKSeries:
    def test_bm_matches_closed_form(self, bm_model):
        tr = pk_series_transform(bm_model, 0.5, b_max=2.0)
        assert tr(1.0) == pytest.approx(BM_EXACT, abs=1e-7)

    def test_value_at_zero_threshold(self, bm_model, pgamma_model):
        for model in (bm_model, pgamma_model):
            tr = pk_series_transform(model, 0.7, b_max=1.0)
            assert tr(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_route_agreement_perturbed_gamma(self, pgamma_model):
        tr = pk_series_transform(pgamma_model, 1.0, b_max=2.0)
        scales = build_scale_set(pgamma_model, 1.0, 2.0)
        assert tr(1.0) == pytest.approx(transform_from_scales(scales)(1.0), abs=1e-3)

    def test_monotone_and_bounded(self, pgamma_model, ph_model):
        bs = np.linspace(0.0, 2.0, 41)
        for model in (pgamma_model, ph_model):
            for delta in (0.25, 1.0):
                tr = pk_series_transform(model, delta, b_max=2.0)
                vals = np.asarray(tr(bs))
                assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
                assert np.all(np.diff(vals) <= 1e-10)

    def test_monotone_in_delta(self, pgamma_model):
        bs = np.linspace(0.0, 2.0, 21)
        v1 = np.asarray(pk_series_transform(pgamma_model, 0.5, b_max=2.0)(bs))
        v2 = np.asarray(pk_series_transform(pgamma_model, 1.5, b_max=2.0)(bs))
        assert np.all(v2 <= v1 + 1e-12)

    def test_overshoot_indicator_degenerates_for_bm(self, bm_model):
        # continuous paths creep: any positive-overshoot penalty gives 0
        pen = PenaltySpec(tag="overshoot_indicator", eps=0.1)
        tr = pk_series_transform(bm_model, 0.5, pen, b_max=2.0)
        assert np.max(np.abs(np.asarray(tr(np.linspace(0, 2, 21))))) < 1e-10

    def test_overshoot_indicator_vs_mc(self, ph_model):
        # exponential jumps: MC oracle for E[e^{-delta T_b} 1{overshoot > eps}]
        delta, b, eps = 0.5, 1.0, 0.3
        pen = PenaltySpec(tag="overshoot_indicator", eps=eps)
        tr = pk_series_transform(ph_model, delta, pen, b_max=2.0)
        cfg = SimConfig(dt=1e-3, t_max=8.0, n_paths=30_000, seed=42, max_blocks=4)
        sample = run_first_passage(ph_model, cfg, b)
        mc = sample.penalty_value(delta, lambda u, v: v > eps)
        assert_within_se(mc.estimate, mc.std_error, float(tr(b)), 3.0, "overshoot indicator")

    def test_callable_penalty_vs_mc(self, ph_model):
        # smooth penalty w(u, v) = e^{-v}; generic quadrature path against an
        # MC oracle evaluating the same functional on simulated crossings
        pen = PenaltySpec(tag="custom", w=lambda u, v: np.exp(-v))
        tr = pk_series_transform(ph_model, 0.5, pen, b_max=1.5, n=1025)
        cfg = SimConfig(dt=1e-3, t_max=8.0, n_paths=30_000, seed=99, max_blocks=4)
        sample = run_first_passage(ph_model, cfg, 1.0)
        mc = sample.penalty_value(0.5, lambda u, v: np.exp(-v))
        assert_within_se(mc.estimate, mc.std_error, float(tr(1.0)), 3.0, "smooth penalty")

    def test_callable_penalty_pinned(self, ph2_model):
        # pinned from the extrapolated solve on the default 2049 nodes, which
        # reads within 1.7e-12 of the same solve on 32769; the phase-type
        # factors of penalty_mass must reproduce them to rounding
        pen = PenaltySpec(tag="custom", w=lambda u, v: np.exp(-1.3 * v) / (1.0 + 0.5 * u))
        got = pk_series_transform(ph2_model, 0.6, penalty=pen)(np.array([0.25, 0.5, 1.0, 2.0, 3.5]))
        want = [0.6919190667759368, 0.5089281019589574, 0.32007634696728726, 0.17663991867401463,
                0.09260775643476392]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_callable_one_is_the_one_route(self, pgamma_model):
        # w = 1 through the generic omega quadrature against omega = Qbar in
        # closed form; the gamma density's peak at v = 0 must be resolved
        pen = PenaltySpec(tag="custom", w=lambda u, v: np.ones(np.broadcast(u, v).shape))
        for delta in (0.3, 1.0):
            got = pk_series_transform(pgamma_model, delta, penalty=pen).b_grid.values
            want = pk_series_transform(pgamma_model, delta).b_grid.values
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


class TestScaleFormula:
    def test_zero_threshold(self, bm_model):
        scales = build_scale_set(bm_model, 0.5, 2.0)
        assert transform_from_scales(scales)(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_bm_value(self, bm_model):
        scales = build_scale_set(bm_model, 0.5, 2.0)
        assert transform_from_scales(scales)(1.0) == pytest.approx(BM_EXACT, abs=5e-6)

    def test_decreasing_in_threshold(self, ph_model):
        scales = build_scale_set(ph_model, 0.5, 3.0)
        tr = transform_from_scales(scales)
        vals = tr.b_grid.values
        assert np.all(np.diff(vals) <= 1e-12)


class TestGammaExact:
    def test_cdf_value(self, gamma_model):
        assert gamma_exact_cdf(gamma_model, 1.0, 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_cdf_vanishes_at_zero_time(self, gamma_model):
        assert gamma_exact_cdf(gamma_model, 1.0, 0.0) == 0.0
        assert gamma_exact_cdf(gamma_model, 1.0, 1e-9) < 1e-8

    def test_cdf_vs_gamma_distribution(self):
        # P[T_b <= t] = P[D_t >= b] with D_t ~ Gamma(alpha t, scale xi)
        model = ModelSpec(kind=KIND_PURE_GAMMA, alpha=2.0, xi=0.5)
        b = 1.0
        for t in np.linspace(0.1, 4.0, 20):
            ours = gamma_exact_cdf(model, b, float(t))
            oracle = float(gamma_dist.sf(b, 2.0 * t, scale=0.5))
            assert ours == pytest.approx(oracle, abs=1e-10)

    def test_pdf_integrates_to_cdf(self, gamma_model):
        total, err = quad(lambda t: gamma_exact_pdf(gamma_model, 1.0, t), 1e-9, 5.0, limit=400)
        assert total == pytest.approx(gamma_exact_cdf(gamma_model, 1.0, 5.0), abs=1e-6)

    def test_pdf_nonnegative(self, gamma_model):
        ts = np.linspace(0.05, 10.0, 100)
        assert all(gamma_exact_pdf(gamma_model, 1.0, float(t)) >= 0 for t in ts)

    def test_pdf_matches_cdf_derivative(self, gamma_model):
        eps = 1e-5
        fd = (
            gamma_exact_cdf(gamma_model, 1.0, 1.0 + eps)
            - gamma_exact_cdf(gamma_model, 1.0, 1.0 - eps)
        ) / (2 * eps)
        assert gamma_exact_pdf(gamma_model, 1.0, 1.0) == pytest.approx(fd, abs=1e-6)

    def test_large_shape_stays_finite(self):
        model = ModelSpec(kind=KIND_PURE_GAMMA, alpha=30.0, xi=1.0)
        val = gamma_exact_pdf(model, 20.0, 3.0)  # alpha*t = 90 exercises log space
        assert np.isfinite(val) and val >= 0

    @pytest.mark.parametrize("b, t", [(5.0, 20.0), (10.0, 40.0), (24.5, 98.0)])
    def test_pdf_at_large_threshold(self, b, t):
        # z = b/xi = 20, 40 and 98: the 2F2 series the density once summed
        # alternates with terms growing like e^z, and read +3.0% at z = 20,
        # -8e14 at 40 and 1e65 at 98; oracle: mpmath's t-derivative of Q
        mp = pytest.importorskip("mpmath")
        model = ModelSpec(kind=KIND_PURE_GAMMA, alpha=1.0, xi=0.25)
        with mp.workdps(40):
            oracle = float(mp.diff(lambda u: mp.gammainc(u, b / 0.25, mp.inf, regularized=True), t))
        assert gamma_exact_pdf(model, b, t) == pytest.approx(oracle, rel=1e-12)

    def test_wrong_kind(self, bm_model):
        with pytest.raises(WrongKind):
            gamma_exact_cdf(bm_model, 1.0, 1.0)

    def test_drift_shifts_the_threshold(self):
        # P[T_b <= t] = P[D_t >= b] = Q(alpha t, (b - mu t)/xi) for D_t = mu t + G_t
        model = ModelSpec(kind=KIND_PURE_GAMMA, mu=0.5, alpha=1.0, xi=1.0)
        cdf = gamma_exact_cdf(model, 2.0, 1.5)
        assert cdf == pytest.approx(0.47529, abs=1e-5)
        assert cdf == pytest.approx(last_passage_cdf(model, 2.0, 1.5), abs=1e-12)

    @pytest.mark.parametrize("t", [0.4, 1.5, 3.5])
    def test_drift_pdf_matches_cdf_derivative(self, t):
        model = ModelSpec(kind=KIND_PURE_GAMMA, mu=0.5, alpha=1.3, xi=0.7)
        eps = 1e-5
        fd = (gamma_exact_cdf(model, 2.0, t + eps) - gamma_exact_cdf(model, 2.0, t - eps)) / (2 * eps)
        assert gamma_exact_pdf(model, 2.0, t) == pytest.approx(fd, rel=1e-6)

    def test_drift_alone_reaches_threshold(self):
        model = ModelSpec(kind=KIND_PURE_GAMMA, mu=0.5, alpha=1.0, xi=1.0)
        assert gamma_exact_cdf(model, 2.0, 4.0) == 1.0
        assert gamma_exact_cdf(model, 2.0, 5.0) == 1.0
        assert gamma_exact_pdf(model, 2.0, 5.0) == 0.0


class TestInverseGaussian:
    def test_peak_value(self, bm_model):
        assert inverse_gaussian_pdf(bm_model, 1.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-14
        )

    def test_normalization(self, bm_model):
        total, _ = quad(lambda t: float(inverse_gaussian_pdf(bm_model, 1.0, t)), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_laplace_transform_matches_closed_form(self, bm_model):
        val, _ = quad(
            lambda t: math.exp(-0.5 * t) * float(inverse_gaussian_pdf(bm_model, 1.0, t)),
            0,
            np.inf,
        )
        assert val == pytest.approx(BM_EXACT, abs=1e-6)

    def test_cdf_matches_pdf_integral(self, bm_model):
        val, _ = quad(lambda t: float(inverse_gaussian_pdf(bm_model, 1.0, t)), 0, 1.0)
        assert float(inverse_gaussian_cdf(bm_model, 1.0, 1.0)) == pytest.approx(val, abs=1e-9)

    def test_frozen_cdf_value(self, bm_model):
        # Phi(0) + e^2 Phi(-2), the classical reflection form
        from scipy.stats import norm

        expect = norm.cdf(0.0) + math.exp(2.0) * norm.cdf(-2.0)
        assert float(inverse_gaussian_cdf(bm_model, 1.0, 1.0)) == pytest.approx(
            expect, rel=1e-12
        )


class TestPHTransform:
    def test_zero_threshold(self, ph_model, ph2_model):
        for model in (ph_model, ph2_model):
            assert ph_transform(model, 0.5, 0.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_against_pk_series(self, ph_model, b):
        # on the default grid every b is a node: between nodes the table's
        # linear interpolation is O(h^2) off, 7e-8 at b_max = 2.5
        tr = pk_series_transform(ph_model, 0.5)
        assert ph_transform(ph_model, 0.5, b) == pytest.approx(float(tr(b)), rel=1e-9)

    def test_against_scale_formula(self, ph_model):
        scales = build_scale_set(ph_model, 0.5, 2.0, route="closed")
        got = ph_transform(ph_model, 0.5, 1.0)
        assert got == pytest.approx(transform_from_scales(scales)(1.0), abs=1e-6)

    def test_brownian_drift(self, bm_model):
        # the residue sum over the one root left of the axis is e^{(mu - gamma) b/sigma^2}
        for b in (0.5, 1.0, 3.0):
            assert ph_transform(bm_model, 0.5, b) == pytest.approx(BM_EXACT**b, rel=1e-14)

    def test_delta_zero_is_one(self, bm_model, ph_model, ph2_model):
        # T_b is finite almost surely; a negative delta and a gamma kind are refused
        for model in (bm_model, ph_model, ph2_model):
            assert ph_transform(model, 0.0, 2.0) == 1.0
        with pytest.raises(ValueError):
            ph_transform(ph_model, -0.5, 1.0)
        with pytest.raises(WrongKind):
            ph_transform(ModelSpec(kind=KIND_PURE_GAMMA, alpha=1.0, xi=1.0), 0.5, 1.0)

    def test_order_two_routes(self, ph2_model):
        tr = pk_series_transform(ph2_model, 0.8, b_max=2.0)
        got = ph_transform(ph2_model, 0.8, 1.0)
        assert got == pytest.approx(float(tr(1.0)), rel=1e-9)


class TestMonteCarloAgreement:
    """E[e^{-delta T_b}] within 3 SE of the analytic value for every kind."""

    CFG = dict(dt=1e-3, t_max=8.0, seed=314, max_blocks=4)

    def test_bm(self, bm_model):
        cfg = SimConfig(n_paths=30_000, **self.CFG)
        mc = run_first_passage(bm_model, cfg, 1.0).laplace_at(0.5)
        assert_within_se(mc.estimate, mc.std_error, BM_EXACT, 3.0, "bm laplace")

    def test_perturbed_gamma(self, pgamma_model):
        cfg = SimConfig(n_paths=30_000, **self.CFG)
        mc = run_first_passage(pgamma_model, cfg, 1.0).laplace_at(0.5)
        scales = build_scale_set(pgamma_model, 0.5, 2.0)
        target = transform_from_scales(scales)(1.0)
        assert_within_se(mc.estimate, mc.std_error, target, 3.0, "pgamma laplace")

    def test_phase_type(self, ph_model):
        cfg = SimConfig(n_paths=30_000, **self.CFG)
        mc = run_first_passage(ph_model, cfg, 1.0).laplace_at(0.5)
        target = ph_transform(ph_model, 0.5, 1.0)
        assert_within_se(mc.estimate, mc.std_error, target, 3.0, "ph laplace")

    def test_pure_gamma(self, gamma_model):
        cfg = SimConfig(n_paths=30_000, **self.CFG)
        mc = run_first_passage(gamma_model, cfg, 1.0).laplace_at(0.5)
        target, _ = quad(
            lambda t: math.exp(-0.5 * t) * gamma_exact_pdf(gamma_model, 1.0, t),
            1e-9,
            60.0,
            limit=400,
        )
        assert_within_se(mc.estimate, mc.std_error, target, 3.0, "pure gamma laplace")
