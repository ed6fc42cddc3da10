"""The exact cycle-end sampler, the last-passage escape test and the Monte
Carlo estimators of the reflected process against exact laws."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import assert_within_se

from levypassage.first_passage import gamma_exact_cdf, inverse_gaussian_cdf, transform_from_scales
from levypassage.last_passage import bm_last_passage_cdf, last_passage_cdf, reflected_last_passage_transform
from levypassage.lundberg import build_scale_set, escape_rate
from levypassage.mc import (
    SimConfig,
    _Law,
    _split,
    _substream,
    cycle_ends,
    estimate_reflected_exceedance,
    run_first_passage,
    run_last_passage,
    run_reflected_at_exp_horizon,
    run_reflected_first_passage,
    run_reflected_last_passage,
)
from levypassage.reflected import duality_check, reflected_passage_density


@pytest.mark.parametrize("name", ["bm_model", "gamma_model", "pgamma_model_wide", "ph2_model"])
@pytest.mark.parametrize("t", [0.3, 2.0])
def test_increment_exact_moments(request, name, t):
    # D_t, drawn as cycle_ends draws a cycle end from 0, has mean E[D_1] t and
    # variance Var[D_1] t for every kind
    model = request.getfixturevalue(name)
    rng = np.random.Generator(np.random.Philox(11))
    x = cycle_ends(model, rng, np.zeros(20_000), np.full(20_000, t))[0]
    n = x.size
    centred = x - x.mean()
    var = float(np.mean(centred**2)) * n / (n - 1)
    se_var = math.sqrt((float(np.mean(centred**4)) - var**2) / n)
    assert_within_se(float(x.mean()), math.sqrt(var / n), model.mean_d1 * t, 4.0, f"{name} mean")
    assert_within_se(var, se_var, model.var_d1 * t, 4.0, f"{name} variance")


def _assert_same(a, b):
    """Bit-identical samples or results: every field, arrays NaN for NaN."""
    if isinstance(a, tuple) and not dataclasses.is_dataclass(a):
        for x, y in zip(a, b):
            assert np.array_equal(x, y, equal_nan=True)
        return
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y, equal_nan=True), f.name
        else:
            assert x == y, f.name


def test_substream_repeats_by_key_and_differs_across_keys():
    def draws(seed, stream, group):
        return _substream(seed, stream, group).random(8)

    assert np.array_equal(draws(5, 1, 0), draws(5, 1, 0))
    keys = [(5, 1, 0), (5, 2, 0), (5, 1, 1), (6, 1, 0), (5, 1, 2), (5, 2, 1)]
    for a, b in itertools.combinations(keys, 2):
        assert not np.array_equal(draws(*a), draws(*b)), (a, b)


class TestLastPassageEscapeTest:
    """A path the escape test keeps returns to b under the tilted law, so the
    test is exact at any schedule and t_max only sets the censoring horizon."""

    SHORT = SimConfig(dt=2e-3, t_max=0.5, n_paths=40_000, seed=3, max_blocks=120)

    def test_bm_at_short_t_max(self, bm_model):
        sample = run_last_passage(bm_model, self.SHORT, 1.0)
        for t in (0.5, 1.0, 2.0, 3.0):
            mc = sample.cdf_at(t)
            target = float(bm_last_passage_cdf(bm_model, 1.0, t))
            assert_within_se(mc.estimate, mc.std_error, target, 3.0, f"P(L_b < {t})")

    def test_perturbed_gamma_at_short_t_max(self, pgamma_model_wide):
        sample = run_last_passage(pgamma_model_wide, self.SHORT, 1.0)
        for t in (0.5, 1.0, 2.0, 3.0):
            mc = sample.cdf_at(t)
            target = last_passage_cdf(pgamma_model_wide, 1.0, t)
            assert_within_se(mc.estimate, mc.std_error, target, 3.0, f"P(L_b < {t})")

    def test_pure_gamma_at_short_t_max(self, gamma_model):
        # a nondecreasing path's last contact with (-inf, b] is its first
        # passage, so L_b = T_b in law
        sample = run_last_passage(gamma_model, self.SHORT, 1.0)
        for t in (0.5, 1.0, 2.0, 3.0):
            mc = sample.cdf_at(t)
            target = gamma_exact_cdf(gamma_model, 1.0, t)
            assert_within_se(mc.estimate, mc.std_error, target, 3.0, f"P(L_b < {t})")

    def test_bm_mean_at_coarse_dt(self, bm_model):
        # E[L_b] = b/mu + sigma^2/mu^2 = 2.  Brownian motion takes no time
        # step: the last contact and a return's hit of b are drawn inside
        # the segment from its bridge, so no dt enters the mean.
        cfg = SimConfig(dt=0.04, t_max=20.0, n_paths=400_000, seed=0, max_blocks=4)
        sample = run_last_passage(bm_model, cfg, 1.0)
        assert sample.censored == 0
        l = sample.l_last
        assert_within_se(l.mean(), l.std(ddof=1) / math.sqrt(l.size), 2.0, 3.0, "E[L_b]")

    @pytest.mark.parametrize("run", [run_last_passage, run_reflected_last_passage])
    def test_t_max_only_sets_the_horizon(self, ph2_model, run):
        # 0.5 * 120 = 6 * 10: the same horizon split two ways
        short = run(ph2_model, SimConfig(dt=2e-3, t_max=0.5, n_paths=2_000, seed=5, max_blocks=120), 1.0)
        cfg = SimConfig(dt=2e-3, t_max=6.0, n_paths=2_000, seed=5, max_blocks=10)
        long = run(ph2_model, cfg, 1.0)
        _assert_same(short, long)
        _assert_same(long, run(ph2_model, cfg, 1.0))

    def test_paths_past_100_000_use_a_second_substream(self, bm_model):
        def cfg(n):
            return SimConfig(dt=0.05, t_max=6.0, n_paths=n, seed=5, max_blocks=10)

        full = run_last_passage(bm_model, cfg(100_010), 1.0).l_last
        first = run_last_passage(bm_model, cfg(100_000), 1.0).l_last
        assert np.array_equal(full[:100_000], first, equal_nan=True)
        assert not np.array_equal(full[100_000:], full[:10], equal_nan=True)


class TestSegmentEngine:
    """Brownian motion and phase type go from jump to jump: every estimator
    but reflected first passage draws exact segment laws and reads no dt."""

    ESTIMATORS = {
        "first": lambda m, cfg: run_first_passage(m, cfg, 1.0),
        "last": lambda m, cfg: run_last_passage(m, cfg, 1.0),
        "reflected_last": lambda m, cfg: run_reflected_last_passage(m, cfg, 1.0),
        "exceedance": lambda m, cfg: estimate_reflected_exceedance(m, cfg, 1.0, 1.3),
        "exp_horizon": lambda m, cfg: run_reflected_at_exp_horizon(m, cfg, 0.5, 1.0),
    }

    @pytest.mark.parametrize("name", ["bm_model", "ph2_model"])
    @pytest.mark.parametrize("estimator", list(ESTIMATORS))
    def test_dt_free(self, request, name, estimator):
        model = request.getfixturevalue(name)
        run = self.ESTIMATORS[estimator]
        fine, coarse = (
            run(model, SimConfig(dt=dt, t_max=6.0, n_paths=2_000, seed=7, max_blocks=10)) for dt in (2e-3, 0.5)
        )
        _assert_same(fine, coarse)

    @pytest.mark.parametrize(
        "a, c, span, sigma", [(0.3, 1.2, 1.0, 1.0), (1.0, 0.2, 1.0, 0.7), (0.5, 0.5, 0.5, 1.5)]
    )
    def test_split_sampler_against_quadrature(self, a, c, span, sigma):
        # density proportional to f_a(s) f_c(span - s), f_x(s) = x s^{-3/2} e^{-x^2 / (2 sigma^2 s)}
        def dens(s):
            r = span - s
            return a * c * (s * r) ** -1.5 * math.exp(-(a * a / s + c * c / r) / (2.0 * sigma**2))

        mass = quad(dens, 0.0, span, limit=200)[0]
        mean = quad(lambda s: s * dens(s), 0.0, span, limit=200)[0] / mass
        quartiles = [
            brentq(lambda x: quad(dens, 0.0, x, limit=200)[0] / mass - p, 1e-9 * span, (1.0 - 1e-9) * span)
            for p in (0.25, 0.5, 0.75)
        ]
        n = 2_000_000
        s = _split(_Law(0.0, sigma, None), _substream(9, 0, 0), np.full(n, a), np.full(n, c), np.full(n, span))
        assert abs(float(s.mean()) - mean) < 1e-3
        assert np.max(np.abs(np.quantile(s, [0.25, 0.5, 0.75]) - quartiles)) < 1e-3


class TestReflectedMC:
    def test_reflected_first_passage_laplace_bm(self, bm_model):
        # D* = D - inf(D ^ 0) is the spectrally negative X = -D reflected at
        # its supremum: E[e^{-delta T*_b}] = Z(b) - delta W(b)^2 / W'(b)
        b, delta = 1.0, 0.5
        scales = build_scale_set(bm_model, delta, 4.0)
        target = float(scales.z(b)) - delta * float(scales.w(b)) ** 2 / float(scales.w_prime(b))
        cfg = SimConfig(dt=1e-3, t_max=8.0, n_paths=20_000, seed=3, max_blocks=4)
        mc = run_reflected_first_passage(bm_model, cfg, b).laplace_at(delta)
        assert_within_se(mc.estimate, mc.std_error, target, 3.0, "reflected first passage")

    def test_reflected_first_passage_laplace_pgamma(self, pgamma_model):
        b, delta = 1.0, 0.5
        scales = build_scale_set(pgamma_model, delta, 4.0)
        target = float(scales.z(b)) - delta * float(scales.w(b)) ** 2 / float(scales.w_prime(b))
        cfg = SimConfig(dt=1e-3, t_max=8.0, n_paths=20_000, seed=3, max_blocks=4)
        mc = run_reflected_first_passage(pgamma_model, cfg, b).laplace_at(delta)
        assert_within_se(mc.estimate, mc.std_error, target, 3.0, "reflected first passage")

    def test_reflected_last_passage_laplace_pgamma(self, pgamma_model):
        # E[e^{-delta L*_b}] from the scale functions (reflected_last_passage_transform)
        b, delta = 1.0, 0.5
        scales = build_scale_set(pgamma_model, delta, b + 24.0 / escape_rate(pgamma_model), n=4097)
        target = reflected_last_passage_transform(pgamma_model, transform_from_scales(scales), b)
        cfg = SimConfig(dt=2e-3, t_max=6.0, n_paths=30_000, seed=23, max_blocks=10)
        mc = run_reflected_last_passage(pgamma_model, cfg, b).laplace_at(delta)
        assert_within_se(mc.estimate, mc.std_error, target, 3.0, "reflected L* laplace")

    def test_reflected_last_passage_laplace_ph2(self, ph2_model):
        b, delta = 1.0, 0.5
        scales = build_scale_set(ph2_model, delta, b + 24.0 / escape_rate(ph2_model), n=4097)
        target = reflected_last_passage_transform(ph2_model, transform_from_scales(scales), b)
        cfg = SimConfig(dt=2e-3, t_max=6.0, n_paths=30_000, seed=23, max_blocks=10)
        mc = run_reflected_last_passage(ph2_model, cfg, b).laplace_at(delta)
        assert_within_se(mc.estimate, mc.std_error, target, 3.0, "reflected L* laplace")

    def test_reflected_jump_density_vs_mc_ph(self, ph_model):
        # the jump-crossing density integrated over y in [0, b] and z > b is
        # E[e^{-delta T*_b}; crossing by a jump]
        b, delta = 1.0, 0.5
        scales = build_scale_set(ph_model, delta, 2.0 * b)
        ys = np.linspace(0.0, b, 401)
        zs = b + np.linspace(1e-9, 40.0, 4001)
        dens = reflected_passage_density(ph_model, scales, b, ys[:, None], zs[None, :])
        target = np.trapezoid(np.trapezoid(dens, zs, axis=1), ys)
        cfg = SimConfig(dt=1e-3, t_max=8.0, n_paths=20_000, seed=3, max_blocks=4)
        mc = run_reflected_first_passage(ph_model, cfg, b).jump_laplace(delta)
        assert_within_se(mc.estimate, mc.std_error, target, 3.0, "reflected jump crossing")

    def test_duality_bm(self, bm_model):
        # P(D*_t > b) = P(T_b <= t), the inverse Gaussian law for BM
        b, t = 1.0, 1.0
        cfg = SimConfig(dt=1e-3, t_max=t, n_paths=20_000, seed=3, max_blocks=1)
        p_reflected, p_passage = duality_check(bm_model, b, t, cfg)
        target = float(inverse_gaussian_cdf(bm_model, b, t))
        assert_within_se(p_reflected.estimate, p_reflected.std_error, target, 3.0, "P(D*_t > b)")
        assert_within_se(p_passage.estimate, p_passage.std_error, target, 3.0, "P(T_b <= t)")
