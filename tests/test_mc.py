"""The exact cycle-end sampler, the last-passage escape test and the Monte
Carlo estimators of the reflected process against exact laws."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import assert_within_se

import levypassage.mc
from levypassage.errors import NoConvergence
from levypassage.first_passage import gamma_exact_cdf, inverse_gaussian_cdf, transform_from_scales
from levypassage.last_passage import bm_last_passage_cdf, last_passage_cdf, reflected_last_passage_transform
from levypassage.lundberg import build_scale_set, escape_rate
from levypassage.mc import (
    EXIT_CREEP,
    EXIT_JUMP,
    SimConfig,
    _cells,
    _decidable,
    _Law,
    _Segments,
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
from levypassage.models import ModelSpec, PhaseType
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

    @pytest.mark.parametrize("run", [run_last_passage, run_reflected_last_passage])
    def test_given_escape_rate_is_the_default(self, ph2_model, run):
        cfg = SimConfig(dt=2e-3, t_max=6.0, n_paths=2_000, seed=5, max_blocks=10)
        _assert_same(run(ph2_model, cfg, 1.0), run(ph2_model, cfg, 1.0, rho0=escape_rate(ph2_model)))

    def test_paths_past_100_000_use_a_second_substream(self, bm_model):
        def cfg(n):
            return SimConfig(dt=0.05, t_max=6.0, n_paths=n, seed=5, max_blocks=10)

        full = run_last_passage(bm_model, cfg(100_010), 1.0).l_last
        first = run_last_passage(bm_model, cfg(100_000), 1.0).l_last
        assert np.array_equal(full[:100_000], first, equal_nan=True)
        assert not np.array_equal(full[100_000:], full[:10], equal_nan=True)


def test_sim_config_checks_only_what_is_read():
    # no estimator reads dt, so a horizon shorter than the default dt is fine
    assert SimConfig(t_max=5e-4).t_max == 5e-4
    for bad in (dict(t_max=0.0), dict(t_max=math.nan), dict(dt=0.0), dict(n_paths=0)):
        with pytest.raises(ValueError):
            SimConfig(**bad)


class TestSegmentEngine:
    """Every kind goes from jump to jump (the gamma kinds through their
    compound-Poisson view): every estimator draws exact segment laws and
    reads no dt."""

    ESTIMATORS = {
        "first": lambda m, cfg: run_first_passage(m, cfg, 1.0),
        "reflected_first": lambda m, cfg: run_reflected_first_passage(m, cfg, 1.0),
        "last": lambda m, cfg: run_last_passage(m, cfg, 1.0),
        "reflected_last": lambda m, cfg: run_reflected_last_passage(m, cfg, 1.0),
        "exceedance": lambda m, cfg: estimate_reflected_exceedance(m, cfg, 1.0, 1.3),
        "exp_horizon": lambda m, cfg: run_reflected_at_exp_horizon(m, cfg, 0.5, 1.0),
    }

    @pytest.mark.parametrize("name", ["bm_model", "ph2_model", "pgamma_model", "gamma_model"])
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

    def test_split_at_sigma_zero_is_linear(self):
        # a linear path's minimum and hitting times are fixed by its ends
        rng = _substream(9, 0, 0)
        a, c, span = rng.random(1_000), rng.random(1_000), rng.random(1_000)
        s = _split(_Law(0.5, 0.0, None), rng, a, c, span)
        assert np.array_equal(s, span * a / (a + c))

    @pytest.mark.parametrize("estimator", list(ESTIMATORS))
    def test_pure_gamma_without_runtime_warnings(self, gamma_model, estimator):
        run = self.ESTIMATORS[estimator]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run(gamma_model, SimConfig(dt=2e-3, t_max=6.0, n_paths=2_000, seed=7, max_blocks=10))

    def test_perturbed_gamma_last_passage_at_coarse_dt(self, pgamma_model_wide):
        # the gamma kinds' last passage reads no dt, so a step of 0.08 leaves
        # no O(dt) bias (a block engine at that step reads many SE low)
        cfg = SimConfig(dt=0.08, t_max=6.0, n_paths=100_000, seed=3, max_blocks=10)
        sample = run_last_passage(pgamma_model_wide, cfg, 1.0)
        for t in (0.5, 1.0, 1.5, 2.0):
            mc = sample.cdf_at(t)
            target = last_passage_cdf(pgamma_model_wide, 1.0, t)
            assert_within_se(mc.estimate, mc.std_error, target, 3.0, f"P(L_b < {t})")


class TestReflectedCells:
    """D*'s first passage on cells: a decidable cell is decided from its
    bridge, and any other is split at its bridge midpoint until it is."""

    def test_hit_fraction_over_an_exponential_time(self, bm_model):
        # Brownian motion with drift -mu, the X = -D of the scale functions,
        # reflected at its infimum from y reaches b before an independent
        # Exp(q) time with probability Z(y) / Z(b) (Pistorius, J. Theor.
        # Probab. 17(1) 2004).  Each Exp(q) time is one cell from y at I = 0.
        b, y, q, n = 1.0, 0.6, 10.0, 100_000
        law = _Law(-bm_model.mu, bm_model.sigma, None)
        rng = _substream(5, 0, 0)
        tau = rng.exponential(1.0 / q, n)
        x0, x1 = np.full(n, y), y + law.mu * tau + law.sigma * np.sqrt(tau) * rng.standard_normal(n)
        decided = _decidable(law, b, x0, x1 - x0, np.zeros(n), tau)
        assert 0.05 < decided.mean() < 0.5  # both decided and split cells
        creep, at, low = _cells(law, rng, b, x0, x1, tau, np.zeros(n))
        scales = build_scale_set(bm_model, q, 2.0 * b)
        p = float(scales.z(y)) / float(scales.z(b))
        assert_within_se(float(creep.mean()), math.sqrt(p * (1.0 - p) / n), p, 3.0, "P(tau*_b < e_q)")
        assert np.all((at[creep] > 0.0) & (at[creep] <= tau[creep]))
        assert np.all(low[~creep] <= np.minimum(0.0, x1[~creep]))

    def test_one_pass_decides_its_cells(self, monkeypatch):
        # at sigma = 1e-6 a bridge is its chord, so each outcome is known.
        # From D = I = 0 with b = 1, over one cell of length 1:
        # - a drop to -0.4 (decidable), which moves I there, and a jump of 1.2:
        #   D* = 1.2 >= b, a jump crossing at t = 1 with undershoot 1 and
        #   overshoot 0.2, though D = 0.8 < b;
        # - a rise to 1.5 (not decidable, so split): creeps over at t = 2/3;
        # - the drop and a jump of 0.9: D* = 0.9 < b, censored at the next cell.
        model = ModelSpec(kind="perturbed_cp_ph", mu=0.0, sigma=1e-6, lam=1.0, ph=PhaseType([1.0], [[-1.0]]))
        passes = []

        def cells(law, rng, room, k, cap):  # the cells above, then one to the horizon
            passes.append(k)
            one, zero = np.ones((room.size, 1)), np.zeros((room.size, 1))
            if len(passes) == 1:
                cont, jump = np.array([[-0.4], [1.5], [-0.4]]), np.array([[1.2], [0.0], [0.9]])
                return _Segments(zero, one, cont, jump, one > 0)
            return _Segments(zero, room[:, None].copy(), zero, zero, one < 0)

        monkeypatch.setattr(levypassage.mc, "_segment", cells)
        sample = run_reflected_first_passage(model, SimConfig(n_paths=3, seed=1, max_blocks=1), 1.0)
        assert np.allclose(sample.t_cross[:2], [1.0, 2.0 / 3.0], atol=1e-5) and np.isinf(sample.t_cross[2])
        assert list(sample.exit_kind[:2]) == [EXIT_JUMP, EXIT_CREEP]
        assert np.allclose(sample.undershoot[:2], [1.0, 0.0], atol=1e-5)
        assert np.allclose(sample.overshoot[:2], [0.2, 0.0], atol=1e-5)

    def test_split_depth_is_bounded(self, monkeypatch):
        # a cell that needs more halvings than allowed raises, so the split
        # cannot loop: pieces of length 1/4 from 0.5 are never decidable at b = 1
        monkeypatch.setattr(levypassage.mc, "_MAX_SPLITS", 2)
        one = np.ones(1)
        with pytest.raises(NoConvergence):
            _cells(_Law(1.0, 1.0, None), _substream(5, 0, 0), 1.0, 0.5 * one, 0.6 * one, one, 0.0 * one)


class TestReflectedMC:
    def test_reflected_first_passage_at_coarse_dt(self, bm_model):
        # reflected first passage reads no dt: at a step of 0.02 a block
        # engine stamped each crossing at its step's end and read about 9 SE low
        b, delta = 1.0, 0.5
        scales = build_scale_set(bm_model, delta, 4.0)
        target = float(scales.z(b)) - delta * float(scales.w(b)) ** 2 / float(scales.w_prime(b))
        cfg = SimConfig(dt=0.02, t_max=8.0, n_paths=100_000, seed=3, max_blocks=4)
        mc = run_reflected_first_passage(bm_model, cfg, b).laplace_at(delta)
        assert_within_se(mc.estimate, mc.std_error, target, 3.0, "reflected first passage")

    def test_reflected_first_passage_laplace_bm(self, bm_model):
        # D* = D - inf(D ^ 0) is the spectrally negative X = -D reflected at
        # its supremum: E[e^{-delta T*_b}] = Z(b) - delta W(b)^2 / W'(b)
        b, delta = 1.0, 0.5
        scales = build_scale_set(bm_model, delta, 4.0)
        target = float(scales.z(b)) - delta * float(scales.w(b)) ** 2 / float(scales.w_prime(b))
        cfg = SimConfig(dt=1e-3, t_max=8.0, n_paths=20_000, seed=3, max_blocks=4)
        mc = run_reflected_first_passage(bm_model, cfg, b).laplace_at(delta)
        assert_within_se(mc.estimate, mc.std_error, target, 3.0, "reflected first passage")

    def test_reflected_first_passage_pure_gamma(self, gamma_model):
        # at sigma = 0 D is nondecreasing, its infimum stays at 0 and T*_b = T_b
        sample = run_reflected_first_passage(gamma_model, SimConfig(t_max=8.0, n_paths=20_000, seed=3, max_blocks=4), 1.0)
        for t in (0.5, 1.0, 2.0):
            mc = sample.cdf_at(t)
            assert_within_se(mc.estimate, mc.std_error, gamma_exact_cdf(gamma_model, 1.0, t), 3.0, f"P(T*_b <= {t})")

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
