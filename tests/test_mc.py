"""The exact increment sampler and the Monte Carlo estimators of the reflected
process against exact laws."""

import math

import numpy as np
import pytest

from conftest import assert_within_se

from levypassage.first_passage import inverse_gaussian_cdf
from levypassage.lundberg import build_scale_set
from levypassage.mc import SimConfig, increment_exact, run_reflected_first_passage
from levypassage.reflected import duality_check, reflected_passage_density


@pytest.mark.parametrize("name", ["bm_model", "gamma_model", "pgamma_model_wide", "ph2_model"])
@pytest.mark.parametrize("t", [0.3, 2.0])
def test_increment_exact_moments(request, name, t):
    # D_t has mean E[D_1] t and variance Var[D_1] t for every kind
    model = request.getfixturevalue(name)
    rng = np.random.Generator(np.random.Philox(11))
    x = increment_exact(model, rng, np.full(20_000, t))
    n = x.size
    centred = x - x.mean()
    var = float(np.mean(centred**2)) * n / (n - 1)
    se_var = math.sqrt((float(np.mean(centred**4)) - var**2) / n)
    assert_within_se(float(x.mean()), math.sqrt(var / n), model.mean_d1 * t, 4.0, f"{name} mean")
    assert_within_se(var, se_var, model.var_d1 * t, 4.0, f"{name} variance")


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
