"""Monte Carlo estimators of the reflected process against exact laws."""

from conftest import assert_within_se

from levypassage.first_passage import inverse_gaussian_cdf
from levypassage.lundberg import build_scale_set
from levypassage.mc import SimConfig, run_reflected_first_passage
from levypassage.reflected import duality_check


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

    def test_duality_bm(self, bm_model):
        # P(D*_t > b) = P(T_b <= t), the inverse Gaussian law for BM
        b, t = 1.0, 1.0
        cfg = SimConfig(dt=1e-3, t_max=t, n_paths=20_000, seed=3, max_blocks=1)
        p_reflected, p_passage = duality_check(bm_model, b, t, cfg)
        target = float(inverse_gaussian_cdf(bm_model, b, t))
        assert_within_se(p_reflected.estimate, p_reflected.std_error, target, 3.0, "P(D*_t > b)")
        assert_within_se(p_passage.estimate, p_passage.std_error, target, 3.0, "P(T_b <= t)")
