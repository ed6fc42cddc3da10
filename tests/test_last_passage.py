import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm

from conftest import assert_within_se
from levypassage.errors import NoJumpPart, TailNotDominated, UsageError, WrongKind
from levypassage.first_passage import inverse_gaussian_cdf, transform_from_scales
from levypassage.last_passage import (
    bm_last_passage_cdf,
    bm_last_passage_density,
    density_of_dt,
    last_passage_cdf,
    last_passage_joint_density,
    last_passage_joint_mass,
    last_passage_overshoot_transform,
    perturbed_gamma_density,
    reflected_last_passage_exp_joint,
    reflected_last_passage_transform,
)
from levypassage.lundberg import build_scale_set, escape_rate, solve_lundberg
from levypassage.mc import (
    EXIT_JUMP,
    SimConfig,
    run_last_passage,
    run_reflected_at_exp_horizon,
    run_reflected_last_passage,
)
from levypassage.models import KIND_BROWNIAN, KIND_PH, ModelSpec, PhaseType


_ORACLE_MAX_RHO_TAU = 2.0  # the oracle's validated range of rho0 sigma sqrt(t)


def _exp_jump_escape_oracle(model, b, t):
    """P(L_b < t) for Exp(theta) jumps as a Poisson mixture over the jump
    count k: S_k ~ Gamma(k, 1/theta), each term an adaptive quadrature of its
    density against the closed Gaussian escape mass, plus the k = 0 term.

    Validated for rho0 sigma sqrt(t) <= 2 only, and it raises beyond.  In
    that range it meets the library's escape mass to 2e-14 relative for
    sigma >= 0.03, and to 4.1e-10 for sigma down to 0.003.  Beyond it the
    escape factor's edge, shifted by rho0 sigma^2 t, falls outside the
    quadrature's break points.  The error then grows fast: 1e-7 at
    rho0 sigma sqrt(t) = 4 (sigma = 0.01), and 5e-5 at 141 (sigma = 1e-3),
    where a 200-panel Poisson mixture sides with the library."""
    rho0 = escape_rate(model)
    theta = -float(model.ph.t_mat[0, 0])
    tau = model.sigma * math.sqrt(t)
    lt, c = model.lam * t, b - model.mu * t
    a = rho0 * tau
    if a > _ORACLE_MAX_RHO_TAU:
        raise ValueError(f"rho0 sigma sqrt(t) = {a:.3g} is outside the oracle's validated range")

    def gauss(u):  # E[1 - e^{-rho0 (tau Z - u)}; tau Z > u]
        z = u / tau
        return -ndtr(-z) * math.expm1(a * z + 0.5 * a * a + log_ndtr(-(z + a)) - log_ndtr(-z))

    total = math.exp(-lt) * gauss(c)
    for k in range(1, 1000):
        weight = math.exp(-lt + k * math.log(lt) - math.lgamma(k + 1))
        if k > lt and weight < 1e-20:
            break
        top = max(c, 0.0) + (k + 10.0 * math.sqrt(k) + 40.0) / theta

        def integrand(x, k=k):
            return theta * (theta * x) ** (k - 1) * math.exp(-theta * x - math.lgamma(k)) * gauss(c - x)

        pts = [c + d for d in (-12 * tau, -4 * tau, -tau, 0.0, tau, 1 / rho0, 4 / rho0, 16 / rho0)]
        pts = [p for p in pts if 0.0 < p < top]
        total += weight * quad(integrand, 0.0, top, points=pts, limit=400, epsabs=0.0, epsrel=1e-13)[0]
    return total


class TestDensityOfDt:
    def test_bm_peak(self, bm_model):
        dens = density_of_dt(bm_model, 1.0)
        assert float(dens(1.0)) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-10)

    def test_closed_form_kinds_evaluate_exactly(self, pgamma_model, gamma_model):
        # between grid nodes the call agrees with the closed form, not the
        # interpolated table
        a = np.array([0.123, 1.777, 3.31])
        dens = density_of_dt(pgamma_model, 1.0)
        assert np.asarray(dens(a)) == pytest.approx(
            np.asarray(perturbed_gamma_density(pgamma_model, 1.0, a)), rel=1e-14
        )
        dens = density_of_dt(gamma_model, 1.0)
        assert np.asarray(dens(a)) == pytest.approx(np.exp(-a), rel=1e-12)

    @pytest.mark.parametrize("a", [0.0, 1.0, 3.0])
    def test_perturbed_gamma_vs_convolution(self, pgamma_model, a):
        # direct numerical convolution of Gamma(t, 1) and N(0, t) at t = 1
        oracle, _ = quad(
            lambda u: math.exp(-u) * math.exp(-((a - u) ** 2) / 2.0) / math.sqrt(2 * math.pi),
            0.0,
            80.0,
            limit=400,
        )
        assert float(perturbed_gamma_density(pgamma_model, 1.0, a)) == pytest.approx(
            oracle, abs=1e-6 * max(1.0, oracle)
        )

    def test_perturbed_gamma_general_parameters(self, pgamma_model_wide):
        # mu, sigma, alpha, xi all nontrivial; oracle by quadrature
        m = pgamma_model_wide
        t, a = 1.7, 1.2
        atil = a - m.mu * t
        s = m.alpha * t

        def integrand(u):
            gam = u ** (s - 1) * math.exp(-u / m.xi) / (math.gamma(s) * m.xi**s)
            return gam * norm.pdf(atil - u, scale=m.sigma * math.sqrt(t))

        oracle, _ = quad(integrand, 0.0, 60.0, limit=400)
        ours = float(perturbed_gamma_density(m, t, a))
        assert ours == pytest.approx(oracle, rel=1e-8)

    def test_masses(self, bm_model, pgamma_model, ph_model, gamma_model):
        for model in (bm_model, pgamma_model, ph_model, gamma_model):
            dens = density_of_dt(model, 1.0)
            assert np.trapezoid(dens.f.values, dx=dens.f.h) == pytest.approx(1.0, abs=1e-6)
            assert np.all(dens.f.values >= 0)

    def test_gamma_density_zero_below_drift(self, gamma_model):
        dens = density_of_dt(gamma_model, 1.0)
        assert float(dens(-0.5)) == 0.0

    def test_ph2_mean(self, ph2_model):
        dens = density_of_dt(ph2_model, 1.5)
        xs = dens.f.grid()
        mean = np.trapezoid(xs * dens.f.values, xs)
        assert mean == pytest.approx(ph2_model.mean_d1 * 1.5, abs=5e-4)

    @pytest.mark.parametrize(
        "alpha, t_mat",
        [([1.0], [[-1.0]]), ([0.6, 0.4], [[-2.0, 0.5], [0.3, -1.0]]),
         ([1.0, 0.0, 0.0], [[-2.0, 1.5, 0.0], [0.0, -2.0, 1.5], [1.5, 0.0, -2.0]])],
        ids=["order1", "order2", "order3"],
    )
    def test_ph_grid_mass_mean_variance(self, alpha, t_mat):
        # the lattice grid is exact up to what its support leaves out; at
        # t = 4 the phase-type law's support holds the jump tail to below 1e-8
        # (at t = 1.5 the order-2 law already puts 1e-6 of its variance above it)
        model = ModelSpec(kind=KIND_PH, mu=0.1, sigma=0.7, lam=0.8, ph=PhaseType(alpha, t_mat))
        t = 4.0
        f = density_of_dt(model, t).f
        xs, vals = f.grid(), f.values
        mean = np.trapezoid(xs * vals, dx=f.h)
        var = np.trapezoid((xs - mean) ** 2 * vals, dx=f.h)
        assert np.trapezoid(vals, dx=f.h) == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(model.mean_d1 * t, rel=1e-8)
        assert var == pytest.approx(model.var_d1 * t, rel=1e-8)

    @pytest.mark.parametrize("t, sigma", [(1e-3, 0.05), (1e-6, 0.01), (1e-6, 0.001)])
    def test_ph_grid_short_horizon_small_sigma(self, ph_model, t, sigma):
        # a finite grid that lost at most the jump mass 1 - e^{-lam t}; below
        # 1.5 grid steps the Gaussian part is widened, so the narrowest laws
        # (sigma sqrt(t) = 1e-5 and 1e-6, against h = 1.2e-4) keep their mass too
        model = ModelSpec(kind=KIND_PH, mu=0.1, sigma=sigma, lam=1.0, ph=ph_model.ph)
        f = density_of_dt(model, t).f
        assert np.all(np.isfinite(f.values)) and np.all(f.values >= 0)
        mass = np.trapezoid(f.values, dx=f.h)
        assert -model.lam * t <= mass - 1.0 <= 1e-8

    def test_ph_grid_moments_short_horizon(self, ph2_model):
        # the support must reach past the jump tail: one cut at mean + 14 sd + 1
        # folds it onto the grid's low end, 5.4e-4 off in the mean and 1.8e-3
        # in the variance (relative) at t = 0.3
        t = 0.3
        f = density_of_dt(ph2_model, t).f
        xs, vals = f.grid(), f.values
        mean = np.trapezoid(xs * vals, dx=f.h)
        var = np.trapezoid((xs - mean) ** 2 * vals, dx=f.h)
        assert mean == pytest.approx(ph2_model.mean_d1 * t, rel=1e-6)
        assert var == pytest.approx(ph2_model.var_d1 * t, rel=1e-6)

    @pytest.mark.parametrize(
        "t, n", [(math.nan, None), (math.inf, None), (1.0, 1), (1.0, 3.0), (1.0, 2.5)]
    )
    def test_out_of_domain_is_rejected(self, bm_model, ph_model, t, n):
        # a NaN or infinite horizon would build a NaN law; one point is no
        # grid, and a float size would fail only when the grid is first read
        for model in (bm_model, ph_model):
            with pytest.raises(ValueError):
                density_of_dt(model, t, n)

    def test_numpy_integer_grid_size(self, bm_model, ph_model):
        for model in (bm_model, ph_model):
            assert density_of_dt(model, 1.0, np.int64(513)).f.values.size == 513


class TestLastPassageFree:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
    def test_bm_cdf_matches_density_integral(self, bm_model, t):
        # quadrature of the closed-form L_b density is the independent oracle
        oracle, _ = quad(
            lambda s: float(bm_last_passage_density(bm_model, 1.0, s)), 0.0, t, limit=300
        )
        assert last_passage_cdf(bm_model, 1.0, t) == pytest.approx(oracle, abs=1e-4)

    def test_small_time_limit(self, bm_model):
        assert last_passage_cdf(bm_model, 1.0, 1e-3) < 0.01

    def test_escape_factor_is_probability(self, bm_model):
        from levypassage.lundberg import escape_probability

        zs = np.linspace(0.0, 50.0, 101)
        esc = np.asarray(escape_probability(zs, escape_rate(bm_model)))
        assert np.all((0.0 <= esc) & (esc <= 1.0))

    def test_joint_density_below_threshold_is_marginal(self, bm_model):
        dens = density_of_dt(bm_model, 1.0)
        a = 0.3  # below b = 1
        got = float(last_passage_joint_density(bm_model, 1.0, 1.0, a, density=dens))
        assert got == pytest.approx(float(dens(a)), rel=1e-12)

    def test_joint_density_nonnegative(self, bm_model):
        dens = density_of_dt(bm_model, 1.0)
        xs = dens.f.grid()
        vals = np.asarray(
            last_passage_joint_density(bm_model, 1.0, 1.0, xs, density=dens)
        )
        assert np.all(vals >= 0)
        assert np.all(vals <= dens.f.values + 1e-15)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_mass_split_all_kinds(
        self, bm_model, pgamma_model, ph_model, gamma_model, t
    ):
        for model in (bm_model, pgamma_model, ph_model, gamma_model):
            dens = density_of_dt(model, t)
            total = last_passage_cdf(model, 1.0, t, density=dens) + last_passage_joint_mass(
                model, 1.0, t, density=dens
            )
            assert total == pytest.approx(1.0, abs=1e-5), model.kind

    @pytest.mark.parametrize("fn", [last_passage_cdf, last_passage_joint_mass, last_passage_joint_density])
    def test_density_must_be_the_models_law_at_t(self, pgamma_model_wide, pgamma_model, fn):
        # a D_1 density once answered for D_2: P(L_1 < 2) read 0.4225, not 0.7368
        model = pgamma_model_wide
        args = (model, 1.0, 2.0, 1.5) if fn is last_passage_joint_density else (model, 1.0, 2.0)
        with pytest.raises(UsageError, match=r"at t = 1, not at t = 2"):
            fn(*args, density=density_of_dt(model, 1.0))
        with pytest.raises(UsageError, match="law of D_t for"):
            fn(*args, density=density_of_dt(pgamma_model, 2.0))
        twin = ModelSpec(kind=model.kind, mu=model.mu, sigma=model.sigma, alpha=model.alpha, xi=model.xi)
        assert fn(*args, density=density_of_dt(twin, 2.0)) == fn(*args)
        assert last_passage_cdf(model, 1.0, 2.0) == pytest.approx(0.7368, abs=1e-4)

    @pytest.mark.parametrize("b", [-1.0, 0.0])
    def test_joint_mass_needs_a_positive_threshold(self, bm_model, b):
        for call in (
            lambda: last_passage_joint_mass(bm_model, b, 1.0),
            lambda: last_passage_joint_density(bm_model, b, 1.0, 1.5),
        ):
            with pytest.raises(ValueError, match="threshold must be positive"):
                call()

    @pytest.mark.parametrize("model", ["pgamma_model", "pgamma_model_wide"])
    @pytest.mark.parametrize("b, t", [(1.0, 0.5), (1.0, 2.0), (3.0, 1.0)])
    def test_perturbed_gamma_cdf_vs_quadrature(self, model, b, t, request):
        # the escape-mass route is exact, not a grid approximation
        model = request.getfixturevalue(model)
        rho0 = escape_rate(model)
        sd = math.sqrt(model.var_d1 * t)
        top = model.mean_d1 * t + 60.0 * sd + 40.0

        def integrand(a):
            return -math.expm1(-rho0 * (a - b)) * perturbed_gamma_density(model, t, a)

        pts = [b + k * sd for k in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0)]
        want = quad(integrand, b, top, points=pts, limit=500, epsabs=0.0, epsrel=1e-13)[0]
        assert last_passage_cdf(model, b, t) == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "model, b, t, rel",
        [("short", b, 1e-3, 1e-8) for b in (0.5, 1.0, 1.3, 2.0)]
        + [("ph_model", b, t, 1e-10) for t in (0.3, 1.0, 4.0) for b in (0.5, 2.0)]
        + [("floor", b, 1e-6, 1e-8) for b in (1.0, 2.5, 5.0)]
        + [("floor", 10.0, 1e-6, 1e-6)],
    )
    def test_phase_type_cdf_vs_poisson_mixture(self, ph_model, model, b, t, rel):
        # "short": sigma = 0.05 at t = 1e-3, where the jump tail runs far past
        # the D_t grid's support and the Gaussian part is 1.6e-3 wide.  "floor":
        # sigma sqrt(t) = 1e-5 at the horizon floor of the maintenance kernels,
        # where C ~ lam t e^{-b} rests on the one-jump share alone
        short = ModelSpec(kind=KIND_PH, mu=0.1, sigma=0.05, lam=1.0, ph=PhaseType([1.0], [[-2.0]]))
        floor = ModelSpec(kind=KIND_PH, mu=0.1, sigma=0.01, lam=1.0, ph=PhaseType([1.0], [[-1.0]]))
        model = {"short": short, "floor": floor}.get(model, ph_model)
        want = _exp_jump_escape_oracle(model, b, t)
        assert last_passage_cdf(model, b, t) == pytest.approx(want, rel=rel, abs=0.0)

    def test_oracle_refuses_rho_tau_beyond_its_range(self):
        # sigma = 1e-3, t = 0.5: rho0 sigma sqrt(t) = 141, where it read 1.3e-5 high
        model = ModelSpec(kind=KIND_PH, mu=0.1, sigma=1e-3, lam=1.0, ph=PhaseType([1.0], [[-1.0]]))
        with pytest.raises(ValueError, match="validated range"):
            _exp_jump_escape_oracle(model, 0.5, 0.5)

    def test_cdf_dominated_by_first_passage(self, bm_model, gamma_model):
        # L_b >= T_b pathwise, so P(L_b < t) <= P(T_b <= t)
        from levypassage.first_passage import gamma_exact_cdf, inverse_gaussian_cdf

        for t in (0.5, 1.0, 2.0):
            assert last_passage_cdf(bm_model, 1.0, t) <= float(
                inverse_gaussian_cdf(bm_model, 1.0, t)
            ) + 1e-9
            assert last_passage_cdf(gamma_model, 1.0, t) <= gamma_exact_cdf(
                gamma_model, 1.0, t
            ) + 1e-12


class TestBMClosedForms:
    def test_density_normalizes(self, bm_model):
        total, _ = quad(lambda t: float(bm_last_passage_density(bm_model, 1.0, t)), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_display_value(self, bm_model):
        assert float(bm_last_passage_density(bm_model, 1.0, 1.0)) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-12
        )

    def test_density_is_cdf_derivative(self, bm_model):
        eps = 1e-4
        fd = (
            float(bm_last_passage_cdf(bm_model, 1.0, 1.0 + eps))
            - float(bm_last_passage_cdf(bm_model, 1.0, 1.0 - eps))
        ) / (2 * eps)
        assert float(bm_last_passage_density(bm_model, 1.0, 1.0)) == pytest.approx(
            fd, abs=1e-4
        )

    def test_quadrature_cdf_matches_closed_form(self, bm_model):
        # the trapezoid route over the D_t grid, as 1 - P(L_b >= t)
        for t in (0.5, 1.0, 2.0):
            assert 1.0 - last_passage_joint_mass(bm_model, 1.0, t) == pytest.approx(
                float(bm_last_passage_cdf(bm_model, 1.0, t)), abs=1e-5
            )

    def test_wrong_kind(self, pgamma_model):
        with pytest.raises(WrongKind):
            bm_last_passage_density(pgamma_model, 1.0, 1.0)

    @pytest.mark.parametrize(
        "cdf, at_5", [(bm_last_passage_cdf, 0.9999957), (inverse_gaussian_cdf, 0.9999966)]
    )
    def test_large_escape_rate_stays_finite(self, cdf, at_5):
        # 2 mu b / sigma^2 = 800: e^800 overflows while its Phi factor underflows
        model = ModelSpec(kind=KIND_BROWNIAN, mu=1.0, sigma=0.1)
        vals = cdf(model, 4.0, np.array([1.0, 3.0, 3.9, 4.0, 4.1, 5.0]))
        assert np.all(np.isfinite(vals)) and np.all((vals >= 0) & (vals <= 1))
        assert np.all(np.diff(vals) >= 0)
        assert vals[-1] == pytest.approx(at_5, abs=1e-7)


class TestOvershootTransform:
    @pytest.fixture(scope="class")
    def scales_ph0(self, ph_model):
        return build_scale_set(ph_model, 0.0, 2.0, n=2049)

    def test_vanishes_at_zero_overshoot(self, ph_model, scales_ph0):
        val = last_passage_overshoot_transform(ph_model, scales_ph0, 1.0, 0.5, 1e-12)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_bracket_limit_near_threshold(self, ph_model, scales_ph0):
        # y -> b: bracket -> 1/phi_D'(rho)
        rho0 = escape_rate(ph_model)
        w = 1.0
        val = last_passage_overshoot_transform(ph_model, scales_ph0, 1.0, 1.0 - 1e-9, w)
        view = ph_model.levy_measure()
        expect = (
            1.0
            / scales_ph0.phi_prime_at_rho
            * (1.0 - math.exp(-rho0 * w))
            * float(view.density(w + 1.0))
        )
        assert val == pytest.approx(expect, rel=1e-5)

    def test_bracket_nonnegative(self, ph_model, pgamma_model):
        # e^{rho (b-y)} / phi'(rho) >= W(b-y) pointwise
        for model in (ph_model, pgamma_model):
            for delta in (0.0, 0.5):
                scales = build_scale_set(model, delta, 2.0, n=2049)
                ys = np.linspace(0.0, 1.0, 257, endpoint=False)
                bracket = np.exp(scales.rho.rho * (1.0 - ys)) * (
                    1.0 / scales.phi_prime_at_rho - np.asarray(scales.tilted(1.0 - ys))
                )
                assert np.all(bracket >= 0)

    def test_below_origin_closed_form(self, ph_model, scales_ph0):
        # unit exponential jumps, mu = 0, sigma = 1: rho(0) = 1, phi_D'(1) = 3/4,
        # so for y >= b the density is e^{b-y} (4/3) (1 - e^{-w}) e^{-(w+y)}
        b = 1.0
        ys = np.array([1.0, 1.3, 2.0, 5.0])
        ws = np.array([0.1, 1.0, 2.5, 4.0])
        got = np.asarray(last_passage_overshoot_transform(ph_model, scales_ph0, b, ys, ws))
        expect = np.exp(b - ys) * (4.0 / 3.0) * -np.expm1(-ws) * np.exp(-(ws + ys))
        assert got == pytest.approx(expect, rel=1e-9)

    def test_domain(self, ph_model, scales_ph0):
        with pytest.raises(ValueError):
            last_passage_overshoot_transform(ph_model, scales_ph0, 1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            last_passage_overshoot_transform(ph_model, scales_ph0, 1.0, 0.5, 0.0)

    def test_no_jump_part(self, bm_model):
        scales = build_scale_set(bm_model, 0.0, 2.0)
        with pytest.raises(NoJumpPart):
            last_passage_overshoot_transform(bm_model, scales, 1.0, 0.5, 1.0)

    def test_total_integral_vs_mc_jump_probability(self, ph_model, scales_ph0):
        # delta = 0: double integral = P(final crossing happens by a jump).
        # Undershoots y >= b (crossings that start below the origin) carry
        # mass too, so y runs over [0, b + 30] with a node at y = b.
        b = 1.0
        rho0 = escape_rate(ph_model)
        ys = np.linspace(0.0, b + 30.0, 6201)
        ws = np.linspace(1e-6, 30.0, 801)
        inner = [
            np.trapezoid(
                last_passage_overshoot_transform(ph_model, scales_ph0, b, y, ws, rho0), ws
            )
            for y in ys
        ]
        total = np.trapezoid(inner, ys)
        cfg = SimConfig(dt=1e-3, t_max=6.0, n_paths=30_000, seed=17, max_blocks=10)
        sample = run_last_passage(ph_model, cfg, b)
        by_jump = (sample.exit_kind == EXIT_JUMP)[np.isfinite(sample.l_last)]
        se = float(np.std(by_jump, ddof=1) / math.sqrt(by_jump.size))
        assert_within_se(float(np.mean(by_jump)), se, total, 3.0, "jump-crossing mass")


class TestReflectedLastPassage:
    @pytest.fixture(scope="class")
    def phi_grid(self, bm_model):
        def make(delta):
            rho0 = escape_rate(bm_model)
            a_max = 1.0 + 24.0 / rho0
            scales = build_scale_set(bm_model, delta, a_max, n=4097)
            return transform_from_scales(scales)

        return make

    def test_delta_zero_limit(self, bm_model, phi_grid):
        val = reflected_last_passage_transform(bm_model, phi_grid(1e-4), 1.0)
        assert val == pytest.approx(1.0, abs=0.02)

    def test_monotone_in_delta(self, bm_model, phi_grid):
        vals = [
            reflected_last_passage_transform(bm_model, phi_grid(d), 1.0)
            for d in (0.25, 0.5, 1.0)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_against_mc(self, bm_model, phi_grid):
        delta = 0.5
        target = reflected_last_passage_transform(bm_model, phi_grid(delta), 1.0)
        cfg = SimConfig(dt=2e-3, t_max=6.0, n_paths=30_000, seed=23, max_blocks=10)
        mc = run_reflected_last_passage(bm_model, cfg, 1.0).laplace_at(delta)
        assert_within_se(mc.estimate, mc.std_error, target, 3.0, "reflected L* laplace")

    def test_short_grid_rejected(self, bm_model):
        scales = build_scale_set(bm_model, 0.5, 1.5)
        phi = transform_from_scales(scales)
        with pytest.raises(TailNotDominated):
            reflected_last_passage_transform(bm_model, phi, 1.0)

    def test_exp_joint_nonnegative_and_boundary(self, bm_model):
        delta, b = 0.5, 1.0
        scales = build_scale_set(bm_model, delta, 8.0, n=4097)
        a_grid = np.linspace(b, 7.5, 301)
        vals = np.asarray(reflected_last_passage_exp_joint(bm_model, scales, b, a_grid))
        assert np.all(vals >= -1e-12)
        # boundary a = b: (1 - esc(0)) * (-dphi/da)(b) with esc(0) = 0
        rho = scales.rho.rho
        minus_dphi = delta / rho * float(scales.w_prime(b)) - delta * float(scales.w(b))
        assert vals[0] == pytest.approx(minus_dphi, rel=1e-10)

    def test_exp_joint_integral_vs_mc(self, bm_model):
        delta, b = 0.5, 1.0
        scales = build_scale_set(bm_model, delta, 14.0, n=8193)
        a_grid = np.linspace(b, 14.0, 2049)
        vals = np.asarray(reflected_last_passage_exp_joint(bm_model, scales, b, a_grid))
        analytic = float(np.trapezoid(vals, a_grid))
        cfg = SimConfig(dt=2e-3, t_max=6.0, n_paths=30_000, seed=29)
        _, joint = run_reflected_at_exp_horizon(bm_model, cfg, delta, b)
        se = float(np.std(joint, ddof=1) / math.sqrt(joint.size))
        assert_within_se(float(np.mean(joint)), se, analytic, 3.0, "exp-horizon joint")
