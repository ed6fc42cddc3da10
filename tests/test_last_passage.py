import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive, log_ndtr, ndtr
from scipy.stats import gamma as gamma_law
from scipy.stats import norm, poisson

from conftest import assert_within_se
from levypassage.errors import NoJumpPart, TailNotDominated, WrongKind
from levypassage.first_passage import inverse_gaussian_cdf, transform_from_scales
from levypassage.last_passage import (
    _gaussian_escape_mass,
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
from levypassage.models import KIND_BROWNIAN, KIND_PERTURBED_GAMMA, KIND_PH, ModelSpec, PhaseType


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

    @pytest.mark.parametrize(
        "mu, sigma, alpha, xi, t",
        [(0.1, 1.0, 2.0, 0.05, 4.0), (0.0, 2.0, 1.0, 0.1, 3.0), (0.1, 1.0, 2.0, 0.05, 3.0)],
    )
    def test_perturbed_gamma_small_jumps(self, mu, sigma, alpha, xi, t):
        # sigma sqrt(t)/xi = 40, 34.6 and 34.6: the core integral's factor
        # e^{-(x+z)^2/2} underflowed past z = 37.6, and the density read 0 at
        # the mean of the first case (0.199) and four standard deviations
        # below the mean of the second (3.85e-5); oracle by quadrature
        m = ModelSpec(kind="perturbed_gamma", mu=mu, sigma=sigma, alpha=alpha, xi=xi)
        s, st = alpha * t, sigma * math.sqrt(t)
        mean, sd = mu * t + s * xi, math.sqrt(st**2 + s * xi**2)

        def integrand(u, a):
            log_gam = (s - 1.0) * math.log(u) - u / xi - math.lgamma(s) - s * math.log(xi)
            return math.exp(log_gam) * norm.pdf(a - mu * t - u, scale=st)

        for a in mean + sd * np.array([-4.0, -1.0, 0.0, 2.0]):
            oracle, _ = quad(integrand, 0.0, s * xi + 60.0 * math.sqrt(s) * xi, args=(a,), points=[s * xi],
                             epsabs=0.0, epsrel=1e-13, limit=400)
            assert float(perturbed_gamma_density(m, t, a)) == pytest.approx(oracle, rel=1e-10), a

    def test_mass_split_with_small_jumps(self):
        # at sigma sqrt(t)/xi = 40 the split read 0.216 once the density was 0
        m = ModelSpec(kind="perturbed_gamma", mu=0.1, sigma=1.0, alpha=2.0, xi=0.05)
        b = 0.8  # the mean of D_4
        assert last_passage_cdf(m, b, 4.0) + last_passage_joint_mass(m, b, 4.0) == pytest.approx(1.0, abs=1e-5)

    def test_masses(self, bm_model, pgamma_model, ph_model, gamma_model):
        for model in (bm_model, pgamma_model, ph_model, gamma_model):
            dens = density_of_dt(model, 1.0)
            assert np.trapezoid(dens.f.values, dx=dens.f.h) == pytest.approx(1.0, abs=1e-6)
            assert np.all(dens.f.values >= 0)

    def test_gamma_density_zero_below_drift(self, gamma_model):
        dens = density_of_dt(gamma_model, 1.0)
        assert float(dens(-0.5)) == 0.0

    def test_ph_density_zero_outside_its_support(self, ph2_model):
        # the density is its grid on the support and 0 on both sides of it
        dens = density_of_dt(ph2_model, 1.0)
        lo, hi = dens.f.x0, dens.f.x_max
        assert dens(np.array([lo - 1.0, lo - 1e-6, hi + 1e-6, hi + 1.0])).tolist() == [0.0] * 4
        assert dens(lo - 1.0) == 0.0 and dens(hi + 1.0) == 0.0
        assert dens(ph2_model.mean_d1) > 0.1

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

    @pytest.mark.parametrize("t, n", [(math.nan, None), (math.inf, None)])
    def test_out_of_domain_is_rejected(self, bm_model, ph_model, t, n):
        # a NaN or infinite horizon would build a NaN law
        for model in (bm_model, ph_model):
            with pytest.raises(ValueError):
                density_of_dt(model, t)


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
        got = float(last_passage_joint_density(bm_model, 1.0, 1.0, a))
        assert got == pytest.approx(float(dens(a)), rel=1e-12)

    def test_joint_density_nonnegative(self, bm_model):
        dens = density_of_dt(bm_model, 1.0)
        xs = dens.f.grid()
        vals = np.asarray(last_passage_joint_density(bm_model, 1.0, 1.0, xs))
        assert np.all(vals >= 0)
        assert np.all(vals <= dens.f.values + 1e-15)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_mass_split_all_kinds(
        self, bm_model, pgamma_model, ph_model, gamma_model, t
    ):
        for model in (bm_model, pgamma_model, ph_model, gamma_model):
            total = last_passage_cdf(model, 1.0, t) + last_passage_joint_mass(model, 1.0, t)
            assert total == pytest.approx(1.0, abs=1e-5), model.kind

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
        name, model = model, request.getfixturevalue(model)
        rho0 = escape_rate(model)
        sd = math.sqrt(model.var_d1 * t)
        top = model.mean_d1 * t + 60.0 * sd + 40.0

        def integrand(a):
            return -math.expm1(-rho0 * (a - b)) * perturbed_gamma_density(model, t, a)

        pts = [b + k * sd for k in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0)]
        want = quad(integrand, b, top, points=pts, limit=500, epsabs=0.0, epsrel=1e-13)[0]
        assert last_passage_cdf(model, b, t) == pytest.approx(want, rel=1e-9, abs=0.0)
        if (name, b, t) == ("pgamma_model_wide", 1.0, 2.0):
            # a D_1 density once answered for D_2 here: P(L_1 < 2) read 0.4225
            assert last_passage_cdf(model, b, t) == pytest.approx(0.7368, abs=1e-4)

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


def _escape_against(model, t, c, density, lo, hi):
    """int esc_G(c - mu t - y) density(y) dy over [lo, hi], esc_G the Gaussian
    part's closed escape mass, by adaptive quadrature on 40 panels."""
    tau, rho0, u = model.sigma * math.sqrt(t), escape_rate(model), c - model.mu * t

    def integrand(y):
        return float(_gaussian_escape_mass(u - y, tau, rho0)) * density(y)

    edges = np.linspace(lo, hi, 41)
    return sum(quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0] for a, b in zip(edges[:-1], edges[1:]))


def _exp1_escape(model, t, c):
    """Exp(1) jumps at rate lam: the no-jump atom e^{-lam t} esc_G(c - mu t),
    plus esc_G against the Bessel density e^{-lam t - y} sqrt(lam t / y)
    I_1(2 sqrt(lam t y)) of J_t, over 40 sd of J_t about its mean."""
    lt = model.lam * t

    def density(y):
        z = 2.0 * math.sqrt(lt * y)
        return math.exp(-lt - y + z) * math.sqrt(lt / y) * ive(1, z)

    atom = math.exp(-lt) * float(_gaussian_escape_mass(c - model.mu * t, model.sigma * math.sqrt(t), escape_rate(model)))
    sd = math.sqrt(2.0 * lt)
    return atom + _escape_against(model, t, c, density, max(1e-300, lt - 40.0 * sd), lt + 40.0 * sd)


def _gamma_escape(model, t, c):
    """Gamma jumps: esc_G against the Gamma(alpha t, xi) density of J_t."""
    law = gamma_law(model.alpha * t, scale=model.xi)
    return _escape_against(model, t, c, law.pdf, max(0.0, law.mean() - 40.0 * law.std()), law.mean() + 40.0 * law.std())


def _erlang2_escape(model, t, c):
    """Erlang(2, 2) jumps: esc_G against the Poisson mixture of the
    Gamma(2n, 1/2) laws of J_t given n jumps, n within 12 sd of lam t (the
    atom at no jump is below e^{-lam t})."""
    lt = model.lam * t
    n = np.arange(max(1, int(lt - 12.0 * math.sqrt(lt))), int(lt + 12.0 * math.sqrt(lt)))
    weights = poisson.pmf(n, lt)
    sd = math.sqrt(1.5 * lt)
    return _escape_against(
        model, t, c, lambda y: float(weights @ gamma_law.pdf(y, 2 * n, scale=0.5)), lt - 40.0 * sd, lt + 40.0 * sd
    )


_LONG = {
    "ph_sigma_0.5": (ModelSpec(kind=KIND_PH, mu=0.2, sigma=0.5, lam=1.0, ph=PhaseType([1.0], [[-1.0]])), _exp1_escape),
    "ph_sigma_0.01": (ModelSpec(kind=KIND_PH, mu=0.1, sigma=0.01, lam=1.0, ph=PhaseType([1.0], [[-1.0]])), _exp1_escape),
    "pgamma": (ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.2, sigma=0.05, alpha=1.5, xi=0.7), _gamma_escape),
}


class TestLongHorizons:
    """Hundreds to thousands of expected jumps by t: J = E[e^{s D_t}; a jump]
    is e^{t kappa} large, and the escape mass must not form it."""

    @pytest.mark.parametrize("name", sorted(_LONG))
    def test_escape_mass_against_quadrature(self, name):
        # at c = E[D_t]; the bounds once read log J as the log of an
        # overflowed J, and raised from t = 500 (ph_sigma_0.01), t = 1000
        # (ph_sigma_0.5) and t = 5000 (pgamma)
        model, reference = _LONG[name]
        ts = np.array([700.0, 2000.0, 1e4])
        cs = model.mean_d1 * ts
        want = [reference(model, t, c) for t, c in zip(ts, cs)]
        assert density_of_dt(model, ts[0]).escape_mass(cs, ts) == pytest.approx(want, rel=0.0, abs=1e-10)
        for t, c, w in zip(ts, cs, want):
            assert last_passage_cdf(model, c, t) == pytest.approx(w, rel=0.0, abs=1e-10)

    def test_share_stays_finite_off_the_real_axis(self):
        # Erlang jumps: Re E e^{s Y} < 0 at some frequencies, so the no-jump
        # factor e^{-t (phi_J(-s) + lam)} of a Fourier node passes e^{700} at t = 1e4
        model = ModelSpec(kind=KIND_PH, mu=0.1, sigma=0.01, lam=1.0, ph=PhaseType([1.0, 0.0], [[-2.0, 2.0], [0.0, -2.0]]))
        t = 1e4
        c = model.mean_d1 * t
        assert last_passage_cdf(model, c, t) == pytest.approx(_erlang2_escape(model, t, c), rel=0.0, abs=1e-10)


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
                bracket = np.exp(scales.rho * (1.0 - ys)) * (
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
        inner = np.concatenate([  # 16 row blocks of the (y, w) table, one call each
            np.trapezoid(last_passage_overshoot_transform(ph_model, scales_ph0, b, y[:, None], ws, rho0), ws, axis=1)
            for y in np.array_split(ys, 16)
        ])
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
        rho = scales.rho
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
