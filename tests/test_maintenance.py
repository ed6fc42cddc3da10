import math

import numpy as np
import pytest
from conftest import assert_within_se
from scipy.fft import irfft
from scipy.integrate import quad
from scipy.special import ive
from scipy.stats import norm

from levypassage import last_passage, maintenance
from levypassage.errors import HorizonExceeded, UnresolvedKernel
from levypassage.last_passage import (
    bm_last_passage_cdf,
    density_lattice,
    density_of_dt,
    last_passage_cdf,
    last_passage_joint_mass,
    perturbed_gamma_density,
)
from levypassage.lundberg import escape_probability, escape_rate
from levypassage.maintenance import (
    InspectionSchedule,
    MaintenanceAction,
    PolicyKernels,
    PolicySpec,
    expected_time_to_renewal,
    joint_law_idle,
    simulate_policy,
)
from levypassage.mc import cycle_ends
from levypassage.models import KIND_BROWNIAN, KIND_PERTURBED_GAMMA, KIND_PH, KIND_PURE_GAMMA, ModelSpec, PhaseType

KINDS = ["bm_model", "gamma_model", "pgamma_model_wide", "ph2_model"]


def _affine_policy(value=1.0):
    return PolicySpec(
        b=2.0,
        m=InspectionSchedule("affine", value, slope=0.2, floor=0.2),
        d=MaintenanceAction("affine", 0.5),
    )


def _check_against_quadrature(model, t, cs, rel=1e-9, abs_tol=0.0):
    """kernel_c against adaptive quadrature of esc(a - c) f_{D_t}(a), to rel or abs_tol."""
    rho0 = escape_rate(model)
    policy = _affine_policy()
    got = PolicyKernels(model, policy).kernel_c(policy.b - np.asarray(cs), horizon=t)
    sd = math.sqrt(model.var_d1 * t)
    top = model.mean_d1 * t + 60.0 * sd + 40.0
    for c, value in zip(cs, got):

        def integrand(a, c=c):
            return -math.expm1(-rho0 * (a - c)) * perturbed_gamma_density(model, t, a)

        pts = [c + k * sd for k in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0)]
        want = quad(integrand, c, top, points=pts, limit=500, epsabs=0.0, epsrel=1e-13)[0]
        assert value == pytest.approx(want, rel=rel, abs=abs_tol), f"c = {c}"


class TestKernelC:
    @pytest.mark.parametrize("kind", KINDS)
    def test_batched_vs_grid_route(self, kind, request):
        model = request.getfixturevalue(kind)
        policy = _affine_policy(value=1.5)
        kernels = PolicyKernels(model, policy)
        ys = np.linspace(-1.0, 1.9, 9)  # nine distinct horizons m(y)
        got = kernels.kernel_c(ys)
        # the trapezoid route over the D_t grid, as 1 - P(L_c >= t)
        want = [1.0 - last_passage_joint_mass(model, policy.b - y, float(policy.m(y))) for y in ys]
        assert got == pytest.approx(want, abs=1e-4)
        one_by_one = [kernels.kernel_c(float(y)) for y in ys]
        assert got == pytest.approx(one_by_one, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("kind", ["pgamma_model", "ph2_model"])
    def test_default_grid_vs_per_state_calls(self, kind, request):
        # one escape_mass call over (state, horizon) pairs gives each state's
        # own last-passage cdf at its horizon m(y): through
        # last_passage_cdf below b, through its route (the law of the state's
        # own horizon) at and above b, where the threshold b - y is not positive
        model = request.getfixturevalue(kind)
        policy = _affine_policy()
        kernels = PolicyKernels(model, policy)
        ys = kernels.default_state_grid()
        horizons = policy.m(ys)
        assert np.unique(horizons).size > 300 and np.sum(ys >= policy.b) > 10
        want = [
            last_passage_cdf(model, policy.b - y, t)
            if y < policy.b
            else density_of_dt(model, t).escape_mass(policy.b - y, t)
            for y, t in zip(ys, horizons)
        ]
        np.testing.assert_allclose(kernels.kernel_c(ys), want, rtol=1e-13, atol=0.0)

    def test_mixed_horizon_floor_vs_per_state_calls(self, pgamma_model_wide):
        # z just under the least m(y): states on m's floor get the horizon
        # 5e-7 (about 1e4 times the nodes of the others), the rest up to 0.8
        kernels = PolicyKernels(pgamma_model_wide, _affine_policy())
        ys = kernels.default_state_grid()
        z = float(np.min(kernels.policy.m(ys))) - 5e-7
        horizons = np.asarray(kernels.policy.m(ys)) - z
        assert np.sum(horizons <= 1e-6) > 10 and np.max(horizons) > 0.5
        got = kernels.kernel_cz(ys, z)
        want = [kernels.kernel_cz(float(y), z) for y in ys]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_escape_call_for_all_horizons(self, kind, request, monkeypatch):
        model = request.getfixturevalue(kind)
        kernels = PolicyKernels(model, _affine_policy())
        law = type(density_of_dt(model, 1.0))
        owner = next(cls for cls in law.__mro__ if "_escape" in vars(cls))
        escape, calls = vars(owner)["_escape"], []

        def counted(self, c, t, rho0):
            calls.append(np.unique(t).size)
            return escape(self, c, t, rho0)

        monkeypatch.setattr(owner, "_escape", counted)
        kernels.kernel_c(kernels.default_state_grid())
        assert len(calls) == 1 and calls[0] > 300

    def test_unresolved_pair_is_named(self):
        # Fix-first 7's band: at sigma sqrt(t) = 1e-5 no damping resolves c = 16.5
        model = ModelSpec(kind=KIND_PH, mu=0.1, sigma=0.01, lam=1.0, ph=PhaseType([1.0], [[-1.0]]))
        law = density_of_dt(model, 1e-6)
        with pytest.raises(UnresolvedKernel, match=r"t = 1e-06, c = 16\.5 "):
            law.escape_mass(np.array([1.0, 16.5, 17.0]), np.array([1.0, 1e-6, 1e-6]))

    def test_bm_closed_form(self, bm_model):
        # each state at its own horizon m(y), to rounding: at m = 1/3 and on
        # the affine policy's state grid
        constant = PolicySpec(b=2.0, m=InspectionSchedule("constant", 1.0 / 3.0), d=MaintenanceAction("affine", 0.5))
        for policy, ys in ((constant, np.linspace(-3.0, 1.99, 41)), (_affine_policy(), None)):
            kernels = PolicyKernels(bm_model, policy)
            ys = kernels.default_state_grid() if ys is None else ys
            got = kernels.kernel_c(ys)
            want = [bm_last_passage_cdf(bm_model, policy.b - y, float(policy.m(y))) for y in ys]
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 0.9])
    @pytest.mark.parametrize("t", [0.2, 2.0])
    def test_perturbed_gamma_vs_quadrature(self, sigma, t):
        # alpha t = 0.3 (singular gamma density at 0) and 3
        model = ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.2, sigma=sigma, alpha=1.5, xi=0.7)
        _check_against_quadrature(model, t, [-1.0, 0.05, 0.3, 1.0, 2.0])

    @pytest.mark.parametrize(
        "alpha, sigma, xi, t, cs",
        [
            # jumps small against sigma sqrt(t): at c = 6 the integrand peaks
            # sigma^2 t / xi = 5 below c, 10 sd from it
            (0.5, 0.5, 0.05, 1.0, [0.05, 1.0, 6.0]),
            # short horizon: alpha t = 1e-5, panels graded towards x^{s-1}
            (1.0, 1.0, 1.0, 1e-5, [0.01, 0.05, 1.0]),
        ],
    )
    def test_perturbed_gamma_far_regimes_vs_quadrature(self, alpha, sigma, xi, t, cs):
        model = ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.0, sigma=sigma, alpha=alpha, xi=xi)
        _check_against_quadrature(model, t, cs)

    def test_perturbed_gamma_short_horizon_far_thresholds(self):
        # sigma sqrt(t) = 5e-5 at the horizon floor: C falls from 1.7e-7 to
        # 6e-14 at c = 10; at c = 100 no sum fits, and a Chernoff bound puts C
        # below the 1e-12 that escape_mass may leave
        model = ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.2, sigma=0.05, alpha=1.5, xi=0.7)
        _check_against_quadrature(model, 1e-6, [1.0, 5.0, 10.0, 15.0], rel=1e-6, abs_tol=1e-15)
        assert 0.0 <= last_passage_cdf(model, 100.0, 1e-6) <= 1e-12

    def test_phase_type_continuous_between_grid_nodes(self, ph2_model):
        # C is continuous in the state across the nodes of the D_t grid f
        kernels = PolicyKernels(ph2_model, _affine_policy())
        grid = kernels._density(1.0).f.grid()
        node = grid[np.searchsorted(grid, 1.0)]
        vals = kernels.kernel_c(2.0 - node + np.array([-1e-12, 0.0, 1e-12]), horizon=1.0)
        assert vals == pytest.approx(vals[1], abs=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_values_finite_in_unit_interval(self, kind, request):
        kernels = PolicyKernels(request.getfixturevalue(kind), _affine_policy())
        ys = np.array([-50.0, -5.0, 0.0, 2.0 - 1e-12, 2.0, 2.0 + 1e-9, 7.0, 52.0])
        for horizon in (1e-6, 0.5, 5.0):
            vals = kernels.kernel_c(ys, horizon=horizon)
            assert np.all(np.isfinite(vals))
            assert np.all((vals >= 0.0) & (vals <= 1.0))
        vals = kernels.kernel_c(ys)
        assert np.all(np.isfinite(vals)) and np.all((vals >= 0.0) & (vals <= 1.0))


class TestChain:
    def test_state_dependent_perturbed_gamma_vs_simulation(self, pgamma_model):
        policy = _affine_policy()
        # the 512-point state grid: on 129 points (step 0.14 over the span
        # [-8.0, 9.9]) the state-grid quadrature of A alone left 2.3e-3 of
        # the mass unbalanced
        p_fail, e_time, ys, rho = PolicyKernels(pgamma_model, policy).chain(4)
        assert p_fail.sum() + np.trapezoid(rho, ys) == pytest.approx(1.0, abs=2e-3)
        sim = simulate_policy(pgamma_model, policy, 20_000, seed=3)
        for i in range(1, 5):
            mc = sim.p_i(i)
            assert_within_se(mc.estimate, mc.std_error, p_fail[i - 1], 3.0, f"P(I = {i})")
            mc = sim.e_t_star_on_i(i)
            assert_within_se(mc.estimate, mc.std_error, e_time[i - 1], 3.0, f"E[T*; I = {i}]")

    @pytest.mark.parametrize(
        "model",
        [
            ModelSpec(kind=KIND_BROWNIAN, mu=0.8, sigma=0.9),
            ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.1, sigma=0.9, alpha=1.2, xi=0.8),
        ],
        ids=["bm", "pgamma"],
    )
    def test_exponential_schedule_vs_simulation(self, model):
        # m(x) = 0.75 e^{-0.4 x} + 0.2: the exponential schedule, which no other test runs
        policy = PolicySpec(
            b=2.0,
            m=InspectionSchedule("exponential", value=0.75, slope=0.4, floor=0.2),
            d=MaintenanceAction("affine", theta=0.5, d0=0.1),
        )
        p_fail, e_time, _, _ = PolicyKernels(model, policy).chain(4)
        sim = simulate_policy(model, policy, 20_000, seed=11)
        for i in range(1, 5):
            mc = sim.p_i(i)
            assert_within_se(mc.estimate, mc.std_error, p_fail[i - 1], 3.0, f"P(I = {i})")
            mc = sim.e_t_star_on_i(i)
            assert_within_se(mc.estimate, mc.std_error, e_time[i - 1], 3.0, f"E[T*; I = {i}]")

    def test_pure_gamma_affine_vs_simulation(self, gamma_model):
        # the state grid stops at d(b): a pure-gamma survivor ends at or below b
        policy = PolicySpec(
            b=2.0, m=InspectionSchedule("constant", 1.5), d=MaintenanceAction("affine", 0.5, 0.1)
        )
        p_fail, _, ys, rho = PolicyKernels(gamma_model, policy).chain(4)
        assert p_fail.sum() + np.trapezoid(rho, ys) == pytest.approx(1.0, abs=2e-3)
        sim = simulate_policy(gamma_model, policy, 100_000, seed=3)
        for i in range(1, 5):
            mc = sim.p_i(i)
            assert_within_se(mc.estimate, mc.std_error, p_fail[i - 1], 3.0, f"P(I = {i})")

    @pytest.mark.parametrize("kind", ["pgamma_model", "ph_model"])
    def test_reset_chain_geometric(self, kind, request):
        model = request.getfixturevalue(kind)
        policy = PolicySpec(
            b=2.0, m=InspectionSchedule("constant", 0.8), d=MaintenanceAction("reset", d0=0.3)
        )
        kernels = PolicyKernels(model, policy)
        p_fail, e_time, _, _ = kernels.chain(4)
        c0 = last_passage_cdf(model, 2.0, 0.8)
        cd = last_passage_cdf(model, 1.7, 0.8)
        i = np.arange(1, 5)
        want = np.where(i == 1, c0, (1.0 - c0) * (1.0 - cd) ** np.maximum(i - 2, 0) * cd)
        assert p_fail == pytest.approx(want, abs=1e-4)
        assert e_time == pytest.approx(0.8 * i * want, abs=1e-4)
        # the idle law at z = 0 runs the same recursion and ends with C
        idle = [joint_law_idle(kernels, k, 0.0) for k in i]
        assert idle == pytest.approx(p_fail, rel=1e-12)


class TestIdleLaw:
    @pytest.mark.parametrize("kind", ["bm_model", "pgamma_model", "ph_model", "gamma_model"])
    def test_idle_joint_vs_idle_mode_mc(self, kind, request):
        model = request.getfixturevalue(kind)
        # pure gamma takes alpha m = 1.5, where its D_t density stays finite at 0
        m, d0 = (1.5, 0.1) if kind == "gamma_model" else (1.0, 0.0)
        policy = PolicySpec(
            b=2.0, m=InspectionSchedule("constant", m), d=MaintenanceAction("affine", 0.5, d0)
        )
        kernels = PolicyKernels(model, policy)
        sim = simulate_policy(model, policy, 20_000, seed=3, idle_mode=True)
        for i in (1, 2):
            target = joint_law_idle(kernels, i, 0.3)
            mc = sim.p_idle_joint(i, 0.3)
            assert_within_se(mc.estimate, mc.std_error, target, 3.0, f"P(idle > 0.3, I = {i})")

    @pytest.mark.parametrize("kind", KINDS)
    def test_idle_mode_keeps_the_plain_cycles(self, kind, request):
        # the bridges draw from their own substream, so the failing cycle and
        # the regeneration time of every path match plain mode bit for bit
        model = request.getfixturevalue(kind)
        policy = _affine_policy()
        plain = simulate_policy(model, policy, 3_000, seed=5)
        idle = simulate_policy(model, policy, 3_000, seed=5, idle_mode=True)
        assert np.array_equal(idle.i_of_path, plain.i_of_path)
        assert np.array_equal(idle.t_star, plain.t_star)
        assert np.all((idle.idle >= 0.0) & (idle.idle <= idle.t_star))

    def test_idle_beyond_short_cycle_is_zero(self, pgamma_model):
        # affine m reaches its floor 0.2 < z on reachable states, where
        # P[idle > z] is zero rather than an error
        policy = PolicySpec(
            b=2.0,
            m=InspectionSchedule("affine", 1.0, slope=0.2, floor=0.2),
            d=MaintenanceAction("affine", 0.5),
        )
        kernels = PolicyKernels(pgamma_model, policy)
        y_short = float(kernels.default_state_grid()[-1])
        assert policy.m(y_short) < 0.3
        assert kernels.kernel_cz(y_short, 0.3) == 0.0
        with pytest.raises(ValueError):
            kernels.kernel_cz(0.0, -0.1)
        with pytest.raises(ValueError):
            kernels.kernel_c(0.0, horizon=-0.1)
        p_fail = kernels.chain(3)[0]
        idle = [joint_law_idle(kernels, 3, z) for z in (0.0, 0.3)]
        assert np.all(np.isfinite(idle))
        assert idle[0] == pytest.approx(p_fail[2], rel=1e-12)
        assert 0.0 < idle[1] < idle[0]


    @pytest.mark.parametrize("kind", ["pgamma_model_wide", "ph2_model"])
    def test_full_cycle_idle_is_the_escape_probability(self, kind, request):
        # z = m(y) leaves horizon 0, where D_0 = 0 and the state escapes or not
        kernels = PolicyKernels(request.getfixturevalue(kind), _affine_policy())
        b = kernels.policy.b
        ys = np.array([1.0, b - 1e-3, b - 1e-4, b, b + 1e-3, 2.5])
        got = kernels.kernel_cz(ys, kernels.policy.m(ys))
        np.testing.assert_array_equal(got, escape_probability(ys - b, kernels.rho0))

    def test_full_cycle_idle_small_sigma_phase_type(self):
        # z = m(y) leaves no time: D_0 = 0, so C is 0 under b and the
        # escape probability 1 - e^{-rho0 (y - b)} above it
        model = ModelSpec(kind=KIND_PH, mu=0.1, sigma=0.01, lam=1.0, ph=PhaseType([1.0], [[-1.0]]))
        policy = PolicySpec(b=2.0, m=InspectionSchedule("constant", 1.0), d=MaintenanceAction("affine", 0.5))
        kernels = PolicyKernels(model, policy)
        ys = np.array([0.0, 1.0, 1.9, 2.1, 2.5])
        want = -np.expm1(-kernels.rho0 * np.maximum(ys - policy.b, 0.0))
        np.testing.assert_allclose(kernels.kernel_cz(ys, 1.0), want, rtol=0.0, atol=1e-6)
        assert 0.0 <= joint_law_idle(kernels, 1, 1.0) <= 1e-6
        assert 0.0 <= joint_law_idle(kernels, 2, 1.0) <= 1e-6

    def test_full_cycle_idle_small_sigma_phase_type_high_threshold(self):
        # as above with b = 2.5: C is 0 under b, exactly
        model = ModelSpec(kind=KIND_PH, mu=0.1, sigma=0.01, lam=1.0, ph=PhaseType([1.0], [[-1.0]]))
        policy = PolicySpec(b=2.5, m=InspectionSchedule("constant", 1.0), d=MaintenanceAction("affine", 0.5))
        kernels = PolicyKernels(model, policy)
        ys = np.array([0.0, 1.0, 2.4, 2.6, 3.0])
        got = kernels.kernel_cz(ys, 1.0)
        want = -np.expm1(-kernels.rho0 * np.maximum(ys - policy.b, 0.0))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)
        assert np.all(got[:3] == 0.0)
        assert 0.0 <= joint_law_idle(kernels, 1, 1.0) <= 1e-6
        assert 0.0 <= joint_law_idle(kernels, 2, 1.0) <= 1e-6


# i_of_path.sum() and t_star.sum() of simulate_policy(model, _affine_policy(),
# 3_000, seed=5) when every path ran until it failed, before the cycles ran
# on demand
PLAIN_PINS = {
    "bm_model": (18956, 17175.408759267753),
    "gamma_model": (16228, 14985.169611768692),
    "pgamma_model_wide": (13064, 11954.86490668365),
    "ph2_model": (22406, 21025.355028755373),
}


class TestPolicySimulation:
    @pytest.mark.parametrize("kind", KINDS)
    def test_statistics_do_not_depend_on_the_run_length(self, kind, request):
        # a statistic of level i runs cycles 1..i; the full run draws the
        # same cycles first, so both read the same paths bit for bit
        model = request.getfixturevalue(kind)
        lazy = simulate_policy(model, _affine_policy(), 3_000, seed=5)
        full = simulate_policy(model, _affine_policy(), 3_000, seed=5)
        full.mean_t_star()
        for i in range(1, 5):
            assert lazy.p_i(i) == full.p_i(i)
            assert lazy.e_t_star_on_i(i) == full.e_t_star_on_i(i)

    @pytest.mark.parametrize("kind", KINDS)
    def test_plain_mode_pin(self, kind, request):
        sim = simulate_policy(request.getfixturevalue(kind), _affine_policy(), 3_000, seed=5)
        assert (int(sim.i_of_path.sum()), float(sim.t_star.sum())) == PLAIN_PINS[kind]

    def test_idle_statistic_does_not_depend_on_the_run_length(self, ph2_model):
        first = simulate_policy(ph2_model, _affine_policy(), 3_000, seed=5, idle_mode=True)
        late = simulate_policy(ph2_model, _affine_policy(), 3_000, seed=5, idle_mode=True)
        late.mean_t_star()
        assert first.p_idle_joint(2, 0.3) == late.p_idle_joint(2, 0.3)

    def test_runs_only_the_cycles_read(self, pgamma_model_wide, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return cycle_ends(*args)

        monkeypatch.setattr(maintenance, "cycle_ends", counted)
        sim = simulate_policy(pgamma_model_wide, _affine_policy(), 3_000, seed=5)
        assert not calls
        sim.p_i(4)
        assert len(calls) <= 4
        n = len(calls)
        sim.p_i(4)
        assert len(calls) == n

    def test_horizon_exceeded_is_raised_on_every_full_read(self, bm_model, monkeypatch):
        monkeypatch.setattr(maintenance, "_MAX_CYCLES", 3)
        sim = simulate_policy(bm_model, _affine_policy(), 3_000, seed=5)
        assert 0.0 < sim.p_i(2).estimate < 1.0
        for _ in range(2):
            with pytest.raises(HorizonExceeded):
                sim.mean_t_star()
        for _ in range(2):
            with pytest.raises(HorizonExceeded):
                sim.i_of_path
        for _ in range(2):  # a statistic whose read raised keeps nothing
            with pytest.raises(HorizonExceeded):
                sim.p_i(4)
        assert sim.p_i(3) == simulate_policy(bm_model, _affine_policy(), 3_000, seed=5).p_i(3)

    def test_each_statistic_is_computed_once(self, ph2_model, monkeypatch):
        made = []
        mean_result = maintenance._mean_result

        def counted(values, meta):
            made.append(meta)
            return mean_result(values, meta)

        monkeypatch.setattr(maintenance, "_mean_result", counted)
        sim = simulate_policy(ph2_model, _affine_policy(), 3_000, seed=5, idle_mode=True)
        for _ in range(2):
            sim.p_i(3), sim.e_t_star_on_i(3), sim.p_idle_joint(2, 0.3), sim.mean_t_star()
        assert made == ["P(I=3)", "E[T*; I=3]", "P(idle>0.3, I=2)", "E[T*]"]
        fresh = simulate_policy(ph2_model, _affine_policy(), 3_000, seed=5, idle_mode=True)
        assert (sim.p_i(3), sim.p_idle_joint(2, 0.3)) == (fresh.p_i(3), fresh.p_idle_joint(2, 0.3))

    def test_inputs_are_checked(self, bm_model):
        # the path count at the call; a level below 1 would read the share
        # of paths not yet run as failing there
        with pytest.raises(ValueError):
            simulate_policy(bm_model, _affine_policy(), 0)
        plain = simulate_policy(bm_model, _affine_policy(), 100)
        idle = simulate_policy(bm_model, _affine_policy(), 100, idle_mode=True)
        bad_reads = [
            lambda: plain.p_i(0),
            lambda: plain.e_t_star_on_i(0),
            lambda: plain.p_idle_joint(1, 0.3),
            lambda: idle.p_idle_joint(0, 0.3),
            lambda: idle.p_idle_joint(1, -0.1),
        ]
        for read in bad_reads:
            with pytest.raises(ValueError):
                read()


def _ph1_density(model, t, x):
    """f_{D_t}(x) for exponential jumps of rate 1, by adaptive quadrature of
    the Gaussian part against the compound-Poisson law: an atom e^{-lam t}
    at 0 plus the density e^{-lam t - y} sqrt(lam t / y) I_1(2 sqrt(lam t y))."""
    lt, s, c = model.lam * t, model.sigma * math.sqrt(t), x - model.mu * t

    def gauss(u):
        return math.exp(-0.5 * (u / s) ** 2) / (s * math.sqrt(2.0 * math.pi))

    def integrand(y):
        z = 2.0 * math.sqrt(lt * y)
        return gauss(c - y) * math.exp(-lt - y + z) * math.sqrt(lt / y) * ive(1, z)

    lo, top = max(0.0, c - 12.0 * s), max(c, 0.0) + 12.0 * s
    pts = [p for p in (c - 2 * s, c - s, c, c + s, c + 2 * s) if lo < p < top]
    body = quad(integrand, lo, top, points=pts or None, limit=400, epsabs=1e-300, epsrel=1e-13)[0]
    tail = quad(integrand, top, math.inf, limit=400, epsabs=1e-300, epsrel=1e-13)[0]
    return math.exp(-lt) * gauss(c) + body + tail


class TestTransitionMatrix:
    """The lattice-built matrix against the pointwise kernel_a, row by row."""

    @pytest.mark.parametrize("n", [33, 512])
    @pytest.mark.parametrize(
        "kind, sigma, schedule",
        [
            ("bm_model", None, "affine"),
            ("pgamma_model", None, "constant"),
            ("pgamma_model", None, "affine"),
            # on 33 states |E e^{i w D_t}| at the lattice's Nyquist frequency
            # is far above 1e-16, so the rows come from an oversampled lattice
            ("pgamma_model_wide", 0.05, "affine"),
            ("gamma_model", None, "constant"),
        ],
    )
    def test_matches_stacked_kernel_a(self, kind, sigma, schedule, n, request):
        model = request.getfixturevalue(kind)
        if sigma is not None:
            model = ModelSpec(kind=model.kind, mu=model.mu, sigma=sigma, alpha=model.alpha, xi=model.xi)
        m = (
            InspectionSchedule("affine", 1.0, slope=0.2, floor=0.2)
            if schedule == "affine"
            else InspectionSchedule("constant", 1.5)
        )
        kernels = PolicyKernels(model, PolicySpec(b=2.0, m=m, d=MaintenanceAction("affine", 0.5, 0.1)))
        ys = np.linspace(*kernels.default_state_grid()[[0, -1]], n)
        got = kernels._transition_matrix(ys, ys)
        want = np.stack([kernels.kernel_a(float(y), ys) for y in ys])
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want)
        if sigma is not None and n == 33:
            step = (ys[1] - ys[0]) / 0.5
            nyquist = np.exp(float(m(ys[-1])) * model.phi_d(1j * np.pi / step))
            assert abs(nyquist) > 1e-3

    @pytest.mark.parametrize("schedule", ["constant", "affine", "exponential"])
    @pytest.mark.parametrize(
        "kind, sigma, n",
        [
            ("pgamma_model", None, 512),
            ("ph_model", None, 512),
            ("ph2_model", None, 512),
            # oversampled: on 33 states the lattice step is split k > 1 ways
            ("pgamma_model_wide", 0.05, 33),
        ],
    )
    def test_two_table_rows_match_per_entry_spectra(self, kind, sigma, n, schedule, request, monkeypatch):
        model = request.getfixturevalue(kind)
        if sigma is not None:
            model = ModelSpec(kind=model.kind, mu=model.mu, sigma=sigma, alpha=model.alpha, xi=model.xi)
        m = {
            "constant": InspectionSchedule("constant", 1.5),
            "affine": InspectionSchedule("affine", 1.0, slope=1.0, floor=0.4),
            "exponential": InspectionSchedule("exponential", 0.8, slope=0.4, floor=0.2),
        }[schedule]
        kernels = PolicyKernels(model, PolicySpec(b=2.0, m=m, d=MaintenanceAction("affine", 0.5, 0.1)))
        ys = np.linspace(*kernels.default_state_grid()[[0, -1]], n)
        xs = np.concatenate(([0.0], ys))  # the rows of _cycle's _transition_matrix call
        if schedule == "affine":  # a run of falling horizons, then one at the floor
            assert np.sum(m(xs) > 0.4) > 3 and np.sum(m(xs) == 0.4) > 3
        seen = {}

        def spy(module, name, keep):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen[name] = keep(args, out)
                return out

            monkeypatch.setattr(module, name, wrapped)

        spy(ModelSpec, "phi_d", lambda args, out: (np.asarray(args[1]).imag, out))  # last: the lattice's
        spy(last_passage, "irfft", lambda args, out: args[1])
        spy(maintenance, "density_lattice", lambda args, out: (args, out))
        kernels._transition_matrix(xs, ys)
        monkeypatch.undo()
        (_, t, x0, step, n_pts), got = seen["density_lattice"]
        (omega, psi), size = seen["phi_d"], seen["irfft"]
        k = round(step * omega[1] * size / (2.0 * np.pi))
        dx = step / k
        spec = np.exp(t[:, None] * psi + 1j * np.outer(x0, omega))  # one exponential per entry
        want = np.maximum(irfft(spec, size, axis=1)[:, : k * n_pts : k] / dx, 0.0)
        assert got.shape == (n + 1, n) and np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-14 * want.max(axis=1, keepdims=True))
        assert (k > 1) == (sigma is not None)

    def test_brownian_rows_in_closed_form(self, bm_model):
        ts, x0 = np.array([1e-6, 0.2, 1.0, 3.0]), np.array([-1e-3, -1.0, -2.5, -4.0])
        got = density_lattice(bm_model, ts, x0, 0.05, 200)
        xs = x0[:, None] + 0.05 * np.arange(200)
        want = norm.pdf(xs, loc=bm_model.mu * ts[:, None], scale=bm_model.sigma * np.sqrt(ts)[:, None])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_phase_type_vs_quadrature(self, ph_model):
        ts = np.array([0.2, 1.0, 3.0])
        x0 = np.array([-4.0, -2.5, -1.0])
        got = density_lattice(ph_model, ts, x0, 0.3, 33)
        want = np.array([[_ph1_density(ph_model, t, a + 0.3 * j) for j in range(33)] for t, a in zip(ts, x0)])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_unresolvable_small_sigma_raises(self):
        # |E e^{i w D_t}| falls below 1e-16 only past 2^18 lattice points
        model = ModelSpec(kind=KIND_PERTURBED_GAMMA, mu=0.2, sigma=1e-4, alpha=1.5, xi=0.7)
        with pytest.raises(UnresolvedKernel):
            PolicyKernels(model, _affine_policy()).chain(4)

    @pytest.mark.parametrize("d0", [0.0, 0.1])
    def test_singular_pure_gamma_density_raises(self, d0):
        # alpha m = 0.5 < 1: the gamma density of each cycle is unbounded at 0
        model = ModelSpec(kind=KIND_PURE_GAMMA, alpha=1.0, xi=1.0)
        policy = PolicySpec(
            b=2.0, m=InspectionSchedule("constant", 0.5), d=MaintenanceAction("affine", 0.5, d0)
        )
        kernels = PolicyKernels(model, policy)
        with pytest.raises(UnresolvedKernel, match="direction 2"):
            kernels.chain(4)
        # i = 2 reads rho_1 = A(0, .), the x = 0 lattice row, and the
        # pointwise kernel raises as well
        with pytest.raises(UnresolvedKernel, match="direction 2"):
            joint_law_idle(kernels, 2, 0.1)
        with pytest.raises(UnresolvedKernel, match="direction 2"):
            kernels.kernel_a(0.0, np.array([0.5, 1.0]))


class TestSharedCycle:
    """One state grid, rho_1 and transition matrix per PolicyKernels, which
    every chain law reads."""

    def test_laws_read_the_chain_bit_for_bit(self, pgamma_model):
        kernels = PolicyKernels(pgamma_model, _affine_policy())
        p_fail, e_time, _, _ = kernels.chain(4)
        assert expected_time_to_renewal(kernels, 3) == e_time[2]
        assert joint_law_idle(kernels, 2, 0.0) == p_fail[1]

    def test_one_matrix_and_no_point_values(self, pgamma_model, monkeypatch):
        build, calls = PolicyKernels._transition_matrix, []

        def counted(self, xs, ys):
            calls.append(xs.size)
            return build(self, xs, ys)

        def point_values(self, x, y):
            raise AssertionError("the chain read a point value of A")

        monkeypatch.setattr(PolicyKernels, "_transition_matrix", counted)
        monkeypatch.setattr(PolicyKernels, "kernel_a", point_values)
        kernels = PolicyKernels(pgamma_model, _affine_policy())
        kernels.chain(4)
        joint_law_idle(kernels, 3, 0.3)
        expected_time_to_renewal(kernels, 3)
        assert calls == [kernels.default_state_grid().size + 1]

    def test_rho1_vs_quadrature(self, ph_model):
        # rho_1(y) = [1 - esc(a - b)] f_{m(0)}(a) / theta at a = d^{-1}(y),
        # on every 16th state of the grid
        policy = _affine_policy()
        kernels = PolicyKernels(ph_model, policy)
        _, _, ys, rho1 = kernels.chain(1)
        a = policy.d.inverse(ys[::16])
        t = float(policy.m(0.0))
        dens = np.array([_ph1_density(ph_model, t, x) for x in a])
        want = (1.0 - escape_probability(a - policy.b, kernels.rho0)) * dens / policy.d.theta
        assert np.max(np.abs(rho1[::16] - want)) <= 1e-12 * np.max(want)
