import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from conftest import assert_within_se
from levypassage.errors import NoJumpPart, SchemaError
from levypassage.models import (
    KIND_BROWNIAN,
    KIND_PERTURBED_GAMMA,
    KIND_PH,
    KIND_PURE_GAMMA,
    GammaMeasure,
    ModelSpec,
    PHMeasure,
    PhaseType,
    _GAMMA_CUT,
    _e1_scaled,
    model_from_dict,
    model_from_json,
    model_to_dict,
    sample_phase_type,
)


class TestPhiD:
    def test_bm_at_zero(self, bm_model):
        assert bm_model.phi_d(0.0) == 0.0

    def test_bm_closed_form(self, bm_model):
        # -mu u + u^2 sigma^2 / 2 with mu = sigma = 1 vanishes at u = 2
        assert bm_model.phi_d(2.0) == pytest.approx(0.0, abs=1e-15)

    def test_perturbed_gamma_value(self, pgamma_model):
        assert pgamma_model.phi_d(1.0) == pytest.approx(-math.log(2.0) + 0.5, rel=1e-14)

    def test_phi_is_exponent_of_levy_measure(self, pgamma_model_wide, ph2_model):
        # phi_jump(u) must equal int (e^{-ux} - 1) q(x) dx for the same q
        for model in (pgamma_model_wide, ph2_model):
            view = model.levy_measure()
            for u in (0.5, 1.0, 2.0):
                jump_exact = float(model.phi_d(u)) - (
                    -model.mu * u + 0.5 * (model.sigma * u) ** 2
                )
                jump_quad, _ = quad(
                    lambda x: (math.exp(-u * x) - 1.0) * float(view.density(x)),
                    0.0,
                    80.0,
                    limit=400,
                    epsabs=1e-12,
                )
                assert jump_exact == pytest.approx(jump_quad, abs=5e-9)

    def test_ph_resolvent_form(self, ph_model):
        # exponential jumps: phi = u^2/2 + lam (1/(1+u) - 1)
        u = 0.7
        expect = 0.5 * u * u + (1.0 / (1.0 + u) - 1.0)
        assert ph_model.phi_d(u) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize(
        "alpha, t_mat",
        [
            ([1.0], [[-1.3]]),
            ([0.6, 0.4], [[-2.0, 0.5], [0.3, -1.0]]),
            ([0.2, 0.5, 0.3], [[-3.0, 1.0, 0.5], [0.2, -1.5, 0.3], [0.1, 0.4, -0.9]]),
            # a cycle through the phases: complex eigenvalues
            ([0.3, 0.3, 0.4], [[-2.0, 2.0, 0.0], [0.0, -2.0, 2.0], [1.5, 0.0, -2.0]]),
        ],
    )
    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_ph_resolvent_pole_residues_vs_solve(self, alpha, t_mat, power):
        # alpha (uI - T)^-p t from the eigensystem against p batched m x m solves,
        # at real u and along a Fourier line u = gamma - i w
        ph = PhaseType(alpha, t_mat)
        assert ph._eig_action()[0]
        measure = PHMeasure(1.0, ph)
        for u in (np.linspace(0.01, 5.0, 50), 0.3 - 1j * np.linspace(0.0, 200.0, 400)):
            mats = u[:, None, None] * np.eye(ph.order) - ph.t_mat
            x = np.broadcast_to(ph.exit_vector, (u.size, ph.order))
            for _ in range(power):
                x = np.linalg.solve(mats, x[..., None])[..., 0]
            want = x @ ph.alpha
            got = measure._resolvent(u, power)
            assert np.iscomplexobj(got) == np.iscomplexobj(u)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_ph_resolvent_of_defective_generator_takes_the_solve(self):
        # Erlang(2, 1): T has no eigenbasis, and alpha (uI - T)^-p t = p (1 + u)^-(p + 1)
        ph = PhaseType([1.0, 0.0], [[-1.0, 1.0], [0.0, -1.0]])
        assert not ph._eig_action()[0]
        u = np.array([0.0, 0.5, 2.0, 0.3 - 4.0j])
        for power in (1, 2, 3):
            want = power * (1.0 + u) ** -(power + 1)
            np.testing.assert_allclose(PHMeasure(1.0, ph)._resolvent(u, power), want, rtol=1e-14)
        # batched over any shape, as euler_inversion's (points x nodes) array
        grid = u[:, None] + np.array([0.0, 1.0 + 1.0j, 3.0])[None, :]
        got = PHMeasure(1.0, ph)._resolvent(grid, 2)
        np.testing.assert_allclose(got, 2.0 * (1.0 + grid) ** -3, rtol=1e-14)

    def test_derivatives_by_finite_differences(self, pgamma_model_wide, ph2_model, bm_model):
        eps = 1e-6
        for model in (bm_model, pgamma_model_wide, ph2_model):
            for u in (0.3, 1.1):
                fd1 = (model.phi_d(u + eps) - model.phi_d(u - eps)) / (2 * eps)
                assert float(model.phi_d_prime(u)) == pytest.approx(fd1, abs=5e-7)

    def test_convexity_and_negative_initial_slope(self, pgamma_model, ph2_model, bm_model):
        us = np.linspace(0.0, 4.0, 41)
        for model in (bm_model, pgamma_model, ph2_model):
            vals = np.asarray(model.phi_d(us))
            second_diff = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert np.all(second_diff > 0)
            eps = 1e-6
            slope = (float(model.phi_d(eps)) - float(model.phi_d(0.0))) / eps
            assert slope == pytest.approx(-model.mean_d1, abs=1e-4)
            assert slope < 0

    def test_mean_identity(self, pgamma_model_wide, ph2_model):
        # -phi'(0) = mu + int x q(x) dx; gamma: alpha*xi, PH: lam * E[J]
        pg = pgamma_model_wide
        assert -float(pg.phi_d_prime(0.0)) == pytest.approx(
            pg.mu + pg.alpha * pg.xi, rel=1e-14
        )
        ph = ph2_model
        jump_quad, _ = quad(
            lambda x: x * float(ph.levy_measure().density(x)), 0.0, 120.0, limit=400
        )
        assert -float(ph.phi_d_prime(0.0)) == pytest.approx(ph.mu + jump_quad, rel=1e-9)


class TestLevyMeasure:
    def test_gamma_density_value(self, pgamma_model):
        view = pgamma_model.levy_measure()
        assert float(view.density(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_ph_exponential_density(self, ph_model):
        view = ph_model.levy_measure()
        assert float(view.density(0.5)) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_ph_values_do_not_depend_on_the_other_points(self, ph2_model):
        # an all-nonnegative array skips the masked gather; a negative point
        # forces it, and must not change a bit of the rest
        ph = ph2_model.ph
        x = np.linspace(0.0, 6.0, 1001)
        with_negative = np.append(-1.0, x)
        assert np.array_equal(ph.density(x), ph.density(with_negative)[1:])
        assert np.array_equal(ph.survival(x[1:]), ph.survival(with_negative)[2:])

    def test_tail_derivative_consistency(self):
        # -Qbar'(x) = q(x) by the fundamental theorem of calculus
        model = ModelSpec(kind=KIND_PERTURBED_GAMMA, sigma=1.0, alpha=2.0, xi=1.0)
        view = model.levy_measure()
        eps = 1e-5
        fd = -(float(view.tail(1.0 + eps)) - float(view.tail(1.0 - eps))) / (2 * eps)
        assert fd == pytest.approx(float(view.density(1.0)), abs=1e-8)

    def test_tail_nonincreasing_and_nonnegative(self, pgamma_model_wide, ph2_model):
        xs = np.linspace(0.01, 10.0, 200)
        for model in (pgamma_model_wide, ph2_model):
            view = model.levy_measure()
            tail = np.asarray(view.tail(xs))
            assert np.all(np.asarray(view.density(xs)) >= 0)
            assert np.all(np.diff(tail) <= 1e-14)

    def test_gamma_tail_is_e1(self, pgamma_model_wide):
        view = pgamma_model_wide.levy_measure()
        x = 0.63
        expect = pgamma_model_wide.alpha * exp1(x / pgamma_model_wide.xi)
        assert float(view.tail(x)) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("rho", [0.5, 2.0])
    @pytest.mark.parametrize("x", [0.05, 1.0, 4.0])
    def test_exp_tails_against_quadrature(self, pgamma_model_wide, ph2_model, rho, x):
        for model in (pgamma_model_wide, ph2_model):
            view = model.levy_measure()
            oracle, _ = quad(
                lambda u: math.exp(-rho * (u - x)) * float(view.density(u)),
                x,
                x + 200.0,
                limit=500,
            )
            tail, tail_tail = view.exp_tails(rho, x)
            assert float(tail) == pytest.approx(oracle, rel=1e-8)
            oracle2, _ = quad(
                lambda u: math.exp(-rho * (u - x)) * float(view.tail(u)),
                x,
                x + 200.0,
                limit=500,
            )
            assert float(tail_tail) == pytest.approx(oracle2, rel=1e-7)

    def test_no_jump_part(self, bm_model):
        with pytest.raises(NoJumpPart):
            bm_model.levy_measure()

    @pytest.mark.parametrize(
        "view",
        [
            GammaMeasure(1.5, 0.7),
            GammaMeasure(1.5, 0.7).tilt(0.8),
            PHMeasure(1.0, PhaseType([1.0], [[-1.0]])),
            PHMeasure(0.8, PhaseType([0.6, 0.4], [[-2.0, 0.5], [0.3, -1.0]])),
            PHMeasure(0.8, PhaseType([1.0, 0.0, 0.0], [[-2.0, 1.5, 0.0], [0.0, -2.0, 1.5], [1.5, 0.0, -2.0]])),
        ],
        ids=["gamma", "gamma_tilted", "ph1", "ph2", "ph3"],
    )
    def test_tail_from_the_exp_tails(self, view):
        # Qbar(x) = rho tail_tail + tail for (tail, tail_tail) = exp_tails(rho, x),
        # by parts in tail_tail; the renewal kernels read Qbar on their grid this way
        x = np.array([1e-6, 0.01, 1.0, 5.0, 40.0])
        for rho in (0.05, 1.0, 50.0):
            tail, tail_tail = view.exp_tails(rho, x)
            got = rho * tail_tail + tail
            np.testing.assert_allclose(got, view.tail(x), rtol=1e-13, atol=0.0)

    def test_e1_scaled_against_mpmath(self):
        # e^z E1(z) on both sides of the switch to the asymptotic series at z = 40
        mp = pytest.importorskip("mpmath")
        z = np.concatenate((np.geomspace(1e-8, 1e6, 400), np.linspace(30.0, 50.0, 81)))
        with mp.workdps(40):
            want = [float(mp.exp(mp.mpf(v)) * mp.e1(mp.mpf(v))) for v in z]
        np.testing.assert_allclose(_e1_scaled(z), want, rtol=1e-14, atol=0.0)


class TestPenaltyMass:
    """penalty_mass(w, x, v, wts) is the generic table sum_j w(x_i, v_j)
    q(x_i + v_j) wts_j, whatever factors of the law build it."""

    X = np.linspace(0.002, 4.0, 37)
    V = np.linspace(0.01, 3.0, 24).reshape(2, 12)
    WTS = np.linspace(0.05, 0.2, 24).reshape(2, 12)

    @staticmethod
    def _w(u, v):
        return np.exp(-0.7 * v) / (1.0 + 0.5 * u)

    def _table(self, view):
        v, wts = self.V.ravel(), self.WTS.ravel()
        return (self._w(self.X[:, None], v[None, :]) * view.density(np.add.outer(self.X, v))) @ wts

    @pytest.mark.parametrize(
        "case, alpha, t_mat",
        [
            pytest.param("order1", [1.0], [[-1.5]], id="order1"),
            pytest.param("order2", [0.6, 0.4], [[-2.0, 0.5], [0.3, -1.0]], id="order2"),
            pytest.param("order3", [0.5, 0.3, 0.2], [[-3.0, 1.0, 0.5], [0.0, -2.0, 1.0], [0.0, 0.0, -1.2]], id="order3"),
            pytest.param("complex", [1.0, 0.0, 0.0], [[-2.0, 1.5, 0.0], [0.0, -2.0, 1.5], [1.5, 0.0, -2.0]], id="complex"),
            pytest.param("defective", [1.0, 0.0], [[-2.0, 2.0], [0.0, -2.0]], id="defective"),
        ],
    )
    def test_phase_type(self, case, alpha, t_mat):
        view = PHMeasure(1.3, PhaseType(alpha, t_mat))
        ok, w, _, _ = view.ph._eig_action()
        assert ok == (case != "defective")
        assert np.iscomplexobj(w) == (case == "complex")
        # scipy's expm is itself good to about 2e-13 on the Erlang-2 block:
        # both routes sit that far from 4x e^{-2x}
        rtol = 1e-12 if case == "defective" else 1e-13
        np.testing.assert_allclose(view.penalty_mass(self._w, self.X, self.V, self.WTS), self._table(view), rtol=rtol, atol=0.0)

    def test_gamma(self):
        view = GammaMeasure(1.4, 0.7)
        np.testing.assert_allclose(view.penalty_mass(self._w, self.X, self.V, self.WTS), self._table(view), rtol=1e-13, atol=0.0)


class TestTilt:
    """The Esscher tilt e^{-rho x} Q(dx) has jump exponent phi(u + rho) - phi(rho)."""

    U = np.array([0.0, 0.3, 2.5, 1.0 + 2.0j, 0.5 - 3.0j])
    PH = {
        1: ([1.0], [[-1.5]]),
        2: ([0.6, 0.4], [[-2.0, 0.5], [0.3, -1.0]]),
        3: ([0.5, 0.3, 0.2], [[-3.0, 1.0, 0.5], [0.2, -1.5, 0.4], [0.0, 0.6, -2.0]]),
    }

    @staticmethod
    def _assert_tilted(measure, rho, u):
        got = measure.tilt(rho).phi(u)
        want = measure.phi(u + rho) - measure.phi(rho)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("rho", [0.4, 2.0])
    def test_gamma(self, rho):
        self._assert_tilted(GammaMeasure(1.5, 0.7), rho, self.U)

    @pytest.mark.parametrize("rho", [0.4, 2.0])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_phase_type(self, order, rho):
        measure = PHMeasure(0.8, PhaseType(*self.PH[order]))
        self._assert_tilted(measure, rho, self.U)
        tilted = measure.tilt(rho).ph
        PhaseType(tilted.alpha, tilted.t_mat)  # passes its own validation
        assert tilted.alpha.sum() == pytest.approx(1.0, abs=1e-14)


class TestBridge:
    """``sample_bridged``'s bridge gives each total's jumps, which sit at iid
    uniform epochs, and the rest that moves linearly."""

    @staticmethod
    def _rows(counts, sizes):
        """Each row's jump sizes as a (rows x K) array padded with zeros."""
        mine = np.arange(counts.max(initial=0)) < counts[:, None]
        out = np.zeros(mine.shape)
        out[mine] = sizes
        return out

    def test_gamma_points_survive_underflowing_shapes(self):
        # alpha h = 2.56e-7: a direct Gamma(alpha h / K) draw underflows to 0,
        # so a stick has to be taken in log space to stay finite
        rng = np.random.default_rng(7)
        total, bridge = GammaMeasure(1.0, 0.7).sample_bridged(rng, 200_000, 2.56e-7)
        rows = np.concatenate((np.flatnonzero(total > 0.0), np.arange(4)))
        assert rows.size > 20
        counts, sizes, rest = bridge(np.random.default_rng(8), rows)
        assert np.all(np.isfinite(sizes)) and np.all(sizes >= 0.0) and np.all(rest >= 0.0)
        assert self._rows(counts, sizes).sum(axis=1) + rest == pytest.approx(total[rows], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha_h", [0.3, 2.0])
    def test_gamma_share_before_half_is_beta(self, alpha_h):
        # G's share on [0, h/2] is Beta(alpha h / 2, alpha h / 2): mean 1/2 and
        # variance 1 / (4 (alpha h + 1)); the rest below eps moves linearly
        h, n = 1.5, 40_000
        total, bridge = GammaMeasure(alpha_h / h, 0.7).sample_bridged(np.random.default_rng(11), n, h)
        counts, sizes, rest = bridge(np.random.default_rng(12), np.arange(n))
        sizes = self._rows(counts, sizes)
        # sorted iid uniform epochs, paired with the sizes in their order, as
        # mc.last_contacts pairs them: right only if that order is exchangeable
        mine = np.arange(sizes.shape[1]) < counts[:, None]
        early = np.sort(np.where(mine, np.random.default_rng(13).random(sizes.shape), 1.0), axis=1) < 0.5
        share = (np.sum(sizes * early, axis=1) + rest / 2) / total
        a = alpha_h / 2
        var = 0.25 / (alpha_h + 1.0)
        m4 = 3.0 / (16.0 * (2.0 * a + 1.0) * (2.0 * a + 3.0))  # Beta(a, a)'s fourth central moment
        assert abs(share.mean() - 0.5) < 4.0 * math.sqrt(var / n)
        assert abs(share.var(ddof=1) - var) < 4.0 * math.sqrt((m4 - var**2) / n)

    def test_phase_type_points_keep_each_total(self):
        measure = PHMeasure(0.8, PhaseType([0.6, 0.4], [[-2.0, 0.5], [0.3, -1.0]]))
        h = np.linspace(0.1, 3.0, 500)
        total, bridge = measure.sample_bridged(np.random.default_rng(9), 500, h)
        rows = np.arange(3, 500, 2)
        counts, sizes, rest = bridge(np.random.default_rng(10), rows)
        assert sizes.size == counts.sum() and np.all(sizes > 0.0) and rest == 0.0
        # the drawn jumps in their drawn order, so they sum as the total did
        assert np.array_equal(np.bincount(np.repeat(np.arange(rows.size), counts), sizes, rows.size), total[rows])
        assert np.count_nonzero(total[rows]) > 100


class TestGammaCut:
    """The gamma law's compound-Poisson view: the jumps of at least
    eps = _GAMMA_CUT xi, the mean of the rest as drift."""

    MEASURE = GammaMeasure(1.3, 0.8)

    @pytest.mark.parametrize("x_over_xi", [1e-9, 1e-4, 0.1, 1.0, 4.0])
    def test_sampler_tail(self, x_over_xi):
        # P(J >= x) = Qbar(x) / rate for x >= eps
        view = self.MEASURE.compound_poisson()
        n = 2_000_000
        draws = view.sample_jumps(np.random.default_rng(17), n)
        assert draws.min() >= view.eps
        x = x_over_xi * self.MEASURE.xi
        p = float(self.MEASURE.tail(x)) / view._rate
        assert_within_se(float(np.mean(draws >= x)), math.sqrt(p * (1.0 - p) / n), p, 4.0, f"tail at {x:g}")

    def test_rate_and_drift_share(self):
        view = self.MEASURE.compound_poisson()
        alpha, xi = self.MEASURE.alpha, self.MEASURE.xi
        assert view.eps == _GAMMA_CUT * xi
        assert view._rate == pytest.approx(alpha * exp1(_GAMMA_CUT), rel=1e-14)
        # int_0^eps x Q(dx) = alpha xi (1 - e^{-eps/xi}) = alpha eps (1 - eps / (2 xi) + ...)
        share = quad(lambda x: x * float(self.MEASURE.density(x)), 0.0, view.eps)[0]
        assert view.drift == pytest.approx(share, rel=1e-12)
        assert view.drift == pytest.approx(alpha * view.eps * (1.0 - view.eps / (2.0 * xi)), rel=1e-15)

    @pytest.mark.parametrize("rho", [0.4, 2.0])
    def test_cut_commutes_with_the_tilt(self, rho):
        # cutting, then tilting keeps eps: it is the tilted measure cut at eps
        view = self.MEASURE.compound_poisson()
        tilted = view.tilt(rho)
        full = self.MEASURE.tilt(rho)
        assert tilted.eps == view.eps
        assert tilted._rate == pytest.approx(float(full.tail(view.eps)), rel=1e-14)
        share = quad(lambda x: x * float(full.density(x)), 0.0, view.eps)[0]
        assert tilted.drift == pytest.approx(share, rel=1e-12)


class TestSample:
    """Exact jump draws against the moments of their laws."""

    PH2 = PhaseType(*TestTilt.PH[2])

    @pytest.mark.parametrize(
        "measure",
        [PHMeasure(0.8, PhaseType(*TestTilt.PH[1])), PHMeasure(0.8, PH2), PHMeasure(0.8, PH2).tilt(0.7)],
        ids=["order1", "order2", "tilted"],
    )
    def test_phase_type_block_draw(self, measure):
        # a block of n jumps from one call: each has the jump law's mean E[J]
        # and variance E[J^2] - E[J]^2, so the tilted law's draws are checked too
        n = 200_000
        x = measure.sample_jumps(np.random.default_rng(4), n)
        mean, var = float(x.mean()), float(x.var(ddof=1))
        se_var = math.sqrt((float(np.mean((x - mean) ** 4)) - var**2) / n)
        m1, m2 = measure.ph.moment(1), measure.ph.moment(2)
        assert_within_se(mean, math.sqrt(var / n), m1, 4.0, "mean")
        assert_within_se(var, se_var, m2 - m1**2, 4.0, "variance")

    def test_phase_chain_moments(self):
        ph = PhaseType(*TestTilt.PH[3])  # moves between all three phases
        n = 200_000
        x = sample_phase_type(ph, np.random.default_rng(6), n)
        for k in (1, 2):
            xk = x**k
            assert_within_se(float(xk.mean()), float(xk.std(ddof=1)) / math.sqrt(n), ph.moment(k), 4.0, f"E[J^{k}]")


class TestModelValidation:
    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError, match="E\\[D_1\\]"):
            ModelSpec(kind=KIND_BROWNIAN, mu=0.0, sigma=1.0)

    def test_pure_gamma_needs_zero_sigma(self):
        with pytest.raises(ValueError):
            ModelSpec(kind=KIND_PURE_GAMMA, sigma=0.5, alpha=1.0, xi=1.0)

    def test_perturbed_needs_positive_sigma(self):
        with pytest.raises(ValueError):
            ModelSpec(kind=KIND_PERTURBED_GAMMA, sigma=0.0, alpha=1.0, xi=1.0)

    def test_subgenerator_validation(self):
        with pytest.raises(ValueError):
            PhaseType([1.0], [[1.0]])  # positive diagonal
        with pytest.raises(ValueError):
            PhaseType([0.5, 0.6], [[-1.0, 0.0], [0.0, -1.0]])  # alpha sums above 1
        with pytest.raises(ValueError):
            PhaseType([1.0, 0.0], [[-1.0, 2.0], [0.0, -1.0]])  # positive row sum

    def test_ph_initial_vector_must_sum_to_one(self):
        # phi_D, the Lundberg polynomial and the D_t density assume alpha . 1 = 1
        short = PhaseType([0.5], [[-1.0]])  # a defective law is still a PhaseType
        with pytest.raises(ValueError, match="fold the missing mass into lambda"):
            ModelSpec(kind=KIND_PH, mu=0.5, sigma=1.0, lam=1.0, ph=short)
        doc = {"kind": "perturbed_cp_ph", "sigma": 1.0, "lambda": 1.0}
        with pytest.raises(SchemaError, match="fold the missing mass into lambda"):
            model_from_dict({**doc, "ph": {"alpha": [0.5], "T": [[-1.0]]}})
        a = 0.37
        ph = {"alpha": [a, 1.0 - a], "T": [[-3.0, 1.0], [0.5, -2.0]]}
        model = model_from_dict({**doc, "ph": ph})
        assert float(model.phi_d(0.0)) == 0.0

    def test_ph_moments(self):
        ph = PhaseType([1.0], [[-2.0]])  # Exp(2)
        assert ph.moment(1) == pytest.approx(0.5)
        assert ph.moment(2) == pytest.approx(0.5)  # 2/rate^2

    def test_mean_and_variance(self, ph2_model):
        ph = ph2_model
        assert ph.mean_d1 == pytest.approx(ph.mu + ph.lam * ph.ph.moment(1), rel=1e-12)
        assert ph.var_d1 == pytest.approx(
            ph.sigma**2 + ph.lam * ph.ph.moment(2), rel=1e-12
        )


class TestJsonIngest:
    def test_round_trip(self, pgamma_model_wide, ph2_model):
        for model in (pgamma_model_wide, ph2_model):
            doc = model_to_dict(model)
            again = model_from_dict(doc)
            assert again.kind == model.kind
            assert float(again.phi_d(1.3)) == pytest.approx(float(model.phi_d(1.3)), rel=1e-14)

    def test_parse_example(self):
        text = '{"kind": "perturbed_gamma", "mu": 0, "sigma": 1.0, "alpha": 1.0, "xi": 1.0}'
        model = model_from_json(text)
        assert model.kind == KIND_PERTURBED_GAMMA

    def test_error_positions(self):
        with pytest.raises(SchemaError, match=r"\$\.sigma"):
            model_from_dict({"kind": "perturbed_gamma", "alpha": 1.0, "xi": 1.0})
        with pytest.raises(SchemaError, match=r"\$\.ph\.T\[0\]\[1\]"):
            model_from_dict(
                {
                    "kind": "perturbed_cp_ph",
                    "sigma": 1.0,
                    "lambda": 1.0,
                    "ph": {"alpha": [1.0], "T": [[-1.0, "x"]]},
                }
            )
        with pytest.raises(SchemaError, match="kind"):
            model_from_dict({"kind": "levy_flight", "sigma": 1.0})
        with pytest.raises(SchemaError, match="invalid JSON"):
            model_from_json("{not json")

    def test_ph_matrix_rows(self):
        doc = {
            "kind": "perturbed_cp_ph",
            "sigma": 1.0,
            "lambda": 2.0,
            "ph": {"alpha": [0.5, 0.5], "T": [[-3.0, 1.0], [0.5, -2.0]]},
        }
        model = model_from_dict(doc)
        assert model.ph.order == 2
        assert model.ph.t_mat[1, 0] == 0.5
