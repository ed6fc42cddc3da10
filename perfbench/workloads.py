"""The three workloads: inputs drawn from the seed, program calls, checks.

A workload builds rounds.  Every round holds the same query classes in the
same fixed (shuffled once, by hand) order, with fresh inputs drawn from
``numpy.random.default_rng([seed, round])``, so no query repeats an earlier
one's inputs and a slow stretch of the host never falls on a single class.

A query's ``run`` makes program calls only and is what the latency measures.
Its ``check`` compares the outputs with ``reference`` (imported by the worker
after set-up) through a ``Checker``.  The program is reached through module
attribute look-ups at call time, so the traced mode's wrappers see each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import levypassage as lp
from levypassage import maintenance as lpm
from levypassage import mc as lpmc
from levypassage.models import ModelSpec, PhaseType

MC_K_SE = 5.0  # Monte Carlo agreement band, in standard errors
GRID_RTOL = 1e-3  # grid routes; the digit counts report how far inside it they sit
CLOSED_RTOL = 1e-9  # closed forms evaluated by special functions


@dataclass
class Query:
    cls: str
    run: Callable[[], dict]
    check: Callable[[dict, "Checker"], None]
    path_steps: Callable[[dict], int] | None = None


@dataclass
class Checker:
    """Collects check outcomes; ``digits`` holds one entry per exact check."""

    ref: object
    failures: list = field(default_factory=list)
    digits: list = field(default_factory=list)
    count: int = 0

    def _record(self, name: str, ok: bool, detail: str):
        self.count += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def exact(self, name, got, want, rtol, atol=0.0):
        """Program value against an exact reference; also feeds the digit counts."""
        got = np.asarray(got, dtype=float).ravel()
        want = np.asarray(want, dtype=float).ravel()
        same = got == want  # also admits matching infinities (sigma = 0 escape rate)
        with np.errstate(invalid="ignore"):
            err = np.where(same, 0.0, np.abs(got - want))
        ok = bool(np.all(same | (np.isfinite(got) & (err <= rtol * np.abs(want) + atol))))
        dig = [self.ref.digits(float(g), float(w)) for g, w in zip(got, want)]
        self.digits.extend(dig)
        self._record(name, ok, f"max |got-want| = {np.max(err):.3e} (rtol {rtol:g})")

    def close(self, name, got, want, atol):
        """Agreement of two program routes or a property with a known bound."""
        err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
        self._record(name, bool(np.isfinite(err) and err <= atol), f"gap {err:.3e} > {atol:g}")

    def mc(self, name, est, se, want):
        gap = abs(est - want)
        ok = bool(np.isfinite(est) and se > 0 and gap <= MC_K_SE * se)
        self._record(name, ok, f"estimate {est:.5g} vs {want:.5g}: {gap / max(se, 1e-300):.2f} SE")


def answered(out) -> bool:
    """False when any answer in an output dict is NaN: the program gave none.
    Keys starting with "_" hold raw samples, not answers.  Infinities are
    answers (sigma = 0 has escape rate +inf) and go to the checks."""
    return not any(
        np.any(np.isnan(np.asarray(v, dtype=float)))
        for k, v in out.items()
        if not k.startswith("_") and v is not None
    )


# ---------------------------------------------------------------------------
# Model draws: plain parameter dicts (for the references) and ModelSpec


def model_spec(p) -> ModelSpec:
    if p["kind"] == "perturbed_cp_ph":
        return ModelSpec(
            kind=p["kind"], mu=p["mu"], sigma=p["sigma"], lam=p["lam"],
            ph=PhaseType(p["ph_alpha"], p["ph_t"]),
        )
    if p["kind"] == "brownian_drift":
        return ModelSpec(kind=p["kind"], mu=p["mu"], sigma=p["sigma"])
    return ModelSpec(kind=p["kind"], mu=p["mu"], sigma=p["sigma"], alpha=p["alpha"], xi=p["xi"])


def uniform(rng, lo: float, hi: float, width: float) -> float:
    """Uniform draw on the central ``width`` share of [lo, hi]."""
    mid, half = 0.5 * (lo + hi), 0.5 * width * (hi - lo)
    return float(rng.uniform(mid - half, mid + half))


def draw_ph(rng, order: int, width: float):
    """Phase-type law of the given order with distinct rates (no repeated roots)."""
    u = lambda lo, hi: uniform(rng, lo, hi, width)
    if order == 1:
        return [1.0], [[-u(0.7, 2.0)]]
    if order == 2:
        a = u(0.4, 0.7)
        return [a, 1.0 - a], [[-u(1.6, 2.4), u(0.2, 0.6)], [u(0.1, 0.4), -u(0.7, 1.2)]]
    # Coxian of order 3: rates ordered and apart, so the roots stay simple
    r = [u(2.6, 3.4), u(1.6, 2.2), u(0.8, 1.3)]
    q1, q2 = u(0.3, 0.7), u(0.3, 0.7)
    t_mat = [[-r[0], q1 * r[0], 0.0], [0.0, -r[1], q2 * r[1]], [0.0, 0.0, -r[2]]]
    return [1.0, 0.0, 0.0], t_mat


def draw_model(rng, kind: str, ranges: dict, order: int = 1, width: float = 1.0):
    """Parameters on the central ``width`` share of each range: narrow draws keep
    a query class's cost, and so the run's time, from hanging on the seed."""
    u = lambda key: uniform(rng, *ranges[key], width)
    if kind == "bm":
        return dict(kind="brownian_drift", mu=u("bm_mu"), sigma=u("sigma"))
    if kind == "g":
        return dict(kind="pure_gamma", mu=0.0, sigma=0.0, alpha=u("alpha"), xi=u("xi"))
    if kind == "pg":
        return dict(kind="perturbed_gamma", mu=u("jump_mu"), sigma=u("sigma"), alpha=u("alpha"), xi=u("xi"))
    a, t_mat = draw_ph(rng, order, width)
    return dict(kind="perturbed_cp_ph", mu=u("jump_mu"), sigma=u("sigma"), lam=u("lam"), ph_alpha=a, ph_t=t_mat)


def mean_d1(p) -> float:
    if p["kind"] in ("pure_gamma", "perturbed_gamma"):
        return p["mu"] + p["alpha"] * p["xi"]
    if p["kind"] == "perturbed_cp_ph":
        t_mat = np.asarray(p["ph_t"])
        return p["mu"] + p["lam"] * float(np.asarray(p["ph_alpha"]) @ np.linalg.solve(-t_mat, np.ones(len(t_mat))))
    return p["mu"]


# ---------------------------------------------------------------------------
# passage_laws


PASSAGE_RANGES = dict(
    bm_mu=(0.5, 1.5), jump_mu=(0.0, 0.3), sigma=(0.6, 1.2), alpha=(0.8, 2.0),
    xi=(0.4, 1.2), lam=(0.5, 1.5),
)
PASSAGE_WIDTH = 0.5
B_MAX = 4.0  # threshold grid [0, B_MAX] with 2049 nodes: h = 1/512
B_CHECK = np.array([0.5, 1.0, 2.0, 3.0])  # grid nodes
OVER_Y = np.array([0.25, 0.5, 0.75, 1.2])  # undershoots, as shares of b (1.2: jump from below 0)
OVER_W = np.array([0.2, 1.0])  # overshoots
REFL_Y = np.array([0.25, 0.5, 0.75])  # pre-crossing levels, shares of b (nodes of the r_b grid)
REFL_Z = np.array([0.3, 1.0])  # post-crossing excess over b


# (kind, phase-type order, callable penalty) in the fixed interleaved order
PASSAGE_ROUND = [
    ("pg", 0, False), ("bm", 0, False), ("ph", 2, False), ("g", 0, False),
    ("pg", 0, False), ("ph", 1, True), ("ph", 3, False), ("bm", 0, False),
    ("pg", 0, False), ("g", 0, False), ("ph", 1, False), ("pg", 0, False),
]


def _passage_query(rng, kind, order, penalty) -> Query:
    p = draw_model(rng, kind, PASSAGE_RANGES, order, PASSAGE_WIDTH)
    delta = uniform(rng, 0.3, 1.0, PASSAGE_WIDTH)
    b_lp = uniform(rng, 1.0, 3.0, PASSAGE_WIDTH)
    b_ov = uniform(rng, 0.8, 1.5, PASSAGE_WIDTH)  # see the overshoot FOUND line in CHANGES.md
    t_grid = b_lp / mean_d1(p) * np.array([0.7, 1.0, 1.5, 2.5])
    pen_c = uniform(rng, 0.5, 2.0, PASSAGE_WIDTH)
    model = model_spec(p)
    cls = f"{kind}{order or ''}{'+w' if penalty else ''}"

    if kind == "g":
        def run():
            return dict(
                cdf=np.array([lp.gamma_exact_cdf(model, b_lp, t) for t in t_grid]),
                pdf=np.array([lp.gamma_exact_pdf(model, b_lp, t) for t in t_grid]),
                lp_cdf=np.array([lp.last_passage_cdf(model, b_lp, t) for t in t_grid]),
            )

        def check(out, ck):
            ref = ck.ref
            want = ref.gamma_passage_cdf(p, b_lp, t_grid)
            ck.exact("park_padgett_cdf", out["cdf"], want, CLOSED_RTOL)
            ck.exact("park_padgett_pdf", out["pdf"], [ref.gamma_passage_pdf(p, b_lp, t) for t in t_grid], CLOSED_RTOL)
            ck.exact("last_passage_cdf", out["lp_cdf"], [ref.last_passage_cdf(p, b_lp, t) for t in t_grid], CLOSED_RTOL)

        return Query(cls, run, check)

    def run():
        out = {}
        pk = lp.pk_series_transform(model, delta, b_max=B_MAX)
        scales = lp.build_scale_set(model, delta, B_MAX)
        sc = lp.transform_from_scales(scales)
        out["pk_grid"] = pk.b_grid.values
        out["pk"] = pk(B_CHECK)
        out["scale"] = sc(B_CHECK)
        out["lp_cdf"] = np.array([lp.last_passage_cdf(model, b_lp, t) for t in t_grid])
        if kind == "bm":
            out["ig_cdf"] = lp.inverse_gaussian_cdf(model, b_lp, t_grid)
            return out
        out["closed"] = np.array([lp.ph_transform(model, delta, b) for b in B_CHECK]) if kind == "ph" else None
        rho0 = lp.escape_rate(model)
        out["overshoot"] = lp.last_passage_overshoot_transform(
            model, scales, b_ov, OVER_Y * b_ov, OVER_W[:, None], rho0
        )
        out["refl_density"] = lp.reflected_passage_density(
            model, scales, b_lp, REFL_Y * b_lp, b_lp + REFL_Z[:, None]
        )
        long = lp.build_scale_set(model, delta, b_lp + 16.0 / rho0, n=4097)
        out["refl_last"] = lp.reflected_last_passage_transform(model, lp.transform_from_scales(long), b_lp, rho0)
        if penalty:
            spec = lp.PenaltySpec(tag="callable", w=lambda u, v: np.exp(-pen_c * v) + 0.0 * u)
            out["penalty"] = lp.pk_series_transform(model, delta, penalty=spec, b_max=B_MAX)(B_CHECK)
        return out

    def check(out, ck):
        ref = ck.ref
        exact_fp = (
            ref.brownian_first_passage(p, delta, B_CHECK)
            if kind == "bm"
            else ref.scale_reference(p, delta).first_passage(B_CHECK)
        )
        ck.exact("first_passage_pk", out["pk"], exact_fp, GRID_RTOL)
        ck.exact("first_passage_scale", out["scale"], exact_fp, GRID_RTOL)
        ck.close("pk_vs_scale_route", out["pk"], out["scale"], GRID_RTOL)
        beta = 30.0 / B_MAX
        h = B_MAX / (out["pk_grid"].size - 1)
        grid_b = h * np.arange(out["pk_grid"].size)
        integral = ref.simpson(np.exp(-beta * grid_b) * out["pk_grid"], h)
        ck.exact("threshold_laplace_identity", integral, ref.threshold_laplace(p, delta, beta), GRID_RTOL)
        ck.exact("last_passage_cdf", out["lp_cdf"], [ref.last_passage_cdf(p, b_lp, t) for t in t_grid], GRID_RTOL)
        if kind == "bm":
            ck.exact("inverse_gaussian_cdf", out["ig_cdf"], ref.brownian_passage_cdf(p, b_lp, t_grid), CLOSED_RTOL)
            return
        if kind == "ph":
            ck.exact("first_passage_closed", out["closed"], exact_fp, CLOSED_RTOL)
        sref = ref.scale_reference(p, delta)
        rho0 = ref.rho(p, 0.0)
        level = b_ov - OVER_Y * b_ov
        bracket = np.exp(sref.rho * level) / sref.dphi_rho  # final jump from at or below 0
        bracket[level > 0] = sref.bracket(level[level > 0])
        want = bracket[None, :] * (-np.expm1(-rho0 * OVER_W[:, None])) * ref.levy_density(
            p, (OVER_W[:, None] + OVER_Y[None, :] * b_ov).ravel()
        ).reshape(OVER_W.size, OVER_Y.size)
        ck.exact("overshoot_law", out["overshoot"], want.ravel(), GRID_RTOL)
        y = REFL_Y * b_lp
        w_b, wp_b = sref.w(b_lp)[0], sref.w_prime(b_lp)[0]
        r_b = w_b * sref.w_prime(y) / wp_b - sref.w(y)
        q = ref.levy_density(p, (b_lp + REFL_Z[:, None] - y[None, :]).ravel()).reshape(REFL_Z.size, y.size)
        ck.exact("reflected_first_passage_density", out["refl_density"], (q * r_b[None, :]).ravel(), GRID_RTOL)
        ck.exact("reflected_last_passage", out["refl_last"], sref.reflected_last(b_lp, rho0), GRID_RTOL)
        if penalty:
            theta = -p["ph_t"][0][0]
            creep = sref.creep(B_CHECK)
            want = creep + (exact_fp - creep) * theta / (theta + pen_c)
            ck.exact("callable_penalty", out["penalty"], want, GRID_RTOL)

    return Query(cls, run, check)


def passage_round(seed: int, r: int) -> list[Query]:
    rng = np.random.default_rng([seed, r, 1])
    return [_passage_query(rng, *spec) for spec in PASSAGE_ROUND]


# ---------------------------------------------------------------------------
# policy_eval


POLICY_RANGES = dict(
    bm_mu=(0.6, 1.2), jump_mu=(0.0, 0.2), sigma=(0.7, 1.1), alpha=(0.8, 1.5),
    xi=(0.6, 1.0), lam=(0.7, 1.2),
)
I_MAX = 4
SIM_PATHS = 20_000
IDLE_PATHS = 4_000
# (kind, phase-type order, schedule, maintenance, extra) in the fixed order;
# extra: "idle" = P[idle > z, I=i] for i = 1, 2 with an idle-mode simulation,
# "idle1" = i = 1 only, "etr" = expected_time_to_renewal, "fails" = the
# pure-gamma policy with alpha * m < 1 whose chain returns NaN (counted failure).
# Pure gamma enters otherwise only with reset maintenance: its affine-maintenance
# chain loses up to 3% of the mass (see CHANGES.md), so it is left out.
# The Brownian affine/affine class comes four times: its cost sits at the
# middle of the round and hardly moves with the draws, so the median latency
# falls inside it instead of jumping between neighbouring classes.
POLICY_ROUND = [
    ("pg", 0, "affine", "affine", ""),
    ("bm", 0, "constant", "reset", "etr"),
    ("bm", 0, "affine", "affine", ""),
    ("ph", 2, "constant", "affine", "idle1"),
    ("bm", 0, "affine", "affine", ""),
    ("bm", 0, "exponential", "affine", ""),
    ("pg", 0, "constant", "reset", "etr"),
    ("g", 0, "constant", "affine", "fails"),
    ("bm", 0, "affine", "affine", ""),
    ("bm", 0, "constant", "affine", "idle"),
    ("ph", 1, "constant", "affine", ""),
    ("pg", 0, "constant", "affine", "idle1"),
    ("bm", 0, "affine", "affine", ""),
    ("g", 0, "constant", "reset", "etr"),
    ("ph", 1, "constant", "reset", ""),
]


def _draw_policy(rng, kind, p, schedule, maint, width):
    u = lambda lo, hi: uniform(rng, lo, hi, width)
    b = u(1.6, 2.4)
    if schedule == "constant":
        # pure gamma: alpha * m >= 1.5 keeps the increment density finite at 0
        lo = 1.5 / p["alpha"] if kind == "g" else 0.6
        m = lpm.InspectionSchedule("constant", value=u(lo, lo + 0.5))
    elif schedule == "affine":
        m = lpm.InspectionSchedule("affine", value=u(0.9, 1.1), slope=u(0.15, 0.25), floor=u(0.15, 0.25))
    else:
        m = lpm.InspectionSchedule("exponential", value=u(0.6, 0.9), slope=u(0.3, 0.5), floor=u(0.15, 0.25))
    if maint == "affine":
        d = lpm.MaintenanceAction("affine", theta=u(0.35, 0.65), d0=u(0.0, 0.2))
    else:
        d = lpm.MaintenanceAction("reset", d0=u(0.1, 0.5))
    return lpm.PolicySpec(b=b, m=m, d=d)


def _policy_query(rng, r, kind, order, schedule, maint, extra, sim_seed) -> Query:
    if extra == "fails":
        # fixed inputs (alpha = 1, m = 0.5 < 1/alpha, theta = 0.5, b = 2); only the
        # jump scale moves with the round index, so no two rounds repeat a query
        p = dict(kind="pure_gamma", mu=0.0, sigma=0.0, alpha=1.0, xi=1.0 + 0.05 * r)
        policy = lpm.PolicySpec(
            b=2.0, m=lpm.InspectionSchedule("constant", value=0.5), d=lpm.MaintenanceAction("affine", theta=0.5)
        )
    else:
        # a state-dependent chain costs one D_t grid per distinct horizon over the
        # state grid; narrow draws keep that count, hence the query's time, steady
        width = 0.1 if schedule != "constant" else 0.5
        p = draw_model(rng, kind, POLICY_RANGES, order, width)
        policy = _draw_policy(rng, kind, p, schedule, maint, width)
    z = uniform(rng, 0.2, 0.4, 0.5) * float(policy.m(0.0))
    model = model_spec(p)
    cls = f"{kind}{order or ''}:{schedule}/{maint}{'+' + extra if extra else ''}"

    def run():
        ker = lpm.PolicyKernels(model, policy)
        p_fail, e_time, ys, rho_last = ker.chain(I_MAX)
        sim = lpm.simulate_policy(model, policy, SIM_PATHS, seed=sim_seed)
        out = dict(
            p_fail=p_fail, e_time=e_time,
            survive=0.0 if rho_last is None else float(np.trapezoid(rho_last, ys)),
            sim_p=np.array([[sim.p_i(i).estimate, sim.p_i(i).std_error] for i in range(1, I_MAX + 1)]),
            sim_e=np.array([[sim.e_t_star_on_i(i).estimate, sim.e_t_star_on_i(i).std_error] for i in range(1, I_MAX + 1)]),
        )
        if extra == "etr":
            out["etr"] = lpm.expected_time_to_renewal(ker, 3)
        if extra.startswith("idle"):
            out["idle1"] = lpm.joint_law_idle(ker, 1, z)
        if extra == "idle":
            out["idle2"] = lpm.joint_law_idle(ker, 2, z)
            s = lpm.simulate_policy(model, policy, IDLE_PATHS, seed=sim_seed + 1, idle_mode=True).p_idle_joint(2, z)
            out["idle2_sim"] = np.array([s.estimate, s.std_error])
        return out

    def check(out, ck):
        ref = ck.ref
        b = policy.b
        m0 = float(policy.m(0.0))
        c0 = ref.last_passage_cdf(p, b, m0)
        ck.exact("cycle_failure_c0", out["p_fail"][0], c0, GRID_RTOL)
        if maint == "reset":
            d0 = float(policy.d(0.0))
            md = float(policy.m(d0))
            cd = ref.last_passage_cdf(p, b - d0, md)
            i = np.arange(1, I_MAX + 1)
            want_p = np.where(i == 1, c0, (1.0 - c0) * (1.0 - cd) ** np.maximum(i - 2, 0) * cd)
            ck.exact("reset_chain_p_fail", out["p_fail"], want_p, GRID_RTOL)
            ck.exact("reset_chain_e_time", out["e_time"], (m0 + (i - 1) * md) * want_p, GRID_RTOL)
        else:
            ck.close("mass_conservation", out["p_fail"].sum() + out["survive"], 1.0, 2e-3)
        for i in range(I_MAX):
            ck.mc(f"simulate_policy_p_fail", out["sim_p"][i, 0], out["sim_p"][i, 1], out["p_fail"][i])
            ck.mc(f"simulate_policy_e_time", out["sim_e"][i, 0], out["sim_e"][i, 1], out["e_time"][i])
        if "etr" in out:
            ck.close("expected_time_to_renewal_vs_chain", out["etr"], out["e_time"][2], 1e-12)
        if "idle1" in out:
            ck.exact("idle_first_cycle", out["idle1"], ref.last_passage_cdf(p, b, m0 - z), GRID_RTOL)
        if "idle2" in out:
            ck.mc("idle_second_cycle_vs_simulation", out["idle2_sim"][0], out["idle2_sim"][1], out["idle2"])

    return Query(cls, run, check)


def policy_round(seed: int, r: int) -> list[Query]:
    rng = np.random.default_rng([seed, r, 2])
    return [
        _policy_query(rng, r, *spec, sim_seed=int(rng.integers(2**31)))
        for spec in POLICY_ROUND
    ]


# ---------------------------------------------------------------------------
# mc_oracle


MC_RANGES = dict(
    bm_mu=(0.8, 1.2), jump_mu=(0.0, 0.2), sigma=(0.8, 1.2), alpha=(0.8, 1.2),
    xi=(0.8, 1.2), lam=(0.8, 1.2),
)
MC_WIDTH = 0.25  # path lengths, hence the run's time, follow the drawn b and drift
MC_PATHS = 1_500
MC_DT = 2e-3
# (estimator, kind, phase-type order) in the fixed interleaved order.  Every
# estimator meets every kind once; fp:pg, whose cost sits at the middle of the
# round, comes four times, so the median latency falls inside one class
# instead of jumping between the two classes that happen to straddle it
MC_ROUND = [
    ("lp", "pg", 0), ("fp", "bm", 0), ("fp", "pg", 0), ("rlp", "ph", 1), ("rfp", "g", 0),
    ("fp", "ph", 2), ("rlp", "bm", 0), ("fp", "pg", 0), ("lp", "g", 0), ("rfp", "pg", 0),
    ("rlp", "g", 0), ("fp", "pg", 0), ("lp", "ph", 1), ("rfp", "bm", 0),
    ("rfp", "ph", 2), ("fp", "pg", 0), ("lp", "bm", 0), ("fp", "g", 0), ("rlp", "pg", 0),
]


def _mc_query(rng, est, kind, order, seed) -> Query:
    p = draw_model(rng, kind, MC_RANGES, order, MC_WIDTH)
    b = uniform(rng, 0.8, 1.2, MC_WIDTH)
    delta = uniform(rng, 0.4, 0.6, MC_WIDTH)
    t = uniform(rng, 1.2, 1.8, MC_WIDTH) * b / mean_d1(p)
    model = model_spec(p)
    first = est in ("fp", "rfp")
    cfg = lpmc.SimConfig(
        dt=MC_DT, t_max=8.0 if first else 6.0, n_paths=MC_PATHS, seed=seed,
        max_blocks=4 if first else 10,
    )

    def run():
        if est == "fp":
            s = lpmc.run_first_passage(model, cfg, b)
            return dict(est=_pair(s.laplace_at(delta)), _times=s.t_cross)
        if est == "rfp":
            s = lpmc.run_reflected_first_passage(model, cfg, b)
            return dict(est=_pair(s.laplace_at(delta)), _times=s.t_cross)
        rho0 = lp.escape_rate(model)  # +inf for sigma = 0
        if est == "lp":
            s = lpmc.run_last_passage(model, cfg, b, rho0=rho0)
            return dict(rho0=rho0, est=_pair(s.cdf_at(t)), _last=s.l_last)
        s = lpmc.run_reflected_last_passage(model, cfg, b, rho0=rho0)
        return dict(rho0=rho0, est=_pair(s.laplace_at(delta)), _last=s.l_last)

    def check(out, ck):
        ref = ck.ref
        estimate, se = out["est"]
        if est == "lp":
            want = ref.last_passage_cdf(p, b, t)
        elif kind == "g":
            want = ref.gamma_first_passage(p, delta, b)  # nondecreasing: T*, L, L* all equal T in law
        elif est == "fp":
            want = float(ref.scale_reference(p, delta).first_passage(b)[0])
        elif est == "rfp":
            s = ref.scale_reference(p, delta)
            w, wp = s.w(b)[0], s.w_prime(b)[0]
            want = float(s.z(b)[0] - delta * w * w / wp)
        else:
            want = float(ref.scale_reference(p, delta).reflected_last(b, ref.rho(p, 0.0))[0])
        ck.mc(f"mc_{est}", estimate, se, want)
        if "rho0" in out and p["sigma"] > 0:
            ck.exact("escape_rate", out["rho0"], ref.rho(p, 0.0), 1e-12)

    def path_steps(out) -> int:
        """Path-steps the estimator simulated, from the configuration and the sample:
        first passage runs each path to its crossing step; last passage runs whole
        blocks up to the block of the last contact at least (exact when the escape
        test accepts at that block's end)."""
        per_block = int(round(cfg.t_max / cfg.dt))
        if first:
            tc = out["_times"]
            return int(np.sum(np.where(np.isfinite(tc), np.round(tc / cfg.dt), per_block * cfg.max_blocks)))
        last = out["_last"]
        blocks = np.where(np.isfinite(last), np.maximum(1, np.ceil(last / cfg.t_max - 1e-9)), cfg.max_blocks)
        return int(np.sum(blocks) * per_block)

    return Query(f"{est}:{kind}{order or ''}", run, check, path_steps)


def _pair(res) -> np.ndarray:
    return np.array([res.estimate, res.std_error])


def mc_round(seed: int, r: int) -> list[Query]:
    rng = np.random.default_rng([seed, r, 3])
    return [_mc_query(rng, *spec, seed=int(rng.integers(2**31))) for spec in MC_ROUND]


WORKLOADS = {"passage_laws": passage_round, "policy_eval": policy_round, "mc_oracle": mc_round}
# seconds one round takes on the reference host (queries and checks); a run
# makes round(--seconds / this) rounds, so its work does not depend on how
# fast the host happens to be while it runs
ROUND_SECONDS = {"passage_laws": 4.0, "policy_eval": 10.0, "mc_oracle": 16.0}
