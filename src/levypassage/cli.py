"""Command-line front end.

Subcommands parse model/policy JSON files, dispatch to the library, and emit
CSV (one `#`-prefixed manifest header line, then %.17g numeric rows) or JSON.
`validate` runs the cross-validation suites and prints a PASS/FAIL table.

Exit codes: 0 success, 1 numerical failure, 2 usage error (including a
``ValueError`` from the library on out-of-domain input).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import NumericalError, UsageError, WrongKind
from .first_passage import (
    PenaltySpec,
    gamma_exact_cdf,
    ph_transform,
    pk_series_transform,
    transform_from_scales,
)
from .last_passage import (
    bm_last_passage_cdf,
    density_of_dt,
    last_passage_cdf,
    last_passage_joint_density,
    last_passage_joint_mass,
    last_passage_overshoot_transform,
    reflected_last_passage_transform,
)
from .lundberg import (
    ROUTE_INVERSION,
    build_scale_set,
    escape_rate,
    lundberg_truncated,
    solve_lundberg,
)
from .maintenance import (
    PolicyKernels,
    joint_law_idle,
    policy_from_json,
    simulate_policy,
)
from .mc import (
    SimConfig,
    run_first_passage,
    run_last_passage,
    run_reflected_first_passage,
    run_reflected_last_passage,
)
from .models import (
    KIND_BROWNIAN,
    KIND_PH,
    KIND_PURE_GAMMA,
    ModelSpec,
    model_from_json,
    model_to_dict,
)
from .numerics import euler_inversion
from .reflected import duality_check, reflected_passage_density


@dataclass
class RunManifest:
    command: str
    model_digest: str
    parameters: dict
    version: str = __version__
    seed: int | None = None
    timestamp: float = field(default_factory=time.time)

    def header_line(self) -> str:
        doc = {
            "command": self.command,
            "model_digest": self.model_digest,
            "parameters": self.parameters,
            "version": self.version,
            "seed": self.seed,
            "timestamp": self.timestamp,
        }
        return "# " + json.dumps(doc, sort_keys=True)


def _digest(model: ModelSpec | None) -> str:
    if model is None:
        return "-"
    text = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write_rows(path: str | None, manifest: RunManifest, header: list[str], rows):
    """Atomically write a CSV with a manifest header; numeric cells as %.17g."""
    lines = [manifest.header_line(), ",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                f"{v:.17g}" if isinstance(v, (int, float, np.floating)) else str(v)
                for v in row
            )
        )
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-levy-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_model(path: str) -> ModelSpec:
    with open(path) as fh:
        return model_from_json(fh.read())


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_model(args) -> int:
    model = _load_model(args.model)
    us = _float_list(args.u) if args.u else [0.0, 0.5, 1.0, 2.0]
    doc = {
        "model": model_to_dict(model),
        "digest": _digest(model),
        "mean_d1": model.mean_d1,
        "var_d1": model.var_d1,
        "phi_d": {f"{u:g}": float(model.phi_d(u)) for u in us},
    }
    if model.sigma > 0:
        doc["rho0"] = escape_rate(model)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_scale(args) -> int:
    model = _load_model(args.model)
    scales = build_scale_set(model, args.delta, args.x_max, args.n, route=args.route)
    manifest = RunManifest(
        "scale",
        _digest(model),
        {"delta": args.delta, "x_max": args.x_max, "n": args.n, "route": scales.route},
    )
    xs = scales.w.grid()
    rows = zip(xs, scales.w.values, scales.w_prime.values, scales.z.values)
    _write_rows(args.out, manifest, ["x", "W", "Wp", "Z"], rows)
    return 0


def _parse_penalty(text: str) -> PenaltySpec:
    if text == "one":
        return PenaltySpec()
    if text.startswith("overshoot-indicator:"):
        return PenaltySpec(tag="overshoot_indicator", eps=float(text.split(":", 1)[1]))
    raise UsageError(f"unknown penalty {text!r}")


def _cmd_first_passage(args) -> int:
    model = _load_model(args.model)
    deltas = _float_list(args.delta)
    bs = _float_list(args.b)
    penalty = _parse_penalty(args.penalty)
    routes = ["pk", "scale", "closed"] if args.route == "all" else [args.route]
    b_max = max(bs) * 2.0 + 1.0
    rows = []
    for delta in deltas:
        for route in routes:
            if route == "pk":
                pk = pk_series_transform(model, delta, penalty, b_max=b_max)
                for b in bs:
                    rows.append((b, delta, float(pk(b)), "pk"))
            elif route == "scale":
                if penalty.tag != "one":
                    continue  # the scale identity covers w = 1 only
                phi = transform_from_scales(build_scale_set(model, delta, b_max))
                for b in bs:
                    rows.append((b, delta, float(phi(b)), "scale"))
            elif route == "closed":
                if penalty.tag != "one":
                    continue
                try:
                    rows += [(b, delta, ph_transform(model, delta, b), "closed") for b in bs]
                except WrongKind:
                    if args.route == "closed":
                        raise  # asked for by name on a kind with no residue sum
            else:
                raise UsageError(f"unknown route {route!r}")
    manifest = RunManifest(
        "first-passage",
        _digest(model),
        {"delta": deltas, "b": bs, "route": args.route, "penalty": args.penalty},
    )
    _write_rows(args.out, manifest, ["b", "delta", "phi", "route"], rows)
    return 0


def _cmd_last_passage(args) -> int:
    model = _load_model(args.model)
    ts = _float_list(args.t) if args.t else [1.0]
    b = args.b
    rows: list[tuple] = []
    if args.what == "cdf":
        header = ["t", "cdf"]
        for t in ts:
            rows.append((t, last_passage_cdf(model, b, t)))
    elif args.what == "joint":
        header = ["t", "a", "density"]
        for t in ts:
            grid = density_of_dt(model, t).f
            a = np.linspace(max(grid.x0, b - 4), grid.x_max, args.grid_n)
            rows += zip(np.full(a.size, t), a, last_passage_joint_density(model, b, t, a))
    elif args.what == "overshoot":
        header = ["y", "w", "density"]
        scales = build_scale_set(model, args.delta, 2.0 * b)
        # undershoots y >= b (pre-jump level at or below 0) carry mass too
        ys, ws = np.linspace(0.0, b + 4.0, args.grid_n), np.linspace(0.05, 4.0, args.grid_n)
        y, w = np.meshgrid(ys, ws, indexing="ij")
        rows += zip(y.ravel(), w.ravel(), last_passage_overshoot_transform(model, scales, b, y, w).ravel())
    elif args.what == "reflected":
        header = ["delta", "laplace"]
        a_max = b + 24.0 / escape_rate(model)
        for delta in _float_list(args.delta_list or str(args.delta)):
            scales = build_scale_set(model, delta, a_max, n=4097)
            phi = transform_from_scales(scales)
            rows.append((delta, reflected_last_passage_transform(model, phi, b)))
    else:
        raise UsageError(f"unknown --what {args.what!r}")
    manifest = RunManifest(
        "last-passage", _digest(model), {"b": b, "t": ts, "what": args.what}
    )
    _write_rows(args.out, manifest, header, rows)
    return 0


def _cmd_reflected(args) -> int:
    model = _load_model(args.model)
    b = args.b
    scales = build_scale_set(model, args.delta, max(2.0 * b, b + 1.0))
    ys = np.linspace(0.0, b, args.grid_y)
    zs = np.linspace(b * (1.0 + 1e-9) + 1e-9, args.z_max, args.grid_z)
    y, z = np.meshgrid(ys, zs, indexing="ij")
    rows = zip(y.ravel(), z.ravel(), reflected_passage_density(model, scales, b, y, z).ravel())
    manifest = RunManifest(
        "reflected", _digest(model), {"delta": args.delta, "b": b, "z_max": args.z_max}
    )
    _write_rows(args.out, manifest, ["y", "z", "density"], rows)
    return 0


def _cmd_duality(args) -> int:
    model = _load_model(args.model)
    # both estimates go from jump to jump and read no time step
    cfg = SimConfig(t_max=args.t, n_paths=args.paths, seed=args.seed, max_blocks=1)
    refl, fp = duality_check(model, args.b, args.t, cfg)
    doc = {
        "p_reflected_exceeds": {"estimate": refl.estimate, "se": refl.std_error, "n": refl.n},
        "p_passage_by_t": {"estimate": fp.estimate, "se": fp.std_error, "n": fp.n},
        "gap_in_se": abs(refl.estimate - fp.estimate)
        / max(math.hypot(refl.std_error, fp.std_error), 1e-300),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_maintenance(args) -> int:
    model = _load_model(args.model)
    with open(args.policy) as fh:
        policy = policy_from_json(fh.read())
    kernels = PolicyKernels(model, policy)
    manifest = RunManifest(
        "maintenance",
        _digest(model),
        {"what": args.what, "i": args.i, "z": args.z, "paths": args.paths},
        seed=args.seed,
    )
    if args.what == "kernels":
        ys = kernels.default_state_grid()
        every = slice(None, None, max(1, ys.size // 64))
        a0 = kernels.kernel_a(0.0, ys)[every]
        rows = list(zip(ys[every], a0, kernels.kernel_c(ys[every])))
        _write_rows(args.out, manifest, ["y", "A0_density", "C"], rows)
    elif args.what == "joint":
        p_fail, _, _, _ = kernels.chain(args.i)
        rows = [(i + 1, float(p)) for i, p in enumerate(p_fail)]
        _write_rows(args.out, manifest, ["i", "P_I"], rows)
    elif args.what == "idle":
        rows = [(args.i, args.z, joint_law_idle(kernels, args.i, args.z))]
        _write_rows(args.out, manifest, ["i", "z", "P_idle_gt_z_and_I"], rows)
    elif args.what == "expected":
        rows = [(i, float(e)) for i, e in enumerate(kernels.chain(args.i)[1], start=1)]
        _write_rows(args.out, manifest, ["i", "E_Tstar_on_I"], rows)
    elif args.what == "simulate":
        sim = simulate_policy(model, policy, args.paths, seed=args.seed, idle_mode=args.idle)
        levels = range(1, args.i + 1)
        doc = {
            "n": sim.n,
            "p_i": {str(i): _estimate(sim.p_i(i)) for i in levels},
            "mean_t_star": _estimate(sim.mean_t_star()),
        }
        if args.idle:  # P(idle > --z, I = i)
            doc["p_idle"] = {str(i): _estimate(sim.p_idle_joint(i, args.z)) for i in levels}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        raise UsageError(f"unknown --what {args.what!r}")
    return 0


def _cmd_simulate(args) -> int:
    if args.target in ("first", "last") and args.t is None and args.delta is None:
        raise UsageError(f"--target {args.target} needs --t or --delta")
    if not args.horizon > 0:
        raise UsageError(f"--horizon must be positive, got {args.horizon:g}")
    model = _load_model(args.model)
    cfg = SimConfig(t_max=args.horizon, n_paths=args.paths, seed=args.seed, max_blocks=1)
    delta = 0.5 if args.delta is None else args.delta
    if args.target == "first":
        sample = run_first_passage(model, cfg, args.b)
        res = sample.cdf_at(args.t) if args.delta is None else sample.laplace_at(args.delta)
    elif args.target == "last":
        sample = run_last_passage(model, cfg, args.b)
        res = sample.cdf_at(args.t) if args.delta is None else sample.laplace_at(args.delta)
    elif args.target == "reflected-first":
        res = run_reflected_first_passage(model, cfg, args.b).laplace_at(delta)
    elif args.target == "reflected-last":
        res = run_reflected_last_passage(model, cfg, args.b).laplace_at(delta)
    else:
        raise UsageError(f"unknown target {args.target!r}")
    doc = {**_estimate(res), "n": res.n, "meta": res.meta, "censored": res.censored}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _estimate(res) -> dict:
    """An MC estimate and its standard error as JSON; one path has no SE (null)."""
    return {"estimate": res.estimate, "se": res.std_error if math.isfinite(res.std_error) else None}


# ---------------------------------------------------------------------------
# Validation suite


def _example_models() -> dict[str, ModelSpec]:
    from .models import PhaseType

    return {
        "bm": ModelSpec(kind=KIND_BROWNIAN, mu=1.0, sigma=1.0),
        "pgamma": ModelSpec(kind="perturbed_gamma", mu=0.0, sigma=1.0, alpha=1.0, xi=1.0),
        "ph": ModelSpec(
            kind=KIND_PH, mu=0.0, sigma=1.0, lam=1.0, ph=PhaseType([1.0], [[-1.0]])
        ),
        "gamma": ModelSpec(kind=KIND_PURE_GAMMA, mu=0.0, sigma=0.0, alpha=1.0, xi=1.0),
    }


def run_validation(quick: bool = True, seed: int = 20260810) -> list[tuple[str, float, float, bool]]:
    """Cross-validation rows: (name, value, tolerance, passed)."""
    models = _example_models()
    rows: list[tuple[str, float, float, bool]] = []

    def add(name: str, value: float, tol: float):
        rows.append((name, value, tol, bool(value <= tol)))

    # route triangle for the Brownian model
    bm = models["bm"]
    delta, b = 0.5, 1.0
    exact = math.exp(-(math.sqrt(2.0) - 1.0))
    pk = float(pk_series_transform(bm, delta, b_max=2.5)(b))
    sc = float(transform_from_scales(build_scale_set(bm, delta, 2.5))(b))
    add("bm_first_passage_pk_vs_exact", abs(pk - exact), 1e-3)
    add("bm_first_passage_scale_vs_exact", abs(sc - exact), 1e-3)

    # scale Laplace identity per perturbed kind
    for name in ("bm", "pgamma", "ph"):
        model = models[name]
        scales = build_scale_set(model, delta, x_max=24.0 / solve_lundberg(model, delta), n=4097)
        beta = 2.0 * scales.rho
        num = scales.laplace_numeric(beta)
        ex = scales.laplace_exact(model, beta)
        add(f"scale_laplace_{name}", abs(num / ex - 1.0), 1e-4)

    # small sigma: a boundary layer of width 1/rho narrower than a cell
    small = ModelSpec(kind="perturbed_gamma", mu=0.5, sigma=0.05, alpha=1.0, xi=1.0)
    ode = build_scale_set(small, delta, 4.0).tilted.values
    inv = build_scale_set(small, delta, 4.0, route=ROUTE_INVERSION).tilted.values
    add("scale_routes_small_sigma_pgamma", float(np.max(np.abs(ode - inv)) / np.max(inv)), 1e-3)

    # perturbed-gamma PK on its default grid against an Euler inversion in b of
    # int_0^inf e^{-beta b} phi(delta, b) db = 1/beta - (delta/rho)(beta - rho)/(beta (phi_D(beta) - delta))
    pgm = ModelSpec(kind="perturbed_gamma", mu=0.5, sigma=0.3, alpha=1.0, xi=1.0)
    rho = solve_lundberg(pgm, delta)
    bs = np.array([1.0, 2.0, 3.5])
    want = euler_inversion(lambda s: 1.0 / s - (delta / rho) * (s - rho) / (s * (pgm.phi_d(s) - delta)), bs)
    add("first_passage_pk_vs_euler_pgamma", float(np.max(np.abs(pk_series_transform(pgm, delta)(bs) - want))), 3e-5)

    # delta = 0 phase type: the closed residue sums against the Euler route
    closed = build_scale_set(models["ph"], 0.0, 4.0)
    euler = build_scale_set(models["ph"], 0.0, 4.0, route=ROUTE_INVERSION)
    gap = max(
        float(np.max(np.abs(getattr(euler, t).values - getattr(closed, t).values)) / np.max(getattr(closed, t).values))
        for t in ("tilted", "u_delta")
    )
    add("scale_closed_vs_inversion_ph_delta0", gap, 1e-7)

    # truncated Lundberg roots increase
    pg = models["pgamma"]
    rho_seq = [lundberg_truncated(pg, 1.0, n) for n in (4, 64, 1024)]
    mono = 0.0 if rho_seq[0] <= rho_seq[1] <= rho_seq[2] else 1.0
    add("lundberg_truncated_monotone", mono, 0.5)

    # Park-Padgett value
    add(
        "gamma_exact_cdf_value",
        abs(gamma_exact_cdf(models["gamma"], 1.0, 1.0) - math.exp(-1.0)),
        1e-10,
    )

    # mass split per kind
    for name, model in models.items():
        split = last_passage_cdf(model, 1.0, 1.0) + last_passage_joint_mass(model, 1.0, 1.0)
        add(f"last_passage_mass_split_{name}", abs(split - 1.0), 1e-5)

    # small jumps, sigma sqrt(t)/xi = 40: the D_t density's core integral in log space
    small_jumps = ModelSpec(kind="perturbed_gamma", mu=0.1, sigma=1.0, alpha=2.0, xi=0.05)
    split = last_passage_cdf(small_jumps, 0.8, 4.0) + last_passage_joint_mass(small_jumps, 0.8, 4.0)
    add("last_passage_mass_split_pgamma_small_jumps", abs(split - 1.0), 1e-5)

    # duality (Monte Carlo)
    n_paths = 20_000 if quick else 100_000
    cfg = SimConfig(t_max=1.0, n_paths=n_paths, seed=seed, max_blocks=1)
    refl, fp = duality_check(models["bm"], 1.0, 1.0, cfg)
    gap = abs(refl.estimate - fp.estimate)
    add("duality_bm_gap_in_3se", gap / (3.0 * math.hypot(refl.std_error, fp.std_error)), 1.0)

    # MC vs analytic first passage (Brownian)
    cfg2 = SimConfig(t_max=8.0, n_paths=n_paths, seed=seed + 1, max_blocks=4)
    mc = run_first_passage(models["bm"], cfg2, 1.0).laplace_at(0.5)
    add("bm_laplace_mc_gap_in_3se", abs(mc.estimate - exact) / (3.0 * mc.std_error), 1.0)

    # maintenance mass conservation
    from .maintenance import InspectionSchedule, MaintenanceAction, PolicySpec

    pol = PolicySpec(
        b=2.0, m=InspectionSchedule("constant", value=1.0), d=MaintenanceAction("affine", theta=0.5)
    )
    ker = PolicyKernels(models["bm"], pol)
    ys = ker.default_state_grid()
    worst = 0.0
    for x in (0.0, 0.5, 1.0):
        mass = float(np.trapezoid(ker.kernel_a(x, ys), ys)) + ker.kernel_c(x)
        worst = max(worst, abs(mass - 1.0))
    add("maintenance_cycle_mass", worst, 1e-4)

    # failure kernel C: the escape-mass identity against the D_t grid route
    pol = PolicySpec(
        b=2.0,
        m=InspectionSchedule("affine", value=1.0, slope=0.2, floor=0.2),
        d=MaintenanceAction("affine", theta=0.5),
    )
    ker = PolicyKernels(pg, pol)
    ys = np.array([0.0, 0.5, 1.0, 1.5])
    grid_route = [1.0 - last_passage_joint_mass(pg, pol.b - y, float(pol.m(y))) for y in ys]
    add("maintenance_kernel_c_route_gap", float(np.max(np.abs(ker.kernel_c(ys) - grid_route))), 1e-4)

    # Brownian C at the horizon m = 1/3 as given: the closed form, to rounding
    pol = PolicySpec(b=2.0, m=InspectionSchedule("constant", value=1.0 / 3.0), d=MaintenanceAction("affine", theta=0.5))
    gap = PolicyKernels(bm, pol).kernel_c(ys) / bm_last_passage_cdf(bm, pol.b - ys, 1.0 / 3.0) - 1.0
    add("maintenance_kernel_c_exact_bm", float(np.max(np.abs(gap))), 1e-13)

    return rows


def _cmd_validate(args) -> int:
    rows = run_validation(quick=args.quick, seed=args.seed)
    manifest = RunManifest("validate", "-", {"quick": args.quick}, seed=args.seed)
    out_rows = []
    n_fail = 0
    for name, value, tol, ok in rows:
        status = "PASS" if ok else "FAIL"
        n_fail += not ok
        print(f"{status}  {name:42s} value={value:.3e}  tol={tol:.1e}")
        out_rows.append((name, value, tol, status))
    if args.out:
        _write_rows(args.out, manifest, ["check", "value", "tol", "status"], out_rows)
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="levy-passage",
        description="Failure-time laws for Brownian-perturbed subordinator degradation models",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("model", help="validate a model file and print its characteristics")
    q.add_argument("--model", required=True)
    q.add_argument("--u", help="comma-separated exponent arguments")
    q.set_defaults(func=_cmd_model)

    q = sub.add_parser("scale", help="tabulate W, W', Z")
    q.add_argument("--model", required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--x-max", type=float, default=4.0)
    q.add_argument("--n", type=int, default=2049)
    q.add_argument("--route", default="auto", help="auto | closed | laplace_inversion | ode_series")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_scale)

    q = sub.add_parser("first-passage", help="penalty transform of T_b")
    q.add_argument("--model", required=True)
    q.add_argument("--delta", required=True, help="comma-separated discount rates")
    q.add_argument("--b", required=True, help="comma-separated thresholds")
    q.add_argument("--route", default="all", choices=["pk", "scale", "closed", "all"])
    q.add_argument("--penalty", default="one", help="one | overshoot-indicator:<eps>")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_first_passage)

    q = sub.add_parser("last-passage", help="laws of L_b and L*_b")
    q.add_argument("--model", required=True)
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--t", help="comma-separated times")
    q.add_argument("--delta", type=float, default=0.5)
    q.add_argument("--delta-list")
    q.add_argument("--what", default="cdf", choices=["cdf", "joint", "overshoot", "reflected"])
    q.add_argument("--grid-n", type=int, default=64)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_last_passage)

    q = sub.add_parser("reflected", help="reflected first-passage jump density")
    q.add_argument("--model", required=True)
    q.add_argument("--delta", type=float, default=0.5)
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--grid-y", type=int, default=33)
    q.add_argument("--grid-z", type=int, default=33)
    q.add_argument("--z-max", type=float, default=5.0)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_reflected)

    q = sub.add_parser("duality", help="MC check P(D*_t > b) = P(T_b <= t)")
    q.add_argument("--model", required=True)
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--paths", type=int, default=20000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_duality)

    q = sub.add_parser("maintenance", help="inspection-policy kernels and laws")
    q.add_argument("--model", required=True)
    q.add_argument("--policy", required=True)
    q.add_argument("--what", default="joint", choices=["kernels", "joint", "idle", "expected", "simulate"])
    q.add_argument("--i", type=int, default=3, help="cycle index; the kernels table's state grid spans 4 cycles")
    q.add_argument("--z", type=float, default=0.5)
    q.add_argument("--paths", type=int, default=20000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--idle", action="store_true")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_maintenance)

    q = sub.add_parser("simulate", help="Monte Carlo estimators")
    q.add_argument("--model", required=True)
    q.add_argument("--target", required=True, choices=["first", "last", "reflected-first", "reflected-last"])
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--t", type=float)
    q.add_argument("--delta", type=float)
    q.add_argument("--paths", type=int, default=20000)
    q.add_argument("--horizon", type=float, default=128.0, help="censoring horizon of every path")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_simulate)

    q = sub.add_parser("validate", help="run the cross-validation suite")
    q.add_argument("--quick", action="store_true")
    q.add_argument("--seed", type=int, default=20260810)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_validate)

    return p


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
