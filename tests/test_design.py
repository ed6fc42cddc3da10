"""Design guard: the model kind is switched on only where the jump law is
defined (models.py), where the D_t law is picked (``density_of_dt``), and
in a few named places; everything else reads the law from ``ModelSpec`` or
from the D_t law.  The shared numerics carry no helper that only tests call,
and no library module has a public name without a caller outside tests,
save the closed forms, MC oracles and references listed in ``TEST_ONLY``."""

import ast
import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import levypassage
import levypassage.cli  # test_one_closed_route reads it; the package does not import it
from levypassage.lundberg import solve_lundberg
from levypassage.mc import SimConfig
from levypassage.models import GammaMeasure, LevyMeasureView, ModelSpec, PHMeasure, PhaseType, _CompoundPoisson
from levypassage.renewal import PenaltySpec, build_renewal_kernels

SRC = Path(levypassage.__file__).parent

# (module, top-level function or class) allowed to compare a model's kind
ALLOWED = {
    ("last_passage", "density_of_dt"),
    ("lundberg", "build_scale_set"),
}

# (module, public name) that neither src/ nor the benchmark workloads call,
# each a paper law or oracle that the tests read
TEST_ONLY = {
    ("first_passage", "inverse_gaussian_pdf"): "Brownian first-passage density, oracle of the transform routes",
    ("last_passage", "bm_last_passage_density"): "its density, checked against the cdf and MC",
    ("last_passage", "reflected_last_passage_exp_joint"): "paper law of [L*_b >= T, D*_T in da] at T ~ Exp(delta)",
    ("mc", "run_reflected_at_exp_horizon"): "MC oracle of reflected_last_passage_exp_joint",
    ("numerics", "grid_convolve"): "trapezoid convolution, the term-loop reference of tests/test_renewal.py;"
    " perfbench/tracing.py spans it, so it stays",
}


# the public callables that still take a ``rho0``: the benchmark workloads
# (perfbench/workloads.py, which stay as they are) pass it to these four;
# everything else reads the root from the model through ``escape_rate``
RHO0_KEPT = {
    ("last_passage", "last_passage_overshoot_transform"),
    ("last_passage", "reflected_last_passage_transform"),
    ("mc", "run_last_passage"),
    ("mc", "run_reflected_last_passage"),
}

# the SimConfig fields that no estimator reads: the benchmark workloads pass
# them (as they pass rho0), so they stay, checked by SimConfig alone
SIM_CONFIG_BENCHMARK_ONLY = {"dt"}


def _is_kind(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "kind") or (
        isinstance(node, ast.Name) and node.id == "kind"
    )


def _kind_compares(node):
    return [
        n
        for n in ast.walk(node)
        if isinstance(n, ast.Compare) and any(_is_kind(x) for x in [n.left, *n.comparators])
    ]


def _is_wrong_kind_guard(node) -> bool:
    """``if <kind test>: raise WrongKind(...)`` with nothing else in it."""
    return (
        isinstance(node, ast.If)
        and not node.orelse
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Raise)
        and isinstance(node.body[0].exc, ast.Call)
        and getattr(node.body[0].exc.func, "id", None) == "WrongKind"
    )


def kind_branch_sites() -> set[tuple[str, str]]:
    """(module, enclosing top-level name) of every kind comparison outside a
    ``WrongKind`` guard."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            guards = {
                id(c) for n in ast.walk(top) if _is_wrong_kind_guard(n) for c in _kind_compares(n.test)
            }
            if any(id(c) not in guards for c in _kind_compares(top)):
                sites.add((path.stem, getattr(top, "name", f"<line {top.lineno}>")))
    return sites


def test_kind_branches_only_at_allowed_sites():
    sites = kind_branch_sites()
    outside_models = {key for key in sites if key[0] != "models"}
    assert outside_models == ALLOWED
    assert any(key[0] == "models" for key in sites)


def test_numerics_names_have_library_callers():
    # a re-export from the package __init__ is not a use
    tree = ast.parse((SRC / "numerics.py").read_text())
    public = {
        n.name
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.ClassDef))
        and not n.name.startswith("_")
        and ("numerics", n.name) not in TEST_ONLY
    }
    referenced = set()
    for path in SRC.glob("*.py"):
        if path.stem in ("numerics", "__init__"):
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.ImportFrom):
                referenced |= {alias.name for alias in n.names}
            elif isinstance(n, ast.Attribute):
                referenced.add(n.attr)
    assert not public - referenced, sorted(public - referenced)


def _referenced(tree) -> set[tuple[str, str]]:
    """(name, enclosing top-level name) of every name, attribute or import in a module."""
    out = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        for n in ast.walk(top):
            if isinstance(n, ast.Name):
                out.add((n.id, owner))
            elif isinstance(n, ast.Attribute):
                out.add((n.attr, owner))
            elif isinstance(n, ast.ImportFrom):
                out |= {(alias.name, owner) for alias in n.names}
    return out


def test_public_names_have_callers():
    # a library module's public top-level name is referred to in src/ outside
    # its own definition (a re-export from the package __init__ is not a use),
    # or by the benchmark workloads, or is a listed test-only oracle
    uses = {
        (path.stem, name, owner)
        for path in SRC.glob("*.py")
        if path.stem != "__init__"
        for name, owner in _referenced(ast.parse(path.read_text()))
    }
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    bench = {name for name, _ in _referenced(ast.parse(workloads.read_text()))}
    uncalled = set()
    for path in SRC.glob("*.py"):
        if path.stem in ("cli", "__init__", "__main__"):
            continue
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            called = any(n == top.name and (m, o) != (path.stem, top.name) for m, n, o in uses)
            if not called and top.name not in bench:
                uncalled.add((path.stem, top.name))
    assert uncalled == set(TEST_ONLY), sorted(uncalled ^ set(TEST_ONLY))


def public_parameters() -> dict[tuple[str, str], list[str]]:
    """Parameter names of every public function of a library module, and of
    the public methods, ``__init__`` and ``__call__`` of its public classes."""
    out = {}
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            defs = [(top.name, top)] if isinstance(top, ast.FunctionDef) else [
                (f"{top.name}.{f.name}", f)
                for f in top.body
                if isinstance(f, ast.FunctionDef) and (not f.name.startswith("_") or f.name in ("__init__", "__call__"))
            ]
            for name, f in defs:
                out[(path.stem, name)] = [a.arg for a in f.args.posonlyargs + f.args.args + f.args.kwonlyargs]
    return out


def test_no_caller_held_root_or_law():
    # rho(0) belongs to the model (solve_lundberg keeps it) and the D_t law is
    # built from (model, t), so no caller passes either in
    params = public_parameters()
    assert not {key for key, names in params.items() if "density" in names}
    assert {key for key, names in params.items() if "rho0" in names} == RHO0_KEPT
    assert params[("last_passage", "MarginalDensityD.escape_mass")] == ["self", "c", "t"]


def test_policy_chain_takes_no_grid():
    # one state grid per (model, policy), built by PolicyKernels itself, and
    # one D_t grid size per kind, so no caller passes a grid or its size
    params = public_parameters()
    assert params[("maintenance", "PolicyKernels.chain")] == ["self", "i_max"]
    assert params[("maintenance", "joint_law_idle")] == ["kernels", "i", "z"]
    assert params[("maintenance", "expected_time_to_renewal")] == ["kernels", "i"]
    assert params[("maintenance", "PolicyKernels.default_state_grid")] == ["self"]
    assert params[("last_passage", "density_of_dt")] == ["model", "t"]
    assert [f.name for f in dataclasses.fields(levypassage.last_passage.MarginalDensityD)] == ["model", "t"]


def test_renewal_solve_has_no_term_budget():
    # the renewal equation is solved in one power-series division and checked
    # on every other node, so no caller sets a stop rule and no budget exists
    assert public_parameters()[("renewal", "renewal_series")] == ["g", "first"]
    assert not hasattr(levypassage.renewal, "SERIES_DOUBLINGS")


def test_one_renewal_solve():
    # the PK series and the ODE-series scale route read the same extrapolated
    # solve: no second version, no option picks one, and the root is a float
    renewal, lundberg = levypassage.renewal, levypassage.lundberg
    assert not hasattr(renewal, "renewal_series_extrapolated") and not hasattr(renewal, "_two_solves")
    assert levypassage.first_passage.renewal_series is lundberg.renewal_series is renewal.renewal_series
    assert not hasattr(lundberg, "LundbergRoot") and not hasattr(levypassage, "LundbergRoot")


def test_renewal_kernels_read_no_gamma_tail(pgamma_model_wide, monkeypatch):
    # h's tail term is taken by parts and Qbar on the grid is read off the
    # two exponential tails, so the exponential integral of Qbar is never
    # evaluated at the cell nodes
    def tail(self, x):
        raise AssertionError("GammaMeasure.tail called")

    monkeypatch.setattr(GammaMeasure, "tail", tail)
    for penalty in (PenaltySpec(), PenaltySpec("overshoot_indicator", 0.3)):
        build_renewal_kernels(pgamma_model_wide, solve_lundberg(pgamma_model_wide, 0.5), 4.0, 2049, penalty)


def test_idle_mode_is_exact_on_jump_points():
    # the idle mode bridges a failing cycle at its jump epochs, with no step
    # skeleton, and finds its last contact by the segment engine's one rule
    gone = {
        "mc": ["_bridged_last_contact", "_BRIDGE_CELLS"],
        "models": ["_dirichlet"],
        "maintenance": ["_STEPS_PER_CYCLE"],
    }
    for module, names in gone.items():
        for name in names:
            assert not hasattr(getattr(levypassage, module), name), f"{module}.{name}"
    for cls in (LevyMeasureView, GammaMeasure, PHMeasure):
        assert not {"exp_tail", "exp_tail_tail"} & set(vars(cls)), cls.__name__
    assert list(inspect.signature(levypassage.mc.last_contacts).parameters) == ["model", "rng", "bridged", "b"]
    rng, h = np.random.default_rng(1), np.ones(3)
    bridges = [
        GammaMeasure(1.0, 1.0).sample_bridged(rng, 3, h)[1],
        PHMeasure(1.0, PhaseType([1.0], [[-1.0]])).sample_bridged(rng, 3, h)[1],
        levypassage.mc.cycle_ends(ModelSpec(kind="brownian_drift", mu=1.0, sigma=1.0), rng, np.zeros(3), h)[1],
    ]
    for bridge in bridges:
        assert list(inspect.signature(bridge).parameters) == ["bridge_rng", "rows"]
    tree = ast.parse((SRC / "mc.py").read_text())
    callers = {
        top.name
        for top in tree.body
        for n in ast.walk(top)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_split"
    }
    assert callers == {"_last_contact"}


def test_escape_mass_overridden_only_by_closed_forms():
    # every sigma > 0 jump law reads the base class's Fourier sum; only the
    # Brownian and pure-gamma closed forms replace it
    owners = {
        (path.stem, node.name)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "_escape" for f in node.body)
    }
    assert owners == {
        ("last_passage", "MarginalDensityD"),
        ("last_passage", "_BrownianD"),
        ("last_passage", "_PureGammaD"),
    }


def test_mc_reads_the_jump_law_from_the_model():
    tree = ast.parse((SRC / "mc.py").read_text())
    imported = {
        alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names
    }
    assert not {name for name in imported if name.startswith("KIND_")}


def _perfbench_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # the benchmark's traced mode patches these (module, attr) pairs; a
    # deleted or renamed one would only show when a traced run breaks
    tracing = _perfbench_tracing()
    for module, attr in tracing.SPANNED + tracing.COUNTED:
        owner = getattr(levypassage, module)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            assert name in vars(owner), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, name, None)), f"{module}.{attr}"


def test_sim_config_fields():
    assert {f.name for f in dataclasses.fields(SimConfig)} == {"dt", "t_max", "n_paths", "seed", "max_blocks"}


def test_benchmark_only_sim_config_fields_are_not_read():
    # no module reads them off a SimConfig outside its own validation, and
    # the workloads still pass them
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}

    def reads(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr in SIM_CONFIG_BENCHMARK_ONLY]

    sim_config = next(n for n in trees["mc"].body if isinstance(n, ast.ClassDef) and n.name == "SimConfig")
    check = next(f for f in sim_config.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__")
    assert {n.attr for n in reads(check)} == SIM_CONFIG_BENCHMARK_ONLY
    allowed = {id(n) for n in reads(check)}
    stray = [(module, n.lineno) for module, tree in trees.items() for n in reads(tree) if id(n) not in allowed]
    assert not stray
    workloads = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text())
    passed = {
        kw.arg
        for n in ast.walk(workloads)
        if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "SimConfig"
        for kw in n.keywords
    }
    assert SIM_CONFIG_BENCHMARK_ONLY <= passed


def test_one_monte_carlo_engine():
    # reflected first passage runs on the segment engine's cells, in the
    # loop that serves T_b, so the dt block engine and its helpers are gone
    mc = levypassage.mc
    gone = [
        "_Block", "_block_len", "_take", "_reduce_rows", "_block_reflected_first", "_first_block", "_BLOCK_CELLS",
        "_step_levels",
    ]
    assert not [name for name in gone if hasattr(mc, name)]
    assert not hasattr(SimConfig, "horizon_steps")
    assert not hasattr(_CompoundPoisson, "sample_block")
    assert list(inspect.signature(mc._segment_first).parameters)[-1] == "reflect"


def test_import_leaves_scipy_stats_out():
    # scipy.stats adds about half a second to every import; the library
    # reads its few distributions from scipy.special instead
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    code = "import sys, levypassage; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_one_laplace_inverter():
    # Euler summation is the one inversion rule, with no method to pick: the
    # Gaver-Stehfest weights, the second derivative of phi_D that nothing
    # read and the public twins of build_scale_set are gone
    numerics, lundberg = levypassage.numerics, levypassage.lundberg
    assert not hasattr(numerics, "stehfest_coefficients")
    assert not hasattr(lundberg, "_STEHFEST_TERMS")
    assert not hasattr(ModelSpec, "phi_d_second")
    for cls in (LevyMeasureView, GammaMeasure, PHMeasure):
        assert "phi_second" not in vars(cls), cls.__name__
    assert not [name for name in dir(lundberg) if name.startswith("scale_via")]
    assert not [name for name in dir(levypassage) if name.startswith("scale_via")]
    tree = ast.parse((SRC / "numerics.py").read_text())
    inverters = {
        n.name
        for n in tree.body
        if isinstance(n, ast.FunctionDef) and any(w in n.name for w in ("invers", "invert", "stehfest", "talbot"))
    }
    assert inverters == {"euler_inversion"}
    assert list(inspect.signature(numerics.euler_inversion).parameters) == ["transform", "t"]
    assert numerics.euler_inversion is lundberg.euler_inversion


def test_one_closed_route():
    # Brownian drift and phase type share one residue route over the roots of
    # phi_D(r) = delta, at every delta >= 0: the per-kind closed forms, the
    # partial-fraction root data and the CLI's own Brownian transform are gone
    lundberg, first_passage, cli = levypassage.lundberg, levypassage.first_passage, levypassage.cli
    gone = {
        lundberg: ["_scale_set_bm", "_scale_set_ph", "ph_root_data", "PHRootData", "ROUTE_CLOSED_BM", "ROUTE_CLOSED_PH"],
        first_passage: ["ROUTE_CLOSED"],
        cli: ["_closed_transform"],
        levypassage: ["ph_root_data", "PHRootData", "hyp2f2"],
        levypassage.numerics: ["hyp2f2"],
    }
    for module, names in gone.items():
        assert not [name for name in names if hasattr(module, name)], module.__name__
    assert lundberg.ROUTE_CLOSED == "closed"
    bm = ModelSpec(kind="brownian_drift", mu=1.0, sigma=1.0)
    ph = ModelSpec(kind="perturbed_cp_ph", mu=0.0, sigma=1.0, lam=1.0, ph=PhaseType([1.0], [[-1.0]]))
    for model in (bm, ph):
        assert lundberg.build_scale_set(model, 0.0, 2.0, 65).route == lundberg.ROUTE_CLOSED
    assert list(inspect.signature(lundberg.build_scale_set).parameters) == ["model", "delta", "x_max", "n", "route"]
    assert sum(len(_kind_compares(ast.parse(path.read_text()))) for path in SRC.glob("*.py")) <= 22
