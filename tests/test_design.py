"""Design guard: the model kind is switched on only where the jump law is
defined (models.py), where the D_t law is picked (``density_of_dt``), and
in a few named places; everything else reads the law from ``ModelSpec`` or
from the D_t law.  The shared numerics carry no helper that only tests call,
and no library module has a public name without a caller outside tests,
save the closed forms and MC oracles listed in ``TEST_ONLY``."""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import levypassage
from levypassage.mc import SimConfig

SRC = Path(levypassage.__file__).parent

# (module, top-level function or class) allowed to compare a model's kind
ALLOWED = {
    ("last_passage", "density_of_dt"),
    ("lundberg", "solve_lundberg"),
    ("lundberg", "build_scale_set"),
    ("cli", "_closed_transform"),
}

# (module, public name) that neither src/ nor the benchmark workloads call,
# each a paper law or oracle that the tests read
TEST_ONLY = {
    ("first_passage", "inverse_gaussian_pdf"): "Brownian first-passage density, oracle of the transform routes",
    ("last_passage", "bm_last_passage_cdf"): "Brownian last-passage law in closed form, oracle of last_passage_cdf",
    ("last_passage", "bm_last_passage_density"): "its density, checked against the cdf and MC",
    ("last_passage", "reflected_last_passage_exp_joint"): "paper law of [L*_b >= T, D*_T in da] at T ~ Exp(delta)",
    ("mc", "run_reflected_at_exp_horizon"): "MC oracle of reflected_last_passage_exp_joint",
}


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
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
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
