"""Traced mode: spans around calls into each layer's public functions.

Wrappers exist only while a traced round runs.  Each wrapper replaces the
function in every ``levypassage`` namespace that holds it (the package, its
defining module, and any module importing it by name, such as
``maintenance.density_of_dt``), and is removed again afterwards.

A span is (name, start, end, parent index); spans stay in memory and are
written out once, when the run ends.  Self time is a span's duration minus
the durations of its direct children (children nest inside their parent).
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute) pairs timed with spans; "Class.method" patches the class
SPANNED = [
    ("lundberg", "solve_lundberg"),
    ("lundberg", "escape_rate"),
    ("lundberg", "build_scale_set"),
    ("renewal", "build_renewal_kernels"),
    ("numerics", "grid_convolve"),
    ("first_passage", "pk_series_transform"),
    ("last_passage", "last_passage_cdf"),
    ("last_passage", "last_passage_overshoot_transform"),
    ("last_passage", "reflected_last_passage_transform"),
    ("last_passage", "perturbed_gamma_density"),
    ("reflected", "reflected_passage_density"),
    ("maintenance", "PolicyKernels.kernel_a"),
    ("maintenance", "PolicyKernels.kernel_c"),
    ("maintenance", "PolicyKernels.chain"),
    ("maintenance", "joint_law_idle"),
    ("maintenance", "expected_time_to_renewal"),
    ("maintenance", "simulate_policy"),
    ("mc", "run_first_passage"),
    ("mc", "run_last_passage"),
    ("mc", "run_reflected_first_passage"),
    ("mc", "run_reflected_last_passage"),
]
# call counts only: these run too often, or too briefly, for a span each
COUNTED = [("models", "ModelSpec.phi_d"), ("last_passage", "density_of_dt")]


def metric_name(module: str, attr: str) -> str:
    """``maintenance.PolicyKernels.chain``; ``models.phi_d`` for the Laplace exponent."""
    return f"{module}.{attr.split('.')[-1]}" if module == "models" else f"{module}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self.points = 0  # points at which perturbed_gamma_density was evaluated
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)

        return wrapper

    def _counter(self, name, fn):
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _points(self, fn):
        @functools.wraps(fn)
        def wrapper(model, t, a):
            self.points += int(np.size(a))
            return fn(model, t, a)

        return wrapper

    def install(self):
        for module, attr in SPANNED + COUNTED:
            name = metric_name(module, attr)
            mod = sys.modules[f"levypassage.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                wrap = self._span(name, orig) if (module, attr) in SPANNED else self._counter(name, orig)
                self._set(owner, meth, orig, wrap)
                continue
            orig = getattr(mod, attr)
            wrap = self._span(name, orig) if (module, attr) in SPANNED else self._counter(name, orig)
            if attr == "perturbed_gamma_density":
                wrap = self._points(wrap)
            for key, namespace in list(sys.modules.items()):
                if key.split(".")[0] == "levypassage" and getattr(namespace, attr, None) is orig:
                    self._set(namespace, attr, orig, wrap)

    def _set(self, owner, attr, orig, wrap):
        setattr(owner, attr, wrap)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over all recorded spans."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += (end - start) - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
