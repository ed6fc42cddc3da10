"""Self-check: every check passes on the program's answers and rejects a
slightly perturbed copy of them.

    PYTHONPATH=src python3 perfbench/selfcheck.py [--seed N]

For one query of each class of every workload, the program runs once.  Then
each answer is scaled by (1 + eps) for eps = 1e-9, 3e-9, 1e-8, ..., 3e-2, and each
Monte Carlo estimate is moved by 10 standard errors either way; the smallest
change that makes each check fail is printed.  The run fails when the
unperturbed answers fail a check, or when a check lets through a change of
three times its own tolerance (1% for the route-agreement and mass-balance
checks, whose tolerances are absolute; 10 SE for Monte Carlo checks).
"""

from __future__ import annotations

import argparse
import copy
import functools
import sys

import numpy as np

import reference
import workloads

LEVELS = [m * 10.0**k for k in range(-9, -1) for m in (1.0, 3.0)]


def memoize_reference():
    """References depend on the inputs only; cache them across perturbations."""

    def wrap(fn):
        cache = {}

        @functools.wraps(fn)
        def inner(*args):
            key = repr(args)
            if key not in cache:
                cache[key] = fn(*args)
            return cache[key]

        return inner

    for name in ("rho", "last_passage_cdf", "gamma_passage_pdf", "gamma_first_passage", "levy_density"):
        setattr(reference, name, wrap(getattr(reference, name)))
    made = {}
    original = reference.scale_reference

    def scale_reference(p, delta):
        key = repr((p, delta))
        if key not in made:
            obj = original(p, delta)
            for meth in ("first_passage", "bracket", "reflected_last", "w", "w_prime", "z", "creep"):
                if hasattr(obj, meth):
                    setattr(obj, meth, wrap(getattr(obj, meth)))
            made[key] = obj
        return made[key]

    reference.scale_reference = scale_reference


class Tolerances(workloads.Checker):
    """Checker that also remembers each check's allowance."""

    def __init__(self, ref):
        super().__init__(ref)
        self.allow = {}

    def exact(self, name, got, want, rtol, atol=0.0):
        self.allow[name] = 3.0 * rtol
        super().exact(name, got, want, rtol, atol)

    def close(self, name, got, want, atol):
        # an absolute tolerance on a sum (mass balance) or a gap (route agreement)
        # moves with one answer's share of it: allow 1% or three tolerances
        scale = float(np.max(np.abs(np.asarray(want, dtype=float))))
        self.allow[name] = max(3.0 * atol / max(scale, 1e-300), 1e-2)
        super().close(name, got, want, atol)

    def mc(self, name, est, se, want):
        self.allow[name] = "mc"
        super().mc(name, est, se, want)


def failing(query, out) -> set:
    ck = workloads.Checker(reference)
    query.check(out, ck)
    return {f.split(":")[0] for f in ck.failures}


def perturbations(out):
    """(label, size, perturbed copy) for every answer in ``out``."""
    for key, val in out.items():
        if key.startswith("_") or val is None or isinstance(val, (np.ndarray,)) and val.dtype == object:
            continue
        if key in ("est", "idle2_sim", "sim_p", "sim_e"):
            arr = np.asarray(val, dtype=float)
            for sign in (1.0, -1.0):
                new = copy.deepcopy(out)
                moved = arr.copy()
                moved[..., 0] += sign * 10.0 * moved[..., 1]
                new[key] = moved
                yield key, "mc", new
            continue
        for eps in LEVELS:
            new = copy.deepcopy(out)
            new[key] = np.asarray(val, dtype=float) * (1.0 + eps)
            yield key, eps, new


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    memoize_reference()
    bad = []
    for name, make_round in workloads.WORKLOADS.items():
        seen = set()
        for q in make_round(args.seed, 0):
            if q.cls in seen:
                continue
            seen.add(q.cls)
            out = q.run()
            if not workloads.answered(out):
                print(f"{name:13s} {q.cls:32s} fails in the program (counted failure); no checks")
                continue
            tol = Tolerances(reference)
            q.check(out, tol)
            if tol.failures:
                bad.append(f"{name} {q.cls}: unperturbed answers fail: {tol.failures}")
                continue
            smallest: dict[str, object] = {}
            mc_hits: dict[str, int] = {}
            for key, size, new in perturbations(out):
                for check in failing(q, new):
                    if size == "mc":
                        mc_hits[check] = mc_hits.get(check, 0) + 1
                    elif check not in smallest or size < smallest[check]:
                        smallest[check] = size
            for check, allow in sorted(tol.allow.items()):
                if allow == "mc":
                    ok = mc_hits.get(check, 0) >= 2
                    shown = "rejects +-10 SE" if ok else "misses a 10 SE shift"
                else:
                    got = smallest.get(check)
                    ok = got is not None and got <= max(allow, LEVELS[0])
                    shown = f"rejects x(1+{got:.0e})" if got is not None else "never rejects"
                print(f"{name:13s} {q.cls:32s} {check:36s} {shown}")
                if not ok:
                    bad.append(f"{name} {q.cls} {check}: {shown}")
    for line in bad:
        print("SELF-CHECK FAILED:", line, file=sys.stderr)
    print("self-check", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
