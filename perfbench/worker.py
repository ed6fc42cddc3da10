"""One benchmark process: timed set-up, then (unless --setup-only) the rounds.

Set-up time runs from before the first import of numpy, scipy or
levypassage to the point where the first query can start: imports, drawing
the first round's inputs, and building its models and policies.  The
reference code is imported after that point.

Times are reported in reference-host seconds: each measured time is scaled
by CALIBRATION_REF_S / c, with c the median time of a fixed calibration unit
of benchmark code (no program code) measured in the same process around the
measured work.  The host's speed drifts by 15-30% between runs minutes apart;
the unit drifts with it, so the scaled times keep only the program's own
changes (see README.md, "Host-speed calibration").

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before any numerical import

import argparse
import json
import os
import resource
import statistics
import sys


def timed_imports() -> dict[str, float]:
    out = {}
    t = time.perf_counter()
    import numpy  # noqa: F401

    out["numpy"] = time.perf_counter() - t
    t = time.perf_counter()
    import scipy.stats  # noqa: F401

    out["scipy_stats"] = time.perf_counter() - t
    t = time.perf_counter()
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401

    out["scipy_other"] = time.perf_counter() - t
    t = time.perf_counter()
    import levypassage  # noqa: F401

    out["levypassage"] = time.perf_counter() - t
    return out


CALIBRATION_REF_S = 0.020  # the unit's mean time on the reference host (2 vCPU sandbox)
CALIBRATE_EVERY_S = 0.5


class Calibration:
    """A fixed mix of the work the program does: a Python loop of small numpy
    operations (as in the Monte Carlo step loops), special functions on
    4096-point arrays (as in the densities) and FFT convolutions of 16384
    points (as in the grid convolutions)."""

    def __init__(self):
        import numpy as np
        from scipy import special

        self.np, self.special = np, special
        rng = np.random.default_rng(0)
        self.x = rng.random(4096)
        self.big = rng.random(16384)
        self.samples: list[float] = []

    def unit(self) -> float:
        np, special = self.np, self.special
        t = time.perf_counter()
        v = np.zeros(200)
        for _ in range(400):
            v = v + np.sqrt(np.abs(v) + 1.0) * 0.001 - 0.0005
            v[v > 1.0] = 0.0
        for _ in range(20):
            special.gammaln(self.x * 5.0 + 1.0)
            special.ndtr(self.x - 0.5)
            np.log(special.erfc(self.x))
        for _ in range(20):
            np.fft.irfft(np.fft.rfft(self.big) * np.fft.rfft(self.big[::-1]))
        return time.perf_counter() - t

    def sample(self, n: int):
        self.samples.extend(self.unit() for _ in range(n))

    def scale(self) -> float:
        """Factor turning this process's seconds into reference-host seconds."""
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    imports = timed_imports()
    import levypassage

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(levypassage.__file__).startswith(src + os.sep):
        print(f"levypassage imported from {levypassage.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    make_round = workloads.WORKLOADS[args.workload]
    first = make_round(args.seed, 0)
    setup_raw = time.perf_counter() - T0
    cal = Calibration()
    cal.sample(5)
    setup_s = setup_raw * cal.scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw, "imports": imports}))
        return 0

    import numpy as np

    import reference
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    ck = workloads.Checker(reference)
    latencies: list[float] = []
    round_walls = {False: [], True: []}  # keyed by "traced"
    attempted = failed = 0
    path_steps = 0
    failures: list[str] = []
    n_rounds = max(2 if args.trace else 1, round(args.seconds / workloads.ROUND_SECONDS[args.workload]))
    cal.samples.clear()  # the set-up samples stand for the set-up only
    pending = CALIBRATE_EVERY_S  # first unit right after the first query
    for r in range(n_rounds):
        queries = first if r == 0 else make_round(args.seed, r)
        traced = bool(tracer) and r % 2 == 1
        if traced:
            tracer.install()
        results = []
        for q in queries:
            t = time.perf_counter()
            try:
                out = q.run()
                ok = workloads.answered(out)
            except (ArithmeticError, ValueError, levypassage.LevyPassageError, np.linalg.LinAlgError) as exc:
                out, ok = None, False
                failures.append(f"round {r} {q.cls}: {type(exc).__name__}: {exc}")
            lat = time.perf_counter() - t
            latencies.append(lat)
            results.append((q, out, ok, lat))
            # one calibration unit per CALIBRATE_EVERY_S of measured time, right
            # after the query, so the units sample the host when the queries do
            pending += lat
            while pending >= CALIBRATE_EVERY_S:
                cal.sample(1)
                pending -= CALIBRATE_EVERY_S
        if traced:
            tracer.uninstall()
        round_walls[traced].append(sum(x[3] for x in results))
        for q, out, ok, _ in results:
            attempted += 1
            if not ok:
                failed += 1
                if out is not None:
                    failures.append(f"round {r} {q.cls}: NaN answer")
                continue
            q.check(out, ck)
            if traced and q.path_steps:
                path_steps += q.path_steps(out)

    for line in failures + ck.failures:
        print(line, file=sys.stderr)
    scale = cal.scale()
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "calib_s": CALIBRATION_REF_S / scale,
        "calib_spread": [min(cal.samples), statistics.median(cal.samples), max(cal.samples), len(cal.samples)],
        "imports": imports,
        "correct": not ck.failures and ck.count > 0,
        "attempted": attempted,
        "failed": failed,
        "rounds": n_rounds,
        "checks": ck.count,
    }
    if not args.trace:
        result["wall_raw_s"] = statistics.fmean(round_walls[False])
        result["metrics"] = {
            "wall_s": result["wall_raw_s"] * scale,
            "query_p50_ms": 1e3 * statistics.median(latencies) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digits_min": min(ck.digits),
            "digits_p50": statistics.median(ck.digits),
        }
        result["queries"] = len(latencies)
    else:
        n_tr = len(round_walls[True])
        layers = tracer.layer_totals()
        metrics = {}
        for module, attr in tracing.SPANNED:
            name = tracing.metric_name(module, attr)
            calls, self_s = layers.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = calls / n_tr
            metrics[f"{name}.s"] = self_s / n_tr
        for module, attr in tracing.COUNTED:
            name = tracing.metric_name(module, attr)
            metrics[f"{name}.calls"] = tracer.counts.get(name, 0) / n_tr
        metrics["last_passage.perturbed_gamma_density.points"] = tracer.points / n_tr
        mc_s = sum(layers.get(f"mc.{f}", (0, 0.0))[1] for f in (
            "run_first_passage", "run_last_passage", "run_reflected_first_passage", "run_reflected_last_passage"))
        metrics["mc.path_steps"] = path_steps / n_tr
        metrics["mc.path_steps_per_s"] = path_steps / mc_s if mc_s > 0 else 0.0
        traced_wall = statistics.fmean(round_walls[True])
        untraced_wall = statistics.fmean(round_walls[False])
        metrics["trace.wall_traced_s"] = traced_wall
        metrics["trace.wall_untraced_s"] = untraced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics["host.calib_s"] = CALIBRATION_REF_S / scale
        result["metrics"] = metrics
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.span_records(),
                           "counts": tracer.counts}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
