"""Benchmark entry point (standard library only).

    python3 perfbench/run.py --workload <passage_laws|policy_eval|mc_oracle>
                             --seed <n> --seconds <s> --trace <0|1>

Runs four set-up-only worker processes and one full worker, each a fresh
interpreter, one after the other; ``setup_s`` is the median of the five
set-up times.  The full worker measures rounds of queries for about
``--seconds`` seconds and checks every answer.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Any failure to run exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 5  # fresh processes whose set-up times give the median
UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "peak_rss_mb": "MB",
         "digits_min": "digits", "digits_p50": "digits"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".points") or name == "mc.path_steps":
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    return "s"


def worker(args, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PERFBENCH_SRC"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one BLAS thread: the host has two cores and the library is serial
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd + extra, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("passage_laws", "policy_eval", "mc_oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "levypassage", "__init__.py")):
        print(f"no levypassage sources under {SRC}", file=sys.stderr)
        return 2
    try:
        heads = [worker(args, ["--setup-only"], 120) for _ in range(SETUP_RUNS - 1)]
        trace_out = os.path.join(HERE, "out", f"trace_{args.workload}_seed{args.seed}.json")
        main_run = worker(args, ["--trace-out", trace_out] if args.trace else [], 170 - 10 * SETUP_RUNS)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    heads.append(main_run)
    setup = statistics.median(h["setup_s"] for h in heads)
    if args.trace:
        values = dict(main_run["metrics"])
        for dep in main_run["imports"]:
            values[f"setup.import_{dep}_s"] = statistics.median(h["imports"][dep] for h in heads)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = dict(main_run["metrics"], setup_s=setup)
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
    print(
        f"{args.workload} seed {args.seed}: {main_run['rounds']} rounds, {main_run['attempted']} queries, "
        f"{main_run['failed']} failed, {main_run['checks']} checks, correct={main_run['correct']}; "
        f"calibration unit mean {main_run['calib_s'] * 1e3:.2f} ms "
        f"(min/median/max {'/'.join(f'{1e3 * v:.2f}' for v in main_run['calib_spread'][:3])} ms, "
        f"{main_run['calib_spread'][3]} units), "
        f"raw set-up {statistics.median(h['setup_raw_s'] for h in heads):.3f} s"
        + (f", raw round wall {main_run['wall_raw_s']:.3f} s" if not args.trace else ""),
        file=sys.stderr,
    )
    print(json.dumps({"correct": main_run["correct"], "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
