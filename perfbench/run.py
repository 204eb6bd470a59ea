"""Benchmark of ctmc-ldp: one workload per run, checked op by op.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {doob,solves,montecarlo,cli} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run sets the workload up five times, each in a
fresh process, and reports the median set-up time; the last of those
processes then runs the closed loop and reports the end-to-end metrics.
With ``--trace 1`` one process runs the traced plan of every workload and
reports the per-layer metrics. Each figure is printed on its own line with
its unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details of the run
(environment, tail percentile, latencies, failures, notes) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

SETUP_REPEATS = 5
DEADLINE_S = 170.0          # the whole run, set-ups included
HERE = Path(__file__).resolve().parent


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    return args


def checkout_problem(root):
    if not (root / "src" / "ctmc_ldp" / "__init__.py").is_file():
        return "no src/ctmc_ldp package"
    if not any((root / "models").glob("*.json")):
        return "no models/*.json"
    return None


def start_worker(args, out, deadline, *extra):
    """Run one worker process to completion; returns its JSON report."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out), *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse(argv)
    root = Path.cwd()
    problem = checkout_problem(root)
    if problem:
        print(f"error: {problem}; run from the root of a ctmc-ldp checkout",
              file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            report = start_worker(args, out, deadline, "--trace")
            values = report["per_layer"]
            units = metrics.PER_LAYER
        else:
            setups = [start_worker(args, out, deadline, "--setup-only")
                      for _ in range(SETUP_REPEATS - 1)]
            report = start_worker(args, out, deadline)
            setups.append(report)
            report["setup_s_samples"] = [r["setup_s"] for r in setups]
            report["setup_wall_s_samples"] = [r["setup_wall_s"] for r in setups]
            values = dict(report["end_to_end"],
                          setup_s=statistics.median(report["setup_s_samples"]))
            units = dict(metrics.END_TO_END, failed_frac=metrics.FAILED_FRAC[1])
    except (subprocess.TimeoutExpired, RuntimeError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = report["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print("times are in reference seconds (wall seconds scaled to a host "
          f"where the calibration kernel takes "
          f"{metrics.CALIBRATION_REF_S * 1e3:g} ms)")
    if not args.trace:
        tail = report["tail"]
        print(f"op_tail_s is p{tail['tail_percentile']:.1f} of {tail['ops']} "
              f"ops, {tail['tail_ops_beyond']} ops beyond it")
        print("wall seconds: " + " ".join(f"{k}={v:.6g}"
                                          for k, v in report["wall"].items()))
    for failure in report["failures"]:
        print(f"FAILED op: {json.dumps(failure)}")
    print(f"ops that passed with a note: {report['noted']}")
    for note in report["notes"]:
        print(f"NOTE op: {json.dumps(note)}")
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(report, indent=1) + "\n")

    reported = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
