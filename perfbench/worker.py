"""One benchmark process: set up one workload, then run it timed or traced.

Run from the root of a checkout; ``run.py`` starts it. The package is
imported from ``src/``, as Tier-1 does. The last line of standard output
is one JSON object with the run's figures.

Without ``--trace`` it runs ops of ``--workload`` in a closed loop (one
caller; the next op starts when the previous one and its check are done)
for ``--seconds``. With ``--trace`` it runs a fixed number of ops of every
workload, each once untraced and once traced, so that every layer is
reached and the counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import metrics

clock = time.perf_counter

# On a shared host the cores' speed can change by 50% from one minute to
# the next and by less within seconds, while CPU time still tracks wall
# time: other tenants slow the cores down. Each run therefore times a fixed kernel of small NumPy calls just
# before and just after every op and reports op times in reference seconds:
# an op's wall time times CALIBRATION_REF_S over the mean of the two kernel
# times. On a host where the kernel takes CALIBRATION_REF_S, reference
# seconds are wall seconds. Wall figures are kept in the run's result file.
CALIBRATION_REF_S = metrics.CALIBRATION_REF_S


def calibration_kernel():
    """Fixed work shaped like the package's inner loops; no package code."""
    import numpy as np
    rng = np.random.default_rng(0)
    A = rng.random((4, 4)) + 4.0 * np.eye(4)
    v = rng.random(4)
    acc = 0.0
    for _ in range(150):
        B = A @ A
        e = np.exp(v[None, :] - v[:, None])
        s = np.linalg.solve(B, v)
        acc += float(e.sum()) + float(s[0]) + sum(i * 0.5 for i in range(20))
    return acc


def kernel_seconds():
    t0 = clock()
    calibration_kernel()
    return clock() - t0


def import_package(root):
    """Import ctmc_ldp (and its CLI) from ``root/src``; fail on any other copy."""
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    import ctmc_ldp
    import ctmc_ldp.cli  # noqa: F401  (the cli workload and layer)
    if Path(ctmc_ldp.__file__).resolve().parent.parent != src:
        raise ImportError(f"ctmc_ldp imported from {ctmc_ldp.__file__}, "
                          f"not from {src}")
    return ctmc_ldp


def environment(seed):
    import numpy
    import scipy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Tally:
    """Attempted and failed ops, with the first few failures spelled out.

    Notes count the ops whose check passed with a note (see workloads).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.noted = 0
        self.notes = []

    def attempt(self, workload, i, op, inputs):
        """Run op ``i``; returns (seconds, result), result None if it raised."""
        self.attempted += 1
        t0 = clock()
        try:
            result = op(inputs)
        except Exception as exc:  # an op that raises is a failed op
            self._fail(workload, i, f"{type(exc).__name__}: {exc}")
            return clock() - t0, None
        return clock() - t0, result

    def check(self, workload, i, inputs, result):
        """The check's observations, or None when the op failed."""
        from workloads import CheckFailed
        if result is None:
            return None
        try:
            obs = workload.check(inputs, result) or {}
        except CheckFailed as exc:
            self._fail(workload, i, str(exc))
            return None
        if "note" in obs:
            self.noted += 1
            if len(self.notes) < 5:
                self.notes.append(self._entry(workload, i, obs["note"]))
        return obs

    def run(self, workload, i, inputs, op):
        """Attempt and check op ``i``; returns (seconds, observations)."""
        dt, result = self.attempt(workload, i, op, inputs)
        return dt, self.check(workload, i, inputs, result)

    def _fail(self, workload, i, message):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(self._entry(workload, i, message))

    @staticmethod
    def _entry(workload, i, message):
        return {"workload": workload.name, "op": i, "seed": workload.seed,
                "message": message}


def set_up(root, name, seed, scratch):
    """Import the package, build the inputs of the warm-up op, run it.

    Returns (workload, package, set-up in reference seconds, set-up in wall
    seconds, tally holding the warm-up op's check). NumPy is imported
    first, for the calibration kernel timed just before and just after;
    the harness's own imports are not part of set-up time either.
    """
    calibration_kernel()          # imports NumPy and warms the kernel up
    before = statistics.median(kernel_seconds() for _ in range(3))
    t0 = clock()
    lib = import_package(root)
    import_s = clock() - t0
    import workloads
    wl = workloads.build(name, lib, seed, scratch)
    warm = Tally()
    t1 = clock()
    inputs = wl.make(0)
    _, result = warm.attempt(wl, 0, wl.op, inputs)
    wall = import_s + clock() - t1
    after = statistics.median(kernel_seconds() for _ in range(3))
    warm.check(wl, 0, inputs, result)
    ref = wall * 2.0 * CALIBRATION_REF_S / (before + after)
    return wl, lib, ref, wall, warm


def timed_loop(wl, seconds, tally):
    """Closed loop over ops 1, 2, ... until ``seconds`` have passed.

    Returns the wall and the reference latencies of the ops that passed
    their check.
    """
    wall, ref = [], []
    deadline = clock() + seconds
    i = 0
    while clock() < deadline:
        i += 1
        inputs = wl.make(i)
        before = kernel_seconds()
        dt, result = tally.attempt(wl, i, wl.op, inputs)
        after = kernel_seconds()
        if tally.check(wl, i, inputs, result) is not None:
            wall.append(dt)
            ref.append(dt * 2.0 * CALIBRATION_REF_S / (before + after))
    return wall, ref


def end_to_end(latencies, tally):
    busy = math.fsum(latencies)
    value, pct, beyond = metrics.tail(latencies) if latencies else (0.0, 0.0, 0)
    return {
        "ops_per_s": len(latencies) / busy if busy > 0 else 0.0,
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "op_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": tally.failed / max(tally.attempted, 1),
    }, {"tail_percentile": pct, "tail_ops_beyond": beyond,
        "ops": len(latencies)}


def traced_run(lib, seed, seconds, scratch, trace_path):
    """Every workload's traced plan.

    Returns (per-layer metrics in reference seconds, the same in wall
    seconds, kernel seconds after each op, tally). Per-layer times are
    scaled by the run's median kernel time.
    """
    import workloads
    from spans import Tracer

    tracer = Tracer(lib)
    tally = Tally()
    kernel = []
    busy = {False: 0.0, True: 0.0}
    residual_max = 0.0

    def traced_op(wl, i):
        def op(inputs):
            tracer.install()
            tracer.begin_op(wl.name, i)
            try:
                return wl.op(inputs)
            finally:
                tracer.uninstall()
        return op

    for name in metrics.WORKLOADS:
        wl = workloads.build(name, lib, seed, scratch)
        inputs = wl.make(0)
        tally.run(wl, 0, inputs, wl.op)           # warm-up, untraced
        for i in range(1, wl.trace_ops(seconds) + 1):
            inputs = wl.make(i)
            # alternate which side runs first, so drift does not bias it
            for traced in ((False, True) if i % 2 else (True, False)):
                dt, obs = tally.run(wl, i, inputs,
                                    traced_op(wl, i) if traced else wl.op)
                busy[traced] += dt
                if obs and "residual" in obs:
                    residual_max = max(residual_max, obs["residual"])
                kernel.append(kernel_seconds())
    tracer.write(trace_path)
    raw = layer_metrics(tracer)
    raw["trajectory.residual_max"] = residual_max
    raw["trace.overhead_frac"] = (busy[True] - busy[False]) / busy[False]
    scale = CALIBRATION_REF_S / statistics.median(kernel)
    per_unit = {"s": scale, "1/s": 1.0 / scale}
    out = {name: raw[name] * per_unit.get(unit, 1)
           for name, unit in metrics.PER_LAYER.items()}
    return out, raw, kernel, tally


def layer_metrics(tracer):
    calls, total, own = tracer.totals()
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    mc = counts["montecarlo.estimate_event_decay"]
    out = {
        "lagrangian.lagrangian_value.attained_frac": ratio(
            counts["lagrangian.lagrangian_value"]["attained"],
            calls["lagrangian.lagrangian_value"]),
        "montecarlo.batches": mc["batches"],
        "montecarlo.hits": mc["hits"],
        "montecarlo.s_per_batch": ratio(
            total["montecarlo.estimate_event_decay"], mc["batches"]),
        "montecarlo.hit_frac": ratio(mc["hits"], mc["batches"]),
        "montecarlo.copies_per_s": ratio(
            counts["montecarlo.empirical_trajectory"]["copies"],
            total["montecarlo.empirical_trajectory"]),
        "cli.self_s": math.fsum(v for k, v in own.items()
                                if k.startswith("cli.")),
    }
    for name in metrics.PER_LAYER:
        if name in out:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls[base]
        elif kind == "self_s":
            out[name] = own[base]
        elif kind in ("iterations", "cells"):
            out[name] = counts[base][kind]
        elif kind == "s" and base.startswith("cli."):
            out[name] = total[base]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for outputs")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    out = Path(args.out)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=out))
    try:
        if args.trace:
            lib = import_package(root)
            per_layer, raw, kernel, tally = traced_run(
                lib, args.seed, args.seconds, scratch,
                out / f"trace-seed{args.seed}-s{args.seconds}.jsonl")
            report = {"per_layer": per_layer, "per_layer_wall": raw,
                      "kernel_s": kernel}
        else:
            wl, lib, setup_s, setup_wall, tally = set_up(
                root, args.workload, args.seed, scratch)
            report = {"setup_s": setup_s, "setup_wall_s": setup_wall}
            if not args.setup_only:
                wall, ref = timed_loop(wl, args.seconds, tally)
                report["end_to_end"], report["tail"] = end_to_end(ref, tally)
                report["wall"] = end_to_end(wall, tally)[0]
                report["latencies_wall"] = wall
                report["latencies"] = ref
        report.update(environment=environment(args.seed),
                      attempted=tally.attempted, failed=tally.failed,
                      failures=tally.failures, noted=tally.noted,
                      notes=tally.notes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
