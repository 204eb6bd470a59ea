"""Workload and metric names, units and constants shared by every script.

BENCHMARK.json lists the same names; ``selftest.py`` checks that they agree.
"""

WORKLOADS = ("doob", "solves", "montecarlo", "cli")

# Kernel time (see worker.calibration_kernel) of the host that reference
# seconds refer to.
CALIBRATION_REF_S = 2.5e-3

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Printed with the end-to-end metrics but not reported to BENCHMARK.json's
# consumers as a metric: it is 0 on a correct program, and the final JSON
# line carries it as ``failed`` / ``attempted``.
FAILED_FRAC = ("failed_frac", "1")

CLI_SUBCOMMANDS = ("check", "semigroup", "rate", "bridge", "action",
                   "simulate", "verify-ldp")

PER_LAYER = {
    "markov.expm.calls": "count",
    "markov.expm.self_s": "s",
    "markov.sample_jump_path.calls": "count",
    "markov.sample_jump_path.self_s": "s",
    "hamiltonian.v_apply.calls": "count",
    "hamiltonian.v_apply.self_s": "s",
    "lagrangian.lagrangian_value.calls": "count",
    "lagrangian.lagrangian_value.self_s": "s",
    "lagrangian.lagrangian_value.iterations": "count",
    "lagrangian.lagrangian_value.attained_frac": "1",
    "lagrangian.dual_check.self_s": "s",
    "rates.path_action.calls": "count",
    "rates.path_action.cells": "count",
    "rates.path_action.self_s": "s",
    "rates.conditional_rate.calls": "count",
    "rates.conditional_rate.self_s": "s",
    "rates.conditional_rate.iterations": "count",
    "rates.joint_rate.calls": "count",
    "rates.joint_rate.self_s": "s",
    "rates.joint_rate.iterations": "count",
    "trajectory.doob_flow.self_s": "s",
    "trajectory.doob_forward.self_s": "s",
    "trajectory.optimal_bridge.self_s": "s",
    "trajectory.residual_max": "1",
    "montecarlo.estimate_event_decay.self_s": "s",
    "montecarlo.batches": "count",
    "montecarlo.hits": "count",
    "montecarlo.s_per_batch": "s",
    "montecarlo.hit_frac": "1",
    "montecarlo.empirical_trajectory.self_s": "s",
    "montecarlo.copies_per_s": "1/s",
    **{f"cli.{sub}.s": "s" for sub in CLI_SUBCOMMANDS},
    "cli.self_s": "s",
    "trace.overhead_frac": "1",
}

# Counts that must repeat exactly between two traced runs with one seed.
EXACT_COUNTS = tuple(name for name in PER_LAYER
                     if name.endswith((".calls", ".iterations", ".cells"))
                     or name in ("montecarlo.batches", "montecarlo.hits"))


def tail(latencies):
    """(value, percentile, ops beyond): the highest percentile with at least
    ten ops beyond it, or the maximum when a run has fewer than eleven."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10
