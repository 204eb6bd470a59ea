"""Command-line interface: model ingestion, dispatch, and run reports.

Model files are JSON objects with keys ``states`` (labels), ``rates``
(square matrix; the diagonal is ignored and recomputed), optional
``initial`` (probability vector, default uniform) and ``description``.
Measure paths are CSV files with header ``t,<label>...`` and one row per
grid node. Every subcommand writes a RunReport JSON next to its outputs;
reruns with identical inputs are byte-identical apart from wall time.

Exit codes: 0 success, 1 failed checks, 2 unparseable input, 3 validation
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InsufficientSampling, ToolkitError
from .hamiltonian import (
    _hamiltonian_raw,
    apply_hamiltonian,
    barrel_radius,
    pre_lagrangian,
    resolvent_iterate,
    v_apply,
)
from .lagrangian import SolverOptions, dual_check
from .markov import (
    Generator,
    Measure,
    Potential,
    evolve_law,
    relative_entropy,
    resolvent_matrix,
    transition_matrix,
    validate_generator,
)
from .montecarlo import (BallEvent, ball_infimum_rate, empirical_trajectory,
                         estimate_event_decay)
from .rates import PathGrid, path_action
from .trajectory import optimal_bridge


# ---------------------------------------------------------------------------
# Model and path files
# ---------------------------------------------------------------------------

def load_model(path) -> tuple[Generator, Measure, dict]:
    """Parse and validate a model file.

    Returns the generator, the initial law (uniform if absent, with a
    warning on stderr), and the raw document.
    """
    text = Path(path).read_text(encoding="utf-8")
    doc = json.loads(text)
    if not isinstance(doc, dict) or "states" not in doc or "rates" not in doc:
        raise ToolkitError("model file needs 'states' and 'rates' keys")
    gen = validate_generator(doc["states"], doc["rates"])
    if "initial" in doc:
        mu0 = Measure(gen.space, np.asarray(doc["initial"], dtype=float))
    else:
        print("warning: no initial law in model file, using uniform",
              file=sys.stderr)
        mu0 = Measure.uniform(gen.space)
    return gen, mu0, doc


def write_path_csv(path, grid: PathGrid) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", *grid.space.labels])
        for t, row in zip(grid.node_times, grid.measures):
            writer.writerow([f"{t:.12g}", *[f"{v:.17g}" for v in row]])


def read_path_csv(path, space=None) -> PathGrid:
    from .markov import StateSpace

    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    if len(header) < 3 or header[0] != "t":
        raise ToolkitError("path CSV must have header 't,<label>...'")
    labels = tuple(header[1:])
    if space is None:
        space = StateSpace(labels)
    elif tuple(space.labels) != labels:
        raise ToolkitError("path CSV labels do not match the model")
    times = np.array([float(r[0]) for r in rows])
    meas = np.array([[float(v) for v in r[1:]] for r in rows])
    if times.size < 2:
        raise ToolkitError("path CSV needs at least two rows")
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(1.0, abs(times[-1])):
        raise ToolkitError("path CSV nodes must be uniformly spaced")
    return PathGrid(space, float(times[0]), float(times[-1]), meas)


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


@dataclass
class RunReport:
    command: list[str]
    inputs_digest: str
    seed: int | None
    outputs: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def write(self, path) -> None:
        doc = {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "seed": self.seed,
            "outputs": self.outputs,
            "wall_time_s": self.wall_time_s,
            "version": __version__,
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=_jsonable)
            fh.write("\n")


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _digest(args, model_path) -> str:
    h = hashlib.sha256()
    if model_path:
        h.update(Path(model_path).read_bytes())
    blob = {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "out")}
    h.update(json.dumps(blob, sort_keys=True, default=str).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _parse_vector(text, space, what):
    vals = [float(v) for v in text.split(",")]
    if len(vals) != space.size:
        raise ToolkitError(f"{what} needs {space.size} comma-separated entries")
    return np.array(vals)


def _invariant_checks(gen: Generator, mu0: Measure, tol_scale: float = 1.0):
    """The fast invariant battery behind ``check``; yields (name, residual, tol)."""
    rng = np.random.default_rng(0)
    n = gen.size
    Q = gen.Q

    t, s = 0.37, 0.81
    lhs = transition_matrix(gen, t + s).P
    rhs = transition_matrix(gen, t).P @ transition_matrix(gen, s).P
    yield "semigroup law P(t+s) = P(t)P(s)", float(np.abs(lhs - rhs).max()), 1e-9

    lam = 0.5
    J = resolvent_matrix(gen, lam)
    res = np.abs((np.eye(n) - lam * Q) @ J - np.eye(n)).max()
    yield "resolvent residual (I - lam Q)J = I", float(res), 1e-10
    yield "resolvent rows sum to one", float(np.abs(J.sum(axis=1) - 1).max()), 1e-10

    worst = 0.0
    for _ in range(20):
        mu = Measure(gen.space, rng.dirichlet(np.ones(n)))
        out = evolve_law(gen, mu, float(rng.uniform(0, 3)))
        worst = max(worst, abs(out.p.sum() - 1.0), -min(out.p.min(), 0.0))
    yield "evolved laws stay probabilities", worst, 1e-10

    worst = 0.0
    for _ in range(20):
        mu = Measure(gen.space, rng.dirichlet(np.ones(n)))
        q = rng.dirichlet(np.ones(n)) + 1e-3
        nu = Measure(gen.space, q / q.sum())
        gap = relative_entropy(mu, nu) - 0.5 * np.abs(mu.p - nu.p).sum() ** 2
        worst = max(worst, -gap)
    yield "entropy dominates squared l1 distance", worst, 1e-12

    worst = 0.0
    for _ in range(10):
        f = Potential(gen.space, rng.uniform(-2, 2, n))
        direct = apply_hamiltonian(gen, f).f
        other = np.exp(-f.f) * (Q @ np.exp(f.f))
        worst = max(worst, float(np.abs(direct - other).max()))
    yield "two Hamiltonian formulas agree", worst, 1e-12

    worst = 0.0
    for _ in range(10):
        g = Potential(gen.space, rng.uniform(-2, 2, n))
        worst = max(worst, -float(pre_lagrangian(gen, g).f.min()))
    yield "pre-Lagrangian is nonnegative", worst, 0.0

    worst = 0.0
    for _ in range(5):
        q = rng.dirichlet(np.ones(n)) + 1e-2
        mu = Measure(gen.space, q / q.sum())
        f = Potential(gen.space, rng.uniform(-1.5, 1.5, n))
        worst = max(worst, dual_check(gen, mu, f))
    yield "Hamiltonian/Lagrangian duality", worst, 1e-6 * tol_scale

    f = Potential(gen.space, rng.uniform(-1, 1, n))
    t1, t2 = 0.4, 0.9
    chained = v_apply(gen, v_apply(gen, f, t2), t1).f
    joint = v_apply(gen, f, t1 + t2).f
    yield "nonlinear semigroup law", float(np.abs(chained - joint).max()), 1e-8

    try:
        radius = barrel_radius(gen)
        G = rng.uniform(-radius, radius, size=(2000, n))
        hvals = _hamiltonian_raw(gen.off_diagonal, gen.exit_rates, G)
        yield "Hamiltonian bounded on the barrel", \
            float(np.abs(hvals).max()) - 1.0, 1e-12
    except ToolkitError:
        pass


def cmd_check(args) -> int:
    gen, mu0, _ = load_model(args.model)
    t0 = time.monotonic()
    rows = []
    failed = 0
    for name, residual, tol in _invariant_checks(gen, mu0):
        ok = residual <= tol + args.tol
        failed += 0 if ok else 1
        rows.append((name, residual, tol, ok))
        print(f"{'PASS' if ok else 'FAIL'}  {name:45s} residual={residual:.3e}")
    report = RunReport(command=["check", str(args.model)],
                       inputs_digest=_digest(args, args.model), seed=None)
    report.outputs = {
        "checks": [
            {"name": nm, "residual": res, "tolerance": tol, "pass": ok}
            for nm, res, tol, ok in rows
        ],
        "failed": failed,
    }
    report.wall_time_s = time.monotonic() - t0
    out = Path(args.out) / "check_report.json"
    report.write(out)
    print(f"{len(rows) - failed}/{len(rows)} checks passed -> {out}")
    return 1 if failed else 0


def cmd_semigroup(args) -> int:
    gen, mu0, _ = load_model(args.model)
    t0 = time.monotonic()
    if args.potential is not None:
        f = Potential(gen.space, _parse_vector(args.potential, gen.space, "--potential"))
    else:
        f = Potential(gen.space, np.linspace(0.0, 1.0, gen.size))
    exact = v_apply(gen, f, args.t)
    ns = [int(v) for v in (args.n or "8,64,512").split(",")]
    table = []
    print(f"{'n':>6s}  {'sup-error vs matrix exponential':>32s}")
    for n in ns:
        approx = resolvent_iterate(gen, f, args.t, n)
        err = float(np.abs(approx.f - exact.f).max())
        table.append({"n": n, "sup_error": err})
        print(f"{n:6d}  {err:32.3e}")
    report = RunReport(command=["semigroup", str(args.model)],
                       inputs_digest=_digest(args, args.model), seed=None)
    report.outputs = {"t": args.t, "errors": table,
                      "exact": list(exact.f)}
    report.wall_time_s = time.monotonic() - t0
    report.write(Path(args.out) / "semigroup_report.json")
    return 0


def cmd_rate(args) -> int:
    from .rates import conditional_rate

    gen, mu0, _ = load_model(args.model)
    t0 = time.monotonic()
    mu = mu0
    if args.mu is not None:
        mu = Measure(gen.space, _parse_vector(args.mu, gen.space, "--mu"))
    nu = Measure(gen.space, _parse_vector(args.target, gen.space, "--target"))
    res = conditional_rate(gen, mu, nu, args.t,
                           opts=SolverOptions(gradient_tol=args.tol or 1e-9))
    print(f"I_t(target | mu) = {res.value:.10g}   t = {args.t}")
    if res.maximizer is not None:
        print(f"maximizer: {np.array2string(res.maximizer.f, precision=6)}")
    else:
        print("maximizer: unattained (supremum reached only in a limit)")
    report = RunReport(command=["rate", str(args.model)],
                       inputs_digest=_digest(args, args.model), seed=None)
    report.outputs = {
        "value": res.value if math.isfinite(res.value) else "inf",
        "attained": res.attained,
        "iterations": res.iterations,
        "gradient_norm": res.gradient_norm,
        "t": args.t,
    }
    report.wall_time_s = time.monotonic() - t0
    report.write(Path(args.out) / "rate_report.json")
    return 0


def cmd_bridge(args) -> int:
    gen, mu0, _ = load_model(args.model)
    t0 = time.monotonic()
    mu1 = Measure(gen.space, _parse_vector(args.target, gen.space, "--target"))
    opts = SolverOptions(gradient_tol=args.tol or 1e-9)
    result = optimal_bridge(gen, mu0, mu1, args.t, args.grid, opts=opts)
    csv_path = Path(args.out) / "bridge_path.csv"
    write_path_csv(csv_path, result.path)
    print(f"rate = {result.rate:.8g}  action = {result.action.value:.8g}  "
          f"delivery error = {result.delivery_error:.3e}")
    report = RunReport(command=["bridge", str(args.model)],
                       inputs_digest=_digest(args, args.model), seed=None)
    report.outputs = {
        "rate": result.rate,
        "action": result.action.value,
        "delivery_error": result.delivery_error,
        "action_gap": result.action_gap,
        "boundary": result.boundary,
        "path_csv": csv_path.name,
    }
    report.wall_time_s = time.monotonic() - t0
    report.write(Path(args.out) / "bridge_report.json")
    return 0


def cmd_action(args) -> int:
    gen, _, _ = load_model(args.model)
    t0 = time.monotonic()
    grid = read_path_csv(args.path, gen.space)
    result = path_action(gen, grid,
                         opts=SolverOptions(gradient_tol=args.tol or 1e-9))
    value = result.value
    print(f"action over [{grid.t0}, {grid.t1}] with K={grid.K}: {value:.10g}")
    if result.infeasible_cell is not None:
        print(f"infeasible at cell {result.infeasible_cell}")
    report = RunReport(command=["action", str(args.model), str(args.path)],
                       inputs_digest=_digest(args, args.model), seed=None)
    report.outputs = {
        "action": value if math.isfinite(value) else "inf",
        "cells": grid.K,
        "infeasible_cell": result.infeasible_cell,
    }
    report.wall_time_s = time.monotonic() - t0
    report.write(Path(args.out) / "action_report.json")
    return 0


def cmd_simulate(args) -> int:
    gen, mu0, _ = load_model(args.model)
    t0 = time.monotonic()
    n = int(args.n.split(",")[0]) if args.n else 1000
    grid = empirical_trajectory(gen, mu0, n, args.t, args.grid, args.seed)
    csv_path = Path(args.out) / "empirical_path.csv"
    write_path_csv(csv_path, grid)
    print(f"simulated {n} copies up to t={args.t} -> {csv_path}")
    report = RunReport(command=["simulate", str(args.model)],
                       inputs_digest=_digest(args, args.model), seed=args.seed)
    report.outputs = {"n": n, "t": args.t, "grid": args.grid,
                      "path_csv": csv_path.name}
    report.wall_time_s = time.monotonic() - t0
    report.write(Path(args.out) / "simulate_report.json")
    return 0


def cmd_verify_ldp(args) -> int:
    gen, mu0, _ = load_model(args.model)
    t0 = time.monotonic()
    if args.target is not None:
        nu = Measure(gen.space, _parse_vector(args.target, gen.space, "--target"))
    else:
        nu = mu0
    event = BallEvent(nu, args.t, args.radius)
    ns = [int(v) for v in (args.n or "50,100,200,400").split(",")]
    reference = ball_infimum_rate(gen, mu0, nu, args.t, args.radius)
    try:
        est = estimate_event_decay(gen, mu0, event, ns, args.reps, args.seed)
    except InsufficientSampling as exc:
        print(f"error: {exc}", file=sys.stderr)
        report = RunReport(command=["verify-ldp", str(args.model)],
                           inputs_digest=_digest(args, args.model),
                           seed=args.seed)
        report.outputs = {"error": str(exc), "partial": exc.partial,
                          "reference_rate": reference}
        report.wall_time_s = time.monotonic() - t0
        report.write(Path(args.out) / "verify_ldp_report.json")
        return 1
    est_path = Path(args.out) / "decay_estimate.json"
    with open(est_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(est.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    rel = abs(est.slope - reference) / reference if reference > 0 else 0.0
    print(f"fitted slope = {est.slope:.6g} +- {est.stderr:.2g}  "
          f"ball-corrected rate = {reference:.6g}  rel. gap = {rel:.1%}")
    report = RunReport(command=["verify-ldp", str(args.model)],
                       inputs_digest=_digest(args, args.model), seed=args.seed)
    report.outputs = {
        "slope": est.slope,
        "stderr": est.stderr,
        "reference_rate": reference,
        "relative_gap": rel,
        "estimate_json": est_path.name,
    }
    report.wall_time_s = time.monotonic() - t0
    report.write(Path(args.out) / "verify_ldp_report.json")
    return 0


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmc-ldp",
        description="Large-deviation toolkit for finite-state CTMCs. "
                    "Default tolerances: gradient 1e-9, duality checks 1e-6, "
                    "semigroup residuals 1e-9.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed_required=False):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=0.0,
                       help="extra slack added to check tolerances / solver tol")
        if seed_required:
            p.add_argument("--seed", type=int, required=True,
                           help="RNG seed (mandatory: no implicit entropy)")

    p = sub.add_parser("check", help="run the model invariant suite")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("semigroup",
                       help="resolvent iteration vs matrix exponential")
    common(p)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n", default=None, help="comma list of iteration counts")
    p.add_argument("--potential", default=None,
                   help="comma list; defaults to linspace(0, 1)")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("rate", help="conditional rate between two laws")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--target", required=True, help="target law, comma list")
    p.add_argument("--mu", default=None,
                   help="starting law, comma list (default: model initial)")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("bridge", help="optimal bridge to a target law")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", type=int, default=400, help="time intervals K")
    p.add_argument("--target", required=True, help="target law, comma list")
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("action", help="action of a CSV measure path")
    common(p)
    p.add_argument("--path", required=True, help="path CSV file")
    p.set_defaults(func=cmd_action)

    p = sub.add_parser("simulate", help="empirical trajectory of n copies")
    common(p, seed_required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", type=int, default=100, help="time intervals K")
    p.add_argument("--n", default="1000", help="number of copies")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-ldp", help="Monte Carlo decay-rate estimate")
    common(p, seed_required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", default=None, help="comma list of copy counts")
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--radius", type=float, default=0.05, help="l1 ball radius")
    p.add_argument("--target", default=None,
                   help="event center, comma list (default: model initial)")
    p.set_defaults(func=cmd_verify_ldp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: cannot parse model file at line {exc.lineno}, "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
