"""Command-line interface: model ingestion, dispatch, and run reports.

Model files are JSON objects with keys ``states`` (labels), ``rates``
(square matrix; the diagonal is ignored and recomputed), optional
``initial`` (probability vector, default uniform) and ``description``.
Measure paths are CSV files with header ``t,<label>...`` and one row per
grid node.

Each ``cmd_*(args, gen, mu0)`` returns ``(exit_code, outputs)``. ``_run``
looks the subcommand's ``cmd_<name>`` up on this module at call time (the
parser is built once per process), loads the model, times it and writes
``<subcommand>_report.json`` (``-`` becomes ``_``) with the command, a
SHA-256 digest of the model file, the ``--path`` file and the arguments,
the seed, the outputs and the wall time. Reports and
``decay_estimate.json`` are strict JSON: non-finite floats are the strings
``"inf"``, ``"-inf"`` and ``"nan"``. Reruns with identical inputs are
byte-identical apart from wall time; every output is rewritten in place.

Exit codes: 0 success, 1 failed checks, 2 unreadable or unparseable input
(a file, its UTF-8 text, JSON or CSV, or a model field), 3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InsufficientSampling, InvalidParameter, ToolkitError
from .hamiltonian import (
    _hamiltonian_raw,
    _pre_lagrangian,
    apply_hamiltonian,
    barrel_radius,
    resolvent_iterate,
    v_apply,
)
from .lagrangian import DEFAULT_OPTIONS, SolverOptions, _dual_residuals
from .markov import (
    Generator,
    Measure,
    Potential,
    StateSpace,
    _expm_generator,
    _relative_entropy,
    resolvent_matrix,
    transition_matrix,
    validate_generator,
)
from .montecarlo import (BallEvent, ball_infimum_rate, empirical_trajectory,
                         estimate_event_decay)
from .rates import PathGrid, conditional_rate, path_action
from .trajectory import optimal_bridge


class _Unparseable(Exception):
    """An input that cannot be read, or read as text and numbers (exit code 2)."""


# ---------------------------------------------------------------------------
# Model and path files
# ---------------------------------------------------------------------------

def _read(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _Unparseable(exc) from None


def _text(path, data) -> str:
    try:
        return (_read(path) if data is None else data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _Unparseable(f"{path} is not UTF-8 text: {exc}") from None


def load_model(path, data=None) -> tuple[Generator, Measure, dict]:
    """Parse and validate a model file: ``data``, its bytes, if given.

    Returns the generator, the initial law (uniform if absent, with a
    warning on stderr), and the raw document.
    """
    doc = json.loads(_text(path, data))
    if not isinstance(doc, dict) or "states" not in doc or "rates" not in doc:
        raise ToolkitError("model file needs 'states' and 'rates' keys")
    try:
        if not isinstance(doc["states"], list):
            raise TypeError(f"'states' is a {type(doc['states']).__name__}, not a list")
        states, rates = tuple(doc["states"]), np.asarray(doc["rates"], dtype=float)
        p0 = np.asarray(doc["initial"], dtype=float) if "initial" in doc else None
    except (TypeError, ValueError) as exc:
        raise _Unparseable(f"model fields must be labels ('states') and numbers "
                           f"('rates', 'initial'): {exc}") from None
    gen = validate_generator(states, rates)
    if p0 is not None:
        mu0 = Measure(gen.space, p0)
    else:
        print("warning: no initial law in model file, using uniform",
              file=sys.stderr)
        mu0 = Measure.uniform(gen.space)
    return gen, mu0, doc


def write_path_csv(path, grid: PathGrid) -> None:
    head = io.StringIO()
    csv.writer(head, lineterminator="\n").writerow(["t", *grid.space.labels])
    line = "%.12g" + ",%.17g" * grid.space.size + "\n"  # one format per row
    _write_text(path, head.getvalue() + "".join(
        line % (t, *row)
        for t, row in zip(grid.node_times.tolist(), grid.measures.tolist())))


def read_path_csv(path, space: StateSpace, data=None) -> PathGrid:
    text = _text(path, data)
    reader = csv.reader(io.StringIO(text, newline=None))
    header = next(reader, [])
    if len(header) < 3 or header[0] != "t":
        raise ToolkitError("path CSV must have header 't,<label>...'")
    if space.labels != tuple(header[1:]):
        raise ToolkitError("path CSV labels do not match the model")
    rows = [row for row in reader if row]
    try:  # all cells at once; NumPy parses a str as float() does
        if set(map(len, rows)) - {len(header)}:
            raise ValueError
        table = np.array(rows, dtype=float)
    except ValueError:  # read again, row by row, for the line at fault
        reader = csv.reader(io.StringIO(text, newline=None))
        next(reader)
        for row in filter(None, reader):
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise _Unparseable(f"{where}: {len(row)} fields, header has "
                                   f"{len(header)}") from None
            try:
                [float(v) for v in row]
            except ValueError as exc:
                raise _Unparseable(f"{where}: {exc}") from None
        raise  # NumPy and float() reject the same cells
    if len(table) < 2:
        raise ToolkitError("path CSV needs at least two rows")
    times = table[:, 0]
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(1.0, abs(times[-1])):
        raise ToolkitError("path CSV nodes must be uniformly spaced")
    return PathGrid(space, float(times[0]), float(times[-1]), table[:, 1:])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _strict(obj):
    """``obj`` as plain JSON values, non-finite floats as strings."""
    if isinstance(obj, dict):
        return {key: _strict(v) for key, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _strict(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    return obj


def _write_text(path, text) -> None:
    """Write ``text`` as UTF-8 over the file's old bytes and cut it there: a
    truncation to zero frees the blocks, and ext4 with ``discard`` discards them."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:  # from a descriptor, "wb" truncates nothing
        fh.write(text.encode("utf-8"))
        fh.truncate()


def _write_json(path, doc) -> None:
    _write_text(path, json.dumps(_strict(doc), indent=2, sort_keys=True,
                                 allow_nan=False) + "\n")


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _report_path(args) -> Path:
    return Path(args.out) / f"{args.subcommand.replace('-', '_')}_report.json"


def _run(args) -> int:
    """Run one subcommand and write its report, reading each input once."""
    inputs = [str(getattr(args, key)) for key in ("model", "path")
              if getattr(args, key, None) is not None]
    data = [_read(inputs[0])]
    gen, mu0, _ = load_model(args.model, data[0])
    t0 = time.monotonic()
    data += [_read(name) for name in inputs[1:]]
    h = hashlib.sha256(b"".join(data))
    blob = {k: v for k, v in sorted(vars(args).items()) if k != "out"}
    h.update(json.dumps(blob, sort_keys=True, default=str).encode())
    args.path_data = data[1] if len(data) > 1 else None  # for cmd_action
    code, outputs = globals()["cmd_" + args.subcommand.replace("-", "_")](
        args, gen, mu0)
    _write_json(_report_path(args), {
        "command": [args.subcommand, *inputs],
        "inputs_digest": h.hexdigest(),
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
        "wall_time_s": time.monotonic() - t0,
        "version": __version__,
    })
    return code


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _parse_vector(text, space, what):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise _Unparseable(f"{what}: not a comma-separated list of numbers: "
                           f"{text!r}") from None
    if len(vals) != space.size:
        raise ToolkitError(f"{what} needs {space.size} comma-separated entries")
    return np.array(vals)


def _solver_options(args) -> SolverOptions:
    return SolverOptions(gradient_tol=args.tol or DEFAULT_OPTIONS.gradient_tol)


def _flat_dirichlet(rng, shape):
    """``rng.dirichlet(np.ones(n), shape[:-1])``, n = shape[-1], to rounding, from
    the same stream and a tenth of the cost: normalized standard exponentials."""
    e = rng.standard_exponential(shape)
    return e / e.sum(axis=-1, keepdims=True)


def _invariant_checks(gen: Generator):
    """The fast invariant battery behind ``check``; yields (name, residual, tol).
    Draws keep the stream order of single draws; each invariant is then
    evaluated over its whole stack, bar the Hamiltonian formulas, and the
    evolved laws are the raw rows mu e^{tQ} that ``evolve_law`` renormalizes."""
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

    rows = np.array([_flat_dirichlet(rng, n) @ _expm_generator(gen, rng.uniform(0, 3))
                     for _ in range(20)])  # each law, then its time
    drift = max(np.abs(rows.sum(axis=1) - 1.0).max(), -min(rows.min(), 0.0))
    yield "evolved laws stay probabilities", float(drift), 1e-10

    mu, q = _flat_dirichlet(rng, (20, 2, n)).transpose(1, 0, 2)  # pairs as rows
    nu = (q + 1e-3) / (q + 1e-3).sum(axis=1, keepdims=True)
    gap = _relative_entropy(mu, nu) - 0.5 * np.abs(mu - nu).sum(axis=1) ** 2
    yield "entropy dominates squared l1 distance", max(0.0, -float(gap.min())), 1e-12

    F = rng.uniform(-2, 2, (10, n))  # a potential per row
    direct = np.array([apply_hamiltonian(gen, Potential(gen.space, f)).f for f in F])
    other = np.exp(-F) * (np.exp(F) @ Q.T)
    # per state, relative to the terms both formulas sum
    scale = np.maximum(1.0, np.exp(-F) * (np.exp(F) @ np.abs(Q).T))
    worst = float((np.abs(direct - other) / scale).max())
    yield "two Hamiltonian formulas agree", worst, 1e-12

    G = rng.uniform(-2, 2, (10, n)).T  # a potential per column
    worst = -float(_pre_lagrangian(gen.off_diagonal[..., None], G).min())
    yield "pre-Lagrangian is nonnegative", max(0.0, worst), 0.0

    draws = [(_flat_dirichlet(rng, n) + 1e-2, rng.uniform(-1.5, 1.5, n)) for _ in range(5)]
    mus, fs = (np.array(a) for a in zip(*draws))
    residuals = _dual_residuals(gen, mus / mus.sum(axis=1, keepdims=True), fs)
    yield "Hamiltonian/Lagrangian duality", float(residuals.max()), 1e-6

    f = Potential(gen.space, rng.uniform(-1, 1, n))
    t1, t2 = 0.4, 0.9
    chained = v_apply(gen, v_apply(gen, f, t2), t1).f
    joint = v_apply(gen, f, t1 + t2).f
    yield "nonlinear semigroup law", float(np.abs(chained - joint).max()), 1e-8

    try:
        radius = barrel_radius(gen)
        # a potential per column, contiguous for NumPy's inner loops
        G = np.ascontiguousarray(rng.uniform(-radius, radius, size=(2000, n)).T)
        hvals = _hamiltonian_raw(gen.off_diagonal[..., None], gen.exit_rates[:, None], G)
        yield "Hamiltonian bounded on the barrel", \
            float(np.abs(hvals).max()) - 1.0, 1e-12
    except ToolkitError:
        pass


def cmd_check(args, gen, mu0):
    if not 0.0 <= args.tol < math.inf:  # NaN fails
        raise InvalidParameter(f"--tol must be nonnegative and finite, got {args.tol}")
    rows = []
    for name, residual, tol in _invariant_checks(gen):
        ok = residual <= tol + args.tol
        rows.append({"name": name, "residual": residual, "tolerance": tol,
                     "pass": ok})
        print(f"{'PASS' if ok else 'FAIL'}  {name:45s} residual={residual:.3e}")
    failed = sum(not row["pass"] for row in rows)
    print(f"{len(rows) - failed}/{len(rows)} checks passed -> "
          f"{_report_path(args)}")
    return (1 if failed else 0), {"checks": rows, "failed": failed}


def cmd_semigroup(args, gen, mu0):
    if args.potential is not None:
        f = Potential(gen.space, _parse_vector(args.potential, gen.space, "--potential"))
    else:
        f = Potential(gen.space, np.linspace(0.0, 1.0, gen.size))
    exact = v_apply(gen, f, args.t)
    table = []
    print(f"{'n':>6s}  {'sup-error vs matrix exponential':>32s}")
    for n in args.n:
        approx = resolvent_iterate(gen, f, args.t, n)
        err = float(np.abs(approx.f - exact.f).max())
        table.append({"n": n, "sup_error": err})
        print(f"{n:6d}  {err:32.3e}")
    return 0, {"t": args.t, "errors": table, "exact": exact.f}


def cmd_rate(args, gen, mu0):
    mu = mu0
    if args.mu is not None:
        mu = Measure(gen.space, _parse_vector(args.mu, gen.space, "--mu"))
    nu = Measure(gen.space, _parse_vector(args.target, gen.space, "--target"))
    res = conditional_rate(gen, mu, nu, args.t, opts=_solver_options(args))
    print(f"I_t(target | mu) = {res.value:.10g}   t = {args.t}")
    if res.maximizer is not None:
        print(f"maximizer: {np.array2string(res.maximizer.f, precision=6)}")
    else:
        print("maximizer: unattained (supremum reached only in a limit)")
    return 0, {"value": res.value, "attained": res.attained,
               "iterations": res.iterations,
               "gradient_norm": res.gradient_norm, "t": args.t}


def cmd_bridge(args, gen, mu0):
    mu1 = Measure(gen.space, _parse_vector(args.target, gen.space, "--target"))
    result = optimal_bridge(gen, mu0, mu1, args.t, args.grid,
                            opts=_solver_options(args))
    csv_path = Path(args.out) / "bridge_path.csv"
    write_path_csv(csv_path, result.path)
    print(f"rate = {result.rate:.8g}  action = {result.action.value:.8g}  "
          f"delivery error = {result.delivery_error:.3e}")
    return 0, {"rate": result.rate, "action": result.action.value,
               "delivery_error": result.delivery_error,
               "action_gap": result.action_gap, "boundary": result.boundary,
               "path_csv": csv_path.name}


def cmd_action(args, gen, mu0):
    grid = read_path_csv(args.path, gen.space, args.path_data)
    result = path_action(gen, grid, opts=_solver_options(args))
    print(f"action over [{grid.t0}, {grid.t1}] with K={grid.K}: "
          f"{result.value:.10g}")
    if result.infeasible_cell is not None:
        print(f"infeasible at cell {result.infeasible_cell}")
    return 0, {"action": result.value, "cells": grid.K,
               "infeasible_cell": result.infeasible_cell}


def cmd_simulate(args, gen, mu0):
    grid = empirical_trajectory(gen, mu0, args.n, args.t, args.grid, args.seed)
    csv_path = Path(args.out) / "empirical_path.csv"
    write_path_csv(csv_path, grid)
    print(f"simulated {args.n} copies up to t={args.t} -> {csv_path}")
    return 0, {"n": args.n, "t": args.t, "grid": args.grid,
               "path_csv": csv_path.name}


def cmd_verify_ldp(args, gen, mu0):
    nu = mu0
    if args.target is not None:
        nu = Measure(gen.space, _parse_vector(args.target, gen.space, "--target"))
    event = BallEvent(nu, args.t, args.radius)
    reference = ball_infimum_rate(gen, mu0, nu, args.t, args.radius)
    try:
        est = estimate_event_decay(gen, mu0, event, args.n, args.reps, args.seed)
    except InsufficientSampling as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, {"error": str(exc), "partial": exc.partial,
                   "reference_rate": reference}
    est_path = Path(args.out) / "decay_estimate.json"
    _write_json(est_path, dataclasses.asdict(est))
    rel = abs(est.slope - reference) / reference if reference > 0 else math.nan
    gap = f"rel. gap = {rel:.1%}" if reference > 0 else f"abs. gap = {abs(est.slope):.3g}"
    print(f"fitted slope = {est.slope:.6g} +- {est.stderr:.2g}  "
          f"ball-corrected rate = {reference:.6g}  {gap}")
    return 0, {"slope": est.slope, "stderr": est.stderr,
               "reference_rate": reference, "relative_gap": rel,
               "estimate_json": est_path.name}


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _int_list(text) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmc-ldp",
        description="Large-deviation toolkit for finite-state CTMCs. "
                    "Default tolerances: gradient 1e-9, duality checks 1e-6, "
                    "semigroup residuals 1e-9.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, help, tol=None, seed=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=".", help="output directory")
        if tol:
            p.add_argument("--tol", type=float, default=0.0, help=tol)
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="RNG seed (mandatory: no implicit entropy)")
        return p

    solver_tol = "solver gradient tolerance (0 means 1e-9)"
    command("check", "run the model invariant suite",
            tol="extra slack added to every check tolerance")

    p = command("semigroup", "resolvent iteration vs matrix exponential")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n", type=_int_list, default="8,64,512",
                   help="comma list of iteration counts")
    p.add_argument("--potential", default=None,
                   help="comma list; defaults to linspace(0, 1)")

    p = command("rate", "conditional rate between two laws", tol=solver_tol)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--target", required=True, help="target law, comma list")
    p.add_argument("--mu", default=None,
                   help="starting law, comma list (default: model initial)")

    p = command("bridge", "optimal bridge to a target law", tol=solver_tol)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", type=int, default=400, help="time intervals K")
    p.add_argument("--target", required=True, help="target law, comma list")

    p = command("action", "action of a CSV measure path", tol=solver_tol)
    p.add_argument("--path", required=True, help="path CSV file")

    p = command("simulate", "empirical trajectory of n copies", seed=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", type=int, default=100, help="time intervals K")
    p.add_argument("--n", type=int, default=1000, help="number of copies")

    p = command("verify-ldp", "Monte Carlo decay-rate estimate", seed=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=_int_list, default="50,100,200,400",
                   help="comma list of copy counts")
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--radius", type=float, default=0.05, help="l1 ball radius")
    p.add_argument("--target", default=None,
                   help="event center, comma list (default: model initial)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return _run(args)
    except json.JSONDecodeError as exc:
        print(f"error: cannot parse model file at line {exc.lineno}, "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (_Unparseable, OSError) as exc:  # OSError: --out or an output file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
