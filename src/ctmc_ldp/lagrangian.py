"""The Lagrangian as a concave maximization, and Hamiltonian duality.

The cost of moving a law mu with instantaneous speed u is

    L(mu, u) = sup_f { <f, u> - <Hf, mu> },

a Legendre transform over potentials. The objective is concave with an
explicit gradient u - rho(mu, f), where rho(mu, f) is the forward speed of
the f-tilted dynamics, and an explicit Hessian given by the weighted graph
Laplacian of the symmetrized tilted flux. Shifting f by a constant on a
connected component of the live flux channels never changes the objective,
so it is maximized with the lowest state of each component pinned at 0.

Every concave maximization of the package (this one, the conditional and
joint rates) runs through one damped Newton core over a leading batch axis,
``_newton_ascent``; its callers supply the objective, gradient and Hessian,
and keep their structural screens. A single Lagrangian and the cells of a
path action share one evaluator, ``_lagrangian_cells``, which screens and
pins stacks of cells and batches those with the same flux channels.

Suprema need not be attained: holding mass on a state whose only exit
channel must be shut down drives components of f to -infinity while the
objective converges. Such results carry a finite value and no maximizer;
a converged solve counts as attained exactly when its next Newton step
vanishes.
Genuinely infeasible speeds (mass created from nothing, or more cost than
any tilt can explain) are reported as +infinity.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSpeed, MalformedModel, NumericalFailure
from .hamiltonian import _hamiltonian_raw, _tilted_rates
from .markov import Generator, Measure, Potential, StateSpace, _frozen

SPEED_SUM_TOL = 1e-10

# Behavioral divergence constants.
OBJECTIVE_CAP = 1e6          # objective beyond 1/eps counts as +infinity
DIVERGENCE_NORM = 50.0       # iterate sup-norm past which a solve has diverged
IMPROVEMENT_TOL = 1e-10      # still-improving threshold for the divergence rule
STRUCTURAL_TOL = 1e-12       # zero threshold for structural feasibility checks


@dataclass(frozen=True)
class Speed:
    """A signed mass flux per unit time; entries sum to zero."""

    space: StateSpace
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape != (self.space.size,):
            raise MalformedModel("speed vector has the wrong length")
        if not np.all(np.isfinite(u)):
            raise MalformedModel("speed vector contains non-finite entries")
        if abs(u.sum()) > SPEED_SUM_TOL:
            raise InfeasibleSpeed(f"speed entries sum to {u.sum()!r}, not 0")
        object.__setattr__(self, "u", _frozen(u))


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances for the concave maximizations."""

    gradient_tol: float = 1e-9
    max_iters: int = 200


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class LagrangianResult:
    """Outcome of a Lagrangian evaluation.

    ``maximizer`` is None whenever the supremum is only attained in a limit
    (the value may still be finite) or the value is infinite.
    ``undetermined_states`` lists zero-mass states with no inbound flux,
    where the optimizer has a flat direction and is pinned to zero.
    """

    value: float
    maximizer: Potential | None
    iterations: int
    gradient_norm: float
    undetermined_states: tuple[int, ...] = ()

    def __post_init__(self):
        if self.value < 0:
            raise MalformedModel("Lagrangian values are nonnegative")

    @property
    def attained(self) -> bool:
        return self.maximizer is not None


def speed(gen: Generator, mu: Measure, g: Potential) -> Speed:
    """Forward speed of the g-tilted dynamics, rho(mu, g) = (A^g)' mu."""
    Qt = _tilted_rates(gen.off_diagonal, g.f)
    np.fill_diagonal(Qt, -Qt.sum(axis=1))
    u = Qt.T @ mu.p
    u = u - u.sum() / u.size  # exact mass conservation despite FP noise
    return Speed(gen.space, u)


class _Status:
    """Per-cell verdicts of ``_newton_ascent``; STALLED means no step gains
    along the Newton step or the gradient, MAX_ITERS the cap without one."""

    CONVERGED, INFINITE, BOUNDARY, STALLED, MAX_ITERS = range(5)


def _newton_ascent(objective, hessian, x, free, opts):
    """Damped Newton ascent of a batch of concave maximizations.

    ``objective(x, rows)`` gives the values, gradients and a state of batch
    rows ``rows`` (indices, or a slice for all) at iterates x (b, m), and
    ``hessian(state)`` minus the (b, m, m) Hessians. Only the ``free``
    coordinates move. Per cell: the OBJECTIVE_CAP test, then the gradient
    tolerance; the Newton step (the gradient if it is singular, non-finite
    or no ascent), taken whole when it halves the gradient sup-norm, which
    keeps converging below the noise floor of the objective, else
    backtracked by Armijo halvings; one retry along the gradient if that
    stalls; past DIVERGENCE_NORM, +infinity while still improving, else
    a supremum attained only in a limit.

    Returns per-cell arrays: status, x, value, iterations, gradient norm.
    """
    status = np.full(len(x), _Status.MAX_ITERS)
    out_x, out_value, out_norm = x.copy(), np.empty(len(x)), np.empty(len(x))
    iters = np.full(len(x), opts.max_iters)
    cells = np.arange(len(x))
    block = (slice(None), free[:, None], free)

    def sup_norm(grad):
        return np.abs(grad[:, free]).max(axis=1, initial=0.0)

    def settle(done, verdict, xs, values):
        rows = cells[done]
        status[rows], out_x[rows], out_value[rows] = verdict, xs[done], values[done]
        out_norm[rows], iters[rows] = norm[done], it

    def step_to(rows, alpha, direction):
        xt[rows] = x[rows] + alpha * direction[rows]
        vt[rows], gt[rows], st[rows] = objective(xt[rows], cells[rows])
        nt[rows] = sup_norm(gt[rows])

    def search(back, direction, slope):
        """Armijo backtrack of rows ``back`` from xt; returns those that stall."""
        alpha = 1.0
        for _ in range(60):
            if not back.size:
                break
            if alpha < 1.0:
                step_to(back, alpha, direction)
            trial, old = vt[back], value[back]
            back = back[~(np.isfinite(trial) & (trial > old)
                          & (trial >= old + 1e-4 * alpha * slope[back]))]
            alpha *= 0.5
        return back

    live = slice(None)  # every cell, until one settles
    value, grad, state = objective(x, live)
    norm = sup_norm(grad)
    for it in range(1, opts.max_iters + 1):
        capped = value > OBJECTIVE_CAP
        done = capped | (norm <= opts.gradient_tol)
        n_done = np.count_nonzero(done)
        if n_done:
            settle(done, np.where(capped, _Status.INFINITE, _Status.CONVERGED)[done],
                   x, np.where(capped, math.inf, value))
        if n_done == len(cells):  # every cell settled, or none left
            break
        if n_done:
            cells, x, value, grad, state, norm = (
                a[~done] for a in (cells, x, value, grad, state, norm))
            live = cells
        g = grad[:, free]
        A = hessian(state)[block]
        try:
            step = np.linalg.solve(A, g[..., None])[..., 0]
        except np.linalg.LinAlgError:  # some cell is singular: NaN there
            step = np.full(g.shape, np.nan)
            for k in range(len(g)):
                with contextlib.suppress(np.linalg.LinAlgError):
                    step[k] = np.linalg.solve(A[k], g[k])
        # a singular or non-finite step has a non-finite slope
        slope = (g * step).sum(axis=1)
        fallback = ~((slope > 0.0) & (slope < math.inf))
        if np.count_nonzero(fallback):
            step[fallback], slope[fallback] = g[fallback], (g[fallback] ** 2).sum(axis=1)
        direction = np.zeros(x.shape)
        direction[:, free] = step
        xt = x + direction
        vt, gt, st = objective(xt, live)
        nt = sup_norm(gt)
        stalled = search((~(nt <= 0.5 * norm)).nonzero()[0], direction, slope)
        if stalled.size:  # one retry along the gradient
            direction[np.ix_(stalled, free)] = g[stalled]
            slope[stalled] = (g[stalled] ** 2).sum(axis=1)
            step_to(stalled, 1.0, direction)
            stalled = search(stalled[~(nt[stalled] <= 0.5 * norm[stalled])],
                             direction, slope)
        keep = np.abs(xt).max(axis=1) <= DIVERGENCE_NORM
        keep[stalled] = True
        if stalled.size or np.count_nonzero(~keep):
            moved = np.ones(len(cells), dtype=bool)
            moved[stalled] = False
            settle(~moved, _Status.STALLED, x, value)
            diverged = ~keep
            improving = vt - value > IMPROVEMENT_TOL
            settle(diverged, np.where(improving, _Status.INFINITE, _Status.BOUNDARY)[diverged],
                   xt, np.where(improving, math.inf, vt))
            keep &= moved
            cells, xt, vt, gt, st, nt = (a[keep] for a in (cells, xt, vt, gt, st, nt))
            live = cells
        x, value, grad, state, norm = xt, vt, gt, st, nt
    else:
        out_x[cells], out_value[cells], out_norm[cells] = x, value, norm
    return status, out_x, out_value, iters, out_norm


def _settled(status, opts):
    """Raise NumericalFailure unless ``_newton_ascent`` settled the cell."""
    if status == _Status.STALLED:
        raise NumericalFailure(
            "line search stalled before reaching the gradient tolerance")
    if status == _Status.MAX_ITERS:
        raise NumericalFailure(
            f"no convergence or divergence evidence within {opts.max_iters} iterations")


def _solve_one(objective, hessian, x, free, opts):
    """``_newton_ascent`` on a batch of one; fails unless it settles."""
    status, x, value, iters, norm = (
        a[0] for a in _newton_ascent(objective, hessian, x[None], free, opts))
    _settled(status, opts)
    return status, x, float(value), int(iters), float(norm)


def _lagrangian_objective(flux, us, base):
    """<f,u> - <Hf,mu> over cells (mu_k, u_k) for ``_newton_ascent``, from
    the untilted fluxes mu_x r_xy and their totals: the gradient is
    u - rho(mu, f), minus the Hessian the graph Laplacian of the symmetrized
    tilted flux."""
    diag = np.arange(flux.shape[1])

    def objective(f, rows):
        M = _tilted_rates(flux[rows], f)
        u = us[rows]
        grad = u - (M.sum(axis=1) - M.sum(axis=2))
        value = (f * u).sum(axis=1) - (M.sum(axis=(1, 2)) - base[rows])
        return value, grad, M

    def hessian(M):
        S = M + M.transpose(0, 2, 1)
        lap = -S
        lap[:, diag, diag] += S.sum(axis=2)
        return lap

    return objective, hessian


def _lagrangian_cells(gen, mus, us, opts, initial=None):
    """L(mu_k, u_k) on a stack of cells, from f = 0 or the warm starts
    ``initial`` (one row per cell).

    Mass moves only along channels carrying flux, mu_x r_xy > 0, whose
    support does not depend on the tilt. A cell is +infinity when an empty
    state must lose mass, or when a connected component of that graph has
    speed entries that do not balance: along such directions the objective
    is exactly linear (singular Hessian), so they are screened out rather
    than iterated on. The lowest state of each component is pinned, since
    the objective is invariant under per-component shifts; a warm start is
    shifted so that each pin reads 0. Cells with the same live channels
    share components and pins, and go through one ``_newton_ascent``; a
    warm-started cell that does not converge is solved again from f = 0.

    Returns per-cell status, maximizer, value, iterations and gradient norm
    as ``_newton_ascent`` does (a screened cell is INFINITE at 0
    iterations), and the (K, n) mask of pinned states.
    """
    K, n = mus.shape
    flux = mus[:, :, None] * gen.off_diagonal
    base = mus @ gen.exit_rates
    live = flux > 0.0
    keys = live.reshape(K, -1).view(f"V{n * n}")[:, 0]  # each cell's pattern as bytes
    x = np.zeros((K, n)) if initial is None else np.array(initial, dtype=float)
    status, iters = np.full(K, _Status.INFINITE), np.zeros(K, dtype=int)
    value, norm = np.full(K, math.inf), np.full(K, math.inf)
    pinned = np.empty((K, n), dtype=bool)
    # an empty state has no outflux at any tilt, so it can only gain
    drains = (mus == 0.0) & (us < -STRUCTURAL_TOL)
    rest = np.arange(K)
    while rest.size:
        same = keys[rest] == keys[rest[0]]
        group, rest = rest[same], rest[~same]
        reach = live[group[0]] | live[group[0]].T | np.eye(n, dtype=bool)
        for _ in range((n - 2).bit_length()):  # closure: paths of n - 1 jumps
            reach = reach @ reach
        root = reach.argmax(axis=1)  # the lowest state of each component
        pins = root == np.arange(n)
        pinned[group] = pins
        # relative to the entries summed, which round off at their own scale
        unbalanced = (np.abs(us[group] @ reach)
                      > STRUCTURAL_TOL * np.maximum(1.0, np.abs(us[group]) @ reach))
        cells = group[~(drains[group] | unbalanced).any(axis=1)]
        todo, start = cells, x[cells] - x[cells][:, root]
        while todo.size:  # a warm start that does not converge starts over at 0
            objective, hessian = _lagrangian_objective(flux[todo], us[todo], base[todo])
            status[todo], x[todo], value[todo], iters[todo], norm[todo] = \
                _newton_ascent(objective, hessian, start, np.flatnonzero(~pins), opts)
            todo = todo[(status[todo] != _Status.CONVERGED) & start.any(axis=1)]
            start = np.zeros((todo.size, n))
    return status, x, value, iters, norm, pinned


def lagrangian_value(gen: Generator, mu: Measure, u,
                     opts: SolverOptions | None = None,
                     initial: np.ndarray | None = None) -> LagrangianResult:
    """Evaluate L(mu, u) = sup_f { <f, u> - <Hf, mu> }.

    Parameters
    ----------
    u : Speed or array_like
        Target speed; raw arrays are validated (must sum to zero).
    opts : SolverOptions, optional
    initial : ndarray, optional
        Warm start for the maximizer.

    Raises
    ------
    InfeasibleSpeed
        if the entries of u do not sum to zero.
    NumericalFailure
        if the line search stalls, along the Newton step and then along the
        gradient, before the gradient tolerance is met, or if the iteration
        cap is hit without convergence or divergence evidence.
    """
    opts = opts or DEFAULT_OPTIONS
    if not isinstance(u, Speed):
        u = Speed(gen.space, np.asarray(u, dtype=float))
    p, u = mu.p, u.u
    status, f, value, iters, gnorm, pinned = (a[0] for a in _lagrangian_cells(
        gen, p[None], u[None], opts, None if initial is None else [initial]))
    if status == _Status.INFINITE and iters == 0:  # screened out
        return LagrangianResult(math.inf, None, 0, math.inf)
    _settled(status, opts)
    base_flux = p[:, None] * gen.off_diagonal
    idle = (p == 0.0) & (base_flux.sum(axis=0) <= 0.0)
    undetermined = tuple(np.flatnonzero(idle).tolist())

    value = max(float(value), 0.0) if math.isfinite(value) else float(value)
    attained = status == _Status.CONVERGED
    if attained:
        # A converged solve is attained exactly when the next Newton step
        # vanishes, as it does at an interior maximizer; on a channel that
        # shuts only in the limit it stays near -1, at any flux scale: a
        # small flux meets the gradient tolerance early.
        objective, hessian = _lagrangian_objective(
            base_flux[None], u[None], p[None] @ gen.exit_rates)
        _, grad, M = objective(f[None], slice(None))
        free = np.flatnonzero(~pinned)
        try:
            step = np.linalg.solve(hessian(M)[0][free[:, None], free], grad[0, free])
        except np.linalg.LinAlgError:
            step = np.full(free.size, np.nan)
        attained = not (np.abs(step).max(initial=0.0) > 0.5
                        and np.isfinite(step).all())
    maximizer = Potential(gen.space, f) if attained else None
    return LagrangianResult(value, maximizer, int(iters), float(gnorm), undetermined)


def dual_check(gen: Generator, mu: Measure, f: Potential,
               opts: SolverOptions | None = None) -> float:
    """Residual of the duality identity <Hf,mu> = <f,rho(mu,f)> - L(mu,rho(mu,f)).

    The left side is the closed form; the Lagrangian on the right is
    evaluated by numerical maximization, warm-started at f.
    """
    Hf = _hamiltonian_raw(gen.off_diagonal, gen.exit_rates, f.f)
    lhs = float(Hf @ mu.p)
    rho = speed(gen, mu, f)
    res = lagrangian_value(gen, mu, rho, opts=opts, initial=f.f)
    rhs = float(f.f @ rho.u) - res.value
    return abs(lhs - rhs)
