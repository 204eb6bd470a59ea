"""The Lagrangian as a concave maximization, and Hamiltonian duality.

The cost of moving a law mu with instantaneous speed u is

    L(mu, u) = sup_f { <f, u> - <Hf, mu> },

a Legendre transform over potentials. The objective is concave with an
explicit gradient u - rho(mu, f), where rho(mu, f) is the forward speed of
the f-tilted dynamics, and an explicit Hessian given by the weighted graph
Laplacian of the symmetrized tilted flux. A damped Newton iteration with a
gradient-ascent fallback maximizes it over the gauge-fixed subspace
f(x0) = 0; constant shifts of f never change the objective.

Suprema need not be attained: holding mass on a state whose only exit
channel must be shut down drives components of f to -infinity while the
objective converges. Such results carry a finite value and no maximizer.
Genuinely infeasible speeds (mass created from nothing, or more cost than
any tilt can explain) are reported as +infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSpeed, MalformedModel, NumericalFailure
from .hamiltonian import _hamiltonian_raw, _tilted_rates
from .markov import Generator, Measure, Potential, StateSpace, _frozen

SPEED_SUM_TOL = 1e-10

# Behavioral divergence / boundary-detection constants.
OBJECTIVE_CAP = 1e6          # objective beyond 1/eps counts as +infinity
IMPROVEMENT_TOL = 1e-10      # still-improving threshold for the divergence rule
BOUNDARY_NORM = 15.0         # iterate norm suggesting a limit-only supremum
BOUNDARY_RATIO = 1e-6        # tilt ratio on an active channel treated as shut
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
    divergence_norm: float = 50.0


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


def _ascend_step(value_at, grad_sup_at, f, direction, g_dot_d, value, grad_norm):
    """One damped step of a concave maximization.

    A full Newton step is accepted outright when it contracts the gradient
    sup-norm; this keeps converging below the floating-point noise floor of
    the objective, where an Armijo test cannot measure progress. Otherwise
    a backtracking Armijo search (with strictly positive progress) is used.
    Returns (new_f, new_value) or (None, value) when stalled.
    """
    candidate = f + direction
    if grad_sup_at(candidate) <= 0.5 * grad_norm:
        return candidate, value_at(candidate)
    alpha = 1.0
    for _ in range(60):
        trial = f + alpha * direction
        cand = value_at(trial)
        if np.isfinite(cand) and cand > value and \
                cand >= value + 1e-4 * alpha * g_dot_d:
            return trial, cand
        alpha *= 0.5
    return None, value


class _Status:
    CONVERGED = "converged"
    INFINITE = "infinite"
    BOUNDARY = "boundary"


def _flux_components(adjacency):
    """Connected components of an undirected adjacency matrix."""
    n = adjacency.shape[0]
    label = np.full(n, -1, dtype=int)
    comps = []
    for s in range(n):
        if label[s] >= 0:
            continue
        stack = [s]
        label[s] = len(comps)
        members = [s]
        while stack:
            x = stack.pop()
            for y in np.flatnonzero(adjacency[x]):
                if label[y] < 0:
                    label[y] = label[s]
                    stack.append(y)
                    members.append(y)
        comps.append(members)
    return label, comps


def _maximize_lagrangian(Qoff, exit_rates, mu, u, opts, gauge, initial):
    """Core Newton loop.

    Returns (status, f, value, iterations, gradient_norm, undetermined).
    """
    n = Qoff.shape[0]
    base_flux = mu[:, None] * Qoff           # untilted flux mu_x r_xy
    base = float(mu @ exit_rates)
    influx = base_flux.sum(axis=0)

    for z in range(n):
        # an empty state has no outflux at any tilt, so it can only gain
        if mu[z] == 0.0 and u[z] < -STRUCTURAL_TOL:
            return _Status.INFINITE, None, math.inf, 0, math.inf, ()

    # Mass moves only along channels carrying flux, whose support does not
    # depend on the tilt; a connected component of that graph whose speed
    # entries do not balance is infeasible, and along such directions the
    # objective is exactly linear (singular Hessian), so they must be
    # screened out rather than iterated on. One state per component is
    # pinned: the objective is invariant under per-component shifts.
    label, comps = _flux_components((base_flux + base_flux.T) > 0.0)
    for members in comps:
        if abs(float(u[members].sum())) > STRUCTURAL_TOL:
            return _Status.INFINITE, None, math.inf, 0, math.inf, ()
    pins = {int(label[gauge]): gauge}
    for ci, members in enumerate(comps):
        pins.setdefault(ci, members[0])
    pinned = set(pins.values())
    undetermined = tuple(z for z in range(n)
                         if mu[z] == 0.0 and influx[z] <= 0.0)
    free = np.array([i for i in range(n) if i not in pinned], dtype=int)
    free_block = np.ix_(free, free)

    f = np.zeros(n)
    if initial is not None:
        f = np.asarray(initial, dtype=float) - float(initial[gauge])
        f[[i for i in pinned if i != gauge]] = 0.0

    def flux_at(fv):
        return _tilted_rates(base_flux, fv)

    def value_at(fv):
        return float(fv @ u) - (float(flux_at(fv).sum()) - base)

    def grad_sup_at(fv):
        M = flux_at(fv)
        g = u - (M.sum(axis=0) - M.sum(axis=1))
        return float(np.max(np.abs(g[free]))) if free.size else 0.0

    value = value_at(f)
    grad_norm = math.inf
    for it in range(1, opts.max_iters + 1):
        M = flux_at(f)
        rho = M.sum(axis=0) - M.sum(axis=1)
        grad = u - rho
        grad_norm = float(np.max(np.abs(grad[free]))) if free.size else 0.0

        if value > OBJECTIVE_CAP:
            return _Status.INFINITE, f, math.inf, it, grad_norm, tuple(undetermined)

        S = M + M.T
        lap = np.diag(S.sum(axis=1)) - S
        g = grad[free]
        try:
            step = np.linalg.solve(lap[free_block], g)
        except np.linalg.LinAlgError:
            step = np.full(g.shape, np.nan)
        finite = bool(np.all(np.isfinite(step)))
        if grad_norm <= opts.gradient_tol:
            # The next Newton step vanishes at an interior maximizer, but
            # stays near -1 on a channel that shuts only in the limit, at any
            # flux scale: a small flux meets the tolerance early.
            shut = finite and bool(np.any(np.abs(step) > 0.5))
            return (_Status.BOUNDARY if shut else _Status.CONVERGED,
                    f, value, it, grad_norm, tuple(undetermined))
        if not finite or float(g @ step) <= 0.0:
            # singular Hessian (mass on absorbing or zero-rate states), or
            # no ascent: fall back to gradient ascent
            step = g

        direction = np.zeros(n)
        direction[free] = step
        new_f, new_value = _ascend_step(value_at, grad_sup_at, f, direction,
                                        float(g @ step), value, grad_norm)
        if new_f is None:
            # no ascent possible along Newton direction; try plain gradient
            direction = np.zeros(n)
            direction[free] = g
            new_f, new_value = _ascend_step(value_at, grad_sup_at, f, direction,
                                            float(g @ g), value, grad_norm)
            if new_f is None:
                raise NumericalFailure(
                    "line search stalled before reaching the gradient tolerance")
        improvement = new_value - value
        f = new_f
        value = new_value

        if np.max(np.abs(f)) > opts.divergence_norm:
            if improvement > IMPROVEMENT_TOL:
                return _Status.INFINITE, f, math.inf, it, grad_norm, tuple(undetermined)
            return _Status.BOUNDARY, f, value, it, grad_norm, tuple(undetermined)

    raise NumericalFailure(
        f"no convergence or divergence evidence within {opts.max_iters} iterations")


def _newton_cells(Qoff, exit_rates, mus, us, opts):
    """Cold Newton for L(mu_k, u_k) on a stack of cells at once.

    Only cells that reduce to the plain case of ``_maximize_lagrangian``
    are batched: mu_k > 0 on every state of a generator whose jump graph is
    connected, so one flux component carries all mass, the gauge state 0
    is the only pin, and no state is undetermined. Each batched cell keeps
    that loop's rules: the OBJECTIVE_CAP test, then the gradient tolerance,
    then ``_ascend_step`` on the Newton direction, per cell: the full step
    when it halves the gradient sup-norm, else an Armijo backtrack that
    halves alpha on that cell only. Flux, gradient and graph-Laplacian
    Hessian carry a leading cell axis, and each iteration makes one stacked
    solve.

    Returns the (K,) cell values, NaN for every cell that is not batched or
    leaves the batch (cap hit, no ascent step, singular solve, divergence
    past ``divergence_norm``, iteration cap): those need the per-cell solver.
    """
    K, n = mus.shape
    values = np.full(K, np.nan)
    if len(_flux_components((Qoff + Qoff.T) > 0.0)[1]) > 1:
        return values
    flux0 = mus[:, :, None] * Qoff
    # a balance residual near the per-cell feasibility threshold, or a
    # product underflowing to zero on a live channel, is left to that solver
    batched = np.all(mus > 0.0, axis=1) \
        & (np.abs(us.sum(axis=1)) <= 0.5 * STRUCTURAL_TOL) \
        & np.all((flux0 > 0.0) == (Qoff > 0.0), axis=(1, 2))
    cells = np.flatnonzero(batched)
    if cells.size < K:
        flux0 = flux0[cells]
    u, base = us[cells], mus[cells] @ exit_rates
    f = np.zeros((cells.size, n))
    diag = np.arange(n - 1)

    def state_at(fv, sel=slice(None)):
        """Tilted flux, gradient, its sup-norm and the objective at fv."""
        M = _tilted_rates(flux0[sel], fv)
        grad = u[sel] - (M.sum(axis=1) - M.sum(axis=2))
        value = (fv * u[sel]).sum(axis=1) - (M.sum(axis=(1, 2)) - base[sel])
        return M, grad, np.max(np.abs(grad[:, 1:]), axis=1), value

    M, grad, grad_norm, value = state_at(f)
    live = np.ones(cells.size, dtype=bool)
    for _ in range(opts.max_iters):
        # settle converged cells; capped cells, and cells with no accepted
        # step, leave the batch
        live &= value <= OBJECTIVE_CAP
        done = live & (grad_norm <= opts.gradient_tol)
        values[cells[done]] = value[done]
        live &= ~done
        if not live.any():
            break
        if not live.all():
            cells, u, base, f, grad, grad_norm, value = (
                a[live] for a in (cells, u, base, f, grad, grad_norm, value))
            # one (cells, n, n) array at a time, so no two copies coexist
            flux0 = flux0[live]
            M = M[live]
        # graph-Laplacian Hessian of the symmetrized flux, gauge state
        # dropped; each flux is released before the next one is built
        S = M + M.transpose(0, 2, 1)
        del M
        A = -S[:, 1:, 1:]
        A[:, diag, diag] += S.sum(axis=2)[:, 1:]
        del S
        try:
            step = np.linalg.solve(A, grad[:, 1:, None])[..., 0]
        except np.linalg.LinAlgError:
            break
        del A
        slope = (grad[:, 1:] * step).sum(axis=1)
        f_new = f.copy()
        f_new[:, 1:] += step
        M, grad, new_norm, new_value = state_at(f_new)
        live = np.all(np.isfinite(step), axis=1) & (slope > 0.0)
        back = np.flatnonzero(live & (new_norm > 0.5 * grad_norm))
        for alpha in 0.5 ** np.arange(60):
            if alpha < 1.0:
                f_new[back, 1:] = f[back, 1:] + alpha * step[back]
                M[back], grad[back], new_norm[back], new_value[back] = \
                    state_at(f_new[back], back)
            trial, old = new_value[back], value[back]
            back = back[~(np.isfinite(trial) & (trial > old)
                          & (trial >= old + 1e-4 * alpha * slope[back]))]
            if not back.size:
                break
        live[back] = False
        live &= np.max(np.abs(f_new), axis=1) <= opts.divergence_norm
        f, grad_norm, value = f_new, new_norm, new_value
    return values


def _boundary_flags(base_flux, f):
    """True when the optimum shuts an active channel (supremum in a limit)."""
    if np.max(np.abs(f)) > BOUNDARY_NORM:
        return True
    active = base_flux > 0.0
    if not np.any(active):
        return False
    d = f[None, :] - f[:, None]
    return bool(np.min(np.exp(d)[active]) < BOUNDARY_RATIO)


def lagrangian_value(gen: Generator, mu: Measure, u,
                     opts: SolverOptions | None = None,
                     gauge_state: int = 0,
                     initial: np.ndarray | None = None) -> LagrangianResult:
    """Evaluate L(mu, u) = sup_f { <f, u> - <Hf, mu> }.

    Parameters
    ----------
    u : Speed or array_like
        Target speed; raw arrays are validated (must sum to zero).
    opts : SolverOptions, optional
    gauge_state : int
        State whose potential component is pinned to zero.
    initial : ndarray, optional
        Warm start for the maximizer.

    Raises
    ------
    InfeasibleSpeed
        if the entries of u do not sum to zero.
    NumericalFailure
        if the iteration cap is hit without convergence or divergence
        evidence.
    """
    opts = opts or DEFAULT_OPTIONS
    if not isinstance(u, Speed):
        u = Speed(gen.space, np.asarray(u, dtype=float))
    status, f, value, iters, gnorm, undet = _maximize_lagrangian(
        gen.off_diagonal, gen.exit_rates, mu.p, u.u, opts,
        gen.space.index(gauge_state), initial)

    value = max(value, 0.0) if math.isfinite(value) else value
    if status != _Status.CONVERGED:
        return LagrangianResult(value, None, iters, gnorm, undet)
    base_flux = mu.p[:, None] * gen.off_diagonal
    if _boundary_flags(base_flux, f):
        return LagrangianResult(value, None, iters, gnorm, undet)
    return LagrangianResult(value, Potential(gen.space, f), iters, gnorm, undet)


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
