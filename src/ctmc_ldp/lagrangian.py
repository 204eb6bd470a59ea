"""The Lagrangian as a concave maximization, and Hamiltonian duality.

The cost of moving a law mu with instantaneous speed u is

    L(mu, u) = sup_f { <f, u> - <Hf, mu> },

concave in f with gradient u - rho(mu, f) (rho the speed of the f-tilted
dynamics) and minus Hessian the graph Laplacian of the symmetrized tilted
flux; shifting f by a constant on a component of the live flux channels
changes nothing, so each component's lowest state is pinned at 0.

Every supremum of the package, conditional rates on their coupling graphs
included (see ``rates``), is a cell of one evaluator, ``_lagrangian_cells``.
It decides whether each is finite and attained, flow questions with exact
answers (L is the cheapest current realizing u along the live channels,
attained when some current uses every one-way channel; one no current can
use shuts only as f -> -infinity and costs its flux), settles forests in
closed form, and batches the rest through one damped Newton core. Its steps
are one stacked solve: LAPACK, or elimination for a large or singular stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSpeed, MalformedModel, NumericalFailure
from .hamiltonian import _tilted_rates, tilted_generator
from .markov import (
    Generator, Measure, Potential, StateSpace, _admit, _on, _positive, _reachable,
    _transport)

SPEED_SUM_TOL = 1e-10

STEP_CAP = 10.0              # largest move of one coordinate in one Newton step
MAX_ITERS = 200              # Newton iterations before a cell is left unsettled
# Newton stacks of at least this many cells are solved by ``_eliminate``,
# smaller ones by one stacked LAPACK call. Timed on pinned Laplacian minors
# (timeit, best of 45 x 100 calls, one BLAS thread, Xeon), LAPACK against
# elimination: one cell 7 against 21 us at m = 2 and 7 against 43 at m = 4;
# 1,000 cells 158 against 29 us at m = 2 and 288 against 92 at m = 4; even
# near 40 cells at m = 1, 90 at m = 2, 120 at m = 3 and 150 at m = 4.
ELIMINATION_CELLS = 128
STRUCTURAL_TOL = 1e-12       # zero threshold for structural feasibility checks


@dataclass(frozen=True)
class Speed:
    """A signed mass flux per unit time; entries sum to zero."""

    space: StateSpace
    u: np.ndarray

    def __post_init__(self):
        u = _admit(self.u, "speed vector", (self.space.size,))
        # relative to the entries summed, which round off at their own scale
        if abs(u.sum()) > SPEED_SUM_TOL * max(1.0, np.abs(u).sum()):
            raise InfeasibleSpeed(f"speed entries sum to {u.sum()!r}, not 0")
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class SolverOptions:
    """The gradient tolerance of the concave maximizations, positive and
    finite; each stops within MAX_ITERS Newton iterations."""

    gradient_tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "gradient_tol",
                           _positive(self.gradient_tol, "gradient tolerance"))


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
    _on(gen.space, mu)
    return Speed(gen.space, tilted_generator(gen, g).Q.T @ mu.p)


class _Status:
    """Per-cell verdicts: ``_newton_ascent`` settles CONVERGED, STALLED (no
    step gains along the Newton step or the gradient) or MAX_ITERS; INFINITE
    and BOUNDARY (attained only in a limit) are decided before Newton.
    INFINITE and then the two that leave a cell unsettled come last."""

    CONVERGED, BOUNDARY, INFINITE, STALLED, MAX_ITERS = range(5)


def _eliminate(A, g):
    """Solve A x = g for every cell of an (m, m, b) stack, each symmetric
    positive definite (a pinned graph Laplacian), by Gaussian elimination
    without pivoting, one pass per row over all the cells; A is
    overwritten. A zero pivot, silently, leaves NaN in that cell's x, as a
    singular cell of the stacked LAPACK solve does."""
    x = g.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(len(x) - 1):
            factor = A[k + 1:, k] / A[k, k]
            A[k + 1:, k + 1:] -= factor[:, None] * A[k, k + 1:]
            x[k + 1:] -= factor * x[k]
        for k in range(len(x) - 1, -1, -1):
            x[k] = (x[k] - (A[k, k + 1:] * x[k + 1:]).sum(axis=0)) / A[k, k]
    x[:, ~np.isfinite(x).all(axis=0)] = np.nan
    return x


def _newton_ascent(objective, hessian, x, free, tol):
    """Damped Newton ascent of a batch of concave maximizations, each finite
    and attained, the cells on the last axis of every array (C-contiguous,
    so NumPy loops over cells, not states; ``take`` and ``compress`` keep it).

    ``objective(x, rows)`` gives the values, gradients and a state of batch
    cells ``rows`` (indices, or None for all) at iterates x (m, b), and
    ``hessian(state)`` minus the (m, m, b) Hessians, solved by
    ``_eliminate`` for ELIMINATION_CELLS cells or more, else as one LAPACK
    stack on a (b, m, m) view, or by ``_eliminate`` when a cell there is
    singular. Only the ``free`` coordinates move. Per cell, for at most
    MAX_ITERS iterations: its gradient tolerance ``tol`` (b,), compressed
    with the cell; the Newton step (the gradient if it is singular,
    non-finite or no ascent), scaled to move no coordinate by more than
    STEP_CAP, taken whole when it halves the gradient sup-norm, which keeps
    converging below the noise floor of the objective, and does not lower
    the value by more than rounding, else backtracked by Armijo halvings;
    one retry along the gradient on a stall.

    Returns per-cell arrays: status, x, value, iterations, gradient norm.
    """
    cells = np.arange(x.shape[1])
    status = np.full(cells.size, _Status.MAX_ITERS)
    out_x, out_value, out_norm = x.copy(), np.empty(cells.size), np.empty(cells.size)
    iters = np.full(cells.size, MAX_ITERS)
    block = (free[:, None], free)

    def sup_norm(grad):
        return np.abs(grad[free]).max(axis=0, initial=0.0)

    def settle(done, verdict, xs, values):
        rows = cells.compress(done)
        status[rows], iters[rows], out_value[rows] = verdict, it, values.compress(done)
        out_x[:, rows], out_norm[rows] = xs.compress(done, axis=1), norm.compress(done)

    def capped(step, slope):  # scaled to move no coordinate past STEP_CAP
        scale = STEP_CAP / np.abs(step).max(axis=0, initial=STEP_CAP)
        return step * scale, slope * scale

    def step_to(rows, alpha, direction):
        trial = x.take(rows, axis=1) + alpha * direction.take(rows, axis=1)
        xt[:, rows] = trial
        vt[rows], gt[:, rows], st[..., rows] = objective(trial, cells[rows])
        nt[rows] = sup_norm(gt.take(rows, axis=1))

    def to_backtrack():  # full steps short of half the sup-norm or the value floor, or NaN
        return ~((nt <= half) & (vt >= floor))

    def search(back, direction, slope):
        """Armijo backtrack of rows ``back`` from xt; returns those that stall."""
        alpha = 1.0
        for _ in range(60):
            if not back.size:
                break
            if alpha < 1.0:
                step_to(back, alpha, direction)
            trial, old = vt[back], value[back]
            back = back.compress(~(np.isfinite(trial) & (trial > old)
                                   & (trial >= old + 1e-4 * alpha * slope[back])))
            alpha *= 0.5
        return back

    live = None  # every cell, until one settles
    value, grad, state = objective(x, live)
    norm = sup_norm(grad)
    for it in range(1, MAX_ITERS + 1):
        done = norm <= tol
        n_done = np.count_nonzero(done)
        if n_done == len(cells) and live is None:  # the whole batch at once: no copies
            status[:], iters[:] = _Status.CONVERGED, it
            return status, x if it > 1 else out_x, value, iters, norm
        if n_done:
            settle(done, _Status.CONVERGED, x, value)
        if n_done == len(cells):  # every cell settled, or none left
            break
        if n_done:
            cells, x, value, grad, state, norm, tol = (a.compress(~done, axis=-1) for a in (
                cells, x, value, grad, state, norm, tol))
            live = cells
        g = grad[free]
        A = hessian(state)[block]
        if len(cells) >= ELIMINATION_CELLS:
            step = _eliminate(A, g)
        else:
            try:
                step = np.linalg.solve(A.transpose(2, 0, 1), g.T[..., None])[..., 0].T
            except np.linalg.LinAlgError:  # some cell is singular: NaN there
                step = _eliminate(A, g)
        # a singular or non-finite step has a non-finite slope
        slope = (g * step).sum(axis=0)
        ascent = (slope > 0.0) & (slope < math.inf)
        if np.count_nonzero(ascent) < len(cells):
            step, slope = np.where(ascent, step, g), np.where(
                ascent, slope, (g ** 2).sum(axis=0))
        direction = np.zeros(x.shape)
        direction[free], slope = capped(step, slope)
        xt = x + direction
        half, floor = 0.5 * norm, value - 1e-12 * (1.0 + np.abs(value))
        vt, gt, st = objective(xt, live)
        nt = sup_norm(gt)
        stalled = search(to_backtrack().nonzero()[0], direction, slope)
        if stalled.size:  # one retry along the gradient
            direction[np.ix_(free, stalled)], slope[stalled] = capped(
                g.take(stalled, axis=1), (g.take(stalled, axis=1) ** 2).sum(axis=0))
            step_to(stalled, 1.0, direction)
            stalled = search(stalled.compress(to_backtrack()[stalled]), direction, slope)
        if stalled.size:
            moved = np.ones(len(cells), dtype=bool)
            moved[stalled] = False
            settle(~moved, _Status.STALLED, x, value)
            cells, xt, vt, gt, st, nt, tol = (
                a.compress(moved, axis=-1) for a in (cells, xt, vt, gt, st, nt, tol))
            live = cells
        x, value, grad, state, norm = xt, vt, gt, st, nt
    else:
        out_x[:, cells], out_value[cells], out_norm[cells] = x, value, norm
    return status, out_x, out_value, iters, out_norm


def _settled(status):
    """Raise NumericalFailure unless ``_newton_ascent`` settled the cell."""
    if status == _Status.STALLED:
        raise NumericalFailure(
            "line search stalled before reaching the gradient tolerance")
    if status == _Status.MAX_ITERS:
        raise NumericalFailure(f"no convergence within {MAX_ITERS} iterations")


def _lagrangian_objective(flux, us, base):
    """<f,u> - <Hf,mu> over cells (mu_k, u_k) for ``_newton_ascent``, from
    the untilted fluxes mu_x r_xy (n, n, b), speeds (n, b) and totals (b,),
    the cells on the last axis: the gradient is u - rho(mu, f), minus the
    Hessian the graph Laplacian of the symmetrized tilted flux."""
    n = len(flux)

    def objective(f, rows):
        a, u, b = (v if rows is None else v.take(rows, axis=-1) for v in (flux, us, base))
        M = _tilted_rates(a, f)
        inflow = M.sum(axis=0)
        grad = u - (inflow - M.sum(axis=1))
        value = (f * u).sum(axis=0) - (inflow.sum(axis=0) - b)
        return value, grad, M

    def hessian(M):
        S = M + M.transpose(1, 0, 2)
        lap = -S
        lap.reshape(n * n, -1)[::n + 1] += S.sum(axis=1)  # the diagonal, as a view
        return lap

    return objective, hessian


class _Pattern:
    """What depends on the live channels alone (n x n, as bytes), built
    once per pattern by ``_pattern``: component sums (``reach``), pins
    (``root``, ``free``) and undirected edges; a forest's edge currents
    per free speed entry (``currents``); or the channels off every cycle
    (``between``) and the components and signs ``_idle_channels`` uses."""

    def __init__(self, n, key):
        live = np.frombuffer(key, dtype=bool).reshape(n, n)
        reach = _reachable(live | live.T)
        self.reach, self.root = reach.astype(float), reach.argmax(axis=1)
        self.free = np.flatnonzero(self.root != np.arange(n))
        self.tail, self.head = np.nonzero(live & ~np.tril(live.T, -1))
        self.currents = self.between = self.signs = None
        ahead = _reachable(live)
        between = live & ~ahead.T
        if self.tail.size == self.free.size:  # a forest: one edge per free state
            states = np.arange(n)[:, None]
            incidence = (states == self.head) - (states == self.tail).astype(float)
            self.currents = np.linalg.inv(incidence[self.free]).T
        elif between.any():
            self.between, (heads, self.comp) = between, np.unique(
                (ahead & ahead.T).argmax(axis=1), return_inverse=True)
            self.members = (self.comp[:, None] == np.arange(heads.size)).astype(float)
            self.ahead = ahead[np.ix_(heads, heads)]
            # each channel from a source to a sink, every source reaching
            # every sink: the signs of the component sums decide
            crossing = self.members.T @ between @ self.members > 0.0
            sends, gets = crossing.any(axis=1), crossing.any(axis=0)
            if not (sends & gets).any() and self.ahead[np.ix_(sends, gets)].all():
                self.signs = gets - sends.astype(float)
        for array in filter(lambda a: isinstance(a, np.ndarray), vars(self).values()):
            array.setflags(write=False)  # shared by every cell of the pattern


_pattern = functools.lru_cache(maxsize=1024)(_Pattern)


def _forest_cells(flux, us, base, shape, zero, slack):
    """L plus offset in closed form on cells whose live channels form a
    forest, with ``base`` the flux plus offset; each edge runs along a live
    channel, a = mu_x r_xy > 0, b = mu_y r_yx. Balance on the free rows
    fixes each edge's current j, and L splits into one-edge costs
    sup_d { j d - a(e^d - 1) - b(e^-d - 1) } (Bertini, Faggionato and
    Gabrielli): e^d solves a z^2 - j z - b = 0, and a z + b/z =
    sqrt(j^2 + 4ab). A one-way edge without current (within ``zero``)
    shuts, costing a only as d -> -infinity; the maximizer is then the
    other edges' (d = 0 on it). Against its channel a current costs
    +infinity, or within ``slack`` makes the edge unusable. Returns
    per-cell status, maximizer, value, and the shut and unusable edges.
    """
    j = shape.currents.T @ us[shape.free]
    a, b = flux[shape.tail, shape.head], flux[shape.head, shape.tail]
    root = np.sqrt(j * j + 4.0 * a * b)
    w = np.abs(j) + root  # cancellation-free for either sign of j
    size = np.maximum(1.0, np.abs(us).sum(axis=0))
    shut = (b == 0.0) & (np.abs(j) <= zero * size)
    back = (b == 0.0) & (j < -zero * size) & (j >= -(slack or 0.0) * size)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(j >= 0.0, np.log(w / (2.0 * a)), np.log(2.0 * b / w))
        value = np.where(shut, 0.0, j * d - root).sum(axis=0) + base
    finite = np.isfinite(value)
    status = np.where(finite, np.where(shut.any(axis=0), _Status.BOUNDARY,
                                       _Status.CONVERGED), _Status.INFINITE)
    f = np.zeros(us.shape)
    f[np.ix_(shape.free, finite)] = shape.currents @ np.where(shut, 0.0, d).compress(
        finite, axis=1)
    return status, f, value, shut, back


def _idle_channels(us, shape, zero, slack):
    """Whether a current realizes each cell's speed u along the live
    channels, and which ``between`` channels none uses: a transport between
    strongly connected components of u's sums over each (relative to
    max(1, sum |u|), 0 within ``zero``), which ``_transport`` decides
    unless every sender reaches every receiver, leaving unrouted ``slack``
    or one ``zero`` per zeroed sum and per undirected component."""
    net = shape.members.T @ us
    net /= np.maximum(1.0, np.abs(us).sum(axis=0))
    net[np.abs(net) <= zero] = 0.0
    if shape.signs is not None and (np.sign(net) == shape.signs[:, None]).all():
        return np.ones(us.shape[1], bool), np.zeros(us.shape[:1] + us.shape, bool)
    reach = shape.ahead
    usable = (net < 0.0)[:, None] & (net > 0.0)[None]
    feasible = np.ones(us.shape[1], dtype=bool)
    for c in np.flatnonzero((usable & ~reach[..., None]).any(axis=(0, 1))):
        feasible[c], usable[..., c] = _transport(np.maximum(-net[:, c], 0.0), np.maximum(
            net[:, c], 0.0), reach, slack or 2 * len(reach) * zero)
    # a channel is used when a sender reaches it and it reaches a receiver
    # that sender can use
    used = np.einsum("ba,bcz,dc->adz", reach, usable, reach)
    return feasible, shape.between[..., None] & ~used[shape.comp[:, None], shape.comp]


def _lagrangian_cells(flux, us, offset, opts, initial=None, zero=STRUCTURAL_TOL,
                      slack=None):
    """sup_f { <f, u_k> - sum_xy a_xy (e^{f_y - f_x} - 1) } + offset_k on a
    stack of flux graphs a_k (n, n, K), speeds and warm starts ``initial``
    (n, K), if given, and offsets, from f = 0 or the warm starts: L(mu, u)
    for the flux mu_x r_xy and offset 0. The cells are on the last axis of
    every array, as in ``_newton_ascent``, and no input is written to.

    Cells with the same live channels (a_xy > 0) are grouped. A component
    whose speed entries do not balance, to what ``Speed`` accepts, is
    +infinity; where a channel lies on no directed cycle ``_idle_channels``
    decides, and a channel no current uses is dropped, the cell grouped
    again and reported unattained. Warm starts are shifted so that each
    component's pin reads 0. Forests go to ``_forest_cells``, other groups
    through one ``_newton_ascent``, each cell stopping at opts.gradient_tol
    (DEFAULT_OPTIONS's if opts is None) or its gradient's rounding floor
    8 eps sum|u|; a warm start that does not converge is solved again from 0. Relative to max(1, sum|u|), sums
    and currents within ``zero``, and mass left unrouted within ``slack``,
    if given, are rounding. A group of every cell in order is not copied.
    Returns per-cell status, maximizers (n, K), value, iterations and
    gradient norm as ``_newton_ascent`` does (0 iterations for a screened
    or forest cell), and the live channels less those shut (n, n, K).
    """
    n, K = us.shape
    given = flux  # the caller's stack, until a drop replaces flux by a copy
    us = us - us.sum(axis=0) / n  # mass conserved despite rounding
    scale = np.abs(us).sum(axis=0)
    balance_tol = SPEED_SUM_TOL * np.maximum(1.0, scale)  # spread over every state
    gradient_tol = np.maximum((opts or DEFAULT_OPTIONS).gradient_tol,
                              8 * np.finfo(float).eps * scale)
    base = flux.sum(axis=(0, 1)) + offset
    live = flux > 0.0
    x = np.zeros((n, K)) if initial is None else np.array(initial, dtype=float)
    status, iters = np.full(K, _Status.INFINITE), np.zeros(K, dtype=int)
    value, norm = np.full((2, K), math.inf)
    shut, rest = np.zeros(K), np.arange(K)  # shut: flux of the dropped channels

    def index(cells):  # every cell in order (no drop yet): a slice, no copies
        return slice(None) if cells.size == K and flux is given else cells

    def pick(a, at):
        return a if isinstance(at, slice) else a.take(at, axis=-1)

    def drop(out):  # cells ``out`` lost live channels: shut them, group again
        nonlocal rest, flux
        shut[out] += (flux.take(out, axis=-1) * ~live.take(out, axis=-1)).sum(axis=(0, 1))
        flux, rest = flux * live, np.append(rest, out)  # a copy: the caller's is kept

    while rest.size:
        patterns = pick(live, index(rest)).reshape(n * n, -1)  # one column per cell
        same = (patterns == patterns[:, :1]).all(axis=0)
        group, rest = rest.compress(same), rest.compress(~same)
        shape = _pattern(n, patterns[:, 0].tobytes())
        at = index(group)
        balanced = np.abs(shape.reach @ pick(us, at)) <= pick(balance_tol, at)
        cells = group.compress(balanced.all(axis=0))
        at = index(cells)
        if shape.currents is not None:  # a forest: no ascent
            status[at], x[:, at], value[at], edges, back = _forest_cells(
                pick(flux, at), pick(us, at), pick(base - shut, at), shape, zero, slack)
            norm[cells.compress(np.isfinite(value[at]))] = 0.0
            live[shape.tail[:, None], shape.head[:, None], cells] &= ~(edges | back)
            if back.any():  # solved again without the unusable edges
                drop(cells.compress(back.any(axis=0)))
            continue
        if shape.between is not None and cells.size:
            feasible, idle = _idle_channels(pick(us, at), shape, zero, slack)
            reduced = feasible & idle.any(axis=(0, 1))
            live[..., at] &= ~idle
            if reduced.any():
                drop(cells.compress(reduced))
            cells = cells.compress(feasible & ~reduced)
        todo, start = cells, pick(x - x[shape.root], index(cells))
        while todo.size:  # a warm start that does not converge starts over at 0
            at = index(todo)
            objective, hessian = _lagrangian_objective(
                *(pick(a, at) for a in (flux, us, base - shut)))
            status[at], x[:, at], value[at], iters[at], norm[at] = _newton_ascent(
                objective, hessian, start, shape.free, pick(gradient_tol, at))
            todo = todo.compress((status[at] != _Status.CONVERGED) & start.any(axis=0))
            start = np.zeros((n, todo.size))
    if flux is not given:  # channels were dropped
        status[(shut > 0.0) & (status == _Status.CONVERGED)] = _Status.BOUNDARY
        value += shut
    return status, x, value, iters, norm, live


def lagrangian_value(gen: Generator, mu: Measure, u) -> LagrangianResult:
    """Evaluate L(mu, u) = sup_f { <f, u> - <Hf, mu> } for a Speed or a raw
    array u (validated), from f = 0.

    Raises
    ------
    InfeasibleSpeed
        if the entries of u do not sum to zero.
    NumericalFailure
        if the line search stalls, along the Newton step and then along the
        gradient, before the gradient tolerance is met, or if the iteration
        cap is hit without convergence.
    """
    if not isinstance(u, Speed):
        u = Speed(gen.space, u)
    _on(gen.space, mu, u)
    flux = mu.p[:, None] * gen.off_diagonal
    unfed = (mu.p == 0.0) & (flux.sum(axis=0) <= 0.0)
    status, f, value, iters, gnorm, _ = (a[..., 0] for a in _lagrangian_cells(
        flux[..., None], u.u[:, None], 0.0, None))
    if status == _Status.INFINITE:
        return LagrangianResult(math.inf, None, 0, math.inf)
    _settled(status)
    maximizer = Potential(gen.space, f) if status == _Status.CONVERGED else None
    return LagrangianResult(max(float(value), 0.0), maximizer, int(iters), float(gnorm),
                            tuple(np.flatnonzero(unfed).tolist()))


def dual_check(gen: Generator, mu: Measure, f: Potential) -> float:
    """Residual of the duality identity <Hf,mu> = <f,rho(mu,f)> - L(mu,rho(mu,f)):
    the one-row case of ``_dual_residuals``."""
    _on(gen.space, mu, f)
    return float(_dual_residuals(gen, mu.p[None], f.f[None])[0])


def _dual_residuals(gen: Generator, mus, fs) -> np.ndarray:
    """The duality residual of each row of (b, n) laws and potentials: the
    left side in closed form, the Lagrangians as cells of one evaluator
    call, warm-started at f; NumericalFailure if one does not settle."""
    mus, fs = (np.ascontiguousarray(a.T) for a in (mus, fs))  # (n, b), cells last
    M = _tilted_rates(gen.off_diagonal[..., None], fs)
    out = M.sum(axis=1)
    rho = (mus[:, None] * M).sum(axis=0) - mus * out
    status, _, value, _, _, _ = _lagrangian_cells(
        mus[:, None] * gen.off_diagonal[..., None], rho, 0.0, None, fs)
    for verdict in status:
        _settled(verdict)
    lhs = ((out - gen.exit_rates[:, None]) * mus).sum(axis=0)
    return np.abs(lhs - (fs * rho).sum(axis=0) + np.maximum(value, 0.0))
