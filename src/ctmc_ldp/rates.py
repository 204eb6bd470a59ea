"""Conditional and joint rate functions, path action, and partition rates.

The conditional rate I_t(nu | mu) = sup_f { <f, nu> - <V(t)f, mu> } is the
relative entropy of the cheapest coupling of mu and nu under mu_x P_xy,
P = e^{tQ} (Csiszar's I-projection). On a coupling graph of 2n nodes, the
n targets and then the n rows, each started x sends the flux mu_x P_xy to
the support of nu along its live pairs (P_xy > 0); a coupling is a current
of speed (nu, -mu), and I_t is that graph's Lagrangian plus sum mu - sum
flux: a cell of ``lagrangian._lagrangian_cells``, which pins the isolated
nodes, decides +infinity and the pairs no coupling uses (dropped; the rate
is then attained only in a limit). Mass on a state with no live pair is
+infinity however small; from a Dirac law, or to one, the only coupling is
mu x nu, in closed form.

The joint rate at several times is the initial relative entropy plus the
chain of conditional rates between consecutive marginals, as arrays from
one evaluator call, with potentials in closed form from the step maximizers.
The action of a discretized measure path is the cell-by-cell Lagrangian of
within-cell measures and finite-difference speeds, all cells in one
evaluator call; the partition rate is the joint rate of the grid nodes at
a coarse time partition and underestimates the action supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, MalformedModel
from .hamiltonian import _log_matrix_apply
from .lagrangian import (
    SolverOptions,
    _lagrangian_cells,
    _settled,
    _Status,
)
from .markov import (
    MEASURE_SUM_TOL,
    PROBABILITY_SLACK,
    Generator,
    Measure,
    Potential,
    StateSpace,
    _admit,
    _expm_generator,
    _frozen,
    _on,
    _positive,
    _reachable,
    _relative_entropy,
    relative_entropy,
)

DEFAULT_TILT_CAP = 30.0
GRID_NODE_TOL = 1e-9  # relative distance at which a partition time is a grid node
MEASURE_ZERO = 1e-15  # a coupling speed holds law entries: rounding only below this


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid carrying one probability vector per node."""

    space: StateSpace
    t0: float
    t1: float
    measures: np.ndarray

    def __post_init__(self):
        if not -math.inf < self.t0 < self.t1 < math.inf:
            raise MalformedModel("need finite t0 < t1")
        m = _admit(self.measures, "measures", (None, self.space.size))
        if np.any(m < -PROBABILITY_SLACK):
            raise MalformedModel("grid nodes have negative entries")
        if np.max(np.abs(m @ np.ones(m.shape[1]) - 1.0)) > MEASURE_SUM_TOL:
            raise MalformedModel("grid node masses must sum to 1")
        object.__setattr__(self, "measures", _frozen(np.clip(m, 0.0, None)))

    @property
    def K(self) -> int:
        return self.measures.shape[0] - 1

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.K

    @property
    def node_times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.K + 1)

    def measure(self, k: int) -> Measure:
        return Measure(self.space, self.measures[k])


@dataclass(frozen=True)
class Partition:
    """Strictly increasing interior time points of a coarse partition."""

    times: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        if not ts:
            raise MalformedModel("a partition needs at least one time")
        if not all(map(math.isfinite, ts)) or any(b <= a for a, b in zip(ts, ts[1:])):
            raise MalformedModel("partition times must be finite and strictly increasing")
        object.__setattr__(self, "times", ts)


@dataclass(frozen=True)
class ConditionalRateResult:
    """Value and (when attained) maximizer of a conditional rate.
    ``support_levels`` counts the components of kept pairs upstream of each
    support state's own, through dropped pairs."""

    value: float
    maximizer: Potential | None
    support: tuple[int, ...]
    support_potential: np.ndarray | None
    support_levels: np.ndarray | None
    iterations: int
    gradient_norm: float

    @property
    def attained(self) -> bool:
        return self.maximizer is not None

    def tilt_potential(self, space: StateSpace,
                       cap: float = DEFAULT_TILT_CAP) -> Potential:
        """Best available terminal tilt, realizing the limiting tilt to
        within e^{-cap}: the support potential clipped to [-cap, cap], each
        component sunk cap below those feeding it, off-support states at
        -cap, and at least cap below every sunk state."""
        f = np.full(space.size, -cap)
        if self.support_potential is not None:
            g = np.clip(self.support_potential, -cap, cap)
            g = g - self.support_levels * (np.ptp(g) + cap)
            f[:] = min(-cap, g[self.support_levels > 0].min(initial=cap) - cap)
            f[list(self.support)] = g
        return Potential(space, f)


def conditional_rate(gen: Generator, mu: Measure, nu: Measure, t: float,
                     opts: SolverOptions | None = None) -> ConditionalRateResult:
    """I_t(nu | mu): the cost of seeing law nu at time t having started at mu.

    The returned result carries a full-space maximizer only when the
    supremum is attained at a finite potential on every state; when nu has
    zero mass on some state, or a live pair carries mass in no coupling,
    the value is exact but reported as unattained (the optimal tilt
    diverges there).
    """
    t = _positive(t, "time")
    _on(gen.space, mu, nu)
    P = _expm_generator(gen, t)
    value, status, f, levels, iters, gnorm = (
        a[0] for a in _conditional_rates(mu.p[None], nu.p[None], P[None], opts))
    on = nu.p > 0.0
    support = tuple(on.nonzero()[0].tolist())
    pins = (None, None) if status == _Status.INFINITE else (f[on], levels[on])
    attained = len(support) == gen.size and status == _Status.CONVERGED
    return ConditionalRateResult(float(value), Potential(gen.space, f) if attained else None,
                                 support, *pins, int(iters), float(gnorm))


def _conditional_rates(mus, nus, Ps, opts):
    """I(nu_k | mu_k) under the transition matrices P_k for a stack of
    steps, the laws rescaled to sum to one. Stranded mass and product
    couplings mu x nu (formed only if some step is one) are settled here,
    the other steps by the evaluator on the same 2n nodes, as whole stacks
    if that is every step. Returns per-step value, status, maximizer rows
    (pinned on the support), levels, iterations and gradient norm through
    the first +infinite step; NumericalFailure if one before is unsettled."""
    k, n = mus.shape
    mus, nus = (a / a.sum(axis=1, keepdims=True) for a in (mus, nus))
    started, support = mus > 0.0, nus > 0.0
    flux = mus[:, :, None] * Ps * support[:, None, :]
    live = flux > 0.0
    finite = ~(started & ~live.any(axis=2) | support & ~live.any(axis=1)).any(axis=1)
    general = (finite & (started.sum(axis=1) > 1) & (support.sum(axis=1) > 1)).nonzero()[0]
    at = slice(None) if general.size == k else general  # every step: no copies
    status = np.where(finite, _Status.CONVERGED, _Status.INFINITE)
    iters, levels = np.zeros(k, int), np.zeros((k, n), int)
    gnorm = np.where(finite, 0.0, math.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = np.log(nus / (mus[:, None, :] @ Ps)[:, 0])
        value = np.where(finite, 0.0 if np.count_nonzero(finite) == general.size else (
            mus[:, :, None] * nus[:, None, :] * np.log(
                np.where(live, nus[:, None, :] / Ps, 1.0))).sum(axis=(1, 2)), math.inf)
        f = g - g[np.arange(k), support.argmax(axis=1)][:, None]
        if general.size:
            # coupling graphs: n targets, then n rows, started at f and log(P e^f);
            # an off-support target or unstarted row is an isolated zero-speed node, pinned
            a, sent = flux[at], np.where(support, f, 0.0)[at]
            rows = np.log((a @ np.exp(sent)[..., None])[..., 0] / mus[at])
    if general.size:
        cells = np.zeros((2 * n, 2 * n, general.size))  # cells last
        cells[n:, :n] = a.transpose(1, 2, 0)
        us = np.concatenate((nus[at], -mus[at]), axis=1).T
        start = np.concatenate((sent, np.where(np.isfinite(rows), rows, 0.0)), axis=1).T
        status[at], x, value[at], iters[at], gnorm[at], kept = _lagrangian_cells(
            cells, us, 1.0 - a.sum(axis=(1, 2)), opts, start, MEASURE_ZERO, MEASURE_SUM_TOL)
        f[at] = x[:n].T
        for j in (status[at] == _Status.BOUNDARY).nonzero()[0]:
            # a dropped pair shuts as its target's component sinks below its
            # row's: pin each kept component, count the components upstream
            i, pairs = general[j], kept[..., j]
            root = _reachable(pairs | pairs.T).argmax(axis=1)[:n]
            f[i] -= x[root, j]
            ahead = _reachable(pairs[n:, :n].T @ live[i])
            levels[i] = ahead[root == np.arange(n)].sum(axis=0) - 1
    out = np.maximum(value, 0.0), status, f, levels, iters, gnorm
    stop = (status >= _Status.INFINITE).nonzero()[0]
    if stop.size:  # the first is unsettled (raise) or infinite (the last step)
        _settled(status[stop[0]])
        return tuple(a[:stop[0] + 1] for a in out)
    return out


@dataclass(frozen=True)
class JointRateResult:
    """Value and per-time maximizers of a joint finite-dimensional rate."""

    value: float
    potentials: tuple[Potential, ...] | None
    iterations: int
    gradient_norm: float

    @property
    def attained(self) -> bool:
        return self.potentials is not None


def joint_rate(gen: Generator, mu0: Measure, partition: Partition,
               marginals, opts: SolverOptions | None = None) -> JointRateResult:
    """Joint rate of observing the given marginals at times (0, t_1, ..., t_k).

    ``marginals`` holds k+1 measures, the first at time zero. Under the
    Markov reference law the cheapest coupling of fixed marginals can be
    taken Markov, so the rate is the chain

        H(nu_0 | mu0) + sum_i I_{t_{i+1} - t_i}(nu_{i+1} | nu_i),

    summed up to its first infinite term, every step evaluated in one
    batch (see ``_conditional_rates``). When mu0 and nu_0 have full
    support and every step is attained at g_{i+1}, the joint maximizer is
    f_k = g_k, f_i = g_i - log(P_i e^{g_{i+1}}) for 0 < i < k, and
    f_0 = log(nu_0 / mu0) - log(P_0 e^{g_1}).
    """
    times = (0.0,) + partition.times
    _positive(times[1], "partition times")
    nus = [m if isinstance(m, Measure) else Measure(gen.space, m) for m in marginals]
    if len(nus) != len(times):
        raise MalformedModel(f"need {len(times)} marginals, one per time")
    _on(gen.space, mu0, *nus)
    value = relative_entropy(nus[0], mu0)
    if not math.isfinite(value):
        return JointRateResult(value, None, 0, math.inf)
    Ps = np.array([_expm_generator(gen, b - a) for a, b in zip(times, times[1:])])
    laws = np.array([nu.p for nu in nus])
    steps, status, g, _, its, norms = _conditional_rates(laws[:-1], laws[1:], Ps, opts)
    value, iters, gnorm = value + float(steps.sum()), int(its.sum()), float(norms.max())
    if not (math.isfinite(value) and (status == _Status.CONVERGED).all()
            and (laws > 0.0).all() and (mu0.p > 0.0).all()):
        return JointRateResult(value, None, iters, gnorm)
    g = [np.log(nus[0].p / mu0.p), *g]
    f = [gi - _log_matrix_apply(P, gn) for gi, P, gn in zip(g, Ps, g[1:])] + [g[-1]]
    return JointRateResult(value, tuple(Potential(gen.space, fi) for fi in f), iters, gnorm)


@dataclass(frozen=True)
class ActionResult:
    """Quadrature of the Lagrangian along a grid path.

    ``value`` is +inf when some cell is infeasible; ``infeasible_cell`` then
    names the first offending cell.
    """

    value: float
    cell_values: np.ndarray
    infeasible_cell: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "cell_values",
                           _frozen(np.array(self.cell_values, dtype=float)))


# Within-cell location of the measure node for the action quadrature. The
# finite-difference speed is already cell-centered, so the measure offset
# (1/2 - node) fixes the order of the rule: any offset keeps it first order
# in the grid, so refinement studies halve cleanly, matching the behavior
# the identity checks document; a small offset keeps the leading constant
# an order of magnitude below the per-identity tolerance budgets.
QUADRATURE_NODE = 0.45


def path_action(gen: Generator, path: PathGrid,
                opts: SolverOptions | None = None,
                initial: np.ndarray | None = None) -> ActionResult:
    """Integral of L(mu(s), mu'(s)) ds over the grid, cell by cell.

    Each cell contributes dt * L(measure at the quadrature node w,
    finite-difference speed), evaluated as ``lagrangian_value`` does, with
    its screens and pins, for all cells at once, built cells last. Newton
    starts in each cell at f = 0, or at the (K+1, n) node potentials
    ``initial`` (finite, else MalformedModel) taken at w in e^f, where a
    Doob flow is linear, as c + log((1 - w) e^{f_k - c} + w e^{f_{k+1} - c}),
    c = max(f_k, f_{k+1}) (a start that does not converge is retried from
    f = 0). The first cell in cell order that is infinite ends the sweep and
    is named in the result; if a cell before it does not settle,
    NumericalFailure is raised.
    """
    _on(gen.space, path)
    dt = path.dt
    m = np.ascontiguousarray(path.measures.T)  # (n, K + 1): cells last
    w = QUADRATURE_NODE
    mids = (1.0 - w) * m[:, :-1] + w * m[:, 1:]
    start = None
    if initial is not None:
        h = np.ascontiguousarray(_admit(initial, "warm start", (path.K + 1, gen.size)).T)
        c = np.maximum(h[:, :-1], h[:, 1:])
        start = c + np.log((1.0 - w) * np.exp(h[:, :-1] - c) + w * np.exp(h[:, 1:] - c))
    status, _, values, _, _, _ = _lagrangian_cells(
        mids[:, None] * gen.off_diagonal[..., None], (m[:, 1:] - m[:, :-1]) / dt,
        0.0, opts, start)
    cells = dt * np.maximum(values, 0.0)
    stop = np.flatnonzero((status >= _Status.STALLED) | ~np.isfinite(cells))
    if stop.size:
        k = int(stop[0])
        _settled(status[k])
        return ActionResult(math.inf, cells[:k + 1], infeasible_cell=k)
    return ActionResult(float(cells.sum()), cells)


def partition_rate(gen: Generator, path: PathGrid, partition: Partition,
                   P0: Measure, opts: SolverOptions | None = None) -> float:
    """``joint_rate(...).value`` of the grid nodes at the partition times,
    from P0: KL(node 0 | P0) plus the chain of conditional rates over the
    node rows, one ``_expm_generator`` call per distinct node gap.

    Partition times must coincide with grid nodes after t0, to within
    GRID_NODE_TOL times the length of the grid.
    """
    _on(gen.space, path, P0)
    dt = path.dt
    idx = [0]
    for tau in partition.times:
        j = int(round((tau - path.t0) / dt))
        off_node = abs(path.t0 + j * dt - tau) > GRID_NODE_TOL * (path.t1 - path.t0)
        if j < 1 or j > path.K or off_node:
            raise InvalidParameter(f"partition time {tau} is not a grid node")
        idx.append(j)
    gaps, step = np.unique(np.diff(idx), return_inverse=True)
    if gaps[0] < 1:
        raise InvalidParameter("partition times collapse onto the same grid node")
    laws = path.measures[idx]
    value = float(_relative_entropy(laws[0], P0.p))
    if not math.isfinite(value):
        return value
    Ps = np.array([_expm_generator(gen, g * dt) for g in gaps.tolist()])
    return value + float(_conditional_rates(laws[:-1], laws[1:], Ps[step], opts)[0].sum())
