"""Conditional and joint rate functions, path action, and partition rates.

The conditional rate

    I_t(nu | mu) = sup_f { <f, nu> - <V(t)f, mu> }

is a concave maximization over gauge-fixed potentials; its gradient is
nu minus the tilted one-step prediction, so stationarity matches moments.
States where nu vanishes push their potential components to -infinity; the
limit is taken exactly by restricting the transition matrix to the support
of nu before optimizing, which also detects unreachable targets (+infinity).

The joint rate over several time points maximizes

    sum_i <f_i, nu_i> - log E[ e^{ sum_i f_i(X(t_i)) } ]

over the concatenated potentials; the log-moment term and its derivatives
come from forward/backward message passing through the tilted chain. Both
rates, like the Lagrangian, are solved by the Newton core of
``lagrangian``, which takes each objective with its gradient and Hessian.

The action of a discretized measure path is the cell-by-cell Lagrangian of
within-cell measures and finite-difference speeds, all cells evaluated at
once by the evaluator behind ``lagrangian_value``; the partition rate
chains conditional rates across a coarse time partition of grid nodes and
underestimates the action supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, MalformedModel
from .hamiltonian import EXPONENT_CLIP
from .lagrangian import (
    DEFAULT_OPTIONS,
    SolverOptions,
    _lagrangian_cells,
    _settled,
    _solve_one,
    _Status,
)
from .markov import (
    MEASURE_SUM_TOL,
    PROBABILITY_SLACK,
    Generator,
    Measure,
    Potential,
    StateSpace,
    _expm_generator,
    _frozen,
    relative_entropy,
)

DEFAULT_TILT_CAP = 30.0
BOUNDARY_NORM = 15.0  # maximizer sup-norm beyond which a rate counts as unattained
GRID_NODE_TOL = 1e-9  # relative distance at which a partition time is a grid node


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid carrying one probability vector per node."""

    space: StateSpace
    t0: float
    t1: float
    measures: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.measures, dtype=float)
        if not self.t0 < self.t1:
            raise MalformedModel("need t0 < t1")
        if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] != self.space.size:
            raise MalformedModel("measures must be a (K+1, size) array with K >= 1")
        if not np.all(np.isfinite(m)) or np.any(m < -PROBABILITY_SLACK):
            raise MalformedModel("grid nodes must be valid probability vectors")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > MEASURE_SUM_TOL:
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
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise MalformedModel("partition times must be strictly increasing")
        object.__setattr__(self, "times", ts)


@dataclass(frozen=True)
class ConditionalRateResult:
    """Value and (when attained) maximizer of a conditional rate."""

    value: float
    maximizer: Potential | None
    support: tuple[int, ...]
    support_potential: np.ndarray | None
    iterations: int
    gradient_norm: float

    @property
    def attained(self) -> bool:
        return self.maximizer is not None

    def tilt_potential(self, space: StateSpace,
                       cap: float = DEFAULT_TILT_CAP) -> Potential:
        """Best available terminal tilt, capped at sup-norm ``cap``.

        Off-support components sit at -cap, realizing the limiting tilt to
        within e^{-cap}.
        """
        f = np.full(space.size, -cap)
        if self.support_potential is not None:
            f[list(self.support)] = np.clip(self.support_potential, -cap, cap)
        return Potential(space, f)


def conditional_rate(gen: Generator, mu: Measure, nu: Measure, t: float,
                     opts: SolverOptions | None = None) -> ConditionalRateResult:
    """I_t(nu | mu): the cost of seeing law nu at time t having started at mu.

    The returned result carries a full-space maximizer only when the
    supremum is attained at a finite potential on every state; when nu has
    zero mass on states the base dynamics can reach, the value is exact but
    reported as unattained (the optimal tilt diverges there).
    """
    if t <= 0:
        raise InvalidParameter(f"time must be positive, got {t}")
    if mu.space != nu.space or mu.space != gen.space:
        raise MalformedModel("inputs live on different state spaces")
    opts = opts or DEFAULT_OPTIONS
    P = _expm_generator(gen.Q, float(t))
    support = np.flatnonzero(nu.p > 0.0)
    sup = tuple(int(i) for i in support)
    rows = np.flatnonzero(mu.p > 0.0)
    PS = P[np.ix_(rows, support)]
    muX = mu.p[rows]
    nuS = nu.p[support]
    # Some started mass cannot land on the support of nu at all, or nu puts
    # mass on a state no started mass can reach; the objective then grows
    # linearly in that tilt component (singular Hessian), so it must be
    # screened structurally.
    if np.any(PS.sum(axis=1) <= 0.0) or np.any(PS.sum(axis=0) <= 0.0):
        return ConditionalRateResult(math.inf, None, sup, None, 0, math.inf)

    free = np.arange(1, support.size)  # the first support state is pinned

    # log(PS e^f) and the tilted row laws are both taken max-shifted, so even
    # an overshooting Newton iterate (entries in the thousands) is valued
    # exactly and cannot pass the line search on an overstated objective;
    # a row whose weight underflows values the iterate at -infinity
    def objective(x, rows):
        f = x[0]
        c = f.max()
        e = np.exp(f - c)
        z = PS @ e
        value = float(nuS @ f) - float(muX @ (c + np.log(z))) \
            if z.min() > 0.0 else -math.inf
        weighted = PS * e
        W = weighted / weighted.sum(axis=1)[:, None]
        return np.array([value]), (nuS - muX @ W)[None], W[None]

    def hessian(W):
        # covariance of the tilted row laws, averaged over mu
        W = W[0]
        return (np.diag(muX @ W) - W.T @ (muX[:, None] * W))[None]

    status, f, value, iters, gnorm = _solve_one(
        objective, hessian, np.zeros(support.size), free, opts)
    if math.isfinite(value):
        value = max(value, 0.0)
    if status != _Status.CONVERGED:
        return ConditionalRateResult(value, None, sup, f, iters, gnorm)
    full = support.size == gen.size
    interior = np.max(np.abs(f)) <= BOUNDARY_NORM
    maximizer = None
    if full and interior:
        vec = np.zeros(gen.size)
        vec[support] = f
        maximizer = Potential(gen.space, vec)
    return ConditionalRateResult(value, maximizer, sup, f, iters, gnorm)


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


def _joint_messages(Ps, E, mu0):
    """Normalized forward/backward messages of the tilted chain.

    Returns (alphas, betas, logZ); alphas[i] sums to one, betas are scaled
    so alpha_i . beta_i = 1 holds at every time.
    """
    k = len(Ps)
    alpha = mu0 * E[0]
    total = alpha.sum()
    if total <= 0.0:
        return None, None, -math.inf
    logZ = math.log(total)
    alpha = alpha / total
    alphas = [alpha]
    for i in range(k):
        alpha = (alphas[-1] @ Ps[i]) * E[i + 1]
        total = alpha.sum()
        if total <= 0.0:
            return None, None, -math.inf
        logZ += math.log(total)
        alphas.append(alpha / total)
    betas = [None] * (k + 1)
    beta = np.ones_like(mu0)
    betas[k] = beta / float(alphas[k] @ beta)
    for i in range(k - 1, -1, -1):
        beta = Ps[i] @ (E[i + 1] * betas[i + 1])
        betas[i] = beta / float(alphas[i] @ beta)
    return alphas, betas, logZ


def joint_rate(gen: Generator, mu0: Measure, partition: Partition,
               marginals, opts: SolverOptions | None = None) -> JointRateResult:
    """Joint rate of observing the given marginals at times (0, t_1, ..., t_k).

    ``marginals`` holds k+1 measures, the first at time zero. The inner
    log-moment functional is evaluated by message passing through the
    tilted chain, and the whole concatenated potential vector is maximized
    as one concave problem.
    """
    opts = opts or DEFAULT_OPTIONS
    times = (0.0,) + partition.times
    nus = [m.p if isinstance(m, Measure) else np.asarray(m, float) for m in marginals]
    if len(nus) != len(times):
        raise MalformedModel(
            f"need {len(times)} marginals for {len(times) - 1} partition times")
    n = gen.size
    k = len(times) - 1
    Ps = [
        _expm_generator(gen.Q, times[i + 1] - times[i])
        for i in range(k)
    ]

    supports = [np.flatnonzero(nu > 0.0) for nu in nus]
    blocks = []
    offset = 0
    for sup in supports:
        blocks.append(np.arange(offset, offset + sup.size))
        offset += sup.size
    total_vars = offset
    pins = np.array([b[0] for b in blocks])
    free = np.array([j for j in range(total_vars) if j not in set(pins)], dtype=int)
    # Hessian index blocks for each pair of times i <= j: the supports'
    # cross block of a joint law, and the (i, j) and (j, i) Hessian blocks
    pair_blocks = {(i, j): (np.ix_(supports[i], supports[j]),
                            np.ix_(blocks[i], blocks[j]),
                            np.ix_(blocks[j], blocks[i]))
                   for i in range(k + 1) for j in range(i, k + 1)}

    def objective(x, rows):
        x = x[0]
        E = np.zeros((k + 1, n))
        for i, sup in enumerate(supports):
            E[i, sup] = np.exp(np.clip(x[blocks[i]], -EXPONENT_CLIP, EXPONENT_CLIP))
        alphas, betas, logZ = _joint_messages(Ps, E, mu0.p)
        if not math.isfinite(logZ):
            return (np.array([-math.inf]), np.full((1, total_vars), np.nan),
                    np.full((1, 3, k + 1, n), np.nan))
        lin = sum(float(nus[i][supports[i]] @ x[blocks[i]]) for i in range(k + 1))
        grad = np.concatenate([nus[i][sup] - (alphas[i] * betas[i])[sup]
                               for i, sup in enumerate(supports)])
        return np.array([lin - logZ]), grad[None], np.array([alphas, betas, E])[None]

    def hessian(state):
        # Hessian of logZ: two-time covariances of the tilted chain.
        alphas, betas, E = state[0]
        marg = alphas * betas
        hess = np.zeros((total_vars, total_vars))
        for i in range(k + 1):
            mi = marg[i][supports[i]]
            hess[pair_blocks[i, i][1]] = np.diag(mi) - np.outer(mi, mi)
            carry = np.diag(alphas[i])
            for j in range(i + 1, k + 1):
                carry = (carry @ Ps[j - 1]) * E[j][None, :]
                joint = carry * betas[j][None, :]
                joint = joint / joint.sum()  # running normalizations cancel
                on_support, block_ij, block_ji = pair_blocks[i, j]
                cov = (joint - np.outer(marg[i], marg[j]))[on_support]
                hess[block_ij] = cov
                hess[block_ji] = cov.T
        return hess[None]

    x = np.zeros(total_vars)
    value, _, state = objective(x[None], None)
    # no admissible path through the marginal supports; or marginal mass
    # demanded at (time, state) pairs the support-constrained dynamics
    # cannot realize, which makes the objective linearly unbounded in the
    # corresponding tilt component: screened via the two-sided marginals at
    # zero tilt
    if not math.isfinite(value[0]) or any(
            np.any((state[0, 0, i] * state[0, 1, i])[sup] <= 0.0)
            for i, sup in enumerate(supports)):
        return JointRateResult(math.inf, None, 0, math.inf)

    status, x, value, it, grad_norm = _solve_one(objective, hessian, x, free, opts)
    if status == _Status.INFINITE:
        return JointRateResult(math.inf, None, it, grad_norm)
    value = max(value, 0.0)
    if status == _Status.BOUNDARY or any(sup.size != n for sup in supports) \
            or np.max(np.abs(x)) > BOUNDARY_NORM:
        return JointRateResult(value, None, it, grad_norm)
    pots = []
    for i in range(k + 1):
        vec = np.zeros(n)
        vec[supports[i]] = x[blocks[i]]
        pots.append(Potential(gen.space, vec))
    return JointRateResult(value, tuple(pots), it, grad_norm)


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
                           _frozen(np.asarray(self.cell_values, dtype=float)))


# Within-cell location of the measure node for the action quadrature. The
# finite-difference speed is already cell-centered, so the measure offset
# (1/2 - node) fixes the order of the rule: any offset keeps it first order
# in the grid, so refinement studies halve cleanly, matching the behavior
# the identity checks document; a small offset keeps the leading constant
# an order of magnitude below the per-identity tolerance budgets.
QUADRATURE_NODE = 0.45


def path_action(gen: Generator, path: PathGrid,
                opts: SolverOptions | None = None) -> ActionResult:
    """Integral of L(mu(s), mu'(s)) ds over the grid, cell by cell.

    Each cell contributes dt * L(measure at the quadrature node,
    finite-difference speed), evaluated as ``lagrangian_value`` does, with
    its screens and pins, for all cells at once. The first cell in cell
    order that is infinite ends the sweep and is named in the result; if a
    cell before it does not settle, NumericalFailure is raised instead.
    """
    return _path_action(gen, path, opts)


def _path_action(gen, path, opts=None, h=None):
    """``path_action`` with Newton started in each cell at the (K+1, n) node
    potentials h taken at the quadrature node, as the measures are, instead
    of at f = 0 (a start that does not converge is retried from f = 0)."""
    if path.space != gen.space:
        raise MalformedModel("path and generator use different state spaces")
    opts = opts or DEFAULT_OPTIONS
    dt = path.dt
    m = path.measures
    w = QUADRATURE_NODE
    mids = (1.0 - w) * m[:-1] + w * m[1:]
    speeds = (m[1:] - m[:-1]) / dt
    speeds = speeds - speeds.sum(axis=1, keepdims=True) / gen.size
    status, _, values, _, _, _ = _lagrangian_cells(
        gen, mids, speeds, opts, initial=None if h is None else (1.0 - w) * h[:-1] + w * h[1:])
    cells = dt * np.maximum(values, 0.0)
    unsettled = (status == _Status.STALLED) | (status == _Status.MAX_ITERS)
    stop = np.flatnonzero(unsettled | ~np.isfinite(cells))
    if stop.size:
        k = int(stop[0])
        _settled(status[k], opts)
        return ActionResult(math.inf, cells[:k + 1], infeasible_cell=k)
    return ActionResult(float(cells.sum()), cells)


def partition_rate(gen: Generator, path: PathGrid, partition: Partition,
                   P0: Measure, opts: SolverOptions | None = None) -> float:
    """Initial entropy plus chained conditional rates across the partition.

    Partition times must coincide with grid nodes after t0, to within
    GRID_NODE_TOL times the length of the grid.
    """
    dt = path.dt
    idx = []
    for tau in partition.times:
        j = int(round((tau - path.t0) / dt))
        off_node = abs(path.t0 + j * dt - tau) > GRID_NODE_TOL * (path.t1 - path.t0)
        if j < 1 or j > path.K or off_node:
            raise InvalidParameter(f"partition time {tau} is not a grid node")
        idx.append(j)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise InvalidParameter("partition times collapse onto the same grid node")

    total = relative_entropy(path.measure(0), P0)
    prev = 0
    for j in idx:
        seg = conditional_rate(gen, path.measure(prev), path.measure(j),
                               (j - prev) * dt, opts=opts)
        total += seg.value
        if not math.isfinite(total):
            return math.inf
        prev = j
    return float(total)
