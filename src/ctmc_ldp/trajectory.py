"""Doob-transform flows, optimal tilted trajectories, and bridges.

A terminal tilt f induces the space-time harmonic flow h(s) = V(t-s)f; the
transformed process is generated at time s by the h(s)-tilted generator.
Its law from mu0 is known in closed form, gamma(s) proportional to
e^{h(s)} (mu0 e^{-h(0)}) P(s), exactly on every grid node and with no time
stepping. It is the optimal trajectory realizing the variational identity

    <f, gamma(t)> - integral of L(gamma, gamma') = <V(t)f, mu0>.

Bridges pin both endpoints: the terminal tilt comes from the conditional
rate maximizer, so the transformed flow delivers the target law and its
action reproduces the rate. When the maximizer only exists in a limit the
bridge uses a capped tilt and reports the gap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryBridgeWarning,
    InfeasibleBridge,
    InvalidParameter,
    MalformedModel,
)
from .hamiltonian import _log_matrix_apply, v_apply
from .lagrangian import SolverOptions
from .markov import (
    Generator,
    Measure,
    Potential,
    StateSpace,
    _expm_generator,
    _frozen,
)
from .rates import (
    ActionResult,
    DEFAULT_TILT_CAP,
    PathGrid,
    _path_action,
    conditional_rate,
)

HARMONIC_TOL = 1e-9  # last-interval mismatch relative to 1 + max|h_K|
LINEAR_SPREAD = 600.0  # widest exponent spread the doubling takes out of log space


@dataclass(frozen=True)
class DoobFlow:
    """The backward flow h(s) = V(t-s)f on a uniform grid; h(t) = f exactly.

    Only space-time harmonic flows, h_k = log(P_dt e^{h_{k+1}}) as built by
    ``doob_flow``, have the closed-form law that ``doob_forward`` computes."""

    space: StateSpace
    horizon: float
    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if self.horizon <= 0:
            raise MalformedModel("horizon must be positive")
        if h.ndim != 2 or h.shape[0] < 2 or h.shape[1] != self.space.size:
            raise MalformedModel("flow must be a (K+1, size) array with K >= 1")
        if not np.all(np.isfinite(h)):
            raise MalformedModel("flow contains non-finite entries")
        object.__setattr__(self, "h", _frozen(h))

    @property
    def K(self) -> int:
        return self.h.shape[0] - 1

    @property
    def dt(self) -> float:
        return self.horizon / self.K

    @property
    def terminal(self) -> Potential:
        return Potential(self.space, self.h[-1])

    def potential(self, k: int) -> Potential:
        return Potential(self.space, self.h[k])


def _power_rows(y0: np.ndarray, M: np.ndarray, K: int) -> np.ndarray:
    """The rows y0 M^j, j = 0..K: each doubling round fills rows [m, 2m)
    as rows [0, m) times M^m, then squares M^m."""
    Y = np.empty((K + 1, y0.size))
    Y[0], m = y0, 1
    while m <= K:
        Y[m:2 * m] = Y[:min(m, K + 1 - m)] @ M
        M, m = M @ M, 2 * m
    return Y


def doob_flow(gen: Generator, f: Potential, t: float, K: int) -> DoobFlow:
    """Tabulate h(s_k) = V(t - s_k)f on K+1 uniform nodes; h(t) = f exactly.

    With c = max f, z_k = e^{h_k - c} = P_dt^{K-k} e^{f-c} is linear in
    e^{f-c} and stays in [e^{-spread}, 1], so all nodes come from doubling
    and one vectorized log. Above a spread of LINEAR_SPREAD, where e^{f-c}
    can underflow, the flow is nested one max-shifted log-space step at a
    time.
    """
    if t <= 0:
        raise InvalidParameter(f"horizon must be positive, got {t}")
    if K < 1:
        raise InvalidParameter(f"need at least one interval, got K={K}")
    Pdt = _expm_generator(gen.Q, t / K)
    h = np.empty((K + 1, gen.size))
    h[K] = f.f
    c = f.f.max()
    if c - f.f.min() <= LINEAR_SPREAD:
        h[:K] = c + np.log(_power_rows(np.exp(f.f - c), Pdt.T, K)[:0:-1])
    else:
        for k in range(K - 1, -1, -1):
            h[k] = _log_matrix_apply(Pdt, h[k + 1])
    return DoobFlow(gen.space, float(t), h)


def _forward_measures(mu0: Measure, flow: DoobFlow, Pdt: np.ndarray) -> np.ndarray:
    """The (K+1, n) nodes of the law of the Doob transform along a flow.

    For a space-time harmonic flow, h_k = log(P_dt e^{h_{k+1}}), the law is
    exact on every node: gamma_k is e^{h_k} (mu0 e^{-h_0}) P_dt^k,
    normalized. The rows mu0 e^{-(h_0 - min h_0)} P_dt^k come from one
    doubling, scaled by e^{h_k - min h_0} to keep row sums near one. Where
    that factor could pass e^LINEAR_SPREAD, the nodes follow the transformed
    chain's steps P_dt(x, y) e^{h_{k+1}(y) - h_k(x)}, formed in log space.
    """
    h = flow.h
    low = h[0].min()
    if h[-1].max() - low <= LINEAR_SPREAD:
        out = _power_rows(mu0.p * np.exp(low - h[0]), Pdt, flow.K) * np.exp(h - low)
        out[0] = mu0.p
    else:
        with np.errstate(divide="ignore"):
            logP = np.log(Pdt)
        out = np.empty_like(h)
        out[0] = mu0.p
        for k in range(flow.K):
            out[k + 1] = out[k] @ np.exp(logP + (h[k + 1] - h[k][:, None]))
    out[1:] /= out[1:].sum(axis=1, keepdims=True)
    return out


def doob_forward(gen: Generator, mu0: Measure, flow: DoobFlow,
                 opts: SolverOptions | None = None
                 ) -> tuple[PathGrid, ActionResult]:
    """The law of the Doob transform along a flow from mu0, and its action.

    The nodes are exact for the flow (see ``_forward_measures``), which
    must be space-time harmonic for the generator, as ``doob_flow`` builds
    it: MalformedModel is raised when its last interval is not one step
    h_{K-1} = log(P_dt e^{h_K}). The action is ``path_action``'s, with
    Newton started in each cell at the flow at the quadrature node.
    """
    if flow.space != gen.space or mu0.space != gen.space:
        raise MalformedModel("flow, law, and generator use different state spaces")
    Pdt = _expm_generator(gen.Q, flow.dt)
    step = _log_matrix_apply(Pdt, flow.h[-1]) - flow.h[-2]
    if np.abs(step).max() > HARMONIC_TOL * (1.0 + np.abs(flow.h[-1]).max()):
        raise MalformedModel("flow is not space-time harmonic for this generator")
    path = PathGrid(gen.space, 0.0, flow.horizon,
                    _forward_measures(mu0, flow, Pdt))
    return path, _path_action(gen, path, opts, flow.h)


@dataclass(frozen=True)
class BridgeResult:
    """An optimal bridge: measure path, its action, and endpoint diagnostics."""

    path: PathGrid
    action: ActionResult
    rate: float
    tilt: Potential
    delivery_error: float
    action_gap: float
    boundary: bool


def optimal_bridge(gen: Generator, mu0: Measure, mu1: Measure, t: float,
                   K: int, opts: SolverOptions | None = None,
                   cap: float = DEFAULT_TILT_CAP) -> BridgeResult:
    """Connect mu0 to mu1 in time t along the cost-minimizing trajectory.

    The terminal tilt is the conditional-rate maximizer; the bridge is the
    law of its Doob transform from mu0. For boundary targets (maximizer only in
    a limit) a capped tilt is used and a BoundaryBridgeWarning is emitted;
    the reported ``action_gap`` then estimates the distance to the true
    rate.
    """
    rate = conditional_rate(gen, mu0, mu1, t, opts=opts)
    if not math.isfinite(rate.value):
        raise InfeasibleBridge(
            f"target law is unreachable in time {t}: infinite rate")
    boundary = not rate.attained
    if boundary:
        warnings.warn(
            "bridge optimizer is attained only in a limit; using a capped tilt",
            BoundaryBridgeWarning, stacklevel=2)
        tilt = rate.tilt_potential(gen.space, cap=cap)
    else:
        tilt = rate.maximizer
    flow = doob_flow(gen, tilt, t, K)
    path, action = doob_forward(gen, mu0, flow, opts=opts)
    delivery = float(np.abs(path.measures[-1] - mu1.p).sum())
    gap = abs(action.value - rate.value) if math.isfinite(action.value) else math.inf
    return BridgeResult(path, action, rate.value, tilt, delivery, gap, boundary)


def zero_cost_path(gen: Generator, mu0: Measure, t: float, K: int) -> PathGrid:
    """The trajectory of the untilted dynamics itself, which costs nothing."""
    if t <= 0:
        raise InvalidParameter(f"horizon must be positive, got {t}")
    if K < 1:
        raise InvalidParameter(f"need at least one interval, got K={K}")
    out = _power_rows(mu0.p, _expm_generator(gen.Q, t / K), K)
    out[1:] /= out[1:].sum(axis=1, keepdims=True)
    return PathGrid(gen.space, 0.0, float(t), out)


def entropy_identity_check(gen: Generator, mu0: Measure, f: Potential,
                           t: float, K: int,
                           opts: SolverOptions | None = None) -> float:
    """Residual of the entropy decomposition along the f-tilted trajectory.

    With the transformed initial law pinned to mu0, the path entropy equals
    <f, gamma(t)> - <V(t)f, mu0>; the residual compares that closed form
    with the quadrature action of the transformed path and vanishes as the
    grid refines.
    """
    flow = doob_flow(gen, f, t, K)
    path, action = doob_forward(gen, mu0, flow, opts=opts)
    terminal = float(f.f @ path.measures[-1])
    start = float(v_apply(gen, f, t).f @ mu0.p)
    return abs((terminal - start) - action.value)
