"""Doob-transform flows, optimal tilted trajectories, and bridges.

A terminal tilt f induces the space-time harmonic flow h(s) = V(t-s)f; the
transformed process is generated at time s by the h(s)-tilted generator,
and its law solves the time-inhomogeneous forward equation. Integrating
that equation from mu0 produces the optimal trajectory realizing the
variational identity

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
from .hamiltonian import _log_matrix_apply, _tilted_rates, v_apply
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
    conditional_rate,
    path_action,
)


@dataclass(frozen=True)
class DoobFlow:
    """The backward flow h(s) = V(t-s)f on a uniform grid; h(t) = f exactly."""

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
    and one vectorized log. Above a spread of 600, where e^{f-c} can
    underflow, the flow is nested one max-shifted log-space step at a time.
    """
    if t <= 0:
        raise InvalidParameter(f"horizon must be positive, got {t}")
    if K < 1:
        raise InvalidParameter(f"need at least one interval, got K={K}")
    Pdt = _expm_generator(gen.Q, t / K)
    h = np.empty((K + 1, gen.size))
    h[K] = f.f
    c = f.f.max()
    if c - f.f.min() <= 600.0:
        h[:K] = c + np.log(_power_rows(np.exp(f.f - c), Pdt.T, K)[:0:-1])
    else:
        for k in range(K - 1, -1, -1):
            h[k] = _log_matrix_apply(Pdt, h[k + 1])
    return DoobFlow(gen.space, float(t), h)


def _forward_measures(gen: Generator, mu0: Measure, flow: DoobFlow) -> np.ndarray:
    """The (K+1, n) measures of the tilted forward equation along a flow.

    Step k advances by the exponential of the generator tilted by the flow
    at node k; all K step matrices are exponentiated as one stack, and a
    Hillis-Steele scan forms their prefix products S_1 ... S_k in log2 K
    rounds. The steps are nonnegative, so mu0 S_1 ... S_k only needs its
    rows normalized.
    """
    Qt = _tilted_rates(gen.off_diagonal, flow.h[:-1])
    diag = np.arange(gen.size)
    Qt[:, diag, diag] = -Qt.sum(axis=2)
    A = _expm_generator(Qt, flow.dt)
    s = 1
    while s < flow.K:
        A[s:] = A[:-s] @ A[s:]
        s *= 2
    out = np.vstack([mu0.p, mu0.p @ A])
    out[1:] /= out[1:].sum(axis=1, keepdims=True)
    return out


def doob_forward(gen: Generator, mu0: Measure, flow: DoobFlow,
                 opts: SolverOptions | None = None
                 ) -> tuple[PathGrid, ActionResult]:
    """Integrate the tilted forward equation along a Doob flow.

    Each step advances by the exact exponential of the generator tilted by
    the flow at the step's left node, which preserves positivity
    unconditionally. Returns the measure path and its action.
    """
    if flow.space != gen.space or mu0.space != gen.space:
        raise MalformedModel("flow, law, and generator use different state spaces")
    path = PathGrid(gen.space, 0.0, flow.horizon,
                    _forward_measures(gen, mu0, flow))
    return path, path_action(gen, path, opts=opts)


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

    The terminal tilt is the conditional-rate maximizer; the bridge is its
    Doob flow integrated from mu0. For boundary targets (maximizer only in
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
    with the quadrature action of the integrated path and vanishes as the
    grid refines.
    """
    flow = doob_flow(gen, f, t, K)
    path, action = doob_forward(gen, mu0, flow, opts=opts)
    terminal = float(f.f @ path.measures[-1])
    start = float(v_apply(gen, f, t).f @ mu0.p)
    return abs((terminal - start) - action.value)
