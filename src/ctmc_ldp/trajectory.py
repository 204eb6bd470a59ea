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

from .errors import BoundaryBridgeWarning, InfeasibleBridge, MalformedModel
from .hamiltonian import _log_matrix_apply, v_apply
from .lagrangian import SolverOptions
from .markov import (
    Generator,
    Measure,
    Potential,
    StateSpace,
    _admit,
    _count,
    _expm_generator,
    _on,
    _positive,
    _power_rows,
)
from .rates import ActionResult, PathGrid, conditional_rate, path_action

HARMONIC_TOL = 1e-9  # last-interval mismatch relative to 1 + max|h_K|
LINEAR_SPREAD = 600.0  # widest exponent spread the doubling takes out of log space
INTERVALS = "need at least one interval, got K={}"


@dataclass(frozen=True)
class DoobFlow:
    """The backward flow h(s) = V(t-s)f on a uniform grid; h(t) = f exactly.

    Only space-time harmonic flows, h_k = log(P_dt e^{h_{k+1}}) as built by
    ``doob_flow``, have the closed-form law that ``doob_forward`` computes."""

    space: StateSpace
    horizon: float
    h: np.ndarray

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise MalformedModel("horizon must be positive and finite")
        object.__setattr__(self, "h", _admit(self.h, "flow", (None, self.space.size)))

    @property
    def K(self) -> int:
        return self.h.shape[0] - 1

    @property
    def dt(self) -> float:
        return self.horizon / self.K

    def potential(self, k: int) -> Potential:
        return Potential(self.space, self.h[k])


def doob_flow(gen: Generator, f: Potential, t: float, K: int) -> DoobFlow:
    """Tabulate h(s_k) = V(t - s_k)f on K+1 uniform nodes; h(t) = f exactly.

    With c = max f, z_k = e^{h_k - c} = P_dt^{K-k} e^{f-c} is linear in
    e^{f-c} and stays in [e^{-spread}, 1], so all nodes come from doubling
    and one vectorized log. Above a spread of LINEAR_SPREAD, where e^{f-c}
    can underflow, the flow is nested one max-shifted log-space step at a
    time.
    """
    t, K = _positive(t, "horizon"), _count(K, INTERVALS, 1)
    _on(gen.space, f)
    Pdt = _expm_generator(gen, t / K)
    h = np.empty((K + 1, gen.size))
    h[K] = f.f
    c = f.f.max()
    if c - f.f.min() <= LINEAR_SPREAD:
        h[:K] = c + np.log(_power_rows(np.exp(f.f - c), Pdt.T, K)[:0:-1])
    else:
        for k in range(K - 1, -1, -1):
            h[k] = _log_matrix_apply(Pdt, h[k + 1])
    return DoobFlow(gen.space, t, h)


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
    out[1:] /= (out[1:] @ np.ones(len(Pdt)))[:, None]  # a mat-vec: no short-axis sum
    return out


def doob_forward(gen: Generator, mu0: Measure, flow: DoobFlow,
                 opts: SolverOptions | None = None
                 ) -> tuple[PathGrid, ActionResult]:
    """The law of the Doob transform along a flow from mu0, and its action.

    The nodes are exact for the flow (see ``_forward_measures``), which
    must be space-time harmonic for the generator, as ``doob_flow`` builds
    it: MalformedModel is raised when its last interval is not one step
    h_{K-1} = log(P_dt e^{h_K}). The action is ``path_action``'s, with
    Newton started in each cell at the flow at the quadrature node w, taken
    there in e^h, where the flow is linear, as c + log((1 - w) e^{h_k - c}
    + w e^{h_{k+1} - c}), c = max(h_k, h_{k+1}): on a capped boundary tilt
    e^h falls by orders of magnitude over the last cell, and a start
    between the h themselves lies far from that cell's maximizer.
    """
    _on(gen.space, flow, mu0)
    Pdt = _expm_generator(gen, flow.dt)
    step = _log_matrix_apply(Pdt, flow.h[-1]) - flow.h[-2]
    if np.abs(step).max() > HARMONIC_TOL * (1.0 + np.abs(flow.h[-1]).max()):
        raise MalformedModel("flow is not space-time harmonic for this generator")
    path = PathGrid(gen.space, 0.0, flow.horizon,
                    _forward_measures(mu0, flow, Pdt))
    return path, path_action(gen, path, opts, flow.h)


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
                   K: int, opts: SolverOptions | None = None) -> BridgeResult:
    """Connect mu0 to mu1 in time t along the cost-minimizing trajectory.

    The terminal tilt is the conditional rate's ``tilt``, its maximizer when
    attained; the bridge is the law of its Doob transform from mu0. For
    boundary targets (maximizer only in a limit) the tilt is capped (see
    ``rates.TILT_CAP``) and a BoundaryBridgeWarning is emitted; the
    reported ``action_gap`` then estimates the distance to the true rate.
    """
    K = _count(K, INTERVALS, 1)
    rate = conditional_rate(gen, mu0, mu1, t, opts=opts)
    if not math.isfinite(rate.value):
        raise InfeasibleBridge(
            f"target law is unreachable in time {t}: infinite rate")
    boundary = not rate.attained
    if boundary:
        warnings.warn(
            "bridge optimizer is attained only in a limit; using a capped tilt",
            BoundaryBridgeWarning, stacklevel=2)
    flow = doob_flow(gen, rate.tilt, t, K)
    path, action = doob_forward(gen, mu0, flow, opts=opts)
    delivery = float(np.abs(path.measures[-1] - mu1.p).sum())
    gap = abs(action.value - rate.value) if math.isfinite(action.value) else math.inf
    return BridgeResult(path, action, rate.value, rate.tilt, delivery, gap, boundary)


def zero_cost_path(gen: Generator, mu0: Measure, t: float, K: int) -> PathGrid:
    """The trajectory of the untilted dynamics itself, which costs nothing:
    the law of the Doob transform along the zero flow."""
    t, K = _positive(t, "horizon"), _count(K, INTERVALS, 1)
    _on(gen.space, mu0)
    zero = DoobFlow(gen.space, t, np.zeros((K + 1, gen.size)))
    return PathGrid(gen.space, 0.0, t,
                    _forward_measures(mu0, zero, _expm_generator(gen, t / K)))


def entropy_identity_check(gen: Generator, mu0: Measure, f: Potential,
                           t: float, K: int) -> float:
    """Residual of the entropy decomposition along the f-tilted trajectory.

    With the transformed initial law pinned to mu0, the path entropy equals
    <f, gamma(t)> - <V(t)f, mu0>; the residual compares that closed form
    with the quadrature action of the transformed path and vanishes as the
    grid refines.
    """
    flow = doob_flow(gen, f, t, K)
    path, action = doob_forward(gen, mu0, flow)
    terminal = float(f.f @ path.measures[-1])
    start = float(v_apply(gen, f, t).f @ mu0.p)
    return abs((terminal - start) - action.value)
