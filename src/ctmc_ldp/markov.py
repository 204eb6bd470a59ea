"""Finite-state continuous-time Markov chain primitives.

Everything here is exact linear machinery on a finite state space: rate
matrices, the transition semigroup computed by uniformization, resolvents,
evolution of probability laws, relative entropy, and jump-path sampling.
All values are immutable after construction and safe to share across
threads; sampling is pure given its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameter,
    InvalidRate,
    InvalidTime,
    MalformedModel,
    NumericalFailure,
)

# Tolerances shared across the package.
ROW_SUM_TOL = 1e-12          # generator rows sum to zero this tightly, per unit rate
MEASURE_SUM_TOL = 1e-10      # probability vectors must sum to one this tightly
PROBABILITY_SLACK = 1e-12    # rounding tolerated outside [0, 1] before clipping
RENORM_DRIFT = 1e-8          # beyond this drift evolution is considered broken
UNIFORMIZATION_TAIL = 1e-13  # neglected Poisson tail mass in the semigroup


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateSpace:
    """An ordered finite set of state labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise MalformedModel("a state space needs at least two states")
        if len(set(labels)) != len(labels):
            raise MalformedModel("state labels must be unique")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        """Resolve a label or integer index to an integer index."""
        if isinstance(label, (int, np.integer)):
            i = int(label)
            if not 0 <= i < self.size:
                raise MalformedModel(f"state index {i} out of range")
            return i
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise MalformedModel(f"unknown state label {label!r}") from None


@dataclass(frozen=True)
class Generator:
    """Rate matrix of a CTMC: nonnegative off-diagonal, zero row sums."""

    space: StateSpace
    Q: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        n = self.space.size
        if Q.shape != (n, n):
            raise MalformedModel(f"rate matrix must be {n}x{n}, got {Q.shape}")
        if not np.all(np.isfinite(Q)):
            raise MalformedModel("rate matrix contains non-finite entries")
        off = Q[~np.eye(n, dtype=bool)]
        if np.any(off < 0):
            raise InvalidRate("off-diagonal rates must be nonnegative")
        # relative to the row's rates, which round off at their own scale
        scale = np.maximum(1.0, np.abs(Q).sum(axis=1))
        if np.any(np.abs(Q.sum(axis=1)) > ROW_SUM_TOL * scale):
            raise MalformedModel("generator rows must sum to zero")
        object.__setattr__(self, "Q", _frozen(Q))

    @property
    def size(self) -> int:
        return self.space.size

    @property
    def exit_rates(self) -> np.ndarray:
        """Total exit rate per state, -diag(Q)."""
        return -np.diag(self.Q)

    @property
    def off_diagonal(self) -> np.ndarray:
        """Q with the diagonal zeroed (the raw jump rates)."""
        off = self.Q.copy()
        np.fill_diagonal(off, 0.0)
        return off

    @property
    def max_exit_rate(self) -> float:
        return float(np.max(self.exit_rates))

    def jump_probabilities(self) -> np.ndarray:
        """Embedded-chain transition matrix; rows of absorbing states are zero."""
        off = self.off_diagonal
        rates = off.sum(axis=1)
        out = np.zeros_like(off)
        np.divide(off, rates[:, None], out=out, where=rates[:, None] > 0)
        return out


@dataclass(frozen=True)
class Measure:
    """A probability vector on a state space."""

    space: StateSpace
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.space.size,):
            raise MalformedModel("measure has the wrong length")
        if not np.all(np.isfinite(p)):
            raise MalformedModel("measure contains non-finite entries")
        if np.any(p < 0):
            raise MalformedModel("measure has negative entries")
        if abs(p.sum() - 1.0) > MEASURE_SUM_TOL:
            raise MalformedModel(f"measure sums to {p.sum()!r}, not 1")
        object.__setattr__(self, "p", _frozen(p))

    @classmethod
    def dirac(cls, space: StateSpace, state) -> "Measure":
        p = np.zeros(space.size)
        p[space.index(state)] = 1.0
        return cls(space, p)

    @classmethod
    def uniform(cls, space: StateSpace) -> "Measure":
        return cls(space, np.full(space.size, 1.0 / space.size))


@dataclass(frozen=True)
class Potential:
    """A real-valued function on states (a test function / tilt)."""

    space: StateSpace
    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape != (self.space.size,):
            raise MalformedModel("potential has the wrong length")
        if not np.all(np.isfinite(f)):
            raise MalformedModel("potential contains non-finite entries")
        object.__setattr__(self, "f", _frozen(f))

    @classmethod
    def zeros(cls, space: StateSpace) -> "Potential":
        return cls(space, np.zeros(space.size))


@dataclass(frozen=True)
class StochasticMatrix:
    """A row-stochastic matrix (transition probabilities)."""

    space: StateSpace
    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        n = self.space.size
        if P.shape != (n, n):
            raise MalformedModel("transition matrix has the wrong shape")
        if not np.all(np.isfinite(P)):
            raise MalformedModel("transition matrix contains non-finite entries")
        if np.any(P < -PROBABILITY_SLACK) or np.any(P > 1 + PROBABILITY_SLACK):
            raise MalformedModel("transition probabilities outside [0, 1]")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > MEASURE_SUM_TOL:
            raise MalformedModel("transition matrix rows must sum to 1")
        object.__setattr__(self, "P", _frozen(np.clip(P, 0.0, 1.0)))


@dataclass(frozen=True)
class JumpPath:
    """One realization of a jump process up to a finite horizon."""

    space: StateSpace
    jump_times: np.ndarray
    states: np.ndarray
    horizon: float

    def __post_init__(self):
        times = np.asarray(self.jump_times, dtype=float)
        states = np.asarray(self.states, dtype=int)
        if self.horizon <= 0:
            raise MalformedModel("horizon must be positive")
        if times.ndim != 1 or states.ndim != 1:
            raise MalformedModel("jump times and states must be 1-d")
        if states.size != times.size + 1:
            raise MalformedModel("need exactly one more state than jump")
        if times.size and (np.any(np.diff(times) <= 0) or times[0] <= 0):
            raise MalformedModel("jump times must be strictly increasing and positive")
        if times.size and times[-1] > self.horizon:
            raise MalformedModel("jump times must not exceed the horizon")
        if np.any(states < 0) or np.any(states >= self.space.size):
            raise MalformedModel("state index out of range")
        if np.any(states[1:] == states[:-1]):
            raise MalformedModel("consecutive states must differ")
        object.__setattr__(self, "jump_times", _frozen(times))
        object.__setattr__(self, "states", _frozen(states, dtype=int))

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    def states_at(self, times) -> np.ndarray:
        """State indices occupied at each of the query times."""
        t = np.asarray(times, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side="right")
        return self.states[idx]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def validate_generator(labels, rates) -> Generator:
    """Build a Generator from raw jump rates.

    The diagonal of ``rates`` is ignored and recomputed as the negative
    off-diagonal row sum, so callers only ever specify actual rates.

    Raises
    ------
    InvalidRate
        if an off-diagonal entry is negative.
    MalformedModel
        if the matrix is not square, does not match the labels, or
        contains non-finite entries.
    """
    space = StateSpace(tuple(labels))
    R = np.asarray(rates, dtype=float)
    n = space.size
    if R.shape != (n, n):
        raise MalformedModel(f"rate matrix must be {n}x{n}, got {R.shape}")
    if not np.all(np.isfinite(R)):
        raise MalformedModel("rate matrix contains non-finite entries")
    mask = ~np.eye(n, dtype=bool)
    if np.any(R[mask] < 0):
        bad = np.argwhere((R < 0) & mask)[0]
        raise InvalidRate(
            f"negative rate {R[bad[0], bad[1]]} at "
            f"({space.labels[bad[0]]} -> {space.labels[bad[1]]})"
        )
    Q = np.where(mask, R, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Generator(space, Q)


def _expm_generator(Q: np.ndarray, t: float) -> np.ndarray:
    """e^{tQ} of one (n, n) generator by uniformization: a Poisson mixture
    of jump-matrix powers.

    Nonnegativity and row sums are preserved by construction; the neglected
    Poisson tail mass is below UNIFORMIZATION_TAIL.
    """
    n = Q.shape[0]
    c = float(-Q.diagonal().min())  # any rate at or above it uniformizes
    m = c * float(t)
    if m == 0.0:
        return np.eye(n)
    # Keep the Poisson parameter moderate so the series stays well within
    # range, then recombine by integer matrix power.
    pieces = math.ceil(m / 50.0)
    m /= pieces
    # Term k is (m B)^k / k! with B = I + Q/c. From k = 2 on, terms are
    # kept until the Poisson mass e^{-m} sum_{j<=k} m^j / j! reaches
    # 1 - UNIFORMIZATION_TAIL, at most to m + 8 sqrt(m) + 16, far past it
    # for m <= 50; dividing by the row sums (mass times e^m) normalizes.
    mB = m * (np.eye(n) + Q / c)
    acc = mB + np.eye(n)
    term, w, k = mB, math.exp(-m) * m, 2
    mass = math.exp(-m) + w
    width = int(m + 8.0 * math.sqrt(m)) + 16
    while mass < 1.0 - UNIFORMIZATION_TAIL and k <= width:
        term = term @ mB
        term /= k
        acc += term
        w *= m / k
        mass += w
        k += 1
    acc /= acc.sum(axis=1, keepdims=True)
    return acc if pieces == 1 else np.linalg.matrix_power(acc, pieces)


def transition_matrix(gen: Generator, t: float) -> StochasticMatrix:
    """Transition probabilities e^{tQ} after time t >= 0."""
    if t < 0:
        raise InvalidTime(f"time must be nonnegative, got {t}")
    return StochasticMatrix(gen.space, _expm_generator(gen.Q, float(t)))


def resolvent_matrix(gen: Generator, lam: float) -> np.ndarray:
    """(I - lam*Q)^{-1}: the law after an independent Exp(mean lam) time.

    The result is row-stochastic.
    """
    if lam <= 0:
        raise InvalidParameter(f"resolvent parameter must be positive, got {lam}")
    n = gen.size
    return np.linalg.solve(np.eye(n) - lam * gen.Q, np.eye(n))


def _fix_probability_vector(p: np.ndarray) -> np.ndarray:
    """Renormalize small drift of a nonnegative vector; fail on large drift.

    A law pushed through the uniformized semigroup, whose every term is
    nonnegative, cannot go negative; only its mass can drift.
    """
    drift = abs(p.sum() - 1.0)
    if drift > RENORM_DRIFT:
        raise NumericalFailure(f"probability mass drifted by {drift}")
    if drift > 1e-12:
        p = p / p.sum()
    return p


def evolve_law(gen: Generator, mu: Measure, t: float) -> Measure:
    """Push a law forward: the distribution of X(t) when X(0) ~ mu."""
    if t < 0:
        raise InvalidTime(f"time must be nonnegative, got {t}")
    p = mu.p @ _expm_generator(gen.Q, float(t))
    return Measure(gen.space, _fix_probability_vector(p))


def relative_entropy(mu: Measure, nu: Measure) -> float:
    """Kullback-Leibler divergence sum_x mu_x log(mu_x / nu_x).

    Returns +inf when mu puts mass where nu has none; 0*log(0) counts as 0.
    """
    if mu.space != nu.space:
        raise MalformedModel("measures live on different state spaces")
    sup = mu.p > 0
    if np.any(nu.p[sup] == 0):
        return math.inf
    m = mu.p[sup]
    return float(np.sum(m * np.log(m / nu.p[sup])))


def sample_jump_path(gen: Generator, x0, horizon: float, seed) -> JumpPath:
    """Simulate one trajectory by exponential clocks (Gillespie).

    Holding times in state x are Exp(exit_rate(x)); the jump target is drawn
    from the embedded chain. ``seed`` may be an int or a numpy Generator;
    results are deterministic given the seed. Absorbing states simply stop
    jumping.
    """
    if horizon <= 0:
        raise InvalidParameter(f"horizon must be positive, got {horizon}")
    rng = np.random.default_rng(seed)    # a Generator is returned as is
    x = gen.space.index(x0)
    exit_rates = gen.exit_rates
    cum = np.cumsum(gen.jump_probabilities(), axis=1)
    times = []
    states = [x]
    t = 0.0
    while True:
        rate = exit_rates[x]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t > horizon:
            break
        x = min(int(np.searchsorted(cum[x], rng.random(), side="right")),
                gen.size - 1)
        times.append(t)
        states.append(x)
    return JumpPath(gen.space, np.array(times), np.array(states, dtype=int), horizon)
