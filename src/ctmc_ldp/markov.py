"""Finite-state continuous-time Markov chain primitives.

Everything here is exact linear machinery on a finite state space: rate
matrices, the transition semigroup computed by uniformization, resolvents,
evolution of probability laws, relative entropy, and the reachability and
transport kernels behind the exact verdicts. All values are immutable after
construction and safe to share across threads; a generator caches its
read-only uniformization table and its last e^{tQ}, as one (t, e^{tQ})
tuple handed out as copies, so a race at worst computes either twice.

Each input is admitted by one check of its kind: ``_time`` and ``_positive``
a time or a scale, finite (NaN fails); ``_admit`` an array, as read-only
finite floats of its shape; ``_on`` objects used together, on one state
space; ``_count`` an integer count. ``_power_rows`` forms y0 M^j by
doubling, for the table of e^{tQ} and the Doob rows alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
UNIFORMIZATION_TAIL = 1e-13  # Poisson weight, relative to jump n - 1, where e^{tQ} stops


def _frozen(a: np.ndarray) -> np.ndarray:
    """A new array a, made read-only."""
    a.setflags(write=False)
    return a


def _admit(a, what: str, shape: tuple) -> np.ndarray:
    """a as a new read-only array of finite floats of ``shape``, a leading None
    for a node table of any K + 1 >= 2 rows; else MalformedModel, also for
    input NumPy cannot read as floats (ragged or text)."""
    try:
        out = np.array(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedModel(f"{what} is not an array of numbers: {exc}") from None
    table = shape[0] is None  # compare every axis but a table's rows
    if out.shape[table:] != shape[table:] or table and len(out) < 2:
        want = f"(K+1, {shape[1]}) with K >= 1" if table else shape
        raise MalformedModel(f"{what} must have shape {want}, got {out.shape}")
    if not np.isfinite(out).all():
        raise MalformedModel(f"{what} contains non-finite entries")
    return _frozen(out)


def _on(space: StateSpace, *objects) -> None:
    """MalformedModel unless every object lives on space (identity first: hot paths)."""
    for x in objects:
        if x.space is not space and x.space != space:
            raise MalformedModel("inputs live on different state spaces")


def _count(x, what: str, least: int) -> int:
    """x as an int, if a Python or NumPy integer of at least ``least``;
    else InvalidParameter(what), with x formatted into its ``{}``."""
    if isinstance(x, (int, np.integer)) and x >= least:
        return int(x)
    raise InvalidParameter(what.format(x))


def _time(t) -> float:
    """t as a float, if 0 <= t < inf (NaN fails); else InvalidTime."""
    if not 0.0 <= float(t) < math.inf:
        raise InvalidTime(f"time must be nonnegative and finite, got {t}")
    return float(t)


def _positive(x, what: str) -> float:
    """x as a float, if 0 < x < inf (NaN fails); else InvalidParameter."""
    if not 0.0 < float(x) < math.inf:
        raise InvalidParameter(f"{what} must be positive and finite, got {x}")
    return float(x)


def _power_rows(y0: np.ndarray, M: np.ndarray, K: int) -> np.ndarray:
    """The products y0 M^j, j = 0..K, stacked as (K + 1, *y0.shape), for a
    row y0 (n,) or a block of rows (r, n). Each doubling round fills the
    rows of y0 M^m.. as those of y0 M^0.. times M^m, one dot over all of
    them, then squares M^m."""
    Y = np.empty((K + 1,) + y0.shape)
    Y[0] = y0
    rows, j = Y.reshape(-1, len(M)), y0.size // len(M)  # j: the rows filled
    while j < len(rows):
        top = rows[j:2 * j]
        np.dot(rows[:len(top)], M, out=top)
        M, j = M.dot(M), 2 * j
    return Y


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
    """Rate matrix of a CTMC: nonnegative off-diagonal, zero row sums. It keeps
    its uniformization table for e^{tQ}, made on first use, and its last e^{tQ}."""

    space: StateSpace
    Q: np.ndarray

    def __post_init__(self):
        n, labels = self.space.size, self.space.labels
        Q = _admit(self.Q, "rate matrix", (n, n))
        negative = (Q < 0) & ~np.eye(n, dtype=bool)
        if negative.any():
            x, y = np.argwhere(negative)[0]
            raise InvalidRate(f"negative rate {Q[x, y]} at ({labels[x]} -> {labels[y]})")
        # relative to the row's rates, which round off at their own scale
        scale = np.maximum(1.0, np.abs(Q).sum(axis=1))
        if np.any(np.abs(Q.sum(axis=1)) > ROW_SUM_TOL * scale):
            raise MalformedModel("generator rows must sum to zero")
        object.__setattr__(self, "Q", Q)

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

    @cached_property
    def _uniformized(self) -> tuple[float, np.ndarray]:
        """(c, read-only (K + 1, n^2) rows B^k / k!), B = I + Q/c, c the largest
        exit rate (1 if none) and K the degree of ``_expm_generator`` at m = 1."""
        n, c = self.size, self.max_exit_rate or 1.0
        k, tail = n - 1, 1.0  # tail: 1 / k! over its value at k = n - 1
        while tail >= UNIFORMIZATION_TAIL:
            k, tail = k + 1, tail / (k + 1)
        terms = _power_rows(np.eye(n), np.eye(n) + self.Q / c, k)  # B^0..B^K
        terms[1:] *= np.cumprod(1.0 / np.arange(1, k + 1))[:, None, None]
        terms.setflags(write=False)
        return c, terms.reshape(k + 1, n * n)


@dataclass(frozen=True)
class Measure:
    """A probability vector on a state space."""

    space: StateSpace
    p: np.ndarray

    def __post_init__(self):
        p = _admit(self.p, "measure", (self.space.size,))
        if np.any(p < 0):
            raise MalformedModel("measure has negative entries")
        if abs(p.sum() - 1.0) > MEASURE_SUM_TOL:
            raise MalformedModel(f"measure sums to {p.sum()!r}, not 1")
        object.__setattr__(self, "p", p)

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
        object.__setattr__(self, "f", _admit(self.f, "potential", (self.space.size,)))

    @classmethod
    def zeros(cls, space: StateSpace) -> "Potential":
        return cls(space, np.zeros(space.size))


@dataclass(frozen=True)
class StochasticMatrix:
    """A row-stochastic matrix (transition probabilities)."""

    space: StateSpace
    P: np.ndarray

    def __post_init__(self):
        P = _admit(self.P, "transition matrix", (self.space.size,) * 2)
        if np.any(P < -PROBABILITY_SLACK) or np.any(P > 1 + PROBABILITY_SLACK):
            raise MalformedModel("transition probabilities outside [0, 1]")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > MEASURE_SUM_TOL:
            raise MalformedModel("transition matrix rows must sum to 1")
        object.__setattr__(self, "P", _frozen(np.clip(P, 0.0, 1.0)))


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
        if an off-diagonal entry is negative (from ``Generator``).
    MalformedModel
        if the matrix is not square, does not match the labels, or
        contains non-finite entries.
    """
    space = StateSpace(tuple(labels))
    Q = _admit(rates, "rate matrix", (space.size,) * 2)
    Q.setflags(write=True)  # _admit's own copy: its diagonal is rebuilt in place
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Generator(space, Q)


def _expm_generator(gen: Generator, t: float) -> np.ndarray:
    """e^{tQ} by uniformization, scaled and squared (Moler and Van Loan,
    SIAM Rev. 45, 2003). With c the largest exit rate, s = ceil(log2 ct)
    halvings (none when ct <= 1) and m = ct / 2^s <= 1, the series e^{-m}
    sum_k m^k B^k / k!, B = I + Q/c, gives e^{tQ / 2^s}, squared s times.
    Its terms B^k / k! through the degree K at which it stops at m = 1 are
    the generator's cached ``_uniformized``; each call sums all K + 1, but
    a repeat of the last t copies the last result. Every term is
    nonnegative and the series runs through n - 1 jumps, so every
    reachable transition is positive; the neglected tail is relative to
    that jump's weight (see UNIFORMIZATION_TAIL). The rows are normalized
    after the sum and after each square."""
    last_t, last = vars(gen).get("_last_expm", (None, None))  # one tuple, set below
    if t == last_t:
        return last.copy()
    c, terms = gen._uniformized
    if c * t == math.inf:
        raise InvalidParameter(f"time {t} times the largest exit rate {c} overflows")
    s = math.ceil(math.log2(c * t)) if c * t > 1.0 else 0
    P = (math.ldexp(c * t, -s) ** np.arange(len(terms)) @ terms).reshape(gen.Q.shape)
    P /= P.sum(axis=1, keepdims=True)
    for _ in range(s):
        P = P @ P
        P /= P.sum(axis=1, keepdims=True)
    object.__setattr__(gen, "_last_expm", (t, P))
    return P.copy()


def transition_matrix(gen: Generator, t: float) -> StochasticMatrix:
    """Transition probabilities e^{tQ} after time t >= 0."""
    return StochasticMatrix(gen.space, _expm_generator(gen, _time(t)))


def _reachable(adjacency: np.ndarray) -> np.ndarray:
    """Boolean closure: (x, y) is True when y can be reached from x in zero
    or more steps along the True entries of ``adjacency``."""
    reach = adjacency | np.eye(len(adjacency), dtype=bool)
    for _ in range((len(reach) - 2).bit_length()):  # paths of n - 1 steps
        reach = reach @ reach
    return reach


def _transport(supply, demand, allowed, tol):
    """Whether supply (m,) can meet demand (k,) along the allowed (m, k)
    pairs, uncapped, leaving at most the mass tol over and every positive
    entry with a usable pair (or, at most tol, an allowed one); and which
    pairs some such plan uses. Masses are on the scale of 1. One
    shortest-path augmenting max-flow: a pair is usable when it carries
    above tol times its smaller mass, or its target reaches its source in
    the residual graph."""
    m, k = allowed.shape
    flow, left, need = np.zeros((m, k)), supply.astype(float), demand.astype(float)
    while True:
        via_row, via_col = np.full(k, -1), np.where(left > 0.0, k, -1)  # k: the source
        rows, ends = np.flatnonzero(left > 0.0), np.empty(0, dtype=int)
        while rows.size and not ends.size:  # breadth-first, rows then columns
            cols = np.flatnonzero(allowed[rows].any(axis=0) & (via_row < 0))
            via_row[cols] = rows[allowed[np.ix_(rows, cols)].argmax(axis=0)]
            ends = cols[need[cols] > 0.0]
            carrying = flow[:, cols] > 0.0
            rows = np.flatnonzero(carrying.any(axis=1) & (via_col < 0))
            via_col[rows] = [cols[carrying[i].argmax()] for i in rows]
        if not ends.size:
            break
        r, c = [via_row[ends[0]]], [ends[0]]
        while via_col[r[-1]] != k:
            c.append(via_col[r[-1]])
            r.append(via_row[c[-1]])
        back = (r[:-1], c[1:])  # the pairs whose flow the path cancels
        delta = min(need[c[0]], left[r[-1]], flow[back].min(initial=math.inf))
        flow[r, c] += delta
        flow[back] -= delta
        left[r[-1]] -= delta
        need[c[0]] -= delta
    carried = flow > tol * np.minimum.outer(supply, demand)
    usable = allowed & (carried @ _reachable(carried.T @ allowed).T)
    # an entry of at most tol, which rounding may leave unrouted, needs only
    # an allowed pair
    served = [((w <= 0.0) | usable.any(a) | (w <= tol) & allowed.any(a)).all()
              for w, a in ((supply, 1), (demand, 0))]
    return max(left.sum(), need.sum()) <= tol and all(served), usable


def resolvent_matrix(gen: Generator, lam: float) -> np.ndarray:
    """(I - lam*Q)^{-1}: the law after an independent Exp(mean lam) time.

    The result is row-stochastic, and exactly zero where y cannot be
    reached from x: rounding leaves weight there, which log-space use
    multiplies by e^{f_y - f_x}.
    """
    lam = _positive(lam, "resolvent parameter")
    n = gen.size
    J = np.linalg.solve(np.eye(n) - lam * gen.Q, np.eye(n))
    return np.where(_reachable(gen.off_diagonal > 0.0), J, 0.0)


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
    _on(gen.space, mu)
    p = mu.p @ _expm_generator(gen, _time(t))
    return Measure(gen.space, _fix_probability_vector(p))


def relative_entropy(mu: Measure, nu: Measure) -> float:
    """Kullback-Leibler divergence sum_x mu_x log(mu_x / nu_x).

    Returns +inf when mu puts mass where nu has none; 0*log(0) counts as 0.
    """
    _on(mu.space, nu)
    return float(_relative_entropy(mu.p, nu.p))


def _relative_entropy(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p | q) along the last axis of arrays of laws."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log(p / q), 0.0).sum(axis=-1)
