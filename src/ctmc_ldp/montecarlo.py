"""Monte Carlo verification of exponential decay rates.

Simulates independent copies of the jump process (never touching the
matrix-exponential machinery, so the comparison against computed rates is a
genuinely independent route), builds empirical measure trajectories, and
estimates the decay of rare-event probabilities for events of the form
"the empirical measure of n copies lies within an l1 ball at time t".

Seeding contract: a call with copy count n simulates all its copies, in a
fixed order, from the one stream ``SeedSequence(seed, spawn_key=(n,))``, so
results are bitwise reproducible from the seed and the estimate at one copy
count does not depend on the other counts requested. The copies of a batch
are exchangeable, so its start counts are one multinomial draw from mu0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InsufficientSampling, InvalidParameter, MalformedModel
from .lagrangian import SolverOptions
from .markov import Generator, Measure, _count, _expm_generator, _on, _positive
from .rates import PathGrid, _conditional_rates

# copies simulated at once: bounds the sampler's memory whatever the number
# of batches (a single batch of more copies is simulated alone)
_BLOCK_COPIES = 1 << 14
# expected jumps past which a run is refused: about 5 s from 1,000 copies up
# (2e7 jumps/s), longer with fewer copies, since each round jumps every copy due
MAX_EXPECTED_JUMPS = 1e8
MAX_EXPECTED_ROUNDS = 1e6  # likewise the rounds per copy: about 15 us each, so 15 s


class BallEvent(NamedTuple):
    """Empirical measure within l1 distance ``radius`` of ``target`` at ``time``."""

    target: Measure
    time: float
    radius: float


def _stream(seed: int, n: int) -> np.random.Generator:
    seed = _count(seed, "seed must be nonnegative, got {}", 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))


def _jump_law(gen: Generator, copies: int, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean holding times, and each state's cumulative embedded-chain row (0 if
    absorbing) less its last entry as one column, for ``_run_copies`` to run
    ``copies`` copies up to ``horizon``, if they expect MAX_EXPECTED_JUMPS
    jumps and MAX_EXPECTED_ROUNDS rounds or fewer; else InvalidParameter."""
    rounds = gen.max_exit_rate * horizon  # per copy: each round jumps every copy due
    for expected, bound, what in ((copies * rounds, MAX_EXPECTED_JUMPS, "jumps"),
                                  (rounds, MAX_EXPECTED_ROUNDS, "sampler rounds per copy")):
        if expected > bound:
            raise InvalidParameter(f"{copies} copies up to time {horizon:g} expect about "
                                   f"{expected:.3g} {what}, over {bound:.0e}")
    rates, off = gen.exit_rates, gen.off_diagonal
    hold = np.divide(1.0, rates, out=np.full(gen.size, np.inf), where=rates > 0)
    total = off.sum(axis=1)[:, None]
    jump = np.divide(off, total, out=np.zeros_like(off), where=total > 0)
    return hold, np.cumsum(jump, axis=1)[:, :-1].T.copy()


def _run_copies(law, mu0: Measure, n: int, batches: int, nodes, rng,
                tally=None) -> np.ndarray:
    """States at time nodes[-1] of ``batches`` batches of n copies from mu0,
    for the ``_jump_law`` ``law`` of a generator.

    Each round jumps every copy due before then by the embedded chain. The
    start counts go to row 0 of ``tally``, a flat ``(len(nodes), size)``
    table, if one is given, and each jump adds +1 at its new state and -1
    at its old one to the row of the first node after it.
    """
    hold, cum_jump = law
    size = hold.size
    counts = rng.multinomial(n, mu0.p / mu0.p.sum(), size=batches)
    states = np.repeat(np.tile(np.arange(size), batches), counts.ravel())
    if tally is not None:
        tally[:size] += counts.sum(axis=0)
    clocks = rng.standard_exponential(states.size) * hold[states]
    due = np.flatnonzero(clocks < nodes[-1])
    at = clocks[due]                            # next jump times of the due
    while due.size:
        old = states[due]
        u = rng.random(due.size)
        states[due] = new = (u >= cum_jump.take(old, axis=1)).sum(axis=0)
        if tally is not None:
            row = nodes.searchsorted(at, side="right") * size
            tally += np.bincount(row + new, minlength=tally.size)
            tally -= np.bincount(row + old, minlength=tally.size)
        at += rng.standard_exponential(due.size) * hold[new]
        keep = at < nodes[-1]
        due, at = due.compress(keep), at.compress(keep)
    return states


def empirical_trajectory(gen: Generator, mu0: Measure, n: int,
                         t1: float, K: int, seed: int) -> PathGrid:
    """Empirical measure of n independent copies at K+1 uniform grid nodes
    on [0, t1], every copy started from mu0 at time 0. All copies draw from
    the stream keyed by n; the result is deterministic given the seed.
    """
    n = _count(n, "need at least one copy, got {}", 1)
    K = _count(K, "need at least one time interval, got K={}", 1)
    _on(gen.space, mu0)
    nodes = _positive(t1, "t1") / K * np.arange(K + 1)
    law = _jump_law(gen, n, nodes[-1])
    rng = _stream(seed, n)
    tally = np.zeros((K + 1) * gen.size, dtype=np.int64)
    for first in range(0, n, _BLOCK_COPIES):
        m = min(_BLOCK_COPIES, n - first)
        _run_copies(law, mu0, m, 1, nodes, rng, tally)
    counts = tally.reshape(K + 1, gen.size).cumsum(axis=0)
    return PathGrid(gen.space, 0.0, t1, counts / n)


@dataclass(frozen=True)
class DecayEstimate:
    """Fitted exponential decay of a rare-event probability in n."""

    n_values: tuple[int, ...]
    log_probs: tuple[float, ...]
    slope: float
    stderr: float
    hits: tuple[int, ...]
    reps: int
    seed: int

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise MalformedModel("n values must be strictly increasing")
        if any(lp > 0 for lp in self.log_probs):
            raise MalformedModel("log probabilities must be nonpositive")


def _wilson_log_sigma(hits: int, reps: int, z: float = 1.959964) -> float:
    """Half-width of the Wilson interval for log p, in standard errors."""
    phat = hits / reps
    denom = 1.0 + z * z / reps
    center = (phat + z * z / (2 * reps)) / denom
    half = z * math.sqrt(phat * (1 - phat) / reps + z * z / (4 * reps * reps)) / denom
    lo = max(center - half, 1e-300)
    hi = min(center + half, 1.0)
    return (math.log(hi) - math.log(lo)) / (2 * z)


def estimate_event_decay(gen: Generator, mu0: Measure, event: BallEvent,
                         n_values, reps: int, seed: int) -> DecayEstimate:
    """Estimate the decay rate -(1/n) log P[empirical measure in the ball].

    For each n the probability is estimated over ``reps`` independent
    batches of n copies; the slope of -log(p_hat) against n is fitted by
    least squares weighted with Wilson-interval error bars.

    Raises
    ------
    InsufficientSampling
        if some n records zero hits; the exception carries the partial
        per-n results.
    """
    reps = _count(reps, "need at least 100 batches, got {}", 100)
    order = "n values must be positive and strictly increasing"
    n_values = tuple(_count(v, order, 1) for v in n_values)
    if len(n_values) < 2:
        raise InvalidParameter("need at least two copy counts to fit a slope")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise InvalidParameter(order)
    _on(gen.space, mu0, event.target)
    target = event.target.p
    horizon = _positive(event.time, "event time")
    radius = _positive(event.radius, "ball radius")

    hits, law = [], _jump_law(gen, reps * sum(n_values), horizon)
    for i_n, n in enumerate(n_values):
        rng = _stream(seed, n)
        per_block = max(1, _BLOCK_COPIES // n)
        count = 0
        for first in range(0, reps, per_block):
            batches = min(per_block, reps - first)
            states = _run_copies(law, mu0, n, batches, (horizon,), rng)
            counts = np.bincount(np.repeat(np.arange(batches) * gen.size, n)
                                 + states, minlength=batches * gen.size)
            emp = counts.reshape(batches, gen.size) / n
            count += int((np.abs(emp - target).sum(axis=1) < radius).sum())
        hits.append(count)
        if count == 0:
            partial = {
                "n_values": n_values[:i_n + 1],
                "hits": tuple(hits),
                "log_probs": tuple(
                    math.log(h / reps) for h in hits[:-1]),
            }
            raise InsufficientSampling(
                f"zero hits out of {reps} batches at n={n}; "
                "the event is too rare for naive sampling at this budget",
                partial=partial)

    log_probs = [math.log(h / reps) for h in hits]
    sigmas = np.array([_wilson_log_sigma(h, reps) for h in hits])
    # the n values are distinct, so the fit has full rank (no RankWarning)
    (slope, _), cov = np.polyfit(n_values, -np.array(log_probs), 1, w=1.0 / sigmas,
                                 cov="unscaled")
    return DecayEstimate(n_values, tuple(log_probs), float(slope),
                         math.sqrt(cov[0, 0]), tuple(hits), reps, seed)


def ball_infimum_rate(gen: Generator, mu0: Measure, nu: Measure, t: float,
                      delta: float,
                      opts: SolverOptions | None = None) -> float:
    """Upper bound for the infimum of I_t(.|mu0) over the l1 ball around nu.

    The rate is convex and vanishes at the evolved law, so evaluating it at
    the projection of nu onto the ball boundary along the segment toward
    the evolved law bounds the ball infimum from above (and is exact when
    the minimizer lies on that segment).
    """
    delta = _positive(delta, "ball radius")
    _on(gen.space, mu0, nu)
    P = _expm_generator(gen, _positive(t, "time"))
    center = mu0.p @ P
    dist = float(np.abs(center - nu.p).sum())
    if dist <= delta:
        return 0.0
    boundary = nu.p + delta / dist * (center - nu.p)
    return float(_conditional_rates(mu0.p[None], boundary[None], P[None], opts)[0][0])
