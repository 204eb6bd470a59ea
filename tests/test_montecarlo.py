"""Monte Carlo harness: empirical trajectories and decay-rate estimation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmc_ldp import (
    BallEvent,
    DecayEstimate,
    InsufficientSampling,
    InvalidParameter,
    MalformedModel,
    Measure,
    ball_infimum_rate,
    conditional_rate,
    empirical_trajectory,
    estimate_event_decay,
    evolve_law,
    validate_generator,
)
from ctmc_ldp import montecarlo
from conftest import (absorbing_chain, random_chain, random_law,
                      random_measure, random_model)


class TestEmpiricalTrajectory:
    def test_single_copy_point_masses(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        grid = empirical_trajectory(gen, mu0, 1, 1.0, 20, seed=5)
        assert np.all(np.isin(grid.measures, (0.0, 1.0)))

    def test_seed_reproducibility_bitwise(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        g1 = empirical_trajectory(gen, mu0, 300, 1.0, 10, seed=77)
        g2 = empirical_trajectory(gen, mu0, 300, 1.0, 10, seed=77)
        assert np.array_equal(g1.measures, g2.measures)

    def test_initial_node_near_initial_law(self):
        gen = absorbing_chain()
        mu0 = Measure(gen.space, [0.65, 0.35])
        n = 10_000
        grid = empirical_trajectory(gen, mu0, n, 0.5, 4, seed=11)
        # binomial-scale deviation at time zero
        assert np.abs(grid.measures[0] - mu0.p).max() <= 3.0 / math.sqrt(n)

    def test_law_of_large_numbers(self):
        gen = absorbing_chain()
        mu0 = Measure.dirac(gen.space, "a")
        n = 10_000
        grid = empirical_trajectory(gen, mu0, n, 1.0, 5, seed=13)
        for k in (2, 5):
            expected = evolve_law(gen, mu0, k * grid.dt).p
            assert np.abs(grid.measures[k] - expected).sum() <= 0.05

    def test_invalid_copies(self, rng):
        gen = random_model(rng)
        with pytest.raises(InvalidParameter):
            empirical_trajectory(gen, random_measure(rng, gen), 0, 1.0, 5, seed=1)

    @pytest.mark.parametrize("K", [0, -1])
    def test_invalid_grid_rejected_before_simulating(self, rng, monkeypatch, K):
        gen = random_model(rng)

        def simulate(*args):
            raise AssertionError("copies simulated")

        monkeypatch.setattr(montecarlo, "_run_copies", simulate)
        with pytest.raises(InvalidParameter):
            empirical_trajectory(gen, random_measure(rng, gen), 10, 1.0, K,
                                 seed=1)

    def test_negative_seed_rejected(self, rng):
        gen = random_model(rng)
        with pytest.raises(InvalidParameter):
            empirical_trajectory(gen, random_measure(rng, gen), 10, 1.0, 5,
                                 seed=-3)


class TestWorkBound:
    # largest exit rate 2: 10 copies to t = 0.5 expect 10 jumps, 100
    # batches of 10 and 20 copies to t = 0.5 expect 3,000, and one copy to
    # t = 0.5 expects one sampler round
    GEN = validate_generator(["a", "b"], [[0.0, 2.0], [1.0, 0.0]])

    def runs(self):
        mu0 = Measure.dirac(self.GEN.space, "a")
        yield "JUMPS", 10.0, lambda: empirical_trajectory(self.GEN, mu0, 10, 0.5, 5, seed=1)
        yield "JUMPS", 3000.0, lambda: estimate_event_decay(
            self.GEN, mu0, BallEvent(mu0, 0.5, 1.5), [10, 20], 100, seed=1)
        yield "ROUNDS", 1.0, lambda: empirical_trajectory(self.GEN, mu0, 1, 0.5, 5, seed=1)

    def test_expected_jumps_at_the_bound_run(self, monkeypatch):
        for work, bound, run in self.runs():
            monkeypatch.setattr(montecarlo, f"MAX_EXPECTED_{work}", bound)
            run()

    def test_expected_jumps_past_the_bound_refused_before_drawing(self, monkeypatch):
        def simulate(*args, **kwargs):
            raise AssertionError("copies simulated")

        monkeypatch.setattr(montecarlo, "_run_copies", simulate)
        for work, bound, run in self.runs():
            monkeypatch.setattr(montecarlo, f"MAX_EXPECTED_{work}", bound * (1 - 1e-12))
            with pytest.raises(InvalidParameter, match=work.lower()):
                run()


import functools


@functools.lru_cache(maxsize=1)
def _absorbing_benchmark():
    gen = absorbing_chain()
    da = Measure.dirac(gen.space, "a")
    est = estimate_event_decay(gen, da, BallEvent(da, 0.5, 0.5),
                               [20, 40, 80, 120], 30_000, seed=1234)
    ref = ball_infimum_rate(gen, da, da, 0.5, 0.5)
    return est, ref


class TestEstimateEventDecay:
    @pytest.mark.parametrize("case, error", [
        ("n values not increasing", MalformedModel),
        ("positive log probability", MalformedModel),
        ("one copy count", InvalidParameter),
        ("copy counts not increasing", InvalidParameter),
        ("event at t = 0", InvalidParameter), ("ball of radius 0", InvalidParameter)])
    def test_invalid_input_rejected(self, case, error):
        gen = absorbing_chain()
        mu0 = Measure.dirac(gen.space, "a")
        call = {
            "n values not increasing": lambda: DecayEstimate(
                (20, 10), (-1.0, -2.0), 0.1, 0.01, (5, 3), 100, 0),
            "positive log probability": lambda: DecayEstimate(
                (10, 20), (0.5, -2.0), 0.1, 0.01, (5, 3), 100, 0),
            "one copy count": lambda: estimate_event_decay(
                gen, mu0, BallEvent(mu0, 0.5, 0.5), [10], 100, seed=1),
            "copy counts not increasing": lambda: estimate_event_decay(
                gen, mu0, BallEvent(mu0, 0.5, 0.5), [20, 10], 100, seed=1),
            "event at t = 0": lambda: estimate_event_decay(
                gen, mu0, BallEvent(mu0, 0.0, 0.5), [10, 20], 100, seed=1),
            "ball of radius 0": lambda: ball_infimum_rate(gen, mu0, mu0, 0.5, 0.0),
        }[case]
        with pytest.raises(error):
            call()

    def test_typical_event_has_no_decay(self, rng):
        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        t = 0.4
        event = BallEvent(evolve_law(gen, mu0, t), t, 1.0)
        est = estimate_event_decay(gen, mu0, event, [30, 60, 120], 250, seed=3)
        assert abs(est.slope) <= 2 * est.stderr

    def test_absorbing_benchmark_slope_matches_ball_rate(self):
        # observable scale: survival event with a wide ball; the fitted
        # slope tracks the ball-corrected analytic rate within 25%
        est, ref = _absorbing_benchmark()
        assert ref == pytest.approx(0.04585, abs=2e-4)
        assert abs(est.slope - ref) / ref <= 0.25
        assert all(h > 0 for h in est.hits)

    def test_upper_bound_direction(self):
        # per-n rates stay below the ball rate plus the finite-n
        # prefactor allowance (method-of-types slack) and noise
        est, ref = _absorbing_benchmark()
        for n, lp in zip(est.n_values, est.log_probs):
            slack = 2 * math.log(n + 1) / n
            assert -lp / n <= ref + slack + 3 * est.stderr

    def test_shrinking_radius_raises_slope(self):
        gen = absorbing_chain()
        da = Measure.dirac(gen.space, "a")
        t = 0.5
        slopes = []
        for delta in (0.8, 0.65, 0.5):
            est = estimate_event_decay(gen, da, BallEvent(da, t, delta),
                                       [20, 40, 80], 20_000, seed=99)
            slopes.append(est.slope)
        assert slopes[0] < slopes[1] < slopes[2]

    @pytest.mark.parametrize("n_values", [(10, 20), (10, 20, 40)])
    def test_slope_is_the_weighted_least_squares_fit(self, n_values):
        # the fit of -log p_hat against n, weighted by 1/sigma^2 with sigma
        # the Wilson half-width, in closed form: slope sum w (x - xbar)(y -
        # ybar) / sxx, standard error 1/sqrt(sxx); two points fit exactly
        gen = absorbing_chain()
        da = Measure.dirac(gen.space, "a")
        est = estimate_event_decay(gen, da, BallEvent(da, 0.5, 0.6), list(n_values),
                                   2000, seed=17)
        x, y = np.array(n_values, dtype=float), -np.array(est.log_probs)
        w = np.array([montecarlo._wilson_log_sigma(h, 2000) for h in est.hits]) ** -2.0
        xbar, ybar = (w * x).sum() / w.sum(), (w * y).sum() / w.sum()
        sxx = (w * (x - xbar) ** 2).sum()
        assert est.slope == pytest.approx((w * (x - xbar) * (y - ybar)).sum() / sxx,
                                          rel=1e-12, abs=0.0)
        assert est.stderr == pytest.approx(sxx ** -0.5, rel=1e-12, abs=0.0)
        if len(n_values) == 2:
            assert est.slope == pytest.approx((y[1] - y[0]) / (x[1] - x[0]), rel=1e-12)

    def test_zero_hits_raises_with_partial(self):
        gen = absorbing_chain()
        da = Measure.dirac(gen.space, "a")
        event = BallEvent(da, 0.5, 0.05)  # needs 97.5% survivors
        with pytest.raises(InsufficientSampling) as err:
            estimate_event_decay(gen, da, event, [50, 100], 200, seed=0)
        assert err.value.partial is not None
        assert err.value.partial["hits"][-1] == 0

    def test_reproducible_bitwise(self, rng):
        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        event = BallEvent(evolve_law(gen, mu0, 0.3), 0.3, 0.9)
        e1 = estimate_event_decay(gen, mu0, event, [20, 40], 150, seed=8)
        e2 = estimate_event_decay(gen, mu0, event, [20, 40], 150, seed=8)
        assert e1 == e2

    def test_calibration_zero_rate_events(self, rng):
        # slope consistent with zero for >= 95% of random model draws
        passes = 0
        for i in range(20):
            gen = random_model(rng, n_max=4)
            mu0 = random_measure(rng, gen, strict=False)
            t = 0.4
            event = BallEvent(evolve_law(gen, mu0, t), t, 1.0)
            est = estimate_event_decay(gen, mu0, event, [30, 60, 120], 250,
                                       seed=5000 + i)
            passes += abs(est.slope) <= 2 * est.stderr
        assert passes >= 19

    def test_copy_count_stream_ignores_other_counts(self, rng):
        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        event = BallEvent(evolve_law(gen, mu0, 0.3), 0.3, 0.5)
        e1 = estimate_event_decay(gen, mu0, event, [10, 20], 200, seed=4)
        e2 = estimate_event_decay(gen, mu0, event, [10, 40], 200, seed=4)
        e3 = estimate_event_decay(gen, mu0, event, [5, 10], 200, seed=4)
        assert e1.hits[0] == e2.hits[0] == e3.hits[1]

    def test_negative_seed_rejected(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        with pytest.raises(InvalidParameter):
            estimate_event_decay(gen, mu0, BallEvent(mu0, 0.5, 0.5), [10, 20],
                                 100, seed=-3)

    def test_reps_floor_enforced(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        with pytest.raises(InvalidParameter):
            estimate_event_decay(gen, mu0, BallEvent(mu0, 0.5, 0.5), [10], 50,
                                 seed=1)


class TestBallInfimumRate:
    def test_zero_inside_ball(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        t = 0.6
        center = evolve_law(gen, mu0, t)
        assert ball_infimum_rate(gen, mu0, center, t, 0.2) == 0.0

    def test_projection_reduces_rate(self, rng):
        for _ in range(5):
            gen = random_model(rng, n_max=3)
            mu0 = random_measure(rng, gen)
            nu = random_measure(rng, gen)
            t = 0.5
            full = conditional_rate(gen, mu0, nu, t).value
            balled = ball_infimum_rate(gen, mu0, nu, t, 0.1)
            assert balled <= full + 1e-9

    def test_one_exponential_per_call(self, rng, monkeypatch):
        # the evolved law and the rate at the ball boundary share e^{tQ}
        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        nu = Measure.dirac(gen.space, 0)
        calls = []
        expm = montecarlo._expm_generator
        monkeypatch.setattr(montecarlo, "_expm_generator",
                            lambda gen, t: calls.append(t) or expm(gen, t))
        balled = ball_infimum_rate(gen, mu0, nu, 0.5, 0.1)
        assert calls == [0.5]
        assert 0.0 < balled <= conditional_rate(gen, mu0, nu, 0.5).value
        for t in (0.0, -0.5):
            with pytest.raises(InvalidParameter):
                ball_infimum_rate(gen, mu0, mu0, t, 0.1)


class TestSamplerConsistency:
    def test_trajectory_sampler_matches_evolved_law(self):
        # the per-path sampler against the exact marginal, 3-sigma band
        gen = absorbing_chain()
        da = Measure.dirac(gen.space, "a")
        grid = empirical_trajectory(gen, da, 20_000, 0.5, 1, seed=22)
        expected = evolve_law(gen, da, 0.5).p
        sigma = math.sqrt(expected[0] * (1 - expected[0]) / 20_000)
        assert abs(grid.measures[-1][0] - expected[0]) <= 3 * sigma

    def test_every_node_matches_evolved_law(self):
        # a chain with no absorbing state: each node's marginal within
        # 5 sigma plus one copy of mu0 P(t)
        gen = validate_generator(["x", "y", "z"], [[0.0, 1.0, 0.5],
                                                   [0.3, 0.0, 2.0],
                                                   [1.5, 0.4, 0.0]])
        mu0 = Measure(gen.space, [0.6, 0.3, 0.1])
        n = 20_000
        grid = empirical_trajectory(gen, mu0, n, 1.5, 6, seed=23)
        for t, emp in zip(grid.node_times, grid.measures):
            p = evolve_law(gen, mu0, t).p
            sigma = np.sqrt(p * (1 - p) / n)
            assert np.all(np.abs(emp - p) <= 5 * sigma + 1 / n)

    def test_batch_sampler_matches_evolved_law(self):
        # the decay estimator's vectorized clock sampler, cross-checked by
        # counting survival hits with a tight point event at the survivors'
        # own frequency: event probability at n=1 equals the marginal mass
        gen = absorbing_chain()
        da = Measure.dirac(gen.space, "a")
        reps = 20_000
        est = estimate_event_decay(gen, da, BallEvent(da, 0.5, 0.5),
                                   [1, 2], reps, seed=21)
        # at n=1 the ball contains only the all-at-a configuration
        p_surv = math.exp(-0.5)
        sigma = math.sqrt(p_surv * (1 - p_surv) / reps)
        assert abs(est.hits[0] / reps - p_surv) <= 3 * sigma

    def test_start_law_is_exact_where_nothing_jumps(self):
        # on the zero generator every copy keeps its start state: the hit
        # count at n is binomial in the exact Multinomial(n, mu0) ball
        # probability, and the empirical path never moves
        gen = validate_generator(["x", "y", "z"], np.zeros((3, 3)))
        mu0 = Measure(gen.space, [0.5, 0.3, 0.2])
        target = Measure(gen.space, [0.5, 0.5, 0.0])
        reps = 4_000
        est = estimate_event_decay(gen, mu0, BallEvent(target, 0.7, 0.6),
                                   [2, 4], reps, seed=31)
        for n, hits in zip(est.n_values, est.hits):
            p = sum(math.factorial(n) / math.prod(map(math.factorial, k))
                    * math.prod(mu0.p ** np.array(k))
                    for k in itertools.product(range(n + 1), repeat=3)
                    if sum(k) == n
                    and np.abs(np.array(k) / n - target.p).sum() < 0.6)
            assert abs(hits - reps * p) <= 4 * math.sqrt(reps * p * (1 - p))
        grid = empirical_trajectory(gen, mu0, 500, 1.0, 8, seed=32)
        assert np.all(grid.measures == grid.measures[0])

    def test_law_summing_to_one_within_tolerance(self):
        # a law the validator accepts but whose mass exceeds one by a
        # rounding error is drawn from, not refused
        gen = absorbing_chain()
        mu0 = Measure(gen.space, [1.0 + 5e-11, 0.0])
        grid = empirical_trajectory(gen, mu0, 50, 0.5, 4, seed=33)
        assert np.array_equal(grid.measures[0], [1.0, 0.0])
        da = Measure.dirac(gen.space, "a")
        est = estimate_event_decay(gen, mu0, BallEvent(da, 0.5, 1.5),
                                   [5, 10], 100, seed=34)
        assert all(h > 0 for h in est.hits)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("random", "stiff", "sparse")))
    def test_every_node_counts_every_copy(self, seed, kind):
        # n times each node's measure is a tally of the n copies; the first
        # node is the start tally, so no jump is binned a node early
        rng = np.random.default_rng(seed)
        gen = random_chain(rng, kind)
        mu0 = random_law(rng, gen)
        n = int(rng.integers(1, 60))
        t1 = float(rng.uniform(0.05, 0.5))
        grid = empirical_trajectory(gen, mu0, n, t1, int(rng.integers(1, 12)),
                                    seed=seed)
        counts = np.rint(grid.measures * n)
        assert np.allclose(grid.measures * n, counts, rtol=0.0, atol=1e-9)
        assert np.all(counts >= 0) and np.all(counts.sum(axis=1) == n)
        # the stream's first draw is the start counts
        rng = montecarlo._stream(seed, n)
        starts = rng.multinomial(n, mu0.p / mu0.p.sum())
        assert np.array_equal(counts[0], starts)
