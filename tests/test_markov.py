"""Linear Markov machinery: generators, semigroup, resolvent, entropy, sampling."""

import math

import numpy as np
import pytest

from ctmc_ldp import (
    Generator,
    InvalidParameter,
    InvalidRate,
    InvalidTime,
    MalformedModel,
    Measure,
    StateSpace,
    evolve_law,
    relative_entropy,
    resolvent_matrix,
    sample_jump_path,
    transition_matrix,
    validate_generator,
)
from conftest import absorbing_chain, random_measure, random_model, symmetric_chain


class TestValidateGenerator:
    def test_diagonal_recomputed(self):
        gen = validate_generator(["a", "b"], [[99.0, 1.0], [0.0, -5.0]])
        assert np.allclose(gen.Q, [[-1.0, 1.0], [0.0, 0.0]])

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidRate):
            validate_generator(["a", "b"], [[0.0, -1.0], [0.0, 0.0]])

    def test_three_state_uniform_rates(self):
        gen = validate_generator(["a", "b", "c"], np.ones((3, 3)))
        assert np.allclose(np.diag(gen.Q), [-2.0, -2.0, -2.0])

    def test_nan_rejected(self):
        with pytest.raises(MalformedModel):
            validate_generator(["a", "b"], [[0.0, np.nan], [0.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(MalformedModel):
            validate_generator(["a", "b"], [[0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(MalformedModel):
            validate_generator(["a", "a"], [[0.0, 1.0], [0.0, 0.0]])

    def test_fast_rates_round_off_within_the_row_check(self):
        # the recomputed diagonal leaves the first row summing to a few
        # ulps of its rates, far above 1e-12 in absolute terms
        gen = validate_generator(["a", "b", "c"], [[0.0, 9271.7, 7845.6],
                                                   [128.3, 0.0, 98.1],
                                                   [8274.7, 1103.7, 0.0]])
        assert gen.exit_rates[0] == pytest.approx(17117.3)

    def test_row_off_at_fast_rates_rejected(self):
        Q = np.array([[-2e4, 1e4, 1e4], [1e4, -2e4, 1e4], [1e4, 1e4, -2e4]])
        Q[0, 1] += 1e-6
        with pytest.raises(MalformedModel, match="sum to zero"):
            Generator(StateSpace(("a", "b", "c")), Q)


class TestTransitionMatrix:
    def test_time_zero_is_identity(self, rng):
        gen = random_model(rng)
        assert np.allclose(transition_matrix(gen, 0.0).P, np.eye(gen.size))

    def test_symmetric_two_state_closed_form(self):
        # Kolmogorov equations for the unit-rate symmetric chain give
        # P[a][a] = (1 + e^{-2t}) / 2.
        gen = symmetric_chain()
        for t in (0.1, 0.5, 1.0, 2.5):
            expected = 0.5 * (1.0 + math.exp(-2.0 * t))
            assert transition_matrix(gen, t).P[0, 0] == pytest.approx(
                expected, abs=1e-12)

    def test_absorbing_survival_probability(self):
        # Staying at a means one Exp(1) clock has not rung: P[a][a] = e^{-t}.
        gen = absorbing_chain()
        assert transition_matrix(gen, math.log(2.0)).P[0, 0] == pytest.approx(
            0.5, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidTime):
            transition_matrix(absorbing_chain(), -0.1)

    def test_semigroup_law(self, rng):
        for _ in range(20):
            gen = random_model(rng)
            t, s = rng.uniform(0.0, 2.0, size=2)
            lhs = transition_matrix(gen, t + s).P
            rhs = transition_matrix(gen, t).P @ transition_matrix(gen, s).P
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_rows_stochastic_even_for_large_times(self, rng):
        gen = random_model(rng, rate_high=3.0)
        P = transition_matrix(gen, 50.0).P
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-10
        assert P.min() >= 0.0


class TestResolvent:
    def test_symmetric_hand_inversion(self):
        # (I - Q)^{-1} for the symmetric chain is [[2,1],[1,2]]/3.
        J = resolvent_matrix(symmetric_chain(), 1.0)
        assert np.allclose(J, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-14)

    def test_small_lambda_approaches_identity(self, rng):
        gen = random_model(rng)
        for lam in (1e-3, 1e-5, 1e-7):
            assert np.abs(resolvent_matrix(gen, lam) - np.eye(gen.size)).max() \
                <= 2 * lam * gen.max_exit_rate

    def test_rows_sum_to_one(self, rng):
        for _ in range(10):
            gen = random_model(rng)
            lam = float(rng.uniform(0.05, 2.0))
            J = resolvent_matrix(gen, lam)
            assert np.abs(J.sum(axis=1) - 1.0).max() <= 1e-10

    def test_inversion_residual(self, rng):
        for _ in range(10):
            gen = random_model(rng)
            lam = float(rng.uniform(0.01, 0.5 / gen.max_exit_rate))
            J = resolvent_matrix(gen, lam)
            res = (np.eye(gen.size) - lam * gen.Q) @ J - np.eye(gen.size)
            assert np.abs(res).max() <= 1e-10

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(InvalidParameter):
            resolvent_matrix(symmetric_chain(), 0.0)
        with pytest.raises(InvalidParameter):
            resolvent_matrix(symmetric_chain(), -1.0)


class TestEvolveLaw:
    def test_time_zero_identity(self, rng):
        gen = random_model(rng)
        mu = random_measure(rng, gen)
        assert np.allclose(evolve_law(gen, mu, 0.0).p, mu.p)

    def test_symmetric_dirac_closed_form(self):
        gen = symmetric_chain()
        mu = Measure.dirac(gen.space, "a")
        for t in (0.2, 0.9, 1.7):
            out = evolve_law(gen, mu, t)
            assert out.p[0] == pytest.approx(0.5 * (1 + math.exp(-2 * t)), abs=1e-12)
            assert out.p[1] == pytest.approx(0.5 * (1 - math.exp(-2 * t)), abs=1e-12)

    def test_stationary_law_fixed(self):
        gen = symmetric_chain()
        mu = Measure.uniform(gen.space)
        for t in (0.3, 1.0, 4.0):
            assert np.abs(evolve_law(gen, mu, t).p - 0.5).max() <= 1e-12

    def test_output_valid_measure(self, rng):
        for _ in range(25):
            gen = random_model(rng)
            mu = random_measure(rng, gen, strict=False)
            out = evolve_law(gen, mu, float(rng.uniform(0, 4)))
            assert out.p.min() >= 0.0
            assert abs(out.p.sum() - 1.0) <= 1e-10

    def test_negative_time_rejected(self):
        gen = symmetric_chain()
        with pytest.raises(InvalidTime):
            evolve_law(gen, Measure.uniform(gen.space), -0.5)


class TestRelativeEntropy:
    def test_identical_measures(self, rng):
        gen = random_model(rng)
        mu = random_measure(rng, gen)
        assert relative_entropy(mu, mu) == 0.0

    def test_dirac_against_uniform(self):
        gen = symmetric_chain()
        h = relative_entropy(Measure.dirac(gen.space, "a"),
                             Measure.uniform(gen.space))
        assert h == pytest.approx(math.log(2.0), abs=1e-12)
        assert h == pytest.approx(0.693147, abs=1e-6)

    def test_disjoint_supports_infinite(self):
        gen = symmetric_chain()
        da = Measure.dirac(gen.space, "a")
        db = Measure.dirac(gen.space, "b")
        assert relative_entropy(da, db) == math.inf

    def test_pinsker_inequality(self, rng):
        # entropy dominates half the squared l1 distance
        for _ in range(50):
            gen = random_model(rng)
            mu = random_measure(rng, gen, strict=False)
            nu = random_measure(rng, gen, strict=True)
            h = relative_entropy(mu, nu)
            assert h >= 0.5 * np.abs(mu.p - nu.p).sum() ** 2 - 1e-12


class TestSampleJumpPath:
    def test_absorbing_state_stops(self):
        path = sample_jump_path(absorbing_chain(), "b", 5.0, seed=1)
        assert path.n_jumps == 0
        assert path.states.tolist() == [1]

    def test_deterministic_given_seed(self):
        gen = symmetric_chain()
        p1 = sample_jump_path(gen, "a", 10.0, seed=42)
        p2 = sample_jump_path(gen, "a", 10.0, seed=42)
        assert np.array_equal(p1.jump_times, p2.jump_times)
        assert np.array_equal(p1.states, p2.states)

    def test_survival_probability_matches_exponential(self):
        # empirical no-jump frequency vs e^{-t}, binomial 3-sigma band
        gen = absorbing_chain()
        t = 0.5
        n = 100_000
        rng = np.random.default_rng(7)
        survived = sum(
            sample_jump_path(gen, 0, t, rng).n_jumps == 0 for _ in range(n))
        p = math.exp(-t)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(survived / n - p) <= 3 * sigma

    def test_path_invariants(self, rng):
        for _ in range(20):
            gen = random_model(rng)
            path = sample_jump_path(gen, 0, 2.0, rng)
            if path.n_jumps:
                assert np.all(np.diff(path.jump_times) > 0)
                assert path.jump_times[-1] <= path.horizon
                assert np.all(path.states[1:] != path.states[:-1])

    def test_states_at_queries(self):
        gen = absorbing_chain()
        rng = np.random.default_rng(3)
        path = sample_jump_path(gen, "a", 4.0, rng)
        if path.n_jumps:
            tj = path.jump_times[0]
            assert path.states_at([tj / 2])[0] == 0
            assert path.states_at([tj + 1e-9])[0] == 1

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(InvalidParameter):
            sample_jump_path(absorbing_chain(), "a", 0.0, seed=0)


class TestTypeInvariants:
    def test_measure_rejects_bad_vectors(self):
        space = symmetric_chain().space
        with pytest.raises(MalformedModel):
            Measure(space, [0.6, 0.6])
        with pytest.raises(MalformedModel):
            Measure(space, [-0.1, 1.1])
        with pytest.raises(MalformedModel):
            Measure(space, [np.nan, 1.0])

    def test_jump_path_rejects_inconsistencies(self):
        from ctmc_ldp import JumpPath

        space = symmetric_chain().space
        with pytest.raises(MalformedModel):  # unsorted times
            JumpPath(space, [0.5, 0.2], [0, 1, 0], 1.0)
        with pytest.raises(MalformedModel):  # repeated state
            JumpPath(space, [0.5], [0, 0], 1.0)
        with pytest.raises(MalformedModel):  # time beyond horizon
            JumpPath(space, [1.5], [0, 1], 1.0)

    def test_values_frozen_after_construction(self, rng):
        gen = random_model(rng)
        with pytest.raises(ValueError):
            gen.Q[0, 0] = 7.0
        mu = random_measure(rng, gen)
        with pytest.raises(ValueError):
            mu.p[0] = 0.5
