"""Linear Markov machinery: generators, semigroup, resolvent, entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctmc_ldp import (
    BallEvent,
    DoobFlow,
    Generator,
    InvalidParameter,
    InvalidRate,
    InvalidTime,
    MalformedModel,
    Measure,
    Partition,
    PathGrid,
    Potential,
    StateSpace,
    ball_infimum_rate,
    conditional_rate,
    doob_flow,
    empirical_trajectory,
    estimate_event_decay,
    evolve_law,
    joint_rate,
    nonlinear_resolvent,
    relative_entropy,
    resolvent_iterate,
    resolvent_matrix,
    transition_matrix,
    v_apply,
    validate_generator,
    zero_cost_path,
)
from ctmc_ldp.markov import UNIFORMIZATION_TAIL, _expm_generator
from conftest import (
    absorbing_chain, random_chain, random_measure, random_model, symmetric_chain)


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

    @settings(max_examples=60, deadline=2000)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("random", "stiff", "sparse")))
    def test_semigroup_law_on_random_stiff_and_sparse_chains(self, seed, kind):
        # P(t+s) = P(t)P(s), t and s log-uniform in [0.01, 2]: the same
        # transitions are positive, each within 1e-12 relative (worst seen
        # over 3,000 seeds 2.9e-14)
        rng = np.random.default_rng(seed)
        gen = random_chain(rng, kind)
        t, s = 10.0 ** rng.uniform(-2.0, 0.3, 2)
        lhs = transition_matrix(gen, t + s).P
        rhs = transition_matrix(gen, t).P @ transition_matrix(gen, s).P
        assert np.array_equal(lhs > 0.0, rhs > 0.0)
        assert (np.abs(lhs - rhs) <= 1e-12 * rhs).all()

    def test_rows_stochastic_even_for_large_times(self, rng):
        gen = random_model(rng, rate_high=3.0)
        P = transition_matrix(gen, 50.0).P
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-10
        assert P.min() >= 0.0


def _series_expm(Q, t):
    """e^{tQ} term by term: the uniformization series at m = ct / 2^s <= 1,
    stopped by the tail rule at m, then squared s times."""
    n = Q.shape[0]
    c = float(-Q.diagonal().min())
    s = math.ceil(math.log2(c * t)) if c * t > 1.0 else 0
    m, mB = c * t / 2**s, t / 2**s * (Q + c * np.eye(n))
    acc = term = np.eye(n)
    k, tail = 0, 1.0
    while k < n - 1 or tail >= UNIFORMIZATION_TAIL:
        k += 1
        term = term @ mB / k
        acc = acc + term
        if k >= n:
            tail *= m / k
    P = acc / acc.sum(axis=1, keepdims=True)
    for _ in range(s):
        P = P @ P
        P /= P.sum(axis=1, keepdims=True)
    return P


class TestUniformizedTable:
    def test_table_is_not_shared_mutable_state(self, rng):
        gen = random_chain(rng, "stiff", n_min=3)
        times = (0.0, 1e-4, 0.5, 3.0, 50.0)
        first = []
        for t in times:
            fresh = _expm_generator(Generator(gen.space, gen.Q), t)
            first.append(fresh)
            for _ in range(3):  # the later calls repeat the generator's last time
                P = _expm_generator(gen, t)
                assert P.flags.writeable and P.tobytes() == fresh.tobytes()
                P[...] = 7.0
        for t, P in zip(times, first):  # each after a different time, then repeated
            assert _expm_generator(gen, t).tobytes() == P.tobytes()
            assert _expm_generator(gen, t).tobytes() == P.tobytes()
        c, terms = gen._uniformized
        assert not terms.flags.writeable
        assert terms.base is None or not terms.base.flags.writeable
        with pytest.raises(ValueError):
            terms[0, 0] = 2.0

    @settings(max_examples=60, deadline=2000)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("random", "stiff", "sparse")))
    def test_matches_the_series_term_by_term(self, seed, kind):
        # t log-uniform in [1e-4, 10], so from no halving to about 15: the
        # same transitions are positive, each within 1e-13 relative of the
        # series summed term by term at its own m
        rng = np.random.default_rng(seed)
        gen = random_chain(rng, kind)
        t = float(10.0 ** rng.uniform(-4.0, 1.0))
        P, ref = _expm_generator(gen, t), _series_expm(np.asarray(gen.Q), t)
        assert np.array_equal(P > 0.0, ref > 0.0)
        assert (np.abs(P - ref) <= 1e-13 * ref).all()


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

    def test_different_spaces_rejected(self):
        mu = Measure.uniform(symmetric_chain().space)
        with pytest.raises(MalformedModel):
            relative_entropy(mu, Measure.uniform(StateSpace(("x", "y"))))

    def test_pinsker_inequality(self, rng):
        # entropy dominates half the squared l1 distance
        for _ in range(50):
            gen = random_model(rng)
            mu = random_measure(rng, gen, strict=False)
            nu = random_measure(rng, gen, strict=True)
            h = relative_entropy(mu, nu)
            assert h >= 0.5 * np.abs(mu.p - nu.p).sum() ** 2 - 1e-12


class TestTypeInvariants:
    def test_measure_rejects_bad_vectors(self):
        space = symmetric_chain().space
        with pytest.raises(MalformedModel):
            Measure(space, [0.6, 0.6])
        with pytest.raises(MalformedModel):
            Measure(space, [-0.1, 1.1])
        with pytest.raises(MalformedModel):
            Measure(space, [np.nan, 1.0])

    def test_values_frozen_after_construction(self, rng):
        gen = random_model(rng)
        with pytest.raises(ValueError):
            gen.Q[0, 0] = 7.0
        mu = random_measure(rng, gen)
        with pytest.raises(ValueError):
            mu.p[0] = 0.5


# the ring3 model: every time or scale the package takes is admitted at its
# own call site, finite (NaN and +inf fail) and with that site's error class
RING = validate_generator(["a", "b", "c"],
                          [[0.0, 1.5, 0.3], [0.4, 0.0, 1.1], [0.9, 0.2, 0.0]])
MU, NU = Measure(RING.space, [0.5, 0.3, 0.2]), Measure(RING.space, [0.2, 0.3, 0.5])
F = Potential(RING.space, [0.0, 0.5, 1.0])
SCALAR_SITES = {
    "transition_matrix": (lambda x: transition_matrix(RING, x), InvalidTime),
    "evolve_law": (lambda x: evolve_law(RING, MU, x), InvalidTime),
    "resolvent_matrix": (lambda x: resolvent_matrix(RING, x), InvalidParameter),
    "v_apply": (lambda x: v_apply(RING, F, x), InvalidTime),
    "nonlinear_resolvent": (lambda x: nonlinear_resolvent(RING, F, x), InvalidParameter),
    "resolvent_iterate": (lambda x: resolvent_iterate(RING, F, x, 8), InvalidTime),
    "conditional_rate": (lambda x: conditional_rate(RING, MU, NU, x), InvalidParameter),
    "joint_rate": (lambda x: joint_rate(RING, MU, Partition((x,)), [MU, NU]),
                   MalformedModel),
    "PathGrid t0": (lambda x: PathGrid(RING.space, x, 1.0, [MU.p, NU.p]), MalformedModel),
    "PathGrid t1": (lambda x: PathGrid(RING.space, 0.0, x, [MU.p, NU.p]), MalformedModel),
    "doob_flow": (lambda x: doob_flow(RING, F, x, 4), InvalidParameter),
    "DoobFlow": (lambda x: DoobFlow(RING.space, x, np.zeros((2, 3))), MalformedModel),
    "zero_cost_path": (lambda x: zero_cost_path(RING, MU, x, 4), InvalidParameter),
    "event time": (lambda x: estimate_event_decay(
        RING, MU, BallEvent(NU, x, 0.4), [10, 20], 100, 0), InvalidParameter),
    "event radius": (lambda x: estimate_event_decay(
        RING, MU, BallEvent(NU, 0.5, x), [10, 20], 100, 0), InvalidParameter),
    "ball_infimum_rate t": (lambda x: ball_infimum_rate(RING, MU, NU, x, 0.1),
                            InvalidParameter),
    "ball_infimum_rate radius": (lambda x: ball_infimum_rate(RING, MU, NU, 0.5, x),
                                 InvalidParameter),
    "empirical_trajectory t1": (lambda x: empirical_trajectory(RING, MU, 10, x, 4, 0),
                                InvalidParameter),
    "empirical_trajectory t0": (lambda x: empirical_trajectory(
        RING, MU, 10, 1.0, 4, 0, t0=x), InvalidTime),
}


class TestAdmissibleScalars:
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize("site", sorted(SCALAR_SITES))
    def test_non_finite_rejected(self, site, x):
        call, error = SCALAR_SITES[site]
        with pytest.raises(error):
            call(x)

    def test_negative_start_time_rejected(self):
        # the copies start at time 0: a node before it would carry their start
        with pytest.raises(InvalidTime):
            empirical_trajectory(RING, MU, 10, 1.0, 4, 0, t0=-1.0)

    def test_time_past_the_largest_scaled_rate(self):
        # c t overflows on the ring (c = 1.8); at c = 1 it does not, and the
        # s = 1024 halvings stay finite
        with pytest.raises(InvalidParameter):
            transition_matrix(RING, 1e308)
        gen = validate_generator(["a", "b"], [[0.0, 1.0], [0.5, 0.0]])
        np.testing.assert_allclose(transition_matrix(gen, 1e308).P,
                                   [[1 / 3, 2 / 3]] * 2, atol=1e-12)
