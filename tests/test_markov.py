"""Linear Markov machinery: generators, semigroup, resolvent, entropy."""

import inspect
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ctmc_ldp
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
    SolverOptions,
    Speed,
    StateSpace,
    StochasticMatrix,
    apply_hamiltonian,
    ball_infimum_rate,
    conditional_rate,
    doob_flow,
    doob_forward,
    dual_check,
    empirical_trajectory,
    entropy_identity_check,
    estimate_event_decay,
    evolve_law,
    joint_rate,
    lagrangian_value,
    nonlinear_resolvent,
    optimal_bridge,
    partition_rate,
    path_action,
    pre_lagrangian,
    relative_entropy,
    resolvent_iterate,
    resolvent_matrix,
    speed,
    tilted_generator,
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

    def test_drift_the_validator_accepts_is_divided_out(self):
        # a law summing to 1 - 5e-11 passes ``Measure``; its evolved row
        # keeps that mass, and is renormalized to one
        gen = symmetric_chain()
        mu = Measure(gen.space, [0.5, 0.5 - 5e-11])
        raw = mu.p @ transition_matrix(gen, 0.7).P
        assert raw.sum() == pytest.approx(1.0 - 5e-11, rel=0.0, abs=1e-15)
        out = evolve_law(gen, mu, 0.7)
        assert abs(out.p.sum() - 1.0) <= 1e-15
        np.testing.assert_allclose(out.p, raw / raw.sum(), rtol=1e-15, atol=0.0)


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

    @pytest.mark.parametrize("state", [2, -1, np.int64(2), "c"])
    def test_dirac_at_a_state_not_in_the_space(self, state):
        space = symmetric_chain().space  # states a, b
        with pytest.raises(MalformedModel):
            Measure.dirac(space, state)

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
    "SolverOptions": (lambda x: SolverOptions(x), InvalidParameter),
}
# inputs that are not real numbers, refused like NaN by the sites that admit
# their scalar through ``markov``: all but a partition, a path grid and a
# Doob flow, which check their times themselves
NOT_NUMBERS = {"text": "x", "numeric text": "1e-6", "None": None, "bool": True,
               "NumPy bool": np.True_}
ADMITTED_BY_MARKOV = sorted(set(SCALAR_SITES) - {"joint_rate", "PathGrid t0",
                                                  "PathGrid t1", "DoobFlow"})


class TestAdmissibleScalars:
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize("site", sorted(SCALAR_SITES))
    def test_non_finite_rejected(self, site, x):
        call, error = SCALAR_SITES[site]
        with pytest.raises(error):
            call(x)

    @pytest.mark.parametrize("x", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
    @pytest.mark.parametrize("site", ADMITTED_BY_MARKOV)
    def test_non_numbers_rejected(self, site, x):
        call, error = SCALAR_SITES[site]
        with pytest.raises(error):
            call(x)

    def test_integer_past_the_float_range_rejected(self):
        with pytest.raises(InvalidTime):
            transition_matrix(RING, 10 ** 400)
        with pytest.raises(InvalidParameter):
            SolverOptions(-10 ** 400)

    def test_numpy_reals_are_admitted(self):
        assert SolverOptions(np.float32(0.5)).gradient_tol == 0.5
        np.testing.assert_array_equal(transition_matrix(RING, np.float16(0.5)).P,
                                      transition_matrix(RING, 0.5).P)
        np.testing.assert_array_equal(transition_matrix(RING, np.int8(2)).P,
                                      transition_matrix(RING, 2.0).P)

    def test_time_past_the_largest_scaled_rate(self):
        # c t overflows on the ring (c = 1.8); at c = 1 it does not, and the
        # s = 1024 halvings stay finite
        with pytest.raises(InvalidParameter):
            transition_matrix(RING, 1e308)
        gen = validate_generator(["a", "b"], [[0.0, 1.0], [0.5, 0.0]])
        np.testing.assert_allclose(transition_matrix(gen, 1e308).P,
                                   [[1 / 3, 2 / 3]] * 2, atol=1e-12)


# the seven value types, each admitted by ``markov._admit``: a valid array for
# each, from which the malformed inputs below are derived
ARRAY_SITES = {
    "Generator": (lambda a: Generator(RING.space, a), RING.Q),
    "Measure": (lambda a: Measure(RING.space, a), MU.p),
    "Potential": (lambda a: Potential(RING.space, a), F.f),
    "StochasticMatrix": (lambda a: StochasticMatrix(RING.space, a),
                         transition_matrix(RING, 0.5).P),
    "Speed": (lambda a: Speed(RING.space, a), np.array([0.1, -0.1, 0.0])),
    "PathGrid": (lambda a: PathGrid(RING.space, 0.0, 1.0, a), np.array([MU.p, NU.p])),
    "DoobFlow": (lambda a: DoobFlow(RING.space, 1.0, a), np.zeros((3, 3))),
}


def _malformed(good, kind):
    """``good`` with its last column dropped ("shape"), or with its last
    entry NaN, a word, or a one-entry list (ragged)."""
    if kind == "shape":
        return good[..., :-1]
    rows = good.tolist()
    last = rows if good.ndim == 1 else rows[-1]
    last[-1] = {"nan": math.nan, "text": "x", "ragged": [last[-1]]}[kind]
    return rows


class TestAdmittedArrays:
    @pytest.mark.parametrize("kind", ["shape", "nan", "text", "ragged"])
    @pytest.mark.parametrize("site", sorted(ARRAY_SITES))
    def test_malformed_array_rejected(self, site, kind):
        make, good = ARRAY_SITES[site]
        make(good)
        with pytest.raises(MalformedModel):
            make(_malformed(good, kind))

    def test_admitted_arrays_are_read_only_copies(self):
        a = MU.p.copy()
        mu = Measure(RING.space, a)
        a[0] = 0.9  # the caller's array stays writable and apart
        assert mu.p[0] == 0.5 and not mu.p.flags.writeable
        rates = np.array([[7.0, 1.0], [2.0, 7.0]])  # a diagonal to rebuild
        gen = validate_generator(["a", "b"], rates)
        assert rates[0, 0] == 7.0 and gen.Q[0, 0] == -1.0 and not gen.Q.flags.writeable

    def test_generator_names_a_negative_rate(self):
        # the labelled message validate_generator gives, from Generator itself
        with pytest.raises(InvalidRate) as direct:
            Generator(StateSpace(("a", "b")), [[1.0, -1.0], [0.5, -0.5]])
        with pytest.raises(InvalidRate) as built:
            validate_generator(["a", "b"], [[0.0, -1.0], [0.5, 0.0]])
        assert str(direct.value) == str(built.value) == "negative rate -1.0 at (a -> b)"

    def test_stochastic_matrix_rules(self):
        space = StateSpace(("a", "b"))
        with pytest.raises(MalformedModel, match="outside"):
            StochasticMatrix(space, [[1.5, -0.5], [0.0, 1.0]])
        with pytest.raises(MalformedModel, match="sum to 1"):
            StochasticMatrix(space, [[0.5, 0.4], [0.0, 1.0]])
        # rounding past [0, 1] within the slack is clipped
        P = StochasticMatrix(space, [[1.0 + 1e-13, -1e-13], [0.0, 1.0]]).P
        assert P[0, 0] == 1.0 and P[0, 1] == 0.0 and not P.flags.writeable


# every public function that takes a generator with a law, potential, path,
# flow, speed or event: each argument in turn built on ``space``, which
# another state space replaces in the test
SPACE_SITES = {
    "relative_entropy": lambda s: relative_entropy(MU, Measure.uniform(s)),
    "evolve_law": lambda s: evolve_law(RING, Measure.uniform(s), 0.5),
    "apply_hamiltonian": lambda s: apply_hamiltonian(RING, Potential.zeros(s)),
    "tilted_generator": lambda s: tilted_generator(RING, Potential.zeros(s)),
    "pre_lagrangian": lambda s: pre_lagrangian(RING, Potential.zeros(s)),
    "v_apply": lambda s: v_apply(RING, Potential.zeros(s), 0.5),
    "nonlinear_resolvent": lambda s: nonlinear_resolvent(RING, Potential.zeros(s), 0.5),
    "resolvent_iterate": lambda s: resolvent_iterate(RING, Potential.zeros(s), 0.5, 8),
    "speed mu": lambda s: speed(RING, Measure.uniform(s), F),
    "speed g": lambda s: speed(RING, MU, Potential.zeros(s)),
    "lagrangian_value mu": lambda s: lagrangian_value(RING, Measure.uniform(s), np.zeros(3)),
    "lagrangian_value u": lambda s: lagrangian_value(RING, MU, Speed(s, np.zeros(s.size))),
    "dual_check mu": lambda s: dual_check(RING, Measure.uniform(s), F),
    "dual_check f": lambda s: dual_check(RING, MU, Potential.zeros(s)),
    "conditional_rate mu": lambda s: conditional_rate(RING, Measure.uniform(s), NU, 0.5),
    "conditional_rate nu": lambda s: conditional_rate(RING, MU, Measure.uniform(s), 0.5),
    "joint_rate mu0": lambda s: joint_rate(
        RING, Measure.uniform(s), Partition((0.5,)), [MU, NU]),
    "joint_rate marginals": lambda s: joint_rate(
        RING, MU, Partition((0.5,)), [MU, Measure.uniform(s)]),
    "path_action": lambda s: path_action(RING, _uniform_path(s)),
    "partition_rate path": lambda s: partition_rate(
        RING, _uniform_path(s), Partition((0.5,)), MU),
    "partition_rate P0": lambda s: partition_rate(
        RING, _uniform_path(RING.space), Partition((0.5,)), Measure.uniform(s)),
    "doob_flow": lambda s: doob_flow(RING, Potential.zeros(s), 0.5, 4),
    "doob_forward mu0": lambda s: doob_forward(
        RING, Measure.uniform(s), doob_flow(RING, F, 0.5, 4)),
    "doob_forward flow": lambda s: doob_forward(
        RING, MU, DoobFlow(s, 0.5, np.zeros((5, s.size)))),
    "optimal_bridge mu0": lambda s: optimal_bridge(RING, Measure.uniform(s), NU, 0.5, 4),
    "optimal_bridge mu1": lambda s: optimal_bridge(RING, MU, Measure.uniform(s), 0.5, 4),
    "entropy_identity_check mu0": lambda s: entropy_identity_check(
        RING, Measure.uniform(s), F, 0.5, 4),
    "entropy_identity_check f": lambda s: entropy_identity_check(
        RING, MU, Potential.zeros(s), 0.5, 4),
    "zero_cost_path": lambda s: zero_cost_path(RING, Measure.uniform(s), 0.5, 4),
    "empirical_trajectory": lambda s: empirical_trajectory(
        RING, Measure.uniform(s), 10, 0.5, 4, 0),
    "estimate_event_decay mu0": lambda s: estimate_event_decay(
        RING, Measure.uniform(s), BallEvent(NU, 0.5, 0.4), [10, 20], 100, 0),
    "estimate_event_decay target": lambda s: estimate_event_decay(
        RING, MU, BallEvent(Measure.uniform(s), 0.5, 0.4), [10, 20], 100, 0),
    "ball_infimum_rate mu0": lambda s: ball_infimum_rate(
        RING, Measure.uniform(s), NU, 0.5, 0.1),
    "ball_infimum_rate nu": lambda s: ball_infimum_rate(
        RING, MU, Measure.uniform(s), 0.5, 0.1),
}
SPACE_TYPES = (Measure, Potential, PathGrid, DoobFlow, BallEvent, Speed)


def _uniform_path(space):
    return PathGrid(space, 0.0, 1.0, np.full((5, space.size), 1.0 / space.size))


class TestOneStateSpace:
    # same size, other labels (which nothing else would catch), and another size
    @pytest.mark.parametrize("space", [StateSpace(("x", "y", "z")), StateSpace(("a", "b"))],
                             ids=["labels", "size"])
    @pytest.mark.parametrize("site", sorted(SPACE_SITES))
    def test_foreign_space_rejected(self, site, space):
        with pytest.raises(MalformedModel, match="different state spaces"):
            SPACE_SITES[site](space)

    def test_equal_spaces_are_one_space(self):
        # a state space rebuilt from the same labels is the same space
        assert evolve_law(RING, Measure.uniform(StateSpace(("a", "b", "c"))), 0.5).space \
            == RING.space

    def test_every_entry_point_is_in_the_table(self):
        # any public function taking a generator and a value on a state space
        sites = {key.split()[0] for key in SPACE_SITES}
        for name in ctmc_ldp.__all__:
            fn = getattr(ctmc_ldp, name)
            if not inspect.isfunction(fn) or "gen" not in inspect.signature(fn).parameters:
                continue
            hints = typing.get_type_hints(fn)
            hints.pop("return", None)
            if any(hint in SPACE_TYPES for hint in hints.values()):
                assert name in sites, f"{name} takes a {SPACE_TYPES} but has no space case"


EVENT = BallEvent(NU, 0.5, 0.4)
# every integer count: with the least value it admits
COUNT_SITES = {
    "doob_flow K": (lambda k: doob_flow(RING, F, 0.5, k), 1),
    "zero_cost_path K": (lambda k: zero_cost_path(RING, MU, 0.5, k), 1),
    "optimal_bridge K": (lambda k: optimal_bridge(RING, MU, NU, 0.5, k), 1),
    "empirical_trajectory K": (lambda k: empirical_trajectory(RING, MU, 10, 0.5, k, 0), 1),
    "empirical_trajectory n": (lambda n: empirical_trajectory(RING, MU, n, 0.5, 4, 0), 1),
    "empirical_trajectory seed": (lambda s: empirical_trajectory(RING, MU, 10, 0.5, 4, s), 0),
    "estimate_event_decay reps": (
        lambda r: estimate_event_decay(RING, MU, EVENT, [10, 20], r, 0), 100),
    "estimate_event_decay n": (
        lambda n: estimate_event_decay(RING, MU, EVENT, [n, 20], 100, 0), 1),
    "estimate_event_decay seed": (
        lambda s: estimate_event_decay(RING, MU, EVENT, [10, 20], 100, s), 0),
    "resolvent_iterate n": (lambda n: resolvent_iterate(RING, F, 0.5, n), 1),
}


class TestIntegerCounts:
    @pytest.mark.parametrize("below", [False, True], ids=["fraction", "below"])
    @pytest.mark.parametrize("site", sorted(COUNT_SITES))
    def test_count_rejected(self, site, below):
        call, least = COUNT_SITES[site]
        with pytest.raises(InvalidParameter):
            call(min(0, least - 1) if below else max(2.5, least + 0.5))

    @pytest.mark.parametrize("site", sorted(COUNT_SITES))
    def test_bool_is_not_a_count(self, site):
        call, _ = COUNT_SITES[site]
        with pytest.raises(InvalidParameter):
            call(True)

    def test_numpy_integers_count_as_integers(self):
        k, n, seed = np.int64(4), np.int32(10), np.uint16(3)
        np.testing.assert_array_equal(doob_flow(RING, F, 0.5, k).h,
                                      doob_flow(RING, F, 0.5, 4).h)
        np.testing.assert_array_equal(empirical_trajectory(RING, MU, n, 0.5, k, seed).measures,
                                      empirical_trajectory(RING, MU, 10, 0.5, 4, 3).measures)
        est = estimate_event_decay(RING, MU, BallEvent(NU, 0.5, 1.0), np.array([10, 20]),
                                   np.int64(100), seed)
        assert est.n_values == (10, 20) and all(type(v) is int for v in est.n_values)
