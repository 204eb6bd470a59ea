"""Conditional and joint rates, path action, partition rates."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctmc_ldp import (
    BoundaryBridgeWarning,
    InvalidParameter,
    MalformedModel,
    Measure,
    NumericalFailure,
    Partition,
    PathGrid,
    Potential,
    StateSpace,
    conditional_rate,
    doob_flow,
    doob_forward,
    evolve_law,
    joint_rate,
    lagrangian_value,
    optimal_bridge,
    partition_rate,
    path_action,
    relative_entropy,
    transition_matrix,
    validate_generator,
    zero_cost_path,
)
from ctmc_ldp import lagrangian, rates
from ctmc_ldp.lagrangian import DEFAULT_OPTIONS, _lagrangian_cells, _Status
from ctmc_ldp.markov import _expm_generator, _transport
from ctmc_ldp.hamiltonian import EXPONENT_CLIP
from ctmc_ldp.rates import DEFAULT_TILT_CAP, QUADRATURE_NODE
from conftest import (
    absorbing_chain,
    random_chain,
    random_law,
    random_measure,
    random_model,
    random_potential,
    symmetric_chain,
)


class TestConditionalRate:
    def test_true_evolution_costs_nothing(self, rng):
        for _ in range(10):
            gen = random_model(rng)
            mu = random_measure(rng, gen)
            t = float(rng.uniform(0.2, 1.5))
            nu = evolve_law(gen, mu, t)
            res = conditional_rate(gen, mu, nu, t)
            assert res.value <= 1e-10
            assert res.attained
            assert np.abs(res.maximizer.f).max() <= 1e-6

    @settings(max_examples=60, deadline=2000)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("random", "stiff", "sparse")))
    def test_evolved_law_costs_nothing_on_any_chain(self, seed, kind):
        # I_t(mu0 P(t) | mu0) = 0 on random, stiff and sparse chains, from
        # laws with empty states and Dirac laws, t log-uniform in [0.05, 2]
        rng = np.random.default_rng(seed)
        gen = random_chain(rng, kind)
        mu0 = random_law(rng, gen)
        t = float(10.0 ** rng.uniform(-1.3, 0.3))
        res = conditional_rate(gen, mu0, evolve_law(gen, mu0, t), t)
        assert 0.0 <= res.value <= 1e-12

    def test_absorbing_survival_rate_is_time(self):
        # staying unabsorbed has probability e^{-t}
        gen = absorbing_chain()
        da = Measure.dirac(gen.space, "a")
        for t in (0.25, 0.5, 1.0):
            res = conditional_rate(gen, da, da, t)
            assert res.value == pytest.approx(t, abs=1e-10)
            assert not res.attained  # optimal tilt diverges on state b

    @pytest.mark.parametrize("delta", [0.0, 1e-13, 1e-12, 1e-9])
    def test_mass_gained_by_a_state_only_it_reaches(self, delta):
        # a -> b at rate 1, b and c absorbing: nu_a may exceed mu_a only by
        # rounding, which leaves the a -> a edge of the coupling forest
        # running against its flux; that edge is dropped and the forest
        # solved again, at the cost of keeping all of a: 0.3 t
        gen = validate_generator(["a", "b", "c"], [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        mu = Measure(gen.space, [0.3, 0.4, 0.3])
        nu = Measure(gen.space, [0.3 + delta, 0.4 - delta, 0.3])
        res = conditional_rate(gen, mu, nu, 0.8)
        if delta > 1e-12:
            assert res.value == math.inf
        else:
            assert res.value == pytest.approx(0.24, abs=1e-12)
            assert not res.attained and res.iterations == 0

    def test_unreachable_target_infinite(self):
        gen = absorbing_chain()
        db = Measure.dirac(gen.space, "b")
        da = Measure.dirac(gen.space, "a")
        res = conditional_rate(gen, db, da, 0.5)
        assert res.value == math.inf

    def test_nonnegative_and_zero_only_at_evolution(self, rng):
        for _ in range(10):
            gen = random_model(rng)
            mu = random_measure(rng, gen)
            nu = random_measure(rng, gen)
            t = float(rng.uniform(0.2, 1.2))
            res = conditional_rate(gen, mu, nu, t)
            assert res.value >= 0.0
            # targets away from the evolved law have strictly positive cost
            if np.abs(evolve_law(gen, mu, t).p - nu.p).sum() > 1e-3:
                assert res.value > 1e-10
            if res.value <= 1e-6:
                drift = np.abs(evolve_law(gen, mu, t).p - nu.p).sum()
                assert drift <= 1e-2

    def test_matches_bridge_action_on_symmetric_chain(self):
        # independent route: Legendre maximization vs flow integration; the
        # point target makes the integrand grow near the endpoint, so the
        # quadrature needs a fine grid
        gen = symmetric_chain()
        da = Measure.dirac(gen.space, "a")
        res = conditional_rate(gen, da, da, 1.0)
        tilt = res.tilt_potential(gen.space)
        flow = doob_flow(gen, tilt, 1.0, 8000)
        path, action = doob_forward(gen, da, flow)
        assert abs(action.value - res.value) <= 1e-3
        assert np.abs(path.measures[-1] - da.p).sum() <= 2e-3

    def test_joint_convexity_midpoint(self, rng):
        for _ in range(10):
            gen = random_model(rng)
            t = float(rng.uniform(0.3, 1.0))
            mu1, mu2 = (random_measure(rng, gen) for _ in range(2))
            nu1, nu2 = (random_measure(rng, gen) for _ in range(2))
            mid_mu = Measure(gen.space, 0.5 * (mu1.p + mu2.p))
            mid_nu = Measure(gen.space, 0.5 * (nu1.p + nu2.p))
            lhs = conditional_rate(gen, mid_mu, mid_nu, t).value
            rhs = 0.5 * (conditional_rate(gen, mu1, nu1, t).value
                         + conditional_rate(gen, mu2, nu2, t).value)
            assert lhs <= rhs + 1e-6

    def test_invalid_time(self):
        gen = symmetric_chain()
        da = Measure.dirac(gen.space, "a")
        with pytest.raises(InvalidParameter):
            conditional_rate(gen, da, da, 0.0)

    def test_young_inequality_with_semigroup(self, rng):
        # <f, nu> <= <V(t)f, mu> + I_t(nu | mu)
        from ctmc_ldp import v_apply

        for _ in range(10):
            gen = random_model(rng)
            mu = random_measure(rng, gen)
            nu = random_measure(rng, gen)
            f = random_potential(rng, gen, bound=1.5)
            t = float(rng.uniform(0.2, 1.2))
            lhs = float(f.f @ nu.p)
            rhs = float(v_apply(gen, f, t).f @ mu.p) \
                + conditional_rate(gen, mu, nu, t).value
            assert lhs <= rhs + 1e-8

    def test_overshooting_iterate_on_near_absorbing_state(self):
        # The first Newton iterate overshoots to f ~ 3000; valuing it with a
        # clipped exponent overstated the objective and read as an
        # infinite rate. From a Dirac start the rate is a relative entropy.
        gen = validate_generator(["a", "b"],
                                 [[0.0, 2.59004921e-4], [2.38684559, 0.0]])
        da = Measure.dirac(gen.space, "a")
        nu = Measure(gen.space, [0.72273347, 0.27726653])
        t = 0.704777178443682
        res = conditional_rate(gen, da, nu, t)
        row = Measure(gen.space, transition_matrix(gen, t).P[0])
        assert res.value == pytest.approx(relative_entropy(nu, row),
                                          rel=1e-9)
        assert res.value == pytest.approx(1.997843, abs=1e-6)
        assert res.attained

    def test_unbalanced_component_is_infinite(self):
        # b and c are absorbing, so {c} is a component of the live pairs on
        # its own, and c cannot gain the mass nu asks of it
        gen = validate_generator(["a", "b", "c"], [[0.0, 0.5, 0.0],
                                                   [0.0, 0.0, 0.0],
                                                   [0.0, 0.0, 0.0]])
        sp = gen.space
        res = conditional_rate(gen, Measure(sp, [0.3, 0.27, 0.43]),
                               Measure(sp, [0.19, 0.35, 0.46]), 0.7)
        assert res.value == math.inf and res.iterations == 0

    def test_component_balance_allows_measure_rounding(self):
        # mu and nu may each miss a total mass of 1 by MEASURE_SUM_TOL
        gen = validate_generator(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])
        sp = gen.space
        res = conditional_rate(gen, Measure(sp, [0.5 + 5e-11, 0.5]),
                               Measure(sp, [0.3, 0.7 - 5e-11]), 0.5)
        assert res.value == pytest.approx(0.236208, abs=1e-6)
        assert res.attained

    def test_state_without_live_pair_is_infinite_however_small(self):
        # a started state with no live pair into the support of nu, or a
        # support state no started state reaches: b's row below reaches only
        # b, which nu leaves empty, and nothing enters a in the last chain
        chains = [
            ["ab", [[0.0, 1.0], [0.0, 0.0]], [1.0 - 1e-11, 1e-11], [1.0, 0.0]],
            ["abc", [[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
             [0.5, 1e-11, 0.5 - 1e-11], [0.6, 0.0, 0.4]],
            ["abc", [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
             [0.0, 0.5, 0.5], [1e-12, 0.5, 0.5 - 1e-12]],
        ]
        for labels, rates_, mu, nu in chains:
            gen = validate_generator(list(labels), rates_)
            res = conditional_rate(gen, Measure(gen.space, mu),
                                   Measure(gen.space, nu), 0.5)
            assert res.value == math.inf and res.iterations == 0

    def test_laws_summing_to_one_within_rounding_settle(self):
        # mu sums to 1 - 3.95e-11 and nu holds a 4.4e-13 entry; with the
        # laws rescaled to sum to one Newton settles in a few iterations,
        # where it ran to the iteration cap on the laws as given. The rate
        # without the tiny entry is 2.0508669929958523
        rates_ = np.zeros((5, 5))
        rates_[0, 2] = 0.6261336505734167
        rates_[1, [0, 2, 3, 4]] = [1.1917793177554976, 0.8859257318321767,
                                   2.4215405853748075, 0.29475519272354667]
        rates_[2, [0, 1, 3, 4]] = [0.5939227793985393, 2.1026146400214842,
                                   2.812629247907524, 1.022437778233507]
        rates_[3, [0, 1]] = [2.635090929854053, 1.8642530208856865]
        rates_[4, [0, 1]] = [1.5082632886169698, 0.05013526380397937]
        gen = validate_generator(list("abcde"), rates_)
        mu = Measure(gen.space, [0.016607440879208003, 0.22281393870745808,
                                 0.41193422621128967, 0.3087235168485131,
                                 0.039920877314028776])
        nu = Measure(gen.space, [4.3922493525588444e-13, 0.0, 0.8555494484328482,
                                 0.0, 0.14445055156661477])
        res = conditional_rate(gen, mu, nu, 0.15896200364427154)
        assert res.value == pytest.approx(2.0508669929958523, rel=1e-10)

    def test_underflowing_row_is_rejected_without_warning(self):
        # b is absorbing, so its row keeps only the pair (b, b); the solve
        # raises no floating-point warning on the way
        gen = validate_generator(["a", "b"], [[0.0, 0.108], [0.0, 0.0]])
        sp = gen.space
        mu, nu, t = Measure(sp, [0.8855, 0.1145]), Measure(sp, [0.185, 0.815]), 0.5566
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = conditional_rate(gen, mu, nu, t)
        P = transition_matrix(gen, t).P
        # b stays put, so a must send 0.7005 to b and keep 0.185
        kl = 0.185 * math.log(0.185 / (0.8855 * P[0, 0])) \
            + 0.7005 * math.log(0.7005 / (0.8855 * P[0, 1]))
        assert res.value == pytest.approx(kl, rel=1e-9)
        assert res.value == pytest.approx(1.547708, abs=1e-6)

    def test_interior_maximizer_far_from_zero_is_attained(self):
        # every P_xy > 0 and nu has full support, so the maximizer is
        # interior, though nu = (1 - 2e, e, e) puts it at |f| ~ 16.5
        gen = validate_generator(["a", "b", "c"], [[0.0, 1.0, 2.0],
                                                   [0.5, 0.0, 1.0],
                                                   [2.0, 1.0, 0.0]])
        mu = Measure.uniform(gen.space)
        nu = Measure(gen.space, [1.0 - 2e-7, 1e-7, 1e-7])
        res = conditional_rate(gen, mu, nu, 1.0)
        assert res.attained
        assert np.abs(res.maximizer.f).max() > 15.0
        # the maximizer tilts the chain's one-step law onto nu
        P = transition_matrix(gen, 1.0).P
        e = np.exp(res.maximizer.f)
        np.testing.assert_allclose(mu.p @ (P * e / (P @ e)[:, None]), nu.p,
                                   rtol=0.0, atol=1e-9)

    def test_first_step_into_a_flat_region_is_capped(self):
        # a -> c, b -> a, c -> a: the target b can only keep its own mass.
        # The first full Newton step lands at |f| ~ 243, where the
        # objective is flat; capped steps converge
        gen = validate_generator(["a", "b", "c"], [[0.0, 0.0, 0.0683],
                                                   [0.6082, 0.0, 0.0],
                                                   [0.0579, 0.0, 0.0]])
        sp = gen.space
        res = conditional_rate(gen, Measure(sp, [0.015, 0.985, 0.0]),
                               Measure(sp, [0.0, 0.016, 0.984]), 0.41)
        assert res.value == pytest.approx(5.554147, abs=1e-6)
        assert not res.attained  # nu misses a

    def test_balanced_pairs_without_a_coupling_are_infinite(self):
        # nothing enters b, which must gain 0.0016: the live pairs form one
        # balanced component, but no coupling exists (Hall's condition
        # fails for the started states other than b)
        gen = validate_generator(["a", "b", "c"], [[0.0, 0.0, 1.3],
                                                   [0.396, 0.0, 0.275],
                                                   [0.188, 0.0, 0.0]])
        sp = gen.space
        res = conditional_rate(gen, Measure(sp, [0.1837, 0.3129, 0.5034]),
                               Measure(sp, [0.3616, 0.3145, 0.3239]), 0.2255)
        assert res.value == math.inf and res.iterations == 0

    def test_fast_exit_to_an_absorbing_state(self):
        # a -> b at 538.4, b absorbing: nearly all of a's mass must stay,
        # against P(a, a) = e^{-128.6}; the IPF coupling gives the rate
        gen = validate_generator(["a", "b"], [[0.0, 538.4455697053337], [0.0, 0.0]])
        sp = gen.space
        res = conditional_rate(
            gen, Measure(sp, [0.9916014730878403, 0.008398526912159714]),
            Measure(sp, [0.10842354825052461, 0.8915764517494754]),
            0.23887399726017733)
        assert res.value == pytest.approx(13.603268293401372, rel=1e-12)
        assert res.attained

    def test_rounding_size_target_with_a_live_pair_is_finite(self):
        # nu puts 1.7e-21 on d, which only d itself reaches; the transport
        # routes d's mass elsewhere first and leaves that entry unrouted.
        # It is rounding, so the rate is the IPF coupling's, unattained
        gen = validate_generator(list("abcd"), [
            [0.0, 0.0, 0.370525930701427, 0.0],
            [529.3974948888886, 0.0, 24.91909309460445, 0.0],
            [0.0, 0.010646083850866395, 0.0, 0.0],
            [0.0, 158.38168947524034, 0.0, 0.0]])
        sp = gen.space
        mu = Measure(sp, [0.0446148649263742, 0.01890795972624801,
                          0.0012912060663679268, 0.9351859692810098])
        nu = Measure(sp, [0.8988711538396937, 1.934397629159304e-06,
                          0.10112691176267716, 1.7061243244547196e-21])
        res = conditional_rate(gen, mu, nu, 0.2993696335791082)
        assert res.value == pytest.approx(0.0075232171784151652, rel=1e-12)
        assert not res.attained

    def test_rounding_size_start_left_unrouted_is_finite(self):
        # mu sums to 1 + 3e-11, within MEASURE_SUM_TOL; a and b meet all of
        # nu, so c's 3e-11 is left unrouted. c's row keeps no pair and is
        # pinned on its own; the rate is the one without it, to rounding
        gen = validate_generator(["a", "b", "c"], [[0.0, 0.0, 0.0],
                                                   [1.0, 0.0, 0.0],
                                                   [0.7, 0.4, 0.0]])
        sp = gen.space
        nu = Measure(sp, [0.6, 0.4, 0.0])
        exact = conditional_rate(gen, Measure(sp, [0.5, 0.5, 0.0]), nu, 0.5)
        res = conditional_rate(gen, Measure(sp, [0.5, 0.5, 3e-11]), nu, 0.5)
        assert exact.value == pytest.approx(0.0430740011876, rel=1e-12)
        assert res.value == pytest.approx(exact.value, rel=0.0, abs=1e-10)

    @pytest.mark.parametrize("t, rate", [(1e-3, 6.806570152896),
                                         (5e-3, 5.040108417209)])
    def test_four_jumps_in_a_short_time(self, t, rate):
        # a -> b -> c -> d -> e at unit rates: from delta_a, nu puts 0.1 on
        # e, which needs four jumps, P(a, e) ~ t^4 / 24 ~ 4e-14 at t = 1e-3;
        # 60-digit mpmath values
        gen = validate_generator(list("abcde"), np.eye(5, k=1))
        res = conditional_rate(gen, Measure.dirac(gen.space, "a"),
                               Measure(gen.space, [0.5, 0.2, 0.1, 0.1, 0.1]), t)
        assert res.value == pytest.approx(rate, rel=1e-12)

    @settings(max_examples=80, deadline=2000)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_infinite_exactly_when_halls_condition_fails(self, seed):
        # A coupling of mu and nu on the live pairs P_xy > 0 exists exactly
        # when every set S of started states has mu(S) <= nu(N(S)), N(S)
        # the targets S reaches (Hall's condition with masses); checked by
        # enumerating the sets, on random sparse chains
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        rates = rng.uniform(0.05, 3.0, (n, n))
        rates[rng.random((n, n)) < 0.6] = 0.0
        gen = validate_generator([f"s{i}" for i in range(n)], rates)
        laws = rng.dirichlet(np.ones(n), 2)
        laws[rng.random((2, n)) < 0.3] = 0.0
        laws[laws.sum(axis=1) == 0.0, 0] = 1.0
        mu, nu = laws / laws.sum(axis=1, keepdims=True)
        t = float(rng.uniform(0.1, 1.0))
        live = transition_matrix(gen, t).P > 0.0
        started = np.flatnonzero(mu > 0.0)
        hall = all(mu[list(S)].sum() <= nu[live[list(S)].any(axis=0)].sum() + 1e-12
                   for size in range(1, started.size + 1)
                   for S in itertools.combinations(started, size))
        res = conditional_rate(gen, Measure(gen.space, mu), Measure(gen.space, nu), t)
        assert math.isinf(res.value) == (not hall)

    @settings(max_examples=60, deadline=5000)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_ipf_coupling(self, seed):
        # Where Hall's condition holds, iterative proportional fitting of
        # mu x P to the marginals mu and nu converges to the cheapest
        # coupling (Csiszar's I-projection), whose entropy is the rate;
        # elsewhere no coupling exists and the rate is +infinity
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        rates = rng.uniform(0.05, 3.0, (n, n))
        rates[rng.random((n, n)) < 0.5] = 0.0
        gen = validate_generator([f"s{i}" for i in range(n)], rates)
        laws = rng.dirichlet(np.ones(n), 2)
        laws[rng.random((2, n)) < 0.25] = 0.0
        laws[laws.sum(axis=1) == 0.0, 0] = 1.0
        mu, nu = laws / laws.sum(axis=1, keepdims=True)
        t = float(rng.uniform(0.1, 1.0))
        P = transition_matrix(gen, t).P
        res = conditional_rate(gen, Measure(gen.space, mu), Measure(gen.space, nu), t)
        started = np.flatnonzero(mu > 0.0)
        if not all(mu[list(S)].sum() <= nu[(P[list(S)] > 0.0).any(axis=0)].sum() + 1e-12
                   for size in range(1, started.size + 1)
                   for S in itertools.combinations(started, size)):
            assert res.value == math.inf
            return
        X, Y = mu > 0.0, nu > 0.0
        K = mu[X, None] * P[np.ix_(X, Y)]
        a = np.ones(K.shape[0])
        for _ in range(20000):
            b = nu[Y] / (K.T @ a)
            a = mu[X] / (K @ b)
            if np.abs(b * (K.T @ a) - nu[Y]).max() <= 1e-13:
                break
        else:
            pytest.fail("the IPF reference did not converge")
        coupling = a[:, None] * K * b
        on = coupling > 0.0
        ipf = float((coupling[on] * np.log((a[:, None] * b)[on])).sum())
        assert res.value == pytest.approx(ipf, rel=1e-8)

    @settings(max_examples=80, deadline=2000)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dirac_start_or_target_is_the_product_coupling(self, seed):
        # From delta_x or to delta_y the only coupling is mu x nu, so the
        # rate is KL(nu | P_x), or -sum_x mu_x log P_xy, with P from scipy's
        # Pade expm; a target some started state cannot reach is +infinity.
        # The two exponentials agree to about 1e-13 in each entry, which
        # moves a term in log P_xy by 1e-13 / P_xy
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        rates = rng.uniform(0.1, 3.0, (n, n))
        rates[rng.random((n, n)) < 0.5] = 0.0
        gen = validate_generator([f"s{i}" for i in range(n)], rates)
        law = rng.dirichlet(np.ones(n))
        law[rng.random(n) < 0.3] = 0.0
        law[int(rng.integers(n))] += 1e-3  # never all zero
        law /= law.sum()
        x, t = int(rng.integers(n)), float(rng.uniform(0.2, 1.5))
        P = linalg.expm(t * np.asarray(gen.Q))
        reach = np.eye(n, dtype=bool) | (rates > 0.0)
        for _ in range(n):
            reach = reach | (reach.astype(float) @ reach > 0.0)
        sp, on = gen.space, law > 0.0

        res = conditional_rate(gen, Measure.dirac(sp, x), Measure(sp, law), t)
        if not reach[x, on].all():
            assert res.value == math.inf and res.iterations == 0
        else:
            kl = float(law[on] @ np.log(law[on] / P[x, on]))
            assert abs(res.value - kl) <= 1e-12 * kl + 1e-13 * (law[on] / P[x, on]).sum()
            assert res.attained == on.all()
            if res.attained:
                e = np.exp(res.maximizer.f)
                np.testing.assert_allclose(P[x] * e / (P[x] @ e), law,
                                           rtol=0.0, atol=1e-9)

        res = conditional_rate(gen, Measure(sp, law), Measure.dirac(sp, x), t)
        if not reach[on, x].all():
            assert res.value == math.inf and res.iterations == 0
        else:
            ref = -float(law[on] @ np.log(P[on, x]))
            assert abs(res.value - ref) <= 1e-12 * ref + 1e-13 * (law[on] / P[on, x]).sum()


class TestJointRate:
    def test_true_marginals_cost_nothing(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        times = (0.4, 0.9)
        marginals = [mu0] + [evolve_law(gen, mu0, t) for t in times]
        res = joint_rate(gen, mu0, Partition(times), marginals)
        assert res.value <= 1e-10

    def test_single_time_decomposition(self, rng):
        # joint = H(nu0 | mu0) + I_t(nu1 | nu0), both sides independent
        for _ in range(10):
            gen = random_model(rng)
            mu0 = random_measure(rng, gen)
            nu0 = random_measure(rng, gen)
            nu1 = random_measure(rng, gen)
            t1 = float(rng.uniform(0.3, 1.2))
            joint = joint_rate(gen, mu0, Partition((t1,)), [nu0, nu1])
            chained = relative_entropy(nu0, mu0) \
                + conditional_rate(gen, nu0, nu1, t1).value
            assert joint.value == pytest.approx(chained, abs=1e-4)

    def test_two_time_decomposition(self, rng):
        for _ in range(5):
            gen = random_model(rng)
            mu0 = random_measure(rng, gen)
            nus = [random_measure(rng, gen) for _ in range(3)]
            joint = joint_rate(gen, mu0, Partition((0.5, 1.1)), nus)
            chained = relative_entropy(nus[0], mu0) \
                + conditional_rate(gen, nus[0], nus[1], 0.5).value \
                + conditional_rate(gen, nus[1], nus[2], 0.6).value
            assert joint.value == pytest.approx(chained, abs=1e-4)

    def test_reduces_to_conditional_when_first_marginal_matches(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        nu1 = random_measure(rng, gen)
        t1 = 0.8
        joint = joint_rate(gen, mu0, Partition((t1,)), [mu0, nu1])
        cond = conditional_rate(gen, mu0, nu1, t1)
        assert joint.value == pytest.approx(cond.value, abs=1e-6)

    def test_marginal_count_checked(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        with pytest.raises(MalformedModel):
            joint_rate(gen, mu0, Partition((0.5,)), [mu0])

    def test_raw_marginals_are_validated(self):
        gen = validate_generator(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])
        mu0 = Measure.uniform(gen.space)
        with pytest.raises(MalformedModel):
            joint_rate(gen, mu0, Partition((0.5,)), [[0.5, 0.5], [0.6, 0.5]])

    def test_partition_time_must_be_positive(self):
        gen = validate_generator(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])
        mu0 = Measure.uniform(gen.space)
        with pytest.raises(InvalidParameter):
            joint_rate(gen, mu0, Partition((-0.5,)), [mu0, mu0])

    def test_large_first_step_on_absorbing_chain(self):
        # the first Newton step of the conditional step lands at |f| ~ 1e4,
        # which must be valued exactly, not with a clipped exponent
        gen = validate_generator(["a", "b"], [[0.0, 0.3], [0.0, 0.0]])
        sp = gen.space
        res = joint_rate(gen, Measure(sp, [0.0065, 0.9935]), Partition((0.3,)),
                         [Measure(sp, [0.63, 0.37]), Measure(sp, [0.53, 0.47])])
        assert res.value == pytest.approx(2.533407, abs=1e-6)
        assert res.attained

    def test_full_step_that_lowers_the_value_is_backtracked(self):
        # a full step halves the gradient but lowers the value to about
        # -117 and passes the divergence norm: it must be backtracked
        gen = validate_generator(["a", "b", "c", "d"], [[0.0, 1.27, 0.5, 0.59],
                                                        [0.0, 0.0, 0.0, 0.0],
                                                        [0.0, 0.25, 0.0, 0.81],
                                                        [0.06, 0.78, 0.09, 0.0]])
        sp = gen.space
        res = joint_rate(gen, Measure(sp, [0.0025, 0.0054, 0.9194, 0.0727]),
                         Partition((0.57,)),
                         [Measure(sp, [0.56, 0.106, 0.027, 0.307]),
                          Measure(sp, [0.4947, 0.1772, 0.1286, 0.1995])])
        assert res.value == pytest.approx(4.229120, abs=1e-6)

    def test_potentials_reuse_each_step_exponential(self, monkeypatch):
        # the closed-form potentials use the step matrices e^{tQ} that the
        # conditional rates were computed from: one exponential per step
        calls = []
        monkeypatch.setattr(rates, "_expm_generator",
                            lambda *args: calls.append(args) or _expm_generator(*args))
        gen = validate_generator(["a", "b", "c"], [[0.0, 1.3, 0.4],
                                                   [0.7, 0.0, 2.1],
                                                   [0.5, 0.9, 0.0]])
        sp = gen.space
        laws = [Measure(sp, p) for p in ([0.2, 0.5, 0.3], [0.4, 0.4, 0.2],
                                         [0.3, 0.3, 0.4], [0.1, 0.6, 0.3])]
        res = joint_rate(gen, Measure.uniform(sp), Partition((0.3, 0.8, 1.2)), laws)
        assert res.attained
        assert len(calls) == 3

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_potentials_tilt_the_chain_onto_the_marginals(self, seed):
        # independent of the chain that computes them: enumerate every path
        # through the partition, tilt each by sum_i f_i(x_i), and read off
        # the log-moment and the tilted marginals
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        rates = rng.uniform(0.05, 2.0, (n, n))
        rates[rng.random((n, n)) < 0.4] = 0.0
        gen = validate_generator([f"s{i}" for i in range(n)], rates)
        mu0, *nus = (Measure(gen.space, 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n)
                     for _ in range(k + 2))
        times = np.cumsum(rng.uniform(0.1, 1.0, k))
        res = joint_rate(gen, mu0, Partition(tuple(times)), nus)
        if not res.attained:
            return
        Ps = [transition_matrix(gen, dt).P for dt in np.diff(times, prepend=0.0)]
        f = np.array([pot.f for pot in res.potentials])
        paths = np.array(list(itertools.product(range(n), repeat=k + 1)))
        weight = mu0.p[paths[:, 0]] * np.exp(f[np.arange(k + 1), paths].sum(axis=1))
        for i, P in enumerate(Ps):
            weight *= P[paths[:, i], paths[:, i + 1]]
        nu = np.array([m.p for m in nus])
        value = float((f * nu).sum()) - math.log(weight.sum())
        assert value == pytest.approx(res.value, rel=0.0, abs=1e-12 * (1.0 + res.value))
        for i in range(k + 1):
            tilted = np.bincount(paths[:, i], weight, minlength=n) / weight.sum()
            np.testing.assert_allclose(tilted, nu[i], rtol=0.0, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_the_chain_of_single_rates(self, seed):
        # one batch of every step equals the relative entropy plus the single
        # conditional rates, summed up to the first infinite term, with the
        # same attained flag and iterations; marginals with zeros and Dirac
        # laws, on sparse chains with absorbing states, give infinite steps
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        rates_ = rng.uniform(0.05, 2.0, (n, n))
        rates_[rng.random((n, n)) < 0.25] = 0.0
        rates_[rng.random(n) < 0.1] = 0.0
        gen = validate_generator([f"s{i}" for i in range(n)], rates_)
        laws = rng.dirichlet(np.ones(n), k + 2)
        laws[rng.random((k + 2, n)) < 0.15] = 0.0
        laws[rng.random(k + 2) < 0.1] = np.eye(n)[rng.integers(n)]
        laws[laws.sum(axis=1) == 0.0, 0] = 1.0
        mu0, *nus = (Measure(gen.space, p / p.sum()) for p in laws)
        times = np.cumsum(rng.uniform(0.1, 1.0, k))
        res = joint_rate(gen, mu0, Partition(tuple(times)), nus)
        value, iterations, attained = relative_entropy(nus[0], mu0), 0, True
        for nu, mu, t in zip(nus[1:], nus, np.diff(times, prepend=0.0)):
            if math.isinf(value):
                break
            step = conditional_rate(gen, mu, nu, t)
            value, iterations = value + step.value, iterations + step.iterations
            attained = attained and step.attained
        assert res.value == pytest.approx(value, rel=1e-12, abs=1e-15)
        assert res.iterations == iterations
        full = np.all(mu0.p > 0.0) and np.all(nus[0].p > 0.0)
        assert res.attained == (attained and math.isfinite(value) and full)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_stack_matches_single_rates_step_by_step(self, seed):
        # a stack mixing full-support, zero-entry, Dirac, boundary and
        # infinite steps gives, step by step up to the first infinite one,
        # what a single conditional rate gives: value, iterations, the
        # maximizer, and the pinned support potential and levels the capped
        # tilt is built from
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        rates_ = rng.uniform(0.05, 2.0, (n, n))
        rates_[rng.random((n, n)) < 0.3] = 0.0
        rates_[-1] = 0.0
        gen = validate_generator([f"s{i}" for i in range(n)], rates_)
        sp, ts = gen.space, rng.uniform(0.1, 1.0, k)
        mus, nus = rng.dirichlet(np.ones(n), (2, k))
        for mu, nu in zip(mus, nus):
            # the last state absorbs: a target that keeps its mass leaves
            # the pairs into it unused (boundary), one that loses mass is
            # infinite, and the others gain mass there
            kind = rng.choice(["full", "zero", "dirac", "boundary", "infinite"])
            last = {"boundary": mu[-1], "infinite": 0.5 * mu[-1]}.get(
                kind, mu[-1] + (1.0 - mu[-1]) * nu[-1])
            nu[:-1] *= (1.0 - last) / nu[:-1].sum()
            nu[-1] = last
            if kind == "zero":
                nu[rng.integers(n - 1)] = 0.0
            elif kind == "dirac" and rng.integers(2):
                mu[:] = np.eye(n)[rng.integers(n - 1)]
            elif kind == "dirac":
                nu[:] = np.eye(n)[-1]
        nus /= nus.sum(axis=1, keepdims=True)
        singles = []
        for mu, nu, t in zip(mus, nus, ts):
            try:
                singles.append(conditional_rate(gen, Measure(sp, mu), Measure(sp, nu), t))
            except NumericalFailure:
                singles.append(None)
            if singles[-1] is None or singles[-1].value == math.inf:
                break
        Ps = np.array([_expm_generator(gen, t) for t in ts])
        if singles[-1] is None:
            with pytest.raises(NumericalFailure):
                rates._conditional_rates(mus, nus, Ps, None)
            return
        value, status, f, levels, iters, gnorm = rates._conditional_rates(
            mus, nus, Ps, None)
        assert len(value) == len(singles)
        for i, (one, on) in enumerate(zip(singles, nus > 0.0)):
            assert value[i] == pytest.approx(one.value, rel=1e-12, abs=1e-15)
            assert iters[i] == one.iterations
            assert gnorm[i] == pytest.approx(one.gradient_norm, rel=1e-6, abs=1e-12)
            if one.value == math.inf:
                assert status[i] == _Status.INFINITE
                continue
            assert (status[i] == _Status.CONVERGED and on.all()) == one.attained
            if one.attained:
                np.testing.assert_allclose(f[i], one.maximizer.f, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(f[i, on], one.support_potential, rtol=1e-9, atol=1e-9)
            np.testing.assert_array_equal(levels[i, on], one.support_levels)
            batch = rates.ConditionalRateResult(value[i], None, one.support, f[i, on],
                                                levels[i, on], iters[i], gnorm[i])
            np.testing.assert_allclose(batch.tilt_potential(sp).f,
                                       one.tilt_potential(sp).f, rtol=1e-9, atol=1e-9)

    def test_steps_after_an_infinite_one_neither_count_nor_raise(self, monkeypatch):
        # nothing reaches c, so the first step is +infinity; the second needs
        # several Newton iterations and alone fails to settle in one
        gen = validate_generator(["a", "b", "c"], [[0.0, 1.0, 0.0],
                                                   [0.7, 0.0, 0.0],
                                                   [0.6, 0.4, 0.0]])
        sp = gen.space
        laws = [Measure(sp, p) for p in ([0.5, 0.5, 0.0], [0.4, 0.4, 0.2],
                                         [0.5, 0.45, 0.05])]
        monkeypatch.setattr(lagrangian, "MAX_ITERS", 1)
        with pytest.raises(NumericalFailure):
            conditional_rate(gen, laws[1], laws[2], 0.4)
        res = joint_rate(gen, Measure.uniform(sp), Partition((0.5, 0.9)), laws)
        assert res.value == math.inf and res.iterations == 0


class TestPathAction:
    def test_zero_cost_path_is_cheap(self, rng):
        for _ in range(5):
            gen = random_model(rng)
            mu0 = random_measure(rng, gen)
            grid = zero_cost_path(gen, mu0, 1.0, 200)
            assert path_action(gen, grid).value < 1e-6

    def test_constant_path_on_absorbing_chain(self):
        # holding delta_a costs rate 1 per unit time
        gen = absorbing_chain()
        nodes = np.tile([1.0, 0.0], (201, 1))
        grid = PathGrid(gen.space, 0.0, 1.0, nodes)
        res = path_action(gen, grid)
        assert res.value == pytest.approx(1.0, abs=2e-3)
        assert res.infeasible_cell is None

    def test_refinement_error_first_order(self, rng):
        # K -> 2K action change shrinks like 1/K on smooth tilted paths
        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        f = random_potential(rng, gen, bound=1.0)
        actions = {}
        for K in (250, 500, 1000):
            flow = doob_flow(gen, f, 1.0, K)
            _, act = doob_forward(gen, mu0, flow)
            actions[K] = act.value
        d1 = abs(actions[250] - actions[500])
        d2 = abs(actions[500] - actions[1000])
        assert d2 <= 0.75 * d1

    def test_infeasible_cell_reported(self):
        # teleporting mass against an absorbing flow is impossible
        gen = absorbing_chain()
        nodes = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
        grid = PathGrid(gen.space, 0.0, 1.0, nodes)
        res = path_action(gen, grid)
        assert res.value == math.inf
        assert res.infeasible_cell == 1

    def test_cells_independent_of_evaluation_order(self, rng):
        # warm-started sweep agrees with independent cold solves per cell
        from ctmc_ldp import lagrangian_value
        from ctmc_ldp.rates import QUADRATURE_NODE

        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        f = random_potential(rng, gen, bound=1.0)
        flow = doob_flow(gen, f, 0.6, 24)
        grid, swept = doob_forward(gen, mu0, flow)
        m, dt, w = grid.measures, grid.dt, QUADRATURE_NODE
        for k in range(grid.K):
            u = (m[k + 1] - m[k]) / dt
            u = u - u.sum() / u.size
            cold = lagrangian_value(
                gen, Measure(gen.space, (1 - w) * m[k] + w * m[k + 1]), u)
            assert swept.cell_values[k] == pytest.approx(dt * cold.value,
                                                         abs=1e-10)


def _cold_lagrangians(gen, grid):
    """Each cell's L by an independent cold per-cell solve."""
    m, dt, w = grid.measures, grid.dt, QUADRATURE_NODE
    out = []
    for k in range(grid.K):
        u = (m[k + 1] - m[k]) / dt
        u = u - u.sum() / u.size
        mid = Measure(gen.space, (1 - w) * m[k] + w * m[k + 1])
        out.append(lagrangian_value(gen, mid, u).value)
    return np.array(out)


def _cell_status(gen, grid):
    """Each cell's verdict from the evaluator that ``path_action`` runs."""
    m, dt, w = grid.measures, grid.dt, QUADRATURE_NODE
    mids = (1 - w) * m[:-1] + w * m[1:]
    speeds = (m[1:] - m[:-1]) / dt
    speeds = speeds - speeds.sum(axis=1, keepdims=True) / gen.size
    return _lagrangian_cells((mids[:, :, None] * gen.off_diagonal).transpose(1, 2, 0),
                             speeds.T, 0.0, DEFAULT_OPTIONS)[0]


def _settled(status):
    return (status == _Status.CONVERGED) | (status == _Status.BOUNDARY)


class TestBatchedPathAction:
    @pytest.mark.parametrize("case", ["K rows", "n + 1 columns", "flat", "text", "nan"])
    def test_malformed_warm_start_rejected(self, case):
        # the warm start is (K + 1, n) node potentials of finite floats
        gen = symmetric_chain()
        grid = zero_cost_path(gen, Measure.dirac(gen.space, "a"), 1.0, 4)
        start = {"K rows": np.zeros((4, 2)), "n + 1 columns": np.zeros((5, 3)),
                 "flat": np.zeros(10), "text": [["0", "x"]] * 5,
                 "nan": np.where(np.eye(5, 2) > 0, np.nan, 0.0)}[case]
        with pytest.raises(MalformedModel, match="warm start"):
            path_action(gen, grid, initial=start)

    def test_warm_start_is_the_logaddexp_form(self, monkeypatch):
        # the start at the quadrature node w, c + log((1 - w) e^{f_k - c} +
        # w e^{f_{k+1} - c}) with c = max(f_k, f_{k+1}), against
        # logaddexp(f_k + log(1 - w), f_{k+1} + log(w)): within 4 ulps of
        # max(|x|, 1) (near 0 either form is exact only to absolute
        # rounding), with no warning, on random pairs, pairs apart by up to
        # EXPONENT_CLIP (exactly, too), a boundary bridge's -30 cap, and
        # near-equal pairs past where e^f overflows
        rng = np.random.default_rng(30)
        K = 4000
        h = np.empty((K + 1, 4))
        h[:, 0] = rng.normal(0.0, 3.0, K + 1)
        h[:, 1] = rng.uniform(-0.5, 0.5, K + 1) * EXPONENT_CLIP
        h[:4, 1] = [0.0, EXPONENT_CLIP, 0.0, -EXPONENT_CLIP]
        h[:, 2] = np.where(np.arange(K + 1) % 2, -DEFAULT_TILT_CAP,
                           rng.uniform(-2.0, 2.0, K + 1))
        h[:, 3] = 800.0 + np.cumsum(rng.normal(0.0, 1e-3, K + 1))
        gen = validate_generator(list("abcd"), np.ones((4, 4)))
        grid = PathGrid(gen.space, 0.0, 1.0, np.full((K + 1, 4), 0.25))
        starts = []

        def recorded(flux, us, offset, opts, initial=None, *args):
            starts.append(initial)
            raise StopIteration

        monkeypatch.setattr(rates, "_lagrangian_cells", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StopIteration):
                path_action(gen, grid, initial=h)
        w = QUADRATURE_NODE
        want = np.logaddexp(h[:-1] + math.log(1.0 - w), h[1:] + math.log(w)).T
        assert starts[0].shape == want.shape
        ulps = np.abs(starts[0] - want) / np.spacing(np.maximum(np.abs(want), 1.0))
        assert ulps.max() <= 4.0

    def test_boundary_bridge_cells_match_cold_solves(self, rng):
        # A capped-tilt bridge to a target with one zero entry drains that
        # state; the per-cell backtrack settles the drained end as well.
        gen = random_model(rng, n_min=3, n_max=3)
        mu0 = random_measure(rng, gen)
        t = 0.8
        target = 0.5 * evolve_law(gen, mu0, t).p + 0.5 / gen.size
        target[1] = 0.0
        target = Measure(gen.space, target / target.sum())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryBridgeWarning)
            bridge = optimal_bridge(gen, mu0, target, t, 1000)
        assert bridge.boundary
        assert _settled(_cell_status(gen, bridge.path)).all()
        act = path_action(gen, bridge.path)
        assert act.infeasible_cell is None
        np.testing.assert_allclose(act.cell_values / bridge.path.dt,
                                   _cold_lagrangians(gen, bridge.path),
                                   rtol=0.0, atol=1e-10)

    def test_nisio_draw_stays_in_the_batch(self):
        # cold full Newton steps fail to halve the gradient on most cells
        # of this 2-state Nisio draw; backtracking settles them in the batch
        gen = validate_generator(["s0", "s1"], [[0.0, 0.11047028590113897],
                                                [0.42183692400014655, 0.0]])
        mu0 = Measure(gen.space, np.array([0.1426437791826141,
                                           0.8573562208173859]))
        f = Potential(gen.space, np.array([0.7059162355487467,
                                           -0.33508306898906803]))
        flow = doob_flow(gen, f, 0.9678210474450866, 1000)
        path, act = doob_forward(gen, mu0, flow)
        assert _settled(_cell_status(gen, path)).all()
        np.testing.assert_allclose(act.cell_values / path.dt,
                                   _cold_lagrangians(gen, path),
                                   rtol=0.0, atol=1e-10)

    def test_dirac_cells_match_cold_solves(self, rng):
        # a path resting at a Dirac law for five cells before it moves:
        # flux leaves only the occupied state in the resting cells, which
        # form their own group and match cold solves like the moving ones
        gen = random_model(rng, n_min=3, n_max=3)
        moving = zero_cost_path(gen, Measure.dirac(gen.space, 0), 0.5, 50)
        m = np.vstack([np.repeat(moving.measures[:1], 5, axis=0),
                       moving.measures])
        grid = PathGrid(gen.space, 0.0, 0.55, m)
        assert _settled(_cell_status(gen, grid)).all()
        res = path_action(gen, grid)
        assert res.infeasible_cell is None
        cold = _cold_lagrangians(gen, grid)
        assert cold[:5].min() > 0.0
        np.testing.assert_allclose(res.cell_values / grid.dt, cold,
                                   rtol=0.0, atol=1e-10)

    def test_infeasible_cell_after_batched_cells(self, monkeypatch):
        # drift towards the absorbing state is feasible; the way back is not
        pa = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.6, 0.5, 0.4, 0.3])
        cycle = validate_generator(["a", "b", "c"], [[0.0, 1.0, 1.0],
                                                     [0.5, 0.0, 1.0],
                                                     [0.0, 0.0, 0.0]])
        ascents = []
        ascent = lagrangian._newton_ascent

        def counted(objective, hessian, x, free, tol):
            ascents.append(x.shape[1])  # the cells on the last axis
            return ascent(objective, hessian, x, free, tol)

        monkeypatch.setattr(lagrangian, "_newton_ascent", counted)
        k = 4
        # every cell shares one flux pattern: on the 2-state chain, a
        # forest, all are settled in closed form; on the chain where a and
        # b trade mass both ways and both feed c, the transport test finds
        # cell k infeasible, since c cannot send mass back, and one ascent
        # solves the other cells. Either way the +inf verdict on cell k is
        # final: no cell is solved again
        for gen, m, runs in [
                (absorbing_chain(), np.column_stack([pa, 1 - pa]), []),
                (cycle, np.column_stack([0.6 * pa, 0.4 * pa, 1 - pa]), [7])]:
            grid = PathGrid(gen.space, 0.0, 1.0, m)
            assert _settled(_cell_status(gen, grid))[:k].all()
            ascents.clear()
            res = path_action(gen, grid)
            assert ascents == runs
            assert res.value == math.inf
            assert res.infeasible_cell == k
            assert len(res.cell_values) == k + 1
            assert res.cell_values[k] == math.inf
            np.testing.assert_allclose(res.cell_values[:k] / grid.dt,
                                       _cold_lagrangians(gen, grid)[:k],
                                       rtol=0.0, atol=1e-10)

    def test_cells_draining_a_cycle_into_what_it_reaches_skip_the_kernel(
            self, monkeypatch):
        # a and b trade mass both ways and both feed the absorbing c: every
        # cell of the zero-cost path sends from the cycle to c, which the
        # cycle reaches, so no cell needs the transport kernel
        calls = []
        monkeypatch.setattr(lagrangian, "_transport",
                            lambda *args: calls.append(args) or _transport(*args))
        gen = validate_generator(["a", "b", "c"], [[0.0, 1.0, 1.0],
                                                   [0.5, 0.0, 1.0],
                                                   [0.0, 0.0, 0.0]])
        res = path_action(gen, zero_cost_path(
            gen, Measure(gen.space, [0.6, 0.4, 0.0]), 1.0, 1000))
        assert 0.0 <= res.value <= 1e-8
        assert calls == []

    def test_unsettled_cell_raises(self, rng, monkeypatch):
        # one Newton iteration cannot settle the cells of a tilted path
        gen = random_model(rng, n_max=3)
        flow = doob_flow(gen, random_potential(rng, gen, bound=1.0), 1.0, 50)
        grid, _ = doob_forward(gen, random_measure(rng, gen), flow)
        monkeypatch.setattr(lagrangian, "MAX_ITERS", 1)
        with pytest.raises(NumericalFailure, match="within 1 iterations"):
            path_action(gen, grid)


class TestPartitionRate:
    def test_true_path_leaves_only_entropy(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        p0 = random_measure(rng, gen)
        grid = zero_cost_path(gen, mu0, 1.0, 64)
        value = partition_rate(gen, grid, Partition((0.25, 0.5, 1.0)), p0)
        assert value == pytest.approx(relative_entropy(mu0, p0), abs=1e-7)

    def test_refinement_never_decreases(self, rng):
        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        f = random_potential(rng, gen, bound=1.0)
        flow = doob_flow(gen, f, 1.0, 64)
        path, _ = doob_forward(gen, mu0, flow)
        p0 = Measure.uniform(gen.space)
        values = []
        for cells in (1, 2, 4, 8):
            times = tuple((i + 1) / cells for i in range(cells))
            values.append(partition_rate(gen, path, Partition(times), p0))
        for coarse, fine in zip(values, values[1:]):
            assert fine >= coarse - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("random", "stiff", "sparse")),
           K=st.sampled_from((8, 64, 200)))
    def test_every_node_of_a_doob_path_gives_the_exact_rate(self, seed, kind, K):
        # over every node of a Doob path the chain of conditional rates
        # telescopes, step k attained at the flow's h_{k+1}: the partition
        # rate is KL(mu0 | P0) + <f, gamma_t> - <V(t)f, mu0> at any K
        from ctmc_ldp import v_apply

        rng = np.random.default_rng(seed)
        gen = random_chain(rng, kind, n_max=4)
        mu0, p0 = random_measure(rng, gen), random_measure(rng, gen)
        f = random_potential(rng, gen, bound=1.0)
        t = float(rng.uniform(0.3, 1.5))
        path, _ = doob_forward(gen, mu0, doob_flow(gen, f, t, K))
        exact = relative_entropy(mu0, p0) + float(f.f @ path.measures[-1]) \
            - float(v_apply(gen, f, t).f @ mu0.p)
        value = partition_rate(gen, path, Partition(tuple(path.node_times[1:])), p0)
        assert value == pytest.approx(exact, rel=0.0, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("random", "stiff", "sparse")))
    def test_matches_joint_rate_of_the_nodes(self, seed, kind):
        # uneven node gaps, nodes with empty states and Dirac laws: the
        # chain over the node rows gives joint_rate's value, its infinities
        # and its raises
        rng = np.random.default_rng(seed)
        gen = random_chain(rng, kind, n_max=4)
        K = int(rng.integers(2, 12))
        t0 = float(rng.uniform(-1.0, 1.0))
        grid = PathGrid(gen.space, t0, t0 + float(rng.uniform(0.2, 3.0)),
                        [random_law(rng, gen).p for _ in range(K + 1)])
        idx = np.sort(rng.choice(np.arange(1, K + 1), int(rng.integers(1, K + 1)),
                                 replace=False))
        p0 = random_law(rng, gen)

        def outcome(rate):
            try:
                return rate()
            except NumericalFailure as exc:
                return type(exc)

        got = outcome(lambda: partition_rate(
            gen, grid, Partition(tuple(grid.node_times[idx])), p0))
        want = outcome(lambda: joint_rate(
            gen, p0, Partition(tuple(idx * grid.dt)), grid.measures[[0, *idx]]).value)
        if isinstance(want, type) or math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_strict_increase_on_non_optimal_path(self, rng):
        # a straight-line measure path is not a tilted flow, so finer
        # partitions genuinely sharpen the lower bound toward the action
        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        nu1 = random_measure(rng, gen)
        lam = np.linspace(0.0, 1.0, 129)[:, None]
        grid = PathGrid(gen.space, 0.0, 1.0,
                        (1 - lam) * mu0.p[None, :] + lam * nu1.p[None, :])
        p0 = Measure.uniform(gen.space)
        values = []
        for cells in (1, 4, 16):
            times = tuple((i + 1) / cells for i in range(cells))
            values.append(partition_rate(gen, grid, Partition(times), p0))
        assert values[0] < values[1] < values[2]
        bound = relative_entropy(mu0, p0) + path_action(gen, grid).value
        assert values[2] <= bound + 5e-3

    def test_bounded_by_entropy_plus_action(self, rng):
        # finite partitions underestimate the supremum
        for _ in range(3):
            gen = random_model(rng, n_max=3)
            mu0 = random_measure(rng, gen)
            f = random_potential(rng, gen, bound=1.0)
            flow = doob_flow(gen, f, 1.0, 128)
            path, action = doob_forward(gen, mu0, flow)
            p0 = Measure.uniform(gen.space)
            bound = relative_entropy(mu0, p0) + action.value + 5e-3
            for cells in (2, 8, 16):
                times = tuple((i + 1) / cells for i in range(cells))
                assert partition_rate(gen, path, Partition(times), p0) <= bound

    def test_out_of_range_time_rejected(self, rng):
        gen = random_model(rng)
        grid = zero_cost_path(gen, random_measure(rng, gen), 1.0, 10)
        p0 = Measure.uniform(gen.space)
        with pytest.raises(InvalidParameter):
            partition_rate(gen, grid, Partition((1.2,)), p0)
        with pytest.raises(InvalidParameter):
            partition_rate(gen, grid, Partition((0.004,)), p0)
        with pytest.raises(InvalidParameter):
            # neither is a grid node
            partition_rate(gen, grid, Partition((0.299, 0.301)), p0)

    def test_off_node_time_rejected(self, rng):
        # a time between grid nodes raises; a node met up to rounding passes
        gen = random_model(rng)
        grid = zero_cost_path(gen, random_measure(rng, gen), 1.0, 10)
        p0 = Measure.uniform(gen.space)
        with pytest.raises(InvalidParameter, match="not a grid node"):
            partition_rate(gen, grid, Partition((0.25,)), p0)
        assert partition_rate(gen, grid, Partition((3 * 0.1,)), p0) \
            == pytest.approx(partition_rate(gen, grid, Partition((0.3,)), p0))


class TestGridTypes:
    @pytest.mark.parametrize("case, error", [
        ("grid with one node", MalformedModel), ("grid node negative", MalformedModel),
        ("conditional rate spaces", MalformedModel), ("action spaces", MalformedModel),
        ("partition rate spaces", MalformedModel),
        ("partition times on one node", InvalidParameter)])
    def test_invalid_input_rejected(self, case, error):
        gen, other = symmetric_chain(), StateSpace(("x", "y"))
        half = Measure.uniform(gen.space)
        path = PathGrid(gen.space, 0.0, 1.0, np.full((5, 2), 0.5))
        foreign = PathGrid(other, 0.0, 1.0, np.full((5, 2), 0.5))
        call = {
            "grid with one node": lambda: PathGrid(gen.space, 0.0, 1.0, [[0.5, 0.5]]),
            "grid node negative": lambda: PathGrid(
                gen.space, 0.0, 1.0, [[1.1, -0.1], [0.5, 0.5]]),
            "conditional rate spaces": lambda: conditional_rate(
                gen, Measure.uniform(other), half, 0.5),
            "action spaces": lambda: path_action(gen, foreign),
            "partition rate spaces": lambda: partition_rate(
                gen, foreign, Partition((0.5,)), half),
            "partition times on one node": lambda: partition_rate(
                gen, path, Partition((0.25, 0.25 + 1e-10)), half),
        }[case]
        with pytest.raises(error):
            call()

    def test_pathgrid_validation(self):
        gen = symmetric_chain()
        with pytest.raises(MalformedModel):
            PathGrid(gen.space, 0.0, 1.0, np.array([[1.0, 0.1], [0.5, 0.5]]))
        with pytest.raises(MalformedModel):
            PathGrid(gen.space, 1.0, 0.5, np.tile([0.5, 0.5], (3, 1)))

    def test_partition_validation(self):
        with pytest.raises(MalformedModel):
            Partition((0.5, 0.5))
        with pytest.raises(MalformedModel):
            Partition(())
