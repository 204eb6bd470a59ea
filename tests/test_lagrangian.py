"""Lagrangian evaluation, duality, and the speed map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctmc_ldp import (
    InfeasibleSpeed,
    Measure,
    NumericalFailure,
    Potential,
    Speed,
    SolverOptions,
    dual_check,
    lagrangian_value,
    pre_lagrangian,
    speed,
    apply_hamiltonian,
    validate_generator,
)
from ctmc_ldp.lagrangian import DEFAULT_OPTIONS, _lagrangian_cells, _Status
from conftest import (
    absorbing_chain,
    random_measure,
    random_model,
    random_potential,
    symmetric_chain,
)


class TestSpeed:
    def test_stationary_law_zero_speed(self):
        gen = symmetric_chain()
        u = speed(gen, Measure.uniform(gen.space), Potential.zeros(gen.space))
        assert np.abs(u.u).max() <= 1e-15

    def test_absorbing_unit_flux(self):
        gen = absorbing_chain()
        u = speed(gen, Measure.dirac(gen.space, "a"), Potential.zeros(gen.space))
        assert np.allclose(u.u, [-1.0, 1.0], atol=1e-15)

    def test_shift_invariance(self, rng):
        gen = random_model(rng)
        mu = random_measure(rng, gen)
        g = random_potential(rng, gen, bound=2.0)
        shifted = Potential(gen.space, g.f + 4.2)
        assert np.allclose(speed(gen, mu, g).u, speed(gen, mu, shifted).u,
                           atol=1e-10)

    def test_zero_total_mass(self, rng):
        for _ in range(20):
            gen = random_model(rng)
            mu = random_measure(rng, gen, strict=False)
            g = random_potential(rng, gen, bound=2.0)
            assert abs(speed(gen, mu, g).u.sum()) <= 1e-12

    def test_nonzero_sum_rejected(self):
        gen = symmetric_chain()
        with pytest.raises(InfeasibleSpeed):
            Speed(gen.space, np.array([0.5, 0.0]))


class TestLagrangianValue:
    def test_forward_speed_costs_nothing(self, rng):
        gen = random_model(rng)
        mu = random_measure(rng, gen)
        u = speed(gen, mu, Potential.zeros(gen.space))
        res = lagrangian_value(gen, mu, u)
        assert res.value <= 1e-12
        assert res.attained
        assert np.abs(res.maximizer.f).max() <= 1e-6

    def test_absorbing_standstill_costs_one(self):
        # holding all mass at a means shutting the unit-rate exit channel
        gen = absorbing_chain()
        res = lagrangian_value(gen, Measure.dirac(gen.space, "a"), np.zeros(2))
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert not res.attained

    def test_matches_pre_lagrangian_along_tilts(self, rng):
        # L(mu, rho(mu, g)) = <Lg, mu>
        cases = []
        for _ in range(25):
            gen = random_model(rng)
            cases.append((gen, random_measure(rng, gen),
                          random_potential(rng, gen, bound=2.0)))
        # a steep tilt: the speed's entries near 1e4 sum to 1.8e-12 by
        # rounding alone, which must not read as an unbalanced component
        steep = validate_generator(["a", "b", "c"],
                                   [[0.0, 1.0, 2.0], [0.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
        cases.append((steep, Measure(steep.space, [0.2, 0.3, 0.5]),
                      Potential(steep.space, [0.0, 5.0, 10.0])))
        for gen, mu, g in cases:
            res = lagrangian_value(gen, mu, speed(gen, mu, g))
            closed = float(pre_lagrangian(gen, g).f @ mu.p)
            assert res.value == pytest.approx(closed, rel=1e-9, abs=1e-6)
            assert dual_check(gen, mu, g) <= 1e-9 * max(1.0, closed)

    def test_nonzero_sum_speed_rejected(self, rng):
        gen = random_model(rng)
        mu = random_measure(rng, gen)
        with pytest.raises(InfeasibleSpeed):
            lagrangian_value(gen, mu, np.ones(gen.size))

    def test_infeasible_direction_is_infinite(self):
        # pulling mass back into a on the absorbing chain is impossible
        gen = absorbing_chain()
        mu = Measure.dirac(gen.space, "a")
        res = lagrangian_value(gen, mu, np.array([1.0, -1.0]))
        assert res.value == math.inf
        assert not res.attained

    def test_empty_state_cannot_drain(self):
        gen = symmetric_chain()
        mu = Measure.dirac(gen.space, "a")
        res = lagrangian_value(gen, mu, np.array([1.0, -1.0]))
        assert res.value == math.inf
        assert res.iterations == 0  # screened out, not iterated to divergence

    def test_convexity_in_speed(self, rng):
        for _ in range(15):
            gen = random_model(rng)
            mu = random_measure(rng, gen)
            u1 = speed(gen, mu, random_potential(rng, gen, bound=1.5))
            u2 = speed(gen, mu, random_potential(rng, gen, bound=1.5))
            mixed = Speed(gen.space, 0.5 * (u1.u + u2.u))
            lhs = lagrangian_value(gen, mu, mixed).value
            rhs = 0.5 * (lagrangian_value(gen, mu, u1).value
                         + lagrangian_value(gen, mu, u2).value)
            assert lhs <= rhs + 1e-7

    def test_round_trip_of_maximizer(self, rng):
        # the maximizer of L(mu, rho(mu,g)) reproduces the speed rho(mu,g)
        cases = []
        for _ in range(15):
            gen = random_model(rng)
            cases.append((gen, random_measure(rng, gen),
                          random_potential(rng, gen, bound=2.0)))
        # slow channels driven hard: both states hold mass and both channels
        # carry flux, so the supremum is attained though the tilt spreads
        # 14.5, scaling one channel's rate by 5e-7
        slow = validate_generator(["a", "b"], [[0.0, 1e-6], [1e-6, 0.0]])
        cases.append((slow, Measure(slow.space, [0.5, 0.5]),
                      Potential(slow.space, [0.0, -14.5])))
        for gen, mu, g in cases:
            target = speed(gen, mu, g)
            res = lagrangian_value(gen, mu, target)
            assert res.attained
            back = speed(gen, mu, res.maximizer)
            assert np.abs(back.u - target.u).sum() <= 1e-6

    def test_gradient_matches_finite_differences(self, rng):
        # gradient of <f,u> - <Hf,mu> is u - rho(mu,f)
        gen = random_model(rng)
        mu = random_measure(rng, gen)
        f = random_potential(rng, gen, bound=1.0)
        u = speed(gen, mu, random_potential(rng, gen, bound=1.0))

        def objective(vec):
            pot = Potential(gen.space, vec)
            return float(vec @ u.u) - float(apply_hamiltonian(gen, pot).f @ mu.p)

        analytic = u.u - speed(gen, mu, f).u
        h = 1e-5
        for i in range(gen.size):
            e = np.zeros(gen.size)
            e[i] = h
            fd = (objective(f.f + e) - objective(f.f - e)) / (2 * h)
            assert fd == pytest.approx(analytic[i], rel=1e-6, abs=1e-8)

    def test_result_metadata(self, rng):
        gen = random_model(rng)
        mu = random_measure(rng, gen)
        res = lagrangian_value(gen, mu, speed(gen, mu, random_potential(rng, gen)))
        assert res.iterations >= 1
        assert res.gradient_norm <= SolverOptions().gradient_tol

    def test_unreachable_idle_state_is_undetermined(self):
        # no mass on c and no channel into c: its tilt component is a flat
        # direction, pinned to zero and reported
        from ctmc_ldp import validate_generator

        gen = validate_generator(["a", "b", "c"],
                                 [[0.0, 1.0, 0.0], [0.5, 0.0, 0.0],
                                  [0.0, 0.7, 0.0]])
        mu = Measure(gen.space, [0.6, 0.4, 0.0])
        u = speed(gen, mu, Potential.zeros(gen.space))
        res = lagrangian_value(gen, mu, u)
        assert res.undetermined_states == (2,)
        assert res.value <= 1e-12
        # but demanding flux into c is infeasible: nothing can reach it
        res2 = lagrangian_value(gen, mu, np.array([-0.1, 0.0, 0.1]))
        assert res2.value == math.inf


class TestNearAbsorbingVerdict:
    # Rates of three benchmark ops (`solves` seed 25 op 557, seed 7026 op
    # 16, seed 7027 op 103): s1 leaves only at a rate below 1.6e-3, so a
    # small flux meets the gradient tolerance long before the tilt ratio
    # shows the shut channel.
    @pytest.mark.parametrize("rate_in, rate_out", [
        (1.0266306012053712, 0.00012669471857254584),
        (2.139652706374402, 0.0003520712746616644),
        (2.6138915952962214, 7.511049860434213e-05),
    ])
    def test_holding_a_slow_state_is_not_attained(self, rate_in, rate_out):
        gen = validate_generator(["s0", "s1"],
                                 [[0.0, rate_in], [rate_out, 0.0]])
        res = lagrangian_value(gen, Measure.dirac(gen.space, "s1"),
                               np.zeros(2))
        assert res.value == pytest.approx(rate_out, abs=1e-6)
        assert not res.attained


class TestBatchedCells:
    @settings(max_examples=40, deadline=2000, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("random", "stiff", "sparse")))
    def test_batch_matches_per_cell_solver(self, seed, kind):
        # every cell of a stack, zero-mass states and Dirac laws included,
        # agrees with its own lagrangian_value in value, iterations and
        # infiniteness, and fails to settle exactly where that raises
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        if kind == "stiff":
            rates = 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
        else:
            rates = rng.uniform(0.0, 3.0, (n, n))
            if kind == "sparse":
                rates[rng.random((n, n)) < 0.5] = 0.0
        gen = validate_generator([f"s{i}" for i in range(n)], rates)
        mus = rng.dirichlet(np.ones(n), 12)
        mus[4:8][rng.random((4, n)) < 0.4] = 0.0
        mus[8:] = np.eye(n)[rng.integers(0, n, 4)]
        mus[mus.sum(axis=1) == 0.0, 0] = 1.0
        mus /= mus.sum(axis=1, keepdims=True)
        # speeds of tilts at the cell's own law or at another one, so that
        # some drain empty states or unbalance a flux component
        at = np.where(rng.random(12) < 0.7, np.arange(12), rng.permutation(12))
        us = np.array([speed(gen, Measure(gen.space, mus[j]),
                             random_potential(rng, gen, bound=2.0)).u
                       for j in at])
        us[::2] += rng.normal(0.0, 0.1, us[::2].shape)
        us -= us.mean(axis=1, keepdims=True)
        status, _, values, iterations, _, _ = _lagrangian_cells(
            gen, mus, us, DEFAULT_OPTIONS)
        for k in range(len(mus)):
            try:
                cold = lagrangian_value(gen, Measure(gen.space, mus[k]), us[k])
            except NumericalFailure:
                assert status[k] in (_Status.STALLED, _Status.MAX_ITERS)
                continue
            assert math.isinf(values[k]) == math.isinf(cold.value)
            assert max(values[k], 0.0) == pytest.approx(cold.value, abs=1e-10)
            assert iterations[k] == cold.iterations

    def test_warm_start_is_shifted_within_each_component(self):
        # a, pinned alone in its component, holds mass but no flux; a warm
        # start at the maximizer (60, 0, 1) is taken relative to b inside
        # {b, c}, so Newton starts at the maximizer instead of 60 away from it
        gen = validate_generator(["a", "b", "c"],
                                 [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        mu = Measure(gen.space, [0.2, 0.3, 0.5])
        f = np.array([60.0, 0.0, 1.0])
        u = speed(gen, mu, Potential(gen.space, f)).u
        status, x, values, iterations, _, _ = _lagrangian_cells(
            gen, mu.p[None], u[None], DEFAULT_OPTIONS, initial=f[None])
        assert status[0] == _Status.CONVERGED and iterations[0] <= 1
        np.testing.assert_allclose(x[0], [0.0, 0.0, 1.0], atol=1e-9)
        assert values[0] == pytest.approx(lagrangian_value(gen, mu, u).value, abs=1e-12)

    def test_pins_one_state_per_flux_component(self, rng):
        # reference: components of the live channels by graph search, each
        # pinned at its lowest state
        for trial in range(60):
            n = int(rng.integers(2, 11))
            if trial % 3:
                rates = rng.uniform(0.0, 3.0, (n, n))
                rates[rng.random((n, n)) < 0.7] = 0.0
            else:  # a chain through the states in random order
                order = rng.permutation(n)
                rates = np.zeros((n, n))
                rates[order[:-1], order[1:]] = 1.0
            gen = validate_generator([f"s{i}" for i in range(n)], rates)
            p = rng.dirichlet(np.ones(n))
            p[rng.random(n) < 0.3 * (trial % 2)] = 0.0
            p = p / p.sum() if p.sum() > 0.0 else np.eye(n)[0]
            live = p[:, None] * gen.off_diagonal > 0.0
            expected = np.zeros(n, dtype=bool)
            seen = np.zeros(n, dtype=bool)
            for s in range(n):
                if seen[s]:
                    continue
                comp, stack = [s], [s]
                seen[s] = True
                while stack:
                    x = stack.pop()
                    for y in np.flatnonzero(live[x] | live[:, x]):
                        if not seen[y]:
                            seen[y] = True
                            comp.append(y)
                            stack.append(y)
                expected[min(comp)] = True
            pinned = _lagrangian_cells(gen, p[None], np.zeros((1, n)),
                                       DEFAULT_OPTIONS)[5][0]
            np.testing.assert_array_equal(pinned, expected)


class TestSolverRobustness:
    def test_rough_inputs_never_crash(self, rng):
        # sparse supports, tiny rates, and harsh speeds must resolve to a
        # finite value, +inf, or an explicit NumericalFailure -- never an
        # unhandled error or a negative value
        from ctmc_ldp import NumericalFailure
        from ctmc_ldp.markov import validate_generator

        for _ in range(200):
            n = int(rng.integers(2, 5))
            rates = rng.uniform(0.0, 3.0, (n, n))
            rates[rng.random((n, n)) < 0.4] = 0.0  # knock out channels
            gen = validate_generator([f"s{i}" for i in range(n)], rates)
            p = rng.dirichlet(np.ones(n))
            p[rng.random(n) < 0.3] = 0.0
            if p.sum() == 0.0:
                continue
            mu = Measure(gen.space, p / p.sum())
            raw = rng.uniform(-3, 3, n)
            raw -= raw.mean()
            try:
                res = lagrangian_value(gen, mu, raw)
            except NumericalFailure:
                continue
            assert res.value >= 0.0
            if res.attained:
                assert res.gradient_norm <= 1e-9


class TestDualCheck:
    def test_zero_potential_exact(self, rng):
        gen = random_model(rng)
        mu = random_measure(rng, gen)
        assert dual_check(gen, mu, Potential.zeros(gen.space)) <= 1e-14

    def test_residual_small_on_random_inputs(self, rng):
        for _ in range(25):
            gen = random_model(rng)
            mu = random_measure(rng, gen)
            f = random_potential(rng, gen, bound=2.0)
            assert dual_check(gen, mu, f) <= 1e-6

    def test_young_inequality(self, rng):
        # <f,u> <= <Hf,mu> + L(mu,u)
        for _ in range(20):
            gen = random_model(rng)
            mu = random_measure(rng, gen)
            f = random_potential(rng, gen, bound=1.5)
            u = speed(gen, mu, random_potential(rng, gen, bound=1.5))
            lhs = float(f.f @ u.u)
            rhs = float(apply_hamiltonian(gen, f).f @ mu.p) \
                + lagrangian_value(gen, mu, u).value
            assert lhs <= rhs + 1e-8
