"""Lagrangian evaluation, duality, and the speed map."""

import itertools
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
from ctmc_ldp.lagrangian import (
    DEFAULT_OPTIONS,
    _lagrangian_cells,
    _lagrangian_objective,
    _newton_ascent,
    _Status,
)
from ctmc_ldp.markov import _reachable
from conftest import (
    absorbing_chain,
    random_chain,
    random_law,
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

    def test_fast_speed_summing_to_its_rounding_is_accepted(self):
        # tilted rates near 1e7 leave speed entries summing to about 5e-10,
        # rounding at the scale of sum |u|; the speed is the g-tilted one,
        # so L(mu, rho(mu, g)) is <Lg, mu>
        gen = validate_generator(["a", "b", "c"], [[0.0, 0.0, 2.0],
                                                   [500.0, 0.0, 1000.0],
                                                   [1.0, 2.0, 0.0]])
        mu = Measure(gen.space, [0.5, 0.3, 0.2])
        g = Potential(gen.space, [3.0, -3.0, 6.0])
        res = lagrangian_value(gen, mu, speed(gen, mu, g))
        assert res.value == pytest.approx(pre_lagrangian(gen, g).f @ mu.p, rel=1e-12)


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
        # full support on 3 or more states: the flux graph has cycles, so
        # Newton runs; a 2-state chain is a forest, settled in closed form
        for n_min, n_max in [(3, 5), (2, 2)]:
            gen = random_model(rng, n_min=n_min, n_max=n_max)
            mu = random_measure(rng, gen)
            res = lagrangian_value(gen, mu, speed(gen, mu, random_potential(rng, gen)))
            assert (res.iterations >= 1) == (n_min == 3)
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
    # shows the shut channel. Those flux graphs are forests, settled in
    # closed form; inside a cycle, the transport test finds the channels
    # that must shut.
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

    @pytest.mark.parametrize("rate", [1e-6, 1e-4, 3e-3])
    def test_slowly_fed_empty_state_in_a_cycle_is_not_attained(self, rate):
        # a and b trade mass and both feed the empty state c slowly;
        # keeping c empty shuts both feeds only as f_c -> -infinity. No
        # plan uses them, so they cost their flux and leave the edge a-b,
        # a forest settled without Newton
        gen = validate_generator(["a", "b", "c"], [[0.0, 1.0, rate],
                                                   [2.0, 0.0, 2.0 * rate],
                                                   [1.0, 1.0, 0.0]])
        res = lagrangian_value(gen, Measure(gen.space, [0.6, 0.4, 0.0]),
                               np.zeros(3))
        assert res.iterations == 0
        assert res.value == pytest.approx(
            (math.sqrt(0.6) - math.sqrt(0.8)) ** 2 + 1.4 * rate, abs=1e-8)
        assert not res.attained


class TestTransportVerdicts:
    def test_standstill_without_cycles_costs_the_exit_flux(self):
        # a -> (c, d), b -> d, c -> b, and d is empty: no live channel lies
        # on a directed cycle, so holding still shuts every one of them, at
        # the cost of their flux, mu . r
        rates = np.zeros((4, 4))
        rates[0, 2], rates[0, 3], rates[1, 3], rates[2, 1] = 0.69, 2.55, 0.19, 2.2
        rates[3, 1], rates[3, 2] = 0.46, 6.6
        gen = validate_generator(["a", "b", "c", "d"], rates)
        mu = Measure(gen.space, [0.958, 0.03, 0.012, 0.0])
        res = lagrangian_value(gen, mu, np.zeros(4))
        assert res.value == pytest.approx(mu.p @ gen.exit_rates, rel=1e-12)
        assert res.value == pytest.approx(3.13602, abs=1e-12)
        assert not res.attained

    def test_cycle_feeding_a_one_way_chain_at_standstill(self):
        # s0 -> s1 -> s2 -> s0 feeds s2 -> s3 -> s4 -> s5 at unit rates:
        # holding the uniform law still shuts the three chain channels
        # carrying flux, each at its flux 1/6, while the cycle rests
        rates = np.zeros((6, 6))
        rates[[0, 1, 2, 2, 3, 4], [1, 2, 0, 3, 4, 5]] = 1.0
        gen = validate_generator([f"s{i}" for i in range(6)], rates)
        res = lagrangian_value(gen, Measure.uniform(gen.space), np.zeros(6))
        assert res.value == pytest.approx(0.5, rel=1e-12)
        assert not res.attained

    def test_rounding_size_speed_into_an_empty_absorbing_state(self):
        # a -> b -> c -> a, and c feeds the empty, absorbing d: a speed of
        # 5e-13 into d is rounding, and the cell costs what it costs with 0
        # there, the cycle's part plus the flux of the shut channel c -> d
        gen = validate_generator(["a", "b", "c", "d"], [[0.0, 1.0, 0.0, 0.0],
                                                        [0.0, 0.0, 1.0, 0.0],
                                                        [1.0, 0.0, 0.0, 0.5],
                                                        [0.0, 0.0, 0.0, 0.0]])
        mu = Measure(gen.space, [0.4, 0.3, 0.3, 0.0])
        exact = lagrangian_value(gen, mu, [-0.01, 0.01, 0.0, 0.0])
        res = lagrangian_value(gen, mu, [-0.01, 0.01 - 5e-13, 0.0, 5e-13])
        assert exact.value == pytest.approx(0.157604556305, abs=1e-11)
        assert res.value == pytest.approx(exact.value, rel=1e-9)
        assert not res.attained and not exact.attained

    def test_raw_speed_summing_to_rounding_is_recentred(self):
        # a speed is accepted when its entries sum to at most SPEED_SUM_TOL;
        # one summing to 5e-12 costs what its recentred version costs
        gen = validate_generator(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])
        mu = Measure.uniform(gen.space)
        exact = lagrangian_value(gen, mu, [0.1, -0.1])
        res = lagrangian_value(gen, mu, [0.1, -0.1 + 5e-12])
        assert exact.value == pytest.approx(0.054663, abs=1e-6)
        assert res.value == pytest.approx(exact.value, abs=1e-10)
        assert res.attained

    def test_rounding_sum_spread_over_an_isolated_state_is_balanced(self):
        # u sums to 5e-9, within what Speed accepts at sum|u| = 100;
        # recentring moves a third of it onto the isolated c, so the
        # component {a, b} sums to 3.3e-9, which is rounding, not +inf
        gen = validate_generator(["a", "b", "c"], [[0.0, 1.0, 0.0],
                                                   [2.0, 0.0, 0.0],
                                                   [0.0, 0.0, 0.0]])
        mu = Measure(gen.space, [0.5, 0.5, 0.0])
        exact = lagrangian_value(gen, mu, [50.0, -50.0, 0.0])
        res = lagrangian_value(gen, mu, [50.0, -50.0 + 5e-9, 0.0])
        assert exact.value == pytest.approx(147.09115127114075, rel=1e-12)
        assert res.value == pytest.approx(147.0911512581, rel=1e-12)

    @pytest.mark.parametrize("rates, p, g", [
        # sum|u| = 1.6e7: b's speed, -9.3e-8, is rounding, so b's channels
        # shut and b alone must read as balanced; then the gradient stops
        # at its rounding floor
        ({(0, 2): 20.29694, (0, 3): 151.5167, (1, 0): 0.111135,
          (1, 3): 0.014979, (3, 2): 8.843087},
         [0.650923, 0.003301, 0.141972, 0.203803],
         [-6.631827, 1.845003, 6.618099, -6.161782]),
        # sum|u| = 2.9e7: the gradient cannot fall below its rounding floor
        # of a few 1e-8, far above gradient_tol = 1e-9
        ({(0, 1): 26.535, (2, 0): 0.794, (2, 1): 0.003},
         [0.32, 0.47, 0.21], [-1.4, 3.7, -19.2]),
    ])
    def test_fast_tilt_settles_at_its_rounding_floor(self, rates, p, g):
        # L(mu, rho(mu, g)) = <Lg, mu>, however large
        n = len(p)
        Q = np.zeros((n, n))
        for (x, y), r in rates.items():
            Q[x, y] = r
        gen = validate_generator([f"s{i}" for i in range(n)], Q)
        mu = Measure(gen.space, np.array(p) / sum(p))
        g = Potential(gen.space, g)
        res = lagrangian_value(gen, mu, speed(gen, mu, g))
        assert res.value == pytest.approx(pre_lagrangian(gen, g).f @ mu.p, rel=1e-12)

    @settings(max_examples=60, deadline=3000)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_verdicts_match_set_enumeration(self, seed):
        # chains with a cycle among s0, s1, s2 and sparse channels besides;
        # the speed is the net of random currents on live channels, some
        # against them and some zero, plus rounding-size entries. Finite,
        # attained and the value agree with the reference, which decides
        # by enumerating sets of states instead of by transport
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        rates = rng.uniform(0.05, 3.0, (n, n))
        rates[rng.random((n, n)) < 0.6] = 0.0
        rates[[0, 1, 2], [1, 2, 0]] = rng.uniform(0.2, 2.0, 3)
        gen = validate_generator([f"s{i}" for i in range(n)], rates)
        p = rng.dirichlet(np.ones(n))
        p[3:][rng.random(n - 3) < 0.5] = 0.0
        p = p / p.sum()
        tail, head = np.nonzero(p[:, None] * gen.off_diagonal > 0.0)
        j = rng.choice([-1.0, 0.0, 1.0], tail.size, p=[0.125, 0.625, 0.25]) \
            * 10.0 ** rng.uniform(-3, 0, tail.size)
        u = np.zeros(n)
        np.add.at(u, head, j)
        np.add.at(u, tail, -j)
        noise = rng.uniform(-1e-13, 1e-13, n) * (rng.random(n) < 0.5)
        u = u + noise - noise.mean()
        res = lagrangian_value(gen, Measure(gen.space, p), u)
        ref_status, _, ref_value = _newton_reference(gen, p, u)
        assert math.isinf(res.value) == math.isinf(ref_value)
        if math.isfinite(ref_value):
            assert res.attained == (ref_status == _Status.CONVERGED)
            assert res.value == pytest.approx(
                ref_value, rel=1e-8, abs=2 * DEFAULT_OPTIONS.gradient_tol)

    @settings(max_examples=80, deadline=2000)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_standstill_costs_at_most_the_exit_flux(self, seed):
        # Hf >= -r pointwise, so 0 <= L(mu, 0) <= sum_x mu_x r_x on every
        # chain, sparse ones and laws with empty states included
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        rates = rng.uniform(0.05, 3.0, (n, n))
        rates[rng.random((n, n)) < 0.55] = 0.0
        gen = validate_generator([f"s{i}" for i in range(n)], rates)
        p = rng.dirichlet(np.ones(n))
        p[rng.random(n) < 0.3] = 0.0
        p = p / p.sum() if p.sum() > 0.0 else np.eye(n)[0]
        res = lagrangian_value(gen, Measure(gen.space, p), np.zeros(n))
        assert 0.0 <= res.value <= (p @ gen.exit_rates) * (1.0 + 1e-12)


def _newton_reference(gen, p, u):
    """Status, maximizer and value of L(p, u) by ``_newton_ascent`` on
    ``_lagrangian_objective`` from f = 0, with no closed form and no
    transport kernel.

    A current realizing u along the live channels exists exactly when no
    set S of states that no live channel enters gains mass, sum_S u > 0
    (Gale's theorem, uncapped). A channel y -> z carries current in some
    such plan exactly when no such S with sum_S u = 0 holds y but not z;
    the others shut at the cost of their flux (unattained). The sets are
    enumerated (n <= 5), each sum read as zero within 1e-10 max(1, sum|u|).
    """
    n = gen.size
    flux = p[:, None] * gen.off_diagonal
    live = flux > 0.0
    tol = 1e-10 * max(1.0, np.abs(u).sum())
    idle = np.zeros((n, n), dtype=bool)
    for size in range(1, n):
        for S in itertools.combinations(range(n), size):
            inside = np.isin(np.arange(n), S)
            if live[np.ix_(~inside, inside)].any():  # a channel enters S
                continue
            if u[inside].sum() > tol:
                return _Status.INFINITE, None, math.inf
            if u[inside].sum() >= -tol:
                idle |= live & inside[:, None] & ~inside
    flux[idle] = 0.0
    reach = _reachable((flux > 0.0) | (flux > 0.0).T)
    free = np.flatnonzero(reach.argmax(axis=1) != np.arange(n))
    objective, hessian = _lagrangian_objective(  # one cell, on the last axis
        flux[..., None], u[:, None], flux.sum()[None])
    status, f, value, _, _ = (a[..., 0] for a in _newton_ascent(
        objective, hessian, np.zeros((n, 1)), free,
        np.full(1, DEFAULT_OPTIONS.gradient_tol)))
    if status == _Status.CONVERGED and idle.any():
        status = _Status.BOUNDARY
    return status, f, value + p @ gen.exit_rates - flux.sum()


class TestForestClosedForm:
    def test_large_value_on_a_forest_is_finite(self):
        # a and b trade mass fast and c is empty: the flux graph is one
        # edge, whose closed form is above the Newton core's cap of 1e6
        gen = validate_generator(["a", "b", "c"], [[0.0, 1000.0, 0.0],
                                                   [800.0, 0.0, 0.0],
                                                   [1.0, 0.0, 0.0]])
        mu = Measure(gen.space, [0.5, 0.5, 0.0])
        g = Potential(gen.space, [0.0, 7.0, -3.0])
        res = lagrangian_value(gen, mu, speed(gen, mu, g))
        exact = float(pre_lagrangian(gen, g).f @ mu.p)
        assert exact == pytest.approx(3290796.557, abs=1e-3)
        assert res.value == pytest.approx(exact, rel=1e-12)
        assert res.attained and res.iterations == 0
        np.testing.assert_allclose(res.maximizer.f, [0.0, 7.0, 0.0], atol=1e-12)

    def test_standstill_on_a_one_way_chain_is_finite(self):
        # holding s0 -> s1 -> ... -> s4 still shuts all four channels: the
        # cost is their total flux, though f runs to -infinity along the
        # chain, faster the further down (Newton alone reads +inf here)
        rates = np.diag(np.ones(4), 1)
        gen = validate_generator([f"s{i}" for i in range(5)], rates)
        res = lagrangian_value(gen, Measure.uniform(gen.space), np.zeros(5))
        assert res.value == pytest.approx(0.8, rel=1e-15)
        assert not res.attained and res.iterations == 0

    @settings(max_examples=60, deadline=2000)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("dirac", "birth-death", "partial", "two-state")),
           drive=st.sampled_from(("zero", "tilt", "currents")))
    def test_closed_form_matches_newton(self, seed, kind, drive):
        # Dirac laws on dense chains, birth-death chains (some channels
        # one-way) with full or partial support, and 2-state chains; speeds
        # zero, rho(mu, g), or random currents on the live edges, so that
        # one-way edges carry positive, zero and negative currents
        rng = np.random.default_rng(seed)
        n = 2 if kind == "two-state" else int(rng.integers(3, 6))
        rates = rng.uniform(0.1, 3.0, (n, n))
        if kind in ("birth-death", "partial"):
            rates[np.abs(np.subtract.outer(range(n), range(n))) != 1] = 0.0
            rates[rng.random((n, n)) < 0.2] = 0.0
        gen = validate_generator([f"s{i}" for i in range(n)], rates)
        if kind == "dirac" or (kind == "two-state" and rng.random() < 0.5):
            p = np.eye(n)[rng.integers(n)]
        else:
            p = rng.dirichlet(np.ones(n))
            if kind == "partial":
                p[rng.random(n) < 0.4] = 0.0
                p = p / p.sum() if p.sum() > 0.0 else np.eye(n)[0]
        flux = p[:, None] * gen.off_diagonal
        tail, head = np.nonzero((flux > 0.0) & ~np.tril(flux.T > 0.0, -1))
        if drive == "zero":
            u = np.zeros(n)
        elif drive == "tilt":
            u = speed(gen, Measure(gen.space, p), random_potential(rng, gen)).u
        else:
            j = rng.choice([-1.0, 0.0, 1.0], tail.size) * rng.uniform(0.2, 2.0, tail.size)
            u = np.zeros(n)
            np.add.at(u, head, j)
            np.add.at(u, tail, -j)
        status, x, value, iters, _, _ = (a[..., 0] for a in _lagrangian_cells(
            flux[..., None], u[:, None], 0.0, DEFAULT_OPTIONS))
        assert iters == 0
        ref_status, ref_x, ref_value = _newton_reference(gen, p, u)
        assert status == ref_status
        if math.isinf(ref_value):
            assert math.isinf(value)
            return
        # Newton stops once the flux left on a shut channel is below the
        # gradient tolerance, so its value may be short by that much
        assert value == pytest.approx(
            ref_value, rel=1e-8, abs=2 * DEFAULT_OPTIONS.gradient_tol)
        if status == _Status.CONVERGED:
            np.testing.assert_allclose(x, ref_x, rtol=1e-6, atol=1e-6)


class TestBatchedCells:
    @settings(max_examples=40, deadline=2000)
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
            (mus[:, :, None] * gen.off_diagonal).transpose(1, 2, 0), us.T, 0.0,
            DEFAULT_OPTIONS)
        for k in range(len(mus)):
            try:
                cold = lagrangian_value(gen, Measure(gen.space, mus[k]), us[k])
            except NumericalFailure:
                assert status[k] in (_Status.STALLED, _Status.MAX_ITERS)
                continue
            assert math.isinf(values[k]) == math.isinf(cold.value)
            assert max(values[k], 0.0) == pytest.approx(cold.value, abs=1e-10)
            assert iterations[k] == cold.iterations

    @settings(max_examples=40, deadline=3000)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_cells_are_independent_of_their_order(self, seed):
        # a mixed stack: full-support, forest (birth-death and Dirac),
        # one-way-cycle and sparse cells; speeds of tilts of every size (so
        # that cells settle at different iterations), random currents or
        # standstill (shut channels: unattained); warm and cold starts.
        # Every cell of a permuted stack gets the status, iteration count
        # and value it had in the original order
        rng = np.random.default_rng(seed)
        n, K = int(rng.integers(3, 6)), 24
        near = np.abs(np.subtract.outer(range(n), range(n)))
        flux, us, start = np.zeros((K, n, n)), np.zeros((K, n)), np.zeros((K, n))
        kinds = ["full", "forest", "dirac", "cycle", "sparse"]
        for k, kind in enumerate(rng.choice(kinds, K)):
            rates = rng.uniform(0.1, 3.0, (n, n))
            p = rng.dirichlet(np.ones(n))
            if kind == "forest":
                rates[near != 1] = 0.0
            elif kind == "dirac":
                p = np.eye(n)[rng.integers(n)]
            elif kind == "cycle":
                rates = np.roll(np.eye(n), 1, axis=1) * rates
            elif kind == "sparse":
                rates[rng.random((n, n)) < 0.5] = 0.0
            np.fill_diagonal(rates, 0.0)
            flux[k] = p[:, None] * rates
            g = rng.normal(0.0, 10.0 ** rng.uniform(-2.0, 0.5), n)
            tilted = flux[k] * np.exp(g[None, :] - g[:, None])
            us[k] = tilted.sum(axis=0) - tilted.sum(axis=1)
            draw = rng.random()
            if draw < 0.15:  # currents that may run against a channel
                us[k] += rng.normal(0.0, 0.5, n)
            elif draw < 0.3:
                us[k] = 0.0
            if rng.random() < 0.5:  # a warm start near the tilt
                start[k] = g + rng.normal(0.0, 0.3, n)
        us -= us.mean(axis=1, keepdims=True)
        offset = rng.uniform(0.0, 1.0, K)
        order = rng.permutation(K)
        ref = _lagrangian_cells(flux.transpose(1, 2, 0).copy(), us.T, offset,
                                DEFAULT_OPTIONS, start.T)
        out = _lagrangian_cells(flux[order].transpose(1, 2, 0), us[order].T, offset[order],
                                DEFAULT_OPTIONS, start[order].T)
        np.testing.assert_array_equal(out[0], ref[0][order])
        np.testing.assert_array_equal(out[3], ref[3][order])
        finite = np.isfinite(ref[2][order])
        np.testing.assert_array_equal(np.isfinite(out[2]), finite)
        np.testing.assert_allclose(out[2][finite], ref[2][order][finite], rtol=1e-12)

    def test_caller_stacks_left_unchanged(self):
        # cells last: a full cell; a forest whose one-way edge carries a
        # current against it within the slack (dropped, solved again); a
        # cycle with an idle channel out of it (dropped); the stacks, and
        # warm starts, read back as they went in, whether the evaluator used
        # them whole or dropped channels
        flux = np.zeros((3, 3, 3))
        flux[..., 0] = [[0.0, 1.0, 0.5], [0.7, 0.0, 0.4], [0.2, 0.9, 0.0]]
        flux[..., 1] = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.6], [0.0, 0.8, 0.0]]
        flux[..., 2] = [[0.0, 1.0, 0.3], [1.0, 0.0, 0.5], [0.0, 0.0, 0.0]]
        us = np.array([[0.1, 1e-11, 0.1], [-0.3, -1e-11, -0.1], [0.2, 0.0, 0.0]])
        start = np.array([[0.3, 0.1, 0.2], [-0.2, 0.0, 0.4], [0.5, -0.3, 0.0]])
        for stacks in ((flux[..., :1], us[:, :1], start[:, :1]), (flux, us, start)):
            copies = [a.copy() for a in stacks]
            out = _lagrangian_cells(*stacks[:2], 0.0, DEFAULT_OPTIONS, stacks[2],
                                    slack=2e-10)
            for given, kept in zip(stacks, copies):
                np.testing.assert_array_equal(given, kept)
        assert out[0].tolist() == [_Status.CONVERGED, _Status.BOUNDARY, _Status.BOUNDARY]
        kept = flux > 0.0
        kept[0, 1, 1] = kept[:2, 2, 2] = False  # the dropped channels
        np.testing.assert_array_equal(out[5], kept)

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
            mu.p[:, None, None] * gen.off_diagonal[..., None], u[:, None], 0.0,
            DEFAULT_OPTIONS, initial=f[:, None])
        assert status[0] == _Status.CONVERGED and iterations[0] <= 1
        np.testing.assert_allclose(x[:, 0], [0.0, 0.0, 1.0], atol=1e-9)
        assert values[0] == pytest.approx(lagrangian_value(gen, mu, u).value, abs=1e-12)

    def test_pins_one_state_per_flux_component(self, rng):
        # reference: components of the live channels by graph search, each
        # pinned at its lowest state. The speed of a tilt g is attained at
        # g, so the maximizer is g less g at the pin of each component
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
            pin = np.full(n, -1)
            for s in range(n):
                if pin[s] >= 0:
                    continue
                comp, stack = [s], [s]
                pin[s] = s
                while stack:
                    x = stack.pop()
                    for y in np.flatnonzero(live[x] | live[:, x]):
                        if pin[y] < 0:
                            pin[y] = s
                            comp.append(y)
                            stack.append(y)
            g = random_potential(rng, gen)
            u = speed(gen, Measure(gen.space, p), g).u
            status, x = (a[..., 0] for a in _lagrangian_cells(
                p[:, None, None] * gen.off_diagonal[..., None], u[:, None], 0.0,
                DEFAULT_OPTIONS)[:2])
            assert status == _Status.CONVERGED
            np.testing.assert_allclose(x, g.f - g.f[pin], rtol=0.0, atol=1e-6)


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

    @settings(max_examples=60, deadline=2000)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("random", "stiff", "sparse")))
    def test_duality_on_random_stiff_and_sparse_chains(self, seed, kind):
        # <Hf, mu> = <f, rho(mu, f)> - L(mu, rho(mu, f)) to rounding at the
        # scale of its terms, laws with empty states and Dirac laws included
        rng = np.random.default_rng(seed)
        gen = random_chain(rng, kind)
        mu = random_law(rng, gen)
        f = random_potential(rng, gen, bound=2.0)
        hf = float(apply_hamiltonian(gen, f).f @ mu.p)
        scale = 1.0 + abs(float(f.f @ speed(gen, mu, f).u)) + abs(hf)
        assert dual_check(gen, mu, f) <= 1e-12 * scale

    @settings(max_examples=60, deadline=2000)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(("random", "stiff", "sparse")))
    def test_young_inequality_on_random_stiff_and_sparse_chains(self, seed, kind):
        # <f, u> <= L(mu, u) + <Hf, mu> for any f; u the speed of another
        # tilt, or random currents along the live channels (some against a
        # one-way channel, where L is +inf)
        rng = np.random.default_rng(seed)
        gen = random_chain(rng, kind)
        mu = random_law(rng, gen)
        f = random_potential(rng, gen, bound=2.0)
        if rng.random() < 0.5:
            u = speed(gen, mu, random_potential(rng, gen, bound=2.0)).u
        else:
            tail, head = np.nonzero(mu.p[:, None] * gen.off_diagonal > 0.0)
            j = rng.uniform(-1.0, 2.0, tail.size)
            u = np.zeros(gen.size)
            np.add.at(u, head, j)
            np.add.at(u, tail, -j)
        lhs, hf = float(f.f @ u), float(apply_hamiltonian(gen, f).f @ mu.p)
        value = lagrangian_value(gen, mu, u).value
        assert lhs <= value + hf + 1e-12 * (1.0 + abs(lhs) + abs(hf) + value)
