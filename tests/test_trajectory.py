"""Doob flows, forward integration, bridges, and the variational identities."""

import math
import warnings

import numpy as np
import pytest

from ctmc_ldp import (
    BoundaryBridgeWarning,
    DoobFlow,
    InfeasibleBridge,
    InvalidParameter,
    MalformedModel,
    Measure,
    Potential,
    doob_flow,
    doob_forward,
    entropy_identity_check,
    evolve_law,
    lagrangian_value,
    optimal_bridge,
    path_action,
    pre_lagrangian,
    speed,
    transition_matrix,
    v_apply,
    validate_generator,
    zero_cost_path,
)
from conftest import (
    absorbing_chain,
    random_measure,
    random_model,
    random_potential,
    symmetric_chain,
)
from ctmc_ldp import lagrangian, rates, trajectory
from ctmc_ldp.hamiltonian import _log_matrix_apply
from ctmc_ldp.markov import _expm_generator


def _boundary_bridge_inputs():
    """A boundary bridge over t = 1 as the ``doob`` workload of ``perfbench``
    builds one: the target blends the evolved law with the uniform one and
    has state c emptied, so the rate is attained only in a limit and the
    capped tilt sets h_K(c) = -30."""
    gen = validate_generator(["a", "b", "c"], [[0.0, 1.3, 0.4],
                                               [0.7, 0.0, 2.1],
                                               [0.5, 0.9, 0.0]])
    mu0 = Measure(gen.space, [0.5, 0.3, 0.2])
    target = 0.5 * (mu0.p @ transition_matrix(gen, 1.0).P) + 0.5 / 3
    target[2] = 0.0
    return gen, mu0, Measure(gen.space, target / target.sum()), 1.0


def _nested_flow(gen, f, t, K):
    """h(s_k) by K nested max-shifted log-space steps from h(t) = f."""
    P = _expm_generator(gen, t / K)
    h = [f]
    for _ in range(K):
        h.append(_log_matrix_apply(P, h[-1]))
    return np.array(h[::-1])


class TestDoobFlow:
    @pytest.mark.parametrize("case, error", [
        ("horizon zero", MalformedModel), ("one node", MalformedModel),
        ("non-finite node", MalformedModel), ("doob_flow at t = 0", InvalidParameter),
        ("doob_flow with K = 0", InvalidParameter),
        ("zero_cost_path at t = 0", InvalidParameter),
        ("zero_cost_path with K = 0", InvalidParameter)])
    def test_invalid_input_rejected(self, case, error):
        gen = symmetric_chain()
        f, mu0 = Potential.zeros(gen.space), Measure.uniform(gen.space)
        call = {
            "horizon zero": lambda: DoobFlow(gen.space, 0.0, np.zeros((3, 2))),
            "one node": lambda: DoobFlow(gen.space, 1.0, np.zeros((1, 2))),
            "non-finite node": lambda: DoobFlow(gen.space, 1.0, [[0.0, 0.0], [np.inf, 0.0]]),
            "doob_flow at t = 0": lambda: doob_flow(gen, f, 0.0, 4),
            "doob_flow with K = 0": lambda: doob_flow(gen, f, 1.0, 0),
            "zero_cost_path at t = 0": lambda: zero_cost_path(gen, mu0, 0.0, 4),
            "zero_cost_path with K = 0": lambda: zero_cost_path(gen, mu0, 1.0, 0),
        }[case]
        with pytest.raises(error):
            call()

    def test_terminal_node_exact(self, rng):
        gen = random_model(rng)
        f = random_potential(rng, gen, bound=1.5)
        flow = doob_flow(gen, f, 0.9, 50)
        assert np.array_equal(flow.h[-1], f.f)

    def test_zero_terminal_gives_zero_flow(self, rng):
        gen = random_model(rng)
        flow = doob_flow(gen, Potential.zeros(gen.space), 1.0, 20)
        assert np.abs(flow.h).max() <= 1e-12

    def test_absorbing_initial_node_closed_form(self):
        # h(0)(a) = V(ln 2)f(a) = log((1 + e)/2) for f = (0, 1)
        gen = absorbing_chain()
        f = Potential(gen.space, [0.0, 1.0])
        flow = doob_flow(gen, f, math.log(2.0), 64)
        assert flow.h[0][0] == pytest.approx(math.log(0.5 + 0.5 * math.e),
                                             abs=1e-10)

    def test_initial_node_matches_direct_semigroup(self, rng):
        gen = random_model(rng)
        f = random_potential(rng, gen, bound=1.0)
        t = 1.1
        flow = doob_flow(gen, f, t, 500)
        assert np.abs(flow.h[0] - v_apply(gen, f, t).f).max() <= 1e-9


    def test_doubling_matches_nested_steps(self, rng):
        for spread in (1.0, 30.0, 300.0):
            for K in (1, 5, 64, 1000):
                gen = random_model(rng)
                f = rng.uniform(-spread / 2, spread / 2, gen.size)
                flow = doob_flow(gen, Potential(gen.space, f), 0.9, K)
                assert np.abs(flow.h - _nested_flow(gen, f, 0.9, K)).max() \
                    <= 1e-12

    def test_wide_spread_nests_log_space_steps(self, rng, monkeypatch):
        # beyond a spread of 600, e^{f - max f} can underflow: no doubling
        def no_doubling(*args):
            raise AssertionError("doubling used beyond a spread of 600")

        monkeypatch.setattr(trajectory, "_power_rows", no_doubling)
        gen = random_model(rng)
        f = np.linspace(-400.0, 400.0, gen.size)
        flow = doob_flow(gen, Potential(gen.space, f), 0.9, 200)
        assert np.abs(flow.h - _nested_flow(gen, f, 0.9, 200)).max() <= 1e-12

    def test_reducible_wide_spread_flow_is_finite(self):
        # row a of P_dt only weighs a and b, so a shift by the global
        # max f = 1000 underflows it; each row is shifted on its own support
        gen = validate_generator(["a", "b", "c"],
                                 [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        f = np.array([0.0, 1.0, 1000.0])
        flow = doob_flow(gen, Potential(gen.space, f), 1.0, 100)
        assert np.all(flow.h[:, 2] == 1000.0)
        assert np.abs(flow.h - _nested_flow(gen, f, 1.0, 100)).max() == 0.0
        ref = np.log(transition_matrix(gen, 1.0).P[:2, :2] @ np.exp(f[:2]))
        assert np.abs(flow.h[0, :2] - ref).max() <= 1e-12


class TestDoobForward:
    def test_scanned_measures_match_sequential_steps(self, rng):
        # the doubled nodes against the transformed chain's own stochastic
        # steps P_dt(x, y) e^{h_{k+1}(y) - h_k(x)}, taken one at a time
        for K in (1, 3, 64, 1000):
            gen = random_model(rng)
            mu0 = random_measure(rng, gen)
            flow = doob_flow(gen, random_potential(rng, gen, bound=2.0), 1.1, K)
            Pdt = _expm_generator(gen, flow.dt)
            p, ref = mu0.p, [mu0.p]
            for k in range(K):
                p = p @ (Pdt * np.exp(flow.h[k + 1] - flow.h[k][:, None]))
                p = p / p.sum()
                ref.append(p)
            scanned = trajectory._forward_measures(mu0, flow, Pdt)
            assert np.abs(scanned - np.array(ref)).max() <= 1e-13

    def test_wide_spread_isolated_state_keeps_its_mass(self, monkeypatch):
        # c has no rates in or out, so gamma_k(c) = mu0(c) on every node; a
        # tilt of 1000 on c underflows e^{-(h_0 - min h_0)} there, so the
        # nodes follow the transformed chain's steps, formed in log space
        def no_doubling(*args):
            raise AssertionError("doubling used beyond a spread of 600")

        monkeypatch.setattr(trajectory, "_power_rows", no_doubling)
        gen = validate_generator(["a", "b", "c"],
                                 [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        mu0 = Measure(gen.space, [0.3, 0.2, 0.5])
        flow = doob_flow(gen, Potential(gen.space, [0.0, 1.0, 1000.0]), 1.0, 200)
        path, action = doob_forward(gen, mu0, flow)
        assert np.abs(path.measures[:, 2] - 0.5).max() <= 1e-12
        # on {a, b}, the closed-form transform of the chain's own block
        for k in (1, 100, 200):
            P = transition_matrix(gen, k * flow.dt).P[:2, :2]
            ref = (mu0.p[:2] * np.exp(-flow.h[0, :2])) @ P \
                * np.exp(flow.h[k, :2])
            assert np.abs(path.measures[k, :2] - 0.5 * ref / ref.sum()).max() \
                <= 1e-12
        assert math.isfinite(action.value)

    @pytest.mark.parametrize("f", [[0.0, 50.0, 100.0], [0.0, 150.0, 300.0]])
    def test_steep_tilt_converges(self, f):
        # a tilt spread of 100 drains a and b to ~1e-44 and ~1e-22 by time t,
        # one of 300 drains a to ~1e-131; the exact nodes keep the Nisio
        # residual first order in the grid
        gen = validate_generator(["a", "b", "c"],
                                 [[0.0, 1.0, 2.0], [0.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
        mu0 = Measure(gen.space, [0.2, 0.3, 0.5])
        f = Potential(gen.space, f)
        coarse = entropy_identity_check(gen, mu0, f, 1.0, 200)
        fine = entropy_identity_check(gen, mu0, f, 1.0, 2000)
        assert fine < coarse
        assert fine < 2e-3

    def test_warm_started_action_matches_path_action(self, rng):
        # starting each cell at the flow moves where Newton begins, not the
        # cell values path_action finds from f = 0: on steep flows (in the
        # last cell of the spread-300 one the flow at the quadrature node lies
        # far from the maximizer), on a capped boundary tilt spreading 51
        # from state a, with a pinned and isolated from the flux, on a
        # boundary bridge's K = 1000 flow, and on random flows
        steep = validate_generator(["a", "b", "c"],
                                   [[0.0, 1.0, 2.0], [0.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
        even = validate_generator(["a", "b", "c"],
                                  [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        isolated = validate_generator(["a", "b", "c"],
                                      [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        cases = [(gen, Measure(gen.space, p), Potential(gen.space, f), 200)
                 for gen, p, f in (
                     (steep, [0.2, 0.3, 0.5], [0.0, 50.0, 100.0]),
                     (steep, [0.2, 0.3, 0.5], [0.0, 150.0, 300.0]),
                     (even, [1 / 3, 1 / 3, 1 / 3], [-30.0, 0.0, 21.2]),
                     (isolated, [0.2, 0.3, 0.5], [60.0, 0.0, 1.0]))]
        gen, mu0, target, t = _boundary_bridge_inputs()
        with pytest.warns(BoundaryBridgeWarning):
            cases.append((gen, mu0, optimal_bridge(gen, mu0, target, t, 10).tilt, 1000))
        for _ in range(3):
            gen = random_model(rng)
            cases.append((gen, random_measure(rng, gen),
                          random_potential(rng, gen, bound=2.0), 200))
        for gen, mu0, f, K in cases:
            path, action = doob_forward(gen, mu0, doob_flow(gen, f, 1.0, K))
            cold = path_action(gen, path)
            assert action.infeasible_cell is None and cold.infeasible_cell is None
            assert np.abs(action.cell_values - cold.cell_values).max() <= 1e-13

    def test_warm_start_settles_every_cell_of_a_boundary_bridge(self, monkeypatch):
        # over the last cell e^h(c) falls from e^-6.6 to e^-30. The flow is
        # linear in e^h, so the warm start at the quadrature node, taken
        # there, lies within 2e-4 of the maximizer (-7.1776 against -7.1778,
        # pinned at a); the same weights on h itself gave -17.1, and that one
        # cell took 15 Newton iterations, each a pass over every unsettled
        # cell, while the others settled within 4
        gen, mu0, target, t = _boundary_bridge_inputs()
        ascent, calls = lagrangian._newton_ascent, []

        def recorded(objective, hessian, x, free, tol):
            out = ascent(objective, hessian, x, free, tol)
            calls.append((x.shape[1], x.any(), out[3]))
            return out

        monkeypatch.setattr(lagrangian, "_newton_ascent", recorded)
        with pytest.warns(BoundaryBridgeWarning):
            bridge = optimal_bridge(gen, mu0, target, t, 1000)
        assert bridge.boundary and bridge.action.infeasible_cell is None
        cells = [call for call in calls if call[0] > 1]  # the rate's own solve is one cell
        assert len(cells) == 1  # no cell was solved again from 0
        size, warm, iterations = cells[0]
        assert size == 1000 and warm
        assert iterations.max() <= 4

    def test_non_harmonic_flow_rejected(self, rng):
        gen = random_model(rng, n_min=3, n_max=3)
        other = random_model(rng, n_min=3, n_max=3)
        mu0 = random_measure(rng, gen)
        f = random_potential(rng, gen, bound=1.0)
        flow = doob_flow(other, f, 1.0, 50)
        with pytest.raises(MalformedModel):
            doob_forward(gen, mu0, flow)
        h = doob_flow(gen, f, 1.0, 50).h.copy()
        h[-2] += 1e-3
        with pytest.raises(MalformedModel):
            doob_forward(gen, mu0, DoobFlow(gen.space, 1.0, h))

    def test_zero_tilt_reproduces_evolution(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        flow = doob_flow(gen, Potential.zeros(gen.space), 1.0, 200)
        path, action = doob_forward(gen, mu0, flow)
        for k in (0, 100, 200):
            expected = evolve_law(gen, mu0, k * path.dt).p
            assert np.abs(path.measures[k] - expected).max() <= 1e-8
        assert action.value < 1e-6

    def test_nisio_identity(self, rng):
        # <f, gamma(t)> - action = <V(t)f, mu0>
        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        f = random_potential(rng, gen, bound=1.0)
        t = 1.2
        flow = doob_flow(gen, f, t, 1000)
        path, action = doob_forward(gen, mu0, flow)
        lhs = float(f.f @ path.measures[-1]) - action.value
        rhs = float(v_apply(gen, f, t).f @ mu0.p)
        assert abs(lhs - rhs) <= 1e-3

    def test_exchange_identity(self, rng):
        # <f, gamma(t)> - <V(t)f, gamma(0)> = action
        gen = random_model(rng, n_max=4)
        mu0 = random_measure(rng, gen)
        f = random_potential(rng, gen, bound=1.0)
        t = 0.9
        flow = doob_flow(gen, f, t, 1000)
        path, action = doob_forward(gen, mu0, flow)
        lhs = float(f.f @ path.measures[-1]) \
            - float(v_apply(gen, f, t).f @ path.measures[0])
        assert abs(lhs - action.value) <= 1e-3

    def test_marginals_match_exact_transform(self, rng):
        # gamma_k = e^{h_k} (mu0 e^{-h_0}) P(k dt), normalized, on the nodes
        for K in (1, 3, 64, 1000):
            gen = random_model(rng)
            mu0 = random_measure(rng, gen)
            flow = doob_flow(gen, random_potential(rng, gen, bound=2.0), 1.1, K)
            path, _ = doob_forward(gen, mu0, flow)
            for k in range(0, K + 1, max(1, K // 50)):
                ref = (mu0.p * np.exp(-flow.h[0])) \
                    @ transition_matrix(gen, k * flow.dt).P * np.exp(flow.h[k])
                assert np.abs(path.measures[k] - ref / ref.sum()).max() <= 1e-12

    def test_measures_stay_valid(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen, strict=False)
        f = random_potential(rng, gen, bound=2.0)
        flow = doob_flow(gen, f, 1.5, 300)
        path, _ = doob_forward(gen, mu0, flow)
        assert path.measures.min() >= 0.0
        assert np.abs(path.measures.sum(axis=1) - 1.0).max() <= 1e-10

    def test_lagrangian_equals_pre_lagrangian_along_flow(self, rng):
        # L(gamma(s), rho(gamma(s), h(s))) = <L h(s), gamma(s)> per node
        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        f = random_potential(rng, gen, bound=1.0)
        flow = doob_flow(gen, f, 0.8, 16)
        path, _ = doob_forward(gen, mu0, flow)
        for k in (0, 8, 16):
            h = flow.potential(k)
            mu = path.measure(k)
            val = lagrangian_value(gen, mu, speed(gen, mu, h)).value
            closed = float(pre_lagrangian(gen, h).f @ mu.p)
            assert abs(val - closed) <= 1e-6

    def test_running_identity_first_order(self, rng):
        # <h(s), gamma(s)> - <h(0), mu0> = integral of <L h, gamma>, O(1/K)
        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        f = random_potential(rng, gen, bound=1.0)
        t = 1.0
        errs = []
        for K in (200, 400):
            flow = doob_flow(gen, f, t, K)
            path, _ = doob_forward(gen, mu0, flow)
            dt = flow.dt
            integral = sum(
                float(pre_lagrangian(gen, flow.potential(k)).f
                      @ path.measures[k]) * dt
                for k in range(K))
            lhs = float(flow.h[-1] @ path.measures[-1]) \
                - float(flow.h[0] @ mu0.p)
            errs.append(abs(lhs - integral))
        assert errs[0] <= 10.0 / 200
        assert errs[1] <= 0.75 * errs[0]


class TestOptimalBridge:
    @pytest.mark.parametrize("K", [0, 2.5])
    def test_interval_count_checked_before_the_rate(self, monkeypatch, K):
        # an inadmissible K is refused before the conditional-rate solve
        def refused(*args, **kwargs):
            raise AssertionError("the rate was solved for an inadmissible K")

        monkeypatch.setattr(trajectory, "conditional_rate", refused)
        gen = symmetric_chain()
        with pytest.raises(InvalidParameter):
            optimal_bridge(gen, Measure.dirac(gen.space, "a"),
                           Measure.uniform(gen.space), 0.5, K)

    def test_evolved_target_zero_cost(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        t = 0.8
        bridge = optimal_bridge(gen, mu0, evolve_law(gen, mu0, t), t, 200)
        assert bridge.action.value < 1e-6
        assert np.abs(bridge.tilt.f).max() <= 1e-6
        assert not bridge.boundary

    def test_interior_target_consistency(self, rng):
        # action and delivery from flow integration vs rate from duality
        for _ in range(3):
            gen = random_model(rng, n_max=4)
            mu0 = random_measure(rng, gen)
            t = float(rng.uniform(0.5, 1.5))
            blend = float(rng.uniform(0.3, 0.7))
            target = Measure(
                gen.space,
                blend * evolve_law(gen, mu0, t).p
                + (1 - blend) * np.full(gen.size, 1.0 / gen.size))
            bridge = optimal_bridge(gen, mu0, target, t, 1000)
            assert bridge.delivery_error <= 2e-3
            assert bridge.action_gap <= 1e-3
            assert not bridge.boundary

    def test_boundary_bridge_warns_and_approaches_rate(self, monkeypatch):
        gen = absorbing_chain()
        da = Measure.dirac(gen.space, "a")
        t = 0.5
        gaps = []
        for cap in (10.0, 20.0, 30.0):
            monkeypatch.setattr(rates, "TILT_CAP", cap)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                bridge = optimal_bridge(gen, da, da, t, 2000)
            assert any(issubclass(w.category, BoundaryBridgeWarning)
                       for w in caught)
            assert bridge.boundary
            assert bridge.action.value <= t
            gaps.append(t - bridge.action.value)
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] <= 1e-2

    def test_pair_no_coupling_uses_is_shut_by_the_tilt(self):
        # b is absorbing and nu keeps its mass exactly, so a may send
        # nothing to b: that live pair is dropped from the rate, and the
        # tilt sinks b below a so that the bridge still delivers nu
        gen = validate_generator(["a", "b", "c"], [[0.0, 0.7, 0.4],
                                                   [0.0, 0.0, 0.0],
                                                   [0.3, 0.0, 0.0]])
        mu, nu = Measure(gen.space, [0.5, 0.5, 0.0]), Measure(gen.space, [0.2, 0.5, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryBridgeWarning)
            bridge = optimal_bridge(gen, mu, nu, 0.8, 400)
        assert bridge.boundary
        assert bridge.rate == pytest.approx(0.330962215, abs=1e-8)
        assert bridge.delivery_error <= 1e-9
        assert bridge.action_gap <= 1e-4

    def test_tilt_sinks_a_fed_component_below_its_feeder_at_any_cap(self, monkeypatch):
        # b <-> d is closed and nu keeps its mass 0.5, so a may send nothing
        # to b or d: the component {b, d}, whose own tilt spreads over
        # 1.1, sinks a spread plus cap below {a, c}, which feeds it. The
        # leak is then e^{-cap}, and b and d still split their mass right
        gen = validate_generator(["a", "b", "c", "d"], [[0.0, 0.7, 0.4, 0.0],
                                                        [0.0, 0.0, 0.0, 1.0],
                                                        [0.3, 0.0, 0.0, 0.0],
                                                        [0.0, 0.5, 0.0, 0.0]])
        mu = Measure(gen.space, [0.5, 0.3, 0.0, 0.2])
        nu = Measure(gen.space, [0.2, 0.1, 0.3, 0.4])
        for cap, delivery in ((12.0, 1e-5), (30.0, 1e-9)):
            monkeypatch.setattr(rates, "TILT_CAP", cap)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoundaryBridgeWarning)
                bridge = optimal_bridge(gen, mu, nu, 0.8, 400)
            assert bridge.boundary
            assert bridge.rate == pytest.approx(0.386922228, abs=1e-8)
            assert bridge.tilt.f[[1, 3]].max() <= bridge.tilt.f[[0, 2]].min() - cap
            assert bridge.delivery_error <= delivery
            assert bridge.action_gap <= 1e-4

    def test_unreachable_target_raises(self):
        gen = absorbing_chain()
        with pytest.raises(InfeasibleBridge):
            optimal_bridge(gen, Measure.dirac(gen.space, "b"),
                           Measure.dirac(gen.space, "a"), 0.5, 50)

    def test_action_never_beats_rate(self, rng):
        # the bridge is feasible for the infimum the rate computes
        for _ in range(3):
            gen = random_model(rng, n_max=3)
            mu0 = random_measure(rng, gen)
            nu = random_measure(rng, gen)
            bridge = optimal_bridge(gen, mu0, nu, 0.7, 4000)
            assert bridge.action.value >= bridge.rate - 1e-3


class TestZeroCostPath:
    def test_endpoint_matches_evolution(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        grid = zero_cost_path(gen, mu0, 1.3, 100)
        assert np.abs(grid.measures[-1] - evolve_law(gen, mu0, 1.3).p).max() \
            <= 1e-10

    def test_matches_repeated_steps(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        P = _expm_generator(gen, 1.3 / 1000)
        p, ref = mu0.p, [mu0.p]
        for _ in range(1000):
            p = p @ P
            p = p / p.sum()
            ref.append(p)
        grid = zero_cost_path(gen, mu0, 1.3, 1000)
        assert np.abs(grid.measures - np.array(ref)).max() <= 1e-13

    def test_stationary_start_constant(self):
        gen = symmetric_chain()
        grid = zero_cost_path(gen, Measure.uniform(gen.space), 1.0, 50)
        assert np.abs(grid.measures - 0.5).max() <= 1e-12


class TestEntropyIdentity:
    def test_zero_potential(self, rng):
        gen = random_model(rng)
        mu0 = random_measure(rng, gen)
        assert entropy_identity_check(gen, mu0, Potential.zeros(gen.space),
                                      1.0, 200) <= 1e-6

    def test_three_state_symmetric(self, rng):
        gen = symmetric_chain()
        gen3 = None
        from ctmc_ldp import validate_generator
        gen3 = validate_generator(["a", "b", "c"],
                                  [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        mu0 = random_measure(rng, gen3)
        f = random_potential(rng, gen3, bound=1.0)
        assert entropy_identity_check(gen3, mu0, f, 1.0, 1000) <= 1e-3

    def test_residual_scales_first_order(self, rng):
        gen = random_model(rng, n_max=3)
        mu0 = random_measure(rng, gen)
        f = random_potential(rng, gen, bound=1.0)
        r1 = entropy_identity_check(gen, mu0, f, 1.0, 400)
        r2 = entropy_identity_check(gen, mu0, f, 1.0, 800)
        assert r2 <= 0.75 * r1
