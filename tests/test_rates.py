"""Conditional and joint rates, path action, partition rates."""

import math
import warnings

import numpy as np
import pytest

from ctmc_ldp import (
    BoundaryBridgeWarning,
    InvalidParameter,
    MalformedModel,
    Measure,
    NumericalFailure,
    Partition,
    PathGrid,
    Potential,
    SolverOptions,
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
from ctmc_ldp import lagrangian
from ctmc_ldp.lagrangian import DEFAULT_OPTIONS, _lagrangian_cells, _Status
from ctmc_ldp.rates import QUADRATURE_NODE
from conftest import (
    absorbing_chain,
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

    def test_absorbing_survival_rate_is_time(self):
        # staying unabsorbed has probability e^{-t}
        gen = absorbing_chain()
        da = Measure.dirac(gen.space, "a")
        for t in (0.25, 0.5, 1.0):
            res = conditional_rate(gen, da, da, t)
            assert res.value == pytest.approx(t, abs=1e-10)
            assert not res.attained  # optimal tilt diverges on state b

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

    def test_log_moment_hessian_matches_finite_differences(self, rng):
        # the two-time covariance blocks from message passing agree with
        # central differences of the tilted marginals
        from ctmc_ldp.markov import _expm_generator
        from ctmc_ldp.rates import _joint_messages

        gen = random_model(rng, n_max=3)
        n = gen.size
        mu0 = random_measure(rng, gen)
        times = (0.4, 0.9, 1.3)
        Ps = [_expm_generator(gen.Q, dt) for dt in (0.4, 0.5, 0.4)]
        x = rng.uniform(-0.8, 0.8, size=(len(times) + 1, n))

        def marginals(xmat):
            E = [np.exp(row) for row in xmat]
            alphas, betas, _ = _joint_messages(Ps, E, mu0.p)
            return [alphas[i] * betas[i] for i in range(len(E))]

        base = marginals(x)
        # analytic covariance via the same propagation used by joint_rate
        E = [np.exp(row) for row in x]
        alphas, betas, _ = _joint_messages(Ps, E, mu0.p)
        h = 1e-5
        for i in range(len(times) + 1):
            for j in range(i, len(times) + 1):
                if i == j:
                    analytic = np.diag(base[i]) - np.outer(base[i], base[i])
                else:
                    carry = np.diag(alphas[i])
                    for l in range(i + 1, j + 1):
                        carry = (carry @ Ps[l - 1]) * E[l][None, :]
                    joint = carry * betas[j][None, :]
                    joint = joint / joint.sum()
                    analytic = joint - np.outer(base[i], base[j])
                for z in range(n):
                    bumped_up = x.copy()
                    bumped_up[j, z] += h
                    bumped_dn = x.copy()
                    bumped_dn[j, z] -= h
                    fd = (marginals(bumped_up)[i]
                          - marginals(bumped_dn)[i]) / (2 * h)
                    assert np.abs(fd - analytic[:, z]).max() <= 1e-6


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
    return _lagrangian_cells(gen, mids, speeds, DEFAULT_OPTIONS)[0]


def _settled(status):
    return (status == _Status.CONVERGED) | (status == _Status.BOUNDARY)


class TestBatchedPathAction:
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
        gen = absorbing_chain()
        pa = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.6, 0.5, 0.4, 0.3])
        grid = PathGrid(gen.space, 0.0, 1.0, np.column_stack([pa, 1 - pa]))
        k = 4
        assert _settled(_cell_status(gen, grid))[:k].all()
        ascents = []
        ascent = lagrangian._newton_ascent

        def counted(objective, hessian, x, free, opts):
            ascents.append(len(x))
            return ascent(objective, hessian, x, free, opts)

        monkeypatch.setattr(lagrangian, "_newton_ascent", counted)
        res = path_action(gen, grid)
        # every cell shares one flux pattern, so one ascent solves them all,
        # and its +inf verdict on cell k is final: no cell is solved again
        assert ascents == [grid.K]
        assert res.value == math.inf
        assert res.infeasible_cell == k
        assert len(res.cell_values) == k + 1
        assert res.cell_values[k] == math.inf
        np.testing.assert_allclose(res.cell_values[:k] / grid.dt,
                                   _cold_lagrangians(gen, grid)[:k],
                                   rtol=0.0, atol=1e-10)

    def test_unsettled_cell_raises(self, rng):
        # one Newton iteration cannot settle the cells of a tilted path
        gen = random_model(rng, n_max=3)
        flow = doob_flow(gen, random_potential(rng, gen, bound=1.0), 1.0, 50)
        grid, _ = doob_forward(gen, random_measure(rng, gen), flow)
        with pytest.raises(NumericalFailure, match="within 1 iterations"):
            path_action(gen, grid, SolverOptions(max_iters=1))


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
