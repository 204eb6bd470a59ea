"""Nonlinear operators: H, tilted generators, pre-Lagrangian, V(t), R(lam)."""

import itertools
import math

import numpy as np
import pytest

from ctmc_ldp import (
    DegenerateModel,
    InvalidParameter,
    InvalidTime,
    Potential,
    apply_hamiltonian,
    barrel_radius,
    nonlinear_resolvent,
    pre_lagrangian,
    resolvent_iterate,
    tilted_generator,
    v_apply,
    validate_generator,
)
from ctmc_ldp.hamiltonian import _log_matrix_apply
from ctmc_ldp.markov import _expm_generator
from conftest import absorbing_chain, random_model, random_potential, symmetric_chain


class TestHamiltonian:
    def test_constants_annihilated(self, rng):
        gen = random_model(rng)
        f = Potential(gen.space, np.full(gen.size, 3.7))
        assert np.abs(apply_hamiltonian(gen, f).f).max() == 0.0

    def test_absorbing_hand_value(self):
        # Hf(a) = 1 * (e^{log 2} - 1) = 1, Hf(b) = 0
        gen = absorbing_chain()
        f = Potential(gen.space, [0.0, math.log(2.0)])
        assert np.allclose(apply_hamiltonian(gen, f).f, [1.0, 0.0], atol=1e-14)

    def test_shift_invariance(self, rng):
        gen = random_model(rng)
        f = random_potential(rng, gen, bound=2.0)
        g = Potential(gen.space, f.f + 11.3)
        assert np.allclose(apply_hamiltonian(gen, f).f,
                           apply_hamiltonian(gen, g).f, atol=1e-10)

    def test_two_formulas_agree(self, rng):
        # local-rate form vs e^{-f} Q e^{f}
        for _ in range(20):
            gen = random_model(rng)
            f = random_potential(rng, gen, bound=2.0)
            direct = apply_hamiltonian(gen, f).f
            conjugated = np.exp(-f.f) * (gen.Q @ np.exp(f.f))
            assert np.abs(direct - conjugated).max() <= 1e-12

    def test_generator_of_v(self, rng):
        # (V(h)f - f)/h converges to Hf at first order in h
        gen = random_model(rng, n_max=3)
        f = random_potential(rng, gen, bound=1.0)
        hf = apply_hamiltonian(gen, f).f
        errs = []
        for h in (1e-3, 1e-4):
            approx = (v_apply(gen, f, h).f - f.f) / h
            errs.append(np.abs(approx - hf).max())
        assert errs[1] <= errs[0]
        assert 4.0 <= errs[0] / errs[1] <= 25.0  # first order: ratio near 10
        assert errs[1] <= 1e-3


class TestTiltedGenerator:
    def test_zero_tilt_is_identity(self, rng):
        gen = random_model(rng)
        out = tilted_generator(gen, Potential.zeros(gen.space))
        assert np.allclose(out.Q, gen.Q, atol=1e-15)

    def test_absorbing_rate_doubles(self):
        gen = absorbing_chain()
        out = tilted_generator(gen, Potential(gen.space, [0.0, math.log(2.0)]))
        assert out.Q[0, 1] == pytest.approx(2.0, abs=1e-14)

    def test_output_is_valid_generator(self, rng):
        for _ in range(10):
            gen = random_model(rng)
            g = random_potential(rng, gen, bound=2.0)
            out = tilted_generator(gen, g)
            off = out.off_diagonal
            assert off.min() >= 0.0
            assert np.abs(out.Q.sum(axis=1)).max() <= 1e-12

    def test_steep_tilt_is_a_valid_generator(self):
        # tilted rates in the hundreds round off beyond 1e-12 in a row sum
        gen = validate_generator(["a", "b", "c"],
                                 [[0.0, 1.0, 2.0], [0.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
        out = tilted_generator(gen, Potential(gen.space, [6.6, -6.0, 3.9]))
        assert out.Q[1, 0] == pytest.approx(0.5 * math.exp(12.6))

    def test_operator_identity(self, rng):
        # A^g f = e^{-g} Q(f e^g) - (e^{-g} Q e^g) f
        for _ in range(10):
            gen = random_model(rng)
            g = random_potential(rng, gen, bound=2.0)
            f = random_potential(rng, gen, bound=2.0)
            lhs = tilted_generator(gen, g).Q @ f.f
            eg = np.exp(g.f)
            rhs = (gen.Q @ (f.f * eg)) / eg - ((gen.Q @ eg) / eg) * f.f
            assert np.abs(lhs - rhs).max() <= 1e-12


class TestPreLagrangian:
    def test_zero_tilt_costs_nothing(self, rng):
        gen = random_model(rng)
        assert np.abs(pre_lagrangian(gen, Potential.zeros(gen.space)).f).max() == 0.0

    def test_absorbing_hand_value(self):
        # Lg(a) = 2 log 2 - 2 + 1 = 2 log 2 - 1
        gen = absorbing_chain()
        out = pre_lagrangian(gen, Potential(gen.space, [0.0, math.log(2.0)]))
        assert out.f[0] == pytest.approx(2 * math.log(2.0) - 1.0, abs=1e-14)
        assert out.f[0] == pytest.approx(0.386294, abs=1e-6)
        assert out.f[1] == 0.0

    def test_pointwise_nonnegative(self, rng):
        for _ in range(25):
            gen = random_model(rng)
            g = random_potential(rng, gen, bound=3.0)
            assert pre_lagrangian(gen, g).f.min() >= -1e-15

    def test_equals_tilted_minus_hamiltonian(self, rng):
        # Lg = A^g g - Hg
        for _ in range(10):
            gen = random_model(rng)
            g = random_potential(rng, gen, bound=2.0)
            lhs = pre_lagrangian(gen, g).f
            rhs = tilted_generator(gen, g).Q @ g.f - apply_hamiltonian(gen, g).f
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_monotone_domination(self, rng):
        # Hf >= A^g f - Lg with equality at g = f
        for _ in range(10):
            gen = random_model(rng)
            f = random_potential(rng, gen, bound=2.0)
            g = random_potential(rng, gen, bound=2.0)
            hf = apply_hamiltonian(gen, f).f
            bound = tilted_generator(gen, g).Q @ f.f - pre_lagrangian(gen, g).f
            assert np.all(hf >= bound - 1e-10)
            at_f = tilted_generator(gen, f).Q @ f.f - pre_lagrangian(gen, f).f
            assert np.abs(hf - at_f).max() <= 1e-10


class TestVApply:
    def test_zero_potential_fixed(self, rng):
        gen = random_model(rng)
        for t in (0.0, 0.5, 2.0):
            assert np.abs(v_apply(gen, Potential.zeros(gen.space), t).f).max() \
                <= 1e-12

    def test_time_zero_identity(self, rng):
        gen = random_model(rng)
        f = random_potential(rng, gen, bound=2.0)
        assert np.allclose(v_apply(gen, f, 0.0).f, f.f)

    def test_absorbing_closed_form(self):
        # V(ln 2)f(a) = log(P[a][a] e^{f(a)} + P[a][b] e^{f(b)})
        #             = log((1 + e)/2) with f = (0, 1)
        gen = absorbing_chain()
        f = Potential(gen.space, [0.0, 1.0])
        out = v_apply(gen, f, math.log(2.0))
        assert out.f[0] == pytest.approx(math.log(0.5 + 0.5 * math.e), abs=1e-12)
        assert out.f[1] == pytest.approx(1.0, abs=1e-14)

    def test_constant_shift_factors_out(self, rng):
        gen = random_model(rng)
        f = random_potential(rng, gen, bound=1.5)
        c = float(rng.uniform(-3, 3))
        shifted = v_apply(gen, Potential(gen.space, f.f + c), 0.8).f
        assert np.allclose(shifted, v_apply(gen, f, 0.8).f + c, atol=1e-10)

    def test_large_potentials_stay_finite(self):
        gen = symmetric_chain()
        f = Potential(gen.space, [700.0, -700.0])
        out = v_apply(gen, f, 1.0)
        assert np.all(np.isfinite(out.f))

    def test_slow_cycle_keeps_each_row_finite(self):
        # rates 1e-6 around a -> b -> c -> a: row a weighs only a and b, so a
        # shift by the global max f = 1500 underflows it; each row's own
        # maximum gives its log-sum-exp over P from _expm_generator
        gen = validate_generator(["a", "b", "c"], [[0.0, 1e-6, 0.0],
                                                   [0.0, 0.0, 1e-6],
                                                   [1e-6, 0.0, 0.0]])
        f = np.array([0.0, 750.0, 1500.0])
        out = v_apply(gen, Potential(gen.space, f), 0.01).f
        P = _expm_generator(gen.Q, 0.01)
        for x in range(3):
            terms = [math.log(P[x, y]) + f[y] for y in range(3) if P[x, y] > 0]
            top = max(terms)
            ref = top + math.log(sum(math.exp(a - top) for a in terms))
            assert out[x] == pytest.approx(ref, rel=1e-14)
        assert out == pytest.approx([731.58, 1481.58, 1500.0], abs=5e-3)

    def test_semigroup_law(self, rng):
        for _ in range(10):
            gen = random_model(rng)
            f = random_potential(rng, gen, bound=1.5)
            t, s = rng.uniform(0.1, 1.5, size=2)
            nested = v_apply(gen, v_apply(gen, f, s), t).f
            direct = v_apply(gen, f, t + s).f
            assert np.abs(nested - direct).max() <= 1e-8

    def test_contraction(self, rng):
        for _ in range(10):
            gen = random_model(rng)
            f = random_potential(rng, gen, bound=2.0)
            g = random_potential(rng, gen, bound=2.0)
            t = float(rng.uniform(0.1, 2.0))
            lhs = np.abs(v_apply(gen, f, t).f - v_apply(gen, g, t).f).max()
            assert lhs <= np.abs(f.f - g.f).max() + 1e-10

    def test_negative_time_rejected(self):
        gen = symmetric_chain()
        with pytest.raises(InvalidTime):
            v_apply(gen, Potential.zeros(gen.space), -1.0)


class TestNonlinearResolvent:
    def test_zero_potential_fixed(self, rng):
        gen = random_model(rng)
        out = nonlinear_resolvent(gen, Potential.zeros(gen.space), 0.7)
        assert np.abs(out.f).max() <= 1e-12

    def test_symmetric_hand_computation(self):
        # J(1) e^{(0, log 2)} = ([2,1;1,2]/3)(1,2) = (4/3, 5/3)
        gen = symmetric_chain()
        f = Potential(gen.space, [0.0, math.log(2.0)])
        out = nonlinear_resolvent(gen, f, 1.0)
        assert out.f[0] == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
        assert out.f[1] == pytest.approx(math.log(5.0 / 3.0), abs=1e-12)
        assert np.allclose(out.f, [0.287682, 0.510826], atol=1e-6)

    def test_resolvent_inequality(self, rng):
        # (1 - lam H) R(lam) f >= f, up to small numerical slack
        for _ in range(15):
            gen = random_model(rng)
            f = random_potential(rng, gen, bound=2.0)
            lam = float(rng.uniform(0.05, 1.0))
            rf = nonlinear_resolvent(gen, f, lam)
            lhs = rf.f - lam * apply_hamiltonian(gen, rf).f
            assert np.all(lhs >= f.f - 1e-10)

    def test_invalid_lambda(self):
        gen = symmetric_chain()
        with pytest.raises(InvalidParameter):
            nonlinear_resolvent(gen, Potential.zeros(gen.space), -0.5)


class TestResolventIterate:
    def test_zero_potential_fixed_point(self):
        gen = symmetric_chain()
        out = resolvent_iterate(gen, Potential.zeros(gen.space), 1.0, 64)
        assert np.abs(out.f).max() <= 1e-12

    def test_empty_iteration(self, rng):
        gen = random_model(rng)
        f = random_potential(rng, gen)
        out = resolvent_iterate(gen, f, 0.001, 10)  # floor(n t) = 0
        assert np.array_equal(out.f, f.f)

    def test_converges_to_semigroup(self):
        # benchmark: symmetric chain, f = (0, 1), t = 1
        gen = symmetric_chain()
        f = Potential(gen.space, [0.0, 1.0])
        exact = v_apply(gen, f, 1.0).f
        errs = [np.abs(resolvent_iterate(gen, f, 1.0, n).f - exact).max()
                for n in (8, 64, 512)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-3


class TestBarrelRadius:
    def test_absorbing_value(self):
        assert barrel_radius(absorbing_chain()) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-15)
        assert barrel_radius(absorbing_chain()) == pytest.approx(0.346574, abs=1e-6)

    def test_symmetric_value(self):
        assert barrel_radius(symmetric_chain()) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-15)

    def test_degenerate_model_rejected(self):
        gen = validate_generator(["a", "b"], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateModel):
            barrel_radius(gen)

    def test_hamiltonian_bounded_on_barrel(self, rng):
        # 10^4 sampled potentials inside the barrel keep ||Hg|| <= 1
        for _ in range(3):
            gen = random_model(rng)
            radius = barrel_radius(gen)
            G = rng.uniform(-radius, radius, size=(10_000, gen.size))
            diffs = G[:, None, :] - G[:, :, None]
            h = (gen.off_diagonal[None] * np.exp(diffs)).sum(axis=2) \
                - gen.exit_rates[None]
            assert np.abs(h).max() <= 1.0 + 1e-12


class TestKernels:
    def test_expm_matches_pade(self, rng):
        # random, stiff (rates near 1e3) and long (c t > 50, so the series
        # runs in pieces recombined by matrix power) against scipy's Pade
        linalg = pytest.importorskip("scipy.linalg")
        for high, t in ((0.5, 0.7), (3.0, 1e-3), (3.0, 2.0), (40.0, 0.9),
                        (1e3, 1e-3), (1e3, 0.2), (2e3, 1.5)):
            for _ in range(3):
                Q = random_model(rng, n_min=2, n_max=5, rate_high=high).Q
                ref = linalg.expm(t * Q)
                assert np.abs(_expm_generator(Q, t) - ref).max() <= 1e-12

    def test_expm_stiff_rows_stay_stochastic(self, rng):
        # rates 1e3 out of the outer states and 1e-3 out of the middle one
        linalg = pytest.importorskip("scipy.linalg")
        gen = validate_generator(["a", "b", "c"], [[0.0, 1e3, 0.0],
                                                   [1e-3, 0.0, 1e-3],
                                                   [0.0, 1e3, 0.0]])
        for t in (1e-4, 1.0, 30.0):
            P = _expm_generator(gen.Q, t)
            assert P.min() >= 0.0
            assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(P - linalg.expm(t * gen.Q)).max() <= 1e-12

    def test_expm_identity_at_zero(self, rng):
        Q = random_model(rng).Q
        assert np.array_equal(_expm_generator(Q, 0.0), np.eye(len(Q)))
        assert np.array_equal(_expm_generator(np.zeros((3, 3)), 5.0), np.eye(3))

    def test_log_matrix_apply_matches_log_sum_exp(self, rng):
        # any spread stays in range at any offset, where e^f alone would
        # overflow or underflow; empty rows give -inf
        n = 5
        P = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
        P[1] = 0.0
        P[2, 0] = -0.5  # negative weights count as zero
        for spread, offset in itertools.product((1.0, 50.0, 300.0, 600.0, 1500.0),
                                                (0.0, 1e3, -1e3)):
            f = offset + rng.uniform(-spread / 2, spread / 2, n)
            out = _log_matrix_apply(P, f)
            for x in range(n):
                terms = [math.log(P[x, y]) + f[y] for y in range(n)
                         if P[x, y] > 0.0]
                if not terms:
                    assert out[x] == -math.inf
                    continue
                top = max(terms)
                ref = top + math.log(sum(math.exp(a - top) for a in terms))
                assert out[x] == pytest.approx(ref, rel=1e-13, abs=1e-12)
