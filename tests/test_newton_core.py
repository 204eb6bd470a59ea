"""The shared concave-Newton core as its single-solve callers see it.

The pinned figures were recorded with the separate per-solver Newton loops
that the core replaced; the ``rate`` report prints iteration counts, so
they are part of the observable behaviour.
"""

import math
import warnings

import numpy as np
import pytest

from ctmc_ldp import (
    InvalidParameter,
    Measure,
    NumericalFailure,
    Partition,
    Potential,
    SolverOptions,
    conditional_rate,
    doob_flow,
    doob_forward,
    evolve_law,
    joint_rate,
    lagrangian_value,
    path_action,
    speed,
    transition_matrix,
    validate_generator,
)
from ctmc_ldp import lagrangian
from ctmc_ldp.lagrangian import (
    ELIMINATION_CELLS, _eliminate, _newton_ascent, _settled, _Status)

T = 0.7
TIMES = (0.3, 0.8, 1.2)


def _model():
    return validate_generator(["a", "b", "c"], [[0.0, 1.3, 0.4],
                                                [0.7, 0.0, 2.1],
                                                [0.5, 0.9, 0.0]])


def _joint_marginals(gen):
    """Marginals of an f-tilted chain from a Dirac start, two of them
    blended off the tilted path."""
    ef = np.exp([0.6, -0.4, 0.2])
    end = TIMES[-1]
    z = (transition_matrix(gen, end).P @ ef)[0]
    marginals = [np.eye(3)[0]]
    for s in TIMES:
        m = transition_matrix(gen, s).P[0] \
            * (transition_matrix(gen, end - s).P @ ef) / z
        marginals.append(m / m.sum())
    marginals[1] = 0.8 * marginals[1] + 0.2 / 3
    marginals[2] = 0.9 * marginals[2] + 0.1 * np.array([0.2, 0.5, 0.3])
    return [Measure(gen.space, m) for m in marginals]


def _solve(name):
    gen = _model()
    sp = gen.space
    mu = Measure(sp, [0.5, 0.3, 0.2])
    start = Measure.dirac(sp, "a")
    interior = 0.5 * transition_matrix(gen, T).P[0] + 0.5 / 3
    restricted = interior.copy()
    restricted[2] = 0.0
    restricted /= restricted.sum()
    calls = {
        "lagrangian_interior": lambda: lagrangian_value(
            gen, mu, speed(gen, mu, Potential(sp, [0.8, -0.6, 0.3]))),
        "lagrangian_stay": lambda: lagrangian_value(
            gen, Measure.dirac(sp, "b"), np.zeros(3)),
        "conditional_evolved": lambda: conditional_rate(
            gen, mu, evolve_law(gen, mu, T), T),
        "conditional_interior": lambda: conditional_rate(
            gen, start, Measure(sp, interior), T),
        "conditional_mixed": lambda: conditional_rate(
            gen, mu, Measure(sp, interior), T),
        "conditional_restricted": lambda: conditional_rate(
            gen, start, Measure(sp, restricted), T),
        "joint": lambda: joint_rate(gen, start, Partition(TIMES),
                                    _joint_marginals(gen)),
    }
    return calls[name]()


# (value, attained, iterations); from a Dirac start the rate is a relative
# entropy in closed form, with no Newton iterations
PINNED = {
    "lagrangian_interior": (1.3675484523830772, True, 6),
    "lagrangian_stay": (2.8, False, 0),  # a Dirac law's star: closed form
    "conditional_evolved": (0.0, True, 1),
    "conditional_interior": (0.0033470078640377987, True, 0),
    "conditional_mixed": (0.018717931053050613, True, 4),
    "conditional_restricted": (0.3799305512122871, False, 0),
    "joint": (0.07557090019651228, False, 8),  # the sum over 3 steps
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_solves(name):
    value, attained, iterations = PINNED[name]
    res = _solve(name)
    assert res.value == pytest.approx(value, rel=0.0, abs=1e-10)
    assert res.attained == attained
    assert res.iterations == iterations


@pytest.mark.parametrize("name", ["lagrangian_interior",
                                  "conditional_mixed", "joint"])
def test_iteration_cap_raises(name, monkeypatch):
    # each needs several Newton steps; one iteration ends without a verdict
    monkeypatch.setattr(lagrangian, "MAX_ITERS", 1)
    with pytest.raises(NumericalFailure, match="within 1 iterations"):
        _solve(name)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_gradient_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(InvalidParameter, match="gradient tolerance"):
        SolverOptions(gradient_tol=tol)


def test_gradient_tolerance_is_kept_as_a_float():
    opts = SolverOptions(np.float32(1e-6))
    assert type(opts.gradient_tol) is float and opts.gradient_tol == float(np.float32(1e-6))
    assert SolverOptions().gradient_tol == 1e-9


def test_full_step_must_not_lower_the_value():
    # from a Dirac start the rate is a relative entropy, taken in closed form
    gen = validate_generator(["a", "b"], [[0.0, 0.0114], [0.9196, 0.0]])
    nu = Measure(gen.space, [0.1381, 0.8619])
    t = 0.4077
    res = conditional_rate(gen, Measure.dirac(gen.space, "a"), nu, t)
    kl = float(nu.p @ np.log(nu.p / transition_matrix(gen, t).P[0]))
    assert res.value == pytest.approx(kl, rel=1e-9)
    assert res.value == pytest.approx(4.387023, abs=1e-6)
    assert res.attained


def test_full_step_must_not_lower_the_value_near_a_dirac_start():
    # a full-support start close to delta_a goes through Newton, where a
    # full step halves the gradient but lowers the value; taking it leaves
    # the solve at the iteration cap
    gen = validate_generator(["a", "b"], [[0.0, 0.0068], [0.69, 0.0]])
    mu = Measure(gen.space, [1.0 - 1e-6, 1e-6])
    nu = Measure(gen.space, [0.69, 0.31])
    t = 0.1
    res = conditional_rate(gen, mu, nu, t)
    assert res.attained and res.iterations > 0
    # the maximizer tilts the one-step law onto nu, which certifies the value
    P = transition_matrix(gen, t).P
    e = np.exp(res.maximizer.f)
    np.testing.assert_allclose(mu.p @ (P * e / (P @ e)[:, None]), nu.p,
                               rtol=0.0, atol=1e-9)
    dual = float(res.maximizer.f @ nu.p - mu.p @ np.log(P @ e))
    assert res.value == pytest.approx(dual, rel=1e-12)
    assert res.value == pytest.approx(1.653044, abs=1e-6)

def _quadratic_or_flat(centre):
    """Cell k maximizes -|x - centre_k|^2 / 2, except that a column of NaN
    gives a flat objective whose gradient no step can reduce; cells on the
    last axis."""
    def objective(x, rows):
        c = centre if rows is None else centre[:, rows]
        flat = np.isnan(c[0])
        value = np.where(flat, 0.0, -0.5 * ((x - c) ** 2).sum(axis=0))
        grad = np.where(flat, 1.0, c - x)
        return value, grad, np.zeros(x.shape[1])

    def hessian(state):
        return np.broadcast_to(np.eye(3)[..., None], (3, 3, len(state))).copy()

    return objective, hessian


def test_core_settles_each_cell_on_its_own():
    # one cell converges after its first full Newton step, while the line
    # search of the other stalls along the Newton step and the gradient
    centre = np.array([[0.0, 1.5, -0.5], [np.nan] * 3])
    status, x, value, iterations, norm = _newton_ascent(
        *_quadratic_or_flat(centre.T), np.zeros((3, 2)), np.array([1, 2]),
        np.full(2, 1e-9))
    assert list(status) == [_Status.CONVERGED, _Status.STALLED]
    np.testing.assert_array_equal(x.T, [[0.0, 1.5, -0.5], [0.0, 0.0, 0.0]])
    assert list(iterations) == [2, 1]
    assert list(norm) == [0.0, 1.0]
    _settled(status[0])
    with pytest.raises(NumericalFailure, match="line search stalled"):
        _settled(status[1])


def test_singular_hessian_falls_back_to_the_gradient(monkeypatch):
    # both cells maximize -|x - c_k|^2, but cell 1 reports a zero Hessian:
    # the batched solve fails, the stack goes to elimination, which leaves
    # cell 1's step NaN, and cell 1 steps along its gradient 2(c - x) to 2c
    # at once, where the line search halves the step onto c. Cell 0 takes
    # its Newton step
    centre = np.array([[0.0, 1.5, -0.5], [0.0, -1.0, 2.0]])
    trials = []

    def objective(x, rows):  # cells on the last axis
        trials.append(x.T.copy())
        rows = slice(None) if rows is None else rows
        d = centre.T[:, rows] - x
        return -(d ** 2).sum(axis=0), 2.0 * d, np.arange(2)[rows]

    def hessian(cells):
        return np.where(cells == 0, 2.0 * np.eye(3)[..., None], 0.0)

    solve, solves = np.linalg.solve, []

    def counted(A, b):
        try:
            out = solve(A, b)
        except np.linalg.LinAlgError:
            solves.append((A.ndim, "singular"))
            raise
        solves.append((A.ndim, "solved"))
        return out

    monkeypatch.setattr(np.linalg, "solve", counted)
    status, x, value, iterations, norm = _newton_ascent(
        objective, hessian, np.zeros((3, 2)), np.array([1, 2]), np.full(2, 1e-9))
    assert solves == [(3, "singular")]
    assert list(status) == [_Status.CONVERGED] * 2
    np.testing.assert_array_equal(x.T, centre)
    assert list(iterations) == [2, 2]
    assert any((t == 2.0 * centre[1]).all(axis=1).any() for t in trials)
    assert all(np.isfinite(t).all() for t in trials)  # never along a NaN step


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_elimination_matches_lapack_on_pinned_laplacians(rng, m):
    # minus the Hessian on the free coordinates is a graph Laplacian less
    # its pin's row and column. With symmetric rates log-uniform over
    # 1e-6..1e3, each cell of a stack above the crossover agrees with
    # np.linalg.solve to 1e-10 relative, or to eps cond where the cell is
    # conditioned past that (the two solvers then differ by up to eps
    # cond, each as far from a long-double solve), and solves its own
    # system to rounding
    cells, n = 4 * ELIMINATION_CELLS, m + 1
    S = 10.0 ** rng.uniform(-6.0, 3.0, (n, n, cells))
    S = S + S.transpose(1, 0, 2)
    S[np.arange(n), np.arange(n)] = 0.0
    lap = -S
    lap[np.arange(n), np.arange(n)] += S.sum(axis=1)
    A, g = lap[1:, 1:].copy(), rng.standard_normal((m, cells))
    x = _eliminate(A.copy(), g)
    ref = np.linalg.solve(A.transpose(2, 0, 1), g.T[..., None])[..., 0].T
    eps = np.finfo(float).eps
    cond = np.linalg.cond(A.transpose(2, 0, 1))
    rel = np.abs(x - ref).max(axis=0) / np.abs(ref).max(axis=0)
    assert (rel <= np.maximum(1e-10, 4 * eps * cond)).all()
    residual = np.abs(np.einsum("ijb,jb->ib", A, x) - g).max(axis=0)
    scale = np.abs(A).sum(axis=1).max(axis=0) * np.abs(x).max(axis=0)
    assert (residual <= 4 * m * eps * scale).all()


def test_singular_cell_of_a_tall_stack_steps_along_its_gradient(monkeypatch):
    # as in the two-cell case above, but the stack is tall enough for
    # elimination, and the singular cell's Hessian is all ones: its second
    # pivot is zero, which would make its step +-inf and its slope
    # inf - inf; the step is NaN instead, with no RuntimeWarning, and the
    # cell steps along its gradient to 2c, halved onto c. Every other cell
    # takes its Newton step onto its centre at once. No cell goes through
    # LAPACK
    cells, singular = 2 * ELIMINATION_CELLS, 5
    centre = np.random.default_rng(7).uniform(-2.0, 2.0, (3, cells))
    centre[:, singular] = [0.0, 1.0, 1.5]
    trials = []

    def objective(x, rows):  # cells on the last axis
        trials.append((rows, x.copy()))
        rows = np.arange(cells) if rows is None else rows
        d = centre[:, rows] - x
        return -(d ** 2).sum(axis=0), 2.0 * d, rows

    def hessian(rows):
        return np.where(rows == singular, 1.0, 2.0 * np.eye(3)[..., None])

    def refused(*args):
        raise AssertionError("a tall stack went through LAPACK")

    monkeypatch.setattr(np.linalg, "solve", refused)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, x, value, iterations, norm = _newton_ascent(
            objective, hessian, np.zeros((3, cells)), np.array([1, 2]),
            np.full(cells, 1e-9))
    assert (status == _Status.CONVERGED).all()
    free = centre.copy()
    free[0] = 0.0
    np.testing.assert_array_equal(x, free)
    assert (iterations == 2).all()
    rows, first = trials[1]  # the first trial step, every cell at once
    assert rows is None
    np.testing.assert_array_equal(np.delete(first, singular, axis=1),
                                  np.delete(free, singular, axis=1))
    np.testing.assert_array_equal(first[:, singular], 2.0 * free[:, singular])
    assert all(np.isfinite(x).all() for _, x in trials)


def test_unique_coupling_with_a_near_dirac_row():
    # a -> b at 230.804, b absorbing: P(a, a) = e^{-51.24}, so the tilted
    # row laws are near Dirac. The live pairs (a, a), (a, b), (b, b) carry
    # the unique coupling 0.13, 0.18, 0.69, whose entropy is the rate; the
    # start at the tilt that matches nu is close to it
    gen = validate_generator(["a", "b"], [[0.0, 230.804], [0.0, 0.0]])
    res = conditional_rate(gen, Measure(gen.space, [0.31, 0.69]),
                           Measure(gen.space, [0.13, 0.87]), 0.222)
    assert res.attained
    assert res.value == pytest.approx(6.450177739500915, rel=1e-12)
    assert res.iterations <= 10


def test_iterates_keep_the_cells_on_their_last_axis(monkeypatch):
    # every iterate the objective sees during a cold K = 1000 path action,
    # whose cells settle at different iterations, is C-contiguous with one
    # column per cell it values, and so is every tilted flux the Hessian
    # sees, so that NumPy's inner loops run over the cells; the first
    # evaluation values all 1,000
    gen = _model()
    flow = doob_flow(gen, Potential(gen.space, [0.6, -0.4, 0.2]), 0.9, 1000)
    path, _ = doob_forward(gen, Measure(gen.space, [0.5, 0.3, 0.2]), flow)
    seen, fluxes = [], []
    make = lagrangian._lagrangian_objective

    def watched(flux, us, base):
        objective, hessian = make(flux, us, base)

        def checked(x, rows):
            cells = base.size if rows is None else np.size(rows)
            seen.append((x.shape, cells, x.flags.c_contiguous))
            return objective(x, rows)

        def checked_hessian(M):
            fluxes.append((M.shape[:2], M.flags.c_contiguous))
            return hessian(M)

        return checked, checked_hessian

    monkeypatch.setattr(lagrangian, "_lagrangian_objective", watched)
    path_action(gen, path)
    assert seen[0][:2] == ((3, 1000), 1000)
    assert min(cells for _, cells, _ in seen) < 1000  # compacted
    assert all(shape == (3, cells) and contiguous for shape, cells, contiguous in seen)
    assert fluxes and all(f == ((3, 3), True) for f in fluxes)
