"""The nonlinear operator stack built on top of the linear semigroup.

For a jump generator Q the Hamiltonian acts as
``Hf(x) = sum_y Q[x,y] (e^{f(y)-f(x)} - 1)``, the exponential tilt of the
generator by g multiplies each rate by ``e^{g(y)-g(x)}``, and the
pre-Lagrangian ``Lg = A^g g - Hg`` is the entropy-production cost of running
the g-tilted dynamics. The nonlinear semigroup ``V(t)f = log(e^{tQ} e^f)``
has H as its generator and is approximated by iterating the nonlinear
resolvent ``R(lam)f = log((I - lam*Q)^{-1} e^f)``; since R(lam) is
log o J o exp, its k-fold product is ``log(J^k e^f)``, one matrix power.

Every log-space evaluation ``log(P e^f)`` is a max-shifted mat-vec,
``c + log(P e^{f-c})`` with ``c = max f``; a row whose sum underflows there
is recomputed as ``c_x + log(sum_y P_xy e^{f_y - c_x})`` with ``c_x`` the
largest f on its own support, so each row keeps its leading term at any
spread of f. Tilted rates come from one broadcasting kernel, which also tilts
whole stacks of potentials at once. Times and resolvent parameters are
admitted by ``markov`` (``_time``, ``resolvent_matrix``): finite, or an error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateModel, InvalidParameter
from .markov import (
    Generator, Potential, _count, _expm_generator, _on, _time, resolvent_matrix)

EXPONENT_CLIP = 700.0  # |exponent| bound that keeps e^x finite (overflow at 709.8)


def _log_matrix_apply(P: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Entrywise log of P @ exp(f), f finite, as c + log(P @ e^{f-c}) with
    c = max f; a row whose sum underflows there (below c - EXPONENT_CLIP) is
    shifted by its own max{f_y : P_xy > 0} instead. Negative entries of P
    count as zero; a row with no weight gives -inf."""
    W = np.maximum(P, 0.0)
    c = f.max()
    with np.errstate(divide="ignore"):
        out = c + np.log(W @ np.exp(f - c))
        low = out < c - EXPONENT_CLIP
        if low.any():  # f.min() off the support keeps an empty row's shift finite
            A = np.where(W[low] > 0.0, f, f.min())
            cx = A.max(axis=1)
            out[low] = cx + np.log((W[low] * np.exp(A - cx[:, None])).sum(axis=1))
    return out


def _tilted_rates(rates: np.ndarray, g: np.ndarray) -> np.ndarray:
    """rates[x, y, ...] * e^{g[y, ...] - g[x, ...]} for one potential g (n,)
    or a stack (n, b), cells last so that NumPy's inner loops run over them.

    The exponent is clipped at +-EXPONENT_CLIP so every tilted rate stays finite.
    """
    d = g[None] - g[:, None]
    np.minimum(d, EXPONENT_CLIP, out=d)  # two ufuncs cost less than np.clip's wrappers
    np.maximum(d, -EXPONENT_CLIP, out=d)
    np.exp(d, out=d)
    d *= rates
    return d


def _hamiltonian_raw(Qoff: np.ndarray, exit_rates: np.ndarray,
                     f: np.ndarray) -> np.ndarray:
    return _tilted_rates(Qoff, f).sum(axis=1) - exit_rates


def apply_hamiltonian(gen: Generator, f: Potential) -> Potential:
    """Hf(x) = sum_{y != x} Q[x,y] (e^{f(y)-f(x)} - 1).

    Equivalently e^{-f} Q e^{f}; the local-rate form used here is invariant
    under constant shifts of f.
    """
    _on(gen.space, f)
    h = _hamiltonian_raw(gen.off_diagonal, gen.exit_rates, f.f)
    return Potential(gen.space, h)


def tilted_generator(gen: Generator, g: Potential) -> Generator:
    """The generator with each rate multiplied by e^{g(y)-g(x)}."""
    _on(gen.space, g)
    Qt = _tilted_rates(gen.off_diagonal, g.f)
    np.fill_diagonal(Qt, -Qt.sum(axis=1))
    return Generator(gen.space, Qt)


def pre_lagrangian(gen: Generator, g: Potential) -> Potential:
    """Lg = A^g g - Hg, pointwise nonnegative.

    Per state, Lg(x) = sum_y Q[x,y] (e^d * d - e^d + 1) with d = g(y)-g(x);
    each summand is u log u - u + 1 >= 0 evaluated at u = e^d.
    """
    _on(gen.space, g)
    return Potential(gen.space, _pre_lagrangian(gen.off_diagonal, g.f))


def _pre_lagrangian(rates: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Lg for a potential g (n,) and rates (n, n), or a stack (n, b) and (n, n, 1)."""
    d = g[None] - g[:, None]
    ed = np.exp(d)
    return (rates * (ed * d - ed + 1.0)).sum(axis=1)


def v_apply(gen: Generator, f: Potential, t: float) -> Potential:
    """The nonlinear semigroup V(t)f = log E[e^{f(X(t))} | X(0) = x]."""
    _on(gen.space, f)
    P = _expm_generator(gen, _time(t))
    return Potential(gen.space, _log_matrix_apply(P, f.f))


def nonlinear_resolvent(gen: Generator, f: Potential, lam: float) -> Potential:
    """R(lam)f = log((I - lam*Q)^{-1} e^f)."""
    _on(gen.space, f)
    J = resolvent_matrix(gen, lam)
    return Potential(gen.space, _log_matrix_apply(J, f.f))


def resolvent_iterate(gen: Generator, f: Potential, t: float, n: int) -> Potential:
    """Apply R(1/n) exactly k = floor(n*t) times; converges to V(t)f as n grows.

    Each step is log(J_+ e^f) with J = (I - Q/n)^{-1} and J_+ = max(J, 0)
    (rounding can leave J slightly negative), so the k steps are one
    log-space apply of J_+^k, which np.linalg.matrix_power forms by
    repeated squaring. InvalidParameter unless n is an integer >= 1 and
    n t < 2^53, below which step counts are exact integers.
    """
    _on(gen.space, f)
    steps = _count(n, "need an integer n >= 1, got n = {}", 1) * _time(t)
    if not steps < 2.0 ** 53:
        raise InvalidParameter(f"need n t below 2^53, got n = {n}, t = {t}")
    steps = int(math.floor(steps + 1e-9))
    J = resolvent_matrix(gen, 1.0 / n)
    g = f.f
    if steps:
        g = _log_matrix_apply(np.linalg.matrix_power(np.maximum(J, 0.0), steps), g)
    return Potential(gen.space, g)


def barrel_radius(gen: Generator) -> float:
    """Sup-norm radius within which the Hamiltonian is bounded by one.

    Equals 0.5 * log(1/r + 1) for r the maximal total exit rate: for any g
    with ||g|| below this radius, ||Hg|| <= 1.
    """
    r = gen.max_exit_rate
    if r <= 0:
        raise DegenerateModel("all exit rates are zero")
    return 0.5 * math.log1p(1.0 / r)
