"""Shared fixtures and model builders for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from ctmc_ldp import Generator, Measure, Potential, validate_generator

# Every property draws the same examples on every run and keeps no example
# database; each test sets only its own example count and deadline.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def absorbing_chain() -> Generator:
    """Two states, unit rate a -> b, no way back."""
    return validate_generator(["a", "b"], [[0.0, 1.0], [0.0, 0.0]])


def symmetric_chain() -> Generator:
    """Two states with unit rates both ways."""
    return validate_generator(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])


def random_model(rng, n_min=2, n_max=5, rate_high=3.0) -> Generator:
    """A fully connected chain with rates uniform in (0, rate_high]."""
    n = int(rng.integers(n_min, n_max + 1))
    rates = rng.uniform(0.0, rate_high, size=(n, n)) + 1e-9
    return validate_generator([f"s{i}" for i in range(n)], rates)


def random_chain(rng, kind, n_min=2, n_max=5) -> Generator:
    """A chain with rates uniform in [0, 3) ("random"), log-uniform over
    1e-3..1e3 ("stiff"), or uniform with half the channels shut ("sparse",
    so some states may be absorbing or unreachable)."""
    n = int(rng.integers(n_min, n_max + 1))
    if kind == "stiff":
        rates = 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
    else:
        rates = rng.uniform(0.0, 3.0, (n, n))
        if kind == "sparse":
            rates[rng.random((n, n)) < 0.5] = 0.0
    return validate_generator([f"s{i}" for i in range(n)], rates)


def random_law(rng, gen) -> Measure:
    """A third each: full support, some states empty, or a Dirac law."""
    n = gen.size
    kind = rng.integers(3)
    if kind == 2:
        return Measure(gen.space, np.eye(n)[rng.integers(n)])
    p = rng.dirichlet(np.ones(n))
    if kind == 1:
        p[rng.random(n) < 0.4] = 0.0
        p = p / p.sum() if p.sum() > 0.0 else np.eye(n)[0]
    return Measure(gen.space, p)


def random_measure(rng, gen, strict=True) -> Measure:
    p = rng.dirichlet(np.ones(gen.size))
    if strict:
        p = (p + 0.01) / (1.0 + 0.01 * gen.size)
    return Measure(gen.space, p)


def random_potential(rng, gen, bound=1.0) -> Potential:
    return Potential(gen.space, rng.uniform(-bound, bound, gen.size))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
