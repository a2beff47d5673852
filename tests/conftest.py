import time

import numpy as np
import pytest

from fspair.measures import Density, FSPair, SummationFunction, TemperedMeasure, make_poisson
from fspair.nevanlinna import build_model

SESSION_START = time.monotonic()


@pytest.fixture(scope="session")
def poisson_pair():
    return make_poisson()


@pytest.fixture(scope="session")
def poisson_model(poisson_pair):
    return build_model(poisson_pair)


@pytest.fixture(scope="session")
def big_poisson_model():
    """Poisson pair with a large measure truncation; the integral-side tail
    scales like 1/t_max, so 4e6 supports ~1e-6 agreement tests."""
    pair = make_poisson(t_max=4_000_000, lambda_max=64)
    rng = np.random.default_rng(7)
    sample = [complex(x, y) for x, y in zip(rng.uniform(-1.8, 1.8, 8),
                                            rng.uniform(0.4, 3.5, 8))]
    return build_model(pair, k=0, sample=sample)


@pytest.fixture(scope="session")
def selberg_pair():
    """The README's Selberg-shaped pair: half-weight atoms at +-0.75, +-1.25,
    +-2 plus the density 0.3 t tanh(pi t), degree bound 3."""
    rs = np.array([0.75, 1.25, 2.0])
    loc = np.concatenate([-rs[::-1], rs])
    mu = TemperedMeasure(loc, np.full(6, 0.5 + 0j), Density("r_tanh_pi_r", 0.3), 3,
                         "selberg-like")
    a = SummationFunction(np.array([-0.5, 0.5]), np.array([0.25 + 0j, 0.25 + 0j]), 0.2)
    return FSPair("selberg-like", mu, a, True, 0.2)
