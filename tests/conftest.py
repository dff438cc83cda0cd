import numpy as np
import pytest
from hypothesis import settings

from pru_lab import StateVector
from pru_lab.operators import distinct_mask

# Property tests draw the same examples on every run and machine, and are
# never failed for taking long.
settings.register_profile("pru-lab", derandomize=True, deadline=None)
settings.load_profile("pru-lab")


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(v / np.linalg.norm(v))


def random_distinct_state(d, t, dim_e, seed):
    rng = np.random.default_rng(seed)
    mask = distinct_mask(d, t)
    v = np.zeros((d**t, dim_e), dtype=complex)
    m = int(mask.sum())
    v[mask] = rng.standard_normal((m, dim_e)) + 1j * rng.standard_normal((m, dim_e))
    v = v.reshape(-1)
    return StateVector(v / np.linalg.norm(v))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
