"""Keyed ensemble: keys, toy schemes, assembly, and ensemble averages."""

import random

import numpy as np
import pytest

from pru_lab import (
    CapacityError,
    CliffordElement,
    DomainError,
    PermutationT,
    PrfScheme,
    PrpScheme,
    PruKey,
    StateVector,
    clifford_twirl,
    perm_op,
    pf_twirl,
    pru_average_state,
    pru_average_state_from_keys,
    pru_unitary,
    sample_clifford,
    sample_key,
    sample_keys,
    trace_distance,
)
from pru_lab.pru import clifford_seed

from conftest import random_state


def test_key_determinism_and_distinctness():
    assert sample_key(2, 42) == sample_key(2, 42)
    keys = [sample_key(2, s) for s in range(1000)]
    assert len(set(keys)) == 1000


def test_key_component_length_enforced():
    with pytest.raises(DomainError):
        PruKey(b"short", b"x" * 16, b"y" * 16)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prp_bijective_exhaustively(n):
    table = PrpScheme(n).table(sample_key(n, n).k1)
    assert sorted(table.images) == list(range(2**n))


def test_prf_prp_deterministic_per_key():
    prf, prp = PrfScheme(3), PrpScheme(3)
    key = sample_key(3, 0)
    assert prf.table(key.k2) == prf.table(key.k2)
    assert prp.table(key.k1).images == prp.table(key.k1).images
    other = sample_key(3, 1)
    assert prp.table(key.k1).images != prp.table(other.k1).images


def test_prf_outputs_are_bits():
    prf = PrfScheme(4)
    key = sample_key(4, 9).k2
    bits = prf.table(key)
    assert set(bits) <= {0, 1}
    assert 0 < sum(bits) < len(bits)  # nondegenerate at d=16


def test_identity_components_give_identity():
    U = (
        perm_op(PermutationT.identity(4))
        @ np.diag(1 - 2 * np.array((0,) * 4))
        @ CliffordElement.identity(2).to_dense()
    )
    assert np.abs(U - np.eye(4)).max() < 1e-12


def test_pru_unitary_is_unitary_100_keys():
    for s in range(100):
        U = pru_unitary(sample_key(2, s), 2)
        assert np.abs(U.conj().T @ U - np.eye(4)).max() < 1e-12


def test_pru_unitary_size_follows_the_dimension_cap(monkeypatch):
    U = pru_unitary(sample_key(5, 0), 5)
    assert U.shape == (32, 32) and np.abs(U.conj().T @ U - np.eye(32)).max() <= 1e-10
    monkeypatch.setenv("PRU_LAB_DIM_CAP", "4")
    assert pru_unitary(sample_key(2, 0), 2).shape == (4, 4)
    with pytest.raises(CapacityError):
        pru_unitary(sample_key(3, 0), 3)
    monkeypatch.delenv("PRU_LAB_DIM_CAP")
    with pytest.raises(CapacityError):
        pru_unitary(sample_key(40, 0), 40)


def test_pru_unitary_columnwise_oracle():
    """Independent path: apply the three stages to each basis vector."""
    n, d = 2, 4
    key = sample_key(n, 13)
    U = pru_unitary(key, n)
    C = sample_clifford(n, clifford_seed(key.k3)).to_dense()
    prp = PrpScheme(n).table(key.k1)
    prf = PrfScheme(n).table(key.k2)
    for x in range(d):
        v = C[:, x].copy()
        v = np.array([(-1) ** prf[i] * v[i] for i in range(d)])
        w = np.zeros(d, dtype=complex)
        for i in range(d):
            w[prp(i)] = v[i]
        assert np.abs(U[:, x] - w).max() < 1e-12


def test_pru_signed_permutation_without_clifford():
    key = sample_key(2, 7)
    F = np.diag(1 - 2 * np.array(PrfScheme(2).table(key.k2)))
    PF = perm_op(PrpScheme(2).table(key.k1)) @ F
    assert np.all(np.sum(np.abs(PF) > 1e-12, axis=0) == 1)
    assert np.allclose(np.abs(PF[np.abs(PF) > 1e-12]), 1.0)


def test_single_key_average_is_pure():
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1
    rho = pru_average_state_from_keys(StateVector(psi), 2, 2, sample_keys(2, 1, 3))
    evals = np.linalg.eigvalsh(rho.entries)
    assert abs(evals[-1] - 1) < 1e-10
    assert rho.eigenvalues()[0] >= -1e-9


def test_average_key_order_invariance_bitwise():
    psi = random_state(16, 0)
    keys = sample_keys(2, 8, 5)
    shuffled = keys[:]
    random.Random(0).shuffle(shuffled)
    a = pru_average_state_from_keys(psi, 2, 2, keys)
    b = pru_average_state_from_keys(psi, 2, 2, shuffled)
    assert np.array_equal(a.entries, b.entries)


def test_keyed_average_matches_fully_random():
    st = random_state(16, 1)
    rho_keyed = pru_average_state(st, 2, 2, 4096, 77)
    rho_fr = pf_twirl(clifford_twirl(st, 2, 2, method="exact"), 4, 2)
    dist = trace_distance(rho_keyed, rho_fr)
    envelope = 3 * np.sqrt(rho_keyed.dim) * rho_keyed.meta["std_error_fro"]
    assert dist <= envelope
    assert rho_keyed.eigenvalues()[0] >= -1e-9


def test_pru_average_with_workspace():
    st = random_state(32, 4)
    rho = pru_average_state(st, 2, 2, 64, 11)
    assert abs(float(np.trace(rho.entries).real) - 1) < 1e-9
    assert rho.eigenvalues()[0] >= -1e-9
