"""Dense operators, states, register utilities, and Haar sampling."""

import numpy as np
import pytest

from pru_lab import (
    BooleanFunction,
    CapacityError,
    DensityMatrix,
    DomainError,
    PermutationD,
    PermutationT,
    StateVector,
    all_permutations,
    apply_to_registers,
    cli_main,
    distinct_projector,
    partial_trace,
    perm_op,
    phase_op,
    sample_haar_unitary,
    subsystem_perm_op,
    tensor_power,
    trace_distance,
)
from pru_lab.operators import dim_cap, distinct_mask, falling_factorial, haar_unitaries, trace_norm

from conftest import random_state


def test_perm_op_identity_and_swap():
    assert np.allclose(perm_op(PermutationD.identity(3)).entries, np.eye(3))
    X = perm_op(PermutationD((1, 0)))
    assert np.allclose(X.entries, [[0, 1], [1, 0]])


def test_perm_op_group_inverse():
    pi = PermutationD((2, 0, 3, 1))
    P = perm_op(pi)
    Pinv = perm_op(pi.inverse())
    assert np.allclose((P @ Pinv).entries, np.eye(4))


def test_phase_op_examples():
    assert np.allclose(phase_op(BooleanFunction.zero(4)).entries, np.eye(4))
    Z = phase_op(BooleanFunction((0, 1)))
    assert np.allclose(Z.entries, [[1, 0], [0, -1]])
    f = BooleanFunction((1, 0, 1, 1))
    F = phase_op(f)
    assert np.allclose((F @ F).entries, np.eye(4))


def test_subsystem_perm_swap_matrix():
    S = subsystem_perm_op(PermutationT((1, 0)), 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = expected[1, 2] = expected[2, 1] = 1
    assert np.allclose(S.entries, expected)
    assert np.allclose(subsystem_perm_op(PermutationT.identity(3), 2).entries, np.eye(8))


@pytest.mark.parametrize("d,t", [(2, 2), (2, 3), (3, 3), (2, 4)])
def test_subsystem_perm_representation_property(d, t):
    perms = all_permutations(t)
    ops = {p: subsystem_perm_op(p, d).entries for p in perms}
    for a in perms:
        for b in perms:
            assert np.abs(ops[a] @ ops[b] - ops[a.compose(b)]).max() < 1e-12


def test_subsystem_perm_trace_counts_cycles():
    d, t = 4, 3
    for pi in all_permutations(t):
        R = subsystem_perm_op(pi, d)
        assert abs(np.trace(R.entries) - d**pi.num_cycles()) < 1e-12


def test_perm_tensor_power_commutes_with_slots():
    rng = np.random.default_rng(5)
    d, t = 3, 3
    P = perm_op(PermutationD(tuple(int(x) for x in rng.permutation(d))))
    Pt = tensor_power(P, t)
    for sigma in all_permutations(t):
        R = subsystem_perm_op(sigma, d)
        assert np.abs((Pt @ R).entries - (R @ Pt).entries).max() < 1e-12


def test_distinct_projector_trace_and_cases():
    L = distinct_projector(4, 2)
    assert abs(np.trace(L.entries) - 12) < 1e-12
    assert np.allclose(distinct_projector(3, 1).entries, np.eye(3))
    zero = distinct_projector(2, 3)
    assert np.abs(zero.entries).max() == 0
    assert zero.meta == {"empty": True}
    assert falling_factorial(4, 2) == 12 and falling_factorial(2, 3) == 0


def test_distinct_projector_enumeration_oracle():
    import itertools

    d, t = 4, 2
    count = sum(
        1 for tup in itertools.product(range(d), repeat=t) if len(set(tup)) == t
    )
    assert abs(np.trace(distinct_projector(d, t).entries) - count) < 1e-12


def test_distinct_commutes_with_slot_perms():
    d, t = 3, 3
    L = distinct_projector(d, t).entries
    for pi in all_permutations(t):
        R = subsystem_perm_op(pi, d).entries
        assert np.abs(L @ R - R @ L).max() < 1e-12


def test_haar_unitary_basics():
    U = sample_haar_unitary(5, 7)
    assert U.is_unitary(1e-10)
    assert not np.allclose(U.entries, sample_haar_unitary(5, 8).entries)
    assert np.allclose(U.entries, sample_haar_unitary(5, 7).entries)


def test_haar_first_moment():
    rng = np.random.default_rng(0)
    N = 100000
    us = haar_unitaries(2, N, rng)
    mean = float((np.abs(us[:, 0, 0]) ** 2).mean())
    assert abs(mean - 0.5) < 3 / np.sqrt(N)


def test_trace_distance_conventions():
    e0 = np.diag([1.0, 0.0])
    e1 = np.diag([0.0, 1.0])
    assert abs(trace_distance(e0, e1) - 2) < 1e-12
    assert trace_distance(e0, e0) < 1e-12
    with pytest.raises(DomainError):
        trace_distance(e0, np.eye(3))


def test_trace_norm_matches_singular_values():
    """Eigenvalues serve only exactly Hermitian input: the nilpotent
    [[0, 1], [0, 0]] has trace norm 1 but both eigenvalues 0."""
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    H = (A + A.conj().T) / 2
    assert np.array_equal(H, H.conj().T)
    svd = np.linalg.svd(H, compute_uv=False).sum()
    assert abs(trace_norm(H) - svd) < 1e-12 * svd
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert abs(trace_norm(N) - np.linalg.svd(N, compute_uv=False).sum()) < 1e-15
    assert abs(trace_norm(N) - 1.0) < 1e-15


def test_density_matrix_stores_its_exact_hermitian_part():
    rho = random_state(16, (16,), 4).to_density().entries
    A = np.random.default_rng(5).standard_normal((16, 16)) * (1 + 1j)
    given = rho + 1e-12 * (A - A.conj().T)  # anti-Hermitian perturbation
    before = given.copy()
    entries = DensityMatrix(given).entries
    assert np.array_equal(entries, entries.conj().T)
    assert np.abs(entries - rho).max() < 1e-15
    assert np.array_equal(given, before) and given.flags.writeable


def test_partial_trace_entangled():
    d = 3
    psi = np.eye(d).reshape(-1) / np.sqrt(d)
    rho = DensityMatrix(np.outer(psi, psi.conj()), (d, d))
    red = partial_trace(rho, [0])
    assert np.abs(red.entries - np.eye(d) / d).max() < 1e-10
    assert abs(np.trace(red.entries) - 1) < 1e-10


def test_partial_trace_requires_registers():
    rho = DensityMatrix(np.eye(4) / 4)
    with pytest.raises(DomainError):
        partial_trace(rho, [0])


def test_apply_to_registers():
    X = perm_op(PermutationD((1, 0)))
    st = StateVector(np.kron([1, 0], [0, 1]).astype(complex), (2, 2))
    out = apply_to_registers(X, st, [1])
    assert np.allclose(out.amplitudes, np.kron([1, 0], [1, 0]))
    both = apply_to_registers(np.kron(X.entries, X.entries), st, [0, 1])
    assert np.allclose(both.amplitudes, np.kron([0, 1], [1, 0]))


def test_state_and_density_validation():
    with pytest.raises(DomainError):
        StateVector(np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    rho = random_state(8, (8,), 3).to_density()
    rho.validate()


def test_unitary_tag_and_ops():
    U = sample_haar_unitary(3, 0)
    assert (U @ U.dag()).is_unitary(1e-10)
    T = U.tensor(U)
    assert T.dim == 9 and T.registers == (3, 3)


def test_capacity_cap(monkeypatch):
    monkeypatch.setenv("PRU_LAB_DIM_CAP", "8")
    with pytest.raises(CapacityError):
        subsystem_perm_op(PermutationT.identity(2), 4)
    monkeypatch.delenv("PRU_LAB_DIM_CAP")
    subsystem_perm_op(PermutationT.identity(2), 4)


def test_capacity_cap_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("PRU_LAB_DIM_CAP", "abc")
    with pytest.raises(CapacityError, match="PRU_LAB_DIM_CAP"):
        dim_cap()
    assert cli_main(["security", "--n", "1", "--t", "2"]) == 1
    assert "error: PRU_LAB_DIM_CAP" in capsys.readouterr().err


def test_distinct_mask_matches_projector():
    d, t = 3, 2
    mask = distinct_mask(d, t)
    assert np.allclose(np.diag(mask.astype(float)), distinct_projector(d, t).entries.real)
