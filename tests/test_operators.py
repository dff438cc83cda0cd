"""Dense operators, states, register utilities, and Haar sampling."""

import itertools
import tracemalloc

import numpy as np
import pytest

from pru_lab import (
    BooleanFunction,
    CapacityError,
    DenseOperator,
    DensityMatrix,
    DomainError,
    PermutationT,
    StateVector,
    SupportDensity,
    SupportOperator,
    all_permutations,
    cli_main,
    clifford_twirl,
    gentle_normalize,
    distinct_projector,
    perm_op,
    phase_op,
    subsystem_perm_op,
    tensor_power,
    trace_distance,
)
from pru_lab import haar_twirl_exact, haar_twirl_mc, operators, pf_twirl
from pru_lab.operators import (
    TILE,
    dim_cap,
    distinct_mask,
    falling_factorial,
    haar_unitaries,
    hermitian_eigvalsh,
    subsystem_perm_index_map,
    trace_norm,
)

from conftest import random_state


def test_perm_op_identity_and_swap():
    assert np.allclose(perm_op(PermutationT.identity(3)).entries, np.eye(3))
    X = perm_op(PermutationT((1, 0)))
    assert np.allclose(X.entries, [[0, 1], [1, 0]])


def test_perm_op_group_inverse():
    pi = PermutationT((2, 0, 3, 1))
    P = perm_op(pi)
    Pinv = perm_op(pi.inverse())
    assert np.allclose(P.entries @ Pinv.entries, np.eye(4))


def test_phase_op_examples():
    assert np.allclose(phase_op(BooleanFunction.zero(4)).entries, np.eye(4))
    Z = phase_op(BooleanFunction((0, 1)))
    assert np.allclose(Z.entries, [[1, 0], [0, -1]])
    f = BooleanFunction((1, 0, 1, 1))
    F = phase_op(f)
    assert np.allclose(F.entries @ F.entries, np.eye(4))


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


@pytest.mark.parametrize("d,t", [(2, 1), (3, 3), (2, 4), (4, 3), (2, 5)])
def test_subsystem_perm_index_map_moves_digits(d, t):
    """Reference: image digit i of label a is a's digit at slot pi^{-1}(i)."""
    for pi in all_permutations(t):
        inv = pi.inverse()
        want = [
            np.ravel_multi_index(tuple(a[inv(i)] for i in range(t)), (d,) * t)
            for a in itertools.product(range(d), repeat=t)
        ]
        assert subsystem_perm_index_map(pi, d).tolist() == want


def test_subsystem_perm_trace_counts_cycles():
    d, t = 4, 3
    for pi in all_permutations(t):
        R = subsystem_perm_op(pi, d)
        assert abs(np.trace(R.entries) - d**pi.num_cycles()) < 1e-12


def test_perm_tensor_power_commutes_with_slots():
    rng = np.random.default_rng(5)
    d, t = 3, 3
    P = perm_op(PermutationT(tuple(int(x) for x in rng.permutation(d))))
    Pt = tensor_power(P, t).entries
    for sigma in all_permutations(t):
        R = subsystem_perm_op(sigma, d).entries
        assert np.abs(Pt @ R - R @ Pt).max() < 1e-12


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
    U = haar_unitaries(5, 1, np.random.default_rng(7))[0]
    assert DenseOperator(U).is_unitary(1e-10)
    assert not np.allclose(U, haar_unitaries(5, 1, np.random.default_rng(8))[0])
    assert np.array_equal(U, haar_unitaries(5, 1, np.random.default_rng(7))[0])


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


def _hidden_blocks(sizes, seed, chain=False):
    """A random Hermitian block-diagonal matrix with ``sizes`` blocks, its
    rows and columns shuffled by a random permutation.  With ``chain``,
    each block is tridiagonal, so its rows are joined only through a path."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    A = np.zeros((n, n), dtype=complex)
    off = 0
    for s in sizes:
        X = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        if chain:
            X = np.triu(np.tril(X, 1), -1)
        A[off : off + s, off : off + s] = X + X.conj().T
        off += s
    p = rng.permutation(n)
    return A[p][:, p]


@pytest.mark.parametrize("chain", [False, True])
@pytest.mark.parametrize("sizes", [(1, 5, 5, 2, 7, 1, 3), (12,) * 10, (40, 1, 1)])
def test_trace_norm_splits_hidden_blocks(sizes, chain):
    A = _hidden_blocks(sizes, sum(sizes), chain)
    full = np.linalg.eigvalsh(A)
    assert np.allclose(np.sort(hermitian_eigvalsh(A)), full, rtol=0, atol=1e-12)
    norm = np.abs(full).sum()
    assert abs(trace_norm(A) - norm) <= 1e-12 * norm


@pytest.mark.parametrize("coupling", [3.0, 1e-300])
def test_one_entry_joins_two_blocks(coupling):
    """A single nonzero pair coupling two blocks merges them into one
    component, however small it is, so the split returns the full
    ``eigvalsh``; apart, the two blocks' spectra come back one after the
    other."""
    A = _hidden_blocks((6, 4), 5)
    j = int(np.flatnonzero(A[0] == 0)[0])  # a row of the block that row 0 is not in
    B = A.copy()
    B[0, j] = B[j, 0] = coupling
    assert np.array_equal(hermitian_eigvalsh(B), np.linalg.eigvalsh(B))
    assert not np.array_equal(hermitian_eigvalsh(A), np.linalg.eigvalsh(A))
    assert trace_norm(B) == np.abs(np.linalg.eigvalsh(B)).sum()


def test_trace_norm_of_one_component_is_the_full_eigvalsh():
    A = _hidden_blocks((30,), 3)
    A[A == 0] = 1e-300  # dense, so one component
    assert trace_norm(A) == np.abs(np.linalg.eigvalsh(A)).sum()
    assert np.array_equal(hermitian_eigvalsh(A), np.linalg.eigvalsh(A))


def test_trace_norm_of_zero_is_zero():
    assert trace_norm(np.zeros((7, 7), dtype=complex)) == 0.0
    assert trace_norm(np.zeros((0, 0))) == 0.0
    assert np.array_equal(hermitian_eigvalsh(np.zeros((4, 4))), np.zeros(4))


def test_negative_zero_entries_count_as_zero():
    A = _hidden_blocks((3, 4, 2), 8)
    B = np.where(A == 0, -0.0 - 0.0j, A)
    assert np.signbit(B.real).sum() > np.signbit(A.real).sum()
    assert np.array_equal(hermitian_eigvalsh(B), hermitian_eigvalsh(A))
    assert len(hermitian_eigvalsh(B)) == len(A)
    assert trace_norm(B) == trace_norm(A)


def test_trace_norm_of_non_hermitian_input_takes_the_svd():
    A = _hidden_blocks((3, 4, 2), 9)
    A[0, 1] += 1j  # breaks Hermiticity, and may or may not join blocks
    assert trace_norm(A) == float(np.linalg.svd(A, compute_uv=False).sum())


# one tile, a tile less or more by one row, and partial last tiles
EDGE_SIZES = [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 2, 4 * TILE]


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_trace_norm_tests_hermiticity_as_array_equal(n, monkeypatch):
    """The tiled test reads every mirrored pair, the partial tiles too, and
    compares with ``==``, so a signed zero still counts as equal."""
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = X + X.conj().T
    asymmetric, imaginary_diagonal, signed_zero = H.copy(), H.copy(), H.copy()
    asymmetric[n - 1, 0] += 1.0  # the last partial tile; a real diagonal entry when n = 1
    imaginary_diagonal[n - 1, n - 1] += 1e-300j
    signed_zero[n - 1, 0], signed_zero[0, n - 1] = -0.0, 0.0
    calls = []
    monkeypatch.setattr(operators, "hermitian_eigvalsh", lambda A: calls.append(A) or np.linalg.eigvalsh(A))
    for A, hermitian in [(H, True), (asymmetric, n == 1), (imaginary_diagonal, False), (signed_zero, True)]:
        assert np.array_equal(A, A.conj().T) == hermitian
        calls.clear()
        norm = trace_norm(A)
        assert bool(calls) == hermitian
        if not hermitian:
            assert norm == float(np.linalg.svd(A, compute_uv=False).sum())


@pytest.mark.parametrize("n", [16, *EDGE_SIZES])
def test_density_matrix_stores_its_exact_hermitian_part(n):
    rho = random_state(n, 4).to_density().entries
    A = np.random.default_rng(5).standard_normal((n, n)) * (1 + 1j)
    given = rho + 1e-12 * (A - A.conj().T)  # anti-Hermitian perturbation
    before = given.copy()
    entries = DensityMatrix(given).entries
    expected = (given + given.conj().T) * 0.5
    assert np.array_equal(entries.view(np.uint64), expected.view(np.uint64))  # bit for bit
    assert np.array_equal(entries, entries.conj().T)
    assert np.abs(entries - rho).max() < 1e-15
    assert np.array_equal(given, before) and given.flags.writeable


@pytest.mark.parametrize("n", [TILE + 1, 2 * TILE + 2])
@pytest.mark.parametrize("entry, accepted", [(2e-10, False), (5e-11, True)])
def test_density_matrix_checks_hermiticity_in_the_last_partial_tile(n, entry, accepted):
    given = np.eye(n, dtype=complex) / n
    given[n - 1, 0] = entry  # its mirror entry stays 0
    if not accepted:
        with pytest.raises(DomainError, match="not Hermitian"):
            DensityMatrix(given)
        return
    entries = DensityMatrix(given).entries
    assert entries[n - 1, 0] == entries[0, n - 1] == entry / 2


def test_density_matrix_allocates_one_matrix_and_tile_scratch():
    """The constructor allocates its copy and tile scratch; ``_adopt`` of a
    C-contiguous buffer only the scratch, as it stores into the buffer."""
    n = 1024
    given = np.eye(n, dtype=complex) / n
    buffer = given.copy()
    tracemalloc.start()
    try:
        DensityMatrix(given)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        adopted = DensityMatrix._adopt(buffer).entries
        adopt_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n * n + 8 * 16 * TILE * TILE
    assert adopt_peak <= 8 * 16 * TILE * TILE
    assert np.shares_memory(adopted, buffer) and np.array_equal(adopted, given)


@pytest.mark.parametrize("n", [3, TILE + 1])
def test_density_matrix_copies_and_adopt_takes_over(n):
    """The public constructor leaves its input alone, in C or Fortran order;
    ``_adopt`` stores the same Hermitian part in the C-contiguous buffer it
    is handed."""
    rho = random_state(n, 6).to_density().entries
    A = np.random.default_rng(7).standard_normal((n, n)) * (1 + 1j)
    given = rho + 1e-12 * (A - A.conj().T)
    for layout in (given, np.asfortranarray(given)):
        before = layout.copy(order="K")
        copied = DensityMatrix(layout).entries
        assert np.array_equal(layout, before) and layout.flags.writeable
        assert not np.shares_memory(copied, layout)
    buffer = given.copy()
    adopted = DensityMatrix._adopt(buffer).entries
    assert np.shares_memory(adopted, buffer) and adopted.flags.c_contiguous
    assert np.array_equal(adopted, copied)
    assert np.array_equal(adopted, adopted.conj().T)


@pytest.mark.parametrize("n", [3, TILE + 1])
def test_trace_distance_of_density_matrices_skips_the_hermiticity_test(monkeypatch, n):
    rng = np.random.default_rng(n)
    a = random_state(n, 1).to_density()
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = DensityMatrix(G @ G.conj().T / np.trace(G @ G.conj().T).real)
    expected = trace_norm(a.entries - b.entries)
    monkeypatch.setattr(operators, "trace_norm", lambda A: pytest.fail("the Hermiticity test ran"))
    assert trace_distance(a, b) == expected  # bit for bit


def test_trace_distance_of_twirl_outputs_at_d3_equals_the_trace_norm(monkeypatch):
    st = random_state(18, 2)
    a, b = haar_twirl_exact(st, 3, 2), pf_twirl(st, 3, 2)
    expected = trace_norm(a.entries - b.entries)
    monkeypatch.setattr(operators, "trace_norm", lambda A: pytest.fail("the Hermiticity test ran"))
    assert trace_distance(a, b) == expected > 0


def test_trace_distance_of_a_non_hermitian_array_takes_the_svd(monkeypatch):
    A = np.random.default_rng(3).standard_normal((5, 5)) + 0j
    calls = []
    monkeypatch.setattr(operators, "hermitian_eigvalsh", lambda M: calls.append(M) or np.linalg.eigvalsh(M))
    assert trace_distance(A, np.zeros((5, 5))) == float(np.linalg.svd(A, compute_uv=False).sum())
    assert not calls


def _density_pairs(d, t, dim_e, seed):
    """Pairs of density matrices on d^t dim_e whose difference splits into
    components: PF and Haar twirl outputs of one state (different supports);
    two block-sparse operators equal on one block and on the diagonal, where
    the second also joins two blocks the first keeps apart; and two dense
    operators, one component."""
    n = d**t * dim_e
    rng = np.random.default_rng(seed)
    st = random_state(n, seed)
    pairs = [(haar_twirl_exact(st, d, t), pf_twirl(st, d, t))]

    def hermitian():
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (X + X.conj().T) * (0.01 / n)

    H, K = hermitian(), hermitian()
    group = rng.integers(0, 3, n)
    same = group[:, None] == group[None, :]
    joined = (group[:, None] == 1) & (group[None, :] == 2)
    a = np.where(same, H, 0)
    b = np.where(same & (group[:, None] == 0), H, np.where(same | joined | joined.T, K, 0))
    dense_a, dense_b = H.copy(), K.copy()
    for m in (a, b, dense_a, dense_b):
        np.fill_diagonal(m, 1 / n)
    pairs += [(DensityMatrix(a), DensityMatrix(b)), (DensityMatrix(dense_a), DensityMatrix(dense_b))]
    return pairs


@pytest.mark.parametrize("dim_e", [1, 2])
@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_trace_distance_of_density_matrices_matches_the_dense_oracle(d, t, dim_e):
    """Without forming A - B, ``trace_distance`` equals the sum of the
    absolute eigenvalues of the dense difference."""
    for a, b in _density_pairs(d, t, dim_e, 10 * d + t):
        oracle = np.abs(np.linalg.eigvalsh(a.entries - b.entries)).sum()
        assert abs(trace_distance(a, b) - oracle) <= 1e-12


def test_density_eigenvalues_are_sorted_and_complete():
    st = random_state(64 * 2, 9)
    for rho in (pf_twirl(st, 4, 3), haar_twirl_exact(st, 4, 3)):
        evals = rho.eigenvalues()
        assert np.all(np.diff(evals) >= 0)
        assert np.abs(evals - np.linalg.eigvalsh(rho.entries)).max() < 1e-15
        assert rho.validate() is rho


def test_state_and_density_validation():
    with pytest.raises(DomainError):
        StateVector(np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    rho = random_state(8, 3).to_density()
    rho.validate()


@pytest.mark.parametrize("make", [
    lambda: DensityMatrix(np.eye(2) / 2, (2,)),
    lambda: StateVector(np.array([1.0, 0.0]), (2,)),
    lambda: DenseOperator(np.eye(2), (2,)),
], ids=["density", "state", "operator"])
def test_a_second_positional_argument_is_rejected(make):
    """Only the entries are positional; ``meta`` is keyword-only."""
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make", [
    lambda: DensityMatrix(np.full((2, 2), np.nan)),
    lambda: DensityMatrix([[0.5, np.inf], [np.inf, 0.5]]),
    lambda: DensityMatrix([[np.nan, 0.0], [0.0, 0.5]]),
    lambda: StateVector([np.nan, 1.0]),
], ids=["nan-density", "inf-off-diagonal", "nan-diagonal", "nan-state"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_entries_fail_validation(make):
    with pytest.raises(DomainError):
        make()


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


# --- operators held on their support --------------------------------------------

def test_support_operator_sums_repeats_in_order_and_drops_exact_zeros():
    """Repeated positions add up in the order given, as scattering them one
    after another into zeros does; exact zeros, -0.0 too, are dropped, so
    the support is the dense ``!= 0`` pattern."""
    positions = np.array([7, 2, 7, 5, 2, 0])
    values = np.array([1e16, 1.0, 1.0, -0.0, -1.0, 3 - 1j])
    op = SupportOperator(positions, values, 3)
    dense = np.zeros(9, dtype=complex)
    for p, v in zip(positions, values):
        dense[p] += v
    assert op.positions.tolist() == [0, 7]
    assert np.array_equal(op.entries.reshape(-1), dense)
    assert np.array_equal(op.positions, np.flatnonzero(op.entries))
    assert not op.positions.flags.writeable and not op.values.flags.writeable
    query = np.array([[0, 1], [7, 8]])
    assert np.array_equal(op.take(query), op.entries.take(query))
    assert np.array_equal(op.diagonal(), np.diagonal(op.entries))
    with pytest.raises(DomainError, match="support positions"):
        SupportOperator([9], [1.0], 3)


@pytest.mark.parametrize("cls", [SupportOperator, SupportDensity])
@pytest.mark.parametrize("positions, values", [
    ([0, 1], [1.0]),  # more positions than values
    ([0, 3], [0.5]),
    ([0], [0.5, 0.5]),  # more values than positions
    ([0.5], [1.0]),  # not an integer position
    ([0.0, 3.0], [0.5, 0.5]),
])
def test_support_positions_must_be_integers_one_per_value(cls, positions, values):
    with pytest.raises(DomainError, match="one per value"):
        cls(positions, values, 2)


def _support_of(matrix, cls=SupportDensity):
    flat = np.flatnonzero(matrix)
    return cls(flat, matrix.reshape(-1)[flat], len(matrix))


@pytest.mark.parametrize("n", [3, 17])
def test_support_density_stores_the_dense_hermitian_part(n):
    """On the support, as in ``DensityMatrix``: a perturbation of 1e-12 from
    Hermitian is accepted and the exact Hermitian part is stored, bit for bit
    the same."""
    rho = random_state(n, 4).to_density().entries
    A = np.random.default_rng(5).standard_normal((n, n)) * (1 + 1j)
    given = np.where(np.random.default_rng(6).random((n, n)) < 0.5, 0, rho + 1e-12 * (A - A.conj().T))
    given = given + given.conj().T - np.diag(np.diagonal(given).conj())  # mirror-closed support
    given /= np.trace(given)
    got = _support_of(given)
    assert isinstance(got, DensityMatrix)
    want = DensityMatrix(given).entries
    assert np.array_equal(got.entries.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("entry, accepted", [(2e-10, False), (5e-11, True), (1e-3, False)])
def test_support_density_checks_each_entry_against_its_mirror(entry, accepted):
    """An entry whose mirrored position is off the support is compared with
    0: refused beyond 1e-10, and otherwise split over both positions as the
    dense constructor splits it."""
    given = np.eye(5, dtype=complex) / 5
    given[4, 0] = entry
    if not accepted:
        with pytest.raises(DomainError, match="not Hermitian"):
            _support_of(given)
        return
    got = _support_of(given)
    assert got.positions.tolist() == [0, 4, 6, 12, 18, 20, 24]
    assert np.array_equal(got.entries, DensityMatrix(given).entries)
    assert got.entries[4, 0] == got.entries[0, 4] == entry / 2


def test_support_density_checks_its_trace():
    with pytest.raises(DomainError, match="trace"):
        _support_of(np.eye(4, dtype=complex) / 2)
    with pytest.raises(DomainError, match="not Hermitian"):
        _support_of(np.diag([np.nan, 1.0]).astype(complex))


def _support_pairs(d, t, dim_e, seed):
    """Support-support and support-dense pairs on d^t dim_e: PF and Haar
    outputs of one state, a PF output against a dense mixed state and a
    Haar output against a Monte-Carlo twirl (dense, one component), and two
    block-sparse states on their supports, the second joining two blocks
    that the first keeps apart."""
    n = d**t * dim_e
    st = random_state(n, seed)
    haar, pf = haar_twirl_exact(st, d, t), pf_twirl(st, d, t)
    _, sparse, (dense, _) = _density_pairs(d, t, dim_e, seed)
    a, b = (_support_of(x.entries) for x in sparse)
    return [(haar, pf), (pf, dense), (haar, haar_twirl_mc(st, d, t, 50, seed)), (a, b), (b, sparse[0])]


@pytest.mark.parametrize("dim_e", [1, 2])
@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_support_trace_distances_match_the_dense_oracle(d, t, dim_e):
    """``trace_distance`` and ``hermitian_eigvalsh`` on operands held on
    their support, alone or against a dense one, against the eigenvalues of
    the dense difference."""
    for a, b in _support_pairs(d, t, dim_e, 10 * d + t):
        assert isinstance(a, SupportDensity)
        diff = a.entries - b.entries
        oracle = np.abs(np.linalg.eigvalsh(diff)).sum()
        assert abs(trace_distance(a, b) - oracle) <= 1e-12
        assert abs(trace_distance(b, a) - oracle) <= 1e-12
        got = np.sort(hermitian_eigvalsh(a, b if isinstance(b, SupportOperator) else b.entries))
        assert np.abs(got - np.linalg.eigvalsh(diff)).max() <= 1e-12
        assert np.abs(a.eigenvalues() - np.linalg.eigvalsh(a.entries)).max() <= 1e-12


def test_support_operations_allocate_no_dense_operator_at_d16_t3():
    """At (d, t) = (16, 3) an operator has 4096^2 entries and a Haar output
    22,336 nonzero ones.  On inputs held on their support, no exact twirl,
    ``trace_distance`` or ``gentle_normalize`` allocates even a boolean array
    of 4096^2 entries."""
    d, t, dim_e = 16, 3, 1
    st = random_state(d**t * dim_e, 12)
    xi = haar_twirl_exact(st, d, t)
    fr = pf_twirl(xi, d, t)  # builds the cached commutants
    calls = [
        lambda: haar_twirl_exact(fr, d, t),
        lambda: pf_twirl(xi, d, t),
        lambda: clifford_twirl(fr, 4, t, method="exact"),
        lambda: trace_distance(fr, xi),
        lambda: gentle_normalize(xi, d, t),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (d**t * dim_e) ** 2
        assert not isinstance(out, np.ndarray)
