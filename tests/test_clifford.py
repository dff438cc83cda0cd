"""Clifford tableaus: sampling uniformity, dense conversion, enumeration."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from pru_lab import CapacityError, CliffordElement, DomainError, enumerate_cliffords, sample_clifford
from pru_lab.clifford import (
    _symplectic_stack,
    sample_clifford_unitaries,
    sample_tableaus,
    symplectic_form,
    symplectic_group_order,
    tableau_unitaries,
)
from pru_lab.operators import perm_op
from pru_lab.pru import PrfScheme, PrpScheme, _keyed_unitaries, clifford_seed, sample_key

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS_1Q = [X, Y, Z]
PAULI_BY_BITS = {(0, 0): np.eye(2), (1, 0): X, (0, 1): Z, (1, 1): Y}  # (x bit, z bit)


def pauli(x_bits, z_bits):
    """The Hermitian Pauli with the given X/Z bits, qubit 0 leftmost."""
    out = np.array([[1.0 + 0j]])
    for xb, zb in zip(x_bits, z_bits):
        out = np.kron(out, PAULI_BY_BITS[(int(xb), int(zb))])
    return out


def all_paulis(n):
    bits = np.array(list(np.ndindex((2,) * 2 * n)))
    return np.stack([pauli(b[:n], b[n:]) for b in bits])


def canonical_key(M):
    """Bytes of M with the global phase fixed by its first clearly nonzero
    entry, rounded well above floating noise."""
    flat = M.reshape(-1)
    lead = flat[np.abs(flat) > 1e-6][0]
    return (np.round(flat * (abs(lead) / lead), 6) + 0.0).tobytes()  # + 0.0 drops -0.0


def pauli_on(n, qubit, P):
    out = np.array([[1.0 + 0j]])
    for q in range(n):
        out = np.kron(out, P if q == qubit else np.eye(2))
    return out


def is_signed_pauli(M, n):
    for qubits in range(4**n):
        ops = np.array([[1.0 + 0j]])
        rem = qubits
        for _ in range(n):
            ops = np.kron(ops, [np.eye(2), X, Y, Z][rem % 4])
            rem //= 4
        for sign in (1, -1):
            if np.allclose(M, sign * ops, atol=1e-9):
                return True
    return False


def test_identity_tableau_is_identity():
    for n in (1, 2, 3):
        U = CliffordElement.identity(n).to_dense()
        assert np.allclose(U, np.eye(2**n))


def test_tableau_validation():
    bad = np.eye(4, dtype=np.uint8)
    bad[0, 1] = 1  # breaks the symplectic form
    with pytest.raises(DomainError):
        CliffordElement(2, bad, np.zeros(4, dtype=np.uint8))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampled_clifford_dense_is_unitary_and_conjugates_paulis(n):
    omega = symplectic_form(n)
    for seed in range(12):
        c = sample_clifford(n, seed)
        S = c.symplectic
        assert np.array_equal((S.T @ omega @ S) % 2, omega)
        U = c.to_dense()
        assert np.abs(U.conj().T @ U - np.eye(2**n)).max() <= 1e-10
        # conjugation of every generator matches the signed tableau column
        for j in range(2 * n):
            gen = pauli_on(n, j % n, X if j < n else Z)
            img = U @ gen @ U.conj().T
            expected = (-1) ** int(c.phase[j]) * pauli(S[:n, j], S[n:, j])
            assert np.abs(img - expected).max() < 1e-9
        # the global phase: the first nonzero amplitude of U|0..0> is real positive
        u0 = U[:, 0]
        lead = u0[np.abs(u0) > 1e-9][0]
        assert lead.imag == 0 and lead.real > 0


def test_symplectic_invariant_many_samples():
    omega = symplectic_form(2)
    for seed in range(1000):
        S = sample_clifford(2, seed).symplectic
        assert np.array_equal((S.T @ omega @ S) % 2, omega)


def test_seed_determinism():
    a = sample_clifford(3, 42)
    b = sample_clifford(3, 42)
    assert np.array_equal(a.symplectic, b.symplectic)
    assert np.array_equal(a.phase, b.phase)


def test_group_orders():
    assert symplectic_group_order(1) == 6
    assert symplectic_group_order(2) == 720


@pytest.mark.parametrize(
    "n,indices,digest",
    [
        (2, range(720), "2214627e2e7b025dea2fa8c653d9d2bafa55d695933df0ec1971671654a5ef40"),
        (3, range(0, 1451520, 1451), "ccfb80122150c87fc50415b97d87f7007f80e586dba5959d7bcab5f9b0d9cea3"),
    ],
)
def test_canonical_index_map_is_pinned(n, indices, digest):
    """The index -> tableau map fixes every sampled stream and golden report.

    A different but equally valid map (say, two swapped arms of a pair rule
    in the transvection search) passes every group-level test, so the map
    itself is pinned: SHA-256 of the stacked uint8 tableaus.
    """
    stacked = _symplectic_stack(indices, n)
    assert stacked.dtype == np.uint8 and stacked.shape == (len(indices), 2 * n, 2 * n)
    assert hashlib.sha256(stacked.tobytes()).hexdigest() == digest


def test_enumerate_single_qubit():
    ops = enumerate_cliffords(1)
    assert len(ops) == 24
    for op in ops:
        for P in PAULIS_1Q:
            img = op @ P @ op.conj().T
            assert is_signed_pauli(img, 1)


def test_enumeration_uniformity_chi2():
    ops = enumerate_cliffords(1)
    keys = {canonical_key(op): i for i, op in enumerate(ops)}
    counts = np.zeros(24)
    N = 10000
    for U in sample_clifford_unitaries(1, range(N)):
        counts[keys[canonical_key(U)]] += 1
    expected = N / 24
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.99, df=23)


@pytest.mark.parametrize("n, order", [(1, 24), (2, 11520)])
def test_enumeration_is_the_clifford_group(n, order):
    """Unitaries that conjugate every X_j and Z_j to a signed Pauli, pairwise
    distinct up to global phase, and as many as the textbook group order
    (Clifford group mod phase: 24 for one qubit, 11520 for two) are exactly
    the Clifford group mod phase."""
    ops = enumerate_cliffords(n)
    assert isinstance(ops, np.ndarray) and not ops.flags.writeable
    assert ops.shape == {1: (24, 2, 2), 2: (11520, 4, 4)}[n]
    assert len(ops) == order
    dag = ops.conj().transpose(0, 2, 1)
    assert np.abs(dag @ ops - np.eye(2**n)).max() < 1e-10
    paulis = all_paulis(n)
    rows = np.arange(len(ops))
    for q in range(n):
        for P in (X, Z):
            imgs = ops @ pauli_on(n, q, P) @ dag
            coeffs = np.einsum("pab,kba->kp", paulis, imgs) / 2**n  # Tr(P img) / 2^n
            best = np.abs(coeffs).argmax(axis=1)
            signs = np.round(coeffs[rows, best].real)
            assert np.all(np.abs(signs) == 1)
            assert np.abs(imgs - signs[:, None, None] * paulis[best]).max() < 1e-9
    assert len({canonical_key(M) for M in ops}) == order


def test_enumerate_three_qubits_is_over_capacity():
    with pytest.raises(CapacityError):
        enumerate_cliffords(3)


def test_enumeration_is_built_once_per_n():
    a, b = enumerate_cliffords(2), enumerate_cliffords(2)
    assert a is b
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0, 0] = 0


def test_average_xx_matches_haar_two_twirl():
    # exact Haar 2-twirl of X(x)X: project onto span{I, SWAP}
    ops = enumerate_cliffords(1)
    XX = np.kron(X, X)
    avg = np.zeros((4, 4), dtype=complex)
    for op in ops:
        U2 = np.kron(op, op)
        avg += U2 @ XX @ U2.conj().T
    avg /= len(ops)
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1
    target = -np.eye(4) / 3 + 2 * swap / 3  # Gram solve of (0, Tr[XX swap]=2)
    assert np.abs(avg - target).max() < 1e-9
    # and against the commutant-projection channel directly
    from pru_lab import haar_twirl_exact

    twirled = haar_twirl_exact(XX, 2, 2)
    assert np.abs(avg - twirled.entries).max() < 1e-9


def test_dense_cap(monkeypatch):
    monkeypatch.setenv("PRU_LAB_DIM_CAP", "4")
    assert sample_clifford(2, 0).to_dense().shape == (4, 4)
    with pytest.raises(CapacityError):
        sample_clifford(3, 0).to_dense()


# --- the batched walk and conversion against scalar oracles -------------------
# The oracles below are the scalar implementations the batched path replaced:
# the Koenig-Smolin walk on Python ints, one index at a time, and the dense
# conversion of one tableau.  They fix the stream the batched path must keep.

def _oracle_inner(v, w, even):
    return (((v & (w >> 1)) ^ ((v >> 1) & w)) & even).bit_count() & 1


def _oracle_transvect(k, v, even):
    return v ^ k if _oracle_inner(k, v, even) else v


def _oracle_find_transvection(x, y, even):
    if x == y:
        return 0, 0
    if _oracle_inner(x, y, even):
        return x ^ y, 0
    nx, ny = (x | (x >> 1)) & even, (y | (y >> 1)) & even
    if both := nx & ny:
        s = (both & -both).bit_length() - 1
        xp, yp = (x >> s) & 3, (y >> s) & 3
        zp = xp ^ yp or (2 if xp == 3 else 3)
        return x ^ (zp << s), y ^ (zp << s)
    z = 0
    for u, only in ((x, nx & ~ny), (y, ny & ~nx)):
        if only:
            s = (only & -only).bit_length() - 1
            up = (u >> s) & 3
            z |= (2 if up == 3 else up ^ 3) << s
    return x ^ z, y ^ z


def _oracle_rows(i, n):
    nn = 2 * n
    s = (1 << nn) - 1
    even = s // 3
    f1 = i % s + 1
    i //= s
    h1, h2 = _oracle_find_transvection(1, f1, even)
    bits = i % (1 << (nn - 1))
    h0 = _oracle_transvect(h2, _oracle_transvect(h1, 1 | ((bits >> 1) << 2), even), even)
    if bits & 1:
        f1 = 0
    rows = [1, 2]
    if n > 1:
        rows += [r << 2 for r in _oracle_rows(i >> (nn - 1), n - 1)]
    for k in (h1, h2, h0, f1):
        rows = [_oracle_transvect(k, r, even) for r in rows]
    return rows


def _oracle_symplectic(i, n):
    rows = _oracle_rows(i, n)
    order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return np.array([[(rows[a] >> b) & 1 for b in order] for a in order], dtype=np.uint8)


def _oracle_sample(n, seed):
    rng = np.random.default_rng(seed)
    order = symplectic_group_order(n)
    nbytes = (order.bit_length() + 7) // 8 + 8
    while True:
        idx = int.from_bytes(rng.bytes(nbytes), "big")
        if idx < (1 << (8 * nbytes)) // order * order:
            break
    return _oracle_symplectic(idx % order, n), rng.integers(0, 2, size=2 * n, dtype=np.uint8)


def _oracle_dense(S, r):
    n = len(r) // 2
    N = 1 << n
    labels = np.arange(N)
    parity = np.array([bin(b).count("1") & 1 for b in range(N)])
    weights = 1 << np.arange(n - 1, -1, -1)
    images = []
    for x, z, sign in zip((weights @ S[:n]).tolist(), (weights @ S[n:]).tolist(), r.tolist()):
        source = labels ^ x
        power = 2 * (sign + parity[z & source]) + (x & z).bit_count()
        images.append((source, np.array([1, 1j, -1, -1j])[power % 4]))
    u0 = np.zeros(N, dtype=complex)
    u0[0] = 1.0
    for j in range(n):
        source, phase = images[n + j]
        half = (u0 + phase * u0[source]) / 2.0
        if not half.any():
            source, phase = images[j]
            half = phase * u0[source]
        u0 = half
    u0 = u0 / np.linalg.norm(u0)
    lead = u0[np.abs(u0) > 1e-8][0]
    u0 = u0 * (abs(lead) / lead)
    U = np.empty((N, N), dtype=complex)
    U[:, 0] = u0
    for j in range(n):
        source, phase = images[n - 1 - j]
        U[:, 1 << j : 2 << j] = phase[:, None] * U[source, : 1 << j]
    return U


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_sampling_equals_the_scalar_oracle(n):
    """512 seeds in one batch: tableaus, sign bits and dense unitaries are
    bitwise the scalar walk's and the scalar conversion's."""
    seeds = [[29, 0, j] for j in range(512)]
    symplectic, phase = sample_tableaus(n, seeds)
    stack = sample_clifford_unitaries(n, seeds)
    assert symplectic.dtype == np.uint8 and stack.shape == (512, 2**n, 2**n)
    for k, seed in enumerate(seeds):
        S, r = _oracle_sample(n, seed)
        assert np.array_equal(symplectic[k], S) and np.array_equal(phase[k], r), k
        assert np.array_equal(stack[k], _oracle_dense(S, r)), k


@pytest.mark.parametrize("n", [1, 2])
def test_enumeration_equals_the_scalar_oracle(n):
    """Every canonical index, converted with zero signs, times every Pauli."""
    ops = enumerate_cliffords(n)
    N = 2**n
    zero = np.zeros(2 * n, dtype=np.uint8)
    labels = np.arange(N)
    parity = np.array([bin(b).count("1") & 1 for b in range(N)])
    for i in range(0, symplectic_group_order(n), 7):
        U = _oracle_dense(_oracle_symplectic(i, n), zero)
        for a in range(N):
            for b in range(N):
                want = U[:, labels ^ a] * (1 - 2 * parity[labels & b])
                assert np.array_equal(ops[(i * N + a) * N + b], want), (i, a, b)


def test_batched_keyed_unitaries_equal_the_operator_product():
    """P F C for 64 keys in one batch, against perm_op @ diag((-1)^bits) @ C
    with C from the scalar oracle."""
    n = 3
    keys = [sample_key(n, s) for s in range(64)]
    stack = _keyed_unitaries(n, keys)
    for key, U in zip(keys, stack):
        C = _oracle_dense(*_oracle_sample(n, clifford_seed(key.k3)))
        P = perm_op(PrpScheme(n).table(key.k1))
        F = np.diag(1 - 2 * np.array(PrfScheme(n).table(key.k2)))
        assert np.array_equal(U, P @ F @ C)


def test_one_corrupted_tableau_fails_its_batch():
    symplectic, phase = sample_tableaus(2, range(8))
    assert tableau_unitaries(2, symplectic, phase).shape == (8, 4, 4)
    symplectic[5, :, 0] = 0  # a zero column cannot preserve the form
    with pytest.raises(DomainError, match="tableau 5 of 8"):
        tableau_unitaries(2, symplectic, phase)
