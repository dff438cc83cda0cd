"""Clifford unitaries as binary symplectic tableaus.

A tableau stores, for each Pauli generator X_1..X_n, Z_1..Z_n, the binary
vector of its image under conjugation (columns of a 2n x 2n symplectic
matrix over F_2, blocked as x-part then z-part) together with one sign bit
per generator.  The tableau is the only description of a Clifford here:
sampling draws one, and dense conversion and enumeration read it.

Every Pauli is a signed permutation of the computational basis: the
column with bits (x, z) and sign bit r is the Hermitian Pauli
P|b> = (-1)^r i^{|x & z|} (-1)^{z.b} |b ^ x>, with qubit 0 the most
significant bit of b, applied to a vector as one index gather times a
phase vector.  Dense conversion projects |0..0> onto the joint +1
eigenspace of the Z images (applying an X image instead where the vector
lies in a -1 eigenspace), makes the first nonzero amplitude of U|0..0>
real positive, and fills the columns with high bit j from those below
through one X image, so every entry is exact up to floating arithmetic.

Uniform sampling follows the canonical-index construction of the
symplectic group (Koenig-Smolin), which fixes the images of the first
symplectic pair and recurses.  Exhaustive enumeration walks the same
indices: each symplectic matrix is converted once with zero sign bits and
right-multiplied by each of the 4^n Paulis X^a Z^b as a column gather,
since sign bits r on the X and Z generators amount to the right factor
X^{r_z} Z^{r_x}, up to global phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import CapacityError, DomainError
from .operators import DenseOperator, as_generator, check_capacity

EXACT_QUBIT_CAP = 2  # enumeration, hence exact Clifford averaging, needs n <= 2

_I_POWERS = np.array([1, 1j, -1, -1j])


@cache
def _basis_bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis labels 0..2^n-1 and the parity of each label's bits."""
    labels = np.arange(1 << n)
    parity = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        parity ^= (labels >> q) & 1
    labels.setflags(write=False)
    parity.setflags(write=False)
    return labels, parity


def _pauli_action(x: int, z: int, r: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, phase) with P v = phase * v[source] for the Hermitian Pauli
    with bit masks x, z (qubit 0 most significant) and sign bit r."""
    labels, parity = _basis_bits(n)
    source = labels ^ x
    return source, _I_POWERS[(2 * (r + parity[z & source]) + (x & z).bit_count()) % 4]


def symplectic_form(n: int) -> np.ndarray:
    omega = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    omega[:n, n:] = np.eye(n, dtype=np.uint8)
    omega[n:, :n] = np.eye(n, dtype=np.uint8)
    return omega


@dataclass(frozen=True)
class CliffordElement:
    """An n-qubit Clifford, up to global phase.

    ``symplectic`` column j (j < n: generator X_{j+1}, else Z_{j+1-n}) holds
    the binary vector of the conjugated generator; ``phase`` holds its sign
    bit.  The matrix must preserve the symplectic form.
    """

    n: int
    symplectic: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.symplectic, dtype=np.uint8) % 2
        r = np.asarray(self.phase, dtype=np.uint8) % 2
        if S.shape != (2 * self.n, 2 * self.n) or r.shape != (2 * self.n,):
            raise DomainError(f"tableau shapes {S.shape}, {r.shape} invalid for n={self.n}")
        omega = symplectic_form(self.n)
        if not np.array_equal((S.T @ omega @ S) % 2, omega):
            raise DomainError("tableau does not preserve the symplectic form")
        S.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "symplectic", S)
        object.__setattr__(self, "phase", r)

    @staticmethod
    def identity(n: int) -> "CliffordElement":
        return CliffordElement(n, np.eye(2 * n, dtype=np.uint8), np.zeros(2 * n, dtype=np.uint8))

    def to_dense(self) -> DenseOperator:
        """Exact dense unitary realizing the tableau (global phase fixed
        by making the first nonzero amplitude of U|0..0> real positive)."""
        n = self.n
        N = 1 << n
        check_capacity(N)
        weights = 1 << np.arange(n - 1, -1, -1)  # qubit 0 is the most significant bit
        xs, zs = (weights @ self.symplectic[:n]).tolist(), (weights @ self.symplectic[n:]).tolist()
        images = [_pauli_action(x, z, r, n) for x, z, r in zip(xs, zs, self.phase.tolist())]

        u0 = np.zeros(N, dtype=complex)
        u0[0] = 1.0
        for j in range(n):  # project onto the +1 eigenspace of each Z image
            source, phase = images[n + j]
            half = (u0 + phase * u0[source]) / 2.0
            if not half.any():  # -1 eigenvector: the X image anticommutes
                source, phase = images[j]
                half = phase * u0[source]
            u0 = half
        u0 = u0 / np.linalg.norm(u0)
        lead = u0[np.abs(u0) > 1e-8][0]
        u0 = u0 * (abs(lead) / lead)

        U = np.empty((N, N), dtype=complex)
        U[:, 0] = u0
        for j in range(n):  # labels are big-endian: bit j belongs to qubit n-1-j
            source, phase = images[n - 1 - j]
            U[:, 1 << j : 2 << j] = phase[:, None] * U[source, : 1 << j]
        return DenseOperator(U, (2,) * n)


# ---------------------------------------------------------------------------
# Uniform sampling via the canonical symplectic-group construction.
# The internal routines use the interleaved bit convention (x1 z1 x2 z2 ...);
# the result is reindexed into the blocked tableau convention at the end.
# ---------------------------------------------------------------------------

def _sym_inner(v: np.ndarray, w: np.ndarray) -> int:
    t = 0
    for i in range(len(v) >> 1):
        t += int(v[2 * i]) * int(w[2 * i + 1]) + int(w[2 * i]) * int(v[2 * i + 1])
    return t % 2


def _transvect(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v + _sym_inner(k, v) * k) % 2


def _int_to_bits(i: int, n: int) -> np.ndarray:
    return np.array([(i >> j) & 1 for j in range(n)], dtype=np.uint8)


def _find_transvection(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectors h0, h1 with y = Z_h0 Z_h1 x (zero rows act as identity)."""
    out = np.zeros((2, len(x)), dtype=np.uint8)
    if np.array_equal(x, y):
        return out
    if _sym_inner(x, y) == 1:
        out[0] = (x + y) % 2
        return out
    z = np.zeros(len(x), dtype=np.uint8)
    for i in range(len(x) >> 1):
        ii = 2 * i
        if (x[ii] or x[ii + 1]) and (y[ii] or y[ii + 1]):
            z[ii] = (x[ii] + y[ii]) % 2
            z[ii + 1] = (x[ii + 1] + y[ii + 1]) % 2
            if z[ii] + z[ii + 1] == 0:
                z[ii + 1] = 1
                if x[ii] != x[ii + 1]:
                    z[ii] = 1
            out[0] = (x + z) % 2
            out[1] = (y + z) % 2
            return out
    for i in range(len(x) >> 1):
        ii = 2 * i
        if (x[ii] or x[ii + 1]) and not (y[ii] or y[ii + 1]):
            if x[ii] == x[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = x[ii]
                z[ii] = x[ii + 1]
            break
    for i in range(len(x) >> 1):
        ii = 2 * i
        if not (x[ii] or x[ii + 1]) and (y[ii] or y[ii + 1]):
            if y[ii] == y[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = y[ii]
                z[ii] = y[ii + 1]
            break
    out[0] = (x + z) % 2
    out[1] = (y + z) % 2
    return out


def _num_cosets(n: int) -> int:
    return (1 << (2 * n - 1)) * ((1 << (2 * n)) - 1)


@cache
def symplectic_group_order(n: int) -> int:
    out = 1
    for j in range(1, n + 1):
        out *= _num_cosets(j)
    return out


def _symplectic_matrix(i: int, n: int) -> np.ndarray:
    """The i-th 2n x 2n symplectic matrix (interleaved convention)."""
    nn = 2 * n
    s = (1 << nn) - 1
    k = (i % s) + 1
    i //= s

    f1 = _int_to_bits(k, nn)
    e1 = np.zeros(nn, dtype=np.uint8)
    e1[0] = 1
    T = _find_transvection(e1, f1)

    bits = _int_to_bits(i % (1 << (nn - 1)), nn - 1)
    eprime = e1.copy()
    for j in range(2, nn):
        eprime[j] = bits[j - 1]
    h0 = _transvect(T[0], eprime)
    h0 = _transvect(T[1], h0)
    if bits[0] == 1:
        f1 = f1 * 0

    if n == 1:
        g = np.eye(2, dtype=np.uint8)
    else:
        g = np.zeros((nn, nn), dtype=np.uint8)
        g[:2, :2] = np.eye(2, dtype=np.uint8)
        g[2:, 2:] = _symplectic_matrix(i >> (nn - 1), n - 1)
    for j in range(nn):
        g[j] = _transvect(T[0], g[j])
        g[j] = _transvect(T[1], g[j])
        g[j] = _transvect(h0, g[j])
        g[j] = _transvect(f1, g[j])
    return g


def _interleaved_to_blocked(S: np.ndarray) -> np.ndarray:
    n = S.shape[0] // 2
    order = np.concatenate([np.arange(n) * 2, np.arange(n) * 2 + 1])
    return S[np.ix_(order, order)]


def sample_clifford(n: int, seed) -> CliffordElement:
    """A uniformly random n-qubit Clifford (mod global phase), per seed.

    Samples a uniform canonical index into the symplectic group plus 2n
    uniform sign bits; together these parametrize the Clifford group mod
    phase exactly once each.
    """
    rng = as_generator(seed)
    order = symplectic_group_order(n)
    nbytes = (order.bit_length() + 7) // 8 + 8
    while True:  # rejection sampling on a wide uniform integer
        idx = int.from_bytes(rng.bytes(nbytes), "big")
        limit = (1 << (8 * nbytes)) // order * order
        if idx < limit:
            idx %= order
            break
    S = _interleaved_to_blocked(_symplectic_matrix(idx, n))
    phase = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
    return CliffordElement(n, S, phase)


# ---------------------------------------------------------------------------
# Exhaustive enumeration for small n (one dense representative per
# global-phase equivalence class), over the sampler's canonical indices.
# ---------------------------------------------------------------------------

def enumerate_cliffords(n: int = 1) -> list[DenseOperator]:
    """All n-qubit Cliffords mod global phase, as dense operators.

    Each canonical symplectic index is converted once with zero sign bits
    and right-multiplied by every Pauli X^a Z^b, (U X^a Z^b)|c> =
    (-1)^{b.c} U|c ^ a>: 24 elements at n=1, 11520 at n=2.  Larger n
    raises ``CapacityError`` (n=3 has 92,897,280 elements).
    """
    if not 1 <= n <= EXACT_QUBIT_CAP:
        raise CapacityError(f"Clifford enumeration needs 1 <= n <= {EXACT_QUBIT_CAP}, got {n}")
    N = 1 << n
    labels, parity = _basis_bits(n)
    columns = labels[:, None] ^ labels[None, :]  # (a, c) -> c ^ a
    signs = 1 - 2 * parity[labels[:, None] & labels[None, :]]  # (b, c) -> (-1)^{b.c}
    no_signs = np.zeros(2 * n, dtype=np.uint8)
    out = []
    for i in range(symplectic_group_order(n)):
        S = _interleaved_to_blocked(_symplectic_matrix(i, n))
        U = CliffordElement(n, S, no_signs).to_dense().entries
        products = U[:, columns][:, :, None, :] * signs[None, None]  # (row, a, b, c)
        products = products.transpose(1, 2, 0, 3).reshape(-1, N, N)
        out.extend(DenseOperator(M, (2,) * n) for M in products)
    return out
