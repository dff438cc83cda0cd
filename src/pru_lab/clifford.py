"""Clifford unitaries as binary symplectic tableaus.

A tableau stores, for each Pauli generator X_1..X_n, Z_1..Z_n, the binary
vector of its image under conjugation (columns of a 2n x 2n symplectic
matrix over F_2, blocked as x-part then z-part) together with one sign bit
per generator.  Uniform sampling follows the canonical-index construction
of the symplectic group (Koenig-Smolin), which fixes the images of the
first symplectic pair and recurses; dense conversion builds the first
column as a stabilizer state and obtains the rest by applying image
Paulis, so every matrix entry is exact up to floating arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import CapacityError, DomainError
from .operators import DenseOperator, as_generator

DENSE_QUBIT_CAP = 5  # 2^5 = 32-dimensional dense conversions at most

_PAULI_1Q = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def hermitian_pauli(x_bits, z_bits) -> np.ndarray:
    """The Hermitian Pauli with the given X/Z bit vectors (Y = iXZ per qubit)."""
    out = np.array([[1.0 + 0j]])
    for xb, zb in zip(x_bits, z_bits):
        out = np.kron(out, _PAULI_1Q[(int(xb), int(zb))])
    return out


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

    def generator_image(self, j: int) -> np.ndarray:
        """Dense image of the j-th generator (signed Hermitian Pauli)."""
        col = self.symplectic[:, j]
        sign = -1.0 if self.phase[j] else 1.0
        return sign * hermitian_pauli(col[: self.n], col[self.n :])

    def to_dense(self) -> DenseOperator:
        """Exact dense unitary realizing the tableau (global phase fixed
        by making the first nonzero amplitude of U|0..0> real positive)."""
        n = self.n
        if n > DENSE_QUBIT_CAP:
            raise CapacityError(f"dense Clifford conversion capped at n <= {DENSE_QUBIT_CAP}")
        N = 2**n
        z_imgs = [self.generator_image(n + j) for j in range(n)]
        x_imgs = [self.generator_image(j) for j in range(n)]

        proj = np.eye(N, dtype=complex)
        for zi in z_imgs:
            proj = proj @ (np.eye(N) + zi) / 2.0
        col_norms = np.linalg.norm(proj, axis=0)
        u0 = proj[:, int(np.argmax(col_norms))]
        u0 = u0 / np.linalg.norm(u0)
        lead = u0[np.abs(u0) > 1e-8][0]
        u0 = u0 * (abs(lead) / lead)

        U = np.zeros((N, N), dtype=complex)
        U[:, 0] = u0
        for x in range(1, N):
            j = (x & -x).bit_length() - 1  # lowest set bit of the basis label
            qubit = n - 1 - j  # labels are big-endian in qubit order
            U[:, x] = x_imgs[qubit] @ U[:, x ^ (1 << j)]
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
# global-phase equivalence class).
# ---------------------------------------------------------------------------

def _canonicalize(M: np.ndarray) -> np.ndarray:
    flat = M.reshape(-1)
    lead = flat[np.abs(flat) > 1e-9][0]
    return M * (abs(lead) / lead)


def _canonical_key(M: np.ndarray) -> bytes:
    return (np.round(_canonicalize(M), 9) + (0.0 + 0.0j)).tobytes()  # normalize -0.0


def _closure(generators: list[np.ndarray]) -> list[np.ndarray]:
    dim = generators[0].shape[0]
    found: dict[bytes, np.ndarray] = {}
    eye = np.eye(dim, dtype=complex)
    found[_canonical_key(eye)] = eye
    frontier = [eye]
    while frontier:
        nxt = []
        for M in frontier:
            for G in generators:
                P = _canonicalize(G @ M)
                key = _canonical_key(P)
                if key not in found:
                    found[key] = P
                    nxt.append(P)
        frontier = nxt
    return [found[k] for k in sorted(found)]


def enumerate_cliffords(n: int = 1, allow_two_qubit: bool = False) -> list[DenseOperator]:
    """All n-qubit Cliffords mod global phase, as dense operators.

    n=1 gives the 24 classes; n=2 (11520 classes) must be requested
    explicitly since the closure takes a few seconds.
    """
    if n == 1:
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        S = np.diag([1, 1j]).astype(complex)
        gens = [H, S]
    elif n == 2:
        if not allow_two_qubit:
            raise CapacityError("n=2 enumeration (11520 elements) must be enabled explicitly")
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        S = np.diag([1, 1j]).astype(complex)
        I2 = np.eye(2, dtype=complex)
        CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        gens = [np.kron(H, I2), np.kron(I2, H), np.kron(S, I2), np.kron(I2, S), CNOT]
    else:
        raise CapacityError(f"exhaustive Clifford enumeration supported for n <= 2, got {n}")
    return [DenseOperator(M, (2,) * n) for M in _closure(gens)]
