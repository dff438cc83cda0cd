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
symplectic pair and recurses.  The walk keeps each symplectic vector as one
2n-bit int in the index's interleaved order (bit 2i = x_i, bit 2i+1 =
z_i): the inner product is one popcount and a transvection one
conditional XOR.  The only array is the finished tableau, reindexed into
the blocked order as it is built.  Exhaustive enumeration walks the same
indices: each symplectic matrix is converted once with zero sign bits and
right-multiplied by each of the 4^n Paulis X^a Z^b as a column gather,
since sign bits r on the X and Z generators amount to the right factor
X^{r_z} Z^{r_x}, up to global phase.  The group comes back as one
read-only (count, 2^n, 2^n) array.
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
# The walk keeps every symplectic vector as one 2n-bit int in the
# interleaved convention of the index (bit 2i = x_i, bit 2i+1 = z_i); the
# finished rows are reindexed into the blocked tableau once, as it is built.
# ---------------------------------------------------------------------------

def _sym_inner(v: int, w: int, even: int) -> int:
    """Symplectic inner product; ``even`` has the x bit of every pair set."""
    return (((v & (w >> 1)) ^ ((v >> 1) & w)) & even).bit_count() & 1


def _transvect(k: int, v: int, even: int) -> int:
    return v ^ k if _sym_inner(k, v, even) else v


def _find_transvection(x: int, y: int, even: int) -> tuple[int, int]:
    """Vectors h0, h1 with y = Z_h0 Z_h1 x (zero acts as identity)."""
    if x == y:
        return 0, 0
    if _sym_inner(x, y, even):
        return x ^ y, 0
    nx, ny = (x | (x >> 1)) & even, (y | (y >> 1)) & even  # the x bit of each nonzero pair
    if both := nx & ny:  # the first qubit where both are nonzero
        s = (both & -both).bit_length() - 1
        xp, yp = (x >> s) & 3, (y >> s) & 3
        zp = xp ^ yp or (2 if xp == 3 else 3)
        return x ^ (zp << s), y ^ (zp << s)
    z = 0
    for u, only in ((x, nx & ~ny), (y, ny & ~nx)):  # the first qubit where only u is nonzero
        if only:
            s = (only & -only).bit_length() - 1
            up = (u >> s) & 3
            z |= (2 if up == 3 else up ^ 3) << s
    return x ^ z, y ^ z


def _num_cosets(n: int) -> int:
    return (1 << (2 * n - 1)) * ((1 << (2 * n)) - 1)


@cache
def symplectic_group_order(n: int) -> int:
    out = 1
    for j in range(1, n + 1):
        out *= _num_cosets(j)
    return out


def _symplectic_rows(i: int, n: int) -> list[int]:
    """Rows of the i-th 2n x 2n symplectic matrix, each a 2n-bit int."""
    nn = 2 * n
    s = (1 << nn) - 1
    even = s // 3  # 0b0101...01: the x bit of every pair
    f1 = i % s + 1
    i //= s
    h1, h2 = _find_transvection(1, f1, even)
    bits = i % (1 << (nn - 1))
    h0 = _transvect(h2, _transvect(h1, 1 | ((bits >> 1) << 2), even), even)
    if bits & 1:
        f1 = 0
    rows = [1, 2]
    if n > 1:
        rows += [r << 2 for r in _symplectic_rows(i >> (nn - 1), n - 1)]
    for k in (h1, h2, h0, f1):
        rows = [_transvect(k, r, even) for r in rows]
    return rows


def _symplectic_matrix(i: int, n: int) -> np.ndarray:
    """The i-th symplectic matrix as a blocked tableau (x-part, then z-part)."""
    rows = _symplectic_rows(i, n)
    order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return np.array([[(rows[a] >> b) & 1 for b in order] for a in order], dtype=np.uint8)


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
    S = _symplectic_matrix(idx, n)
    phase = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
    return CliffordElement(n, S, phase)


# ---------------------------------------------------------------------------
# Exhaustive enumeration for small n (one dense representative per
# global-phase equivalence class), over the sampler's canonical indices.
# ---------------------------------------------------------------------------

@cache  # only 1 <= n <= EXACT_QUBIT_CAP succeeds, and a raise caches nothing
def enumerate_cliffords(n: int = 1) -> np.ndarray:
    """All n-qubit Cliffords mod global phase, as one read-only
    (count, 2^n, 2^n) array, built once per n and shared by every caller.

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
    blocks = []
    for i in range(symplectic_group_order(n)):
        U = CliffordElement(n, _symplectic_matrix(i, n), no_signs).to_dense().entries
        products = U[:, columns][:, :, None, :] * signs[None, None]  # (row, a, b, c)
        blocks.append(products.transpose(1, 2, 0, 3).reshape(-1, N, N))
    out = np.concatenate(blocks)
    out.setflags(write=False)
    return out
