"""Clifford unitaries as binary symplectic tableaus, sampled and converted
in batches.

A tableau stores, for each Pauli generator X_1..X_n, Z_1..Z_n, the binary
vector of its image under conjugation (columns of a 2n x 2n symplectic
matrix over F_2, blocked as x-part then z-part) together with one sign bit
per generator.  The tableau is the only description of a Clifford here.
Every operation runs on a stack of tableaus; a single ``CliffordElement``
is a batch of one.

Uniform sampling follows the canonical-index construction of the
symplectic group (Koenig-Smolin), which fixes the images of the first
symplectic pair and recurses.  Each seed gets its own generator, which
draws a uniform canonical index (rejection sampling on ``rng.bytes``) and
then 2n sign bits; these per-seed draws are the stream.  Everything after
them runs on the whole batch.  The indices are split into per-level
digits, and the walk keeps each symplectic vector as one ``uint64`` mask
in the index's interleaved order (bit 2i = x_i, bit 2i+1 = z_i), so
2n <= 64.  The inner product is the parity of a masked AND, taken by
xor-folding, and a transvection is a masked XOR.  Each level starts from
e_1 = X on qubit 0, so the transvections carrying e_1 to the level's
first image follow one three-case rule (``_transvections_from_e1``).
The finished rows are reindexed into the blocked order.  One check that
S^T Omega S = Omega runs on the whole stack.

Every Pauli is a signed permutation of the computational basis: the
column with bits (x, z) and sign bit r is the Hermitian Pauli
P|b> = (-1)^r i^{|x & z|} (-1)^{z.b} |b ^ x>, with qubit 0 the most
significant bit of b, applied to a vector as one index gather times a
phase vector.  Dense conversion projects |0..0> onto the joint +1
eigenspace of the Z images (applying an X image instead where the vector
lies in a -1 eigenspace), makes the first nonzero amplitude of U|0..0>
real positive, and fills the columns with high bit j from those below
through one X image.  Each step is one gather over the stack, and every
entry is exact up to floating arithmetic.

Exhaustive enumeration walks all canonical indices as one batch,
converts them with zero sign bits and right-multiplies each by the 4^n
Paulis X^a Z^b as a column gather, since sign bits r on the X and Z
generators amount to the right factor X^{r_z} Z^{r_x}, up to global
phase.  The group comes back as one read-only (count, 2^n, 2^n) array.
Enumeration is an oracle only: the exact Clifford twirl is a commutant
projection in ``twirls``, and the group average checks it in ``checks``
and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import CapacityError, DomainError
from .operators import _freeze, as_generator, check_capacity

# Bounds enumeration, and is the policy for exact Clifford twirls under `--clifford
# auto` of `security` and `sweep` (``twirls.default_clifford_method``); the exact
# twirl itself runs at any n, and `verify`'s overlap check always takes it.
EXACT_QUBIT_CAP = 2


_I_POWERS = np.array([1, 1j, -1, -1j])
_ZERO, _ONE, _TWO, _THREE = (np.uint64(v) for v in range(4))


@cache
def _basis_bits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis labels 0..2^n-1 and the parity and popcount of each label's bits."""
    labels = np.arange(1 << n)
    popcount = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        popcount += (labels >> q) & 1
    parity = popcount & 1
    for arr in (labels, parity, popcount):
        arr.setflags(write=False)
    return labels, parity, popcount


def symplectic_form(n: int) -> np.ndarray:
    omega = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    omega[:n, n:] = np.eye(n, dtype=np.uint8)
    omega[n:, :n] = np.eye(n, dtype=np.uint8)
    return omega


def _check_tableaus(n: int, symplectic: np.ndarray, phase: np.ndarray) -> None:
    """Raise ``DomainError`` unless every tableau of the stack has the right
    shape and preserves the symplectic form."""
    if symplectic.shape[1:] != (2 * n, 2 * n) or phase.shape != symplectic.shape[:2]:
        raise DomainError(
            f"tableau shapes {symplectic.shape[1:]}, {phase.shape[1:]} invalid for n={n}"
        )
    omega = symplectic_form(n)
    kept = np.all((symplectic.transpose(0, 2, 1) @ omega @ symplectic) % 2 == omega, axis=(1, 2))
    if not kept.all():
        raise DomainError(
            f"tableau {int(np.argmin(kept))} of {len(kept)} does not preserve the symplectic form"
        )


def tableau_unitaries(n: int, symplectic, phase) -> np.ndarray:
    """Exact dense unitaries of a stack of tableaus, (count, 2^n, 2^n).

    ``symplectic`` is (count, 2n, 2n) and ``phase`` (count, 2n), both 0/1.
    The whole stack is checked first: a tableau that does not preserve the
    symplectic form raises ``DomainError``.  The global phase of each
    unitary is fixed by making the first nonzero amplitude of U|0..0> real
    positive.
    """
    symplectic, phase = np.asarray(symplectic, dtype=np.uint8), np.asarray(phase, dtype=np.uint8)
    check_capacity(1 << n)
    _check_tableaus(n, symplectic, phase)
    count, N = len(symplectic), 1 << n
    labels, parity, popcount = _basis_bits(n)
    weights = 1 << np.arange(n - 1, -1, -1)  # qubit 0 is the most significant bit
    xs, zs = weights @ symplectic[:, :n], weights @ symplectic[:, n:]  # (count, 2n) image masks
    sources = labels ^ xs[:, :, None]  # image j of sample k: P v = phases[k, j] * v[sources[k, j]]
    powers = 2 * (phase[:, :, None] + parity[zs[:, :, None] & sources]) + popcount[xs & zs][:, :, None]
    phases = _I_POWERS[powers % 4]
    k = np.arange(count)[:, None]

    u0 = np.zeros((count, N), dtype=complex)
    u0[:, 0] = 1.0
    for j in range(n):  # project onto the +1 eigenspace of each Z image
        half = (u0 + phases[:, n + j] * u0[k, sources[:, n + j]]) / 2.0
        flipped = phases[:, j] * u0[k, sources[:, j]]  # -1 eigenvector: the X image anticommutes
        u0 = np.where(half.any(axis=1, keepdims=True), half, flipped)
    u0 = u0 / np.linalg.norm(u0, axis=1, keepdims=True)  # the amplitudes are dyadic: exact
    lead = u0[k[:, 0], np.argmax(np.abs(u0) > 1e-8, axis=1)]
    u0 = u0 * (np.abs(lead) / lead)[:, None]

    U = np.empty((count, N, N), dtype=complex)
    U[:, :, 0] = u0
    for j in range(n):  # labels are big-endian: bit j belongs to qubit n-1-j
        image = n - 1 - j
        U[:, :, 1 << j : 2 << j] = phases[:, image, :, None] * U[k, sources[:, image], : 1 << j]
    return U


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
        _check_tableaus(self.n, S[None], r[None])
        S.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "symplectic", S)
        object.__setattr__(self, "phase", r)

    @staticmethod
    def identity(n: int) -> "CliffordElement":
        return CliffordElement(n, np.eye(2 * n, dtype=np.uint8), np.zeros(2 * n, dtype=np.uint8))

    def to_dense(self) -> np.ndarray:
        """Exact dense unitary realizing the tableau (global phase fixed
        by making the first nonzero amplitude of U|0..0> real positive)."""
        return _freeze(tableau_unitaries(self.n, self.symplectic[None], self.phase[None])[0])


# ---------------------------------------------------------------------------
# Uniform sampling via the canonical symplectic-group construction, walked
# on a whole batch of indices.  Symplectic vectors are uint64 masks in the
# interleaved convention of the index (bit 2i = x_i, bit 2i+1 = z_i).
# ---------------------------------------------------------------------------

def _sym_inner(v: np.ndarray, w: np.ndarray, even: int) -> np.ndarray:
    """Symplectic inner products as booleans; ``even`` has the x bit of every pair set.

    The masked product has bits only at x positions, so xor-folding it by
    2, 4, ... up to the top pair collects its parity in bit 0.
    """
    p = ((v & (w >> _ONE)) ^ ((v >> _ONE) & w)) & np.uint64(even)
    for shift in (32, 16, 8, 4, 2):
        if shift < even.bit_length():
            p = p ^ (p >> np.uint64(shift))
    return (p & _ONE) != 0


def _transvect(k: np.ndarray, v: np.ndarray, even: int) -> np.ndarray:
    return np.where(_sym_inner(k, v, even), v ^ k, v)


def _transvections_from_e1(y: np.ndarray, even: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectors h0, h1 with y = Z_h0 Z_h1 e_1, elementwise, where e_1 = X on
    qubit 0 (mask 1) and a zero vector acts as the identity.

    y = e_1 needs nothing, and y with the z bit of qubit 0 set (a nonzero
    inner product with e_1) needs e_1 ^ y.  Otherwise one vector z with a
    nonzero inner product with both joins them: XY on qubit 0 when y has x
    there, or else Z on qubit 0 plus the Pauli that anticommutes with y's
    at y's first nonzero qubit (Z there, or X where y has a Z).
    """
    nonzero = (y | (y >> _ONE)) & np.uint64(even)  # the x bit of each nonzero pair
    first = nonzero & (~nonzero + _ONE)  # y is never zero
    anti = np.where(((y // first) & _THREE) == _TWO, _ONE, _TWO) * first
    z = np.where((y & _THREE) == _ONE, _THREE, _TWO | anti)
    inner = (y & _TWO) != _ZERO
    h0 = np.where(y == _ONE, _ZERO, np.where(inner, _ONE ^ y, _ONE ^ z))
    h1 = np.where((y == _ONE) | inner, _ZERO, y ^ z)
    return h0, h1


def _num_cosets(n: int) -> int:
    return (1 << (2 * n - 1)) * ((1 << (2 * n)) - 1)


@cache
def symplectic_group_order(n: int) -> int:
    out = 1
    for j in range(1, n + 1):
        out *= _num_cosets(j)
    return out


def _symplectic_stack(indices, n: int) -> np.ndarray:
    """The symplectic matrices of canonical indices as blocked uint8 tableaus
    (x-part, then z-part), shape (count, 2n, 2n).

    Level k of the walk fixes the images of pair k of a 2k-bit space, and
    the outermost level (k = n) takes the lowest digits of the index.  The
    digits are split off as Python ints, since an index may exceed 64 bits;
    the walk then runs from level 1 outwards on the whole batch.
    """
    if 2 * n > 64:
        raise DomainError(f"the tableau walk holds 2n <= 64 bits, got n = {n}")
    rest = np.array(indices, dtype=object)
    digits = []
    for k in range(n, 0, -1):
        s = (1 << (2 * k)) - 1
        f1 = (rest % s + 1).astype(np.uint64)
        rest = rest // s
        bits = (rest % (1 << (2 * k - 1))).astype(np.uint64)
        rest = rest // (1 << (2 * k - 1))
        digits.append((f1, bits))
    rows = np.zeros((len(rest), 0), dtype=np.uint64)
    for k, (f1, bits) in enumerate(reversed(digits), start=1):
        even = ((1 << (2 * k)) - 1) // 3  # 0b0101...01: the x bit of every pair
        h1, h2 = _transvections_from_e1(f1, even)
        h0 = _transvect(h2, _transvect(h1, _ONE | ((bits >> _ONE) << _TWO), even), even)
        first = np.tile(np.array([1, 2], dtype=np.uint64), (len(rows), 1))  # X, Z of qubit 0
        rows = np.concatenate([first, rows << _TWO], axis=1)
        for v in (h1, h2, h0, np.where(bits & _ONE, _ZERO, f1)):
            rows = _transvect(v[:, None], rows, even)
    order = np.arange(2 * n, dtype=np.uint64).reshape(n, 2).T.ravel()  # x bits, then z bits
    blocked = rows[:, order]
    return ((blocked[:, :, None] >> order) & _ONE).astype(np.uint8)


def sample_tableaus(n: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random n-qubit tableaus, one per seed: the symplectic stack
    (count, 2n, 2n) and the sign bits (count, 2n).

    Each seed feeds its own generator, which draws a uniform canonical index
    into the symplectic group and then 2n uniform sign bits; together these
    parametrize the Clifford group mod phase exactly once each.  The walk
    from indices to matrices runs on the whole batch.
    """
    order = symplectic_group_order(n)
    nbytes = (order.bit_length() + 7) // 8 + 8
    limit = (1 << (8 * nbytes)) // order * order
    seeds = list(seeds)
    indices, phase = [], np.empty((len(seeds), 2 * n), dtype=np.uint8)
    for k, seed in enumerate(seeds):
        rng = as_generator(seed)
        idx = limit
        while idx >= limit:  # rejection sampling on a wide uniform integer
            idx = int.from_bytes(rng.bytes(nbytes), "big")
        indices.append(idx % order)
        phase[k] = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
    return _symplectic_stack(indices, n), phase


def sample_clifford_unitaries(n: int, seeds) -> np.ndarray:
    """Dense uniformly random Cliffords, one per seed, as one (count, 2^n,
    2^n) stack; entry k is ``sample_clifford(n, seeds[k]).to_dense()``."""
    return tableau_unitaries(n, *sample_tableaus(n, seeds))


def sample_clifford(n: int, seed) -> CliffordElement:
    """A uniformly random n-qubit Clifford (mod global phase), per seed:
    ``sample_tableaus`` on a batch of one."""
    symplectic, phase = sample_tableaus(n, [seed])
    return CliffordElement(n, symplectic[0], phase[0])


# ---------------------------------------------------------------------------
# Exhaustive enumeration for small n (one dense representative per
# global-phase equivalence class), over the sampler's canonical indices.
# ---------------------------------------------------------------------------

@cache  # only 1 <= n <= EXACT_QUBIT_CAP succeeds, and a raise caches nothing
def enumerate_cliffords(n: int = 1) -> np.ndarray:
    """All n-qubit Cliffords mod global phase, as one read-only
    (count, 2^n, 2^n) array, built once per n and shared by every caller.

    Every canonical symplectic index is converted in one batch with zero
    sign bits and right-multiplied by every Pauli X^a Z^b, (U X^a Z^b)|c> =
    (-1)^{b.c} U|c ^ a>: 24 elements at n=1, 11520 at n=2.  Larger n
    raises ``CapacityError`` (n=3 has 92,897,280 elements).
    """
    if not 1 <= n <= EXACT_QUBIT_CAP:
        raise CapacityError(f"Clifford enumeration needs 1 <= n <= {EXACT_QUBIT_CAP}, got {n}")
    N = 1 << n
    labels, parity, _ = _basis_bits(n)
    columns = labels[:, None] ^ labels[None, :]  # (a, c) -> c ^ a
    signs = 1 - 2 * parity[labels[:, None] & labels[None, :]]  # (b, c) -> (-1)^{b.c}
    order = symplectic_group_order(n)
    U = tableau_unitaries(n, _symplectic_stack(range(order), n), np.zeros((order, 2 * n), dtype=np.uint8))
    products = U[:, :, columns][:, :, :, None, :] * signs  # (index, row, a, b, c)
    out = products.transpose(0, 2, 3, 1, 4).reshape(-1, N, N)
    out.setflags(write=False)
    return out
