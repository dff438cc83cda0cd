"""The keyed unitary ensemble: permutation * phase * Clifford.

Keys are triples of independent 16-byte strings.  The permutation and
phase components are *toy* keyed schemes backed by a counter-mode digest
stream: statistically uniform and perfectly replayable, which is all the
desk-scale statistical experiments need.  Each scheme's interface is
``table(key)``: the permutation's image table, or the phase bit of every
basis label.  (A production instantiation would slot a cipher-based
permutation and PRF behind ``table``; nothing downstream would change.)
The Clifford component is keyed by seeding the uniform tableau sampler.

Keyed unitaries are built in batches: the Clifford stack of a batch of
keys comes from one call into the batched sampler, and P F C is that
stack with its rows gathered through each inverse permutation and signed
by each phase table.  ``pru_unitary`` is a batch of one, and the keyed
average feeds the averaging driver one batch per MC_CHUNK sorted keys.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .clifford import sample_clifford_unitaries
from .errors import DomainError
from .operators import DensityMatrix, StateVector, _freeze, as_generator, check_capacity
from .symgroup import PermutationT
from .twirls import MC_CHUNK, _average_conjugation, _require_draws

KEY_BYTES = 16


@dataclass(frozen=True, order=True)
class PruKey:
    """Independent sub-keys for the permutation, phase and Clifford parts."""

    k1: bytes
    k2: bytes
    k3: bytes

    def __post_init__(self):
        for part in (self.k1, self.k2, self.k3):
            if len(part) != KEY_BYTES:
                raise DomainError(f"key components must be {KEY_BYTES} bytes")


def sample_key(n: int, seed) -> PruKey:
    """Three independent 16-byte components from the seeded generator.

    ``n`` fixes the domain the key will be used on; the key length itself
    is size-independent.
    """
    del n
    rng = as_generator(seed)
    return PruKey(bytes(rng.bytes(KEY_BYTES)), bytes(rng.bytes(KEY_BYTES)), bytes(rng.bytes(KEY_BYTES)))


def _digest_stream(key: bytes, label: bytes):
    """Deterministic byte stream: sha256(label || key || counter) blocks."""
    counter = 0
    while True:
        block = hashlib.sha256(label + key + counter.to_bytes(8, "big")).digest()
        yield from block
        counter += 1


def _uniform_below(stream, bound: int) -> int:
    """Rejection-sample a uniform integer in [0, bound) from a byte stream."""
    nbytes = max(1, (bound - 1).bit_length() + 7 >> 3)
    limit = (1 << (8 * nbytes)) // bound * bound
    while True:
        val = int.from_bytes(bytes(next(stream) for _ in range(nbytes)), "big")
        if val < limit:
            return val % bound


@dataclass(frozen=True)
class PrfScheme:
    """Keyed boolean function on [2^n] (toy: one digest bit per input)."""

    n: int

    @property
    def d(self) -> int:
        return 2**self.n

    def table(self, key: bytes) -> tuple[int, ...]:
        """The keyed phase bit of each of the d basis labels."""
        return tuple(
            hashlib.sha256(b"prf" + key + x.to_bytes(8, "big")).digest()[0] & 1 for x in range(self.d)
        )


@dataclass(frozen=True)
class PrpScheme:
    """Keyed permutation of [2^n] (toy: keyed uniform shuffle).

    At desk scale the permutation table is the honest object; ``table``
    materializes it and bijectivity is checked by construction.
    """

    n: int

    @property
    def d(self) -> int:
        return 2**self.n

    def table(self, key: bytes) -> PermutationT:
        """The keyed permutation of the d basis labels, a PermutationT of degree d."""
        stream = _digest_stream(key, b"prp")
        images = list(range(self.d))
        for i in range(self.d - 1, 0, -1):  # Fisher-Yates on the digest stream
            j = _uniform_below(stream, i + 1)
            images[i], images[j] = images[j], images[i]
        return PermutationT(tuple(images))


def clifford_seed(k3: bytes) -> int:
    return int.from_bytes(k3, "big")


def _keyed_unitaries(n: int, keys) -> np.ndarray:
    """Dense keyed unitaries P F C, one per key, as a (count, 2^n, 2^n) stack.

    Row y of P F C is row pi^-1(y) of the Clifford times the phase sign at
    pi^-1(y), so the stack is one row gather plus a sign on the Clifford
    stack.  The whole stack is checked for unitarity to 1e-10.
    """
    check_capacity(2**n)
    prp, prf = PrpScheme(n), PrfScheme(n)
    cliffords = sample_clifford_unitaries(n, [clifford_seed(key.k3) for key in keys])
    inverse = np.argsort([prp.table(key.k1).images for key in keys], axis=1)
    signs = 1.0 - 2.0 * np.array([prf.table(key.k2) for key in keys], dtype=float)
    k = np.arange(len(keys))[:, None]
    U = signs[k, inverse][:, :, None] * cliffords[k, inverse]
    if not np.abs(U.conj().transpose(0, 2, 1) @ U - np.eye(2**n)).max() <= 1e-10:
        raise DomainError("assembled keyed unitary failed the unitarity check")
    return U


def pru_unitary(key: PruKey, n: int) -> np.ndarray:
    """Dense keyed unitary: permutation operator * phase operator * Clifford."""
    return _freeze(_keyed_unitaries(n, [key])[0])


def sample_keys(n: int, count: int, seed) -> list[PruKey]:
    rng = as_generator(seed)
    return [sample_key(n, rng) for _ in range(count)]


def pru_average_state_from_keys(psi: StateVector, t: int, n: int, keys) -> DensityMatrix:
    """Average of the t-fold keyed conjugation over an explicit key list.

    Keys are sorted before accumulation so the result depends only on the
    key multiset, bitwise.
    """
    keys = sorted(keys)
    batches = (_keyed_unitaries(n, keys[i : i + MC_CHUNK]) for i in range(0, len(keys), MC_CHUNK))
    avg = _average_conjugation(psi, 2**n, t, batches)
    meta = {"num_keys": len(keys), "std_error_fro": avg.std_error_fro}
    return DensityMatrix._adopt(avg.mean, meta=meta)


def pru_average_state(psi: StateVector, t: int, n: int, num_keys: int, seed) -> DensityMatrix:
    """Monte-Carlo ensemble average over freshly sampled keys."""
    _require_draws(num_keys, "keys")
    return pru_average_state_from_keys(psi, t, n, sample_keys(n, num_keys, seed))
