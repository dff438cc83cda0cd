"""Dense complex linear algebra on (C^d)^{x t} (x) E and the concrete
operators the experiments are built from: permutation operators on basis
labels, binary phase operators, tensor-slot permutations, the
distinct-tuple projector, and Haar-random unitaries.

Everything is a dense complex-double matrix; a register shape tag records
the tensor factorization where one is meaningful.  A global dimension cap
(env var PRU_LAB_DIM_CAP, default 2**14) makes oversized constructions
fail early instead of exhausting memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import CapacityError, DomainError
from .symgroup import PermutationT

DEFAULT_DIM_CAP = 2**14


def dim_cap() -> int:
    raw = os.environ.get("PRU_LAB_DIM_CAP", DEFAULT_DIM_CAP)
    try:
        return int(raw)
    except ValueError:
        raise CapacityError(f"PRU_LAB_DIM_CAP must be an integer, got {raw!r}") from None


def check_capacity(dim: int):
    cap = dim_cap()
    if dim > cap:
        raise CapacityError(f"total dimension {dim} exceeds cap {cap} (PRU_LAB_DIM_CAP)")


def workspace_dim(dim: int, d: int, t: int) -> int:
    """dim_e for a total dimension dim = d^t * dim_e (system first)."""
    n = d**t
    if dim % n:
        raise DomainError(f"dimension {dim} not divisible by d^t = {n}")
    return dim // n


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _check_registers(dim: int, registers):
    if registers is not None:
        registers = tuple(int(r) for r in registers)
        if prod(registers) != dim:
            raise DomainError(f"register shape {registers} does not factor dimension {dim}")
    return registers


@dataclass(frozen=True)
class DenseOperator:
    """A square complex matrix, optionally tagged with its tensor factors.

    Instances are immutable: the wrapped array is made read-only on
    construction, so operators are safe to share across threads.
    """

    entries: np.ndarray
    registers: tuple[int, ...] | None = None
    meta: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"operator entries must be square, got shape {arr.shape}")
        check_capacity(arr.shape[0])
        object.__setattr__(self, "entries", _freeze(arr))
        object.__setattr__(self, "registers", _check_registers(arr.shape[0], self.registers))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dag(self) -> "DenseOperator":
        return DenseOperator(self.entries.conj().T, self.registers)

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if self.dim != other.dim:
            raise DomainError(f"dimension mismatch {self.dim} vs {other.dim}")
        return DenseOperator(self.entries @ other.entries, self.registers or other.registers)

    def tensor(self, other: "DenseOperator") -> "DenseOperator":
        regs = None
        if self.registers is not None and other.registers is not None:
            regs = self.registers + other.registers
        return DenseOperator(np.kron(self.entries, other.entries), regs)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def is_unitary(self, tol: float = 1e-10) -> bool:
        delta = self.entries.conj().T @ self.entries - np.eye(self.dim)
        return bool(np.abs(delta).max() <= tol)


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix: Hermitian, unit trace; positivity checked on demand.

    Input within 1e-10 of Hermitian is accepted and its exact Hermitian
    part (A + A^dag)/2 is stored, so ``entries`` equals its own conjugate
    transpose bit for bit.
    """

    entries: np.ndarray
    registers: tuple[int, ...] | None = None
    meta: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"density entries must be square, got shape {arr.shape}")
        check_capacity(arr.shape[0])
        herm = np.empty(arr.shape, dtype=complex)  # one buffer: the residual, then the result
        np.conjugate(arr.T, out=herm)
        herm -= arr
        if np.abs(herm).max() > 1e-10:
            raise DomainError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(arr) - 1.0) > 1e-9:
            raise DomainError(f"density matrix trace {np.trace(arr)} != 1 within 1e-9")
        np.conjugate(arr.T, out=herm)
        herm += arr
        herm *= 0.5  # entry (j, i) is the exact conjugate of entry (i, j)
        object.__setattr__(self, "entries", _freeze(herm))
        object.__setattr__(self, "registers", _check_registers(arr.shape[0], self.registers))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)

    def validate(self, psd_tol: float = 1e-9):
        lo = self.eigenvalues()[0]
        if lo < -psd_tol:
            raise DomainError(f"density matrix has eigenvalue {lo} < -{psd_tol}")
        return self


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state with an optional register shape tag."""

    amplitudes: np.ndarray
    registers: tuple[int, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        check_capacity(arr.shape[0])
        if abs(np.linalg.norm(arr) - 1.0) > 1e-10:
            raise DomainError("state vector is not normalized within 1e-10")
        object.__setattr__(self, "amplitudes", _freeze(arr))
        object.__setattr__(self, "registers", _check_registers(arr.shape[0], self.registers))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.registers)


@dataclass(frozen=True)
class BooleanFunction:
    """A total function [d] -> {0, 1}, stored as a bit table."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise DomainError("boolean function table must contain only 0/1")
        object.__setattr__(self, "bits", bits)

    @property
    def d(self) -> int:
        return len(self.bits)

    def __call__(self, x: int) -> int:
        return self.bits[x]

    @staticmethod
    def zero(d: int) -> "BooleanFunction":
        return BooleanFunction((0,) * d)


@dataclass(frozen=True)
class PermutationD:
    """A permutation of the basis labels [d], stored as an image table."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(i) for i in self.images)
        if sorted(images) != list(range(len(images))):
            raise DomainError("image table is not a bijection")
        object.__setattr__(self, "images", images)

    @property
    def d(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def inverse(self) -> "PermutationD":
        inv = [0] * self.d
        for x, y in enumerate(self.images):
            inv[y] = x
        return PermutationD(tuple(inv))

    @staticmethod
    def identity(d: int) -> "PermutationD":
        return PermutationD(tuple(range(d)))


# ---------------------------------------------------------------------------
# Concrete operator constructors.
# ---------------------------------------------------------------------------

def perm_op(pi: PermutationD) -> DenseOperator:
    """The operator |x> -> |pi(x)| on C^d."""
    d = pi.d
    M = np.zeros((d, d), dtype=complex)
    M[np.asarray(pi.images), np.arange(d)] = 1.0
    return DenseOperator(M, (d,))

def phase_op(f: BooleanFunction) -> DenseOperator:
    """The diagonal operator |x> -> (-1)^f(x) |x>."""
    signs = 1.0 - 2.0 * np.asarray(f.bits, dtype=float)
    return DenseOperator(np.diag(signs.astype(complex)), (f.d,))


def subsystem_perm_index_map(pi: PermutationT, d: int) -> np.ndarray:
    """Index map m with R_pi |a> = |m(a)> on the product basis of (C^d)^{x t}.

    Basis label a has digits (a_1 .. a_t) base d, most significant first;
    the image collects digits at the slots pi^{-1}(i).
    """
    t = pi.t
    n = d**t
    digits = np.stack(np.unravel_index(np.arange(n), (d,) * t), axis=1)  # (n, t)
    inv = pi.inverse()
    permuted = digits[:, list(inv.images)]
    return np.ravel_multi_index(tuple(permuted.T), (d,) * t)


def subsystem_perm_op(pi: PermutationT, d: int) -> DenseOperator:
    """The unitary permuting the t tensor slots of (C^d)^{x t}."""
    n = d**pi.t
    check_capacity(n)
    m = subsystem_perm_index_map(pi, d)
    M = np.zeros((n, n), dtype=complex)
    M[m, np.arange(n)] = 1.0
    return DenseOperator(M, (d,) * pi.t)


def distinct_mask(d: int, t: int) -> np.ndarray:
    """Boolean mask over the product basis: True where all t labels differ."""
    n = d**t
    digits = np.stack(np.unravel_index(np.arange(n), (d,) * t), axis=1)
    mask = np.ones(n, dtype=bool)
    for i in range(t):
        for j in range(i + 1, t):
            mask &= digits[:, i] != digits[:, j]
    return mask


def distinct_projector(d: int, t: int) -> DenseOperator:
    """Diagonal projector onto tuples with pairwise distinct labels.

    Trace is d!/(d-t)!; for t > d there are no distinct tuples and the zero
    operator is returned, flagged in the metadata.
    """
    n = d**t
    check_capacity(n)
    mask = distinct_mask(d, t)
    meta = {"empty": True} if t > d else None
    return DenseOperator(np.diag(mask.astype(complex)), (d,) * t, meta=meta)


def falling_factorial(d: int, t: int) -> int:
    out = 1
    for k in range(t):
        out *= d - k
    return out


# ---------------------------------------------------------------------------
# Haar sampling and generic dense utilities.
# ---------------------------------------------------------------------------

def as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(seed, *parts) -> list[int]:
    """Flatten a base seed plus derivation indices into an entropy list
    acceptable to numpy's SeedSequence."""
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    return [int(x) for x in (*base, *parts)]


def haar_unitaries(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """A batch of Haar-distributed d x d unitaries, shape (count, d, d).

    QR of a complex Ginibre matrix with the R-diagonal phase correction;
    without the correction the factorization is *not* Haar.
    """
    z = (rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def sample_haar_unitary(d: int, seed) -> DenseOperator:
    """One Haar-distributed unitary on C^d, deterministic per seed."""
    rng = as_generator(seed)
    return DenseOperator(haar_unitaries(d, 1, rng)[0], (d,))


def tensor_power(U: DenseOperator, t: int) -> DenseOperator:
    check_capacity(U.dim**t)
    out = U.entries
    for _ in range(t - 1):
        out = np.kron(out, U.entries)
    regs = U.registers * t if U.registers is not None else None
    return DenseOperator(out, regs)


def apply_on_axis(mats: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    """Multiply ``mats`` into one axis: out[.., i, ..] = sum_j M[i, j] tensor[.., j, ..].

    ``mats`` is one (m, m) matrix or a (count, m, m) stack.  For a stack,
    axis 0 of ``tensor`` is a batch axis of length 1 or count, and result
    entry s is M_s applied to batch entry s (or to the single shared one).
    """
    lead = mats.ndim - 2
    moved = np.moveaxis(tensor, axis, lead)  # one matrix product per stack entry
    out = mats @ moved.reshape(moved.shape[: lead + 1] + (prod(moved.shape[lead + 1 :]),))
    return np.moveaxis(out.reshape(out.shape[:lead] + moved.shape[lead:]), lead, axis)


def apply_to_registers(U: np.ndarray | DenseOperator, state: StateVector, indices: list[int]) -> StateVector:
    """Apply ``U`` to the selected tensor factors of ``state``.

    ``U`` must be square of dimension equal to the product of the selected
    register dimensions, ordered as in ``indices``.
    """
    if state.registers is None:
        raise DomainError("state has no register shape tag")
    regs = state.registers
    mat = U.entries if isinstance(U, DenseOperator) else np.asarray(U)
    sel_dim = prod(regs[i] for i in indices)
    if mat.shape != (sel_dim, sel_dim):
        raise DomainError(f"operator dim {mat.shape} does not match registers {indices} of {regs}")
    psi = state.amplitudes.reshape(regs)
    rest = [i for i in range(len(regs)) if i not in indices]
    psi = np.transpose(psi, indices + rest)
    shaped = psi.reshape(sel_dim, -1)
    out = apply_on_axis(mat, shaped, 0).reshape([regs[i] for i in indices] + [regs[i] for i in rest])
    out = np.transpose(out, np.argsort(indices + rest))
    return StateVector(out.reshape(-1), regs)


def partial_trace(op: DenseOperator | DensityMatrix, keep: list[int]) -> DenseOperator:
    """Trace out all registers not listed in ``keep`` (order preserved)."""
    if op.registers is None:
        raise DomainError("operator has no register shape tag")
    regs = op.registers
    k = len(regs)
    keep = list(keep)
    if any(i not in range(k) for i in keep) or len(set(keep)) != len(keep):
        raise DomainError(f"invalid register selection {keep} for {regs}")
    arr = op.entries.reshape(regs + regs)
    m = k
    for i in sorted(set(range(k)) - set(keep), reverse=True):
        arr = np.trace(arr, axis1=i, axis2=i + m)
        m -= 1
    # axes are now the kept registers in ascending order, twice over
    ascending = sorted(keep)
    if ascending != keep:
        order = [ascending.index(i) for i in keep]
        arr = np.transpose(arr, order + [len(keep) + o for o in order])
    out_regs = tuple(regs[i] for i in keep)
    dim = prod(out_regs) if out_regs else 1
    return DenseOperator(arr.reshape(dim, dim), out_regs)


def trace_norm(A: np.ndarray) -> float:
    """Unnormalized Schatten-1 norm (sum of singular values).

    An exactly Hermitian input, such as a difference of two
    ``DensityMatrix`` entries, takes the sum of its absolute eigenvalues;
    anything else takes the singular values.
    """
    A = np.asarray(A)
    if np.array_equal(A, A.conj().T):
        return float(np.abs(np.linalg.eigvalsh(A)).sum())
    return float(np.linalg.svd(A, compute_uv=False).sum())


def trace_distance(A, B) -> float:
    """||A - B||_1, unnormalized (orthogonal pure states are at distance 2)."""
    a = A.entries if hasattr(A, "entries") else np.asarray(A)
    b = B.entries if hasattr(B, "entries") else np.asarray(B)
    if a.shape != b.shape:
        raise DomainError(f"shape mismatch {a.shape} vs {b.shape}")
    return trace_norm(a - b)
