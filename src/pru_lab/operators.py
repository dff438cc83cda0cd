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
TILE = 64  # a mirrored pair of 64 x 64 complex tiles is 128 KiB, so both stay in cache


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


def register_dim(n: int) -> int:
    """2^n, the dimension of an n-qubit register, for n >= 0."""
    if n < 0:
        raise DomainError(f"the qubit count n must be at least 0, got {n}")
    return 2**n


def system_dim(d: int, t: int) -> int:
    """d^t, the dimension of t copies of C^d, for t >= 1."""
    if t < 1:
        raise DomainError(f"the copy count t must be at least 1, got {t}")
    return d**t


def workspace_dim(dim: int, d: int, t: int) -> int:
    """dim_e for a total dimension dim = d^t * dim_e (system first)."""
    n = system_dim(d, t)
    if dim % n:
        raise DomainError(f"dimension {dim} not divisible by d^t = {n}")
    return dim // n


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _tile_pairs(n: int) -> list[tuple[slice, slice]]:
    """The TILE x TILE tiles of an n x n matrix as mirrored pairs (I, J) of
    slices, I <= J: tile (I, J) of A.T is tile (J, I) of A, transposed."""
    starts = range(0, n, TILE)
    return [(slice(i, i + TILE), slice(j, j + TILE)) for i in starts for j in starts if i <= j]


def transpose(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A C-contiguous copy of ``a.T`` for a square ``a``, into ``out`` if given,
    made one mirrored pair of tiles at a time.  numpy's strided copy of ``a.T``
    misses the cache on almost every read when a row is a large power-of-two
    stride (16 KiB at 1024 x 1024 complex) and takes about twice as long."""
    out = np.empty(a.shape, dtype=a.dtype) if out is None else out
    for I, J in _tile_pairs(len(a)):
        out[I, J] = a[J, I].T
        out[J, I] = a[I, J].T
    return out


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
        out = transpose(self.entries)
        return DenseOperator(np.conjugate(out, out=out), self.registers)

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


def _hermitian_part(arr: np.ndarray, out: np.ndarray, conj: bool = False) -> float:
    """Write (A + A^dag)/2 for a square A, or its conjugate, into ``out`` and
    return max |A - A^dag| (NaN for non-finite A).  Each mirrored pair of
    tiles is read before either is written, so ``out`` may be A itself."""
    residual = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the caller rejects
        for I, J in _tile_pairs(len(arr)):
            half = np.conjugate(arr[J, I].copy().T, order="C")  # copy by rows, turn in cache
            residual = np.maximum(residual, np.abs(half - arr[I, J]).max())  # NaN stays NaN
            half += arr[I, J]
            half *= 0.5
            if conj:
                np.conjugate(half, out=half)
            out[I, J] = half
            if I != J:
                out[J, I] = half.conj().T
    return residual


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix: Hermitian, unit trace; positivity checked on demand.

    Input within 1e-10 of Hermitian is accepted and its exact Hermitian
    part (A + A^dag)/2 is stored, so ``entries`` equals its own conjugate
    transpose.  The Hermiticity residual and the Hermitian part come from
    one pass over mirrored pairs of tiles.  The constructor stores a copy;
    ``_adopt`` stores it in a private buffer it takes over.
    """

    entries: np.ndarray
    registers: tuple[int, ...] | None = None
    meta: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self._store(np.asarray(self.entries, dtype=complex))

    @classmethod
    def _adopt(cls, arr: np.ndarray, registers=None, meta=None) -> "DensityMatrix":
        """The density matrix of ``arr``, a complex buffer no one else holds,
        built in it.  A transposed view A of a C-contiguous buffer is taken
        over too: the buffer gets conj(H(A^T)), which is H(A) in C order."""
        rho = object.__new__(cls)
        vars(rho).update(registers=registers, meta=meta)  # the frozen fields, as __init__ would set them
        buffer = arr if arr.flags.c_contiguous else arr.T
        rho._store(buffer, buffer, conj=buffer is not arr)
        return rho

    def _store(self, arr: np.ndarray, out: np.ndarray | None = None, conj: bool = False):
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"density entries must be square, got shape {arr.shape}")
        check_capacity(arr.shape[0])
        out = np.empty(arr.shape, dtype=complex) if out is None else out
        trace = np.trace(arr)  # read before ``out`` may overwrite ``arr``
        if not _hermitian_part(arr, out, conj) <= 1e-10:  # NaN fails too
            raise DomainError("density matrix is not Hermitian within 1e-10")
        if not abs(trace - 1.0) <= 1e-9:
            raise DomainError(f"density matrix trace {trace} != 1 within 1e-9")
        object.__setattr__(self, "entries", _freeze(out))
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
        if not abs(np.linalg.norm(arr) - 1.0) <= 1e-10:  # NaN fails too
            raise DomainError("state vector is not normalized within 1e-10")
        object.__setattr__(self, "amplitudes", _freeze(arr))
        object.__setattr__(self, "registers", _check_registers(arr.shape[0], self.registers))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def to_density(self) -> DensityMatrix:
        return DensityMatrix._adopt(np.outer(self.amplitudes, self.amplitudes.conj()), self.registers)


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


# ---------------------------------------------------------------------------
# Concrete operator constructors.
# ---------------------------------------------------------------------------

def perm_op(pi: PermutationT) -> DenseOperator:
    """The operator |x> -> |pi(x)> on C^d, for a permutation pi of the d = pi.t
    basis labels."""
    d = pi.t
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
    the image collects digits at the slots pi^{-1}(i), which is the index
    array with its axes transposed by pi.
    """
    return np.arange(d**pi.t).reshape((d,) * pi.t).transpose(pi.images).reshape(-1)


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


def apply_tensor_power(mats: np.ndarray, tensor: np.ndarray, t: int) -> np.ndarray:
    """M^{x t} applied to the t leading d-dimensional slots of ``tensor``, for
    one (d, d) matrix M or each M of a (count, d, d) stack.

    ``tensor`` holds d^t * m entries in C order: the t slots, then a tail of
    m.  Each slot costs one matrix product, which also moves it behind the
    other axes, so the result is (m, d^t), or (count, m, d^t) for a stack:
    the tail, then the slots back in order."""
    d = mats.shape[-1]
    batch = mats.shape[:-2]
    mats_t = np.swapaxes(mats, -1, -2)
    out = np.reshape(tensor, (d, -1))
    for _ in range(t):
        out = (np.swapaxes(out, -1, -2) @ mats_t).reshape(batch + (d, -1))
    return out.reshape(batch + (-1, d**t))


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


def _components(pattern: np.ndarray) -> np.ndarray:
    """Component label of each vertex of the graph with the symmetric
    boolean adjacency ``pattern``: the smallest vertex index in its
    component.  Min-label propagation along the edges, each round followed
    by pointer jumping until every label is its own label's label."""
    rows, cols = np.nonzero(pattern)  # row-major, so each row's edges are contiguous
    active = np.flatnonzero(np.bincount(rows, minlength=len(pattern)))
    starts = np.searchsorted(rows, active)
    label = np.arange(len(pattern))
    while True:
        hooked = label.copy()
        hooked[active] = np.minimum(label[active], np.minimum.reduceat(label[cols], starts))
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return label
        label = hooked


def hermitian_eigvalsh(A: np.ndarray) -> np.ndarray:
    """The eigenvalues of a Hermitian matrix, component by component.

    The connected components of the nonzero pattern (``-0.0`` counts as
    zero, and no entry is ever thresholded) are exact invariant subspaces,
    so their eigenvalues are those of A.  Components of equal size share
    one batched ``eigvalsh``, an all-zero row adds one zero, and the result
    is grouped by component, not sorted.  When A is one component it is
    ``np.linalg.eigvalsh(A)`` itself.  As in ``eigvalsh``, only the values
    of the lower triangle are used; the pattern is made symmetric, so a
    nonzero entry in either triangle joins its row and column.
    """
    A = np.asarray(A)
    pattern = A != 0
    pattern |= transpose(pattern)
    label = _components(pattern)
    nonzero = pattern.any(axis=1)
    if nonzero.all() and not label.any():
        return np.linalg.eigvalsh(A)
    order = np.argsort(label, kind="stable")
    order = order[nonzero[order]]  # each component contiguous, zero rows dropped
    size = np.bincount(label)[label[order]]
    parts = [np.zeros(len(A) - len(order))]
    for s in sorted(set(size.tolist())):
        idx = order[size == s].reshape(-1, s)
        parts.append(np.linalg.eigvalsh(A[idx[:, :, None], idx[:, None, :]]).ravel())
    return np.concatenate(parts)


def trace_norm(A: np.ndarray) -> float:
    """Unnormalized Schatten-1 norm (sum of singular values).

    An exactly Hermitian input, such as a difference of two
    ``DensityMatrix`` entries, takes the sum of its absolute eigenvalues,
    one connected component of its nonzero pattern at a time
    (``hermitian_eigvalsh``); anything else takes the singular values.
    Hermiticity is ``np.array_equal(A, A.conj().T)``, tested one mirrored
    pair of tiles at a time.
    """
    A = np.asarray(A)
    square = A.ndim == 2 and A.shape[0] == A.shape[1]
    if square and all((A[I, J] == A[J, I].conj().T).all() for I, J in _tile_pairs(len(A))):
        return float(np.abs(hermitian_eigvalsh(A)).sum())
    return float(np.linalg.svd(A, compute_uv=False).sum())


def trace_distance(A, B) -> float:
    """||A - B||_1, unnormalized (orthogonal pure states are at distance 2).
    Two ``DensityMatrix`` inputs skip the Hermiticity test: their difference
    is exactly Hermitian, as IEEE subtraction acts on each part apart."""
    a = A.entries if hasattr(A, "entries") else np.asarray(A)
    b = B.entries if hasattr(B, "entries") else np.asarray(B)
    if a.shape != b.shape:
        raise DomainError(f"shape mismatch {a.shape} vs {b.shape}")
    if isinstance(A, DensityMatrix) and isinstance(B, DensityMatrix):
        return float(np.abs(hermitian_eigvalsh(a - b)).sum())
    return trace_norm(a - b)
