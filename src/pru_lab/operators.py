"""Dense complex linear algebra on (C^d)^{x t} (x) E and the concrete
operators the experiments are built from: permutation operators on basis
labels, tensor-slot permutations, the distinct-tuple projector, and
Haar-random unitaries.

Operators are complex-double matrices, system slots first and any
workspace factor last (``workspace_dim``): read-only C-contiguous arrays
(the constructors below), or ``SupportOperator``s that hold only the
nonzero entries, as sorted flat positions and values.  Exact twirls and
twirls of non-state inputs return the latter; ``hermitian_eigvalsh``,
``trace_distance`` and the twirls read them without building the dense
matrix.  A global dimension cap (env var PRU_LAB_DIM_CAP, default 2**14)
makes oversized constructions fail early instead of exhausting memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

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


def _hermitian_part(arr: np.ndarray) -> float:
    """Overwrite a square A with (A + A^dag)/2 and return max |A - A^dag|
    (NaN for non-finite A).  Each mirrored pair of tiles is read before
    either is written."""
    residual = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the caller rejects
        for I, J in _tile_pairs(len(arr)):
            half = np.conjugate(arr[J, I].copy().T, order="C")  # copy by rows, turn in cache
            residual = np.maximum(residual, np.abs(half - arr[I, J]).max())  # NaN stays NaN
            half += arr[I, J]
            half *= 0.5
            arr[I, J] = half
            if I != J:
                arr[J, I] = half.conj().T
    return residual


def _check_density(residual: float, trace: complex) -> None:
    """The density-matrix contract: Hermiticity residual within 1e-10 and
    trace within 1e-9 of 1; NaN fails both."""
    if not residual <= 1e-10:
        raise DomainError("density matrix is not Hermitian within 1e-10")
    if not abs(trace - 1.0) <= 1e-9:
        raise DomainError(f"density matrix trace {trace} != 1 within 1e-9")


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix: Hermitian, unit trace; positivity checked on demand.

    Input within 1e-10 of Hermitian is accepted and its exact Hermitian
    part (A + A^dag)/2 is stored, so ``entries`` equals its own conjugate
    transpose.  The Hermiticity residual and the Hermitian part come from
    one pass over mirrored pairs of tiles, in place: the constructor in a
    C-order copy of its input, ``_adopt`` in a private buffer it takes over.
    """

    entries: np.ndarray
    meta: dict = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        self._store(np.array(self.entries, dtype=complex, order="C"))

    @classmethod
    def _adopt(cls, arr: np.ndarray, *, meta=None) -> "DensityMatrix":
        """The density matrix of ``arr``, a C-contiguous complex buffer no one
        else holds, built in it."""
        rho = object.__new__(cls)
        vars(rho).update(meta=meta)  # the frozen field, as __init__ would set it
        rho._store(arr)
        return rho

    def _store(self, arr: np.ndarray):
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"density entries must be square, got shape {arr.shape}")
        check_capacity(arr.shape[0])
        trace = np.trace(arr)  # read before the Hermitian part overwrites ``arr``
        _check_density(_hermitian_part(arr), trace)
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.sort(hermitian_eigvalsh(self))  # ascending, so [0] is the minimum

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries)


def _transposed(positions: np.ndarray, dim: int) -> np.ndarray:
    """The flat positions c * dim + r of the entries at r * dim + c."""
    return positions % dim * dim + positions // dim


def _sorted_union(*keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the ``keys`` arrays together."""
    out = np.sort(np.concatenate(keys))
    return out[np.r_[True, out[1:] != out[:-1]]] if len(out) else out


def _find(positions: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of the flat positions ``query`` sits in the sorted
    ``positions``, and whether it is there."""
    index = np.searchsorted(positions, query)
    hit = index < len(positions)
    hit[hit] = positions[index[hit]] == query[hit]
    return index, hit


def _canonical(positions, values, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct flat positions of a dim x dim matrix, with the values
    at repeated positions summed in the order given."""
    check_capacity(dim)
    positions = np.asarray(positions).reshape(-1)
    values = np.asarray(values, dtype=complex).reshape(-1)
    if len(positions) != len(values) or len(positions) and not np.issubdtype(positions.dtype, np.integer):
        raise DomainError(f"support positions must be integers, one per value: got {len(positions)} "
                          f"{positions.dtype} for {len(values)} values")
    positions = positions.astype(np.int64, copy=False)
    if np.any(positions[1:] <= positions[:-1]):
        positions, index = np.unique(positions, return_inverse=True)
        summed = np.empty(len(positions), dtype=complex)
        summed.real = np.bincount(index, values.real, len(positions))
        summed.imag = np.bincount(index, values.imag, len(positions))
        values = summed
    if len(positions) and not 0 <= positions[0] <= positions[-1] < dim * dim:
        raise DomainError(f"support positions must lie in [0, {dim * dim})")
    return positions, values


class SupportOperator:
    """A square matrix held on its support: the sorted flat positions
    r * dim + c of its nonzero entries and their values.

    Exact zeros (``-0.0`` too) are dropped, so the support is the dense
    matrix's ``!= 0`` pattern, and repeated positions are summed in the order
    given, as scattering them one after another into zeros would.
    ``entries`` builds the dense matrix on each access and keeps nothing;
    ``shape``, ``ndim``, ``take`` and ``diagonal`` read as they do on it.
    """

    ndim = 2

    def __init__(self, positions, values, dim: int, *, meta=None):
        self._hold(*_canonical(positions, values, dim), dim, meta)

    def _hold(self, positions: np.ndarray, values: np.ndarray, dim: int, meta):
        keep = values != 0
        if not keep.all():
            positions, values = positions[keep], values[keep]
        vars(self).update(positions=_freeze(positions), values=_freeze(values), _dim=dim, meta=meta)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def shape(self) -> tuple[int, int]:
        return self._dim, self._dim

    @property
    def entries(self) -> np.ndarray:
        out = np.zeros(self._dim * self._dim, dtype=complex)
        out[self.positions] = self.values
        return _freeze(out.reshape(self.shape))

    def take(self, positions: np.ndarray) -> np.ndarray:
        """The entries at flat ``positions`` (any shape), 0 where off the
        support, as ``entries.take(positions)`` reads them."""
        index, hit = _find(self.positions, positions)
        out = np.zeros(np.shape(positions), dtype=complex)
        out[hit] = self.values[index[hit]]
        return out

    def diagonal(self) -> np.ndarray:
        on = self.positions % (self._dim + 1) == 0
        out = np.zeros(self._dim, dtype=complex)
        out[self.positions[on] // (self._dim + 1)] = self.values[on]
        return out

    def __repr__(self) -> str:  # the dataclass repr of a DensityMatrix would build ``entries``
        return f"{type(self).__name__}(dim={self._dim}, nonzeros={len(self.positions)})"


class SupportDensity(SupportOperator, DensityMatrix):
    """A ``DensityMatrix`` held on its support.  As the dense one does, it
    accepts input whose entries are each within 1e-10 of the conjugate of
    their mirrored entry (0 off the support) and whose trace is within 1e-9
    of 1, and stores the exact Hermitian part, made as ``_hermitian_part``
    makes it; the support grows by any mirrored position it lacks."""

    def __init__(self, positions, values, dim: int, *, meta=None):
        positions, values = _canonical(positions, values, dim)
        index, hit = _find(positions, _transposed(positions, dim))
        if hit.all():
            half = np.conjugate(values[index])
        else:  # grow the support by the mirrored positions it lacks
            given = SupportOperator(positions, values, dim)
            positions = _sorted_union(positions, _transposed(positions, dim))
            values, half = given.take(positions), np.conjugate(given.take(_transposed(positions, dim)))
        trace = values[positions % (dim + 1) == 0].sum()
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
            _check_density(np.abs(half - values).max(initial=0.0), trace)
        half += values
        half *= 0.5
        self._hold(positions, half, dim, meta)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        check_capacity(arr.shape[0])
        if not abs(np.linalg.norm(arr) - 1.0) <= 1e-10:  # NaN fails too
            raise DomainError("state vector is not normalized within 1e-10")
        object.__setattr__(self, "amplitudes", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def to_density(self) -> DensityMatrix:
        return DensityMatrix._adopt(np.outer(self.amplitudes, self.amplitudes.conj()))


# ---------------------------------------------------------------------------
# Concrete operator constructors.
# ---------------------------------------------------------------------------

def perm_op(pi: PermutationT) -> np.ndarray:
    """The operator |x> -> |pi(x)> on C^d, for a permutation pi of the d = pi.t
    basis labels."""
    d = pi.t
    M = np.zeros((d, d), dtype=complex)
    M[np.asarray(pi.images), np.arange(d)] = 1.0
    return _freeze(M)


def subsystem_perm_index_map(pi: PermutationT, d: int) -> np.ndarray:
    """Index map m with R_pi |a> = |m(a)> on the product basis of (C^d)^{x t}.

    Basis label a has digits (a_1 .. a_t) base d, most significant first;
    the image collects digits at the slots pi^{-1}(i), which is the index
    array with its axes transposed by pi.
    """
    return np.arange(d**pi.t).reshape((d,) * pi.t).transpose(pi.images).reshape(-1)


def subsystem_perm_op(pi: PermutationT, d: int) -> np.ndarray:
    """The unitary permuting the t tensor slots of (C^d)^{x t}."""
    n = d**pi.t
    check_capacity(n)
    m = subsystem_perm_index_map(pi, d)
    M = np.zeros((n, n), dtype=complex)
    M[m, np.arange(n)] = 1.0
    return _freeze(M)


def distinct_mask(d: int, t: int) -> np.ndarray:
    """Boolean mask over the product basis: True where all t labels differ."""
    n = d**t
    digits = np.stack(np.unravel_index(np.arange(n), (d,) * t), axis=1)
    mask = np.ones(n, dtype=bool)
    for i in range(t):
        for j in range(i + 1, t):
            mask &= digits[:, i] != digits[:, j]
    return mask


def _distinct_overlap(X, d: int, t: int) -> tuple[float, np.ndarray]:
    """Tr[(Pi_dist x I) X], read off X's diagonal, and the distinct mask over X's rows."""
    mask = np.repeat(distinct_mask(d, t), workspace_dim(X.dim, d, t))
    return float(np.real(X.diagonal())[mask].sum()), mask


def distinct_projector(d: int, t: int) -> np.ndarray:
    """Diagonal projector onto tuples with pairwise distinct labels.

    Trace is d!/(d-t)!; for t > d there are no distinct tuples and it is
    the zero matrix.
    """
    check_capacity(d**t)
    return _freeze(np.diag(distinct_mask(d, t).astype(complex)))


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


def tensor_power(U: np.ndarray, t: int) -> np.ndarray:
    """U^{x t} for a square matrix U."""
    check_capacity(len(U) ** t)
    out = np.array(U, dtype=complex)
    for _ in range(t - 1):
        out = np.kron(out, U)
    return _freeze(out)


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


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Component label of each of the n vertices of the graph with the
    symmetric edge list (``rows``, ``cols``), sorted by row: the smallest
    vertex index in its component.  Min-label propagation along the edges,
    each round followed by pointer jumping until every label is its own
    label's label."""
    active = np.flatnonzero(np.bincount(rows, minlength=n))
    starts = np.searchsorted(rows, active)
    label = np.arange(n)
    while True:
        hooked = label.copy()
        hooked[active] = np.minimum(label[active], np.minimum.reduceat(label[cols], starts))
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return label
        label = hooked


def _symmetric_pattern(ops: list, n: int) -> np.ndarray:
    """The sorted flat positions of the nonzero pattern of the operands
    together, made symmetric: a dense operand's ``!= 0`` entries, a
    ``SupportOperator``'s support.  With a dense operand the supports are
    marked in its boolean pattern; without one they are merged by sorting."""
    dense = [op != 0 for op in ops if isinstance(op, np.ndarray)]
    keys = [op.positions for op in ops if isinstance(op, SupportOperator)]
    if not dense:
        keys = np.concatenate(keys)
        return _sorted_union(keys, _transposed(keys, n))
    pattern = dense[0] if len(dense) == 1 else dense[0] | dense[1]
    for support in keys:
        pattern.reshape(-1)[support] = True
    pattern |= np.ascontiguousarray(pattern.T)
    return np.flatnonzero(pattern)


def _dense(op) -> np.ndarray:
    return op.entries if isinstance(op, SupportOperator) else op


def _operand(X):
    """A ``SupportOperator`` as it is; the entries of a ``DensityMatrix``, or X as an array."""
    if isinstance(X, SupportOperator):
        return X
    return np.asarray(X.entries if isinstance(X, DensityMatrix) else X)


def _groups_by_size(label: np.ndarray, keep: np.ndarray | None = None) -> list[np.ndarray]:
    """The indices of ``label`` grouped by label value, one (groups, size)
    array per group size, ascending; each row is one group's indices in
    increasing order.  ``keep`` (boolean, per index) drops indices, and may
    only drop whole groups."""
    order = np.argsort(label, kind="stable")  # each group contiguous
    if keep is not None:
        order = order[keep[order]]
    size = np.bincount(label)[label[order]]
    return [order[size == s].reshape(-1, s) for s in sorted(set(size.tolist()))]


def hermitian_eigvalsh(A, B=None) -> np.ndarray:
    """The eigenvalues of a Hermitian matrix A, or of A - B without forming
    it; each operand is a dense array or a ``SupportOperator``.

    The connected components of the nonzero pattern (of A and B together;
    ``-0.0`` counts as zero, and no entry is ever thresholded) are exact
    invariant subspaces, so their eigenvalues are those of the whole.  Each
    is gathered as A[idx] - B[idx], all of them in one flat ``take`` per
    operand; components of equal size share one batched ``eigvalsh``, an
    all-zero row adds one zero, and the result is grouped by component, not
    sorted.  One component takes ``eigvalsh`` of
    A (or A - B) itself.  As in ``eigvalsh``, only the lower triangle is
    read; the pattern is made symmetric, so a nonzero entry in either
    triangle joins its row and column.
    """
    ops = [_operand(op) for op in (A, B) if op is not None]
    n = ops[0].shape[0]
    rows, cols = np.divmod(_symmetric_pattern(ops, n), n)
    label = _components(rows, cols, n)
    nonzero = np.bincount(rows, minlength=n) > 0
    if nonzero.all() and not label.any():
        return np.linalg.eigvalsh(_dense(ops[0]) if B is None else _dense(ops[0]) - _dense(ops[1]))
    groups = _groups_by_size(label, nonzero)  # zero rows dropped: each is a component of its own
    flat = np.concatenate([np.empty(0, dtype=np.int64)]
                          + [(idx[:, :, None] * n + idx[:, None, :]).ravel() for idx in groups])
    blocks = ops[0].take(flat) if B is None else ops[0].take(flat) - ops[1].take(flat)
    parts, start = [np.zeros(n - np.count_nonzero(nonzero))], 0
    for count, s in (idx.shape for idx in groups):
        parts.append(np.linalg.eigvalsh(blocks[start : start + count * s * s].reshape(count, s, s)).ravel())
        start += count * s * s
    return np.concatenate(parts)


def trace_norm(A: np.ndarray) -> float:
    """Unnormalized Schatten-1 norm (sum of singular values).

    An exactly Hermitian input, such as a difference of two
    ``DensityMatrix`` entries, takes the sum of its absolute eigenvalues,
    one connected component of its nonzero pattern at a time
    (``hermitian_eigvalsh``); anything else takes the singular values.
    """
    A = np.asarray(A)
    if A.ndim == 2 and np.array_equal(A, A.conj().T):
        return float(np.abs(hermitian_eigvalsh(A)).sum())
    return float(np.linalg.svd(A, compute_uv=False).sum())


def trace_distance(A, B) -> float:
    """||A - B||_1, unnormalized (orthogonal pure states are at distance 2).
    Two ``DensityMatrix`` inputs skip the Hermiticity test, as their
    difference is exactly Hermitian (IEEE subtraction acts on each part
    apart), and ``hermitian_eigvalsh`` gathers it one component at a time,
    from the support of a ``SupportDensity``."""
    a, b = _operand(A), _operand(B)
    if a.shape != b.shape:
        raise DomainError(f"shape mismatch {a.shape} vs {b.shape}")
    if isinstance(A, DensityMatrix) and isinstance(B, DensityMatrix):
        return float(np.abs(hermitian_eigvalsh(a, b)).sum())
    return trace_norm(_dense(a) - _dense(b))
