"""Schur-Weyl structure of (C^d)^{x t}.

Builds, per partition, an explicit orthonormal basis in which both U^{x t}
and the tensor-slot permutations are block diagonal, and the restriction
of the distinct-tuple projector to each unitary-group block.  The isotypic
projectors (exact characters) are built on demand, not kept.  Dimension
and trace identities are kept in exact integer/rational arithmetic;
matrices are the only floats.

The basis is real: it is built from eigenvectors of real combinations of
permutation matrices and Young's orthogonal (real) irrep matrices, and is
stored as float64.

The basis is built orbit by orbit.  A sum of slot permutations never moves
a basis tuple out of its S_t-orbit (the tuples with the same sorted
digits), so the matrix unit whose range seeds each block is diagonalised
one orbit block at a time, and every basis vector is supported on a single
orbit.  So the basis is a set of s x s orbit blocks, and every product with
it is a rotation that applies them in batched real products on the
interleaved real view of the complex operator.  The blockwise twirl outputs
have exact zeros between orbits, which ``_unrotate_orbit_blocks`` uses to
rotate them back one orbit block at a time, onto the orbit blocks as
their support; ``operators.trace_distance`` hands them on that support to
``hermitian_eigvalsh``, which splits them into its connected components.

``schur_weyl_basis`` is cached per (d, t) and its arrays are read-only.
It does not check itself: ``verify_decomposition`` and ``ratio_report``
return residuals and numeric traces, and only the records of the
``verify`` suite judge them against a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

import numpy as np

from .errors import ConsistencyError, DomainError
from .operators import (
    DenseOperator,
    check_capacity,
    distinct_mask,
    falling_factorial,
    haar_unitaries,
    subsystem_perm_index_map,
    system_dim,
    tensor_power,
    workspace_dim,
)
from .symgroup import (
    Partition,
    PermutationT,
    all_permutations,
    character,
    partitions,
    specht_dim,
    weyl_dim,
    young_orthogonal_rep,
)

RANK_TOL = 1e-7  # projector eigenvalues are 0/1; anything inside the gap is a bug
ORBIT_CHUNK = 4  # orbits per batched rotation product; bounds its temporaries


def _char_weighted_perm_sum(coeffs: dict[PermutationT, float], d: int, t: int) -> np.ndarray:
    """Sum of real coeff * R_pi over S_t, assembled via index maps."""
    n = d**t
    out = np.zeros((n, n))
    cols = np.arange(n)
    for pi, c in coeffs.items():
        if c == 0:
            continue
        out[subsystem_perm_index_map(pi, d), cols] += c
    return out


def isotypic_projector(lam: Partition, d: int, t: int) -> DenseOperator:
    """Projector onto the isotypic block of ``lam``: (dim V/t!) sum of
    chi(pi^{-1}) R_pi.  Characters are real, so chi(pi^{-1}) = chi(pi)."""
    if lam.t != t:
        raise DomainError(f"partition of {lam.t} does not match t={t}")
    if d < lam.rows:
        raise DomainError(f"block absent: d={d} smaller than {lam.rows} rows")
    check_capacity(d**t)
    scale = specht_dim(lam) / factorial(t)
    coeffs = {pi: scale * character(lam, pi) for pi in all_permutations(t)}
    return DenseOperator(_char_weighted_perm_sum(coeffs, d, t))


@dataclass(frozen=True)
class IsotypicBlock:
    partition: Partition
    weyl_dim: int
    specht_dim: int
    basis: np.ndarray  # real (d^t, weyl_dim * specht_dim), columns |w_i>|v_j>, j fastest
    distinct_block: np.ndarray  # real (weyl_dim, weyl_dim) restriction of the distinct projector

    @property
    def block_dim(self) -> int:
        return self.weyl_dim * self.specht_dim


@dataclass(frozen=True)
class IsotypicDecomposition:
    d: int
    t: int
    blocks: tuple[IsotypicBlock, ...]

    @cached_property
    def basis_matrix(self) -> np.ndarray:
        """The block bases side by side, real (d^t, d^t): built on first
        access and read-only, like the arrays it is made of."""
        matrix = np.concatenate([b.basis for b in self.blocks], axis=1)
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def orbit_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """``basis_matrix`` factored by orbit, read-only: per orbit size s, the
        orbits' tuples and the s columns each owns, both (count, s), and the
        blocks B[tuples, columns], (count, s, s).  A nonzero of B outside the
        blocks raises ``ConsistencyError``, so block products are dense ones."""
        B = self.basis_matrix
        key = _orbit_key(self.d, self.t)
        col_key = key[np.abs(B).argmax(axis=0)]  # each column's orbit, by its largest entry
        if not np.array_equal(np.bincount(key, minlength=len(B)), np.bincount(col_key, minlength=len(B))):
            raise ConsistencyError("basis columns do not lie s to each orbit of s tuples")
        factors = [(r, c, B[r[:, :, None], c[:, None, :]])
                   for r, c in zip(_orbits_by_size(key), _orbits_by_size(col_key))]
        if sum(np.count_nonzero(f[2]) for f in factors) != np.count_nonzero(B):
            raise ConsistencyError("basis has a nonzero outside its orbit blocks")
        for array in (a for f in factors for a in f):
            array.setflags(write=False)
        return tuple(factors)

    def block_slices(self) -> list[slice]:
        out, off = [], 0
        for b in self.blocks:
            out.append(slice(off, off + b.block_dim))
            off += b.block_dim
        return out


def _orbit_key(d: int, t: int) -> np.ndarray:
    """Each basis tuple's S_t-orbit, labelled by the index of its sorted tuple."""
    digits = np.stack(np.unravel_index(np.arange(d**t), (d,) * t))
    return np.ravel_multi_index(np.sort(digits, axis=0), (d,) * t)


def _orbits_by_size(key: np.ndarray) -> list[np.ndarray]:
    """Indices grouped by orbit ``key``, one (orbits, size) array per size."""
    order = np.argsort(key, kind="stable")  # each orbit contiguous
    size = np.bincount(key, minlength=len(key))[key[order]]
    return [order[size == s].reshape(-1, s) for s in sorted(set(size.tolist()))]


def _unit_range(unit: np.ndarray, orbits: list[np.ndarray], lam: Partition) -> np.ndarray:
    """Orthonormal columns spanning the range of the projector ``unit``,
    which has no entry between orbits: one batched ``eigh`` per orbit size,
    so each column is supported on one orbit."""
    n = len(unit)
    cols = []
    for idx in orbits:
        evals, evecs = np.linalg.eigh(unit[idx[:, :, None], idx[:, None, :]])
        if np.abs(np.round(evals) - evals).max() > RANK_TOL:
            raise ConsistencyError(f"matrix-unit eigenvalues not 0/1 for {lam}: {evals}")
        orbit, k = np.nonzero(evals > 0.5)
        vecs = np.zeros((n, len(orbit)))
        vecs[idx[orbit], np.arange(len(orbit))[:, None]] = evecs[orbit, :, k]
        cols.append(vecs)
    return np.concatenate(cols, axis=1)


@lru_cache(maxsize=8)
def schur_weyl_basis(d: int, t: int) -> IsotypicDecomposition:
    """Construct the full decomposition for (d, t), cached and read-only.

    Per partition, matrix units assembled from the orthogonal irrep map the
    first Specht column onto the others, so one orthonormalization of the
    (1,1) unit's range, orbit by orbit, yields the whole block basis
    deterministically.
    """
    n = system_dim(d, t)
    check_capacity(n)
    perms = all_permutations(t)
    tfact = factorial(t)
    mask = distinct_mask(d, t).astype(float)
    orbits = _orbits_by_size(_orbit_key(d, t))
    blocks = []
    for lam in partitions(t):
        if lam.rows > d:
            continue
        rep = young_orthogonal_rep(lam)
        vdim = rep.dim
        wdim = weyl_dim(lam, d)
        scale = vdim / tfact

        unit_00 = _char_weighted_perm_sum({pi: scale * rep[pi][0, 0] for pi in perms}, d, t)
        w_vecs = _unit_range(unit_00, orbits, lam)
        if w_vecs.shape[1] != wdim:
            raise ConsistencyError(f"rank {w_vecs.shape[1]} != weyl dim {wdim} for {lam}")

        basis = np.zeros((n, wdim * vdim))
        for j in range(vdim):
            if j == 0:
                cols = w_vecs
            else:
                unit_j0 = _char_weighted_perm_sum({pi: scale * rep[pi][j, 0] for pi in perms}, d, t)
                cols = unit_j0 @ w_vecs
            basis[:, j::vdim] = cols

        conj = basis.T @ (mask[:, None] * basis)
        conj = conj.reshape(wdim, vdim, wdim, vdim)
        dist_block = np.einsum("ajbj->ab", conj) / vdim
        basis.setflags(write=False)  # cached, so shared by every caller
        dist_block.setflags(write=False)

        blocks.append(
            IsotypicBlock(
                partition=lam,
                weyl_dim=wdim,
                specht_dim=vdim,
                basis=basis,
                distinct_block=dist_block,
            )
        )
    return IsotypicDecomposition(d=d, t=t, blocks=tuple(blocks))


def verify_decomposition(decomp: IsotypicDecomposition, seed: int = 7) -> dict:
    """Measure the constructed basis against everything it promises:
    orthonormality, completeness of the projectors, block-diagonal action
    of U^{x t} with the Specht factor untouched, and tensor-slot
    permutations acting by the same orthogonal matrices used to build it.

    Returns the residuals by name; the ``basis_*`` check records judge them.
    """
    d, t = decomp.d, decomp.t
    n = d**t
    B = decomp.basis_matrix
    if B.shape != (n, n):
        raise ConsistencyError(f"basis is not square: {B.shape}")
    residuals = {"orthonormality": float(np.abs(B.T @ B - np.eye(n)).max())}
    completeness = -np.eye(n, dtype=complex)
    for b in decomp.blocks:
        completeness += isotypic_projector(b.partition, d, t).entries
    residuals["completeness"] = float(np.abs(completeness).max())
    del completeness

    U = DenseOperator(haar_unitaries(d, 1, np.random.default_rng(seed))[0])
    rotated = rotate_to_basis(tensor_power(U, t).entries, decomp)
    slices = decomp.block_slices()
    mask = np.ones((n, n), dtype=bool)
    for sl in slices:
        mask[sl, sl] = False
    specht_res = 0.0
    for sl, block in zip(slices, decomp.blocks):
        w, v = block.weyl_dim, block.specht_dim
        inner = rotated[sl, sl].reshape(w, v, w, v)
        off = inner - np.einsum("ajbj->ab", inner)[:, None, :, None] * np.eye(v)[None, :, None, :] / v
        specht_res = max(specht_res, float(np.abs(off).max()))
    residuals["unitary_block_action"] = specht_res
    residuals["unitary_off_block"] = float(np.abs(rotated[mask]).max(initial=0.0))

    del rotated
    perm_res = off_res = 0.0
    for pi in all_permutations(t):
        # R_pi B is B with its rows gathered: row m(a) of it is row a of B
        rotated = B.T @ B[np.argsort(subsystem_perm_index_map(pi, d))]
        for sl, block in zip(slices, decomp.blocks):
            expected = np.kron(np.eye(block.weyl_dim), young_orthogonal_rep(block.partition)[pi])
            perm_res = max(perm_res, float(np.abs(rotated[sl, sl] - expected).max()))
        off_res = max(off_res, float(np.abs(rotated[mask]).max(initial=0.0)))
    residuals["perm_block_action"] = perm_res
    residuals["perm_off_block"] = off_res
    residuals["distinct_block_idempotence"] = max(
        float(np.abs(b.distinct_block @ b.distinct_block - b.distinct_block).max())
        for b in decomp.blocks
    )
    return residuals


# ---------------------------------------------------------------------------
# Workspace-register-aware rotation helpers shared with the twirl channels.
# ---------------------------------------------------------------------------

def _rotate_rows(arr: np.ndarray, decomp: IsotypicDecomposition, inverse: bool,
                 out: np.ndarray | None = None) -> np.ndarray:
    """(B^T x I) A, or (B x I) A when ``inverse``, for the real basis B on the
    leading system axis of a C-contiguous complex matrix or ket A, into
    ``out`` (not sharing memory with A) when given.  For ORBIT_CHUNK orbits
    at a time, it gathers their rows of the interleaved float64 view,
    applies their s x s blocks in one batched product and scatters them."""
    workspace_dim(len(arr), decomp.d, decomp.t)  # d^t must divide the dimension
    n = decomp.d**decomp.t
    flat = arr.reshape(n, -1).view(np.float64)
    res = np.empty_like(flat) if out is None else out.reshape(n, -1).view(np.float64)
    for rows, cols, blocks in decomp.orbit_blocks:
        src, dst, mats = (cols, rows, blocks) if inverse else (rows, cols, blocks.transpose(0, 2, 1))
        for k in range(0, len(rows), ORBIT_CHUNK):
            sl = slice(k, k + ORBIT_CHUNK)
            res[dst[sl]] = mats[sl] @ flat[src[sl]]
    return res.view(complex).reshape(arr.shape)


def _conjugate_real(matrix: np.ndarray, decomp: IsotypicDecomposition, inverse: bool) -> np.ndarray:
    """(B^T x I) X (B x I) for the real basis B on the system factor of a
    complex X, or (B x I) X (B^T x I) when ``inverse``.

    Two ``_rotate_rows`` passes, with a C-order copy of the transpose
    between them; the second pass's result is returned as its transposed
    view.
    """
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    half = _rotate_rows(matrix, decomp, inverse)
    return _rotate_rows(np.ascontiguousarray(half.T), decomp, inverse, out=half).T


def _unrotate_orbit_blocks(matrix: np.ndarray, decomp: IsotypicDecomposition
                           ) -> tuple[np.ndarray, np.ndarray]:
    """(B x I) X (B^T x I) for an X in the Schur-Weyl basis, as the flat
    positions and values of its orbit blocks: each orbit's (s dim_e)^2 block
    X_O is gathered, and (B_O x I) X_O (B_O^T x I), made as
    ``_conjugate_real`` makes it, lands on the orbit's tuples.  An exact
    nonzero count of the gathered blocks first shows that nothing lies
    between orbits (``ConsistencyError`` if something does)."""
    span = np.arange(workspace_dim(len(matrix), decomp.d, decomp.t))
    gathered = []
    for rows, cols, blocks in decomp.orbit_blocks:
        src, dst = ((idx[:, :, None] * len(span) + span).reshape(len(idx), -1) for idx in (cols, rows))
        gathered.append((dst, blocks, matrix[src[:, :, None], src[:, None, :]]))
    if sum(np.count_nonzero(x) for _, _, x in gathered) != np.count_nonzero(matrix):
        raise ConsistencyError("a Schur-Weyl-basis entry lies between two orbits")
    positions, values = [], []
    for dst, blocks, x in gathered:
        for _ in range(2):
            flat = x.reshape(len(x), blocks.shape[1], -1).view(np.float64)
            x = np.ascontiguousarray((blocks @ flat).view(complex).reshape(x.shape).swapaxes(1, 2))
        positions.append((dst[:, :, None] * len(matrix) + dst[:, None, :]).ravel())
        values.append(x.ravel())
    return np.concatenate(positions), np.concatenate(values)


def rotate_to_basis(matrix: np.ndarray, decomp: IsotypicDecomposition) -> np.ndarray:
    """Conjugate the system factor into the Schur-Weyl basis, carrying any
    trailing workspace factor along untouched: (B^T x I) X (B x I)."""
    return _conjugate_real(matrix, decomp, inverse=False)


def rotate_from_basis(matrix: np.ndarray, decomp: IsotypicDecomposition) -> np.ndarray:
    """The inverse of ``rotate_to_basis``: (B x I) X (B^T x I)."""
    return _conjugate_real(matrix, decomp, inverse=True)


def block_footprints(rotated: np.ndarray, decomp: IsotypicDecomposition):
    """For an operator already in the Schur-Weyl basis (``rotate_to_basis``),
    yield per block: the block, the slice of its rows (workspace included),
    and its footprint, the partial trace of the diagonal block over the
    unitary-group factor, shaped (specht, workspace, specht, workspace).
    A 1-D ``rotated`` is a ket (B^T x I) psi, and stands for its projector."""
    dim_e = workspace_dim(rotated.shape[0], decomp.d, decomp.t)
    for sl, block in zip(decomp.block_slices(), decomp.blocks):
        w, v = block.weyl_dim, block.specht_dim
        rows = slice(sl.start * dim_e, sl.stop * dim_e)
        if rotated.ndim == 1:
            ket = rotated[rows].reshape(w, v, dim_e)
            yield block, rows, np.einsum("ije,ikf->jekf", ket, ket.conj())
        else:
            yield block, rows, np.einsum("ijeikf->jekf", rotated[rows, rows].reshape(w, v, dim_e, w, v, dim_e))


# ---------------------------------------------------------------------------
# Exact trace/ratio bookkeeping for the distinct-subspace blocks.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioRecord:
    partition: Partition
    tr_distinct: int  # Tr of the distinct projector, d!/(d-t)!
    tr_distinct_block: Fraction  # exact dim V/t! * Tr of the distinct projector
    tr_weyl: int
    deficit: Fraction  # 1 - tr_distinct_block / tr_weyl
    numeric_tr_distinct_block: float | None = None


def ratio_report(d: int, t: int, decomp: IsotypicDecomposition | None = None) -> list[RatioRecord]:
    """Per-partition distinct-block traces and deficits, exactly.

    The block trace is dim(V)/t! times the distinct-projector trace, and the
    deficit collapses to 1 - (d!/(d-t)!)/prod(d + j - i) over the boxes.
    When a decomposition is supplied the numeric block traces are attached;
    the ``distinct_block_trace`` check record compares them with the rationals.
    """
    tr_lambda = falling_factorial(d, t)
    records = []
    for lam in partitions(t):
        if lam.rows > d:
            continue
        vdim = specht_dim(lam)
        wdim = weyl_dim(lam, d)
        tr_block = Fraction(vdim * tr_lambda, factorial(t))
        if tr_block.denominator != 1:
            raise ConsistencyError(f"distinct-block trace not integral for {lam}")
        deficit = 1 - Fraction(tr_block, wdim)
        numeric = None
        if decomp is not None:
            block = next(b for b in decomp.blocks if b.partition == lam)
            numeric = float(np.trace(block.distinct_block).real)
        records.append(
            RatioRecord(
                partition=lam,
                tr_distinct=tr_lambda,
                tr_distinct_block=tr_block,
                tr_weyl=wdim,
                deficit=deficit,
                numeric_tr_distinct_block=numeric,
            )
        )
    return records
