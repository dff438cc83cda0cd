"""Schur-Weyl structure of (C^d)^{x t}.

Builds, per partition, the isotypic projector (from exact characters), an
explicit orthonormal basis in which both U^{x t} and the tensor-slot
permutations are block diagonal, and the restriction of the distinct-tuple
projector to each unitary-group block.  Dimension and trace identities are
kept in exact integer/rational arithmetic; matrices are the only floats.

The basis is real: it is built from eigenvectors of real combinations of
permutation matrices and Young's orthogonal (real) irrep matrices, and is
stored as float64, so rotating an operator into it takes real matrix
products on the interleaved real view of the complex operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    subsystem_perm_op,
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
    return DenseOperator(_char_weighted_perm_sum(coeffs, d, t), (d,) * t)


@dataclass(frozen=True)
class IsotypicBlock:
    partition: Partition
    projector: DenseOperator
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

    @property
    def basis_matrix(self) -> np.ndarray:
        return np.concatenate([b.basis for b in self.blocks], axis=1)

    def block_slices(self) -> list[slice]:
        out, off = [], 0
        for b in self.blocks:
            out.append(slice(off, off + b.block_dim))
            off += b.block_dim
        return out


def schur_weyl_basis(d: int, t: int, verify: bool = True) -> IsotypicDecomposition:
    """Construct the full decomposition for (d, t).

    Per partition, matrix units assembled from the orthogonal irrep map the
    first Specht column onto the others, so one orthonormalization of the
    (1,1) unit's range yields the whole block basis deterministically.
    """
    n = d**t
    check_capacity(n)
    perms = all_permutations(t)
    tfact = factorial(t)
    blocks = []
    for lam in partitions(t):
        if lam.rows > d:
            continue
        rep = young_orthogonal_rep(lam)
        vdim = rep.dim
        wdim = weyl_dim(lam, d)
        scale = vdim / tfact

        unit_00 = _char_weighted_perm_sum({pi: scale * rep[pi][0, 0] for pi in perms}, d, t)
        evals, evecs = np.linalg.eigh(unit_00)
        if np.abs(np.round(evals) - evals).max() > RANK_TOL:
            raise ConsistencyError(f"matrix-unit eigenvalues not 0/1 for {lam}: {evals}")
        sel = evals > 0.5
        if int(sel.sum()) != wdim:
            raise ConsistencyError(f"rank {sel.sum()} != weyl dim {wdim} for {lam}")
        w_vecs = evecs[:, sel]

        basis = np.zeros((n, wdim * vdim))
        for j in range(vdim):
            if j == 0:
                cols = w_vecs
            else:
                unit_j0 = _char_weighted_perm_sum({pi: scale * rep[pi][j, 0] for pi in perms}, d, t)
                cols = unit_j0 @ w_vecs
            basis[:, j::vdim] = cols

        proj = isotypic_projector(lam, d, t)
        lam_mask = distinct_mask(d, t).astype(float)
        conj = basis.T @ (lam_mask[:, None] * basis)
        conj = conj.reshape(wdim, vdim, wdim, vdim)
        dist_block = np.einsum("ajbj->ab", conj) / vdim

        blocks.append(
            IsotypicBlock(
                partition=lam,
                projector=proj,
                weyl_dim=wdim,
                specht_dim=vdim,
                basis=basis,
                distinct_block=dist_block,
            )
        )
    decomp = IsotypicDecomposition(d=d, t=t, blocks=tuple(blocks))
    if verify:
        verify_decomposition(decomp)
    return decomp


def verify_decomposition(decomp: IsotypicDecomposition, seed: int = 7, tol: float = 1e-8) -> dict:
    """Check the constructed basis against everything it promises:
    orthonormality, completeness of the projectors, block-diagonal action
    of U^{x t} with the Specht factor untouched, and tensor-slot
    permutations acting by the same orthogonal matrices used to build it.

    Returns the measured residuals; raises if any exceeds ``tol``.
    """
    d, t = decomp.d, decomp.t
    n = d**t
    B = decomp.basis_matrix
    if B.shape != (n, n):
        raise ConsistencyError(f"basis is not square: {B.shape}")
    residuals = {
        "orthonormality": float(np.abs(B.T @ B - np.eye(n)).max()),
        "completeness": float(
            np.abs(sum(b.projector.entries for b in decomp.blocks) - np.eye(n)).max()
        ),
    }

    U = DenseOperator(haar_unitaries(d, 1, np.random.default_rng(seed))[0])
    Ut = tensor_power(U, t).entries
    rotated = B.T @ Ut @ B
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
    residuals["unitary_off_block"] = float(np.abs(rotated[mask]).max()) if mask.any() else 0.0

    perm_res = off_res = 0.0
    for pi in all_permutations(t):
        rotated = B.T @ subsystem_perm_op(pi, d).entries @ B
        for sl, block in zip(slices, decomp.blocks):
            expected = np.kron(np.eye(block.weyl_dim), young_orthogonal_rep(block.partition)[pi])
            perm_res = max(perm_res, float(np.abs(rotated[sl, sl] - expected).max()))
        if mask.any():
            off_res = max(off_res, float(np.abs(rotated[mask]).max()))
    residuals["perm_block_action"] = perm_res
    residuals["perm_off_block"] = off_res
    residuals["distinct_block_idempotence"] = max(
        float(np.abs(b.distinct_block @ b.distinct_block - b.distinct_block).max())
        for b in decomp.blocks
    )

    failed = {k: v for k, v in residuals.items() if v > tol}
    if failed:
        raise ConsistencyError(f"decomposition verification failed: {failed}")
    return residuals


def distinct_block(lam: Partition, decomp: IsotypicDecomposition) -> DenseOperator:
    """Restriction of the distinct-tuple projector to the unitary-group
    factor of block ``lam`` (in the block's w-coordinates)."""
    for b in decomp.blocks:
        if b.partition == lam:
            return DenseOperator(b.distinct_block)
    raise DomainError(f"partition {lam} not present in decomposition (d={decomp.d})")


# ---------------------------------------------------------------------------
# Workspace-register-aware rotation helpers shared with the twirl channels.
# ---------------------------------------------------------------------------

def _conjugate_real(matrix: np.ndarray, M: np.ndarray, d: int, t: int) -> np.ndarray:
    """(M^T x I) X (M x I) for a real M on the system factor of a complex X.

    Each of the two passes is one real matrix product on the interleaved
    float64 view of a contiguous complex array: it multiplies M^T into the
    leading system axis, then turns the axes (a, e, b, f) into (b, f, a', e)
    so the other system axis leads.
    """
    dim_e = workspace_dim(matrix.shape[0], d, t)
    n = d**t
    arr = np.asarray(matrix, dtype=complex)
    for _ in range(2):
        flat = np.ascontiguousarray(arr).reshape(n, -1).view(np.float64)
        arr = (M.T @ flat).view(complex).reshape(n, dim_e, n, dim_e).transpose(2, 3, 0, 1)
    return arr.reshape(n * dim_e, n * dim_e)


def rotate_to_basis(matrix: np.ndarray, decomp: IsotypicDecomposition) -> np.ndarray:
    """Conjugate the system factor into the Schur-Weyl basis, carrying any
    trailing workspace factor along untouched: (B^T x I) X (B x I)."""
    return _conjugate_real(matrix, decomp.basis_matrix, decomp.d, decomp.t)


def rotate_from_basis(matrix: np.ndarray, decomp: IsotypicDecomposition) -> np.ndarray:
    """The inverse of ``rotate_to_basis``: (B x I) X (B^T x I)."""
    return _conjugate_real(matrix, decomp.basis_matrix.T, decomp.d, decomp.t)


def block_footprints(rotated: np.ndarray, decomp: IsotypicDecomposition):
    """For an operator already in the Schur-Weyl basis (``rotate_to_basis``),
    yield per block: the block, the slice of its rows (workspace included),
    and its footprint, the partial trace of the diagonal block over the
    unitary-group factor, shaped (specht, workspace, specht, workspace)."""
    dim_e = workspace_dim(rotated.shape[0], decomp.d, decomp.t)
    for sl, block in zip(decomp.block_slices(), decomp.blocks):
        w, v = block.weyl_dim, block.specht_dim
        rows = slice(sl.start * dim_e, sl.stop * dim_e)
        sub = rotated[rows, rows].reshape(w, v, dim_e, w, v, dim_e)
        yield block, rows, np.einsum("ijeikf->jekf", sub)


def partial_trace_over_W(lam: Partition, rho, decomp: IsotypicDecomposition) -> DenseOperator:
    """Tr over the unitary-group factor of 1_P rho 1_P for block ``lam``,
    returning an operator on (Specht factor) x (workspace)."""
    matrix = rho.entries if hasattr(rho, "entries") else np.asarray(rho)
    for block, _, footprint in block_footprints(rotate_to_basis(matrix, decomp), decomp):
        if block.partition == lam:
            size = footprint.shape[0] * footprint.shape[1]
            return DenseOperator(footprint.reshape(size, size), footprint.shape[:2])
    raise DomainError(f"partition {lam} not present in decomposition (d={decomp.d})")


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
    When a decomposition is supplied the numeric block traces are attached
    and must match the rationals to 1e-9.
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
            if abs(numeric - float(tr_block)) > 1e-9:
                raise ConsistencyError(
                    f"numeric distinct-block trace {numeric} != {tr_block} for {lam}"
                )
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
