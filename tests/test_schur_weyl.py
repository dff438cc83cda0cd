"""Isotypic projectors, the explicit block basis, and distinct-subspace blocks."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from pru_lab import (
    DensityMatrix,
    DomainError,
    Partition,
    PermutationT,
    all_permutations,
    distinct_block,
    distinct_projector,
    isotypic_projector,
    partial_trace_over_W,
    partitions,
    ratio_report,
    schur_weyl_basis,
    specht_dim,
    subsystem_perm_op,
    verify_decomposition,
    weyl_dim,
    young_orthogonal_rep,
)
from pru_lab.operators import haar_unitaries
from pru_lab.schur_weyl import rotate_from_basis, rotate_to_basis

from conftest import random_state


def projector_rank(M, tol=0.5):
    return int((np.linalg.eigvalsh(M) > tol).sum())


def test_symmetric_projector_closed_form():
    P = isotypic_projector(Partition((2,)), 4, 2)
    swap = subsystem_perm_op(PermutationT((1, 0)), 4).entries
    assert np.abs(P.entries - (np.eye(16) + swap) / 2).max() < 1e-12


def test_antisymmetric_trace_and_rank():
    P = isotypic_projector(Partition((1, 1)), 4, 2)
    assert abs(np.trace(P.entries) - 6) < 1e-9
    assert projector_rank(P.entries) == 6


def test_mixed_block_trace():
    P = isotypic_projector(Partition((2, 1)), 4, 3)
    assert abs(np.trace(P.entries) - 40) < 1e-9
    assert projector_rank(P.entries) == 40
    assert projector_rank(P.entries) // specht_dim(Partition((2, 1))) == weyl_dim(Partition((2, 1)), 4)


@pytest.mark.parametrize("d,t", [(2, 2), (4, 2), (8, 2), (2, 3), (4, 3), (8, 3)])
def test_projector_completeness_and_orthogonality(d, t):
    blocks = [isotypic_projector(lam, d, t) for lam in partitions(t) if lam.rows <= d]
    total = sum(b.entries for b in blocks)
    assert np.abs(total - np.eye(d**t)).max() < 1e-8
    for i, a in enumerate(blocks):
        assert np.abs(a.entries @ a.entries - a.entries).max() < 1e-9
        for b in blocks[i + 1 :]:
            assert np.abs(a.entries @ b.entries).max() < 1e-8


def test_basis_dims_d2t2():
    dec = schur_weyl_basis(2, 2)
    assert [(b.partition.parts, b.weyl_dim, b.specht_dim) for b in dec.blocks] == [
        ((2,), 3, 1),
        ((1, 1), 1, 1),
    ]


def test_basis_dims_d4t2():
    dec = schur_weyl_basis(4, 2)
    assert [(b.weyl_dim, b.specht_dim) for b in dec.blocks] == [(10, 1), (6, 1)]


def test_basis_verification_residuals():
    dec = schur_weyl_basis(4, 3, verify=False)
    res = verify_decomposition(dec, seed=11)
    assert max(res.values()) < 1e-8


def test_unitary_matrix_elements_vanish_off_block():
    d, t = 4, 2
    dec = schur_weyl_basis(d, t)
    U = haar_unitaries(d, 1, np.random.default_rng(3))[0]
    Ut = np.kron(U, U)
    B = dec.basis_matrix
    rotated = B.conj().T @ Ut @ B
    sl0, sl1 = dec.block_slices()
    assert np.abs(rotated[sl0, sl1]).max() < 1e-9
    assert np.abs(rotated[sl1, sl0]).max() < 1e-9


def test_perm_action_matches_yor_matrices():
    d, t = 4, 3
    dec = schur_weyl_basis(d, t)
    B = dec.basis_matrix
    for pi in all_permutations(t):
        R = subsystem_perm_op(pi, d).entries
        rotated = B.conj().T @ R @ B
        for sl, block in zip(dec.block_slices(), dec.blocks):
            expected = np.kron(np.eye(block.weyl_dim), young_orthogonal_rep(block.partition)[pi])
            assert np.abs(rotated[sl, sl] - expected).max() < 1e-8


def test_distinct_blocks_d4t2():
    dec = schur_weyl_basis(4, 2)
    sym, anti = dec.blocks
    assert np.abs(anti.distinct_block - np.eye(6)).max() < 1e-9
    assert abs(np.trace(sym.distinct_block).real - 6) < 1e-9
    got = distinct_block(Partition((2,)), dec)
    assert np.abs(got.entries - sym.distinct_block).max() == 0
    with pytest.raises(DomainError):
        distinct_block(Partition((3,)), dec)


def test_distinct_block_identity_at_t1():
    dec = schur_weyl_basis(4, 1)
    (blk,) = dec.blocks
    assert np.abs(blk.distinct_block - np.eye(4)).max() < 1e-10


@pytest.mark.parametrize("d,t", [(4, 2), (8, 2), (4, 3), (8, 3)])
def test_distinct_trace_identity_exact(d, t):
    dec = schur_weyl_basis(d, t, verify=False)
    for rec in ratio_report(d, t, dec):
        expected = Fraction(specht_dim(rec.partition) * rec.tr_distinct, factorial(t))
        assert rec.tr_distinct_block == expected
        assert abs(rec.numeric_tr_distinct_block - float(expected)) < 1e-9


def test_distinct_reconstruction():
    d, t = 4, 2
    dec = schur_weyl_basis(d, t)
    n = d**t
    B = dec.basis_matrix
    recon = np.zeros((n, n), dtype=complex)
    off = 0
    for b in dec.blocks:
        emb = np.zeros((n, n), dtype=complex)
        emb[off : off + b.block_dim, off : off + b.block_dim] = np.kron(
            b.distinct_block, np.eye(b.specht_dim)
        )
        recon += B @ emb @ B.conj().T
        off += b.block_dim
    assert np.abs(recon - distinct_projector(d, t).entries).max() < 1e-9


def test_partial_trace_over_w_completeness():
    d, t, dim_e = 4, 2, 4
    dec = schur_weyl_basis(d, t)
    rho = random_state(d**t * dim_e, (d**t, dim_e), 5).to_density()
    total = sum(
        float(np.trace(partial_trace_over_W(b.partition, rho, dec).entries).real)
        for b in dec.blocks
    )
    assert abs(total - 1) < 1e-9


def test_partial_trace_over_w_maximally_mixed():
    d, t = 4, 2
    dec = schur_weyl_basis(d, t)
    rho = DensityMatrix(np.eye(d**t) / d**t, (d**t, 1))
    for b in dec.blocks:
        out = partial_trace_over_W(b.partition, rho, dec)
        expect_trace = b.weyl_dim * b.specht_dim / d**t
        assert abs(float(np.trace(out.entries).real) - expect_trace) < 1e-10


def test_partial_trace_over_w_symmetric_product():
    dec = schur_weyl_basis(2, 2)
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1
    rho = DensityMatrix(np.outer(e00, e00), (4, 1))
    tr_sym = float(np.trace(partial_trace_over_W(Partition((2,)), rho, dec).entries).real)
    tr_anti = float(np.trace(partial_trace_over_W(Partition((1, 1)), rho, dec).entries).real)
    assert abs(tr_sym - 1) < 1e-12 and abs(tr_anti) < 1e-12


def test_ratio_report_values():
    recs = {r.partition.parts: r for r in ratio_report(4, 2)}
    assert float(recs[(2,)].deficit) == pytest.approx(0.4, abs=1e-15)
    assert float(recs[(1, 1)].deficit) == 0
    recs16 = {r.partition.parts: r for r in ratio_report(16, 2)}
    assert float(recs16[(2,)].deficit) == pytest.approx(1 - 240 / 272, abs=1e-15)
    assert float(recs16[(2,)].deficit) <= 2 * 4 / 16


def test_ratio_report_envelope_grid():
    for d in (4, 8, 16):
        for t in (2, 3):
            for rec in ratio_report(d, t):
                assert 0 <= float(rec.deficit) <= 2 * t * t / d


def test_isotypic_projector_domain_errors():
    with pytest.raises(DomainError):
        isotypic_projector(Partition((1, 1, 1)), 2, 3)
    with pytest.raises(DomainError):
        isotypic_projector(Partition((2,)), 4, 3)


@pytest.mark.parametrize("d, t, dim_e", [(2, 2, 3), (4, 3, 2)])
def test_rotations_match_kron_conjugation(d, t, dim_e):
    dec = schur_weyl_basis(d, t, verify=False)
    B = dec.basis_matrix
    assert B.dtype == np.float64
    assert all(b.basis.dtype == np.float64 for b in dec.blocks)
    dim = d**t * dim_e
    rng = np.random.default_rng(d * 10 + t)
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    K = np.kron(B, np.eye(dim_e))
    assert np.abs(rotate_to_basis(X, dec) - K.conj().T @ X @ K).max() < 1e-12
    assert np.abs(rotate_from_basis(X, dec) - K @ X @ K.conj().T).max() < 1e-12
