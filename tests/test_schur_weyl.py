"""Isotypic projectors, the explicit block basis, and distinct-subspace blocks."""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from pru_lab import (
    SupportDensity,
    ConsistencyError,
    DensityMatrix,
    DomainError,
    Partition,
    PermutationT,
    all_permutations,
    distinct_projector,
    isotypic_projector,
    partitions,
    ratio_report,
    schur_weyl_basis,
    specht_dim,
    subsystem_perm_op,
    verify_decomposition,
    weyl_dim,
    young_orthogonal_rep,
)
from pru_lab import twirls
from pru_lab.operators import haar_unitaries
from pru_lab.schur_weyl import block_footprints, rotate_from_basis, rotate_to_basis
from pru_lab.twirls import haar_twirl_schur_weyl, pf_twirl_distinct_formula

from conftest import random_distinct_state, random_state


def projector_rank(M, tol=0.5):
    return int((np.linalg.eigvalsh(M) > tol).sum())


def footprint_traces(rho, dec):
    """Tr of each block's footprint, the partial trace over its unitary-group
    factor, keyed by partition."""
    rotated = rotate_to_basis(rho.entries, dec)
    return {b.partition: float(np.einsum("jeje->", fp).real) for b, _, fp in block_footprints(rotated, dec)}


def test_symmetric_projector_closed_form():
    P = isotypic_projector(Partition((2,)), 4, 2)
    swap = subsystem_perm_op(PermutationT((1, 0)), 4)
    assert np.abs(P - (np.eye(16) + swap) / 2).max() < 1e-12


def test_antisymmetric_trace_and_rank():
    P = isotypic_projector(Partition((1, 1)), 4, 2)
    assert abs(np.trace(P) - 6) < 1e-9
    assert projector_rank(P) == 6


def test_mixed_block_trace():
    P = isotypic_projector(Partition((2, 1)), 4, 3)
    assert abs(np.trace(P) - 40) < 1e-9
    assert projector_rank(P) == 40
    assert projector_rank(P) // specht_dim(Partition((2, 1))) == weyl_dim(Partition((2, 1)), 4)


@pytest.mark.parametrize("d,t", [(2, 2), (4, 2), (8, 2), (2, 3), (4, 3), (8, 3)])
def test_projector_completeness_and_orthogonality(d, t):
    blocks = [isotypic_projector(lam, d, t) for lam in partitions(t) if lam.rows <= d]
    assert np.abs(sum(blocks) - np.eye(d**t)).max() < 1e-8
    for i, a in enumerate(blocks):
        assert np.abs(a @ a - a).max() < 1e-9
        for b in blocks[i + 1 :]:
            assert np.abs(a @ b).max() < 1e-8


def test_basis_dims_d2t2():
    dec = schur_weyl_basis(2, 2)
    assert [(b.partition.parts, b.weyl_dim, b.specht_dim) for b in dec.blocks] == [
        ((2,), 3, 1),
        ((1, 1), 1, 1),
    ]


def test_basis_dims_d4t2():
    dec = schur_weyl_basis(4, 2)
    assert [(b.weyl_dim, b.specht_dim) for b in dec.blocks] == [(10, 1), (6, 1)]


# Every (d, t) whose basis some test builds: the builder does not check itself.
BUILT_CELLS = [(d, t) for d in (2, 4, 8) for t in (2, 3)] + [(16, 2), (4, 1), (2, 4), (3, 4)]


@pytest.mark.parametrize("d, t", BUILT_CELLS)
def test_basis_verification_residuals(d, t):
    res = verify_decomposition(schur_weyl_basis(d, t), seed=11)
    assert res.pop("distinct_block_idempotence") < 1e-9
    assert max(res.values()) < 1e-8


def test_basis_is_cached_and_read_only():
    dec = schur_weyl_basis(4, 2)
    assert schur_weyl_basis(4, 2) is dec
    assert dec.basis_matrix is dec.basis_matrix
    with pytest.raises(ValueError):
        dec.basis_matrix[0, 0] = 1.0
    for block, sl in zip(dec.blocks, dec.block_slices()):
        assert np.array_equal(block.basis, dec.basis_matrix[:, sl])
        for arr in (block.basis, block.distinct_block):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


def _orbit_labels(d, t):
    """The S_t-orbit of each basis tuple, labelled by its sorted digits."""
    return [tuple(sorted(x)) for x in itertools.product(range(d), repeat=t)]


@pytest.mark.parametrize("d, t", [(2, 2), (3, 2), (2, 3), (4, 3)])
def test_basis_columns_lie_on_one_orbit(d, t):
    orbit = _orbit_labels(d, t)
    B = schur_weyl_basis(d, t).basis_matrix
    for column in B.T:
        assert len({orbit[a] for a in np.flatnonzero(column)}) == 1


def test_blockwise_twirls_vanish_exactly_between_orbits():
    """Both blockwise formulas rebuild the identity (or the distinct block)
    on the unitary-group factor, whose basis vectors each lie on one orbit,
    so no output entry joins two orbits; this is what lets the trace norm
    split them."""
    d, t, dim_e = 4, 3, 2
    dec = schur_weyl_basis(d, t)
    orbit = np.repeat(np.unique(_orbit_labels(d, t), axis=0, return_inverse=True)[1], dim_e)
    between = orbit[:, None] != orbit[None, :]
    state = random_state(d**t * dim_e, 43)
    distinct = random_distinct_state(d, t, dim_e, 43)
    for out in (haar_twirl_schur_weyl(state, dec), pf_twirl_distinct_formula(distinct, dec)):
        assert np.all(out.entries[between] == 0)
        assert np.count_nonzero(out.entries[~between]) > 0


def _rebuilt_in_basis(state, dec, weyl_state):
    """The Schur-Weyl-basis matrix of a blockwise twirl: weyl_state(block) (x)
    the input's footprint on every block, zero off the blocks."""
    x = state.amplitudes if hasattr(state, "amplitudes") else state.entries
    dim_e = len(x) // dec.d**dec.t
    K = np.kron(dec.basis_matrix, np.eye(dim_e))
    rotated = K.T @ x if x.ndim == 1 else K.T @ x @ K
    out = np.zeros((len(x),) * 2, dtype=complex)
    for block, rows, footprint in block_footprints(rotated, dec):
        rebuilt = np.einsum("ab,jekf->ajebkf", weyl_state(block), footprint)
        out[rows, rows] = rebuilt.reshape(rows.stop - rows.start, -1)
    return out


@pytest.mark.parametrize("d, t, dim_e", [(2, 2, 3), (3, 3, 1), (4, 3, 2), (8, 3, 2)])
def test_blockwise_twirls_match_the_dense_inverse_rotation(d, t, dim_e):
    """The orbit-block inverse rotation of both blockwise twirls equals
    ``rotate_from_basis`` of the same Schur-Weyl-basis matrix, for a pure and
    a mixed input."""
    dec = schur_weyl_basis(d, t)
    mixed = random_state(d**t * dim_e, 7).to_density()
    distinct = random_distinct_state(d, t, dim_e, 8)
    cases = [(haar_twirl_schur_weyl, lambda b: np.eye(b.weyl_dim) / b.weyl_dim, st)
             for st in (random_state(d**t * dim_e, 6), mixed)]
    if d >= t:
        distinct_mixed = DensityMatrix(np.outer(distinct.amplitudes, distinct.amplitudes.conj()))
        cases += [(pf_twirl_distinct_formula, lambda b: b.distinct_block / np.trace(b.distinct_block), st)
                  for st in (distinct, distinct_mixed)]
    for twirl, weyl_state, st in cases:
        oracle = rotate_from_basis(_rebuilt_in_basis(st, dec, weyl_state), dec)
        assert np.abs(twirl(st, dec).entries - oracle).max() <= 1e-13


def test_a_weyl_state_joining_two_orbits_is_refused():
    """A Weyl-factor state with an entry between Weyl vectors on two orbits
    puts an entry between orbits in the Schur-Weyl basis, which the
    orbit-block inverse rotation refuses."""
    d, t = 4, 2
    dec = schur_weyl_basis(d, t)
    block = dec.blocks[0]
    orbit = np.unique(_orbit_labels(d, t), axis=0, return_inverse=True)[1]
    weyl_orbit = orbit[np.abs(block.basis[:, :: block.specht_dim]).argmax(axis=0)]
    i, j = 0, int(np.flatnonzero(weyl_orbit != weyl_orbit[0])[0])

    def joining(b):
        state = np.eye(b.weyl_dim) / b.weyl_dim
        if b is block:
            state[i, j] = state[j, i] = 0.01
        return state

    with pytest.raises(ConsistencyError, match="between two orbits"):
        twirls._blockwise_twirl(random_state(d**t, 3), dec, joining)


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
        R = subsystem_perm_op(pi, d)
        rotated = B.conj().T @ R @ B
        for sl, block in zip(dec.block_slices(), dec.blocks):
            expected = np.kron(np.eye(block.weyl_dim), young_orthogonal_rep(block.partition)[pi])
            assert np.abs(rotated[sl, sl] - expected).max() < 1e-8


def test_distinct_blocks_d4t2():
    dec = schur_weyl_basis(4, 2)
    sym, anti = dec.blocks
    assert np.abs(anti.distinct_block - np.eye(6)).max() < 1e-9
    assert abs(np.trace(sym.distinct_block).real - 6) < 1e-9


def test_distinct_block_identity_at_t1():
    dec = schur_weyl_basis(4, 1)
    (blk,) = dec.blocks
    assert np.abs(blk.distinct_block - np.eye(4)).max() < 1e-10


@pytest.mark.parametrize("d,t", [(4, 2), (8, 2), (4, 3), (8, 3)])
def test_distinct_trace_identity_exact(d, t):
    dec = schur_weyl_basis(d, t)
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
    assert np.abs(recon - distinct_projector(d, t)).max() < 1e-9


def test_partial_trace_over_w_completeness():
    d, t, dim_e = 4, 2, 4
    dec = schur_weyl_basis(d, t)
    rho = random_state(d**t * dim_e, 5).to_density()
    traces = footprint_traces(rho, dec)
    assert set(traces) == {b.partition for b in dec.blocks}
    assert abs(sum(traces.values()) - 1) < 1e-9


def test_partial_trace_over_w_maximally_mixed():
    d, t = 4, 2
    dec = schur_weyl_basis(d, t)
    rho = DensityMatrix(np.eye(d**t) / d**t)
    traces = footprint_traces(rho, dec)
    for b in dec.blocks:
        expect_trace = b.weyl_dim * b.specht_dim / d**t
        assert abs(traces[b.partition] - expect_trace) < 1e-10


def test_partial_trace_over_w_symmetric_product():
    dec = schur_weyl_basis(2, 2)
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1
    rho = DensityMatrix(np.outer(e00, e00))
    traces = footprint_traces(rho, dec)
    tr_sym, tr_anti = traces[Partition((2,))], traces[Partition((1, 1))]
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


@pytest.mark.parametrize("d, t, dim_e", [(2, 2, 3), (4, 3, 2), (8, 3, 2), (3, 3, 1)])
def test_rotations_match_kron_conjugation(d, t, dim_e):
    dec = schur_weyl_basis(d, t)
    B = dec.basis_matrix
    assert B.dtype == np.float64
    assert all(b.basis.dtype == np.float64 for b in dec.blocks)
    dim = d**t * dim_e
    rng = np.random.default_rng(d * 10 + t)
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    K = np.kron(B, np.eye(dim_e))
    for Y in (X, X.real.copy()):
        assert np.abs(rotate_to_basis(Y, dec) - K.conj().T @ Y @ K).max() < 1e-12
        assert np.abs(rotate_from_basis(Y, dec) - K @ Y @ K.conj().T).max() < 1e-12


def test_orbit_blocks_factor_the_basis():
    dec = schur_weyl_basis(4, 3)
    B, rebuilt = dec.basis_matrix, np.zeros_like(dec.basis_matrix)
    orbit = _orbit_labels(4, 3)
    for rows, cols, blocks in dec.orbit_blocks:
        assert rows.shape == cols.shape == blocks.shape[:2] and blocks.shape[1:] == (rows.shape[1],) * 2
        assert all(len({orbit[a] for a in r}) == 1 for r in rows)
        rebuilt[rows[:, :, None], cols[:, None, :]] = blocks
        with pytest.raises(ValueError):
            blocks[0, 0, 0] = 1.0
    assert np.array_equal(rebuilt, B)


# In the symmetric block at (d, t) = (2, 2), column 0 is |00> and column 2 is
# (|01> + |10>)/sqrt 2.  Each move takes one entry to row |11>, on another
# orbit: all of column 0, which then leaves its orbit, or the |10> half of
# column 2, which keeps its orbit by its first largest entry.
@pytest.mark.parametrize("column, row", [(0, 0), (2, 2)])
def test_a_basis_entry_off_its_orbit_fails_the_factorization(column, row):
    dec = schur_weyl_basis(2, 2)
    basis = dec.blocks[0].basis.copy()
    assert basis[row, column] != 0 and basis[3, column] == 0
    basis[[row, 3], column] = basis[[3, row], column]
    moved = dataclasses.replace(dec, blocks=(dataclasses.replace(dec.blocks[0], basis=basis),) + dec.blocks[1:])
    with pytest.raises(ConsistencyError, match="orbit"):
        moved.orbit_blocks


# tracemalloc peak of one (8, 3, 2) rotation as the dense n x n real product it replaced
DENSE_ROTATION_PEAK_BYTES = 50_332_768


def test_a_rotation_allocates_no_more_than_the_dense_product():
    dec = schur_weyl_basis(8, 3)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    rotate_to_basis(X, dec)  # builds the orbit factorization
    tracemalloc.start()
    try:
        rotate_to_basis(X, dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= DENSE_ROTATION_PEAK_BYTES


@pytest.mark.parametrize("d, t, dim_e", [(2, 2, 3), (3, 3, 1), (4, 3, 2)])
def test_blockwise_twirls_are_held_on_their_orbit_blocks(d, t, dim_e):
    """Both blockwise twirls return a ``SupportDensity`` whose support lies
    in the orbit blocks, and the dense inverse rotation of the same
    Schur-Weyl-basis matrix vanishes off that support."""
    dec = schur_weyl_basis(d, t)
    orbit = np.repeat(np.unique(_orbit_labels(d, t), axis=0, return_inverse=True)[1], dim_e)
    def uniform(block):
        return np.eye(block.weyl_dim) / block.weyl_dim

    cases = [(haar_twirl_schur_weyl, uniform, random_state(d**t * dim_e, 6))]
    if d >= t:
        cases.append((pf_twirl_distinct_formula, lambda b: b.distinct_block / np.trace(b.distinct_block),
                      random_distinct_state(d, t, dim_e, 8)))
    for twirl, weyl_state, st in cases:
        out = twirl(st, dec)
        assert isinstance(out, SupportDensity)
        rows, cols = np.divmod(out.positions, out.dim)
        assert np.array_equal(orbit[rows], orbit[cols])
        oracle = rotate_from_basis(_rebuilt_in_basis(st, dec, weyl_state), dec).reshape(-1)
        assert np.abs(out.values - oracle[out.positions]).max() <= 1e-13
        oracle[out.positions] = 0
        assert np.abs(oracle).max() <= 1e-13
