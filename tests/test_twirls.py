"""Twirl channels: exact paths, block formulas, Monte-Carlo, Clifford averages."""

import itertools
import tracemalloc
from fractions import Fraction
from functools import reduce
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from pru_lab import (
    SupportDensity,
    SupportOperator,
    CapacityError,
    DenseOperator,
    DensityMatrix,
    DomainError,
    PermutationT,
    StateVector,
    all_permutations,
    character,
    clifford_twirl,
    distinct_overlap_after_clifford,
    distinct_projector,
    ensemble_twirl,
    enumerate_cliffords,
    haar_twirl_exact,
    haar_twirl_mc,
    haar_twirl_schur_weyl,
    partitions,
    pf_twirl,
    pf_twirl_basis_element,
    pf_twirl_distinct_formula,
    pf_twirl_mc,
    sample_clifford,
    schur_weyl_basis,
    specht_dim,
    subsystem_perm_op,
    trace_distance,
    weyl_dim,
)
from pru_lab import twirls
from pru_lab.clifford import sample_clifford_unitaries
from pru_lab.operators import apply_tensor_power, haar_unitaries

from conftest import random_distinct_state, random_state


@pytest.fixture(scope="module")
def dec42():
    return schur_weyl_basis(4, 2)


# --- Haar twirl ----------------------------------------------------------------

def test_haar_t1_maximally_mixes():
    psi = random_state(8, 1)
    out = haar_twirl_exact(psi, 2, 1)
    X = psi.amplitudes.reshape(2, 4)
    red_e = X.T @ X.conj()
    assert np.abs(out.entries - np.kron(np.eye(2) / 2, red_e)).max() < 1e-12


def test_haar_fixes_commutant_elements():
    S = subsystem_perm_op(PermutationT((1, 0)), 4)
    out = haar_twirl_exact(S, 4, 2)
    assert np.abs(out.entries - S.entries).max() < 1e-9


def test_haar_exact_equals_block_formula(dec42):
    for seed in range(20):
        st = random_state(64, seed)
        a = haar_twirl_exact(st, 4, 2)
        b = haar_twirl_schur_weyl(st, dec42)
        assert trace_distance(a, b) < 1e-8


def test_haar_block_formula_symmetric_product():
    dec = schur_weyl_basis(2, 2)
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1
    out = haar_twirl_schur_weyl(StateVector(e00), dec)
    sym = (np.eye(4) + subsystem_perm_op(PermutationT((1, 0)), 2).entries) / 2
    assert np.abs(out.entries - sym / 3).max() < 1e-10


def test_haar_output_invariant_under_tensor_unitaries():
    st = random_state(4, 9)
    out = haar_twirl_exact(st, 2, 2).entries
    for seed in range(10):
        V = haar_unitaries(2, 1, np.random.default_rng(seed))[0]
        VV = np.kron(V, V)
        assert np.abs(VV @ out - out @ VV).max() < 1e-9


def test_haar_mc_matches_exact():
    N = 100000
    st = random_state(16, 11)
    err = trace_distance(haar_twirl_mc(st, 4, 2, N, 123), haar_twirl_exact(st, 4, 2))
    assert err < 5 / np.sqrt(N)


@pytest.mark.parametrize("d, t", [(2, 3), (2, 4), (3, 4)])
def test_haar_exact_with_fewer_levels_than_copies_matches_block_formula(d, t):
    """With d < t the slot permutations are dependent; the projection still
    equals the Schur-Weyl block formula and its metadata stays finite."""
    st = random_state(d**t * 2, d + t)
    out = haar_twirl_exact(st, d, t)
    blockwise = haar_twirl_schur_weyl(st, schur_weyl_basis(d, t))
    assert np.abs(out.entries - blockwise.entries).max() < 1e-12
    assert out.meta["gram_rank"] < factorial(t)
    assert np.isfinite(out.meta["gram_condition"])


@pytest.mark.parametrize("d, t", [(2, 2), (2, 3), (4, 3), (2, 4), (3, 4), (8, 3)])
def test_gram_pseudo_inverse_is_the_weingarten_function(d, t):
    """Wg(sigma) = (1/t!^2) sum over partitions of t with at most d rows of
    (f^lam)^2 chi^lam(sigma) / weyl_dim(lam, d), from the characters alone."""
    perms = all_permutations(t)
    shapes = [lam for lam in partitions(t) if lam.rows <= d]

    def wg(sigma):
        return sum(
            Fraction(specht_dim(lam) ** 2 * character(lam, sigma), weyl_dim(lam, d))
            for lam in shapes
        ) / factorial(t) ** 2

    want = np.array([[float(wg(s.inverse().compose(p))) for p in perms] for s in perms])
    basis = twirls._commutant(d, t, False)
    assert np.abs(basis.gram_pinv - want).max() < 1e-13
    assert basis.meta["gram_rank"] == sum(specht_dim(lam) ** 2 for lam in shapes)


# --- permutation-phase twirl ------------------------------------------------------

def test_pf_basis_element_distinct_pair():
    M = pf_twirl_basis_element((0, 1), (1, 0), 4)
    L = distinct_projector(4, 2).entries
    R = subsystem_perm_op(PermutationT((1, 0)), 4).entries
    assert np.abs(M.entries - L @ R / 12).max() < 1e-12


def test_pf_basis_element_parity_zero():
    assert np.abs(pf_twirl_basis_element((0, 1), (2, 3), 4).entries).max() == 0


def test_pf_basis_element_colliding_orbit():
    M = pf_twirl_basis_element((0, 0), (0, 0), 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5  # average of |zz><zz| over z
    assert np.abs(M.entries - expected).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pf_basis_element_vs_exhaustive_ensemble(d):
    """Independent oracle: average over every label permutation and sign
    pattern explicitly."""
    t = 2
    ops = []
    for p in itertools.permutations(range(d)):
        P = np.zeros((d, d))
        P[list(p), range(d)] = 1
        for f in itertools.product((0, 1), repeat=d):
            F = np.diag([(-1) ** b for b in f]).astype(float)
            ops.append(np.kron(P @ F, P @ F))
    ops = np.stack(ops)
    for x in itertools.product(range(d), repeat=t):
        for y in itertools.product(range(d), repeat=t):
            xi = np.ravel_multi_index(x, (d,) * t)
            yi = np.ravel_multi_index(y, (d,) * t)
            oracle = np.einsum("sa,sb->ab", ops[:, :, xi], ops[:, :, yi].conj()) / len(ops)
            got = pf_twirl_basis_element(x, y, d).entries
            assert np.abs(oracle - got).max() < 1e-12, (x, y)


@pytest.mark.parametrize("d, t", [(4, 2), (3, 3)])
def test_pf_basis_element_equals_the_twirl_of_the_dense_unit(d, t):
    """The matrix unit held on its one entry is twirled bit for bit as its
    dense copy is."""
    n = d**t
    for x in itertools.product(range(d), repeat=t):
        for y in itertools.product(range(d), repeat=t):
            unit = np.zeros((n, n), dtype=complex)
            unit[np.ravel_multi_index(x, (d,) * t), np.ravel_multi_index(y, (d,) * t)] = 1.0
            got, want = pf_twirl_basis_element(x, y, d), pf_twirl(unit, d, t)
            assert np.array_equal(got.positions, want.positions), (x, y)
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64)), (x, y)


def test_pf_basis_element_at_d16_t3_builds_no_dense_matrix():
    """The dense 4096^2 matrix unit alone would be 256 MiB; the twirl of
    |x><y| is its even pattern class, (16)_3 = 3360 entries of 1/3360."""
    tracemalloc.start()
    try:
        out = pf_twirl_basis_element((0, 1, 2), (1, 0, 2), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert out.dim == 4096 and len(out.positions) == 3360
    assert np.all(out.values == 1 / 3360)


def test_pf_identity_fixed_point():
    X = DenseOperator(np.eye(16))
    assert np.abs(pf_twirl(X, 4, 2).entries - np.eye(16)).max() < 1e-12


def test_pf_trace_preserving_and_idempotent():
    st = random_state(64, 21)
    once = pf_twirl(st, 4, 2)
    assert abs(float(np.trace(once.entries).real) - 1) < 1e-9
    assert trace_distance(pf_twirl(once, 4, 2), once) < 1e-9


def test_pf_formula_matches_generic_on_distinct_states(dec42):
    for seed in range(20):
        st = random_distinct_state(4, 2, 4, seed)
        a = pf_twirl(st, 4, 2)
        b = pf_twirl_distinct_formula(st, dec42)
        assert isinstance(b, DensityMatrix)
        assert trace_distance(a, b) < 1e-8
        assert abs(float(np.trace(b.entries).real) - 1) < 1e-9


def test_pf_formula_rejects_colliding_support(dec42):
    e00 = np.zeros(16, dtype=complex)
    e00[0] = 1.0  # |00> has both labels equal
    with pytest.raises(DomainError):
        pf_twirl_distinct_formula(StateVector(e00), dec42)


def test_pf_formula_rejects_a_tiny_colliding_leak(dec42):
    rho = random_distinct_state(4, 2, 4, 3).to_density().entries
    pf_twirl_distinct_formula(DenseOperator(rho), dec42)  # distinct support passes
    leak = rho.copy()
    leak[0, 4] = 1e-8  # row 0 is |00> (x) |0>, a colliding tuple
    with pytest.raises(DomainError):
        pf_twirl_distinct_formula(DenseOperator(leak), dec42)


@pytest.mark.parametrize("t", [0, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda t: pf_twirl(np.eye(2), 2, t),
        lambda t: haar_twirl_exact(np.eye(2), 2, t),
        lambda t: haar_twirl_mc(np.eye(2), 2, t, 4, 1),
        lambda t: pf_twirl_mc(np.eye(2), 2, t, 4, 1),
        lambda t: schur_weyl_basis(2, t),
    ],
    ids=["pf_twirl", "haar_twirl_exact", "haar_twirl_mc", "pf_twirl_mc", "schur_weyl_basis"],
)
def test_library_entry_points_reject_fewer_than_one_copy(call, t):
    with pytest.raises(DomainError, match="at least 1"):
        call(t)


def test_pf_equals_haar_on_deficit_free_block(dec42):
    B = dec42.basis_matrix
    anti = B[:, 10:16]  # the 6-dimensional antisymmetric block
    rng = np.random.default_rng(8)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = anti @ c
    st = StateVector(v / np.linalg.norm(v))
    assert trace_distance(
        pf_twirl_distinct_formula(st, dec42), haar_twirl_exact(st, 4, 2)
    ) < 1e-9


def test_pf_mc_matches_exact():
    N = 100000
    st = random_state(16, 2)
    err = trace_distance(pf_twirl_mc(st, 4, 2, N, 5), pf_twirl(st, 4, 2))
    assert err < 5 / np.sqrt(N)


def test_pf_output_is_density():
    st = random_state(32, 31)
    out = pf_twirl(st, 4, 2)
    assert isinstance(out, DensityMatrix)
    out.validate()


def test_pf_twirl_respects_the_dimension_cap(monkeypatch):
    monkeypatch.setenv("PRU_LAB_DIM_CAP", "8")
    with pytest.raises(CapacityError):
        pf_twirl(np.eye(16), 4, 2)


# --- permutation-phase twirl against the explicit group mean ----------------------

PF_CASES = pytest.mark.parametrize(
    "d, t, dim_e",
    [(d, t, e) for d, t in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)] for e in (1, 2)],
)


def _signed_permutations(d):
    """Every element of S_d x Z_2^d as a real d x d matrix."""
    out = []
    for images in itertools.permutations(range(d)):
        P = np.zeros((d, d))
        P[list(images), range(d)] = 1
        out.extend(P * np.array(signs) for signs in itertools.product((1, -1), repeat=d))
    return out


def _local(g, t, dim_e):
    return np.kron(reduce(np.kron, [g] * t), np.eye(dim_e))


def _random_operator(d, t, dim_e, seed):
    dim = d**t * dim_e
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@PF_CASES
@given(seed=hst.integers(0, 2**32 - 1))
@settings(max_examples=5)
def test_pf_twirl_matches_explicit_group_mean(d, t, dim_e, seed):
    X = _random_operator(d, t, dim_e, seed)
    group = _signed_permutations(d)
    oracle = sum(_local(g, t, dim_e) @ X @ _local(g, t, dim_e).T for g in group) / len(group)
    assert np.abs(pf_twirl(X, d, t).entries - oracle).max() < 1e-12


def _set_partitions(items):
    if not items:
        yield []
        return
    for rest in _set_partitions(items[1:]):
        for i in range(len(rest)):
            yield rest[:i] + [[items[0]] + rest[i]] + rest[i + 1 :]
        yield [[items[0]]] + rest


@pytest.mark.parametrize("d, t", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_pf_commutant_is_the_even_class_span(d, t):
    """Each spanning operator commutes with (PF)^{x t} for the whole group,
    the stored Gram pseudo-inverse inverts the dense Tr[B_j^T B_k], and the
    operator count is both the number of set partitions of the 2t digit
    positions into at most d even blocks and the commutant's dimension,
    the group mean of Tr[g]^{2t}."""
    basis = twirls._pf_commutant(d, t)
    n = d**t
    ops = []
    for rows, cols in basis.terms:
        for r, c in zip(rows, cols):
            op = np.zeros((n, n))
            op[r, c] = 1.0
            ops.append(op)
    group = _signed_permutations(d)
    for g in group:
        gt = reduce(np.kron, [g] * t)
        assert all(np.array_equal(gt @ op, op @ gt) for op in ops)
    gram = np.array([[np.trace(a.T @ b) for b in ops] for a in ops])
    blocks, m, _ = basis.gram_pinv.shape
    stored = np.zeros_like(gram)
    for i in range(blocks):
        stored[i * m : (i + 1) * m, i * m : (i + 1) * m] = basis.gram_pinv[i]
    assert np.abs(stored - np.linalg.pinv(gram)).max() < 1e-15
    even = sum(
        1 for p in _set_partitions(list(range(2 * t)))
        if len(p) <= d and all(len(block) % 2 == 0 for block in p)
    )
    dim = sum(np.trace(g) ** (2 * t) for g in group) / len(group)
    assert len(ops) == basis.meta["gram_rank"] == even == dim


def _pf_commutant_by_pattern_code(d, t):
    """Slow oracle: encode the equality pattern of every one of the (d^t)^2
    basis pairs as an integer, group the pairs with np.unique, and keep the
    classes whose first pair has every value an even number of times."""
    n = d**t
    digits = np.stack(np.unravel_index(np.arange(n), (d,) * t), axis=1)  # (n, t)
    slots = [digits[:, i, None] for i in range(t)] + [digits[None, :, i] for i in range(t)]
    code = np.zeros((1, 1), dtype=np.int64)
    for j in range(1, 2 * t):
        if factorial(j + 1) > np.iinfo(np.int64).max:
            code = np.unique(code, return_inverse=True)[1].reshape(code.shape)
        first = np.full((1, 1), j, dtype=np.int8)
        for i in range(j - 1, -1, -1):
            first = np.where(slots[i] == slots[j], np.int8(i), first)
        code = code * (j + 1) + first
    _, first_pair, labels, sizes = np.unique(
        np.broadcast_to(code, (n, n)).reshape(-1),
        return_index=True, return_inverse=True, return_counts=True,
    )
    values = [digits[pair, i] for pair in (first_pair // n, first_pair % n) for i in range(t)]
    even = np.ones(len(sizes), dtype=bool)
    for v in values:
        even &= sum(u == v for u in values) % 2 == 0
    pairs = np.flatnonzero(even[labels])
    pairs = pairs[np.argsort(labels[pairs], kind="stable")]  # grouped by class
    blocks = [pairs[sizes[labels[pairs]] == size].reshape(-1, size) for size in sorted(set(sizes[even]))]
    terms = [(block // n, block % n) for block in blocks]
    return twirls._freeze_commutant(terms, np.sort(sizes[even]).astype(float)[:, None, None])


def _classes(basis, n):
    """Every spanning operator's support as its list of flat pair indices x n + y."""
    return sorted((rows * n + cols).tolist() for r, c in basis.terms for rows, cols in zip(r, c))


@pytest.mark.parametrize("d, t", [
    (1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (2, 6), (3, 2), (3, 3),
    (4, 2), (4, 3), (3, 4), (4, 4), (5, 3), (8, 2), (8, 3), (3, 5),
])
def test_pf_commutant_matches_the_pattern_code_oracle(d, t):
    """The even patterns times their relabelings are the oracle's classes,
    each listed in ascending pair order, with the same Gram metadata, and
    the projection gives the oracle's output bit for bit."""
    basis, oracle = twirls._pf_commutant(d, t), _pf_commutant_by_pattern_code(d, t)
    n = d**t
    classes = _classes(basis, n)
    assert all(members == sorted(members) for members in classes)
    assert classes == _classes(oracle, n)
    sizes = [len(rows) for r, _ in basis.terms for rows in r]  # in Gram order
    assert sorted(sizes) == sorted(len(rows) for r, _ in oracle.terms for rows in r)
    assert np.array_equal(basis.gram_pinv.ravel(), 1.0 / np.array(sizes))
    assert basis.meta == oracle.meta
    for dim_e in (1, 2):
        X = _random_operator(d, t, dim_e, 100 * d + t)
        assert np.array_equal(
            pf_twirl(X, d, t).entries, twirls._project_onto_commutant(X, d, t, oracle).entries
        )


@pytest.mark.parametrize("d, t, count, sizes", [(8, 4, 379, {8, 56, 336, 1680}), (16, 3, 31, {16, 240, 3360})])
def test_pf_commutant_counts_past_the_default_grid(d, t, count, sizes):
    """One class per set partition of the 2t digit slots into at most d even
    blocks, and a partition with k blocks gives a class of (d)_k pairs."""
    basis = twirls._pf_commutant(d, t)
    even = [
        len(p) for p in _set_partitions(list(range(2 * t)))
        if len(p) <= d and all(len(block) % 2 == 0 for block in p)
    ]
    got = sorted(len(rows) for r, _ in basis.terms for rows in r)
    assert len(got) == basis.meta["gram_rank"] == len(even) == count
    assert got == sorted(factorial(d) // factorial(d - k) for k in even)
    assert set(got) == sizes


def test_pf_commutant_builds_only_the_kept_pairs():
    """An uncached (8, 4) build stays far below one (d^t)^2 int64 array (128 MiB)."""
    tracemalloc.start()
    try:
        twirls._pf_commutant.__wrapped__(8, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _check_channel_properties(twirl, d, t, dim_e, seed, g=None):
    """Trace preserved and an exactly Hermitian PSD density output for a
    density input; given g, also idempotent and commuting with
    g^{x t} x I.  Monte-Carlo twirls pass no g: a second Monte-Carlo
    average moves the state."""
    X = _random_operator(d, t, dim_e, seed)
    once = twirl(X).entries
    assert abs(np.trace(once) - np.trace(X)) < 1e-12
    if g is not None:
        assert np.abs(twirl(once).entries - once).max() < 1e-12
        U = _local(g, t, dim_e)
        assert np.abs(U @ once - once @ U).max() < 1e-12

    rho = X @ X.conj().T
    out = twirl(DensityMatrix(rho / np.trace(rho).real))
    assert isinstance(out, DensityMatrix)
    assert np.array_equal(out.entries, out.entries.conj().T)
    assert np.linalg.eigvalsh(out.entries)[0] > -1e-12


@PF_CASES
@given(seed=hst.integers(0, 2**32 - 1))
@settings(max_examples=5)
def test_pf_twirl_channel_properties(d, t, dim_e, seed):
    rng = np.random.default_rng(seed)
    P = np.zeros((d, d))
    P[rng.permutation(d), range(d)] = 1
    g = P * rng.choice([1, -1], size=d)
    _check_channel_properties(lambda x: pf_twirl(x, d, t), d, t, dim_e, seed, g)


QUBIT_CASES = [(1, t, e) for t in (1, 2, 3) for e in (1, 2)] + [(2, 2, 1)]


@pytest.mark.parametrize("n, t, dim_e", QUBIT_CASES)
@given(seed=hst.integers(0, 2**32 - 1))
@settings(max_examples=5)
def test_haar_twirl_channel_properties(n, t, dim_e, seed):
    d = 2**n
    g = haar_unitaries(d, 1, np.random.default_rng(seed))[0]
    _check_channel_properties(lambda x: haar_twirl_exact(x, d, t), d, t, dim_e, seed, g)


@pytest.mark.parametrize("n, t, dim_e", QUBIT_CASES)
@given(seed=hst.integers(0, 2**32 - 1))
@settings(max_examples=5)
def test_clifford_twirl_channel_properties(n, t, dim_e, seed):
    """The commutation against a sampled Clifford ties the sampler to the
    commutant projection."""
    g = sample_clifford(n, seed).to_dense().entries
    _check_channel_properties(lambda x: clifford_twirl(x, n, t, "exact"), 2**n, t, dim_e, seed, g)


MC_CASES = pytest.mark.parametrize("d, t, dim_e", [(2, 1, 2), (2, 2, 1), (2, 3, 1), (3, 2, 2), (4, 2, 1)])


@MC_CASES
@given(seed=hst.integers(0, 2**32 - 1))
@settings(max_examples=3)
def test_haar_twirl_mc_channel_properties(d, t, dim_e, seed):
    _check_channel_properties(lambda x: haar_twirl_mc(x, d, t, 40, seed), d, t, dim_e, seed)


@MC_CASES
@given(seed=hst.integers(0, 2**32 - 1))
@settings(max_examples=3)
def test_pf_twirl_mc_channel_properties(d, t, dim_e, seed):
    _check_channel_properties(lambda x: pf_twirl_mc(x, d, t, 40, seed), d, t, dim_e, seed)


@pytest.mark.parametrize("n, t, dim_e", [(1, 1, 2), (1, 2, 1), (1, 3, 2), (2, 2, 1)])
@given(seed=hst.integers(0, 2**32 - 1))
@settings(max_examples=3)
def test_clifford_twirl_mc_channel_properties(n, t, dim_e, seed):
    def twirl(x):
        return clifford_twirl(x, n, t, method="monte_carlo", samples=40, seed=seed)

    _check_channel_properties(twirl, 2**n, t, dim_e, seed)


# --- collapse identity over the slot-permutation group ----------------------------

@pytest.mark.parametrize("t", [2, 3])
def test_group_sum_collapse(t):
    d = 4
    dec = schur_weyl_basis(d, t)
    n = d**t
    B = dec.basis_matrix
    perms = all_permutations(t)
    rotated = np.stack([B.conj().T @ subsystem_perm_op(p, d).entries @ B for p in perms])
    labels = [
        (bi, i, j)
        for bi, block in enumerate(dec.blocks)
        for i in range(block.weyl_dim)
        for j in range(block.specht_dim)
    ]
    slices = dec.block_slices()
    if t == 3:
        # every pair with a nonzero expectation, plus a seeded random batch
        rng = np.random.default_rng(0)
        pair_iter = [
            (a, b)
            for a in range(len(labels))
            for b in range(len(labels))
            if labels[a][:2] == labels[b][:2]
        ] + [tuple(p) for p in rng.integers(0, len(labels), size=(120, 2))]
    else:
        pair_iter = itertools.product(range(len(labels)), repeat=2)
    for a, b in pair_iter:
        bi, i, j = labels[a]
        bi2, i2, j2 = labels[b]
        summed = np.einsum("s,sxy->xy", rotated[:, a, b].conj(), rotated)
        expect = np.zeros((n, n), dtype=complex)
        if bi == bi2 and i == i2:
            block = dec.blocks[bi]
            unit = np.zeros((block.specht_dim, block.specht_dim))
            unit[j, j2] = 1.0
            sl = slices[bi]
            expect[sl, sl] = factorial(t) / block.specht_dim * np.kron(
                np.eye(block.weyl_dim), unit
            )
        assert np.abs(summed - expect).max() < 1e-8


# --- Clifford twirl -----------------------------------------------------------------

def test_clifford_exact_single_qubit_is_haar_two_design():
    for seed in range(10):
        st = random_state(8, seed + 40)
        assert trace_distance(
            ensemble_twirl(st, enumerate_cliffords(1), 2, 2), haar_twirl_exact(st, 2, 2)
        ) < 1e-9


@pytest.mark.parametrize(
    "n, t, dim_e",
    [(n, t, e) for n in (1, 2) for t in (1, 2, 3, 4) for e in (1, 2)] + [(1, 5, 1), (1, 5, 2), (2, 5, 1)],
)
def test_ensemble_twirl_matches_clifford_exact(n, t, dim_e):
    """The commutant projection against the average over the enumerated
    group, on a random state and on the non-Hermitian i|01..><10..|.
    (2, 5, 2) is left out: its group average alone takes several times
    as long as (2, 5, 1)."""
    d = 2**n
    X = np.zeros((d**t * dim_e,) * 2, dtype=complex)
    a = np.ravel_multi_index(([0, 1] + [0] * t)[:t], (d,) * t)
    b = np.ravel_multi_index(([1, 0] + [0] * t)[:t], (d,) * t)
    X[a * dim_e, b * dim_e] = 1j
    group = enumerate_cliffords(n)
    for st in (random_state(d**t * dim_e, 19 + t), DenseOperator(X)):
        want = ensemble_twirl(st, group, d, t).entries
        got = clifford_twirl(st, n, t, method="exact").entries
        assert np.abs(got - want).max() < 1e-12


def test_clifford_exact_matches_monte_carlo_at_three_qubits():
    st = random_state(64, 23)
    mc = clifford_twirl(st, 3, 2, method="monte_carlo", samples=1000, seed=11)
    exact = clifford_twirl(st, 3, 2, method="exact")
    assert trace_distance(mc, exact) < 3 * np.sqrt(mc.dim) * mc.meta["std_error_fro"]


def test_clifford_exact_stops_at_five_copies():
    st = random_state(64, 0)
    with pytest.raises(DomainError, match="monte_carlo"):
        clifford_twirl(st, 1, 6, method="exact")


def _brute_force_lagrangian_subspaces(t):
    """Every span of 1_{2t} and t - 1 vectors with |x| - |y| = 0 mod 4 that
    has 2^t elements, all with |x| - |y| = 0 mod 4."""
    def q(v):
        return (bin(v >> t).count("1") - bin(v % 2**t).count("1")) % 4

    null = [v for v in range(1, 4**t) if q(v) == 0]
    found = set()
    for extra in itertools.combinations(null, t - 1):
        span = {0}
        for v in (4**t - 1, *extra):
            span |= {v ^ w for w in span}
        if len(span) == 2**t and all(q(v) == 0 for v in span):
            found.add(tuple(sorted(span)))
    return sorted(found)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_lagrangian_subspaces_match_a_brute_force_search(t):
    assert twirls._lagrangian_subspaces(t).tolist() == [list(s) for s in _brute_force_lagrangian_subspaces(t)]


def test_lagrangian_subspace_counts():
    """prod_{k=0}^{t-2} (2^k + 1) stochastic Lagrangian subspaces."""
    assert [len(twirls._lagrangian_subspaces(t)) for t in range(1, 6)] == [1, 2, 6, 30, 270]


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n, ranks", [(1, [1, 2, 5, 15, 51]), (2, [1, 2, 6, 29, 219])])
def test_clifford_gram_rank_is_the_frame_potential(n, ranks, t):
    """The commutant's dimension is the frame potential (1/|G|) sum_g |Tr g|^{2t}
    over the enumerated group."""
    traces = np.abs(np.trace(enumerate_cliffords(n), axis1=1, axis2=2))
    potential = np.mean(traces ** (2 * t))
    assert abs(potential - ranks[t - 1]) < 1e-6
    assert twirls._commutant(2**n, t, True).meta["gram_rank"] == ranks[t - 1]


def test_lagrangian_operators_commute_with_three_qubit_cliffords():
    """At (n, t) = (3, 4), where the group cannot be enumerated, each of the
    30 spanning operators commutes with C^{x4} for sampled Cliffords; the
    products are taken on random vectors, never as dense 4096^2 matrices."""
    d, t = 8, 4
    basis = twirls._commutant(d, t, True)
    assert len(basis.terms) == 30 and basis.meta["gram_rank"] == 30
    us = sample_clifford_unitaries(3, [[13, j] for j in range(3)])
    rng = np.random.default_rng(13)
    vecs = rng.normal(size=(d**t, 2)) + 1j * rng.normal(size=(d**t, 2))

    def apply(term, v):  # sum_i |rows[0, i]><cols[0, i]| on the columns of v
        rows, cols = term
        out = np.zeros(v.shape, dtype=complex)
        np.add.at(out, rows[0], v[cols[0]])
        return out

    def clifford_power(v):  # (count, d^t, 2): C^{x4} on each column
        return apply_tensor_power(us, v, t).swapaxes(1, 2)

    for term in basis.terms:
        after = clifford_power(apply(term, vecs))
        before = np.stack([apply(term, w) for w in clifford_power(vecs)])
        assert np.abs(after - before).max() < 1e-10


def test_clifford_fixed_point():
    mix = DensityMatrix(np.eye(16) / 16)
    assert trace_distance(clifford_twirl(mix, 2, 2, method="exact"), mix) < 1e-10


def test_clifford_mc_two_design():
    st = random_state(16, 50)
    mc = clifford_twirl(st, 2, 2, method="monte_carlo", samples=4000, seed=9)
    err = trace_distance(mc, haar_twirl_exact(st, 4, 2))
    envelope = 3 * np.sqrt(mc.dim) * mc.meta["std_error_fro"]
    assert err < envelope


def test_clifford_mc_matches_pure_and_mixed_paths():
    st = random_state(16, 3)
    a = clifford_twirl(st, 2, 2, method="monte_carlo", samples=64, seed=1)
    b = clifford_twirl(st.to_density(), 2, 2, method="monte_carlo", samples=64, seed=1)
    assert trace_distance(a, b) < 1e-10


# --- distinct-subspace overlap --------------------------------------------------------

def test_overlap_t1_is_one():
    st = random_state(4, 3)
    info = distinct_overlap_after_clifford(st, 1, 1, method="exact")
    assert abs(info["overlap"] - 1) < 1e-12


def test_overlap_colliding_exact_saturates_bound():
    # |00> input at one qubit saturates 1 - 2/(d+1) exactly at two copies
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1
    info = distinct_overlap_after_clifford(StateVector(e00), 1, 2, method="exact")
    assert info["overlap"] == pytest.approx(info["bound"], abs=1e-12)


def test_overlap_distinct_supported_input():
    st = random_distinct_state(4, 2, 1, 8)
    info = distinct_overlap_after_clifford(st, 2, 2, method="exact")
    assert info["overlap"] >= info["bound"] - 1e-12


def test_overlap_mc_consistent_with_twirl_stream():
    e00 = np.zeros(64, dtype=complex)
    e00[0] = 1
    st = StateVector(e00)
    info = distinct_overlap_after_clifford(st, 3, 2, method="monte_carlo", samples=300, seed=4)
    twirled = clifford_twirl(st, 3, 2, method="monte_carlo", samples=300, seed=4)
    from pru_lab.operators import distinct_mask

    diag = np.real(np.diagonal(twirled.entries))[distinct_mask(8, 2)].sum()
    assert info["overlap"] == pytest.approx(float(diag), abs=1e-12)
    assert info["overlap"] >= info["bound"] - 3 * info["std_error"]


# --- Monte-Carlo infrastructure --------------------------------------------------------

def test_mc_convergence_rate_rough():
    st = random_state(16, 7)
    exact = haar_twirl_exact(st, 4, 2)
    errs = [
        np.mean(
            [
                trace_distance(haar_twirl_mc(st, 4, 2, N, [s, N]), exact)
                for s in range(3)
            ]
        )
        for N in (100, 1000, 10000)
    ]
    slope = np.polyfit(np.log([100, 1000, 10000]), np.log(errs), 1)[0]
    assert abs(slope + 0.5) < 0.15


def test_mc_determinism():
    st = random_state(16, 7)
    a = haar_twirl_mc(st, 4, 2, 3000, 555)
    b = haar_twirl_mc(st, 4, 2, 3000, 555)
    assert np.array_equal(a.entries, b.entries)
    c = clifford_twirl(st, 2, 2, method="monte_carlo", samples=200, seed=8)
    d = clifford_twirl(st, 2, 2, method="monte_carlo", samples=200, seed=8)
    assert np.array_equal(c.entries, d.entries)


# --- pure inputs are paired and rotated from psi --------------------------------

@pytest.mark.parametrize("dim_e", [1, 3])
@pytest.mark.parametrize("d, t", [(2, 1), (2, 4), (3, 1), (3, 4), (4, 2)])
def test_pure_inputs_match_the_dense_branch(d, t, dim_e):
    """Each exact twirl of a StateVector, which never forms psi psi^dag,
    equals the same twirl of its to_density() through the dense branch."""
    dec = schur_weyl_basis(d, t)
    cases = [(random_state(d**t * dim_e, 7), [
        lambda x: haar_twirl_exact(x, d, t),
        lambda x: pf_twirl(x, d, t),
        lambda x: haar_twirl_schur_weyl(x, dec),
    ] + ([lambda x: clifford_twirl(x, d.bit_length() - 1, t)] if d in (2, 4) else []))]
    if d >= t:
        cases.append((random_distinct_state(d, t, dim_e, 8), [lambda x: pf_twirl_distinct_formula(x, dec)]))
    for st, channels in cases:
        for channel in channels:
            pure, dense = channel(st), channel(st.to_density())
            assert isinstance(pure, DensityMatrix)
            assert np.abs(pure.entries - dense.entries).max() < 1e-13
            assert np.array_equal(pure.entries, pure.entries.conj().T)


@pytest.mark.parametrize("leak, raises", [(0.0, False), (1.0e-10, False), (1.04e-10, True), (1e-6, True)])
def test_support_guard_reads_the_same_leak_through_both_paths(dec42, leak, raises):
    """sqrt(dim) ||rho - P rho P||_F is sqrt(48) sqrt(2) leak = 9.80 leak
    here, so the 1e-9 threshold falls 2 % from the two middle cases."""
    v = random_distinct_state(4, 2, 3, 5).amplitudes.copy()
    v[0] = leak  # |00> (x) |0> is a colliding tuple
    st = StateVector(v / np.linalg.norm(v))
    for x in (st, st.to_density()):
        if raises:
            with pytest.raises(DomainError, match="distinct subspace"):
                pf_twirl_distinct_formula(x, dec42)
        else:
            pf_twirl_distinct_formula(x, dec42)


# --- exact twirls held on their support -----------------------------------------

def _support_inputs(d, t, dim_e, seed):
    """A pure state, a mixed state held on its support (a Haar output) and a
    dense non-Hermitian operator."""
    st = random_state(d**t * dim_e, seed)
    mixed = haar_twirl_exact(random_state(d**t * dim_e, seed + 1), d, t)
    return [st, mixed, _random_operator(d, t, dim_e, seed)]


@pytest.mark.parametrize("d, t, dim_e", [(2, 2, 2), (2, 3, 1), (3, 2, 2), (3, 3, 1), (4, 2, 1), (4, 3, 2)])
def test_support_outputs_match_explicit_pf_group_means(d, t, dim_e):
    """Each output on its support against the mean over every label
    permutation and sign pattern, formed with dense Kronecker products;
    a state gives a ``SupportDensity``, an operator a ``SupportOperator``."""
    group = _signed_permutations(d)
    for x in _support_inputs(d, t, dim_e, 3 * d + t):
        X = x.to_density().entries if isinstance(x, StateVector) else getattr(x, "entries", x)
        oracle = sum(_local(g, t, dim_e) @ X @ _local(g, t, dim_e).T for g in group) / len(group)
        out = pf_twirl(x, d, t)
        assert isinstance(out, SupportDensity if not isinstance(x, np.ndarray) else SupportOperator)
        assert np.abs(out.entries - oracle).max() < 1e-12
        off = np.ones(oracle.size, dtype=bool)
        off[out.positions] = False
        assert np.abs(oracle.reshape(-1)[off]).max(initial=0.0) < 1e-12


@pytest.mark.parametrize("n, t, dim_e", [(1, 2, 2), (1, 3, 1), (1, 4, 2), (2, 2, 2), (2, 3, 1), (2, 4, 1)])
def test_support_outputs_match_the_enumerated_clifford_group(n, t, dim_e):
    """The exact Clifford and Haar twirls of inputs held on their support
    against averages over the enumerated Clifford group (a unitary 3-design,
    so the Haar twirl at t <= 3): a basis projector and i|a><b| for two
    tuples a, b that differ by a swap, and at n = 1 a mixed state.  Their
    rank is 1 at n = 2, where the group has 11,520 elements."""
    d = 2**n
    dim = d**t * dim_e
    a = np.ravel_multi_index(([0, 1] + [0] * t)[:t], (d,) * t) * dim_e
    b = np.ravel_multi_index(([1, 0] + [0] * t)[:t], (d,) * t) * dim_e
    inputs = [SupportDensity([a * dim + a], [1.0], dim), SupportOperator([a * dim + b], [1j], dim)]
    if n == 1:
        inputs.append(haar_twirl_exact(random_state(dim, 5 * n + t), d, t))
    group = enumerate_cliffords(n)
    for x in inputs:
        want = ensemble_twirl(x, group, d, t).entries
        got = clifford_twirl(x, n, t, method="exact")
        assert type(got) is type(x)
        assert np.abs(got.entries - want).max() < 1e-12
        if t <= 3:
            assert np.abs(haar_twirl_exact(x, d, t).entries - want).max() < 1e-12


@pytest.mark.parametrize("d, t, dim_e", [(2, 3, 2), (3, 2, 1), (4, 3, 2)])
def test_twirls_of_a_support_input_equal_those_of_its_dense_copy(d, t, dim_e):
    """An input held on its support is paired by lookup, with 0 off the
    support; the outputs equal, bit for bit, those of the dense copy."""
    state = pf_twirl(random_state(d**t * dim_e, 2), d, t)
    op = pf_twirl(_random_operator(d, t, dim_e, 3), d, t)
    for x, dense in ((state, DensityMatrix(state.entries)), (op, DenseOperator(op.entries))):
        for twirl in (lambda y: pf_twirl(y, d, t), lambda y: haar_twirl_exact(y, d, t)):
            got, want = twirl(x), twirl(dense)
            assert type(got) is type(want)
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))
