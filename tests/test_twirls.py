"""Twirl channels: exact paths, block formulas, Monte-Carlo, Clifford averages."""

import itertools
from functools import reduce
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from pru_lab import (
    CapacityError,
    DenseOperator,
    DensityMatrix,
    DomainError,
    PermutationT,
    StateVector,
    all_permutations,
    clifford_twirl,
    distinct_overlap_after_clifford,
    distinct_projector,
    haar_twirl_exact,
    haar_twirl_mc,
    haar_twirl_schur_weyl,
    partial_trace,
    pf_twirl,
    pf_twirl_basis_element,
    pf_twirl_distinct_formula,
    pf_twirl_mc,
    sample_clifford,
    schur_weyl_basis,
    subsystem_perm_op,
    trace_distance,
)
from pru_lab.operators import haar_unitaries

from conftest import random_distinct_state, random_state


@pytest.fixture(scope="module")
def dec42():
    return schur_weyl_basis(4, 2, verify=False)


# --- Haar twirl ----------------------------------------------------------------

def test_haar_t1_maximally_mixes():
    psi = random_state(8, (2, 4), 1)
    out = haar_twirl_exact(psi, 2, 1)
    red_e = partial_trace(psi.to_density(), [1]).entries
    assert np.abs(out.entries - np.kron(np.eye(2) / 2, red_e)).max() < 1e-12


def test_haar_fixes_commutant_elements():
    S = subsystem_perm_op(PermutationT((1, 0)), 4)
    out = haar_twirl_exact(S, 4, 2)
    assert np.abs(out.entries - S.entries).max() < 1e-9


def test_haar_exact_equals_block_formula(dec42):
    for seed in range(20):
        st = random_state(64, (16, 4), seed)
        a = haar_twirl_exact(st, 4, 2)
        b = haar_twirl_schur_weyl(st, dec42)
        assert trace_distance(a, b) < 1e-8


def test_haar_block_formula_symmetric_product():
    dec = schur_weyl_basis(2, 2, verify=False)
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1
    out = haar_twirl_schur_weyl(StateVector(e00, (4, 1)), dec)
    sym = (np.eye(4) + subsystem_perm_op(PermutationT((1, 0)), 2).entries) / 2
    assert np.abs(out.entries - sym / 3).max() < 1e-10


def test_haar_output_invariant_under_tensor_unitaries():
    st = random_state(4, (4,), 9)
    out = haar_twirl_exact(st, 2, 2).entries
    for seed in range(10):
        V = haar_unitaries(2, 1, np.random.default_rng(seed))[0]
        VV = np.kron(V, V)
        assert np.abs(VV @ out - out @ VV).max() < 1e-9


def test_haar_mc_matches_exact():
    N = 100000
    st = random_state(16, (16, 1), 11)
    err = trace_distance(haar_twirl_mc(st, 4, 2, N, 123), haar_twirl_exact(st, 4, 2))
    assert err < 5 / np.sqrt(N)


def test_haar_requires_enough_levels():
    st = random_state(8, (8,), 0)
    with pytest.raises(DomainError):
        haar_twirl_exact(st, 2, 3)


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


def test_pf_identity_fixed_point():
    X = DenseOperator(np.eye(16), (16, 1))
    assert np.abs(pf_twirl(X, 4, 2).entries - np.eye(16)).max() < 1e-12


def test_pf_trace_preserving_and_idempotent():
    st = random_state(64, (16, 4), 21)
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
        pf_twirl_distinct_formula(StateVector(e00, (16, 1)), dec42)


def test_pf_formula_rejects_a_tiny_colliding_leak(dec42):
    rho = random_distinct_state(4, 2, 4, 3).to_density().entries
    pf_twirl_distinct_formula(DenseOperator(rho, (16, 4)), dec42)  # distinct support passes
    leak = rho.copy()
    leak[0, 4] = 1e-8  # row 0 is |00> (x) |0>, a colliding tuple
    with pytest.raises(DomainError):
        pf_twirl_distinct_formula(DenseOperator(leak, (16, 4)), dec42)


def test_pf_equals_haar_on_deficit_free_block(dec42):
    B = dec42.basis_matrix
    anti = B[:, 10:16]  # the 6-dimensional antisymmetric block
    rng = np.random.default_rng(8)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = anti @ c
    st = StateVector(v / np.linalg.norm(v), (16, 1))
    assert trace_distance(
        pf_twirl_distinct_formula(st, dec42), haar_twirl_exact(st, 4, 2)
    ) < 1e-9


def test_pf_mc_matches_exact():
    N = 100000
    st = random_state(16, (16, 1), 2)
    err = trace_distance(pf_twirl_mc(st, 4, 2, N, 5), pf_twirl(st, 4, 2))
    assert err < 5 / np.sqrt(N)


def test_pf_output_is_density():
    st = random_state(32, (16, 2), 31)
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
    out = twirl(DensityMatrix(rho / np.trace(rho).real, (d**t, dim_e)))
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


@pytest.mark.parametrize("n, t, dim_e", [c for c in QUBIT_CASES if 2 ** c[0] >= c[1]])
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
    enumerated group."""
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
    dec = schur_weyl_basis(d, t, verify=False)
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
        st = random_state(8, (4, 2), seed + 40)
        assert trace_distance(
            clifford_twirl(st, 1, 2, method="exact"), haar_twirl_exact(st, 2, 2)
        ) < 1e-9


def test_ensemble_twirl_matches_clifford_exact():
    from pru_lab import enumerate_cliffords, ensemble_twirl

    st = random_state(8, (4, 2), 19)
    a = ensemble_twirl(st, enumerate_cliffords(1), 2, 2)
    b = clifford_twirl(st, 1, 2, method="exact")
    assert trace_distance(a, b) < 1e-12


def test_clifford_fixed_point():
    mix = DensityMatrix(np.eye(16) / 16, (16, 1))
    assert trace_distance(clifford_twirl(mix, 2, 2, method="exact"), mix) < 1e-10


def test_clifford_mc_two_design():
    st = random_state(16, (16, 1), 50)
    mc = clifford_twirl(st, 2, 2, method="monte_carlo", samples=4000, seed=9)
    err = trace_distance(mc, haar_twirl_exact(st, 4, 2))
    envelope = 3 * np.sqrt(mc.dim) * mc.meta["std_error_fro"]
    assert err < envelope


def test_clifford_mc_matches_pure_and_mixed_paths():
    st = random_state(16, (16, 1), 3)
    a = clifford_twirl(st, 2, 2, method="monte_carlo", samples=64, seed=1)
    b = clifford_twirl(st.to_density(), 2, 2, method="monte_carlo", samples=64, seed=1)
    assert trace_distance(a, b) < 1e-10


def test_clifford_exact_capacity():
    st = random_state(64, (64, 1), 0)
    with pytest.raises(Exception):
        clifford_twirl(st, 3, 2, method="exact")


# --- distinct-subspace overlap --------------------------------------------------------

def test_overlap_t1_is_one():
    st = random_state(4, (2, 2), 3)
    info = distinct_overlap_after_clifford(st, 1, 1, method="exact")
    assert abs(info["overlap"] - 1) < 1e-12


def test_overlap_colliding_exact_saturates_bound():
    # |00> input at one qubit saturates 1 - 2/(d+1) exactly at two copies
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1
    info = distinct_overlap_after_clifford(StateVector(e00, (4, 1)), 1, 2, method="exact")
    assert info["overlap"] == pytest.approx(info["bound"], abs=1e-12)


def test_overlap_distinct_supported_input():
    st = random_distinct_state(4, 2, 1, 8)
    info = distinct_overlap_after_clifford(st, 2, 2, method="exact")
    assert info["overlap"] >= info["bound"] - 1e-12


def test_overlap_mc_consistent_with_twirl_stream():
    e00 = np.zeros(64, dtype=complex)
    e00[0] = 1
    st = StateVector(e00, (64, 1))
    info = distinct_overlap_after_clifford(st, 3, 2, method="monte_carlo", samples=300, seed=4)
    twirled = clifford_twirl(st, 3, 2, method="monte_carlo", samples=300, seed=4)
    from pru_lab.operators import distinct_mask

    diag = np.real(np.diagonal(twirled.entries))[distinct_mask(8, 2)].sum()
    assert info["overlap"] == pytest.approx(float(diag), abs=1e-12)
    assert info["overlap"] >= info["bound"] - 3 * info["std_error"]


# --- Monte-Carlo infrastructure --------------------------------------------------------

def test_mc_convergence_rate_rough():
    st = random_state(16, (16, 1), 7)
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
    st = random_state(16, (16, 1), 7)
    a = haar_twirl_mc(st, 4, 2, 3000, 555)
    b = haar_twirl_mc(st, 4, 2, 3000, 555)
    assert np.array_equal(a.entries, b.entries)
    c = clifford_twirl(st, 2, 2, method="monte_carlo", samples=200, seed=8)
    d = clifford_twirl(st, 2, 2, method="monte_carlo", samples=200, seed=8)
    assert np.array_equal(c.entries, d.entries)
