"""Partitions, characters, dimensions, and the orthogonal irrep matrices."""

import itertools
from collections import Counter
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pru_lab import (
    CapacityError,
    DomainError,
    Partition,
    PermutationT,
    all_permutations,
    character,
    partitions,
    specht_dim,
    standard_tableaux,
    weyl_dim,
    young_orthogonal_rep,
)


# --- independent oracles ------------------------------------------------------

def brute_partitions(t, max_part=None):
    """Enumerate weakly decreasing positive sequences summing to t."""
    max_part = max_part or t
    if t == 0:
        return [()]
    out = []
    for first in range(min(t, max_part), 0, -1):
        out.extend((first,) + rest for rest in brute_partitions(t - first, first))
    return out


def brute_syt_count(shape):
    """Count standard fillings by checking all t! assignments."""
    t = sum(shape)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    count = 0
    for perm in itertools.permutations(range(1, t + 1)):
        fill = dict(zip(cells, perm))
        ok = all(
            fill[(i, j)] < fill[(i, j + 1)] for (i, j) in cells if (i, j + 1) in fill
        ) and all(fill[(i, j)] < fill[(i + 1, j)] for (i, j) in cells if (i + 1, j) in fill)
        count += ok
    return count


def hook_length_dim(shape):
    """t! over the product of the hook lengths (Frame, Robinson and Thrall):
    the hook of box (i, j) is the boxes to its right and below, plus itself."""
    cols = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    assert factorial(sum(shape)) % hooks == 0
    return factorial(sum(shape)) // hooks


# --- partitions ---------------------------------------------------------------

def test_partitions_small_exhaustive():
    assert [p.parts for p in partitions(1)] == [(1,)]
    assert [p.parts for p in partitions(3)] == [(3,), (2, 1), (1, 1, 1)]


@pytest.mark.parametrize("t", [2, 4, 5, 6])
def test_partitions_match_brute_force(t):
    assert [p.parts for p in partitions(t)] == brute_partitions(t)


def test_partitions_t6_count():
    assert len(partitions(6)) == 11


def test_partitions_capacity():
    with pytest.raises(CapacityError):
        partitions(9)


def test_partition_invalid():
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((2, 0))


def test_partition_cells_count():
    lam = Partition((3, 1))
    assert sorted(lam.cells()) == [(1, 1), (1, 2), (1, 3), (2, 1)]


# --- permutations ---------------------------------------------------------------

@given(st.permutations(list(range(5))))
@settings(max_examples=50, deadline=None)
def test_permutation_inverse_roundtrip(images):
    pi = PermutationT(tuple(images))
    ident = pi.compose(pi.inverse())
    assert ident == PermutationT.identity(5)
    assert pi.cycle_type().t == 5


@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
@settings(max_examples=50, deadline=None)
def test_permutation_compose_associates_with_cycle_count(a, b):
    pa, pb = PermutationT(tuple(a)), PermutationT(tuple(b))
    assert pa.compose(pb).cycle_type() == pb.inverse().compose(pa.inverse()).cycle_type()


# --- characters -----------------------------------------------------------------

def test_character_trivial_and_sign():
    for t in (2, 3, 4, 5):
        for pi in all_permutations(t):
            assert character(Partition((t,)), pi) == 1
            sign = (-1) ** (t - pi.num_cycles())
            assert character(Partition((1,) * t), pi) == sign


def test_character_identity_counts_tableaux():
    assert character(Partition((2, 1)), PermutationT.identity(3)) == 2
    assert character(Partition((2, 2)), PermutationT.identity(4)) == brute_syt_count((2, 2))
    assert character(Partition((3, 2)), PermutationT.identity(5)) == brute_syt_count((3, 2))


def test_character_s3_table():
    # classes ordered (3), (2,1), (1,1,1)
    table = {
        (3,): [1, 1, 1],
        (2, 1): [-1, 0, 2],
        (1, 1, 1): [1, -1, 1],
    }
    for lam_parts, row in table.items():
        lam = Partition(lam_parts)
        assert [character(lam, mu) for mu in partitions(3)] == row


def test_character_matches_irrep_trace():
    for t in (2, 3, 4):
        for lam in partitions(t):
            rep = young_orthogonal_rep(lam)
            for pi in all_permutations(t):
                assert abs(np.trace(rep[pi]) - character(lam, pi)) < 1e-9


def test_character_mismatched_size():
    with pytest.raises(DomainError):
        character(Partition((2,)), PermutationT.identity(3))


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_character_column_orthogonality_exact(t):
    classes = Counter(p.cycle_type() for p in all_permutations(t))
    for la in partitions(t):
        for mu in partitions(t):
            s = sum(n * character(la, c) * character(mu, c) for c, n in classes.items())
            assert s == (factorial(t) if la == mu else 0)


# --- dimensions -----------------------------------------------------------------

def test_specht_dim_examples():
    assert specht_dim(Partition((4,))) == 1
    assert specht_dim(Partition((2, 1))) == brute_syt_count((2, 1)) == 2
    assert specht_dim(Partition((2, 2))) == brute_syt_count((2, 2)) == 2
    assert specht_dim(Partition((3, 2, 1))) == brute_syt_count((3, 2, 1))


@pytest.mark.parametrize("t", range(1, 9))
def test_specht_dim_matches_the_hook_length_formula(t):
    for lam in partitions(t):
        assert specht_dim(lam) == hook_length_dim(lam.parts)


def test_specht_dim_equals_identity_character():
    for t in (2, 3, 4, 5):
        for lam in partitions(t):
            assert specht_dim(lam) == character(lam, PermutationT.identity(t))


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_specht_dim_squares_sum(t):
    assert sum(specht_dim(lam) ** 2 for lam in partitions(t)) == factorial(t)


def test_weyl_dim_examples():
    assert weyl_dim(Partition((2,)), 4) == 10  # d(d+1)/2
    assert weyl_dim(Partition((1, 1)), 4) == 6  # d(d-1)/2
    assert weyl_dim(Partition((2, 1)), 4) == 20


def test_weyl_dim_rank_oracle():
    # symmetric/antisymmetric projector ranks on two copies
    d = 4
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    sym_rank = int(round(np.trace((np.eye(d * d) + swap) / 2)))
    anti_rank = int(round(np.trace((np.eye(d * d) - swap) / 2)))
    assert weyl_dim(Partition((2,)), d) == sym_rank
    assert weyl_dim(Partition((1, 1)), d) == anti_rank


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("t", [2, 3, 4])
def test_schur_weyl_dimension_completeness(d, t):
    total = sum(specht_dim(lam) * weyl_dim(lam, d) for lam in partitions(t) if lam.rows <= d)
    assert total == d**t


def test_weyl_dim_too_few_rows():
    with pytest.raises(DomainError):
        weyl_dim(Partition((1, 1, 1)), 2)


# --- orthogonal representation ----------------------------------------------------

def test_standard_tableaux_counts_and_order():
    tabs = standard_tableaux(Partition((2, 1)))
    assert len(tabs) == 2
    assert tabs[0] == ((1, 2), (3,))  # row-filling first in canonical order
    assert tabs[1] == ((1, 3), (2,))


@pytest.mark.parametrize("t", [2, 3, 4])
def test_yor_orthogonal_and_homomorphic(t):
    perms = all_permutations(t)
    for lam in partitions(t):
        rep = young_orthogonal_rep(lam)
        eye = np.eye(specht_dim(lam))
        for pi in perms:
            M = rep[pi]
            assert np.abs(M @ M.T - eye).max() < 1e-12
        rng = np.random.default_rng(0)
        for _ in range(40):
            a = perms[rng.integers(len(perms))]
            b = perms[rng.integers(len(perms))]
            assert np.abs(rep[a.compose(b)] - rep[a] @ rep[b]).max() < 1e-12


def test_yor_trivial_and_sign_rep():
    t = 4
    triv = young_orthogonal_rep(Partition((t,)))
    sign = young_orthogonal_rep(Partition((1,) * t))
    for pi in all_permutations(t):
        assert np.allclose(triv[pi], [[1.0]])
        assert np.allclose(sign[pi], [[(-1) ** (t - pi.num_cycles())]])


def test_yor_schur_orthogonality_sum_21():
    # sum over the group of |M_11|^2 equals t!/dim for the (2,1) irrep
    rep = young_orthogonal_rep(Partition((2, 1)))
    s = sum(rep[pi][0, 0] ** 2 for pi in all_permutations(3))
    assert abs(s - factorial(3) / 2) < 1e-12


@pytest.mark.parametrize("t", [2, 3, 4])
def test_yor_full_schur_orthogonality(t):
    perms = all_permutations(t)
    reps = {lam: young_orthogonal_rep(lam) for lam in partitions(t)}
    for la, ra in reps.items():
        A = np.stack([ra[p] for p in perms])
        for lb, rb in reps.items():
            B = np.stack([rb[p] for p in perms])
            got = np.einsum("pij,pkl->ikjl", A, B) / len(perms)
            if la == lb:
                eye = np.eye(specht_dim(la))
                expected = np.einsum("ik,jl->ikjl", eye, eye) / specht_dim(la)
            else:
                expected = np.zeros_like(got)
            assert np.abs(got - expected).max() < 1e-12


def test_yor_capacity():
    with pytest.raises(CapacityError):
        young_orthogonal_rep(Partition((7,)))


def test_young_orthogonal_rep_is_a_read_only_map_of_read_only_matrices():
    lam = Partition((2, 1))
    rep = young_orthogonal_rep(lam)
    with pytest.raises(TypeError):
        rep[PermutationT.identity(3)] = np.eye(2)
    assert sorted(rep, key=lambda pi: pi.images) == sorted(all_permutations(3), key=lambda pi: pi.images)
    for M in rep.values():
        assert M.shape == (specht_dim(lam),) * 2 and not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 0.0
