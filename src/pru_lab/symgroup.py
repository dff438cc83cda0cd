"""Combinatorics and representation theory of the symmetric group S_t.

Provides integer partitions (Young diagrams), exact irreducible characters
via the Murnaghan-Nakayama rule, Specht dimensions as counts of standard
tableaux (the basis of Young's orthogonal form), matching polynomial Weyl
dimensions, and Young's orthogonal form of each irrep as a read-only map
from permutation to real orthogonal matrix.

All arithmetic on dimensions, traces and characters is exact (Python
integers); floating point enters only in the orthogonal irrep matrices,
whose entries involve square roots of rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import factorial, sqrt
from types import MappingProxyType

import numpy as np

from .errors import CapacityError, DomainError

# Enumeration budgets: characters stay cheap up to S_8.  Whatever is built
# once per permutation is capped at S_6: the irrep matrices, and the slot
# permutations spanning the exact Haar and Clifford commutants
# (``twirls._commutant``), whose Gram matrix is t! x t!.
CHARACTER_T_CAP = 8
IRREP_T_CAP = 6


@dataclass(frozen=True)
class Partition:
    """A partition of t, stored as a weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if any(p < 1 for p in self.parts):
            raise DomainError(f"partition parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise DomainError(f"partition parts must be weakly decreasing: {self.parts}")

    @property
    def t(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def cells(self):
        """Yield the box coordinates (i, j), 1-indexed row/column."""
        for i, row_len in enumerate(self.parts, start=1):
            for j in range(1, row_len + 1):
                yield (i, j)

    def __repr__(self):
        return f"Partition({self.parts})"


def partitions(t: int) -> list[Partition]:
    """All partitions of ``t`` in canonical (lexicographically descending) order."""
    if not 1 <= t <= CHARACTER_T_CAP:
        raise CapacityError(f"partition enumeration supported for 1 <= t <= {CHARACTER_T_CAP}, got {t}")
    return [Partition(p) for p in _partition_tuples(t, t)]


@cache
def _partition_tuples(t: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if t == 0:
        return ((),)
    out = []
    for first in range(min(t, max_part), 0, -1):
        out.extend((first,) + rest for rest in _partition_tuples(t - first, first))
    return tuple(out)


@dataclass(frozen=True)
class PermutationT:
    """A permutation of 0..t-1 as an image table: of the t tensor slots of
    (C^d)^{x t} (``subsystem_perm_op``) or of the t = d basis labels (``perm_op``)."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(int(i) for i in self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise DomainError(f"image table is not a bijection on 0..{len(self.images) - 1}: {self.images}")

    @property
    def t(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "PermutationT") -> "PermutationT":
        """(self ∘ other)(i) = self(other(i))."""
        if self.t != other.t:
            raise DomainError("cannot compose permutations of different degree")
        return PermutationT(tuple(self.images[other.images[i]] for i in range(self.t)))

    def inverse(self) -> "PermutationT":
        inv = [0] * self.t
        for i, j in enumerate(self.images):
            inv[j] = i
        return PermutationT(tuple(inv))

    def cycle_type(self) -> Partition:
        seen = [False] * self.t
        lengths = []
        for start in range(self.t):
            if seen[start]:
                continue
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = self.images[i]
                length += 1
            lengths.append(length)
        return Partition(tuple(sorted(lengths, reverse=True)))

    def num_cycles(self) -> int:
        return len(self.cycle_type().parts)

    @staticmethod
    def identity(t: int) -> "PermutationT":
        return PermutationT(tuple(range(t)))

    @staticmethod
    def transposition(t: int, a: int, b: int) -> "PermutationT":
        images = list(range(t))
        images[a], images[b] = images[b], images[a]
        return PermutationT(tuple(images))


def all_permutations(t: int) -> list[PermutationT]:
    """All t! permutations, in itertools (lexicographic image-table) order."""
    if t > CHARACTER_T_CAP:
        raise CapacityError(f"S_t enumeration capped at t <= {CHARACTER_T_CAP}")
    return [PermutationT(p) for p in itertools.permutations(range(t))]


# ---------------------------------------------------------------------------
# Characters: Murnaghan-Nakayama on cycle types, exact integers.
# ---------------------------------------------------------------------------

def character(lam: Partition, pi: PermutationT | Partition) -> int:
    """Exact character of the irrep labelled ``lam`` at ``pi``.

    ``pi`` may be a permutation or directly a cycle type; the value depends
    only on the cycle type.
    """
    cycle = pi if isinstance(pi, Partition) else pi.cycle_type()
    if cycle.t != lam.t:
        raise DomainError(f"cycle type of size {cycle.t} does not match partition of {lam.t}")
    return _mn_character(lam.parts, cycle.parts)


@cache
def _mn_character(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1 if not parts else 0
    ell, rest = cycles[0], cycles[1:]
    total = 0
    for stripped, height in _border_strip_removals(parts, ell):
        total += (-1) ** height * _mn_character(stripped, rest)
    return total


def _border_strip_removals(parts: tuple[int, ...], ell: int):
    """All ways to remove a border strip of size ``ell``.

    Works on the beta-set (first-column hook lengths): removing a strip of
    size ell moves one bead from b to b-ell; its height is the number of
    beads strictly in between.
    """
    r = len(parts)
    beta = [parts[i] + (r - 1 - i) for i in range(r)]
    beta_set = set(beta)
    for b in beta:
        nb = b - ell
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_parts = tuple(new_beta[i] - (r - 1 - i) for i in range(r))
        yield tuple(p for p in new_parts if p > 0), height


@cache
def specht_dim(lam: Partition) -> int:
    """Dimension of the Specht module: the number of standard tableaux of
    shape ``lam``, which index the basis of Young's orthogonal form."""
    return len(standard_tableaux(lam))


def weyl_dim(lam: Partition, d: int) -> int:
    """Dimension of the Weyl module for local dimension ``d``, exactly.

    dim = specht_dim(lam)/t! * prod over boxes (i,j) of (d + j - i); the
    product is always divisible by t!/specht_dim.
    """
    if d < lam.rows:
        raise DomainError(f"local dimension {d} smaller than row count {lam.rows}: block absent")
    prod = 1
    for (i, j) in lam.cells():
        prod *= d + j - i
    num = specht_dim(lam) * prod
    tfact = factorial(lam.t)
    assert num % tfact == 0
    return num // tfact


# ---------------------------------------------------------------------------
# Standard tableaux and Young's orthogonal form.
# ---------------------------------------------------------------------------

def standard_tableaux(lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All standard Young tableaux of shape ``lam`` (entries 1..t), in the
    canonical order: lexicographic in the vector (row of 1, row of 2, ...).
    """
    t = lam.t
    out = []

    def grow(row_counts: list[int], rows_of: list[int]):
        k = len(rows_of)
        if k == t:
            tab = [[] for _ in lam.parts]
            for entry, row in enumerate(rows_of, start=1):
                tab[row].append(entry)
            out.append(tuple(tuple(r) for r in tab))
            return
        for i in range(lam.rows):
            if row_counts[i] < lam.parts[i] and (i == 0 or row_counts[i - 1] > row_counts[i]):
                row_counts[i] += 1
                rows_of.append(i)
                grow(row_counts, rows_of)
                rows_of.pop()
                row_counts[i] -= 1

    grow([0] * lam.rows, [])
    return out


def _tableau_positions(tab) -> dict[int, tuple[int, int]]:
    return {entry: (i, j) for i, row in enumerate(tab) for j, entry in enumerate(row)}


@cache
def young_orthogonal_rep(lam: Partition) -> MappingProxyType:
    """Young's orthogonal form of the irrep ``lam``, materialized on all of S_t:
    a read-only map from each permutation to its read-only specht_dim(lam)
    square orthogonal matrix.  The basis is indexed by standard tableaux in
    canonical order and the map is a homomorphism for ``compose``.

    Generator matrices for adjacent transpositions come from axial distances
    between consecutive entries of each standard tableau; general elements
    are filled in multiplicatively over the Cayley graph.
    """
    t = lam.t
    if t > IRREP_T_CAP:
        raise CapacityError(f"materialized irreps capped at t <= {IRREP_T_CAP}, got {t}")
    tableaux = standard_tableaux(lam)
    index = {tab: a for a, tab in enumerate(tableaux)}
    dim = len(tableaux)
    positions = [_tableau_positions(tab) for tab in tableaux]

    def swap_entries(tab, k):
        return tuple(
            tuple(k + 1 if e == k else k if e == k + 1 else e for e in row) for row in tab
        )

    generators: list[np.ndarray] = []
    for k in range(1, t):
        M = np.zeros((dim, dim))
        for a, tab in enumerate(tableaux):
            (ri, ci), (rj, cj) = positions[a][k], positions[a][k + 1]
            dist = (cj - rj) - (ci - ri)  # axial distance from k to k+1
            M[a, a] = 1.0 / dist
            if abs(dist) != 1:  # k and k+1 share no row (+1) and no column (-1)
                b = index[swap_entries(tab, k)]
                M[b, a] = sqrt(1.0 - 1.0 / dist**2)
        generators.append(M)

    matrices: dict[PermutationT, np.ndarray] = {PermutationT.identity(t): np.eye(dim)}
    gen_perms = [PermutationT.transposition(t, k - 1, k) for k in range(1, t)]
    frontier = list(matrices)
    while frontier:
        nxt = []
        for pi in frontier:
            for gp, gm in zip(gen_perms, generators):
                new = gp.compose(pi)
                if new not in matrices:
                    matrices[new] = gm @ matrices[pi]
                    nxt.append(new)
        frontier = nxt
    assert len(matrices) == factorial(t)
    for M in matrices.values():
        M.setflags(write=False)
    return MappingProxyType(matrices)
