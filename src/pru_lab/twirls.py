"""The three averaging channels used by the experiments.

Each channel (Haar, permutation-phase, Clifford) comes in an exact flavor
and a seeded Monte-Carlo flavor, and acts on the system factor of an
operator that may carry an entangled workspace register.

Exact Haar twirling is the orthogonal projection onto the span of the
tensor-slot permutation operators (their Gram matrix has the closed form
d^{#cycles}).  The exact permutation-phase twirl is a mean over pattern
classes: system basis pairs (x, y) whose 2t digits have the same equality
relation form one label-permutation orbit, so each output block is the
mean of the input blocks over its class, zeroed unless every value occurs
an even number of times.  The class table is built once per (d, t).  The
blockwise Schur-Weyl formulas for both twirls share one footprint loop in
``schur_weyl``.

Every ensemble average -- the Monte-Carlo Haar and permutation-phase
twirls, the Clifford twirl (enumerated or sampled), ``ensemble_twirl`` and
the keyed average in ``pru`` -- goes through one driver,
``_average_conjugation``, which conjugates thin factors of the input by
batches of single-register unitaries.  ``distinct_overlap_after_clifford``
takes its per-sample overlaps from the same pass and also returns the
twirled state, so one Clifford pass serves both.

Monte-Carlo runs draw their randomness per fixed-size chunk from seeds
derived as (seed, chunk index), and chunks are reduced in ascending order,
so results are reproducible however the chunks are scheduled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .clifford import enumerate_cliffords, sample_clifford
from .errors import ConsistencyError, DomainError
from .operators import (
    DenseOperator,
    DensityMatrix,
    StateVector,
    apply_on_axis,
    check_capacity,
    derive_seed,
    distinct_mask,
    haar_unitaries,
    subsystem_perm_index_map,
    trace_distance,
)
from .schur_weyl import (
    IsotypicDecomposition,
    block_footprints,
    rotate_from_basis,
    rotate_to_basis,
)
from .symgroup import all_permutations

MC_CHUNK = 512  # fixed chunk size; seeds derive as (seed, chunk index)
_SUB_BATCH_ELEMENTS = 1 << 16  # complex entries per conjugated sub-batch; bounds driver memory


@dataclass(frozen=True)
class TwirlSpec:
    """Which channel to apply and how."""

    kind: str  # "haar" | "pf" | "clifford" | "custom-ensemble"
    d: int
    t: int
    method: str = "exact"  # "exact" | "monte_carlo"
    samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("haar", "pf", "clifford", "custom-ensemble"):
            raise DomainError(f"unknown twirl kind {self.kind!r}")
        if self.method not in ("exact", "monte_carlo"):
            raise DomainError(f"unknown method {self.method!r}")
        if self.method == "monte_carlo" and self.samples < 1:
            raise DomainError("monte_carlo requires samples >= 1")
        if self.kind == "haar" and self.method == "exact" and self.d < self.t:
            raise DomainError("exact Haar twirl needs d >= t (independent permutation operators)")


def _as_matrix(state) -> tuple[np.ndarray, bool]:
    """Matrix payload plus a flag saying whether the input was a state."""
    if isinstance(state, StateVector):
        psi = state.amplitudes
        return np.outer(psi, psi.conj()), True
    if isinstance(state, DensityMatrix):
        return np.asarray(state.entries), True
    if isinstance(state, DenseOperator):
        return np.asarray(state.entries), False
    return np.asarray(state, dtype=complex), False


def _wrap(matrix: np.ndarray, was_state: bool, d: int, t: int, meta: dict | None = None):
    regs = (d**t, matrix.shape[0] // d**t)
    if was_state:
        return DensityMatrix(matrix, regs, meta=meta)
    return DenseOperator(matrix, regs, meta=meta)


def _system_split(matrix_dim: int, d: int, t: int) -> int:
    n = d**t
    if matrix_dim % n:
        raise DomainError(f"operator dim {matrix_dim} not divisible by d^t = {n}")
    return matrix_dim // n


def _chunk_seeds(samples: int):
    """Yield (chunk_index, count) pairs covering ``samples``."""
    done, index = 0, 0
    while done < samples:
        count = min(MC_CHUNK, samples - done)
        yield index, count
        done += count
        index += 1


# ---------------------------------------------------------------------------
# Haar twirl: exact commutant projection and block formula.
# ---------------------------------------------------------------------------

def haar_twirl_exact(state, d: int, t: int):
    """Project the system factor onto the span of slot permutations.

    Solves the Gram system G c = b with G[s, p] = d^{#cycles(s^-1 p)} and
    b the pairing of the input with each permutation operator; the
    workspace factor rides along as matrix-valued coefficients.
    """
    if d < t:
        raise DomainError("exact Haar twirl needs d >= t")
    matrix, was_state = _as_matrix(state)
    dim_e = _system_split(matrix.shape[0], d, t)
    n = d**t
    perms = all_permutations(t)
    maps = [subsystem_perm_index_map(pi, d) for pi in perms]
    arr = matrix.reshape(n, dim_e, n, dim_e)

    b = np.stack([arr[m, :, np.arange(n), :].sum(axis=0) for m in maps])  # (t!, E, E)
    G = np.array(
        [[float(d) ** a.inverse().compose(bp).num_cycles() for bp in perms] for a in perms]
    )
    cho = cho_factor(G)  # Gram matrices of independent operators are SPD
    coeffs = cho_solve(cho, b.reshape(len(perms), -1)).reshape(b.shape)

    out = np.zeros_like(arr)
    cols = np.arange(n)
    for m, c in zip(maps, coeffs):
        out[m, :, cols, :] += c[None, :, :]
    meta = {"gram_condition": float(np.linalg.cond(G))}
    return _wrap(out.reshape(matrix.shape), was_state, d, t, meta=meta)


def _blockwise_twirl(state, decomp: IsotypicDecomposition, weyl_state):
    """Rebuild every Schur-Weyl block as weyl_state(block) (x) the input's
    footprint on it; off-block parts are dropped."""
    matrix, was_state = _as_matrix(state)
    out = np.zeros(matrix.shape, dtype=complex)
    for block, rows, footprint in block_footprints(rotate_to_basis(matrix, decomp), decomp):
        rebuilt = np.einsum("ab,jekf->ajebkf", weyl_state(block), footprint)
        out[rows, rows] = rebuilt.reshape(rows.stop - rows.start, -1)
    return _wrap(rotate_from_basis(out, decomp), was_state, decomp.d, decomp.t)


def haar_twirl_schur_weyl(state, decomp: IsotypicDecomposition):
    """Assemble the twirl output blockwise: maximally mixed on each
    unitary-group factor, the input's own footprint on the rest."""
    return _blockwise_twirl(state, decomp, lambda block: np.eye(block.weyl_dim) / block.weyl_dim)


# ---------------------------------------------------------------------------
# The averaging driver shared by every ensemble of local unitaries.
# ---------------------------------------------------------------------------

class _Average(NamedTuple):
    mean: np.ndarray
    was_state: bool
    std_error_fro: float
    values: np.ndarray | None  # per-sample expectations, when weights were given


def _factors(state):
    """Thin factors of X = L diag(w) R^dag plus the was-a-state flag.

    A state vector is its own one-column factor; anything else goes through
    an SVD with numerically zero singular values dropped.
    """
    if isinstance(state, StateVector):
        psi = state.amplitudes[:, None]
        return psi, np.ones(1), psi, True
    matrix, was_state = _as_matrix(state)
    u, s, vh = np.linalg.svd(matrix)
    keep = s > s[0] * matrix.shape[0] * np.finfo(float).eps
    return u[:, keep], s[keep], vh[keep].conj().T, was_state


def _average_conjugation(state, d: int, t: int, batches, weights=None) -> _Average:
    """Mean of (U^{x t} x I) X (U^{x t} x I)^dag over every U in ``batches``.

    ``batches`` yields (count, d, d) stacks of single-register unitaries.
    Each stack is applied along the first t tensor axes of the factors of
    X and folded into the sum with one matrix product.  The Frobenius
    standard error of the mean comes for free, because conjugation keeps
    the Frobenius norm sample by sample.  Given a diagonal observable
    ``weights`` on the system factor (length d^t), the per-sample values
    Tr[(diag(weights) x I) U X U^dag] are returned too.  Only state inputs
    are Hermitised.
    """
    left0, w, right0, was_state = _factors(state)
    total, rank = left0.shape
    dim_e = _system_split(total, d, t)
    shaped = (1, rank) + (d,) * t + (dim_e,)
    if weights is not None:
        weights = np.repeat(np.asarray(weights, dtype=float), dim_e)
    step = max(1, _SUB_BATCH_ELEMENTS // max(total * rank, 1))

    def conjugated(us, factor):  # (count, rank, total): factor columns, conjugated
        tensor = factor.T.reshape(shaped)
        for axis in range(2, t + 2):
            tensor = apply_on_axis(us, tensor, axis)
        return tensor.reshape(len(us), rank, total)

    def folded(us):  # sum over us of (U L) diag(w) (U R)^dag, and per-sample values
        left = conjugated(us, left0)
        right = (left if right0 is left0 else conjugated(us, right0)).conj()
        right *= w[:, None]
        vals = None if weights is None else np.einsum("i,ski,ski->s", weights, left, right)
        return left.reshape(-1, total).T @ right.reshape(-1, total), vals

    acc = np.zeros((total, total), dtype=complex)
    values, samples = [], 0
    for batch in batches:
        for start in range(0, len(batch), step):
            us = batch[start : start + step]
            block, vals = folded(us)
            acc += block
            values.append(vals)
            samples += len(us)
    if samples < 1:
        raise DomainError("an ensemble average needs at least one unitary")
    acc /= samples
    if was_state:
        acc += acc.conj().T
        acc /= 2
    var = max(float(np.sum(w**2)) - float(np.sum(np.abs(acc) ** 2)), 0.0)
    var *= samples / max(samples - 1, 1)
    per_sample = None if weights is None else np.concatenate(values)
    return _Average(acc, was_state, float(np.sqrt(var / samples)), per_sample)


def _stacked(mats):
    """Group an iterable of d x d matrices into (count, d, d) batches."""
    it = iter(mats)
    while chunk := list(itertools.islice(it, MC_CHUNK)):
        yield np.stack(chunk)


def _pf_unitaries(d: int, count: int, rng) -> np.ndarray:
    """A batch of (label permutation) x (random sign pattern) matrices."""
    perms = np.argsort(rng.random((count, d)), axis=1)
    signs = (1.0 - 2.0 * rng.integers(0, 2, size=(count, d))).astype(complex)
    pf = np.zeros((count, d, d), dtype=complex)
    pf[np.arange(count)[:, None], perms, np.arange(d)[None, :]] = signs
    return pf


def _sampled_twirl(state, d: int, t: int, samples: int, seed, draw, label: str):
    batches = (
        draw(d, count, np.random.default_rng(derive_seed(seed, chunk_index)))
        for chunk_index, count in _chunk_seeds(samples)
    )
    avg = _average_conjugation(state, d, t, batches)
    meta = {
        "method": "monte_carlo",
        "ensemble": label,
        "samples": samples,
        "seed": seed,
        "std_error_fro": avg.std_error_fro,
    }
    return _wrap(avg.mean, avg.was_state, d, t, meta=meta)


def haar_twirl_mc(state, d: int, t: int, samples: int, seed):
    """Monte-Carlo Haar twirl, deterministic per seed."""
    return _sampled_twirl(state, d, t, samples, seed, haar_unitaries, "haar")


def pf_twirl_mc(state, d: int, t: int, samples: int, seed):
    """Monte-Carlo permutation-phase twirl over sampled (permutation, sign
    pattern) pairs, deterministic per seed."""
    return _sampled_twirl(state, d, t, samples, seed, _pf_unitaries, "pf")


# ---------------------------------------------------------------------------
# Permutation-phase twirl, exact.
# ---------------------------------------------------------------------------

class _PfClasses(NamedTuple):
    labels: np.ndarray  # (n * n,) class of each system basis pair (a, b), row-major
    order: np.ndarray  # (n * n,) the pairs stably sorted by class
    sizes: np.ndarray  # (classes,) pairs per class
    even: np.ndarray  # (classes,) every value occurs an even number of times


@lru_cache(maxsize=8)
def _pf_classes(d: int, t: int) -> _PfClasses:
    """Group the system basis pairs (x_a, y_b) by joint pattern, the
    equality relation among their 2t digits; a pattern class is exactly one
    label-permutation orbit.

    The relation is packed as first-occurrence pointers: digit j points at
    the first digit equal to it, a value in [0, j], so the pointers form one
    mixed-radix integer below (2t)!.  Codes are built on (n, n) broadcasts
    of the digit columns and compacted whenever the next radix could
    overflow int64.
    """
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
    _, labels, sizes = np.unique(
        np.broadcast_to(code, (n, n)).reshape(-1), return_inverse=True, return_counts=True
    )
    labels = labels.astype(np.min_scalar_type(len(sizes) - 1))
    order = np.argsort(labels, kind="stable").astype(np.min_scalar_type(n * n - 1))
    first_pair = order[np.cumsum(sizes) - sizes]  # one representative pair per class
    values = [digits[first_pair // n, i] for i in range(t)]
    values += [digits[first_pair % n, i] for i in range(t)]
    even = np.ones(len(sizes), dtype=bool)
    for v in values:
        even &= sum(u == v for u in values) % 2 == 0
    return _PfClasses(labels, order, sizes, even)


def pf_twirl(state, d: int, t: int):
    """Exact permutation-phase twirl, workspace blocks carried along.

    Averaging |x><y| over label permutations spreads it uniformly over its
    joint-pattern class, and averaging the binary phases keeps it only when
    every value occurs an even number of times.  So output block (a, b) is
    the mean of the input blocks over the class of (a, b), or zero.
    """
    matrix, was_state = _as_matrix(state)
    check_capacity(matrix.shape[0])
    dim_e = _system_split(matrix.shape[0], d, t)
    n = d**t
    classes = _pf_classes(d, t)
    pairs = matrix.reshape(n, dim_e, n, dim_e).transpose(0, 2, 1, 3).reshape(n * n, dim_e**2)
    starts = np.cumsum(classes.sizes) - classes.sizes
    means = np.add.reduceat(pairs[classes.order], starts, axis=0) / classes.sizes[:, None]
    means[~classes.even] = 0
    out = means[classes.labels].reshape(n, n, dim_e, dim_e).transpose(0, 2, 1, 3)
    return _wrap(out.reshape(matrix.shape), was_state, d, t)


def pf_twirl_basis_element(x, y, d: int) -> DenseOperator:
    """Exact permutation-phase twirl of the matrix unit |x><y|."""
    x, y = tuple(int(v) for v in x), tuple(int(v) for v in y)
    t = len(x)
    if len(y) != t:
        raise DomainError("tuples must have equal length")
    if any(not 0 <= v < d for v in x + y):
        raise DomainError(f"tuple values must lie in [0, {d})")
    n = d**t
    check_capacity(n)
    unit = np.zeros((n, n), dtype=complex)
    unit[np.ravel_multi_index(x, (d,) * t), np.ravel_multi_index(y, (d,) * t)] = 1.0
    return DenseOperator(pf_twirl(unit, d, t).entries, (d,) * t)


def pf_twirl_distinct_formula(state, decomp: IsotypicDecomposition):
    """Block formula for inputs supported on distinct tuples: the
    distinct-block mixed state replaces the maximally mixed one."""
    matrix, was_state = _as_matrix(state)
    d, t = decomp.d, decomp.t
    dim_e = _system_split(matrix.shape[0], d, t)
    mask = distinct_mask(d, t).astype(float)
    full_mask = np.repeat(mask, dim_e)
    projected = full_mask[:, None] * matrix * full_mask[None, :]
    if trace_distance(projected, matrix) > 1e-9:
        raise DomainError("input is not supported on the distinct subspace")
    return _blockwise_twirl(
        state, decomp, lambda block: block.distinct_block / np.trace(block.distinct_block).real
    )


# ---------------------------------------------------------------------------
# Explicit-ensemble and Clifford twirls.
# ---------------------------------------------------------------------------

def ensemble_twirl(state, ops, d: int, t: int):
    """Exact t-fold twirl over an explicit list of unitaries on C^d."""
    mats = (op.entries if isinstance(op, DenseOperator) else np.asarray(op) for op in ops)
    avg = _average_conjugation(state, d, t, _stacked(mats))
    return _wrap(avg.mean, avg.was_state, d, t, meta={"method": "exact", "samples": len(ops)})


def _clifford_sample_seed(seed, index: int) -> list:
    return derive_seed(seed, index // MC_CHUNK, index % MC_CHUNK)


def _clifford_average(state, n: int, t: int, method: str, samples: int, seed, weights=None):
    """The Clifford twirl plus, under Monte-Carlo, the per-sample values of
    ``weights`` (None for the exact enumeration)."""
    d = 2**n
    if method == "exact":
        return ensemble_twirl(state, enumerate_cliffords(n, allow_two_qubit=True), d, t), None
    if method != "monte_carlo":
        raise DomainError(f"unknown method {method!r}")
    mats = (
        sample_clifford(n, _clifford_sample_seed(seed, i)).to_dense().entries for i in range(samples)
    )
    avg = _average_conjugation(state, d, t, _stacked(mats), weights)
    meta = {
        "method": "monte_carlo",
        "samples": samples,
        "seed": seed,
        "std_error_fro": avg.std_error_fro,
    }
    return _wrap(avg.mean, avg.was_state, d, t, meta=meta), avg.values


def clifford_twirl(state, n: int, t: int, method: str = "exact", samples: int = 0, seed: int = 0):
    """Average conjugation by C^{x t} over the Clifford group.

    Exact averaging enumerates the group for n <= 2; otherwise a seeded
    Monte-Carlo estimate is returned, with the Frobenius standard error of
    the mean attached to the metadata.  Sample i is drawn from the seed
    (seed, i // MC_CHUNK, i % MC_CHUNK).
    """
    return _clifford_average(state, n, t, method, samples, seed)[0]


def distinct_overlap_after_clifford(
    state, n: int, t: int, method: str = "exact", samples: int = 0, seed: int = 0
) -> dict:
    """Overlap of the Clifford-twirled state with the distinct subspace,
    with the pair-counting lower bound 1 - t(t-1)/(d+1).

    The bound multiplies the t(t-1)/2 colliding pairs by the operator norm
    2/(d(d+1)) of the Haar average of a doubled projector, times the
    collision projector trace d.  Under Monte-Carlo the overlap is a
    per-sample scalar from the same pass that builds the twirled state, so
    the reported standard error is the plain sample one.  The twirled
    state itself is returned under "state".
    """
    d = 2**n
    bound = 1.0 - t * (t - 1) / (d + 1)
    mask = distinct_mask(d, t)
    twirled, values = _clifford_average(state, n, t, method, samples, seed, weights=mask)
    if values is None:
        diag = np.real(np.diagonal(twirled.entries)).reshape(d**t, -1)
        overlap, se = float(diag[mask].sum()), 0.0
    else:
        overlap = float(values.real.mean())
        se = float(values.real.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    result = {
        "overlap": overlap,
        "bound": bound,
        "std_error": se,
        "method": method,
        "samples": samples,
        "state": twirled,
    }
    return _assert_overlap_bound(result)


def _assert_overlap_bound(result: dict) -> dict:
    slack = 3 * result["std_error"] + 1e-9
    if result["overlap"] < result["bound"] - slack:
        raise ConsistencyError(
            f"distinct-subspace overlap {result['overlap']} fell below the bound "
            f"{result['bound']} by more than the Monte-Carlo tolerance {slack}"
        )
    return result
