"""The three averaging channels used by the experiments.

Each channel (Haar, permutation-phase, Clifford) comes in an exact flavor
and a seeded Monte-Carlo flavor, and acts on the system factor of an
operator that may carry an entangled workspace register.

Exact Haar twirling is the orthogonal projection onto the span of the
tensor-slot permutation operators (their Gram matrix has the closed form
d^{#cycles}); the permutation-phase twirl is evaluated combinatorially per
basis pair, enumerating injective relabelings of the few values present
rather than the full label permutation group.

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
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .clifford import enumerate_cliffords, sample_clifford
from .errors import CapacityError, ConsistencyError, DomainError
from .operators import (
    DenseOperator,
    DensityMatrix,
    StateVector,
    apply_on_axis,
    check_capacity,
    derive_seed,
    distinct_mask,
    falling_factorial,
    haar_unitaries,
    subsystem_perm_index_map,
    trace_distance,
)
from .schur_weyl import (
    IsotypicDecomposition,
    rotate_from_basis,
    rotate_to_basis,
)
from .symgroup import PermutationT, all_permutations

PF_PAIR_CAP = 1 << 20  # exact PF twirl enumerates d^{2t} basis pairs
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


def haar_twirl_schur_weyl(state, decomp: IsotypicDecomposition):
    """Assemble the twirl output blockwise: maximally mixed on each
    unitary-group factor, the input's own footprint on the rest."""
    matrix, was_state = _as_matrix(state)
    d, t = decomp.d, decomp.t
    dim_e = _system_split(matrix.shape[0], d, t)
    rotated = rotate_to_basis(matrix, decomp)
    out = np.zeros_like(rotated)
    for sl, block in zip(decomp.block_slices(), decomp.blocks):
        w, v = block.weyl_dim, block.specht_dim
        idx = np.arange(sl.start * dim_e, sl.stop * dim_e)
        sub = rotated[np.ix_(idx, idx)].reshape(w, v, dim_e, w, v, dim_e)
        footprint = np.einsum("ijeikf->jekf", sub)
        rebuilt = np.einsum("ab,jekf->ajebkf", np.eye(w) / w, footprint)
        out[np.ix_(idx, idx)] = rebuilt.reshape(w * v * dim_e, w * v * dim_e)
    result = rotate_from_basis(out, decomp)
    return _wrap(result, was_state, d, t)


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

def _phase_parity_ok(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Averaging the random binary phase leaves |x><y| alive iff every
    value occurs an even number of times across both tuples."""
    return all(c % 2 == 0 for c in Counter(x + y).values())


@cache
def _orbit_for_pattern(d: int, t: int, pattern: tuple[int, ...]):
    """Uniform label-permutation average of |x><y| for the given joint
    pattern (values replaced by first-occurrence codes).  Returns row and
    column basis indices of the surviving matrix units plus the weight."""
    m = max(pattern) + 1
    weight = 1.0 / falling_factorial(d, m)
    powers = d ** np.arange(t - 1, -1, -1)
    rows, cols = [], []
    for values in itertools.permutations(range(d), m):
        relabeled = [values[p] for p in pattern]
        rows.append(int(np.dot(relabeled[:t], powers)))
        cols.append(int(np.dot(relabeled[t:], powers)))
    return np.array(rows), np.array(cols), weight


def _joint_pattern(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    codes: dict[int, int] = {}
    out = []
    for v in x + y:
        if v not in codes:
            codes[v] = len(codes)
        out.append(codes[v])
    return tuple(out)


def pf_twirl_basis_element(x, y, d: int) -> DenseOperator:
    """Exact permutation-phase twirl of the matrix unit |x><y|.

    Phase parity first; distinct tuples related by a slot permutation take
    the closed form (distinct projector) R_sigma / Tr, anything else is an
    explicit orbit average over injective relabelings.
    """
    x, y = tuple(int(v) for v in x), tuple(int(v) for v in y)
    t = len(x)
    if len(y) != t:
        raise DomainError("tuples must have equal length")
    if any(not 0 <= v < d for v in x + y):
        raise DomainError(f"tuple values must lie in [0, {d})")
    n = d**t
    check_capacity(n)
    out = np.zeros((n, n), dtype=complex)
    if not _phase_parity_ok(x, y):
        return DenseOperator(out, (d,) * t)

    if len(set(x)) == t and sorted(x) == sorted(y):
        # distinct tuples, y = x_sigma with sigma(i) = position of y_i in x
        sigma = PermutationT(tuple(x.index(v) for v in y))
        mask = distinct_mask(d, t).astype(float)
        out[subsystem_perm_index_map(sigma, d), np.arange(n)] = 1.0
        out *= mask[:, None]  # left-multiply by the distinct projector
        return DenseOperator(out / falling_factorial(d, t), (d,) * t)

    rows, cols, weight = _orbit_for_pattern(d, t, _joint_pattern(x, y))
    out[rows, cols] = weight
    return DenseOperator(out, (d,) * t)


def pf_twirl(state, d: int, t: int):
    """Exact permutation-phase twirl, extended linearly over the system
    basis with workspace blocks carried along."""
    matrix, was_state = _as_matrix(state)
    dim_e = _system_split(matrix.shape[0], d, t)
    n = d**t
    if n * n > PF_PAIR_CAP:
        raise CapacityError(f"exact PF twirl needs d^2t = {n * n} <= {PF_PAIR_CAP} basis pairs")
    arr = matrix.reshape(n, dim_e, n, dim_e)
    digit_table = list(itertools.product(range(d), repeat=t))
    nonzero = np.einsum("aebf->ab", np.abs(arr) ** 2) > 0
    out = np.zeros_like(arr)
    for a in range(n):
        xa = digit_table[a]
        for b in range(n):
            if not nonzero[a, b]:
                continue
            yb = digit_table[b]
            if not _phase_parity_ok(xa, yb):
                continue
            rows, cols, weight = _orbit_for_pattern(d, t, _joint_pattern(xa, yb))
            out[rows, :, cols, :] += weight * arr[a, :, b, :]
    return _wrap(out.reshape(matrix.shape), was_state, d, t)


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

    rotated = rotate_to_basis(matrix, decomp)
    out = np.zeros_like(rotated)
    for sl, block in zip(decomp.block_slices(), decomp.blocks):
        w, v = block.weyl_dim, block.specht_dim
        idx = np.arange(sl.start * dim_e, sl.stop * dim_e)
        sub = rotated[np.ix_(idx, idx)].reshape(w, v, dim_e, w, v, dim_e)
        footprint = np.einsum("ijeikf->jekf", sub)
        sigma = block.distinct_block / np.trace(block.distinct_block).real
        rebuilt = np.einsum("ab,jekf->ajebkf", sigma, footprint)
        out[np.ix_(idx, idx)] = rebuilt.reshape(w * v * dim_e, w * v * dim_e)
    result = rotate_from_basis(out, decomp)
    return _wrap(result, was_state, d, t)


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
