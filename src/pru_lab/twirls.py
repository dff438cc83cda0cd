"""The three averaging channels used by the experiments.

Each channel (Haar, permutation-phase, Clifford) comes in an exact flavor
and a seeded Monte-Carlo flavor, and acts on the system factor of an
operator that may carry an entangled workspace register.

Every exact twirl is one routine: the orthogonal projection onto the
commutant of the group's t-fold action, paired with the input by index
gathers and solved with the pseudo-inverse of the spanning operators' Gram
matrix, and returned on its support (``operators.SupportDensity``, or
``SupportOperator`` for a non-state input).  The Haar commutant is spanned
by the tensor-slot permutations (Gram matrix d^{#cycles}, singular when
d < t), the Clifford one by one operator per stochastic Lagrangian subspace
of F_2^{2t}, each of d^t entries, so either is one stacked term; for t <= 3
these are the permutation graphs alone, so the Clifford record is the Haar
one (a unitary 3-design).  The permutation-phase commutant is spanned by
the indicators of the even pattern classes: basis pairs (x, y) whose 2t
digits have the same equality pattern, with every value occurring an even
number of times.  Each class is enumerated as its even pattern times the
injective relabelings of the pattern's values, so only kept pairs are
built.  Each spanning set is built once per (d, t).  The blockwise
Schur-Weyl formulas for the Haar and permutation-phase twirls share one
footprint loop in ``schur_weyl`` and are returned on their orbit blocks.

Every ensemble average -- the Monte-Carlo Haar, permutation-phase and
Clifford twirls, ``ensemble_twirl`` and the keyed average in ``pru`` --
goes through one driver, ``_average_conjugation``: a state's mean is a
dense ``DensityMatrix``; any other input's mean is a ``SupportOperator``.
It conjugates thin factors of the input by batches of single-register
unitaries, one system slot at a time through ``operators.apply_tensor_power``.
A state vector is its own right factor, so it is conjugated once per
sub-batch; any other input's left and right factors are conjugated apart.
``distinct_overlap_after_clifford`` reads the overlap off the twirled
state's diagonal and also returns that state, so one Clifford pass serves
both; under Monte-Carlo that pass also yields the per-sample overlaps
behind its standard error.  It returns the overlap next to its bound and
does not judge them: the ``clifford_distinct_overlap`` records of the
security experiment and of the ``verify`` suite do.

Every Monte-Carlo twirl is one call of ``_sampled_twirl`` with its own
``draw(count, chunk_seed)``: chunk c of MC_CHUNK samples is drawn from the
seed (seed, c), and chunks are reduced in ascending order, so results are
reproducible however the chunks are scheduled.  Haar and permutation-phase
chunks seed one generator each; Clifford sample j of chunk c seeds its own
generator with (seed, c, j).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import NamedTuple

import numpy as np

from .clifford import EXACT_QUBIT_CAP, sample_clifford_unitaries
from .errors import CapacityError, DomainError
from .operators import (
    DensityMatrix,
    StateVector,
    SupportDensity,
    SupportOperator,
    _dense,
    _distinct_overlap,
    _operand,
    apply_tensor_power,
    check_capacity,
    derive_seed,
    distinct_mask,
    haar_unitaries,
    subsystem_perm_index_map,
    system_dim,
    workspace_dim,
)
from .schur_weyl import (
    IsotypicDecomposition,
    _rotate_rows,
    _unrotate_orbit_blocks,
    block_footprints,
    rotate_to_basis,
)
from .symgroup import IRREP_T_CAP, all_permutations

MC_CHUNK = 512  # fixed chunk size; seeds derive as (seed, chunk index)
_SUB_BATCH_ELEMENTS = 1 << 16  # complex entries per conjugated sub-batch; bounds driver memory


def _payload(state) -> tuple:
    """The 1-D amplitudes of a ``StateVector`` (psi psi^dag is never formed),
    or any other operand as ``operators._operand`` reads it, plus whether
    the input was a state."""
    if isinstance(state, StateVector):
        return state.amplitudes, True
    return _operand(state), isinstance(state, DensityMatrix)


def _require_draws(count: int, unit: str) -> None:
    """Refuse a Monte-Carlo average of fewer than 2 draws, ``unit`` "samples"
    or "keys": one draw has no spread to estimate a standard error from."""
    if count < 2:
        average = "a keyed average" if unit == "keys" else "a Monte-Carlo average"
        raise DomainError(f"{average} needs at least 2 {unit}, got {count}")


def _wrap(matrix: np.ndarray, was_state: bool, meta: dict | None = None):
    """Wrap the array a twirl has just built: a state result takes it over,
    anything else is held on its nonzero entries."""
    if was_state:
        return DensityMatrix._adopt(matrix, meta=meta)
    flat = np.flatnonzero(matrix)
    return SupportOperator(flat, matrix.reshape(-1)[flat], len(matrix), meta=meta)


def _wrap_support(positions: np.ndarray, values: np.ndarray, dim: int, was_state: bool, meta=None):
    """Wrap the entries a twirl has just built on its support."""
    return (SupportDensity if was_state else SupportOperator)(positions, values, dim, meta=meta)


# ---------------------------------------------------------------------------
# Exact twirls as commutant projections, and the Schur-Weyl block formulas.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)  # hashed by identity, so ``_support_layout`` can cache per record
class _Commutant:
    """Operators spanning a commutant, as terms (rows, cols) that each stack
    operators of one width, sum_i |rows[j, i]><cols[j, i]| (one term for the
    Haar and Clifford commutants, one per class width (d)_k for the
    permutation-phase one), and the pseudo-inverse of their block-diagonal
    Gram matrix Tr[B_j^dag B_k] as a (blocks, m, m) stack, in term order."""

    terms: tuple
    gram_pinv: np.ndarray
    meta: dict


def _freeze_commutant(terms: list, gram: np.ndarray) -> _Commutant:
    """Pseudo-invert each block of the (blocks, m, m) ``gram`` and freeze the
    cached record.  Null eigenvalues are round-off of at most 2.3 eps * max and
    kept ones at least 0.018 max (permutations and Lagrangian subspaces, d = 2,
    4, 8, t <= 5), so each block is cut at matrix_rank's m * eps.  The metadata
    carries the rank and the condition number over the kept spectrum."""
    values, vectors = np.linalg.eigh(gram)
    kept = np.abs(values) > gram.shape[-1] * np.finfo(float).eps * np.abs(values).max(-1, keepdims=True)
    gram_pinv = (vectors / np.where(kept, values, np.inf)[..., None, :]) @ vectors.swapaxes(-1, -2)
    meta = {"gram_rank": int(kept.sum()), "gram_condition": float(values[kept].max() / values[kept].min())}
    for array in (gram_pinv, *(a for term in terms for a in term)):
        array.setflags(write=False)
    return _Commutant(tuple(terms), gram_pinv, meta)


@lru_cache(maxsize=8)
def _lagrangian_subspaces(t: int) -> np.ndarray:
    """The stochastic Lagrangian subspaces T of F_2^{2t} (t-dimensional, 1_{2t}
    in T, |x| - |y| = 0 mod 4 on every element x 2^t + y), one row of sorted
    elements each, prod_{k < t-1} (2^k + 1) in all.  Each grows from span{1}
    by vectors with |x| - |y| = 0 mod 4, even overlap with the basis so far
    (so the condition holds on the span: |v ^ w| = |v| + |w| - 2|v & w|) and
    smallest in their coset; ``np.unique`` drops repeats."""
    size = 4**t
    weight = np.array([bin(i).count("1") for i in range(size)])
    null = np.flatnonzero((weight[np.arange(size) >> t] - weight[np.arange(size) % 2**t]) % 4 == 0)[1:]
    spaces, basis = np.array([[0, size - 1]]), np.array([[size - 1]])
    for _ in range(t - 1):
        s, c = np.nonzero(~(weight[null[None, :, None] & basis[:, None, :]] % 2).any(2))
        cosets = null[c, None] ^ spaces[s]
        first = cosets.min(1) == null[c]
        grown = np.sort(np.concatenate([spaces[s[first]], cosets[first]], axis=1), axis=1)
        spaces, index = np.unique(grown, axis=0, return_index=True)
        basis = np.concatenate([basis[s], null[c, None]], axis=1)[first][index]
    spaces.setflags(write=False)
    return spaces


@lru_cache(maxsize=8)
def _commutant(d: int, t: int, clifford: bool) -> _Commutant:
    """R(T) = r(T)^{x n} with r(T) = sum_{(x, y) in T} |x><y| on t qubits, for
    the permutation graphs T_pi = {(pi y, y)}, whose R(T_pi) = R_pi at any d,
    and with ``clifford`` (d = 2^n) the other stochastic Lagrangian
    subspaces: a spanning set of the commutant of C^{x t} (Gross, Nezami
    and Walter, arXiv:1712.08628, Thm. 4.3).  R(T) is d^t ones, one per
    element (x_q, y_q) of T for each qubit q, with x_q[j] (y_q[j]) as bit q
    of slot j's row (column) digit.  All stack as one term, the t! index maps
    first; the one Gram block is Tr[R(T)^dag R(T')] = d^{dim(T n T')}.
    When all T are permutation graphs (t <= 3), it is the Haar record.
    All t! slot permutations are built, so t is capped at IRREP_T_CAP.
    """
    if t > IRREP_T_CAP:
        raise CapacityError(f"the exact Haar twirl materializes all t! slot permutations, "
                            f"capped at t <= {IRREP_T_CAP}, got t = {t}")
    if clifford and len(_lagrangian_subspaces(t)) == factorial(t):
        return _commutant(d, t, False)
    perms = all_permutations(t)
    rows = np.array([subsystem_perm_index_map(pi, d) for pi in perms])
    cols = np.broadcast_to(np.arange(system_dim(d, t)), rows.shape)
    spaces = np.array([subsystem_perm_index_map(pi, 2) << t | np.arange(2**t) for pi in perms])
    if clifford:
        spaces = np.concatenate([spaces, _lagrangian_subspaces(t)])
    member = np.zeros((len(spaces), 4**t), dtype=np.float32)
    member[np.arange(len(spaces))[:, None], spaces] = 1.0
    shared = member @ member.T  # |T n T'|, exact in float32
    if clifford:  # the Lagrangian subspaces that are not permutation graphs
        keep = np.r_[np.ones(len(perms), bool), shared[: len(perms), len(perms) :].max(0) < 2**t]
        shared, others = shared[np.ix_(keep, keep)], spaces[keep][len(perms) :]
        n, halves = d.bit_length() - 1, np.stack([others >> t, others % 2**t])  # x and y
        # bit t-1-j of a t-bit label (slot j) moves to the top bit of slot j's digit
        qubit = places = sum((halves >> k & 1) << n * k for k in range(t))
        for _ in range(n - 1):  # each further qubit one bit below the last, in every slot
            places = (places[..., None] << 1 | qubit[:, :, None]).reshape(2, len(others), places.shape[2] * 2**t)
        rows, cols = np.concatenate([rows, places[0]]), np.concatenate([cols, places[1]])
    gram = np.power(d, np.log2(shared).astype(int)).astype(float)
    return _freeze_commutant([(rows, cols)], gram[None])


@lru_cache(maxsize=8)
def _pf_commutant(d: int, t: int) -> _Commutant:
    """The indicators of the even pattern classes, which span the
    permutation-phase commutant.

    Basis pairs (x, y) whose 2t digits have the same equality pattern form
    one label-permutation orbit; the binary phases keep its indicator when
    every value occurs an even number of times.  So each kept class is an
    even pattern times its injective relabelings: the patterns grow one
    digit slot at a time as restricted growth strings (slot j takes a value
    at most one above the largest so far), and a prefix is dropped once it
    has more odd-count values than slots left to pair them.  A pattern with
    k values has the (d)_k relabelings of its values as members, sorted by
    the flat pair index x d^t + y and stored in C order, so the pairing sums
    each class in that order.  The indicators have disjoint supports,
    so the Gram matrix is diagonal with the class sizes on it, the classes
    with k values share a term, and no odd class is ever built.
    """
    n = system_dim(d, t)
    patterns = np.zeros((1, 0), dtype=np.int8)
    for j in range(2 * t):
        top = patterns.max(axis=1, initial=-1)
        patterns = np.concatenate(
            [np.insert(patterns[top >= v - 1], j, v, axis=1) for v in range(min(d, j + 1))]
        )
        odd = sum(np.count_nonzero(patterns == v, axis=1) % 2 for v in range(min(d, j + 1)))
        patterns = patterns[odd <= 2 * t - j - 1]
    k_of = patterns.max(axis=1) + 1  # the number of values in each pattern
    place = d ** np.arange(2 * t - 1, -1, -1)  # digit slot -> weight in the flat pair index
    terms, sizes = [], []
    for k in range(1, min(d, t) + 1):  # every even pattern has 1 <= k <= min(d, t) values
        group = patterns[k_of == k]
        weights = np.stack([(group == v) @ place for v in range(k)], axis=1)  # (classes, k)
        relabelings = np.array(list(permutations(range(d), k)))
        flat = np.sort(weights @ relabelings.T, axis=1)  # (classes, (d)_k)
        terms.append((flat // n, flat % n))
        sizes += [flat.shape[1]] * len(flat)
    return _freeze_commutant(terms, np.array(sizes, dtype=float)[:, None, None])


@lru_cache(maxsize=16)  # as many as the two commutant caches hold
def _support_layout(basis: _Commutant, n: int, dim_e: int) -> tuple:
    """Where a projection onto ``basis`` reads and writes on C^n (x) C^dim_e:
    the (k, m, dim_e, dim_e) shape of each term's entries; the sorted
    distinct flat positions of all of them; for every entry, all terms in
    order, its index among those and the flat index of its coefficient in
    the (operators, dim_e, dim_e) stack."""
    total, span = n * dim_e, np.arange(dim_e)
    places, owners, first = [], [], 0
    for r, c in basis.terms:
        places.append(((r[..., None] * dim_e + span) * total)[..., :, None]
                      + (c[..., None] * dim_e + span)[..., None, :])
        operator = np.arange(first, first + len(r))[:, None, None, None]
        coefficient = (operator * dim_e + span[:, None]) * dim_e + span  # (operator, a, b), flat
        owners.append(np.broadcast_to(coefficient, places[-1].shape).ravel())
        first += len(r)
    positions, inverse = np.unique(np.concatenate([p.ravel() for p in places]), return_inverse=True)
    layout = (tuple(p.shape for p in places), positions, inverse, np.concatenate(owners))
    for array in layout[1:]:
        array.setflags(write=False)
    return layout


def _project_onto_commutant(state, d: int, t: int, basis: _Commutant):
    """Orthogonal projection of the system factor onto the span of ``basis``,
    returned on its support: pairs the input with each operator by index
    gathers, solves with the Gram pseudo-inverse and puts each coefficient
    on its operator's entries, summing where operators overlap; the
    workspace factor rides along as matrix-valued coefficients.  A pure
    input is paired from psi, as sum_i psi[r_i, :] (x) conj(psi[c_i, :]) per
    operator; a matrix, dense or on its support, by flat ``take``s."""
    payload, was_state = _payload(state)
    total = payload.shape[0]
    check_capacity(total)
    dim_e = workspace_dim(total, d, t)
    shapes, positions, inverse, owner = _support_layout(basis, d**t, dim_e)
    if payload.ndim == 1:
        psi = payload.reshape(d**t, dim_e)
        pairs = [psi[r].swapaxes(1, 2) @ psi[c].conj() for r, c in basis.terms]
    else:
        entries = payload.take(positions)[inverse]  # every term's entries, in term order
        gathered = np.split(entries, np.cumsum([np.prod(shape) for shape in shapes[:-1]]))
        pairs = [g.reshape(shape).sum(axis=1) for g, shape in zip(gathered, shapes)]
    pairings = np.concatenate(pairs)
    blocks, m, _ = basis.gram_pinv.shape
    coeffs = (basis.gram_pinv @ pairings.reshape(blocks, m, -1)).reshape(pairings.shape)
    entries = coeffs.reshape(-1)[owner]  # in term order
    values = np.empty(len(positions), dtype=complex)  # summed in term order where operators overlap
    values.real = np.bincount(inverse, entries.real, len(positions))
    values.imag = np.bincount(inverse, entries.imag, len(positions))
    meta = {"method": "exact"} | basis.meta
    return _wrap_support(positions, values, total, was_state, meta=meta)


def haar_twirl_exact(state, d: int, t: int):
    """Project the system factor onto the span of slot permutations, the
    commutant of U^{x t}, through the Gram matrix G[s, p] = d^{#cycles(s^-1 p)}.

    Any d works: for d < t the permutations are dependent and the Gram
    pseudo-inverse (the Weingarten function) drops the missing blocks.
    """
    return _project_onto_commutant(state, d, t, _commutant(d, t, False))


def pf_twirl(state, d: int, t: int):
    """Exact permutation-phase twirl, workspace blocks carried along: each
    output block is the mean of the input blocks over its pattern class, or
    zero when the class is odd.  Its Gram rank is the even-class count."""
    return _project_onto_commutant(state, d, t, _pf_commutant(d, t))


def _blockwise_twirl(state, decomp: IsotypicDecomposition, weyl_state):
    """Rebuild every Schur-Weyl block as weyl_state(block) (x) the input's
    footprint on it; off-block parts are dropped.  A pure input is rotated
    one-sidedly, (B^T x I) psi, and its footprints are taken from that.  The
    output is rotated back one orbit block at a time and returned on the
    orbit blocks' support."""
    payload, was_state = _payload(state)
    rotated = _rotate_rows(payload, decomp, False) if payload.ndim == 1 else rotate_to_basis(_dense(payload), decomp)
    out = np.zeros((len(rotated),) * 2, dtype=complex)
    for block, rows, footprint in block_footprints(rotated, decomp):
        w, (v, e) = block.weyl_dim, footprint.shape[:2]
        target = out[rows, rows].reshape(w, v, e, w, v, e)  # splits axes only, so a view: written in place
        np.einsum("ab,jekf->ajebkf", weyl_state(block), footprint, out=target)
    return _wrap_support(*_unrotate_orbit_blocks(out, decomp), len(out), was_state)


def haar_twirl_schur_weyl(state, decomp: IsotypicDecomposition):
    """Assemble the twirl output blockwise: maximally mixed on each
    unitary-group factor, the input's own footprint on the rest."""
    return _blockwise_twirl(state, decomp, lambda block: np.eye(block.weyl_dim) / block.weyl_dim)


def pf_twirl_basis_element(x, y, d: int) -> SupportOperator:
    """Exact permutation-phase twirl of the matrix unit |x><y|, held on its support."""
    x, y = tuple(int(v) for v in x), tuple(int(v) for v in y)
    t = len(x)
    if len(y) != t:
        raise DomainError("tuples must have equal length")
    if any(not 0 <= v < d for v in x + y):
        raise DomainError(f"tuple values must lie in [0, {d})")
    unit = np.ravel_multi_index(x + y, (d,) * (2 * t))  # the flat position x * d^t + y
    return pf_twirl(SupportOperator([unit], [1.0], d**t), d, t)


def pf_twirl_distinct_formula(state, decomp: IsotypicDecomposition):
    """Block formula for inputs supported on distinct tuples: the
    distinct-block mixed state replaces the maximally mixed one."""
    d, t = decomp.d, decomp.t
    x = _dense(_payload(state)[0])
    mask = np.repeat(distinct_mask(d, t), workspace_dim(len(x), d, t)).astype(float)
    # sqrt(dim) ||rho - P rho P||_F bounds the trace norm of the leak; for rho =
    # psi psi^dag, u = psi - P psi, that is ||u|| sqrt(||psi||^2 + ||P psi||^2)
    if x.ndim == 1:
        leak = np.linalg.norm(x - mask * x) * np.hypot(np.linalg.norm(x), np.linalg.norm(mask * x))
    else:
        leak = np.linalg.norm(x - mask[:, None] * x * mask[None, :])
    if np.sqrt(len(x)) * leak > 1e-9:
        raise DomainError("input is not supported on the distinct subspace")
    return _blockwise_twirl(
        state, decomp, lambda block: block.distinct_block / np.trace(block.distinct_block).real
    )


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

    A state vector is one column that is both factors, the same object, so
    the driver conjugates it once; anything else goes through an SVD with
    numerically zero singular values dropped.
    """
    matrix, was_state = _payload(state)
    if matrix.ndim == 1:
        column = matrix[:, None]
        return column, np.ones(1), column, was_state
    u, s, vh = np.linalg.svd(_dense(matrix))
    keep = s > s[0] * matrix.shape[0] * np.finfo(float).eps
    return u[:, keep], s[keep], vh[keep].conj().T, was_state


def _average_conjugation(state, d: int, t: int, batches, weights=None) -> _Average:
    """Mean of (U^{x t} x I) X (U^{x t} x I)^dag over every U in ``batches``.

    ``batches`` yields (count, d, d) stacks of single-register unitaries.
    Each stack is applied to the t system slots of the factors of X by
    ``apply_tensor_power``, put back in slot-then-workspace order and
    folded into the sum with one matrix product.  A state vector is its own
    right factor, so each sub-batch conjugates it once.  The Frobenius
    standard error of the mean comes for free, because conjugation keeps
    the Frobenius norm sample by sample.  Given a diagonal observable
    ``weights`` on the system factor (length d^t), the per-sample values
    Tr[(diag(weights) x I) U X U^dag] are returned too.  The mean is not
    Hermitised here: a state result becomes a ``DensityMatrix``, which
    stores its exact Hermitian part, and any other input keeps whatever
    non-Hermitian part it has.
    """
    left0, w, right0, was_state = _factors(state)
    total, rank = left0.shape
    dim_e = workspace_dim(total, d, t)
    if weights is not None:
        weights = np.repeat(np.asarray(weights, dtype=float), dim_e)
    step = max(1, _SUB_BATCH_ELEMENTS // max(total * rank, 1))

    def conjugated(us, factor):  # (count, rank, total): factor columns, conjugated
        rotated = apply_tensor_power(us, factor, t).reshape(len(us), dim_e, rank, -1)
        return rotated.transpose(0, 2, 3, 1).reshape(len(us), rank, total)

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
    var = max(float(np.sum(w**2)) - float(np.sum(np.abs(acc) ** 2)), 0.0)
    var *= samples / max(samples - 1, 1)
    per_sample = None if weights is None else np.concatenate(values)
    return _Average(acc, was_state, float(np.sqrt(var / samples)), per_sample)


def _pf_unitaries(d: int, count: int, rng) -> np.ndarray:
    """A batch of (label permutation) x (random sign pattern) matrices."""
    perms = np.argsort(rng.random((count, d)), axis=1)
    signs = (1.0 - 2.0 * rng.integers(0, 2, size=(count, d))).astype(complex)
    pf = np.zeros((count, d, d), dtype=complex)
    pf[np.arange(count)[:, None], perms, np.arange(d)[None, :]] = signs
    return pf


def _sampled_twirl(state, d: int, t: int, samples: int, seed, draw, weights=None, **meta):
    """The Monte-Carlo mean over ``samples`` >= 2 unitaries (one has no standard
    error), and the per-sample values of ``weights`` (see ``_average_conjugation``).

    Chunk c holds samples c * MC_CHUNK onwards, at most MC_CHUNK of them,
    and is the stack ``draw(count, derive_seed(seed, c))``; chunks are drawn
    one at a time and reduced in ascending order.  ``meta`` is added to the
    result's metadata.
    """
    _require_draws(samples, "samples")
    batches = (
        draw(min(MC_CHUNK, samples - start), derive_seed(seed, start // MC_CHUNK))
        for start in range(0, samples, MC_CHUNK)
    )
    avg = _average_conjugation(state, d, t, batches, weights)
    meta = {"method": "monte_carlo", **meta, "samples": samples, "seed": seed,
            "std_error_fro": avg.std_error_fro}
    return _wrap(avg.mean, avg.was_state, meta=meta), avg.values


def haar_twirl_mc(state, d: int, t: int, samples: int, seed):
    """Monte-Carlo Haar twirl, deterministic per seed."""
    def draw(count, chunk_seed):
        return haar_unitaries(d, count, np.random.default_rng(chunk_seed))
    return _sampled_twirl(state, d, t, samples, seed, draw, ensemble="haar")[0]


def pf_twirl_mc(state, d: int, t: int, samples: int, seed):
    """Monte-Carlo permutation-phase twirl over sampled (permutation, sign
    pattern) pairs, deterministic per seed."""
    def draw(count, chunk_seed):
        return _pf_unitaries(d, count, np.random.default_rng(chunk_seed))
    return _sampled_twirl(state, d, t, samples, seed, draw, ensemble="pf")[0]


# ---------------------------------------------------------------------------
# Explicit-ensemble and Clifford twirls.
# ---------------------------------------------------------------------------

def ensemble_twirl(state, ops, d: int, t: int):
    """Exact t-fold twirl over an explicit ensemble of unitaries on C^d:
    a non-empty list of d x d arrays, or one non-empty (count, d, d) stack."""
    us = np.asarray(ops)
    if us.ndim != 3 or not len(us) or us.shape[1:] != (d, d):
        raise DomainError(f"an ensemble on C^{d} is a non-empty (count, {d}, {d}) stack, got shape {us.shape}")
    batches = (us[i : i + MC_CHUNK] for i in range(0, len(us), MC_CHUNK))
    avg = _average_conjugation(state, d, t, batches)
    return _wrap(avg.mean, avg.was_state, meta={"method": "exact", "samples": len(us)})


CLIFFORD_EXACT_T_CAP = 5  # t = 6 has 4,590 Lagrangian subspaces, so a 4,590^2 Gram matrix


def default_clifford_method(n: int) -> str:
    """The ``--clifford auto`` choice of ``security`` and ``sweep``: exact up
    to EXACT_QUBIT_CAP qubits, Monte-Carlo otherwise.  Past
    CLIFFORD_EXACT_T_CAP copies n <= 2 gives d <= 4 < t, which the security
    experiment refuses."""
    return "exact" if n <= EXACT_QUBIT_CAP else "monte_carlo"


def _clifford_average(state, n: int, t: int, method: str, samples: int, seed, weights=None):
    """The Clifford twirl plus, under Monte-Carlo, the per-sample values of
    ``weights`` (None for the exact projection)."""
    d = 2**n
    if method == "exact":
        if t > CLIFFORD_EXACT_T_CAP:
            raise DomainError(
                f"the exact Clifford twirl covers t <= {CLIFFORD_EXACT_T_CAP}, got t = {t}; "
                "use method='monte_carlo'"
            )
        return _project_onto_commutant(state, d, t, _commutant(d, t, True)), None
    if method != "monte_carlo":
        raise DomainError(f"unknown method {method!r}")

    def draw(count, chunk_seed):  # sample i draws from (seed, i // MC_CHUNK, i % MC_CHUNK)
        return sample_clifford_unitaries(n, [chunk_seed + [j] for j in range(count)])
    return _sampled_twirl(state, d, t, samples, seed, draw, weights)


def clifford_twirl(state, n: int, t: int, method: str = "exact", samples: int = 0, seed: int = 0):
    """Average conjugation by C^{x t} over the Clifford group.

    The exact twirl is the projection onto the commutant of C^{x t}, spanned
    by the operators of the stochastic Lagrangian subspaces; for t <= 3 it
    is the exact Haar twirl, through the same cached record.  It runs at
    every n under the dimension cap, for t <= CLIFFORD_EXACT_T_CAP.
    Monte-Carlo averaging samples and converts ``samples`` tableaus one
    MC_CHUNK batch at a time, sample i drawn from the seed (seed,
    i // MC_CHUNK, i % MC_CHUNK), and attaches the Frobenius standard error
    of the mean to the metadata.
    """
    return _clifford_average(state, n, t, method, samples, seed)[0]


def distinct_overlap_after_clifford(
    state, n: int, t: int, method: str = "exact", samples: int = 0, seed: int = 0
) -> dict:
    """Overlap of the Clifford-twirled state with the distinct subspace,
    with the pair-counting lower bound 1 - t(t-1)/(d+1).

    The bound multiplies the t(t-1)/2 colliding pairs by the operator norm
    2/(d(d+1)) of the Haar average of a doubled projector, times the
    collision projector trace d.  Under either method the overlap is read
    off the twirled state's diagonal.  Under Monte-Carlo the same pass
    yields the per-sample overlaps, whose plain sample standard error is
    reported (0 for the exact projection).  The twirled state itself is
    returned under "state".  An overlap below the bound is returned as is;
    the caller's check record judges it.
    """
    d = 2**n
    twirled, values = _clifford_average(state, n, t, method, samples, seed, weights=distinct_mask(d, t))
    overlap = _distinct_overlap(twirled, d, t)[0]
    se = float(values.real.std(ddof=1) / np.sqrt(samples)) if values is not None else 0.0
    return {"overlap": overlap, "bound": 1.0 - t * (t - 1) / (d + 1), "std_error": se, "state": twirled}
