"""Named verification checks and the sweep runner behind `verify`.

Every invariant the package promises is expressed here as a named check
producing one record per parameter cell: measured value, bound, the
formula the bound comes from, and pass/fail at a pinned tolerance.
Check seeds derive from (suite seed, check name, cell), so adding or
removing checks never shifts another check's random stream.
"""

from __future__ import annotations

import itertools
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from math import factorial, log2, sqrt

import numpy as np

from .errors import DomainError
from .harness import BoundCheck, ExperimentReport, build_state, gentle_normalize
from .operators import (
    DenseOperator,
    DensityMatrix,
    StateVector,
    distinct_mask,
    distinct_projector,
    falling_factorial,
    haar_unitaries,
    perm_op,
    subsystem_perm_op,
    tensor_power,
    trace_distance,
    PermutationD,
)
from .pru import PrpScheme, pru_average_state, sample_key
from .schur_weyl import (
    ratio_report,
    schur_weyl_basis,
    verify_decomposition,
)
from .symgroup import (
    PermutationT,
    all_permutations,
    character,
    partitions,
    specht_dim,
    weyl_dim,
    young_orthogonal_rep,
)
from .twirls import (
    clifford_twirl,
    distinct_overlap_after_clifford,
    haar_twirl_exact,
    haar_twirl_mc,
    haar_twirl_schur_weyl,
    pf_twirl,
    pf_twirl_basis_element,
    pf_twirl_distinct_formula,
    pf_twirl_mc,
)

DEFAULT_DS = (2, 4, 8)
DEFAULT_TS = (2, 3)


@dataclass
class SuiteContext:
    seed: int = 0
    samples_clifford: int = 10000
    samples_unitary: int = 100000
    convergence_reps: int = 3
    num_keys: int = 1024
    _decomps: dict = field(default_factory=dict)

    def decomposition(self, d: int, t: int):
        key = (d, t)
        if key not in self._decomps:
            self._decomps[key] = schur_weyl_basis(d, t, verify=False)
        return self._decomps[key]

    def check_seed(self, name: str, *cell) -> list[int]:
        return [self.seed, zlib.crc32(name.encode()), *map(int, cell)]


def _random_states(dim: int, regs, count: int, seed) -> list[StateVector]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(StateVector(v / np.linalg.norm(v), regs))
    return out


def _distinct_states(d: int, t: int, dim_e: int, count: int, seed) -> list[StateVector]:
    rng = np.random.default_rng(seed)
    mask = distinct_mask(d, t)
    m = int(mask.sum())
    out = []
    for _ in range(count):
        v = np.zeros((d**t, dim_e), dtype=complex)
        v[mask] = rng.standard_normal((m, dim_e)) + 1j * rng.standard_normal((m, dim_e))
        v = v.reshape(-1)
        out.append(StateVector(v / np.linalg.norm(v), (d**t, dim_e)))
    return out


# --- registry ---------------------------------------------------------------

PER_T_CHECKS: dict[str, callable] = {}
PER_CELL_CHECKS: dict[str, callable] = {}


def per_t_check(name):
    def wrap(fn):
        PER_T_CHECKS[name] = fn
        return fn

    return wrap


def per_cell_check(name):
    def wrap(fn):
        PER_CELL_CHECKS[name] = fn
        return fn

    return wrap


# --- symmetric-group layer ---------------------------------------------------

@per_t_check("specht_dimension_sum")
def _check_specht_dims(ctx: SuiteContext, t: int):
    total = sum(specht_dim(lam) ** 2 for lam in partitions(t))
    return [
        BoundCheck.make(
            "specht_dimension_sum", {"t": t}, total, factorial(t), "eq", 0,
            "squares of irrep dimensions sum to the group order",
        )
    ]


@per_t_check("character_orthogonality")
def _check_character_orthogonality(ctx: SuiteContext, t: int):
    classes = Counter(p.cycle_type() for p in all_permutations(t))
    worst = 0
    for la in partitions(t):
        for mu in partitions(t):
            s = sum(n * character(la, c) * character(mu, c) for c, n in classes.items())
            expect = factorial(t) if la == mu else 0
            worst = max(worst, abs(s - expect))
    return [
        BoundCheck.make(
            "character_orthogonality", {"t": t}, worst, 0, "eq", 0,
            "column orthogonality of the character table, in exact integers",
        )
    ]


@per_t_check("irrep_schur_orthogonality")
def _check_schur_orthogonality(ctx: SuiteContext, t: int):
    if t > 4:
        return []
    perms = all_permutations(t)
    reps = {lam: young_orthogonal_rep(lam) for lam in partitions(t)}
    worst = 0.0
    for la, ra in reps.items():
        A = np.stack([ra[p] for p in perms])
        for lb, rb in reps.items():
            Bm = np.stack([rb[p] for p in perms])
            got = np.einsum("pij,pkl->ikjl", A, Bm) / len(perms)
            expect = np.zeros_like(got)
            if la == lb:
                dim = ra.dim
                eye = np.eye(dim)
                expect = np.einsum("ik,jl->ikjl", eye, eye) / dim
            worst = max(worst, float(np.abs(got - expect).max()))
    return [
        BoundCheck.make(
            "irrep_schur_orthogonality", {"t": t}, worst, 0, "eq", 1e-12,
            "averaged products of orthogonal irrep matrix entries collapse to "
            "delta_{irrep} delta_{row} delta_{col} / dim",
        )
    ]


@per_t_check("perm_representation_property")
def _check_perm_representation(ctx: SuiteContext, t: int):
    if t > 4:
        return []
    d = 2
    perms = all_permutations(t)
    rng = np.random.default_rng(ctx.check_seed("perm_representation_property", t))
    pairs = (
        [(a, b) for a in perms for b in perms]
        if t <= 3
        else [(perms[rng.integers(len(perms))], perms[rng.integers(len(perms))]) for _ in range(200)]
    )
    ops = {p: subsystem_perm_op(p, d).entries for p in perms}
    worst = max(
        float(np.abs(ops[a] @ ops[b] - ops[a.compose(b)]).max()) for a, b in pairs
    )
    return [
        BoundCheck.make(
            "perm_representation_property", {"t": t, "d": d}, worst, 0, "eq", 1e-12,
            "slot permutations compose multiplicatively",
        )
    ]


# --- schur-weyl layer --------------------------------------------------------

@per_cell_check("weyl_dimension_sum")
def _check_weyl_dims(ctx: SuiteContext, d: int, t: int):
    total = sum(
        specht_dim(lam) * weyl_dim(lam, d) for lam in partitions(t) if lam.rows <= d
    )
    return [
        BoundCheck.make(
            "weyl_dimension_sum", {"d": d, "t": t, "n": _n_of(d)}, total, d**t, "eq", 0,
            "block dimensions tile the full tensor-power space",
        )
    ]


@per_cell_check("isotypic_completeness")
def _check_completeness(ctx: SuiteContext, d: int, t: int):
    decomp = ctx.decomposition(d, t)
    n = d**t
    params = {"d": d, "t": t, "n": _n_of(d)}
    total = sum(b.projector.entries for b in decomp.blocks)
    res_complete = float(np.abs(total - np.eye(n)).max())
    res_orth = 0.0
    for i, a in enumerate(decomp.blocks):
        for b in decomp.blocks[i + 1 :]:
            res_orth = max(res_orth, float(np.abs(a.projector.entries @ b.projector.entries).max()))
    res_trace = max(
        abs(float(np.trace(b.projector.entries).real) - b.weyl_dim * b.specht_dim)
        for b in decomp.blocks
    )
    rank_dev = 0
    for b in decomp.blocks:
        evals = np.linalg.eigvalsh(b.projector.entries)
        rank_dev = max(rank_dev, abs(int((evals > 0.5).sum()) - b.weyl_dim * b.specht_dim))
    return [
        BoundCheck.make("isotypic_completeness", params, res_complete, 0, "eq", 1e-8,
                        "block projectors sum to the identity"),
        BoundCheck.make("isotypic_orthogonality", params, res_orth, 0, "eq", 1e-8,
                        "distinct block projectors annihilate each other"),
        BoundCheck.make("isotypic_integer_traces", params, res_trace, 0, "eq", 1e-6,
                        "block projector traces equal the exact products of block dimensions"),
        BoundCheck.make("isotypic_rank", params, rank_dev, 0, "eq", 0,
                        "eigenvalue count above 1/2 reproduces the block dimension exactly"),
    ]


@per_cell_check("basis_block_action")
def _check_basis(ctx: SuiteContext, d: int, t: int):
    decomp = ctx.decomposition(d, t)
    residuals = verify_decomposition(decomp, seed=ctx.check_seed("basis_block_action", d, t), tol=1e-7)
    params = {"d": d, "t": t, "n": _n_of(d)}
    out = []
    for key, tol in (
        ("orthonormality", 1e-8),
        ("completeness", 1e-8),
        ("unitary_block_action", 1e-8),
        ("unitary_off_block", 1e-8),
        ("perm_block_action", 1e-8),
        ("perm_off_block", 1e-8),
        ("distinct_block_idempotence", 1e-9),
    ):
        out.append(
            BoundCheck.make(
                f"basis_{key}", params, residuals[key], 0, "eq", tol,
                "explicit basis makes tensor-power unitaries and slot permutations block diagonal",
            )
        )
    return out


@per_cell_check("distinct_block_trace")
def _check_distinct_trace(ctx: SuiteContext, d: int, t: int):
    decomp = ctx.decomposition(d, t)
    records = ratio_report(d, t, decomp)
    worst = max(
        abs(r.numeric_tr_distinct_block - float(r.tr_distinct_block)) for r in records
    )
    return [
        BoundCheck.make(
            "distinct_block_trace", {"d": d, "t": t, "n": _n_of(d)}, worst, 0, "eq", 1e-9,
            "each distinct block has trace dim(V)/t! times the distinct-projector trace",
        )
    ]


@per_cell_check("distinct_reconstruction")
def _check_distinct_reconstruction(ctx: SuiteContext, d: int, t: int):
    decomp = ctx.decomposition(d, t)
    n = d**t
    B = decomp.basis_matrix
    recon = np.zeros((n, n), dtype=complex)
    off = 0
    for b in decomp.blocks:
        emb = np.zeros((n, n), dtype=complex)
        emb[off : off + b.block_dim, off : off + b.block_dim] = np.kron(
            b.distinct_block, np.eye(b.specht_dim)
        )
        recon += B @ emb @ B.conj().T
        off += b.block_dim
    worst = float(np.abs(recon - distinct_projector(d, t).entries).max())
    return [
        BoundCheck.make(
            "distinct_reconstruction", {"d": d, "t": t, "n": _n_of(d)}, worst, 0, "eq", 1e-9,
            "embedding the per-block restrictions rebuilds the distinct projector",
        )
    ]


@per_cell_check("deficit_closed_form")
def _check_deficits(ctx: SuiteContext, d: int, t: int):
    records = ratio_report(d, t)
    params = {"d": d, "t": t, "n": _n_of(d)}
    worst = 0.0
    for r in records:
        prod = 1
        for (i, j) in r.partition.cells():
            prod *= d + j - i
        closed = 1.0 - falling_factorial(d, t) / prod
        worst = max(worst, abs(float(r.deficit) - closed))
    max_deficit = max(float(r.deficit) for r in records)
    return [
        BoundCheck.make(
            "deficit_closed_form", params, worst, 0, "eq", 1e-9,
            "1 - (d!/(d-t)!)/prod(d + col - row) over the diagram boxes",
        ),
        BoundCheck.make(
            "deficit_envelope", params, max_deficit, 2 * t * t / d, "le", 0,
            "empirical envelope 2 t^2 / d over the tested grid",
        ),
    ]


@per_cell_check("distinct_commutes_with_perms")
def _check_distinct_commutes(ctx: SuiteContext, d: int, t: int):
    L = distinct_projector(d, t).entries
    worst = 0.0
    for pi in all_permutations(t):
        R = subsystem_perm_op(pi, d).entries
        worst = max(worst, float(np.abs(L @ R - R @ L).max()))
    return [
        BoundCheck.make(
            "distinct_commutes_with_perms", {"d": d, "t": t, "n": _n_of(d)}, worst, 0, "eq", 1e-12,
            "the distinct projector is permutation invariant",
        )
    ]


@per_cell_check("perm_phase_commutation")
def _check_pp_commutation(ctx: SuiteContext, d: int, t: int):
    if t > 3:
        return []
    rng = np.random.default_rng(ctx.check_seed("perm_phase_commutation", d, t))
    worst = 0.0
    for _ in range(3):
        images = rng.permutation(d)
        Pt = tensor_power(perm_op(PermutationD(tuple(int(x) for x in images))), t).entries
        for sigma in all_permutations(t):
            R = subsystem_perm_op(sigma, d).entries
            worst = max(worst, float(np.abs(Pt @ R - R @ Pt).max()))
    return [
        BoundCheck.make(
            "perm_phase_commutation", {"d": d, "t": t, "n": _n_of(d)}, worst, 0, "eq", 1e-12,
            "t-fold label permutations commute with slot permutations",
        )
    ]


# --- twirl layer -------------------------------------------------------------

@per_cell_check("haar_commutant_vs_block")
def _check_haar_paths(ctx: SuiteContext, d: int, t: int):
    if d < t:
        return []
    decomp = ctx.decomposition(d, t)
    dim_e = 4 if (d, t) == (4, 2) else 2
    count = 20 if (d, t) == (4, 2) else 3
    states = _random_states(d**t * dim_e, (d**t, dim_e), count,
                            ctx.check_seed("haar_commutant_vs_block", d, t))
    worst = max(
        trace_distance(haar_twirl_exact(st, d, t), haar_twirl_schur_weyl(st, decomp))
        for st in states
    )
    return [
        BoundCheck.make(
            "haar_commutant_vs_block", {"d": d, "t": t, "n": _n_of(d), "dim_e": dim_e},
            worst, 0, "eq", 1e-8,
            "Gram-system commutant projection agrees with the blockwise formula",
        )
    ]


@per_cell_check("haar_invariance")
def _check_haar_invariance(ctx: SuiteContext, d: int, t: int):
    if d < t:
        return []
    dim_e = 2
    seeds = ctx.check_seed("haar_invariance", d, t)
    st = _random_states(d**t * dim_e, (d**t, dim_e), 1, seeds)[0]
    out = haar_twirl_exact(st, d, t).entries
    rng = np.random.default_rng(seeds)
    worst = 0.0
    for _ in range(10):
        Vt = tensor_power(DenseOperator(haar_unitaries(d, 1, rng)[0]), t).entries
        big = np.kron(Vt, np.eye(dim_e))
        worst = max(worst, float(np.abs(big @ out - out @ big).max()))
    return [
        BoundCheck.make(
            "haar_invariance", {"d": d, "t": t, "n": _n_of(d), "dim_e": dim_e}, worst, 0, "eq", 1e-8,
            "the twirled state commutes with every t-fold unitary",
        )
    ]


@per_cell_check("haar_mc_agreement")
def _check_haar_mc(ctx: SuiteContext, d: int, t: int):
    if (d, t) != (4, 2):
        return []
    N = ctx.samples_unitary
    st = _random_states(d**t, (d**t, 1), 1, ctx.check_seed("haar_mc_agreement", d, t))[0]
    err = trace_distance(
        haar_twirl_mc(st, d, t, N, ctx.check_seed("haar_mc_agreement", d, t, 1)),
        haar_twirl_exact(st, d, t),
    )
    return [
        BoundCheck.make(
            "haar_mc_agreement", {"d": d, "t": t, "n": _n_of(d), "samples": N},
            err, 5 / sqrt(N), "le", 0,
            "Monte-Carlo mean of the twirl within 5 N^{-1/2} of the exact channel in 1-norm",
        )
    ]


@per_cell_check("pf_mc_agreement")
def _check_pf_mc(ctx: SuiteContext, d: int, t: int):
    if (d, t) != (4, 2):
        return []
    N = ctx.samples_unitary
    st = _random_states(d**t, (d**t, 1), 1, ctx.check_seed("pf_mc_agreement", d, t))[0]
    err = trace_distance(
        pf_twirl_mc(st, d, t, N, ctx.check_seed("pf_mc_agreement", d, t, 1)),
        pf_twirl(st, d, t),
    )
    return [
        BoundCheck.make(
            "pf_mc_agreement", {"d": d, "t": t, "n": _n_of(d), "samples": N},
            err, 5 / sqrt(N), "le", 0,
            "Monte-Carlo mean of the twirl within 5 N^{-1/2} of the exact channel in 1-norm",
        )
    ]


@per_cell_check("pf_formula_vs_generic")
def _check_pf_formula(ctx: SuiteContext, d: int, t: int):
    if d < t:
        return []
    decomp = ctx.decomposition(d, t)
    dim_e = 4 if (d, t) == (4, 2) else 2
    count = 20 if (d, t) == (4, 2) else 5
    states = _distinct_states(d, t, dim_e, count, ctx.check_seed("pf_formula_vs_generic", d, t))
    worst = max(
        trace_distance(pf_twirl(st, d, t), pf_twirl_distinct_formula(st, decomp))
        for st in states
    )
    return [
        BoundCheck.make(
            "pf_formula_vs_generic", {"d": d, "t": t, "n": _n_of(d), "dim_e": dim_e},
            worst, 0, "eq", 1e-8,
            "blockwise distinct formula equals the basis-pair channel on distinct-supported states",
        )
    ]


@per_cell_check("pf_basis_rule")
def _check_pf_basis_rule(ctx: SuiteContext, d: int, t: int):
    if (d, t) != (4, 2):
        return []
    n = d**t
    # Independent oracle: the mean of U^{x t} (x) conj(U^{x t}) over every
    # label permutation and sign pattern, as one superoperator.
    flat = np.stack([
        tensor_power(DenseOperator(perm_op(PermutationD(images)).entries * np.array(signs)), t)
        .entries.reshape(-1)
        for images in itertools.permutations(range(d))
        for signs in itertools.product((1.0, -1.0), repeat=d)
    ])  # (group order, n * n)
    superop = (flat.T @ flat.conj() / len(flat)).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    distinct = distinct_projector(d, t).entries / falling_factorial(d, t)
    worst = 0.0
    for x in itertools.product(range(d), repeat=t):
        for y in itertools.product(range(d), repeat=t):
            got = pf_twirl_basis_element(x, y, d).entries
            xi, yi = np.ravel_multi_index(x, (d,) * t), np.ravel_multi_index(y, (d,) * t)
            worst = max(worst, float(np.abs(got - superop[:, :, xi, yi]).max()))
            if len(set(x)) == t and sorted(x) == sorted(y):
                # y = x_sigma with sigma(i) the position of y_i in x
                sigma = PermutationT(tuple(x.index(v) for v in y))
                closed = subsystem_perm_op(sigma, d).entries @ distinct
                worst = max(worst, float(np.abs(got - closed).max()))
    return [
        BoundCheck.make(
            "pf_basis_rule", {"d": d, "t": t, "n": _n_of(d)}, worst, 0, "eq", 1e-12,
            "every basis-pair twirl matches the exhaustive permutation-sign group mean, and "
            "distinct slot-permuted pairs take the closed form R_sigma Pi_dist / (d)_t",
        )
    ]


@per_cell_check("pf_idempotence")
def _check_pf_idempotence(ctx: SuiteContext, d: int, t: int):
    st = _random_states(d**t * 2, (d**t, 2), 1, ctx.check_seed("pf_idempotence", d, t))[0]
    once = pf_twirl(st, d, t)
    twice = pf_twirl(once, d, t)
    return [
        BoundCheck.make(
            "pf_idempotence", {"d": d, "t": t, "n": _n_of(d)}, trace_distance(once, twice),
            0, "eq", 1e-9,
            "averaging over the permutation-phase group is idempotent",
        )
    ]


@per_cell_check("twirl_outputs_are_density")
def _check_density_outputs(ctx: SuiteContext, d: int, t: int):
    if d < t:
        return []
    dim_e = 2
    st = _random_states(d**t * dim_e, (d**t, dim_e), 1,
                        ctx.check_seed("twirl_outputs_are_density", d, t))[0]
    outputs = [haar_twirl_exact(st, d, t), pf_twirl(st, d, t)]
    n = _n_of(d)
    if n is not None and n <= 2:
        outputs.append(clifford_twirl(st, n, t, method="exact"))
    min_eig = min(float(out.eigenvalues()[0]) for out in outputs)
    trace_dev = max(abs(float(np.trace(out.entries).real) - 1) for out in outputs)
    params = {"d": d, "t": t, "n": n, "dim_e": dim_e}
    return [
        BoundCheck.make("twirl_output_psd", params, min_eig, 0, "ge", 1e-9,
                        "channel outputs of density inputs stay positive semidefinite"),
        BoundCheck.make("twirl_output_trace", params, trace_dev, 0, "eq", 1e-9,
                        "channel outputs of density inputs keep unit trace"),
    ]


@per_cell_check("clifford_two_design")
def _check_two_design(ctx: SuiteContext, d: int, t: int):
    n = _n_of(d)
    if n is None or t != 2:
        return []
    params = {"d": d, "t": t, "n": n}
    if n == 1:
        states = _random_states(d**t * 2, (d**t, 2), 10, ctx.check_seed("clifford_two_design", d, t))
        worst = max(
            trace_distance(clifford_twirl(st, n, t, method="exact"), haar_twirl_exact(st, d, t))
            for st in states
        )
        return [
            BoundCheck.make(
                "clifford_two_design_exact", params, worst, 0, "eq", 1e-9,
                "exact group average reproduces the Haar twirl at two copies",
            )
        ]
    if n == 2:
        N = ctx.samples_clifford
        st = _random_states(d**t, (d**t, 1), 1, ctx.check_seed("clifford_two_design", d, t))[0]
        mc = clifford_twirl(st, n, t, method="monte_carlo", samples=N,
                            seed=ctx.check_seed("clifford_two_design", d, t, 1))
        err = trace_distance(mc, haar_twirl_exact(st, d, t))
        envelope = 3 * sqrt(mc.dim) * mc.meta["std_error_fro"]
        return [
            BoundCheck.make(
                "clifford_two_design_mc", params | {"samples": N}, err, envelope, "le", 0,
                "1-norm <= sqrt(dim) * Frobenius error; three standard errors of the mean",
            )
        ]
    return []


@per_cell_check("clifford_distinct_overlap")
def _check_overlap(ctx: SuiteContext, d: int, t: int):
    n = _n_of(d)
    if n is None or t < 2:
        return []
    params = {"d": d, "t": t, "n": n}
    psi = build_state("adversarial_colliding", n, t, 1, ctx.check_seed("clifford_distinct_overlap", d, t))
    method = "exact" if n <= 2 else "monte_carlo"
    info = distinct_overlap_after_clifford(
        psi, n, t, method=method, samples=ctx.samples_clifford,
        seed=ctx.check_seed("clifford_distinct_overlap", d, t, 1),
    )
    slack = 3 * info["std_error"]
    return [
        BoundCheck.make(
            "clifford_distinct_overlap", params | {"method": method}, info["overlap"],
            info["bound"], "ge", 1e-9 + slack,
            "overlap >= 1 - t(t-1)/(d+1) from pair counting times the doubled-copy "
            "operator norm 2/(d(d+1)) times the pair-projector trace d",
        )
    ]


@per_cell_check("collapse_identity")
def _check_collapse(ctx: SuiteContext, d: int, t: int):
    if d != 4 or t > 3:
        return []
    decomp = ctx.decomposition(d, t)
    n = d**t
    perms = all_permutations(t)
    B = decomp.basis_matrix
    rotated = np.stack([B.conj().T @ subsystem_perm_op(pi, d).entries @ B for pi in perms])

    labels = []
    for bi, block in enumerate(decomp.blocks):
        for i in range(block.weyl_dim):
            for j in range(block.specht_dim):
                labels.append((bi, i, j))
    slices = decomp.block_slices()
    worst = 0.0
    for a, (bi, i, j) in enumerate(labels):
        for b, (bi2, i2, j2) in enumerate(labels):
            summed = np.einsum("s,sxy->xy", rotated[:, a, b].conj(), rotated)
            expect = np.zeros((n, n), dtype=complex)
            if bi == bi2 and i == i2:
                block = decomp.blocks[bi]
                unit = np.zeros((block.specht_dim, block.specht_dim))
                unit[j, j2] = 1.0
                scale = factorial(t) / block.specht_dim
                sl = slices[bi]
                expect[sl, sl] = scale * np.kron(np.eye(block.weyl_dim), unit)
            worst = max(worst, float(np.abs(summed - expect).max()))
    return [
        BoundCheck.make(
            "collapse_identity", {"d": d, "t": t, "n": _n_of(d)}, worst, 0, "eq", 1e-8,
            "sum over the group of <beta|R^dag|alpha> R collapses to t!/dim(V) times "
            "a matrix unit on the Specht factor",
        )
    ]


@per_cell_check("gentle_measurement_examples")
def _check_gentle(ctx: SuiteContext, d: int, t: int):
    if t < 2 or falling_factorial(d, t) == 0:
        return []
    nA = d**t
    xi = DensityMatrix(np.eye(nA) / nA, (nA, 1))
    g = gentle_normalize(xi, d, t)
    bound = 2 * sqrt(1 - falling_factorial(d, t) / nA)
    return [
        BoundCheck.make(
            "gentle_measurement_examples", {"d": d, "t": t, "n": _n_of(d)}, g.delta, bound,
            "le", 1e-9,
            "projecting the maximally mixed state moves it at most 2 sqrt(1 - success)",
        )
    ]


@per_cell_check("mc_convergence_slope")
def _check_convergence(ctx: SuiteContext, d: int, t: int):
    if (d, t) != (4, 2):
        return []
    Ns = (100, 1000, 10000, ctx.samples_unitary)
    st = _random_states(d**t, (d**t, 1), 1, ctx.check_seed("mc_convergence_slope", d, t))[0]
    out = []
    for label, mc_fn, exact_ref in (
        ("haar", haar_twirl_mc, haar_twirl_exact(st, d, t)),
        ("pf", pf_twirl_mc, pf_twirl(st, d, t)),
    ):
        errs = []
        for N in Ns:
            rep_errs = [
                trace_distance(
                    mc_fn(st, d, t, N, ctx.check_seed("mc_convergence_slope", d, t, Ns.index(N), r, zlib.crc32(label.encode()))),
                    exact_ref,
                )
                for r in range(ctx.convergence_reps)
            ]
            errs.append(np.mean(rep_errs))
        slope = float(np.polyfit(np.log(Ns), np.log(errs), 1)[0])
        out.append(
            BoundCheck.make(
                f"mc_convergence_slope_{label}", {"d": d, "t": t, "n": _n_of(d)},
                abs(slope + 0.5), 0.15, "le", 0,
                "log-log error decay of the Monte-Carlo mean has slope -1/2",
            )
        )
    return out


@per_cell_check("pru_scheme")
def _check_pru(ctx: SuiteContext, d: int, t: int):
    n = _n_of(d)
    if n != 2 or t != 2:
        return []
    params = {"d": d, "t": t, "n": n}
    key = sample_key(n, ctx.check_seed("pru_scheme", d, t))
    prp = PrpScheme(n)
    tab = prp.table(key.k1)
    bijective = 0 if sorted(tab.images) == list(range(d)) else 1
    st = _random_states(d**t, (d**t, 1), 1, ctx.check_seed("pru_scheme", d, t, 1))[0]
    keyed = pru_average_state(st, t, n, ctx.num_keys, ctx.check_seed("pru_scheme", d, t, 2))
    fr = pf_twirl(clifford_twirl(st, n, t, method="exact"), d, t)
    dist = trace_distance(keyed, fr)
    envelope = 3 * sqrt(keyed.dim) * keyed.meta["std_error_fro"]
    return [
        BoundCheck.make("pru_prp_bijective", params, bijective, 0, "eq", 0,
                        "keyed permutation tables are exhaustively bijective"),
        BoundCheck.make(
            "pru_keyed_vs_fully_random", params | {"num_keys": ctx.num_keys}, dist, envelope,
            "le", 0,
            "keyed ensemble average statistically matches the fully random construction",
        ),
    ]


def _n_of(d: int):
    n = int(round(log2(d)))
    return n if 2**n == d else None


# --- runner ------------------------------------------------------------------

def run_lemma_suite(
    ds=DEFAULT_DS,
    ts=DEFAULT_TS,
    seed: int = 0,
    samples_clifford: int = 10000,
    samples_unitary: int = 100000,
    check_names=None,
    num_keys: int = 1024,
) -> ExperimentReport:
    """Run every named check over the (d, t) grid and collect one report.

    ``check_names`` restricts the run to a subset; unknown names raise.
    """
    ctx = SuiteContext(
        seed=seed,
        samples_clifford=samples_clifford,
        samples_unitary=samples_unitary,
        num_keys=num_keys,
    )
    known = set(PER_T_CHECKS) | set(PER_CELL_CHECKS)
    if check_names:
        unknown = set(check_names) - known
        if unknown:
            raise DomainError(f"unknown checks: {sorted(unknown)} (known: {sorted(known)})")

    def want(name):
        return not check_names or name in check_names

    t_start = time.perf_counter()
    checks: list[BoundCheck] = []
    for t in ts:
        for name, fn in PER_T_CHECKS.items():
            if want(name):
                checks.extend(_timed(fn, ctx, t))
    for d in ds:
        for t in ts:
            for name, fn in PER_CELL_CHECKS.items():
                if want(name):
                    checks.extend(_timed(fn, ctx, d, t))

    report = ExperimentReport(
        kind="verify",
        config={
            "ds": list(ds),
            "ts": list(ts),
            "seed": seed,
            "samples_clifford": samples_clifford,
            "samples_unitary": samples_unitary,
            "num_keys": num_keys,
            "checks": sorted(check_names) if check_names else "all",
        },
        quantities={"num_checks": 0},
        checks=checks,
        seed=seed,
        timings={"total_ms": 0.0},
    )
    report.quantities["num_checks"] = len(checks)
    report.timings["total_ms"] = (time.perf_counter() - t_start) * 1e3
    return report


def _timed(fn, ctx, *cell) -> list[BoundCheck]:
    t0 = time.perf_counter()
    results = fn(ctx, *cell)
    elapsed = (time.perf_counter() - t0) * 1e3
    for r in results:
        r.wall_ms = elapsed
    return results
