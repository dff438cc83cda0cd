"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` (or `pytest -v`) to see the
per-criterion lines.  Monte-Carlo tolerances follow the package-wide
convention of three estimated standard errors unless the criterion pins an
explicit envelope.
"""

import itertools
import json
import time
from fractions import Fraction
from math import factorial, perm, sqrt

import numpy as np

from pru_lab import (
    ExperimentConfig,
    all_permutations,
    cli_main,
    clifford_twirl,
    distinct_overlap_after_clifford,
    ensemble_twirl,
    enumerate_cliffords,
    haar_twirl_exact,
    haar_twirl_mc,
    haar_twirl_schur_weyl,
    isotypic_projector,
    partitions,
    pf_twirl,
    pf_twirl_basis_element,
    pf_twirl_distinct_formula,
    pf_twirl_mc,
    ratio_report,
    run_security_experiment,
    schur_weyl_basis,
    specht_dim,
    strip_timing_fields,
    subsystem_perm_op,
    trace_distance,
    young_orthogonal_rep,
)
from pru_lab.harness import build_state

from conftest import random_distinct_state, random_state


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_schur_weyl_completeness():
    t0 = time.perf_counter()
    worst_complete = worst_orth = worst_trace = 0.0
    for d in (2, 4, 8):
        for t in (2, 3):
            dec = schur_weyl_basis(d, t)
            n = d**t
            projectors = [isotypic_projector(b.partition, d, t) for b in dec.blocks]
            worst_complete = max(worst_complete, float(np.abs(sum(projectors) - np.eye(n)).max()))
            for i, a in enumerate(projectors):
                for b in projectors[i + 1 :]:
                    worst_orth = max(worst_orth, float(np.abs(a @ b).max()))
            for p, b in zip(projectors, dec.blocks):
                tr = float(np.trace(p).real)
                assert round(tr) == b.weyl_dim * b.specht_dim
                worst_trace = max(worst_trace, abs(tr - round(tr)))
    elapsed = time.perf_counter() - t0
    ok = worst_complete < 1e-8 and worst_orth < 1e-8 and elapsed < 30
    report(
        "criterion 1: isotypic completeness/orthogonality/integer traces",
        ok,
        f"completeness {worst_complete:.2e}, orthogonality {worst_orth:.2e}, "
        f"trace dev {worst_trace:.2e}, {elapsed:.1f}s < 30s",
    )


def test_criterion_02_distinct_block_trace_identity():
    worst = 0.0
    for d in (4, 8):
        for t in (2, 3):
            dec = schur_weyl_basis(d, t)
            for rec in ratio_report(d, t, dec):
                symbolic = Fraction(
                    specht_dim(rec.partition) * perm(d, t), factorial(t)
                )
                assert rec.tr_distinct_block == symbolic
                worst = max(worst, abs(rec.numeric_tr_distinct_block - float(symbolic)))
    report(
        "criterion 2: distinct-block traces match dim(V)/t! x Tr[distinct projector]",
        worst < 1e-8,
        f"max |numeric - rational| = {worst:.2e}",
    )


def test_criterion_03_deficit_closed_form_and_envelope():
    worst_eq = 0.0
    worst_env = True
    numeric_cells = {(4, 2), (8, 2), (16, 2), (4, 3), (8, 3)}
    for d in (4, 8, 16):
        for t in (2, 3):
            dec = schur_weyl_basis(d, t) if (d, t) in numeric_cells else None
            for rec in ratio_report(d, t, dec):
                prod = 1
                for (i, j) in rec.partition.cells():
                    prod *= d + j - i
                closed = 1.0 - perm(d, t) / prod
                worst_eq = max(worst_eq, abs(float(rec.deficit) - closed))
                if dec is not None:
                    measured = 1.0 - rec.numeric_tr_distinct_block / rec.tr_weyl
                    worst_eq = max(worst_eq, abs(measured - closed))
                worst_env = worst_env and float(rec.deficit) <= 2 * t * t / d
    report(
        "criterion 3: deficit closed form within 1e-9 and <= 2 t^2/d",
        worst_eq < 1e-9 and worst_env,
        f"max closed-form deviation {worst_eq:.2e}",
    )


def test_criterion_04_haar_oracle_triangle():
    t0 = time.perf_counter()
    d, t, dim_e = 4, 2, 4
    dec = schur_weyl_basis(d, t)
    worst_pair = 0.0
    for seed in range(20):
        st = random_state(d**t * dim_e, seed)
        worst_pair = max(
            worst_pair,
            trace_distance(haar_twirl_exact(st, d, t), haar_twirl_schur_weyl(st, dec)),
        )
    # Monte-Carlo leg of the triangle, on system-register states as in the
    # derivation of the 5 N^{-1/2} envelope
    N = 100000
    worst_mc = 0.0
    for seed in range(3):
        st = random_state(d**t, 100 + seed)
        mc = haar_twirl_mc(st, d, t, N, [41, seed])
        worst_mc = max(worst_mc, trace_distance(mc, haar_twirl_exact(st, d, t)))
        worst_mc = max(worst_mc, trace_distance(mc, haar_twirl_schur_weyl(st, dec)))
    elapsed = time.perf_counter() - t0
    ok = worst_pair < 1e-8 and worst_mc < 5 / sqrt(N) and elapsed < 120
    report(
        "criterion 4: Haar twirl oracle triangle (commutant = blocks = Monte-Carlo)",
        ok,
        f"exact pair {worst_pair:.2e}, MC gap {worst_mc:.4f} < {5/sqrt(N):.4f}, {elapsed:.0f}s < 120s",
    )


def test_criterion_05_pf_formula_and_basis_rule():
    d, t, dim_e = 4, 2, 4
    dec = schur_weyl_basis(d, t)
    worst_states = 0.0
    for seed in range(20):
        st = random_distinct_state(d, t, dim_e, seed)
        worst_states = max(
            worst_states,
            trace_distance(pf_twirl(st, d, t), pf_twirl_distinct_formula(st, dec)),
        )

    # independent oracle: exhaustive average over all label permutations and
    # all sign patterns, for every basis pair
    ops = []
    for p in itertools.permutations(range(d)):
        P = np.zeros((d, d))
        P[list(p), range(d)] = 1
        for bits in range(2**d):
            signs = np.array([(-1) ** ((bits >> k) & 1) for k in range(d)], dtype=float)
            ops.append(np.kron(P * signs[None, :], P * signs[None, :]))
    ops = np.stack(ops)
    worst_rule = 0.0
    for x in itertools.product(range(d), repeat=t):
        for y in itertools.product(range(d), repeat=t):
            xi = np.ravel_multi_index(x, (d,) * t)
            yi = np.ravel_multi_index(y, (d,) * t)
            oracle = np.einsum("sa,sb->ab", ops[:, :, xi], ops[:, :, yi].conj()) / len(ops)
            got = pf_twirl_basis_element(x, y, d).entries
            worst_rule = max(worst_rule, float(np.abs(oracle - got).max()))
    ok = worst_states < 1e-8 and worst_rule < 1e-10
    report(
        "criterion 5: permutation-phase block formula and basis-pair rule",
        ok,
        f"formula vs generic {worst_states:.2e}, rule vs exhaustive oracle {worst_rule:.2e}",
    )


def test_criterion_06_collapse_and_schur_orthogonality():
    worst_collapse = 0.0
    d = 4
    for t in (2, 3):
        dec = schur_weyl_basis(d, t)
        n = d**t
        B = dec.basis_matrix
        perms = all_permutations(t)
        rotated = np.stack(
            [B.conj().T @ subsystem_perm_op(p, d) @ B for p in perms]
        )
        labels = [
            (bi, i, j)
            for bi, block in enumerate(dec.blocks)
            for i in range(block.weyl_dim)
            for j in range(block.specht_dim)
        ]
        slices = dec.block_slices()
        for a in range(len(labels)):
            for b in range(len(labels)):
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
                worst_collapse = max(worst_collapse, float(np.abs(summed - expect).max()))

    worst_orth = 0.0
    for t in (2, 3, 4):
        perms = all_permutations(t)
        reps = {lam: young_orthogonal_rep(lam) for lam in partitions(t)}
        for la, ra in reps.items():
            A = np.stack([ra[p] for p in perms])
            for lb, rb in reps.items():
                Bm = np.stack([rb[p] for p in perms])
                got = np.einsum("pij,pkl->ikjl", A, Bm) / len(perms)
                if la == lb:
                    eye = np.eye(specht_dim(la))
                    expect = np.einsum("ik,jl->ikjl", eye, eye) / specht_dim(la)
                else:
                    expect = np.zeros_like(got)
                worst_orth = max(worst_orth, float(np.abs(got - expect).max()))
    ok = worst_collapse < 1e-8 and worst_orth < 1e-12
    report(
        "criterion 6: group-sum collapse identity and irrep orthogonality",
        ok,
        f"collapse {worst_collapse:.2e} < 1e-8, orthogonality {worst_orth:.2e} < 1e-12",
    )


def test_criterion_07_two_design():
    worst_exact = 0.0
    group = enumerate_cliffords(1)
    for seed in range(10):
        st = random_state(8, seed)
        worst_exact = max(
            worst_exact,
            trace_distance(ensemble_twirl(st, group, 2, 2), haar_twirl_exact(st, 2, 2)),
        )
    st = random_state(16, 77)
    mc = clifford_twirl(st, 2, 2, method="monte_carlo", samples=10000, seed=13)
    err = trace_distance(mc, haar_twirl_exact(st, 4, 2))
    envelope = 3 * sqrt(mc.dim) * mc.meta["std_error_fro"]
    ok = worst_exact < 1e-9 and err < envelope
    report(
        "criterion 7: Clifford group acts as an exact 2-design",
        ok,
        f"exact n=1 {worst_exact:.2e} < 1e-9, MC n=2 {err:.4f} < 3-sigma envelope {envelope:.4f}",
    )


def test_criterion_08_collision_suppression_bound():
    t0 = time.perf_counter()
    results = []
    for n in (2, 3):
        for t in (2, 3):
            psi = build_state("adversarial_colliding", n, t, 1, 0)
            info = distinct_overlap_after_clifford(
                psi, n, t, method="monte_carlo", samples=10000, seed=[n, t]
            )
            complement = 1.0 - info["overlap"]
            limit = t * (t - 1) / (2**n + 1) + 3 * info["std_error"]
            results.append((n, t, complement, limit))
    elapsed = time.perf_counter() - t0
    ok = all(c <= lim for (_, _, c, lim) in results) and elapsed < 300
    detail = "; ".join(f"n={n},t={t}: {c:.4f}<={lim:.4f}" for (n, t, c, lim) in results)
    report(
        "criterion 8: collision weight after Clifford twirl bounded by t(t-1)/(d+1)",
        ok,
        detail + f", {elapsed:.0f}s < 300s",
    )


def test_criterion_09_end_to_end_chain():
    t0 = time.perf_counter()
    rep_mc = run_security_experiment(
        ExperimentConfig(
            n=3, t=2, dim_e=4, state_family="random_pure", seed=5,
            clifford_method="monte_carlo", clifford_samples=10000,
        )
    )
    rep_exact = run_security_experiment(
        ExperimentConfig(n=1, t=2, dim_e=4, state_family="random_pure", seed=5)
    )
    elapsed = time.perf_counter() - t0
    ok = rep_mc.passed and rep_exact.passed and elapsed < 600
    report(
        "criterion 9: end-to-end bound chain (n=3 Monte-Carlo and n=1 exact)",
        ok,
        f"D(n=3)={rep_mc.quantities['trace_distance_fr_hr']:.4f}, "
        f"D(n=1)={rep_exact.quantities['trace_distance_fr_hr']:.2e}, {elapsed:.0f}s < 600s",
    )


def test_criterion_10_monte_carlo_convergence():
    d, t = 4, 2
    st = random_state(d**t, 3)
    Ns = (100, 1000, 10000, 100000)
    slopes = {}
    for label, mc_fn, exact in (
        ("haar", haar_twirl_mc, haar_twirl_exact(st, d, t)),
        ("pf", pf_twirl_mc, pf_twirl(st, d, t)),
    ):
        errs = [
            np.mean(
                [trace_distance(mc_fn(st, d, t, N, [17, idx, rep]), exact) for rep in range(3)]
            )
            for idx, N in enumerate(Ns)
        ]
        slopes[label] = float(np.polyfit(np.log(Ns), np.log(errs), 1)[0])
    ok = all(abs(s + 0.5) <= 0.15 for s in slopes.values())
    report(
        "criterion 10: Monte-Carlo error decays as N^{-1/2}",
        ok,
        f"slopes: haar {slopes['haar']:.3f}, pf {slopes['pf']:.3f} (target -0.5 +- 0.15)",
    )


def test_criterion_11_determinism(capsys, tmp_path):
    args = [
        "verify", "--n", "1", "--n", "2", "--t", "2", "--seed", "123",
        "--samples", "300", "--samples-unitary", "1000", "--keys", "32",
    ]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code_a = cli_main([*args, "--out", str(out_a)])
    code_b = cli_main([*args, "--out", str(out_b)])
    a = json.dumps(strip_timing_fields(json.loads(out_a.read_text())), sort_keys=True)
    b = json.dumps(strip_timing_fields(json.loads(out_b.read_text())), sort_keys=True)
    ok = code_a == 0 and code_b == 0 and a == b
    report(
        "criterion 11: verify runs are bitwise deterministic per seed",
        ok,
        f"{len(a)} canonical bytes compared",
    )
