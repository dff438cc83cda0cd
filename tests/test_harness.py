"""State families, the gentle-measurement step, and the security pipeline."""

import json
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from pru_lab import (
    BoundCheck,
    DegenerateInputError,
    DensityMatrix,
    DomainError,
    ExperimentConfig,
    build_state,
    gentle_normalize,
    run_lemma_suite,
    run_security_experiment,
    strip_timing_fields,
)
from pru_lab import PermutationT, all_permutations, checks, perm_op, subsystem_perm_op, tensor_power
from pru_lab.harness import STATE_FAMILIES
from pru_lab.operators import distinct_mask, haar_unitaries, subsystem_perm_index_map


@pytest.mark.parametrize("family", STATE_FAMILIES)
def test_families_are_normalized(family):
    st = build_state(family, 2, 2, 4, 7)
    assert abs(np.linalg.norm(st.amplitudes) - 1) < 1e-12
    assert st.registers == (4, 4, 4)


def test_distinct_supported_is_exactly_distinct():
    st = build_state("distinct_supported", 2, 2, 4, 7)
    mask = np.repeat(distinct_mask(4, 2), 4)
    assert np.abs(st.amplitudes[~mask]).max() == 0


def test_tensor_power_is_exact_product():
    st = build_state("tensor_power", 2, 2, 1, 3)
    assert np.linalg.matrix_rank(st.amplitudes.reshape(4, 4), tol=1e-10) == 1


def test_computational_basis_is_basis_vector():
    st = build_state("computational_basis", 2, 2, 2, 9)
    assert np.count_nonzero(st.amplitudes) == 1


def test_colliding_family_has_zero_distinct_overlap():
    st = build_state("adversarial_colliding", 2, 2, 1, 0)
    mask = distinct_mask(4, 2)
    assert np.abs(st.amplitudes[mask]).max() == 0


def test_random_pure_reduced_rank():
    st = build_state("random_pure", 2, 2, 4, 1)
    rho = st.to_density()
    arr = rho.entries.reshape(16, 4, 16, 4)
    red = np.einsum("aeaf->ef", arr)
    assert np.linalg.matrix_rank(red, tol=1e-10) <= 4


def test_gentle_normalize_maximally_mixed():
    xi = DensityMatrix(np.eye(16) / 16, (16, 1))
    g = gentle_normalize(xi, 4, 2)
    assert g.overlap == pytest.approx(12 / 16, abs=1e-12)
    assert g.delta == pytest.approx(0.5, abs=1e-12)
    assert g.delta <= 2 * np.sqrt(1 - g.overlap) + 1e-9


def test_gentle_normalize_distinct_input_is_fixed():
    st = build_state("distinct_supported", 2, 2, 2, 1)
    g = gentle_normalize(st.to_density(), 4, 2)
    assert g.delta < 1e-10
    assert g.overlap == pytest.approx(1.0, abs=1e-12)


def test_gentle_normalize_degenerate_input():
    coll = build_state("adversarial_colliding", 2, 2, 1, 0)
    with pytest.raises(DegenerateInputError):
        gentle_normalize(coll.to_density(), 4, 2)


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(n=1, t=3)  # t > 2^n
    with pytest.raises(DomainError):
        ExperimentConfig(n=2, t=2, state_family="bogus")


def test_exact_security_runs_past_the_enumeration_cap():
    """At t <= 3 the Clifford group is a 3-design, so the exact fully random
    state is the Haar twirl itself, at any n."""
    rep = run_security_experiment(
        ExperimentConfig(n=3, t=2, dim_e=2, clifford_method="exact", seed=5)
    )
    assert rep.passed
    assert rep.quantities["trace_distance_fr_hr"] < 1e-12


def test_security_t1_distance_vanishes():
    rep = run_security_experiment(ExperimentConfig(n=2, t=1, dim_e=2, seed=5))
    assert rep.quantities["trace_distance_fr_hr"] < 1e-9
    assert rep.passed
    assert any(c.check_id == "t1_channels_coincide" for c in rep.checks)


def test_security_exact_single_qubit_chain():
    rep = run_security_experiment(ExperimentConfig(n=1, t=2, dim_e=2, seed=5))
    assert rep.passed
    ids = {c.check_id for c in rep.checks}
    assert {
        "td_triangle_chain",
        "pf_vs_haar_block_bound",
        "gentle_measurement",
        "clifford_distinct_overlap",
        "td_total_bound",
    } <= ids
    for c in rep.checks:
        assert c.formula  # every bound carries its derivation


def test_security_distinct_input_without_clifford_layer():
    # already-distinct input: skip the Clifford layer entirely; the distance
    # must obey twice the worst block deficit of ratio_report(8, 2)
    rep = run_security_experiment(
        ExperimentConfig(
            n=3, t=2, dim_e=2, state_family="distinct_supported", seed=11,
            clifford_method="none",
        )
    )
    assert rep.passed
    assert "clifford_distinct_overlap" not in {c.check_id for c in rep.checks}
    assert rep.quantities["gentle_delta"] < 1e-10
    assert rep.quantities["max_deficit"] == pytest.approx(1 - 56 / 72, abs=1e-15)
    assert rep.quantities["trace_distance_fr_hr"] <= 2 * (1 - 56 / 72) + 1e-8


def test_security_mc_path():
    rep = run_security_experiment(
        ExperimentConfig(
            n=3, t=2, dim_e=2, seed=3, clifford_method="monte_carlo", clifford_samples=500
        )
    )
    assert rep.passed


def test_security_keyed_comparison():
    rep = run_security_experiment(ExperimentConfig(n=2, t=2, dim_e=2, seed=5, num_keys=256))
    assert rep.passed
    assert "keyed_vs_fully_random" in {c.check_id for c in rep.checks}


def test_report_roundtrip_and_csv_agree():
    rep = run_security_experiment(ExperimentConfig(n=1, t=2, dim_e=2, seed=9))
    obj = json.loads(rep.to_json())
    assert obj["schema"] == "pru-lab/1"
    csv = rep.to_csv().splitlines()
    assert csv[0] == "check_id,n,t,dim_e,measured,bound,pass,seed,wall_ms"
    # identical numerics between the two emissions
    for line, check in zip(csv[1:], obj["checks"]):
        cells = line.split(",")
        assert cells[0] == check["check_id"]
        assert float(cells[4]) == check["measured"]
        assert float(cells[5]) == check["bound"]


def test_report_determinism():
    a = run_security_experiment(ExperimentConfig(n=1, t=2, dim_e=2, seed=9))
    b = run_security_experiment(ExperimentConfig(n=1, t=2, dim_e=2, seed=9))
    assert a.canonical_json() == b.canonical_json()
    stripped = strip_timing_fields(json.loads(a.to_json()))
    assert "timings" not in stripped


def test_lemma_suite_subset_and_unknown():
    rep = run_lemma_suite(
        ds=(2,), ts=(2,), seed=1, samples_clifford=100, samples_unitary=500,
        check_names=["deficit_closed_form"], num_keys=16,
    )
    assert rep.passed
    assert {c.check_id for c in rep.checks} == {"deficit_closed_form", "deficit_envelope"}
    with pytest.raises(DomainError):
        run_lemma_suite(ds=(2,), ts=(2,), check_names=["nope"])


def test_check_records_carry_the_whole_call_time(monkeypatch):
    def three_records(ctx, d, t):
        time.sleep(0.05)
        return [BoundCheck.make(f"fake_{i}", {"d": d, "t": t}, 0, 0, "eq", 0, "fake") for i in range(3)]

    monkeypatch.setitem(checks.PER_CELL_CHECKS, "fake_timing", three_records)
    rep = run_lemma_suite(ds=(2,), ts=(2,), check_names=["fake_timing"])
    assert [c.check_id for c in rep.checks] == ["fake_0", "fake_1", "fake_2"]
    assert all(c.wall_ms >= 50 for c in rep.checks)
    assert "wall_ms" not in rep.canonical_json()


def _kron_commutator(V, X, t, dim_e):
    big = np.kron(reduce(np.kron, [V] * t), np.eye(dim_e))
    return float(np.abs(big @ X - X @ big).max())


@pytest.mark.parametrize(
    "d, t, dim_e", [(2, 3, 2), (4, 2, 3), (8, 2, 2), (3, 3, 1), (2, 1, 3), (3, 4, 1), (5, 3, 1)]
)
def test_tensor_power_commutator_matches_dense_kronecker_products(d, t, dim_e):
    """On a non-Hermitian X; at (8, 2, 2) the 128 rows fill two bands of 64,
    and n = 81 and n = 125 end in a partial band."""
    rng = np.random.default_rng(d * t * dim_e)
    n = d**t * dim_e
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    V = haar_unitaries(d, 1, rng)[0]
    got = checks._tensor_power_commutator(V, X, t)
    assert abs(got - _kron_commutator(V, X, t, dim_e)) < 1e-12


def _measured(report, check_id):
    return {(c.params["d"], c.params["t"]): c for c in report.checks if c.check_id == check_id}


def test_commutation_checks_measure_the_dense_commutator(monkeypatch):
    """With the twirl replaced by the identity, the invariance check must
    fail, reading the commutator that dense Kronecker products give."""
    states, unitaries = [], []

    def identity_twirl(st, d, t):
        states.append(st.to_density())
        return states[-1]

    def recording(fn, log):
        def wrapped(*args):
            log.append(fn(*args))
            return log[-1]
        return wrapped

    monkeypatch.setattr(checks, "haar_twirl_exact", identity_twirl)
    monkeypatch.setattr(checks, "haar_unitaries", recording(checks.haar_unitaries, unitaries))
    report = run_lemma_suite(ds=(2, 4), ts=(2, 3), seed=8, check_names=["haar_invariance"])

    haar = _measured(report, "haar_invariance")
    assert sorted(haar) == [(2, 2), (2, 3), (4, 2), (4, 3)]
    assert len(unitaries) == 10 * len(states)  # ten draws per cell
    for i, ((d, t), rho) in enumerate(zip(sorted(haar), states)):
        batch = unitaries[10 * i : 10 * (i + 1)]
        oracle = max(_kron_commutator(us[0], rho.entries, t, 2) for us in batch)
        assert not haar[d, t].passed
        assert abs(haar[d, t].measured - oracle) < 1e-12


def _dense_from_map(m):
    R = np.zeros((len(m), len(m)))
    R[m, np.arange(len(m))] = 1.0
    return R


@pytest.mark.parametrize("broken", [False, True])
def test_permutation_checks_match_dense_products(monkeypatch, broken):
    """Both permutation checks read their products off index maps; the dense
    matrices of the same maps decide the value: 0 for the slot permutations,
    1 when every map has its first two images swapped.  The label
    permutations are the adjacent transpositions, which no broken map
    commutes with, so every cell reads 1 when broken, d = 2 included."""
    def index_map(pi, d):
        m = subsystem_perm_index_map(pi, d)
        if broken:
            m[[0, 1]] = m[[1, 0]]
        return m

    monkeypatch.setattr(checks, "subsystem_perm_index_map", index_map)
    seed, names = 4, ["perm_representation_property", "perm_phase_commutation"]
    report = run_lemma_suite(ds=(2, 3), ts=(2, 3, 4), seed=seed, check_names=names)
    expect = 1.0 if broken else 0.0

    rep = [c for c in report.checks if c.check_id == names[0]]
    assert [c.params["t"] for c in rep] == [2, 3, 4]
    for c in rep:
        R = {pi: _dense_from_map(index_map(pi, 2)) for pi in all_permutations(c.params["t"])}
        oracle = max(float(np.abs(R[a] @ R[b] - R[a.compose(b)]).max()) for a in R for b in R)
        assert c.measured == oracle == expect
        assert c.passed is not broken

    perm = _measured(report, "perm_phase_commutation")
    assert sorted(perm) == [(d, t) for d in (2, 3) for t in (2, 3, 4)]
    for (d, t), c in perm.items():
        Ps = [tensor_power(perm_op(PermutationT.transposition(d, k - 1, k)), t).entries for k in range(1, d)]
        oracle = max(
            float(np.abs(P @ R - R @ P).max())
            for R in (_dense_from_map(index_map(pi, d)) for pi in all_permutations(t))
            for P in Ps
        )
        assert c.measured == oracle == expect
        assert c.passed is not broken


def test_clifford_checks_past_four_copies_use_monte_carlo():
    """The exact Clifford twirl stops at t = 4: past it the density check
    keeps its Haar and permutation-phase outputs and the overlap check
    samples."""
    names = ["twirl_outputs_are_density", "clifford_distinct_overlap"]
    report = run_lemma_suite(ds=(2,), ts=(5,), samples_clifford=200, check_names=names)
    ids = [c.check_id for c in report.checks]
    assert ids == ["twirl_output_psd", "twirl_output_trace", "clifford_distinct_overlap"]
    assert report.checks[-1].params["method"] == "monte_carlo"
    assert report.passed


def test_permutation_checks_run_past_four_copies():
    names = ["irrep_schur_orthogonality", "perm_representation_property", "perm_phase_commutation"]
    report = run_lemma_suite(ds=(2,), ts=(5,), check_names=names)
    assert [c.check_id for c in report.checks] == names
    assert all(c.passed and c.params["t"] == 5 for c in report.checks)


@pytest.mark.parametrize("broken", [False, True])
def test_distinct_commutation_check_matches_dense_products(monkeypatch, broken):
    """The check reads L R - R L off the mask and the index maps; the dense
    products decide the value, 0 for the distinct mask and 1 for a mask
    that is not permutation invariant."""
    def mask(d, t):
        out = distinct_mask(d, t)
        if broken:
            out[1] = not out[1]
        return out

    monkeypatch.setattr(checks, "distinct_mask", mask)
    report = run_lemma_suite(ds=(2, 3, 4), ts=(2, 3), check_names=["distinct_commutes_with_perms"])
    for c in report.checks:
        d, t = c.params["d"], c.params["t"]
        L = np.diag(mask(d, t).astype(float))
        oracle = max(
            float(np.abs(L @ R - R @ L).max())
            for R in (subsystem_perm_op(pi, d).entries for pi in all_permutations(t))
        )
        assert c.measured == oracle == (1.0 if broken else 0.0)
        assert c.passed is not broken


@pytest.mark.parametrize("name", ["pf_formula_vs_generic", "haar_commutant_vs_block", "haar_invariance"])
def test_twirl_checks_hold_about_three_operators_at_d8_t3(name):
    """At (d, t, dim_e) = (8, 3, 2) one dense operator is 16 MiB.  A pure
    input is twirled from psi, twirl outputs are taken over rather than
    copied and the commutator is banded, so each check peaks near three."""
    run_lemma_suite(ds=(8,), ts=(3,), check_names=[name])  # builds the cached bases and commutants
    tracemalloc.start()
    try:
        report = run_lemma_suite(ds=(8,), ts=(3,), check_names=[name])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 52 * 2**20
