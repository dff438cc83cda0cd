"""State families, the gentle-measurement step, and the security pipeline."""

import json
import time

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
from pru_lab import checks
from pru_lab.harness import STATE_FAMILIES
from pru_lab.operators import distinct_mask


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
        ExperimentConfig(n=3, t=2, clifford_method="exact")
    with pytest.raises(DomainError):
        ExperimentConfig(n=2, t=2, state_family="bogus")


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
