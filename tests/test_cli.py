"""CLI surface: subcommands, exit codes, emission formats."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pru_lab import StateVector, checks, cli_main, harness, schur_weyl, strip_timing_fields, twirls


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_no_arguments_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli_main([])
    assert exc.value.code == 2


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "--bogus"])
    assert exc.value.code == 2


def test_verify_json(capsys):
    code, out = run_cli(
        capsys, "verify", "--n", "1", "--t", "2", "--seed", "7",
        "--samples", "200", "--samples-unitary", "500", "--keys", "16", "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "pru-lab/1"
    assert rep["passed"] is True
    assert rep["checks"]


def test_verify_single_check_selection(capsys):
    code, out = run_cli(
        capsys, "verify", "--n", "1", "--t", "2", "--check", "character_orthogonality",
    )
    assert code == 0
    rep = json.loads(out)
    assert {c["check_id"] for c in rep["checks"]} == {"character_orthogonality"}


def test_verify_deterministic_repeat(capsys):
    args = ("verify", "--n", "1", "--t", "2", "--seed", "11",
            "--samples", "100", "--samples-unitary", "300", "--keys", "8")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    a = strip_timing_fields(json.loads(out1))
    b = strip_timing_fields(json.loads(out2))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_security_command(capsys):
    code, out = run_cli(
        capsys, "security", "--n", "2", "--t", "2", "--state", "random_pure",
        "--dim-e", "2", "--seed", "3",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "security"
    assert "trace_distance_fr_hr" in rep["quantities"]


def test_csv_and_json_same_numbers(capsys, tmp_path):
    json_path = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    base = ("security", "--n", "1", "--t", "2", "--seed", "4", "--dim-e", "2")
    assert cli_main([*base, "--format", "json", "--out", str(json_path)]) == 0
    assert cli_main([*base, "--format", "csv", "--out", str(csv_path)]) == 0
    rep = json.loads(json_path.read_text())
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "check_id,n,t,dim_e,measured,bound,pass,seed,wall_ms"
    for line, check in zip(lines[1:], rep["checks"]):
        cells = line.split(",")
        assert cells[0] == check["check_id"]
        assert float(cells[4]) == check["measured"]
        assert float(cells[5]) == check["bound"]


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_out_path_is_checked_before_the_run(capsys, monkeypatch, tmp_path, where):
    path = tmp_path / "missing" / "r.json" if where == "missing directory" else tmp_path
    monkeypatch.setattr("pru_lab.cli.run_lemma_suite", lambda *a, **k: pytest.fail("the run started first"))
    code = cli_main(["verify", "--n", "1", "--t", "2", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: cannot write the report to {path}")
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


def test_out_file_is_neither_created_nor_truncated_by_a_failed_run(capsys, tmp_path):
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier report")
    for path in (kept, fresh):
        assert cli_main(["twirl", "--channel", "pf", "--n", "-1", "--t", "1", "--out", str(path)]) == 1
    assert kept.read_text() == "earlier report"
    assert not fresh.exists()


def test_unwritable_out_path_is_an_error(capsys, tmp_path):
    path = tmp_path / "missing" / "r.json"
    code = cli_main(["twirl", "--channel", "haar", "--n", "1", "--t", "1", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: cannot write the report to {path}")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_twirl_summary_and_dump(capsys):
    code, out = run_cli(
        capsys, "twirl", "--channel", "pf", "--n", "1", "--t", "2",
        "--state", "random_pure", "--seed", "1",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["quantities"]["trace"] == pytest.approx(1.0, abs=1e-9)
    assert "operator" not in rep["quantities"]

    code, out = run_cli(
        capsys, "twirl", "--channel", "haar", "--n", "1", "--t", "2",
        "--state", "computational_basis", "--dump-operator", "--seed", "0",
    )
    rep = json.loads(out)
    op = rep["quantities"]["operator"]
    assert op["dim"] == 4 and len(op["entries"]) == 16


def test_sweep_grid(capsys):
    code, out = run_cli(
        capsys, "sweep", "--n", "1", "--n", "2", "--t", "1", "--t", "2",
        "--state", "random_pure", "--seed", "2",
    )
    assert code == 0
    rep = json.loads(out)
    assert set(rep["quantities"]) == {"n1_t1", "n1_t2", "n2_t1", "n2_t2"}


def test_error_reported_as_exit_one(capsys):
    code = cli_main(["security", "--n", "1", "--t", "3", "--seed", "0"])  # t > 2^n
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


@pytest.mark.parametrize("argv", [
    ["security", "--n", "1", "--t", "2", "--dim-e", "-1"],
    ["security", "--n", "1", "--t", "2", "--dim-e", "0"],
    ["twirl", "--channel", "pf", "--n", "1", "--t", "2", "--dim-e", "-2"],
    ["twirl", "--channel", "haar", "--n", "1", "--t", "0"],
    ["sweep", "--n", "1", "--t", "2", "--dim-e", "0"],
], ids=["security-negative-dim-e", "security-zero-dim-e", "twirl-negative-dim-e", "twirl-zero-t", "sweep-zero-dim-e"])
def test_bad_sizes_are_domain_errors(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: t and dim_e must be at least 1")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "1", "--t", "0", "--check", "pf_idempotence"],
    ["verify", "--n", "1", "--t", "0", "--check", "haar_invariance"],
    ["verify", "--n", "1", "--t", "-1", "--check", "pf_idempotence"],
    ["security", "--n", "1", "--t", "1", "--seed", "-1"],
    ["verify", "--n", "1", "--t", "2", "--seed", "-3", "--check", "pf_idempotence"],
    ["twirl", "--channel", "haar", "--n", "1", "--t", "1", "--seed", "-2"],
    ["sweep", "--n", "1", "--t", "1", "--seed", "-1"],
], ids=["verify-zero-t-pf", "verify-zero-t-haar", "verify-negative-t", "security-negative-seed",
        "verify-negative-seed", "twirl-negative-seed", "sweep-negative-seed"])
def test_bad_copy_counts_and_seeds_are_domain_errors(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["twirl", "--channel", "pf", "--n", "-1", "--t", "1"],
    ["verify", "--n", "-1", "--t", "2", "--check", "weyl_dimension_sum"],
    ["security", "--n", "-1", "--t", "1"],
    ["sweep", "--n", "-1", "--t", "1"],
], ids=["twirl", "verify", "security", "sweep"])
def test_negative_qubit_counts_are_domain_errors(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: the qubit count n must be at least 0, got -1")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["security", "sweep"])
def test_negative_key_counts_are_domain_errors(capsys, command):
    code = cli_main([command, "--n", "1", "--t", "2", "--keys", "-3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: the key count must be at least 0, got -3")
    assert captured.out == ""


def test_a_verify_run_that_measures_nothing_fails(capsys):
    code = cli_main(["verify", "--n", "1", "--t", "2", "--check", "pf_mc_agreement"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: checks ['pf_mc_agreement'] produced no record")
    assert "d in [2], t in [2]" in captured.err
    assert captured.out == ""


def test_five_copies_at_three_qubits_stop_at_the_dimension_cap(capsys, monkeypatch):
    """One dense operator at n = 3, t = 5 is 32768^2 complex entries; the run
    must stop at the cap before allocating anything of that order."""
    monkeypatch.delenv("PRU_LAB_DIM_CAP", raising=False)
    tracemalloc.start()
    try:
        code = cli_main(["security", "--n", "3", "--t", "5", "--clifford", "monte_carlo"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: total dimension 32768 exceeds cap")
    assert peak < 4 * 2**20


def test_zero_qubits_stay_allowed(capsys):
    code, out = run_cli(capsys, "twirl", "--channel", "pf", "--n", "0", "--t", "1")
    assert code == 0
    assert json.loads(out)["quantities"]["trace"] == pytest.approx(1.0)


# --- a bound that fails is a failed record in a complete report ---------------

def _serve_altered_first_block(monkeypatch, alter):
    """The checks get a copy of each decomposition with its first block altered."""
    def altered(d, t):
        decomp = schur_weyl.schur_weyl_basis(d, t)
        return dataclasses.replace(decomp, blocks=(alter(decomp.blocks[0]),) + decomp.blocks[1:])

    monkeypatch.setattr(checks, "schur_weyl_basis", altered)


def _leave_clifford_layer_out(monkeypatch):
    """Every Clifford twirl returns its input unchanged, as a density matrix."""
    def unchanged(state, n, t, *args, **kwargs):
        rho = state.to_density() if isinstance(state, StateVector) else state
        return twirls._wrap(np.array(rho.entries), True, 2**n, t), None  # _wrap takes over its array

    monkeypatch.setattr(twirls, "_clifford_average", unchanged)


def _records(out) -> dict:
    rep = json.loads(out)
    assert rep["passed"] is False
    return {c["check_id"]: c for c in rep["checks"]}


def test_a_basis_entry_moved_by_1e6_fails_its_record(capsys, monkeypatch):
    def moved(block):
        basis = block.basis.copy()
        basis[np.argmax(np.abs(basis[:, 0])), 0] += 1e-6
        return dataclasses.replace(block, basis=basis)

    _serve_altered_first_block(monkeypatch, moved)
    code, out = run_cli(capsys, "verify", "--n", "2", "--t", "2", "--check", "basis_block_action")
    assert code == 1
    records = _records(out)
    assert len(records) == 7
    assert records["basis_orthonormality"]["passed"] is False
    assert records["basis_orthonormality"]["measured"] > 1e-6


def test_a_basis_entry_moved_off_its_orbit_is_an_error(capsys, monkeypatch):
    def moved(block):
        basis = block.basis.copy()
        assert np.flatnonzero(basis[:, 0]).tolist() == [0]  # the first column is |00>
        basis[[0, -1], 0] = basis[[-1, 0], 0]  # it becomes |33>, on another orbit
        return dataclasses.replace(block, basis=basis)

    _serve_altered_first_block(monkeypatch, moved)
    code = cli_main(["verify", "--n", "2", "--t", "2", "--check", "basis_block_action"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and "orbit" in captured.err


def test_a_scaled_distinct_block_fails_the_trace_record(capsys, monkeypatch):
    _serve_altered_first_block(
        monkeypatch, lambda b: dataclasses.replace(b, distinct_block=1.001 * b.distinct_block)
    )
    code, out = run_cli(capsys, "verify", "--n", "2", "--t", "2", "--check", "distinct_block_trace")
    assert code == 1
    record = _records(out)["distinct_block_trace"]
    assert record["passed"] is False
    assert record["measured"] == pytest.approx(0.006, rel=1e-9)  # 0.001 x trace 6 of the (2) block


def test_verify_reports_an_overlap_below_its_bound(capsys, monkeypatch):
    _leave_clifford_layer_out(monkeypatch)
    code, out = run_cli(capsys, "verify", "--n", "2", "--t", "2", "--check", "clifford_distinct_overlap")
    assert code == 1
    record = _records(out)["clifford_distinct_overlap"]
    assert (record["passed"], record["measured"], record["bound"]) == (False, 0.0, pytest.approx(0.6))


def test_security_reports_an_overlap_below_its_bound(capsys, monkeypatch):
    # sqrt(0.9) |0,0> + sqrt(0.1) |0,1>: distinct overlap 0.1, against the bound 0.6 at d = 4
    v = np.zeros(16, dtype=complex)
    v[0], v[1] = np.sqrt(0.9), np.sqrt(0.1)
    monkeypatch.setattr(harness, "build_state", lambda *args: StateVector(v, (4, 4, 1)))
    _leave_clifford_layer_out(monkeypatch)
    code, out = run_cli(capsys, "security", "--n", "2", "--t", "2")
    assert code == 1
    record = _records(out)["clifford_distinct_overlap"]
    assert record["passed"] is False
    assert record["measured"] == pytest.approx(0.1, abs=1e-12)
    assert record["bound"] == pytest.approx(0.6)


def test_haar_twirl_with_fewer_levels_than_copies_emits_finite_json(capsys):
    def refuse(name):
        raise ValueError(f"non-finite number {name} in the report")

    code, out = run_cli(capsys, "twirl", "--channel", "haar", "--n", "1", "--t", "3")
    assert code == 0
    rep = json.loads(out, parse_constant=refuse)
    assert rep["quantities"]["meta"]["gram_rank"] == 5
    assert rep["quantities"]["distance_to_haar_twirl"] == pytest.approx(0.0, abs=1e-12)


def test_cli_import_does_not_load_scipy():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", "import pru_lab.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True,
    )


def test_module_run_reports_bad_input_as_an_error_line():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "pru_lab.cli", "verify", "--n", "1", "--t", "0"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
