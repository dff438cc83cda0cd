"""Tests of the benchmark's own machinery (not of the lab).

    python3 -m pytest -q perfbench
"""

import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from pru_lab.checks import PER_CELL_CHECKS, PER_T_CHECKS  # noqa: E402
from pru_lab.cli import cli_main  # noqa: E402
from pru_lab.clifford import CliffordElement  # noqa: E402
from pru_lab.harness import ExperimentConfig, run_security_experiment, strip_timing_fields  # noqa: E402
from pru_lab.schur_weyl import ratio_report  # noqa: E402

import workloads  # noqa: E402
from tracer import LAB_MODULES, Tracer  # noqa: E402

TINY_MC = ["security", "--n", "3", "--t", "2", "--dim-e", "1", "--samples", "8", "--keys", "2",
           "--seed", "5"]
TINY_EXACT = ["security", "--n", "1", "--t", "2", "--dim-e", "2", "--seed", "5"]
TINY_VERIFY = ["verify", "--n", "1", "--n", "2", "--t", "2", "--seed", "5",
               "--check", "character_orthogonality", "--check", "basis_block_action",
               "--check", "pf_formula_vs_generic", "--check", "haar_commutant_vs_block"]


def _bindings() -> dict:
    out = {}
    for name in LAB_MODULES:
        mod = importlib.import_module(f"pru_lab.{name}")
        out.update({(name, k): v for k, v in vars(mod).items()})
    out.update({("PER_T_CHECKS", k): v for k, v in PER_T_CHECKS.items()})
    out.update({("PER_CELL_CHECKS", k): v for k, v in PER_CELL_CHECKS.items()})
    out[("CliffordElement", "to_dense")] = CliffordElement.__dict__["to_dense"]
    return out


def _canonical(argv, entry=cli_main) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert entry(argv) == 0
    return json.dumps(strip_timing_fields(json.loads(out.getvalue())), sort_keys=True, indent=2)


def _traced(argv):
    with Tracer() as tracer:
        text = _canonical(argv, tracer.wrap(cli_main, "cli.main"))
    return tracer, text


@pytest.mark.parametrize("argv", [TINY_MC, TINY_EXACT, TINY_VERIFY], ids=["mc", "exact", "verify"])
def test_tracer_is_removed_afterwards_and_reports_are_unchanged(argv):
    before = _bindings()
    plain = _canonical(argv)
    tracer, traced = _traced(argv)
    after = _bindings()
    assert tracer.spans
    assert traced == plain
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_at_most_the_traced_wall():
    with Tracer() as tracer:
        entry = tracer.wrap(cli_main, "cli.main")
        start = perf_counter()
        for argv in (TINY_MC, TINY_EXACT):
            _canonical(argv, entry)
        wall = perf_counter() - start
    selfs = tracer.self_times()
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= wall
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main", "cli.main"]


def test_exact_call_counts_for_a_tiny_monte_carlo_case():
    first = _traced(TINY_MC)[0].layer_metrics()
    # 8 twirl samples + the same 8 redrawn by the overlap + 2 keyed Cliffords
    assert first["clifford.sample_calls"] == 18
    assert first["clifford.to_dense_calls"] == 18
    assert first["clifford.sample_unique_frac"] == 10 / 18
    assert first["pru.unitary_calls"] == 2
    assert first["clifford.enumerate_calls"] == 0
    again = _traced(TINY_MC)[0].layer_metrics()
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: again[k] for k in counts} == {k: first[k] for k in counts}


def test_exact_call_counts_for_a_tiny_exact_case():
    m = _traced(TINY_EXACT)[0].layer_metrics()
    assert m["clifford.enumerate_calls"] == 2  # the twirl and the overlap each enumerate
    assert m["clifford.enumerate_unique_frac"] == 0.5
    assert m["clifford.sample_calls"] == 0
    assert m["twirls.ensemble_s"] > 0


def test_canonical_text_from_stdout_matches_canonical_json():
    report = run_security_experiment(ExperimentConfig(n=1, t=2, dim_e=2, seed=5))
    rebuilt = json.dumps(strip_timing_fields(json.loads(report.to_json())), sort_keys=True, indent=2)
    assert rebuilt == report.canonical_json()


@pytest.mark.parametrize("d,t", [(2, 2), (4, 2), (4, 3), (8, 3), (8, 4)])
def test_closed_form_max_deficit_matches_the_lab(d, t):
    assert workloads.max_deficit(d, t) == max(Fraction(r.deficit) for r in ratio_report(d, t))


def test_report_check_rejects_a_tampered_report():
    argv = TINY_EXACT
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(argv)
    report = json.loads(out.getvalue())
    assert workloads.report_problems(argv, report) == []
    report["quantities"]["max_deficit"] *= 0.5
    assert workloads.report_problems(argv, report)


def test_workload_cases():
    assert workloads.cases("security_mc", 3) == workloads.cases("security_mc", 3)
    assert len(workloads.cases("security_exact", 3)) == 2
    (argv,) = workloads.cases("verify_structure", 3)
    requested = {argv[i + 1] for i, a in enumerate(argv) if a == "--check"}
    assert requested == (set(PER_T_CHECKS) | set(PER_CELL_CHECKS)) - set(workloads.VERIFY_EXCLUDED)
    with pytest.raises(ValueError):
        workloads.cases("nope", 3)


def test_run_fails_without_a_result_when_the_lab_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "security_mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
