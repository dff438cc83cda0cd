"""Golden canonical reports: a guard for refactors that must keep outputs.

Each case below is run and its canonical JSON compared with the checked-in
file under ``tests/golden/``: pass flags, strings and structure exactly,
every number within 1e-12.  A change that alters a sampled stream on
purpose regenerates the files and says so in its change notes:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which rewrites only the named cases, or every case when none is named.
"""

import json
import math
import os
import sys

import pytest

from pru_lab import ExperimentConfig, run_lemma_suite, run_security_experiment

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
NUMBER_TOL = 1e-12

CASES = {
    "security_n2_t2_e4_exact": lambda: run_security_experiment(
        ExperimentConfig(n=2, t=2, dim_e=4, seed=3, clifford_method="exact")
    ),
    "security_n2_t3_exact": lambda: run_security_experiment(
        ExperimentConfig(n=2, t=3, seed=4, clifford_method="exact")
    ),
    "security_n3_t2_e4_mc": lambda: run_security_experiment(
        ExperimentConfig(
            n=3, t=2, dim_e=4, seed=5, clifford_method="monte_carlo", clifford_samples=200,
            num_keys=16,
        )
    ),
    "security_n2_t4_e2_exact": lambda: run_security_experiment(
        ExperimentConfig(n=2, t=4, dim_e=2, seed=7, clifford_method="exact")
    ),
    "security_n3_t3_e2_exact": lambda: run_security_experiment(
        ExperimentConfig(n=3, t=3, dim_e=2, seed=7, state_family="random_pure", clifford_method="exact")
    ),
    "security_n2_t4_e2_mc": lambda: run_security_experiment(
        ExperimentConfig(
            n=2, t=4, dim_e=2, seed=7, clifford_method="monte_carlo", clifford_samples=2000,
            num_keys=256,
        )
    ),
    "verify_d2_d4_t4": lambda: run_lemma_suite(
        ds=(2, 4), ts=(4,), seed=7,
        check_names=[
            "haar_invariance",
            "pf_idempotence",
            "twirl_outputs_are_density",
            "clifford_distinct_overlap",
        ],
    ),
    "verify_d8_t3_structure": lambda: run_lemma_suite(
        ds=(8,), ts=(3,), seed=7,
        check_names=[
            "haar_commutant_vs_block",
            "pf_formula_vs_generic",
            "pf_idempotence",
            "isotypic_completeness",
            "basis_block_action",
            "distinct_reconstruction",
            "haar_invariance",
        ],
    ),
    "verify_d2_d4_t2": lambda: run_lemma_suite(
        ds=(2, 4), ts=(2,), seed=6, samples_clifford=200, samples_unitary=2000, num_keys=16,
        check_names=[
            "haar_mc_agreement",
            "pf_mc_agreement",
            "clifford_two_design",
            "clifford_distinct_overlap",
        ],
    ),
}


def _path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def _differences(got, want, where="$") -> list[str]:
    """Every place where ``got`` departs from ``want`` beyond the tolerance."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=0.0, abs_tol=NUMBER_TOL):
            return []
        return [f"{where}: {got!r} differs from {want!r} by {abs(got - want):.3e}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [msg for k in want for msg in _differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [msg for i, (g, w) in enumerate(zip(got, want)) for msg in _differences(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def test_comparison_is_strict_on_flags_and_loose_only_on_rounding():
    want = {"passed": True, "x": 0.5, "n": [1, "a"]}
    assert _differences({"passed": True, "x": 0.5 + 1e-13, "n": [1, "a"]}, want) == []
    assert _differences({"passed": False, "x": 0.5, "n": [1, "a"]}, want)
    assert _differences({"passed": True, "x": 0.5 + 1e-11, "n": [1, "a"]}, want)
    assert _differences({"passed": True, "x": 0.5, "n": [1, "b"]}, want)
    assert _differences({"passed": 1, "x": 0.5, "n": [1, "a"]}, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    with open(_path(name)) as fh:
        want = json.load(fh)
    got = json.loads(CASES[name]().canonical_json())
    problems = _differences(got, want)
    assert not problems, "\n".join(problems[:20])


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases {unknown}; known: {sorted(CASES)}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case_name in names:
        with open(_path(case_name), "w") as out:
            out.write(CASES[case_name]().canonical_json() + "\n")
        print(f"wrote {_path(case_name)}", file=sys.stderr)
