"""The benchmark's workloads: CLI argument lists generated from a seed, and
checks on the reports they produce that do not trust the lab's own pass
flags alone.

Sizes (sample, key and Monte-Carlo counts) are fixed here so that one case
process of each workload stays well under a minute on one core.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, sqrt

MC_SAMPLES = 2000  # Clifford Monte-Carlo samples for the n=3 security case
MC_KEYS = 512  # keyed-ensemble size for the n=3 security case
VERIFY_SAMPLES_UNITARY = 20000  # Haar/PF Monte-Carlo samples in verify

# The only checks that call into the clifford or pru layers.
VERIFY_EXCLUDED = (
    "clifford_two_design",
    "clifford_distinct_overlap",
    "pru_scheme",
    "twirl_outputs_are_density",
)

WORKLOADS = ("security_mc", "security_exact", "verify_structure")


def verify_checks() -> list[str]:
    """Every registered check that does no Clifford or keyed-ensemble work."""
    from pru_lab.checks import PER_CELL_CHECKS, PER_T_CHECKS

    return [c for c in (*PER_T_CHECKS, *PER_CELL_CHECKS) if c not in VERIFY_EXCLUDED]


def cases(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists one case process runs, in order."""
    s = str(seed % 2**32)  # the lab's seeds must be nonnegative
    if workload == "security_mc":
        return [[
            "security", "--n", "3", "--t", "2", "--dim-e", "4", "--state", "random_pure",
            "--samples", str(MC_SAMPLES), "--keys", str(MC_KEYS), "--seed", s,
        ]]
    if workload == "security_exact":
        return [
            ["security", "--n", "2", "--t", "2", "--dim-e", "4", "--state", "random_pure", "--seed", s],
            ["security", "--n", "2", "--t", "3", "--dim-e", "1", "--state", "random_pure", "--seed", s],
        ]
    if workload == "verify_structure":
        argv = ["verify", "--n", "1", "--n", "2", "--n", "3", "--t", "2", "--t", "3",
                "--samples-unitary", str(VERIFY_SAMPLES_UNITARY), "--seed", s]
        for name in verify_checks():
            argv += ["--check", name]
        return [argv]
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")


def _arg(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _partitions(t: int, max_part: int | None = None):
    if t == 0:
        yield ()
        return
    for first in range(min(t, max_part or t), 0, -1):
        for rest in _partitions(t - first, first):
            yield (first,) + rest


def max_deficit(d: int, t: int) -> Fraction:
    """max over partitions of 1 - (d)_t / prod(d + col - row), exactly."""
    falling = factorial(d) // factorial(d - t)
    out = Fraction(0)
    for lam in _partitions(t):
        if len(lam) > d:
            continue
        prod = 1
        for i, row in enumerate(lam):
            for j in range(row):
                prod *= d + j - i
        out = max(out, 1 - Fraction(falling, prod))
    return out


def report_problems(argv: list[str], report: dict) -> list[str]:
    """Reasons the report of ``argv`` is wrong; empty when it is right."""
    problems = []
    if not report.get("passed"):
        problems.append("report passed == false")
    failing = [c["check_id"] for c in report.get("checks", []) if not c["passed"]]
    if failing:
        problems.append(f"failing checks {failing}")
    if argv[0] == "security":
        problems += _security_problems(argv, report)
    else:
        problems += _verify_problems(argv, report)
    return problems


def _security_problems(argv, report) -> list[str]:
    n, t = _arg(argv, "--n"), _arg(argv, "--t")
    d = 2**n
    q = report["quantities"]
    tol = 1e-8
    expected = {"td_triangle_chain", "pf_vs_haar_block_bound", "gentle_measurement",
                "clifford_distinct_overlap", "td_total_bound"}
    if "--keys" in argv and _arg(argv, "--keys") > 0:
        expected.add("keyed_vs_fully_random")
    ids = {c["check_id"] for c in report["checks"]}
    out = []
    if ids != expected:
        out.append(f"check ids {sorted(ids)} != {sorted(expected)}")
    if abs(q["max_deficit"] - float(max_deficit(d, t))) > 1e-12:
        out.append(f"max_deficit {q['max_deficit']} != closed form {max_deficit(d, t)}")
    if q["trace_distance_fr_hr"] > q["pf_vs_haar_on_normalized"] + 2 * q["gentle_delta"] + tol:
        out.append("triangle chain violated")
    if q["pf_vs_haar_on_normalized"] > 2 * q["max_deficit"] + tol:
        out.append("per-block deficit bound violated")
    if q["gentle_delta"] > 2 * sqrt(max(1 - q["distinct_overlap"], 0.0)) + tol:
        out.append("gentle measurement bound violated")
    floor = 1 - t * (t - 1) / (d + 1) - 3 * q["overlap_std_error"] - 1e-9
    if q["distinct_overlap"] < floor:
        out.append(f"distinct overlap {q['distinct_overlap']} below {floor}")
    return out


def _verify_problems(argv, report) -> list[str]:
    requested = sorted(argv[i + 1] for i, a in enumerate(argv) if a == "--check")
    out = []
    if report["config"].get("checks") != requested:
        out.append("report ran a different check set than requested")
    if not report["checks"] or report["quantities"].get("num_checks") != len(report["checks"]):
        out.append("num_checks does not match the check records")
    return out
