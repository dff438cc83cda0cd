"""Experiment configuration, report plumbing, input-state families, and
the end-to-end trace-distance experiment.

The experiment compares the fully random construction (Clifford twirl
followed by an exact permutation-phase twirl) against the exact Haar twirl
on the same input, and checks the full chain of per-instance inequalities
that bounds their trace distance:

    D <= [pf-vs-haar on the distinct-normalized state] + 2 * [gentle delta]
      <= 2 * max deficit + 2 * [gentle delta]

with every summand reported both as measured and as its formula bound.
All reports carry explicit seeds and serialize deterministically; wall
clock fields are segregated so byte-level comparisons can strip them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from math import sqrt

import numpy as np

from .errors import DegenerateInputError, DomainError
from .operators import (
    DensityMatrix,
    StateVector,
    check_capacity,
    distinct_mask,
    trace_distance,
)
from .pru import pru_average_state
from .schur_weyl import ratio_report
from .twirls import distinct_overlap_after_clifford, haar_twirl_exact, pf_twirl

SCHEMA = "pru-lab/1"

STATE_FAMILIES = (
    "random_pure",
    "distinct_supported",
    "tensor_power",
    "computational_basis",
    "adversarial_colliding",
)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    t: int
    dim_e: int = 1
    state_family: str = "random_pure"
    # "exact" (n <= 2), "monte_carlo", or "none" (skip the Clifford layer,
    # e.g. for inputs already on the distinct subspace)
    clifford_method: str = "exact"
    clifford_samples: int = 10000
    num_keys: int = 0  # > 0 additionally compares the keyed ensemble average
    seed: int = 0
    tol_abs: float = 1e-8
    mc_sigma: float = 3.0

    def __post_init__(self):
        if self.t < 1 or self.t > 4:
            raise DomainError("t must be between 1 and 4")
        if self.state_family not in STATE_FAMILIES:
            raise DomainError(f"unknown state family {self.state_family!r}")
        if self.t > 2**self.n:
            raise DomainError("exact Haar path needs t <= 2^n")
        check_capacity(2 ** (self.n * self.t) * self.dim_e)
        if self.clifford_method not in ("exact", "monte_carlo", "none"):
            raise DomainError(f"unknown clifford method {self.clifford_method!r}")
        if self.clifford_method == "exact" and self.n > 2:
            raise DomainError("exact Clifford averaging needs n <= 2")

    @property
    def d(self) -> int:
        return 2**self.n


@dataclass
class BoundCheck:
    """One measured quantity against one bound, with its derivation."""

    check_id: str
    params: dict
    measured: float
    bound: float
    relation: str  # "le" | "ge" | "eq"
    tol: float
    passed: bool
    formula: str
    wall_ms: float = 0.0  # the whole check call that made this record; its sibling records share it

    @staticmethod
    def make(check_id, params, measured, bound, relation, tol, formula, wall_ms=0.0):
        measured = float(measured)
        bound = float(bound)
        if relation == "le":
            ok = measured <= bound + tol
        elif relation == "ge":
            ok = measured >= bound - tol
        elif relation == "eq":
            ok = abs(measured - bound) <= tol
        else:
            raise DomainError(f"unknown relation {relation!r}")
        return BoundCheck(check_id, dict(params), measured, bound, relation, float(tol), bool(ok), formula, wall_ms)


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    quantities: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    seed: int = 0
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self, include_timings: bool = True) -> dict:
        out = {
            "schema": SCHEMA,
            "kind": self.kind,
            "config": self.config,
            "seed": self.seed,
            "quantities": self.quantities,
            "checks": [asdict(c) for c in self.checks],
            "passed": self.passed,
        }
        if include_timings:
            out["timings"] = self.timings
        else:
            for c in out["checks"]:
                c.pop("wall_ms", None)
        return out

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.as_dict(include_timings), sort_keys=True, indent=2, default=_json_default)

    def canonical_json(self) -> str:
        """Serialization with every timing field removed, for byte-level
        determinism comparisons."""
        return self.to_json(include_timings=False)

    def to_csv(self) -> str:
        header = "check_id,n,t,dim_e,measured,bound,pass,seed,wall_ms"
        rows = [header]
        for c in self.checks:
            p = c.params
            rows.append(
                ",".join(
                    [
                        c.check_id,
                        str(p.get("n", "")),
                        str(p.get("t", "")),
                        str(p.get("dim_e", "")),
                        repr(c.measured),
                        repr(c.bound),
                        str(c.passed).lower(),
                        str(self.seed),
                        repr(c.wall_ms),
                    ]
                )
            )
        return "\n".join(rows) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def strip_timing_fields(obj):
    """Recursively drop wall-clock fields from a parsed report."""
    if isinstance(obj, dict):
        return {k: strip_timing_fields(v) for k, v in obj.items() if k not in ("timings", "wall_ms")}
    if isinstance(obj, list):
        return [strip_timing_fields(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Input states.
# ---------------------------------------------------------------------------

def build_state(family: str, n: int, t: int, dim_e: int, seed) -> StateVector:
    """A normalized input state on the t query registers plus workspace."""
    d = 2**n
    nA = d**t
    total = nA * dim_e
    check_capacity(total)
    regs = (d,) * t + (dim_e,)
    rng = np.random.default_rng(seed)
    if family == "random_pure":
        v = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    elif family == "distinct_supported":
        mask = distinct_mask(d, t)
        if not mask.any():
            raise DomainError(f"no distinct tuples for d={d}, t={t}")
        v = np.zeros((nA, dim_e), dtype=complex)
        v[mask] = rng.standard_normal((int(mask.sum()), dim_e)) + 1j * rng.standard_normal(
            (int(mask.sum()), dim_e)
        )
        v = v.reshape(-1)
    elif family == "tensor_power":
        single = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        single /= np.linalg.norm(single)
        v = single
        for _ in range(t - 1):
            v = np.kron(v, single)
        e0 = np.zeros(dim_e)
        e0[0] = 1.0
        v = np.kron(v, e0)
    elif family == "computational_basis":
        v = np.zeros(total, dtype=complex)
        v[int(rng.integers(total))] = 1.0
    elif family == "adversarial_colliding":
        # uniform superposition of all-equal tuples: zero distinct overlap
        v = np.zeros((nA, dim_e), dtype=complex)
        stride = sum(d**k for k in range(t))  # index of |x, x, ..., x>
        for x in range(d):
            v[x * stride, 0] = 1.0
        v = v.reshape(-1)
    else:
        raise DomainError(f"unknown state family {family!r}")
    v = np.asarray(v, dtype=complex)
    return StateVector(v / np.linalg.norm(v), regs)


# ---------------------------------------------------------------------------
# Gentle measurement step.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GentleResult:
    phi: DensityMatrix
    delta: float  # ||phi - xi||_1
    overlap: float  # Tr[distinct projector * xi]


def gentle_normalize(xi: DensityMatrix, d: int, t: int) -> GentleResult:
    """Project onto the distinct subspace and renormalize.

    The returned 1-norm displacement always satisfies the gentle-measurement
    bound 2*sqrt(1 - overlap).
    """
    nA = d**t
    if xi.dim % nA:
        raise DomainError(f"state dim {xi.dim} not divisible by d^t = {nA}")
    dim_e = xi.dim // nA
    mask = np.repeat(distinct_mask(d, t), dim_e)
    overlap = float(np.real(np.diagonal(xi.entries))[mask].sum())
    if overlap < 1e-12:
        raise DegenerateInputError("state has no distinct-subspace support to normalize onto")
    masked = mask.astype(float)
    projected = masked[:, None] * np.asarray(xi.entries) * masked[None, :]
    phi = DensityMatrix(projected / overlap, xi.registers)
    delta = trace_distance(phi, xi)
    return GentleResult(phi=phi, delta=delta, overlap=overlap)


# ---------------------------------------------------------------------------
# End-to-end security experiment.
# ---------------------------------------------------------------------------

def run_security_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Compute the fully-random and Haar-twirled states and check the
    whole bound chain at per-instance precision."""
    t_start = time.perf_counter()
    d, t = config.d, config.t
    params = {"n": config.n, "t": t, "dim_e": config.dim_e}
    psi = build_state(config.state_family, config.n, t, config.dim_e, config.seed)

    rho_hr = haar_twirl_exact(psi, d, t)
    if config.clifford_method == "none":
        xi = psi.to_density()
        overlap_info = None
        mc_slack = 0.0
    else:
        overlap_info = distinct_overlap_after_clifford(
            psi, config.n, t, method=config.clifford_method, samples=config.clifford_samples,
            seed=[config.seed, 1],
        )
        xi = overlap_info["state"]
        mc_slack = config.mc_sigma * overlap_info["std_error"]
    rho_fr = pf_twirl(xi, d, t)
    distance = trace_distance(rho_fr, rho_hr)

    gentle = gentle_normalize(xi, d, t)
    pf_phi = pf_twirl(gentle.phi, d, t)
    haar_phi = haar_twirl_exact(gentle.phi, d, t)
    step_phi = trace_distance(pf_phi, haar_phi)

    deficits = ratio_report(d, t)
    max_deficit = max(float(r.deficit) for r in deficits)

    quantities = {
        "trace_distance_fr_hr": distance,
        "pf_vs_haar_on_normalized": step_phi,
        "gentle_delta": gentle.delta,
        "distinct_overlap": gentle.overlap,
        "max_deficit": max_deficit,
        "deficits": [
            {"partition": list(r.partition.parts), "deficit": float(r.deficit)} for r in deficits
        ],
        "clifford_method": config.clifford_method,
        "clifford_samples": config.clifford_samples if config.clifford_method == "monte_carlo" else None,
        "overlap_std_error": overlap_info["std_error"] if overlap_info else 0.0,
    }

    checks = [
        BoundCheck.make(
            "td_triangle_chain", params, distance, step_phi + 2 * gentle.delta, "le",
            config.tol_abs,
            "||fr - hr||_1 <= ||pf(phi) - haar(phi)||_1 + 2 ||phi - xi||_1 (channels contract the 1-norm)",
        ),
        BoundCheck.make(
            "pf_vs_haar_block_bound", params, step_phi, 2 * max_deficit, "le", config.tol_abs,
            "per-block mixed states differ by 2 - 2 Tr[distinct block]/Tr[identity block]; "
            "footprint norms sum to 1, so the max deficit bounds the distance",
        ),
        BoundCheck.make(
            "gentle_measurement", params, gentle.delta, 2 * sqrt(max(1 - gentle.overlap, 0.0)),
            "le", config.tol_abs,
            "project-and-renormalize moves a state at most 2 sqrt(1 - success probability) in 1-norm",
        ),
        BoundCheck.make(
            "td_total_bound", params, distance, 2 * max_deficit + 2 * gentle.delta, "le",
            config.tol_abs,
            "composition of the triangle chain with the per-block deficit bound",
        ),
    ]
    if overlap_info is not None:
        checks.insert(
            3,
            BoundCheck.make(
                "clifford_distinct_overlap", params, gentle.overlap,
                overlap_info["bound"], "ge", config.tol_abs + mc_slack,
                "overlap >= 1 - t(t-1)/(d+1): t(t-1)/2 colliding pairs, each bounded by the "
                "operator norm 2/(d(d+1)) of the doubled-copy average times the pair-projector trace d",
            ),
        )
    if t == 1:
        checks.append(
            BoundCheck.make(
                "t1_channels_coincide", params, distance, 0.0, "eq", 1e-9,
                "at t = 1 both channels send every state to maximally-mixed x workspace footprint",
            )
        )

    if config.num_keys > 0:
        rho_keyed = pru_average_state(psi, t, config.n, config.num_keys, [config.seed, 2])
        keyed_dist = trace_distance(rho_keyed, rho_fr)
        se = rho_keyed.meta["std_error_fro"]
        envelope = config.mc_sigma * sqrt(rho_keyed.dim) * se
        quantities["keyed_vs_fully_random"] = keyed_dist
        quantities["keyed_std_error_fro"] = se
        checks.append(
            BoundCheck.make(
                "keyed_vs_fully_random", params, keyed_dist, envelope, "le", config.tol_abs,
                "statistical agreement of the keyed ensemble average with the fully random "
                "construction: 1-norm <= sqrt(dim) * Frobenius standard error, at mc_sigma sigmas",
            )
        )

    report = ExperimentReport(
        kind="security",
        config=_config_dict(config),
        quantities=quantities,
        checks=checks,
        seed=config.seed,
        timings={"total_ms": (time.perf_counter() - t_start) * 1e3},
    )
    return report


def _config_dict(config: ExperimentConfig) -> dict:
    out = asdict(config)
    out["d"] = config.d
    return out
