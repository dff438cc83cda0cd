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
    SupportDensity,
    SupportOperator,
    _distinct_overlap,
    check_capacity,
    distinct_mask,
    register_dim,
    trace_distance,
)
from .pru import pru_average_state
from .schur_weyl import ratio_report
from .twirls import _require_draws, distinct_overlap_after_clifford, haar_twirl_exact, pf_twirl

SCHEMA = "pru-lab/1"
TOL_ABS = 1e-8  # absolute tolerance of the trace-distance chain and the keyed comparison
MC_SIGMA = 3.0  # Monte-Carlo envelopes span this many standard errors

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
    # "exact" (the commutant projection), "monte_carlo", or "none" (skip
    # the Clifford layer, e.g. for inputs already on the distinct subspace)
    clifford_method: str = "exact"
    clifford_samples: int = 10000
    num_keys: int = 0  # >= 2 additionally compares the keyed ensemble average
    seed: int = 0

    def __post_init__(self):
        if self.t < 1:
            raise DomainError("t must be at least 1")
        if self.num_keys < 0:
            raise DomainError(f"the key count must be at least 0, got {self.num_keys}")
        if self.num_keys:
            _require_draws(self.num_keys, "keys")
        if self.state_family not in STATE_FAMILIES:
            raise DomainError(f"unknown state family {self.state_family!r}")
        if self.t > register_dim(self.n):
            raise DomainError("the distinct subspace is empty when t > 2^n")
        check_capacity(2 ** (self.n * self.t) * self.dim_e)
        if self.clifford_method not in ("exact", "monte_carlo", "none"):
            raise DomainError(f"unknown clifford method {self.clifford_method!r}")
        if self.clifford_method == "monte_carlo":
            _require_draws(self.clifford_samples, "samples")

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
    def make(check_id, params, measured, bound, relation, tol, formula):
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
        return BoundCheck(check_id, dict(params), measured, bound, relation, float(tol), bool(ok), formula)


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

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "config": self.config,
            "seed": self.seed,
            "quantities": self.quantities,
            "checks": [asdict(c) for c in self.checks],
            "passed": self.passed,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return _dumps(self.as_dict())

    def canonical_json(self) -> str:
        """Serialization with every timing field removed, for byte-level
        determinism comparisons."""
        return _dumps(strip_timing_fields(self.as_dict()))

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


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
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
    """A normalized input state on t n-qubit query registers plus workspace."""
    return draw_state(family, register_dim(n), t, dim_e, np.random.default_rng(seed))


def draw_state(family: str, d: int, t: int, dim_e: int, rng: np.random.Generator) -> StateVector:
    """A normalized input state on (C^d)^{x t} x C^{dim_e}, drawn from ``rng``."""
    if t < 1 or dim_e < 1:
        raise DomainError(f"t and dim_e must be at least 1, got t = {t}, dim_e = {dim_e}")
    nA = d**t
    total = nA * dim_e
    check_capacity(total)
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
    return StateVector(v / np.linalg.norm(v))


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
    overlap, mask = _distinct_overlap(xi, d, t)
    if overlap < 1e-12:
        raise DegenerateInputError("state has no distinct-subspace support to normalize onto")
    if isinstance(xi, SupportOperator):  # keep the entries whose row and column are both distinct
        rows, cols = np.divmod(xi.positions, xi.dim)
        keep = mask[rows] & mask[cols]
        phi = SupportDensity(xi.positions[keep], xi.values[keep] / overlap, xi.dim)
    else:
        masked = mask.astype(float)
        projected = masked[:, None] * xi.entries  # one private buffer; a 0/1 mask scales exactly
        projected *= masked
        projected /= overlap
        phi = DensityMatrix._adopt(projected)
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

    if config.clifford_method == "none":
        xi = psi.to_density()
        overlap_info = None
        mc_slack = 0.0
    else:
        overlap_info = distinct_overlap_after_clifford(
            psi, config.n, t, method=config.clifford_method, samples=config.clifford_samples,
            seed=[config.seed, 1],
        )
        xi = overlap_info.pop("state")
        mc_slack = MC_SIGMA * overlap_info["std_error"]
    rho_hr = haar_twirl_exact(psi, d, t)
    rho_fr = pf_twirl(xi, d, t)
    distance = trace_distance(rho_fr, rho_hr)
    del rho_hr
    if config.num_keys > 0:  # taken here so rho_fr is freed before the gentle step
        rho_keyed = pru_average_state(psi, t, config.n, config.num_keys, [config.seed, 2])
        keyed_dist, keyed_se = trace_distance(rho_keyed, rho_fr), rho_keyed.meta["std_error_fro"]
        del rho_keyed
    del rho_fr

    gentle = gentle_normalize(xi, d, t)
    del xi
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
            TOL_ABS,
            "||fr - hr||_1 <= ||pf(phi) - haar(phi)||_1 + 2 ||phi - xi||_1 (channels contract the 1-norm)",
        ),
        BoundCheck.make(
            "pf_vs_haar_block_bound", params, step_phi, 2 * max_deficit, "le", TOL_ABS,
            "per-block mixed states differ by 2 - 2 Tr[distinct block]/Tr[identity block]; "
            "footprint norms sum to 1, so the max deficit bounds the distance",
        ),
        BoundCheck.make(
            "gentle_measurement", params, gentle.delta, 2 * sqrt(max(1 - gentle.overlap, 0.0)),
            "le", TOL_ABS,
            "project-and-renormalize moves a state at most 2 sqrt(1 - success probability) in 1-norm",
        ),
        BoundCheck.make(
            "td_total_bound", params, distance, 2 * max_deficit + 2 * gentle.delta, "le",
            TOL_ABS,
            "composition of the triangle chain with the per-block deficit bound",
        ),
    ]
    if overlap_info is not None:
        checks.insert(
            3,
            BoundCheck.make(
                "clifford_distinct_overlap", params, gentle.overlap,
                overlap_info["bound"], "ge", 1e-9 + mc_slack,
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
        envelope = MC_SIGMA * sqrt(psi.dim) * keyed_se
        quantities["keyed_vs_fully_random"] = keyed_dist
        quantities["keyed_std_error_fro"] = keyed_se
        checks.append(
            BoundCheck.make(
                "keyed_vs_fully_random", params, keyed_dist, envelope, "le", TOL_ABS,
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
    return {**asdict(config), "d": config.d, "tol_abs": TOL_ABS, "mc_sigma": MC_SIGMA}
