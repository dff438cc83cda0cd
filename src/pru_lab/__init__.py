"""Desk-scale verification lab for a permutation/phase/Clifford unitary ensemble.

Exact Schur-Weyl machinery, twirl channels with exact and Monte-Carlo
paths, a toy keyed instantiation of the ensemble, and an experiment
harness that checks every identity and bound of the underlying analysis
at machine precision.
"""

from .errors import (
    CapacityError,
    ConsistencyError,
    DegenerateInputError,
    DomainError,
    PruLabError,
)
from .symgroup import (
    Partition,
    PermutationT,
    all_permutations,
    character,
    partitions,
    specht_dim,
    standard_tableaux,
    weyl_dim,
    young_orthogonal_rep,
)
from .operators import (
    DensityMatrix,
    StateVector,
    SupportDensity,
    SupportOperator,
    distinct_projector,
    perm_op,
    subsystem_perm_op,
    tensor_power,
    trace_distance,
)
from .clifford import CliffordElement, enumerate_cliffords, sample_clifford
from .schur_weyl import (
    IsotypicBlock,
    IsotypicDecomposition,
    isotypic_projector,
    ratio_report,
    schur_weyl_basis,
    verify_decomposition,
)
from .twirls import (
    clifford_twirl,
    distinct_overlap_after_clifford,
    ensemble_twirl,
    haar_twirl_exact,
    haar_twirl_mc,
    haar_twirl_schur_weyl,
    pf_twirl,
    pf_twirl_basis_element,
    pf_twirl_distinct_formula,
    pf_twirl_mc,
)
from .pru import (
    PrfScheme,
    PrpScheme,
    PruKey,
    pru_average_state,
    pru_average_state_from_keys,
    pru_unitary,
    sample_key,
    sample_keys,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    BoundCheck,
    build_state,
    gentle_normalize,
    run_security_experiment,
    strip_timing_fields,
)
from .checks import run_lemma_suite

__version__ = "0.1.0"


def __getattr__(name):  # cli_main on first use, so ``python -m pru_lab.cli`` runs cli once
    if name == "cli_main":
        from .cli import cli_main
        return cli_main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
