"""Low-rank matrix recovery from row-and-column affine measurements."""

from .baselines import (
    IterativeSolverConfig,
    als_recover,
    gaussian_operator,
    svp_recover,
)
from .measurements import (
    DesignKind,
    GroundTruth,
    MeasurementDesign,
    MeasurementSet,
    gen_design,
    gen_low_rank,
    measure,
)
from .recovery import (
    RecoveryResult,
    SubspaceBasis,
    cur_recover,
    estimate_col_space,
    estimate_rank,
    estimate_row_space,
    relative_error,
    solve_core,
    svls_recover,
)
from .simulate import (
    ExperimentConfig,
    SummaryRow,
    TrialPoint,
    TrialRecord,
    aggregate,
    run_trial,
    sweep,
    trial_seed,
)

__all__ = [
    "DesignKind",
    "ExperimentConfig",
    "GroundTruth",
    "IterativeSolverConfig",
    "MeasurementDesign",
    "MeasurementSet",
    "RecoveryResult",
    "SubspaceBasis",
    "SummaryRow",
    "TrialPoint",
    "TrialRecord",
    "aggregate",
    "als_recover",
    "cur_recover",
    "estimate_col_space",
    "estimate_rank",
    "estimate_row_space",
    "gaussian_operator",
    "gen_design",
    "gen_low_rank",
    "measure",
    "relative_error",
    "run_trial",
    "solve_core",
    "svls_recover",
    "svp_recover",
    "sweep",
    "trial_seed",
]

__version__ = "0.1.0"
