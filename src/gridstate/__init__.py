"""Two-level robust multi-area power-system state estimation under bounded
structured data uncertainty."""

__version__ = "0.1.0"

from .bdu import (  # noqa: F401
    RobustProblem,
    RobustSolution,
    UncertaintyStructure,
    bdu_solve,
    min_g,
)
from .caseio import ExperimentConfig, parse_case, parse_config, parse_plan  # noqa: F401
from .hybrid import HybridModel, build_hybrid_model, hybrid_solve, hybrid_solve_robust  # noqa: F401
from .measurement import Measurement, MeasurementSet, ModelView, h_eval, synthesize  # noqa: F401
from .multiarea import GlobalResult, compute_errors, level1_run, level2_run, run_two_level  # noqa: F401
from .netmodel import AreaPartition, Branch, Bus, PowerNetwork, build_ybus, partition  # noqa: F401
from .powerflow import StateVector, mismatch, run_powerflow  # noqa: F401
from .wls import EstimationResult, PolarBatch, PolarModel, wls_estimate  # noqa: F401
