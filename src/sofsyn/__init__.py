"""Static output feedback synthesis by memetic CMA-ES.

A global CMA-ES explores the gain space while an embedded elitist
(1+1)-CMA-ES refines every offspring; fitness is the negated,
gain-penalized closed-loop objective (H-infinity norm or spectral
abscissa), with unstable candidates deprioritized by a large penalty.
"""

from importlib import resources

from .analysis import (
    FrequencyGrid,
    HinfResult,
    StabilityReport,
    freq_response,
    hinf_norm,
    hinf_norm_grid,
    is_hurwitz,
    spectral_abscissa,
)
from .campaign import CampaignSpec, CampaignSummary, RunRow, run_campaign
from .driver import GenerationRecord, RunResult, SolverConfig, solve, solve_raw
from .model import (
    ClosedLoopRealization,
    Dims,
    PlantRealization,
    close_loop,
    flatten_gain,
    unflatten_gain,
)
from .objectives import (
    Evaluation,
    FitnessConfig,
    ObjectiveKind,
    PenaltyMode,
    evaluate,
    gain_norm,
)
from .problem_io import load_problem, save_problem

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Dims",
    "PlantRealization",
    "ClosedLoopRealization",
    "close_loop",
    "flatten_gain",
    "unflatten_gain",
    "load_problem",
    "save_problem",
    "builtin_plant_path",
    "StabilityReport",
    "HinfResult",
    "FrequencyGrid",
    "spectral_abscissa",
    "is_hurwitz",
    "freq_response",
    "hinf_norm",
    "hinf_norm_grid",
    "ObjectiveKind",
    "PenaltyMode",
    "FitnessConfig",
    "Evaluation",
    "gain_norm",
    "evaluate",
    "SolverConfig",
    "GenerationRecord",
    "RunResult",
    "solve",
    "solve_raw",
    "CampaignSpec",
    "CampaignSummary",
    "RunRow",
    "run_campaign",
]


def builtin_plant_path(name: str) -> str:
    """Filesystem path of a plant file shipped with the package.

    Available names: ``first_order_lag``, ``double_integrator``,
    ``resonant_2state``, ``rand4``.
    """
    ref = resources.files(__package__) / "plants" / f"{name}.plant"
    if not ref.is_file():
        raise FileNotFoundError(f"no builtin plant named {name!r}")
    return str(ref)
