"""Penalized fitness for gain synthesis, in maximization convention.

For a decision vector ``alpha`` (the flattened gain) the raw objective is
either the closed-loop H-infinity norm or the closed-loop spectral
abscissa. Feasible points score

    fitness = -(objective + beta * ||alpha||_2)

so maximizing fitness minimizes the gain-penalized objective. Points whose
closed loop is unstable are handled per objective: the H-infinity norm is
undefined there, so they receive a large negative penalty; the spectral
abscissa is always finite, so it is scored directly and only flagged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .analysis import STABILITY_TOL, _real_eig, hinf_norm, spectral_abscissa
from .errors import DimensionMismatchError, SofsynError
from .model import ClosedLoopRealization, PlantRealization, close_loop, unflatten_gain

__all__ = [
    "ObjectiveKind",
    "PenaltyMode",
    "FitnessConfig",
    "Evaluation",
    "gain_norm",
    "feasibility",
    "evaluate",
    "evaluate_batch",
]


class ObjectiveKind(enum.Enum):
    HINF_NORM = "hinf"
    SPECTRAL_ABSCISSA = "sa"


class PenaltyMode(enum.Enum):
    """How infeasible H-infinity candidates are scored.

    STRICT assigns the flat penalty. GUIDED additionally subtracts the
    positive part of the spectral abscissa so that, within an entirely
    infeasible population, less unstable candidates still rank higher and
    selection keeps a useful gradient toward the feasible set.
    """

    STRICT = "strict"
    GUIDED = "guided"


@dataclass(frozen=True)
class FitnessConfig:
    """Weights and tolerances entering the fitness."""

    beta: float = 1e-10
    infeasible_penalty: float = 1e5
    penalty_mode: PenaltyMode = PenaltyMode.GUIDED
    stability_tol: float = STABILITY_TOL
    norm_rel_tol: float = 1e-6

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.infeasible_penalty <= 0:
            raise ValueError("infeasible_penalty must be positive")
        if self.stability_tol < 0:
            raise ValueError("stability_tol must be nonnegative")
        if not self.norm_rel_tol > 0:
            raise ValueError("norm_rel_tol must be positive")


@dataclass(frozen=True)
class Evaluation:
    """One scored candidate.

    ``objective`` is the raw objective value (math.inf when the H-infinity
    norm is undefined for an unstable loop); ``fitness`` is the
    maximization-convention score actually used for selection.
    """

    fitness: float
    objective: float
    gain_norm: float
    feasible: bool


def gain_norm(alpha) -> float:
    """Euclidean norm of the decision vector."""
    return float(np.linalg.norm(np.asarray(alpha, dtype=float)))


def feasibility(plant: PlantRealization, alpha, tol: float = STABILITY_TOL) -> bool:
    """True iff the closed loop under the gain encoded by ``alpha`` is Hurwitz."""
    dims = plant.dims
    F = unflatten_gain(alpha, dims.n_u, dims.n_y)
    return spectral_abscissa(close_loop(plant, F).A_F) < -tol


def evaluate(
    plant: PlantRealization,
    alpha,
    kind: ObjectiveKind,
    cfg: FitnessConfig = FitnessConfig(),
) -> Evaluation:
    """Score one decision vector; see :func:`evaluate_batch`."""
    alpha = np.asarray(alpha, dtype=float).reshape(1, -1)
    return evaluate_batch(plant, alpha, kind, cfg)[0]


def evaluate_batch(
    plant: PlantRealization,
    X,
    kind: ObjectiveKind,
    cfg: FitnessConfig = FitnessConfig(),
) -> list[Evaluation]:
    """Score every row of ``X`` (one decision vector per row) exactly as
    that row would score alone. Deterministic; never raises on an unstable
    or numerically failing candidate (those become penalized evaluations so
    the optimizer can keep running)."""
    X = np.asarray(X, dtype=float)
    dims = plant.dims
    if X.ndim != 2 or X.shape[1] != dims.n:
        raise DimensionMismatchError(
            f"decision vectors have shape {X.shape}, expected (m, {dims.n})"
        )
    F = X.reshape(len(X), dims.n_y, dims.n_u).transpose(0, 2, 1)  # unflatten_gain per row
    with np.errstate(over="ignore", invalid="ignore"):
        # row-wise BLAS ddot, as in gain_norm, so each norm has its exact bits
        norms = np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0]).tolist()
        FC = F @ plant.C
        A_F = plant.A + plant.B @ FC
    finite = np.isfinite(X).all(axis=1) & np.isfinite(A_F).all(axis=(1, 2))
    evals = []
    for A, fc, norm_a, ok in zip(A_F, FC, norms, finite):
        if not ok:
            # overflowed candidate: rank below everything, never selected
            evals.append(Evaluation(-math.inf, math.inf, norm_a, False))
            continue
        wr, _ = _real_eig(A)
        abscissa = float(wr.max())
        feasible = bool(abscissa < -cfg.stability_tol)
        if kind is ObjectiveKind.SPECTRAL_ABSCISSA:
            evals.append(Evaluation(-(abscissa + cfg.beta * norm_a), abscissa, norm_a, feasible))
            continue
        objective = None
        if feasible:
            try:
                C_F = plant.C1 + plant.D12 @ fc
                cl = ClosedLoopRealization(A_F=A, B1=plant.B1, C_F=C_F, D11=plant.D11)
                objective = hinf_norm(cl, rel_tol=cfg.norm_rel_tol).value
            except SofsynError:
                pass  # norm computation failed despite a stable loop: score as infeasible
        if objective is not None:
            evals.append(Evaluation(-(objective + cfg.beta * norm_a), objective, norm_a, True))
            continue
        fitness = -cfg.infeasible_penalty
        if cfg.penalty_mode is PenaltyMode.GUIDED:
            fitness -= max(0.0, abscissa)
        evals.append(Evaluation(fitness, math.inf, norm_a, False))
    return evals
