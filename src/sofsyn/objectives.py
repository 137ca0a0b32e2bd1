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

from .analysis import STABILITY_TOL, HinfResult, _spectra, hinf_norms
from .analysis import hinf_norm  # noqa: F401  (a binding perfbench/tracing.py patches)
from .errors import ConfigError, DimensionMismatchError
from .model import PlantRealization, as_real_array, is_real, unflatten_gain

__all__ = [
    "ObjectiveKind",
    "PenaltyMode",
    "FitnessConfig",
    "Evaluation",
    "gain_norm",
    "evaluate",
    "evaluate_batch",
]

#: Fitness of an unstable H-infinity candidate is at most -INFEASIBLE_PENALTY.
INFEASIBLE_PENALTY = 1e5


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
    """The settable parts of the fitness: the weight of the gain norm and
    the scoring of infeasible candidates."""

    beta: float = 1e-10
    penalty_mode: PenaltyMode = PenaltyMode.GUIDED

    def __post_init__(self):
        if not (is_real(self.beta) and 0 <= self.beta < math.inf):
            raise ConfigError(f"beta must be a finite nonnegative number, got {self.beta!r}")
        if not isinstance(self.penalty_mode, PenaltyMode):
            raise ConfigError(f"penalty_mode must be a PenaltyMode, got {self.penalty_mode!r}")


@dataclass(frozen=True)
class Evaluation:
    """One scored candidate.

    ``objective`` is the raw objective value (math.inf when the H-infinity
    norm is undefined for an unstable loop); ``fitness`` is the
    maximization-convention score actually used for selection. A row that
    :func:`evaluate_batch` stopped at its floor has an attained gain below
    the norm as ``objective``, so its ``fitness`` is an upper bound on the
    exact one, and that bound is at most the floor.
    """

    fitness: float
    objective: float
    gain_norm: float
    feasible: bool


def gain_norm(alpha) -> float:
    """Euclidean norm of the decision vector."""
    return float(np.linalg.norm(np.asarray(alpha, dtype=float)))


def evaluate(
    plant: PlantRealization,
    alpha,
    kind: ObjectiveKind,
    cfg: FitnessConfig = FitnessConfig(),
) -> Evaluation:
    """Score one decision vector; see :func:`evaluate_batch`."""
    alpha = as_real_array("alpha", alpha).reshape(1, -1)
    return evaluate_batch(plant, alpha, kind, cfg)[0]


def evaluate_batch(
    plant: PlantRealization,
    X,
    kind: ObjectiveKind,
    cfg: FitnessConfig = FitnessConfig(),
    floors=None,
) -> list[Evaluation]:
    """Score every row of ``X`` (one decision vector per row) exactly as
    that row would score alone. Deterministic; never raises on an unstable
    or numerically failing candidate (those become penalized evaluations so
    the optimizer can keep running), but refuses an ``X`` other than a
    rectangular array of integers or reals with :class:`ConfigError`. The
    H-infinity norms of the stable rows run in lockstep, as one
    :func:`~sofsyn.analysis.hinf_norms` call.

    ``floors``, one fitness per row, lets the H-infinity norm of a row stop
    as soon as the row provably scores at most its floor (an elitist step
    needs no more to reject an offspring). Such a row's fitness is then an
    upper bound on its exact fitness and is itself at most the floor; rows
    whose exact fitness exceeds their floor score exactly as without one.
    Floors below ``-INFEASIBLE_PENALTY`` are ignored, because a stable
    row whose norm computation fails scores exactly that penalty."""
    if not isinstance(kind, ObjectiveKind):
        raise ConfigError(f"kind must be an ObjectiveKind, got {kind!r}")
    X = as_real_array("X", X)
    dims = plant.dims
    if X.ndim != 2 or X.shape[1] != dims.n:
        raise DimensionMismatchError(
            f"decision vectors have shape {X.shape}, expected (m, {dims.n})"
        )
    F = unflatten_gain(X, dims.n_u, dims.n_y)
    with np.errstate(over="ignore", invalid="ignore"):
        # row-wise BLAS ddot, as in gain_norm, so each norm has its exact bits
        norms = np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0]).tolist()
        FC = F @ plant.C
        A_F = plant.A + plant.B @ FC
    finite = np.isfinite(X).all(axis=1) & np.isfinite(A_F).all(axis=(1, 2))

    def penalized(abscissa, norm_a):
        fitness = -INFEASIBLE_PENALTY
        if cfg.penalty_mode is PenaltyMode.GUIDED:
            fitness -= max(0.0, abscissa)
        return Evaluation(fitness, math.inf, norm_a, False)

    evals = [None] * len(X)
    for i in np.flatnonzero(~finite).tolist():
        # overflowed candidate: rank below everything, never selected
        evals[i] = Evaluation(-math.inf, math.inf, norms[i], False)
    rows = np.flatnonzero(finite)
    wr, wi = _spectra(A_F[rows])
    stable = []
    for j, (i, abscissa) in enumerate(zip(rows.tolist(), wr.max(axis=1).tolist())):
        feasible = abscissa < -STABILITY_TOL
        if abscissa != abscissa:
            # the stability eigensolve failed: no verdict, so infeasible
            evals[i] = penalized(0.0, norms[i])
        elif kind is ObjectiveKind.SPECTRAL_ABSCISSA:
            evals[i] = Evaluation(-(abscissa + cfg.beta * norms[i]), abscissa, norms[i], feasible)
        elif feasible:
            stable.append(j)
        else:
            evals[i] = penalized(abscissa, norms[i])
    if not stable:
        return evals

    idx = rows[stable]
    with np.errstate(over="ignore", invalid="ignore"):
        C_F = plant.C1 + plant.D12 @ FC[idx]
    stop = None
    if floors is not None:
        floor = np.asarray(floors, dtype=float)[idx]
        usable = floor >= -INFEASIBLE_PENALTY
        if usable.any():
            norm = np.array(norms)[idx]
            # the fitness expression itself, so rounding cannot flip a decision
            stop = lambda lo: usable & (-(lo + cfg.beta * norm) <= floor)  # noqa: E731
    poles = (wr[stable], wi[stable])
    results = hinf_norms(A_F[idx], C_F, plant.B1, plant.D11, poles, stop)
    for i, res in zip(idx.tolist(), results):
        if isinstance(res, HinfResult):
            evals[i] = Evaluation(-(res.value + cfg.beta * norms[i]), res.value, norms[i], True)
        else:
            # C_F overflowed or the norm failed despite a stable loop: score
            # as infeasible (the abscissa is negative, so no guided term)
            evals[i] = penalized(0.0, norms[i])
    return evals
