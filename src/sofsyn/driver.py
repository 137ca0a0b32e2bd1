"""Generation loop of the memetic optimizer.

Each generation samples a population, scores it, optionally refines every
offspring with the elitist (1+1) strategy (the refined points replace the
originals before sorting), tracks the best point ever evaluated, and then
advances the sampling distribution. The population is scored as one batch,
and the refined offspring take their local steps in lockstep, one batch
per step. Every refined candidate owns an RNG substream derived from
(seed, generation, index), so the outcome is a pure function of the
configuration.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from . import analysis, cma, objectives
from .cma import (
    CmaParams,
    default_params,
    init_state,
    maybe_reset,
    refresh_basis,
    sample_population,
    update_covariance,
    update_mean,
    update_paths,
    update_step_size,
)
from .errors import ConfigError
from .local import default_local_params, run_local_batch
from .model import PlantRealization, check_count, is_real
from .objectives import Evaluation, FitnessConfig, ObjectiveKind, PenaltyMode, evaluate_batch

# Not called here, but bound: perfbench/tracing.py patches these names in this module.
from .local import run_local  # noqa: F401
from .objectives import evaluate  # noqa: F401

__all__ = ["SolverConfig", "GenerationRecord", "RunResult", "solve", "solve_raw"]

# spawn-key stream ids; keep stable so seeds reproduce across versions
_GLOBAL_STREAM = 0
_LOCAL_STREAM = 1


@dataclass(frozen=True)
class SolverConfig:
    """Everything that determines a run besides the problem itself.

    ``t_max`` counts global sample evaluations; each refined offspring
    additionally spends ``t_s`` local evaluations, which are charged
    against ``t_max`` only when ``charge_local_to_budget`` is set. The
    fitness fields are validated as :class:`FitnessConfig` validates them.
    ``sigma0`` lies in [cma.SIGMA_MIN, cma.SIGMA_MAX], the step sizes a run
    keeps without a reset. Building a config checks the type and range of
    every field (README, "Library use"), so code that takes one trusts it.
    ``threads`` caps the worker processes of a campaign
    (:func:`sofsyn.campaign.run_campaign`) and changes no result; a single
    solve runs on the calling thread and ignores it.
    The penalty, the stability margin and the accuracy of the norm are
    fixed: the class attributes below read them and are not fields.
    """

    infeasible_penalty: ClassVar[float] = objectives.INFEASIBLE_PENALTY
    stability_tol: ClassVar[float] = analysis.STABILITY_TOL
    norm_rel_tol: ClassVar[float] = analysis.NORM_REL_TOL

    objective: ObjectiveKind = ObjectiveKind.HINF_NORM
    t_max: int = 10000
    t_s: int = 10
    beta: float = 1e-10
    penalty_mode: PenaltyMode = PenaltyMode.GUIDED
    seed: int = 0
    initial_mean: Optional[Sequence[float]] = None
    sigma0: float = 0.3
    local_search_enabled: bool = True
    charge_local_to_budget: bool = False
    threads: int = 1

    def __post_init__(self):
        for name, least in (("t_max", 1), ("t_s", 1), ("seed", 0), ("threads", 1)):
            check_count(name, getattr(self, name), least, ConfigError)
        if not isinstance(self.objective, ObjectiveKind):
            raise ConfigError(f"objective must be an ObjectiveKind, got {self.objective!r}")
        if not (is_real(self.sigma0) and cma.SIGMA_MIN <= self.sigma0 <= cma.SIGMA_MAX):
            raise ConfigError(f"sigma0 must be a number in [{cma.SIGMA_MIN:g}, {cma.SIGMA_MAX:g}]")
        for name in ("local_search_enabled", "charge_local_to_budget"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ConfigError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.initial_mean is not None:
            mean = np.asarray(self.initial_mean)
            if mean.ndim != 1 or mean.dtype.kind not in "iuf" or not np.isfinite(mean).all():
                raise ConfigError(f"initial_mean must be a finite real 1-d vector, got {mean!r}")
        self.fitness_config()

    def fitness_config(self) -> FitnessConfig:
        return FitnessConfig(beta=self.beta, penalty_mode=self.penalty_mode)


@dataclass(frozen=True)
class GenerationRecord:
    """One history row: state of the run after a generation completed."""

    generation: int
    best_fitness: float
    sigma: float
    feasible_fraction: float
    global_evals: int
    local_evals: int


@dataclass(frozen=True)
class RunResult:
    best_alpha: np.ndarray
    best_fitness: float
    best_objective: float
    feasible: bool
    global_evals: int
    local_evals: int
    wall_time: float
    history: tuple[GenerationRecord, ...]


def _candidate_rng(seed: int, generation: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(_LOCAL_STREAM, generation, index))
    return np.random.Generator(np.random.PCG64(ss))


def _run(
    score: Callable[..., list[Evaluation]],
    n: int,
    config: SolverConfig,
    progress: Optional[Callable[[GenerationRecord], None]] = None,
) -> RunResult:
    params: CmaParams = default_params(n)
    if config.t_max < params.p:
        raise ConfigError(
            f"t_max={config.t_max} is below the population size p={params.p} for n={n}"
        )
    local_params = default_local_params(n)

    if config.initial_mean is None:
        mean0 = np.zeros(n)
    else:
        mean0 = np.asarray(config.initial_mean, dtype=float)
        if mean0.shape != (n,):
            raise ConfigError(f"initial_mean must have length {n}, got shape {mean0.shape}")

    state = init_state(mean0, config.sigma0)
    rng_global = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(_GLOBAL_STREAM,)))
    )

    charge_local = config.charge_local_to_budget and config.local_search_enabled
    cost_per_offspring = 1 + (config.t_s if charge_local else 0)

    best_alpha: Optional[np.ndarray] = None
    best_ev: Optional[Evaluation] = None
    global_evals = 0
    local_evals = 0
    history: list[GenerationRecord] = []

    t_start = time.perf_counter()
    while True:
        used = global_evals + (local_evals if charge_local else 0)
        if used >= config.t_max:
            break
        remaining = config.t_max - used
        k = min(params.p, max(1, math.ceil(remaining / cost_per_offspring)))

        sigma_gen = state.sigma
        candidates = sample_population(state, params, rng_global, count=k)
        evals = score(candidates)
        global_evals += k

        if config.local_search_enabled:
            refined = run_local_batch(
                candidates,
                evals,
                sigma_gen,
                config.t_s,
                score,
                [_candidate_rng(config.seed, state.generation, i) for i in range(k)],
                local_params,
                fitness=operator.attrgetter("fitness"),
            )
            candidates = np.array([alpha for alpha, _ in refined])
            evals = [ev for _, ev in refined]
            local_evals += config.t_s * k

        order = sorted(range(k), key=lambda i: (-evals[i].fitness, i))
        top = order[0]
        if best_ev is None or evals[top].fitness > best_ev.fitness:
            best_ev = evals[top]
            best_alpha = np.array(candidates[top], dtype=float)

        record = GenerationRecord(
            generation=state.generation,
            best_fitness=best_ev.fitness,
            sigma=sigma_gen,
            feasible_fraction=sum(ev.feasible for ev in evals) / k,
            global_evals=global_evals,
            local_evals=local_evals,
        )
        history.append(record)
        if progress is not None:
            progress(record)

        if k == params.p:
            # full generation: advance the distribution; maybe_reset re-seeds a degenerate one
            sorted_top = candidates[order[: params.mu]]
            new_mean = update_mean(sorted_top, params)
            state.path_sigma, state.path_cov, h_sigma = update_paths(state, new_mean, params)
            state.cov = update_covariance(
                state, sorted_top, state.mean, state.path_cov, h_sigma, params
            )
            state.sigma = update_step_size(state, state.path_sigma, params)
            state.mean = new_mean
            state.generation += 1
            maybe_reset(state, best_alpha)
            refresh_basis(state)

    assert best_alpha is not None and best_ev is not None
    return RunResult(
        best_alpha=best_alpha,
        best_fitness=best_ev.fitness,
        best_objective=best_ev.objective,
        feasible=best_ev.feasible,
        global_evals=global_evals,
        local_evals=local_evals,
        wall_time=time.perf_counter() - t_start,
        history=tuple(history),
    )


def solve(
    plant: PlantRealization,
    config: SolverConfig = SolverConfig(),
    progress: Optional[Callable[[GenerationRecord], None]] = None,
) -> RunResult:
    """Synthesize a static output feedback gain for ``plant``.

    The decision vector is the column-major flattening of the gain matrix;
    use :func:`sofsyn.model.unflatten_gain` to recover the matrix from
    ``RunResult.best_alpha``.
    """
    fitness_cfg = config.fitness_config()
    kind = config.objective

    def score(X: np.ndarray, floors=None) -> list[Evaluation]:
        return evaluate_batch(plant, X, kind, fitness_cfg, floors)

    return _run(score, plant.dims.n, config, progress)


def solve_raw(
    fitness_fn: Callable[[np.ndarray], float],
    n: int,
    config: SolverConfig = SolverConfig(),
    progress: Optional[Callable[[GenerationRecord], None]] = None,
) -> RunResult:
    """Run the optimizer on an arbitrary scalar fitness (maximization).

    Every point is treated as feasible and the reported objective is the
    negated fitness. A NaN fitness scores -inf: it compares false, so it
    would otherwise stay the best point of a run. Intended for testing and
    for using the optimizer outside the control-synthesis setting. A bad
    ``n`` (not an integer >= 1) raises ``ConfigError``.
    """
    check_count("n", n, 1, ConfigError)

    def score(X: np.ndarray, floors=None) -> list[Evaluation]:
        values = [float(fitness_fn(alpha)) for alpha in X]
        values = [v if v == v else -math.inf for v in values]
        norms = [float(np.linalg.norm(alpha)) for alpha in X]
        return [Evaluation(v, -v, norm, True) for v, norm in zip(values, norms)]

    return _run(score, n, config, progress)
