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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .cma import (
    CmaParams,
    ResetLimits,
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
from .errors import ConfigError, EigenSolveError
from .local import default_local_params, run_local_batch
from .model import PlantRealization, validate_plant
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
    against ``t_max`` only when ``charge_local_to_budget`` is set.
    ``threads`` is validated but does not change a solve, which always runs
    on the calling thread; campaigns size their run pool with
    ``CampaignSpec.threads``.
    """

    objective: ObjectiveKind = ObjectiveKind.HINF_NORM
    t_max: int = 10000
    t_s: int = 10
    beta: float = 1e-10
    infeasible_penalty: float = 1e5
    penalty_mode: PenaltyMode = PenaltyMode.GUIDED
    stability_tol: float = 1e-9
    norm_rel_tol: float = 1e-6
    seed: int = 0
    initial_mean: Optional[Sequence[float]] = None
    sigma0: float = 0.3
    local_search_enabled: bool = True
    refine_top_k: Optional[int] = None
    charge_local_to_budget: bool = False
    threads: int = 1
    reset_limits: ResetLimits = field(default_factory=ResetLimits)

    def __post_init__(self):
        if self.t_max < 1:
            raise ConfigError("t_max must be positive")
        if self.t_s < 1:
            raise ConfigError("t_s must be positive")
        if self.sigma0 <= 0:
            raise ConfigError("sigma0 must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.refine_top_k is not None and self.refine_top_k < 0:
            raise ConfigError("refine_top_k must be nonnegative")
        if self.beta < 0:
            raise ConfigError("beta must be nonnegative")
        if self.stability_tol < 0:
            raise ConfigError("stability_tol must be nonnegative")
        if not self.norm_rel_tol > 0:
            raise ConfigError("norm_rel_tol must be positive")

    def fitness_config(self) -> FitnessConfig:
        return FitnessConfig(
            beta=self.beta,
            infeasible_penalty=self.infeasible_penalty,
            penalty_mode=self.penalty_mode,
            stability_tol=self.stability_tol,
            norm_rel_tol=self.norm_rel_tol,
        )


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
    history: tuple[GenerationRecord, ...]
    wall_time: float


def _candidate_rng(seed: int, generation: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(_LOCAL_STREAM, generation, index))
    return np.random.Generator(np.random.PCG64(ss))


def _run(
    score: Callable[[np.ndarray], list[Evaluation]],
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
    generation = 0

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
            if config.refine_top_k is None:
                refine_idx = list(range(k))
            else:
                order0 = sorted(range(k), key=lambda i: (-evals[i].fitness, i))
                refine_idx = sorted(order0[: config.refine_top_k])
            refined = run_local_batch(
                candidates[refine_idx],
                [evals[i] for i in refine_idx],
                sigma_gen,
                config.t_s,
                score,
                [_candidate_rng(config.seed, generation, i) for i in refine_idx],
                local_params,
                fitness=operator.attrgetter("fitness"),
            )
            for i, (alpha_opt, ev_opt) in zip(refine_idx, refined):
                candidates[i] = alpha_opt
                evals[i] = ev_opt
            local_evals += config.t_s * len(refine_idx)

        order = sorted(range(k), key=lambda i: (-evals[i].fitness, i))
        top = order[0]
        if best_ev is None or evals[top].fitness > best_ev.fitness:
            best_ev = evals[top]
            best_alpha = np.array(candidates[top], dtype=float)

        record = GenerationRecord(
            generation=generation,
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
            # full generation: advance the sampling distribution
            try:
                sorted_top = np.asarray([candidates[i] for i in order[: params.mu]])
                new_mean = update_mean(sorted_top, params)
                path_sigma, path_cov, h_sigma = update_paths(state, new_mean, params)
                new_cov = update_covariance(
                    state, sorted_top, state.mean, path_cov, h_sigma, params
                )
                new_sigma = update_step_size(state, path_sigma, params)
                state.mean = new_mean
                state.path_sigma = path_sigma
                state.path_cov = path_cov
                state.cov = new_cov
                state.sigma = new_sigma
            except EigenSolveError:
                # degenerate update (e.g. overflowed covariance): force a reset
                state.sigma = math.inf
            state.generation += 1
            maybe_reset(state, config.reset_limits, best_alpha)
            refresh_basis(state)
        generation += 1

    assert best_alpha is not None and best_ev is not None
    return RunResult(
        best_alpha=best_alpha,
        best_fitness=best_ev.fitness,
        best_objective=best_ev.objective,
        feasible=best_ev.feasible,
        global_evals=global_evals,
        local_evals=local_evals,
        history=tuple(history),
        wall_time=time.perf_counter() - t_start,
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
    validate_plant(plant)
    fitness_cfg = config.fitness_config()
    kind = config.objective

    def score(X: np.ndarray) -> list[Evaluation]:
        return evaluate_batch(plant, X, kind, fitness_cfg)

    return _run(score, plant.dims.n, config, progress)


def solve_raw(
    fitness_fn: Callable[[np.ndarray], float],
    n: int,
    config: SolverConfig = SolverConfig(),
    progress: Optional[Callable[[GenerationRecord], None]] = None,
) -> RunResult:
    """Run the optimizer on an arbitrary scalar fitness (maximization).

    Every point is treated as feasible and the reported objective is the
    negated fitness. Intended for testing and for using the optimizer
    outside the control-synthesis setting.
    """

    def score(X: np.ndarray) -> list[Evaluation]:
        values = [float(fitness_fn(alpha)) for alpha in X]
        norms = [float(np.linalg.norm(alpha)) for alpha in X]
        return [Evaluation(v, -v, norm, True) for v, norm in zip(values, norms)]

    return _run(score, n, config, progress)
