"""Elitist (1+1)-CMA-ES used to refine individual candidates.

A single parent is perturbed with a small step size (one tenth of the
global one); the parent is replaced only by strictly better offspring.
The step size follows a smoothed success rate toward the 2/11 target and
the covariance adapts along the path of accepted steps, with the path
update suppressed while the success rate is high (those steps carry
little directional information). Several candidates refine in lockstep,
so that each step scores all of their offspring in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cma import enforce_spd
from .errors import EigenSolveError

__all__ = [
    "LocalParams",
    "LocalState",
    "default_local_params",
    "init_local",
    "sample_offspring",
    "update_success_and_sigma",
    "accept_and_adapt",
    "run_local",
    "run_local_batch",
]


@dataclass(frozen=True)
class LocalParams:
    """Constants of the (1+1) strategy for a given dimension."""

    d: float  # step-size damping, 1 + n/2
    c_cth: float  # cumulation horizon, 2 / (2 + n)
    c_cov: float  # covariance learning rate, 2 / (n^2 + 6)
    p_target: float = 2.0 / 11.0  # target success rate
    c_p: float = 1.0 / 12.0  # success-rate averaging rate
    p_threshold: float = 0.44  # success rate above which path input is suppressed

    def __post_init__(self):
        if self.d <= 1:
            raise ValueError("damping d must exceed 1")
        for name in ("p_target", "c_p", "c_cth", "c_cov", "p_threshold"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")


def default_local_params(n: int) -> LocalParams:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return LocalParams(
        d=1.0 + n / 2.0,
        c_cth=2.0 / (2.0 + n),
        c_cov=2.0 / (n**2 + 6.0),
    )


@dataclass
class LocalState:
    """Refinement state of one candidate.

    ``cov`` is replaced, never modified in place: ``chol`` caches the
    Cholesky factor of the array ``chol_of``, and is recomputed once
    ``cov`` is no longer that array.
    """

    parent: np.ndarray
    parent_fitness: float
    sigma_loc: float
    cov: np.ndarray
    path_c: np.ndarray
    success_rate: float
    v_succ: int
    best_alpha: np.ndarray
    best_fitness: float
    chol: np.ndarray | None = field(default=None, repr=False)
    chol_of: np.ndarray | None = field(default=None, repr=False)


def init_local(alpha_parent, fitness_parent: float, global_sigma: float, n: int) -> LocalState:
    """Fresh refinement state around one parent: identity covariance,
    step size at a tenth of the global one, success rate at its target."""
    if not global_sigma > 0:
        raise ValueError("global_sigma must be positive")
    parent = np.array(alpha_parent, dtype=float)
    if parent.shape != (n,):
        raise ValueError(f"parent must be a vector of length {n}")
    return LocalState(
        parent=parent,
        parent_fitness=float(fitness_parent),
        sigma_loc=global_sigma / 10.0,
        cov=np.eye(n),
        path_c=np.zeros(n),
        success_rate=2.0 / 11.0,
        v_succ=0,
        best_alpha=parent.copy(),
        best_fitness=float(fitness_parent),
    )


def sample_offspring(
    state: LocalState, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one offspring parent + sigma_loc * L xi with L the Cholesky
    factor of the covariance; returns (offspring, perturbation L xi)."""
    if state.chol_of is not state.cov:
        for attempt in range(2):
            try:
                state.chol = np.linalg.cholesky(state.cov)
                break
            except np.linalg.LinAlgError:
                if attempt:
                    raise EigenSolveError("local covariance not factorizable after SPD repair")
                state.cov = enforce_spd(state.cov)
        state.chol_of = state.cov
    eps = state.chol @ rng.standard_normal(state.parent.size)
    return state.parent + state.sigma_loc * eps, eps


def update_success_and_sigma(state: LocalState, params: LocalParams) -> None:
    """Smooth the success indicator into the rate, then rescale the step
    size; exactly stationary when the rate sits at the target."""
    state.success_rate = (1.0 - params.c_p) * state.success_rate + params.c_p * state.v_succ
    ratio = params.p_target / (1.0 - params.p_target)
    state.sigma_loc *= math.exp(
        (1.0 / params.d) * (state.success_rate - ratio * (1.0 - state.success_rate))
    )


def accept_and_adapt(
    state: LocalState,
    offspring: np.ndarray,
    offspring_fitness: float,
    eps: np.ndarray,
    params: LocalParams,
) -> None:
    """Elitist acceptance plus covariance adaptation on success.

    On a strict improvement the parent moves to the offspring and the
    covariance absorbs the accepted step. While the success rate is below
    the threshold the step enters through the evolution path; above it the
    path only decays and the covariance update compensates the missing
    variance instead. Failures change nothing but the success indicator.
    """
    if not offspring_fitness > state.parent_fitness:
        state.v_succ = 0
        return
    state.parent = offspring.copy()
    state.parent_fitness = float(offspring_fitness)
    if offspring_fitness > state.best_fitness:
        state.best_alpha = offspring.copy()
        state.best_fitness = float(offspring_fitness)
    c_cth, c_cov = params.c_cth, params.c_cov
    if state.success_rate < params.p_threshold:
        state.path_c = (1.0 - c_cth) * state.path_c + math.sqrt(c_cth * (2.0 - c_cth)) * eps
        cov = (1.0 - c_cov) * state.cov + c_cov * np.outer(state.path_c, state.path_c)
    else:
        state.path_c = (1.0 - c_cth) * state.path_c
        cov = (1.0 - c_cov) * state.cov + c_cov * (
            np.outer(state.path_c, state.path_c) + c_cth * (2.0 - c_cth) * state.cov
        )
    state.cov = 0.5 * (cov + cov.T)
    state.v_succ = 1


def run_local(
    alpha,
    fitness: float,
    global_sigma: float,
    budget: int,
    fitness_fn,
    rng: np.random.Generator,
    params: LocalParams | None = None,
) -> tuple[np.ndarray, float, int]:
    """Refine one candidate for exactly ``budget`` fitness evaluations.

    ``fitness_fn`` maps a vector to a scalar fitness (maximization). The
    success rate and step size are updated from the previous iteration's
    outcome before each new offspring is scored. Returns the best point
    encountered, its fitness (never below the input fitness), and the
    number of evaluations spent.
    """
    [(best_alpha, best_fitness)] = run_local_batch(
        np.asarray(alpha, dtype=float).reshape(1, -1), [float(fitness)], global_sigma, budget,
        lambda X, floors: [float(fitness_fn(X[0]))], [rng], params,
    )
    return best_alpha, best_fitness, budget


def run_local_batch(
    alphas: np.ndarray,
    scores: list,
    global_sigma: float,
    budget: int,
    score_batch,
    rngs: list[np.random.Generator],
    params: LocalParams | None = None,
    fitness=float,
) -> list[tuple[np.ndarray, object]]:
    """Refine the rows of ``alphas`` in lockstep, each exactly as
    :func:`run_local` refines it alone.

    Candidate i starts from score ``scores[i]`` and draws from ``rngs[i]``.
    Each of the ``budget`` steps scores the offspring of all candidates
    with one ``score_batch(X, floors)`` call: a matrix of rows in, one
    score per row out, and ``floors[i]`` is the fitness of row i's parent.
    A row can only replace its parent by scoring above that floor, so the
    scorer may return, for a row that provably scores at most its floor,
    any score whose fitness lies between the exact one and the floor; the
    outcome is then the same as with exact scores. ``fitness`` maps a score
    to its scalar fitness. Returns, per candidate, the best point
    encountered and its score.
    """
    alphas = np.asarray(alphas, dtype=float)
    m, n = alphas.shape
    if m == 0:
        return []
    if params is None:
        params = default_local_params(n)
    states = [init_local(a, fitness(s), global_sigma, n) for a, s in zip(alphas, scores)]
    best = list(scores)
    for _ in range(budget):
        steps = [sample_offspring(state, rng) for state, rng in zip(states, rngs)]
        for state in states:
            update_success_and_sigma(state, params)
        new_scores = score_batch(
            np.array([offspring for offspring, _ in steps]),
            [state.best_fitness for state in states],
        )
        for i, (state, (offspring, eps), score) in enumerate(zip(states, steps, new_scores)):
            value = fitness(score)
            if value > state.best_fitness:
                best[i] = score
            accept_and_adapt(state, offspring, value, eps, params)
    return [(state.best_alpha.copy(), score) for state, score in zip(states, best)]
