"""Elitist (1+1)-CMA-ES used to refine individual candidates.

A single parent is perturbed with a small step size (one tenth of the
global one); the parent is replaced only by strictly better offspring.
The step size follows a smoothed success rate toward the 2/11 target and
the covariance adapts along the path of accepted steps, with the path
update suppressed while the success rate is high (those steps carry
little directional information). The covariance is held as a factor and
its inverse, both updated rank-one per accepted step (Igel et al. 2006;
Suttorp et al. 2009), so it stays positive definite. Several candidates
refine in lockstep, one array per state field with a row per candidate,
so that each step scores all of their offspring in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cma import enforce_spd  # noqa: F401  (not called; perfbench/tracing.py patches it here)

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
    """Constants of the (1+1) strategy for a given dimension, as
    :func:`default_local_params` computes them (nothing here re-checks them)."""

    d: float  # step-size damping, 1 + n/2
    c_cth: float  # cumulation horizon, 2 / (2 + n)
    c_cov: float  # covariance learning rate, 2 / (n^2 + 6)
    p_target: float = 2.0 / 11.0  # target success rate
    c_p: float = 1.0 / 12.0  # success-rate averaging rate
    p_threshold: float = 0.44  # success rate above which path input is suppressed


def default_local_params(n: int) -> LocalParams:
    """The constants for dimension n >= 1."""
    return LocalParams(
        d=1.0 + n / 2.0,
        c_cth=2.0 / (2.0 + n),
        c_cov=2.0 / (n**2 + 6.0),
    )


@dataclass
class LocalState:
    """Refinement state of m candidates, row i being candidate i, whose
    covariance is ``A[i] @ A[i].T`` and ``A_inv[i]`` the inverse of ``A[i]``."""

    parent: np.ndarray  # (m, n)
    parent_fitness: np.ndarray  # (m,)
    sigma_loc: np.ndarray  # (m,)
    A: np.ndarray  # (m, n, n)
    A_inv: np.ndarray  # (m, n, n)
    path_c: np.ndarray  # (m, n)
    success_rate: np.ndarray  # (m,)
    v_succ: np.ndarray  # (m,) 0 or 1


def init_local(parents, fitnesses, global_sigma: float) -> LocalState:
    """Fresh refinement state around the rows of ``parents`` (m, n):
    identity covariance, step size at a tenth of the global one (which is
    positive), success rate at its target."""
    parent = np.array(parents, dtype=float)
    m, n = parent.shape
    return LocalState(
        parent=parent,
        parent_fitness=np.array(fitnesses, dtype=float).reshape(m),
        sigma_loc=np.full(m, global_sigma / 10.0),
        A=np.tile(np.eye(n), (m, 1, 1)),
        A_inv=np.tile(np.eye(n), (m, 1, 1)),
        path_c=np.zeros((m, n)),
        success_rate=np.full(m, 2.0 / 11.0),
        v_succ=np.zeros(m, dtype=int),
    )


def sample_offspring(state: LocalState, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw one offspring per row, parent + sigma_loc * A xi with ``xi``
    (m, n) standard normal; returns (offspring, perturbations A xi)."""
    eps = (state.A @ xi[:, :, None])[:, :, 0]
    return state.parent + state.sigma_loc[:, None] * eps, eps


def update_success_and_sigma(state: LocalState, params: LocalParams) -> None:
    """Smooth the success indicator into the rate, then rescale the step
    size; exactly stationary when the rate sits at the target."""
    state.success_rate = (1.0 - params.c_p) * state.success_rate + params.c_p * state.v_succ
    ratio = params.p_target / (1.0 - params.p_target)
    exponent = (1.0 / params.d) * (state.success_rate - ratio * (1.0 - state.success_rate))
    # math.exp per row: np.exp is not guaranteed to round to the same last bit
    state.sigma_loc = state.sigma_loc * [math.exp(x) for x in exponent.tolist()]


def accept_and_adapt(
    state: LocalState,
    offspring: np.ndarray,
    offspring_fitness: np.ndarray,
    eps: np.ndarray,
    params: LocalParams,
) -> None:
    """Elitist acceptance plus covariance adaptation on success.

    On a strict improvement the parent moves to the offspring and the
    covariance absorbs the accepted step, cov <- a cov + c_cov path path^T,
    as a rank-one update of A and of A_inv. While the success rate is below
    the threshold the step enters through the evolution path and
    a = 1 - c_cov; above it the path only decays and a grows by
    c_cov c_cth (2 - c_cth) to compensate the missing variance. Failures
    change nothing but the success indicator. Since the parent only moves
    on a strict improvement, it is always the best point its row has seen.
    """
    offspring_fitness = np.asarray(offspring_fitness, dtype=float)
    improved = offspring_fitness > state.parent_fitness
    state.v_succ = improved.astype(int)
    rows = improved.nonzero()[0]
    if not rows.size:
        return
    state.parent[rows] = offspring[rows]
    state.parent_fitness[rows] = offspring_fitness[rows]
    c_cth, c_cov = params.c_cth, params.c_cov
    low = state.success_rate[rows] < params.p_threshold
    path = (1.0 - c_cth) * state.path_c[rows]
    path[low] += math.sqrt(c_cth * (2.0 - c_cth)) * eps[rows[low]]
    a = np.where(low, 1.0 - c_cov, 1.0 - c_cov + c_cov * c_cth * (2.0 - c_cth))[:, None, None]
    A, A_inv, p = state.A[rows], state.A_inv[rows], path[:, :, None]
    w = A_inv @ p
    w_t = w.transpose(0, 2, 1)
    s = np.sqrt(1.0 + c_cov / a * (w_t @ w))
    k = c_cov / a / (1.0 + s)
    # outer products in parentheses: each row then rounds as it does alone
    state.A[rows] = np.sqrt(a) * (A + k * (p * w_t))
    state.A_inv[rows] = (A_inv - k / s * (w * (w_t @ A_inv))) / np.sqrt(a)
    state.path_c[rows] = path


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
    state = init_local(alphas, [fitness(s) for s in scores], global_sigma)
    best = list(scores)
    xi = np.array([rng.standard_normal((budget, n)) for rng in rngs])
    for t in range(budget):
        offspring, eps = sample_offspring(state, xi[:, t])
        update_success_and_sigma(state, params)
        new_scores = score_batch(offspring, state.parent_fitness.tolist())
        accept_and_adapt(state, offspring, [fitness(s) for s in new_scores], eps, params)
        for i in state.v_succ.nonzero()[0].tolist():
            best[i] = new_scores[i]
    return list(zip(state.parent, best))
