"""Global (mu/mu_w, lambda)-CMA-ES engine: sampling and state updates.

The engine is split into pure update functions over an explicit
:class:`CmaState` so each rule can be tested in isolation; the generation
loop that wires them together lives in :mod:`sofsyn.driver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenSolveError

__all__ = [
    "CmaParams",
    "CmaState",
    "default_params",
    "init_state",
    "refresh_basis",
    "sample_population",
    "update_mean",
    "update_paths",
    "update_covariance",
    "update_step_size",
    "enforce_spd",
    "maybe_reset",
]

#: Relative eigenvalue floor of :func:`enforce_spd`, the one SPD fix.
EIG_FLOOR_REL = 1e-12

#: Step-size bounds beyond which :func:`maybe_reset` re-seeds the state, and
#: the step size it restarts from (inside the bounds).
SIGMA_MIN, SIGMA_MAX, SIGMA_RESET = 1e-12, 1e7, 0.3


@dataclass(frozen=True)
class CmaParams:
    """Strategy constants, fixed for a given search-space dimension, as
    :func:`default_params` computes them (nothing here re-checks them).

    Attributes
    ----------
    n : int
        Search-space dimension.
    p : int
        Population size (offspring per generation).
    mu : int
        Number of parents selected for recombination, floor(p / 2).
    weights : numpy.ndarray
        Positive, decreasing recombination weights, normalized to sum 1.
    mu_eff : float
        Variance-effective selection mass, 1 / sum(weights**2).
    c_sigma, c_c : float
        Cumulation rates for the step-size and covariance paths.
    c_1, c_mu : float
        Learning rates for the rank-one and rank-mu covariance updates.
    d_sigma : float
        Step-size damping.
    chi_n : float
        Approximation of E||N(0, I)|| in dimension n.
    """

    n: int
    p: int
    mu: int
    weights: np.ndarray
    mu_eff: float
    c_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    d_sigma: float
    chi_n: float


def default_params(n: int) -> CmaParams:
    """Standard parameter defaults as functions of the dimension n >= 1."""
    p = 4 + math.floor(3.0 * math.log(n))
    mu = p // 2
    raw = np.log((p + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / float(np.sum(weights**2))
    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(
        1.0 - c_1,
        (0.5 + 2.0 * mu_eff + 2.0 / mu_eff - 4.0) / ((n + 2.0) ** 2 + mu_eff),
    )
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2))
    return CmaParams(
        n=n,
        p=p,
        mu=mu,
        weights=weights,
        mu_eff=mu_eff,
        c_sigma=c_sigma,
        c_c=c_c,
        c_1=c_1,
        c_mu=c_mu,
        d_sigma=d_sigma,
        chi_n=chi_n,
    )


@dataclass
class CmaState:
    """Mutable distribution state of the global search.

    ``basis`` and ``sqrt_eigs`` cache the eigendecomposition
    cov = basis @ diag(sqrt_eigs**2) @ basis.T used for sampling and for
    whitening the mean shift; call :func:`refresh_basis` after any change
    to ``cov``.
    """

    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    path_sigma: np.ndarray
    path_cov: np.ndarray
    generation: int
    basis: np.ndarray
    sqrt_eigs: np.ndarray


def init_state(mean, sigma: float = 0.3) -> CmaState:
    """Fresh state around the 1-d ``mean`` with step size ``sigma > 0``."""
    mean = np.array(mean, dtype=float)
    n = mean.size
    return CmaState(
        mean=mean,
        sigma=float(sigma),
        cov=np.eye(n),
        path_sigma=np.zeros(n),
        path_cov=np.zeros(n),
        generation=0,
        basis=np.eye(n),
        sqrt_eigs=np.ones(n),
    )


def enforce_spd(cov: np.ndarray) -> np.ndarray:
    """Symmetrize and clamp eigenvalues up to a floor of
    ``1e-12 * max(lambda_max, 1)`` so the matrix is safely positive definite."""
    sym = 0.5 * (cov + cov.T)
    try:
        eigvals, basis = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"eigendecomposition failed during SPD repair: {exc}") from exc
    floor = EIG_FLOOR_REL * max(float(eigvals[-1]), 1.0)
    rebuilt = (basis * np.maximum(eigvals, floor)) @ basis.T
    return 0.5 * (rebuilt + rebuilt.T)


def refresh_basis(state: CmaState) -> None:
    """Recompute the cached eigendecomposition of ``cov``, which
    :func:`update_covariance` and :func:`maybe_reset` keep positive definite;
    a failed factorization or a nonpositive eigenvalue raises EigenSolveError."""
    try:
        eigvals, basis = np.linalg.eigh(state.cov)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"covariance factorization failed: {exc}") from exc
    if not eigvals[0] > 0:
        raise EigenSolveError(f"covariance is not positive definite (eigenvalue {eigvals[0]!r})")
    state.basis = basis
    state.sqrt_eigs = np.sqrt(eigvals)


def sample_population(
    state: CmaState, params: CmaParams, rng: np.random.Generator, count: int | None = None
) -> np.ndarray:
    """Draw candidates m + sigma * B D xi with xi ~ N(0, I), as rows."""
    k = params.p if count is None else count
    xi = rng.standard_normal((k, params.n))
    return state.mean + state.sigma * (xi * state.sqrt_eigs) @ state.basis.T


def update_mean(sorted_candidates: np.ndarray, params: CmaParams) -> np.ndarray:
    """Weighted recombination of the top-mu candidates (best first), rows of
    an array (mu, n)."""
    return params.weights @ sorted_candidates


def update_paths(
    state: CmaState, new_mean: np.ndarray, params: CmaParams
) -> tuple[np.ndarray, np.ndarray, float]:
    """Advance both evolution paths for one generation.

    Returns (path_sigma, path_cov, h_sigma) where h_sigma gates the
    covariance path when the step-size path has grown too long to be a
    trustworthy direction signal.
    """
    shift = (new_mean - state.mean) / state.sigma
    # whitened shift: B D^-1 B' * shift
    whitened = state.basis @ ((state.basis.T @ shift) / state.sqrt_eigs)
    c_s = params.c_sigma
    path_sigma = (1.0 - c_s) * state.path_sigma + math.sqrt(
        c_s * (2.0 - c_s) * params.mu_eff
    ) * whitened

    norm = float(np.linalg.norm(path_sigma))
    debias = math.sqrt(1.0 - (1.0 - c_s) ** (2 * (state.generation + 1)))
    h_sigma = 1.0 if norm / debias < (1.4 + 2.0 / (params.n + 1)) * params.chi_n else 0.0

    c_c = params.c_c
    path_cov = (1.0 - c_c) * state.path_cov + h_sigma * math.sqrt(
        c_c * (2.0 - c_c) * params.mu_eff
    ) * shift
    return path_sigma, path_cov, h_sigma


def update_covariance(
    state: CmaState,
    sorted_candidates: np.ndarray,
    old_mean: np.ndarray,
    path_cov: np.ndarray,
    h_sigma: float,
    params: CmaParams,
) -> np.ndarray:
    """Rank-one plus rank-mu covariance update, SPD-repaired.

    ``sorted_candidates`` are the top-mu sample points of the generation
    (best first) and ``old_mean`` the mean they were drawn around. A
    covariance with a non-finite entry is returned unrepaired, for
    :func:`maybe_reset` to re-seed.
    """
    y = (np.asarray(sorted_candidates, dtype=float) - old_mean) / state.sigma
    rank_mu = (params.weights[:, None] * y).T @ y
    decay = 1.0 - params.c_1 - params.c_mu * float(params.weights.sum())
    cov = (
        decay * state.cov
        + params.c_1
        * (
            np.outer(path_cov, path_cov)
            + (1.0 - h_sigma) * params.c_c * (2.0 - params.c_c) * state.cov
        )
        + params.c_mu * rank_mu
    )
    return enforce_spd(cov) if np.isfinite(cov).all() else cov


def update_step_size(state: CmaState, path_sigma: np.ndarray, params: CmaParams) -> float:
    """Cumulative step-size adaptation; stationary when ||path_sigma|| = chi_n.
    An update that overflows returns inf, for :func:`maybe_reset` to re-seed."""
    norm = float(np.linalg.norm(path_sigma))
    try:
        return state.sigma * math.exp(
            (params.c_sigma / params.d_sigma) * (norm / params.chi_n - 1.0)
        )
    except OverflowError:
        return math.inf


def _all_finite(state: CmaState) -> bool:
    return (
        math.isfinite(state.sigma)
        and bool(np.all(np.isfinite(state.mean)))
        and bool(np.all(np.isfinite(state.cov)))
        and bool(np.all(np.isfinite(state.path_sigma)))
        and bool(np.all(np.isfinite(state.path_cov)))
    )


def maybe_reset(state: CmaState, best_alpha: np.ndarray) -> bool:
    """Re-seed the distribution at ``best_alpha``, the best candidate seen
    so far, if the step size left its safe range or any state entry went
    non-finite; the generation counter is preserved. This is the only
    remedy for a degenerate state. Returns True iff a reset happened."""
    if _all_finite(state) and SIGMA_MIN <= state.sigma <= SIGMA_MAX:
        return False
    vars(state).update(vars(init_state(best_alpha, SIGMA_RESET)), generation=state.generation)
    return True
