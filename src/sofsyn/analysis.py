"""Eigenvalue and frequency-domain analysis of closed loops.

Two independent routes to the H-infinity norm live here:

* :func:`hinf_norm` -- production path: the level-set iteration on gamma
  using the Hamiltonian-matrix test from the bounded real lemma (gamma
  exceeds the norm iff the Hamiltonian has no purely imaginary
  eigenvalues, and those eigenvalues mark where the gain equals gamma).
* :func:`hinf_norm_grid` -- oracle path: dense frequency sampling with
  golden-section refinement around the sampled peak. A certified lower
  bound on the true norm; kept independent of the level-set code so the
  two can cross-check each other.

Eigenvalues come from :func:`dgeev`, one numpy call per stack of matrices:
per batch for stability, and per level-set round for the Hamiltonians.
Gains come from :func:`_sweep`, in stacked calls of at most
max(1, SWEEP_ENTRIES // n_x**2) resolvents, so the memory of a sweep does
not grow with its number of frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
    DimensionMismatchError,
    EigenSolveError,
    InstabilityError,
    NonFiniteEntryError,
    SingularResolventError,
    SofsynError,
)
from .model import ClosedLoopRealization, check_count

__all__ = [
    "StabilityReport",
    "HinfResult",
    "FrequencyGrid",
    "DEFAULT_GRID",
    "spectral_abscissa",
    "is_hurwitz",
    "freq_response",
    "hinf_norm_grid",
    "hinf_norm",
    "hinf_norms",
]

#: Default margin below zero required of the abscissa for "Hurwitz".
STABILITY_TOL = 1e-9

#: Relative accuracy of :func:`hinf_norm`: the norm lies in [value, (1 + this) * value].
NORM_REL_TOL = 1e-6

#: An eigenvalue lam counts as purely imaginary when |Re lam| <= this * (1 + |lam|).
IMAG_AXIS_RTOL = 1e-7

#: A gain sweep solves at most max(1, SWEEP_ENTRIES // n_x**2) resolvents per stacked call.
SWEEP_ENTRIES = 2**14


@dataclass(frozen=True)
class StabilityReport:
    """Spectral abscissa of a matrix and the resulting Hurwitz verdict."""

    abscissa: float
    hurwitz: bool


@dataclass(frozen=True)
class HinfResult:
    """Outcome of the level-set H-infinity computation.

    Attributes
    ----------
    value : float
        A gain the loop attains: sigma_max(D11), or sigma_max(G(jw)) at
        ``peak_frequency``. The norm lies in [value, (1 + NORM_REL_TOL) * value].
    peak_frequency : float
        Frequency (rad/s, >= 0) at which ``value`` is attained; 0 when
        sigma_max(D11) is the bound.
    iterations : int
        Number of Hamiltonian eigensolves performed.
    """

    value: float
    peak_frequency: float
    iterations: int


def _check_square_finite(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFiniteEntryError("matrix contains non-finite entries")
    return M


def dgeev(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(real parts, imaginary parts), each (k, n), of the eigenvalues of the
    stack M (k, n, n) by LAPACK's dgeev, in one numpy call, which raises
    ``np.linalg.LinAlgError`` if any matrix is non-finite or fails."""
    w = np.linalg.eigvals(M)
    return w.real, w.imag


def _spectra(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dgeev` of the stack M, redone one matrix at a time if it fails,
    so only the matrices that fail alone fail: their rows are NaN."""
    try:
        return dgeev(M)
    except np.linalg.LinAlgError:
        if len(M) == 1:
            return np.full((2, 1, M.shape[-1]), np.nan)
        wr, wi = zip(*map(_spectra, M[:, None]))
        return np.concatenate(wr), np.concatenate(wi)


def _real_eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(real parts, imaginary parts) of the eigenvalues of a finite square
    real matrix: the one-row case of :func:`_spectra`."""
    [wr], [wi] = _spectra(M[None])
    if np.isnan(wr[0]):
        raise EigenSolveError("dgeev failed to converge")
    return wr, wi


def spectral_abscissa(M) -> float:
    """Largest real part over the eigenvalues of a square real matrix."""
    wr, _ = _real_eig(_check_square_finite(M))
    return float(wr.max())


def is_hurwitz(M, tol: float = STABILITY_TOL) -> StabilityReport:
    """Stability verdict: Hurwitz iff the abscissa is below ``-tol``."""
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    abscissa = spectral_abscissa(M)
    return StabilityReport(abscissa=abscissa, hurwitz=bool(abscissa < -tol))


def freq_response(cl: ClosedLoopRealization, omega: float) -> np.ndarray:
    """Transfer matrix G(jw) = C_F (jw I - A_F)^-1 B1 + D11 at one frequency."""
    n_x = cl.A_F.shape[0]
    M = 1j * omega * np.eye(n_x) - cl.A_F
    try:
        X = np.linalg.solve(M, cl.B1.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularResolventError(
            f"jw*I - A_F is singular at omega={omega!r}"
        ) from exc
    return cl.C_F @ X + cl.D11


def _max_gains(A_F, C_F, B1, D11, omegas) -> np.ndarray:
    """Largest singular value of G(jw) = C_F (jw I - A_F)^-1 B1 + D11 at each
    frequency; ``A_F`` and ``C_F`` are one realization for all frequencies or
    stacked with one realization per frequency. If the stacked call fails (a
    resolvent singular in floating point, or an SVD that meets a NaN), it is
    redone one frequency at a time, so only the frequencies that fail alone
    fail: their gains are NaN."""
    omegas = np.asarray(omegas, dtype=float)
    M = 1j * omegas[:, None, None] * np.eye(A_F.shape[-1]) - A_F
    try:
        # B1 as a stack of one matrix: numpy < 2 reads a 2-d b as stacked vectors
        G = C_F @ np.linalg.solve(M, B1.astype(complex)[None]) + D11
        return np.linalg.svd(G, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError:
        if len(M) == 1:
            return np.full(1, np.nan)
        A, C = (np.broadcast_to(X, M.shape[:1] + X.shape[-2:]) for X in (A_F, C_F))
        return np.concatenate([_max_gains(a, c, B1, D11, [w]) for a, c, w in zip(A, C, omegas)])


def _sweep(A_F, C_F, B1, D11, omegas, loops=None) -> np.ndarray:
    """:func:`_max_gains` at each frequency omegas[i] of the realization
    (A_F, C_F), or of (A_F[loops[i]], C_F[loops[i]]) given ``loops``, in
    stacked calls of at most max(1, SWEEP_ENTRIES // n_x**2) frequencies, so
    memory does not grow with the number of frequencies. Each resolvent is
    solved on its own, so the chunks change no bit."""
    step = max(1, SWEEP_ENTRIES // A_F.shape[-1] ** 2)
    gains = []
    for part in (slice(s, s + step) for s in range(0, len(omegas), step)):
        A, C = (A_F, C_F) if loops is None else (A_F[loops[part]], C_F[loops[part]])
        gains.append(_max_gains(A, C, B1, D11, omegas[part]))
    return np.concatenate(gains)


@dataclass(frozen=True)
class FrequencyGrid:
    """Sampling scheme used by the grid oracle.

    w = 0 and logarithmically spaced points between ``omega_min`` and
    ``omega_max`` (``points_per_decade`` per decade); the oracle refines the
    sampled argmax by golden-section search. Raises ``ValueError`` naming
    the field unless 0 < omega_min <= omega_max < inf and
    ``points_per_decade`` is an integer >= 1 (not a bool).
    """

    omega_min: float = 1e-4
    omega_max: float = 1e4
    points_per_decade: int = 400

    def __post_init__(self):
        if not 0 < self.omega_min < np.inf:
            raise ValueError(f"omega_min must be finite and positive, got {self.omega_min!r}")
        if not self.omega_min <= self.omega_max < np.inf:
            raise ValueError(
                f"omega_max must be finite and at least omega_min, got {self.omega_max!r}"
            )
        check_count("points_per_decade", self.points_per_decade, 1, ValueError)

    def frequencies(self) -> np.ndarray:
        lo = np.log10(self.omega_min)
        hi = np.log10(self.omega_max)
        count = int(round(self.points_per_decade * (hi - lo))) + 1
        return np.concatenate(([0.0], np.logspace(lo, hi, count)))


DEFAULT_GRID = FrequencyGrid()

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a: float, b: float, max_iter: int = 120) -> tuple[float, float]:
    """Golden-section maximization of a scalar function on [a, b]."""
    tol = 1e-12 * max(1.0, abs(b))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def hinf_norm_grid(cl: ClosedLoopRealization, grid: FrequencyGrid = DEFAULT_GRID) -> float:
    """Grid-oracle estimate of the H-infinity norm (a lower bound on the sup).
    The grid is swept in bounded chunks (:func:`_sweep`), so memory does
    not grow with the grid size.

    Raises
    ------
    InstabilityError
        If A_F is not Hurwitz by :func:`is_hurwitz` (abscissa >= -STABILITY_TOL).
    SingularResolventError
        If the gain at a grid frequency cannot be computed (its resolvent
        is singular in floating point, or the gain is not a number).
    """
    abscissa = spectral_abscissa(cl.A_F)
    if not abscissa < -STABILITY_TOL:
        raise InstabilityError(f"closed loop is unstable (abscissa {abscissa:.6g})")
    omegas = grid.frequencies()
    gains = _sweep(cl.A_F, cl.C_F, cl.B1, cl.D11, omegas)
    k = int(np.argmax(gains))  # the first NaN, if there is one
    best = float(gains[k])
    if best != best:
        raise SingularResolventError(f"the gain at omega={float(omegas[k])!r} cannot be computed")
    a = omegas[k - 1] if k > 0 else omegas[k]
    b = omegas[k + 1] if k + 1 < omegas.size else omegas[k]
    if b > a:
        _, refined = _golden_max(
            lambda w: float(_max_gains(cl.A_F, cl.C_F, cl.B1, cl.D11, np.array([w]))[0]), a, b
        )
        best = max(best, refined)
    return best


def _hamiltonians(A, C, B1, D11, g2):
    """The stacked bounded-real Hamiltonians of the loops (A[j], B1, C[j],
    D11), each at its own squared gamma g2[j] > sigma_max(D11)^2 (so
    R = gamma^2 I - D11' D11 > 0)."""
    n = A.shape[1]
    H = np.empty((len(A), 2 * n, 2 * n))
    if not D11.any():
        # no feedthrough: H = [[A, B B'/g^2], [-C'C, -A']]
        H[:, :n, :n] = A
        H[:, :n, n:] = (B1 @ B1.T) / g2
        H[:, n:, :n] = -(C.transpose(0, 2, 1) @ C)
        H[:, n:, n:] = -A.transpose(0, 2, 1)
        return H
    DT = D11.T.copy()
    R = g2 * np.eye(B1.shape[1]) - DT @ D11
    Rinv_DT = np.linalg.solve(R, DT[None])
    Acl = A + B1 @ (Rinv_DT @ C)
    H[:, :n, :n] = Acl
    H[:, :n, n:] = B1 @ np.linalg.solve(R, B1.T.copy()[None])
    H[:, n:, :n] = -C.transpose(0, 2, 1) @ ((np.eye(C.shape[1]) + D11 @ Rinv_DT) @ C)
    H[:, n:, n:] = -Acl.transpose(0, 2, 1)
    return H


def _peaks(A_F, C_F, B1, D11, rows, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row j of W, the largest gain of loop rows[j] over the finite
    entries of W[j] and the frequency np.argmax picks for it (the first
    NaN, else the first maximum); (-inf, inf) if there is none. A repeated
    frequency has the same gain, so the result is that of the row's np.unique.
    The gains come from one bounded-chunk :func:`_sweep`."""
    finite = W < np.inf
    loops = rows[finite.nonzero()[0]]
    G = np.full(W.shape, -np.inf)
    if loops.size:
        G[finite] = _sweep(A_F, C_F, B1, D11, W[finite], loops)
    k = G.argmax(axis=1)
    every = np.arange(len(W))
    return G[every, k], W[every, k]


@np.errstate(over="ignore", invalid="ignore")
def hinf_norms(A_F, C_F, B1, D11, poles, stop=None) -> list:
    """H-infinity norms of the stable loops (A_F[r], B1, C_F[r], D11), which
    share B1 and D11, by the level-set iteration on the Hamiltonian test.
    ``A_F`` is finite and Hurwitz row by row, and ``poles`` is the pair
    (real parts, imaginary parts) of its eigenvalues, stacked as
    :func:`dgeev` returns them.

    A row's lower bound starts at sigma_max(D11), and each round raises it
    to the largest gain at the round's candidate frequencies. Round 0's
    candidates are the pole probes: w = 0 and w = |lam| for each conjugate
    pair of poles lam of A_F[r]. Each later round takes the imaginary-axis
    eigenvalues of the row's Hamiltonian at gamma = (1 + NORM_REL_TOL) *
    bound (Boyd-Balakrishnan / Bruinsma-Steinbuch), and its candidates are
    those crossing frequencies and their midpoints. A row stops after
    round 0 if its bound is 0, and after a later round when no crossing
    remains, which certifies its norm within [value, (1 + NORM_REL_TOL) *
    value], or when the crossings raise no gain above the bound, which
    makes them rounding error rather than gain. The rows run in lockstep on
    array state (the bounds, peak frequencies and live rows are arrays):
    each round's eigensolves are one stacked :func:`dgeev` call over the
    rows still iterating, each round's gains are one :func:`_sweep` in
    bounded chunks, and every row gets the bits it would get alone.
    Overflow in a row's Hamiltonian or gains raises no numpy warning; the
    row fails as below.

    ``stop`` is an optional predicate on the array of all rows' lower
    bounds that returns a mask of rows to stop; it is consulted after every
    round. A stopped row returns its bound as ``value``: a gain attained at
    ``peak_frequency``, but possibly below the norm by more than
    ``NORM_REL_TOL``, with ``iterations`` 0 if it stops at the probe bound.

    Returns, per row, its :class:`HinfResult` or the error it would raise
    alone: :class:`NonFiniteEntryError` if C_F[r] has a non-finite entry,
    :class:`SingularResolventError` if a gain it needs is not a number (its
    resolvent is singular in floating point, or the gain overflows),
    :class:`EigenSolveError` if one of its eigensolves fails to converge or
    its Hamiltonian has a non-finite entry (so it is never certified), or
    :class:`BracketError` if it has not stopped after 64 rounds.
    """
    results = [None] * len(A_F)
    d_norm = float(np.linalg.svd(D11, compute_uv=False)[0]) if D11.any() else 0.0
    lo = np.full(len(A_F), d_norm)
    peak = np.zeros(len(A_F))

    finite = np.isfinite(C_F).all(axis=(1, 2))
    for r in np.flatnonzero(~finite).tolist():
        results[r] = NonFiniteEntryError("C_F contains non-finite entries")
    act = np.flatnonzero(finite)
    # round 0's W: w = 0 and one probe per conjugate pair of poles (same |lam|)
    wr, wi = poles[0][act], poles[1][act]
    W = np.sort(np.where(wi >= 0, np.hypot(wr, wi), np.inf), axis=1)
    W = np.concatenate((np.zeros((len(act), 1)), W), axis=1)

    for iterations in range(65):
        if iterations:
            gammas = (1.0 + NORM_REL_TOL) * lo[act]
            H = _hamiltonians(A_F[act], C_F[act], B1, D11, (gammas * gammas)[:, None, None])
            wr, wi = _spectra(H)
            failed = np.isnan(wr[:, 0])
            if failed.any():
                msg = "dgeev failed to converge or met a non-finite entry"
                for r in act[failed].tolist():
                    results[r] = EigenSolveError(msg)
                act, wr, wi = act[~failed], wr[~failed], wi[~failed]
            # one crossing per conjugate pair: its partner has the same |Im lam|
            on_axis = (np.abs(wr) <= IMAG_AXIS_RTOL * (1.0 + np.hypot(wr, wi))) & (wi >= 0)
            freqs = np.sort(np.where(on_axis, np.abs(wi), np.inf), axis=1)
            W = np.concatenate((freqs, 0.5 * (freqs[:, :-1] + freqs[:, 1:])), axis=1)
        gain, freq = _peaks(A_F, C_F, B1, D11, act, W)
        up = gain > lo[act]
        lo[act[up]], peak[act[up]] = gain[up], freq[up]
        # round 0: zero gain and no feedthrough leave nothing to raise; later:
        # a row without crossings gets gain -inf, so it finishes here too
        done = lo[act] == 0.0 if iterations == 0 else ~up
        if stop is not None:
            done |= stop(lo)[act]
        failed = np.isnan(gain)
        for r, w in zip(act[failed].tolist(), freq[failed].tolist()):
            results[r] = SingularResolventError(f"the gain at omega={w!r} cannot be computed")
        for r in act[done & ~failed].tolist():
            results[r] = HinfResult(float(lo[r]), float(peak[r]), iterations)
        act = act[~(done | failed)]
        if not act.size:
            break

    for r, bound in zip(act.tolist(), lo[act].tolist()):
        results[r] = BracketError(
            f"level-set iteration did not stop in 64 rounds (bound {bound:.6g})"
        )
    return results


def hinf_norm(cl: ClosedLoopRealization) -> HinfResult:
    """H-infinity norm of one closed loop: the one-row case of
    :func:`hinf_norms`, which describes the iteration and the result.

    Raises
    ------
    InstabilityError
        If A_F is not Hurwitz by :func:`is_hurwitz` (abscissa >= -STABILITY_TOL).
    EigenSolveError
        If an eigensolve fails to converge or meets a non-finite entry.
    SingularResolventError
        If a gain the iteration needs cannot be computed.
    BracketError
        If the iteration has not stopped after 64 rounds (pathological
        conditioning).
    """
    wr, wi = _real_eig(cl.A_F)
    abscissa = float(wr.max())
    if not abscissa < -STABILITY_TOL:
        raise InstabilityError(f"closed loop is unstable (abscissa {abscissa:.6g})")
    [res] = hinf_norms(cl.A_F[None], cl.C_F[None], cl.B1, cl.D11, (wr[None], wi[None]))
    if isinstance(res, SofsynError):
        raise res
    return res
