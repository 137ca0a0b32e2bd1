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
from .model import ClosedLoopRealization

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

#: An eigenvalue lam counts as purely imaginary when |Re lam| <= this * (1 + |lam|).
IMAG_AXIS_RTOL = 1e-7


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
        ``peak_frequency``. The norm lies in [value, (1 + rel_tol) * value].
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
    stacked with one realization per frequency."""
    omegas = np.asarray(omegas, dtype=float)
    M = 1j * omegas[:, None, None] * np.eye(A_F.shape[-1]) - A_F
    # B1 as a stack of one matrix: numpy < 2 reads a 2-d b as stacked vectors
    G = C_F @ np.linalg.solve(M, B1.astype(complex)[None]) + D11
    return np.linalg.svd(G, compute_uv=False)[..., 0]


@dataclass(frozen=True)
class FrequencyGrid:
    """Sampling scheme used by the grid oracle.

    w = 0 and logarithmically spaced points between ``omega_min`` and
    ``omega_max`` (``points_per_decade`` per decade); the oracle refines the
    sampled argmax by golden-section search.
    """

    omega_min: float = 1e-4
    omega_max: float = 1e4
    points_per_decade: int = 400

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

    Raises
    ------
    InstabilityError
        If A_F is not Hurwitz (abscissa >= 0).
    """
    abscissa = spectral_abscissa(cl.A_F)
    if abscissa >= 0:
        raise InstabilityError(f"closed loop is unstable (abscissa {abscissa:.6g})")
    omegas = grid.frequencies()
    gains = _max_gains(cl.A_F, cl.C_F, cl.B1, cl.D11, omegas)
    k = int(np.argmax(gains))
    best = float(gains[k])
    a = omegas[k - 1] if k > 0 else omegas[k]
    b = omegas[k + 1] if k + 1 < omegas.size else omegas[k]
    if b > a:
        _, refined = _golden_max(
            lambda w: float(_max_gains(cl.A_F, cl.C_F, cl.B1, cl.D11, np.array([w]))[0]), a, b
        )
        best = max(best, refined)
    return best


def _hamiltonians(A, C, B1, D11):
    """``build(rows, g2)``: the stacked bounded-real Hamiltonians of the
    loops (A[r], B1, C[r], D11) for the given rows, each at its own squared
    gamma g2[j] > sigma_max(D11)^2 (so R = gamma^2 I - D11' D11 > 0). The
    gamma-independent blocks are computed once."""
    n = A.shape[1]
    if not D11.any():
        # no feedthrough: H = [[A, B B'/g^2], [-C'C, -A']]
        H = np.empty((len(A), 2 * n, 2 * n))
        H[:, :n, :n] = A
        H[:, n:, :n] = -(C.transpose(0, 2, 1) @ C)
        H[:, n:, n:] = -A.transpose(0, 2, 1)
        BBt = B1 @ B1.T

        def build(rows, g2):
            Hr = H[rows]
            Hr[:, :n, n:] = BBt / g2
            return Hr

        return build

    DT = D11.T.copy()
    BT = B1.T.copy()[None]
    DtD = DT @ D11
    I_w = np.eye(B1.shape[1])
    I_z = np.eye(C.shape[1])

    def build(rows, g2):
        Ar, Cr = A[rows], C[rows]
        R = g2 * I_w - DtD
        Rinv_DT = np.linalg.solve(R, DT[None])
        Acl = Ar + B1 @ (Rinv_DT @ Cr)
        Hr = np.empty((len(Ar), 2 * n, 2 * n))
        Hr[:, :n, :n] = Acl
        Hr[:, :n, n:] = B1 @ np.linalg.solve(R, BT)
        Hr[:, n:, :n] = -Cr.transpose(0, 2, 1) @ ((I_z + D11 @ Rinv_DT) @ Cr)
        Hr[:, n:, n:] = -Acl.transpose(0, 2, 1)
        return Hr

    return build


def _peaks(A_F, C_F, B1, D11, rows, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row j of W, the largest gain of loop rows[j] over the finite
    entries of W[j] and the frequency np.argmax picks for it (the first
    NaN, else the first maximum); (-inf, inf) if there is none. A repeated
    frequency has the same gain, so the result is that of the row's np.unique."""
    finite = W < np.inf
    loops = rows[finite.nonzero()[0]]
    G = np.full(W.shape, -np.inf)
    if loops.size:
        G[finite] = _max_gains(A_F[loops], C_F[loops], B1, D11, W[finite])
    k = G.argmax(axis=1)
    every = np.arange(len(W))
    return G[every, k], W[every, k]


@np.errstate(over="ignore", invalid="ignore")
def hinf_norms(A_F, C_F, B1, D11, rel_tol: float = 1e-6, poles=None, stop=None) -> list:
    """H-infinity norms of the loops (A_F[r], B1, C_F[r], D11), which share
    B1 and D11, by the level-set iteration on the Hamiltonian test.

    A row's lower bound starts at the largest of sigma_max(D11), the gain
    at w = 0 and the gain at w = |lam| for each pole lam of A_F[r]. Each
    round takes the imaginary-axis eigenvalues of the row's Hamiltonian at
    gamma = (1 + rel_tol) * bound (Boyd-Balakrishnan / Bruinsma-Steinbuch)
    and raises the bound to the largest gain at those crossing frequencies
    and at their midpoints. A row stops when no crossing remains, which
    certifies its norm within [value, (1 + rel_tol) * value], or when the
    crossings raise no gain above the bound, which makes them rounding
    error rather than gain. The rows run in lockstep on array state (the
    bounds, peak frequencies and live rows are arrays): each stage, the
    eigensolves included, is one stacked call over the rows still
    iterating (one :func:`dgeev` call per round), and every row gets the
    bits it would get alone. Overflow in a row's Hamiltonian or gains
    raises no numpy warning; the row fails as below.

    ``poles`` is the pair (real parts, imaginary parts) of the eigenvalues
    of A_F, stacked as :func:`dgeev` returns them, for callers that already
    hold it; the results do not depend on it. ``stop`` is an optional
    predicate on the array of all rows' lower bounds that returns a mask of
    rows to stop; it is heeded for the rows just probed or raised, after
    the pole probes and after each round. A stopped row returns its bound as
    ``value``: a gain attained at ``peak_frequency``, but possibly below
    the norm by more than ``rel_tol``, with ``iterations`` 0 if it stops at
    the probe bound.

    Returns, per row, its :class:`HinfResult` or the error it would raise
    alone: :class:`NonFiniteEntryError` if A_F[r] or C_F[r] has a
    non-finite entry, :class:`InstabilityError` if A_F[r] is not Hurwitz,
    :class:`EigenSolveError` if one of its eigensolves fails to converge or
    its Hamiltonian has a non-finite entry (so it is never certified), or
    :class:`BracketError` if it has not stopped after 64 rounds.
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    results = [None] * len(A_F)
    lo = np.zeros(len(A_F))
    peak = np.zeros(len(A_F))

    def finish(done, iterations):
        for r in done.tolist():
            results[r] = HinfResult(float(lo[r]), float(peak[r]), iterations)

    finite = np.isfinite(A_F).all(axis=(1, 2)) & np.isfinite(C_F).all(axis=(1, 2))
    for r in np.flatnonzero(~finite).tolist():
        results[r] = NonFiniteEntryError("A_F or C_F contains non-finite entries")
    act = np.flatnonzero(finite)
    wr, wi = _spectra(A_F[act]) if poles is None else (poles[0][act], poles[1][act])
    abscissas = wr.max(axis=1)
    for r, abscissa in zip(act.tolist(), abscissas.tolist()):
        if abscissa >= 0:
            results[r] = InstabilityError(f"closed loop is unstable (abscissa {abscissa:.6g})")
        elif abscissa != abscissa:
            results[r] = EigenSolveError("dgeev failed to converge")
    stable = abscissas < 0
    act, wr, wi = act[stable], wr[stable], wi[stable]
    if not act.size:
        return results

    # one probe per conjugate pair of poles: its partner has the same |lam|
    probes = np.sort(np.where(wi >= 0, np.hypot(wr, wi), np.inf), axis=1)
    probes = np.concatenate((np.zeros((len(act), 1)), probes), axis=1)
    d_norm = float(np.linalg.svd(D11, compute_uv=False)[0]) if D11.any() else 0.0
    gain, freq = _peaks(A_F, C_F, B1, D11, act, probes)
    raised = gain > d_norm
    lo[act] = np.where(raised, gain, d_norm)
    peak[act] = np.where(raised, freq, 0.0)
    # zero gain wherever sampled and no feedthrough: nothing to raise
    done = lo[act] == 0.0
    if stop is not None:
        done |= stop(lo)[act]
    finish(act[done], 0)
    act = act[~done]

    build = _hamiltonians(A_F, C_F, B1, D11) if act.size else None
    for iterations in range(1, 65):
        if not act.size:
            break
        gammas = (1.0 + rel_tol) * lo[act]
        wr, wi = _spectra(build(act, (gammas * gammas)[:, None, None]))
        failed = np.isnan(wr[:, 0])
        if failed.any():
            for r in act[failed].tolist():
                results[r] = EigenSolveError("dgeev failed to converge or met a non-finite entry")
            act, wr, wi = act[~failed], wr[~failed], wi[~failed]
        # one crossing per conjugate pair: its partner has the same |Im lam|
        on_axis = (np.abs(wr) <= IMAG_AXIS_RTOL * (1.0 + np.hypot(wr, wi))) & (wi >= 0)
        freqs = np.sort(np.where(on_axis, np.abs(wi), np.inf), axis=1)
        candidates = np.concatenate((freqs, 0.5 * (freqs[:, :-1] + freqs[:, 1:])), axis=1)
        gain, freq = _peaks(A_F, C_F, B1, D11, act, candidates)
        # a row without crossings gets gain -inf, so it finishes here too
        done = gain <= lo[act]
        raised = act[~done]
        lo[raised], peak[raised] = gain[~done], freq[~done]
        if stop is not None and raised.size:
            done |= stop(lo)[act]
        finish(act[done], iterations)
        act = act[~done]

    for r, bound in zip(act.tolist(), lo[act].tolist()):
        results[r] = BracketError(
            f"level-set iteration did not stop in 64 rounds (bound {bound:.6g})"
        )
    return results


def hinf_norm(cl: ClosedLoopRealization, rel_tol: float = 1e-6) -> HinfResult:
    """H-infinity norm of one closed loop: the one-row case of
    :func:`hinf_norms`, which describes the iteration and the result.

    Raises
    ------
    InstabilityError
        If A_F is not Hurwitz.
    EigenSolveError
        If an eigensolve fails to converge or meets a non-finite entry.
    BracketError
        If the iteration has not stopped after 64 rounds (pathological
        conditioning).
    """
    [res] = hinf_norms(cl.A_F[None], cl.C_F[None], cl.B1, cl.D11, rel_tol)
    if isinstance(res, SofsynError):
        raise res
    return res
