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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeev

from .errors import (
    BracketError,
    DimensionMismatchError,
    EigenSolveError,
    InstabilityError,
    NonFiniteEntryError,
    SingularResolventError,
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


def _real_eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(real parts, imaginary parts) of the eigenvalues of a real matrix.

    Thin dgeev wrapper used on the hot paths; callers must pass finite
    square input.
    """
    wr, wi, _, _, info = dgeev(M, compute_vl=0, compute_vr=0, overwrite_a=0)
    if info != 0:
        raise EigenSolveError(f"dgeev failed to converge (info={info})")
    return wr, wi


def spectral_abscissa(M) -> float:
    """Largest real part over the eigenvalues of a square real matrix."""
    M = _check_square_finite(M)
    wr, _ = _real_eig(M)
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


def _max_gains(cl: ClosedLoopRealization, omegas: np.ndarray) -> np.ndarray:
    """Largest singular value of G(jw) for a batch of frequencies."""
    omegas = np.asarray(omegas, dtype=float)
    n_x = cl.A_F.shape[0]
    M = 1j * omegas[:, None, None] * np.eye(n_x) - cl.A_F
    rhs = np.broadcast_to(cl.B1.astype(complex), (omegas.size, *cl.B1.shape))
    X = np.linalg.solve(M, rhs)
    G = cl.C_F @ X + cl.D11
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
    gains = _max_gains(cl, omegas)
    k = int(np.argmax(gains))
    best = float(gains[k])
    a = omegas[k - 1] if k > 0 else omegas[k]
    b = omegas[k + 1] if k + 1 < omegas.size else omegas[k]
    if b > a:
        _, refined = _golden_max(lambda w: float(_max_gains(cl, np.array([w]))[0]), a, b)
        best = max(best, refined)
    return best


def _hamiltonian_builder(cl: ClosedLoopRealization):
    """Factory for gamma -> Hamiltonian matrix of the bounded-real test.

    The returned callable reuses one output buffer and the gamma-independent
    blocks; it requires gamma > sigma_max(D11) so that
    R = gamma^2 I - D11' D11 > 0.
    """
    A, B, C, D = cl.A_F, cl.B1, cl.C_F, cl.D11
    n = A.shape[0]
    H = np.empty((2 * n, 2 * n))

    if not D.any():
        # no feedthrough: H = [[A, B B'/g^2], [-C'C, -A']]
        BBt = B @ B.T
        H[:n, :n] = A
        H[n:, :n] = -(C.T @ C)
        H[n:, n:] = -A.T

        def build(gamma: float) -> np.ndarray:
            H[:n, n:] = BBt / (gamma * gamma)
            return H

        return build

    DT = D.T.copy()
    BT = B.T.copy()
    DtD = DT @ D
    I_w = np.eye(B.shape[1])
    I_z = np.eye(C.shape[0])

    def build(gamma: float) -> np.ndarray:
        R = gamma * gamma * I_w - DtD
        Rinv_DT = np.linalg.solve(R, DT)
        Rinv_BT = np.linalg.solve(R, BT)
        Acl = A + B @ (Rinv_DT @ C)
        H[:n, :n] = Acl
        H[:n, n:] = B @ Rinv_BT
        H[n:, :n] = -C.T @ ((I_z + D @ Rinv_DT) @ C)
        H[n:, n:] = -Acl.T
        return H

    return build


def _imaginary_axis_freqs(H: np.ndarray) -> np.ndarray:
    """Nonnegative frequencies of eigenvalues of H lying on the imaginary axis."""
    wr, wi = _real_eig(H)
    on_axis = np.abs(wr) <= IMAG_AXIS_RTOL * (1.0 + np.hypot(wr, wi))
    return np.abs(wi[on_axis])


def hinf_norm(
    cl: ClosedLoopRealization, rel_tol: float = 1e-6, poles=None, stop=None
) -> HinfResult:
    """H-infinity norm by the level-set iteration on the Hamiltonian test.

    The lower bound starts at the largest of sigma_max(D11), the gain at
    w = 0 and the gain at w = |lam| for each pole lam of A_F. Each round
    takes the imaginary-axis eigenvalues of the Hamiltonian at
    gamma = (1 + rel_tol) * bound (Boyd-Balakrishnan / Bruinsma-Steinbuch)
    and raises the bound to the largest gain at those crossing frequencies
    and at their midpoints. It stops when no crossing remains, which
    certifies the norm within [value, (1 + rel_tol) * value], or when the
    crossings raise no gain above the bound, which makes them rounding
    error rather than gain.

    ``poles`` is the ``_real_eig(A_F)`` pair (real parts, imaginary parts)
    for callers that already hold it; the result does not depend on it.

    ``stop`` is an optional predicate on the lower bound, checked after the
    pole probes and after each raise of the bound. Once it holds, the call
    returns that bound as ``value``: still a gain attained at
    ``peak_frequency``, but possibly below the norm by more than
    ``rel_tol``. ``iterations`` is 0 when it stops at the probe bound. A
    predicate that never holds leaves the result unchanged.

    Raises
    ------
    InstabilityError
        If A_F is not Hurwitz.
    BracketError
        If the iteration has not stopped after 64 rounds (pathological
        conditioning).
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    wr, wi = _real_eig(cl.A_F) if poles is None else poles
    abscissa = float(wr.max())
    if abscissa >= 0:
        raise InstabilityError(f"closed loop is unstable (abscissa {abscissa:.6g})")

    d_norm = float(np.linalg.svd(cl.D11, compute_uv=False)[0]) if cl.D11.any() else 0.0

    probes = np.unique(np.concatenate(([0.0], np.hypot(wr, wi))))
    probe_gains = _max_gains(cl, probes)
    probe_peak = int(np.argmax(probe_gains))
    probe_max = float(probe_gains[probe_peak])

    lo = max(d_norm, probe_max)
    peak_frequency = float(probes[probe_peak]) if probe_max > d_norm else 0.0
    if lo == 0.0 or (stop is not None and stop(lo)):
        # zero gain wherever sampled and no feedthrough, or bound enough for the caller
        return HinfResult(value=lo, peak_frequency=peak_frequency, iterations=0)

    build = _hamiltonian_builder(cl)
    for iterations in range(1, 65):
        freqs = np.unique(_imaginary_axis_freqs(build((1.0 + rel_tol) * lo)))
        if freqs.size == 0:
            break
        candidates = np.concatenate((freqs, 0.5 * (freqs[:-1] + freqs[1:])))
        gains = _max_gains(cl, candidates)
        best = int(np.argmax(gains))
        if gains[best] <= lo:
            break
        lo, peak_frequency = float(gains[best]), float(candidates[best])
        if stop is not None and stop(lo):
            break
    else:
        raise BracketError(f"level-set iteration did not stop in 64 rounds (bound {lo:.6g})")

    return HinfResult(value=lo, peak_frequency=peak_frequency, iterations=iterations)
