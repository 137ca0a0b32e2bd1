import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sofsyn import analysis
from sofsyn.analysis import (
    NORM_REL_TOL,
    FrequencyGrid,
    HinfResult,
    freq_response,
    hinf_norm,
    hinf_norm_grid,
    hinf_norms,
    is_hurwitz,
    spectral_abscissa,
)
from sofsyn.errors import (
    BracketError,
    DimensionMismatchError,
    EigenSolveError,
    InstabilityError,
    NonFiniteEntryError,
    SingularResolventError,
)
from sofsyn.model import ClosedLoopRealization

# ---------------------------------------------------------------------------
# oracles


def charpoly_coeffs(M):
    """Characteristic polynomial by the Faddeev-LeVerrier recursion.

    Pure matrix products and traces; independent of any eigenvalue code.
    Returns coefficients of lambda^n + c1 lambda^(n-1) + ... + cn.
    """
    n = M.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(M)
    for k in range(1, n + 1):
        Mk = M @ Mk + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(M @ Mk) / k)
    return np.array(coeffs)


def abscissa_oracle(M):
    """Spectral abscissa via polynomial roots of the charpoly."""
    return float(np.roots(charpoly_coeffs(M)).real.max())


def lu_solve_oracle(A, b):
    """Complex Gaussian elimination with partial pivoting, hand-rolled."""
    n = A.shape[0]
    U = A.astype(complex).copy()
    x = b.astype(complex).copy()
    perm = list(range(n))
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(U[r, col]))
        if piv != col:
            U[[col, piv]] = U[[piv, col]]
            x[[col, piv]] = x[[piv, col]]
        for row in range(col + 1, n):
            factor = U[row, col] / U[col, col]
            U[row, col:] -= factor * U[col, col:]
            x[row] -= factor * x[col]
    for col in range(n - 1, -1, -1):
        x[col] = (x[col] - U[col, col + 1 :] @ x[col + 1 :]) / U[col, col]
    return x


def stable_random_loop(rng, n_x, n_w=2, n_z=2, margin=0.1, feedthrough=0.0):
    """Random closed loop with abscissa shifted at least `margin` into the LHP."""
    A = rng.standard_normal((n_x, n_x))
    A -= (spectral_abscissa(A) + margin) * np.eye(n_x)
    return ClosedLoopRealization(
        A_F=A,
        B1=rng.standard_normal((n_x, n_w)),
        C_F=rng.standard_normal((n_z, n_x)),
        D11=feedthrough * rng.standard_normal((n_z, n_w)),
    )


FIRST_ORDER_LAG = ClosedLoopRealization(A_F=[[-1.0]], B1=[[1.0]], C_F=[[1.0]], D11=[[0.0]])
RESONANT = ClosedLoopRealization(
    A_F=[[0.0, 1.0], [-1.0, -0.1]], B1=[[0.0], [1.0]], C_F=[[1.0, 0.0]], D11=[[0.0]]
)
# peak gain of 1/(s^2 + 2*zeta*s + 1): 1 / (2 zeta sqrt(1 - zeta^2))
RESONANT_PEAK = 1.0 / (2 * 0.05 * np.sqrt(1 - 0.05**2))


def one_row(cl, stop=None, poles=None):
    """:func:`hinf_norms` of the one stable loop ``cl``: its result or error,
    with ``stop`` a predicate on the loop's lower bound (a float) and
    ``poles`` the ``_real_eig(A_F)`` pair (computed if not given)."""
    wr, wi = analysis._real_eig(cl.A_F) if poles is None else poles
    one_stop = None if stop is None else lambda lo: np.array([bool(stop(float(lo[0])))])
    [res] = hinf_norms(cl.A_F[None], cl.C_F[None], cl.B1, cl.D11, (wr[None], wi[None]), one_stop)
    return res


# ---------------------------------------------------------------------------
# spectral abscissa


def test_abscissa_diagonal():
    assert spectral_abscissa(np.diag([-1.0, -2.0])) == -1.0


def test_abscissa_companion():
    # eigenvalues -1 and -2
    assert spectral_abscissa([[0.0, 1.0], [-2.0, -3.0]]) == pytest.approx(-1.0, abs=1e-12)


def test_abscissa_matches_charpoly_oracle():
    rng = np.random.default_rng(10)
    for _ in range(25):
        M = rng.standard_normal((5, 5))
        assert spectral_abscissa(M) == pytest.approx(abscissa_oracle(M), abs=1e-8)


def test_abscissa_shift_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = rng.standard_normal((6, 6))
        c = float(rng.standard_normal())
        shifted = spectral_abscissa(M + c * np.eye(6))
        assert shifted == pytest.approx(spectral_abscissa(M) + c, abs=1e-9)


def test_abscissa_similarity_property():
    rng = np.random.default_rng(12)
    for _ in range(20):
        M = rng.standard_normal((5, 5))
        T = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        if np.linalg.cond(T) > 50:
            continue
        sim = T @ M @ np.linalg.inv(T)
        assert spectral_abscissa(sim) == pytest.approx(spectral_abscissa(M), abs=1e-6)


def test_abscissa_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        spectral_abscissa(np.zeros((2, 3)))
    with pytest.raises(NonFiniteEntryError):
        spectral_abscissa(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_is_hurwitz():
    assert is_hurwitz(np.diag([-1.0]), 1e-9).hurwitz
    report = is_hurwitz([[0.0, 1.0], [-1.0, 0.0]])
    assert not report.hurwitz and report.abscissa == pytest.approx(0.0, abs=1e-12)
    # double integrator under F = [-1, -2]: eigenvalues -1, -1
    closed = np.array([[0.0, 1.0], [-1.0, -2.0]])
    rep = is_hurwitz(closed)
    assert rep.hurwitz and rep.abscissa == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(ValueError):
        is_hurwitz([[-1.0]], tol=np.nan)


# ---------------------------------------------------------------------------
# frequency response


def test_freq_response_dc_gain():
    G = freq_response(FIRST_ORDER_LAG, 0.0)
    assert G[0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_freq_response_at_one_rad():
    G = freq_response(FIRST_ORDER_LAG, 1.0)
    assert G[0, 0] == pytest.approx(0.5 - 0.5j, abs=1e-14)


def test_freq_response_matches_lu_oracle():
    rng = np.random.default_rng(13)
    cl = stable_random_loop(rng, n_x=4, feedthrough=0.3)
    omega = 2.0
    G = freq_response(cl, omega)
    M = 1j * omega * np.eye(4) - cl.A_F
    X = np.column_stack([lu_solve_oracle(M, cl.B1[:, j]) for j in range(cl.B1.shape[1])])
    expected = cl.C_F @ X + cl.D11
    np.testing.assert_allclose(G, expected, rtol=0, atol=1e-10)


def test_freq_response_singular_resolvent():
    cl = ClosedLoopRealization(
        A_F=[[0.0, 1.0], [-1.0, 0.0]], B1=[[0.0], [1.0]], C_F=[[1.0, 0.0]], D11=[[0.0]]
    )
    with pytest.raises(SingularResolventError):
        freq_response(cl, 1.0)


# ---------------------------------------------------------------------------
# grid oracle


def test_grid_first_order_lag():
    assert hinf_norm_grid(FIRST_ORDER_LAG) == pytest.approx(1.0, abs=1e-6)


def test_grid_pure_feedthrough():
    cl = ClosedLoopRealization(
        A_F=[[-1.0]], B1=[[0.0]], C_F=[[1.0]], D11=[[0.7]]
    )
    assert hinf_norm_grid(cl) == pytest.approx(0.7, abs=1e-12)


def test_grid_resonant_peak():
    assert hinf_norm_grid(RESONANT) == pytest.approx(RESONANT_PEAK, rel=1e-7)


def test_grid_requires_stability():
    cl = ClosedLoopRealization(A_F=[[1.0]], B1=[[1.0]], C_F=[[1.0]], D11=[[0.0]])
    with pytest.raises(InstabilityError):
        hinf_norm_grid(cl)


def test_grid_spec_frequencies():
    freqs = FrequencyGrid(points_per_decade=100).frequencies()
    assert freqs[0] == 0.0
    assert freqs.size == 1 + 100 * 8 + 1
    assert freqs[1] == pytest.approx(1e-4)
    assert freqs[-1] == pytest.approx(1e4)


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"omega_min": 0.0}, "omega_min"),
        ({"omega_min": 1e2, "omega_max": 1e-2}, "omega_max"),
        ({"omega_max": np.inf}, "omega_max"),
        ({"points_per_decade": 0}, "points_per_decade"),
        ({"points_per_decade": True}, "points_per_decade"),
    ],
)
def test_grid_spec_rejects_bad_fields(fields, name):
    with pytest.raises(ValueError, match=name):
        FrequencyGrid(**fields)


# ---------------------------------------------------------------------------
# level-set norm


def test_hinf_first_order_lag():
    res = hinf_norm(FIRST_ORDER_LAG)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert res.peak_frequency == 0.0
    assert res.iterations > 0


def test_hinf_feedthrough_shifted_lag():
    cl = ClosedLoopRealization(A_F=[[-1.0]], B1=[[1.0]], C_F=[[1.0]], D11=[[0.5]])
    res = hinf_norm(cl)
    assert res.value == pytest.approx(1.5, abs=1e-6)
    assert res.peak_frequency == 0.0


def test_hinf_resonant_peak_location():
    res = hinf_norm(RESONANT)
    assert res.value == pytest.approx(RESONANT_PEAK, rel=1e-6)
    # peak at omega^2 = 1 - 2 zeta^2
    assert res.peak_frequency == pytest.approx(np.sqrt(1 - 2 * 0.05**2), rel=1e-3)


def test_hinf_pure_feedthrough_returns_d_norm():
    cl = ClosedLoopRealization(A_F=[[-2.0]], B1=[[0.0]], C_F=[[1.0]], D11=[[0.7]])
    res = hinf_norm(cl)
    assert res.value == pytest.approx(0.7, rel=1e-6)


def test_hinf_zero_system():
    cl = ClosedLoopRealization(A_F=[[-1.0]], B1=[[0.0]], C_F=[[1.0]], D11=[[0.0]])
    assert hinf_norm(cl).value == 0.0


def test_hinf_requires_stability():
    cl = ClosedLoopRealization(A_F=[[0.1]], B1=[[1.0]], C_F=[[1.0]], D11=[[0.0]])
    with pytest.raises(InstabilityError):
        hinf_norm(cl)


def test_norms_refuse_a_loop_within_the_stability_margin():
    """Both norms call a loop Hurwitz by is_hurwitz's rule: an abscissa of
    -5e-10 is inside the margin, so they refuse it rather than report 2e9."""
    cl = ClosedLoopRealization(A_F=[[-5e-10]], B1=[[1.0]], C_F=[[1.0]], D11=[[0.0]])
    assert not is_hurwitz(cl.A_F).hurwitz
    for norm in (hinf_norm, hinf_norm_grid):
        with pytest.raises(InstabilityError, match="unstable"):
            norm(cl)


def test_hinf_agrees_with_grid_oracle():
    rng = np.random.default_rng(14)
    for k in range(12):
        n_x = 2 + k % 5
        cl = stable_random_loop(rng, n_x, feedthrough=0.2 if k % 3 == 0 else 0.0)
        value = hinf_norm(cl).value
        grid = hinf_norm_grid(cl)
        assert abs(value - grid) <= max(1e-3 * value, 1e-4)
        # oracle sandwich: the grid estimate never exceeds the certified value
        assert grid <= value * (1 + 1e-6) + 1e-12


def test_hinf_output_scaling_property():
    rng = np.random.default_rng(15)
    cl = stable_random_loop(rng, n_x=4)
    base = hinf_norm(cl).value
    for k in (0.5, 3.0, 10.0):
        scaled = ClosedLoopRealization(
            A_F=cl.A_F, B1=cl.B1, C_F=k * cl.C_F, D11=cl.D11
        )
        assert hinf_norm(scaled).value == pytest.approx(k * base, rel=1e-6)


def test_hinf_value_at_least_d_norm():
    rng = np.random.default_rng(16)
    for _ in range(10):
        cl = stable_random_loop(rng, n_x=3, feedthrough=1.0)
        d_norm = np.linalg.svd(cl.D11, compute_uv=False)[0]
        assert hinf_norm(cl).value >= d_norm - 1e-12


@pytest.mark.parametrize("zeta", [1e-4, 1e-5])
@pytest.mark.parametrize("omega0", [0.1, 1.0, 30.0])
def test_hinf_lightly_damped_closed_form(zeta, omega0):
    cl = ClosedLoopRealization(
        A_F=[[0.0, 1.0], [-(omega0**2), -2 * zeta * omega0]],
        B1=[[0.0], [omega0**2]],
        C_F=[[1.0, 0.0]],
        D11=[[0.0]],
    )
    exact = 1.0 / (2 * zeta * np.sqrt(1 - zeta**2))
    assert abs(hinf_norm(cl).value - exact) <= NORM_REL_TOL * exact


@pytest.mark.parametrize("feedthrough", [0.0, 0.3])
def test_hinf_near_marginal_agrees_with_fine_grid(feedthrough):
    # a pole this close to the axis leaves Hamiltonian eigenvalues that the
    # on-axis test counts as crossings at every gamma
    fine = FrequencyGrid(omega_min=1e-5, omega_max=1e5, points_per_decade=2000)
    rng = np.random.default_rng(17)
    for k in range(10):
        cl = stable_random_loop(rng, 2 + k % 5, margin=1e-7, feedthrough=feedthrough)
        value = hinf_norm(cl).value
        assert abs(value - hinf_norm_grid(cl, fine)) <= NORM_REL_TOL * value, f"loop {k}"


def test_hinf_value_is_attained_at_peak_frequency():
    rng = np.random.default_rng(18)
    for k in range(15):
        cl = stable_random_loop(rng, 2 + k % 5, feedthrough=(0.0, 0.3, 3.0)[k % 3])
        res = hinf_norm(cl)
        d_norm = np.linalg.svd(cl.D11, compute_uv=False)[0]
        gain = np.linalg.svd(freq_response(cl, res.peak_frequency), compute_uv=False)[0]
        assert res.value == pytest.approx(max(d_norm, gain), rel=1e-12, abs=0)


def test_hinf_feedthrough_bound_has_zero_peak_frequency():
    # s / (s + 1): the gain rises towards sigma_max(D11) = 1 and never reaches it
    cl = ClosedLoopRealization(A_F=[[-1.0]], B1=[[1.0]], C_F=[[-1.0]], D11=[[1.0]])
    res = hinf_norm(cl)
    assert res.value == 1.0
    assert res.peak_frequency == 0.0


def test_hinf_round_cap_raises_bracket_error(monkeypatch):
    # a crossing that never goes away and a gain that rises every round
    rises = iter(range(1, 1000))
    poles = analysis._real_eig(FIRST_ORDER_LAG.A_F)
    monkeypatch.setattr(analysis, "dgeev", lambda H: (np.zeros((len(H), 1)), np.ones((len(H), 1))))
    monkeypatch.setattr(
        analysis, "_max_gains", lambda A_F, C_F, B1, D11, w: np.full(w.size, next(rises), float)
    )
    assert isinstance(one_row(FIRST_ORDER_LAG, poles=poles), BracketError)
    assert next(rises) == 66  # the probe call plus 64 rounds


def test_hinf_given_poles_change_no_bit():
    rng = np.random.default_rng(23)
    for k in range(20):
        cl = stable_random_loop(rng, 2 + k % 7, feedthrough=(0.0, 0.3)[k % 2])
        assert one_row(cl, poles=analysis._real_eig(cl.A_F)) == hinf_norm(cl)


def test_hinf_stop_returns_an_attained_lower_bound():
    """A stop test ends the call at the first bound it accepts: a gain
    attained at ``peak_frequency`` and at most the full value. The test is
    applied after every round, the pole probes of round 0 included, and a
    test that never holds changes no bit."""
    rng = np.random.default_rng(24)
    for k in range(15):
        cl = stable_random_loop(rng, 2 + k % 5, feedthrough=(0.0, 0.3, 3.0)[k % 3])
        full = hinf_norm(cl)
        assert one_row(cl, stop=lambda lo: False) == full
        assert one_row(cl, stop=lambda lo: True).iterations == 0
        d_norm = np.linalg.svd(cl.D11, compute_uv=False)[0]
        for fraction in (0.0, 0.5, 0.9, 0.999, 1.0):
            seen = []
            res = one_row(cl, stop=lambda lo: seen.append(lo) or lo >= fraction * full.value)
            assert seen == sorted(seen) and seen[-1] == res.value
            assert fraction * full.value <= res.value <= full.value
            gain = np.linalg.svd(freq_response(cl, res.peak_frequency), compute_uv=False)[0]
            assert res.value == pytest.approx(max(d_norm, gain), rel=1e-12, abs=0)
        # stopping at the full value skips only the round that certifies it
        assert res.iterations == full.iterations - 1


def test_hinf_zero_feedthrough_skips_its_svd(monkeypatch):
    """sigma_max(D11) is taken only when D11 has a nonzero entry; a zero D11
    bounds the norm by exactly 0.0 either way, so no bit changes."""
    svd = np.linalg.svd
    matrix_svds = []

    def counting(a, *args, **kwargs):
        matrix_svds.append(np.ndim(a) == 2)
        return svd(a, *args, **kwargs)

    rng = np.random.default_rng(25)
    for k in range(10):
        cl = stable_random_loop(rng, 2 + k % 5, feedthrough=(0.0, 0.3)[k % 2])
        poles = analysis._real_eig(cl.A_F)
        matrix_svds.clear()
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", counting)
            res = hinf_norm(cl)
        assert sum(matrix_svds) == (1 if k % 2 else 0)
        assert res == one_row(cl, poles=poles)
    zero_gain = ClosedLoopRealization(A_F=[[-1.0]], B1=[[1.0]], C_F=[[0.0]], D11=[[0.0]])
    assert hinf_norm(zero_gain) == HinfResult(value=0.0, peak_frequency=0.0, iterations=0)


def test_hinf_real_poles_with_dc_zero():
    # s / (s + 1)^2: zero gain at w = 0 and a peak of 1/2 at w = 1 = |pole|
    cl = ClosedLoopRealization(
        A_F=[[0.0, 1.0], [-1.0, -2.0]], B1=[[0.0], [1.0]], C_F=[[0.0, 1.0]], D11=[[0.0]]
    )
    res = hinf_norm(cl)
    assert res.value == pytest.approx(0.5, rel=1e-6)
    assert res.peak_frequency == pytest.approx(1.0, rel=1e-3)


# ---------------------------------------------------------------------------
# lockstep batches: every row as if alone


def stable_random_batch(rng, n_x, rows, feedthrough=0.0, n_w=2, n_z=2):
    """(A_F, C_F, B1, D11) of `rows` stable loops that share B1 and D11."""
    A_F = rng.standard_normal((rows, n_x, n_x))
    for A in A_F:
        A -= (spectral_abscissa(A) + 10.0 ** rng.uniform(-3, 0)) * np.eye(n_x)
    C_F = rng.standard_normal((rows, n_z, n_x))
    return A_F, C_F, rng.standard_normal((n_x, n_w)), feedthrough * rng.standard_normal((n_z, n_w))


def _loops(A_F, C_F, B1, D11):
    return [ClosedLoopRealization(A, B1, C, D11) for A, C in zip(A_F, C_F)]


def _alone(A_F, C_F, B1, D11):
    return [hinf_norm(cl) for cl in _loops(A_F, C_F, B1, D11)]


def reference_hinf_norm(cl, stop=None):
    """The level-set iteration on one loop, written as a plain loop with
    np.unique and one Hamiltonian at a time: the arithmetic the lockstep
    rows must reproduce bit for bit."""
    A, B, C, D = cl.A_F, cl.B1, cl.C_F, cl.D11

    def gains(omegas):
        M = 1j * omegas[:, None, None] * np.eye(len(A)) - A
        X = np.linalg.solve(M, np.broadcast_to(B.astype(complex), (omegas.size, *B.shape)))
        return np.linalg.svd(C @ X + D, compute_uv=False)[..., 0]

    def hamiltonian(gamma):
        if not D.any():
            return np.block([[A, B @ B.T / (gamma * gamma)], [-(C.T @ C), -A.T]])
        DT = D.T.copy()
        R = gamma * gamma * np.eye(B.shape[1]) - DT @ D
        Rinv_DT = np.linalg.solve(R, DT)
        Acl = A + B @ (Rinv_DT @ C)
        lower = -C.T @ ((np.eye(C.shape[0]) + D @ Rinv_DT) @ C)
        return np.block([[Acl, B @ np.linalg.solve(R, B.T.copy())], [lower, -Acl.T]])

    wr, wi = analysis._real_eig(A)
    d_norm = float(np.linalg.svd(D, compute_uv=False)[0]) if D.any() else 0.0
    probes = np.unique(np.concatenate(([0.0], np.hypot(wr, wi))))
    g = gains(probes)
    k = int(np.argmax(g))
    lo = max(d_norm, float(g[k]))
    peak = float(probes[k]) if g[k] > d_norm else 0.0
    if lo == 0.0 or (stop is not None and stop(lo)):
        return HinfResult(lo, peak, 0)
    for iterations in range(1, 65):
        wr, wi = analysis._real_eig(hamiltonian((1.0 + NORM_REL_TOL) * lo))
        on_axis = np.abs(wr) <= analysis.IMAG_AXIS_RTOL * (1.0 + np.hypot(wr, wi))
        freqs = np.unique(np.abs(wi[on_axis]))
        if freqs.size == 0:
            break
        candidates = np.concatenate((freqs, 0.5 * (freqs[:-1] + freqs[1:])))
        g = gains(candidates)
        k = int(np.argmax(g))
        if g[k] <= lo:
            break
        lo, peak = float(g[k]), float(candidates[k])
        if stop is not None and stop(lo):
            break
    else:
        raise BracketError("level-set iteration did not stop in 64 rounds")
    return HinfResult(lo, peak, iterations)


def test_hinf_norms_rows_match_hinf_norm_alone():
    """Each row of a lockstep batch has the value, peak frequency and
    iteration count, bit for bit, that hinf_norm gives its loop alone and
    that the per-loop reference gives: rows that certify, rows stopped at
    the probe bound or after a raise, and rows that finish in different
    rounds."""
    rng = np.random.default_rng(27)
    finished_in = set()
    stopped = certified = 0
    for k, n_x in enumerate((1, 2, 3, 4, 6, 8, 12, 16) * 2):
        A_F, C_F, B1, D11 = stable_random_batch(rng, n_x, 6, feedthrough=(0.0, 0.3)[k % 2])
        full = _alone(A_F, C_F, B1, D11)
        # stop never, at the probe bound, or part of the way up
        limits = [np.inf, 0.0, *rng.uniform(0.5, 1.0, 4)] * np.array([r.value for r in full])
        poles = analysis.dgeev(A_F)
        batch = hinf_norms(A_F, C_F, B1, D11, poles, stop=lambda lo: lo >= limits)
        for A, C, limit, exact, res in zip(A_F, C_F, limits, full, batch):
            cl = ClosedLoopRealization(A, B1, C, D11)
            assert repr(res) == repr(one_row(cl, stop=lambda lo: lo >= limit))
            assert repr(res) == repr(reference_hinf_norm(cl, stop=lambda lo: lo >= limit))
            stopped += res.iterations < exact.iterations
            certified += repr(res) == repr(exact)
        assert repr(hinf_norms(A_F, C_F, B1, D11, poles)) == repr(full)
        assert repr(full) == repr([reference_hinf_norm(cl) for cl in _loops(A_F, C_F, B1, D11)])
        finished_in.add(tuple(r.iterations for r in full))
    assert stopped > 10 and certified > 10
    assert any(len(set(rounds)) > 1 for rounds in finished_in)


def test_hinf_norms_unstable_or_nonfinite_row_fails_alone():
    """hinf_norm refuses an unstable loop; hinf_norms takes stable rows
    only, and a row whose C_F is not finite fails alone."""
    rng = np.random.default_rng(28)
    A_F, C_F, B1, D11 = stable_random_batch(rng, 3, 5, feedthrough=0.3)
    with pytest.raises(InstabilityError):
        hinf_norm(ClosedLoopRealization(A_F[1] + 20.0 * np.eye(3), B1, C_F[1], D11))
    C_F[3, 0, 1] = np.inf
    batch = hinf_norms(A_F, C_F, B1, D11, analysis.dgeev(A_F))
    assert isinstance(batch[3], NonFiniteEntryError)
    kept = [0, 1, 2, 4]
    assert repr([batch[r] for r in kept]) == repr(_alone(A_F[kept], C_F[kept], B1, D11))


def test_hinf_norms_failing_eigensolve_fails_only_its_row(monkeypatch):
    rng = np.random.default_rng(29)
    A_F, C_F, B1, D11 = stable_random_batch(rng, 4, 5)
    alone = _alone(A_F, C_F, B1, D11)
    dgeev = analysis.dgeev
    poles = dgeev(A_F)

    def failing(M):
        # D11 = 0, so a Hamiltonian's leading block is its row's A_F
        if M.shape[1] == 8 and any(np.array_equal(H[:4, :4], A_F[2]) for H in M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return dgeev(M)

    monkeypatch.setattr(analysis, "dgeev", failing)
    batch = hinf_norms(A_F, C_F, B1, D11, poles)
    assert isinstance(batch[2], EigenSolveError)
    assert repr(batch[:2] + batch[3:]) == repr(alone[:2] + alone[3:])


def test_singular_gain_solve_fails_only_its_row(monkeypatch):
    """A stacked gain solve that fails is redone one frequency at a time:
    the loop whose resolvents fail alone fails as SingularResolventError, in
    hinf_norms, hinf_norm and the grid oracle, and the other rows keep
    their bits."""
    rng = np.random.default_rng(37)
    A_F, C_F, B1, D11 = stable_random_batch(rng, 4, 5)
    alone = _alone(A_F, C_F, B1, D11)
    poles = analysis.dgeev(A_F)
    solve = np.linalg.solve

    def failing(a, b):
        # D11 = 0, so every solve is of resolvents jwI - A_F; row 2's fail
        if any(np.array_equal(-M.real, A_F[2]) for M in a):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing)
    batch = hinf_norms(A_F, C_F, B1, D11, poles)
    assert isinstance(batch[2], SingularResolventError)
    assert repr(batch[:2] + batch[3:]) == repr(alone[:2] + alone[3:])
    cl = ClosedLoopRealization(A_F[2], B1, C_F[2], D11)
    for norm in (hinf_norm, hinf_norm_grid):
        with pytest.raises(SingularResolventError):
            norm(cl)


def test_hinf_norms_endless_rise_fails_only_its_row(monkeypatch):
    rng = np.random.default_rng(30)
    A_F, C_F, B1, D11 = stable_random_batch(rng, 4, 5)
    alone = _alone(A_F, C_F, B1, D11)
    dgeev, max_gains = analysis.dgeev, analysis._max_gains
    poles = dgeev(A_F)
    rises = iter(range(1, 1000))
    rounds = []

    def crossing(M):
        # row 3's Hamiltonians always cross the axis at w = 1
        wr, wi = dgeev(M)
        row3 = np.array([M.shape[1] == 8 and np.array_equal(H[:4, :4], A_F[3]) for H in M])
        rounds.extend(row3[row3])
        return np.where(row3[:, None], 0.0, wr), np.where(row3[:, None], 1.0, wi)

    def rising(A, C, B, D, w):
        # and its gain there rises every round
        gains = max_gains(A, C, B, D, w)
        gains[(A == A_F[3]).all(axis=(1, 2))] = next(rises)
        return gains

    monkeypatch.setattr(analysis, "dgeev", crossing)
    monkeypatch.setattr(analysis, "_max_gains", rising)
    batch = hinf_norms(A_F, C_F, B1, D11, poles)
    assert isinstance(batch[3], BracketError) and len(rounds) == 64
    assert repr(batch[:3] + batch[4:]) == repr(alone[:3] + alone[4:])


# ---------------------------------------------------------------------------
# gain sweeps in bounded chunks


def _sweep_cases(rng):
    """Batches of six loops at several n_x, without and with D11."""
    for n_x in (1, 3, 8, 16):
        for feedthrough in (0.0, 0.3):
            yield stable_random_batch(rng, n_x, 6, feedthrough=feedthrough)


def test_chunked_sweeps_change_no_bit(monkeypatch):
    """Sweeping one resolvent per stacked call gives the grid oracle and
    the lockstep norms the bits of the unchunked sweep."""

    def run():
        grids, norms = [], []
        for A_F, C_F, B1, D11 in _sweep_cases(np.random.default_rng(38)):
            grids += [hinf_norm_grid(cl).hex() for cl in _loops(A_F, C_F, B1, D11)[:2]]
            norms.append(repr(hinf_norms(A_F, C_F, B1, D11, analysis.dgeev(A_F))))
        return grids, norms

    monkeypatch.setattr(analysis, "SWEEP_ENTRIES", 2**62)
    unchunked = run()
    monkeypatch.setattr(analysis, "SWEEP_ENTRIES", 1)
    assert run() == unchunked


def test_singular_gain_in_a_chunk_fails_only_its_frequency(monkeypatch):
    """A resolvent that fails inside a chunk of three fails alone: its
    gain is NaN, every other gain of the sweep keeps its bits, and only its
    loop fails in hinf_norms and the grid oracle."""
    rng = np.random.default_rng(39)
    A_F, C_F, B1, D11 = stable_random_batch(rng, 4, 5)
    alone = _alone(A_F, C_F, B1, D11)
    poles = analysis.dgeev(A_F)
    loops = np.repeat(np.arange(5), 4)
    omegas = np.tile([0.5, 1.0, 0.0, 2.0], 5)  # row 2 at w = 0 is mid-chunk
    clean = analysis._sweep(A_F, C_F, B1, D11, omegas, loops)
    solve = np.linalg.solve

    def failing(a, b):
        # row 2's resolvent at w = 0 is singular
        if any(np.array_equal(M, -A_F[2].astype(complex)) for M in a):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(analysis, "SWEEP_ENTRIES", 3 * 4**2)
    monkeypatch.setattr(np.linalg, "solve", failing)
    gains = analysis._sweep(A_F, C_F, B1, D11, omegas, loops)
    bad = (loops == 2) & (omegas == 0.0)
    assert np.isnan(gains[bad]).all() and gains[~bad].tobytes() == clean[~bad].tobytes()
    batch = hinf_norms(A_F, C_F, B1, D11, poles)
    assert isinstance(batch[2], SingularResolventError) and "omega=0.0" in str(batch[2])
    assert repr(batch[:2] + batch[3:]) == repr(alone[:2] + alone[3:])
    with pytest.raises(SingularResolventError, match="omega=0.0"):
        hinf_norm_grid(ClosedLoopRealization(A_F[2], B1, C_F[2], D11))
    assert hinf_norm_grid(ClosedLoopRealization(A_F[1], B1, C_F[1], D11)) > 0


def test_sweeps_hold_at_most_the_bound(monkeypatch):
    """At n_x = 48 every stacked resolvent solve and gain SVD of the grid
    oracle, the pole probes and the level-set rounds holds at most
    max(1, SWEEP_ENTRIES // n_x**2) frequencies, and each of those sweeps
    is longer than one chunk."""
    n_x = 48
    bound = max(1, analysis.SWEEP_ENTRIES // n_x**2)
    solve, svd, dgeev = np.linalg.solve, np.linalg.svd, analysis.dgeev
    stage = [[]]

    def counting(f):
        def wrapped(a, *args, **kwargs):
            if np.iscomplexobj(a) and np.ndim(a) == 3:
                stage[-1].append(len(a))
            return f(a, *args, **kwargs)

        return wrapped

    def each_round(M):
        stage.append([])
        return dgeev(M)

    monkeypatch.setattr(np.linalg, "solve", counting(solve))
    monkeypatch.setattr(np.linalg, "svd", counting(svd))
    rng = np.random.default_rng(40)
    A_F, C_F, B1, D11 = stable_random_batch(rng, n_x, 12)
    hinf_norm_grid(ClosedLoopRealization(A_F[0], B1, C_F[0], D11))
    assert max(stage[0]) <= bound and sum(stage[0]) > 2 * 3201
    stage[:] = [[]]
    poles = dgeev(A_F)
    monkeypatch.setattr(analysis, "dgeev", each_round)
    results = hinf_norms(A_F, C_F, B1, D11, poles)
    assert all(isinstance(res, HinfResult) for res in results)
    probes, rounds = stage[0], sum(stage[1:], [])
    assert max(probes + rounds) <= bound
    assert sum(probes) > 2 * bound and max(map(sum, stage[1:])) > 2 * bound


def _stacks_to_solve(rng):
    """Closed loops at n = 1-64 and their Hamiltonians (n = 2-64), without
    and with D11, as stacks of five matrices."""
    for n_x in range(1, 65):
        yield stable_random_batch(rng, n_x, 5)[0]
    for n_x in range(1, 33):
        for feedthrough in (0.0, 0.3):
            A_F, C_F, B1, D11 = stable_random_batch(rng, n_x, 5, feedthrough=feedthrough)
            d_norm = np.linalg.svd(D11, compute_uv=False)[0]
            g2 = (d_norm + 10.0 ** rng.uniform(-2, 1, 5)) ** 2
            yield analysis._hamiltonians(A_F, C_F, B1, D11, g2[:, None, None])


def test_dgeev_stack_matches_per_matrix_calls():
    """One stacked eigensolve gives every matrix the bits, in the same
    order, that a call on that matrix alone gives it."""
    rng = np.random.default_rng(33)
    for M in _stacks_to_solve(rng):
        wr, wi = analysis.dgeev(M)
        for r in range(len(M)):
            wr1, wi1 = analysis.dgeev(M[r:r + 1])
            assert wr[r].tobytes() == wr1[0].tobytes() and wi[r].tobytes() == wi1[0].tobytes()


def test_dgeev_matches_scipy_lapack_dgeev():
    """The numpy route returns the eigenvalues scipy's LAPACK wrapper
    returns, bit for bit and in order."""
    lapack = pytest.importorskip("scipy.linalg.lapack")
    rng = np.random.default_rng(34)
    for M in _stacks_to_solve(rng):
        wr, wi = analysis.dgeev(M)
        for r, H in enumerate(M):
            ref_wr, ref_wi, _, _, info = lapack.dgeev(H, compute_vl=0, compute_vr=0)
            assert info == 0
            assert wr[r].tobytes() == ref_wr.tobytes() and wi[r].tobytes() == ref_wi.tobytes()


def test_failing_or_nonfinite_matrix_fails_only_its_row():
    """A stack that fails is redone one matrix at a time: a matrix with a
    non-finite entry (which numpy refuses) fails alone, as NaN rows, and
    the other matrices keep their bits."""
    rng = np.random.default_rng(35)
    A_F = stable_random_batch(rng, 4, 4)[0]
    H = A_F.copy()
    H[2, 0, 1] = np.inf
    wr, wi = analysis._spectra(H)
    assert np.isnan(wr[2]).all() and np.isnan(wi[2]).all()
    kept = [0, 1, 3]
    ref_wr, ref_wi = analysis.dgeev(A_F[kept])
    assert wr[kept].tobytes() == ref_wr.tobytes() and wi[kept].tobytes() == ref_wi.tobytes()
    with pytest.raises(EigenSolveError):
        analysis._real_eig(H[2])


def test_hinf_norms_nonfinite_hamiltonian_is_not_certified():
    # finite A_F and C_F whose C'C overflows: the Hamiltonian has -inf entries
    A_F, C_F, B1, D11 = stable_random_batch(np.random.default_rng(36), 3, 3)
    C_F[1] *= 1e160
    batch = hinf_norms(A_F, C_F, B1, D11, analysis.dgeev(A_F))
    assert isinstance(batch[1], EigenSolveError)
    kept = [0, 2]
    assert repr([batch[r] for r in kept]) == repr(_alone(A_F[kept], C_F[kept], B1, D11))


def test_import_loads_no_scipy():
    """The package needs numpy alone: importing it, its command line and its
    campaigns loads no scipy module."""
    src = str(Path(analysis.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, sofsyn, sofsyn.cli, sofsyn.campaign; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# adversarial loops: the norm is never below the fine grid by more than NORM_REL_TOL


def fine_grid_norm(cl):
    """Grid oracle at 2000 points per decade on [1e-5, 1e5], one decade at a
    time, so the sampled peak of every decade gets its own golden-section
    refinement."""
    return max(
        hinf_norm_grid(cl, FrequencyGrid(10.0**d, 10.0 ** (d + 1), 2000)) for d in range(-5, 5)
    )


def test_hinf_near_feedthrough_bound_agrees_with_fine_grid():
    # the norm within 1e-6 relative of sigma_max(D11): R = gamma^2 I - D11'D11
    # is nearly singular at every gamma the loop tries
    rng = np.random.default_rng(19)
    for k in range(30):
        cl = stable_random_loop(rng, 2 + k % 5, feedthrough=1.0)
        d_norm = np.linalg.svd(cl.D11, compute_uv=False)[0]
        dynamic = hinf_norm_grid(ClosedLoopRealization(cl.A_F, cl.B1, cl.C_F, 0 * cl.D11))
        eps = 10.0 ** rng.uniform(-9, -6) * d_norm / dynamic
        cl = ClosedLoopRealization(cl.A_F, eps * cl.B1, cl.C_F, cl.D11)
        value = hinf_norm(cl).value
        assert value <= (1 + 1e-6) * d_norm, f"loop {k} is not near sigma_max(D11)"
        assert fine_grid_norm(cl) <= (1 + NORM_REL_TOL) * value, f"seed 19, loop {k}"


def test_hinf_badly_scaled_agrees_with_fine_grid():
    # T A T^-1, T B, C T^-1 for a diagonal T spanning 1e6: same transfer
    # matrix, much larger ||H||
    rng = np.random.default_rng(20)
    for k in range(30):
        n_x = 2 + k % 7
        cl = stable_random_loop(rng, n_x, feedthrough=(0.0, 0.3)[k % 2])
        T = 10.0 ** rng.uniform(0, 6, n_x)
        T[rng.permutation(n_x)[:2]] = (1.0, 1e6)
        scaled = ClosedLoopRealization(
            T[:, None] * cl.A_F / T, T[:, None] * cl.B1, cl.C_F / T, cl.D11
        )
        value = hinf_norm(scaled).value
        assert fine_grid_norm(cl) <= (1 + NORM_REL_TOL) * value, f"seed 20, loop {k}"


def test_hinf_large_loops_agree_with_fine_grid():
    rng = np.random.default_rng(21)
    for k in range(20):
        cl = stable_random_loop(rng, (8, 16, 24, 32)[k % 4], feedthrough=(0.0, 0.3)[k % 2])
        value = hinf_norm(cl).value
        assert fine_grid_norm(cl) <= (1 + NORM_REL_TOL) * value, f"seed 21, loop {k}"
