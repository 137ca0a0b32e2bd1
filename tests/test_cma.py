import math

import numpy as np
import pytest
from scipy.linalg import fractional_matrix_power

from sofsyn.cma import (
    EIG_FLOOR_REL,
    SIGMA_MAX,
    SIGMA_RESET,
    CmaParams,
    default_params,
    enforce_spd,
    init_state,
    maybe_reset,
    refresh_basis,
    sample_population,
    update_covariance,
    update_mean,
    update_paths,
    update_step_size,
)
from sofsyn.errors import EigenSolveError


def hand_params(n):
    """Hand evaluation of every strategy-constant formula, written out
    independently of the implementation."""
    p = 4 + math.floor(3 * math.log(n))
    mu = p // 2
    raw = [math.log((p + 1) / 2) - math.log(i) for i in range(1, mu + 1)]
    s = math.fsum(raw)
    weights = [w / s for w in raw]
    mu_eff = 1 / math.fsum(w * w for w in weights)
    c_sigma = (mu_eff + 2) / (n + mu_eff + 5)
    c_c = (4 + mu_eff / n) / (n + 4 + 2 * mu_eff / n)
    c_1 = 2 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1 - c_1, (0.5 + 2 * mu_eff + 2 / mu_eff - 4) / ((n + 2) ** 2 + mu_eff))
    d_sigma = 1 + 2 * max(0.0, math.sqrt((mu_eff - 1) / (n + 1)) - 1) + c_sigma
    chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n * n))
    return dict(p=p, mu=mu, weights=weights, mu_eff=mu_eff, c_sigma=c_sigma,
                c_c=c_c, c_1=c_1, c_mu=c_mu, d_sigma=d_sigma, chi_n=chi_n)


class ZeroRng:
    """Stand-in generator returning zero perturbations."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def make_params(n, p, mu, weights, **rates):
    defaults = dict(mu_eff=1.0 / float(np.sum(np.asarray(weights) ** 2)),
                    c_sigma=0.3, c_c=0.3, c_1=0.1, c_mu=0.2, d_sigma=1.3,
                    chi_n=math.sqrt(n))
    defaults.update(rates)
    return CmaParams(n=n, p=p, mu=mu, weights=np.asarray(weights, dtype=float), **defaults)


# ---------------------------------------------------------------------------
# parameter defaults


@pytest.mark.parametrize("n,expected_p,expected_mu", [
    (1, 4, 2), (2, 6, 3), (4, 8, 4), (10, 10, 5), (20, 12, 6), (110, 18, 9),
])
def test_population_sizes(n, expected_p, expected_mu):
    params = default_params(n)
    assert params.p == expected_p
    assert params.mu == expected_mu


@pytest.mark.parametrize("n", [1, 2, 4, 10, 20, 110])
def test_defaults_match_hand_formulas(n):
    params = default_params(n)
    hand = hand_params(n)
    assert params.p == hand["p"] and params.mu == hand["mu"]
    np.testing.assert_allclose(params.weights, hand["weights"], rtol=1e-12, atol=0)
    for key in ("mu_eff", "c_sigma", "c_c", "c_1", "c_mu", "d_sigma", "chi_n"):
        assert getattr(params, key) == pytest.approx(hand[key], rel=1e-12), key


@pytest.mark.parametrize("n", [1, 2, 4, 10, 20, 110])
def test_weight_invariants(n):
    params = default_params(n)
    assert params.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (params.weights > 0).all()
    assert (np.diff(params.weights) <= 0).all()
    assert 1.0 <= params.mu_eff <= params.mu
    assert params.c_1 + params.c_mu * params.weights.sum() <= 1.0 + 1e-12


def test_chi_n_formula_value():
    # sqrt(10) * (1 - 1/40 + 1/2100); the exact E||N(0,I_10)|| is 3.08437
    params = default_params(10)
    assert params.chi_n == pytest.approx(3.0847272, abs=1e-6)
    exact = math.sqrt(2) * math.gamma(5.5) / math.gamma(5.0)
    assert abs(params.chi_n - exact) < 5e-4


# ---------------------------------------------------------------------------
# sampling


def test_sampling_zero_perturbation_returns_mean():
    state = init_state(np.array([1.0, -2.0, 3.0]))
    params = default_params(3)
    cands = sample_population(state, params, ZeroRng())
    assert cands.shape == (params.p, 3)
    np.testing.assert_array_equal(cands, np.tile(state.mean, (params.p, 1)))


def test_sampling_deterministic_for_seed():
    state = init_state(np.zeros(4), 0.5)
    params = default_params(4)
    a = sample_population(state, params, np.random.default_rng(99))
    b = sample_population(state, params, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)


def test_sampling_monte_carlo_moments():
    n = 3
    state = init_state(np.zeros(n), 0.3)
    params = default_params(n)
    rng = np.random.default_rng(123)
    samples = sample_population(state, params, rng, count=100_000)
    se = 0.3 / math.sqrt(samples.shape[0])
    assert np.all(np.abs(samples.mean(axis=0)) < 4 * se)
    cov = np.cov(samples.T)
    np.testing.assert_allclose(cov, 0.09 * np.eye(n), atol=0.05 * 0.09)


def test_sampling_respects_covariance_shape():
    n = 2
    state = init_state(np.zeros(n), 1.0)
    state.cov = np.array([[4.0, 0.0], [0.0, 0.25]])
    refresh_basis(state)
    rng = np.random.default_rng(7)
    samples = sample_population(state, params := default_params(n), rng, count=50_000)
    var = samples.var(axis=0)
    assert var[0] == pytest.approx(4.0, rel=0.05)
    assert var[1] == pytest.approx(0.25, rel=0.05)


# ---------------------------------------------------------------------------
# mean update


def test_update_mean_convex_combination():
    params = make_params(2, 4, 2, [0.75, 0.25])
    mean = update_mean(np.array([[1.0, 0.0], [0.0, 1.0]]), params)
    np.testing.assert_allclose(mean, [0.75, 0.25], rtol=0, atol=1e-15)


def test_update_mean_identical_candidates():
    params = default_params(3)
    v = np.array([2.0, -1.0, 0.5])
    mean = update_mean(np.tile(v, (params.mu, 1)), params)
    np.testing.assert_allclose(mean, v, rtol=1e-15)


def test_update_mean_matches_fsum_oracle():
    rng = np.random.default_rng(30)
    params = default_params(6)
    cands = rng.standard_normal((params.mu, 6))
    mean = update_mean(cands, params)
    for j in range(6):
        expected = math.fsum(params.weights[i] * cands[i, j] for i in range(params.mu))
        assert mean[j] == pytest.approx(expected, rel=1e-13, abs=1e-15)


# ---------------------------------------------------------------------------
# path updates


def test_paths_zero_step_decays():
    state = init_state(np.zeros(3))
    state.path_sigma = np.array([1.0, 2.0, 3.0])
    state.path_cov = np.array([-1.0, 0.5, 0.0])
    params = default_params(3)
    p_sigma, p_cov, _ = update_paths(state, state.mean.copy(), params)
    np.testing.assert_allclose(p_sigma, (1 - params.c_sigma) * state.path_sigma, rtol=1e-15)
    np.testing.assert_allclose(p_cov, (1 - params.c_c) * state.path_cov, rtol=1e-15)


def test_paths_identity_covariance_reduces_to_scaled_shift():
    state = init_state(np.zeros(3), sigma=0.5)
    params = default_params(3)
    new_mean = np.array([0.1, -0.2, 0.05])
    p_sigma, p_cov, h_sigma = update_paths(state, new_mean, params)
    shift = new_mean / 0.5
    expected = math.sqrt(params.c_sigma * (2 - params.c_sigma) * params.mu_eff) * shift
    np.testing.assert_allclose(p_sigma, expected, rtol=1e-14)
    assert h_sigma == 1.0
    expected_cov = math.sqrt(params.c_c * (2 - params.c_c) * params.mu_eff) * shift
    np.testing.assert_allclose(p_cov, expected_cov, rtol=1e-14)


def test_paths_match_dense_matrix_oracle():
    rng = np.random.default_rng(31)
    n = 3
    state = init_state(rng.standard_normal(n), sigma=0.7)
    M = rng.standard_normal((n, n))
    state.cov = M @ M.T + 0.5 * np.eye(n)
    refresh_basis(state)
    state.path_sigma = rng.standard_normal(n)
    state.path_cov = rng.standard_normal(n)
    state.generation = 4
    params = default_params(n)
    new_mean = state.mean + 0.3 * rng.standard_normal(n)

    p_sigma, p_cov, h_sigma = update_paths(state, new_mean, params)

    inv_sqrt = fractional_matrix_power(state.cov, -0.5).real
    shift = (new_mean - state.mean) / state.sigma
    c_s = params.c_sigma
    expected_ps = (1 - c_s) * state.path_sigma + math.sqrt(
        c_s * (2 - c_s) * params.mu_eff
    ) * (inv_sqrt @ shift)
    np.testing.assert_allclose(p_sigma, expected_ps, rtol=0, atol=1e-10)

    debias = math.sqrt(1 - (1 - c_s) ** (2 * (state.generation + 1)))
    threshold = (1.4 + 2 / (n + 1)) * params.chi_n
    expected_h = 1.0 if np.linalg.norm(expected_ps) / debias < threshold else 0.0
    assert h_sigma == expected_h
    c_c = params.c_c
    expected_pc = (1 - c_c) * state.path_cov + expected_h * math.sqrt(
        c_c * (2 - c_c) * params.mu_eff
    ) * shift
    np.testing.assert_allclose(p_cov, expected_pc, rtol=0, atol=1e-10)


def test_paths_long_path_sets_h_sigma_zero():
    state = init_state(np.zeros(2))
    params = default_params(2)
    state.path_sigma = np.full(2, 100.0)
    p_sigma, p_cov, h_sigma = update_paths(state, np.full(2, 0.01), params)
    assert h_sigma == 0.0
    np.testing.assert_allclose(p_cov, np.zeros(2), atol=1e-15)


# ---------------------------------------------------------------------------
# covariance update


def test_covariance_degenerate_rates_identity_update():
    params = make_params(2, 4, 2, [0.6, 0.4], c_1=1e-300, c_mu=1e-300)
    state = init_state(np.zeros(2))
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    state.cov = M
    cands = np.array([[0.5, 0.1], [0.0, -0.2]])
    cov = update_covariance(state, cands, state.mean, np.zeros(2), 1.0, params)
    np.testing.assert_allclose(cov, M, rtol=0, atol=1e-13)


def test_covariance_pure_shrink():
    params = make_params(1, 2, 1, [1.0])
    state = init_state(np.zeros(1))
    cov = update_covariance(state, np.zeros((1, 1)), state.mean, np.zeros(1), 1.0, params)
    expected = 1.0 - params.c_1 - params.c_mu
    assert cov[0, 0] == pytest.approx(expected, rel=1e-14)


def test_covariance_matches_term_by_term_oracle():
    rng = np.random.default_rng(32)
    n = 4
    params = default_params(n)
    state = init_state(rng.standard_normal(n), sigma=0.9)
    M = rng.standard_normal((n, n))
    state.cov = M @ M.T + np.eye(n)
    old_mean = state.mean.copy()
    cands = old_mean + rng.standard_normal((params.mu, n))
    p_cov = rng.standard_normal(n)
    for h_sigma in (0.0, 1.0):
        cov = update_covariance(state, cands, old_mean, p_cov, h_sigma, params)
        expected = (1 - params.c_1 - params.c_mu * params.weights.sum()) * state.cov
        expected = expected + params.c_1 * (
            np.outer(p_cov, p_cov)
            + (1 - h_sigma) * params.c_c * (2 - params.c_c) * state.cov
        )
        for i in range(params.mu):
            y = (cands[i] - old_mean) / state.sigma
            expected = expected + params.c_mu * params.weights[i] * np.outer(y, y)
        np.testing.assert_allclose(cov, expected, rtol=0, atol=1e-12)


def test_covariance_output_is_symmetric_spd():
    rng = np.random.default_rng(33)
    params = default_params(3)
    state = init_state(np.zeros(3))
    cands = rng.standard_normal((params.mu, 3)) * 5
    cov = update_covariance(state, cands, state.mean, rng.standard_normal(3), 1.0, params)
    assert np.max(np.abs(cov - cov.T)) == 0.0
    assert np.linalg.eigvalsh(cov).min() > 0


def test_covariance_non_finite_returned_unrepaired(monkeypatch):
    """An overflowed covariance comes back as it is, for maybe_reset to
    re-seed, and never reaches the SPD repair, whose eigh would raise on it."""
    from sofsyn import cma

    def no_repair(cov):
        raise AssertionError("enforce_spd called on a non-finite covariance")

    monkeypatch.setattr(cma, "enforce_spd", no_repair)
    params = default_params(3)
    state = init_state(np.zeros(3))
    cands = np.ones((params.mu, 3))
    cov = update_covariance(state, cands, state.mean, np.full(3, np.inf), 1.0, params)
    assert np.isposinf(cov).all()


# ---------------------------------------------------------------------------
# step size


def test_step_size_stationary_at_chi_n():
    params = default_params(4)
    state = init_state(np.zeros(4), sigma=0.37)
    p_sigma = np.zeros(4)
    p_sigma[0] = params.chi_n
    assert update_step_size(state, p_sigma, params) == state.sigma


def test_step_size_monotone_in_path_length():
    params = default_params(4)
    state = init_state(np.zeros(4), sigma=1.0)
    grow = update_step_size(state, np.array([2 * params.chi_n, 0, 0, 0]), params)
    shrink = update_step_size(state, np.zeros(4), params)
    assert grow == pytest.approx(math.exp(params.c_sigma / params.d_sigma), rel=1e-14)
    assert shrink == pytest.approx(math.exp(-params.c_sigma / params.d_sigma), rel=1e-14)
    assert shrink < 1.0 < grow


def test_step_size_overflow_returns_inf():
    """An update whose exponential overflows returns inf, which maybe_reset
    re-seeds, instead of raising OverflowError."""
    params = default_params(4)
    state = init_state(np.zeros(4), sigma=1.0)
    assert update_step_size(state, np.full(4, np.inf), params) == math.inf
    assert update_step_size(state, np.array([1e5, 0, 0, 0]), params) == math.inf


# ---------------------------------------------------------------------------
# SPD repair


def test_enforce_spd_identity_fixed_point():
    out = enforce_spd(np.eye(3))
    np.testing.assert_allclose(out, np.eye(3), rtol=0, atol=1e-15)


def test_enforce_spd_clamps_tiny_negative():
    out = enforce_spd(np.diag([1.0, -1e-9]))
    np.testing.assert_allclose(out, np.diag([1.0, 1e-12]), rtol=1e-9, atol=1e-18)


def test_enforce_spd_random_indefinite():
    rng = np.random.default_rng(34)
    for _ in range(20):
        S = rng.standard_normal((5, 5))
        S = 0.5 * (S + S.T)
        out = enforce_spd(S)
        w_in = np.linalg.eigvalsh(0.5 * (S + S.T))
        w_out = np.linalg.eigvalsh(out)
        floor = EIG_FLOOR_REL * max(w_in[-1], 1.0)
        # floor holds up to reconstruction roundoff, which is absolute in lambda_max
        assert w_out.min() >= floor - 16 * np.finfo(float).eps * max(w_in[-1], 1.0)
        # eigenvalues already above the floor are preserved
        kept = w_in[w_in > floor]
        np.testing.assert_allclose(np.sort(w_out)[-kept.size:], np.sort(kept), atol=1e-12)


# ---------------------------------------------------------------------------
# reset


def test_reset_leaves_healthy_state_alone():
    state = init_state(np.array([1.0, 2.0]), sigma=0.4)
    assert not maybe_reset(state, np.zeros(2))
    np.testing.assert_array_equal(state.mean, [1.0, 2.0])
    assert state.sigma == 0.4


def test_reset_on_sigma_blowup():
    state = init_state(np.zeros(2), sigma=1.0)
    state.sigma = 1e9
    state.cov = np.diag([2.0, 3.0])
    state.generation = 17
    best = np.array([5.0, -5.0])
    assert maybe_reset(state, best)
    assert state.sigma == SIGMA_RESET
    np.testing.assert_array_equal(state.cov, np.eye(2))
    np.testing.assert_array_equal(state.mean, best)
    np.testing.assert_array_equal(state.path_sigma, np.zeros(2))
    assert state.generation == 17


def test_reset_on_nan_path():
    state = init_state(np.zeros(2))
    state.path_sigma = np.array([np.nan, 0.0])
    best = np.array([1.5, -0.5])
    assert maybe_reset(state, best)
    assert state.sigma == SIGMA_RESET
    np.testing.assert_array_equal(state.mean, best)
    np.testing.assert_array_equal(state.path_sigma, np.zeros(2))


def test_reset_on_sigma_underflow():
    state = init_state(np.zeros(1))
    state.sigma = 1e-13
    best = np.array([2.0])
    assert maybe_reset(state, best)
    assert state.sigma == SIGMA_RESET
    np.testing.assert_array_equal(state.mean, best)


# ---------------------------------------------------------------------------
# randomized stress on the full update loop


def test_update_loop_invariants_stress():
    rng = np.random.default_rng(35)
    n = 4
    params = default_params(n)
    state = init_state(np.zeros(n), 0.3)
    for _ in range(200):
        cands = sample_population(state, params, rng)
        order = rng.permutation(params.p)[: params.mu]  # random-fitness selection
        top = cands[order]
        new_mean = update_mean(top, params)
        p_sigma, p_cov, h_sigma = update_paths(state, new_mean, params)
        cov = update_covariance(state, top, state.mean, p_cov, h_sigma, params)
        sigma = update_step_size(state, p_sigma, params)
        state.mean, state.path_sigma, state.path_cov = new_mean, p_sigma, p_cov
        state.cov, state.sigma = cov, sigma
        state.generation += 1
        maybe_reset(state, state.mean)
        refresh_basis(state)

        assert np.max(np.abs(state.cov - state.cov.T)) <= 1e-12
        eigs = np.linalg.eigvalsh(state.cov)
        scale = max(eigs.max(), 1.0)
        assert eigs.min() >= EIG_FLOOR_REL * scale - 16 * np.finfo(float).eps * scale
        assert 0 < state.sigma <= SIGMA_MAX


def test_refresh_basis_refuses_indefinite_covariance():
    """refresh_basis factors the covariance and repairs nothing: an
    indefinite one raises, and the cached basis is left as it was."""
    state = init_state(np.zeros(2))
    state.cov = np.array([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(EigenSolveError, match="not positive definite"):
        refresh_basis(state)
    np.testing.assert_array_equal(state.cov, [[1.0, 0.0], [0.0, -0.5]])
    np.testing.assert_array_equal(state.basis, np.eye(2))
    np.testing.assert_array_equal(state.sqrt_eigs, np.ones(2))
