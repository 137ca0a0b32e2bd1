import math

import numpy as np
import pytest

from sofsyn.local import (
    LocalParams,
    accept_and_adapt,
    default_local_params,
    init_local,
    run_local,
    run_local_batch,
    sample_offspring,
    update_success_and_sigma,
)


class FixedRng:
    """Returns preset perturbation vectors in order, then zeros."""

    def __init__(self, *vectors):
        self.vectors = [np.asarray(v, dtype=float) for v in vectors]

    def standard_normal(self, size):
        if self.vectors:
            return self.vectors.pop(0)
        return np.zeros(size)


def test_default_params_table_values():
    params = default_local_params(4)
    assert params.d == 3.0
    assert params.c_cth == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert params.c_cov == pytest.approx(2.0 / 22.0, rel=1e-15)
    assert params.p_target == pytest.approx(2.0 / 11.0, rel=1e-15)
    assert params.c_p == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert params.p_threshold == 0.44


def test_init_local_state():
    state = init_local(np.array([1.0, 2.0]), -3.0, global_sigma=0.3, n=2)
    assert state.sigma_loc == pytest.approx(0.03, rel=1e-15)
    assert state.success_rate == pytest.approx(2.0 / 11.0, rel=1e-15)
    assert state.v_succ == 0
    np.testing.assert_array_equal(state.cov, np.eye(2))
    np.testing.assert_array_equal(state.path_c, np.zeros(2))
    assert state.best_fitness == -3.0
    np.testing.assert_array_equal(state.best_alpha, [1.0, 2.0])


def test_sample_identity_covariance_passes_xi_through():
    state = init_local(np.zeros(3), 0.0, 1.0, 3)
    xi = np.array([0.3, -0.7, 1.1])
    offspring, eps = sample_offspring(state, FixedRng(xi))
    np.testing.assert_array_equal(eps, xi)
    np.testing.assert_allclose(offspring, 0.1 * xi, rtol=1e-15)


def test_sample_zero_xi_returns_parent():
    parent = np.array([5.0, -1.0])
    state = init_local(parent, 0.0, 1.0, 2)
    offspring, eps = sample_offspring(state, FixedRng())
    np.testing.assert_array_equal(offspring, parent)
    np.testing.assert_array_equal(eps, np.zeros(2))


def test_sample_diagonal_cholesky():
    state = init_local(np.zeros(2), 0.0, 1.0, 2)
    state.cov = np.diag([4.0, 1.0])
    _, eps = sample_offspring(state, FixedRng([1.0, 1.0]))
    np.testing.assert_array_equal(eps, [2.0, 1.0])


def test_sample_repairs_broken_covariance():
    state = init_local(np.zeros(2), 0.0, 1.0, 2)
    state.cov = np.array([[1.0, 0.0], [0.0, -1.0]])  # indefinite
    offspring, eps = sample_offspring(state, FixedRng([1.0, 1.0]))
    assert np.all(np.isfinite(offspring))
    assert np.linalg.eigvalsh(state.cov).min() > 0


def test_sigma_stationary_at_target_rate():
    # with a vanishing averaging rate the success rate stays at 2/11 bitwise,
    # and the step-size exponent is exactly zero there
    params = LocalParams(d=3.0, c_p=1e-300, c_cth=0.5, c_cov=0.1)
    state = init_local(np.zeros(2), 0.0, 1.0, 2)
    sigma_before = state.sigma_loc
    for v in (0, 1, 0):
        state.v_succ = v
        update_success_and_sigma(state, params)
    assert state.success_rate == 2.0 / 11.0
    assert state.sigma_loc == sigma_before


def test_success_rate_update_quarter():
    params = default_local_params(4)
    state = init_local(np.zeros(4), 0.0, 1.0, 4)
    state.v_succ = 1
    update_success_and_sigma(state, params)
    assert state.success_rate == pytest.approx(0.25, rel=1e-14)


def test_sigma_grows_at_full_success():
    params = default_local_params(2)
    state = init_local(np.zeros(2), 0.0, 1.0, 2)
    state.success_rate = 1.0
    state.v_succ = 1
    update_success_and_sigma(state, params)
    assert state.success_rate == 1.0
    assert state.sigma_loc == pytest.approx(0.1 * math.exp(1.0 / params.d), rel=1e-14)


def test_success_rate_stays_in_unit_interval():
    params = default_local_params(3)
    state = init_local(np.zeros(3), 0.0, 1.0, 3)
    rng = np.random.default_rng(40)
    for _ in range(500):
        state.v_succ = int(rng.integers(0, 2))
        update_success_and_sigma(state, params)
        assert 0.0 <= state.success_rate <= 1.0


def test_reject_worse_offspring_changes_only_v_succ():
    params = default_local_params(2)
    state = init_local(np.array([1.0, 1.0]), 5.0, 1.0, 2)
    state.v_succ = 1
    before_cov = state.cov.copy()
    accept_and_adapt(state, np.array([0.0, 0.0]), 4.9, np.array([0.1, 0.1]), params)
    assert state.v_succ == 0
    np.testing.assert_array_equal(state.parent, [1.0, 1.0])
    assert state.parent_fitness == 5.0
    np.testing.assert_array_equal(state.cov, before_cov)


def test_equal_fitness_is_rejected():
    params = default_local_params(1)
    state = init_local(np.zeros(1), 1.0, 1.0, 1)
    accept_and_adapt(state, np.ones(1), 1.0, np.ones(1), params)
    assert state.v_succ == 0
    np.testing.assert_array_equal(state.parent, np.zeros(1))


def test_accept_above_threshold_covariance_formula():
    n = 4
    params = default_local_params(n)
    state = init_local(np.zeros(n), 0.0, 1.0, n)
    state.success_rate = 0.5  # above the 0.44 threshold
    eps = np.array([1.0, -1.0, 0.5, 0.0])
    accept_and_adapt(state, eps.copy(), 1.0, eps, params)
    factor = 1.0 - params.c_cov + params.c_cov * params.c_cth * (2.0 - params.c_cth)
    np.testing.assert_allclose(state.cov, factor * np.eye(n), rtol=1e-14)
    np.testing.assert_array_equal(state.path_c, np.zeros(n))
    assert state.v_succ == 1


def test_accept_below_threshold_path_formula():
    n = 3
    params = default_local_params(n)
    state = init_local(np.zeros(n), 0.0, 1.0, n)
    state.success_rate = 0.1  # below the threshold
    eps = np.array([0.5, 0.25, -0.1])
    accept_and_adapt(state, eps.copy(), 1.0, eps, params)
    expected_path = math.sqrt(params.c_cth * (2.0 - params.c_cth)) * eps
    np.testing.assert_allclose(state.path_c, expected_path, rtol=1e-14)
    expected_cov = (1.0 - params.c_cov) * np.eye(n) + params.c_cov * np.outer(
        expected_path, expected_path
    )
    np.testing.assert_allclose(state.cov, expected_cov, rtol=1e-14)


def test_covariance_stays_symmetric_spd_under_stress():
    n = 3
    params = default_local_params(n)
    state = init_local(np.zeros(n), 0.0, 1.0, n)
    rng = np.random.default_rng(41)
    fitness = 0.0
    for _ in range(500):
        eps = rng.standard_normal(n)
        fitness += 1.0
        state.success_rate = float(rng.uniform(0, 1))
        accept_and_adapt(state, state.parent + 0.1 * eps, fitness, eps, params)
        assert np.max(np.abs(state.cov - state.cov.T)) <= 1e-12
        assert np.linalg.eigvalsh(state.cov).min() > 0


def test_run_local_budget_exactness_and_no_false_improvement():
    calls = 0

    def fitness(x):
        nonlocal calls
        calls += 1
        return -float(np.sum(x**2))

    start = np.array([1.0, 1.0])
    alpha, fit, used = run_local(start, fitness(start), 1.0, 7, fitness, FixedRng())
    # FixedRng yields zero perturbations: offspring == parent, never strictly better
    assert used == 7
    assert calls == 1 + 7
    np.testing.assert_array_equal(alpha, start)
    assert fit == -2.0


def test_run_local_concave_quadratic_converges():
    target = np.array([0.5, -0.3])

    def fitness(x):
        return -float(np.sum((x - target) ** 2))

    for seed in range(10):
        rng = np.random.default_rng(seed)
        start = np.zeros(2)
        alpha, fit, used = run_local(start, fitness(start), 2.0, 200, fitness, rng)
        assert used == 200
        assert fit >= -1e-6, f"seed {seed}: {fit}"


def test_run_local_elitism_trace_monotone():
    def fitness(x):
        return -float(np.sum((x - 1.0) ** 2))

    # growing budgets replay the same RNG stream, so each prefix of the
    # trace is shared; elitism makes the recorded best non-decreasing
    start = np.full(3, 0.2)
    f0 = fitness(start)
    trace = [
        run_local(start, f0, 1.0, budget, fitness, np.random.default_rng(7))[1]
        for budget in (1, 5, 20, 80)
    ]
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert all(t >= f0 for t in trace)


def test_run_local_deterministic():
    def fitness(x):
        return -float(np.sum(x**2))

    start = np.array([0.4, -0.2, 0.9])
    out1 = run_local(start, fitness(start), 1.0, 50, fitness, np.random.default_rng(11))
    out2 = run_local(start, fitness(start), 1.0, 50, fitness, np.random.default_rng(11))
    np.testing.assert_array_equal(out1[0], out2[0])
    assert out1[1] == out2[1]


def test_sample_offspring_factors_each_covariance_once(monkeypatch):
    calls = 0
    cholesky = np.linalg.cholesky

    def counting(a):
        nonlocal calls
        calls += 1
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    params = default_local_params(2)
    state = init_local(np.zeros(2), 0.0, 1.0, 2)
    for _ in range(3):
        sample_offspring(state, FixedRng())
    assert calls == 1
    state.cov = np.diag([4.0, 1.0])
    _, eps = sample_offspring(state, FixedRng([1.0, 1.0]))
    np.testing.assert_array_equal(eps, [2.0, 1.0])
    assert calls == 2
    # a rejected step keeps the covariance, an accepted one replaces it
    offspring, eps = sample_offspring(state, FixedRng([1.0, 0.0]))
    accept_and_adapt(state, offspring, -1.0, eps, params)
    sample_offspring(state, FixedRng())
    assert calls == 2
    accept_and_adapt(state, offspring, 1.0, eps, params)
    sample_offspring(state, FixedRng())
    assert calls == 3


def _bits(alpha, fitness):
    return alpha.tobytes(), float(fitness).hex()


def _rugged(x):
    return -float(np.sum((x - 0.7) ** 2)) + 0.3 * math.sin(25.0 * float(np.sum(x)))


@pytest.mark.parametrize("spd_repair", [False, True])
def test_lockstep_matches_run_local_per_candidate(monkeypatch, spd_repair):
    """Each lockstep candidate ends exactly where run_local takes it alone
    on the same RNG substream, also when its covariance is broken and
    repaired partway through."""
    import sofsyn.local as local

    repairs = []
    if spd_repair:
        accept, enforce = local.accept_and_adapt, local.enforce_spd

        def breaking_accept(state, offspring, value, eps, params):
            accept(state, offspring, value, eps, params)
            if state.v_succ:
                state.accepted = getattr(state, "accepted", 0) + 1
                if state.accepted == 2:
                    cov = state.cov.copy()
                    cov[0, 0] = -cov[0, 0]  # a negative diagonal entry: indefinite
                    state.cov = cov

        def counting_enforce(cov):
            repairs.append(1)
            return enforce(cov)

        monkeypatch.setattr(local, "accept_and_adapt", breaking_accept)
        monkeypatch.setattr(local, "enforce_spd", counting_enforce)

    rng = np.random.default_rng(30)
    k, n, budget = 5, 3, 25
    starts = rng.standard_normal((k, n))
    fits = [_rugged(x) for x in starts]
    batch_sizes = []
    best_so_far = list(fits)

    def score_batch(X, floors):
        # each row's floor is the best fitness its candidate has seen
        assert floors == best_so_far
        batch_sizes.append(len(X))
        values = [_rugged(x) for x in X]
        best_so_far[:] = [max(b, v) for b, v in zip(best_so_far, values)]
        return values

    together = local.run_local_batch(
        starts, fits, 0.8, budget, score_batch,
        [np.random.default_rng([31, i]) for i in range(k)],
    )
    assert batch_sizes == [k] * budget
    repairs_together = len(repairs)
    alone = [
        local.run_local(starts[i], fits[i], 0.8, budget, _rugged, np.random.default_rng([31, i]))
        for i in range(k)
    ]
    assert [_bits(*t) for t in together] == [_bits(a, f) for a, f, _ in alone]
    if spd_repair:
        assert repairs_together >= 1
        assert len(repairs) == 2 * repairs_together


def test_lockstep_returns_the_best_score_object():
    starts = np.array([[0.0, 0.0], [2.0, 2.0]])

    def score_batch(X, floors=None):
        return [{"fitness": _rugged(x), "point": x.copy()} for x in X]

    initial = score_batch(starts)
    out = run_local_batch(
        starts, initial, 1.0, 30, score_batch,
        [np.random.default_rng(i) for i in range(2)],
        fitness=lambda s: s["fitness"],
    )
    for (alpha, score), start_score in zip(out, initial):
        assert score["fitness"] >= start_score["fitness"]
        np.testing.assert_array_equal(alpha, score["point"])


def test_lockstep_with_no_candidates_scores_nothing():
    def score_batch(X, floors):
        raise AssertionError("no candidate to score")

    assert run_local_batch(np.zeros((0, 3)), [], 1.0, 10, score_batch, []) == []


def test_lockstep_outcome_unchanged_by_scores_bounded_at_the_floor():
    """A scorer may answer a row that cannot beat its floor with any score
    between the exact one and the floor; here it answers with the floor
    itself, the loosest such bound, and every candidate ends bit for bit
    where exact scores take it."""
    rng = np.random.default_rng(32)
    k, n, budget = 6, 3, 40
    starts = rng.standard_normal((k, n))
    fits = [_rugged(x) for x in starts]
    bounded = []

    def exact(X, floors):
        return [_rugged(x) for x in X]

    def loosest(X, floors):
        values = exact(X, floors)
        bounded.extend(v < f for v, f in zip(values, floors))
        return [f if v <= f else v for v, f in zip(values, floors)]

    outs = [
        run_local_batch(
            starts, fits, 0.8, budget, score,
            [np.random.default_rng([33, i]) for i in range(k)],
        )
        for score in (exact, loosest)
    ]
    assert sum(bounded) > k * budget // 2
    assert [_bits(*t) for t in outs[0]] == [_bits(*t) for t in outs[1]]
