import math

import numpy as np
import pytest

import sofsyn.local as local
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


class ZeroRng:
    """Draws nothing but zeros."""

    def standard_normal(self, size):
        return np.zeros(size)


def one_row(parent, fitness=0.0, global_sigma=1.0):
    """Refinement state of the one candidate ``parent``."""
    return init_local(np.array([parent], dtype=float), [fitness], global_sigma)


def test_default_params_table_values():
    params = default_local_params(4)
    assert params.d == 3.0
    assert params.c_cth == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert params.c_cov == pytest.approx(2.0 / 22.0, rel=1e-15)
    assert params.p_target == pytest.approx(2.0 / 11.0, rel=1e-15)
    assert params.c_p == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert params.p_threshold == 0.44


def test_init_local_state():
    state = init_local(np.array([[1.0, 2.0]]), [-3.0], global_sigma=0.3)
    assert state.sigma_loc == pytest.approx([0.03], rel=1e-15)
    assert state.success_rate == pytest.approx([2.0 / 11.0], rel=1e-15)
    np.testing.assert_array_equal(state.v_succ, [0])
    np.testing.assert_array_equal(state.cov, [np.eye(2)])
    np.testing.assert_array_equal(state.path_c, np.zeros((1, 2)))
    np.testing.assert_array_equal(state.parent_fitness, [-3.0])
    np.testing.assert_array_equal(state.parent, [[1.0, 2.0]])
    np.testing.assert_array_equal(state.stale, [True])


def test_sample_identity_covariance_passes_xi_through():
    state = one_row(np.zeros(3))
    xi = np.array([[0.3, -0.7, 1.1]])
    offspring, eps = sample_offspring(state, xi)
    np.testing.assert_array_equal(eps, xi)
    np.testing.assert_allclose(offspring, 0.1 * xi, rtol=1e-15)


def test_sample_zero_xi_returns_parent():
    parent = np.array([5.0, -1.0])
    state = one_row(parent)
    offspring, eps = sample_offspring(state, np.zeros((1, 2)))
    np.testing.assert_array_equal(offspring, [parent])
    np.testing.assert_array_equal(eps, np.zeros((1, 2)))


def test_sample_diagonal_cholesky():
    state = one_row(np.zeros(2))
    state.cov[0] = np.diag([4.0, 1.0])
    _, eps = sample_offspring(state, np.ones((1, 2)))
    np.testing.assert_array_equal(eps, [[2.0, 1.0]])


def test_sample_repairs_broken_covariance():
    state = one_row(np.zeros(2))
    state.cov[0] = np.array([[1.0, 0.0], [0.0, -1.0]])  # indefinite
    offspring, eps = sample_offspring(state, np.ones((1, 2)))
    assert np.all(np.isfinite(offspring))
    assert np.linalg.eigvalsh(state.cov).min() > 0


def test_sigma_stationary_at_target_rate():
    # with a vanishing averaging rate the success rate stays at 2/11 bitwise,
    # and the step-size exponent is exactly zero there
    params = LocalParams(d=3.0, c_p=1e-300, c_cth=0.5, c_cov=0.1)
    state = one_row(np.zeros(2))
    sigma_before = state.sigma_loc.copy()
    for v in (0, 1, 0):
        state.v_succ[:] = v
        update_success_and_sigma(state, params)
    assert state.success_rate == [2.0 / 11.0]
    assert state.sigma_loc == sigma_before


def test_success_rate_update_quarter():
    params = default_local_params(4)
    state = one_row(np.zeros(4))
    state.v_succ[:] = 1
    update_success_and_sigma(state, params)
    assert state.success_rate == pytest.approx([0.25], rel=1e-14)


def test_sigma_grows_at_full_success():
    params = default_local_params(2)
    state = one_row(np.zeros(2))
    state.success_rate[:] = 1.0
    state.v_succ[:] = 1
    update_success_and_sigma(state, params)
    assert state.success_rate == [1.0]
    assert state.sigma_loc == pytest.approx([0.1 * math.exp(1.0 / params.d)], rel=1e-14)


def test_success_rate_stays_in_unit_interval():
    params = default_local_params(3)
    state = one_row(np.zeros(3))
    rng = np.random.default_rng(40)
    for _ in range(500):
        state.v_succ[:] = int(rng.integers(0, 2))
        update_success_and_sigma(state, params)
        assert 0.0 <= state.success_rate[0] <= 1.0


def test_reject_worse_offspring_changes_only_v_succ():
    params = default_local_params(2)
    state = one_row([1.0, 1.0], 5.0)
    state.v_succ[:] = 1
    before_cov = state.cov.copy()
    accept_and_adapt(state, np.array([[0.0, 0.0]]), [4.9], np.array([[0.1, 0.1]]), params)
    assert state.v_succ == [0]
    np.testing.assert_array_equal(state.parent, [[1.0, 1.0]])
    assert state.parent_fitness == [5.0]
    np.testing.assert_array_equal(state.cov, before_cov)


def test_equal_fitness_is_rejected():
    params = default_local_params(1)
    state = one_row(np.zeros(1), 1.0)
    accept_and_adapt(state, np.ones((1, 1)), [1.0], np.ones((1, 1)), params)
    assert state.v_succ == [0]
    np.testing.assert_array_equal(state.parent, np.zeros((1, 1)))


def test_accept_above_threshold_covariance_formula():
    n = 4
    params = default_local_params(n)
    state = one_row(np.zeros(n))
    state.success_rate[:] = 0.5  # above the 0.44 threshold
    eps = np.array([[1.0, -1.0, 0.5, 0.0]])
    accept_and_adapt(state, eps.copy(), [1.0], eps, params)
    factor = 1.0 - params.c_cov + params.c_cov * params.c_cth * (2.0 - params.c_cth)
    np.testing.assert_allclose(state.cov, [factor * np.eye(n)], rtol=1e-14)
    np.testing.assert_array_equal(state.path_c, np.zeros((1, n)))
    assert state.v_succ == [1]


def test_accept_below_threshold_path_formula():
    n = 3
    params = default_local_params(n)
    state = one_row(np.zeros(n))
    state.success_rate[:] = 0.1  # below the threshold
    eps = np.array([[0.5, 0.25, -0.1]])
    accept_and_adapt(state, eps.copy(), [1.0], eps, params)
    expected_path = math.sqrt(params.c_cth * (2.0 - params.c_cth)) * eps[0]
    np.testing.assert_allclose(state.path_c, [expected_path], rtol=1e-14)
    expected_cov = (1.0 - params.c_cov) * np.eye(n) + params.c_cov * np.outer(
        expected_path, expected_path
    )
    np.testing.assert_allclose(state.cov, [expected_cov], rtol=1e-14)


def test_covariance_stays_symmetric_spd_under_stress():
    n = 3
    params = default_local_params(n)
    state = one_row(np.zeros(n))
    rng = np.random.default_rng(41)
    fitness = 0.0
    for _ in range(500):
        eps = rng.standard_normal((1, n))
        fitness += 1.0
        state.success_rate[:] = float(rng.uniform(0, 1))
        accept_and_adapt(state, state.parent + 0.1 * eps, [fitness], eps, params)
        assert np.max(np.abs(state.cov[0] - state.cov[0].T)) <= 1e-12
        assert np.linalg.eigvalsh(state.cov[0]).min() > 0


def test_run_local_budget_exactness_and_no_false_improvement():
    calls = 0

    def fitness(x):
        nonlocal calls
        calls += 1
        return -float(np.sum(x**2))

    start = np.array([1.0, 1.0])
    alpha, fit, used = run_local(start, fitness(start), 1.0, 7, fitness, ZeroRng())
    # ZeroRng yields zero perturbations: offspring == parent, never strictly better
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
    state = one_row(np.zeros(2))
    for _ in range(3):
        sample_offspring(state, np.zeros((1, 2)))
    assert calls == 1
    state.cov[0] = np.diag([4.0, 1.0])
    state.stale[0] = True
    _, eps = sample_offspring(state, np.ones((1, 2)))
    np.testing.assert_array_equal(eps, [[2.0, 1.0]])
    assert calls == 2
    # a rejected step keeps the covariance, an accepted one changes it
    offspring, eps = sample_offspring(state, np.array([[1.0, 0.0]]))
    accept_and_adapt(state, offspring, [-1.0], eps, params)
    sample_offspring(state, np.zeros((1, 2)))
    assert calls == 2
    accept_and_adapt(state, offspring, [1.0], eps, params)
    sample_offspring(state, np.zeros((1, 2)))
    assert calls == 3
    # of several rows, only those whose step was accepted are refactored
    state = init_local(np.zeros((4, 2)), [0.0] * 4, 1.0)
    offspring, eps = sample_offspring(state, np.ones((4, 2)))
    assert calls == 7
    accept_and_adapt(state, offspring, [1.0, -1.0, 1.0, 0.0], eps, params)
    np.testing.assert_array_equal(state.stale, [True, False, True, False])
    sample_offspring(state, np.zeros((4, 2)))
    assert calls == 9 and not state.stale.any()


def _bits(alpha, fitness):
    return alpha.tobytes(), float(fitness).hex()


def _rugged(x):
    return -float(np.sum((x - 0.7) ** 2)) + 0.3 * math.sin(25.0 * float(np.sum(x)))


def reference_run_local(alpha, fitness, global_sigma, budget, fitness_fn, rng, break_at=0):
    """The (1+1) refinement of one candidate written as a plain loop, on
    scalars and one covariance that is refactored after each accepted step:
    the arithmetic every row of run_local_batch must reproduce bit for bit.
    With ``break_at`` > 0 the covariance is made indefinite right after
    that many accepted steps, so that the next draw SPD-repairs it."""
    n = len(alpha)
    params = default_local_params(n)
    c_p, c_cth, c_cov = params.c_p, params.c_cth, params.c_cov
    ratio = params.p_target / (1.0 - params.p_target)
    parent, parent_fitness = np.array(alpha, dtype=float), float(fitness)
    sigma, rate, v_succ, accepted = global_sigma / 10.0, 2.0 / 11.0, 0, 0
    cov, path, chol = np.eye(n), np.zeros(n), None
    for _ in range(budget):
        if chol is None:
            try:
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                cov = local.enforce_spd(cov)
                chol = np.linalg.cholesky(cov)
        eps = chol @ rng.standard_normal(n)
        offspring = parent + sigma * eps
        rate = (1.0 - c_p) * rate + c_p * v_succ
        sigma *= math.exp((1.0 / params.d) * (rate - ratio * (1.0 - rate)))
        value = fitness_fn(offspring)
        v_succ = int(value > parent_fitness)
        if not v_succ:
            continue
        parent, parent_fitness = offspring, value
        if rate < params.p_threshold:
            path = (1.0 - c_cth) * path + math.sqrt(c_cth * (2.0 - c_cth)) * eps
            cov = (1.0 - c_cov) * cov + c_cov * np.outer(path, path)
        else:
            path = (1.0 - c_cth) * path
            cov = (1.0 - c_cov) * cov + c_cov * (
                np.outer(path, path) + c_cth * (2.0 - c_cth) * cov
            )
        cov = 0.5 * (cov + cov.T)
        accepted += 1
        if accepted == break_at:
            cov[0, 0] = -cov[0, 0]  # a negative diagonal entry: indefinite
        chol = None
    return parent, parent_fitness


SHAPES = [(n, k) for n in (1, 2, 4, 16) for k in (1, 5)]


@pytest.mark.parametrize("spd_repair", [False, True])
def test_lockstep_matches_run_local_per_candidate(monkeypatch, spd_repair):
    """Each lockstep candidate ends exactly where reference_run_local takes
    it alone on the same RNG substream, for n in {1, 2, 4, 16} and k in
    {1, 5} candidates, also when its covariance is broken and repaired
    partway through; run_local, the k = 1 case, too."""
    repairs = []
    accepted = [None]  # per row of the running batch, its accepted steps
    if spd_repair:
        accept, enforce = local.accept_and_adapt, local.enforce_spd

        def breaking_accept(state, offspring, values, eps, params):
            accept(state, offspring, values, eps, params)
            accepted[0] = accepted[0] + state.v_succ
            state.cov[(accepted[0] == 2) & (state.v_succ == 1), 0, 0] *= -1.0

        def counting_enforce(cov):
            repairs.append(1)
            return enforce(cov)

        monkeypatch.setattr(local, "accept_and_adapt", breaking_accept)
        monkeypatch.setattr(local, "enforce_spd", counting_enforce)

    rng = np.random.default_rng(30)
    budget = 40
    repaired = 0
    for n, k in SHAPES:
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

        accepted[0] = 0
        repairs.clear()
        together = local.run_local_batch(
            starts, fits, 0.8, budget, score_batch,
            [np.random.default_rng([31, n, i]) for i in range(k)],
        )
        assert batch_sizes == [k] * budget
        repairs_together = len(repairs)
        alone = [
            reference_run_local(starts[i], fits[i], 0.8, budget, _rugged,
                                np.random.default_rng([31, n, i]), 2 * spd_repair)
            for i in range(k)
        ]
        assert [_bits(*t) for t in together] == [_bits(*t) for t in alone]
        assert len(repairs) == 2 * repairs_together
        repaired += repairs_together
        if k == 1:
            accepted[0] = 0
            alpha, fit, used = run_local(
                starts[0], fits[0], 0.8, budget, _rugged, np.random.default_rng([31, n, 0])
            )
            assert used == budget and _bits(alpha, fit) == _bits(*alone[0])
    assert repaired >= len(SHAPES) if spd_repair else repaired == 0

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
    where exact scores take it and where reference_run_local takes it
    alone, for n in {1, 2, 4, 16} and k in {1, 5}."""
    rng = np.random.default_rng(32)
    budget = 40
    bounded = []

    def exact(X, floors):
        return [_rugged(x) for x in X]

    def loosest(X, floors):
        values = exact(X, floors)
        bounded.extend(v < f for v, f in zip(values, floors))
        return [f if v <= f else v for v, f in zip(values, floors)]

    for n, k in SHAPES:
        starts = rng.standard_normal((k, n))
        fits = [_rugged(x) for x in starts]
        outs = [
            run_local_batch(
                starts, fits, 0.8, budget, score,
                [np.random.default_rng([33, n, i]) for i in range(k)],
            )
            for score in (exact, loosest)
        ]
        alone = [
            reference_run_local(starts[i], fits[i], 0.8, budget, _rugged,
                                np.random.default_rng([33, n, i]))
            for i in range(k)
        ]
        assert [_bits(*t) for t in outs[0]] == [_bits(*t) for t in outs[1]]
        assert [_bits(*t) for t in outs[1]] == [_bits(*t) for t in alone]
    assert sum(bounded) > len(bounded) // 2
