import math

import numpy as np
import pytest

from sofsyn import builtin_plant_path, load_problem
from sofsyn.cma import default_params
from sofsyn.driver import RunResult, SolverConfig, solve, solve_raw
from sofsyn.errors import ConfigError
from sofsyn.objectives import ObjectiveKind


def sphere_at(v):
    def fitness(x):
        return -float(np.sum((x - v) ** 2))

    return fitness


def rosenbrock(x):
    return -float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def test_quadratic_optimum_found_all_seeds():
    v = np.array([1.2, -0.7, 0.4])
    for seed in range(10):
        res = solve_raw(sphere_at(v), 3, SolverConfig(t_max=3000, seed=seed))
        np.testing.assert_allclose(res.best_alpha, v, atol=1e-4)


def test_constant_fitness_runs_to_budget():
    res = solve_raw(lambda x: 7.5, 2, SolverConfig(t_max=100, seed=0, local_search_enabled=False))
    assert res.best_fitness == 7.5
    assert res.global_evals == 100


def test_single_generation_budget():
    n = 5
    p = default_params(n).p
    res = solve_raw(sphere_at(np.zeros(n)), n, SolverConfig(t_max=p, seed=1))
    assert res.global_evals == p
    assert len(res.history) == 1


def test_budget_not_multiple_of_population():
    n = 5
    p = default_params(n).p
    t_max = 3 * p + 2
    res = solve_raw(sphere_at(np.zeros(n)), n,
                    SolverConfig(t_max=t_max, seed=2, local_search_enabled=False))
    assert res.global_evals == t_max
    assert len(res.history) == 4


def test_budget_below_population_rejected():
    n = 5
    p = default_params(n).p
    with pytest.raises(ConfigError):
        solve_raw(sphere_at(np.zeros(n)), n, SolverConfig(t_max=p - 1))


def test_local_eval_accounting():
    n = 3
    cfg = SolverConfig(t_max=40, t_s=7, seed=3)
    res = solve_raw(sphere_at(np.ones(n)), n, cfg)
    assert res.global_evals == 40
    assert res.local_evals == 40 * 7  # every offspring refined


def test_local_eval_accounting_top_k():
    n = 3
    p = default_params(n).p
    cfg = SolverConfig(t_max=5 * p, t_s=4, seed=3, refine_top_k=2)
    res = solve_raw(sphere_at(np.ones(n)), n, cfg)
    assert res.local_evals == 5 * 2 * 4


def test_charged_budget_bounds_total():
    n = 3
    cfg = SolverConfig(t_max=100, t_s=10, seed=4, charge_local_to_budget=True)
    res = solve_raw(sphere_at(np.zeros(n)), n, cfg)
    total = res.global_evals + res.local_evals
    assert total >= 100
    assert total <= 100 + 10  # overshoot below one offspring's cost
    assert res.global_evals <= 100


def test_exact_eval_count_observed():
    n = 4
    counter = {"n": 0}

    def fitness(x):
        counter["n"] += 1
        return -float(np.sum(x**2))

    cfg = SolverConfig(t_max=60, t_s=5, seed=5)
    res = solve_raw(fitness, n, cfg)
    assert counter["n"] == res.global_evals + res.local_evals == 60 + 60 * 5


def test_history_best_fitness_non_decreasing():
    res = solve_raw(rosenbrock, 4, SolverConfig(t_max=800, seed=6))
    best = [rec.best_fitness for rec in res.history]
    assert all(b >= a for a, b in zip(best, best[1:]))
    assert res.best_fitness == best[-1]


def test_thread_count_does_not_change_result():
    for threads in (2, 8):
        a = solve_raw(rosenbrock, 4, SolverConfig(t_max=400, seed=7, threads=1))
        b = solve_raw(rosenbrock, 4, SolverConfig(t_max=400, seed=7, threads=threads))
        np.testing.assert_array_equal(a.best_alpha, b.best_alpha)
        assert a.best_fitness == b.best_fitness
        for ra, rb in zip(a.history, b.history):
            assert ra.best_fitness == rb.best_fitness
            assert ra.sigma == rb.sigma


def test_repeat_run_bit_identical():
    a = solve_raw(rosenbrock, 5, SolverConfig(t_max=600, seed=8))
    b = solve_raw(rosenbrock, 5, SolverConfig(t_max=600, seed=8))
    np.testing.assert_array_equal(a.best_alpha, b.best_alpha)
    assert a.best_fitness == b.best_fitness


def test_memetic_beats_plain_at_equal_t_max_smoke():
    wins = 0
    for seed in range(3):
        mem = solve_raw(rosenbrock, 5, SolverConfig(t_max=800, seed=seed))
        plain = solve_raw(rosenbrock, 5,
                          SolverConfig(t_max=800, seed=seed, local_search_enabled=False))
        wins += mem.best_fitness >= plain.best_fitness
    assert wins >= 2


def test_translation_equivariance():
    n = 3
    v = np.array([0.8, -1.1, 0.35])
    f = sphere_at(np.zeros(n))
    g = sphere_at(v)  # g(y) = f(y - v)
    log_f, log_g = [], []

    def wrap(fn, log):
        def inner(x):
            log.append(np.array(x))
            return fn(x)

        return inner

    p = default_params(n).p
    budget = 15 * p
    base = SolverConfig(t_max=budget, seed=9, local_search_enabled=False)
    res_f = solve_raw(wrap(f, log_f), n, base)
    from dataclasses import replace

    res_g = solve_raw(wrap(g, log_g), n, replace(base, initial_mean=v))
    assert len(log_f) == len(log_g)
    for xf, xg in zip(log_f, log_g):
        np.testing.assert_allclose(xg, xf + v, rtol=0, atol=1e-9)
    np.testing.assert_allclose(res_g.best_alpha, res_f.best_alpha + v, atol=1e-9)


def test_selection_invariant_under_monotone_transform():
    n = 3
    f = sphere_at(np.array([0.5, 0.5, -0.5]))
    log_plain, log_transformed = [], []

    def wrap(fn, log, transform):
        def inner(x):
            log.append(np.array(x))
            return transform(fn(x))

        return inner

    cfg = SolverConfig(t_max=200, seed=10)
    solve_raw(wrap(f, log_plain, lambda y: y), n, cfg)
    solve_raw(wrap(f, log_transformed, math.atan), n, cfg)
    assert len(log_plain) == len(log_transformed)
    for a, b in zip(log_plain, log_transformed):
        np.testing.assert_array_equal(a, b)


def test_progress_callback_matches_history():
    seen = []
    res = solve_raw(rosenbrock, 3, SolverConfig(t_max=120, seed=11), progress=seen.append)
    assert tuple(seen) == res.history


def test_double_integrator_stabilized():
    plant = load_problem(builtin_plant_path("double_integrator"))
    cfg = SolverConfig(objective=ObjectiveKind.SPECTRAL_ABSCISSA, t_max=2000, seed=0)
    res = solve(plant, cfg)
    assert res.feasible
    assert res.best_objective < -1e-6


def test_objective_fitness_consistency():
    plant = load_problem(builtin_plant_path("double_integrator"))
    cfg = SolverConfig(objective=ObjectiveKind.SPECTRAL_ABSCISSA, t_max=500, seed=1,
                       beta=1e-4)
    res = solve(plant, cfg)
    assert res.feasible
    gain_norm = float(np.linalg.norm(res.best_alpha))
    assert res.best_objective + cfg.beta * gain_norm == pytest.approx(-res.best_fitness,
                                                                      abs=1e-12)


def test_feasible_fraction_recorded():
    plant = load_problem(builtin_plant_path("double_integrator"))
    cfg = SolverConfig(objective=ObjectiveKind.SPECTRAL_ABSCISSA, t_max=200, seed=2)
    res = solve(plant, cfg)
    assert all(0.0 <= rec.feasible_fraction <= 1.0 for rec in res.history)
    assert res.history[-1].feasible_fraction > 0


def test_initial_mean_shape_checked():
    with pytest.raises(ConfigError):
        solve_raw(lambda x: 0.0, 3, SolverConfig(t_max=100, initial_mean=np.zeros(2)))


def test_negative_seed_rejected():
    with pytest.raises(ConfigError):
        SolverConfig(seed=-1)


def test_wall_time_recorded():
    res = solve_raw(lambda x: 0.0, 2, SolverConfig(t_max=50, local_search_enabled=False))
    assert isinstance(res, RunResult)
    assert res.wall_time > 0


def test_tolerances_validated():
    with pytest.raises(ConfigError):
        SolverConfig(norm_rel_tol=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(norm_rel_tol=-1e-6)
    with pytest.raises(ConfigError):
        SolverConfig(stability_tol=-1.0)
    SolverConfig(stability_tol=0.0)


@pytest.mark.parametrize("refine_top_k", [None, 3])
def test_lockstep_refinement_matches_run_local_per_candidate(monkeypatch, refine_top_k):
    """Every refined offspring of a solve ends exactly where run_local takes
    it alone, on the substream keyed by (seed, generation, index)."""
    from sofsyn import driver
    from sofsyn.local import run_local

    calls = []
    lockstep = driver.run_local_batch

    def recording(alphas, scores, sigma, budget, score, rngs, params, fitness):
        states = [rng.bit_generator.state for rng in rngs]
        out = lockstep(alphas, scores, sigma, budget, score, rngs, params, fitness=fitness)
        calls.append((alphas.copy(), scores, sigma, budget, score, states, params, out))
        return out

    batches = []
    evaluate_batch = driver.evaluate_batch

    def recording_batches(plant, X, kind, cfg):
        evals = evaluate_batch(plant, X, kind, cfg)
        batches.append(list(evals))  # the driver overwrites refined entries
        return evals

    monkeypatch.setattr(driver, "run_local_batch", recording)
    monkeypatch.setattr(driver, "evaluate_batch", recording_batches)
    plant = load_problem(builtin_plant_path("rand4"))
    config = SolverConfig(t_max=24, t_s=6, seed=11, refine_top_k=refine_top_k)
    p = default_params(plant.dims.n).p
    solve(plant, config)
    assert len(calls) == 3
    populations = batches[:: 1 + config.t_s]
    for generation, (alphas, scores, sigma, budget, score, states, params, out) in enumerate(
        calls
    ):
        assert len(out) == (p if refine_top_k is None else refine_top_k)
        streams = [driver._candidate_rng(11, generation, i).bit_generator.state
                   for i in range(p)]
        population = populations[generation]
        if refine_top_k is None:
            refined = range(p)
        else:
            order = sorted(range(p), key=lambda i: (-population[i].fitness, i))
            refined = sorted(order[:refine_top_k])
        assert states == [streams[i] for i in refined]
        assert scores == [population[i] for i in refined]
        for alpha, ev, state, (alpha_opt, ev_opt) in zip(alphas, scores, states, out):
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = state
            best, fit, used = run_local(
                alpha, ev.fitness, sigma, budget, lambda x: score(x[None])[0].fitness, rng, params
            )
            assert used == budget == 6
            assert best.tobytes() == alpha_opt.tobytes()
            assert fit.hex() == ev_opt.fitness.hex()
