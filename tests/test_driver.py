import math
from functools import partial

import numpy as np
import pytest

from sofsyn import builtin_plant_path, load_problem
from sofsyn.campaign import CampaignSpec
from sofsyn.cma import SIGMA_MAX, SIGMA_MIN, SIGMA_RESET, default_params
from sofsyn.driver import RunResult, SolverConfig, solve, solve_raw
from sofsyn.errors import ConfigError
from sofsyn.objectives import FitnessConfig, ObjectiveKind, evaluate, evaluate_batch


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_mean_rejected(value):
    """A run would stay on a non-finite mean: every reset restarts there."""
    with pytest.raises(ConfigError, match="initial_mean"):
        SolverConfig(initial_mean=[value, 0.0])


def test_negative_seed_rejected():
    with pytest.raises(ConfigError):
        SolverConfig(seed=-1)


def test_wall_time_recorded():
    res = solve_raw(lambda x: 0.0, 2, SolverConfig(t_max=50, local_search_enabled=False))
    assert isinstance(res, RunResult)
    assert res.wall_time > 0


def test_tolerances_validated():
    with pytest.raises(ConfigError):
        SolverConfig(beta=-1.0)
    for name in ("beta", "sigma0"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                SolverConfig(**{name: value})


_DI = load_problem(builtin_plant_path("double_integrator"))
_SPEC = partial(CampaignSpec, ("double_integrator",))


@pytest.mark.parametrize("build, field, value", [
    pytest.param(SolverConfig, "objective", "sa", id="SolverConfig.objective"),
    pytest.param(SolverConfig, "penalty_mode", "guided", id="SolverConfig.penalty_mode"),
    pytest.param(FitnessConfig, "penalty_mode", "guided", id="FitnessConfig.penalty_mode"),
    pytest.param(partial(evaluate, _DI, [3.0, 3.0]), "kind", "sa", id="evaluate.kind"),
    pytest.param(partial(evaluate_batch, _DI, [[3.0, 3.0]]), "kind", "hinf",
                 id="evaluate_batch.kind"),
    pytest.param(SolverConfig, "t_max", 100.5, id="SolverConfig.t_max"),
    pytest.param(SolverConfig, "t_s", 2.5, id="SolverConfig.t_s"),
    pytest.param(SolverConfig, "seed", 1.5, id="SolverConfig.seed"),
    pytest.param(SolverConfig, "threads", 2.0, id="SolverConfig.threads"),
    pytest.param(_SPEC, "runs", 2.5, id="CampaignSpec.runs"),
    pytest.param(_SPEC, "base_seed", 0.5, id="CampaignSpec.base_seed"),
    pytest.param(SolverConfig, "sigma0", "0.3", id="SolverConfig.sigma0"),
    pytest.param(SolverConfig, "beta", None, id="SolverConfig.beta"),
    pytest.param(SolverConfig, "initial_mean", "ab", id="SolverConfig.initial_mean-str"),
    pytest.param(SolverConfig, "initial_mean", [["1"]], id="SolverConfig.initial_mean-nested"),
    pytest.param(SolverConfig, "initial_mean", [[1.0], [1.0, 2.0]],
                 id="SolverConfig.initial_mean-ragged"),
    pytest.param(partial(evaluate, _DI, kind=ObjectiveKind.SPECTRAL_ABSCISSA), "alpha",
                 ["-1", "-2"], id="evaluate.alpha-str"),
    pytest.param(partial(evaluate, _DI, kind=ObjectiveKind.SPECTRAL_ABSCISSA), "alpha",
                 [True, True], id="evaluate.alpha-bool"),
    pytest.param(partial(evaluate, _DI, kind=ObjectiveKind.SPECTRAL_ABSCISSA), "alpha",
                 [[1.0], [1.0, 2.0]], id="evaluate.alpha-ragged"),
    pytest.param(partial(evaluate_batch, _DI, kind=ObjectiveKind.HINF_NORM), "X",
                 [["-1", "-2"]], id="evaluate_batch.X-str"),
    pytest.param(partial(evaluate_batch, _DI, kind=ObjectiveKind.HINF_NORM), "X",
                 np.ones((2, 2), dtype=bool), id="evaluate_batch.X-bool"),
    pytest.param(partial(evaluate_batch, _DI, kind=ObjectiveKind.HINF_NORM), "X",
                 [[1.0, 2.0], [1.0]], id="evaluate_batch.X-ragged"),
    pytest.param(SolverConfig, "local_search_enabled", "no",
                 id="SolverConfig.local_search_enabled"),
    pytest.param(SolverConfig, "charge_local_to_budget", 1,
                 id="SolverConfig.charge_local_to_budget"),
    pytest.param(SolverConfig, "t_max", True, id="SolverConfig.t_max-bool"),
    pytest.param(_SPEC, "runs", True, id="CampaignSpec.runs-bool"),
])
def test_config_value_of_the_wrong_type_rejected(build, field, value):
    """A string where an enum or a number belongs, a float or a bool where a
    count does, a non-bool where a bool does, or a ragged nesting where an
    array does, is refused with a ConfigError naming the field, not misread
    or left to fail inside numpy."""
    with pytest.raises(ConfigError, match=field):
        build(**{field: value})


def test_numpy_scalar_settings_construct():
    """Numpy scalars are numbers, counts and bools like Python's own."""
    config = SolverConfig(
        t_max=np.int64(100), t_s=np.int64(3), seed=np.int64(2), threads=np.int64(1),
        sigma0=np.float64(0.5), beta=np.float64(1e-9), initial_mean=np.arange(2),
        local_search_enabled=np.bool_(False), charge_local_to_budget=np.bool_(True),
    )
    assert solve_raw(sphere_at(np.zeros(2)), 2, config).global_evals == 100
    assert CampaignSpec(("a",), runs=np.int64(2), base_seed=np.int64(0)).runs == 2


@pytest.mark.parametrize("n", [0, 2.5, True, "2"])
def test_solve_raw_refuses_a_bad_dimension(n):
    """solve_raw's n is a count, refused where it enters."""
    with pytest.raises(ConfigError, match="n must be an integer >= 1"):
        solve_raw(sphere_at(np.zeros(2)), n, SolverConfig(t_max=10))


def test_nan_fitness_never_stays_best():
    """solve_raw scores a NaN fitness -inf: NaN compares false, so it would
    otherwise stay the best point and block every (1+1) acceptance."""

    def nan_right_of_the_line(x):
        if x[0] > 0.2:
            return math.nan
        return -float(np.sum((x - np.array([-1.0, 2.0])) ** 2))

    res = solve_raw(nan_right_of_the_line, 2, SolverConfig(t_max=400, seed=0))
    assert math.isfinite(res.best_fitness)
    np.testing.assert_allclose(res.best_alpha, [-1.0, 2.0], atol=1e-6)
    assert all(math.isfinite(rec.best_fitness) for rec in res.history[1:])


def test_sigma0_within_the_step_size_bounds():
    """sigma0 outside [SIGMA_MIN, SIGMA_MAX] is refused: the first
    maybe_reset would silently replace it."""
    for sigma0 in (SIGMA_MIN, SIGMA_MAX):
        assert SolverConfig(sigma0=sigma0).sigma0 == sigma0
    for sigma0 in (np.nextafter(SIGMA_MIN, 0.0), np.nextafter(SIGMA_MAX, math.inf), 1e20):
        with pytest.raises(ConfigError, match="sigma0"):
            SolverConfig(sigma0=float(sigma0))


def _reseeds_once_at_best(monkeypatch, name, degenerate_third_call):
    """Solve a 2-d sphere with ``driver.<name>`` replaced so that its third
    call returns ``degenerate_third_call(result of the real call)``; the run
    completes, maybe_reset re-seeds at the best point exactly once, and the
    next generation samples at SIGMA_RESET."""
    from sofsyn import driver

    calls = []
    resets = []
    real, maybe_reset = getattr(driver, name), driver.maybe_reset

    def fake(*args):
        calls.append(None)
        out = real(*args)
        return degenerate_third_call(out) if len(calls) == 3 else out

    def recording(state, best_alpha):
        resets.append(maybe_reset(state, best_alpha))
        if resets[-1]:
            assert np.array_equal(state.mean, best_alpha)
        return resets[-1]

    monkeypatch.setattr(driver, name, fake)
    monkeypatch.setattr(driver, "maybe_reset", recording)
    cfg = SolverConfig(t_max=120, seed=12, sigma0=1.0)
    res = solve_raw(sphere_at(np.zeros(2)), 2, cfg)
    assert res.global_evals == 120
    assert resets[2] and resets.count(True) == 1
    assert res.history[3].sigma == SIGMA_RESET


def test_step_size_overflow_reseeds_at_best(monkeypatch):
    """A step-size update that overflows (update_step_size returns inf)
    re-seeds the distribution at the best point instead of ending the run."""
    _reseeds_once_at_best(monkeypatch, "update_step_size", lambda sigma: math.inf)


def test_non_finite_covariance_update_reseeds_at_best(monkeypatch):
    """An evolution path that overflows once gives a non-finite covariance,
    which maybe_reset re-seeds at the best point instead of ending the run."""
    _reseeds_once_at_best(
        monkeypatch, "update_paths", lambda out: (out[0], np.full_like(out[1], np.inf), out[2])
    )


def test_lockstep_refinement_matches_run_local_per_candidate(monkeypatch):
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
    batch_floors = []
    evaluate_batch = driver.evaluate_batch

    def recording_batches(plant, X, kind, cfg, floors=None):
        evals = evaluate_batch(plant, X, kind, cfg, floors)
        batches.append(list(evals))
        batch_floors.append(floors)
        return evals

    monkeypatch.setattr(driver, "run_local_batch", recording)
    monkeypatch.setattr(driver, "evaluate_batch", recording_batches)
    plant = load_problem(builtin_plant_path("rand4"))
    config = SolverConfig(t_max=24, t_s=6, seed=11)
    p = default_params(plant.dims.n).p
    solve(plant, config)
    assert len(calls) == 3
    populations = batches[:: 1 + config.t_s]
    # populations are scored exactly; a local step's floors are its parents' fitness
    assert batch_floors[:: 1 + config.t_s] == [None] * 3
    assert all(floors is not None for i, floors in enumerate(batch_floors) if i % (1 + config.t_s))
    assert [batch_floors[1 + g * (1 + config.t_s)] for g in range(3)] == [
        [ev.fitness for ev in population] for population in populations
    ]
    for generation, (alphas, scores, sigma, budget, score, states, params, out) in enumerate(
        calls
    ):
        assert len(out) == p
        assert states == [driver._candidate_rng(11, generation, i).bit_generator.state
                          for i in range(p)]
        assert scores == populations[generation]
        for alpha, ev, state, (alpha_opt, ev_opt) in zip(alphas, scores, states, out):
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = state
            best, fit, used = run_local(
                alpha, ev.fitness, sigma, budget, lambda x: score(x[None])[0].fitness, rng, params
            )
            assert used == budget == 6
            assert best.tobytes() == alpha_opt.tobytes()
            assert fit.hex() == ev_opt.fitness.hex()


def _planted_d11_plant(seed, n_x=8, n_u=2, n_y=2):
    """An open-loop unstable plant with feedthrough D11 != 0 that a planted
    gain stabilizes: A = A_s - B F0 C with A_s Hurwitz."""
    from sofsyn.analysis import spectral_abscissa
    from sofsyn.model import PlantRealization

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(n_x)
    M = scale * rng.standard_normal((n_x, n_x))
    A_s = M - (spectral_abscissa(M) + 1.0) * np.eye(n_x)
    B = scale * rng.standard_normal((n_x, n_u))
    C = scale * rng.standard_normal((n_y, n_x))
    A = A_s - 3.0 * B @ rng.standard_normal((n_u, n_y)) @ C
    assert spectral_abscissa(A) > 0
    return PlantRealization(
        A=A, B1=scale * rng.standard_normal((n_x, 2)), B=B,
        C1=scale * rng.standard_normal((2, n_x)), D11=0.2 * rng.standard_normal((2, 2)),
        D12=rng.standard_normal((2, n_u)), C=C, name="planted_d11",
    )


def _result_bits(res: RunResult):
    return (
        res.best_alpha.tobytes(), res.best_fitness.hex(), res.best_objective.hex(),
        res.feasible, res.global_evals, res.local_evals, repr(res.history),
    )


@pytest.mark.parametrize("plant_name", ["rand4", "planted_d11"])
def test_local_floors_change_no_bit_of_a_solve(plant_name, monkeypatch):
    """Stopping the norm of offspring that cannot beat their parent leaves
    every bit of the run as a scorer that ignores the floors leaves it,
    while the floors do stop norms early."""
    from sofsyn import driver, objectives

    if plant_name == "rand4":
        plant = load_problem(builtin_plant_path("rand4"))
    else:
        plant = _planted_d11_plant(seed=3)
    config = SolverConfig(t_max=300, seed=5)
    hinf_norms = objectives.hinf_norms
    stops = []

    def counting(A_F, C_F, B1, D11, poles, stop=None):
        results = hinf_norms(A_F, C_F, B1, D11, poles, stop)
        values = np.array([r.value for r in results])
        held = [False] * len(results) if stop is None else stop(values)
        stops.extend(bool(h) for h in held)
        return results

    monkeypatch.setattr(objectives, "hinf_norms", counting)
    floored = solve(plant, config)
    assert sum(stops) > len(stops) // 4
    stops.clear()
    evaluate_batch = driver.evaluate_batch
    monkeypatch.setattr(
        driver, "evaluate_batch",
        lambda plant, X, kind, cfg, floors=None: evaluate_batch(plant, X, kind, cfg),
    )
    exact = solve(plant, config)
    assert not any(stops)
    assert _result_bits(floored) == _result_bits(exact)
