import math
import warnings

import numpy as np
import pytest

from sofsyn import builtin_plant_path, load_problem
from sofsyn.errors import ConfigError, DimensionMismatchError
from sofsyn.analysis import spectral_abscissa
from sofsyn.model import PlantRealization, close_loop, unflatten_gain
from sofsyn.objectives import (
    INFEASIBLE_PENALTY,
    Evaluation,
    FitnessConfig,
    ObjectiveKind,
    PenaltyMode,
    evaluate,
    evaluate_batch,
    gain_norm,
)

LAG = PlantRealization(
    A=[[-1.0]], B1=[[1.0]], B=[[1.0]], C1=[[1.0]], D11=[[0.0]], D12=[[0.0]], C=[[1.0]],
    name="lag",
)
UNSTABLE_LAG = PlantRealization(
    A=[[1.0]], B1=[[1.0]], B=[[1.0]], C1=[[1.0]], D11=[[0.0]], D12=[[0.0]], C=[[1.0]],
    name="unstable_lag",
)


@pytest.fixture(scope="module")
def double_integrator():
    return load_problem(builtin_plant_path("double_integrator"))


def feasibility(plant, alpha):
    """The stability verdict of evaluate: the closed loop is Hurwitz."""
    return evaluate(plant, alpha, ObjectiveKind.SPECTRAL_ABSCISSA).feasible


def test_gain_norm_345():
    assert gain_norm(np.array([3.0, 4.0])) == 5.0


def test_gain_norm_zero():
    assert gain_norm(np.zeros(7)) == 0.0


def test_gain_norm_matches_fsum_oracle():
    rng = np.random.default_rng(20)
    for _ in range(50):
        v = rng.standard_normal(rng.integers(1, 30)) * 10.0 ** rng.integers(-3, 4)
        expected = math.sqrt(math.fsum(float(x) * float(x) for x in v))
        assert gain_norm(v) == pytest.approx(expected, rel=1e-14)


def test_feasibility_double_integrator(double_integrator):
    assert feasibility(double_integrator, np.array([-1.0, -2.0]))
    assert not feasibility(double_integrator, np.zeros(2))


def test_feasibility_matches_hand_expansion_oracle():
    from test_analysis import abscissa_oracle
    from test_model import matmul_oracle, random_plant

    rng = np.random.default_rng(21)
    for _ in range(25):
        plant = random_plant(rng, n_x=4)
        alpha = rng.standard_normal(4) * 2.0
        F = alpha.reshape((2, 2), order="F")
        A_F = plant.A + matmul_oracle(matmul_oracle(plant.B, F), plant.C)
        oracle_abscissa = abscissa_oracle(A_F)
        if abs(oracle_abscissa) < 1e-6:
            continue  # too close to the tolerance boundary to compare verdicts
        assert feasibility(plant, alpha) == (oracle_abscissa < 0)


def test_evaluate_lag_hinf_zero_gain():
    ev = evaluate(LAG, np.zeros(1), ObjectiveKind.HINF_NORM, FitnessConfig(beta=0.0))
    assert ev.feasible
    assert ev.objective == pytest.approx(1.0, rel=1e-6)
    assert ev.fitness == pytest.approx(-1.0, rel=1e-6)
    assert ev.gain_norm == 0.0


def test_evaluate_unstable_strict_penalty():
    cfg = FitnessConfig(beta=0.0, penalty_mode=PenaltyMode.STRICT)
    ev = evaluate(UNSTABLE_LAG, np.zeros(1), ObjectiveKind.HINF_NORM, cfg)
    assert not ev.feasible
    assert ev.fitness == -1e5
    assert math.isinf(ev.objective) and ev.objective > 0


def test_evaluate_unstable_guided_penalty_ranks_by_abscissa():
    cfg = FitnessConfig(penalty_mode=PenaltyMode.GUIDED)
    ev = evaluate(UNSTABLE_LAG, np.zeros(1), ObjectiveKind.HINF_NORM, cfg)
    # closed loop is A = 1, so the guided term subtracts the abscissa 1.0
    assert ev.fitness == pytest.approx(-1e5 - 1.0)
    worse = PlantRealization(
        A=[[2.0]], B1=[[1.0]], B=[[1.0]], C1=[[1.0]], D11=[[0.0]], D12=[[0.0]], C=[[1.0]]
    )
    ev_worse = evaluate(worse, np.zeros(1), ObjectiveKind.HINF_NORM, cfg)
    assert ev_worse.fitness < ev.fitness


def test_evaluate_spectral_abscissa_sign_convention():
    plant = PlantRealization(
        A=np.diag([-1.0, -2.0]), B1=[[1.0], [0.0]], B=[[0.0], [0.0]],
        C1=[[1.0, 0.0]], D11=[[0.0]], D12=[[0.0]], C=[[1.0, 0.0]],
    )
    ev = evaluate(plant, np.zeros(1), ObjectiveKind.SPECTRAL_ABSCISSA, FitnessConfig(beta=0.0))
    assert ev.objective == pytest.approx(-1.0, abs=1e-12)
    assert ev.fitness == pytest.approx(1.0, abs=1e-12)
    assert ev.feasible


def test_evaluate_sa_infeasible_is_scored_not_penalized(double_integrator):
    ev = evaluate(double_integrator, np.zeros(2), ObjectiveKind.SPECTRAL_ABSCISSA,
                  FitnessConfig(beta=0.0))
    assert not ev.feasible
    assert ev.objective == pytest.approx(0.0, abs=1e-9)
    assert ev.fitness == pytest.approx(0.0, abs=1e-9)


def test_strict_penalty_dominance(double_integrator):
    cfg = FitnessConfig(penalty_mode=PenaltyMode.STRICT)
    rng = np.random.default_rng(22)
    feasible_fits, infeasible_fits = [], []
    for _ in range(120):
        alpha = rng.standard_normal(2) * 3.0
        ev = evaluate(double_integrator, alpha, ObjectiveKind.HINF_NORM, cfg)
        if ev.feasible:
            if ev.objective + cfg.beta * ev.gain_norm < INFEASIBLE_PENALTY:
                feasible_fits.append(ev.fitness)
        else:
            infeasible_fits.append(ev.fitness)
            assert ev.fitness <= -INFEASIBLE_PENALTY
    assert feasible_fits and infeasible_fits
    assert max(infeasible_fits) < min(feasible_fits)


def test_fitness_strictly_decreasing_in_beta(double_integrator):
    alpha = np.array([-1.0, -2.0])
    fits = []
    for beta in (0.0, 1e-6, 1e-3, 1e-1):
        ev = evaluate(double_integrator, alpha, ObjectiveKind.HINF_NORM,
                      FitnessConfig(beta=beta))
        fits.append(ev.fitness)
    assert all(a > b for a, b in zip(fits, fits[1:]))


def test_argmax_fitness_is_argmin_penalized_objective(double_integrator):
    rng = np.random.default_rng(23)
    cfg = FitnessConfig(beta=1e-3)
    evals = []
    while len(evals) < 12:
        alpha = np.array([-1.0, -2.0]) + rng.standard_normal(2)
        ev = evaluate(double_integrator, alpha, ObjectiveKind.HINF_NORM, cfg)
        if ev.feasible:
            evals.append(ev)
    by_fitness = max(range(len(evals)), key=lambda i: evals[i].fitness)
    by_objective = min(
        range(len(evals)), key=lambda i: evals[i].objective + cfg.beta * evals[i].gain_norm
    )
    assert by_fitness == by_objective


def test_evaluate_deterministic(double_integrator):
    alpha = np.array([-0.7, -1.3])
    cfg = FitnessConfig()
    a = evaluate(double_integrator, alpha, ObjectiveKind.HINF_NORM, cfg)
    b = evaluate(double_integrator, alpha, ObjectiveKind.HINF_NORM, cfg)
    assert a == b


def test_evaluate_nonfinite_candidate_ranks_last(double_integrator):
    ev = evaluate(double_integrator, np.array([np.inf, 0.0]),
                  ObjectiveKind.HINF_NORM, FitnessConfig())
    assert not ev.feasible and ev.fitness == -math.inf


def test_fitness_config_validation():
    for beta in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            FitnessConfig(beta=beta)
    FitnessConfig(beta=0.0)


# A_F = A + B f C = [[1 + 2f, 1 + f], [6f, -2 + 3f]] for a scalar gain f:
# f = -1 and f = -2 are stable, f = 0 is not, and f = 1e308 overflows A_F.
BATCH_PLANT = PlantRealization(
    A=[[1.0, 1.0], [0.0, -2.0]], B1=[[1.0], [0.5]], B=[[1.0], [3.0]],
    C1=[[1.0, 0.0]], D11=[[0.2]], D12=[[0.1]], C=[[2.0, 1.0]], name="batch",
)
BATCH_ROWS = np.array([[-1.0], [0.0], [np.inf], [np.nan], [1e308], [-2.0], [-1.5], [-np.inf]])


def _same_bits(a, b):
    return repr(a) == repr(b)  # repr of a float round-trips its exact bits


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_evaluate_batch_rows_match_single_evaluations(kind, monkeypatch):
    import sofsyn.objectives as objectives
    from sofsyn.errors import BracketError

    original = objectives.hinf_norms

    def failing_below(A_F, C_F, B1, D11, poles, stop=None):
        # stands in for a norm failure on the f = -2 row (A_F[0, 0] = -3)
        results = original(A_F, C_F, B1, D11, poles, stop)
        return [
            BracketError("no certifiable upper bound") if A[0, 0] < -2.5 else res
            for A, res in zip(A_F, results)
        ]

    monkeypatch.setattr(objectives, "hinf_norms", failing_below)
    cfg = FitnessConfig(beta=1e-3)
    batch = evaluate_batch(BATCH_PLANT, BATCH_ROWS, kind, cfg)
    singles = [evaluate(BATCH_PLANT, row, kind, cfg) for row in BATCH_ROWS]
    assert len(batch) == len(BATCH_ROWS)
    assert all(_same_bits(a, b) for a, b in zip(batch, singles))
    with np.errstate(over="ignore"):
        norms = [gain_norm(row) for row in BATCH_ROWS]
    assert all(_same_bits(ev.gain_norm, norm) for ev, norm in zip(batch, norms))
    stable, unstable, inf, nan, overflow, failed = batch[:6]
    assert stable.feasible and math.isfinite(stable.fitness)
    assert not unstable.feasible
    for ev in (inf, nan, overflow):
        assert ev.fitness == -math.inf and not ev.feasible
    if kind is ObjectiveKind.HINF_NORM:
        assert not failed.feasible and failed.objective == math.inf
        assert failed.fitness == -INFEASIBLE_PENALTY > unstable.fitness
    else:
        assert failed.feasible


def test_evaluate_batch_matches_per_row_reference():
    """Stacked closing of the loop and batched norms give the bits of the
    per-row path: close_loop on the unflattened gain, then the abscissa."""
    from test_model import random_plant

    rng = np.random.default_rng(22)
    plant = random_plant(rng, n_x=4, n_u=2, n_y=3)
    X = rng.standard_normal((200, 6)) * 10.0 ** rng.integers(-3, 4, (200, 1))
    cfg = FitnessConfig(beta=1e-3)
    for row, ev in zip(X, evaluate_batch(plant, X, ObjectiveKind.SPECTRAL_ABSCISSA, cfg)):
        abscissa = spectral_abscissa(close_loop(plant, unflatten_gain(row, 2, 3)).A_F)
        assert _same_bits(ev.gain_norm, gain_norm(row))
        assert _same_bits(ev.objective, abscissa)
        assert _same_bits(ev.fitness, -(abscissa + cfg.beta * gain_norm(row)))


def test_evaluate_batch_shape_checked(double_integrator):
    with pytest.raises(DimensionMismatchError):
        evaluate_batch(double_integrator, np.zeros((3, 5)), ObjectiveKind.HINF_NORM)
    assert evaluate_batch(double_integrator, np.zeros((0, 2)), ObjectiveKind.HINF_NORM) == []


def test_feasible_hinf_row_reuses_the_stability_eigensolve(double_integrator, monkeypatch):
    """A feasible H-infinity row eigensolves A_F once, for the stability
    verdict, and hinf_norm adds only its Hamiltonian eigensolves."""
    from sofsyn import analysis
    import sofsyn.objectives as objectives

    solves = []
    results = []
    dgeev, hinf_norms = analysis.dgeev, objectives.hinf_norms
    monkeypatch.setattr(analysis, "dgeev", lambda *a, **k: solves.append(1) or dgeev(*a, **k))
    monkeypatch.setattr(
        objectives, "hinf_norms", lambda *a, **k: results.extend(hinf_norms(*a, **k)) or results
    )
    ev = evaluate(double_integrator, [-1.0, -2.0], ObjectiveKind.HINF_NORM)
    assert ev.feasible and len(results) == 1
    assert len(solves) == 1 + results[0].iterations


def test_floored_rows_stop_only_when_they_cannot_beat_their_floor(monkeypatch):
    """A row whose exact fitness exceeds its floor scores bit for bit as
    without a floor; any other row may stop early, and then scores an upper
    bound on its exact fitness that is at most the floor."""
    import dataclasses

    import sofsyn.objectives as objectives
    from test_model import random_plant

    rng = np.random.default_rng(26)
    plant = random_plant(rng, n_x=5, n_u=2, n_y=3)
    plant = dataclasses.replace(plant, A=plant.A - (spectral_abscissa(plant.A) + 0.5) * np.eye(5))
    X = rng.standard_normal((60, plant.dims.n)) * 10.0 ** rng.uniform(-2, 0.5, (60, 1))
    cfg = FitnessConfig(beta=1e-3)
    iterations = []
    hinf_norms = objectives.hinf_norms

    def counting(*args, **kwargs):
        results = hinf_norms(*args, **kwargs)
        iterations.extend(res.iterations for res in results)
        return results

    monkeypatch.setattr(objectives, "hinf_norms", counting)
    exact = evaluate_batch(plant, X, ObjectiveKind.HINF_NORM, cfg)
    exact_iterations = list(iterations)
    feasible = [ev.feasible for ev in exact]
    assert 10 <= sum(feasible) < len(X)
    stopped = 0
    for shift in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3, 10.0):
        floors = [ev.fitness + shift * abs(ev.fitness) for ev in exact]
        iterations.clear()
        for ev, floor, row in zip(exact, floors, evaluate_batch(
            plant, X, ObjectiveKind.HINF_NORM, cfg, floors
        )):
            if ev.fitness > floor:
                assert _same_bits(row, ev)
            else:
                assert ev.fitness <= row.fitness <= floor
                assert row.feasible == ev.feasible
                assert _same_bits(row.gain_norm, ev.gain_norm)
                stopped += not _same_bits(row, ev)
        if shift == 0.0:
            # a floor equal to the exact fitness saves at least the certifying round
            assert len(iterations) == len(exact_iterations)
            assert all(a < b for a, b in zip(iterations, exact_iterations))
    assert stopped > 0


def test_floor_below_the_penalty_is_ignored(monkeypatch):
    """A stable row whose norm computation would fail scores exactly
    -INFEASIBLE_PENALTY, so a floor below that must not stop the norm: the
    full run fails and the row beats its floor, as it does without one. The
    penalty is lowered to 1e-2 so that floors near it can stop the norm."""
    import sofsyn.objectives as objectives
    from sofsyn.errors import BracketError

    original = objectives.hinf_norms

    def failing_unless_stopped(A_F, C_F, B1, D11, poles, stop=None):
        # stands in for a norm that fails in a round after the one that stops
        results = original(A_F, C_F, B1, D11, poles, stop)
        values = np.array([r.value for r in results])
        held = [False] * len(results) if stop is None else stop(values)
        return [
            res if h else BracketError("no certifiable upper bound")
            for res, h in zip(results, held)
        ]

    monkeypatch.setattr(objectives, "hinf_norms", failing_unless_stopped)
    monkeypatch.setattr(objectives, "INFEASIBLE_PENALTY", 1e-2)
    penalty = objectives.INFEASIBLE_PENALTY
    cfg = FitnessConfig(beta=1e-3)
    row = np.array([[-1.0]])  # stable, norm above 0.2 = sigma_max(D11)
    kind = ObjectiveKind.HINF_NORM
    [exact] = evaluate_batch(BATCH_PLANT, row, kind, cfg)
    assert exact.fitness == -penalty and not exact.feasible
    [below] = evaluate_batch(BATCH_PLANT, row, kind, cfg, [-2 * penalty])
    assert _same_bits(below, exact)
    # a floor at the penalty is kept: the row stops and loses, as the exact row does
    [at] = evaluate_batch(BATCH_PLANT, row, kind, cfg, [-penalty])
    assert at.feasible and at.fitness <= -penalty


def test_floor_below_the_penalty_is_ignored_beside_a_usable_one(monkeypatch):
    """In one batch, a row whose floor is below -INFEASIBLE_PENALTY (lowered
    to 1e-2) runs its norm in full even while another row's floor stops its
    own."""
    import sofsyn.objectives as objectives
    from sofsyn.errors import BracketError

    original = objectives.hinf_norms

    def failing_unless_stopped(A_F, C_F, B1, D11, poles, stop=None):
        results = original(A_F, C_F, B1, D11, poles, stop)
        held = stop(np.array([r.value for r in results]))
        return [
            r if h else BracketError("no certifiable upper bound") for r, h in zip(results, held)
        ]

    monkeypatch.setattr(objectives, "hinf_norms", failing_unless_stopped)
    monkeypatch.setattr(objectives, "INFEASIBLE_PENALTY", 1e-2)
    penalty = objectives.INFEASIBLE_PENALTY
    cfg = FitnessConfig(beta=1e-3)
    rows = np.array([[-1.0], [-1.5]])  # both stable, norms above 0.2 = sigma_max(D11)
    floors = [-2 * penalty, -penalty]
    low, usable = evaluate_batch(BATCH_PLANT, rows, ObjectiveKind.HINF_NORM, cfg, floors)
    assert low.fitness == -penalty and not low.feasible
    assert usable.feasible and usable.fitness <= -penalty


def test_evaluate_batch_eigensolves_once_per_loop_and_per_round(monkeypatch):
    """A batch eigensolves each finite row once, for its stability
    verdict, and each Hamiltonian round of each stable H-infinity row once:
    sum(1 + iterations) matrices over the stable rows. Each stack is one
    dgeev call: one for the stability verdicts and one per round."""
    import dataclasses

    from sofsyn import analysis
    import sofsyn.objectives as objectives
    from test_model import random_plant

    rng = np.random.default_rng(31)
    plant = random_plant(rng, n_x=5, n_u=2, n_y=3)
    plant = dataclasses.replace(plant, A=plant.A - (spectral_abscissa(plant.A) + 0.5) * np.eye(5))
    X = rng.standard_normal((24, plant.dims.n)) * 10.0 ** rng.uniform(-2, 0.5, (24, 1))
    X[5] = np.inf
    cfg = FitnessConfig(beta=1e-3)
    solves, results = [], []
    dgeev, hinf_norms = analysis.dgeev, objectives.hinf_norms
    monkeypatch.setattr(analysis, "dgeev", lambda M: solves.append(len(M)) or dgeev(M))

    def recording(*args, **kwargs):
        results.extend(hinf_norms(*args, **kwargs))
        return results[-len(args[0]):]

    monkeypatch.setattr(objectives, "hinf_norms", recording)
    exact = evaluate_batch(plant, X, ObjectiveKind.HINF_NORM, cfg)
    for floors in (None, [ev.fitness for ev in exact]):
        solves.clear()
        results.clear()
        evals = evaluate_batch(plant, X, ObjectiveKind.HINF_NORM, cfg, floors)
        stable = sum(ev.feasible for ev in evals)
        assert 5 <= stable < len(X) - 1 and len(results) == stable
        assert sum(solves) == (len(X) - stable - 1) + sum(1 + r.iterations for r in results)
        assert len(solves) == 1 + max(r.iterations for r in results)


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_failing_stability_eigensolve_penalizes_only_its_row(kind, monkeypatch):
    """A stability eigensolve that fails inside the batch's stack makes its
    row penalized and infeasible instead of ending the batch; the stack is
    redone row by row, so every other row keeps the bits it has alone."""
    import dataclasses

    from sofsyn import analysis
    from test_model import random_plant

    rng = np.random.default_rng(32)
    plant = random_plant(rng, n_x=5, n_u=2, n_y=3)
    plant = dataclasses.replace(plant, A=plant.A - (spectral_abscissa(plant.A) + 0.5) * np.eye(5))
    X = rng.standard_normal((12, plant.dims.n)) * 10.0 ** rng.uniform(-2, 0.5, (12, 1))
    cfg = FitnessConfig(beta=1e-3)
    dgeev = analysis.dgeev
    stacks = []
    monkeypatch.setattr(analysis, "dgeev", lambda M: stacks.append(M) or dgeev(M))
    exact = evaluate_batch(plant, X, kind, cfg)
    assert 3 <= sum(ev.feasible for ev in exact) < len(X)
    bad = 4
    target = stacks[0][bad]

    def failing(M):
        if any(np.array_equal(A, target) for A in M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return dgeev(M)

    monkeypatch.setattr(analysis, "dgeev", failing)
    batch = evaluate_batch(plant, X, kind, cfg)
    penalized = Evaluation(-INFEASIBLE_PENALTY, math.inf, gain_norm(X[bad]), False)
    assert _same_bits(batch[bad], penalized)
    assert _same_bits(evaluate(plant, X[bad], kind, cfg), penalized)
    for i, (row, alone) in enumerate(zip(X, exact)):
        if i != bad:
            assert _same_bits(batch[i], alone)
            assert _same_bits(evaluate(plant, row, kind, cfg), alone)


def test_stable_row_with_overflowing_performance_output_scores_the_penalty():
    # f = -1e10 keeps A_F finite and Hurwitz, but C_F = C1 + D12 f C = -inf
    plant = PlantRealization(
        A=BATCH_PLANT.A, B1=BATCH_PLANT.B1, B=BATCH_PLANT.B, C1=BATCH_PLANT.C1,
        D11=BATCH_PLANT.D11, D12=[[1e300]], C=BATCH_PLANT.C, name="overflow",
    )
    expected = Evaluation(-100000.0, math.inf, 1e10, False)
    kind = ObjectiveKind.HINF_NORM
    assert _same_bits(evaluate(plant, np.array([-1e10]), kind), expected)
    batch = evaluate_batch(plant, np.array([[-1e10], [0.0], [-1e10]]), kind)
    assert _same_bits(batch[0], expected) and _same_bits(batch[2], expected)
    assert not batch[1].feasible and batch[1].fitness < -1e5


def test_stable_row_with_overflowing_hamiltonian_scores_the_penalty_silently():
    # f = 0.5 leaves A_F = -0.5 and C_F = 5e159 finite, but C_F' C_F in the
    # Hamiltonian overflows: the norm fails, and numpy warns about nothing
    plant = PlantRealization(
        A=[[-1.0]], B1=[[1.0]], B=[[1.0]], C1=[[1.0]], D11=[[0.0]], D12=[[1e160]], C=[[1.0]],
        name="hamiltonian_overflow",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = evaluate(plant, np.array([0.5]), ObjectiveKind.HINF_NORM)
    assert _same_bits(ev, Evaluation(-100000.0, math.inf, 0.5, False))


def test_gain_that_is_not_a_number_scores_the_penalty():
    # f = 0.9 leaves A_F = -0.1 and C_F = 9e307 finite, but the gain at the
    # probe frequencies is not a number: the norm fails rather than read 0
    plant = PlantRealization(
        A=[[-1.0]], B1=[[1.0]], B=[[1.0]], C1=[[1.0]], D11=[[0.0]], D12=[[1e308]], C=[[1.0]],
        name="gain_overflow",
    )
    expected = Evaluation(-100000.0, math.inf, 0.9, False)
    kind = ObjectiveKind.HINF_NORM
    rows = np.array([[-1e-300], [0.9], [-2e-300]])
    alone = [evaluate(plant, row, kind) for row in rows]
    assert _same_bits(alone[1], expected)
    assert alone[0].feasible and alone[2].feasible
    assert all(_same_bits(a, b) for a, b in zip(evaluate_batch(plant, rows, kind), alone))
