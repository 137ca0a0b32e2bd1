import math

import numpy as np
import pytest

from sofsyn import builtin_plant_path, load_problem
from sofsyn.errors import DimensionMismatchError
from sofsyn.analysis import spectral_abscissa
from sofsyn.model import PlantRealization, close_loop, unflatten_gain
from sofsyn.objectives import (
    FitnessConfig,
    ObjectiveKind,
    PenaltyMode,
    evaluate,
    evaluate_batch,
    feasibility,
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
            if ev.objective + cfg.beta * ev.gain_norm < cfg.infeasible_penalty:
                feasible_fits.append(ev.fitness)
        else:
            infeasible_fits.append(ev.fitness)
            assert ev.fitness <= -cfg.infeasible_penalty
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
    with pytest.raises(ValueError):
        FitnessConfig(beta=-1.0)
    with pytest.raises(ValueError):
        FitnessConfig(infeasible_penalty=0.0)
    with pytest.raises(ValueError):
        FitnessConfig(norm_rel_tol=0.0)
    with pytest.raises(ValueError):
        FitnessConfig(stability_tol=-1.0)
    FitnessConfig(stability_tol=0.0)


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

    original = objectives.hinf_norm

    def failing_below(cl, rel_tol):
        # stands in for a norm failure on the f = -2 row (A_F[0, 0] = -3)
        if cl.A_F[0, 0] < -2.5:
            raise BracketError("no certifiable upper bound")
        return original(cl, rel_tol=rel_tol)

    monkeypatch.setattr(objectives, "hinf_norm", failing_below)
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
        assert failed.fitness == -cfg.infeasible_penalty > unstable.fitness
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
