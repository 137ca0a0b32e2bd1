"""The campaign process pool: what comes back through ``campaign.solve``,
the worker cap, and clean-up. No test starts more than two workers."""

import math
import multiprocessing
import os
import threading

import pytest

from sofsyn import builtin_plant_path, campaign, driver
from sofsyn.campaign import CampaignSpec, run_campaign
from sofsyn.driver import SolverConfig
from sofsyn.errors import ConfigError, EigenSolveError
from sofsyn.objectives import ObjectiveKind

PLANTS = tuple(builtin_plant_path(name) for name in ("double_integrator", "rand4"))


def hinf_spec(threads=2, **kw):
    config = SolverConfig(objective=ObjectiveKind.HINF_NORM, t_max=100, t_s=3, threads=threads)
    return CampaignSpec(problems=PLANTS, config=config, **{"runs": 2, "base_seed": 7, **kw})


@pytest.fixture
def two_cpus(monkeypatch):
    """Let a threads=2 campaign use the pool on any host."""
    monkeypatch.setattr(campaign, "_available_cpus", lambda: 2)


def fingerprint(result):
    return (
        result.best_alpha.tobytes(),
        result.best_fitness.hex(),
        result.best_objective.hex(),
        result.feasible,
        result.global_evals,
        result.local_evals,
        tuple(
            (h.generation, h.best_fitness.hex(), h.sigma.hex(), h.feasible_fraction.hex(),
             h.global_evals, h.local_evals)
            for h in result.history
        ),
    )


def test_pooled_solves_come_back_through_campaign_solve(two_cpus, monkeypatch):
    parent = os.getpid()
    real_solve = campaign._driver_solve

    def in_worker_only(plant, config, progress=None):
        assert os.getpid() != parent, "a pooled solve ran in the parent process"
        return real_solve(plant, config, progress)

    monkeypatch.setattr(campaign, "_driver_solve", in_worker_only)
    entered, seen = [], []
    handed_over = campaign.solve

    def recording(plant, config, progress=None):
        entered.append(plant.name)
        result = handed_over(plant, config, progress)
        seen.append((plant, config, result))
        return result

    monkeypatch.setattr(campaign, "solve", recording)
    rows, _ = run_campaign(hinf_spec())

    # rand4 (n_x=4) goes out before the double integrator (n_x=2), but rows
    # come back in (problem, run index) order
    assert entered[:2] == ["rand4", "rand4"]
    assert [(r.problem, r.run_index) for r in rows] == [
        ("double_integrator", 0), ("double_integrator", 1), ("rand4", 0), ("rand4", 1)]
    assert sorted((p.name, c.seed) for p, c, _ in seen) == sorted(
        (r.problem, r.seed) for r in rows)
    assert len(seen) == len(rows)
    for plant, config, result in seen:
        assert fingerprint(result) == fingerprint(driver.solve(plant, config))


def test_pooled_campaign_leaves_no_process_or_thread(two_cpus):
    threads_before = threading.active_count()
    run_campaign(hinf_spec(runs=1))
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before


def test_config_error_in_worker_ends_campaign_and_cleans_up(two_cpus):
    # rand4 has n=4 (population 8), so t_max=6 fails for every rand4 run
    spec = CampaignSpec(problems=PLANTS, config=SolverConfig(t_max=6, t_s=1, threads=2), runs=2)
    threads_before = threading.active_count()
    with pytest.raises(ConfigError, match="population"):
        run_campaign(spec)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before


def test_numerical_failure_in_worker_is_a_failed_row(two_cpus, monkeypatch):
    real_solve = campaign._driver_solve

    def failing_on_rand4(plant, config, progress=None):
        if plant.name == "rand4":
            raise EigenSolveError("dgeev did not converge")
        return real_solve(plant, config, progress)

    monkeypatch.setattr(campaign, "_driver_solve", failing_on_rand4)
    rows, sums = run_campaign(hinf_spec())
    rand4_rows = [r for r in rows if r.problem == "rand4"]
    assert len(rand4_rows) == 2
    assert all(not r.feasible and math.isinf(r.objective) for r in rand4_rows)
    assert sums[1].success_count == 0
    assert all(r.global_evals == 100 for r in rows if r.problem == "double_integrator")


@pytest.mark.parametrize("cpus, runs", [(1, 2), (2, 1)])
def test_one_worker_runs_serially(cpus, runs, monkeypatch):
    """The pool is capped by available CPUs and by the number of runs."""
    def no_pool(*args):
        raise AssertionError("the pool was started")

    monkeypatch.setattr(campaign, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(campaign, "_run_pooled", no_pool)
    spec = CampaignSpec(problems=PLANTS[:1], config=SolverConfig(t_max=100, threads=2), runs=runs)
    rows, _ = run_campaign(spec)
    assert len(rows) == runs
