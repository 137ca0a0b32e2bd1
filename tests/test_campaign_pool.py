"""The campaign process pool: what comes back through ``campaign.solve``,
the worker cap, and clean-up. No test starts more than two workers."""

import json
import math
import multiprocessing
import os
import signal
import threading
import time

import pytest

from sofsyn import builtin_plant_path, campaign, driver
from sofsyn.campaign import CampaignSpec, run_campaign
from sofsyn.cli import main
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


def _rows_without_wall_times(path):
    doc = json.loads(path.read_text())
    for rec in doc["rows"]:
        rec.pop("wall_time_s")
    for rec in doc["summary"]:
        rec.pop("mean_wall_time_s")
    return doc


def test_killed_worker_is_retried_and_bench_writes_every_row(tmp_path, two_cpus, monkeypatch):
    """SIGKILL one worker of a running ``bench --threads 2``: the jobs in
    flight run again, bench exits 0 and writes every row, and the rows are
    those of ``--threads 1``."""
    entered = threading.Event()
    handed_over, run_row = campaign.solve, campaign._run_row
    monkeypatch.setattr(
        campaign, "solve", lambda *a, **k: entered.set() or handed_over(*a, **k))
    attempts = []
    monkeypatch.setattr(campaign, "_run_row", lambda *a: attempts.append(1) or run_row(*a))

    def kill_one_worker():
        # a rand4 solve at this budget takes about half a second
        entered.wait(60)
        time.sleep(0.2)
        os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)

    args = [
        "bench", "--problem", builtin_plant_path("rand4"),
        "--problem", builtin_plant_path("double_integrator"),
        "--runs", "2", "--budget", "300", "--format", "json",
    ]
    threads_before = threading.active_count()
    killer = threading.Thread(target=kill_one_worker)
    killer.start()
    pooled = tmp_path / "pooled.json"
    code = main(args + ["--threads", "2", "--out", str(pooled)])
    killer.join(60)
    assert not killer.is_alive() and code == 0
    assert len(attempts) > 4  # the pool broke and jobs in flight ran again
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before
    serial = tmp_path / "serial.json"
    assert main(args + ["--threads", "1", "--out", str(serial)]) == 0
    assert _rows_without_wall_times(pooled) == _rows_without_wall_times(serial)


def test_job_that_breaks_its_pool_twice_is_a_failed_row(two_cpus, monkeypatch):
    """A job whose worker dies on every try is retried once, alone, and then
    recorded as unsuccessful; the job in flight beside it and the jobs not
    yet started keep their rows."""
    serial, _ = run_campaign(hinf_spec(threads=1))
    parent, real_solve = os.getpid(), campaign._driver_solve

    def dying_on_one_run(plant, config, progress=None):
        if plant.name == "rand4" and config.seed == 8 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_solve(plant, config, progress)

    monkeypatch.setattr(campaign, "_driver_solve", dying_on_one_run)
    rows, sums = run_campaign(hinf_spec())
    failed = rows[3]
    assert (failed.problem, failed.seed, failed.feasible) == ("rand4", 8, False)
    assert math.isinf(failed.objective) and failed.global_evals == 0
    assert [fingerprint_row(r) for r in rows[:3]] == [fingerprint_row(r) for r in serial[:3]]
    assert sums[1].success_count == 1
    assert multiprocessing.active_children() == []


def fingerprint_row(row):
    return {k: v for k, v in vars(row).items() if k != "wall_time_s"}
