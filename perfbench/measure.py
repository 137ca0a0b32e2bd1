"""Timed units of work: full solves, races and campaigns.

Everything here calls the program through module attributes
(``driver.solve``, ``cli.main``) so that a :class:`tracing.Tracer` entered
around a call sees it.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from sofsyn import campaign, cli, driver
from sofsyn.driver import GenerationRecord, RunResult, SolverConfig
from sofsyn.model import PlantRealization
from sofsyn.objectives import ObjectiveKind


def best_is_feasible(rec: GenerationRecord, config: SolverConfig) -> bool:
    """Whether the best candidate so far is stable, read from its fitness.

    An unstable H-infinity candidate scores at most -infeasible_penalty; a
    spectral-abscissa fitness is -(abscissa + beta*||alpha||) <= -abscissa.
    """
    if config.objective is ObjectiveKind.HINF_NORM:
        return rec.best_fitness > -config.infeasible_penalty
    return -rec.best_fitness < -config.stability_tol


def timed_solve(plant: PlantRealization, config: SolverConfig) -> tuple[float, RunResult]:
    t0 = perf_counter()
    result = driver.solve(plant, config)
    return perf_counter() - t0, result


class _GoalReached(Exception):
    """Raised from the progress callback to stop a race."""


@dataclass
class Race:
    """Seconds from the start of a solve to its first feasible generation and
    to the first generation reaching the target (None if never reached)."""

    to_feasible: float | None = None
    to_target: float | None = None
    wall: float | None = None  # set when the solve used its whole budget


def race(plant: PlantRealization, config: SolverConfig, target: float | None) -> Race:
    """Solve until the best candidate is feasible (``target`` None) or its
    penalized objective is at most ``target``; the progress callback stops
    the solve there."""
    out = Race()
    t0 = perf_counter()

    def progress(rec: GenerationRecord) -> None:
        now = perf_counter() - t0
        if out.to_feasible is None and best_is_feasible(rec, config):
            out.to_feasible = now
            if target is None:
                raise _GoalReached
        if target is not None and out.to_feasible is not None and -rec.best_fitness <= target:
            out.to_target = now
            raise _GoalReached

    try:
        driver.solve(plant, config, progress)
        out.wall = perf_counter() - t0
    except _GoalReached:
        pass
    return out


@dataclass
class CampaignRun:
    wall: float
    exit_code: int
    stdout: str
    json_path: Path
    # (problem, seed) -> (plant, config, result) of every solve the campaign made
    solves: dict = field(default_factory=dict)


@contextlib.contextmanager
def _recording_solves(solves: dict):
    """Keep every RunResult the campaign computes, for the checks."""
    original = campaign.solve

    def recording(plant, config, progress=None):
        result = original(plant, config, progress)
        solves[(plant.name, config.seed)] = (plant, config, result)
        return result

    campaign.solve = recording
    try:
        yield
    finally:
        campaign.solve = original


def run_bench(plant_files: list[str], runs: int, base_seed: int, t_max: int,
              threads: int, json_path: Path) -> CampaignRun:
    """``sofsyn bench --format json`` in this process, timed around ``cli.main``."""
    argv = ["bench"]
    for path in plant_files:
        argv += ["--problem", path]
    argv += [
        "--runs", str(runs), "--seed", str(base_seed), "--budget", str(t_max),
        "--objective", "hinf", "--threads", str(threads),
        "--format", "json", "--out", str(json_path),
    ]
    out = CampaignRun(math.nan, -1, "", json_path)
    buf = io.StringIO()
    with _recording_solves(out.solves), contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        out.exit_code = cli.main(argv)
        out.wall = perf_counter() - t0
    out.stdout = buf.getvalue()
    return out
