"""Correctness checks applied to every result the benchmark times.

Each check returns a list of problems; an empty list means the result
passed. A run with any problem counts as failed.
"""

from __future__ import annotations

from sofsyn import analysis, campaign, model, objectives
from sofsyn.driver import RunResult, SolverConfig
from sofsyn.model import PlantRealization

#: The grid oracle samples 400 points per decade and refines the peak, so on
#: these plants it lands within this relative distance below the true norm.
GRID_GAP_RTOL = 1e-3


def same_bits(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def check_result(plant: PlantRealization, config: SolverConfig, result: RunResult) -> list[str]:
    """The gain stabilizes, its score reproduces exactly, and for H-infinity
    the independent grid oracle agrees with the reported norm."""
    where = f"{plant.name} seed {config.seed}"
    if not result.feasible:
        return [f"{where}: run ended infeasible"]
    dims = plant.dims
    cl = model.close_loop(plant, model.unflatten_gain(result.best_alpha, dims.n_u, dims.n_y))
    problems = []
    if not analysis.is_hurwitz(cl.A_F, config.stability_tol).hurwitz:
        problems.append(f"{where}: closed loop of the returned gain is not Hurwitz")
    again = objectives.evaluate(plant, result.best_alpha, config.objective, config.fitness_config())
    if not same_bits(again.fitness, result.best_fitness):
        problems.append(
            f"{where}: re-evaluation gives fitness {again.fitness!r}, run reported "
            f"{result.best_fitness!r}"
        )
    if config.objective is objectives.ObjectiveKind.HINF_NORM:
        norm = result.best_objective
        grid = analysis.hinf_norm_grid(cl)
        if grid > norm * (1.0 + config.norm_rel_tol):
            problems.append(f"{where}: grid lower bound {grid!r} exceeds the norm {norm!r}")
        if grid < norm * (1.0 - GRID_GAP_RTOL):
            problems.append(f"{where}: grid lower bound {grid!r} is far below the norm {norm!r}")
    return problems


def summary_line(s: campaign.CampaignSummary) -> str:
    """The line ``sofsyn bench`` prints per problem."""
    return (
        f"{s.problem}: success {s.success_count}/{s.runs}  "
        f"best {s.best!r}  median {s.median!r}  worst {s.worst!r}"
    )


def check_campaign(stdout: str, json_path, solves: dict) -> tuple[list[str], list]:
    """The campaign JSON reads back equal to what ``bench`` printed and to
    the runs it made. ``solves`` maps (problem, seed) to the (plant, config,
    RunResult) of each solve the campaign made. Returns (problems, rows
    read back)."""
    rows, summaries = campaign.read_campaign_json(json_path)
    printed = [line for line in stdout.splitlines() if not line.startswith("written: ")]
    problems = []
    if printed != [summary_line(s) for s in summaries]:
        problems.append(f"{json_path}: summaries read back differ from the printed ones")
    for row in rows:
        solve = solves.get((row.problem, row.seed))
        if solve is None:
            problems.append(f"{json_path}: row {row.problem}/{row.seed} has no matching run")
            continue
        result = solve[2]
        if not (
            same_bits(row.fitness, result.best_fitness)
            and same_bits(row.objective, result.best_objective)
            and row.feasible == result.feasible
            and row.global_evals == result.global_evals
            and row.local_evals == result.local_evals
        ):
            problems.append(f"{json_path}: row {row.problem}/{row.seed} differs from its run")
    return problems, rows
