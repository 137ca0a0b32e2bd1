"""Multi-seed benchmark campaigns and result persistence.

A campaign runs one solver configuration over a list of problems, with
``runs`` independent seeds per problem (seed of run i is base_seed + i).
Per-run rows and per-problem summary statistics can be written as CSV or
as a single JSON document. Quartiles use the median-of-halves rule: the
lower (upper) quartile is the median of the values strictly below (above)
the overall median position, i.e. halves exclude the middle element for
odd counts. Objective statistics are computed over feasible runs only;
with no feasible run they are reported as ``inf`` (std as ``nan``). The
standard deviation is the sample deviation (ddof=1, zero for a single
run). Non-finite numbers serialize as the tokens ``inf``/``-inf``/``nan``
(bare in CSV, strings in JSON) and round-trip through the readers here.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .driver import RunResult, SolverConfig, solve
from .errors import ConfigError, SofsynError
from .model import PlantRealization
from .objectives import gain_norm
from .problem_io import load_problem

__all__ = [
    "CampaignSpec",
    "RunRow",
    "CampaignSummary",
    "quartiles",
    "summarize",
    "run_campaign",
    "write_rows_csv",
    "write_summary_csv",
    "read_rows_csv",
    "campaign_to_dict",
    "write_campaign_json",
    "read_campaign_json",
    "run_result_to_dict",
    "write_run_result_json",
    "ROWS_CSV_HEADER",
    "SUMMARY_CSV_HEADER",
]


@dataclass(frozen=True)
class CampaignSpec:
    problems: tuple[str, ...]
    config: SolverConfig = field(default_factory=SolverConfig)
    runs: int = 10
    base_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not self.problems:
            raise ConfigError("at least one problem is required")


@dataclass(frozen=True)
class RunRow:
    problem: str
    run_index: int
    seed: int
    objective: float
    fitness: float
    gain_norm: float
    feasible: bool
    global_evals: int
    local_evals: int
    wall_time_s: float


@dataclass(frozen=True)
class CampaignSummary:
    problem: str
    runs: int
    success_count: int
    best: float
    q1: float
    median: float
    q3: float
    worst: float
    std: float
    mean_wall_time_s: float


ROWS_CSV_HEADER = tuple(f.name for f in fields(RunRow))
SUMMARY_CSV_HEADER = tuple(f.name for f in fields(CampaignSummary))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by the median-of-halves rule."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("quartiles of an empty sequence")
    q2 = statistics.median(data)
    half = len(data) // 2
    if half == 0:
        return q2, q2, q2
    return statistics.median(data[:half]), q2, statistics.median(data[-half:])


def summarize(problem: str, rows: list[RunRow]) -> CampaignSummary:
    """Per-problem statistics over the rows of one campaign problem."""
    objectives = sorted(r.objective for r in rows if r.feasible)
    success = len(objectives)
    if success:
        q1, med, q3 = quartiles(objectives)
        best, worst = objectives[0], objectives[-1]
        std = statistics.stdev(objectives) if success > 1 else 0.0
    else:
        best = q1 = med = q3 = worst = math.inf
        std = math.nan
    return CampaignSummary(
        problem=problem,
        runs=len(rows),
        success_count=success,
        best=best,
        q1=q1,
        median=med,
        q3=q3,
        worst=worst,
        std=std,
        mean_wall_time_s=sum(r.wall_time_s for r in rows) / len(rows),
    )


def _row_from_result(problem: str, run_index: int, seed: int, result: RunResult) -> RunRow:
    return RunRow(
        problem=problem,
        run_index=run_index,
        seed=seed,
        objective=result.best_objective,
        fitness=result.best_fitness,
        gain_norm=gain_norm(result.best_alpha),
        feasible=result.feasible,
        global_evals=result.global_evals,
        local_evals=result.local_evals,
        wall_time_s=result.wall_time,
    )


def run_campaign(
    spec: CampaignSpec, plants: list[PlantRealization] | None = None
) -> tuple[list[RunRow], list[CampaignSummary]]:
    """Execute all (problem, seed) runs and summarize them.

    Runs are independent and may execute on a thread pool of
    ``spec.threads`` workers; rows come back ordered by (problem, run
    index) so output files do not depend on scheduling. A run that fails
    to produce a feasible point is recorded as an unsuccessful row; the
    campaign continues.
    """
    if plants is None:
        plants = [load_problem(p) for p in spec.problems]

    jobs = [
        (plant_idx, run_idx)
        for plant_idx in range(len(plants))
        for run_idx in range(spec.runs)
    ]

    def one(job: tuple[int, int]) -> RunRow:
        plant_idx, run_idx = job
        seed = spec.base_seed + run_idx
        config = replace(spec.config, seed=seed)
        t0 = time.perf_counter()
        try:
            result = solve(plants[plant_idx], config)
        except SofsynError:
            # a failed run scores as unsuccessful; the campaign moves on
            return RunRow(
                problem=plants[plant_idx].name, run_index=run_idx, seed=seed,
                objective=math.inf, fitness=-math.inf, gain_norm=math.nan,
                feasible=False, global_evals=0, local_evals=0,
                wall_time_s=time.perf_counter() - t0,
            )
        return _row_from_result(plants[plant_idx].name, run_idx, seed, result)

    if spec.threads > 1:
        with ThreadPoolExecutor(spec.threads) as pool:
            rows = list(pool.map(one, jobs))
    else:
        rows = [one(job) for job in jobs]

    summaries = []
    for plant_idx, plant in enumerate(plants):
        chunk = rows[plant_idx * spec.runs : (plant_idx + 1) * spec.runs]
        summaries.append(summarize(plant.name, chunk))
    return rows, summaries


# ---------------------------------------------------------------------------
# serialization


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(records: list, header: tuple[str, ...], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in vars(rec).values()] for rec in records)


def write_rows_csv(rows: list[RunRow], path) -> None:
    _write_csv(rows, ROWS_CSV_HEADER, path)


def write_summary_csv(summaries: list[CampaignSummary], path) -> None:
    _write_csv(summaries, SUMMARY_CSV_HEADER, path)


#: Parser of a CSV or JSON field value, by the field's annotated type; float
#: also reads the non-finite tokens written by _fmt and _json_safe.
_PARSERS = {"str": str, "int": int, "float": float, "bool": lambda v: v is True or v == "true"}


def _from_record(cls, record: dict):
    return cls(**{f.name: _PARSERS[f.type](record[f.name]) for f in fields(cls)})


def read_rows_csv(path) -> list[RunRow]:
    with open(path, newline="") as fh:
        return [_from_record(RunRow, rec) for rec in csv.DictReader(fh)]


def _json_safe(value):
    """Recursively convert to JSON-encodable data; non-finite floats become
    the string tokens "inf" / "-inf" / "nan"."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.floating,)):
        return _json_safe(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def campaign_to_dict(rows: list[RunRow], summaries: list[CampaignSummary]) -> dict:
    return {
        "format": "sofsyn.campaign",
        "version": 1,
        "rows": [_json_safe(vars(r)) for r in rows],
        "summary": [_json_safe(vars(s)) for s in summaries],
    }


def write_campaign_json(rows: list[RunRow], summaries: list[CampaignSummary], path) -> None:
    Path(path).write_text(json.dumps(campaign_to_dict(rows, summaries), indent=2) + "\n")


def read_campaign_json(path) -> tuple[list[RunRow], list[CampaignSummary]]:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != "sofsyn.campaign":
        raise ConfigError(f"{path}: not a sofsyn campaign file")
    rows = [_from_record(RunRow, r) for r in doc["rows"]]
    summaries = [_from_record(CampaignSummary, r) for r in doc["summary"]]
    return rows, summaries


def run_result_to_dict(result: RunResult) -> dict:
    return _json_safe(
        {
            "format": "sofsyn.run",
            "version": 1,
            "best_alpha": result.best_alpha,
            "best_fitness": result.best_fitness,
            "best_objective": result.best_objective,
            "feasible": result.feasible,
            "global_evals": result.global_evals,
            "local_evals": result.local_evals,
            "wall_time_s": result.wall_time,
            "history": [vars(rec) for rec in result.history],
        }
    )


def write_run_result_json(result: RunResult, path) -> None:
    Path(path).write_text(json.dumps(run_result_to_dict(result), indent=2) + "\n")
