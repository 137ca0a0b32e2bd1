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
import os
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .driver import RunResult, SolverConfig
from .driver import solve as _driver_solve
from .errors import ConfigError, SofsynError
from .model import PlantRealization, check_count
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

    def __post_init__(self):
        for name, least in (("runs", 1), ("base_seed", 0)):
            check_count(name, getattr(self, name), least, ConfigError)
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


#: ``pool``: set on the parent threads of a pooled campaign.
_parent = threading.local()


def solve(plant: PlantRealization, config: SolverConfig, progress=None) -> RunResult:
    """Solve one campaign run. On a parent thread of a pooled campaign the
    solve runs in a pool worker and its whole ``RunResult`` comes back;
    otherwise, or when ``progress`` is given, it runs in this process."""
    pool = getattr(_parent, "pool", None)
    if pool is None or progress is not None:
        return _driver_solve(plant, config, progress)
    return pool.submit(_solve_in_worker, plant, config).result()


def _solve_in_worker(plant: PlantRealization, config: SolverConfig) -> RunResult:
    # the worker finds this by qualified name, so no caller may patch it
    return _driver_solve(plant, config)


def _failed_row(spec: CampaignSpec, plant: PlantRealization, run_index: int, wall: float) -> RunRow:
    return RunRow(
        problem=plant.name, run_index=run_index, seed=spec.base_seed + run_index,
        objective=math.inf, fitness=-math.inf, gain_norm=math.nan,
        feasible=False, global_evals=0, local_evals=0, wall_time_s=wall,
    )


def _run_row(spec: CampaignSpec, plant: PlantRealization, run_index: int) -> RunRow:
    seed = spec.base_seed + run_index
    t0 = time.perf_counter()
    try:
        result = solve(plant, replace(spec.config, seed=seed))
    except ConfigError:
        raise  # the configuration is wrong for the whole campaign
    except SofsynError:
        # a numerical failure scores as unsuccessful; the campaign moves on
        return _failed_row(spec, plant, run_index, time.perf_counter() - t0)
    return RunRow(
        problem=plant.name,
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


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_pooled(spec: CampaignSpec, jobs: list, workers: int) -> list[RunRow]:
    """The rows of ``jobs``, made by ``workers`` parent threads whose solves
    run on as many worker processes; jobs go out largest n_x first. When a
    worker dies, each job in flight is retried once, alone on a fresh
    one-worker pool, and is an unsuccessful row if that pool breaks too;
    the jobs not yet started go on on a fresh pool."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    rows = {}

    def run(batch: list, size: int) -> list:
        # the jobs of batch in flight when the pool broke, if it did
        struck = []

        def row(i):
            # a broken pool starts no job; one that starts as it breaks is struck too
            if not struck:
                try:
                    rows[i] = _run_row(spec, *jobs[i])
                except BrokenProcessPool:
                    struck.append(i)

        with ProcessPoolExecutor(size, multiprocessing.get_context(method)) as pool:
            # the first task forks every worker, here before any helper thread starts
            pool.submit(int).result()
            threads = ThreadPoolExecutor(
                size, initializer=setattr, initargs=(_parent, "pool", pool))
            try:
                list(threads.map(row, batch))
            finally:
                threads.shutdown(cancel_futures=True)
        return struck

    pending = sorted(range(len(jobs)), key=lambda i: -jobs[i][0].dims.n_x)
    while pending:
        for i in run(pending, workers):
            t0 = time.perf_counter()
            if run([i], 1):
                rows[i] = _failed_row(spec, *jobs[i], time.perf_counter() - t0)
        pending = [i for i in pending if i not in rows]
    return [rows[i] for i in range(len(jobs))]


def run_campaign(
    spec: CampaignSpec, plants: list[PlantRealization] | None = None
) -> tuple[list[RunRow], list[CampaignSummary]]:
    """Execute all (problem, seed) runs and summarize them.

    The runs go to ``min(spec.config.threads, number of runs, available
    CPUs)`` worker processes, or run one after another on the calling
    thread when that is 1. Either way rows are ordered by (problem, run
    index) and equal bit for bit, wall times aside. A run that fails
    numerically, or whose worker dies twice, is recorded as an unsuccessful
    row and the campaign continues; a ``ConfigError`` from any run ends
    the campaign.
    """
    if plants is None:
        plants = [load_problem(p) for p in spec.problems]

    jobs = [(plant, run_index) for plant in plants for run_index in range(spec.runs)]
    workers = min(spec.config.threads, len(jobs), _available_cpus())
    if workers > 1:
        rows = _run_pooled(spec, jobs, workers)
    else:
        rows = [_run_row(spec, *job) for job in jobs]
    summaries = [
        summarize(plant.name, rows[k * spec.runs:(k + 1) * spec.runs])
        for k, plant in enumerate(plants)
    ]
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


def _parse_bool(value) -> bool:
    if value not in (True, False, "true", "false"):
        raise ValueError(f"expected true or false, got {value!r}")
    return value in (True, "true")


#: Parser of a CSV or JSON field value, by the field's annotated type; float
#: also reads the non-finite tokens written by _fmt and _json_safe.
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool}


def _from_records(cls, records, path) -> list:
    """Build a ``cls`` from each record (a field-name -> value mapping);
    a missing or malformed field raises ``ConfigError`` naming ``path``."""
    try:
        return [
            cls(**{f.name: _PARSERS[f.type](rec[f.name]) for f in fields(cls)}) for rec in records
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed {cls.__name__} record: {exc!r}") from exc


def read_rows_csv(path) -> list[RunRow]:
    with open(path, newline="") as fh:
        return _from_records(RunRow, csv.DictReader(fh), path)


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
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "sofsyn.campaign":
        raise ConfigError(f"{path}: not a sofsyn campaign file")
    rows = _from_records(RunRow, doc.get("rows"), path)
    return rows, _from_records(CampaignSummary, doc.get("summary"), path)


def run_result_to_dict(result: RunResult) -> dict:
    """The run JSON document: ``RunResult``'s fields in declaration order,
    with ``wall_time`` written as ``wall_time_s``."""
    doc = {"format": "sofsyn.run", "version": 1}
    for name, value in asdict(result).items():
        doc["wall_time_s" if name == "wall_time" else name] = value
    return _json_safe(doc)


def write_run_result_json(result: RunResult, path) -> None:
    Path(path).write_text(json.dumps(run_result_to_dict(result), indent=2) + "\n")
