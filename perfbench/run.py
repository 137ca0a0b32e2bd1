"""sofsyn benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload synth16-sa --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; the benchmark imports sofsyn from the
checkout's ``src/``. With ``--trace 0`` it times whole solves, races and
campaigns untraced and reports the end-to-end metrics; with ``--trace 1`` it
runs the first unit of the workload untraced, traced and untraced again,
requires all to give bitwise-equal gains, and reports the per-layer metrics. Every
result is checked (see ``checks.py``). The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import env  # noqa: F401  (must precede numpy)

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import checks
import measure
import sofsyn
import tracing
import workloads
from workloads import NPROC, Workload

SETUP_PROBES = 5
MIN_RACES_PER_SLOT = 3
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "runs_per_s": "1/s",
    "time_to_feasible_s": "s",
    "time_to_target_s": "s",
    "best_objective": "1",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """Operations attempted and the problems found in them."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_seconds(workload: Workload, seed: int, seconds: float, out_dir: Path) -> float:
    """Median of several set-ups, each in a fresh interpreter."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for k in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), "--workload", workload.name, "--seed", str(seed),
             "--seconds", str(seconds), "--out", str(out_dir / f"probe{k}")],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def reported_objective(workload: Workload, objective: float) -> float:
    """H-infinity norms as they are; a (negative) spectral abscissa a as
    -1/a, the slowest closed-loop time constant, so the figure is positive
    and lower is still better."""
    if workload.objective is workloads.ObjectiveKind.SPECTRAL_ABSCISSA:
        return -1.0 / objective
    return objective


def check_campaign_run(cr: measure.CampaignRun, outcome: Outcome) -> list:
    """Check one campaign and each of its runs; returns its rows."""
    if cr.exit_code != 0:
        outcome.record([f"{cr.json_path}: sofsyn bench exited with {cr.exit_code}"])
        return []
    problems, rows = checks.check_campaign(cr.stdout, cr.json_path, cr.solves)
    outcome.record(problems)
    for plant, config, result in cr.solves.values():
        outcome.record(checks.check_result(plant, config, result))
    return rows


def end_to_end(workload: Workload, st: workloads.Setup, seed: int, seconds: float,
               out_dir: Path, outcome: Outcome) -> dict:
    """Full units with races before, between and after them until ``seconds``
    have passed. Machine speed on a shared host drifts over seconds, so
    every metric samples the whole run rather than one stretch of it."""
    n_full = workload.full_units(seconds)
    walls, solves, campaigns = [], [], []
    to_feasible, to_target, missed = [], [], 0
    t_end = perf_counter() + seconds
    j = 0
    for k in range(n_full + 1):
        # this slot's share of the time the remaining full units leave over
        left = n_full - k
        full_s = statistics.median(walls) if walls else workload.full_s
        now = perf_counter()
        slot_end = now + max(0.0, t_end - now - left * full_s) / (left + 1)
        while j < (k + 1) * MIN_RACES_PER_SLOT or perf_counter() < slot_end:
            kind = workload.race_kind(j)
            plant, target = workloads.race_plant(workload, st, seed, j)
            config = workload.config(workload.race_seed(seed, j))
            j += 1
            r = measure.race(plant, config, target if kind == "target" else None)
            if r.to_feasible is None:
                outcome.record([f"race {plant.name} seed {config.seed}: never feasible"])
                continue
            outcome.record([])
            to_feasible.append(r.to_feasible)
            if kind == "target":
                # a race that never reaches the target counts its whole solve
                missed += r.to_target is None
                to_target.append(r.wall if r.to_target is None else r.to_target)
        if k == n_full:
            break
        if workload.is_campaign:
            cr = measure.run_bench(st.plant_files[k], workload.campaign_runs,
                                   workload.full_seed(seed, k), workload.t_max,
                                   NPROC, out_dir / f"campaign{k}.json")
            walls.append(cr.wall)
            campaigns.append(cr)
        else:
            config = workload.config(workload.full_seed(seed, k))
            wall, result = measure.timed_solve(st.plants[k], config)
            walls.append(wall)
            solves.append((st.plants[k], config, result))

    # checks, outside the timed work
    if workload.is_campaign:
        rows = [row for cr in campaigns for row in check_campaign_run(cr, outcome)]
        runs, objectives = len(rows), [r.objective for r in rows if r.feasible]
        evals = sum(r.global_evals + r.local_evals for r in rows)
    else:
        for plant, config, result in solves:
            outcome.record(checks.check_result(plant, config, result))
        runs = len(solves)
        objectives = [reported_objective(workload, r.best_objective) for _, _, r in solves]
        evals = sum(r.global_evals + r.local_evals for _, _, r in solves)
    # Race times come in whole generations and skew right, so over many races
    # the mean repeats from seed to seed better than the median does.
    print(f"# full units: {n_full} ({runs} solves), races: {j} "
          f"({len(to_target)} to target, {missed} missed)")
    return {
        "wall_s": statistics.median(walls),
        "evals_per_s": evals / sum(walls),
        "runs_per_s": runs / sum(walls),
        "time_to_feasible_s": statistics.fmean(to_feasible),
        "time_to_target_s": statistics.fmean(to_target),
        "best_objective": statistics.median(objectives),
    }


def same_gains(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k][2].best_alpha.tobytes() == b[k][2].best_alpha.tobytes() for k in a
    )


def per_layer(workload: Workload, seed: int, seconds: float, out_dir: Path,
              outcome: Outcome) -> dict:
    """Trace the workload's first unit. Set-up runs under its own tracer, so
    only its plant-file timings enter the figures."""
    setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
    with setup_tracer:
        st = workloads.setup(workload, seed, seconds, out_dir)
    workloads.warm_up(workload, st)
    base_seed = workload.full_seed(seed, 0)
    extra = {"campaign.parallel_speedup": 0.0, "campaign.failed_runs": 0,
             "campaign.run_wall_s_mean": 0.0}

    # The untraced unit runs before and after the traced one, so that
    # trace_overhead does not take machine-speed drift for tracing cost.
    if not workload.is_campaign:
        config = workload.config(base_seed)
        before, result = measure.timed_solve(st.plants[0], config)
        with tracer:
            traced_wall, traced = measure.timed_solve(st.plants[0], config)
        after, again = measure.timed_solve(st.plants[0], config)
        wall = 0.5 * (before + after)
        outcome.record(checks.check_result(st.plants[0], config, result))
        outcome.record([] if result.best_alpha.tobytes() == traced.best_alpha.tobytes()
                       == again.best_alpha.tobytes()
                       else ["traced run's best_alpha differs from the untraced run's"])
    else:
        def bench(threads: int, name: str) -> measure.CampaignRun:
            return measure.run_bench(st.plant_files[0], workload.campaign_runs, base_seed,
                                     workload.t_max, threads, out_dir / name)

        # The layer figures come from the one-thread campaign: with more
        # threads every solve also evaluates on its own pool, so spans of one
        # solve spread over threads and self times stop adding up.
        before = bench(NPROC, "untraced.json")
        with tracing.Tracer():
            parallel = bench(NPROC, "traced.json")
        after = bench(NPROC, "untraced_again.json")
        with tracer:
            serial = bench(1, "traced_serial.json")
        wall, traced_wall = 0.5 * (before.wall + after.wall), parallel.wall
        rows = check_campaign_run(parallel, outcome)
        outcome.record([] if all(same_gains(before.solves, cr.solves)
                                 for cr in (parallel, after, serial))
                       else ["traced campaign gains differ from the untraced ones"])
        extra["campaign.parallel_speedup"] = serial.wall / parallel.wall
        extra["campaign.failed_runs"] = sum(not r.feasible for r in rows)
        extra["campaign.run_wall_s_mean"] = statistics.fmean(r.wall_time_s for r in rows)

    stats = tracer.stats()
    for name, span in setup_tracer.stats().items():
        if name.startswith("problem_io."):
            stats[name].merge(span)
    metrics = tracing.layer_metrics(stats)
    metrics.update(extra)
    metrics["trace_overhead"] = traced_wall / wall
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(sofsyn.__file__).resolve().parent != env.SRC / "sofsyn":
        print(f"error: imported sofsyn from {sofsyn.__file__}, not {env.SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    out_dir = env.ROOT / ".perfbench_out" / f"{workload.name}-{args.seed}-{os.getpid()}"
    print("# machine: " + json.dumps(machine_facts()))
    outcome = Outcome()
    try:
        if args.trace:
            values = per_layer(workload, args.seed, args.seconds, out_dir, outcome)
            units = tracing.LAYER_UNITS
        else:
            values = {"setup_s": setup_seconds(workload, args.seed, args.seconds, out_dir)}
            st = workloads.setup(workload, args.seed, args.seconds, out_dir)
            workloads.warm_up(workload, st)
            values.update(end_to_end(workload, st, args.seed, args.seconds, out_dir, outcome))
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()  # only if no other run is using it

    for problem in outcome.problems:
        print(f"# CHECK FAILED: {problem}")
    print(f"# failed_run_ratio = {outcome.failed / outcome.attempted!r} "
          f"({outcome.failed} of {outcome.attempted} runs)")
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        print(f"# {name} = {value!r} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
