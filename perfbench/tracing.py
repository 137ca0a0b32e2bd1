"""Span tracing of sofsyn's layers from outside the package.

A :class:`Tracer` replaces each traced function with a timing wrapper at
the module attribute through which the program calls it (``driver`` calls
``evaluate`` through ``sofsyn.driver.evaluate``, not through
``sofsyn.objectives``), and puts every original back on exit. Wrappers pass
arguments and results through untouched, so a traced run computes the same
bits as an untraced one.

Each thread keeps its own stack of open spans and its own statistics, so
the campaign's worker threads record without a lock; statistics are merged
when read. A span's self time is its duration minus the time of the traced
spans it directly encloses.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from sofsyn import analysis, campaign, cli, cma, driver, local, objectives, problem_io
from sofsyn.errors import SofsynError

#: (module, attribute, span name). A name appears once per binding site.
PATCHES = [
    (driver, "solve", "driver.solve"),
    (campaign, "solve", "driver.solve"),
    (driver, "evaluate", "objectives.evaluate"),
    (driver, "run_local", "local.run_local"),
    (driver, "default_params", "cma.default_params"),
    (driver, "init_state", "cma.init_state"),
    (driver, "sample_population", "cma.sample_population"),
    (driver, "update_mean", "cma.update_mean"),
    (driver, "update_paths", "cma.update_paths"),
    (driver, "update_covariance", "cma.update_covariance"),
    (driver, "update_step_size", "cma.update_step_size"),
    (driver, "maybe_reset", "cma.maybe_reset"),
    (driver, "refresh_basis", "cma.refresh_basis"),
    (cma, "enforce_spd", "cma.enforce_spd"),
    (local, "enforce_spd", "cma.enforce_spd"),
    (objectives, "hinf_norm", "analysis.hinf_norm"),
    (objectives, "unflatten_gain", "model.unflatten_gain"),
    (analysis, "dgeev", "analysis.dgeev"),
    (problem_io, "load_problem", "problem_io.load_problem"),
    (problem_io, "save_problem", "problem_io.save_problem"),
    (campaign, "load_problem", "problem_io.load_problem"),
    (cli, "load_problem", "problem_io.load_problem"),
    (cli, "run_campaign", "campaign.run_campaign"),
    (cli, "write_campaign_json", "campaign.write_campaign_json"),
    (cli, "main", "cli.main"),
]


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    durations: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))

    def merge(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total += other.total
        self.self_total += other.self_total
        self.durations.extend(other.durations)
        for key, value in other.counts.items():
            self.counts[key] += value


class _Frame:
    __slots__ = ("name", "child", "norm_failed")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0
        self.norm_failed = False


def _observe(stats: SpanStats, frame: _Frame, parent, args, result, exc) -> None:
    """Outcome counters that need a span's arguments, result or parent."""
    name = frame.name
    if name == "analysis.dgeev":
        m = args[0].shape[0]
        stats.counts["flops"] += 10.0 * m**3
        if parent is not None and parent.name == "analysis.hinf_norm":
            stats.counts["in_hinf_norm"] += 1
    elif name == "analysis.hinf_norm":
        if isinstance(exc, SofsynError):
            stats.counts["failures"] += 1
            if parent is not None:
                parent.norm_failed = True
        elif exc is None:
            stats.counts["iterations"] += result.iterations
    elif name == "objectives.evaluate" and exc is None:
        if result.fitness == float("-inf"):
            stats.counts["nonfinite"] += 1
        elif result.feasible:
            stats.counts["feasible"] += 1
        elif frame.norm_failed:
            stats.counts["norm_failed"] += 1
        else:
            stats.counts["unstable"] += 1
    elif name == "local.run_local" and exc is None:
        stats.counts["improved"] += result[1] > args[1]
    elif name == "cma.maybe_reset" and exc is None:
        stats.counts["resets"] += bool(result)
    elif name == "cma.enforce_spd":
        # update_covariance symmetrizes through enforce_spd every generation;
        # any other caller is repairing a covariance that failed to factor
        if parent is None or parent.name != "cma.update_covariance":
            stats.counts["repairs"] += 1


class Tracer:
    """Context manager that traces every entry of :data:`PATCHES`."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[dict] = []
        self._saved: list = []

    def _thread_state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.stats = defaultdict(SpanStats)
            self._threads.append(state.stats)
        return state

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._thread_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = _Frame(name)
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent.child += dt
                stats = state.stats[name]
                stats.calls += 1
                stats.total += dt
                stats.self_total += dt - frame.child
                stats.durations.append(dt)
                _observe(stats, frame, parent, args, result, exc)

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def stats(self) -> dict[str, SpanStats]:
        merged: dict[str, SpanStats] = defaultdict(SpanStats)
        for per_thread in self._threads:
            for name, stats in per_thread.items():
                merged[name].merge(stats)
        return merged


def _percentile_us(stats: SpanStats, q: float) -> float:
    if not stats.durations:
        return 0.0
    return float(np.percentile(stats.durations, q)) * 1e6


def layer_metrics(stats: dict[str, SpanStats]) -> dict[str, float]:
    """Per-layer figures of one traced run. Shares are of the time spent in
    ``driver.solve`` spans (summed over threads); a layer the workload never
    enters reads 0."""
    def get(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solve_time = get("driver.solve").total

    def share(t: float) -> float:
        return ratio(t, solve_time)

    hinf, dgeev, ev = get("analysis.hinf_norm"), get("analysis.dgeev"), get("objectives.evaluate")
    local_, gain = get("local.run_local"), get("model.unflatten_gain")
    load, save = get("problem_io.load_problem"), get("problem_io.save_problem")
    cli_main, run_campaign = get("cli.main"), get("campaign.run_campaign")
    write = get("campaign.write_campaign_json")
    cma_self = sum(s.self_total for name, s in stats.items() if name.startswith("cma."))
    return {
        "analysis.hinf_norm.calls": hinf.calls,
        "analysis.hinf_norm.us_p50": _percentile_us(hinf, 50),
        "analysis.hinf_norm.us_p99": _percentile_us(hinf, 99),
        "analysis.hinf_norm.share": share(hinf.total),
        "analysis.hinf_norm.iterations_mean": ratio(
            hinf.counts["iterations"], hinf.calls - hinf.counts["failures"]
        ),
        "analysis.hinf_norm.failures": hinf.counts["failures"],
        "analysis.dgeev.calls": dgeev.calls,
        "analysis.dgeev.per_hinf_norm": ratio(dgeev.counts["in_hinf_norm"], hinf.calls),
        "analysis.dgeev.us_p50": _percentile_us(dgeev, 50),
        "analysis.dgeev.share": share(dgeev.total),
        "analysis.dgeev.flops_computed": dgeev.counts["flops"],
        "objectives.evaluate.calls": ev.calls,
        "objectives.evaluate.us_p50": _percentile_us(ev, 50),
        "objectives.evaluate.us_p99": _percentile_us(ev, 99),
        "objectives.evaluate.self_share": share(ev.self_total),
        "objectives.evaluate.feasible": ev.counts["feasible"],
        "objectives.evaluate.unstable": ev.counts["unstable"],
        "objectives.evaluate.nonfinite": ev.counts["nonfinite"],
        "objectives.evaluate.norm_failed": ev.counts["norm_failed"],
        "objectives.evaluate.feasible_ratio": ratio(ev.counts["feasible"], ev.calls),
        "local.run_local.calls": local_.calls,
        "local.run_local.self_share": share(local_.self_total),
        "local.run_local.improved_ratio": ratio(local_.counts["improved"], local_.calls),
        "cma.sample_population.us_p50": _percentile_us(get("cma.sample_population"), 50),
        "cma.update_covariance.us_p50": _percentile_us(get("cma.update_covariance"), 50),
        "cma.refresh_basis.us_p50": _percentile_us(get("cma.refresh_basis"), 50),
        "cma.resets": get("cma.maybe_reset").counts["resets"],
        "cma.spd_repairs": get("cma.enforce_spd").counts["repairs"],
        "cma.self_share": share(cma_self),
        "driver.generations": get("cma.sample_population").calls,
        "driver.self_share": share(get("driver.solve").self_total),
        "model.unflatten_gain.calls": gain.calls,
        "model.unflatten_gain.self_share": share(gain.self_total),
        "problem_io.load_problem.ms": 1e3 * ratio(load.total, load.calls),
        "problem_io.save_problem.ms": 1e3 * ratio(save.total, save.calls),
        "campaign.write_ms": 1e3 * ratio(write.total, write.calls),
        "cli.main.overhead_ms": 1e3 * ratio(
            cli_main.total - run_campaign.total - write.total, cli_main.calls
        ),
    }


#: Unit of every figure :func:`layer_metrics` returns, plus the ones the
#: benchmark adds from outside the spans.
LAYER_UNITS = {
    "analysis.hinf_norm.calls": "count",
    "analysis.hinf_norm.us_p50": "us",
    "analysis.hinf_norm.us_p99": "us",
    "analysis.hinf_norm.share": "ratio",
    "analysis.hinf_norm.iterations_mean": "count",
    "analysis.hinf_norm.failures": "count",
    "analysis.dgeev.calls": "count",
    "analysis.dgeev.per_hinf_norm": "count",
    "analysis.dgeev.us_p50": "us",
    "analysis.dgeev.share": "ratio",
    "analysis.dgeev.flops_computed": "flop",
    "objectives.evaluate.calls": "count",
    "objectives.evaluate.us_p50": "us",
    "objectives.evaluate.us_p99": "us",
    "objectives.evaluate.self_share": "ratio",
    "objectives.evaluate.feasible": "count",
    "objectives.evaluate.unstable": "count",
    "objectives.evaluate.nonfinite": "count",
    "objectives.evaluate.norm_failed": "count",
    "objectives.evaluate.feasible_ratio": "ratio",
    "local.run_local.calls": "count",
    "local.run_local.self_share": "ratio",
    "local.run_local.improved_ratio": "ratio",
    "cma.sample_population.us_p50": "us",
    "cma.update_covariance.us_p50": "us",
    "cma.refresh_basis.us_p50": "us",
    "cma.resets": "count",
    "cma.spd_repairs": "count",
    "cma.self_share": "ratio",
    "driver.generations": "count",
    "driver.self_share": "ratio",
    "model.unflatten_gain.calls": "count",
    "model.unflatten_gain.self_share": "ratio",
    "problem_io.load_problem.ms": "ms",
    "problem_io.save_problem.ms": "ms",
    "campaign.parallel_speedup": "ratio",
    "campaign.run_wall_s_mean": "s",
    "campaign.write_ms": "ms",
    "campaign.failed_runs": "count",
    "cli.main.overhead_ms": "ms",
    "trace_overhead": "ratio",
}
