"""The names through which perfbench drives the program stay bound.

perfbench/tracing.py patches module attributes by name and perfbench builds
configs and command lines of its own; deleting a binding the solve path no
longer calls would break the benchmark, not the test suite. The module is
loaded from its file without being run as a script.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from sofsyn import analysis, builtin_plant_path, load_problem, objectives
from sofsyn.analysis import hinf_norm
from sofsyn.cli import build_parser
from sofsyn.driver import SolverConfig
from sofsyn.model import ClosedLoopRealization

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_resolve(monkeypatch):
    for module, attr, _ in _load_tracing(monkeypatch).PATCHES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_benchmark_config_and_flags_accepted():
    assert SolverConfig(threads=1).threads == 1
    args = build_parser().parse_args(
        ["bench", "--problem", "p.plant", "--threads", "2", "--format", "json", "--out", "o"]
    )
    assert args.threads == 2


def test_hinf_norm_reports_integer_iterations():
    # tracing.py sums result.iterations into analysis.hinf_norm.iterations_mean
    cl = ClosedLoopRealization(A_F=[[-1.0]], B1=[[1.0]], C_F=[[1.0]], D11=[[0.5]])
    iterations = hinf_norm(cl).iterations
    assert type(iterations) is int and iterations > 0


def test_benchmark_reads_of_a_config():
    # perfbench/checks.py and measure.py read these from a SolverConfig
    config = SolverConfig()
    assert config.stability_tol == analysis.STABILITY_TOL
    assert config.infeasible_penalty == objectives.INFEASIBLE_PENALTY
    assert config.norm_rel_tol == analysis.NORM_REL_TOL
    plant = load_problem(builtin_plant_path("double_integrator"))
    ev = objectives.evaluate(plant, [-1.0, -2.0], config.objective, config.fitness_config())
    assert ev.feasible
    assert analysis.is_hurwitz(-np.eye(2), config.stability_tol).hurwitz
