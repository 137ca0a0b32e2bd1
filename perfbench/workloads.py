"""The benchmark's workloads: their plants, solver configs and run sizes.

Every input derives from the benchmark seed: solver seeds and synthetic
plants are drawn from ``SeedSequence([seed, crc32(workload), stream, i])``.
The program only ever receives the resulting plants (as files written and
read back through ``sofsyn.problem_io``, or as ``PlantRealization`` values)
and solver configs.

``rand4-hinf``
    The ROADMAP anchor run: builtin rand4, H-infinity objective,
    t_max=1000. Nearly all time is ``analysis.hinf_norm`` on 8x8
    Hamiltonians, where per-call overhead dominates LAPACK. Runnable by
    hand but not listed in ``BENCHMARK.json``: a run holds only two or three
    of its 11-s solves, and on a host whose speed drifts by a quarter over
    tens of seconds their median did not repeat within 0.25 from run to
    run. ``campaign-mix`` still runs rand4 and races on it.
``synth16-sa``
    Synthetic n_x=16, n_u=n_y=4 plants, spectral-abscissa objective,
    t_max=3000. ``hinf_norm`` is never called; each evaluation is one 16x16
    eigensolve plus the Python of ``local``/``cma``/``driver``/``objectives``.
    A change confined to the H-infinity routine must not move it.
``campaign-mix``
    ``sofsyn bench`` in-process through ``cli.main`` with one worker thread
    per CPU, over the four builtin plant files plus a synthetic n_x=8 plant
    with D11 != 0 (the feedthrough branch of the Hamiltonian). The only
    workload that runs ``cli``, ``campaign`` and plant-file I/O in the loop.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from plants import synthetic_plant
from sofsyn import builtin_plant_path, problem_io
from sofsyn.driver import SolverConfig
from sofsyn.model import PlantRealization, flatten_gain
from sofsyn.objectives import ObjectiveKind, evaluate

NPROC = os.cpu_count() or 1

#: Race target on rand4, fixed from the baseline. The best known norm is
#: 0.12793; races reach 0.5 in about 0.2 s (2-core Xeon, one BLAS thread).
#: A tighter target costs more per race, so fewer races fit in a run and
#: their mean repeats worse.
RAND4_TARGET = 0.5

SYNTH16 = dict(n_x=16, n_u=4, n_y=4)
SYNTH8_D11 = dict(n_x=8, n_u=2, n_y=2, d11=True)

BUILTIN_PLANTS = ("first_order_lag", "double_integrator", "resonant_2state", "rand4")

# seed streams
_FULL, _RACE, _PLANT, _RACE_PLANT = 0, 1, 2, 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A run makes a fixed number of full units (one solve, or one campaign)
    and fills the rest of its seconds with races: solves stopped as soon as
    the best candidate reaches the target (target races) or is feasible
    (feasibility races, ``feasibility_per_target`` after each target race).
    """

    name: str
    objective: ObjectiveKind
    t_max: int
    full_s: float  # baseline seconds per full unit
    full_share: float  # share of the run's seconds planned for full units
    feasibility_per_target: int
    campaign_runs: int = 0  # runs per problem in one campaign (campaign-mix only)

    @property
    def is_campaign(self) -> bool:
        return self.campaign_runs > 0

    def full_units(self, seconds: float) -> int:
        return max(1, round(seconds * self.full_share / self.full_s))

    def race_kind(self, j: int) -> str:
        return "target" if j % (1 + self.feasibility_per_target) == 0 else "feasibility"

    def config(self, seed: int) -> SolverConfig:
        return SolverConfig(objective=self.objective, t_max=self.t_max, seed=seed, threads=1)

    def full_seed(self, bench_seed: int, k: int) -> int:
        """Solver seed of full unit k (a campaign's base seed)."""
        return self._seed(bench_seed, _FULL, k)

    def race_seed(self, bench_seed: int, j: int) -> int:
        return self._seed(bench_seed, _RACE, j)

    def rng(self, bench_seed: int, stream: int, index: int) -> np.random.Generator:
        return np.random.default_rng(self._seed(bench_seed, stream, index))

    def _seed(self, bench_seed: int, stream: int, index: int) -> int:
        ss = np.random.SeedSequence([bench_seed, zlib.crc32(self.name.encode()), stream, index])
        return int(ss.generate_state(1)[0] >> 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rand4-hinf", ObjectiveKind.HINF_NORM, t_max=1000, full_s=11.5,
                 full_share=0.55, feasibility_per_target=2),
        Workload("synth16-sa", ObjectiveKind.SPECTRAL_ABSCISSA, t_max=3000, full_s=4.7,
                 full_share=0.7, feasibility_per_target=1),
        Workload("campaign-mix", ObjectiveKind.HINF_NORM, t_max=200, full_s=14.0,
                 full_share=0.4, feasibility_per_target=2, campaign_runs=1),
    )
}


@dataclass
class Setup:
    """What a run needs before it starts timing: ``plants[i]`` (and, for
    campaigns, ``plant_files[i]``) belong to full unit i; ``rand4`` is the
    race plant of the workloads that race on it."""

    plants: list[PlantRealization]
    plant_files: list[list[str]]
    rand4: PlantRealization | None


def _round_trip(plant: PlantRealization, path: Path) -> PlantRealization:
    """Write and re-read a plant file; the file must reproduce every bit."""
    problem_io.save_problem(plant, path)
    loaded = problem_io.load_problem(path)
    for name in ("A", "B1", "B", "C1", "D11", "D12", "C"):
        if not np.array_equal(getattr(loaded, name), getattr(plant, name)):
            raise RuntimeError(f"{path}: matrix {name} did not round-trip")
    return loaded


def setup(workload: Workload, bench_seed: int, seconds: float, out_dir: Path) -> Setup:
    out_dir.mkdir(parents=True, exist_ok=True)
    n_full = workload.full_units(seconds)
    if workload.name == "rand4-hinf":
        rand4 = problem_io.load_problem(builtin_plant_path("rand4"))
        return Setup([rand4] * n_full, [], rand4)

    if workload.name == "synth16-sa":
        prefix, shape = "synth16", SYNTH16
    else:
        prefix, shape = "synth8_d11", SYNTH8_D11
    plants = []
    for i in range(n_full):
        plant, _ = synthetic_plant(workload.rng(bench_seed, _PLANT, i), f"{prefix}_{i}", **shape)
        plants.append(_round_trip(plant, out_dir / f"{plant.name}.plant"))
    if not workload.is_campaign:
        return Setup(plants, [], None)
    builtin_files = [builtin_plant_path(name) for name in BUILTIN_PLANTS]
    files = [builtin_files + [str(out_dir / f"{p.name}.plant")] for p in plants]
    return Setup(plants, files, problem_io.load_problem(builtin_plant_path("rand4")))


def race_plant(workload: Workload, st: Setup, bench_seed: int,
               j: int) -> tuple[PlantRealization, float]:
    """Plant and target of race j: the penalized objective at which it stops.

    synth16-sa races each run on a fresh plant and must beat its planted
    gain. The other workloads race on rand4 down to ``RAND4_TARGET``:
    synthetic D11 plants differ so much in difficulty that a run's mean
    race time would follow its plants, not the program.
    """
    if st.rand4 is not None:
        return st.rand4, RAND4_TARGET
    rng = workload.rng(bench_seed, _RACE_PLANT, j)
    plant, F0 = synthetic_plant(rng, f"synth16_race{j}", **SYNTH16)
    return plant, -evaluate(plant, flatten_gain(F0), workload.objective).fitness


def warm_up(workload: Workload, st: Setup) -> None:
    """One evaluation, so lazy imports and LAPACK start-up are paid in set-up."""
    plant = st.plants[0]
    evaluate(plant, np.zeros(plant.dims.n), workload.objective)
