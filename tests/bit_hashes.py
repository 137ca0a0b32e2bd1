"""Bitwise-equality check of solver results; run in a fresh interpreter:

    PYTHONPATH=src python tests/bit_hashes.py --write base.json    # record
    PYTHONPATH=src python tests/bit_hashes.py --compare base.json  # compare

It solves a fixed set of cases and hashes each result: sha256 of the
``best_alpha`` bytes plus the repr of every other field, wall times left
out. A campaign case hashes its rows and summaries the same way. Bits
depend on the numpy/OpenBLAS build, so a table belongs to one host: record
it at a change's parent and compare at the change. ``--compare`` exits 1
naming each case whose hash changed or that one table lacks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from plants import synthetic_plant  # noqa: E402

from sofsyn import builtin_plant_path, load_problem, save_problem  # noqa: E402
from sofsyn.campaign import CampaignSpec, run_campaign  # noqa: E402
from sofsyn.driver import SolverConfig, solve, solve_raw  # noqa: E402
from sofsyn.objectives import ObjectiveKind  # noqa: E402

BUILTIN = ("first_order_lag", "double_integrator", "resonant_2state", "rand4")
SYNTH16 = dict(n_x=16, n_u=4, n_y=4)
SYNTH8_D11 = dict(n_x=8, n_u=2, n_y=2, d11=True)
HINF, SA = ObjectiveKind.HINF_NORM, ObjectiveKind.SPECTRAL_ABSCISSA

#: Fields that time a run rather than compute it.
TIMERS = ("wall_time", "wall_time_s", "mean_wall_time_s")


def record_hash(result) -> str:
    """sha256 of a dataclass record, or of a list of them: each
    ``best_alpha`` as bytes, then the repr of every other field except the
    timers."""
    h = hashlib.sha256()
    for record in result if isinstance(result, list) else [result]:
        for f in fields(record):
            value = getattr(record, f.name)
            if f.name == "best_alpha":
                h.update(np.ascontiguousarray(value, dtype=float).tobytes())
            elif f.name not in TIMERS:
                h.update(repr(value).encode())
    return h.hexdigest()


def _synthetic(rng: int, name: str, shape: dict):
    return synthetic_plant(np.random.default_rng(rng), name, **shape)[0]


def _quadratic(x: np.ndarray) -> float:
    return -math.fsum((x - np.arange(3.0)) ** 2)


def cases():
    """Yield ``(name, run)`` pairs; ``run()`` returns the result to hash."""
    builtin = {name: load_problem(builtin_plant_path(name)) for name in BUILTIN}
    for name, plant in builtin.items():
        for kind in (HINF, SA):
            for seed in (0, 1):
                config = SolverConfig(objective=kind, t_max=600, seed=seed)
                yield f"{name}/{kind.value}/s{seed}", partial(solve, plant, config)
    for label, change in (("charge_local", {"charge_local_to_budget": True}),
                          ("no_local", {"local_search_enabled": False})):
        config = SolverConfig(objective=HINF, t_max=600, **change)
        yield f"rand4/hinf/{label}", partial(solve, builtin["rand4"], config)
    for rng in (100, 101, 102):
        plant = _synthetic(rng, f"synth16_{rng}", SYNTH16)
        for kind, t_max in ((SA, 2000), (HINF, 300)):
            config = SolverConfig(objective=kind, t_max=t_max)
            yield f"synth16_{rng}/{kind.value}", partial(solve, plant, config)
    for rng in (200, 201, 202):
        plant = _synthetic(rng, f"synth8d11_{rng}", SYNTH8_D11)
        config = SolverConfig(objective=HINF, t_max=600)
        yield f"synth8d11_{rng}/hinf", partial(solve, plant, config)
    yield "solve_raw/quadratic", partial(solve_raw, _quadratic, 3, SolverConfig(t_max=600))
    yield "campaign/builtin+synth8d11", _campaign


def _campaign() -> list:
    with tempfile.TemporaryDirectory() as tmp:
        synth = Path(tmp) / "synth8d11.plant"
        save_problem(_synthetic(8, "synth8d11", SYNTH8_D11), synth)
        problems = tuple(builtin_plant_path(n) for n in BUILTIN) + (str(synth),)
        spec = CampaignSpec(problems=problems, config=SolverConfig(t_max=200, threads=2), runs=2)
        rows, summaries = run_campaign(spec)
    return [*rows, *summaries]


def measure() -> dict:
    """The hash of every case, keyed by case name."""
    return {name: record_hash(run()) for name, run in cases()}


def compare(base: dict, current: dict) -> list[str]:
    """The names of the cases whose hash differs between the two tables,
    or that only one of them holds, in ``base`` order; none when all agree."""
    return [name for name in {**base, **current} if base.get(name) != current.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="PATH", help="record the hashes to PATH")
    mode.add_argument("--compare", metavar="PATH", help="compare the hashes with PATH")
    args = parser.parse_args(argv)
    current = measure()
    if args.write:
        Path(args.write).write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {len(current)} hashes to {args.write}")
        return 0
    base = json.loads(Path(args.compare).read_text())
    changed = compare(base, current)
    total = len({**base, **current})
    for name in changed:
        print("CHANGED", name)
    print(f"bit hashes: {total - len(changed)} of {total} cases equal")
    return int(bool(changed))


if __name__ == "__main__":
    sys.exit(main())
