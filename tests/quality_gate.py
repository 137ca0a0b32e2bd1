"""Solution-quality gate for changes that move the solver's sample path;
run in a fresh interpreter:

    PYTHONPATH=src python tests/quality_gate.py                   # compare
    PYTHONPATH=src python tests/quality_gate.py --write-baseline  # record

It runs a seeded campaign on seven problems and compares each problem's
summary with ``tests/quality_baseline.json``, which holds the summaries
recorded before such a change. A change that only reseeds the search moves
the quartiles by about as much as the seeds spread them, so the rule asks
for no more successes lost, a median no worse than the baseline's upper
quartile, and an upper quartile no worse than the baseline's by more than
one interquartile range (each up to ``NORM_REL_TOL`` relative to the
baseline median). It exits 1 naming each problem that breaks the rule, and
2 when the baseline was recorded with other settings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from plants import synthetic_plant  # noqa: E402

from sofsyn import builtin_plant_path, load_problem  # noqa: E402
from sofsyn.analysis import NORM_REL_TOL  # noqa: E402
from sofsyn.campaign import CampaignSpec, run_campaign  # noqa: E402
from sofsyn.driver import SolverConfig  # noqa: E402
from sofsyn.objectives import ObjectiveKind  # noqa: E402

BASELINE = Path(__file__).resolve().with_name("quality_baseline.json")

#: Everything that determines the gate's results; a baseline must match it.
SETTINGS = {
    "runs": 20,
    "base_seed": 1000,
    "threads": 2,
    "groups": [
        {
            "objective": "hinf",
            "t_max": 200,
            "builtin": ["first_order_lag", "double_integrator", "resonant_2state", "rand4"],
            "synthetic": [{"name": "synth8d11", "rng": 8, "n_x": 8, "n_u": 2, "n_y": 2,
                           "d11": True}],
        },
        {
            "objective": "hinf",
            "t_max": 100,
            "builtin": [],
            "synthetic": [{"name": "synth16", "rng": 16, "n_x": 16, "n_u": 4, "n_y": 4}],
        },
        {
            "objective": "sa",
            "t_max": 600,
            "builtin": [],
            "synthetic": [{"name": "synth16", "rng": 16, "n_x": 16, "n_u": 4, "n_y": 4}],
        },
    ],
}

#: The fields of a problem's summary that the rule reads.
SUMMARY_FIELDS = ("success_count", "q1", "median", "q3")


def _plants(group: dict) -> list:
    plants = [load_problem(builtin_plant_path(name)) for name in group["builtin"]]
    for spec in group["synthetic"]:
        shape = {k: v for k, v in spec.items() if k not in ("name", "rng")}
        plant, _ = synthetic_plant(np.random.default_rng(spec["rng"]), spec["name"], **shape)
        plants.append(plant)
    return plants


def measure() -> dict:
    """Per problem, keyed ``name/objective``, the summary fields of the rule."""
    out = {}
    for group in SETTINGS["groups"]:
        config = SolverConfig(objective=ObjectiveKind(group["objective"]), t_max=group["t_max"],
                              threads=SETTINGS["threads"])
        plants = _plants(group)
        spec = CampaignSpec(problems=tuple(p.name for p in plants), config=config,
                            runs=SETTINGS["runs"], base_seed=SETTINGS["base_seed"])
        _, summaries = run_campaign(spec, plants)
        for s in summaries:
            out[f"{s.problem}/{group['objective']}"] = {f: getattr(s, f) for f in SUMMARY_FIELDS}
    return out


def compare(base: dict, current: dict) -> list[str]:
    """One message per problem of ``base`` whose ``current`` summary breaks
    the rule; none when every problem holds."""
    failures = []
    for problem, b in base.items():
        c = current[problem]
        tol = NORM_REL_TOL * abs(b["median"])
        if c["success_count"] < b["success_count"]:
            failures.append(f"{problem}: {c['success_count']} successes, "
                            f"baseline {b['success_count']}")
        if not c["median"] <= b["q3"] + tol:
            failures.append(f"{problem}: median {c['median']!r} above baseline q3 {b['q3']!r}")
        limit = b["q3"] + (b["q3"] - b["q1"]) + tol
        if not c["q3"] <= limit:
            failures.append(f"{problem}: q3 {c['q3']!r} above baseline q3 + IQR {limit!r}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"record the summaries to {BASELINE.name} instead of comparing")
    args = parser.parse_args(argv)
    if args.write_baseline:
        doc = {"settings": SETTINGS, "problems": measure()}
        BASELINE.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {BASELINE}")
        return 0
    doc = json.loads(BASELINE.read_text())
    if doc["settings"] != SETTINGS:
        print(f"{BASELINE.name} was recorded with other settings; record it again at the parent")
        return 2
    current = measure()
    for problem, b in doc["problems"].items():
        c = current[problem]
        print(f"{problem}: baseline " + " ".join(f"{f}={b[f]!r}" for f in SUMMARY_FIELDS)
              + " | now " + " ".join(f"{f}={c[f]!r}" for f in SUMMARY_FIELDS))
    failures = compare(doc["problems"], current)
    for message in failures:
        print("FAIL", message)
    print("quality gate:", "FAIL" if failures else "PASS")
    return int(bool(failures))


if __name__ == "__main__":
    sys.exit(main())
