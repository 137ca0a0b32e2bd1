"""Peak-memory guard for the frequency sweeps; run in a fresh interpreter:

    PYTHONPATH=src python tests/memory_guard.py

It runs the grid oracle on an n_x = 64 loop and one 12-row H-infinity
``evaluate_batch`` at n_x = 128, on seeded plants from
``perfbench/plants.py``, and exits 1 if the peak resident set grows by more
than LIMIT_MB over the peak before them. Gain sweeps run in bounded chunks,
so neither should grow it by more than a few MB.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from plants import synthetic_plant  # noqa: E402

from sofsyn import analysis, model  # noqa: E402
from sofsyn.objectives import ObjectiveKind, evaluate_batch  # noqa: E402

LIMIT_MB = 64


def peak_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    rng = np.random.default_rng(0)
    plant64, F64 = synthetic_plant(rng, "guard64", n_x=64, n_u=2, n_y=2)
    loop64 = model.close_loop(plant64, F64)
    plant128, F128 = synthetic_plant(rng, "guard128", n_x=128, n_u=2, n_y=2)
    gains = F128.T.reshape(1, -1) + 1e-3 * rng.standard_normal((12, F128.size))
    base = peak_mb()
    norm = analysis.hinf_norm_grid(loop64)
    print(f"oracle at n_x = 64: {norm:.6g}, peak growth {peak_mb() - base:+.1f} MB")
    evals = evaluate_batch(plant128, gains, ObjectiveKind.HINF_NORM)
    growth = peak_mb() - base
    print(
        f"12-row evaluate_batch at n_x = 128: {sum(e.feasible for e in evals)} feasible, "
        f"peak growth {growth:+.1f} MB (limit {LIMIT_MB} MB)"
    )
    if not all(e.feasible for e in evals):
        print("the H-infinity rows were not all feasible, so their sweeps did not all run")
        return 1
    return int(growth > LIMIT_MB)


if __name__ == "__main__":
    sys.exit(main())
