"""Seeded synthetic plants with a planted stabilizing gain.

A plant is built as A = A_s - B F0 C with A_s Hurwitz, so the static gain
F0 closes the loop to exactly A_s and certifies that the plant is
stabilizable by output feedback. F0 is grown until A itself is open-loop
unstable by at least ``min_open_loop_abscissa``, so every plant needs a
search to become feasible.
"""

from __future__ import annotations

import numpy as np

from sofsyn import analysis
from sofsyn.model import PlantRealization, close_loop

#: Spectral abscissa of the planted closed loop A_s (so F0 scores -MARGIN on "sa").
MARGIN = 1.0


def _destabilizing_gain(rng, A_s, B, C, min_abscissa: float, name: str) -> np.ndarray:
    """A gain F0 with A_s - B F0 C unstable by at least ``min_abscissa``: a
    random direction grown step by step, redrawn if growing does not help."""
    for _ in range(100):
        F = rng.standard_normal((B.shape[1], C.shape[0]))
        for growth in 1.25 ** np.arange(16):
            if analysis.spectral_abscissa(A_s - growth * (B @ F @ C)) >= min_abscissa:
                return growth * F
    raise RuntimeError(f"{name}: no planted gain makes the plant open-loop unstable")


def synthetic_plant(
    rng: np.random.Generator,
    name: str,
    n_x: int,
    n_u: int,
    n_y: int,
    n_w: int = 2,
    n_z: int = 2,
    d11: bool = False,
    min_open_loop_abscissa: float = 0.5,
) -> tuple[PlantRealization, np.ndarray]:
    """Return ``(plant, F0)``; ``d11`` adds a nonzero feedthrough D11."""
    scale = 1.0 / np.sqrt(n_x)
    M = scale * rng.standard_normal((n_x, n_x))
    A_s = M - (analysis.spectral_abscissa(M) + MARGIN) * np.eye(n_x)
    B = scale * rng.standard_normal((n_x, n_u))
    C = scale * rng.standard_normal((n_y, n_x))
    F0 = _destabilizing_gain(rng, A_s, B, C, min_open_loop_abscissa, name)
    A = A_s - B @ F0 @ C
    plant = PlantRealization(
        A=A,
        B1=scale * rng.standard_normal((n_x, n_w)),
        B=B,
        C1=scale * rng.standard_normal((n_z, n_x)),
        D11=0.2 * rng.standard_normal((n_z, n_w)) if d11 else np.zeros((n_z, n_w)),
        D12=rng.standard_normal((n_z, n_u)),
        C=C,
        name=name,
    )
    if not analysis.is_hurwitz(close_loop(plant, F0).A_F).hurwitz:
        raise RuntimeError(f"planted gain does not stabilize {name}")
    if analysis.spectral_abscissa(plant.A) <= 0:
        raise RuntimeError(f"{name} is open-loop stable")
    return plant, F0
