"""Plant and closed-loop state-space data, and the gain <-> decision-vector maps.

The open-loop plant is

    dx/dt = A x + B1 w + B u
    z     = C1 x + D11 w + D12 u
    y     = C x

and a static output feedback u = F y closes the loop to

    dx/dt = (A + B F C) x + B1 w
    z     = (C1 + D12 F C) x + D11 w.

Both containers check the shapes and entries of their matrices when they
are built, so every plant and closed loop that exists is valid.

Decision vectors stack the gain matrix F column-major (the usual vec
operator), so a candidate vector has length n_u * n_y.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonFiniteEntryError

__all__ = [
    "Dims",
    "PlantRealization",
    "ClosedLoopRealization",
    "PLANT_SHAPES",
    "check_shapes",
    "close_loop",
    "flatten_gain",
    "unflatten_gain",
]


@dataclass(frozen=True)
class Dims:
    """Signal dimensions of a plant.

    Attributes
    ----------
    n_x : int
        Number of states.
    n_w : int
        Number of exogenous inputs (disturbances, noise).
    n_u : int
        Number of control inputs.
    n_y : int
        Number of measured outputs available for feedback.
    n_z : int
        Number of performance outputs.
    """

    n_x: int
    n_w: int
    n_u: int
    n_y: int
    n_z: int

    def __post_init__(self):
        for name in ("n_x", "n_w", "n_u", "n_y", "n_z"):
            check_count(name, getattr(self, name), 1, DimensionMismatchError)

    @property
    def n(self) -> int:
        """Decision-space dimension, n_u * n_y."""
        return self.n_u * self.n_y


#: Row- and column-count names of each plant matrix, in the order they are checked.
PLANT_SHAPES = {
    "A": ("n_x", "n_x"),
    "B1": ("n_x", "n_w"),
    "B": ("n_x", "n_u"),
    "C1": ("n_z", "n_x"),
    "D11": ("n_z", "n_w"),
    "D12": ("n_z", "n_u"),
    "C": ("n_y", "n_x"),
}

_CLOSED_LOOP_SHAPES = {
    "A_F": ("n_x", "n_x"),
    "B1": ("n_x", "n_w"),
    "C_F": ("n_z", "n_x"),
    "D11": ("n_z", "n_w"),
}


def check_shapes(matrices: dict, shapes: dict, sizes: dict | None = None) -> dict:
    """Check the 2-d ``matrices`` named in ``shapes`` (name -> (row-count
    name, column-count name)) and return the sizes: those given in ``sizes``,
    and each other one read from the first matrix in ``shapes`` that has it.
    Raises :class:`DimensionMismatchError`, then :class:`NonFiniteEntryError`,
    naming the first bad matrix."""
    sizes = dict(sizes or {})
    for name, (rows, cols) in shapes.items():
        shape = matrices[name].shape
        sizes.setdefault(rows, shape[0])
        sizes.setdefault(cols, shape[1])
        if shape != (sizes[rows], sizes[cols]):
            raise DimensionMismatchError(
                f"matrix {name} has shape {shape[0]}x{shape[1]}, "
                f"expected {sizes[rows]}x{sizes[cols]} ({rows}, {cols})"
            )
    for name in shapes:
        if not np.all(np.isfinite(matrices[name])):
            raise NonFiniteEntryError(f"matrix {name} contains non-finite entries")
    return sizes


def check_count(name: str, value, least: int, error: type) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer >= ``least``, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


def is_real(value) -> bool:
    """Whether ``value`` is a real number (numpy's included, a bool not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be a 2-d matrix, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class PlantRealization:
    """The seven matrices of an open-loop plant plus a name for reporting.

    Each matrix has the shape :data:`PLANT_SHAPES` gives it: building a plant
    with a bad matrix raises as :func:`check_shapes` does, and ``dims`` holds
    the sizes.
    """

    A: np.ndarray
    B1: np.ndarray
    B: np.ndarray
    C1: np.ndarray
    D11: np.ndarray
    D12: np.ndarray
    C: np.ndarray
    name: str = "unnamed"
    dims: Dims = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in PLANT_SHAPES:
            object.__setattr__(self, name, _as_matrix(getattr(self, name), name))
        object.__setattr__(self, "dims", Dims(**check_shapes(vars(self), PLANT_SHAPES)))


@dataclass(frozen=True)
class ClosedLoopRealization:
    """State-space data of the closed loop from w to z, checked when built
    as a plant is."""

    A_F: np.ndarray
    B1: np.ndarray
    C_F: np.ndarray
    D11: np.ndarray

    def __post_init__(self):
        for name in _CLOSED_LOOP_SHAPES:
            object.__setattr__(self, name, _as_matrix(getattr(self, name), name))
        check_shapes(vars(self), _CLOSED_LOOP_SHAPES)


def close_loop(plant: PlantRealization, gain: np.ndarray) -> ClosedLoopRealization:
    """Close the loop with the static output feedback u = gain * y.

    A_F = A + B F C and C_F = C1 + D12 F C; B1 and D11 pass through.
    """
    F = np.asarray(gain, dtype=float)
    dims = plant.dims
    if F.shape != (dims.n_u, dims.n_y):
        raise DimensionMismatchError(
            f"gain has shape {F.shape}, expected ({dims.n_u}, {dims.n_y})"
        )
    FC = F @ plant.C
    return ClosedLoopRealization(
        A_F=plant.A + plant.B @ FC,
        B1=plant.B1.copy(),
        C_F=plant.C1 + plant.D12 @ FC,
        D11=plant.D11.copy(),
    )


def flatten_gain(gain: np.ndarray) -> np.ndarray:
    """Stack a gain matrix into a decision vector, column by column."""
    return np.asarray(gain, dtype=float).flatten(order="F")


def unflatten_gain(alpha: np.ndarray, n_u: int, n_y: int) -> np.ndarray:
    """Inverse of :func:`flatten_gain`, also row by row on a stack (m, n_u * n_y)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim not in (1, 2) or alpha.shape[-1] != n_u * n_y:
        raise DimensionMismatchError(
            f"decision vectors have shape {alpha.shape}, expected (..., {n_u * n_y})"
        )
    return alpha.reshape(alpha.shape[:-1] + (n_y, n_u)).swapaxes(-1, -2)
