"""Reading and writing plant files.

A plant file is a plain-text document. Blank lines and ``#`` comments are
ignored. The remaining content must contain, in any order after the header:

    name <token>
    dims <n_x> <n_w> <n_u> <n_y> <n_z>
    matrix <NAME> <rows> <cols>
    <rows*cols numbers, whitespace separated, row-major>

with exactly one ``matrix`` block per plant matrix (A, B1, B, C1, D11,
D12, C). Duplicate or missing blocks, shape mismatches against ``dims``
(the shapes of :data:`sofsyn.model.PLANT_SHAPES`), and non-numeric or
non-finite entries are rejected, naming the line or the matrix. The name
is one token with no whitespace and no ``#``; the writer refuses any other
name, since it would not read back. Writers emit 17 significant digits so
files round-trip doubles exactly.
"""

from __future__ import annotations

import math
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, ProblemFileError
from .model import PLANT_SHAPES, Dims, PlantRealization, check_shapes

__all__ = ["load_problem", "parse_problem", "save_problem", "format_problem"]

MATRIX_NAMES = tuple(PLANT_SHAPES)


def _tokens(text: str):
    """Each ``(token, line number)`` of ``text``, for parse errors to name the line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split("#", 1)[0].split():
            yield tok, lineno


def _next(tokens, what: str) -> tuple[str, int]:
    tok = next(tokens, None)
    if tok is None:
        raise ProblemFileError(f"unexpected end of file while reading {what}")
    return tok


def _parse_int(tokens, what: str) -> int:
    tok, lineno = _next(tokens, what)
    try:
        return int(tok)
    except ValueError:
        raise ProblemFileError(f"line {lineno}: expected integer for {what}, got {tok!r}") from None


def _parse_float(tokens, what: str) -> float:
    tok, lineno = _next(tokens, what)
    try:
        value = float(tok)
    except ValueError:
        raise ProblemFileError(f"line {lineno}: expected number in {what}, got {tok!r}") from None
    if not math.isfinite(value):
        raise ProblemFileError(f"line {lineno}: non-finite entry {tok!r} in {what}")
    return value


def parse_problem(text: str, source: str = "<string>") -> PlantRealization:
    """Parse plant-file text into a :class:`PlantRealization`."""
    tokens = _tokens(text)
    name = None
    dims = None
    matrices: dict[str, np.ndarray] = {}

    for keyword, lineno in tokens:
        if keyword == "name":
            if name is not None:
                raise ProblemFileError(f"line {lineno}: duplicate 'name' field")
            name, _ = _next(tokens, "name value")
        elif keyword == "dims":
            if dims is not None:
                raise ProblemFileError(f"line {lineno}: duplicate 'dims' field")
            dims = {size.name: _parse_int(tokens, f"dims ({size.name})") for size in fields(Dims)}
        elif keyword == "matrix":
            mat_name, name_line = _next(tokens, "matrix name")
            if mat_name not in MATRIX_NAMES:
                raise ProblemFileError(
                    f"line {name_line}: unknown matrix {mat_name!r}; expected one of {MATRIX_NAMES}"
                )
            if mat_name in matrices:
                raise ProblemFileError(f"line {name_line}: duplicate matrix block {mat_name!r}")
            rows = _parse_int(tokens, f"matrix {mat_name} rows")
            cols = _parse_int(tokens, f"matrix {mat_name} cols")
            if rows < 1 or cols < 1:
                raise ProblemFileError(
                    f"line {name_line}: matrix {mat_name} has non-positive shape {rows}x{cols}"
                )
            data = [_parse_float(tokens, f"matrix {mat_name}") for _ in range(rows * cols)]
            matrices[mat_name] = np.array(data, dtype=float).reshape(rows, cols)
        else:
            raise ProblemFileError(f"line {lineno}: unknown keyword {keyword!r}")

    if name is None:
        raise ProblemFileError(f"{source}: missing 'name' field")
    if dims is None:
        raise ProblemFileError(f"{source}: missing 'dims' field")
    missing = [m for m in MATRIX_NAMES if m not in matrices]
    if missing:
        raise ProblemFileError(f"{source}: missing matrix block(s): {', '.join(missing)}")

    try:
        check_shapes(matrices, PLANT_SHAPES, dims)
    except DimensionMismatchError as exc:
        raise ProblemFileError(f"{source}: {exc}") from exc
    return PlantRealization(name=name, **matrices)


def load_problem(path) -> PlantRealization:
    """Load a plant file from disk."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read problem file {path}: {exc}") from exc
    return parse_problem(text, source=str(path))


def format_problem(plant: PlantRealization) -> str:
    """Render a plant as file text with full double precision; raises
    :class:`ProblemFileError` unless its name is one token without spaces or ``#``."""
    if plant.name.split() != [plant.name] or "#" in plant.name:
        raise ProblemFileError(f"plant name {plant.name!r} is not one token without spaces or '#'")
    lines = [f"name {plant.name}", "dims " + " ".join(map(str, astuple(plant.dims)))]
    for mat_name in MATRIX_NAMES:
        mat = getattr(plant, mat_name)
        lines.append(f"matrix {mat_name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def save_problem(plant: PlantRealization, path) -> None:
    """Write a plant file (see :func:`format_problem`)."""
    Path(path).write_text(format_problem(plant))
