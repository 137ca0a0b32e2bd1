"""Reading and writing plant files.

A plant file is a plain-text document. Blank lines and ``#`` comments are
ignored. The remaining content must contain, in any order after the header:

    name <identifier>
    dims <n_x> <n_w> <n_u> <n_y> <n_z>
    matrix <NAME> <rows> <cols>
    <rows*cols numbers, whitespace separated, row-major>

with exactly one ``matrix`` block per plant matrix (A, B1, B, C1, D11,
D12, C). Duplicate or missing blocks, shape mismatches against ``dims``,
and non-numeric or non-finite entries are rejected. Writers emit 17
significant digits so files round-trip doubles exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ProblemFileError
from .model import PlantRealization, validate_plant

__all__ = ["load_problem", "parse_problem", "save_problem", "format_problem"]

MATRIX_NAMES = ("A", "B1", "B", "C1", "D11", "D12", "C")

_EXPECTED_SHAPES = {
    "A": ("n_x", "n_x"),
    "B1": ("n_x", "n_w"),
    "B": ("n_x", "n_u"),
    "C1": ("n_z", "n_x"),
    "D11": ("n_z", "n_w"),
    "D12": ("n_z", "n_u"),
    "C": ("n_y", "n_x"),
}


class _TokenStream:
    """Line-tracking token reader so parse errors can point at their origin."""

    def __init__(self, text: str):
        self.tokens: list[tuple[str, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            for tok in body.split():
                self.tokens.append((tok, lineno))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise ProblemFileError(f"unexpected end of file while reading {what}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok


def _parse_int(stream: _TokenStream, what: str) -> int:
    tok, lineno = stream.next(what)
    try:
        return int(tok)
    except ValueError:
        raise ProblemFileError(f"line {lineno}: expected integer for {what}, got {tok!r}") from None


def _parse_float(stream: _TokenStream, what: str) -> float:
    tok, lineno = stream.next(what)
    try:
        value = float(tok)
    except ValueError:
        raise ProblemFileError(f"line {lineno}: expected number in {what}, got {tok!r}") from None
    if not np.isfinite(value):
        raise ProblemFileError(f"line {lineno}: non-finite entry {tok!r} in {what}")
    return value


def parse_problem(text: str, source: str = "<string>") -> PlantRealization:
    """Parse plant-file text into a validated :class:`PlantRealization`."""
    stream = _TokenStream(text)
    name = None
    dims = None
    matrices: dict[str, np.ndarray] = {}

    while stream.peek() is not None:
        keyword, lineno = stream.next("keyword")
        if keyword == "name":
            if name is not None:
                raise ProblemFileError(f"line {lineno}: duplicate 'name' field")
            name, _ = stream.next("name value")
        elif keyword == "dims":
            if dims is not None:
                raise ProblemFileError(f"line {lineno}: duplicate 'dims' field")
            dims = tuple(
                _parse_int(stream, f"dims ({field})")
                for field in ("n_x", "n_w", "n_u", "n_y", "n_z")
            )
        elif keyword == "matrix":
            mat_name, name_line = stream.next("matrix name")
            if mat_name not in MATRIX_NAMES:
                raise ProblemFileError(
                    f"line {name_line}: unknown matrix {mat_name!r}; expected one of {MATRIX_NAMES}"
                )
            if mat_name in matrices:
                raise ProblemFileError(f"line {name_line}: duplicate matrix block {mat_name!r}")
            rows = _parse_int(stream, f"matrix {mat_name} rows")
            cols = _parse_int(stream, f"matrix {mat_name} cols")
            if rows < 1 or cols < 1:
                raise ProblemFileError(
                    f"line {name_line}: matrix {mat_name} has non-positive shape {rows}x{cols}"
                )
            data = [_parse_float(stream, f"matrix {mat_name}") for _ in range(rows * cols)]
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

    n_x, n_w, n_u, n_y, n_z = dims
    sizes = {"n_x": n_x, "n_w": n_w, "n_u": n_u, "n_y": n_y, "n_z": n_z}
    for mat_name, (rfield, cfield) in _EXPECTED_SHAPES.items():
        expected = (sizes[rfield], sizes[cfield])
        actual = matrices[mat_name].shape
        if actual != expected:
            raise ProblemFileError(
                f"{source}: matrix {mat_name} has shape {actual[0]}x{actual[1]}, "
                f"expected {expected[0]}x{expected[1]} ({rfield}x{cfield})"
            )

    plant = PlantRealization(name=name, **matrices)
    return validate_plant(plant)


def load_problem(path) -> PlantRealization:
    """Load and validate a plant file from disk."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read problem file {path}: {exc}") from exc
    return parse_problem(text, source=str(path))


def format_problem(plant: PlantRealization) -> str:
    """Render a plant as file text with full double precision."""
    dims = plant.dims
    lines = [
        f"name {plant.name}",
        f"dims {dims.n_x} {dims.n_w} {dims.n_u} {dims.n_y} {dims.n_z}",
    ]
    for mat_name in MATRIX_NAMES:
        mat = getattr(plant, mat_name)
        lines.append(f"matrix {mat_name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def save_problem(plant: PlantRealization, path) -> None:
    """Validate and write a plant file."""
    validate_plant(plant)
    Path(path).write_text(format_problem(plant))
