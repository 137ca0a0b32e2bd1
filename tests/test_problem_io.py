import dataclasses

import numpy as np
import pytest

from sofsyn import builtin_plant_path
from sofsyn.errors import ProblemFileError
from sofsyn.model import PLANT_SHAPES, PlantRealization, check_shapes
from sofsyn.problem_io import format_problem, load_problem, parse_problem, save_problem

MINIMAL = """
name tiny
dims 1 1 1 1 1
matrix A 1 1
-1
matrix B1 1 1
1
matrix B 1 1
1
matrix C1 1 1
1
matrix D11 1 1
0
matrix D12 1 1
0
matrix C 1 1
1
"""


def test_parse_minimal():
    plant = parse_problem(MINIMAL)
    assert plant.name == "tiny"
    assert plant.A[0, 0] == -1.0


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    plant = PlantRealization(
        A=rng.standard_normal((3, 3)) * 1e3,
        B1=rng.standard_normal((3, 2)) * 1e-7,
        B=rng.standard_normal((3, 1)),
        C1=rng.standard_normal((2, 3)),
        D11=rng.standard_normal((2, 2)),
        D12=rng.standard_normal((2, 1)),
        C=rng.standard_normal((2, 3)),
        name="roundtrip",
    )
    path = tmp_path / "rt.plant"
    save_problem(plant, path)
    back = load_problem(path)
    for field in ("A", "B1", "B", "C1", "D11", "D12", "C"):
        assert (getattr(back, field) == getattr(plant, field)).all(), field
    assert back.name == plant.name


def test_missing_matrix_rejected():
    text = MINIMAL.replace("matrix C 1 1\n1\n", "")
    with pytest.raises(ProblemFileError, match="missing matrix"):
        parse_problem(text)


def test_truncated_matrix_rejected():
    text = MINIMAL.replace("matrix A 1 1\n-1", "matrix A 2 2\n-1 0 0")
    with pytest.raises(ProblemFileError):
        parse_problem(text)


def test_duplicate_matrix_rejected():
    text = MINIMAL + "matrix A 1 1\n-1\n"
    with pytest.raises(ProblemFileError, match="duplicate matrix"):
        parse_problem(text)


def test_shape_mismatch_against_dims_rejected():
    text = MINIMAL.replace("dims 1 1 1 1 1", "dims 2 1 1 1 1")
    with pytest.raises(ProblemFileError, match="matrix A"):
        parse_problem(text)


def test_bad_number_reports_line():
    text = MINIMAL.replace("matrix B 1 1\n1", "matrix B 1 1\nbogus")
    with pytest.raises(ProblemFileError, match=r"line \d+"):
        parse_problem(text)


def test_non_finite_entry_rejected():
    text = MINIMAL.replace("matrix B 1 1\n1", "matrix B 1 1\nnan")
    with pytest.raises(ProblemFileError, match="non-finite"):
        parse_problem(text)


def test_unknown_keyword_rejected():
    with pytest.raises(ProblemFileError, match="unknown keyword"):
        parse_problem("name x\nbogus 3\n" + MINIMAL)


def test_missing_name_rejected():
    text = MINIMAL.replace("name tiny\n", "")
    with pytest.raises(ProblemFileError, match="missing 'name'"):
        parse_problem(text)


def test_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.plant"
    with pytest.raises(ProblemFileError, match="nope.plant"):
        load_problem(missing)


def test_non_utf8_file_rejected(tmp_path):
    binary = tmp_path / "binary.plant"
    binary.write_bytes(b"name x\n\xff\xfe\x80 dims 1 1 1 1 1\n")
    with pytest.raises(ProblemFileError, match="binary.plant"):
        load_problem(binary)


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\n" + MINIMAL.replace("matrix A 1 1", "matrix A 1 1 # inline")
    plant = parse_problem(text)
    assert plant.A[0, 0] == -1.0


@pytest.mark.parametrize(
    "name", ["first_order_lag", "double_integrator", "resonant_2state", "rand4"]
)
def test_builtin_plants_load_and_validate(name):
    plant = load_problem(builtin_plant_path(name))
    assert check_shapes(vars(plant), PLANT_SHAPES) == dataclasses.asdict(plant.dims)
    assert plant.name == name


def test_format_emits_17_significant_digits():
    plant = parse_problem(MINIMAL)
    object.__setattr__(plant, "A", np.array([[-1.0 / 3.0]]))
    text = format_problem(plant)
    assert "-0.33333333333333331" in text


@pytest.mark.parametrize("name", ["my plant", "a#b", "", "synth8_d11_0"])
def test_saved_name_reads_back_or_is_refused(tmp_path, name):
    """A name that is not one whitespace-free token without '#' would not
    read back (or would read back cut short), so writing it is refused."""
    plant = dataclasses.replace(load_problem(builtin_plant_path("first_order_lag")), name=name)
    path = tmp_path / "named.plant"
    if name == "synth8_d11_0":
        save_problem(plant, path)
        assert load_problem(path).name == name
    else:
        with pytest.raises(ProblemFileError, match="plant name"):
            save_problem(plant, path)
        assert not path.exists()
