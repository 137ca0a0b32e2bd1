import dataclasses

import numpy as np
import pytest

from sofsyn.errors import DimensionMismatchError, NonFiniteEntryError, ProblemFileError
from sofsyn.model import (
    PLANT_SHAPES,
    ClosedLoopRealization,
    Dims,
    PlantRealization,
    check_shapes,
    close_loop,
    flatten_gain,
    unflatten_gain,
)
from sofsyn.problem_io import parse_problem


def random_plant(rng, n_x=3, n_w=2, n_u=2, n_y=2, n_z=2, name="random"):
    return PlantRealization(
        A=rng.standard_normal((n_x, n_x)),
        B1=rng.standard_normal((n_x, n_w)),
        B=rng.standard_normal((n_x, n_u)),
        C1=rng.standard_normal((n_z, n_x)),
        D11=rng.standard_normal((n_z, n_w)),
        D12=rng.standard_normal((n_z, n_u)),
        C=rng.standard_normal((n_y, n_x)),
        name=name,
    )


def matmul_oracle(A, B):
    """Triple-loop matrix product, independent of numpy's matmul."""
    out = np.zeros((A.shape[0], B.shape[1]))
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0.0
            for k in range(A.shape[1]):
                acc += A[i, k] * B[k, j]
            out[i, j] = acc
    return out


def test_minimal_siso_plant_accepted():
    plant = PlantRealization(
        A=[[-1.0]], B1=[[1.0]], B=[[1.0]], C1=[[1.0]], D11=[[0.0]], D12=[[0.0]], C=[[1.0]]
    )
    assert check_shapes(vars(plant), PLANT_SHAPES) == dataclasses.asdict(plant.dims)
    assert plant.dims == Dims(1, 1, 1, 1, 1)
    assert plant.dims.n == 1


#: For random_plant's default sizes (n_x 3, n_w 2, n_u 2, n_y 2, n_z 2), a
#: shape per matrix that disagrees with a size an earlier matrix fixed.
BAD_SHAPES = {
    "A": (3, 4), "B1": (4, 2), "B": (4, 2), "C1": (2, 4), "D11": (3, 2), "D12": (2, 3),
    "C": (2, 4), "A_F": (3, 4), "C_F": (2, 4),
}


def plant_text(matrices: dict) -> str:
    """A plant file declaring random_plant's default dims, whatever the matrices' shapes."""
    lines = ["name bad", "dims 3 2 2 2 2"]
    for name, M in matrices.items():
        lines.append(f"matrix {name} {M.shape[0]} {M.shape[1]}")
        lines += [" ".join(map(repr, row)) for row in M.tolist()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", list(PLANT_SHAPES))
def test_inconsistent_shape_rejected_naming_matrix(name):
    rng = np.random.default_rng(0)
    plant = random_plant(rng)
    matrices = {m: getattr(plant, m) for m in PLANT_SHAPES}
    matrices[name] = rng.standard_normal(BAD_SHAPES[name])
    with pytest.raises(DimensionMismatchError, match=rf"matrix {name} has shape"):
        PlantRealization(**matrices)
    with pytest.raises(ProblemFileError, match=rf"matrix {name} has shape"):
        parse_problem(plant_text(matrices))


@pytest.mark.parametrize("name", ["A_F", "B1", "C_F", "D11"])
def test_closed_loop_shape_rejected_naming_matrix(name):
    rng = np.random.default_rng(8)
    cl = close_loop(random_plant(rng), rng.standard_normal((2, 2)))
    matrices = {m: getattr(cl, m) for m in ("A_F", "B1", "C_F", "D11")}
    matrices[name] = rng.standard_normal(BAD_SHAPES[name])
    with pytest.raises(DimensionMismatchError, match=rf"matrix {name} has shape"):
        ClosedLoopRealization(**matrices)
    matrices[name] = np.full(getattr(cl, name).shape, np.inf)
    with pytest.raises(NonFiniteEntryError, match=rf"matrix {name} contains"):
        ClosedLoopRealization(**matrices)


def test_replace_checks_the_new_plant_and_keeps_dims():
    plant = random_plant(np.random.default_rng(9))
    with pytest.raises(DimensionMismatchError, match="matrix B has shape"):
        dataclasses.replace(plant, B=np.zeros(BAD_SHAPES["B"]))
    renamed = dataclasses.replace(plant, name="x")
    assert renamed.name == "x" and renamed.dims == plant.dims


def test_inconsistent_d12_shape_rejected():
    rng = np.random.default_rng(1)
    plant = random_plant(rng)
    with pytest.raises(DimensionMismatchError, match="D12"):
        PlantRealization(
            A=plant.A, B1=plant.B1, B=plant.B, C1=plant.C1, D11=plant.D11,
            D12=rng.standard_normal((2, 3)), C=plant.C,
        )


def test_nan_entry_rejected():
    A = np.array([[np.nan]])
    with pytest.raises(NonFiniteEntryError, match="A"):
        PlantRealization(
            A=A, B1=[[1.0]], B=[[1.0]], C1=[[1.0]], D11=[[0.0]], D12=[[0.0]], C=[[1.0]]
        )


def test_close_loop_scalar():
    plant = PlantRealization(
        A=[[1.0]], B1=[[1.0]], B=[[1.0]], C1=[[1.0]], D11=[[0.0]], D12=[[0.0]], C=[[1.0]]
    )
    cl = close_loop(plant, np.array([[-3.0]]))
    assert cl.A_F[0, 0] == -2.0


def test_close_loop_zero_gain_is_identity():
    rng = np.random.default_rng(2)
    plant = random_plant(rng)
    cl = close_loop(plant, np.zeros((2, 2)))
    np.testing.assert_array_equal(cl.A_F, plant.A)
    np.testing.assert_array_equal(cl.C_F, plant.C1)
    np.testing.assert_array_equal(cl.B1, plant.B1)
    np.testing.assert_array_equal(cl.D11, plant.D11)


def test_close_loop_matches_triple_loop_oracle():
    rng = np.random.default_rng(3)
    plant = random_plant(rng, n_x=3)
    F = rng.standard_normal((2, 2))
    cl = close_loop(plant, F)
    A_F_oracle = plant.A + matmul_oracle(matmul_oracle(plant.B, F), plant.C)
    C_F_oracle = plant.C1 + matmul_oracle(matmul_oracle(plant.D12, F), plant.C)
    np.testing.assert_allclose(cl.A_F, A_F_oracle, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cl.C_F, C_F_oracle, rtol=0, atol=1e-12)


def test_close_loop_gain_shape_checked():
    rng = np.random.default_rng(4)
    plant = random_plant(rng)
    with pytest.raises(DimensionMismatchError):
        close_loop(plant, np.zeros((3, 2)))


def test_close_loop_affine_in_gain():
    rng = np.random.default_rng(5)
    plant = random_plant(rng)
    for _ in range(20):
        F1 = rng.standard_normal((2, 2))
        F2 = rng.standard_normal((2, 2))
        lhs = close_loop(plant, F1 + F2).A_F + close_loop(plant, np.zeros((2, 2))).A_F
        rhs = close_loop(plant, F1).A_F + close_loop(plant, F2).A_F
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_close_loop_does_not_mutate_plant():
    rng = np.random.default_rng(6)
    plant = random_plant(rng)
    before = {k: getattr(plant, k).copy() for k in ("A", "B1", "B", "C1", "D11", "D12", "C")}
    close_loop(plant, rng.standard_normal((2, 2)))
    for k, v in before.items():
        np.testing.assert_array_equal(getattr(plant, k), v)


def test_flatten_is_column_major():
    F = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(flatten_gain(F), [1.0, 3.0, 2.0, 4.0])


def test_flatten_scalar_gain():
    np.testing.assert_array_equal(flatten_gain(np.array([[5.0]])), [5.0])


def test_flatten_unflatten_roundtrip_bit_exact():
    rng = np.random.default_rng(7)
    for n_u, n_y in [(1, 1), (2, 3), (4, 5), (1, 7)]:
        F = rng.standard_normal((n_u, n_y))
        back = unflatten_gain(flatten_gain(F), n_u, n_y)
        assert (back == F).all()


def test_unflatten_a_stack_row_by_row():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4, 6))
    stack = unflatten_gain(X, 2, 3)
    assert stack.shape == (4, 2, 3)
    for row, F in zip(X, stack):
        assert (F == unflatten_gain(row, 2, 3)).all()


def test_unflatten_wrong_length():
    with pytest.raises(DimensionMismatchError):
        unflatten_gain(np.zeros(5), 2, 3)


def test_dims_rejects_nonpositive_counts():
    with pytest.raises(DimensionMismatchError):
        Dims(0, 1, 1, 1, 1)
    # a bool is not a count, though it is an int
    with pytest.raises(DimensionMismatchError, match="n_x"):
        Dims(True, 1, 1, 1, 1)
