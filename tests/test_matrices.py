from fractions import Fraction

import pytest

from planar_rook.matrices import RationalMatrix


def test_identity_and_units_multiply():
    e01 = RationalMatrix.unit(2, 0, 1)
    e10 = RationalMatrix.unit(2, 1, 0)
    assert e01 @ e10 == RationalMatrix.unit(2, 0, 0)
    assert e10 @ e01 == RationalMatrix.unit(2, 1, 1)
    assert e01 @ e01 == RationalMatrix.zero(2, 2)
    ident = RationalMatrix.identity(2)
    assert ident @ e01 == e01 == e01 @ ident


@pytest.mark.parametrize("i, j", [(2, 0), (-1, 0), (0, 2), (0, -1), (-1, -1)])
def test_a_unit_outside_the_matrix_is_zero(i, j):
    assert RationalMatrix.unit(2, i, j) == RationalMatrix.zero(2, 2)


def test_add_and_scale():
    m = RationalMatrix.unit(2, 0, 0) + RationalMatrix.unit(2, 1, 1).scale(Fraction(1, 2))
    assert m.rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    assert m.trace() == Fraction(3, 2)


def test_shape_errors():
    with pytest.raises(ValueError):
        RationalMatrix.zero(2, 3) @ RationalMatrix.zero(2, 3)
    with pytest.raises(ValueError):
        RationalMatrix.zero(2, 3) + RationalMatrix.zero(3, 2)
    with pytest.raises(ValueError):
        RationalMatrix.zero(2, 3).trace()
    with pytest.raises(ValueError):
        RationalMatrix(((Fraction(1),), (Fraction(1), Fraction(2))))


def test_from_columns_sparse():
    m = RationalMatrix.from_columns([{1: Fraction(2)}, {}], nrows=2)
    assert m.rows == ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)))


def test_block_diagonal():
    m = RationalMatrix.from_columns([{0: 1}, {1: 1}, {2: 1}], nrows=3)
    assert m.is_block_diagonal([1, 2])
    assert m.is_block_diagonal([3])
    off = RationalMatrix.unit(3, 0, 2)
    assert not off.is_block_diagonal([1, 2])
    assert off.is_block_diagonal([3])
    with pytest.raises(ValueError):
        m.is_block_diagonal([2, 2])
    for i, j, sizes, inside in [  # one entry at each side of a block boundary
        (0, 1, [1, 2], False), (1, 0, [1, 2], False), (1, 2, [1, 2], True),
        (1, 2, [2, 1], False), (2, 1, [2, 1], False), (1, 0, [2, 1], True),
    ]:
        assert RationalMatrix.unit(3, i, j).is_block_diagonal(sizes) is inside
    for sizes in [[-1, 3], [3, -1, 1], [2, -1, 2], [4, -1], [0, -3]]:  # negative sizes, some summing to 3
        with pytest.raises(ValueError, match="block sizes do not tile the matrix"):
            m.is_block_diagonal(sizes)
