"""Minimal exact rational matrices for module actions and traces."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class RationalMatrix:
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "RationalMatrix":
        return RationalMatrix.from_columns([{}] * ncols, nrows)

    @staticmethod
    def identity(size: int) -> "RationalMatrix":
        return RationalMatrix.from_columns([{j: 1} for j in range(size)], size)

    @staticmethod
    def unit(size: int, i: int, j: int) -> "RationalMatrix":
        """The elementary matrix with a single 1 in row i, column j; the zero matrix if (i, j) lies outside."""
        return RationalMatrix.from_columns([{i: 1} if s == j and 0 <= i < size else {} for s in range(size)], size)

    @staticmethod
    def from_columns(columns: Sequence[dict[int, Fraction]], nrows: int) -> "RationalMatrix":
        """Build from sparse columns mapping row index -> coefficient."""
        rows = [[Fraction(0)] * len(columns) for _ in range(nrows)]
        for j, col in enumerate(columns):
            for i, v in col.items():
                rows[i][j] = Fraction(v)
        return RationalMatrix(tuple(tuple(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return RationalMatrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        )

    def scale(self, scalar) -> "RationalMatrix":
        q = Fraction(scalar)
        return RationalMatrix(tuple(tuple(q * v for v in row) for row in self.rows))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows)) if other.rows else []
        return RationalMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace needs a square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def is_block_diagonal(self, block_sizes: Iterable[int]) -> bool:
        """True iff all entries outside the consecutive diagonal blocks vanish."""
        sizes = tuple(block_sizes)
        block = [b for b, s in enumerate(sizes) for _ in range(s)]  # the block index of each row
        if min(sizes, default=0) < 0 or len(block) != self.nrows or self.nrows != self.ncols:
            raise ValueError("block sizes do not tile the matrix")
        return all(
            v == 0
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
            if block[i] != block[j]
        )
