"""Exact rational matrices: rows, an integer form, and an exact inverse.

:class:`RationalMatrix` stores :class:`~fractions.Fraction` entries in
immutable row tuples.  It has no arithmetic operators: every product a
check needs runs on integer forms through :mod:`rootlink.kernels`.  Every
matrix has an *integer form* ``(d, N)`` with ``d > 0`` and ``self == N / d``
entrywise (one LCM of the denominators, computed once and kept), and its
row and column sums add those integers instead of fractions.
:meth:`RationalMatrix.inverse` hands ``N`` to ``kernels.inverse_scaled``
once per matrix and keeps the result, which keeps the integer form its
elimination produced.  The kernel is a fraction-free (Bareiss) LU
elimination of the rows below each pivot, then one back substitution per
column of the carried identity, which returns ``det`` and the adjugate
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import kernels
from .errors import SingularMatrixError

__all__ = ["Rational", "RationalMatrix", "to_fraction"]

Rational = Union[int, Fraction, str]


def to_fraction(value: Rational) -> Fraction:
    """Convert an int, Fraction or ``"p/q"`` string to an exact Fraction.

    Floats (and bools) are rejected: every quantity in this package is exact,
    and a float sneaking in would silently poison downstream comparisons.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {value!r}")


class RationalMatrix:
    """Immutable matrix of exact rationals."""

    __slots__ = ("_rows", "nrows", "ncols", "_int", "_inv")

    def __init__(self, rows: Iterable[Iterable[Rational]]):
        data = tuple(tuple(to_fraction(x) for x in row) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("rows must all have the same length")
        self._rows = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0
        self._int: Optional[tuple[int, tuple[tuple[int, ...], ...]]] = None
        self._inv: Optional[RationalMatrix] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def _of_fractions(
        cls,
        rows: Iterable[Iterable[Fraction]],
        integer_form: Optional[tuple[int, tuple[tuple[int, ...], ...]]] = None,
    ) -> "RationalMatrix":
        """Wrap rows of equal length whose entries are already Fractions."""
        out = cls.__new__(cls)
        out._rows = tuple(tuple(row) for row in rows)
        out.nrows = len(out._rows)
        out.ncols = len(out._rows[0]) if out._rows else 0
        out._int = integer_form
        out._inv = None
        return out

    @classmethod
    def from_integer_form(
        cls, denom: int, nums: Iterable[Iterable[int]]
    ) -> "RationalMatrix":
        """The matrix ``nums / denom`` for a positive ``denom``, keeping that form."""
        if denom <= 0:
            raise ValueError(f"denominator must be positive, got {denom}")
        ints = tuple(tuple(row) for row in nums)
        return cls._of_fractions(
            ((Fraction(x, denom) for x in row) for row in ints), (denom, ints)
        )

    # -- access ------------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, key):
        if isinstance(key, tuple):
            i, j = key
            return self._rows[i][j]
        return self._rows[key]

    def __iter__(self) -> Iterator[tuple[Fraction, ...]]:
        return iter(self._rows)

    def __len__(self) -> int:
        return self.nrows

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalMatrix):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self._rows
        )
        return f"RationalMatrix([{body}])"

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self._rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(d, N)`` with ``d > 0`` and ``self == N / d`` entrywise.

        An inverse carries the form its elimination produced; any other
        matrix computes the least common denominator once and keeps it.
        """
        if self._int is None:
            denom = 1
            for row in self._rows:
                for x in row:
                    denom = lcm(denom, x.denominator)
            self._int = (
                denom,
                tuple(
                    tuple(x.numerator * (denom // x.denominator) for x in row)
                    for row in self._rows
                ),
            )
        return self._int

    def row_sums(self) -> tuple[Fraction, ...]:
        denom, nums = self.integer_form()
        return tuple(Fraction(sum(row), denom) for row in nums)

    def col_sums(self) -> tuple[Fraction, ...]:
        denom, nums = self.integer_form()
        return tuple(Fraction(sum(col), denom) for col in zip(*nums))

    def total(self) -> Fraction:
        """Sum of all entries, added as integers over the common denominator."""
        denom, nums = self.integer_form()
        return Fraction(sum(map(sum, nums)), denom)

    def submatrix(
        self, row_idx: Sequence[int], col_idx: Sequence[int]
    ) -> "RationalMatrix":
        return RationalMatrix._of_fractions(
            [[self._rows[i][j] for j in col_idx] for i in row_idx]
        )

    # -- linear algebra --------------------------------------------------------

    def inverse(self) -> "RationalMatrix":
        """Exact inverse; raises :class:`SingularMatrixError` when det = 0.

        The inverse is computed on first call and kept, so every caller
        holding this matrix shares one elimination.
        """
        if self._inv is not None:
            return self._inv
        if self.nrows != self.ncols:
            raise ValueError(f"matrix is not square: {self.shape}")
        scale, ints = self.integer_form()
        result = kernels.inverse_scaled(ints)
        if result is None:
            raise SingularMatrixError(
                f"matrix of order {self.nrows} is singular"
            )
        det, adj = result
        factor = scale if det > 0 else -scale
        self._inv = RationalMatrix.from_integer_form(
            abs(det), ((factor * x for x in row) for row in adj)
        )
        return self._inv
