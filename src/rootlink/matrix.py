"""Exact rational matrices backed by integer kernels.

:class:`RationalMatrix` stores :class:`~fractions.Fraction` entries in
immutable row tuples.  Inversion and multiplication clear denominators with
one LCM per matrix and run on the integer kernels, so results are exact and
the hot loops stay in :mod:`rootlink.kernels`.  :meth:`RationalMatrix.inverse`
calls ``kernels.inverse_scaled`` once per matrix and keeps the result
(:meth:`RationalMatrix.with_inverse` makes a copy that keeps an inverse
certified by other means instead).  The
kernel is a fraction-free (Bareiss) LU elimination of the rows below each
pivot, then one back substitution per column of the carried identity,
which returns ``det`` and the adjugate exactly.  Every matrix also has an
*integer form* ``(d, N)`` with ``d > 0`` and ``self == N / d`` entrywise;
an inverse keeps the one its elimination produced, and row and column
sums add its integers instead of fractions.
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

    def with_inverse(self, inverse: "RationalMatrix") -> "RationalMatrix":
        """This matrix again, keeping ``inverse`` as its inverse.

        For an inverse established without elimination and checked by the
        caller, as :func:`~rootlink.report.build_report` checks its tree
        inverse.  The copy shares this matrix's rows and integer form, and
        its :meth:`inverse` returns ``inverse`` without running the kernel.
        """
        out = RationalMatrix._of_fractions(self._rows, self._int)
        out._inv = inverse
        return out

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def outer(
        cls, u: Sequence[Rational], v: Sequence[Rational]
    ) -> "RationalMatrix":
        """Column times row: ``out[i][j] = u[i] * v[j]``."""
        uf = [to_fraction(x) for x in u]
        vf = [to_fraction(x) for x in v]
        return cls._of_fractions([[x * y for y in vf] for x in uf])

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

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self._rows)

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self._rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(d, N)`` with ``d > 0`` and ``self == N / d`` entrywise.

        An inverse carries the form its elimination produced; any other
        matrix computes the least common denominator once and keeps it.
        """
        if self._int is None:
            denom, ints = self._scaled_int()
            self._int = (denom, tuple(map(tuple, ints)))
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

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._of_fractions(zip(*self._rows))

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, other: "RationalMatrix", op) -> "RationalMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return RationalMatrix._of_fractions(
            [
                [op(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._binary(other, lambda a, b: a - b)

    def scale(self, c: Rational) -> "RationalMatrix":
        cf = to_fraction(c)
        return RationalMatrix._of_fractions(
            [[cf * x for x in row] for row in self._rows]
        )

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def _scaled_int(self) -> tuple[int, list[list[int]]]:
        """(L, M) with ``M = L * self`` integral and L the denominator LCM."""
        denom = 1
        for row in self._rows:
            for x in row:
                denom = lcm(denom, x.denominator)
        ints = [
            [int(x.numerator * (denom // x.denominator)) for x in row]
            for row in self._rows
        ]
        return denom, ints

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        la, ma = self._scaled_int()
        lb, mb = other._scaled_int()
        prod = kernels.matmul_int(ma, mb)
        scale = la * lb
        return RationalMatrix._of_fractions(
            [[Fraction(x, scale) for x in row] for row in prod]
        )

    def matvec(self, v: Sequence[Rational]) -> tuple[Fraction, ...]:
        vf = [to_fraction(x) for x in v]
        if len(vf) != self.ncols:
            raise ValueError(f"shape mismatch: {self.shape} @ vector[{len(vf)}]")
        return tuple(
            sum((a * b for a, b in zip(row, vf)), Fraction(0))
            for row in self._rows
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
        scale, ints = self._scaled_int()
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

    def det(self) -> Fraction:
        """Exact determinant."""
        if self.nrows != self.ncols:
            raise ValueError(f"matrix is not square: {self.shape}")
        if self.nrows == 0:
            return Fraction(1)
        scale, ints = self._scaled_int()
        result = kernels.inverse_scaled(ints)
        if result is None:
            return Fraction(0)
        det, _ = result
        return Fraction(det, scale**self.nrows)
