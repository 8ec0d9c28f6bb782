"""Exact rational matrices and the integer elimination kernels."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rootlink import RationalMatrix, build_matrix, kernels, random_instance, to_fraction
from rootlink.errors import SingularMatrixError

from conftest import caterpillar, is_inverse_pair

# The kernels are pure Python; "python" names them in the test ids.
KERNELS = pytest.mark.parametrize("kernel", [kernels], ids=["python"])


def gauss_jordan_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Plain Fraction Gauss-Jordan with partial pivoting, as a second opinion."""
    n = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Fraction elimination with partial pivoting."""
    work = [list(row) for row in rows]
    det = Fraction(1)
    for col in range(len(work)):
        piv = next((r for r in range(col, len(work)) if work[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, len(work)):
            factor = work[r][col] / work[col][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det


def random_rational_matrix(rng: random.Random, n: int) -> RationalMatrix:
    return RationalMatrix(
        [
            [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
            for _ in range(n)
        ]
    )


@pytest.mark.parametrize("value,expected", [
    (3, Fraction(3)),
    ("5/2", Fraction(5, 2)),
    ("-7", Fraction(-7)),
    (Fraction(1, 3), Fraction(1, 3)),
])
def test_to_fraction(value, expected):
    assert to_fraction(value) == expected


def test_to_fraction_rejects_float():
    with pytest.raises(TypeError):
        to_fraction(0.5)


def test_basic_ops():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m[1, 0] == 3
    assert m.rows[0] == (Fraction(1), Fraction(2))
    assert m.diagonal() == (1, 4)
    assert m.row_sums() == (3, 7)
    assert m.col_sums() == (4, 6)


def test_submatrix():
    sub = RationalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).submatrix([0, 2], [1, 2])
    assert sub.rows == ((2, 3), (8, 9))


def test_inverse_known():
    m = RationalMatrix([[2, 1], [3, 3]])
    assert m.inverse() == RationalMatrix([[1, Fraction(-1, 3)], [-1, Fraction(2, 3)]])


def test_inverse_is_computed_once(monkeypatch):
    calls = []
    real = kernels.inverse_scaled
    monkeypatch.setattr(
        kernels, "inverse_scaled", lambda a: calls.append(len(a)) or real(a)
    )
    m = RationalMatrix([[2, 1], [3, 3]])
    assert m.inverse() is m.inverse()
    assert calls == [2]


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        RationalMatrix([[2, 2], [2, 2]]).inverse()
    with pytest.raises(SingularMatrixError):
        RationalMatrix([[1, 2, 3], [4, 5, 6], [5, 7, 9]]).inverse()


@pytest.mark.parametrize("seed", range(12))
def test_inverse_matches_gauss_jordan(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    m = random_rational_matrix(rng, n)
    expected = gauss_jordan_inverse([list(row) for row in m.rows])
    if expected is None:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    inv = m.inverse()
    assert inv == RationalMatrix(expected)
    assert is_inverse_pair(m, inv)


def test_det_matches_cofactor_expansion():
    def cofactor_det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
        return total

    rng = random.Random(99)
    for _ in range(6):
        n = rng.randint(1, 5)
        m = random_rational_matrix(rng, n)
        scale, ints = m.integer_form()
        result = kernels.inverse_scaled(ints)
        det = 0 if result is None else Fraction(result[0], scale**n)
        assert det == cofactor_det([list(row) for row in m.rows])


@KERNELS
@pytest.mark.parametrize("seed", range(8))
def test_kernel_inverse_scaled(kernel, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    result = kernel.inverse_scaled([row[:] for row in a])
    expected = gauss_jordan_inverse([[Fraction(x) for x in row] for row in a])
    if expected is None:
        assert result is None
        return
    det, adj = result
    assert det != 0
    assert [[Fraction(x, det) for x in row] for row in adj] == expected


@KERNELS
def test_kernel_matmul_int(kernel):
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    assert kernel.matmul_int(a, b) == [[19, 22], [43, 50]]
    assert kernel.matmul_int([], []) == []


def _check_against_gauss_jordan(a: list[list[int]]) -> None:
    copy = [row[:] for row in a]
    result = kernels.inverse_scaled(a)
    assert a == copy  # the input is not modified
    fractions = [[Fraction(x) for x in row] for row in a]
    expected = gauss_jordan_inverse(fractions)
    if expected is None:
        assert result is None
        return
    det, adj = result
    assert det == fraction_det(fractions)
    assert [[Fraction(x, det) for x in row] for row in adj] == expected


def _zero_leading_minor(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """A matrix whose leading (k+1)-minor vanishes: step k must swap rows."""
    a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    c = [rng.randint(-2, 2) for _ in range(k)]
    a[k][: k + 1] = [sum(ci * a[i][j] for i, ci in enumerate(c)) for j in range(k + 1)]
    return a


@pytest.mark.parametrize("n", range(13))
def test_kernel_matches_gauss_jordan_with_late_pivots(n):
    rng = random.Random(7000 + n)
    for _ in range(6):
        _check_against_gauss_jordan([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    for k in range(1, n - 1):
        a = _zero_leading_minor(rng, n, k)
        leading = [[Fraction(x) for x in row[: k + 1]] for row in a[: k + 1]]
        assert gauss_jordan_inverse(leading) is None  # no pivot in place at step k
        _check_against_gauss_jordan(a)
    if n >= 2:
        # singular, but only the last pivot shows it
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        while fraction_det([[Fraction(x) for x in row[:-1]] for row in a[:-1]]) == 0:
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        c = [rng.randint(-3, 3) for _ in range(n - 1)]
        a[-1] = [sum(ci * a[i][j] for i, ci in enumerate(c)) for j in range(n)]
        assert kernels.inverse_scaled(a) is None
        _check_against_gauss_jordan(a)
        # a row swap flips the sign of the determinant
        b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        result = kernels.inverse_scaled(b)
        if result is not None:
            b[0], b[1] = b[1], b[0]
            assert kernels.inverse_scaled(b)[0] == -result[0]
            _check_against_gauss_jordan(b)


def _assert_adjugate(ints: list[list[int]]) -> None:
    det, adj = kernels.inverse_scaled(ints)
    n = len(ints)
    assert det != 0
    assert kernels.matmul_int(ints, adj) == [
        [det if i == j else 0 for j in range(n)] for i in range(n)
    ]


@pytest.mark.parametrize("leaves", [32, 56, 80])
def test_kernel_adjugate_on_strict_instances(leaves):
    tm = build_matrix(*random_instance(leaves, leaves, "strict", min_leaves=leaves))
    _, ints = tm.matrix.integer_form()
    _assert_adjugate([list(row) for row in ints])


@pytest.mark.parametrize("leaves", [21, 41, 61])
def test_kernel_adjugate_on_caterpillars(leaves):
    _, ints = caterpillar(leaves, leaves).matrix.integer_form()
    _assert_adjugate([list(row) for row in ints])


def test_zero_multiplier_rows_not_skipped():
    # A pivot column with zeros elsewhere must still recombine every row:
    # the Bareiss sweep divides by the previous pivot unconditionally.
    m = RationalMatrix([[2, 0, 1], [0, 3, 0], [1, 0, 2]])
    assert is_inverse_pair(m, m.inverse())


def test_empty_matrix_kernel():
    assert kernels.inverse_scaled([]) == (1, [])


def _plain_sums(m: RationalMatrix) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    rows = tuple(sum(row, Fraction(0)) for row in m.rows)
    cols = tuple(sum(col, Fraction(0)) for col in zip(*m.rows))
    return rows, cols


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [1, 0]],  # negative determinant
        # the first pivot needs a row swap; fractional entries set the scale
        [[0, Fraction(1, 2), 2], [3, 1, Fraction(-1, 3)], [1, 0, 4]],
        [[2, 1], [3, 3]],
    ],
)
def test_inverse_integer_form_sums(rows):
    inv = RationalMatrix(rows).inverse()
    denom, nums = inv.integer_form()
    assert denom > 0
    assert [[Fraction(x, denom) for x in row] for row in nums] == [
        list(row) for row in inv.rows
    ]
    assert (inv.row_sums(), inv.col_sums()) == _plain_sums(inv)
    assert inv.total() == sum(inv.row_sums(), Fraction(0))


@pytest.mark.parametrize("seed", range(6))
def test_integer_form_sums_on_any_matrix(seed):
    rng = random.Random(seed)
    m = random_rational_matrix(rng, rng.randint(1, 6))
    denom, nums = m.integer_form()
    assert denom > 0 and len(nums) == m.nrows
    assert (m.row_sums(), m.col_sums()) == _plain_sums(m)
    assert m.total() == sum(m.row_sums(), Fraction(0))
    assert m.integer_form() is m.integer_form()  # computed once


def test_from_integer_form():
    m = RationalMatrix.from_integer_form(6, [[3, -4], [0, 12]])
    assert m == RationalMatrix([[Fraction(1, 2), Fraction(-2, 3)], [0, 2]])
    assert m.integer_form() == (6, ((3, -4), (0, 12)))
    with pytest.raises(ValueError):
        RationalMatrix.from_integer_form(-1, [[1]])
