"""Integer kernels: fraction-free inversion and matrix multiplication.

Both operate on lists of lists of Python ints.  :func:`inverse_scaled` is
the independent judge of every structural claim, the report's tree inverse
included (in the self-test and the test suite), so it uses no tree
structure: it is a Bareiss elimination (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 1968) in
two passes.

*Forward elimination* runs on ``[PA | I]`` and updates only the rows below
each pivot.  After step ``k`` every entry of the working matrix is a minor
of ``PA``, so the running division by the previous pivot is exact.  The
carried identity stays lower-triangular in pivot order, so each row keeps
it in place: row ``i`` holds its carried columns ``0..i-1`` where its
eliminated entries would be zero, and its carried diagonal is the pivot
before step ``i``.  A row swap therefore exchanges whole rows and records
the permutation ``P``.  This is about ``n^3/2`` multiply-and-divide updates.

*Back substitution* solves ``U x = det * y`` for each carried column ``y``,
where ``U`` is the eliminated upper triangle with pivots ``p_i`` on its
diagonal and ``det = p_{n-1} = det(PA)``::

    p_i * x_i = det * y_i - sum_{j > i} u_ij * x_j

Every ``x_i`` is an entry of ``det * A^-1``, an integer by Cramer's rule,
so each division is exact; the sum is one C-level ``sum(map(mul, ...))``,
which leaves ``n^2`` divisions instead of the ``n^3`` of a Gauss-Jordan
sweep.  Undoing the permutation and its sign gives ``(det A, adj A)``.
"""

from __future__ import annotations

from operator import mul
from typing import Optional

__all__ = ["inverse_scaled", "matmul_int"]


def inverse_scaled(a: list[list[int]]) -> Optional[tuple[int, list[list[int]]]]:
    """Invert an integer matrix, returning ``(det, adj)`` with ``adj = det * a^-1``.

    ``a`` is not modified.  Returns ``None`` when ``a`` is singular.
    """
    n = len(a)
    if n == 0:
        return 1, []
    rows = [list(row) for row in a]
    perm = list(range(n))
    diagonal = []  # the carried diagonal: diagonal[i] is the pivot before step i
    sign = 1
    prev = 1
    for k in range(n):
        piv = k
        while not rows[piv][k]:
            piv += 1
            if piv == n:
                return None
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            perm[k], perm[piv] = perm[piv], perm[k]
            sign = -sign
        top = rows[k]
        pk = top[k]
        for i in range(k + 1, n):
            row = rows[i]
            lik = row[k]
            new = [(pk * x - lik * y) // prev for x, y in zip(row, top)]
            # column k turns carried: row i holds 0 there and the pivot row prev
            new[k] = -lik
            rows[i] = new
        diagonal.append(prev)
        prev = pk
    # Back substitution is linear in its right-hand side, so solving for
    # sign * det yields adj(A) = sign * det(PA) * A^-1 directly.  Rows run
    # from n-1 down, with u_ij listed for j = n-1 down to i+1 to match xs.
    det = sign * prev
    steps = [
        (rows[i][:i] + [diagonal[i]] + [0] * (n - 1 - i), rows[i][:i:-1], rows[i][i])
        for i in range(n - 1, -1, -1)
    ]
    cols: list[list[int]] = [[]] * n
    for c, col in enumerate(perm):
        xs: list[int] = []
        for y, u, p in steps:
            xs.append((det * y[c] - sum(map(mul, u, xs))) // p)
        cols[col] = xs
    adj = [list(row) for row in zip(*cols)]
    adj.reverse()
    return det, adj


def matmul_int(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Product of integer matrices (``len(a[0]) == len(b)``)."""
    n = len(a)
    if n == 0:
        return []
    m = len(b[0]) if b else 0
    bt = [[row[j] for row in b] for j in range(m)]
    return [
        [sum(x * y for x, y in zip(row, col)) for col in bt]
        for row in a
    ]
