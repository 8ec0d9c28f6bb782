"""Exact inverse from the tree recursion, and its product certificate.

For every node ``a`` the rows of ``U[a, outside a]`` are equal, so by the
nullity theorem ``U^-1`` has rank at most one off every node's diagonal
block: the matrices are generalized ultrametric (Nabben & Varga, LAA 1995).
Everything here runs on the integer matrix ``U_int = L * U``, with ``L`` the
least common denominator of the annotation.

:func:`tree_pass` goes bottom-up once and keeps, per node ``u`` of the
restriction, ``det_u`` and the total ``M_u`` of the adjugate of ``U_int``
restricted to ``u``.  An off-spine node ``t`` with children ``a``, ``b``
restricts to ``[[U_a, alpha*J], [beta*J, U_b]]``, so

* ``det_t = det_a*det_b - alpha*beta*M_a*M_b``;
* the adjugate's row sums over ``a`` and ``b`` are those of the children
  times ``det_b - alpha*M_b`` and ``det_a - beta*M_a``, its column sums
  times ``det_b - beta*M_b`` and ``det_a - alpha*M_a``.

A spine node's lower block is ``w 1^T`` with ``w`` the last column of
``U_b``, so ``det_t = det_b*(det_a - alpha*M_a)``; the adjugate's column
sums vanish over ``a``, and its row sums over ``b`` change only at the
fixed leaf.  A vanishing factor (a leaf value, a spine ``det_a -
alpha*M_a`` or an off-spine ``det_t``) means a singular restriction and
raises :class:`~rootlink.errors.SingularMatrixError` naming the node.

:func:`tree_inverse` then writes ``adj(U_int)`` block by block.  Below the
spine, an entry whose row and column leaves meet at ``t`` (children ``x``,
``y``) is ``R_x[i] * C_y[j] * W(t, direction)``: the children's integer
adjugate row and column sums times one rational coefficient per block,
which sums ``t``'s own block with the rank-one corrections every ancestor
adds to its diagonal blocks (accumulated top-down).  The spine contributes
only the fixed leaf's row and column.  Every entry costs one or two integer
products and one exact division, so the inverse costs O(n^2) operations
where elimination costs O(n^3).

:func:`certify_inverse` checks a claimed inverse ``N / d`` by forming
``U_int @ N`` in O(n^2), straight from the block rule of
:func:`~rootlink.build.build_matrix` rather than from the recursion above:
subtree sums of the rows of ``N`` bottom-up, then ``alpha(t)`` times the
plus side's sum and ``beta(t)`` times the minus side's sum top-down, and
for the rows under the spine their anchor's ``beta`` times the running sum
of the spine's minus subtrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .build import TreeMatrix, common_denominator
from .errors import SingularMatrixError

__all__ = ["TreePass", "tree_pass", "tree_inverse", "certify_inverse"]


def _scaled(value: Fraction, scale: int) -> int:
    return value.numerator * (scale // value.denominator)


@dataclass(frozen=True)
class TreePass:
    """The bottom-up pass over ``U_int = scale * U`` below one node.

    ``det[u]`` is the determinant of ``U_int`` restricted to ``u`` and
    ``mass[u]`` the sum of that restriction's adjugate.  ``factors[t]``
    holds an internal node's integer factors ``(row_minus, row_plus,
    col_minus, col_plus)``: the adjugate's row and column sums over each
    child are the child's own times these (on the spine, ``row_plus``
    holds everywhere but at the fixed leaf).
    """

    scale: int
    det: dict[str, int]
    mass: dict[str, int]
    factors: dict[str, tuple[int, int, int, int]]

    def masses(self) -> dict[str, Fraction]:
        """Total inverse mass of the restriction of ``U`` at every node."""
        return {
            node: Fraction(self.scale * m, self.det[node])
            for node, m in self.mass.items()
        }


def tree_pass(tm: TreeMatrix, node: Optional[str] = None) -> TreePass:
    """Run the bottom-up pass over the subtree of ``node`` (default: root).

    Raises :class:`SingularMatrixError` naming the first node, in reverse
    preorder, whose factor vanishes: exactly when some restriction below
    ``node`` is singular.
    """
    tree, annotation = tm.tree, tm.annotation
    top = tree.root if node is None else node
    lo, hi = tree.leaf_span(top)
    start = tree.preorder.index(top)
    scale = common_denominator(tree, annotation)
    det: dict[str, int] = {}
    mass: dict[str, int] = {}
    factors: dict[str, tuple[int, int, int, int]] = {}
    # A subtree is a contiguous run of 2k - 1 nodes in preorder.
    for t in reversed(tree.preorder[start : start + 2 * (hi - lo) - 1]):
        kids = tree.children(t)
        alpha = _scaled(annotation.alpha(t), scale)
        if not kids:
            if not alpha:
                raise SingularMatrixError(f"leaf value vanishes at node {t!r}")
            det[t] = alpha
            mass[t] = 1
            continue
        a, b = kids
        det_a, det_b, m_a, m_b = det[a], det[b], mass[a], mass[b]
        if tree.on_spine(t):
            spine_factor = det_a - alpha * m_a
            if not spine_factor:
                raise SingularMatrixError(
                    f"spine denominator vanishes at node {t!r}"
                )
            factors[t] = (det_b - alpha * m_b, spine_factor, 0, spine_factor)
            det[t] = det_b * spine_factor
            mass[t] = m_b * spine_factor
            continue
        beta = _scaled(annotation.beta(t), scale)
        det_t = det_a * det_b - alpha * beta * m_a * m_b
        if not det_t:
            raise SingularMatrixError(
                f"off-spine denominator vanishes at node {t!r}"
            )
        row_a, row_b = det_b - alpha * m_b, det_a - beta * m_a
        factors[t] = (row_a, row_b, det_b - beta * m_b, det_a - alpha * m_a)
        det[t] = det_t
        mass[t] = m_a * row_a + m_b * row_b
    return TreePass(scale, det, mass, factors)


def _fill(
    nums: list[list[int]],
    rows: range,
    cols: slice,
    row_sums: list[int],
    col_sums: list[int],
    coefficient: Fraction,
) -> None:
    """Write the block ``row_sums[i] * col_sums[j] * coefficient`` (integers)."""
    p, q = coefficient.numerator, coefficient.denominator
    if not p:
        return
    for i, r in zip(rows, row_sums):
        u = r * p
        if q == 1:
            nums[i][cols] = [u * c for c in col_sums]
        else:
            nums[i][cols] = [u * c // q for c in col_sums]


def tree_inverse(tm: TreeMatrix) -> tuple[int, list[list[int]]]:
    """The inverse of ``tm.matrix`` as an integer form ``(d, N)``, ``U^-1 = N / d``.

    ``d = |det U_int|`` and ``N = sign(det) * L * adj(U_int)``: the form
    :meth:`~rootlink.matrix.RationalMatrix.inverse` keeps, computed from the
    tree in O(n^2) operations.  Raises :class:`SingularMatrixError` naming
    the node when the matrix is singular.  The result is unchecked; see
    :func:`certify_inverse`.
    """
    tree, annotation = tm.tree, tm.annotation
    tp = tree_pass(tm)
    scale, det, mass, factors = tp.scale, tp.det, tp.mass, tp.factors
    det_top = det[tree.root]
    # adj(U_int) is linear in det(U_int), so N = sign * L * adj(U_int) comes
    # from its formulas with ``top`` = sign * L * det(U_int) in det's place.
    top = scale * abs(det_top)

    # Top-down: corrections[u] is the coefficient of R_u C_u^T that u's
    # strict ancestors add to u's diagonal block of N: each ancestor's
    # rank-one correction, seen through the factors between them.  A spine
    # node corrects its minus child's block and the fixed leaf's diagonal
    # entry, which is written last.
    corrections: dict[str, Fraction] = {}
    for t in tree.internal_nodes():
        a, b = tree.children(t)
        alpha = _scaled(annotation.alpha(t), scale)
        if tree.on_spine(t):
            corrections[a] = Fraction(top * alpha, det[a] * factors[t][1])
            continue
        beta = _scaled(annotation.beta(t), scale)
        row_a, row_b, col_a, col_b = factors[t]
        e = corrections[t]
        coupling = top * alpha * beta
        corrections[a] = Fraction(coupling * mass[b], det[t] * det[a]) + row_a * col_a * e
        corrections[b] = Fraction(coupling * mass[a], det[t] * det[b]) + row_b * col_b * e

    n = len(tree.leaf_order)
    last = n - 1
    nums = [[0] * n for _ in range(n)]
    # Bottom-up: the adjugate row and column sums of every off-spine node,
    # each dropped once its parent has written its blocks.
    row_sums: dict[str, list[int]] = {}
    col_sums: dict[str, list[int]] = {}
    fixed_col = 1  # C_b at the fixed leaf, for the spine node b reached so far
    fixed_diagonal = Fraction(1)
    for t in reversed(tree.preorder):
        kids = tree.children(t)
        if not kids:
            if t != tree.fixed_leaf:
                i = tree.leaf_index(t)
                diagonal = Fraction(top, _scaled(annotation.alpha(t), scale))
                # Integral, as every entry of N is (the certificate checks).
                nums[i][i] = (diagonal + corrections[t]).numerator
                row_sums[t] = col_sums[t] = [1]
            continue
        a, b = kids
        lo, mid = tree.leaf_span(a)
        hi = tree.leaf_span(b)[1]
        alpha = _scaled(annotation.alpha(t), scale)
        r_a, c_a = row_sums.pop(a), col_sums.pop(a)
        if tree.on_spine(t):
            spine_factor = factors[t][1]
            # Only the fixed leaf's column and row cross a spine node.
            _fill(nums, range(lo, mid), slice(last, n), r_a, [fixed_col],
                  Fraction(-alpha * top, det[t]))
            _fill(nums, range(last, n), slice(lo, mid), [1], c_a,
                  Fraction(-top, spine_factor))
            fixed_diagonal += Fraction(alpha * mass[a], spine_factor)
            fixed_col *= spine_factor
            continue
        beta = _scaled(annotation.beta(t), scale)
        row_a, row_b, col_a, col_b = factors[t]
        r_b, c_b = row_sums.pop(b), col_sums.pop(b)
        e = corrections[t]
        _fill(nums, range(lo, mid), slice(mid, hi), r_a, c_b,
              Fraction(-alpha * top, det[t]) + row_a * col_b * e)
        _fill(nums, range(mid, hi), slice(lo, mid), r_b, c_a,
              Fraction(-beta * top, det[t]) + row_b * col_a * e)
        row_sums[t] = [x * row_a for x in r_a] + [x * row_b for x in r_b]
        col_sums[t] = [x * col_a for x in c_a] + [x * col_b for x in c_b]
    fixed = fixed_diagonal * top / _scaled(annotation.alpha(tree.fixed_leaf), scale)
    nums[last][last] = fixed.numerator
    return abs(det_top), nums


def certify_inverse(
    tm: TreeMatrix, denom: int, nums: list[list[int]]
) -> Optional[str]:
    """Check ``U @ (nums / denom) == I`` exactly; ``None`` when it holds.

    Forms ``U_int @ N`` in O(n^2) from the block rule of
    :func:`~rootlink.build.build_matrix` (see the module docstring) and
    compares it with ``L * denom * I``.  Otherwise returns a message naming
    the first wrong entry of the product, in row-major order.
    """
    if denom <= 0:
        return f"denominator {denom} is not positive"
    tree, annotation = tm.tree, tm.annotation
    leaves = tree.leaf_order
    n = len(leaves)
    if len(nums) != n or any(len(row) != n for row in nums):
        return f"claimed inverse is not {n}x{n}"
    scale = common_denominator(tree, annotation)

    # sums[u][j]: the sum of column j of N over the leaves below u.
    sums: dict[str, list[int]] = {}
    for t in reversed(tree.preorder):
        kids = tree.children(t)
        if kids:
            sums[t] = [x + y for x, y in zip(sums[kids[0]], sums[kids[1]])]
        else:
            sums[t] = nums[tree.leaf_index(t)]
    # above[u]: what the cross blocks of u's strict ancestors add to the
    # product's rows below u.  Spine rows add their anchor's beta times the
    # minus subtrees of the spine nodes above that anchor.
    above: dict[str, list[int]] = {tree.root: [0] * n}
    spine_minus = [0] * n
    target = scale * denom
    for t in tree.preorder:
        kids = tree.children(t)
        inherited = above.pop(t)
        if not kids:
            i = tree.leaf_index(t)
            v = _scaled(annotation.alpha(t), scale)
            if t == tree.fixed_leaf:
                inherited = [x + v * y for x, y in zip(inherited, spine_minus)]
            row = [v * x + y for x, y in zip(nums[i], inherited)]
            for j, x in enumerate(row):
                if x != (target if i == j else 0):
                    expected = "L * d" if i == j else "0"
                    return f"(U @ N)[{leaves[i]}][{leaves[j]}] != {expected}"
            continue
        a, b = kids
        alpha = _scaled(annotation.alpha(t), scale)
        s_a, s_b = sums.pop(a), sums.pop(b)
        if tree.on_spine(t):
            anchor = _scaled(annotation.beta(t), scale)
            above[a] = [
                x + alpha * y + anchor * z
                for x, y, z in zip(inherited, s_b, spine_minus)
            ]
            above[b] = inherited
            spine_minus = [x + y for x, y in zip(spine_minus, s_a)]
        else:
            beta = _scaled(annotation.beta(t), scale)
            above[a] = [x + alpha * y for x, y in zip(inherited, s_b)]
            above[b] = [x + beta * y for x, y in zip(inherited, s_a)]
    return None
