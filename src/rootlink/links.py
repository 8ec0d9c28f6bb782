"""Structural prediction of negative inverse entries ("links").

For leaves ``i != j`` meeting at node ``L``, whether the inverse entry
``(U^-1)_ij`` is strictly negative is decided combinatorially:

* ``L`` on the spine: the upper entry links exactly when the row leaf is a
  structural root of the minus side, the column leaf is the fixed leaf, and
  the meeting value is positive; the lower entry links exactly when the row
  leaf is the fixed leaf and the column leaf is a transpose root of the
  minus side.
* ``L`` off the spine: the row leaf must be a structural root of its side's
  restriction and the column leaf a transpose root of the other side's
  restriction; then the entry value ``U_ij`` is filtered against every
  ancestor of ``L`` strictly below the spine anchor (ties survive only when
  the ancestor's beta value is not attained by a leaf on the opposite
  side), and finally must strictly exceed the spine anchor's alpha.

The side roots are the per-node sets ``roots`` and ``roots_t`` of
:class:`~rootlink.roots.StructureSets`, computed once per tree, so no
verdict reads an inverse.  Every verdict carries a trace naming the rule
that decided it.  Apart from side-root membership, a verdict depends only
on the meet and the direction, so :func:`link_matrix` decides whole
(meet, direction) blocks at once, compares them with the negative entries
of the exact inverse its caller passes in, and traces only the pairs that
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .build import Annotation, TreeMatrix, require_valid
from .matrix import RationalMatrix
from .roots import StructureSets
# Unused here; perfbench/test_perfbench.py checks that its tracer rebinds
# ``links.roots_structural`` and fails without this import.
from .roots import roots_structural  # noqa: F401
from .tree import DyadicTree, TreeEdge

__all__ = [
    "LinkTrace",
    "link_structural",
    "LinkReport",
    "link_matrix",
    "BlockPattern",
    "zero_pattern",
]


@dataclass(frozen=True)
class LinkTrace:
    """Structural verdict for one ordered leaf pair, with its derivation."""

    row: str
    col: str
    meet: str  # lowest common ancestor of the pair
    anchor: str  # deepest spine ancestor of the meet
    entry: Fraction  # the matrix entry at (row, col)
    rule: str  # the clause that decided the verdict
    linked: bool
    steps: tuple[str, ...]


def _climb(
    tm: TreeMatrix,
    sets: StructureSets,
    meet: str,
    anchor: str,
    entry: Fraction,
    steps: list[str],
) -> tuple[str, bool]:
    """Rules (ii.b) and (ii.c) for an off-spine meet whose side roots hold.

    Climbs the ancestors strictly between ``meet`` and its spine anchor,
    then compares ``entry`` with the anchor's alpha.  Returns the deciding
    rule and the verdict, and appends each step taken to ``steps``.
    """
    tree = tm.tree
    prev = meet
    node = tree.parent(meet)
    while node != anchor:
        alpha = tm.alpha(node)
        if entry > alpha:
            prev, node = node, tree.parent(node)
            continue
        if entry < alpha:  # impossible for valid annotations; defensive
            steps.append(f"entry {entry} below alpha({node}) = {alpha}")
            return "(ii.b)", False
        node_minus, node_plus = tree.children(node)
        if prev == node_minus:
            blocked = TreeEdge(node, node_minus) in sets.gamma_t
            side = "minus"
        else:
            blocked = TreeEdge(node, node_plus) in sets.gamma
            side = "plus"
        if blocked:
            steps.append(
                f"tie at {node} ({side} side): beta attained on the opposite side"
            )
            return "(ii.b)", False
        steps.append(f"tie at {node} ({side} side) survives")
        prev, node = node, tree.parent(node)

    threshold = tm.alpha(anchor)
    ok = entry > threshold
    steps.append(
        f"entry {entry} {'>' if ok else '<='} alpha({anchor}) = {threshold}"
    )
    return "(ii.c)", ok


def link_structural(
    tm: TreeMatrix,
    sets: StructureSets,
    row: str,
    col: str,
) -> LinkTrace:
    """Predict whether the inverse entry at (row, col) is negative.

    ``row`` and ``col`` are distinct leaf ids.  Only used on nonsingular
    matrices; the off-spine branch never needs the fixed-leaf exit test
    because side restrictions of an off-spine meet are off the spine
    themselves.  Side-root membership is read from ``sets.roots`` and
    ``sets.roots_t``.
    """
    tree = tm.tree
    if row == col:
        raise ValueError("links are defined for distinct leaves only")
    meet = tree.lca(row, col)
    anchor = tree.spine_anchor(meet)
    minus, plus = tree.children(meet)
    roots, roots_t = sets.roots, sets.roots_t
    upper = tree.leaf_index(row) < tree.leaf_index(col)
    entry = tm.matrix[tree.leaf_index(row), tree.leaf_index(col)]
    steps: list[str] = []

    def done(rule: str, linked: bool) -> LinkTrace:
        return LinkTrace(
            row, col, meet, anchor, entry, rule, linked, tuple(steps)
        )

    if tree.on_spine(meet):
        if upper:
            alpha = tm.alpha(meet)
            if alpha == 0:
                steps.append(f"meet value alpha({meet}) = 0")
                return done("(i.a)", False)
            if col != tree.fixed_leaf:
                steps.append(f"column {col} is not the fixed leaf")
                return done("(i.a)", False)
            ok = row in roots[minus]
            steps.append(
                f"row {row} {'is' if ok else 'is not'} a root of side {minus}"
            )
            return done("(i.a)", ok)
        if row != tree.fixed_leaf:
            steps.append(f"row {row} is not the fixed leaf")
            return done("(i.b)", False)
        ok = col in roots_t[minus]
        steps.append(
            f"column {col} {'is' if ok else 'is not'} a transpose root of side {minus}"
        )
        return done("(i.b)", ok)

    row_side, col_side = (minus, plus) if upper else (plus, minus)
    if row not in roots[row_side]:
        steps.append(f"row {row} is not a root of side {row_side}")
        return done("(ii.a)", False)
    if col not in roots_t[col_side]:
        steps.append(f"column {col} is not a transpose root of side {col_side}")
        return done("(ii.a)", False)
    steps.append(f"(ii.a) holds at {meet}")
    return done(*_climb(tm, sets, meet, anchor, entry, steps))


@dataclass(frozen=True)
class LinkReport:
    """All-pairs structural verdicts with oracle cross-check."""

    links: frozenset[tuple[str, str]]
    oracle_links: frozenset[tuple[str, str]]
    mismatches: tuple[LinkTrace, ...]  # in row-major leaf order

    @property
    def agrees(self) -> bool:
        return not self.mismatches


def _linked_block(
    tm: TreeMatrix, sets: StructureSets, meet: str, upper: bool
) -> tuple[frozenset[str], frozenset[str]]:
    """Rows and columns linked at ``meet`` in one direction.

    Every pair meeting at ``meet`` with the row on the minus side (``upper``)
    or on the plus side gets the same verdict from :func:`link_structural`
    except for side-root membership, so the linked pairs of the block are
    exactly ``rows x cols``.
    """
    tree = tm.tree
    roots, roots_t = sets.roots, sets.roots_t
    minus, plus = tree.children(meet)
    none: frozenset[str] = frozenset()
    if tree.on_spine(meet):
        fixed = frozenset((tree.fixed_leaf,))
        if not upper:
            return fixed, roots_t[minus]
        if tm.alpha(meet) == 0:
            return none, none
        return roots[minus], fixed
    row_side, col_side = (minus, plus) if upper else (plus, minus)
    rows, cols = roots[row_side], roots_t[col_side]
    if not (rows and cols):
        return none, none
    entry = tm.alpha(meet) if upper else tm.beta(meet)
    _, ok = _climb(tm, sets, meet, tree.spine_anchor(meet), entry, [])
    return (rows, cols) if ok else (none, none)


def link_matrix(
    tm: TreeMatrix, sets: StructureSets, minv: RationalMatrix
) -> LinkReport:
    """Evaluate every ordered leaf pair structurally and against ``minv``.

    Off the spine, a pair's verdict depends only on its meet, its direction
    and side-root membership, so the verdicts come per (meet, direction)
    block: the side roots are read from ``sets``, and each block needs one
    climb.  The linked pairs are compared with the negative entries of
    ``minv``, the exact inverse of ``tm.matrix``; :func:`link_structural`
    runs only on the pairs that disagree.
    """
    tree = tm.tree
    leaves = tm.leaves
    _, nums = minv.integer_form()
    links = []
    oracle_links = []
    bad = []
    for meet in tree.internal_nodes():
        lo, mid = tree.leaf_span(tree.minus(meet))
        hi = tree.leaf_span(tree.plus(meet))[1]
        for upper, row_span, col_span in (
            (True, range(lo, mid), range(mid, hi)),
            (False, range(mid, hi), range(lo, mid)),
        ):
            rows, cols = _linked_block(tm, sets, meet, upper)
            for i in row_span:
                row = leaves[i]
                row_linked = row in rows
                entries = nums[i]
                for j in col_span:
                    linked = row_linked and leaves[j] in cols
                    truth = entries[j] < 0
                    if linked:
                        links.append((row, leaves[j]))
                    if truth:
                        oracle_links.append((row, leaves[j]))
                    if linked != truth:
                        bad.append((i, j))
    mismatches = tuple(
        link_structural(tm, sets, leaves[i], leaves[j])
        for i, j in sorted(bad)
    )
    return LinkReport(frozenset(links), frozenset(oracle_links), mismatches)


@dataclass(frozen=True)
class BlockPattern:
    """Predicted coarse structure of the inverse in leaf-block coordinates.

    Blocks are the minus-side leaf groups of successive spine nodes plus the
    final singleton holding the fixed leaf.  Off-diagonal block pairs not
    involving the last block are always zero in the inverse; diagonal blocks
    other than the first and last are lower triangular.  Under strictness
    hypotheses (beta strictly increasing into off-spine children, alpha
    strictly increasing into the root's minus child), the first diagonal
    block, the last block row, and the strict lower parts of the middle
    diagonal blocks are fully nonzero.  Last-column entries are nonzero per
    block only when the block's spine node has positive alpha; blocks whose
    spine alpha is zero contribute exact zeros there, so those positions are
    excluded from the nonzero prediction rather than guarded by a hypothesis.
    """

    blocks: tuple[tuple[str, ...], ...]
    predicted_zero_pairs: frozenset[tuple[int, int]]  # 0-based block pairs
    triangular_blocks: tuple[int, ...]  # 0-based middle diagonal blocks
    hypotheses_hold: bool
    hypothesis_failures: tuple[str, ...]
    predicted_zero_positions: frozenset[tuple[int, int]]  # leaf positions
    triangular_zero_positions: frozenset[tuple[int, int]]
    predicted_nonzero_positions: frozenset[tuple[int, int]]

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def zero_pattern(tree: DyadicTree, annotation: Annotation) -> BlockPattern:
    """Derive the block zero/nonzero pattern of the inverse from the tree."""
    require_valid(tree, annotation)

    blocks: list[tuple[str, ...]] = []
    for node in tree.spine()[:-1]:
        blocks.append(tree.leaves_below(tree.minus(node)))
    blocks.append((tree.fixed_leaf,))
    s = len(blocks)
    positions = [tuple(tree.leaf_index(leaf) for leaf in block) for block in blocks]

    zero_pairs = frozenset(
        (p, q)
        for p in range(s)
        for q in range(s)
        if p != q and p != s - 1 and q != s - 1
    )
    zero_positions = frozenset(
        (i, j)
        for p, q in zero_pairs
        for i in positions[p]
        for j in positions[q]
    )
    triangular = tuple(range(1, s - 1))
    triangular_zeros = set()
    for b in triangular:
        block = positions[b]
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                triangular_zeros.add((block[i], block[j]))

    failures = []
    spine = set(tree.spine())
    for node in tree.internal_nodes():
        for child in tree.children(node):
            if child in spine:
                continue
            if annotation.beta(child) <= annotation.beta(node):
                failures.append(
                    f"beta({child}) = {annotation.beta(child)} does not exceed "
                    f"beta({node}) = {annotation.beta(node)}"
                )
    if not tree.is_leaf(tree.root):
        root_minus = tree.minus(tree.root)
        if annotation.alpha(root_minus) <= annotation.alpha(tree.root):
            failures.append(
                f"alpha({root_minus}) = {annotation.alpha(root_minus)} does not "
                f"exceed alpha({tree.root}) = {annotation.alpha(tree.root)}"
            )

    # The final column needs one refinement over the block picture: an
    # entry (i, n) is a link through the spine node above i's block, and
    # that rule carries an alpha > 0 guard.  A block whose spine node has
    # alpha = 0 therefore contributes exact zeros to the last column even
    # when every strictness hypothesis holds (alpha is monotone down the
    # spine, so such blocks form a prefix).
    nonzero: set[tuple[int, int]] = set()
    first = positions[0]
    last = positions[-1]
    for i in first:
        for j in first:
            nonzero.add((i, j))
    spine_nodes = tree.spine()[:-1]
    for b, block in enumerate(positions):
        for i in block:
            nonzero.add((last[0], i))
            if b == s - 1 or annotation.alpha(spine_nodes[b]) > 0:
                nonzero.add((i, last[0]))
    for b in triangular:
        block = positions[b]
        for i in range(len(block)):
            for j in range(i):
                nonzero.add((block[i], block[j]))

    return BlockPattern(
        tuple(blocks),
        zero_pairs,
        triangular,
        not failures,
        tuple(failures),
        zero_positions,
        frozenset(triangular_zeros),
        frozenset(nonzero),
    )
