"""Structural root analysis: edge sets, exiting roots, dominance screens.

Two edge sets drive everything.  An edge of the tree enters ``gamma``
(resp. ``gamma_t``) when the parent's annotation value reappears on a leaf
of the opposite child subtree; spine nodes additionally contribute their
minus edge to ``gamma_t`` unconditionally.  A leaf is then a structural
root of a node's restriction exactly when its path up to that node avoids
the relevant edge set — except for the fixed leaf of a spine restriction,
whose verdict comes from an exact scalar inequality over the spine masses
(read off the bottom-up pass of :mod:`rootlink.treesolve` by
:func:`tree_masses`, not from inversion).
Only the oracle sides, :attr:`ExitReport.last_row_sum` and
:func:`diagonal_mass_bounds`, read an inverse: the one the restriction's
matrix keeps, shared with every other caller.  That is the elimination
inverse, except inside a report, whose matrix keeps the certified tree
inverse.  All structural verdicts are cross-checked against the
elimination inverse by the self-test suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .build import Annotation, TreeMatrix, require_valid
from .errors import TheoremMismatchError, UnknownNodeError
from .matrix import RationalMatrix
from .tree import DyadicTree, TreeEdge
from .treesolve import tree_pass

__all__ = [
    "StructureSets",
    "build_structure_sets",
    "roots_transpose",
    "tree_masses",
    "ExitReport",
    "fixed_leaf_exit",
    "StructuralRootSet",
    "roots_structural",
    "DominanceScreens",
    "dominance_screens",
    "MassBoundReport",
    "diagonal_mass_bounds",
]


@dataclass(frozen=True)
class StructureSets:
    """Edge sets and per-leaf ancestor matches for one annotated tree."""

    gamma: frozenset[TreeEdge]
    gamma_t: frozenset[TreeEdge]
    # ancestors (node ids, leaf included) sharing the leaf's alpha / beta value
    alpha_matches: dict[str, frozenset[str]]
    beta_matches: dict[str, frozenset[str]]


def build_structure_sets(tree: DyadicTree, annotation: Annotation) -> StructureSets:
    """Construct both edge sets and the per-leaf matching-ancestor maps."""
    require_valid(tree, annotation)

    # Leaf value sets per subtree, bottom-up.
    leaf_alphas: dict[str, frozenset[Fraction]] = {}
    leaf_betas: dict[str, frozenset[Fraction]] = {}
    for node in reversed(tree.preorder):
        kids = tree.children(node)
        if not kids:
            leaf_alphas[node] = frozenset((annotation.alpha(node),))
            leaf_betas[node] = frozenset((annotation.beta(node),))
        else:
            leaf_alphas[node] = leaf_alphas[kids[0]] | leaf_alphas[kids[1]]
            leaf_betas[node] = leaf_betas[kids[0]] | leaf_betas[kids[1]]

    spine = set(tree.spine())
    gamma = set()
    gamma_t = set()
    for node in tree.internal_nodes():
        minus, plus = tree.children(node)
        a, b = annotation.pair(node)
        if a in leaf_alphas[plus]:
            gamma.add(TreeEdge(node, minus))
        if b in leaf_betas[minus]:
            gamma.add(TreeEdge(node, plus))
        if node in spine:
            gamma_t.add(TreeEdge(node, minus))
        else:
            if b in leaf_betas[plus]:
                gamma_t.add(TreeEdge(node, minus))
            if a in leaf_alphas[minus]:
                gamma_t.add(TreeEdge(node, plus))

    alpha_matches = {}
    beta_matches = {}
    for leaf in tree.leaf_order:
        a, b = annotation.pair(leaf)
        alpha_matches[leaf] = frozenset(
            anc for anc in tree.ancestors(leaf) if annotation.alpha(anc) == a
        )
        beta_matches[leaf] = frozenset(
            anc for anc in tree.ancestors(leaf) if annotation.beta(anc) == b
        )
    return StructureSets(
        frozenset(gamma), frozenset(gamma_t), alpha_matches, beta_matches
    )


def roots_transpose(
    tree: DyadicTree, sets: StructureSets, node: Optional[str] = None
) -> frozenset[str]:
    """Leaves below ``node`` whose path up to it avoids ``gamma_t``.

    These are exactly the leaves with a positive column sum in the inverse
    of the restriction at ``node`` (oracle-verified by the self-test).
    """
    node = tree.root if node is None else node
    if node not in tree:
        raise UnknownNodeError(node)
    return frozenset(
        leaf
        for leaf in tree.leaves_below(node)
        if not (tree.geodesic_edges(leaf, node) & sets.gamma_t)
    )


def tree_masses(tm: TreeMatrix, node: Optional[str] = None) -> dict[str, Fraction]:
    """Total inverse mass of the restriction at every node below ``node``.

    Read off the bottom-up pass of :func:`~rootlink.treesolve.tree_pass`,
    with no inversion: the mass at ``u`` is ``L * M_u / det_u``, the sum
    of the adjugate of ``U_int`` restricted to ``u`` over its determinant.
    In terms of the masses themselves:

    * a leaf has mass ``1/alpha``;
    * a spine node has mass ``1/U[n,n]`` (its restriction keeps the
      constant fixed-leaf row), which is the mass of its plus child;
    * an off-spine node ``t`` with children ``a``, ``b`` restricts to
      ``[[U_a, alpha*J], [beta*J, U_b]]``, so
      ``m_t = (m_a(1 - alpha m_b) + m_b(1 - beta m_a)) / (1 - alpha beta m_a m_b)``.

    ``det U`` is the product of the leaf values, the spine factors
    ``1 - alpha*m_minus`` and the off-spine denominators, so a vanishing
    one raises :class:`SingularMatrixError` naming its node exactly when
    some restriction below ``node`` is singular.  The masses are those of
    ``tm``'s restrictions whenever its fixed-leaf row is constant, as it is
    for every matrix :func:`~rootlink.build.build_matrix` makes.
    """
    return tree_pass(tm, node).masses()


@dataclass(frozen=True)
class ExitReport:
    """Exact inequality deciding whether the fixed leaf is an exiting root."""

    node: str  # restriction analyzed
    fixed_leaf: str
    lhs: Fraction  # reciprocal of the fixed leaf's diagonal entry
    rhs: Fraction  # spine sum of scaled minus-side masses
    terms: tuple[tuple[str, Fraction], ...]  # per-spine-node contributions
    row_dominant: bool  # lhs >= rhs
    exiting: bool  # lhs > rhs
    last_row_sum: Fraction  # oracle row sum at the fixed leaf

    @property
    def identity_ok(self) -> bool:
        """Exact identity: the fixed leaf's inverse row sum is lhs - rhs."""
        return self.last_row_sum == self.lhs - self.rhs


def fixed_leaf_exit(tm: TreeMatrix, node: Optional[str] = None) -> ExitReport:
    """Evaluate the exit inequality for the restriction at ``node``.

    The left side is the reciprocal of the fixed leaf's diagonal entry; the
    right side sums, over internal spine nodes of the restriction, the
    minus-side mass scaled by ``(1 - alpha*plus_mass)/(1 - alpha*minus_mass)``.
    Masses come from the tree recursion (:func:`tree_masses`), with no
    inversion; only ``last_row_sum`` is read from the inverse the
    restriction's matrix keeps (the elimination inverse, or in a report the
    certified tree inverse), which makes :attr:`ExitReport.identity_ok` a
    check of the recursion against the oracle.  Valid for restrictions at spine
    nodes of the original tree (where the fixed leaf's row is constant);
    elsewhere the inequality has no predictive content.
    """
    tree = tm.tree
    node = tree.root if node is None else node
    if node not in tree:
        raise UnknownNodeError(node)
    masses = tree_masses(tm, node)
    scale, nums = tm.restrict(node).matrix.inverse().integer_form()
    last_row_sum = Fraction(sum(nums[-1]), scale)
    fixed = tree.leaves_below(node)[-1]
    lhs = masses[fixed]  # 1/U[n,n]; the recursion raised on a zero
    rhs = Fraction(0)
    terms = []
    for spine_node in tree.path_down(node, fixed)[:-1]:
        minus, plus = tree.children(spine_node)
        alpha = tm.alpha(spine_node)
        mass_minus = masses[minus]
        denom = 1 - alpha * mass_minus  # nonzero: the recursion checked it
        if denom < 0:
            raise TheoremMismatchError(
                f"spine denominator {denom} negative at node {spine_node!r}"
            )
        term = mass_minus * (1 - alpha * masses[plus]) / denom
        terms.append((spine_node, term))
        rhs += term
    return ExitReport(
        node,
        fixed,
        lhs,
        rhs,
        tuple(terms),
        lhs >= rhs,
        lhs > rhs,
        last_row_sum,
    )


@dataclass(frozen=True)
class StructuralRootSet:
    """Structural exiting-root verdicts for one restriction."""

    node: str
    roots: frozenset[str]  # full verdict set, fixed leaf included when exiting
    blocked: tuple[tuple[str, TreeEdge], ...]  # leaf -> first blocking edge
    fixed_leaf: str
    fixed_decided_by_exit: bool
    exit: Optional[ExitReport]  # present when the exit inequality was used


def roots_structural(
    tm: TreeMatrix,
    sets: StructureSets,
    node: Optional[str] = None,
) -> StructuralRootSet:
    """Structural exiting roots of the restriction at ``node``.

    Every leaf except possibly the restriction's fixed leaf is a root
    exactly when its path up to ``node`` avoids ``gamma``.  When ``node``
    lies on the original spine, the restriction keeps the original fixed
    leaf and its verdict comes from :func:`fixed_leaf_exit`; off the spine
    the restriction has no distinguished row and the path test applies to
    every leaf.
    """
    tree = tm.tree
    node = tree.root if node is None else node
    if node not in tree:
        raise UnknownNodeError(node)
    leaves = tree.leaves_below(node)
    on_spine = tree.on_spine(node)
    fixed = leaves[-1]

    roots = set()
    blocked = []
    for leaf in leaves:
        if on_spine and leaf == fixed:
            continue
        hits = tree.geodesic_edges(leaf, node) & sets.gamma
        if hits:
            blocked.append((leaf, min(hits, key=tree.edge_key)))
        else:
            roots.add(leaf)

    exit_report = None
    if on_spine:
        exit_report = fixed_leaf_exit(tm, node)
        if exit_report.exiting:
            roots.add(fixed)
    return StructuralRootSet(
        node,
        frozenset(roots),
        tuple(blocked),
        fixed,
        on_spine,
        exit_report,
    )


@dataclass(frozen=True)
class DominanceScreens:
    """Cheap diagonal/row-sum screens with known root implications."""

    small_diag: bool  # some other diagonal entry strictly below the last
    weak_diag: bool  # some other diagonal entry at most the last
    minimal_last_row_sum: bool  # the fixed leaf's row sum of U is minimal


def dominance_screens(tm: TreeMatrix) -> DominanceScreens:
    """Evaluate the three screens on the matrix itself (no inversion).

    ``small_diag`` implies the fixed leaf is not a root (strictly negative
    potential); ``weak_diag`` implies its potential is nonpositive;
    ``minimal_last_row_sum`` implies the matrix is row and column
    diagonally dominant and the fixed leaf exits.  The self-test asserts
    each implication against the exact potentials.
    """
    diag = tm.matrix.diagonal()
    last = diag[-1]
    small = any(d < last for d in diag[:-1])
    weak = any(d <= last for d in diag[:-1])
    sums = tm.matrix.row_sums()
    minimal = all(sums[-1] <= s for s in sums[:-1])
    return DominanceScreens(small, weak, minimal)


@dataclass(frozen=True)
class MassBoundReport:
    """Diagonal-times-mass lower bounds for an off-spine restriction."""

    mass: Fraction
    products: tuple[Fraction, ...]  # diagonal entry times total mass, per leaf
    max_diag: Fraction
    tight: bool  # max_diag * mass == 1
    constant_column_at_max: bool
    ok: bool
    messages: tuple[str, ...]


def diagonal_mass_bounds(m: RationalMatrix) -> MassBoundReport:
    """Check ``diag * mass >= 1`` per entry, with tightness iff a constant column.

    The mass is the sum of the entries of ``m``'s exact inverse (which ``m``
    keeps once inverted).  Applies to restrictions at off-spine nodes (and
    to the minus side of the root split); the full matrix violates these
    bounds in general because of its constant fixed-leaf row.
    """
    mass = m.inverse().total()
    diag = m.diagonal()
    products = tuple(d * mass for d in diag)
    max_diag = max(diag)
    messages = []
    for i, prod in enumerate(products):
        if prod < 1:
            messages.append(f"diagonal {i} times mass {prod} < 1")
    tight = max_diag * mass == 1
    constant = any(
        all(m[i, j] == max_diag for i in range(m.nrows)) for j in range(m.ncols)
    )
    if tight != constant:
        messages.append(
            f"tightness mismatch: max_diag*mass == 1 is {tight} but "
            f"constant max column present is {constant}"
        )
    return MassBoundReport(
        mass, products, max_diag, tight, constant, not messages, tuple(messages)
    )
