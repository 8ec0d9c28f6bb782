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
:func:`build_structure_sets` runs that path test once for every node, in
one bottom-up pass, and :func:`roots_structural`, :func:`roots_transpose`
and the link rules of :mod:`rootlink.links` read its sets.
Nothing here reads an inverse.  Callers that hold one compare the
verdicts with it (a report with its certified tree inverse, the self-test
suites with the elimination inverse); the fixed leaf's row sum there must
equal ``ExitReport.lhs - ExitReport.rhs`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .build import Annotation, TreeMatrix, require_valid
from .errors import TheoremMismatchError, UnknownNodeError
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
]


@dataclass(frozen=True)
class StructureSets:
    """Edge sets and the root and transpose-root sets of every node."""

    gamma: frozenset[TreeEdge]
    gamma_t: frozenset[TreeEdge]
    # leaves below each node whose path up to it avoids gamma / gamma_t
    roots: dict[str, frozenset[str]]
    roots_t: dict[str, frozenset[str]]


def build_structure_sets(tree: DyadicTree, annotation: Annotation) -> StructureSets:
    """Construct both edge sets and every node's path-test sets, bottom-up.

    A leaf's set is the leaf itself; a child's set passes up to its parent
    unless the edge between them is in ``gamma`` (for ``roots``) or
    ``gamma_t`` (for ``roots_t``).  So ``roots[v]`` holds the leaves whose
    path up to ``v`` avoids ``gamma``, spine nodes included.
    """
    require_valid(tree, annotation)

    spine = set(tree.spine())
    gamma = set()
    gamma_t = set()
    roots: dict[str, frozenset[str]] = {}
    roots_t: dict[str, frozenset[str]] = {}
    # Leaf value sets per subtree.
    leaf_alphas: dict[str, frozenset[Fraction]] = {}
    leaf_betas: dict[str, frozenset[Fraction]] = {}
    for node in reversed(tree.preorder):
        kids = tree.children(node)
        if not kids:
            leaf_alphas[node] = frozenset((annotation.alpha(node),))
            leaf_betas[node] = frozenset((annotation.beta(node),))
            roots[node] = roots_t[node] = frozenset((node,))
            continue
        minus, plus = kids
        leaf_alphas[node] = leaf_alphas[minus] | leaf_alphas[plus]
        leaf_betas[node] = leaf_betas[minus] | leaf_betas[plus]
        minus_edge, plus_edge = TreeEdge(node, minus), TreeEdge(node, plus)
        a, b = annotation.pair(node)
        if a in leaf_alphas[plus]:
            gamma.add(minus_edge)
        if b in leaf_betas[minus]:
            gamma.add(plus_edge)
        if node in spine:
            gamma_t.add(minus_edge)
        else:
            if b in leaf_betas[plus]:
                gamma_t.add(minus_edge)
            if a in leaf_alphas[minus]:
                gamma_t.add(plus_edge)
        up = [roots[k] for k in kids if TreeEdge(node, k) not in gamma]
        up_t = [roots_t[k] for k in kids if TreeEdge(node, k) not in gamma_t]
        roots[node] = frozenset().union(*up)
        roots_t[node] = frozenset().union(*up_t)
    return StructureSets(frozenset(gamma), frozenset(gamma_t), roots, roots_t)


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
    return sets.roots_t[node]


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


def fixed_leaf_exit(tm: TreeMatrix, node: Optional[str] = None) -> ExitReport:
    """Evaluate the exit inequality for the restriction at ``node``.

    The left side is the reciprocal of the fixed leaf's diagonal entry; the
    right side sums, over internal spine nodes of the restriction, the
    minus-side mass scaled by ``(1 - alpha*plus_mass)/(1 - alpha*minus_mass)``.
    Masses come from the tree recursion (:func:`tree_masses`), with no
    inversion.  ``lhs - rhs`` is exactly the fixed leaf's row sum in the
    restriction's inverse, which a caller holding that inverse can check.
    Valid for restrictions at spine nodes of the original tree (where the
    fixed leaf's row is constant); elsewhere the inequality has no
    predictive content.
    """
    tree = tm.tree
    node = tree.root if node is None else node
    if node not in tree:
        raise UnknownNodeError(node)
    masses = tree_masses(tm, node)
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
    return ExitReport(node, fixed, lhs, rhs, tuple(terms), lhs >= rhs, lhs > rhs)


@dataclass(frozen=True)
class StructuralRootSet:
    """Structural exiting-root verdicts for one restriction."""

    node: str
    roots: frozenset[str]  # full verdict set, fixed leaf included when exiting
    blocked: tuple[tuple[str, TreeEdge], ...]  # leaf -> first blocking edge
    fixed_leaf: str
    exit: Optional[ExitReport]  # present exactly when ``node`` is on the spine


def roots_structural(
    tm: TreeMatrix,
    sets: StructureSets,
    node: Optional[str] = None,
) -> StructuralRootSet:
    """Structural exiting roots of the restriction at ``node``.

    Every leaf except possibly the restriction's fixed leaf is a root
    exactly when its path up to ``node`` avoids ``gamma``, which is
    membership in ``sets.roots[node]``.  When ``node`` lies on the original
    spine, the restriction keeps the original fixed leaf and its verdict
    comes from :func:`fixed_leaf_exit`; off the spine the restriction has
    no distinguished row and the path test applies to every leaf.
    """
    tree = tm.tree
    node = tree.root if node is None else node
    if node not in tree:
        raise UnknownNodeError(node)
    on_spine = tree.on_spine(node)
    fixed = tree.leaves_below(node)[-1]
    roots = sets.roots[node] - {fixed} if on_spine else sets.roots[node]

    # The first blocking edge of each non-root is the highest gamma edge on
    # its path, carried down from ``node`` in one walk; leaves come out in
    # leaf order.
    blocked = []
    stack: list[tuple[str, Optional[TreeEdge]]] = [(node, None)]
    while stack:
        cur, first = stack.pop()
        kids = tree.children(cur)
        if not kids:
            if first is not None and not (on_spine and cur == fixed):
                blocked.append((cur, first))
            continue
        for kid in reversed(kids):
            edge = TreeEdge(cur, kid)
            stack.append((kid, first or (edge if edge in sets.gamma else None)))

    exit_report = None
    if on_spine:
        exit_report = fixed_leaf_exit(tm, node)
        if exit_report.exiting:
            roots |= {fixed}
    return StructuralRootSet(
        node,
        roots,
        tuple(blocked),
        fixed,
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
