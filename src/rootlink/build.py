"""Annotation validation, matrix construction and random instance generation.

An annotated tree assigns each node a pair of nonnegative rationals
``(alpha, beta)``.  Valid annotations obey four numbered conditions (the
validator reports violations by condition number):

  (i)   alpha = beta on every leaf, and every internal node inside the
        plus subtree of the root copies alpha from its spine anchor;
  (ii)  alpha <= beta at every node;
  (iii) alpha and beta never decrease from parent to child;
  (iv)  alpha = beta on every spine node.

The resulting matrix is indexed by leaves in leaf order.  For distinct
leaves ``i`` (row) and ``j`` (column) meeting at ``t``: entries above the
diagonal take ``alpha(t)``; entries below take ``beta(s)`` where ``s`` is
the deeper of ``t`` and the meet of ``i`` with the fixed leaf.  Diagonal
entries are the leaf values, and the fixed leaf's row is constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Tuple

from .errors import (
    InvalidAnnotationError,
    MissingAnnotationError,
    UnknownNodeError,
)
from .matrix import Rational, RationalMatrix, to_fraction
from .tree import DyadicTree, build_tree

__all__ = [
    "Annotation",
    "AnnotationViolation",
    "validate_annotation",
    "require_valid",
    "common_denominator",
    "build_matrix",
    "TreeMatrix",
    "random_instance",
]


class Annotation:
    """Per-node ``(alpha, beta)`` values, stored as exact rationals.

    An annotation never changes after construction, so it remembers the
    last tree it passed validation on (see :func:`require_valid`).
    """

    __slots__ = ("_alpha", "_beta", "_valid_on")

    def __init__(
        self, alpha: Mapping[str, Rational], beta: Mapping[str, Rational]
    ):
        self._alpha = {node: to_fraction(v) for node, v in alpha.items()}
        self._beta = {node: to_fraction(v) for node, v in beta.items()}
        self._valid_on: Optional[DyadicTree] = None

    @classmethod
    def from_pairs(
        cls, pairs: Mapping[str, Tuple[Rational, Rational]]
    ) -> "Annotation":
        return cls(
            {node: a for node, (a, _) in pairs.items()},
            {node: b for node, (_, b) in pairs.items()},
        )

    def alpha(self, node: str) -> Fraction:
        try:
            return self._alpha[node]
        except KeyError:
            raise MissingAnnotationError(f"no alpha value for node {node!r}") from None

    def beta(self, node: str) -> Fraction:
        try:
            return self._beta[node]
        except KeyError:
            raise MissingAnnotationError(f"no beta value for node {node!r}") from None

    def pair(self, node: str) -> tuple[Fraction, Fraction]:
        return (self.alpha(node), self.beta(node))

    def restrict_to(self, nodes: Iterable[str]) -> "Annotation":
        keep = set(nodes)
        return Annotation(
            {n: v for n, v in self._alpha.items() if n in keep},
            {n: v for n, v in self._beta.items() if n in keep},
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Annotation):
            return self._alpha == other._alpha and self._beta == other._beta
        return NotImplemented

    def __repr__(self) -> str:
        pairs = {
            n: (str(self._alpha[n]), str(self._beta.get(n)))
            for n in sorted(self._alpha)
        }
        return f"Annotation({pairs!r})"


@dataclass(frozen=True)
class AnnotationViolation:
    """One failed validation condition at one node."""

    condition: str  # "(i)" | "(ii)" | "(iii)" | "(iv)" | "nonnegative"
    node: str
    message: str

    def __str__(self) -> str:
        return self.message


def _violation(condition: str, node: str, detail: str) -> AnnotationViolation:
    return AnnotationViolation(
        condition, node, f"condition {condition} at {node}: {detail}"
    )


def validate_annotation(
    tree: DyadicTree, annotation: Annotation
) -> tuple[AnnotationViolation, ...]:
    """Check all annotation conditions; an empty result means valid.

    Raises :class:`MissingAnnotationError` when a node has no value at all;
    value-level problems are returned as violations, one per condition and
    node, each message naming the condition and the witnessing node.
    """
    for node in tree.preorder:
        annotation.pair(node)  # coverage check

    found: list[AnnotationViolation] = []
    spine = set(tree.spine())

    for node in tree.preorder:
        a, b = annotation.pair(node)
        if a < 0 or b < 0:
            found.append(
                AnnotationViolation(
                    "nonnegative",
                    node,
                    f"values at {node} must be nonnegative, got ({a}, {b})",
                )
            )
        if tree.is_leaf(node):
            if a != b:
                found.append(
                    _violation("(i)", node, f"leaf has alpha {a} != beta {b}")
                )
        else:
            anchor = tree.spine_anchor(node)
            if anchor != tree.root and node not in spine:
                expected = annotation.alpha(anchor)
                if a != expected:
                    found.append(
                        _violation(
                            "(i)",
                            node,
                            f"alpha {a} != alpha {expected} at spine anchor {anchor}",
                        )
                    )
        if a > b:
            found.append(_violation("(ii)", node, f"alpha {a} > beta {b}"))
        for child in tree.children(node):
            ca, cb = annotation.pair(child)
            if ca < a:
                found.append(
                    _violation(
                        "(iii)", child, f"alpha {ca} < alpha {a} at parent {node}"
                    )
                )
            if cb < b:
                found.append(
                    _violation(
                        "(iii)", child, f"beta {cb} < beta {b} at parent {node}"
                    )
                )
        if node in spine and a != b:
            found.append(
                _violation("(iv)", node, f"spine node has alpha {a} != beta {b}")
            )
    return tuple(found)


def common_denominator(tree: DyadicTree, annotation: Annotation) -> int:
    """The least common denominator of every value on the tree."""
    return lcm(
        *(x.denominator for node in tree.preorder for x in annotation.pair(node))
    )


def require_valid(tree: DyadicTree, annotation: Annotation) -> None:
    """Raise :class:`InvalidAnnotationError` unless the annotation is valid.

    The annotation remembers the tree it last passed on, so the functions
    that need a valid pair (:func:`build_matrix`,
    :func:`~rootlink.roots.build_structure_sets`,
    :func:`~rootlink.links.zero_pattern`) validate each pair once between
    them.  An invalid pair is never remembered and raises on every call.
    """
    if annotation._valid_on is tree:
        return
    violations = validate_annotation(tree, annotation)
    if violations:
        raise InvalidAnnotationError(violations)
    annotation._valid_on = tree


def build_matrix(tree: DyadicTree, annotation: Annotation) -> "TreeMatrix":
    """Materialize the leaf-indexed matrix of a validated annotated tree."""
    require_valid(tree, annotation)

    # Each internal node t fills its two cross blocks: alpha(t) above the
    # diagonal; below it, beta of the deeper of t and the row leaf's spine
    # anchor.  That is beta(t) off the spine (the anchor lies above t) and
    # beta(anchor) per row under a spine node (the anchor lies below it).
    leaves = tree.leaf_order
    n = len(leaves)
    spine = tree.spine()
    anchor_beta = [annotation.beta(leaves[-1])] * n  # the fixed leaf anchors itself
    for node in spine[:-1]:
        lo, hi = tree.leaf_span(tree.minus(node))
        anchor_beta[lo:hi] = [annotation.beta(node)] * (hi - lo)
    # Start every row at its leaf value; the cross blocks below cover each
    # off-diagonal entry exactly once, leaving only the diagonal.
    rows = [[annotation.alpha(leaf)] * n for leaf in leaves]
    for node in tree.internal_nodes():
        lo, mid = tree.leaf_span(tree.minus(node))
        hi = tree.leaf_span(tree.plus(node))[1]
        upper = [annotation.alpha(node)] * (hi - mid)
        for i in range(lo, mid):
            rows[i][mid:hi] = upper
        on_spine = hi == n
        for i in range(mid, hi):
            lower = anchor_beta[i] if on_spine else annotation.beta(node)
            rows[i][lo:mid] = [lower] * (mid - lo)
    return TreeMatrix(tree, annotation, RationalMatrix(rows))


class TreeMatrix:
    """A leaf-indexed matrix together with its tree and annotation."""

    __slots__ = ("tree", "annotation", "matrix", "_restricted")

    def __init__(
        self, tree: DyadicTree, annotation: Annotation, matrix: RationalMatrix
    ):
        self.tree = tree
        self.annotation = annotation
        self.matrix = matrix
        self._restricted: dict[str, TreeMatrix] = {}

    @property
    def leaves(self) -> tuple[str, ...]:
        return self.tree.leaf_order

    @property
    def fixed_leaf(self) -> str:
        return self.tree.fixed_leaf

    def alpha(self, node: str) -> Fraction:
        return self.annotation.alpha(node)

    def beta(self, node: str) -> Fraction:
        return self.annotation.beta(node)

    def restrict(self, node: str) -> "TreeMatrix":
        """Principal submatrix on the leaves below ``node``.

        The result keeps the subtree and the original annotation values.  It
        is *not* rebuilt through the entry rule: below an off-spine node the
        submatrix generally differs from the matrix the restricted tree would
        build on its own, because the original fixed leaf lies outside.
        Each restriction is made once and kept, so every caller shares its
        matrix and that matrix's inverse.
        """
        if node == self.tree.root:
            return self
        if node not in self._restricted:
            if node not in self.tree:
                raise UnknownNodeError(node)
            subtree = build_tree(self.tree.subtree_children(node), node)
            idx = [self.tree.leaf_index(leaf) for leaf in subtree.leaf_order]
            self._restricted[node] = TreeMatrix(
                subtree,
                self.annotation.restrict_to(subtree.preorder),
                self.matrix.submatrix(idx, idx),
            )
        return self._restricted[node]

    def __repr__(self) -> str:
        return (
            f"TreeMatrix(leaves={len(self.leaves)}, root={self.tree.root!r}, "
            f"fixed_leaf={self.fixed_leaf!r})"
        )


_DENOMS = (1, 1, 2, 4)


def _random_split(rng: random.Random, lo: int, hi: int, children, counter) -> str:
    """Recursively build a tree shape over leaves lo..hi (inclusive)."""
    if lo == hi:
        return str(lo)
    name = f"t{next(counter)}"
    cut = rng.randint(lo, hi - 1)
    minus = _random_split(rng, lo, cut, children, counter)
    plus = _random_split(rng, cut + 1, hi, children, counter)
    children[name] = (minus, plus)
    return name


def random_instance(
    seed: int, max_leaves: int, strictness: str = "lax", min_leaves: int = 1
) -> tuple[DyadicTree, Annotation]:
    """Generate a valid annotated tree, deterministic per seed.

    The tree shape is a uniform recursive split over min..max leaves
    (k drawn up to ``max_leaves``).  Values are built by repair rather than
    rejection: cumulative nonnegative increments down every path enforce
    monotonicity, the spine then gets beta := alpha, and internal nodes in
    the plus subtree of the root copy alpha from their spine anchor.  Under
    ``strictness="strict"`` all increments are strictly positive, which makes
    the matrix nonsingular in practice; ``"lax"`` allows ties (and therefore
    singular matrices), which exercise the equality cases of the edge-set
    predicates.
    """
    if strictness not in ("lax", "strict"):
        raise ValueError(f"strictness must be 'lax' or 'strict', got {strictness!r}")
    if not 1 <= min_leaves <= max_leaves:
        raise ValueError("need 1 <= min_leaves <= max_leaves")
    rng = random.Random(seed)
    k = rng.randint(min_leaves, max_leaves)

    def delta() -> Fraction:
        low = 1 if strictness == "strict" else 0
        return Fraction(rng.randint(low, low + 3), rng.choice(_DENOMS))

    if k == 1:
        value = Fraction(rng.randint(1, 4), rng.choice(_DENOMS))
        tree = build_tree({}, "1")
        return tree, Annotation({"1": value}, {"1": value})

    children: dict[str, tuple[str, str]] = {}
    counter = iter(range(1, 2 * k))
    root = _random_split(rng, 1, k, children, counter)
    tree = build_tree(children, root)

    base = Fraction(rng.randint(0, 2), rng.choice((1, 2)))
    alpha: dict[str, Fraction] = {root: base}
    beta: dict[str, Fraction] = {root: base}
    for node in tree.preorder:
        for child in tree.children(node):
            if tree.is_leaf(child):
                value = max(alpha[node], beta[node]) + delta()
                alpha[child] = beta[child] = value
            else:
                alpha[child] = alpha[node] + delta()
                beta[child] = max(alpha[child], beta[node]) + delta()

    for node in tree.spine():
        beta[node] = alpha[node]
    for node in tree.internal_nodes():
        anchor = tree.spine_anchor(node)
        if anchor != tree.root and not tree.on_spine(node):
            alpha[node] = alpha[anchor]

    annotation = Annotation(alpha, beta)
    require_valid(tree, annotation)  # the repair guarantees it; remembered
    return tree, annotation
