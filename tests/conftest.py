"""Shared fixtures: the six-leaf sample instance and small helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rootlink import Annotation, RationalMatrix, TreeMatrix, build_matrix, kernels
from rootlink.tree import DyadicTree, build_tree

SIX_LEAF_CHILDREN = {
    "I": ("A", "B"),
    "A": ("1", "2"),
    "B": ("C", "D"),
    "C": ("3", "4"),
    "D": ("5", "6"),
}

SIX_LEAF_VALUES = {
    "I": (1, 1),
    "A": (2, 3),
    "B": (2, 2),
    "C": (2, 4),
    "D": (3, 3),
    "1": (3, 3),
    "2": (3, 3),
    "3": (4, 4),
    "4": (4, 4),
    "5": (4, 4),
    "6": (4, 4),
}

SIX_LEAF_MATRIX = [
    [3, 2, 1, 1, 1, 1],
    [3, 3, 1, 1, 1, 1],
    [2, 2, 4, 2, 2, 2],
    [2, 2, 4, 4, 2, 2],
    [3, 3, 3, 3, 4, 3],
    [4, 4, 4, 4, 4, 4],
]

# The exact inverse is (1/8) times this integer matrix.
SIX_LEAF_INVERSE_8X = [
    [8, -4, 0, 0, 0, -1],
    [-8, 8, 0, 0, 0, 0],
    [0, 0, 4, 0, 0, -2],
    [0, 0, -4, 4, 0, 0],
    [0, 0, 0, 0, 8, -6],
    [0, -4, 0, -4, -8, 11],
]


def annotation_from(values: dict[str, tuple[int, int]]) -> Annotation:
    return Annotation.from_pairs(
        {node: (Fraction(a), Fraction(b)) for node, (a, b) in values.items()}
    )


def instance(
    children: dict[str, tuple[str, str]],
    root: str,
    values: dict[str, tuple[int, int]],
) -> TreeMatrix:
    return build_matrix(build_tree(children, root), annotation_from(values))


def is_inverse_pair(m: RationalMatrix, inv: RationalMatrix) -> bool:
    """Whether ``m @ inv`` and ``inv @ m`` are both the identity.

    Multiplies the integer forms ``m = A / l`` and ``inv = B / d``, so the
    test is ``A B = B A = l d I``.
    """
    (l, a), (d, b) = m.integer_form(), inv.integer_form()
    n = len(a)
    ident = [[l * d if i == j else 0 for j in range(n)] for i in range(n)]
    return kernels.matmul_int(a, b) == ident and kernels.matmul_int(b, a) == ident


def caterpillar(leaves: int, seed: int) -> TreeMatrix:
    """A left comb under the root's minus child; the fixed leaf is root.plus.

    Values grow by strictly positive steps down every path, so the draw is
    strict.
    """
    children = {"root": ("c1", "f")}
    for k in range(1, leaves - 2):
        children[f"c{k}"] = (f"c{k + 1}", f"l{k}")
    children[f"c{leaves - 2}"] = ("l0", f"l{leaves - 2}")
    tree = build_tree(children, "root")
    rng = random.Random(seed)

    def step() -> Fraction:
        return Fraction(rng.randint(1, 4), rng.choice((1, 2, 4)))

    values = {"root": (Fraction(rng.randint(0, 2), 2),) * 2}
    for node in tree.preorder:
        a, b = values[node]
        for child in tree.children(node):
            if tree.is_leaf(child):
                values[child] = (max(a, b) + step(),) * 2
            else:
                child_alpha = a + step()
                values[child] = (child_alpha, max(child_alpha, b) + step())
    return build_matrix(tree, annotation_from(values))


@pytest.fixture(scope="session")
def six_tree() -> DyadicTree:
    return build_tree(SIX_LEAF_CHILDREN, "I")


@pytest.fixture(scope="session")
def six_annotation() -> Annotation:
    return annotation_from(SIX_LEAF_VALUES)


@pytest.fixture(scope="session")
def six_tm(six_tree, six_annotation) -> TreeMatrix:
    return build_matrix(six_tree, six_annotation)


@pytest.fixture(scope="session")
def six_inverse(six_tm):
    return six_tm.matrix.inverse()
