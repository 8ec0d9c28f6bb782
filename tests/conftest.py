"""Shared fixtures: the six-leaf sample instance and small helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from rootlink import (
    Annotation,
    RationalMatrix,
    StructureSets,
    TreeMatrix,
    build_matrix,
    kernels,
    validate_annotation,
)
from rootlink.tree import DyadicTree, TreeEdge, build_tree

# Every property test draws the same examples on every run of the suite and
# states only its own ``max_examples``.
settings.register_profile(
    "rootlink",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("rootlink")

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


def path_test_sets(tree: DyadicTree, sets: StructureSets) -> tuple[dict, dict, dict]:
    """Per-leaf reference for the root pass: one geodesic scan per (leaf, node).

    Returns, per node, the leaves whose path up to it avoids ``gamma``, the
    same for ``gamma_t``, and ``StructuralRootSet.blocked``: each leaf whose
    path meets ``gamma``, in leaf order, with the first of those edges in
    ``edge_key`` order, the fixed leaf of a spine node left out.
    """
    roots, roots_t, blocked = {}, {}, {}
    for node in tree.preorder:
        leaves = tree.leaves_below(node)
        paths = {leaf: tree.geodesic_edges(leaf, node) for leaf in leaves}
        roots[node] = frozenset(leaf for leaf, p in paths.items() if not p & sets.gamma)
        roots_t[node] = frozenset(leaf for leaf, p in paths.items() if not p & sets.gamma_t)
        exit_decided = leaves[-1] if tree.on_spine(node) else None
        blocked[node] = tuple(
            (leaf, min(paths[leaf] & sets.gamma, key=tree.edge_key))
            for leaf in leaves
            if leaf != exit_decided and leaf not in roots[node]
        )
    return roots, roots_t, blocked


# -- Hypothesis strategy: adversarial shapes and values ------------------------

_IDS = st.text(alphabet="abcxyzAB019_-+ ", min_size=1, max_size=4)
_STEPS = st.one_of(
    st.just(Fraction(0)),  # ties: lax equality cases and singular draws
    st.integers(1, 4).map(Fraction),
    st.tuples(st.integers(1, 9), st.sampled_from((2, 3, 4, 7))).map(
        lambda p: Fraction(*p)
    ),
    st.integers(10**30, 10**40).map(Fraction),  # large numerators
)


@st.composite
def annotated_trees(draw):
    leaves = draw(st.integers(1, 12))
    ids = draw(st.lists(_IDS, min_size=2 * leaves - 1, max_size=2 * leaves - 1, unique=True))
    children: dict[str, tuple[str, str]] = {}
    shape = draw(st.sampled_from(["left comb", "right comb", "split"]))
    if shape != "split":  # caterpillars: the comb off the spine, or the spine
        for k in range(leaves - 1):
            comb = ids[k + 1] if k < leaves - 2 else ids[-1]
            leaf = ids[leaves - 1 + k]
            children[ids[k]] = (comb, leaf) if shape == "left comb" else (leaf, comb)
    else:  # a random split, drawn iteratively
        fresh = iter(ids[1:])
        pending = [(ids[0], leaves)]
        while pending:
            node, size = pending.pop()
            if size == 1:
                continue
            cut = draw(st.integers(1, size - 1))
            kids = (next(fresh), next(fresh))
            children[node] = kids
            pending += [(kids[0], cut), (kids[1], size - cut)]
    tree = build_tree(children, ids[0])
    base = draw(_STEPS.filter(lambda x: x < 10))
    alpha, beta = {tree.root: base}, {tree.root: base}
    for node in tree.preorder:
        for child in tree.children(node):
            if tree.is_leaf(child):
                alpha[child] = beta[child] = max(alpha[node], beta[node]) + draw(_STEPS)
            else:
                alpha[child] = alpha[node] + draw(_STEPS)
                beta[child] = max(alpha[child], beta[node]) + draw(_STEPS)
    for node in tree.spine():
        beta[node] = alpha[node]
    for node in tree.internal_nodes():
        anchor = tree.spine_anchor(node)
        if anchor != tree.root and not tree.on_spine(node):
            alpha[node] = alpha[anchor]
    annotation = Annotation(alpha, beta)
    assert not validate_annotation(tree, annotation)
    return build_matrix(tree, annotation)


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
