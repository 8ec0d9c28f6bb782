"""Edge sets, structural roots, the exit inequality, and dominance screens."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from rootlink import (
    Annotation,
    RationalMatrix,
    RestrictionCache,
    SingularMatrixError,
    TreeMatrix,
    build_matrix,
    build_structure_sets,
    diagonal_mass_bounds,
    dominance_screens,
    fixed_leaf_exit,
    kernels,
    potentials,
    random_instance,
    roots_structural,
    roots_transpose,
    zero_pattern,
)
from rootlink.tree import TreeEdge, build_tree

from conftest import (
    annotated_trees,
    caterpillar,
    instance,
    path_test_sets,
)


def edges(*pairs: tuple[str, str]) -> frozenset[TreeEdge]:
    return frozenset(TreeEdge(p, c) for p, c in pairs)


@pytest.fixture(scope="module")
def six_sets(six_tree, six_annotation):
    return build_structure_sets(six_tree, six_annotation)


def test_six_leaf_edge_sets(six_sets):
    assert six_sets.gamma == edges(("A", "2"), ("C", "4"))
    assert six_sets.gamma_t == edges(
        ("I", "A"), ("A", "1"), ("B", "C"), ("C", "3"), ("D", "5")
    )


def test_six_leaf_roots(six_tm, six_sets):
    structural = roots_structural(six_tm, six_sets)
    assert structural.roots == frozenset({"1", "3", "5"})
    assert structural.fixed_decided_by_exit
    blocked = dict(structural.blocked)
    assert blocked["2"] == TreeEdge("A", "2")
    assert blocked["4"] == TreeEdge("C", "4")


def test_six_leaf_transpose_roots(six_tree, six_sets):
    assert roots_transpose(six_tree, six_sets) == frozenset({"6"})


def test_six_leaf_exit_identity(six_tm, six_inverse):
    report = fixed_leaf_exit(six_tm)
    assert report.lhs == Fraction(1, 4)
    assert report.rhs == Fraction(7, 8)
    assert report.terms == (
        ("I", Fraction(3, 8)),
        ("B", Fraction(1, 4)),
        ("D", Fraction(1, 4)),
    )
    assert not report.exiting and not report.row_dominant
    assert report.lhs - report.rhs == Fraction(-5, 8) == sum(six_inverse.rows[5])


@pytest.mark.parametrize(
    "node,expected",
    [("A", {"1"}), ("C", {"3"}), ("B", {"3", "5"}), ("D", {"5"})],
)
def test_roots_per_restriction(six_tm, six_sets, node, expected):
    result = roots_structural(six_tm, six_sets, node)
    assert result.roots == frozenset(expected)
    # Oracle cross-check on the restricted inverse.
    sub = six_tm.restrict(node)
    mu = potentials(sub.matrix.inverse()).mu
    assert result.roots == frozenset(
        leaf for leaf, m in zip(sub.leaves, mu) if m > 0
    )


@pytest.mark.parametrize(
    "node,expected",
    [("A", {"2"}), ("C", {"4"}), ("B", {"6"}), ("D", {"6"})],
)
def test_transpose_roots_per_restriction(six_tm, six_tree, six_sets, node, expected):
    assert roots_transpose(six_tree, six_sets, node) == frozenset(expected)
    sub = six_tm.restrict(node)
    nu = potentials(sub.matrix.inverse()).nu
    assert frozenset(
        leaf for leaf, v in zip(sub.leaves, nu) if v > 0
    ) == frozenset(expected)


def _matches_path_tests(tm) -> None:
    """Every node's sets and blocking edges == the per-leaf geodesic reference.

    A spine restriction of a singular draw has no exit verdict, so only its
    sets are compared there.
    """
    tree = tm.tree
    sets = build_structure_sets(tree, tm.annotation)
    roots, roots_t, blocked = path_test_sets(tree, sets)
    assert (sets.roots, sets.roots_t) == (roots, roots_t)
    for node in tree.preorder:
        assert roots_transpose(tree, sets, node) == roots_t[node]
        try:
            verdict = roots_structural(tm, sets, node)
        except SingularMatrixError:
            assert tree.on_spine(node)
            continue
        assert verdict.blocked == blocked[node]
        fixed = verdict.fixed_leaf
        if verdict.fixed_decided_by_exit:
            assert verdict.roots - {fixed} == roots[node] - {fixed}
            assert (fixed in verdict.roots) == verdict.exit.exiting
        else:
            assert verdict.roots == roots[node]


@settings(max_examples=150)
@given(annotated_trees())
def test_structure_sets_match_path_tests_property(tm):
    _matches_path_tests(tm)


@pytest.mark.parametrize("leaves", [3, 4, 5, 9, 17, 33, 64, 201])
def test_structure_sets_match_path_tests_on_caterpillars(leaves):
    _matches_path_tests(caterpillar(leaves, leaves))


@pytest.mark.parametrize(
    "fresh",
    [
        lambda: caterpillar(128, 1),
        lambda: build_matrix(*random_instance(1, 128, "strict", min_leaves=128)),
    ],
    ids=["caterpillar", "balanced"],
)
def test_structural_verdicts_run_no_elimination(fresh, monkeypatch):
    def refuse(rows):
        raise AssertionError(f"elimination of order {len(rows)}")

    tm = fresh()
    monkeypatch.setattr(kernels, "inverse_scaled", refuse)
    tree = tm.tree
    sets = build_structure_sets(tree, tm.annotation)
    for node in tree.preorder:
        verdict = roots_structural(tm, sets, node)
        assert (verdict.exit is not None) == tree.on_spine(node)
        roots_transpose(tree, sets, node)
    zero_pattern(tree, tm.annotation)


def test_single_leaf_exit():
    tm = instance({}, "L", {"L": (2, 2)})
    report = fixed_leaf_exit(tm)
    assert report.lhs == Fraction(1, 2)
    assert report.rhs == 0
    assert report.terms == ()
    assert report.exiting and report.row_dominant
    assert report.lhs - report.rhs == potentials(tm.matrix.inverse()).mu[-1]
    sets = build_structure_sets(tm.tree, tm.annotation)
    assert roots_structural(tm, sets).roots == frozenset({"L"})


def test_gu_exit_inequality():
    # A restriction-shaped matrix (alpha != beta on the local spine): the
    # identity lhs - rhs = last row sum still holds and the leaf exits.
    tree = build_tree({"I": ("1", "2")}, "I")
    ann = Annotation.from_pairs(
        {"I": (Fraction(1), Fraction(2)), "1": (Fraction(5),) * 2, "2": (Fraction(2),) * 2}
    )
    tm = TreeMatrix(tree, ann, RationalMatrix([[5, 1], [2, 2]]))
    report = fixed_leaf_exit(tm)
    assert report.lhs == Fraction(1, 2)
    assert report.rhs == Fraction(1, 8)
    assert report.exiting and report.row_dominant
    assert potentials(tm.matrix.inverse()).mu == (Fraction(1, 8), report.lhs - report.rhs)


def test_off_spine_restriction_roots_cover_all_leaves():
    # Below an off-spine node the global fixed leaf is gone, so the
    # edge-set test must decide every leaf of the restriction, including
    # the locally rightmost one.
    tm = instance(
        {"I": ("M", "4"), "M": ("1", "N"), "N": ("2", "3")},
        "I",
        {
            "I": (1, 1),
            "M": (1, 2),
            "N": (1, 3),
            "1": (4, 4),
            "2": (5, 5),
            "3": (6, 6),
            "4": (7, 7),
        },
    )
    sub = tm.restrict("M")
    assert sub.matrix == RationalMatrix([[4, 1, 1], [2, 5, 1], [2, 3, 6]])
    pot = potentials(sub.matrix.inverse())
    assert pot.mu == (Fraction(10, 47), Fraction(5, 47), Fraction(2, 47))
    assert pot.nu == (Fraction(13, 94), Fraction(9, 94), Fraction(6, 47))
    sets = build_structure_sets(tm.tree, tm.annotation)
    result = roots_structural(tm, sets, "M")
    assert result.roots == frozenset({"1", "2", "3"})
    assert not result.fixed_decided_by_exit
    assert result.exit is None
    assert roots_transpose(tm.tree, sets, "M") == frozenset({"1", "2", "3"})


def test_dominance_screens_six_leaf(six_tm):
    screens = dominance_screens(six_tm)
    assert screens.small_diag  # some diagonal entry strictly below the last
    assert screens.weak_diag
    assert not screens.minimal_last_row_sum
    # small_diag predicts a non-exiting fixed leaf: mu_n < 0 here (-5/8).


def test_dominance_screens_minimal_row():
    tree = build_tree({"I": ("1", "2")}, "I")
    ann = Annotation.from_pairs(
        {"I": (Fraction(1), Fraction(2)), "1": (Fraction(5),) * 2, "2": (Fraction(2),) * 2}
    )
    tm = TreeMatrix(tree, ann, RationalMatrix([[5, 1], [2, 2]]))
    screens = dominance_screens(tm)
    assert not screens.small_diag and not screens.weak_diag
    assert screens.minimal_last_row_sum  # row sums 6 and 4


def test_mass_bounds_off_spine(six_tm):
    cache = RestrictionCache(six_tm)
    for node in ("A", "C"):
        report = diagonal_mass_bounds(cache.restricted(node).matrix)
        assert report.ok
        assert all(p >= 1 for p in report.products)
        assert report.tight and report.constant_column_at_max


def test_mass_bounds_do_not_apply_to_full_matrix(six_tm):
    # The fixed-leaf row makes the bound fail for the full matrix; the
    # report flags it rather than assert.
    report = diagonal_mass_bounds(six_tm.matrix)
    assert not report.ok
    assert Fraction(3, 4) in report.products
