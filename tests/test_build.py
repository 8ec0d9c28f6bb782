"""Annotation validation, the entry rule, restrictions, and the generator."""

from __future__ import annotations

from fractions import Fraction

import pytest

from rootlink import (
    InvalidAnnotationError,
    RationalMatrix,
    build_matrix,
    random_instance,
    validate_annotation,
)
from rootlink.errors import MissingAnnotationError, UnknownNodeError
from rootlink.tree import build_tree

from conftest import (
    SIX_LEAF_MATRIX,
    SIX_LEAF_VALUES,
    annotation_from,
    instance,
)


def test_six_leaf_matrix(six_tm):
    assert six_tm.matrix == RationalMatrix(SIX_LEAF_MATRIX)
    assert six_tm.leaves == ("1", "2", "3", "4", "5", "6")
    assert six_tm.fixed_leaf == "6"


def test_entry_rule_spot_checks(six_tm):
    m = six_tm.matrix
    # Diagonal entries are the leaf values.
    assert m[0, 0] == 3 and m[2, 2] == 4
    # Upper entries read alpha at the meet.
    assert m[0, 1] == six_tm.alpha("A") == 2
    assert m[0, 2] == six_tm.alpha("I") == 1
    assert m[4, 5] == six_tm.alpha("D") == 3
    # Lower entries read beta at the deeper of meet(i,j) and meet(i,n).
    assert m[1, 0] == six_tm.beta("A") == 3  # meet A below meet-with-n I
    assert m[2, 0] == six_tm.beta("B") == 2  # meet I above meet-with-n B
    assert m[3, 2] == six_tm.beta("C") == 4  # meet C below meet-with-n B
    # The fixed leaf's row is constant at its own value.
    assert set(m.rows[5]) == {Fraction(4)}


def test_validate_clean(six_tree, six_annotation):
    assert validate_annotation(six_tree, six_annotation) == ()


def _violations(six_tree, overrides):
    values = {**SIX_LEAF_VALUES, **overrides}
    return validate_annotation(six_tree, annotation_from(values))


def test_condition_ii_message(six_tree):
    found = _violations(six_tree, {"A": (2, 1)})
    assert [(v.condition, v.node) for v in found] == [("(ii)", "A")]
    assert found[0].message == "condition (ii) at A: alpha 2 > beta 1"


def test_condition_i_internal_copy_rule(six_tree):
    # C sits under the plus child of the root; its alpha must copy its
    # spine anchor B.
    found = _violations(six_tree, {"C": (3, 4)})
    assert [(v.condition, v.node) for v in found] == [("(i)", "C")]
    assert "spine anchor B" in found[0].message


def test_condition_i_not_imposed_on_minus_side(six_tree):
    # A is the minus child of the root: its alpha is free.
    assert _violations(six_tree, {"A": (3, 3), "1": (3, 3), "2": (3, 3)}) == ()


def test_condition_i_leaf(six_tree):
    found = _violations(six_tree, {"5": (3, 4)})
    assert ("(i)", "5") in {(v.condition, v.node) for v in found}


def test_condition_iii_monotone(six_tree):
    found = _violations(six_tree, {"3": (1, 1)})
    assert {(v.condition, v.node) for v in found} == {("(iii)", "3")}


def test_condition_iv_spine(six_tree):
    found = _violations(six_tree, {"B": (2, Fraction(5, 2)), "C": (2, 4), "D": (3, 3)})
    assert [(v.condition, v.node) for v in found] == [("(iv)", "B")]
    assert found[0].message == "condition (iv) at B: spine node has alpha 2 != beta 5/2"


def test_condition_nonnegative(six_tree):
    found = _violations(six_tree, {"I": (-1, -1)})
    assert any(v.condition == "nonnegative" and v.node == "I" for v in found)


def test_missing_annotation(six_tree):
    values = dict(SIX_LEAF_VALUES)
    del values["D"]
    with pytest.raises(MissingAnnotationError):
        validate_annotation(six_tree, annotation_from(values))


def test_build_matrix_rejects_invalid(six_tree):
    bad = annotation_from({**SIX_LEAF_VALUES, "A": (2, 1)})
    with pytest.raises(InvalidAnnotationError) as err:
        build_matrix(six_tree, bad)
    assert any(v.condition == "(ii)" for v in err.value.violations)


def test_every_public_entry_rejects_an_invalid_pair(six_tree):
    from rootlink import build_structure_sets, zero_pattern

    bad = annotation_from({**SIX_LEAF_VALUES, "A": (2, 1)})
    for _ in range(2):  # a failure is not remembered
        for entry in (build_matrix, build_structure_sets, zero_pattern):
            with pytest.raises(InvalidAnnotationError):
                entry(six_tree, bad)


def test_a_pair_is_validated_once(six_tree, monkeypatch):
    import rootlink.build as build_mod
    from rootlink import build_structure_sets, zero_pattern

    calls = []
    real = build_mod.validate_annotation
    monkeypatch.setattr(
        build_mod,
        "validate_annotation",
        lambda tree, annotation: calls.append(tree) or real(tree, annotation),
    )
    annotation = annotation_from(SIX_LEAF_VALUES)
    build_matrix(six_tree, annotation)
    build_structure_sets(six_tree, annotation)
    zero_pattern(six_tree, annotation)
    assert calls == [six_tree]
    # The same values on another tree object are validated again.
    other = build_tree(dict(six_tree.subtree_children("I")), "I")
    build_structure_sets(other, annotation)
    assert calls == [six_tree, other]


def test_restrict_spine_node(six_tm):
    sub = six_tm.restrict("B")
    assert sub.leaves == ("3", "4", "5", "6")
    assert sub.matrix == six_tm.matrix.submatrix([2, 3, 4, 5], [2, 3, 4, 5])
    # Spine restrictions coincide with a fresh build on the subtree.
    rebuilt = build_matrix(sub.tree, sub.annotation)
    assert rebuilt.matrix == sub.matrix


@pytest.mark.parametrize(
    "node,rows",
    [("A", [[3, 2], [3, 3]]), ("C", [[4, 2], [4, 4]])],
)
def test_restrict_off_spine(six_tm, node, rows):
    sub = six_tm.restrict(node)
    assert sub.matrix == RationalMatrix(rows)


def test_restrict_root_is_identity(six_tm):
    assert six_tm.restrict("I") is six_tm


def test_restrict_keeps_each_restriction(six_tm):
    for node in six_tm.tree.preorder:
        assert six_tm.restrict(node) is six_tm.restrict(node)


def test_restrict_unknown_node(six_tm):
    with pytest.raises(UnknownNodeError):
        six_tm.restrict("Z")


def test_off_spine_restriction_differs_from_rebuild():
    # The minus side of the root keeps the global fixed leaf's influence:
    # restricting is a principal submatrix, not a local rebuild.
    tm = instance(
        {"I": ("L", "4"), "L": ("x", "M"), "M": ("y", "z")},
        "I",
        {
            "I": (1, 1),
            "L": (2, 2),
            "M": (5, 5),
            "x": (7, 7),
            "y": (6, 6),
            "z": (9, 9),
            "4": (9, 9),
        },
    )
    sub = tm.restrict("L")
    rebuilt = build_matrix(sub.tree, sub.annotation)
    assert sub.matrix != rebuilt.matrix
    yx = (sub.tree.leaf_index("y"), sub.tree.leaf_index("x"))
    assert sub.matrix[yx] == 2  # global rule: beta at meet(y, n)'s depth
    assert rebuilt.matrix[yx] == 5  # local rule would use beta at M


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("strictness", ["lax", "strict"])
def test_random_instances_validate(seed, strictness):
    tree, annotation = random_instance(seed, 9, strictness)
    assert validate_annotation(tree, annotation) == ()
    assert 1 <= len(tree.leaf_order) <= 9


def test_random_instance_deterministic():
    a = random_instance(123, 8)
    b = random_instance(123, 8)
    assert a[0].preorder == b[0].preorder
    assert all(a[1].pair(n) == b[1].pair(n) for n in a[0].preorder)


def test_random_instance_min_leaves():
    for seed in range(10):
        tree, _ = random_instance(seed, 6, min_leaves=4)
        assert 4 <= len(tree.leaf_order) <= 6


def test_random_instance_flag_validation():
    with pytest.raises(ValueError):
        random_instance(0, 5, "loose")
    with pytest.raises(ValueError):
        random_instance(0, 3, min_leaves=7)


def test_strict_instances_usually_nonsingular():
    from rootlink.errors import SingularMatrixError

    singular = 0
    for seed in range(40):
        tree, annotation = random_instance(seed, 8, "strict")
        try:
            build_matrix(tree, annotation).matrix.inverse()
        except SingularMatrixError:
            singular += 1
    assert singular <= 4  # observed 0; generous slack, not a theorem
