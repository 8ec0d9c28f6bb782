"""The tree inverse against elimination, and the certificate against mutations."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from rootlink import (
    SingularMatrixError,
    TheoremMismatchError,
    build_matrix,
    build_report,
    random_instance,
    tree_masses,
)
from rootlink.treesolve import certify_inverse, tree_inverse, tree_pass

from conftest import SIX_LEAF_INVERSE_8X, annotated_trees, caterpillar, instance


def _agrees_with_elimination(tm) -> bool:
    """Tree inverse == Bareiss, certified; returns whether the draw is singular.

    A singular draw must make both raise, and the tree pass must name the
    node that :func:`tree_masses` names.
    """
    try:
        oracle = tm.matrix.inverse()
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError) as solved:
            tree_inverse(tm)
        with pytest.raises(SingularMatrixError) as masses:
            tree_masses(tm)
        assert str(solved.value) == str(masses.value)
        return True
    denom, nums = tree_inverse(tm)
    assert (denom, tuple(map(tuple, nums))) == oracle.integer_form()
    assert certify_inverse(tm, denom, nums) is None
    return False


@pytest.mark.parametrize("strictness", ["lax", "strict"])
def test_tree_inverse_matches_elimination_on_random_draws(strictness):
    singular = sum(
        _agrees_with_elimination(build_matrix(*random_instance(seed, 14, strictness)))
        for seed in range(500)
    )
    if strictness == "strict":
        assert singular == 0
    else:
        assert 0 < singular < 250  # ties make some lax draws singular


@pytest.mark.parametrize("leaves", [3, 9, 17, 61])
def test_tree_inverse_matches_elimination_on_caterpillars(leaves):
    for seed in range(2):
        assert not _agrees_with_elimination(caterpillar(leaves, seed))


@pytest.mark.parametrize("leaves", [32, 64])
def test_tree_inverse_matches_elimination_on_large_strict_draws(leaves):
    tm = build_matrix(*random_instance(leaves, leaves, "strict", min_leaves=leaves))
    assert not _agrees_with_elimination(tm)


def test_six_leaf_integer_form(six_tm):
    denom, nums = tree_inverse(six_tm)
    assert [[Fraction(x, denom) for x in row] for row in nums] == [
        [Fraction(x, 8) for x in row] for row in SIX_LEAF_INVERSE_8X
    ]


def test_single_leaf():
    tm = instance({}, "L", {"L": (3, 3)})
    assert tree_inverse(tm) == (3, [[1]])


def test_pass_below_a_node_reads_only_its_subtree(six_tm):
    below = tree_pass(six_tm, "B")
    assert set(below.det) == {"B", "C", "3", "4", "D", "5", "6"}
    assert below.masses() == {
        node: mass
        for node, mass in tree_pass(six_tm).masses().items()
        if node in below.det
    }


# -- the certificate -----------------------------------------------------------


@pytest.fixture(scope="module")
def strict_form():
    tm = build_matrix(*random_instance(7, 20, "strict", min_leaves=20))
    denom, nums = tree_inverse(tm)
    return tm, denom, nums


def test_certificate_accepts_the_inverse(six_tm, strict_form):
    assert certify_inverse(six_tm, *tree_inverse(six_tm)) is None
    assert certify_inverse(*strict_form) is None


def test_certificate_rejects_every_single_wrong_entry(six_tm):
    denom, nums = tree_inverse(six_tm)
    for i in range(len(nums)):
        for j in range(len(nums)):
            for delta in (1, -1):
                bad = [list(row) for row in nums]
                bad[i][j] += delta
                assert certify_inverse(six_tm, denom, bad) is not None


def test_certificate_rejects_wrong_entries_on_a_larger_instance(strict_form):
    tm, denom, nums = strict_form
    n = len(nums)
    for i, j in [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (n // 2, n // 3)]:
        bad = [list(row) for row in nums]
        bad[i][j] += 1
        assert certify_inverse(tm, denom, bad) is not None


def test_certificate_rejects_swapped_rows(strict_form):
    tm, denom, nums = strict_form
    for i, j in [(0, 1), (0, len(nums) - 1), (3, 11)]:
        bad = [list(row) for row in nums]
        bad[i], bad[j] = bad[j], bad[i]
        assert certify_inverse(tm, denom, bad) is not None


def test_certificate_rejects_wrong_signs(strict_form):
    tm, denom, nums = strict_form
    assert certify_inverse(tm, denom, [[-x for x in row] for row in nums]) is not None
    assert certify_inverse(tm, -denom, nums) is not None
    i, j = next((i, j) for i, row in enumerate(nums) for j, x in enumerate(row) if x)
    bad = [list(row) for row in nums]
    bad[i][j] = -bad[i][j]
    assert certify_inverse(tm, denom, bad) is not None


def test_certificate_rejects_a_wrong_denominator_or_shape(six_tm):
    denom, nums = tree_inverse(six_tm)
    assert certify_inverse(six_tm, denom + 1, nums) is not None
    assert certify_inverse(six_tm, 0, [[0] * 6 for _ in range(6)]) is not None
    assert certify_inverse(six_tm, denom, nums[:-1]) is not None


def test_certificate_names_the_wrong_entry(six_tm):
    denom, nums = tree_inverse(six_tm)
    bad = [list(row) for row in nums]
    bad[2][3] += 1
    assert certify_inverse(six_tm, denom, bad) == "(U @ N)[1][4] != 0"
    bad[2][3] -= 1
    bad[0][0] += 1
    assert certify_inverse(six_tm, denom, bad) == "(U @ N)[1][1] != L * d"


def test_report_raises_on_a_wrong_tree_inverse(six_tm, monkeypatch):
    import rootlink.report as report_mod

    real = report_mod.tree_inverse

    def wrong(tm):
        denom, nums = real(tm)
        nums[0][1] += 1
        return denom, nums

    monkeypatch.setattr(report_mod, "tree_inverse", wrong)
    with pytest.raises(TheoremMismatchError) as err:
        build_report(six_tm)
    text = str(err.value)
    assert "tree inverse fails its certificate: (U @ N)[" in text
    assert '"root": "I"' in text  # reproducer document embedded
    assert "inverse:" in text


# -- property: adversarial shapes and values -----------------------------------


@settings(max_examples=150)
@given(annotated_trees())
def test_tree_inverse_matches_elimination_property(tm):
    _agrees_with_elimination(tm)
