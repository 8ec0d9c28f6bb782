"""Structural link verdicts versus the exact inverse, and the block pattern."""

from __future__ import annotations

from fractions import Fraction

import pytest

import rootlink.links as links_mod
from rootlink import (
    SingularMatrixError,
    TheoremMismatchError,
    build_matrix,
    build_report,
    build_structure_sets,
    link_matrix,
    link_oracle,
    link_structural,
    random_instance,
    roots_structural,
    roots_transpose,
    zero_pattern,
)

from conftest import caterpillar, instance

SIX_LEAF_LINKS = {
    ("1", "2"),
    ("2", "1"),
    ("1", "6"),
    ("3", "6"),
    ("4", "3"),
    ("5", "6"),
    ("6", "2"),
    ("6", "4"),
    ("6", "5"),
}


@pytest.fixture(scope="module")
def six_sets(six_tree, six_annotation):
    return build_structure_sets(six_tree, six_annotation)


def test_link_oracle_reads_sign(six_inverse):
    assert link_oracle(six_inverse, 0, 1)
    assert not link_oracle(six_inverse, 0, 2)
    assert not link_oracle(six_inverse, 1, 5)  # exact zero entry


def test_six_leaf_links(six_tm):
    report = link_matrix(six_tm)
    assert report.agrees
    assert report.links == report.oracle_links == frozenset(SIX_LEAF_LINKS)
    assert len(report.traces) == 30  # all ordered pairs


@pytest.mark.parametrize(
    "row,col,rule,linked",
    [
        ("1", "2", "(ii.c)", True),  # off-spine meet A, strict climb
        ("1", "6", "(i.a)", True),  # spine meet, row exits its side
        ("2", "6", "(i.a)", False),  # row 2 blocked by the tie at A
        ("3", "6", "(i.a)", True),
        ("6", "2", "(i.b)", True),  # fixed-leaf row, transpose root column
        ("6", "1", "(i.b)", False),
        ("4", "3", "(ii.c)", True),  # lower pair at C
        ("2", "5", "(i.a)", False),  # spine meet but column is not the fixed leaf
    ],
)
def test_six_leaf_traces(six_tm, six_sets, row, col, rule, linked):
    trace = link_structural(six_tm, six_sets, row, col)
    assert trace.rule == rule
    assert trace.linked is linked


def _path_side_roots(tm, sets):
    """Per-node side roots from the per-leaf path tests of the roots module."""
    tree = tm.tree
    off_spine = [node for node in tree.preorder if not tree.on_spine(node)]
    return (
        {node: roots_structural(tm, sets, node).roots for node in off_spine},
        {node: roots_transpose(tree, sets, node) for node in off_spine},
    )


def _check_grouped_verdicts(tm) -> bool:
    """Per-meet verdicts == per-pair verdicts; False when the draw is singular."""
    try:
        tm.matrix.inverse()
    except SingularMatrixError:
        return False
    sets = build_structure_sets(tm.tree, tm.annotation)
    side_roots = _path_side_roots(tm, sets)
    assert links_mod._side_roots(tm.tree, sets) == side_roots
    report = link_matrix(tm, sets)
    for row in tm.leaves:
        for col in tm.leaves:
            if row != col:
                trace = link_structural(tm, sets, row, col, side_roots)
                assert ((row, col) in report.links) == trace.linked, (row, col)
    return True


def test_grouped_verdicts_match_per_pair_on_random_draws():
    checked = 0
    for seed in range(1000):
        strictness = "strict" if seed % 2 else "lax"
        checked += _check_grouped_verdicts(
            build_matrix(*random_instance(seed, 14, strictness))
        )
    assert 900 < checked < 1000  # lax ties make some draws singular


@pytest.mark.parametrize("leaves", [3, 9, 17])
def test_grouped_verdicts_match_per_pair_on_caterpillars(leaves):
    for seed in range(3):
        assert _check_grouped_verdicts(caterpillar(leaves, seed))


def test_link_structural_runs_only_on_mismatches(six_tm, monkeypatch):
    calls = []
    real = links_mod.link_structural

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(links_mod, "link_structural", counted)
    report = link_matrix(six_tm)
    assert report.agrees and calls == []
    assert len(report.traces) == 30 and len(calls) == 30  # traces on first read
    assert report.traces is report.traces and len(calls) == 30


def test_wrong_side_roots_raise_with_the_pair_trace(six_tm, monkeypatch):
    real = links_mod._side_roots

    def wrong(tree, sets):
        roots, roots_t = real(tree, sets)
        return roots, {**roots_t, "2": frozenset()}  # (1, 2) can no longer link

    monkeypatch.setattr(links_mod, "_side_roots", wrong)
    report = link_matrix(six_tm)
    assert [(t.row, t.col) for t in report.mismatches] == [("1", "2")]
    with pytest.raises(TheoremMismatchError) as err:
        build_report(six_tm)
    text = str(err.value)
    assert (
        "link verdict for (1, 2) is False but inverse entry is -1/2 "
        "(matrix entry 2); trace: column 2 is not a transpose root of side 2"
    ) in text
    assert '"root": "I"' in text


def test_trace_rejects_equal_leaves(six_tm, six_sets):
    with pytest.raises(ValueError):
        link_structural(six_tm, six_sets, "3", "3")


def test_three_leaf_strict_meet_links():
    tm = instance(
        {"I": ("t", "3"), "t": ("1", "2")},
        "I",
        {"I": (1, 1), "t": (2, 3), "1": (4, 4), "2": (4, 4), "3": (4, 4)},
    )
    minv = tm.matrix.inverse()
    assert minv[0, 1] == Fraction(-1, 7)
    assert link_matrix(tm).agrees


def test_three_leaf_tie_cancels():
    # alpha at the meet equals alpha at the anchor: the (ii.c) threshold
    # fails and the inverse entry is exactly zero.
    tm = instance(
        {"I": ("t", "3"), "t": ("1", "2")},
        "I",
        {"I": (1, 1), "t": (1, 3), "1": (4, 4), "2": (4, 4), "3": (4, 4)},
    )
    minv = tm.matrix.inverse()
    assert minv[0, 1] == 0
    report = link_matrix(tm)
    assert report.agrees
    trace = link_structural(tm, build_structure_sets(tm.tree, tm.annotation), "1", "2")
    assert trace.rule == "(ii.c)" and not trace.linked


FOUR_LEAF_CHILDREN = {"I": ("t", "4"), "t": ("s", "3"), "s": ("1", "2")}
FOUR_LEAF_BASE = {
    "I": (1, 1),
    "t": (2, 3),
    "s": (2, 3),
    "1": (4, 4),
    "2": (4, 4),
    "4": (5, 5),
}


def test_four_leaf_tie_blocked_by_opposite_side():
    # Climbing past t, the entry ties alpha(t) while beta(t) is attained by
    # leaf 3 on the opposite side: the contribution cancels exactly.
    tm = instance(FOUR_LEAF_CHILDREN, "I", {**FOUR_LEAF_BASE, "3": (3, 3)})
    assert tm.matrix.inverse()[0, 1] == 0
    assert link_matrix(tm).agrees
    trace = link_structural(tm, build_structure_sets(tm.tree, tm.annotation), "1", "2")
    assert trace.rule == "(ii.b)" and not trace.linked
    assert any("tie at t" in step for step in trace.steps)


def test_four_leaf_tie_survives():
    # Same tie, but beta(t) is not attained on the opposite side: the pair
    # stays linked and the entry is strictly negative.
    tm = instance(FOUR_LEAF_CHILDREN, "I", {**FOUR_LEAF_BASE, "3": (4, 4)})
    assert tm.matrix.inverse()[0, 1] == Fraction(-1, 15)
    assert link_matrix(tm).agrees
    trace = link_structural(tm, build_structure_sets(tm.tree, tm.annotation), "1", "2")
    assert trace.rule == "(ii.c)" and trace.linked


def test_zero_pattern_six_leaf(six_tm, six_inverse):
    pattern = zero_pattern(six_tm.tree, six_tm.annotation)
    assert pattern.blocks == (("1", "2"), ("3", "4"), ("5",), ("6",))
    assert pattern.block_count == 4
    assert pattern.predicted_zero_pairs == frozenset(
        {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}
    )
    assert pattern.triangular_blocks == (1, 2)
    assert (2, 3) in pattern.triangular_zero_positions  # upper part of block {3,4}
    # Ties like beta(1) = beta(A) break the strictness hypotheses here.
    assert not pattern.hypotheses_hold
    assert any("beta(1)" in msg for msg in pattern.hypothesis_failures)
    # Zero predictions hold unconditionally.
    for i, j in pattern.predicted_zero_positions | pattern.triangular_zero_positions:
        assert six_inverse[i, j] == 0


def test_zero_pattern_hypotheses_hold():
    tm = instance(
        {"I": ("t", "3"), "t": ("1", "2")},
        "I",
        {"I": (1, 1), "t": (2, 3), "1": (4, 4), "2": (5, 5), "3": (6, 6)},
    )
    pattern = zero_pattern(tm.tree, tm.annotation)
    assert pattern.hypotheses_hold
    minv = tm.matrix.inverse()
    for i, j in pattern.predicted_nonzero_positions:
        assert minv[i, j] != 0
    for i, j in pattern.predicted_zero_positions | pattern.triangular_zero_positions:
        assert minv[i, j] == 0


def test_zero_pattern_zero_alpha_root_excluded_from_last_column():
    # With alpha = 0 at the root, the first block's last-column entries are
    # exact zeros even though every strictness hypothesis holds, so they are
    # not predicted nonzero.
    tm = instance(
        {"t1": ("1", "t2"), "t2": ("2", "3")},
        "t1",
        {"t1": (0, 0), "1": (1, 1), "t2": (1, 1), "2": (6, 6), "3": ("19/4", "19/4")},
    )
    minv = tm.matrix.inverse()
    assert minv[0, 2] == 0
    pattern = zero_pattern(tm.tree, tm.annotation)
    assert pattern.hypotheses_hold
    assert (0, 2) not in pattern.predicted_nonzero_positions
    assert (1, 2) in pattern.predicted_nonzero_positions
    for i, j in pattern.predicted_nonzero_positions:
        assert minv[i, j] != 0
    assert link_matrix(tm).agrees


def test_zero_pattern_single_leaf():
    tm = instance({}, "L", {"L": (2, 2)})
    pattern = zero_pattern(tm.tree, tm.annotation)
    assert pattern.blocks == (("L",),)
    assert pattern.predicted_zero_pairs == frozenset()
    assert pattern.predicted_nonzero_positions == frozenset({(0, 0)})
