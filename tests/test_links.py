"""Structural link verdicts versus the exact inverse, and the block pattern."""

from __future__ import annotations

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

import rootlink.links as links_mod
from rootlink import (
    SingularMatrixError,
    TheoremMismatchError,
    build_matrix,
    build_report,
    build_structure_sets,
    format_spec,
    link_matrix,
    link_structural,
    parse_spec,
    random_instance,
    zero_pattern,
)

from conftest import annotated_trees, caterpillar, instance, path_test_sets

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


def links_of(tm):
    """``link_matrix`` against the elimination inverse, with fresh sets."""
    sets = build_structure_sets(tm.tree, tm.annotation)
    return link_matrix(tm, sets, tm.matrix.inverse())


def all_traces(tm, sets):
    """Every ordered pair's trace in row-major leaf order."""
    return [
        links_mod.link_structural(tm, sets, row, col)
        for row in tm.leaves
        for col in tm.leaves
        if row != col
    ]


def test_six_leaf_links(six_tm, six_sets):
    report = links_of(six_tm)
    assert report.agrees
    assert report.links == frozenset(SIX_LEAF_LINKS)
    minv = six_tm.matrix.inverse()
    leaves = six_tm.leaves
    negative = {
        (row, col)
        for i, row in enumerate(leaves)
        for j, col in enumerate(leaves)
        if minv[i, j] < 0
    }
    assert negative == SIX_LEAF_LINKS
    traces = all_traces(six_tm, six_sets)
    assert len(traces) == 30  # all ordered pairs
    assert {(t.row, t.col) for t in traces if t.linked} == SIX_LEAF_LINKS


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


def _check_grouped_verdicts(tm):
    """Per-meet verdicts == per-pair verdicts; the links, or None when singular.

    The side roots the links read are also compared with the per-leaf
    path-test reference at every node.
    """
    try:
        tm.matrix.inverse()
    except SingularMatrixError:
        return None
    sets = build_structure_sets(tm.tree, tm.annotation)
    assert (sets.roots, sets.roots_t) == path_test_sets(tm.tree, sets)[:2]
    report = link_matrix(tm, sets, tm.matrix.inverse())
    for row in tm.leaves:
        for col in tm.leaves:
            if row != col:
                trace = link_structural(tm, sets, row, col)
                assert ((row, col) in report.links) == trace.linked, (row, col)
    return report.links


# sha256 of "seed row col" lines, links in row-major leaf order, over the
# nonsingular draws below: any changed link verdict on this corpus moves it.
CORPUS_LINKS_DIGEST = "6c9f7b8c56f3cdb67cb2cb7d834013c58de5901df7cb714e3454bf32f9023ff4"


def test_grouped_verdicts_match_per_pair_on_random_draws():
    checked = 0
    digest = hashlib.sha256()
    for seed in range(1000):
        strictness = "strict" if seed % 2 else "lax"
        tm = build_matrix(*random_instance(seed, 14, strictness))
        links = _check_grouped_verdicts(tm)
        if links is None:
            continue
        checked += 1
        index = tm.tree.leaf_index
        for row, col in sorted(links, key=lambda p: (index(p[0]), index(p[1]))):
            digest.update(f"{seed} {row} {col}\n".encode())
    assert 900 < checked < 1000  # lax ties make some draws singular
    assert digest.hexdigest() == CORPUS_LINKS_DIGEST


@pytest.mark.parametrize("leaves", [3, 9, 17])
def test_grouped_verdicts_match_per_pair_on_caterpillars(leaves):
    for seed in range(3):
        assert _check_grouped_verdicts(caterpillar(leaves, seed)) is not None


def test_link_structural_runs_only_on_mismatches(six_tm, six_sets, monkeypatch):
    calls = []
    real = links_mod.link_structural

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(links_mod, "link_structural", counted)
    assert links_of(six_tm).agrees and calls == []
    wrong = replace(six_sets, roots_t={**six_sets.roots_t, "2": frozenset()})
    report = link_matrix(six_tm, wrong, six_tm.matrix.inverse())
    assert calls == [("1", "2")] == [(t.row, t.col) for t in report.mismatches]
    assert len(all_traces(six_tm, six_sets)) == 30 and len(calls) == 31


def test_wrong_side_roots_raise_with_the_pair_trace(six_tm, monkeypatch):
    import rootlink.report as report_mod

    real = report_mod.build_structure_sets

    def wrong(tree, annotation):
        sets = real(tree, annotation)
        # (1, 2) can no longer link
        return replace(sets, roots_t={**sets.roots_t, "2": frozenset()})

    monkeypatch.setattr(report_mod, "build_structure_sets", wrong)
    report = link_matrix(
        six_tm, wrong(six_tm.tree, six_tm.annotation), six_tm.matrix.inverse()
    )
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
    assert links_of(tm).agrees


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
    assert links_of(tm).agrees
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
    assert links_of(tm).agrees
    trace = link_structural(tm, build_structure_sets(tm.tree, tm.annotation), "1", "2")
    assert trace.rule == "(ii.b)" and not trace.linked
    assert any("tie at t" in step for step in trace.steps)


def test_four_leaf_tie_survives():
    # Same tie, but beta(t) is not attained on the opposite side: the pair
    # stays linked and the entry is strictly negative.
    tm = instance(FOUR_LEAF_CHILDREN, "I", {**FOUR_LEAF_BASE, "3": (4, 4)})
    assert tm.matrix.inverse()[0, 1] == Fraction(-1, 15)
    assert links_of(tm).agrees
    trace = link_structural(tm, build_structure_sets(tm.tree, tm.annotation), "1", "2")
    assert trace.rule == "(ii.c)" and trace.linked


def test_zero_pattern_six_leaf(six_tm, six_inverse):
    pattern = zero_pattern(six_tm.tree, six_tm.annotation)
    assert pattern.blocks == (("1", "2"), ("3", "4"), ("5",), ("6",))
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
    assert links_of(tm).agrees


@settings(max_examples=150)
@given(annotated_trees())
def test_links_and_zero_pattern_match_elimination_property(tm):
    text = format_spec(tm.tree, tm.annotation)
    assert format_spec(*parse_spec(text)) == text
    try:
        minv = tm.matrix.inverse()
    except SingularMatrixError:
        return
    report = links_of(tm)
    assert report.agrees
    pattern = zero_pattern(tm.tree, tm.annotation)
    leaves = tm.leaves
    for i, j in pattern.predicted_zero_positions | pattern.triangular_zero_positions:
        assert minv[i, j] == 0
        assert (leaves[i], leaves[j]) not in report.links
    if pattern.hypotheses_hold:
        for i, j in pattern.predicted_nonzero_positions:
            assert minv[i, j] != 0


def test_zero_pattern_single_leaf():
    tm = instance({}, "L", {"L": (2, 2)})
    pattern = zero_pattern(tm.tree, tm.annotation)
    assert pattern.blocks == (("L",),)
    assert pattern.predicted_zero_pairs == frozenset()
    assert pattern.predicted_nonzero_positions == frozenset({(0, 0)})
