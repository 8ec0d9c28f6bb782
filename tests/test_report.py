"""Report document content, deterministic rendering, and DOT export."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from rootlink import (
    TheoremMismatchError,
    build_matrix,
    build_report,
    render_dot,
    render_report,
)

from conftest import SIX_LEAF_VALUES, annotation_from, instance


@pytest.fixture(scope="module")
def six_report(six_tm):
    return build_report(six_tm)


def test_report_fields(six_report):
    assert six_report["leaves"] == ["1", "2", "3", "4", "5", "6"]
    assert six_report["matrix"][0] == ["3", "2", "1", "1", "1", "1"]
    assert six_report["inverse"][0] == ["1", "-1/2", "0", "0", "0", "-1/8"]
    assert six_report["inverse"][5] == ["0", "-1/2", "0", "-1/2", "-1", "11/8"]
    assert six_report["mu"] == ["3/8", "0", "1/4", "0", "1/4", "-5/8"]
    assert six_report["nu"] == ["0", "0", "0", "0", "0", "1/4"]
    assert six_report["mu_bar"] == "1/4"
    assert six_report["roots"] == ["1", "3", "5"]
    assert six_report["roots_t"] == ["6"]
    assert six_report["gamma"] == [["A", "2"], ["C", "4"]]
    assert six_report["gamma_t"] == [
        ["I", "A"],
        ["A", "1"],
        ["B", "C"],
        ["C", "3"],
        ["D", "5"],
    ]
    assert six_report["n_exiting"] is False
    assert six_report["row_dominant"] is False
    assert six_report["links"] == [
        ["1", "2"],
        ["1", "6"],
        ["2", "1"],
        ["3", "6"],
        ["4", "3"],
        ["5", "6"],
        ["6", "2"],
        ["6", "4"],
        ["6", "5"],
    ]
    assert six_report["zero_blocks"] == [["1", "2"], ["3", "4"], ["5"], ["6"]]
    assert six_report["eta"] == "11/8"
    assert "neumann_gaps" not in six_report


def test_report_neumann_and_eta(six_tm):
    doc = build_report(six_tm, eta="3/2", neumann=5)
    assert doc["eta"] == "3/2"
    assert doc["neumann_steps"] == 5
    assert len(doc["neumann_gaps"]) == 6
    assert all(isinstance(g, float) for g in doc["neumann_gaps"])


def test_report_json_roundtrip_and_determinism(six_tm, six_report):
    text = render_report(six_report, "json")
    assert json.loads(text) == six_report
    assert render_report(build_report(six_tm), "json") == text
    assert text.endswith("\n")


def test_report_text_format(six_report):
    text = render_report(six_report, "text")
    lines = text.splitlines()
    assert lines[0] == "leaves: 1 2 3 4 5 6"
    assert "matrix:" in lines and "inverse:" in lines
    assert "mu: 3/8 0 1/4 0 1/4 -5/8" in lines
    assert "roots: 1 3 5" in lines
    assert "gamma: (A,2) (C,4)" in lines
    assert "links: (1,2) (1,6) (2,1) (3,6) (4,3) (5,6) (6,2) (6,4) (6,5)" in lines
    assert "zero_blocks: [1 2] [3 4] [5] [6]" in lines
    assert "eta: 11/8" in lines


def test_report_text_empty_lists_render_dash():
    tm = instance({}, "L", {"L": (2, 2)})
    text = render_report(build_report(tm), "text")
    assert "links: -" in text
    assert "gamma: -" in text
    assert "roots: L" in text


def test_render_report_unknown_format(six_report):
    with pytest.raises(ValueError):
        render_report(six_report, "yaml")


def test_report_on_a_fresh_matrix_runs_no_elimination(
    six_tree, six_annotation, monkeypatch
):
    import rootlink.kernels as kernels

    tm = build_matrix(six_tree, six_annotation)
    calls = []
    real = kernels.inverse_scaled
    monkeypatch.setattr(
        kernels, "inverse_scaled", lambda a: calls.append(len(a)) or real(a)
    )
    build_report(tm, neumann=2)
    assert calls == []


def test_report_leaves_the_kept_inverse_alone(six_tree, six_annotation):
    tm = build_matrix(six_tree, six_annotation)
    build_report(tm)
    assert tm.matrix._inv is None  # the report kept its inverse to itself
    kept = tm.matrix.inverse()
    assert build_report(tm)["inverse"] == [[str(x) for x in row] for row in kept.rows]
    assert tm.matrix.inverse() is kept


def test_report_validates_once(six_tree, monkeypatch):
    import rootlink.build as build_mod

    six_annotation = annotation_from(SIX_LEAF_VALUES)  # not yet validated

    calls = []
    real = build_mod.validate_annotation
    monkeypatch.setattr(
        build_mod,
        "validate_annotation",
        lambda tree, annotation: calls.append(tree) or real(tree, annotation),
    )
    build_report(build_matrix(six_tree, six_annotation))
    assert len(calls) == 1


def test_report_mismatch_carries_counterexample(six_tm, monkeypatch):
    import rootlink.report as report_mod

    monkeypatch.setattr(
        report_mod, "roots_transpose", lambda tree, sets: frozenset({"1"})
    )
    with pytest.raises(TheoremMismatchError) as err:
        build_report(six_tm)
    text = str(err.value)
    assert "disagrees with the exact inverse" in text
    assert '"root": "I"' in text  # reproducer document embedded
    assert "inverse:" in text


def test_report_exit_identity_checks_the_recursion(six_tm, monkeypatch):
    import rootlink.roots as roots_mod

    real = roots_mod.tree_masses

    def skewed(tm, node=None):
        masses = real(tm, node)
        masses[tm.fixed_leaf] *= 2  # lhs 1/2, and the last spine term moves
        return masses

    monkeypatch.setattr(roots_mod, "tree_masses", skewed)
    with pytest.raises(TheoremMismatchError) as err:
        build_report(six_tm)
    text = str(err.value)
    assert "fixed-leaf row sum -5/8 != lhs - rhs = 1/2 - 1/8" in text
    assert '"root": "I"' in text
    assert "inverse:" in text


def test_report_kernel_value_error_carries_counterexample(six_tm, monkeypatch):
    import rootlink.report as report_mod

    def bad_kernel(minv, eta=None):
        raise ValueError("kernel column 0 sums to 2 > 1")

    monkeypatch.setattr(report_mod, "transition_kernel", bad_kernel)
    with pytest.raises(TheoremMismatchError) as err:
        build_report(six_tm)
    text = str(err.value)
    assert "transition kernel: kernel column 0 sums to 2 > 1" in text
    assert '"root": "I"' in text
    assert "inverse:" in text


def test_report_zero_check_reads_the_links(six_tm, monkeypatch):
    import rootlink.report as report_mod

    real = report_mod.link_matrix

    def extra_link(tm, sets, minv):
        report = real(tm, sets, minv)
        return replace(report, links=report.links | {("1", "3")})

    # (1, 3) lies in a predicted zero block and its inverse entry is 0, so
    # only a check against the links catches the extra link.
    monkeypatch.setattr(report_mod, "link_matrix", extra_link)
    with pytest.raises(TheoremMismatchError) as err:
        build_report(six_tm)
    text = str(err.value)
    assert "predicted zero at (1, 3) but inverse entry is 0" in text
    assert "inverse:" in text


def test_dot_six_leaf(six_tree, six_annotation):
    dot = render_dot(six_tree, six_annotation)
    lines = dot.splitlines()
    assert lines[0] == "digraph tree {"
    assert lines[1] == "  ordering=out;"
    assert lines[-1] == "}"
    assert '  I [label="I (1,1)"];' in lines
    assert '  A [label="A (2,3)"];' in lines
    # Node statements precede edges, in preorder.
    assert lines[2].startswith("  I [")
    # Spine edges bold; edge-set members dashed red / dotted blue.
    assert "  I -> B [style=bold];" in lines
    assert "  B -> D [style=bold];" in lines
    assert "  D -> 6 [style=bold];" in lines
    assert "  A -> 2 [style=dashed,color=red];" in lines
    assert "  C -> 4 [style=dashed,color=red];" in lines
    assert "  I -> A [style=dotted,color=blue];" in lines
    assert "  A -> 1 [style=dotted,color=blue];" in lines
    # Minus edge emitted before plus edge for each parent.
    assert lines.index("  I -> A [style=dotted,color=blue];") < lines.index(
        "  I -> B [style=bold];"
    )


def test_dot_multi_class_edges():
    tree_children = {"I": ("1", "2")}
    values = {"I": (2, 2), "1": (2, 2), "2": (2, 2)}
    from rootlink.tree import build_tree

    dot = render_dot(build_tree(tree_children, "I"), annotation_from(values))
    assert '  I -> 1 [style="dashed,dotted",color="red:blue"];' in dot
    assert '  I -> 2 [style="bold,dashed",color=red];' in dot


def test_dot_plain_edges_have_no_brackets():
    tm = instance(
        {"I": ("t", "3"), "t": ("1", "2")},
        "I",
        {"I": (1, 1), "t": (2, 3), "1": (4, 4), "2": (5, 5), "3": (6, 6)},
    )
    dot = render_dot(tm.tree, tm.annotation)
    assert "  t -> 1;" in dot


def test_dot_quotes_awkward_ids():
    tm = instance(
        {"graph": ("a-b", "x")},
        "graph",
        {"graph": (1, 1), "a-b": (2, 2), "x": (2, 2)},
    )
    dot = render_dot(tm.tree, tm.annotation)
    assert '"graph"' in dot  # DOT keyword must be quoted
    assert '"a-b"' in dot  # non-identifier characters
    assert "\n  x [" in dot  # plain ids stay bare


def test_dot_is_deterministic(six_tree, six_annotation):
    assert render_dot(six_tree, six_annotation) == render_dot(
        six_tree, six_annotation
    )
