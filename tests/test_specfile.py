"""Instance document parsing, formatting, and rejection rules."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from rootlink import SpecParseError, format_spec, parse_spec, validate_annotation
from rootlink.errors import FixedLeafNotRightmostError, MalformedTreeError
from rootlink.specfile import format_rational, parse_rational

SIX_LEAF_DOC = Path(__file__).resolve().parent.parent / "specs" / "six_leaf.json"


def test_sample_document_parses():
    tree, annotation = parse_spec(SIX_LEAF_DOC.read_text())
    assert tree.leaf_order == ("1", "2", "3", "4", "5", "6")
    assert tree.fixed_leaf == "6"
    assert annotation.pair("A") == (2, 3)
    assert validate_annotation(tree, annotation) == ()


def test_sample_document_roundtrip():
    text = SIX_LEAF_DOC.read_text()
    tree, annotation = parse_spec(text)
    assert format_spec(tree, annotation) == text


def test_format_then_parse_is_identity(six_tree, six_annotation):
    text = format_spec(six_tree, six_annotation)
    tree, annotation = parse_spec(text)
    assert tree.preorder == six_tree.preorder
    assert all(annotation.pair(n) == six_annotation.pair(n) for n in tree.preorder)
    assert format_spec(tree, annotation) == text


def test_fractional_values_roundtrip():
    doc = {
        "root": "I",
        "nodes": [
            {"id": "I", "minus": "a", "plus": "b", "alpha": "1/2", "beta": "1/2"},
            {"id": "a", "alpha": "3/4", "beta": "3/4"},
            {"id": "b", "alpha": 2, "beta": 2},
        ],
    }
    tree, annotation = parse_spec(json.dumps(doc))
    assert annotation.alpha("I") == Fraction(1, 2)
    reparsed = parse_spec(format_spec(tree, annotation))
    assert reparsed[1].pair("a") == (Fraction(3, 4), Fraction(3, 4))


@pytest.mark.parametrize(
    "value,expected",
    [(5, Fraction(5)), ("7/3", Fraction(7, 3)), ("-2", Fraction(-2)), (0, Fraction(0))],
)
def test_parse_rational(value, expected):
    assert parse_rational(value, "here") == expected


@pytest.mark.parametrize("value", [True, False, "1.5", "3/4/5", "", "a", None, [1], "1/0"])
def test_parse_rational_rejects(value):
    with pytest.raises(SpecParseError):
        parse_rational(value, "here")


@pytest.mark.parametrize(
    "value", ["1" * 5000, "1/" + "3" * 5000], ids=["numerator", "denominator"]
)
def test_parse_rational_rejects_too_many_digits(value):
    # Beyond int()'s 4300-digit conversion limit Fraction raises ValueError.
    with pytest.raises(SpecParseError, match="^here: .*4300"):
        parse_rational(value, "here")


@pytest.mark.parametrize(
    "value,expected", [(Fraction(3), 3), (Fraction(-1, 2), "-1/2"), (Fraction(4, 2), 2)]
)
def test_format_rational(value, expected):
    assert format_rational(value) == expected


def _doc(nodes, **top):
    return json.dumps({"root": "I", "nodes": nodes, **top})


GOOD_NODES = [
    {"id": "I", "minus": "1", "plus": "2", "alpha": 1, "beta": 1},
    {"id": "1", "alpha": 2, "beta": 2},
    {"id": "2", "alpha": 3, "beta": 3},
]


def test_minimal_document():
    tree, _ = parse_spec(_doc(GOOD_NODES))
    assert tree.leaf_order == ("1", "2")


def test_explicit_fixed_leaf_accepted():
    tree, _ = parse_spec(_doc(GOOD_NODES, fixed_leaf="2"))
    assert tree.fixed_leaf == "2"


def test_non_rightmost_fixed_leaf_rejected():
    with pytest.raises(FixedLeafNotRightmostError):
        parse_spec(_doc(GOOD_NODES, fixed_leaf="1"))


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",  # top level not an object
        '{"nodes": []}',  # missing root
        json.dumps({"root": "I", "nodes": []}),  # empty nodes
        json.dumps({"root": "", "nodes": [{"id": "I", "alpha": 1, "beta": 1}]}),
        json.dumps({"root": "I", "nodes": GOOD_NODES, "extra": 1}),  # unknown top key
        _doc([{**GOOD_NODES[0], "color": "red"}] + GOOD_NODES[1:]),  # unknown node key
        _doc(GOOD_NODES + [GOOD_NODES[1]]),  # duplicate id
        _doc([{"id": "I", "minus": "1", "alpha": 1, "beta": 1}] + GOOD_NODES[1:]),
        _doc([{"id": "I", "minus": "1", "plus": "2", "beta": 1}] + GOOD_NODES[1:]),
        _doc([dict(GOOD_NODES[0], alpha=1.5)] + GOOD_NODES[1:]),  # float via json
        _doc(GOOD_NODES[:2]),  # child "2" never declared
        _doc(GOOD_NODES + [{"id": "9", "alpha": 1, "beta": 1}]),  # disconnected
        json.dumps({"root": "I", "fixed_leaf": "", "nodes": GOOD_NODES}),
        '{"root": "I", "nodes": [{"id": "I", "alpha": 0.25, "beta": 1}]}',
    ],
)
def test_bad_documents_rejected(text):
    with pytest.raises(SpecParseError):
        parse_spec(text)


def test_overlong_integer_literal_is_a_parse_error():
    text = _doc(GOOD_NODES).replace('"alpha": 2', '"alpha": ' + "1" * 5000, 1)
    with pytest.raises(SpecParseError, match="invalid JSON: .*4300"):
        parse_spec(text)


def test_tree_level_problems_are_tree_errors():
    nodes = [
        {"id": "I", "minus": "1", "plus": "I", "alpha": 1, "beta": 1},
        {"id": "1", "alpha": 1, "beta": 1},
    ]
    with pytest.raises(MalformedTreeError):
        parse_spec(_doc(nodes))


def test_format_spec_layout(six_tree, six_annotation):
    text = format_spec(six_tree, six_annotation)
    doc = json.loads(text)
    assert list(doc) == ["root", "fixed_leaf", "nodes"]
    assert doc["fixed_leaf"] == "6"
    assert [n["id"] for n in doc["nodes"]] == list(six_tree.preorder)
    assert text.endswith("\n")
    assert json.dumps(doc, indent=2) + "\n" == text
