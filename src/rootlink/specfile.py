"""Reading and writing annotated-tree documents.

Documents are JSON objects::

    {
      "root": "I",
      "fixed_leaf": "6",          // optional; defaults to the rightmost leaf
      "nodes": [
        {"id": "I", "minus": "A", "plus": "B", "alpha": 1, "beta": 1},
        {"id": "1", "alpha": 3, "beta": 3},
        ...
      ]
    }

Rationals are encoded as integers or "p/q" strings with a positive
denominator.  Floating point literals are rejected outright: all downstream
predicates are exact equality and sign tests, and a float would silently
corrupt them.  ``minus`` and ``plus`` must be given together or not at all.

A document to report on must also fit the size budget of
:func:`check_budget`: at most :data:`MAX_LEAVES` leaves, and at most
:data:`MAX_VALUE_DIGITS` decimal digits in the values' common denominator
and in every value written over it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .build import Annotation, common_denominator
from .errors import SpecParseError
from .tree import DyadicTree, build_tree

__all__ = [
    "parse_spec",
    "format_spec",
    "parse_rational",
    "format_rational",
    "check_budget",
    "MAX_LEAVES",
    "MAX_VALUE_DIGITS",
]

# The report's size budget.  Hadamard's bound keeps the determinant and
# every adjugate entry of the integer matrix below 128 * (20 +
# log10(sqrt(128))) < 2,700 digits, so every number a report prints has
# fewer than 2,800 and stays under Python's 4,300-digit limit on
# integer-to-string conversion.  The largest reports in the budget take
# seconds and a few hundred MiB.
MAX_LEAVES = 128
MAX_VALUE_DIGITS = 20

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")
_NODE_KEYS = {"id", "minus", "plus", "alpha", "beta"}
_TOP_KEYS = {"root", "fixed_leaf", "nodes"}


def parse_rational(value: object, where: str) -> Fraction:
    """Decode an int or "p/q" string; anything else is a parse error."""
    if isinstance(value, bool):
        raise SpecParseError(f"{where}: expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise SpecParseError(
                f"{where}: expected an integer or 'p/q' string, got {value!r}"
            )
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise SpecParseError(f"{where}: zero denominator in {value!r}") from None
        except ValueError as exc:  # more digits than int() converts
            raise SpecParseError(f"{where}: {exc}") from None
    raise SpecParseError(f"{where}: expected a rational, got {value!r}")


def format_rational(value: Fraction) -> object:
    """Encode a Fraction as an int when possible, else a "p/q" string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _reject_float(literal: str) -> None:
    raise SpecParseError(
        f"floating point literal {literal!r} is not accepted; "
        "use an integer or a 'p/q' string"
    )


def parse_spec(text: str) -> tuple[DyadicTree, Annotation]:
    """Parse a document into a tree and its annotation.

    Schema problems raise :class:`SpecParseError`; structural problems in
    the described tree (missing children, a non-rightmost declared fixed
    leaf) propagate from :func:`~rootlink.tree.build_tree` as validation
    errors.
    """
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except SpecParseError:
        raise
    except ValueError as exc:  # bad syntax, or an integer with too many digits
        raise SpecParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SpecParseError("invalid JSON: arrays or objects nested too deeply") from None

    if not isinstance(doc, dict):
        raise SpecParseError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SpecParseError(f"unknown top-level keys: {sorted(unknown)}")
    root = doc.get("root")
    if not isinstance(root, str) or not root:
        raise SpecParseError("'root' must be a nonempty string")
    fixed_leaf = doc.get("fixed_leaf")
    if fixed_leaf is not None and (not isinstance(fixed_leaf, str) or not fixed_leaf):
        raise SpecParseError("'fixed_leaf' must be a nonempty string when present")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise SpecParseError("'nodes' must be a nonempty list")

    children: dict[str, tuple[str, str]] = {}
    alpha: dict[str, Fraction] = {}
    beta: dict[str, Fraction] = {}
    for pos, entry in enumerate(nodes):
        where = f"nodes[{pos}]"
        if not isinstance(entry, dict):
            raise SpecParseError(f"{where}: must be an object")
        unknown = set(entry) - _NODE_KEYS
        if unknown:
            raise SpecParseError(f"{where}: unknown keys: {sorted(unknown)}")
        node_id = entry.get("id")
        if not isinstance(node_id, str) or not node_id:
            raise SpecParseError(f"{where}: 'id' must be a nonempty string")
        if node_id in alpha:
            raise SpecParseError(f"{where}: duplicate node id {node_id!r}")
        has_minus = "minus" in entry
        has_plus = "plus" in entry
        if has_minus != has_plus:
            raise SpecParseError(
                f"{where}: 'minus' and 'plus' must be given together"
            )
        if has_minus:
            minus, plus = entry["minus"], entry["plus"]
            if not isinstance(minus, str) or not isinstance(plus, str):
                raise SpecParseError(f"{where}: children must be node id strings")
            children[node_id] = (minus, plus)
        if "alpha" not in entry or "beta" not in entry:
            raise SpecParseError(f"{where}: 'alpha' and 'beta' are required")
        alpha[node_id] = parse_rational(entry["alpha"], f"{where}.alpha")
        beta[node_id] = parse_rational(entry["beta"], f"{where}.beta")

    if root not in alpha:
        raise SpecParseError(f"root {root!r} is not among the declared nodes")
    for parent, kids in children.items():
        for kid in kids:
            if kid not in alpha:
                raise SpecParseError(
                    f"node {parent!r} references undeclared child {kid!r}"
                )

    tree = build_tree(children, root, fixed_leaf)
    extra = set(alpha) - set(tree.preorder)
    if extra:
        raise SpecParseError(f"nodes not connected to the tree: {sorted(extra)}")
    return tree, Annotation(alpha, beta)


def format_spec(tree: DyadicTree, annotation: Annotation) -> str:
    """Serialize deterministically (preorder nodes, stable key order)."""
    nodes = []
    for node in tree.preorder:
        entry: dict[str, object] = {"id": node}
        kids = tree.children(node)
        if kids:
            entry["minus"], entry["plus"] = kids
        entry["alpha"] = format_rational(annotation.alpha(node))
        entry["beta"] = format_rational(annotation.beta(node))
        nodes.append(entry)
    doc = {
        "root": tree.root,
        "fixed_leaf": tree.fixed_leaf,
        "nodes": nodes,
    }
    return json.dumps(doc, indent=2) + "\n"


def check_budget(tree: DyadicTree, annotation: Annotation) -> None:
    """Raise :class:`SpecParseError` unless the document fits the report budget.

    The budget is at most :data:`MAX_LEAVES` leaves, and at most
    :data:`MAX_VALUE_DIGITS` decimal digits in the common denominator ``L``
    of all values and in every numerator over ``L``: the entries of the
    integer matrix ``L * U`` that the report inverts.
    """
    leaves = len(tree.leaf_order)
    if leaves > MAX_LEAVES:
        raise SpecParseError(
            f"over the report budget: {leaves} leaves, at most {MAX_LEAVES}"
        )
    bound = 10**MAX_VALUE_DIGITS
    denom = common_denominator(tree, annotation)
    if denom >= bound:
        raise SpecParseError(
            "over the report budget: the values' common denominator has "
            f"more than {MAX_VALUE_DIGITS} digits"
        )
    for node in tree.preorder:
        for x in annotation.pair(node):
            if abs(x.numerator) * (denom // x.denominator) >= bound:
                raise SpecParseError(
                    f"over the report budget: the value at node {node!r} has "
                    f"more than {MAX_VALUE_DIGITS} digits over the common "
                    "denominator"
                )
