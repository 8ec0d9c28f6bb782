"""Report document assembly, rendering, and DOT export.

A report gathers every analysis for one instance into a plain dict whose
numbers are exact rational strings (floats appear only in the optional
Neumann gap diagnostics).  Rendering is deterministic: the same instance
and flags always produce byte-identical output.  The report takes its
inverse from the tree in O(n^2) (:func:`~rootlink.treesolve.tree_inverse`),
not from elimination, and certifies it with the exact product check
:func:`~rootlink.treesolve.certify_inverse`, also O(n^2).  The structural
verdicts read no inverse.  While the report is built, they, the
tree-recursion masses behind the exit inequality and the transition kernel
are checked against that one certified inverse.  Any disagreement, a
failed certificate included, raises
:class:`~rootlink.errors.TheoremMismatchError` carrying a counterexample
dump instead of emitting a wrong document.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Iterable, Optional

from .build import Annotation, TreeMatrix
from .errors import EtaTooSmallError, TheoremMismatchError
from .inverse import neumann_check, potentials, transition_kernel
from .links import link_matrix, zero_pattern
from .matrix import Rational, RationalMatrix
from .roots import StructureSets, build_structure_sets, roots_structural, roots_transpose
from .specfile import format_spec
from .tree import DyadicTree, TreeEdge
from .treesolve import certify_inverse, tree_inverse

__all__ = ["build_report", "render_report", "render_dot"]

_PLAIN_ID = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*|\d+)$")
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _counterexample(tm: TreeMatrix, rows: Iterable[Iterable], detail: str) -> str:
    lines = [
        "structural prediction disagrees with the exact inverse",
        detail,
        "instance:",
        format_spec(tm.tree, tm.annotation).rstrip("\n"),
        "inverse:",
    ]
    lines.extend("  " + " ".join(str(x) for x in row) for row in rows)
    return "\n".join(lines)


def _edge_list(edges: frozenset[TreeEdge], tree: DyadicTree) -> list[list[str]]:
    ordered = sorted(edges, key=tree.edge_key)
    return [[e.parent, e.child] for e in ordered]


def build_report(
    tm: TreeMatrix,
    eta: Optional[Rational] = None,
    neumann: Optional[int] = None,
) -> dict:
    """Assemble the full report document for one instance.

    Raises ``SingularMatrixError`` naming a node when the matrix is
    singular (exactly when some restriction is), ``EtaTooSmallError`` for
    an inadmissible ``eta``, and ``TheoremMismatchError`` when the tree
    inverse fails its certificate or any structural verdict, the exit
    identity or the kernel's sign shape disagrees with the inverse.
    An inverse that ``tm.matrix`` keeps is neither read nor replaced: the
    report always computes and certifies its own.
    """
    tree = tm.tree
    leaves = tm.leaves
    denom, nums = tree_inverse(tm)
    failure = certify_inverse(tm, denom, nums)
    if failure is not None:
        raise TheoremMismatchError(
            _counterexample(
                tm,
                nums,
                f"tree inverse fails its certificate: {failure}; "
                f"the inverse below is N with U^-1 = N / {denom}",
            )
        )
    # The structural verdicts below read no inverse; each is compared with this one.
    minv = RationalMatrix.from_integer_form(denom, nums)
    pot = potentials(minv)
    sets = build_structure_sets(tree, tm.annotation)
    structural = roots_structural(tm, sets)
    exit_report = structural.exit
    assert exit_report is not None  # the root restriction is the matrix itself
    if pot.mu[-1] != exit_report.lhs - exit_report.rhs:
        raise TheoremMismatchError(
            _counterexample(
                tm,
                minv.rows,
                f"fixed-leaf row sum {pot.mu[-1]} != "
                f"lhs - rhs = {exit_report.lhs} - {exit_report.rhs}",
            )
        )

    oracle_roots = frozenset(
        leaf for leaf, m in zip(leaves, pot.mu) if m > 0
    )
    if structural.roots != oracle_roots:
        raise TheoremMismatchError(
            _counterexample(
                tm,
                minv.rows,
                f"structural roots {sorted(structural.roots)} != "
                f"positive-mu leaves {sorted(oracle_roots)}",
            )
        )
    transpose = roots_transpose(tree, sets)
    oracle_transpose = frozenset(
        leaf for leaf, v in zip(leaves, pot.nu) if v > 0
    )
    if transpose != oracle_transpose:
        raise TheoremMismatchError(
            _counterexample(
                tm,
                minv.rows,
                f"structural transpose roots {sorted(transpose)} != "
                f"positive-nu leaves {sorted(oracle_transpose)}",
            )
        )

    link_report = link_matrix(tm, sets, minv)
    if not link_report.agrees:
        bad = link_report.mismatches[0]
        entry = minv[tree.leaf_index(bad.row), tree.leaf_index(bad.col)]
        raise TheoremMismatchError(
            _counterexample(
                tm,
                minv.rows,
                f"link verdict for ({bad.row}, {bad.col}) is {bad.linked} but "
                f"inverse entry is {entry} (matrix entry {bad.entry}); "
                "trace: " + "; ".join(bad.steps),
            )
        )

    pattern = zero_pattern(tree, tm.annotation)
    for i, j in sorted(pattern.predicted_zero_positions | pattern.triangular_zero_positions):
        if minv[i, j] != 0:
            raise TheoremMismatchError(
                _counterexample(
                    tm,
                    minv.rows,
                    f"predicted zero at ({leaves[i]}, {leaves[j]}) "
                    f"but inverse entry is {minv[i, j]}",
                )
            )

    try:
        kernel = transition_kernel(minv, eta)
    except EtaTooSmallError:
        raise
    except ValueError as exc:
        raise TheoremMismatchError(
            _counterexample(tm, minv.rows, f"transition kernel: {exc}")
        ) from exc

    doc: dict = {
        "leaves": list(leaves),
        "matrix": [[str(x) for x in row] for row in tm.matrix.rows],
        "inverse": [[str(x) for x in row] for row in minv.rows],
        "mu": [str(x) for x in pot.mu],
        "nu": [str(x) for x in pot.nu],
        "mu_bar": str(pot.mu_bar),
        "roots": sorted(structural.roots, key=tree.leaf_index),
        "roots_t": sorted(transpose, key=tree.leaf_index),
        "gamma": _edge_list(sets.gamma, tree),
        "gamma_t": _edge_list(sets.gamma_t, tree),
        "n_exiting": exit_report.exiting,
        "row_dominant": exit_report.row_dominant,
        "links": [
            list(pair)
            for pair in sorted(
                link_report.links,
                key=lambda p: (tree.leaf_index(p[0]), tree.leaf_index(p[1])),
            )
        ],
        "zero_blocks": [list(block) for block in pattern.blocks],
        "eta": str(kernel.eta),
    }
    if neumann is not None:
        result = neumann_check(tm, kernel, neumann)
        if not result.ok:
            raise TheoremMismatchError(
                _counterexample(tm, minv.rows, "; ".join(result.messages))
            )
        doc["neumann_steps"] = neumann
        doc["neumann_gaps"] = list(result.gaps)
    return doc


def _text_matrix(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    return [
        "  " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in rows
    ]


def _text_pairs(pairs: list[list[str]]) -> str:
    return " ".join(f"({a},{b})" for a, b in pairs) if pairs else "-"


def render_report(doc: dict, format: str = "json") -> str:
    """Render a report document as JSON or aligned text (both deterministic)."""
    if format == "json":
        return json.dumps(doc, indent=2) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    lines = [f"leaves: {' '.join(doc['leaves'])}"]
    lines.append("matrix:")
    lines.extend(_text_matrix(doc["matrix"]))
    lines.append("inverse:")
    lines.extend(_text_matrix(doc["inverse"]))
    lines.append(f"mu: {' '.join(doc['mu'])}")
    lines.append(f"nu: {' '.join(doc['nu'])}")
    lines.append(f"mu_bar: {doc['mu_bar']}")
    lines.append(f"roots: {' '.join(doc['roots']) or '-'}")
    lines.append(f"roots_t: {' '.join(doc['roots_t']) or '-'}")
    lines.append(f"gamma: {_text_pairs(doc['gamma'])}")
    lines.append(f"gamma_t: {_text_pairs(doc['gamma_t'])}")
    lines.append(f"n_exiting: {'true' if doc['n_exiting'] else 'false'}")
    lines.append(f"row_dominant: {'true' if doc['row_dominant'] else 'false'}")
    lines.append(f"links: {_text_pairs(doc['links'])}")
    lines.append(
        "zero_blocks: "
        + " ".join("[" + " ".join(block) + "]" for block in doc["zero_blocks"])
    )
    lines.append(f"eta: {doc['eta']}")
    if "neumann_gaps" in doc:
        lines.append(f"neumann_steps: {doc['neumann_steps']}")
        lines.append(
            "neumann_gaps: " + " ".join(repr(g) for g in doc["neumann_gaps"])
        )
    return "\n".join(lines) + "\n"


def _dot_id(name: str) -> str:
    if _PLAIN_ID.match(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def render_dot(
    tree: DyadicTree,
    annotation: Annotation,
    sets: Optional[StructureSets] = None,
) -> str:
    """Emit a deterministic DOT digraph of the annotated tree.

    Every node is labeled ``id (alpha,beta)``.  Minus edges are emitted
    first under ``ordering=out`` so they draw on the left.  Spine edges are
    bold, ``gamma`` membership is dashed red, ``gamma_t`` membership dotted
    blue; an edge in several classes gets quoted style/color lists.
    """
    if sets is None:
        sets = build_structure_sets(tree, annotation)
    spine = tree.spine()
    spine_edges = {
        TreeEdge(parent, child) for parent, child in zip(spine, spine[1:])
    }
    lines = ["digraph tree {", "  ordering=out;"]
    for node in tree.preorder:
        label = f"{node} ({annotation.alpha(node)},{annotation.beta(node)})"
        lines.append(f'  {_dot_id(node)} [label="{label}"];')
    for node in tree.preorder:
        for child in tree.children(node):
            edge = TreeEdge(node, child)
            styles = []
            colors = []
            if edge in spine_edges:
                styles.append("bold")
            if edge in sets.gamma:
                styles.append("dashed")
                colors.append("red")
            if edge in sets.gamma_t:
                styles.append("dotted")
                colors.append("blue")
            attrs = []
            if styles:
                joined = styles[0] if len(styles) == 1 else '"' + ",".join(styles) + '"'
                attrs.append(f"style={joined}")
            if colors:
                joined = colors[0] if len(colors) == 1 else '"' + ":".join(colors) + '"'
                attrs.append(f"color={joined}")
            suffix = f" [{','.join(attrs)}]" if attrs else ""
            lines.append(f"  {_dot_id(node)} -> {_dot_id(child)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
