"""Randomized self-test: every structural claim against the exact inverse.

The harness generates annotated trees, inverts them exactly, and checks
every invariant the package relies on — tree geometry, matrix shape,
potentials, tree-recursion masses, Schur assembly, exit inequalities, root
sets, link verdicts, zero patterns, kernels, and document round-trips.
Each suite reads its instance through one
:class:`~rootlink.inverse.RestrictionCache`; the library calls it makes
share that instance's restrictions and inverses, so each node's
restriction is inverted at most once.  The report computes its own
certified tree inverse, which the report suite compares with the
elimination inverse.  Singular draws are counted and skipped (the
structural theorems all hypothesize a nonsingular matrix).  Failures carry
a reproducer document, minimized by re-running the failing suite on
successively smaller spine restrictions.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .build import (
    Annotation,
    build_matrix,
    random_instance,
    validate_annotation,
)
from .errors import SingularMatrixError
from .inverse import (
    RestrictionCache,
    diagonal_mass_bounds,
    neumann_check,
    schur_blocks,
    transition_kernel,
    verify_mass_recursion,
)
from .links import link_matrix, zero_pattern
from .report import build_report, render_report
from .roots import (
    dominance_screens,
    fixed_leaf_exit,
    roots_structural,
    roots_transpose,
    tree_masses,
)
from .specfile import format_spec, parse_spec
from .tree import DyadicTree, build_tree

__all__ = [
    "SuiteCount",
    "SelftestFailure",
    "SelftestOutcome",
    "run_selftest",
    "regression_instances",
]


def _singular(ctx: RestrictionCache) -> bool:
    try:
        ctx.inverse(ctx.tm.tree.root)
    except SingularMatrixError:
        return True
    return False


# ---------------------------------------------------------------------------
# suites: each returns a list of violation messages (empty = pass)


def _suite_tree_geodesic(ctx: RestrictionCache) -> list[str]:
    tree = ctx.tm.tree
    out = []
    for leaf in tree.leaf_order:
        edges = tree.geodesic_edges(leaf, tree.root)
        if len(edges) != tree.depth(leaf):
            out.append(f"path to {leaf} has {len(edges)} edges, depth {tree.depth(leaf)}")
        for edge in edges:
            if not tree.is_ancestor(edge.parent, leaf):
                out.append(f"edge {edge} on path to {leaf} has a non-ancestor parent")
    return out


def _suite_tree_lca(ctx: RestrictionCache) -> list[str]:
    tree = ctx.tm.tree
    out = []
    nodes = tree.preorder
    for a in nodes:
        if tree.lca(a, a) != a:
            out.append(f"lca({a},{a}) != {a}")
        for b in nodes:
            m = tree.lca(a, b)
            if m != tree.lca(b, a):
                out.append(f"lca not commutative on ({a},{b})")
            if not (tree.is_ancestor(m, a) and tree.is_ancestor(m, b)):
                out.append(f"lca({a},{b}) = {m} not a common ancestor")
    return out


def _suite_tree_leaf_split(ctx: RestrictionCache) -> list[str]:
    tree = ctx.tm.tree
    out = []
    for node in tree.internal_nodes():
        minus, plus = tree.children(node)
        merged = tree.leaves_below(minus) + tree.leaves_below(plus)
        if merged != tree.leaves_below(node):
            out.append(f"leaf split at {node} is not an ordered partition")
    return out


def _suite_tree_spine(ctx: RestrictionCache) -> list[str]:
    tree = ctx.tm.tree
    out = []
    for node in tree.spine()[:-1]:
        if tree.fixed_leaf not in tree.leaves_below(tree.plus(node)):
            out.append(f"fixed leaf missing from plus subtree of spine node {node}")
    return out


def _suite_annotation_valid(ctx: RestrictionCache) -> list[str]:
    return [str(v) for v in validate_annotation(ctx.tm.tree, ctx.tm.annotation)]


def _suite_ultrametric(ctx: RestrictionCache) -> list[str]:
    # Compared on the integer form: one positive scale keeps every verdict.
    _, m = ctx.tm.matrix.integer_form()
    n = len(m)
    for i in range(n):
        row = m[i]
        for j in range(n):
            bound = row[j]
            for k in range(n):
                if min(row[k], m[k][j]) > bound:
                    return [f"entry ({i},{j}) below min via {k}"]
    return []


def _suite_root_split_shape(ctx: RestrictionCache) -> list[str]:
    tree = ctx.tm.tree
    m = ctx.tm.matrix
    out = []
    minus, plus = tree.children(tree.root)
    jlo, jhi = tree.leaf_span(minus)
    klo, khi = tree.leaf_span(plus)
    alpha = ctx.tm.alpha(tree.root)
    last = m.ncols - 1
    for i in range(jlo, jhi):
        for j in range(klo, khi):
            if m[i, j] != alpha:
                out.append(f"upper-right entry ({i},{j}) is {m[i, j]}, not {alpha}")
    for i in range(klo, khi):
        for j in range(jlo, jhi):
            if m[i, j] != m[i, last]:
                out.append(f"lower-left entry ({i},{j}) differs from last column")
    return out


def _suite_diagonal_rule(ctx: RestrictionCache) -> list[str]:
    m = ctx.tm.matrix
    out = []
    for i, leaf in enumerate(ctx.tm.leaves):
        if m[i, i] != ctx.tm.alpha(leaf):
            out.append(f"diagonal at {leaf} is {m[i, i]}")
    last = m.nrows - 1
    for j in range(m.ncols):
        if m[last, j] != m[last, last]:
            out.append("fixed-leaf row is not constant")
            break
    return out


def _suite_restrict_commutes(ctx: RestrictionCache) -> list[str]:
    out = []
    tree = ctx.tm.tree
    for node in tree.spine():
        if tree.is_leaf(node):
            continue
        sub = ctx.restricted(node)
        rebuilt = build_matrix(sub.tree, sub.annotation)
        if sub.matrix != rebuilt.matrix:
            out.append(f"restriction at spine node {node} differs from a rebuild")
    return out


def _suite_document_roundtrip(ctx: RestrictionCache) -> list[str]:
    tree, annotation = ctx.tm.tree, ctx.tm.annotation
    text = format_spec(tree, annotation)
    tree2, ann2 = parse_spec(text)
    out = []
    if tree2.preorder != tree.preorder:
        out.append("preorder changed across a document round-trip")
    elif any(tree2.children(n) != tree.children(n) for n in tree.preorder):
        out.append("child structure changed across a document round-trip")
    if ann2 != annotation:
        out.append("annotation changed across a document round-trip")
    if format_spec(tree2, ann2) != text:
        out.append("document serialization is not a fixpoint")
    return out


def _suite_inverse_sign(ctx: RestrictionCache) -> list[str]:
    root = ctx.tm.tree.root
    minv = ctx.inverse(root)
    out = []
    for i in range(minv.nrows):
        if minv[i, i] <= 0:
            out.append(f"inverse diagonal at {i} is {minv[i, i]}")
        for j in range(minv.ncols):
            if i != j and minv[i, j] > 0:
                out.append(f"inverse off-diagonal ({i},{j}) is positive: {minv[i, j]}")
    for j, v in enumerate(ctx.potential(root).nu):
        if v < 0:
            out.append(f"column sum {j} is negative: {v}")
    return out


def _suite_potential_identities(ctx: RestrictionCache) -> list[str]:
    m = ctx.tm.matrix
    pot = ctx.potential(ctx.tm.tree.root)
    last = m[-1, -1]
    out = []
    expected_nu = tuple(
        Fraction(0) if j < m.ncols - 1 else 1 / last for j in range(m.ncols)
    )
    if pot.nu != expected_nu:
        out.append(f"nu = {pot.nu} is not concentrated on the fixed leaf")
    if pot.mu_bar != 1 / last:
        out.append(f"total mass {pot.mu_bar} != 1/{last}")
    for i, v in enumerate(pot.mu[:-1]):
        if v < 0:
            out.append(f"mu[{i}] = {v} negative off the fixed leaf")
    return out


def _suite_restrictions_nonsingular(ctx: RestrictionCache) -> list[str]:
    out = []
    for node in ctx.tm.tree.preorder:
        try:
            ctx.inverse(node)
        except SingularMatrixError as exc:
            out.append(str(exc))
    return out


def _suite_schur_assembly(ctx: RestrictionCache) -> list[str]:
    try:
        schur_blocks(ctx.tm)
    except (SingularMatrixError, AssertionError, ArithmeticError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
    return []


def _suite_mass_recursion(ctx: RestrictionCache) -> list[str]:
    report = verify_mass_recursion(ctx.tm)
    return list(report.messages)


def _suite_mass_recursion_per_node(ctx: RestrictionCache) -> list[str]:
    return [
        f"recursion mass at {node} is {mass}, oracle {ctx.mass(node)}"
        for node, mass in tree_masses(ctx.tm).items()
        if mass != ctx.mass(node)
    ]


def _suite_exit_identity(ctx: RestrictionCache) -> list[str]:
    report = fixed_leaf_exit(ctx.tm)
    row_sum = ctx.potential(ctx.tm.tree.root).mu[-1]
    if row_sum != report.lhs - report.rhs:
        return [
            f"fixed-leaf row sum {row_sum} != "
            f"lhs - rhs = {report.lhs} - {report.rhs}"
        ]
    return []


def _suite_structural_roots(ctx: RestrictionCache) -> list[str]:
    verdict = roots_structural(ctx.tm, ctx.sets)
    mu = ctx.potential(ctx.tm.tree.root).mu
    oracle = frozenset(leaf for leaf, v in zip(ctx.tm.leaves, mu) if v > 0)
    if verdict.roots != oracle:
        return [f"roots {sorted(verdict.roots)} != oracle {sorted(oracle)}"]
    return []


def _suite_structural_roots_per_node(ctx: RestrictionCache) -> list[str]:
    out = []
    tree = ctx.tm.tree
    for node in tree.preorder:
        verdict = roots_structural(ctx.tm, ctx.sets, node)
        pot = ctx.potential(node)
        leaves = tree.leaves_below(node)
        oracle = frozenset(leaf for leaf, v in zip(leaves, pot.mu) if v > 0)
        if verdict.roots != oracle:
            out.append(
                f"roots at {node}: {sorted(verdict.roots)} != oracle {sorted(oracle)}"
            )
    return out


def _suite_transpose_roots_per_node(ctx: RestrictionCache) -> list[str]:
    out = []
    tree = ctx.tm.tree
    for node in tree.preorder:
        verdict = roots_transpose(tree, ctx.sets, node)
        pot = ctx.potential(node)
        leaves = tree.leaves_below(node)
        oracle = frozenset(leaf for leaf, v in zip(leaves, pot.nu) if v > 0)
        if verdict != oracle:
            out.append(
                f"transpose roots at {node}: {sorted(verdict)} != oracle {sorted(oracle)}"
            )
    return out


def _suite_transpose_root_fixed(ctx: RestrictionCache) -> list[str]:
    verdict = roots_transpose(ctx.tm.tree, ctx.sets)
    if verdict != {ctx.tm.fixed_leaf}:
        return [f"transpose roots of the whole tree are {sorted(verdict)}"]
    return []


def _suite_dominance_screens(ctx: RestrictionCache) -> list[str]:
    screens = dominance_screens(ctx.tm)
    pot = ctx.potential(ctx.tm.tree.root)
    out = []
    if screens.small_diag and not pot.mu[-1] < 0:
        out.append(f"small-diagonal screen but mu_n = {pot.mu[-1]}")
    if screens.weak_diag and not pot.mu[-1] <= 0:
        out.append(f"weak-diagonal screen but mu_n = {pot.mu[-1]}")
    if screens.minimal_last_row_sum:
        if any(v < 0 for v in pot.mu) or pot.mu[-1] <= 0 or any(v < 0 for v in pot.nu):
            out.append("minimal-last-row-sum screen but potentials disagree")
    return out


def _suite_mass_bounds(ctx: RestrictionCache) -> list[str]:
    out = []
    tree = ctx.tm.tree
    for node in tree.preorder:
        if tree.on_spine(node):
            continue
        report = diagonal_mass_bounds(ctx.restricted(node).matrix)
        if not report.ok:
            out.extend(f"at {node}: {msg}" for msg in report.messages)
    return out


def _suite_links_agree(ctx: RestrictionCache) -> list[str]:
    tree = ctx.tm.tree
    minv = ctx.inverse(tree.root)
    report = link_matrix(ctx.tm, ctx.sets, minv)
    return [
        f"({t.row},{t.col}) structural {t.linked} vs entry {minv[tree.leaf_index(t.row), tree.leaf_index(t.col)]}: "
        + "; ".join(t.steps)
        for t in report.mismatches
    ]


def _suite_link_lemma_minus(ctx: RestrictionCache) -> list[str]:
    tree = ctx.tm.tree
    minv = ctx.inverse(tree.root)
    minus = tree.minus(tree.root)
    lo, hi = tree.leaf_span(minus)
    sub_inv = ctx.inverse(minus)
    alpha = ctx.tm.alpha(tree.root)
    out = []
    for i in range(lo, hi):
        for j in range(lo, hi):
            if i == j:
                continue
            full = minv[i, j] < 0
            local = sub_inv[i - lo, j - lo] < 0 and ctx.tm.matrix[i, j] > alpha
            if full != local:
                out.append(f"minus-side link lemma fails at ({i},{j})")
    return out


def _suite_link_lemma_plus(ctx: RestrictionCache) -> list[str]:
    tree = ctx.tm.tree
    minv = ctx.inverse(tree.root)
    plus = tree.plus(tree.root)
    lo, hi = tree.leaf_span(plus)
    sub_inv = ctx.inverse(plus)
    out = []
    for i in range(lo, hi):
        for j in range(lo, hi):
            if i == j:
                continue
            if (minv[i, j] < 0) != (sub_inv[i - lo, j - lo] < 0):
                out.append(f"plus-side link lemma fails at ({i},{j})")
    return out


def _suite_link_lemma_cross(ctx: RestrictionCache) -> list[str]:
    tree = ctx.tm.tree
    minv = ctx.inverse(tree.root)
    minus = tree.minus(tree.root)
    lo, hi = tree.leaf_span(minus)
    n = minv.nrows
    last = n - 1
    roots_minus = roots_structural(ctx.tm, ctx.sets, minus).roots
    roots_t_minus = roots_transpose(tree, ctx.sets, minus)
    leaf = tree.leaf_order
    out = []
    for i in range(lo, hi):
        for j in range(hi, n):
            if minv[i, j] < 0 and (j != last or leaf[i] not in roots_minus):
                out.append(f"upper-right negative off-pattern at ({i},{j})")
    for i in range(hi, n):
        for j in range(lo, hi):
            if minv[i, j] < 0 and (i != last or leaf[j] not in roots_t_minus):
                out.append(f"lower-left negative off-pattern at ({i},{j})")
    return out


def _suite_zero_pattern(ctx: RestrictionCache) -> list[str]:
    minv = ctx.inverse(ctx.tm.tree.root)
    pattern = zero_pattern(ctx.tm.tree, ctx.tm.annotation)
    out = []
    for i, j in sorted(pattern.predicted_zero_positions):
        if minv[i, j] != 0:
            out.append(f"predicted zero at ({i},{j}) is {minv[i, j]}")
    for i, j in sorted(pattern.triangular_zero_positions):
        if minv[i, j] != 0:
            out.append(f"predicted triangular zero at ({i},{j}) is {minv[i, j]}")
    if pattern.hypotheses_hold:
        for i, j in sorted(pattern.predicted_nonzero_positions):
            if minv[i, j] == 0:
                out.append(f"predicted nonzero at ({i},{j}) vanishes")
    return out


def _suite_kernel_signs(ctx: RestrictionCache) -> list[str]:
    minv = ctx.inverse(ctx.tm.tree.root)
    try:
        base = transition_kernel(minv)
        shifted = transition_kernel(minv, base.eta_min + 1)
    except (ValueError, ArithmeticError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
    out = []
    for i in range(minv.nrows):
        for j in range(minv.ncols):
            if i == j:
                continue
            negative = minv[i, j] < 0
            if (base.p[i, j] > 0) != negative or (shifted.p[i, j] > 0) != negative:
                out.append(f"kernel sign at ({i},{j}) depends on eta")
    return out


def _suite_neumann(ctx: RestrictionCache) -> list[str]:
    kernel = transition_kernel(ctx.inverse(ctx.tm.tree.root))
    report = neumann_check(ctx.tm, kernel, 3)
    return list(report.messages)


def _suite_report_roundtrip(ctx: RestrictionCache) -> list[str]:
    doc = build_report(ctx.tm)
    rendered = render_report(doc, "json")
    out = []
    oracle = ctx.inverse(ctx.tm.tree.root)
    if doc["inverse"] != [[str(x) for x in row] for row in oracle.rows]:
        out.append("report's certified tree inverse differs from the elimination inverse")
    if json.loads(rendered) != doc:
        out.append("report JSON does not round-trip")
    if render_report(doc, "json") != rendered:
        out.append("report JSON rendering is not deterministic")
    if render_report(doc, "text") != render_report(doc, "text"):
        out.append("report text rendering is not deterministic")
    return out


@dataclass(frozen=True)
class _Suite:
    name: str
    fn: Callable[[RestrictionCache], list[str]]
    needs_oracle: bool = True
    min_size: int = 1


_SUITES: tuple[_Suite, ...] = (
    _Suite("tree_geodesic", _suite_tree_geodesic, needs_oracle=False),
    _Suite("tree_lca", _suite_tree_lca, needs_oracle=False),
    _Suite("tree_leaf_split", _suite_tree_leaf_split, needs_oracle=False),
    _Suite("tree_spine", _suite_tree_spine, needs_oracle=False),
    _Suite("annotation_valid", _suite_annotation_valid, needs_oracle=False),
    _Suite("ultrametric_inequality", _suite_ultrametric, needs_oracle=False),
    _Suite("root_split_shape", _suite_root_split_shape, needs_oracle=False, min_size=2),
    _Suite("diagonal_rule", _suite_diagonal_rule, needs_oracle=False),
    _Suite("restrict_commutes", _suite_restrict_commutes, needs_oracle=False),
    _Suite("document_roundtrip", _suite_document_roundtrip, needs_oracle=False),
    _Suite("inverse_sign_pattern", _suite_inverse_sign),
    _Suite("potential_identities", _suite_potential_identities),
    _Suite("restrictions_nonsingular", _suite_restrictions_nonsingular),
    _Suite("schur_assembly", _suite_schur_assembly, min_size=2),
    _Suite("mass_recursion", _suite_mass_recursion, min_size=2),
    _Suite("mass_recursion_per_node", _suite_mass_recursion_per_node),
    _Suite("exit_identity", _suite_exit_identity),
    _Suite("structural_roots", _suite_structural_roots),
    _Suite("structural_roots_per_node", _suite_structural_roots_per_node),
    _Suite("transpose_roots_per_node", _suite_transpose_roots_per_node),
    _Suite("transpose_root_fixed", _suite_transpose_root_fixed),
    _Suite("dominance_screens", _suite_dominance_screens),
    _Suite("mass_bounds", _suite_mass_bounds),
    _Suite("links_agree", _suite_links_agree),
    _Suite("link_lemma_minus", _suite_link_lemma_minus, min_size=2),
    _Suite("link_lemma_plus", _suite_link_lemma_plus, min_size=2),
    _Suite("link_lemma_cross", _suite_link_lemma_cross, min_size=2),
    _Suite("zero_pattern", _suite_zero_pattern),
    _Suite("kernel_signs", _suite_kernel_signs),
    _Suite("neumann_partial_sums", _suite_neumann),
    _Suite("report_roundtrip", _suite_report_roundtrip),
)

_SUITE_BY_NAME = {suite.name: suite for suite in _SUITES}


@dataclass
class SuiteCount:
    name: str
    passes: int = 0
    failures: int = 0

    @property
    def runs(self) -> int:
        return self.passes + self.failures


@dataclass(frozen=True)
class SelftestFailure:
    suite: str
    case: str  # "case 17" or a regression name
    seed: Optional[int]
    message: str
    document: str  # minimized reproducer


@dataclass
class SelftestOutcome:
    cases: int
    singular: int
    suites: dict[str, SuiteCount]
    failures: list[SelftestFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def regression_instances() -> list[tuple[str, DyadicTree, Annotation]]:
    """Fixed instances that pinned down every tie-breaking rule."""
    out = []
    tree = build_tree(
        {
            "I": ("A", "B"),
            "A": ("1", "2"),
            "B": ("C", "D"),
            "C": ("3", "4"),
            "D": ("5", "6"),
        },
        "I",
    )
    ann = Annotation.from_pairs(
        {
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
    )
    out.append(("worked-example", tree, ann))

    tree = build_tree({"I": ("1", "2")}, "I")
    out.append(
        ("two-leaf-offset", tree, Annotation.from_pairs({"I": (1, 1), "1": (2, 2), "2": (3, 3)}))
    )
    out.append(
        ("two-leaf-exiting", tree, Annotation.from_pairs({"I": (1, 1), "1": (5, 5), "2": (2, 2)}))
    )

    tree = build_tree({}, "1")
    out.append(("single-leaf", tree, Annotation.from_pairs({"1": (2, 2)})))

    tree = build_tree({"I": ("A", "3"), "A": ("1", "2")}, "I")
    base = {"I": (1, 1), "1": (4, 4), "2": (4, 4), "3": (4, 4)}
    out.append(
        ("three-leaf-linked", tree, Annotation.from_pairs({**base, "A": (2, 3)}))
    )
    out.append(
        ("three-leaf-cancel", tree, Annotation.from_pairs({**base, "A": (1, 3)}))
    )

    tree = build_tree({"I": ("M", "4"), "M": ("B", "3"), "B": ("1", "2")}, "I")
    base = {"I": (1, 1), "M": (2, 2), "B": (2, 2), "1": (3, 3), "2": (3, 3), "4": (3, 3)}
    out.append(
        ("four-leaf-tie", tree, Annotation.from_pairs({**base, "3": (2, 2)}))
    )
    out.append(
        ("four-leaf-strict", tree, Annotation.from_pairs({**base, "3": (3, 3)}))
    )

    tree = build_tree({"I": ("M", "4"), "M": ("1", "N"), "N": ("2", "3")}, "I")
    out.append(
        (
            "off-spine-depth",
            tree,
            Annotation.from_pairs(
                {
                    "I": (1, 1),
                    "M": (1, 2),
                    "N": (1, 3),
                    "1": (4, 4),
                    "2": (5, 5),
                    "3": (6, 6),
                    "4": (7, 7),
                }
            ),
        )
    )
    return out


def _run_suite(suite: _Suite, ctx: RestrictionCache) -> list[str]:
    try:
        return suite.fn(ctx)
    except Exception as exc:  # a crash is a failure with a reproducer
        return [f"{type(exc).__name__}: {exc}"]


def _minimize(ctx: RestrictionCache, suite: _Suite) -> RestrictionCache:
    """Greedily descend to the deepest spine restriction that still fails."""
    best = ctx
    improved = True
    while improved:
        improved = False
        tree = best.tm.tree
        for node in reversed(tree.spine()):
            if tree.is_leaf(node) or node == tree.root:
                continue
            sub = best.restricted(node)
            if sub.matrix.nrows < suite.min_size:
                continue
            candidate = RestrictionCache(build_matrix(sub.tree, sub.annotation))
            if suite.needs_oracle and _singular(candidate):
                continue
            if _run_suite(suite, candidate):
                best = candidate
                improved = True
                break
    return best


def run_selftest(
    cases: int,
    max_leaves: int,
    seed: int = 0,
    strictness: str = "lax",
    min_leaves: int = 1,
    include_regression: bool = True,
    max_recorded_failures: int = 10,
) -> SelftestOutcome:
    """Run every suite over ``cases`` random instances plus the fixed corpus.

    ``strictness`` is ``"lax"``, ``"strict"`` or ``"mixed"`` (alternate per
    case).  Singular draws are skipped and counted.  Failures (up to
    ``max_recorded_failures``) carry a minimized reproducer document.
    """
    if cases < 1 or max_leaves < 1:
        raise ValueError("need cases >= 1 and max_leaves >= 1")
    if strictness not in ("lax", "strict", "mixed"):
        raise ValueError(f"unknown strictness {strictness!r}")
    started = time.perf_counter()
    rng = random.Random(seed)
    outcome = SelftestOutcome(
        cases=cases,
        singular=0,
        suites={suite.name: SuiteCount(suite.name) for suite in _SUITES},
    )

    def run_instance(
        label: str, case_seed: Optional[int], tree: DyadicTree, annotation: Annotation
    ) -> None:
        ctx = RestrictionCache(build_matrix(tree, annotation))
        if _singular(ctx):
            outcome.singular += 1
            return
        for suite in _SUITES:
            if ctx.tm.matrix.nrows < suite.min_size:
                continue
            messages = _run_suite(suite, ctx)
            count = outcome.suites[suite.name]
            if not messages:
                count.passes += 1
                continue
            count.failures += 1
            if len(outcome.failures) < max_recorded_failures:
                minimized = _minimize(ctx, suite)
                outcome.failures.append(
                    SelftestFailure(
                        suite.name,
                        label,
                        case_seed,
                        "; ".join(messages[:5]),
                        format_spec(minimized.tm.tree, minimized.tm.annotation),
                    )
                )

    for idx in range(cases):
        case_seed = rng.getrandbits(48)
        mode = strictness
        if strictness == "mixed":
            mode = "strict" if idx % 2 else "lax"
        tree, annotation = random_instance(case_seed, max_leaves, mode, min_leaves)
        run_instance(f"case {idx}", case_seed, tree, annotation)

    if include_regression:
        for name, tree, annotation in regression_instances():
            run_instance(name, None, tree, annotation)

    outcome.elapsed = time.perf_counter() - started
    return outcome
