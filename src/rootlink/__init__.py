"""Exact analysis of annotated dyadic trees and the matrices they induce.

Build a leaf-indexed rational matrix from a doubly-annotated dyadic tree,
invert it exactly (from the tree in O(n^2) with a product certificate, or
by fraction-free elimination), and read the inverse's sign structure —
exiting roots, links, zero blocks, sub-Markov kernels — directly off the
tree.  Every structural shortcut is cross-checked against the exact
inverse by a randomized self-test harness.
"""

from __future__ import annotations

from .build import (
    Annotation,
    AnnotationViolation,
    TreeMatrix,
    build_matrix,
    random_instance,
    validate_annotation,
)
from .errors import (
    EtaTooSmallError,
    FixedLeafNotRightmostError,
    InvalidAnnotationError,
    MalformedTreeError,
    MissingAnnotationError,
    RootlinkError,
    SingularMatrixError,
    SpecParseError,
    TheoremMismatchError,
    UnknownNodeError,
)
from .inverse import (
    NeumannReport,
    PotentialReport,
    RestrictionCache,
    SchurBlocks,
    TransitionKernel,
    diagonal_mass_bounds,
    neumann_check,
    potentials,
    schur_blocks,
    transition_kernel,
    verify_mass_recursion,
)
from .links import (
    BlockPattern,
    LinkReport,
    LinkTrace,
    link_matrix,
    link_structural,
    zero_pattern,
)
from .matrix import RationalMatrix, to_fraction
from .report import build_report, render_dot, render_report
from .roots import (
    DominanceScreens,
    ExitReport,
    StructuralRootSet,
    StructureSets,
    build_structure_sets,
    dominance_screens,
    fixed_leaf_exit,
    roots_structural,
    roots_transpose,
    tree_masses,
)
from .specfile import format_spec, parse_spec
from .tree import DyadicTree, TreeEdge, build_tree
from .treesolve import certify_inverse, tree_inverse

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tree
    "DyadicTree",
    "TreeEdge",
    "build_tree",
    # matrices
    "RationalMatrix",
    "to_fraction",
    # building
    "Annotation",
    "AnnotationViolation",
    "TreeMatrix",
    "build_matrix",
    "validate_annotation",
    "random_instance",
    # inversion
    "potentials",
    "PotentialReport",
    "RestrictionCache",
    "diagonal_mass_bounds",
    "SchurBlocks",
    "schur_blocks",
    "verify_mass_recursion",
    "TransitionKernel",
    "transition_kernel",
    "NeumannReport",
    "neumann_check",
    "tree_inverse",
    "certify_inverse",
    # roots
    "StructureSets",
    "build_structure_sets",
    "roots_transpose",
    "tree_masses",
    "ExitReport",
    "fixed_leaf_exit",
    "StructuralRootSet",
    "roots_structural",
    "DominanceScreens",
    "dominance_screens",
    # links
    "LinkTrace",
    "link_structural",
    "LinkReport",
    "link_matrix",
    "BlockPattern",
    "zero_pattern",
    # documents and reports
    "parse_spec",
    "format_spec",
    "build_report",
    "render_report",
    "render_dot",
    # self-test
    "run_selftest",
    "SelftestOutcome",
    "regression_instances",
    # errors
    "RootlinkError",
    "MalformedTreeError",
    "UnknownNodeError",
    "FixedLeafNotRightmostError",
    "MissingAnnotationError",
    "InvalidAnnotationError",
    "SingularMatrixError",
    "EtaTooSmallError",
    "SpecParseError",
    "TheoremMismatchError",
]

# The self-test harness loads on first use: a fresh interpreter compiles
# every module it imports, and a report never needs the harness.
_SELFTEST_NAMES = frozenset({"run_selftest", "SelftestOutcome", "regression_instances"})


def __getattr__(name: str):
    if name in _SELFTEST_NAMES:
        from . import selftest

        return getattr(selftest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
