"""Command-line front end.

Subcommands:

* ``validate`` — check a document's tree and annotation, listing violations.
* ``report``   — full analysis (matrix, inverse, potentials, roots, links,
  zero blocks, kernel scale) as deterministic JSON or text.
* ``dot``      — Graphviz export with spine/edge-set styling.
* ``random``   — emit a generated instance document.
* ``selftest`` — randomized structural-vs-oracle cross-check.

Exit codes: 0 success, 1 validation failure, 2 parse or usage error, a
document over the report's size budget (``specfile.MAX_LEAVES`` leaves,
``specfile.MAX_VALUE_DIGITS`` digits per value), or a flag over its cap
(``--max-leaves`` over ``MAX_LEAVES``, ``--neumann`` over
``MAX_NEUMANN_STEPS``), 3 singular matrix or failed hypothesis, 4
structural-vs-oracle mismatch or a failed inverse certificate (with a
counterexample dump).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import __version__
from .build import build_matrix, random_instance, validate_annotation
from .errors import (
    EtaTooSmallError,
    InvalidAnnotationError,
    MalformedTreeError,
    MissingAnnotationError,
    SingularMatrixError,
    SpecParseError,
    TheoremMismatchError,
    UnknownNodeError,
)
from .report import build_report, render_dot, render_report
from .specfile import (
    MAX_LEAVES,
    check_budget,
    format_spec,
    parse_rational,
    parse_spec,
)

__all__ = ["main"]

COUNTEREXAMPLE_FILE = "rootlink-counterexample.json"

# Most steps ``report --neumann`` runs: 50 is the most any check uses
# (criterion 7b).  Each step multiplies two integer matrices whose entries
# grow with the step count, so the cost grows faster than the steps do.
MAX_NEUMANN_STEPS = 50


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from None


def _rational_flag(value: str):
    try:
        return parse_rational(value, "flag value")
    except SpecParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return number


def _leaf_budget(value: str) -> int:
    number = _positive_int(value)
    if number > MAX_LEAVES:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_LEAVES} (the leaf budget)")
    return number


def _neumann_steps(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    if number > MAX_NEUMANN_STEPS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_NEUMANN_STEPS}")
    return number


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    tree, annotation = parse_spec(_read_document(args.path))
    violations = validate_annotation(tree, annotation)
    if violations:
        for violation in violations:
            print(violation.message)
        return 1
    print(f"ok: {len(tree.leaf_order)} leaves, fixed leaf {tree.fixed_leaf}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    tree, annotation = parse_spec(_read_document(args.path))
    check_budget(tree, annotation)
    # No reference to the matrix or the report's inverse outlives
    # build_report, so both are freed before the document renders.
    doc = build_report(build_matrix(tree, annotation), args.eta, args.neumann)
    sys.stdout.write(render_report(doc, args.format))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    tree, annotation = parse_spec(_read_document(args.path))
    _write_output(render_dot(tree, annotation), args.output)
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    tree, annotation = random_instance(
        args.seed, args.max_leaves, "strict" if args.strict else "lax"
    )
    _write_output(format_spec(tree, annotation), args.output)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest  # loaded only for this command

    outcome = run_selftest(
        args.cases,
        args.max_leaves,
        seed=args.seed,
        strictness="strict" if args.strict else "lax",
    )
    print(
        f"{outcome.cases} cases (max {args.max_leaves} leaves, seed {args.seed}, "
        f"{'strict' if args.strict else 'lax'}); "
        f"{outcome.singular} singular draws skipped"
    )
    for count in outcome.suites.values():
        line = f"  {count.name}: {count.passes} passed"
        if count.failures:
            line += f", {count.failures} FAILED"
        print(line)
    print(f"elapsed: {outcome.elapsed:.2f}s")
    if outcome.ok:
        print("self-test passed")
        return 0
    first = outcome.failures[0]
    with open(COUNTEREXAMPLE_FILE, "w", encoding="utf-8") as handle:
        handle.write(first.document)
    print(f"self-test FAILED: {len(outcome.failures)} failure(s) recorded")
    print(f"first failure in suite {first.suite} on {first.case}: {first.message}")
    print(f"minimized reproducer written to {COUNTEREXAMPLE_FILE}")
    return 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootlink",
        description="Exact analysis of annotated dyadic trees and their matrices.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document and list violations")
    p.add_argument("path", help="instance document ('-' for stdin)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="full exact analysis of one instance")
    p.add_argument("path", help="instance document ('-' for stdin)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--eta", type=_rational_flag, default=None, metavar="RATIONAL")
    p.add_argument("--neumann", type=_neumann_steps, default=None, metavar="M")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("dot", help="Graphviz export of the annotated tree")
    p.add_argument("path", help="instance document ('-' for stdin)")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("random", help="emit a generated instance document")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-leaves", type=_leaf_budget, default=8)
    p.add_argument("--strict", action="store_true", help="strictly increasing values")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("selftest", help="randomized structural-vs-oracle checks")
    p.add_argument("--cases", type=_positive_int, default=200)
    p.add_argument("--max-leaves", type=_leaf_budget, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true", help="strictly increasing values")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidAnnotationError as exc:
        for violation in exc.violations:
            print(violation.message, file=sys.stderr)
        return 1
    except (MalformedTreeError, UnknownNodeError, MissingAnnotationError) as exc:
        print(f"invalid tree: {exc}", file=sys.stderr)
        return 1
    except (SingularMatrixError, EtaTooSmallError) as exc:
        print(f"error: theorem hypotheses not met: {exc}", file=sys.stderr)
        return 3
    except TheoremMismatchError as exc:
        print(f"theorem mismatch:\n{exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
