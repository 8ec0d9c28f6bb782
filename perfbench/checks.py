"""Correctness gate, run outside the timed region.

Reports are checked from their printed JSON alone, with plain exact
arithmetic written here, so the gate never relies on the kernels it times.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm


def _scaled(values: list[Fraction]) -> tuple[int, list[int]]:
    """(d, ints) with ints = d * values, d the lcm of the denominators."""
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def check_report(text: str, document: str) -> list[str]:
    """Problems with one rendered JSON report; empty when it is correct.

    Checks that ``matrix @ inverse`` is the identity, that ``mu``/``nu`` are
    the row/column sums of the printed inverse, that ``roots``/``roots_t``
    are exactly the leaves with positive ``mu``/``nu``, and that the
    diagonal carries each leaf's value from the document.
    """
    try:
        doc = json.loads(text)
        leaves = doc["leaves"]
        u = [[Fraction(x) for x in row] for row in doc["matrix"]]
        v = [[Fraction(x) for x in row] for row in doc["inverse"]]
        mu = [Fraction(x) for x in doc["mu"]]
        nu = [Fraction(x) for x in doc["nu"]]
        roots, roots_t = doc["roots"], doc["roots_t"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
    n = len(leaves)
    if any(len(row) != n for row in u + v) or len(u) != n or len(v) != n:
        return [f"matrix or inverse is not {n}x{n}"]
    problems = []

    values = {node["id"]: Fraction(node["alpha"]) for node in json.loads(document)["nodes"]}
    if [u[i][i] for i in range(n)] != [values[leaf] for leaf in leaves]:
        problems.append("matrix diagonal differs from the document's leaf values")

    rows = [_scaled(row) for row in u]
    cols = [_scaled([v[i][j] for i in range(n)]) for j in range(n)]
    for i, (du, row) in enumerate(rows):
        for j, (dv, col) in enumerate(cols):
            dot = sum(a * b for a, b in zip(row, col))
            if dot != (du * dv if i == j else 0):
                problems.append(f"(matrix @ inverse)[{i}][{j}] is not the identity entry")
                break
        if problems:
            break

    if mu != [sum(row, Fraction(0)) for row in v]:
        problems.append("mu is not the row sums of the inverse")
    if nu != [sum((v[i][j] for i in range(n)), Fraction(0)) for j in range(n)]:
        problems.append("nu is not the column sums of the inverse")
    if roots != [leaf for leaf, m in zip(leaves, mu) if m > 0]:
        problems.append("roots differ from the leaves with positive mu")
    if roots_t != [leaf for leaf, x in zip(leaves, nu) if x > 0]:
        problems.append("roots_t differ from the leaves with positive nu")
    return problems


def check_selftest(outcome, singular_allowed: bool) -> list[str]:
    """Problems with one ``SelftestOutcome``; a lax singular draw is fine."""
    problems = [
        f"suite {f.suite} failed on {f.case}: {f.message}" for f in outcome.failures
    ]
    if not outcome.ok and not problems:
        problems.append("self-test reported failure")
    if outcome.singular and not singular_allowed:
        problems.append("strict draw was singular")
    return problems
