"""The benchmark's workloads: input generators, one timed step, the gate.

Inputs are made from the benchmark's ``--seed`` and the round number;
rootlink only ever receives the generated documents (or, for the
self-test, generated case seeds).  A workload's inputs come in *rounds*: a
round is a fixed list of items whose sizes do not depend on the seed, so
every round costs about the same and a run can repeat whole rounds without
changing the mix.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import rootlink
import rootlink.cli
import rootlink.selftest
from rootlink import Annotation, build_tree, format_spec, random_instance, validate_annotation

from checks import check_report, check_selftest


def shuffled(sizes) -> tuple[int, ...]:
    """``sizes`` in a fixed shuffled order.

    Documents near one latency percentile are then spread over the whole
    run instead of meeting the same slow spell of the machine.
    """
    out = list(sizes)
    random.Random(0).shuffle(out)
    return tuple(out)


@dataclass(frozen=True)
class Item:
    """One request: a document to report on, or one self-test case."""

    index: int
    size: int  # leaves (the maximum, for a self-test case)
    seed: int
    strictness: str
    document: str = ""


@dataclass(frozen=True)
class Result:
    seconds: float  # wall time of the call into rootlink alone
    problems: tuple[str, ...]  # unexpected outcomes; empty when correct
    output: bytes  # what the report digest covers
    skipped: bool = False  # a lax self-test draw that was singular


_DENOMS = (1, 1, 2, 4)


def strict_values(tree: rootlink.DyadicTree, rng: random.Random) -> Annotation:
    """Values on ``tree`` drawn as ``random_instance(strictness="strict")`` draws them.

    Strictly positive increments down every path, then ``beta := alpha`` on
    the spine and off-spine ``alpha`` inherited from a spine anchor below the
    root.  No ties, so the matrix is nonsingular.
    """

    def delta() -> Fraction:
        return Fraction(rng.randint(1, 4), rng.choice(_DENOMS))

    base = Fraction(rng.randint(0, 2), rng.choice((1, 2)))
    alpha = {tree.root: base}
    beta = {tree.root: base}
    for node in tree.preorder:
        for child in tree.children(node):
            if tree.is_leaf(child):
                alpha[child] = beta[child] = max(alpha[node], beta[node]) + delta()
            else:
                alpha[child] = alpha[node] + delta()
                beta[child] = max(alpha[child], beta[node]) + delta()
    for node in tree.spine():
        beta[node] = alpha[node]
    for node in tree.internal_nodes():
        anchor = tree.spine_anchor(node)
        if anchor != tree.root and not tree.on_spine(node):
            alpha[node] = alpha[anchor]
    annotation = Annotation(alpha, beta)
    violations = validate_annotation(tree, annotation)
    if violations:
        raise ValueError(f"generator made an invalid annotation: {violations[0]}")
    return annotation


def balanced_tree(leaves: int, shape_seed: int) -> rootlink.DyadicTree:
    """The uniform recursive split of ``random_instance`` with ``leaves`` leaves."""
    tree, _ = random_instance(shape_seed, leaves, "strict", min_leaves=leaves)
    return tree


def caterpillar_tree(leaves: int, shape_seed: int = 0) -> rootlink.DyadicTree:
    """A left comb under ``root.minus`` with the fixed leaf at ``root.plus``.

    Leaf ``k`` is the fixed leaf; comb node ``c{d}`` has leaf ``k - d`` as
    its plus child, so leaf depth runs from 1 to ``leaves - 1``.  The shape
    has no randomness; ``shape_seed`` is ignored.
    """
    if leaves < 3:
        raise ValueError("a caterpillar needs at least 3 leaves")
    children = {"r": ("c1", str(leaves))}
    for d in range(1, leaves - 1):
        minus = f"c{d + 1}" if d < leaves - 2 else "1"
        children[f"c{d}"] = (minus, str(leaves - d))
    return build_tree(children, "r")


class DocumentWorkload:
    """Documents written to files and certified by ``rootlink report PATH``.

    Slot ``j`` of round ``r`` has a fixed size and a tree shape that depends
    on ``(r, j)`` only; ``--seed`` draws the values.  The shape of a balanced
    tree moves the cost of its report by up to a third at equal size; drawn
    from the seed as well, it spread the latency percentiles of one commit
    across seeds by more than the benchmark's bounds.
    """

    unit = "reports"

    def __init__(self, name: str, shape: Callable, sizes: tuple[int, ...]):
        self.name = name
        self.shape = shape
        self.sizes = sizes

    def items(self, seed: int, round_index: int) -> list[Item]:
        shape_rng = random.Random(f"{self.name}/shape/{round_index}")
        value_rng = random.Random(f"{self.name}/{seed}/{round_index}")
        out = []
        for j, size in enumerate(self.sizes):
            tree = self.shape(size, shape_rng.getrandbits(48))
            doc_seed = value_rng.getrandbits(48)
            annotation = strict_values(tree, random.Random(doc_seed))
            out.append(
                Item(
                    round_index * len(self.sizes) + j,
                    size,
                    doc_seed,
                    "strict",
                    format_spec(tree, annotation),
                )
            )
        return out

    def run(self, item: Item, workdir: Path) -> Result:
        path = workdir / f"doc-{item.index}.json"
        path.write_text(item.document, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = rootlink.cli.main(["report", str(path)])
            seconds = time.perf_counter() - start
        except Exception:
            return Result(time.perf_counter() - start, (traceback.format_exc(),), b"")
        finally:
            path.unlink()
        text = out.getvalue()
        if code != 0:
            problem = f"document {item.index} exited {code}: {err.getvalue().strip()[:300]}"
            return Result(seconds, (problem,), text.encode())
        return Result(seconds, (), text.encode())

    def check(self, item: Item, result: Result) -> list[str]:
        return [
            f"document {item.index}: {problem}"
            for problem in check_report(result.output.decode(), item.document)
        ]


class SelftestWorkload:
    """Random self-test cases through ``rootlink.run_selftest``, one at a time."""

    unit = "selftest_cases"

    def __init__(self, name: str, cases: int, max_leaves: int):
        self.name = name
        self.cases = cases
        self.max_leaves = max_leaves

    def items(self, seed: int, round_index: int) -> list[Item]:
        rng = random.Random(f"{self.name}/{seed}/{round_index}")
        first = round_index * self.cases
        return [
            Item(
                first + j,
                self.max_leaves,
                rng.getrandbits(48),
                "strict" if (first + j) % 2 else "lax",
            )
            for j in range(self.cases)
        ]

    def run(self, item: Item, workdir: Path) -> Result:
        start = time.perf_counter()
        try:
            outcome = rootlink.selftest.run_selftest(
                1,
                item.size,
                seed=item.seed,
                strictness=item.strictness,
                include_regression=False,
            )
            seconds = time.perf_counter() - start
        except Exception:
            return Result(time.perf_counter() - start, (traceback.format_exc(),), b"")
        problems = check_selftest(outcome, singular_allowed=item.strictness == "lax")
        summary = " ".join(
            f"{name}={count.passes}/{count.failures}"
            for name, count in sorted(outcome.suites.items())
        )
        line = f"{item.seed} {item.strictness} singular={outcome.singular} {summary}\n"
        return Result(
            seconds,
            tuple(f"case {item.index}: {p}" for p in problems),
            line.encode(),
            skipped=outcome.singular > 0,
        )

    def check(self, item: Item, result: Result) -> list[str]:
        return []  # run() already checked the outcome it holds

    def check_corpus(self) -> list[str]:
        """The fixed regression corpus must pass every suite (untimed)."""
        outcome = rootlink.selftest.run_selftest(
            1, self.max_leaves, seed=0, strictness="strict", include_regression=True
        )
        return [f"regression corpus: {p}" for p in check_selftest(outcome, False)]


# Each mix puts its p50 inside the band of smallest documents and its tail
# (the highest rank with 10 beyond) inside the next band, at least four
# ranks from either edge, so neither percentile sits between two sizes,
# where it would jump with the timing of a single document.  A round takes
# a few seconds, so a run holds several rounds and its medians over rounds
# outlast a slow spell of the machine.
RANDOM_STRICT_SIZES = shuffled((32,) * 26 + (44,) * 13 + (64, 80))
CATERPILLAR_SIZES = shuffled((21,) * 26 + (31,) * 10 + (41,) * 4 + (51, 61))

WORKLOADS = {
    "random-strict": DocumentWorkload("random-strict", balanced_tree, RANDOM_STRICT_SIZES),
    "caterpillar": DocumentWorkload("caterpillar", caterpillar_tree, CATERPILLAR_SIZES),
    "selftest-mixed": SelftestWorkload("selftest-mixed", 200, 10),
}
