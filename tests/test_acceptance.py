"""Acceptance gate: exact sample-instance reproduction plus oracle-equivalence
property suites over a shared randomized corpus.

Each criterion prints one ``ACCEPTANCE n: PASS/FAIL`` line on the live
terminal (bypassing capture) and asserts its claim at the stated tolerance.
Criterion 7 is split: the exact kernel/partial-sum claims (7a) pass; the
floating-point convergence target for the sample instance (7b) is measured
and reported as a genuine failure with its justification.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from rootlink import (
    RationalMatrix,
    RestrictionCache,
    build_matrix,
    build_structure_sets,
    fixed_leaf_exit,
    format_spec,
    link_matrix,
    neumann_check,
    parse_spec,
    potentials,
    random_instance,
    roots_structural,
    roots_transpose,
    schur_blocks,
    transition_kernel,
    zero_pattern,
)
from rootlink.errors import SingularMatrixError

from conftest import SIX_LEAF_INVERSE_8X, SIX_LEAF_MATRIX

CORPUS_SIZE = 1000
CORPUS_MIN_LEAVES = 2
CORPUS_MAX_LEAVES = 12
CORPUS_SEED = 20240817
TIME_BUDGET = 60.0

_timings: dict[str, float] = {}


@pytest.fixture
def announce(capsys):
    def _announce(label: str, ok: bool, detail: str = "") -> None:
        line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(f"\n{line}")

    return _announce


@pytest.fixture(scope="session")
def corpus():
    """1000 nonsingular instances, 2-12 leaves, alternating strict/lax."""
    start = time.perf_counter()
    rng = random.Random(CORPUS_SEED)
    instances = []
    singular = 0
    while len(instances) < CORPUS_SIZE:
        strictness = "strict" if (len(instances) + singular) % 2 == 0 else "lax"
        tree, annotation = random_instance(
            rng.getrandbits(48),
            CORPUS_MAX_LEAVES,
            strictness,
            min_leaves=CORPUS_MIN_LEAVES,
        )
        tm = build_matrix(tree, annotation)
        try:
            minv = tm.matrix.inverse()
        except SingularMatrixError:
            singular += 1
            continue
        instances.append((tm, minv))
    _timings["corpus"] = time.perf_counter() - start
    return instances


def test_criterion_1_sample_reproduction(announce):
    start = time.perf_counter()
    with open("specs/six_leaf.json", encoding="utf-8") as handle:
        tree, annotation = parse_spec(handle.read())
    tm = build_matrix(tree, annotation)
    minv = tm.matrix.inverse()
    elapsed = time.perf_counter() - start
    ok = (
        tm.matrix == RationalMatrix(SIX_LEAF_MATRIX)
        and minv
        == RationalMatrix(
            [[Fraction(x, 8) for x in row] for row in SIX_LEAF_INVERSE_8X]
        )
        and elapsed < 1.0
    )
    announce("1", ok, f"exact matrix and inverse in {elapsed:.3f}s")
    assert ok


def test_criterion_2_structural_sets(six_tm, announce):
    start = time.perf_counter()
    sets = build_structure_sets(six_tm.tree, six_tm.annotation)
    gamma = {(e.parent, e.child) for e in sets.gamma}
    gamma_t = {(e.parent, e.child) for e in sets.gamma_t}
    roots = roots_structural(six_tm, sets).roots
    roots_t = roots_transpose(six_tm.tree, sets)
    elapsed = time.perf_counter() - start
    ok = (
        gamma == {("A", "2"), ("C", "4")}
        and gamma_t == {("A", "1"), ("C", "3"), ("I", "A"), ("B", "C"), ("D", "5")}
        and roots == frozenset({"1", "3", "5"})
        and roots_t == frozenset({"6"})
        and elapsed < 1.0
    )
    announce("2", ok, "gamma, gamma_t, roots, transpose roots verbatim")
    assert ok


def test_criterion_3_exit_identity(six_tm, six_inverse, corpus, announce):
    report = fixed_leaf_exit(six_tm)
    sample_ok = (
        report.lhs == Fraction(1, 4)
        and report.rhs == Fraction(7, 8)
        and report.lhs - report.rhs == Fraction(-5, 8) == sum(six_inverse.rows[-1])
    )
    corpus_bad = 0
    for tm, minv in corpus:  # the Bareiss fixed-leaf row sum is lhs - rhs
        exit_report = fixed_leaf_exit(tm)
        if potentials(minv).mu[-1] != exit_report.lhs - exit_report.rhs:
            corpus_bad += 1
    ok = sample_ok and corpus_bad == 0
    announce(
        "3",
        ok,
        f"lhs 1/4, rhs 7/8, row sum -5/8; identity exact on {len(corpus)} instances",
    )
    assert ok


def test_criterion_4_link_equivalence(corpus, announce):
    start = time.perf_counter()
    disagreements = []
    for tm, minv in corpus:
        report = link_matrix(tm, build_structure_sets(tm.tree, tm.annotation), minv)
        if not report.agrees:
            disagreements.append((tm, report.mismatches))
    elapsed = time.perf_counter() - start
    total = _timings["corpus"] + elapsed
    ok = not disagreements and total < TIME_BUDGET
    announce(
        "4",
        ok,
        f"{len(corpus)} instances, 0 disagreements, "
        f"{total:.1f}s of {TIME_BUDGET:.0f}s budget",
    )
    for tm, mismatches in disagreements[:3]:
        print(format_spec(tm.tree, tm.annotation))
        print([f"({t.row},{t.col}) rule {t.rule}" for t in mismatches])
    assert ok


def test_criterion_5_root_equivalence(corpus, announce):
    bad = 0
    for tm, minv in corpus:
        tree = tm.tree
        pot = potentials(minv)
        sets = build_structure_sets(tree, tm.annotation)
        cache = RestrictionCache(tm)
        structural = roots_structural(tm, sets)
        if structural.roots != frozenset(
            leaf for leaf, m in zip(tm.leaves, pot.mu) if m > 0
        ):
            bad += 1
            continue
        per_node_ok = True
        for node in tree.preorder:
            sub = cache.restricted(node)
            nu = cache.potential(node).nu
            oracle = frozenset(
                leaf for leaf, v in zip(sub.leaves, nu) if v > 0
            )
            if roots_transpose(tree, sets, node) != oracle:
                per_node_ok = False
                break
        n = len(tm.leaves)
        u_nn = tm.matrix[n - 1, n - 1]
        invariants = (
            roots_transpose(tree, sets) == frozenset({tree.fixed_leaf})
            and pot.nu
            == tuple(
                Fraction(1, u_nn) if i == n - 1 else Fraction(0) for i in range(n)
            )
            and pot.mu_bar == Fraction(1, u_nn)
            and all(m >= 0 for m in pot.mu[:-1])
            and all(
                minv[i, j] <= 0 for i in range(n) for j in range(n) if i != j
            )
            and all(s >= 0 for s in minv.col_sums())
        )
        if not (per_node_ok and invariants):
            bad += 1
    ok = bad == 0
    announce(
        "5",
        ok,
        f"roots, per-node transpose roots, and potential invariants on "
        f"{len(corpus)} instances",
    )
    assert ok


def test_criterion_6_schur_assembly(corpus, announce):
    bad = 0
    for tm, minv in corpus:
        blocks = schur_blocks(tm)
        if blocks.denom <= 0 or blocks.assemble() != minv:
            bad += 1
    ok = bad == 0
    announce("6", ok, f"assembled inverse exact on {len(corpus)} instances")
    assert ok


def test_criterion_7a_kernel_exact(corpus, announce):
    bad = 0
    checked_neumann = 0
    for tm, minv in corpus:
        kernel = transition_kernel(minv)
        n = len(tm.leaves)
        if any(x < 0 for row in kernel.p.rows for x in row) or any(
            s > 1 for s in kernel.p.col_sums()
        ):
            bad += 1
            continue
        if n <= 8:
            checked_neumann += 1
            if not neumann_check(tm, kernel, 20).ok:
                bad += 1
    ok = bad == 0
    announce(
        "7a",
        ok,
        f"P >= 0 and column sums <= 1 on {len(corpus)} instances; "
        f"monotone bounded partial sums (M <= 20) on {checked_neumann} "
        f"instances with <= 8 leaves",
    )
    assert ok


def test_criterion_7b_sample_gap_ratio(six_tm, six_inverse, announce):
    required = 1e-3
    kernel = transition_kernel(six_inverse)
    gaps = neumann_check(six_tm, kernel, 50).gaps
    measured = gaps[50] / gaps[1]
    ok = measured < required
    announce(
        "7b",
        ok,
        f"measured gap(50)/gap(1) = {measured:.5f}, required < {required:g}",
    )
    if not ok:
        pytest.fail(
            "the sample instance cannot meet the stated convergence target: "
            f"gap(50)/gap(1) = {measured:.5f} but < {required:g} was required. "
            "With the minimal admissible scale eta = 11/8 the iteration "
            "matrix P = I - (8/11) U^-1 has spectral radius ~0.95092, so the "
            "gap decays like 0.95092^M and reaching a 1e-3 ratio needs "
            "M ~= 138, not 50. Any admissible larger eta converges more "
            "slowly still. All exact claims about the kernel and its partial "
            "sums hold (see 7a); only this diagnostic float target is "
            "unattainable, and it fails here honestly rather than being "
            "papered over."
        )


def test_criterion_8_zero_pattern(corpus, announce):
    zero_bad = 0
    hypothesis_cases = 0
    nonzero_failures = []
    for tm, minv in corpus:
        pattern = zero_pattern(tm.tree, tm.annotation)
        positions = pattern.predicted_zero_positions | pattern.triangular_zero_positions
        if any(minv[i, j] != 0 for i, j in positions):
            zero_bad += 1
            continue
        if pattern.hypotheses_hold:
            hypothesis_cases += 1
            vanished = [
                (i, j)
                for i, j in sorted(pattern.predicted_nonzero_positions)
                if minv[i, j] == 0
            ]
            if vanished:
                nonzero_failures.append((tm, vanished))
    ok = zero_bad == 0 and not nonzero_failures
    announce(
        "8",
        ok,
        f"zero blocks exact on {len(corpus)}/{len(corpus)} instances; "
        f"nonzero pattern exact on {hypothesis_cases} hypothesis-satisfying "
        f"instances",
    )
    if nonzero_failures:
        # Counterexamples to the nonzero prediction belong to the documented
        # open question about the strictness hypothesis list; emit them.
        for tm, vanished in nonzero_failures[:3]:
            print("predicted-nonzero entries vanished at", vanished)
            print(format_spec(tm.tree, tm.annotation))
    assert ok
