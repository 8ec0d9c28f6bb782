"""Exact inversion, potentials, tree masses, Schur split, kernel, and partial sums."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

import pytest

from rootlink import (
    EtaTooSmallError,
    NeumannReport,
    RationalMatrix,
    RestrictionCache,
    SingularMatrixError,
    TheoremMismatchError,
    TransitionKernel,
    build_matrix,
    build_tree,
    neumann_check,
    potentials,
    random_instance,
    schur_blocks,
    transition_kernel,
    tree_inverse,
    tree_masses,
    verify_mass_recursion,
)

from conftest import (
    SIX_LEAF_INVERSE_8X,
    annotation_from,
    caterpillar,
    instance,
    is_inverse_pair,
)


def scaled(rows: list[list[int]], denom: int) -> RationalMatrix:
    return RationalMatrix([[Fraction(x, denom) for x in row] for row in rows])


def identity_minus(minv: RationalMatrix, eta) -> RationalMatrix:
    """``I - minv / eta``, entry by entry."""
    return RationalMatrix(
        [int(i == j) - x / eta for j, x in enumerate(row)]
        for i, row in enumerate(minv.rows)
    )


def test_six_leaf_inverse_exact(six_tm, six_inverse):
    assert six_inverse == scaled(SIX_LEAF_INVERSE_8X, 8)
    assert is_inverse_pair(six_tm.matrix, six_inverse)
    assert six_tm.matrix.inverse() == six_inverse


def test_six_leaf_potentials(six_inverse):
    pot = potentials(six_inverse)
    assert pot.mu == (
        Fraction(3, 8),
        Fraction(0),
        Fraction(1, 4),
        Fraction(0),
        Fraction(1, 4),
        Fraction(-5, 8),
    )
    assert pot.nu == (0, 0, 0, 0, 0, Fraction(1, 4))
    assert pot.mu_bar == Fraction(1, 4)


def test_inverse_sign_structure(six_inverse):
    # Column diagonally dominant M-matrix shape: nonnegative diagonal,
    # nonpositive off-diagonal, nonnegative column sums.
    for i in range(6):
        for j in range(6):
            assert (six_inverse[i, j] >= 0) == (i == j) or six_inverse[i, j] == 0
    assert all(s >= 0 for s in six_inverse.col_sums())


def test_two_leaf_inverse():
    tm = instance({"I": ("1", "2")}, "I", {"I": (1, 1), "1": (2, 2), "2": (3, 3)})
    assert tm.matrix == RationalMatrix([[2, 1], [3, 3]])
    inv = tm.matrix.inverse()
    assert inv == scaled([[3, -1], [-3, 2]], 3)
    assert potentials(inv).mu == (Fraction(2, 3), Fraction(-1, 3))


def test_singular_instance_raises():
    tm = instance({"I": ("1", "2")}, "I", {"I": (2, 2), "1": (2, 2), "2": (2, 2)})
    with pytest.raises(SingularMatrixError):
        tm.matrix.inverse()


def test_restriction_cache(six_tm):
    cache = RestrictionCache(six_tm)
    assert cache.restricted("I") is six_tm
    assert cache.restricted("A") is cache.restricted("A")  # cached
    assert cache.restricted("A").matrix == RationalMatrix([[3, 2], [3, 3]])
    assert cache.mass("A") == Fraction(1, 3)
    assert cache.mass("C") == Fraction(1, 4)
    assert cache.mass("I") == Fraction(1, 4)
    assert cache.potential("B").mu == (
        Fraction(1, 4),
        Fraction(0),
        Fraction(1, 4),
        Fraction(-1, 4),
    )
    assert cache.inverse("5") == RationalMatrix([[Fraction(1, 4)]])


def test_restriction_cache_views_share_inverses(six_tm, six_inverse):
    first, second = RestrictionCache(six_tm), RestrictionCache(six_tm)
    for node in six_tm.tree.preorder:
        assert first.inverse(node) is second.inverse(node)
    assert first.inverse("I") is six_inverse
    assert second.potential("I") == potentials(six_inverse)


def test_tree_masses_six_leaf(six_tm):
    masses = tree_masses(six_tm)
    assert masses["A"] == Fraction(1, 3)
    assert masses["C"] == Fraction(1, 4)
    assert masses["I"] == Fraction(1, 4)
    cache = RestrictionCache(six_tm)
    assert masses == {node: cache.mass(node) for node in six_tm.tree.preorder}
    assert tree_masses(six_tm, "B") == {
        node: masses[node] for node in ("B", "C", "3", "4", "D", "5", "6")
    }


def _check_tree_masses(tm) -> bool:
    """Recursion == Bareiss on every node; returns whether any restriction is singular.

    The recursion must raise exactly when some restriction's inversion does.
    """
    cache = RestrictionCache(tm)
    oracle = {}
    for node in tm.tree.preorder:
        try:
            oracle[node] = cache.mass(node)
        except SingularMatrixError:
            pass
    if len(oracle) < len(tm.tree):
        with pytest.raises(SingularMatrixError):
            tree_masses(tm)
        return True
    assert tree_masses(tm) == oracle
    return False


def test_tree_masses_match_oracle_on_random_draws():
    singular = 0
    for seed in range(500):
        strictness = "strict" if seed % 2 else "lax"
        tm = build_matrix(*random_instance(seed, 14, strictness))
        singular += _check_tree_masses(tm)
    assert 0 < singular < 250  # lax ties make some draws singular


@pytest.mark.parametrize("leaves", [3, 9, 17])
def test_tree_masses_caterpillars(leaves):
    for seed in range(3):
        assert not _check_tree_masses(caterpillar(leaves, seed))


@pytest.mark.parametrize(
    "children,values,node",
    [
        # spine factor 1 - alpha(I) * m_1 = 1 - 2 * (1/2)
        ({"I": ("1", "2")}, {"I": (2, 2), "1": (2, 2), "2": (3, 3)}, "I"),
        # off-spine denominator 1 - 3 * 3 * (1/3) * (1/3) at M
        (
            {"I": ("M", "3"), "M": ("1", "2")},
            {"I": (1, 1), "M": (3, 3), "1": (3, 3), "2": (3, 3), "3": (4, 4)},
            "M",
        ),
        # a zero leaf value
        ({"I": ("1", "2")}, {"I": (0, 0), "1": (0, 0), "2": (1, 1)}, "1"),
    ],
)
def test_tree_masses_name_the_singular_node(children, values, node):
    tm = instance(children, "I", values)
    with pytest.raises(SingularMatrixError, match=repr(node)):
        tree_masses(tm)
    with pytest.raises(SingularMatrixError, match=repr(node)):
        tree_inverse(tm)
    with pytest.raises(SingularMatrixError):
        tm.restrict(node).matrix.inverse()


def test_schur_blocks_six_leaf(six_tm, six_inverse):
    sb = schur_blocks(six_tm)
    assert sb.alpha_root == 1
    assert sb.mass_minus == Fraction(1, 3)
    assert sb.denom == Fraction(2, 3)
    assert sb.top_left == RationalMatrix([[1, Fraction(-1, 2)], [-1, 1]])
    assert sb.top_right == scaled([[0, 0, 0, -1], [0, 0, 0, 0]], 8)
    assert sb.bottom_left == RationalMatrix(
        [[0, 0], [0, 0], [0, 0], [0, Fraction(-1, 2)]]
    )
    assert sb.assemble() == six_inverse
    # Quadrants tile the inverse exactly.
    assert sb.top_left == six_inverse.submatrix([0, 1], [0, 1])
    assert sb.top_right == six_inverse.submatrix([0, 1], [2, 3, 4, 5])
    assert sb.bottom_left == six_inverse.submatrix([2, 3, 4, 5], [0, 1])
    assert sb.bottom_right == six_inverse.submatrix([2, 3, 4, 5], [2, 3, 4, 5])


def test_schur_blocks_two_leaf():
    tm = instance({"I": ("1", "2")}, "I", {"I": (1, 1), "1": (2, 2), "2": (3, 3)})
    sb = schur_blocks(tm)
    assert sb.mass_minus == Fraction(1, 2)
    assert sb.denom == Fraction(1, 2)
    assert sb.assemble() == tm.matrix.inverse()


def test_schur_blocks_requires_internal_root():
    tm = instance({}, "L", {"L": (2, 2)})
    with pytest.raises(ValueError):
        schur_blocks(tm)


def test_mass_recursion(six_tm):
    report = verify_mass_recursion(six_tm)
    assert report.ok
    assert report.factor == Fraction(9, 8)
    assert report.mass_total == Fraction(1, 4)
    assert report.messages == ()


def test_transition_kernel_six_leaf(six_inverse):
    kernel = transition_kernel(six_inverse)
    assert kernel.eta == kernel.eta_min == Fraction(11, 8)
    assert kernel.p[1, 0] == Fraction(8, 11)
    assert kernel.p[0, 2] == 0
    assert kernel.p == identity_minus(six_inverse, Fraction(11, 8))
    assert all(x >= 0 for row in kernel.p.rows for x in row)
    assert all(s <= 1 for s in kernel.p.col_sums())


def test_transition_kernel_explicit_eta(six_inverse):
    kernel = transition_kernel(six_inverse, Fraction(2))
    assert kernel.eta == 2
    assert kernel.eta_min == Fraction(11, 8)


@pytest.mark.parametrize("eta", [1, 0, Fraction(-1, 2), Fraction(11, 8) - Fraction(1, 100)])
def test_transition_kernel_eta_too_small(six_inverse, eta):
    with pytest.raises(EtaTooSmallError):
        transition_kernel(six_inverse, eta)


def test_transition_kernel_gu_matrix():
    inv = RationalMatrix([[5, 1], [2, 2]]).inverse()
    kernel = transition_kernel(inv)
    assert kernel.eta == Fraction(5, 8)
    assert kernel.p == RationalMatrix(
        [[Fraction(3, 5), Fraction(1, 5)], [Fraction(2, 5), 0]]
    )


def test_transition_kernel_rejects_bad_sign_shape():
    # A positive off-diagonal inverse entry cannot come from this class;
    # the kernel refuses rather than emit a negative "probability".
    with pytest.raises(ValueError, match="off-diagonal of the kernel is negative"):
        transition_kernel(RationalMatrix([[1, Fraction(1, 2)], [0, 1]]))


def test_transition_kernel_rejects_column_sum_above_one():
    # Column 0 of the inverse sums to -1, so column 0 of P sums to 2.
    with pytest.raises(ValueError, match="kernel column 0 sums to 2 > 1"):
        transition_kernel(RationalMatrix([[1, 0], [-2, 1]]))


@pytest.mark.parametrize("eta", [None, Fraction(11, 8), 2, Fraction(7, 3)])
def test_transition_kernel_p_is_identity_minus_scaled_inverse(six_inverse, eta):
    kernel = transition_kernel(six_inverse, eta)
    assert kernel.p == identity_minus(six_inverse, kernel.eta)
    assert kernel.p is kernel.p  # built once, on first read


def _kernel_from_p(minv: RationalMatrix, eta) -> str:
    """Sign-shape verdict read off an explicitly built P, as a second opinion."""
    eta_min = max(minv.diagonal())
    eta = eta_min if eta is None else Fraction(eta)
    if eta <= 0:
        return "EtaTooSmallError"
    p = identity_minus(minv, eta)
    n = minv.nrows
    if any(p[i, i] < 0 for i in range(n)):
        return "EtaTooSmallError"
    if any(p[i, j] < 0 for i in range(n) for j in range(n) if i != j):
        return (
            "ValueError: off-diagonal of the kernel is negative; input is not "
            "the inverse of a supported matrix"
        )
    for j, total in enumerate(p.col_sums()):
        if total > 1:
            return (
                f"ValueError: kernel column {j} sums to {total} > 1; input is not "
                "the inverse of a supported matrix"
            )
    return "ok"


@pytest.mark.parametrize("seed", range(40))
def test_transition_kernel_signs_match_an_explicit_p(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    minv = RationalMatrix(
        [
            [
                Fraction(rng.randint(1, 6), rng.choice((1, 2)))
                if i == j
                else Fraction(rng.choice((-3, -1, 0, 0, 0, 1)), rng.choice((1, 3)))
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    eta = rng.choice([None, Fraction(rng.randint(-1, 8), 2)])
    try:
        kernel = transition_kernel(minv, eta)
    except EtaTooSmallError:
        got = "EtaTooSmallError"
    except ValueError as exc:
        got = f"ValueError: {exc}"
    else:
        got = "ok"
        assert kernel.p == identity_minus(minv, kernel.eta)
    assert got == _kernel_from_p(minv, eta)


def test_neumann_six_leaf(six_tm, six_inverse):
    kernel = transition_kernel(six_inverse)
    report = neumann_check(six_tm, kernel, 20)
    assert report.ok
    assert report.monotone_ok and report.bounded_ok and report.identity_ok
    assert report.steps == 20
    assert len(report.gaps) == 21
    assert report.gaps[1] == 5.5
    assert report.gaps[20] == pytest.approx(2.2453, abs=1e-4)
    # Strictly decreasing from M = 1 on.
    assert all(report.gaps[m] > report.gaps[m + 1] for m in range(1, 20))


def test_neumann_zero_steps(six_tm, six_inverse):
    kernel = transition_kernel(six_inverse)
    report = neumann_check(six_tm, kernel, 0)
    assert report.ok
    assert report.gaps == (5.5,)


def _fraction_matmul(a, b):
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def reference_neumann(tm, kernel, steps: int) -> NeumannReport:
    """The Neumann check in plain Fraction arithmetic, as a second opinion."""
    target = [[kernel.eta * x for x in row] for row in tm.matrix.rows]
    p = [list(row) for row in kernel.p.rows]
    n = len(target)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]  # P^M
    partial = power  # S_M
    monotone_ok = bounded_ok = identity_ok = True
    messages = []
    gaps = []
    for m in range(steps + 1):
        remainder = [[x - s for x, s in zip(r, q)] for r, q in zip(target, partial)]
        if any(x < 0 for row in remainder for x in row):
            bounded_ok = False
            messages.append(f"partial sum exceeds eta*U at M={m}")
        power = _fraction_matmul(power, p)  # P^(M+1)
        if remainder != _fraction_matmul(power, target):
            identity_ok = False
            messages.append(f"remainder identity fails at M={m}")
        gaps.append(float(max(map(max, remainder))))
        if any(x < 0 for row in power for x in row):
            monotone_ok = False
            messages.append(f"partial sums not monotone at M={m}")
        partial = [[s + x for s, x in zip(q, r)] for q, r in zip(partial, power)]
    return NeumannReport(
        steps, tuple(gaps), monotone_ok, bounded_ok, identity_ok, tuple(messages)
    )


@pytest.mark.parametrize("strictness", ["lax", "strict"])
def test_neumann_matches_fraction_reference_on_random_draws(strictness):
    checked = 0
    seed = 0
    while checked < 100:
        tm = build_matrix(*random_instance(seed, 7, strictness))
        seed += 1
        try:
            minv = tm.matrix.inverse()
        except SingularMatrixError:
            continue
        base = transition_kernel(minv)
        for kernel in (base, transition_kernel(minv, base.eta_min + Fraction(3, 7))):
            report = neumann_check(tm, kernel, 4)
            assert report == reference_neumann(tm, kernel, 4)
            assert report.ok
        checked += 1


@pytest.mark.parametrize("eta", [None, Fraction(11, 8) + Fraction(3, 7)])
def test_neumann_six_leaf_matches_fraction_reference(six_tm, six_inverse, eta):
    kernel = transition_kernel(six_inverse, eta)
    assert neumann_check(six_tm, kernel, 50) == reference_neumann(six_tm, kernel, 50)


TWO_LEAF = ({"I": ("1", "2")}, "I", {"I": (1, 1), "1": (2, 2), "2": (3, 3)})


@pytest.mark.parametrize(
    "minv,eta,flags,messages",
    [
        # Not the inverse of U = [[2, 1], [3, 3]]: P = 0, so S_M = I stays
        # below eta*U = U but never reaches it.
        (
            [[1, 0], [0, 1]],
            1,
            (True, True, False),
            ("remainder identity fails at M=0", "remainder identity fails at M=1"),
        ),
        # The true inverse, but eta below its largest diagonal entry 1:
        # P = I - (4/3) U^-1 has a negative diagonal entry.
        (
            [[1, Fraction(-1, 3)], [-1, Fraction(2, 3)]],
            Fraction(3, 4),
            (False, True, True),
            ("partial sums not monotone at M=0", "partial sums not monotone at M=1"),
        ),
        # eta so small that eta*U = U/4 is already below S_0 = I.
        (
            [[1, Fraction(-1, 3)], [-1, Fraction(2, 3)]],
            Fraction(1, 4),
            (False, False, True),
            (
                "partial sum exceeds eta*U at M=0",
                "partial sums not monotone at M=0",
                "partial sum exceeds eta*U at M=1",
                "partial sums not monotone at M=1",
            ),
        ),
    ],
)
def test_neumann_failure_messages(minv, eta, flags, messages):
    # TransitionKernel is built directly: transition_kernel would refuse
    # these, so only the partial-sum checks can catch them.
    tm = instance(*TWO_LEAF)
    minv = RationalMatrix(minv)
    kernel = TransitionKernel(minv, Fraction(eta), max(minv.diagonal()))
    report = neumann_check(tm, kernel, 1)
    assert (report.monotone_ok, report.bounded_ok, report.identity_ok) == flags
    assert report.messages == messages
    assert not report.ok
    assert report == reference_neumann(tm, kernel, 1)
