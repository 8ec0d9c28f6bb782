"""Exact inversion, potentials, tree masses, Schur split, kernel, and partial sums."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rootlink import (
    EtaTooSmallError,
    RationalMatrix,
    RestrictionCache,
    SingularMatrixError,
    TheoremMismatchError,
    build_matrix,
    build_tree,
    neumann_check,
    potentials,
    random_instance,
    schur_blocks,
    transition_kernel,
    tree_masses,
    verify_mass_recursion,
)

from conftest import SIX_LEAF_INVERSE_8X, annotation_from, instance


def scaled(rows: list[list[int]], denom: int) -> RationalMatrix:
    return RationalMatrix([[Fraction(x, denom) for x in row] for row in rows])


def test_six_leaf_inverse_exact(six_tm, six_inverse):
    assert six_inverse == scaled(SIX_LEAF_INVERSE_8X, 8)
    assert six_tm.matrix @ six_inverse == RationalMatrix.identity(6)
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
    assert pot.nu_bar == pot.mu_bar


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


def test_restriction_cache_seeded_with_the_full_inverse(six_tm, six_inverse):
    cache = RestrictionCache(six_tm, six_inverse)
    assert cache.inverse("I") is six_inverse
    assert cache.potential("I") == potentials(six_inverse)


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


def _caterpillar(leaves: int, seed: int):
    """A left comb under the root's minus child; the fixed leaf is root.plus."""
    children = {"root": ("c1", "f")}
    for k in range(1, leaves - 2):
        children[f"c{k}"] = (f"c{k + 1}", f"l{k}")
    children[f"c{leaves - 2}"] = ("l0", f"l{leaves - 2}")
    tree = build_tree(children, "root")
    rng = random.Random(seed)

    def step() -> Fraction:
        return Fraction(rng.randint(1, 4), rng.choice((1, 2, 4)))

    values = {"root": (Fraction(rng.randint(0, 2), 2),) * 2}
    for node in tree.preorder:
        a, b = values[node]
        for child in tree.children(node):
            if tree.is_leaf(child):
                values[child] = (max(a, b) + step(),) * 2
            else:
                child_alpha = a + step()
                values[child] = (child_alpha, max(child_alpha, b) + step())
    return build_matrix(tree, annotation_from(values))


@pytest.mark.parametrize("leaves", [3, 9, 17])
def test_tree_masses_caterpillars(leaves):
    for seed in range(3):
        assert not _check_tree_masses(_caterpillar(leaves, seed))


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
    assert kernel.p == RationalMatrix.identity(6) - six_inverse.scale(
        Fraction(8, 11)
    )
    assert all(x >= 0 for row in kernel.p.rows for x in row)
    assert all(s <= 1 for s in kernel.p.col_sums())


def test_transition_kernel_explicit_eta(six_inverse):
    kernel = transition_kernel(six_inverse, Fraction(2))
    assert kernel.eta == 2
    assert kernel.eta_min == Fraction(11, 8)


def test_transition_kernel_eta_too_small(six_inverse):
    with pytest.raises(EtaTooSmallError):
        transition_kernel(six_inverse, 1)


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
    with pytest.raises(ValueError):
        transition_kernel(RationalMatrix([[1, Fraction(1, 2)], [0, 1]]))


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
