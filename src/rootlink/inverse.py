"""Exact inversion reports: potentials, root-split blocks, kernels.

The elimination-based :meth:`RationalMatrix.inverse` is the ground truth
here.  (Reports take their inverse from the tree instead, through
:mod:`rootlink.treesolve`, certified by an exact product check; the
self-test compares it with this one.)  A matrix keeps its inverse and a
:class:`~rootlink.build.TreeMatrix` keeps its restrictions, so every check
on one instance reads the same eliminations; :class:`RestrictionCache` is
the per-node view of them (restriction, inverse, potentials, mass) that
the self-test reads.  The diagonal-times-mass bounds of an off-spine
restriction read its elimination inverse.  The closed-form block
decomposition at the root split, assembled from plain Fraction rows, is
cross-checked against the elimination inverse.  The transition kernel
``P = I - (1/eta) * inverse`` and its Neumann partial sums round out the
probabilistic reading of the inverse; the partial sums are checked on
integer forms, over one positive denominator per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import kernels
from .build import TreeMatrix
from .errors import (
    EtaTooSmallError,
    SingularMatrixError,
    TheoremMismatchError,
)
from .matrix import Rational, RationalMatrix, to_fraction
from .roots import StructureSets, build_structure_sets

__all__ = [
    "PotentialReport",
    "potentials",
    "RestrictionCache",
    "MassBoundReport",
    "diagonal_mass_bounds",
    "SchurBlocks",
    "schur_blocks",
    "MassRecursionReport",
    "verify_mass_recursion",
    "TransitionKernel",
    "transition_kernel",
    "NeumannReport",
    "neumann_check",
]


@dataclass(frozen=True)
class PotentialReport:
    """Row-sum and column-sum potentials of an inverse matrix."""

    mu: tuple[Fraction, ...]  # row sums
    nu: tuple[Fraction, ...]  # column sums
    mu_bar: Fraction  # total mass (sum of all entries)


def potentials(minv: RationalMatrix) -> PotentialReport:
    """Potentials of an (already inverted) matrix: mu rows, nu columns."""
    return PotentialReport(minv.row_sums(), minv.col_sums(), minv.total())


class RestrictionCache:
    """One instance's oracle side, per tree node: restriction, inverse, potentials.

    Every inverse here comes from elimination.  Restrictions and inverses
    are kept on ``tm`` and its matrices, so all views of one ``tm`` share
    them; a view adds only its structure sets and the potentials it read.
    """

    def __init__(self, tm: TreeMatrix):
        self.tm = tm
        self._potential: dict[str, PotentialReport] = {}

    @cached_property
    def sets(self) -> StructureSets:
        return build_structure_sets(self.tm.tree, self.tm.annotation)

    def restricted(self, node: str) -> TreeMatrix:
        return self.tm.restrict(node)

    def inverse(self, node: str) -> RationalMatrix:
        try:
            return self.tm.restrict(node).matrix.inverse()
        except SingularMatrixError:
            raise SingularMatrixError(
                f"restriction at node {node!r} is singular"
            ) from None

    def potential(self, node: str) -> PotentialReport:
        if node not in self._potential:
            self._potential[node] = potentials(self.inverse(node))
        return self._potential[node]

    def mass(self, node: str) -> Fraction:
        return self.potential(node).mu_bar


@dataclass(frozen=True)
class MassBoundReport:
    """Diagonal-times-mass lower bounds for an off-spine restriction."""

    mass: Fraction
    products: tuple[Fraction, ...]  # diagonal entry times total mass, per leaf
    max_diag: Fraction
    tight: bool  # max_diag * mass == 1
    constant_column_at_max: bool
    ok: bool
    messages: tuple[str, ...]


def diagonal_mass_bounds(m: RationalMatrix) -> MassBoundReport:
    """Check ``diag * mass >= 1`` per entry, with tightness iff a constant column.

    The mass is the sum of the entries of ``m``'s exact inverse (which ``m``
    keeps once inverted).  Applies to restrictions at off-spine nodes (and
    to the minus side of the root split); the full matrix violates these
    bounds in general because of its constant fixed-leaf row.
    """
    mass = m.inverse().total()
    diag = m.diagonal()
    products = tuple(d * mass for d in diag)
    max_diag = max(diag)
    messages = []
    for i, prod in enumerate(products):
        if prod < 1:
            messages.append(f"diagonal {i} times mass {prod} < 1")
    tight = max_diag * mass == 1
    constant = any(
        all(m[i, j] == max_diag for i in range(m.nrows)) for j in range(m.ncols)
    )
    if tight != constant:
        messages.append(
            f"tightness mismatch: max_diag*mass == 1 is {tight} but "
            f"constant max column present is {constant}"
        )
    return MassBoundReport(
        mass, products, max_diag, tight, constant, not messages, tuple(messages)
    )


@dataclass(frozen=True)
class SchurBlocks:
    """Closed-form inverse blocks at the root's minus/plus split."""

    top_left: RationalMatrix
    top_right: RationalMatrix
    bottom_left: RationalMatrix
    bottom_right: RationalMatrix
    alpha_root: Fraction
    mu_minus: tuple[Fraction, ...]
    nu_minus: tuple[Fraction, ...]
    nu_plus: tuple[Fraction, ...]
    mass_minus: Fraction
    denom: Fraction  # 1 - alpha_root * mass_minus

    def assemble(self) -> RationalMatrix:
        rows = []
        for left, right in zip(self.top_left.rows, self.top_right.rows):
            rows.append(list(left) + list(right))
        for left, right in zip(self.bottom_left.rows, self.bottom_right.rows):
            rows.append(list(left) + list(right))
        return RationalMatrix(rows)


def schur_blocks(tm: TreeMatrix) -> SchurBlocks:
    """Compute the four inverse blocks at the root split and verify them.

    The assembled blocks are compared entry-for-entry against the
    elimination inverse; a difference raises
    :class:`TheoremMismatchError`, as does a nonpositive denominator on a
    nonsingular matrix.
    """
    tree = tm.tree
    if tree.is_leaf(tree.root):
        raise ValueError("root split requires at least 2 leaves")
    cache = RestrictionCache(tm)
    full_inverse = cache.inverse(tree.root)

    minus, plus = tree.children(tree.root)
    inv_minus = cache.inverse(minus)
    inv_plus = cache.inverse(plus)
    pot_minus = cache.potential(minus)
    pot_plus = cache.potential(plus)
    alpha_root = tm.alpha(tree.root)
    mass_minus = pot_minus.mu_bar
    denom = 1 - alpha_root * mass_minus
    if denom == 0:
        raise SingularMatrixError("root-split denominator is zero")
    if denom < 0:
        raise TheoremMismatchError(
            f"root-split denominator {denom} is negative on a nonsingular matrix"
        )

    # Rank-one corrections: mu_minus times nu_minus or nu_plus on the top
    # blocks, and the fixed leaf's row (the last one) alone on the bottom.
    scale = alpha_root / denom
    top_left = [
        [x + mu * nu * scale for x, nu in zip(row, pot_minus.nu)]
        for row, mu in zip(inv_minus.rows, pot_minus.mu)
    ]
    top_right = [[-mu * nu * scale for nu in pot_plus.nu] for mu in pot_minus.mu]
    bottom_left = [[Fraction(0)] * len(pot_minus.nu) for _ in pot_plus.nu]
    bottom_left[-1] = [-nu / denom for nu in pot_minus.nu]
    bottom_right = [list(row) for row in inv_plus.rows]
    bottom_right[-1] = [
        x + nu * scale * mass_minus for x, nu in zip(bottom_right[-1], pot_plus.nu)
    ]

    blocks = SchurBlocks(
        RationalMatrix(top_left),
        RationalMatrix(top_right),
        RationalMatrix(bottom_left),
        RationalMatrix(bottom_right),
        alpha_root,
        pot_minus.mu,
        pot_minus.nu,
        pot_plus.nu,
        mass_minus,
        denom,
    )
    if blocks.assemble() != full_inverse:
        raise TheoremMismatchError(
            "assembled root-split blocks differ from the elimination inverse"
        )
    return blocks


@dataclass(frozen=True)
class MassRecursionReport:
    """Result of checking the mass/potential recursion at the root split."""

    ok: bool
    factor: Fraction  # (1 - alpha_root * mass_plus) / (1 - alpha_root * mass_minus)
    mass_total: Fraction
    messages: tuple[str, ...]


def verify_mass_recursion(tm: TreeMatrix) -> MassRecursionReport:
    """Check the exact recursion tying the full potentials to the split blocks.

    Verifies that the full row-sum potential equals the minus-side potential
    scaled by ``(1 - alpha_root*mass_plus)/(1 - alpha_root*mass_minus)``
    stacked over the plus-side potential with a correction at the fixed
    leaf, and that the total mass equals both the plus side's mass and the
    reciprocal of the fixed leaf's diagonal entry.
    """
    tree = tm.tree
    if tree.is_leaf(tree.root):
        raise ValueError("mass recursion requires at least 2 leaves")
    cache = RestrictionCache(tm)
    full = cache.potential(tree.root)
    minus, plus = tree.children(tree.root)
    pot_minus = cache.potential(minus)
    pot_plus = cache.potential(plus)
    alpha_root = tm.alpha(tree.root)
    denom = 1 - alpha_root * pot_minus.mu_bar
    if denom == 0:
        raise SingularMatrixError("root-split denominator is zero")
    factor = (1 - alpha_root * pot_plus.mu_bar) / denom

    messages = []
    expected_top = tuple(factor * x for x in pot_minus.mu)
    size_minus = len(pot_minus.mu)
    actual_top = full.mu[:size_minus]
    if actual_top != expected_top:
        messages.append(
            f"minus-side potential mismatch: {actual_top} != {expected_top}"
        )
    correction = pot_minus.mu_bar * factor
    expected_bottom = list(pot_plus.mu)
    expected_bottom[-1] -= correction
    if list(full.mu[size_minus:]) != expected_bottom:
        messages.append(
            f"plus-side potential mismatch: {full.mu[size_minus:]} != "
            f"{tuple(expected_bottom)}"
        )
    if full.mu_bar != pot_plus.mu_bar:
        messages.append(
            f"total mass {full.mu_bar} != plus-side mass {pot_plus.mu_bar}"
        )
    last = tm.matrix[-1, -1]
    if last == 0 or full.mu_bar != 1 / last:
        messages.append(
            f"total mass {full.mu_bar} != reciprocal of last diagonal {last}"
        )
    return MassRecursionReport(not messages, factor, full.mu_bar, tuple(messages))


@dataclass(frozen=True)
class TransitionKernel:
    """Sub-Markov kernel derived from an inverse matrix and a scale eta."""

    minv: RationalMatrix
    eta: Fraction
    eta_min: Fraction  # largest diagonal entry of the inverse

    @cached_property
    def p(self) -> RationalMatrix:
        """``P = I - (1/eta)*minv``, built on first read."""
        denom, nums = self.minv.integer_form()
        full = denom * self.eta.numerator  # P = (full*I - eta.denominator*nums) / full
        scale = self.eta.denominator
        return RationalMatrix.from_integer_form(
            full,
            (
                [(full if i == j else 0) - scale * x for j, x in enumerate(row)]
                for i, row in enumerate(nums)
            ),
        )


def transition_kernel(
    minv: RationalMatrix, eta: Optional[Rational] = None
) -> TransitionKernel:
    """Check that ``P = I - (1/eta)*minv`` is sub-Markov, without building P.

    ``eta`` defaults to the largest diagonal entry of ``minv`` (the smallest
    admissible value).  A smaller eta drives a diagonal entry of P negative
    and raises :class:`EtaTooSmallError`.  Off-diagonal negativity or a
    column sum above one means ``minv`` is not the inverse of a supported
    matrix and raises :class:`ValueError` (which
    :func:`~rootlink.report.build_report` reports as a theorem mismatch).
    Since ``eta > 0``, each sign is read off ``minv`` itself: ``p_ii < 0``
    exactly when ``m_ii > eta``, an off-diagonal ``p_ij < 0`` exactly when
    ``m_ij > 0``, and column ``j`` of P sums to ``1 - nu_j/eta``, above one
    exactly when the column sum ``nu_j`` of ``minv`` is negative.  P itself
    is built only when :attr:`TransitionKernel.p` is first read.
    """
    if minv.nrows != minv.ncols:
        raise ValueError(f"matrix is not square: {minv.shape}")
    diagonal = minv.diagonal()
    eta_min = max(diagonal)
    eta_val = eta_min if eta is None else to_fraction(eta)
    if eta_val <= 0:
        raise EtaTooSmallError(f"eta must be positive, got {eta_val}")
    if any(d > eta_val for d in diagonal):
        raise EtaTooSmallError(
            f"eta {eta_val} below the largest inverse diagonal {eta_min}"
        )
    _, nums = minv.integer_form()
    for i, row in enumerate(nums):
        if any(x > 0 for x in row[:i]) or any(x > 0 for x in row[i + 1 :]):
            raise ValueError(
                "off-diagonal of the kernel is negative; input is not the "
                "inverse of a supported matrix"
            )
    for j, total in enumerate(minv.col_sums()):
        if total < 0:
            raise ValueError(
                f"kernel column {j} sums to {1 - total / eta_val} > 1; input is "
                "not the inverse of a supported matrix"
            )
    return TransitionKernel(minv, eta_val, eta_min)


@dataclass(frozen=True)
class NeumannReport:
    """Exact partial-sum checks plus float gap diagnostics."""

    steps: int
    gaps: tuple[float, ...]  # largest entry of eta*U - S_M, M = 0..steps
    monotone_ok: bool
    bounded_ok: bool
    identity_ok: bool
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.monotone_ok and self.bounded_ok and self.identity_ok


def neumann_check(
    tm: TreeMatrix, kernel: TransitionKernel, steps: int
) -> NeumannReport:
    """Verify the Neumann partial sums of the kernel against ``eta*U``.

    Exactly checks, for M = 0..steps, that the partial sums
    ``S_M = I + P + ... + P^M`` grow monotonically, stay entrywise below
    ``eta*U``, and satisfy ``eta*U - S_M = P^(M+1) @ (eta*U)``.  Gap sizes
    (largest entry of the remainder) are reported as floats per M, purely
    as a convergence diagnostic.

    Every check runs on integers.  With ``P = Q / D`` and ``U = U_int / L``
    (their integer forms) and ``eta = a / b``, ``P^M = Q^M / D^M`` and
    ``S_M = T_M / D^M`` with ``T_0 = I`` and ``T_(M+1) = D*T_M + Q^(M+1)``,
    so the remainder ``eta*U - S_M`` is ``a*D^M*U_int - b*L*T_M`` over the
    positive denominator ``b*L*D^M``, and the identity holds exactly when
    ``D`` times that numerator equals ``a * Q^(M+1) @ U_int``.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    denom, q = kernel.p.integer_form()
    scale, u = tm.matrix.integer_form()
    a = kernel.eta.numerator
    partial_coef = kernel.eta.denominator * scale  # b*L
    n = len(u)
    power = [[int(i == j) for j in range(n)] for i in range(n)]  # Q^M
    partial = power  # T_M
    denom_power = 1  # D^M
    monotone_ok = bounded_ok = identity_ok = True
    messages: list[str] = []
    gaps: list[float] = []
    for m in range(steps + 1):
        target_coef = a * denom_power
        remainder = [
            [target_coef * x - partial_coef * t for x, t in zip(row, trow)]
            for row, trow in zip(u, partial)
        ]
        if any(x < 0 for row in remainder for x in row):
            bounded_ok = False
            messages.append(f"partial sum exceeds eta*U at M={m}")
        power = kernels.matmul_int(power, q)  # Q^(M+1)
        tail = kernels.matmul_int(power, u)  # P^(M+1) eta U = a*tail / (b*L*D^(M+1))
        if any(
            denom * x != a * y
            for row, trow in zip(remainder, tail)
            for x, y in zip(row, trow)
        ):
            identity_ok = False
            messages.append(f"remainder identity fails at M={m}")
        largest = max(map(max, remainder))
        gaps.append(float(Fraction(largest, partial_coef * denom_power)))
        # Q^(M+1) >= 0 drives S_(M+1) >= S_M
        if any(x < 0 for row in power for x in row):
            monotone_ok = False
            messages.append(f"partial sums not monotone at M={m}")
        partial = [
            [denom * t + x for t, x in zip(trow, row)]
            for trow, row in zip(partial, power)
        ]
        denom_power *= denom
    return NeumannReport(
        steps, tuple(gaps), monotone_ok, bounded_ok, identity_ok, tuple(messages)
    )
