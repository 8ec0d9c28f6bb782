"""The benchmark's unit of time: one run of a fixed reference computation.

On a shared host the speed of a core can change by half within seconds, as
other tenants come and go, and a timing taken at one moment is not
comparable with one taken a minute later.  The benchmark therefore times
this fixed computation between the items it measures, in the same process,
and divides each item's wall time by the reference times taken just before
and just after it.  The quotient is the item's cost in *refs*; the host's
speed cancels out of it, while a change to rootlink moves it.

The reference is exact Gauss-Jordan inversion of a fixed 12 x 12 rational
matrix in ``fractions.Fraction`` arithmetic, the same kind of work
(small-denominator rationals, Python integers and lists) that rootlink
does.  It uses nothing from rootlink, so no change to rootlink moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

ORDER = 12

# Dyadic entries with a dominant diagonal: nonsingular, and the inverse's
# denominators grow over the elimination as rootlink's do.
MATRIX = tuple(
    tuple(
        Fraction((i * 7 + j * 5) % 13 - 6 + (8 if i == j else 0), 1 << ((i + 2 * j) % 4))
        for j in range(ORDER)
    )
    for i in range(ORDER)
)


def invert(matrix) -> list[list[Fraction]]:
    """The inverse of a nonsingular square ``matrix``, by Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for k in range(n):
        pivot_row = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
        pivot = rows[k][k]
        rows[k] = [x / pivot for x in rows[k]]
        for i in range(n):
            factor = rows[i][k]
            if i != k and factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    start = time.perf_counter()
    invert(MATRIX)
    return time.perf_counter() - start


class ReferenceClock:
    """Converts item wall times to refs, sampling the reference as the run goes.

    After every ``spacing`` seconds of timed work the reference runs once;
    each item timed since the previous sample is divided by the mean of that
    sample and this one.
    """

    def __init__(self, spacing: float):
        self.spacing = spacing
        self.samples = [reference_seconds()]
        self.pending: list[tuple[list, int, float]] = []
        self.work = 0.0

    def add(self, refs: list, seconds: float) -> None:
        """Append ``seconds``, in refs, to ``refs`` (filled in at the next sample)."""
        refs.append(None)
        self.pending.append((refs, len(refs) - 1, seconds))
        self.work += seconds
        if self.work >= self.spacing:
            self.sample()

    def sample(self) -> None:
        """Run the reference now and convert every pending item."""
        self.samples.append(reference_seconds())
        scale = (self.samples[-2] + self.samples[-1]) / 2
        for refs, i, seconds in self.pending:
            refs[i] = seconds / scale
        self.pending.clear()
        self.work = 0.0
