"""Exact linear algebra over the rationals.

A matrix is a list of rows. A row may be a dense list or a sparse dict
from column index to entry; internally, and in every echelon form
returned, rows are sparse dicts of nonzero Fractions. There is one
elimination routine: Span, an incremental echelon basis whose pivots sit
at each row's smallest column, and rref is a Span followed by
back-substitution. The reduced row echelon form is unique, so every
result is deterministic.
"""

from fractions import Fraction

from .errors import current_budget

ZERO = Fraction(0)
ONE = Fraction(1)


def _sparse(row):
    """A list or dict row as a dict of its nonzero entries as Fractions."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: Fraction(x) for c, x in items if x}


def _reduce(v, rows):
    """Subtract from the sparse vector v, in place, the multiples of the
    (pivot, row) pairs that clear its pivot entries; rows later in the
    sequence must vanish at the pivots of earlier ones. One budget step
    per row v is reduced by."""
    used = 0
    for pivot, row in rows:
        f = v.get(pivot)
        if f:
            for k, x in row.items():
                s = v.get(k, ZERO) - f * x
                if s:
                    v[k] = s
                else:
                    del v[k]
            used += 1
    current_budget().spend(used)
    return v


class Span:
    """Echelon basis of the span of the rows added so far. Each kept row
    has entry 1 at its pivot, its smallest column, and vanishes at the
    pivots of the rows kept before it."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []  # (pivot, sparse row)

    def reduce(self, row):
        """The residual of row modulo the span, as a sparse dict; zero
        (empty) exactly when row lies in the span."""
        return _reduce(_sparse(row), self.rows)

    def add(self, row):
        """Keep the residual of row iff it is nonzero; returns whether
        row was independent of the span."""
        v = self.reduce(row)
        if not v:
            return False
        pivot = min(v)
        inv = ONE / v[pivot]
        self.rows.append((pivot, {k: x * inv for k, x in v.items()}))
        return True


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_cols) with sparse rows in ascending
    pivot order. Input rows are not modified; zero rows are dropped.
    """
    span = Span()
    for row in rows:
        span.add(row)
    done = []  # fully reduced rows, descending pivot
    for pivot, row in sorted(span.rows, key=lambda pr: pr[0], reverse=True):
        done.append((pivot, _reduce(row, done)))
    done.reverse()
    return [row for _, row in done], [pivot for pivot, _ in done]


def rank(rows, ncols):
    return len(rref(rows, ncols)[0])


def nullspace(rows, ncols):
    """Basis of the right kernel, as a list of length-ncols vectors.

    Free variables are set to 1 one at a time, in ascending column order.
    """
    ech, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = {}
    for fc in free:
        basis[fc] = [ZERO] * ncols
        basis[fc][fc] = ONE
    for row, pc in zip(ech, pivots):
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return [basis[fc] for fc in free]
