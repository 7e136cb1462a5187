"""Exact linear algebra over the rationals, eliminated on integers.

A matrix is a list of rows, dense lists or sparse dicts from column key
to an int or Fraction entry; each enters as a primitive int dict. There is
one elimination routine: Span, an echelon basis whose pivots sit at each
row's smallest key, eliminated fraction-free (Bareiss): a kept row w, b
at its pivot, clears the entry a of v there by v <- (b/g) v - (a/g) w,
g = gcd(a, b), and v loses its content: a multiple of v - (a/b) w, so
the rows used and their order are those over Q. rank counts the rows of
a Span; rref is a Span and a back-substitution. kernel eliminates the
columns instead, each tagged with its own key after every row key: a
column whose row part clears leaves a primitive int kernel vector on its
tags, with no back-substitution. Fraction is formed only for what is
handed back: the reduced echelon rows, the nullspace vectors and the
Span.reduce residuals.
The reduced row echelon form is unique, so every result is deterministic.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import current_budget

ZERO = Fraction(0)


def _int_row(row):
    """(v, den, g): v the primitive int dict of the nonzero entries of a
    list or dict row, v = (den / g) * row. An int row with no content, as
    most are, is copied once."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    v = {c: x for c, x in items if x}
    den = 1
    if not all(type(x) is int for x in v.values()):
        den = lcm(*(x.denominator for x in v.values()))
        v = {c: x.numerator * (den // x.denominator) for c, x in v.items()}
    g = gcd(*v.values()) or 1
    if g != 1:
        v = {c: x // g for c, x in v.items()}
    return v, den, g


def _reduce(v, rows):
    """Clear the int row v, in place, at the pivots of the (pivot, row)
    pairs, each row zero at the pivots before it; returns (num, den), v
    being left num/den times its residual over Q. One step per row used."""
    used, num, den = 0, 1, 1
    for pivot, row in rows:
        a = v.get(pivot)
        if a:
            g = gcd(a, row[pivot])
            a, b = a // g, row[pivot] // g
            if b != 1:
                for k in v:
                    v[k] *= b
            for k, x in row.items():
                s = v.get(k, 0) - a * x
                if s:
                    v[k] = s
                else:
                    del v[k]
            g = gcd(*v.values()) or 1
            if g != 1:
                for k in v:
                    v[k] //= g
            used, num, den = used + 1, num * b, den * g
    current_budget().spend(used)
    return num, den


class Span:
    """Echelon basis of the span of the rows added so far. Each kept row
    is a primitive int dict, nonzero at its pivot, its smallest key, and
    zero at the pivots of the rows kept before it."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []  # (pivot, int row)

    def reduce(self, row):
        """The residual of row modulo the span over Q, as a sparse dict of
        Fractions; empty exactly when row lies in the span."""
        v, den, g = _int_row(row)
        num, d = _reduce(v, self.rows)
        s = Fraction(den * num, g * d)
        return {k: x / s for k, x in v.items()}

    def contains(self, row):
        """Whether row lies in the span; no Fraction is formed."""
        v = _int_row(row)[0]
        _reduce(v, self.rows)
        return not v

    def add(self, row):
        """Keep the residual of row iff it is nonzero; returns whether
        row was independent of the span."""
        v = _int_row(row)[0]
        _reduce(v, self.rows)
        if v:
            self.rows.append((min(v), v))
        return bool(v)


def _span(rows):
    span = Span()
    for row in rows:
        span.add(row)
    return span


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_cols) with sparse rows of Fractions in
    ascending pivot order. Input rows are not modified; zero rows are
    dropped.
    """
    span = _span(rows)
    done = []  # fully reduced rows, descending pivot
    for pivot, row in sorted(span.rows, key=lambda pr: pr[0], reverse=True):
        _reduce(row, done)
        done.append((pivot, row))
    done.reverse()
    return ([{k: Fraction(x, row[p]) for k, x in row.items()}
             for p, row in done], [p for p, _ in done])


def rank(rows, ncols):
    """The number of rows of their echelon basis: no back-substitution."""
    return len(_span(rows).rows)


def kernel(rows, ncols):
    """Basis of the right kernel, as (c, v) for each free column c in
    ascending order: v the primitive int dict, positive at c, of the
    kernel vector supported on c and the pivot columns before it.

    Column c of the n rows is tagged 1 at key n + c, after every row key,
    and reduced against the columns kept before it; when its row part
    clears, what is left on the tags is a kernel vector with that
    support. The only such vector with a 1 at c is the reduced row
    echelon form's, so v is that vector scaled."""
    n = len(rows)
    cols = [{n + c: 1} for c in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in _int_row(row)[0].items():
            cols[c][r] = x
    span = Span()
    out = []
    for c, col in enumerate(cols):
        _reduce(col, span.rows)
        pivot = min(col)
        if pivot < n:
            span.rows.append((pivot, col))
        else:
            sign = 1 if col[n + c] > 0 else -1
            out.append((c, {k - n: sign * x for k, x in col.items()}))
    return out


def nullspace(rows, ncols):
    """Basis of the right kernel, as a list of length-ncols Fraction
    vectors: the vectors of kernel, each scaled to 1 at its free column."""
    out = []
    for c, v in kernel(rows, ncols):
        vec = [ZERO] * ncols
        for k, x in v.items():
            vec[k] = Fraction(x, v[c])
        out.append(vec)
    return out
