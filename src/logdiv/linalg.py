"""Exact linear algebra over the rationals, eliminated on integers.

A row or a column is a dense list or a sparse dict from key to an int or
Fraction entry. There is one elimination routine: Span, an echelon basis
whose pivots sit at each row's smallest key, each row entering as a
primitive int dict and eliminated fraction-free (Bareiss): a kept row w,
b at its pivot, clears the entry a of v there by v <- (b/g) v - (a/g) w,
g = gcd(a, b), and v loses its content: a multiple of v - (a/b) w, so
the rows used and their order are those over Q. rank counts the rows of
a Span; rref is a Span and a back-substitution. kernel takes a matrix
by its columns, the way every caller builds it, and eliminates them,
each tagged with its own key after every row key: a column whose row
part clears leaves a primitive int kernel vector on its tags, with no
back-substitution. A column kernel keeps pivots at the row key that the
fewest input columns have an entry at (a static Markowitz count, for
less fill), the smallest such key on a tie; rref and Span keep the
smallest key, as rref's pivots are the column-order ones. No Fraction is
formed: rref returns primitive int rows. The reduced row echelon form is
unique, and so is each kernel vector whatever its pivots (see kernel),
so every result is deterministic.
"""

from math import gcd, lcm

from .errors import current_budget


def _ints(pairs):
    """(v, den): v the dict of den times the nonzero entries of the (key,
    entry) pairs, in ints, den the lcm of their denominators: the one
    scaling of Fractions to ints of the package, made in the one dict."""
    v = {c: x for c, x in pairs if x}
    if all(type(x) is int for x in v.values()):
        return v, 1
    den = lcm(*(x.denominator for x in v.values()))
    for c, x in v.items():
        v[c] = x.numerator * (den // x.denominator)
    return v, den


def _pairs(row):
    """The (key, entry) pairs of a list or dict row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _int_row(row):
    """(v, den, g): v the primitive int dict of the nonzero entries of a
    list or dict row, v = (den / g) * row."""
    v, den = _ints(_pairs(row))
    g = gcd(*v.values()) or 1
    if g != 1:
        v = {c: x // g for c, x in v.items()}
    return v, den, g


def _reduce(v, rows):
    """Clear the int row v, in place and up to a nonzero factor, at the
    pivots of the (pivot, row) pairs, each row zero at the pivots before
    it. One step per row used."""
    used = 0
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
            used += 1
    current_budget().spend(used)


class Span:
    """Echelon basis of the span of the rows added so far. Each kept row
    is a primitive int dict, nonzero at its pivot, its smallest key, and
    zero at the pivots of the rows kept before it."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []  # (pivot, int row)

    def contains(self, row):
        """Whether row lies in the span."""
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
    """Reduced row echelon form: (echelon_rows, pivot_cols), in ascending
    pivot order, each row a primitive sparse int dict, nonzero (of either
    sign) at its pivot and zero at every other pivot, so row / row[pivot]
    is the echelon row over Q. Input rows are not modified; zero rows are
    dropped."""
    span = _span(rows)
    done = []  # fully reduced rows, descending pivot
    for pivot, row in sorted(span.rows, key=lambda pr: pr[0], reverse=True):
        _reduce(row, done)
        done.append((pivot, row))
    done.reverse()
    return [row for _, row in done], [p for p, _ in done]


def rank(rows):
    """The number of rows of their echelon basis: no back-substitution.
    The rank of a matrix is also that of its columns."""
    return len(_span(rows).rows)


def _eliminate(col, tag, span):
    """A column kernel's step, for logder's Q-span tests: den * col, with
    den at the key tag after every row key, reduced against the (pivot,
    row) pairs of span."""
    v, den = _ints(_pairs(col))
    v[tag] = den
    _reduce(v, span)
    return v


def kernel(cols, nrows):
    """Basis of the right kernel of the matrix with the given columns,
    over the row keys 0..nrows-1, as (c, v) for each free column c in
    ascending order: v the primitive int dict, positive at c, of the
    kernel vector supported on c and the pivot columns before it.

    Column c enters as den * column, tagged den at key nrows + c, after
    every row key, den the lcm of its denominators (so the pair is
    primitive, and its tag part is that of a kernel vector of the given
    columns), and is reduced against the columns kept before it; when its
    row part clears, what is left on the tags is a kernel vector with
    that support. The only such vector with a 1 at c is the reduced row
    echelon form's, so v is that vector scaled.

    A kept column's pivot is the row key k with the least (count[k], k),
    count[k] the number of input columns with an entry in row k, counted
    in one pass over the nonzeros before any is eliminated. Any nonzero
    row key would do: _reduce needs only that each kept column is zero at
    the pivots kept before it, and a column is free exactly when it lies
    in the span of the columns before it, whatever their pivots. So the
    free columns and their vectors are those of the smallest-key rule;
    the count only keeps the rows that many columns share from becoming
    pivots, where clearing them would fill every later column."""
    cols = [_ints(_pairs(col)) for col in cols]
    m = nrows + len(cols)
    order = list(range(nrows))  # k + m * (the columns with an entry at k)
    for v, _ in cols:
        for k in v:
            order[k] += m
    order += range(m * m, m * m + len(cols))  # each tag after every row
    span = []
    out = []
    for c, (v, den) in enumerate(cols):
        v[nrows + c] = den
        _reduce(v, span)
        pivot = min(v, key=order.__getitem__)
        if pivot < nrows:
            span.append((pivot, v))
        else:
            sign = 1 if v[nrows + c] > 0 else -1
            out.append((c, {k - nrows: sign * x for k, x in v.items()}))
    return out
