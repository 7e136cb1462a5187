"""Exact linear algebra over the rationals.

Matrices are lists of row lists of Fraction. Everything here is
deterministic: pivots are chosen by position, never by magnitude, so
repeated runs produce identical echelon forms and kernel bases.
"""

from fractions import Fraction

from .errors import current_budget

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_cols). Input rows are not modified.
    Zero rows are dropped from the result.
    """
    work = [list(map(Fraction, r)) for r in rows]
    budget = current_budget()
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = ONE / work[r][c]
        work[r] = [x * inv for x in work[r]]
        eliminated = 0
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                row_r = work[r]
                work[i] = [a - f * b for a, b in zip(work[i], row_r)]
                eliminated += 1
        budget.spend(eliminated)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows, ncols):
    return len(rref(rows, ncols)[0])


def nullspace(rows, ncols):
    """Basis of the right kernel, as a list of length-ncols vectors.

    Free variables are set to 1 one at a time, in ascending column order.
    """
    ech, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -ech[i][fc]
        basis.append(v)
    return basis


def solve(rows, ncols, rhs):
    """One solution x of A x = rhs, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ech, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = ech[i][ncols]
    return x


def in_row_space(ech, pivots, vec):
    """Reduce vec against an rref basis; returns the residual vector."""
    v = list(map(Fraction, vec))
    for row, pc in zip(ech, pivots):
        if v[pc] != 0:
            f = v[pc]
            v = [a - f * b for a, b in zip(v, row)]
    return v


class Span:
    """Echelon basis of the span of the sparse vectors added so far; a
    sparse vector is a dict from any coordinate key to its entry."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []  # (pivot key, row with entry 1 at the pivot)

    def add(self, vec):
        """Reduce vec against the kept rows and keep the residual iff it is
        nonzero; returns whether vec was independent of the span."""
        v = {k: x for k, x in vec.items() if x}
        eliminated = 0
        for pivot, row in self.rows:
            f = v.get(pivot)
            if f:
                for k, x in row.items():
                    s = v.get(k, ZERO) - f * x
                    if s:
                        v[k] = s
                    else:
                        del v[k]
                eliminated += 1
        current_budget().spend(eliminated)
        if not v:
            return False
        pivot = next(iter(v))
        inv = ONE / v[pivot]
        self.rows.append((pivot, {k: x * inv for k, x in v.items()}))
        return True


def det_bareiss(rows):
    """Fraction-free determinant (Bareiss) of a square rational matrix.

    Denominators are cleared first so every intermediate division is exact
    integer division.
    """
    n = len(rows)
    if n == 0:
        return ONE
    scale = ONE
    m = []
    for r in rows:
        fr = [Fraction(x) for x in r]
        den = 1
        for x in fr:
            den = den * x.denominator // _gcd(den, x.denominator)
        scale /= den
        m.append([int(x * den) for x in fr])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return ZERO
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return scale * sign * m[n - 1][n - 1]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a
