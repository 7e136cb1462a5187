"""Classification predicates for free divisors.

Decides: linearity, Koszul freeness, reductivity of the Lie algebra g_D
of weight-zero logarithmic fields, the trace test, and the two
connection-existence conditions on structure constants, which both hold
exactly when every bracket of basis fields is in their Q-span. Weighted
homogeneity is poly.detect_weight_system. Everything about g_D is read
from the bracket coordinates of one basis, SaitoBasis.linear_part().
"""

from fractions import Fraction

from . import linalg
from .errors import InternalInconsistency, NotLinear
from .groebner import dimension_at_most
from .logder import VectorField
from .poly import Polynomial, partial_derivative


def is_linear(saito):
    """True iff the module admits a basis of fields with linear
    coefficients: f must be homogeneous of degree n and its homogeneous
    basis under the standard grading must have only weight-zero fields."""
    return saito.linear_part() is not None


def _fresh_symbol_names(ring):
    names = []
    for v in ring:
        cand = f"s_{v}"
        while cand in ring or cand in names:
            cand = cand + "_"
        names.append(cand)
    return tuple(names)


def principal_symbols(saito):
    """sigma(delta_j) = sum_i (d/dx_i coefficient of delta_j) * s_i in the
    ring Q[x_1..x_n, s_1..s_n]."""
    n = len(saito.ring)
    big = saito.ring + _fresh_symbol_names(saito.ring)
    s = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    return [Polynomial(big, {m + s[i]: c for (i, m), c in delta.terms().items()},
                       False) for delta in saito.fields]


def is_koszul(saito):
    """Koszul freeness: the n principal symbols form a regular sequence in
    the 2n-variable polynomial ring, i.e. the symbol ideal has Krull
    dimension n. The ideal is proper, so by Krull's principal ideal
    theorem its dimension is at least n: at most n is the test."""
    symbols = principal_symbols(saito)
    return dimension_at_most(symbols, len(saito.ring))


class LieAlgebra:
    """Finite-dimensional Lie algebra given by its bracket table:
    bracket_table[(i, j)], i < j, holds the coordinates of [e_i, e_j].
    ad and the Killing form are formed on the table times D, the lcm of
    its denominators, in ints: D * ad and D^2 * K, of the same ranks."""

    __slots__ = ("dim", "bracket_table", "_table")

    def __init__(self, dim, bracket_table):
        self.dim = dim
        self.bracket_table = bracket_table
        v = linalg._ints(((k, t), x) for k, row in bracket_table.items()
                         for t, x in enumerate(row))[0]
        self._table = {k: [v.get((k, t), 0) for t in range(dim)]
                       for k in bracket_table}

    def _columns(self, i):
        """D times the coordinates of [e_i, e_j], for each j."""
        return [[0] * self.dim if i == j else self._table[(i, j)] if i < j
                else [-x for x in self._table[(j, i)]] for j in range(self.dim)]

    def ad(self, i):
        """D times the matrix of ad(e_i) in the basis, as int rows."""
        return [list(row) for row in zip(*self._columns(i))]

    def killing_form(self):
        """D^2 times the Killing form tr(ad e_i ad e_j), as ints."""
        d = self.dim
        cols = [self._columns(i) for i in range(d)]
        k = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                k[i][j] = k[j][i] = sum(cols[i][q][p] * cols[j][p][q]
                                        for p in range(d) for q in range(d))
        return k

    def center_dimension(self):
        rows = []
        for i in range(self.dim):
            rows.extend(self.ad(i))
        if not rows:
            return self.dim
        return self.dim - linalg.rank(rows)

    def radical_dimension(self):
        """Cartan: rad = {x : K(x, [g, g]) = 0}, [g, g] spanned by the
        brackets [e_i, e_j]."""
        k = self.killing_form()
        rows = [[sum(k[e][t] * x for t, x in enumerate(v) if x)
                 for e in range(self.dim)] for v in self._table.values()]
        if not rows:
            return self.dim
        return self.dim - linalg.rank(rows)


def lie_algebra_matrices(saito):
    """The Lie algebra g_D of a linear free divisor: the weight-zero basis
    fields, bracketed by their coordinates in the basis, which are
    rational numbers because brackets of weight-zero fields have weight
    zero."""
    linear = saito.linear_part()
    if linear is None:
        raise NotLinear("divisor is not a linear free divisor")
    n = len(linear)
    table = {(i, j): linear.bracket_coordinates(i, j)
             for i in range(n) for j in range(i + 1, n)}
    if None in table.values():
        raise InternalInconsistency(
            "weight-zero fields have nonconstant structure constants")
    return LieAlgebra(n, table)


def is_reductive(g):
    """Reductive iff the Killing-form radical equals the center (both are
    rank computations over Q, so the answer agrees with the one over any
    extension field)."""
    if g.dim == 0:
        raise NotLinear("empty weight-zero algebra")
    return g.radical_dimension() == g.center_dimension()


class TraceTestResult:
    __slots__ = ("ok", "witnesses")

    def __init__(self, ok, witnesses):
        self.ok = ok
        self.witnesses = witnesses

    def __bool__(self):
        return self.ok


def _primitive_field(delta):
    """Scale to coprime integer coefficients, first nonzero coefficient
    positive."""
    coeffs = [c for p in delta.components for _, c in sorted(p.terms.items())]
    if not coeffs:
        return delta
    _, den, g = linalg._int_row(coeffs)
    scale = Fraction(den, g)
    return delta.scale(scale if coeffs[0] > 0 else -scale)


def field_trace(delta):
    """Sum over i of the x_i coefficient of the d/dx_i component."""
    tr = Fraction(0)
    n = len(delta.ring)
    for i, p in enumerate(delta.components):
        e = tuple(1 if k == i else 0 for k in range(n))
        tr += p.terms.get(e, 0)
    return tr


def diagonal_annihilators(f):
    """Primitive integer vectors c with (sum c_i x_i d/dx_i)(f) = 0,
    i.e. c orthogonal to every exponent vector of f."""
    n = len(f.ring)
    expos = sorted(f.terms)
    cols = [[m[i] for m in expos] for i in range(n)]
    out = []
    for _, v in linalg.kernel(cols, len(expos)):
        ints = [v.get(i, 0) for i in range(n)]
        if sum(ints) < 0 or (sum(ints) == 0 and next((x for x in ints if x), 1) < 0):
            ints = [-x for x in ints]
        comps = [Polynomial.variable(f.ring, i).scale(ints[i]) for i in range(n)]
        out.append(VectorField(f.ring, comps))
    return out


def linear_annihilators(f):
    """Basis of the fields (A x) . d, A in gl_n, with (A x) . grad f = 0:
    the kernel of a linear system in the n^2 entries of A, each vector
    scaled to 1 at its free column."""
    n = len(f.ring)
    x = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    images = []  # column j*n + i, for the entry A[j][i]: x_i * df/dx_j
    for j in range(n):
        dj = partial_derivative(f, j)
        for i in range(n):
            images.append(dj.mul_term(x[i], 1).terms)
    monomials = sorted({m for t in images for m in t})
    index = {m: r for r, m in enumerate(monomials)}
    cols = [{index[m]: a for m, a in t.items()} for t in images]
    out = []
    for c, v in linalg.kernel(cols, len(monomials)):
        comps = [Polynomial(f.ring, {x[i]: Fraction(v.get(j * n + i, 0), v[c])
                                     for i in range(n)})
                 for j in range(n)]
        out.append(VectorField(f.ring, comps))
    return out


def trace_test(f):
    """Necessary condition for reductivity of a linear free divisor: every
    weight-zero annihilator field must be traceless. On failure the first
    witness is canonical: a diagonal annihilator field with positive trace
    when one exists."""
    witnesses = []
    for diag in diagonal_annihilators(f):
        tr = field_trace(diag)
        if tr != 0:
            witnesses.append((diag, tr))
    for delta in linear_annihilators(f):
        tr = field_trace(delta)
        if tr != 0:
            prim = _primitive_field(delta)
            witnesses.append((prim, field_trace(prim)))
    return TraceTestResult(not witnesses, witnesses)


def connection_conditions(saito):
    """Two exact identities on the structure constants, as a pair.

    With a[i][j] the d/dx_j coefficient of field i and b[i][j][k] / u the
    basis coefficients of [delta_i, delta_j]:
      first:  sum_k a[k][r] * d(b[i][j][k] / u) / d x_l = 0  for all i, j, l, r
      second: sum_k a[l][k] * d(b[i][j][r] / u) / d x_k = 0  for all i, j, l, r
    (the second says every basis field kills every structure constant).
    They read A * d(b[i][j] / u) / d x_l = 0 and A^T * grad(b[i][j][r] / u)
    = 0 for the Saito matrix A, and det A = u * f is not zero (Saito's
    criterion, K. Saito 1980): each holds exactly when every b / u has
    zero derivatives, i.e. is a rational number, so when every bracket
    lies in the Q-span of the fields (SaitoBasis.bracket_coordinates).
    The brackets are asked in turn, up to the first outside that span.
    """
    n = len(saito)
    c = all(saito.bracket_coordinates(i, j) is not None
            for i in range(n) for j in range(i + 1, n))
    return (c, c)
