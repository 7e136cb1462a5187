"""Chevalley-Eilenberg cohomology of a linear Lie algebra, as a test oracle.

A linear free divisor has a Saito basis of linear vector fields; the field
sum_r L_r(x) d/dx_r is the n x n matrix A with (A x)_r = L_r(x).  These
matrices span a Lie algebra g inside gl_n, and g acts by commutator on
gl_n and on gl_n / g.  This module computes

    H^k(g, V) = dim C^k - rank d_k - rank d_(k-1),   C^k = Hom(wedge^k g, V)

for V = gl_n or V = gl_n / g, from nothing but the text of the basis
matrix, ``fractions.Fraction`` and Gaussian elimination.  It imports
nothing from ``logdiv``, so it checks ``lft1`` by a path that shares no
code with it.  Two more oracles read the same text: ``ft1_equation_side``
(ft1 from the equations of a deformation) and ``koszul`` (Koszul
freeness from the minors of the basis matrix, by sympy's Groebner bases).

The vector field bracket is [xi_A, xi_B] = xi_(BA - AB), the matrix
commutator with the opposite sign; X -> -X is an isomorphism between the
two Lie algebras that matches the two actions on gl_n and gl_n / g, so
the cohomology has the same dimensions under either convention.
"""

import re
from fractions import Fraction
from itertools import combinations
from math import comb

_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?([A-Za-z]\w*)")


def linear_form(text, variables):
    """Coefficients of a linear form such as ``"2*x4 - 1/2*x3"`` or ``"0"``."""
    compact = text.replace(" ", "")
    coeffs = [Fraction(0)] * len(variables)
    if compact == "0":
        return coeffs
    if "".join(m.group(0) for m in _TERM.finditer(compact)) != compact:
        raise ValueError("not a linear form: {!r}".format(text))
    for sign, num, name in _TERM.findall(compact):
        coeffs[variables.index(name)] += (
            (-1 if sign == "-" else 1) * Fraction(num or 1))
    return coeffs


def field_matrices(rows, variables):
    """The matrices of the linear fields given as the columns of ``rows``
    (entry [r][c] is the coefficient of d/d variables[r] in field c),
    each flattened row by row to a list of n*n Fractions."""
    n = len(variables)
    return [[a for r in range(n) for a in linear_form(rows[r][c], variables)]
            for c in range(n)]


def _commutator(a, b, n):
    return [sum(a[r * n + t] * b[t * n + j] - b[r * n + t] * a[t * n + j]
                for t in range(n))
            for r in range(n) for j in range(n)]


def _sparse(vec):
    return {k: v for k, v in enumerate(vec) if v}


def rank(rows):
    """Rank of sparse rows ``{column: value}`` by Gaussian elimination."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                c = row[lead]
                pivots[lead] = {k: v / c for k, v in row.items()}
                break
            c = row[lead]
            for k, v in pivots[lead].items():
                x = row.get(k, 0) - c * v
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return len(pivots)


def _basis_extension(vectors, size):
    """Indices of unit vectors that extend ``vectors`` to a basis of Q^size,
    and for each coordinate k the coordinates of the unit vector e_k in
    that basis (``vectors`` first): column k of the returned inverse."""
    units = []
    span = [_sparse(v) for v in vectors]
    if rank(span) != len(vectors):
        raise ValueError("the fields are linearly dependent")
    for k in range(size):
        if rank(span + [{k: Fraction(1)}]) > len(span):
            span.append({k: Fraction(1)})
            units.append(k)
    # the columns of the change of basis matrix are the basis vectors
    mat = [[Fraction(0)] * size for _ in range(size)]
    for c, vec in enumerate(span):
        for r, v in vec.items():
            mat[r][c] = v
    return units, _inverse(mat)


def _inverse(mat):
    n = len(mat)
    aug = [row[:] + [Fraction(int(r == c)) for c in range(n)]
           for r, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class LinearLieAlgebra:
    """The Lie algebra g spanned by flattened n x n matrices, with its
    structure constants and its action on V = gl_n or V = gl_n / g."""

    def __init__(self, matrices, quotient):
        n = round(len(matrices[0]) ** 0.5)
        d = len(matrices)
        units, inv = _basis_extension(matrices, n * n)

        def coords(vec):
            return [sum(inv[r][k] * v for k, v in enumerate(vec) if v)
                    for r in range(n * n)]

        # structure constants: [x_i, x_j] = sum_l c[i][j][l] x_l
        self.c = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                xyz = coords(_commutator(matrices[i], matrices[j], n))
                if any(xyz[d:]):
                    raise ValueError("the fields do not close under bracket")
                self.c[i][j] = xyz[:d]

        # the module basis is unit matrices, those completing g to gl_n in
        # the quotient case; rho[i][r][s] is the action of x_i on it
        module = [[Fraction(int(k == u)) for k in range(n * n)]
                  for u in (units if quotient else range(n * n))]

        def project(vec):
            return coords(vec)[d:] if quotient else vec

        self.dim = d
        self.dim_module = len(module)
        self.rho = []
        for x in matrices:
            cols = [project(_commutator(x, v, n)) for v in module]
            self.rho.append([[col[r] for col in cols]
                             for r in range(self.dim_module)])

    def differential(self, k):
        """Sparse rows of d_k : C^k -> C^(k+1); a cochain phi is stored as
        the blocks phi(x_S) for sorted k-subsets S, in lexicographic order."""
        d, m = self.dim, self.dim_module
        index = {s: i for i, s in enumerate(combinations(range(d), k))}
        rows = []
        for t in combinations(range(d), k + 1):
            block = [dict() for _ in range(m)]

            def add(s, r, col, val):
                key = index[s] * m + col
                x = block[r].get(key, 0) + val
                if x:
                    block[r][key] = x
                else:
                    block[r].pop(key, None)

            # sum_i (-1)^i x_i . phi(..., x_i omitted, ...)
            for i, ti in enumerate(t):
                s = t[:i] + t[i + 1:]
                for r in range(m):
                    for col, a in enumerate(self.rho[ti][r]):
                        if a:
                            add(s, r, col, (-1) ** i * a)
            # sum_{i<j} (-1)^(i+j) phi([x_i, x_j], ..., x_i, x_j omitted, ...)
            for i, j in combinations(range(k + 1), 2):
                rest = t[:i] + t[i + 1:j] + t[j + 1:]
                for l, c in enumerate(self.c[t[i]][t[j]]):
                    if not c or l in rest:
                        continue
                    s = tuple(sorted(rest + (l,)))
                    sign = (-1) ** (i + j + s.index(l))
                    for r in range(m):
                        add(s, r, r, sign * c)
            rows.extend(block)
        return rows

    def cochain_dim(self, k):
        if not 0 <= k <= self.dim:
            return 0
        return comb(self.dim, k) * self.dim_module

    def rank_d(self, k):
        if not 0 <= k < self.dim:
            return 0
        return rank(self.differential(k))

    def h(self, k):
        """dim H^k(g, V)."""
        return self.cochain_dim(k) - self.rank_d(k) - self.rank_d(k - 1)


def cohomology(rows, variables, k, quotient=True):
    """dim H^k(g, gl_n / g), or dim H^k(g, gl_n) when ``quotient`` is
    false, for the Lie algebra g of the linear fields given as the columns
    of ``rows``."""
    g = LinearLieAlgebra(field_matrices(rows, variables), quotient)
    return g.h(k)


def normal_crossing_rows(variables):
    """Basis matrix of x_1 d/dx_1, ..., x_n d/dx_n, the Saito basis of
    x_1 * ... * x_n."""
    return [[v if r == c else "0" for c in range(len(variables))]
            for r, v in enumerate(variables)]


# ---- ft1 from the equations of a deformation ----------------------------
#
# A first-order deformation of a free divisor f with Saito basis
# delta_1..delta_n, delta_i(f) = a_i f, deforms f to f + e g and each
# delta_i to delta_i + e beta_i so that the deformed fields stay
# logarithmic: delta_i(g) + beta_i(f) = a_i g + c_i f for some c_i.  The
# trivial ones are g = xi(f) + u f, from a change of coordinates and a
# unit.  For f weighted homogeneous of degree d and delta_i of weight t_i,
# the weight-zero part takes g of weight d and beta_i, c_i of weight t_i;
# ft1 is the dimension of the g that occur, less that of the trivial g.
# Polynomials are dicts from exponent tuples to Fractions, read from the
# text with nothing but the parser below.

_FACTOR = re.compile(r"(\d+)(?:/(\d+))?|([A-Za-z]\w*)(?:\^(\d+))?")


def polynomial(text, variables):
    """The polynomial of a text such as ``"-1/2*x^3 + x*y^2 - 3"``."""
    out = {}
    compact = text.replace(" ", "")
    for sign, term in re.findall(r"([+-]?)([^+-]+)", compact):
        coeff = Fraction(-1 if sign == "-" else 1)
        expo = [0] * len(variables)
        for factor in term.split("*"):
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise ValueError("cannot read {!r} in {!r}".format(factor, text))
            num, den, name, power = m.groups()
            if num is not None:
                coeff *= Fraction(int(num), int(den or 1))
            else:
                expo[variables.index(name)] += int(power or 1)
        _add_term(out, tuple(expo), coeff)
    return out


def _add_term(p, m, c):
    c = p.get(m, 0) + c
    if c:
        p[m] = c
    else:
        p.pop(m, None)


def _times(p, q):
    out = {}
    for m, a in p.items():
        for k, b in q.items():
            _add_term(out, tuple(x + y for x, y in zip(m, k)), a * b)
    return out


def _derivative(p, i):
    out = {}
    for m, c in p.items():
        if m[i]:
            _add_term(out, m[:i] + (m[i] - 1,) + m[i + 1:], c * m[i])
    return out


def _apply(field, p):
    """field(p) for the field sum_k field[k] d/dx_k."""
    out = {}
    for k, a in enumerate(field):
        for m, c in _times(a, _derivative(p, k)).items():
            _add_term(out, m, c)
    return out


def _quotient(p, f):
    """p / f, exact, by division on the lex-leading term."""
    p, q = dict(p), {}
    lead = max(f)
    while p:
        top = max(p)
        m = tuple(a - b for a, b in zip(top, lead))
        if min(m) < 0:
            raise ValueError("not a multiple of f")
        c = p[top] / f[lead]
        q[m] = c
        for k, b in f.items():
            _add_term(p, tuple(x + y for x, y in zip(m, k)), -c * b)
    return q


def _monomials(weights, target):
    """Exponent tuples of weighted degree target."""
    if not weights:
        return [()] if target == 0 else []
    return [(e,) + rest
            for e in range(max(target, -1) // weights[0] + 1)
            for rest in _monomials(weights[1:], target - e * weights[0])]


def _weight(p, weights):
    return sum(w * e for w, e in zip(weights, next(iter(p))))


def ft1_equation_side(f_text, rows, variables, weights):
    """ft1 of the weighted homogeneous free divisor f_text, whose Saito
    basis is given by the columns of rows (entry [r][c] is the
    coefficient of d/d variables[r] in field c), under weights.

    The unknowns (g, beta, c) are the columns of one linear map; the g
    that occur span a space of dimension #g - rank(all) + rank(without g).
    """
    n = len(variables)
    f = polynomial(f_text, variables)
    d = _weight(f, weights)
    partials = [_derivative(f, k) for k in range(n)]
    fields = [[polynomial(rows[r][c], variables) for r in range(n)]
              for c in range(n)]
    tags = [min(_weight({m: 1}, weights) - weights[r]
                for r, a in enumerate(field) for m in a) for field in fields]
    alphas = [_quotient(_apply(field, f), f) for field in fields]

    def column(i, p):
        """The column of an unknown that adds p to equation i."""
        return {(i, m): c for m, c in p.items()}

    g_columns = []
    for m in _monomials(weights, d):
        col = {}
        for i, field in enumerate(fields):
            mono = {m: Fraction(1)}
            eq = _apply(field, mono)
            for k, c in _times(alphas[i], mono).items():
                _add_term(eq, k, -c)
            col.update(column(i, eq))
        g_columns.append(col)
    other = []
    for i, t in enumerate(tags):
        for k in range(n):
            other += [column(i, _times({m: Fraction(1)}, partials[k]))
                      for m in _monomials(weights, t + weights[k])]
        other += [column(i, _times({m: Fraction(-1)}, f))
                  for m in _monomials(weights, t)]
    occurring = len(g_columns) - rank(g_columns + other) + rank(other)
    trivial = rank([_times({m: Fraction(1)}, partials[k])
                    for k in range(n) for m in _monomials(weights, weights[k])]
                   + [f])
    return occurring - trivial


# ---- Koszul freeness from the minors of the Saito matrix ---------------
#
# D is Koszul free when the principal symbols sum_r A[r][c] xi_r of the
# columns c of its Saito matrix A form a regular sequence in Q[x, xi],
# that is, when their variety in the 2n-dimensional (x, xi) space has
# dimension n (never less, by Krull's principal ideal theorem).  Over a
# point x the fibre is {xi : xi A(x) = 0}, the left kernel of A(x), of
# dimension n - rank A(x).  So the variety has dimension the largest
# dim{x : rank A(x) = r} + n - r, and it is n exactly when
# dim V(I_(r+1)(A)) <= r for r = 0, ..., n - 2, with I_k(A) the ideal of
# the k x k minors: rank A(x) < n only on D, of dimension n - 1.  The
# dimensions are read off the lead monomials of sympy's grevlex Groebner
# bases; nothing here comes from logdiv.groebner.


def _sympy_polynomial(text, variables, symbols):
    import sympy

    out = sympy.Integer(0)
    for m, c in polynomial(text, variables).items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, m):
            term *= s ** e
        out += term
    return out


def dimension(gens, symbols):
    """dim V(gens) in affine space over C, -1 when it is empty: the size
    of the largest set of variables that contains the support of no lead
    monomial of a Groebner basis."""
    import sympy

    gens = [g for g in gens if g != 0]
    if not gens:
        return len(symbols)
    basis = sympy.groebner(gens, *symbols, order="grevlex")
    leads = [{i for i, e in enumerate(
        sympy.Poly(g, *symbols).monoms(order="grevlex")[0]) if e}
        for g in basis.exprs]
    for size in range(len(symbols), -1, -1):
        for subset in combinations(range(len(symbols)), size):
            if not any(lead <= set(subset) for lead in leads):
                return size
    return -1


def koszul(rows, variables):
    """Whether the free divisor whose Saito basis is given by the columns
    of ``rows`` (entry [r][c] the coefficient of d/d variables[r] in
    field c) is Koszul free: dim V(I_(r+1)(A)) <= r for every r < n - 1."""
    import sympy

    n = len(variables)
    symbols = sympy.symbols(list(variables))
    a = sympy.Matrix([[_sympy_polynomial(t, variables, symbols) for t in row]
                      for row in rows])
    for r in range(n - 1):
        lines = list(combinations(range(n), r + 1))
        minors = [sympy.expand(a.extract(list(rs), list(cs)).det(
            method="berkowitz")) for rs in lines for cs in lines]
        if dimension(minors, symbols) > r:
            return False
    return True
