"""Logarithmic derivation modules of divisors in affine n-space.

A vector field delta = sum_i a_i d/dx_i is logarithmic for the divisor
f = 0 when delta(f) lies in the ideal (f). The whole module Der(-log f)
is obtained from the syzygies of (f, df/dx_1, ..., df/dx_n): the relation
g_0 f + sum_i g_i df/dx_i = 0 yields the field sum_i g_i d/dx_i.

f is certified reduced by is_squarefree alone, the one certificate of
every caller: a squarefree restriction of f to a line, mod a large prime,
certifies it with no Groebner run, and only when no line does, a
dimension test of the singular locus decides. The fields come from one
syzygy run of f's Jacobian (_jacobian), whose generators are formed and
packed once; compute_der_log drains it, and _select_saito_basis, its one
other reader, pulls it itself. For f homogeneous the syzygies come
degree by degree, and the graded search for a Saito basis reads them
only up to the degree it needs: it takes the weight parts of tag t once
no field still to come can have a part of tag <= t, and stops the run
when the n fields kept pass Saito's determinant test. Those
fields are a canonical form (_select_saito_basis): they depend on f, its
weights and the term order alone, so the basis is the one a full run, or
any generating set of Der(-log f), gives.

The run's fields stay packed, as rows of groebner's tracked run with
f represented by zero, so component i of a row is the coefficient of
d/dx_i and f's coefficient is never formed: the search splits, reduces
and echelons their weight parts on ints, and only the n fields handed to
the determinant test become VectorFields (of Polynomials;
compute_der_log unflattens all). Saito matrices are written with fields
as columns: entry (i, j) is the d/dx_i coefficient of the j-th field.
"""

import functools
import itertools
import random
from fractions import Fraction
from math import comb, inf, lcm, prod

from .errors import (
    InternalInconsistency,
    NonReduced,
    NotFree,
    NotHomogeneous,
    ZeroOrConstantInput,
    current_budget,
)
# buchberger stays bound here: perfbench and tests read logder.buchberger
from .groebner import (_buchberger, _divide, _syzygy_stream,  # noqa: F401
                       buchberger, dimension_at_most)
from .linalg import _eliminate, _ints, rref
from .poly import (
    Polynomial,
    PolyMatrix,
    WeightSystem,
    _dot,
    _flatten,
    _Packing,
    _unflatten,
    detect_weight_system,
    m_mul,
    m_weighted_degree,
    partial_derivative,
    poly_to_text,
)


class VectorField:
    """delta = sum_i components[i] * d/dx_i over a fixed ring."""

    __slots__ = ("ring", "components", "_parts")

    def __init__(self, ring, components):
        ring = tuple(ring)
        components = list(components)
        if len(components) != len(ring):
            raise ValueError("need one coefficient per variable")
        if any(p.ring != ring for p in components):
            raise ValueError("component ring mismatch")
        self.ring = ring
        self.components = components
        self._parts = None

    @classmethod
    def from_terms(cls, ring, terms):
        """sum c * x^m d/dx_i over the terms {(i, m): c} with c != 0."""
        comps = [{} for _ in ring]
        for (i, m), c in terms.items():
            if c:
                comps[i][m] = c
        return cls(ring, [Polynomial(ring, t, False) for t in comps])

    def __eq__(self, other):
        return (isinstance(other, VectorField)
                and self.ring == other.ring
                and self.components == other.components)

    def __repr__(self):
        return f"VectorField({format_field(self)})"

    def terms(self):
        """{(i, m): c} over the terms c * x^m d/dx_i of the field."""
        return {(i, m): c for i, p in enumerate(self.components)
                for m, c in p.terms.items()}

    def scale(self, c):
        return VectorField(self.ring, [p.scale(c) for p in self.components])

    def weight(self, w):
        """Weight tag of a weight-homogeneous field, None if zero.

        The coefficient of d/dx_i must be homogeneous of weight
        tag + w_i; raises NotHomogeneous otherwise.
        """
        tags = {m_weighted_degree(m, w.weights) - w.weights[i]
                for i, a in enumerate(self.components) for m in a.terms}
        if len(tags) > 1:
            raise NotHomogeneous(tags)
        return tags.pop() if tags else None


def format_field(delta):
    parts = []
    for i, a in enumerate(delta.components):
        if a.is_zero():
            continue
        text = poly_to_text(a)
        if len(a.terms) > 1 or text.startswith("-"):
            text = f"({text})"
        parts.append(f"d_{delta.ring[i]}" if text == "1"
                     else f"{text}*d_{delta.ring[i]}")
    return " + ".join(parts) if parts else "0"


def _bracket_parts(delta):
    """(terms, partials, den) of delta, formed once per field, on the int
    numerators of den * delta, den the lcm of its denominators: terms lists
    (j, m - 1_j, a) for each term a * x^m d/dx_j, and partials[c] lists
    (i, m, a) for each term a * x^m d/dx_i of d(den * delta)/dx_c."""
    if delta._parts is None:
        n = len(delta.ring)
        v, den = _ints(delta.terms().items())
        terms, partials = [], [[] for _ in range(n)]
        for (i, m), a in v.items():
            terms.append((i, tuple(e - (k == i) for k, e in enumerate(m)), a))
            for c in range(n):
                if m[c]:
                    dm = tuple(e - (k == c) for k, e in enumerate(m))
                    partials[c].append((i, dm, a * m[c]))
        delta._parts = terms, partials, den
    return delta._parts


def _add_bracket(acc, k, delta, nu, budget):
    """acc += k * [delta, nu], nu and acc as term dicts {(c, e): a} (see
    VectorField.terms). The term a * x^e d/dx_c of nu contributes
    a * (delta(x^e) d/dx_c - x^e * d(delta)/dx_c), so only monomials are
    multiplied, ints if nu's are. k is a multiple of delta's den (as
    _bracket_sum and SliceComplex.scale make it). One step per pair of a
    term of nu and a term of delta is charged before any is formed;
    cancelled terms stay in acc as zeros."""
    terms, partials, den = _bracket_parts(delta)
    budget.spend(len(nu) * len(terms))
    k, r = divmod(k, den)
    if r:
        raise InternalInconsistency("bracket scale is not a multiple of den")
    get = acc.get
    for (c, e), a in nu.items():
        a *= k
        for j, m, b in terms:
            if e[j]:
                t = (c, m_mul(m, e))
                acc[t] = get(t, 0) + a * b * e[j]
        for i, m, b in partials[c]:
            t = (i, m_mul(m, e))
            acc[t] = get(t, 0) - a * b


def _bracket_sum(brackets):
    """sum k * [delta, nu] over the (k, delta, nu) in brackets, k an int,
    formed on ints, each nu scaled by the lcm dn of its denominators as
    _bracket_parts scales delta, and divided once per term of the sum."""
    scaled = [(k, delta, *_ints(nu.terms().items()))
              for k, delta, nu in brackets]
    den = lcm(*(_bracket_parts(delta)[2] * dn for _, delta, _, dn in scaled))
    acc = {}
    for k, delta, terms, dn in scaled:
        _add_bracket(acc, k * (den // dn), delta, terms, current_budget())
    return VectorField.from_terms(delta.ring, {t: Fraction(a, den)
                                               for t, a in acc.items() if a})


def lie_bracket(delta, nu):
    """[delta, nu], component i = delta(nu_i) - nu(delta_i)."""
    if delta.ring != nu.ring:
        raise ValueError("fields live over different rings")
    return _bracket_sum([(1, delta, nu)])


def _check_equation(f):
    if f.is_zero() or f.is_constant():
        raise ZeroOrConstantInput("divisor polynomial must be nonconstant")
    if f.terms.get((0,) * len(f.ring)) is not None:
        raise ValueError("divisor must pass through the origin")


def is_squarefree(f):
    """True iff f has no repeated irreducible factor over Q.

    First up to three fixed lines x = a + t b are tried (_line_points,
    _on_line). Let u(t) be f(a + t b), cleared of denominators. When u has
    degree deg f and gcd(u, u') = 1 mod the prime p = 2^61 - 1, f is
    squarefree.
    Suppose f = g^2 h with deg g >= 1. g keeps its degree on the line, as
    u does. By Gauss's lemma u = G^2 H over Z, and lc(G) divides lc(u),
    a unit mod p; so G mod p is a square factor of positive degree, and
    gcd(u, u') != 1. A True from a line is therefore never wrong; a
    failure is only inconclusive.

    Then the dimension of the singular locus V(f, df/dx_1, ...,
    df/dx_n) decides, which can also answer False: it is at most n - 2
    exactly when f is squarefree. A square factor g puts V(g), of
    dimension n - 1, inside it; a reduced hypersurface is smooth off a
    subset of codimension at least one in itself. Its leads come from
    dimension_at_most's signature-based run, which alone decides past
    degree 256, where a line's gcd would cost about deg f ** 2 steps, and
    first packs the generators: a degree past the packed field raises
    BudgetExceeded. Raises ZeroOrConstantInput for zero or constant input.
    """
    if f.is_constant():
        raise ZeroOrConstantInput("squarefreeness needs a nonconstant polynomial")
    n = len(f.ring)
    if f.total_degree() <= 256 and any(
            _on_line(f, a, b) for a, b in _line_points(n)):
        return True
    gens = [f] + [partial_derivative(f, i) for i in range(n)]
    return dimension_at_most(gens, n - 2)


@functools.cache
def _line_points(n):
    """The lines (a, b) that is_squarefree tries in n variables: 16-bit
    points drawn from a generator seeded with n, fixed, so that every run
    reproduces, and with no arithmetic structure for a divisor to share
    (points in arithmetic progression put the roots of x_i - x_j together
    on the line whenever i + j agree)."""
    rng = random.Random(n)
    return tuple(tuple(tuple(rng.randrange(1 << 16) for _ in range(n))
                       for _ in "ab") for _ in range(3))


def _on_line(f, a, b):
    """True when u(t) = f(a + t b), cleared of denominators, has degree
    d = deg f and gcd(u, u') = 1 mod p = 2^61 - 1 (see is_squarefree). u
    mod p is formed by Kronecker substitution, t = 2^s, on the residues
    of f's coefficients: a slot of s bits holds each coefficient, at most
    terms * p * (max a + max b)^d, so none carries into the next. Charged
    (terms + d) * (d + 1) steps first, for u and Euclid's remainders."""
    num, _ = _ints(f.terms.items())
    d, p = f.total_degree(), (1 << 61) - 1
    current_budget().spend((len(num) + d) * (d + 1))
    s = d * (max(a) + max(b)).bit_length() + (len(num) * p).bit_length()
    rows = [{e: (ai + (bi << s)) ** e for e in {m[i] for m in num}}
            for i, (ai, bi) in enumerate(zip(a, b))]
    packed = sum(c % p * prod(row[e] for row, e in zip(rows, m))
                 for m, c in num.items())
    u = [(packed >> s * k & (1 << s) - 1) % p for k in range(d, -1, -1)]
    v = [c * (d - k) % p for k, c in enumerate(u[:-1])]  # u', leading first
    # Euclid's algorithm, to a constant remainder v (coprime) or an empty
    # one; u[0] is 0 only at the start, when deg u < d
    while u[0] and len(v) > 1:
        while len(u) >= len(v):  # u -= q t^j v, its leading term cancelled
            q = u[0] * pow(v[0], -1, p) % p
            u = [(x - q * y) % p for x, y in zip(u[1:], v[1:])] + u[len(v):]
            while u and not u[0]:
                del u[0]
        u, v = v, u
    return bool(u[0]) and len(v) == 1


def _check_divisor(f):
    _check_equation(f)
    if not is_squarefree(f):
        raise NonReduced("divisor polynomial is not squarefree")


def compute_der_log(f):
    """Generators of Der(-log f): the field rows of f's syzygy run (see
    _jacobian), drained and unflattened. Squarefreeness is left to
    find_saito_basis and verify_saito."""
    _check_equation(f)
    return [_as_field(v, f.ring)
            for _, fields in _syzygy_stream(*_jacobian(f), 1) for v in fields]


def _jacobian(f):
    """f, df/dx_1, ..., df/dx_n, packed in _Packing(n): the generators of
    f's syzygy run, and the divisor and gradient that _determinant_test
    divides and pairs with the fields.

    The run, _syzygy_stream(lay, jacobian, 1), represents f by zero and
    df/dx_i by the unit of component i, so its rows are packed fields,
    component i the coefficient of d/dx_i, and it forms no coefficient of
    f. Distinct syzygies give distinct fields, as f's coefficient is
    -sum_i a_i df/dx_i / f. A row of degree s' gives a field whose
    coefficients have degree s' - (d - 1), d the degree of f, so every
    field after a pause at s has coefficients of degree >= s + 2 - d.
    """
    lay = _Packing(len(f.ring))
    gens = [f] + [partial_derivative(f, i) for i in range(len(f.ring))]
    return lay, [_flatten([g], lay) for g in gens]


def _as_field(v, ring):
    """The VectorField of a packed field (see _jacobian)."""
    return VectorField(ring, _unflatten(v, ring, len(ring), _Packing(len(ring))))


class VerifyResult:
    """ok, with the unit u and the PolyMatrix of the verified fields,
    its minors expanded, or the reason of the failure."""

    __slots__ = ("ok", "unit", "reason", "table")

    def __init__(self, ok, unit=None, reason=None, table=None):
        self.ok = ok
        self.unit = unit
        self.reason = reason
        self.table = table

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return f"VerifyResult(ok, u = {poly_to_text(self.unit)})"
        return f"VerifyResult(failed: {self.reason})"


class SaitoBasis:
    """Verified free basis of Der(-log f); fields are matrix columns.

    What is derived from the basis alone is computed once per basis.
    table is the PolyMatrix of matrix() when the determinant test that
    verified the fields hands it on, with the minors it expanded; the
    adjugate reuses them.
    """

    __slots__ = ("ring", "fields", "divisor", "unit", "_memo", "_table")

    def __init__(self, fields, divisor, unit, table=None):
        self.fields = list(fields)
        self.divisor = divisor
        self.ring = divisor.ring
        self.unit = unit
        self._memo = {}
        self._table = table

    def __len__(self):
        return len(self.fields)

    def matrix(self):
        """Coefficient matrix, entry (i, j) = d/dx_i coefficient of field j."""
        n = len(self.ring)
        return [[self.fields[j].components[i] for j in range(n)] for i in range(n)]

    def field_weights(self, w):
        return [delta.weight(w) for delta in self.fields]

    def table(self):
        """The PolyMatrix of matrix(), made here when no determinant test
        handed it on. Its adjugate, adj * matrix() = unit * divisor * I,
        is what the structure constants and the deformed equations read."""
        if self._table is None:
            self._table = PolyMatrix(self.matrix())
        return self._table

    def _field_columns(self):
        """The row of each term of the fields, and kernel's elimination of
        the fields' columns over those rows, column k tagged at row count
        + k: a (pivot, row) pair for each, the fields being independent."""
        if "columns" not in self._memo:
            cols = [d.terms() for d in self.fields]
            rows = {t: r for r, t in enumerate(dict.fromkeys(
                t for col in cols for t in col))}
            span = []
            for k, col in enumerate(cols):
                v = _eliminate({rows[t]: a for t, a in col.items()},
                               len(rows) + k, span)
                span.append((min(v), v))
            self._memo["columns"] = rows, span
        return self._memo["columns"]

    def bracket(self, i, j):
        """[delta_i, delta_j], formed once per basis."""
        key = ("bracket", i, j)
        if key not in self._memo:
            self._memo[key] = lie_bracket(self.fields[i], self.fields[j])
        return self._memo[key]

    def bracket_coordinates(self, i, j):
        """The rational numbers c with [delta_i, delta_j] = sum_k c[k]
        delta_k, or None when the bracket is not in the Q-span of the
        fields. The fields are independent over Q(x) (Saito's criterion),
        so the coordinates of the bracket over Q(x) are unique: they are
        c, or one of them is not a constant. A bracket with a term no
        field has is outside the span; any other column is reduced, as
        kernel does, against the fields' columns, eliminated once per
        basis, and is in the span exactly when its row part clears. c is
        kept, for the connection conditions and g_D to share."""
        key = ("coordinates", i, j)
        if key not in self._memo:
            rows, span = self._field_columns()
            m, n, c = len(rows), len(self.fields), None
            br = self.bracket(i, j).terms()
            if br.keys() <= rows.keys():
                v = _eliminate({rows[t]: a for t, a in br.items()}, m + n,
                               span)
                if min(v) >= m:
                    c = [Fraction(-v.get(m + k, 0), v[m + n])
                         for k in range(n)]
            self._memo[key] = c
        return self._memo[key]

    def structure_constants(self):
        """The StructureConstants of this basis, formed once per basis.
        With a constant unit, the brackets in the Q-span of the fields are
        read from bracket_coordinates, which the connection conditions
        and g_D have filled on this basis; only the others are divided by
        Cramer's rule. The two agree, as a bracket's coordinates over
        Q(x) are unique (see logder.structure_constants)."""
        if "sc" not in self._memo:
            self._memo["sc"] = structure_constants(self)
        return self._memo["sc"]

    def graded(self, w):
        """A w-homogeneous basis of the same module: this one when every
        field is w-homogeneous, otherwise the graded minimal generating
        set of the weight parts of its fields (the weight parts of a
        logarithmic field are logarithmic, f being w-homogeneous)."""
        key = ("graded", w.weights, w.degree)
        if key not in self._memo:
            try:
                self.field_weights(w)
                self._memo[key] = self
            except NotHomogeneous:
                self._memo[key] = _select_saito_basis(self.divisor, w,
                                                      self.fields)
        return self._memo[key]

    def linear_part(self):
        """The homogeneous basis under the standard grading when all its
        fields have weight zero (linear coefficients), i.e. when the
        divisor is a linear free divisor; None otherwise. Its fields span
        the Lie algebra g_D."""
        if "linear" not in self._memo:
            n = len(self.ring)
            std = WeightSystem((1,) * n, n)
            linear = None
            if all(sum(m) == n for m in self.divisor.terms):
                graded = self.graded(std)
                if all(t == 0 for t in graded.field_weights(std)):
                    linear = graded
            self._memo["linear"] = linear
        return self._memo["linear"]


def verify_saito(fields, f):
    """Saito's criterion: n logarithmic fields form a basis of Der(-log f)
    at the origin exactly when the determinant of their coefficient matrix
    is u*f with u(0) != 0 (f squarefree). Checks f, the determinant, then
    that each field is logarithmic; returns a VerifyResult carrying u or
    the first failed condition as its reason."""
    n = len(f.ring)
    if len(fields) != n:
        return VerifyResult(False, reason=f"need {n} fields, got {len(fields)}")
    try:
        _check_divisor(f)
    except NonReduced:
        return VerifyResult(False, reason="divisor is not squarefree")
    except (ValueError, ZeroOrConstantInput) as e:
        return VerifyResult(False, reason=str(e))
    return _determinant_test(fields, f)


def _determinant_test(fields, f, jacobian=None):
    """verify_saito for n fields and an already checked divisor. The
    determinant of their matrix A, its division by f and the test that
    each column of grad(f) * A is a multiple of f (the fields are
    logarithmic) are formed in the packed form of A's PolyMatrix; only
    the unit u leaves it. jacobian: _jacobian(f)'s packed f and gradient,
    which _select_saito_basis forms once for all its tests; formed here
    when not given, for a supplied matrix."""
    n = len(f.ring)
    mat = PolyMatrix([[fields[j].components[i] for j in range(n)]
                      for i in range(n)])
    budget = current_budget()
    lay = mat.lay
    det = mat.det()
    if not det[0]:
        return VerifyResult(False, reason="determinant vanishes")
    packed_f, *grad = jacobian or _jacobian(f)[1]
    u = _divide(det, packed_f, lay, budget)
    if u is None:
        return VerifyResult(False, reason="determinant is not a multiple of f")
    if not u[0].get(0):  # the packed term 0 is the constant term
        return VerifyResult(False, reason="cofactor of f vanishes at the origin")
    for j in range(n):
        image = _dot([mat.entry(i, j) for i in range(n)], grad, lay, budget)
        if _divide(image, packed_f, lay, budget) is None:
            return VerifyResult(False, reason=f"column {j + 1} is not logarithmic")
    return VerifyResult(True, unit=mat.polynomial(u), table=mat)


def _weight_parts(v, w, lay):
    """The weight parts (tag, (P', D)) of the packed field v = (P, D)."""
    buckets = {}
    for t, a in v[0].items():
        c, m = lay.unpack(t)
        tag = m_weighted_degree(m, w.weights) - w.weights[c]
        buckets.setdefault(tag, {})[t] = a
    return [(tag, (P, v[1])) for tag, P in buckets.items()]


def _echelon(forms, lay):
    """The reduced row echelon basis over Q of the span of the packed
    forms, pivots at lead terms (rref on the flipped terms), largest lead
    first: primitive int rows over 1, each positive at its pivot."""
    flip = lay.flip
    rows = [{t ^ flip: a for t, a in P.items()} for P, _ in forms]
    ech, pivots = rref(rows, len({t for row in rows for t in row}))
    return [({t ^ flip: a if row[p] > 0 else -a for t, a in row.items()}, 1)
            for row, p in zip(ech, pivots)]


SUBSET_BUDGET = 300


def find_saito_basis(gens, f, w=None):
    """A free basis of Der(-log f) from generators of it, the canonical
    one for graded f, after checking that f is a reduced divisor equation
    (w detected when not given)."""
    _check_divisor(f)
    return _select_saito_basis(f, w or detect_weight_system(f), gens)


def saito_basis(f, w=None):
    """find_saito_basis(compute_der_log(f), f, w), the same basis, with
    the generators read from f's syzygy run: for f homogeneous the run
    stops once the graded search has its basis. f is checked first, as
    find_saito_basis checks it."""
    _check_divisor(f)
    return _select_saito_basis(f, w or detect_weight_system(f))


def _select_saito_basis(f, w, gens=None):
    """find_saito_basis for an already checked divisor, w the grading of
    f as given, None when f has none. The generators are the VectorFields
    gens, or when gens is None the field rows of f's syzygy run, read
    here from _syzygy_stream(lay, jacobian, 1) batch by batch (see
    _jacobian): every field after a pause at s has coefficients of
    degree >= c = s + 2 - deg f, and none is to come after the pause
    None. f and its gradient are formed and packed once, by _jacobian,
    for the run and every _determinant_test; only the fields handed to
    that test are unflattened.

    Weighted homogeneous f: generators are split into weight-homogeneous
    parts, and each tag d is taken once, in ascending order, when no part
    of tag <= d is still to come (a coefficient of degree >= c gives tags
    >= min(w) * c - max(w)). The fields kept at d are the _echelon of the
    normal forms of the tag-d parts modulo the fields kept below d. The
    normal form is linear on the weight-d piece, with kernel the module
    the fields below d generate there, so the normal forms span a fixed
    space with a unique reduced echelon basis: neither the generators,
    their order nor the batches decide the basis. The number kept through
    d is a rank; once it is n and they pass the determinant test they are
    a basis (Saito's criterion) and nothing more is read. Otherwise all
    generators are read and n-subsets are tried in order of total
    degree, up to SUBSET_BUDGET of them.
    """
    n = len(f.ring)
    lay, jacobian = _jacobian(f)
    if gens is None:
        d = f.total_degree()
        batches = ((None if s is None else s + 2 - d, fields)
                   for s, fields in _syzygy_stream(lay, jacobian, 1))
    else:
        batches = [(None, [_flatten(g.components, lay) for g in gens])]
    if w is not None:
        lo, hi = min(w.weights), max(w.weights)
        waiting = {}  # tag: the parts of that tag not taken yet
        kept, gb = [], None  # gb: kept's Groebner basis, None after a tag adds
        for c, fields in batches:
            for v in fields:
                for tag, part in _weight_parts(v, w, lay):
                    waiting.setdefault(tag, []).append(part)
            floor = inf if c is None else lo * c - hi  # the least tag to come
            for tag in sorted(t for t in waiting if t < floor):
                if kept and gb is None:
                    gb = _buchberger(f.ring, n, lay, kept)
                new = _echelon([gb._remainder(v) if kept else v
                                for v in waiting.pop(tag)], lay)
                if new:
                    kept += new
                    gb = None
                    if len(kept) == n:
                        chosen = [_as_field(v, f.ring) for v in kept]
                        res = _determinant_test(chosen, f, jacobian)
                        if res:
                            return SaitoBasis(chosen, f, res.unit, res.table)
        if len(kept) != n:
            raise NotFree(f"graded minimal generating set has {len(kept)} elements, need {n}")
        raise NotFree(f"minimal generating set fails the determinant test: {res.reason}")
    # non-homogeneous fallback: degree-ordered subset search
    packed = [v for _, fields in batches for v in fields if v[0]]
    field = functools.cache(lambda i: _as_field(packed[i], f.ring))

    def total_deg(v):  # the sum of the degrees of the components
        return sum(lay.degree(ts) for _, ts in
                   itertools.groupby(sorted(v[0]), lambda t: t // lay.unit))

    order = sorted(range(len(packed)), key=lambda i: (total_deg(packed[i]), i))
    for combo in itertools.islice(itertools.combinations(order, n), SUBSET_BUDGET):
        fields = [field(i) for i in combo]
        res = _determinant_test(fields, f, jacobian)
        if res:
            return SaitoBasis(fields, f, res.unit, res.table)
    if comb(len(packed), n) > SUBSET_BUDGET:
        raise NotFree(f"no free basis found within {SUBSET_BUDGET} subsets")
    raise NotFree("no n-subset of the generators satisfies the determinant test")


class StructureConstants:
    """Numerators b[i][j][k] over one denominator u, so that
    u * [delta_i, delta_j] = sum_k b[i][j][k] delta_k. u is 1 when the
    basis unit is constant, as it is for every graded basis."""

    __slots__ = ("ring", "n", "b", "denominator")

    def __init__(self, ring, n, b, denominator):
        self.ring = ring
        self.n = n
        self.b = b
        self.denominator = denominator


def structure_constants(basis):
    """Expand the brackets of a verified basis in the basis itself.

    With a constant unit, a bracket in the Q-span of the fields takes
    its coordinates from SaitoBasis.bracket_coordinates, memoised on the
    basis, where the connection conditions and g_D read them too. The
    fields are independent over Q(x) (Saito's criterion), so those
    coordinates are the bracket's only ones, and its structure constants
    are exactly them. A bracket whose column clears that elimination is
    a Q-combination of the fields, so it is logarithmic by construction.

    Every other bracket goes through Cramer's rule, with the adjugate
    built only when one does: unit * divisor * v = sum_k (adj * v)_k
    delta_k for any field v, adj the adjugate of the Saito matrix. For a
    logarithmic v, (adj * v)_k is the determinant of that matrix with
    column k replaced by v, a multiple of divisor; a remainder would mean
    the fields are not logarithmic and raises InternalInconsistency. The
    unit need not divide it, as Saito's criterion certifies a basis at the
    origin only, so the unit is the denominator; a constant unit is folded
    into the numerators instead. The brackets are SaitoBasis.bracket's,
    adj * v and its division formed in the packed form of the basis's
    PolyMatrix, all charged to the active budget.
    """
    n = len(basis.ring)
    budget = current_budget()
    zero = Polynomial.zero(basis.ring)
    constant = basis.unit.is_constant()
    if constant:
        divisor = basis.unit * basis.divisor
        denominator = Polynomial.one(basis.ring)
    else:
        divisor = basis.divisor
        denominator = basis.unit
    b = [[[zero] * n for _ in range(n)] for _ in range(n)]
    table = None
    for i in range(n):
        for j in range(i + 1, n):
            c = basis.bracket_coordinates(i, j) if constant else None
            if c is not None:
                qs = [Polynomial.constant(basis.ring, x) for x in c]
            else:
                if table is None:
                    table = basis.table()
                    adj, lay = table.adjugate(), table.lay
                    packed = _flatten([divisor], lay)
                br = [_flatten([p], lay) for p in basis.bracket(i, j).components]
                qs = []
                for row in adj:
                    q = _divide(_dot(row, br, lay, budget), packed, lay, budget)
                    if q is None:
                        raise InternalInconsistency(
                            "bracket has a nonzero remainder over the basis")
                    qs.append(table.polynomial(q))
            b[i][j] = qs
            b[j][i] = [q.scale(-1) for q in qs]
    return StructureConstants(basis.ring, n, b, denominator)
