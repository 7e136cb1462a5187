"""First-order deformation spaces of free divisors.

Everything happens in finite-dimensional graded quotients, all of one
type: a QuotientSlice is the weight-w piece of a free module modulo the
submodule spanned by homogeneous generators, found by exact linear algebra
on monomials, with no Groebner basis. For a weighted homogeneous divisor
with Saito basis delta_1..delta_n (field weights w_i), the weight-zero
part of the deformation complex is

    C0 = M_0  --d0-->  C1 = (+)_i M_{w_i}  --d1-->  C2 = (+)_{i<j} M_{w_i + w_j}

where M_w is the weight-w piece of (all vector fields) / (logarithmic
fields), a finite-dimensional Q-vector space because variable weights are
positive. The differentials follow the sign convention

    (d0 sigma)(delta_i)            = [delta_i, sigma]
    (d1 psi)(delta_i ^ delta_j)    = psi([delta_i, delta_j])
                                     - [delta_i, psi(delta_j)]
                                     + [delta_j, psi(delta_i)]

whose composition vanishes by the Jacobi identity. dim ker d1 - rank d0 is
the dimension of the deformation space. d0 and d1 are kept as sparse int
columns, the way they are built and read; no d2 is built, as nothing
beyond H^1 is reported. Their columns are the cochains x^e d/dx_c of the
slice bases, bracketed term by term on the fields' int numerators (one
denominator per field) and projected on each slice's int images (one
denominator den per slice), so they are scale * d0 and scale * d1 for one
positive integer scale of the complex: a scaling that keeps rank and
kernel, and which apply_d0, apply_d1 and is_coboundary divide out;
is_coboundary reads a preimage off the column kernel of d0 extended by
the target. Each bracket [delta_p, x^e d/dx_c] is
formed, charged and projected once per complex, into a memo that d0 and
d1 both read and that is dropped once they are built; a column of d1
visits only the blocks (p, q) it touches. ft1 puts the columns of d0 in
one echelon Span, whose length is rank d0, and keeps a vector of ker d1
only when it is independent of im d0 and of the vectors kept before it:
the h1 kept vectors are a basis of the cohomology, and only they are
lifted to cocycles and deformed equations. ker d1 comes from the columns
of d1 as primitive int vectors, which that filter reads as they are;
Fraction enters when the kept vectors are scaled to 1 at their free
column, and remains in those cocycles and their deformed equations.

A cocycle deforms f of weighted degree k by a degree-k polynomial, whose
class lives in the degree-k piece of Q[x] / (f, df/dx_1, ..., df/dx_n).
By Euler's identity k*f = sum_i w_i x_i df/dx_i that ideal is the Jacobian
ideal, so the class space is the QuotientSlice of Q[x] by the nonzero
partials; its dimension is the Jacobian degree bound. Representatives are
normalized to monomial deformed equations whenever the class space allows
it.

lft1 is the same complex for a linear free divisor, built on a basis of
weight-zero (linear) fields under the standard grading (1, ..., 1): those
fields span a Lie algebra g, and the slice cohomology is H^1(g, gl_n / g).
The tests check it against an independent Chevalley-Eilenberg oracle
(tests/ce_oracle.py).
"""

import functools
from fractions import Fraction
from itertools import accumulate
from math import lcm

from . import linalg
from .errors import (
    InternalInconsistency,
    NotHomogeneous,
    NotLinear,
    NotWeightedHomogeneous,
    current_budget,
)
from .groebner import buchberger
from .logder import (VectorField, _add_bracket, _bracket_parts, _bracket_sum,
                     saito_basis)
from .poly import (
    Polynomial,
    WeightSystem,
    _dot,
    _flatten,
    degrevlex_key,
    detect_weight_system,
    m_mul,
    partial_derivative,
    weighted_degree,
)

def weighted_monomials(weights, target):
    """All exponent tuples e with sum(w_i e_i) = target, degrevlex
    descending, as a new list: the slices of one complex ask for a few
    (weights, target) pairs many times, and each is enumerated once."""
    return list(_weighted_monomials(tuple(weights), target))


@functools.lru_cache(maxsize=32)
def _weighted_monomials(weights, target):
    n = len(weights)
    out = []

    def rec(i, rest, acc):
        if i == n:
            if rest == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        top = rest // w
        for e in range(top + 1):
            acc.append(e)
            rec(i + 1, rest - e * w, acc)
            acc.pop()

    rec(0, target, [])
    out.sort(key=degrevlex_key, reverse=True)
    return tuple(out)


class QuotientSlice:
    """Weight-w piece of a free module modulo the submodule spanned by
    homogeneous generators, coordinates on the monomials not hit by the
    relations.

    A generator is a list of component polynomials with its weight; a
    monomial x^e in component c has weight wt(e) - shifts[c]. Vector fields
    are the module with shifts w_1..w_n, Q[x] the one with shift 0.
    The relation matrix is charged to the budget, one step per term, a
    term of a generator times a multiplier, before it is built. Classes
    are den times their coordinates, read off linalg.rref's primitive int
    rows: den is the lcm of their pivot entries.
    """

    __slots__ = ("ring", "weight", "ambient", "basis", "den", "_image")

    def __init__(self, gens, gen_weights, shifts, w, weight):
        self.ring = gens[0][0].ring
        self.weight = weight
        self.ambient = [(c, e) for c, s in enumerate(shifts)
                        for e in weighted_monomials(w.weights, weight + s)]
        index = {t: k for k, t in enumerate(self.ambient)}
        multipliers = [(gen, weighted_monomials(w.weights, weight - wk))
                       for gen, wk in zip(gens, gen_weights) if wk is not None]
        current_budget().spend(sum(len(ms) * sum(len(p.terms) for p in gen)
                                   for gen, ms in multipliers))
        relations = []
        for gen, ms in multipliers:
            gen = linalg._ints(((c, mm), a) for c, p in enumerate(gen)
                               for mm, a in p.terms.items())[0]
            for m in ms:
                vec = {}
                for (c, mm), co in gen.items():
                    k = index[(c, m_mul(mm, m))]
                    vec[k] = vec.get(k, 0) + co
                relations.append(vec)
        ech, pivots = linalg.rref(relations, len(self.ambient))
        pivot_set = set(pivots)
        self.basis = [k for k in range(len(self.ambient)) if k not in pivot_set]
        # den times the class of each ambient monomial, sparse in basis
        # coordinates: a basis monomial is a unit vector, pivot monomial pc
        # minus the rest of its row over row[pc]; a row is primitive, so
        # den is the lcm of the denominators of the reduced echelon rows
        coord = {k: j for j, k in enumerate(self.basis)}
        self.den = den = lcm(*(row[pc] for row, pc in zip(ech, pivots)))
        self._image = {self.ambient[k]: [(j, den)]
                       for j, k in enumerate(self.basis)}
        for row, pc in zip(ech, pivots):
            self._image[self.ambient[pc]] = [
                (coord[k], -x * (den // row[pc]))
                for k, x in row.items() if k != pc]

    @property
    def dim(self):
        return len(self.basis)

    def project(self, terms):
        """den times the coordinates of the class of a weight-w element
        given by its terms {(component, exponent): c}, as a sparse dict
        {basis index: nonzero coordinate}."""
        coords = {}
        for t, co in terms.items():
            if not co:
                continue
            image = self._image.get(t)
            if image is None:
                raise InternalInconsistency(
                    f"term {t} is not of slice weight {self.weight}")
            for j, x in image:
                coords[j] = coords.get(j, 0) + co * x
        return {j: x for j, x in coords.items() if x}

    def lift(self, coords):
        return VectorField.from_terms(self.ring, {
            self.ambient[k]: c for c, k in zip(coords, self.basis)})


def _combine(cols, coords, nrows):
    """The nrows coordinates of sum_s coords[s] * cols[s], for sparse
    columns."""
    out = [0] * nrows
    for col, x in zip(cols, coords):
        if x:
            for r, a in col.items():
                out[r] += a * x
    return out


class SliceComplex:
    """Weight-zero slice of the deformation complex of a Saito basis."""

    __slots__ = ("saito", "sc", "w", "field_weights", "_slices",
                 "slice0", "slices1", "pairs", "slices2",
                 "dim_c0", "dim_c1", "dim_c2", "offsets1", "offsets2",
                 "scale", "d0", "d1")

    def __init__(self, saito, sc, w):
        self.saito = saito
        self.sc = sc
        self.w = w
        self.field_weights = saito.field_weights(w)
        n = len(saito.ring)
        self._slices = {}
        self.slice0 = self._slice(0)
        self.slices1 = [self._slice(self.field_weights[i]) for i in range(n)]
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.slices2 = [
            self._slice(self.field_weights[i] + self.field_weights[j])
            for (i, j) in self.pairs
        ]
        self.dim_c0 = self.slice0.dim
        self.offsets1 = list(accumulate((s.dim for s in self.slices1), initial=0))
        self.dim_c1 = self.offsets1[-1]
        self.offsets2 = list(accumulate((s.dim for s in self.slices2), initial=0))
        self.dim_c2 = self.offsets2[-1]
        self.scale = lcm(*(_bracket_parts(d)[2] for d in saito.fields),
                         *(a.denominator for bi in sc.b for bij in bi
                           for p in bij for a in p.terms.values()))
        self.scale *= lcm(*(s.den for s in self._slices.values()))
        memo = {}  # (p, (c, e)) -> projected bracket, for this __init__
        self.d0 = self._build_d0(memo)
        self.d1 = self._build_d1(memo)
        del memo
        for col in self.d0:  # d1 d0 = 0, over the nonzeros only
            acc = {}
            for k, a in col.items():
                for r, b in self.d1[k].items():
                    acc[r] = acc.get(r, 0) + a * b
            if any(acc.values()):
                raise InternalInconsistency("d1 after d0 is not zero")

    def _slice(self, weight):
        if weight not in self._slices:
            self._slices[weight] = QuotientSlice(
                [d.components for d in self.saito.fields], self.field_weights,
                self.w.weights, self.w, weight)
        return self._slices[weight]

    def _bracket(self, memo, p, ce, target):
        """The projected class of scale/den * [delta_p, x^e d/dx_c] in
        target, the slice of its weight, read from memo or formed, charged
        and stored there: each key (p, c, e) is formed once per complex."""
        col = memo.get((p, ce))
        if col is None:
            acc = {}
            _add_bracket(acc, self.scale // target.den, self.saito.fields[p],
                         {ce: 1}, current_budget())
            col = memo[(p, ce)] = target.project(acc)
        return col

    def _build_d0(self, memo):
        """Columns of scale * d0; column s is the class of x^e d/dx_c, the
        s-th basis monomial (c, e) of C0: its brackets with the basis
        fields, block p the memo entry (p, c, e)."""
        cols = []
        for k in self.slice0.basis:
            ce = self.slice0.ambient[k]
            col = {}
            for p, (target, off) in enumerate(zip(self.slices1, self.offsets1)):
                for j, x in self._bracket(memo, p, ce, target).items():
                    col[off + j] = x
            cols.append(col)
        return cols

    def _build_d1(self, memo):
        """Columns of scale * d1; column pos is the class of the cochain
        psi that sends delta_i to x^e d/dx_c, the pos-th basis monomial
        (c, e) of C1 in the summand of delta_i, and the other fields to 0.
        Its block (p, q) is the class of b_pq^i x^e d/dx_c, minus the memo
        entry (p, c, e) when i = q, plus (q, c, e) when i = p; only the
        blocks with i in {p, q} or b_pq^i != 0 are visited, and the int
        terms of scale/den * b_pq^i are formed once per block."""
        b = self.sc.b
        blocks = []  # per summand i: (p, q, target, offset, int terms)
        for i in range(len(self.slices1)):
            blocks.append([])
            for (p, q), target, off in zip(self.pairs, self.slices2,
                                           self.offsets2):
                k = self.scale // target.den
                terms = [(m, a.numerator * (k // a.denominator))
                         for m, a in b[p][q][i].terms.items()]
                if terms or i in (p, q):
                    blocks[i].append((p, q, target, off, terms))
        cols = []
        for i, s in enumerate(self.slices1):
            for k in s.basis:
                c, e = ce = s.ambient[k]
                out = {}
                for p, q, target, off, terms in blocks[i]:
                    # psi([delta_p, delta_q]) = b_pq^i x^e d/dx_c
                    col = target.project({(c, m_mul(m, e)): a
                                          for m, a in terms})
                    if i == q:
                        for j, x in self._bracket(memo, p, ce, target).items():
                            col[j] = col.get(j, 0) - x
                    if i == p:
                        for j, x in self._bracket(memo, q, ce, target).items():
                            col[j] = col.get(j, 0) + x
                    for j, x in col.items():
                        if x:
                            out[off + j] = x
                cols.append(out)
        return cols

    # -- derived data ------------------------------------------------

    def h0_dimension(self):
        return self.dim_c0 - self.rank_d0()

    def kernel_d1(self):
        """ker d1 as linalg.kernel's pairs (c, v): v a primitive int
        vector, sparse, positive at its free column c."""
        return linalg.kernel(self.d1, self.dim_c2)

    def rank_d0(self):
        return linalg.rank(self.d0)

    def apply_d0(self, sigma_coords):
        return [Fraction(x, self.scale)
                for x in _combine(self.d0, sigma_coords, self.dim_c1)]

    def apply_d1(self, psi_coords):
        return [Fraction(x, self.scale)
                for x in _combine(self.d1, psi_coords, self.dim_c2)]

    def lift_cocycle(self, vec):
        return [s.lift(vec[lo:hi]) for s, lo, hi
                in zip(self.slices1, self.offsets1, self.offsets1[1:])]


class DeformationReport:
    """Deformed equations, one per basis class of the deformation space,
    with the Jacobian degree bound and the slice notes."""

    __slots__ = ("deformed_equations", "jacobian_degree_bound", "notes")

    def __init__(self, deformed_equations, jacobian_degree_bound, notes=None):
        self.deformed_equations = deformed_equations
        self.jacobian_degree_bound = jacobian_degree_bound
        self.notes = notes or {}

    @property
    def dimension(self):
        return len(self.deformed_equations)


def deformation_equation(psi_fields, saito):
    """First-order change of the defining equation: the sum over i of the
    determinant of the Saito matrix with column i replaced by the i-th
    value of the cocycle. That determinant is linear in column i, so it is
    row i of the adjugate applied to psi_i. The sum is one packed dot
    product of the adjugate's entries with the components of the psi_i,
    charged to the active budget."""
    table = saito.table()
    lay = table.lay
    adj = [a for row in table.adjugate() for a in row]
    psi = [_flatten([p], lay) for d in psi_fields for p in d.components]
    return table.polynomial(_dot(adj, psi, lay, current_budget()))


def cocycle_check(psi_fields, saito, sc):
    """True iff psi([delta_i, delta_j]) - [delta_i, psi_j] + [delta_j, psi_i]
    is logarithmic for every i < j.

    The brackets carry the denominator u of sc, so the test is on u times
    that field; u is a unit at the origin, where the basis is certified."""
    n = len(saito.ring)
    gb = buchberger([list(d.components) for d in saito.fields])
    u = sc.denominator
    for i in range(n):
        for j in range(i + 1, n):
            bracket = _bracket_sum([(1, saito.fields[j], psi_fields[i]),
                                    (-1, saito.fields[i], psi_fields[j])])
            comps = [u * c for c in bracket.components]
            for k in range(n):
                comps = [a + sc.b[i][j][k] * p
                         for a, p in zip(comps, psi_fields[k].components)]
            if not gb.reduces_to_zero(comps):
                return False
    return True


def is_coboundary(coords, cx):
    """A C0 class sigma with d0(sigma) = coords, a C1 coordinate list, or
    None: coords is a coboundary exactly when the last column of
    [scale * d0 | -scale * coords] is free, and sigma is read off its
    kernel vector, scaled to 1 there."""
    last = {k: -cx.scale * x for k, x in enumerate(coords) if x}
    kernel = linalg.kernel(cx.d0 + [last], cx.dim_c1)
    if not kernel or kernel[-1][0] != cx.dim_c0:
        return None
    c, v = kernel[-1]
    return [Fraction(v.get(s, 0), v[c]) for s in range(c)]


def _class_space(f, w):
    """Degree-k piece of Q[x] / (f, df/dx_1, ..., df/dx_n), where deformed
    equations live. By Euler, k*f = sum w_i x_i df/dx_i, so the ideal is
    the Jacobian ideal and the generators are the nonzero partials."""
    k = weighted_degree(f, w.weights)
    if k != w.degree:
        raise NotHomogeneous({k})
    gens = [(partial_derivative(f, i), k - wi) for i, wi in enumerate(w.weights)]
    gens = [(g, wg) for g, wg in gens if not g.is_zero()]
    if not gens:
        raise InternalInconsistency("zero gradient of a nonconstant polynomial")
    return QuotientSlice([[g] for g, _ in gens], [wg for _, wg in gens], [0],
                         w, k)


def _class_of(space, fp):
    """The coordinates of the class of the polynomial fp in space."""
    return space.project({(0, m): c for m, c in fp.terms.items()})


def _check_coboundary_class(cx, saito, space):
    """Coboundaries deform f trivially: the deformed equation of the
    coboundary d0(sum_s (s + 1) sigma_s), over the basis sigma_s of C0,
    must have zero class. The check runs on scale times that coboundary,
    in ints, as scaling keeps a class zero or nonzero."""
    coords = _combine(cx.d0, range(1, cx.dim_c0 + 1), cx.dim_c1)
    fp = deformation_equation(cx.lift_cocycle(coords), saito)
    if _class_of(space, fp):
        raise InternalInconsistency("a coboundary has a nonzero class")


def _select_representatives(cx, saito, space, cocycles, h1):
    """Deformed equations whose classes are a basis of the cocycle classes
    modulo coboundaries: single monomials wherever they realize a class,
    scanned by ascending exponent spread, degrevlex descending within a
    spread, then the equations of the cocycles, in order.

    The cocycles are the vectors of ker d1, in order, that are independent
    of im d0 and of the ones kept before them; the rest get no equation.
    The picks are those from every kernel vector. Coboundaries have zero
    class, so the classes of the cocycles span the classes of all kernel
    vectors, and the monomial scan is unchanged. A dropped vector v lies in
    im d0 plus the span of the cocycles before it, so its class lies in
    the span of their classes. Each of those was picked, or was dependent
    on the classes chosen when the fallback reached it; so the class of v
    is dependent on the chosen ones, and the fallback would not pick v."""
    equations = [deformation_equation(cx.lift_cocycle(vec), saito)
                 for vec in cocycles]
    classes = [_class_of(space, fp) for fp in equations]
    realized = linalg.Span()  # the classes of all cocycles
    for cvec in classes:
        realized.add(cvec)
    rank = len(realized.rows)
    if rank != h1:
        raise InternalInconsistency(
            f"class space dimension {rank} != cohomology dimension {h1}")
    # one component, whose weighted_monomials are degrevlex descending
    scan = [e for _, e in space.ambient]
    scan.sort(key=lambda e: max(e) - min(e))
    reps = []
    chosen = linalg.Span()  # classes of the selected representatives
    for m in scan:
        if len(reps) == h1:
            break
        cvec = space.project({(0, m): 1})
        if not realized.contains(cvec):
            continue  # class not realized by any cocycle
        if chosen.add(cvec):  # False when zero or dependent on the chosen
            reps.append(Polynomial.monomial(saito.ring, m))
    # fall back to the cocycles with independent classes
    for fp, cvec in zip(equations, classes):
        if len(reps) == h1:
            break
        if chosen.add(cvec):
            reps.append(fp)
    if len(reps) != h1:
        raise InternalInconsistency("failed to assemble a full set of representatives")
    return reps


def _prepare_graded(f, saito=None, w=None):
    if w is None:
        w = detect_weight_system(f)
    if w is None:
        raise NotWeightedHomogeneous(
            "divisor admits no positive weight system; the graded slice "
            "computation does not apply")
    if saito is None:
        saito = saito_basis(f, w)
    return saito.graded(w), w


def ft1(f, saito=None, w=None):
    """Deformation space of a weighted homogeneous free divisor: the
    weight-zero slice cohomology ker d1 / im d0 of saito.graded(w), as
    one normalized deformed equation per basis class."""
    saito, w = _prepare_graded(f, saito, w)
    cx = SliceComplex(saito, saito.structure_constants(), w)
    kernel = cx.kernel_d1()
    span = linalg.Span()  # im d0, then the cocycles kept
    for col in cx.d0:
        span.add(col)
    rank0 = len(span.rows)
    cocycles = [[Fraction(v.get(k, 0), v[c]) for k in range(cx.dim_c1)]
                for c, v in kernel if span.add(v)]
    space = _class_space(saito.divisor, w)
    _check_coboundary_class(cx, saito, space)
    eqs = _select_representatives(cx, saito, space, cocycles,
                                  len(kernel) - rank0)
    notes = {
        "h0": cx.dim_c0 - rank0,
        "dim_c0": cx.dim_c0,
        "dim_c1": cx.dim_c1,
        "dim_c2": cx.dim_c2,
        "field_weights": list(cx.field_weights),
    }
    return DeformationReport(eqs, space.dim, notes)


def h0(f, saito=None, w=None):
    """Kernel dimension of d0 on the weight-zero slice (always 0: the
    logarithmic fields are self-normalizing)."""
    saito, w = _prepare_graded(f, saito, w)
    cx = SliceComplex(saito, saito.structure_constants(), w)
    return cx.h0_dimension()


def jacobian_degree_bound(f, w=None):
    """Dimension of the degree-k part of Q[x]/(Jacobian ideal); an upper
    bound for the deformation space dimension."""
    if w is None:
        w = detect_weight_system(f)
    if w is None:
        raise NotWeightedHomogeneous("no positive weight system")
    return _class_space(f, w).dim


def linear_basis(f, saito=None):
    """The weight-zero Saito basis of a linear free divisor,
    SaitoBasis.linear_part(), and the standard grading (1, ..., 1; n) it
    is graded by; raises NotLinear otherwise."""
    if saito is None:
        saito = saito_basis(f)
    linear = saito.linear_part()
    if linear is None:
        raise NotLinear("not a linear free divisor")
    n = len(f.ring)
    return linear, WeightSystem((1,) * n, n)


def lft1(f, saito=None):
    """Deformation space of a linear free divisor: the weight-zero slice
    complex of a weight-zero basis under the standard grading, whose
    cohomology is H^1(g, gl_n / g) for the weight-zero Lie algebra g."""
    return ft1(f, *linear_basis(f, saito))
