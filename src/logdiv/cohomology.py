"""First-order deformation spaces of free divisors.

Everything happens in finite-dimensional graded slices. For a weighted
homogeneous divisor with Saito basis delta_1..delta_n (field weights w_i),
the weight-zero part of the deformation complex is

    C0 = M_0  --d0-->  C1 = (+)_i M_{w_i}  --d1-->  C2 = (+)_{i<j} M_{w_i + w_j}

where M_w is the weight-w piece of (all vector fields) / (logarithmic
fields), a finite-dimensional Q-vector space because variable weights are
positive. The differentials follow the sign convention

    (d0 sigma)(delta_i)            = [delta_i, sigma]
    (d1 psi)(delta_i ^ delta_j)    = psi([delta_i, delta_j])
                                     - [delta_i, psi(delta_j)]
                                     + [delta_j, psi(delta_i)]

whose composition vanishes by the Jacobi identity. dim ker d1 - rank d0 is
the dimension of the deformation space; representatives are normalized to
monomial deformed equations whenever the class space allows it.

lft1 is the same complex for a linear free divisor, built on a basis of
weight-zero (linear) fields under the standard grading (1, ..., 1): those
fields span a Lie algebra g, and the slice cohomology is H^1(g, gl_n / g).
The tests check it against an independent Chevalley-Eilenberg oracle
(tests/ce_oracle.py).
"""

from fractions import Fraction

from . import linalg
from .errors import (
    InternalInconsistency,
    NotLinear,
    NotWeightedHomogeneous,
    current_budget,
)
from .groebner import buchberger, weighted_monomials
from .logder import (
    VectorField,
    compute_der_log,
    find_saito_basis,
    lie_bracket,
)
from .poly import (
    Polynomial,
    WeightSystem,
    degrevlex_key,
    detect_weight_system,
    is_squarefree,
    partial_derivative,
    poly_det,
)

ZERO = Fraction(0)


def _ambient_fields(ring, w, weight):
    """Monomial fields x^alpha d/dx_i of the given weight, i.e. with
    wt(alpha) = weight + w_i; deterministic order."""
    out = []
    for i in range(len(ring)):
        for e in weighted_monomials(w.weights, weight + w.weights[i]):
            out.append((i, e))
    out.sort(key=lambda t: (t[0], degrevlex_key(t[1])))
    out.reverse()
    out.sort(key=lambda t: t[0])
    return out


class QuotientSlice:
    """Weight-w piece of (all fields) / (module spanned by the basis
    fields), coordinates on monomial fields not hit by the relations.

    The dense relation matrix is charged to the budget, one step per
    cell, before it is allocated.
    """

    __slots__ = ("ring", "weight", "ambient", "_index", "_ech", "_pivots", "basis")

    def __init__(self, saito, field_weights, w, weight):
        self.ring = saito.ring
        self.weight = weight
        self.ambient = _ambient_fields(self.ring, w, weight)
        self._index = {t: k for k, t in enumerate(self.ambient)}
        shifts = [(delta, weighted_monomials(w.weights, weight - wk))
                  for delta, wk in zip(saito.fields, field_weights)
                  if wk is not None]
        current_budget().spend(
            sum(len(ms) for _, ms in shifts) * len(self.ambient))
        relations = []
        for delta, ms in shifts:
            for m in ms:
                vec = [ZERO] * len(self.ambient)
                for i, p in enumerate(delta.components):
                    for mm, c in p.terms.items():
                        t = (i, tuple(a + b for a, b in zip(mm, m)))
                        vec[self._index[t]] += c
                relations.append(vec)
        if relations:
            self._ech, self._pivots = linalg.rref(relations, len(self.ambient))
        else:
            self._ech, self._pivots = [], []
        pivot_set = set(self._pivots)
        self.basis = [k for k in range(len(self.ambient)) if k not in pivot_set]

    @property
    def dim(self):
        return len(self.basis)

    def basis_field(self, k):
        i, e = self.ambient[self.basis[k]]
        comps = [Polynomial.zero(self.ring) for _ in self.ring]
        comps[i] = Polynomial.monomial(self.ring, e)
        return VectorField(self.ring, comps)

    def project(self, delta):
        """Coordinates of the class of a concrete weight-w field."""
        vec = [ZERO] * len(self.ambient)
        for i, p in enumerate(delta.components):
            for m, c in p.terms.items():
                t = (i, m)
                if t not in self._index:
                    raise InternalInconsistency(
                        f"field term {t} is not of slice weight {self.weight}")
                vec[self._index[t]] += c
        residual = linalg.in_row_space(self._ech, self._pivots, vec)
        return [residual[k] for k in self.basis]

    def lift(self, coords):
        terms = [dict() for _ in self.ring]
        for c, k in zip(coords, self.basis):
            if c:
                i, e = self.ambient[k]
                terms[i][e] = terms[i].get(e, ZERO) + c
        comps = [Polynomial(self.ring, t) for t in terms]
        return VectorField(self.ring, comps)


def _transpose_columns(cols, nrows):
    return [[col[r] for col in cols] for r in range(nrows)]


def _matmul_rows(a_rows, b_rows):
    """Rows of A*B, exact; zero entries of A are skipped, so a sparse A
    costs one row of B per nonzero entry."""
    width = len(b_rows[0]) if b_rows else 0
    out = []
    for ar in a_rows:
        row = [ZERO] * width
        for k, a in enumerate(ar):
            if a:
                for c, b in enumerate(b_rows[k]):
                    if b:
                        row[c] += a * b
        out.append(row)
    return out


class SliceComplex:
    """Weight-zero slice of the deformation complex of a Saito basis."""

    __slots__ = ("saito", "sc", "w", "field_weights", "_slices",
                 "slice0", "slices1", "pairs", "slices2",
                 "dim_c0", "dim_c1", "dim_c2", "offsets1", "offsets2",
                 "d0_rows", "d1_rows")

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
        self.offsets1 = _offsets([s.dim for s in self.slices1])
        self.dim_c1 = self.offsets1[-1]
        self.offsets2 = _offsets([s.dim for s in self.slices2])
        self.dim_c2 = self.offsets2[-1]
        self.d0_rows = self._build_d0()
        self.d1_rows = self._build_d1()
        comp = _matmul_rows(self.d1_rows, self.d0_rows)
        if any(any(x != 0 for x in row) for row in comp):
            raise InternalInconsistency("d1 after d0 is not zero")

    def _slice(self, weight):
        if weight not in self._slices:
            self._slices[weight] = QuotientSlice(
                self.saito, self.field_weights, self.w, weight)
        return self._slices[weight]

    def _build_d0(self):
        n = len(self.saito.ring)
        cols = []
        for s in range(self.dim_c0):
            sigma = self.slice0.basis_field(s)
            col = []
            for i in range(n):
                img = lie_bracket(self.saito.fields[i], sigma)
                col.extend(self.slices1[i].project(img))
            cols.append(col)
        return _transpose_columns(cols, self.dim_c1)

    def _psi_component(self, vec, i):
        lo, hi = self.offsets1[i], self.offsets1[i + 1]
        return self.slices1[i].lift(vec[lo:hi])

    def _build_d1(self):
        n = len(self.saito.ring)
        cols = []
        for pos in range(self.dim_c1):
            vec = [ZERO] * self.dim_c1
            vec[pos] = Fraction(1)
            # which summand does this coordinate live in
            i = next(k for k in range(n) if self.offsets1[k] <= pos < self.offsets1[k + 1])
            tilde = self._psi_component(vec, i)
            col = []
            for pi, (p, q) in enumerate(self.pairs):
                acc = VectorField(self.saito.ring,
                                  [Polynomial.zero(self.saito.ring)] * n)
                if i == q:
                    acc = acc - lie_bracket(self.saito.fields[p], tilde)
                if i == p:
                    acc = acc + lie_bracket(self.saito.fields[q], tilde)
                bpqi = self.sc.b[p][q][i]
                if not bpqi.is_zero():
                    acc = acc + VectorField(
                        self.saito.ring, [bpqi * c for c in tilde.components])
                col.extend(self.slices2[pi].project(acc))
            cols.append(col)
        return _transpose_columns(cols, self.dim_c2)

    # -- derived data ------------------------------------------------

    def h0_dimension(self):
        return self.dim_c0 - self.rank_d0()

    def kernel_d1(self):
        if self.dim_c1 == 0:
            return []
        return linalg.nullspace(self.d1_rows, self.dim_c1)

    def rank_d0(self):
        if self.dim_c0 == 0:
            return 0
        return linalg.rank(self.d0_rows, self.dim_c0)

    def h1_dimension(self):
        return len(self.kernel_d1()) - self.rank_d0()

    def apply_d0(self, sigma_coords):
        return [sum(row[c] * sigma_coords[c] for c in range(self.dim_c0))
                for row in self.d0_rows]

    def apply_d1(self, psi_coords):
        return [sum(row[c] * psi_coords[c] for c in range(self.dim_c1))
                for row in self.d1_rows]

    def lift_cocycle(self, vec):
        n = len(self.saito.ring)
        return [self._psi_component(vec, i) for i in range(n)]

    def h2_dimension(self):
        """dim ker d2 - rank d1; d2 is built only on this call."""
        rank2 = linalg.rank(self.build_d2(), self.dim_c2)
        return self.dim_c2 - rank2 - linalg.rank(self.d1_rows, self.dim_c1)

    def build_d2(self):
        """Rows of d2 on the weight-zero slice, for h2_dimension and for
        checking that d2 after d1 vanishes."""
        n = len(self.saito.ring)
        triples = [(a, b, c) for a in range(n) for b in range(a + 1, n)
                   for c in range(b + 1, n)]
        slices3 = [self._slice(self.field_weights[a] + self.field_weights[b]
                               + self.field_weights[c])
                   for (a, b, c) in triples]
        offsets3 = _offsets([s.dim for s in slices3])
        pair_index = {pq: k for k, pq in enumerate(self.pairs)}

        def phi_entry(vec, k, l):
            """phi(delta_k ^ delta_l) as a lifted field, antisymmetric."""
            if k == l:
                return None, 1
            if k < l:
                pi = pair_index[(k, l)]
                sign = 1
            else:
                pi = pair_index[(l, k)]
                sign = -1
            lo, hi = self.offsets2[pi], self.offsets2[pi + 1]
            coords = vec[lo:hi]
            if all(x == 0 for x in coords):
                return None, sign
            return self.slices2[pi].lift(coords), sign

        cols = []
        for pos in range(self.dim_c2):
            vec = [ZERO] * self.dim_c2
            vec[pos] = Fraction(1)
            col = []
            for ti, (a, b, c) in enumerate(triples):
                acc = VectorField(self.saito.ring,
                                  [Polynomial.zero(self.saito.ring)] * n)
                for sign, head, rest in ((-1, a, (b, c)), (1, b, (a, c)),
                                         (-1, c, (a, b))):
                    phi, s = phi_entry(vec, *rest)
                    if phi is not None:
                        br = lie_bracket(self.saito.fields[head], phi)
                        acc = acc + br.scale(Fraction(sign * s))
                for sign, (p, q), tail in ((1, (a, b), c), (-1, (a, c), b),
                                           (1, (b, c), a)):
                    for k in range(n):
                        bk = self.sc.b[p][q][k]
                        if bk.is_zero():
                            continue
                        phi, s = phi_entry(vec, k, tail)
                        if phi is None:
                            continue
                        scaled = VectorField(
                            self.saito.ring,
                            [bk * comp for comp in phi.components])
                        acc = acc + scaled.scale(Fraction(sign * s))
                col.extend(slices3[ti].project(acc))
            cols.append(col)
        return _transpose_columns(cols, offsets3[-1])


def _offsets(dims):
    out = [0]
    for d in dims:
        out.append(out[-1] + d)
    return out


def build_slice(saito, sc, w):
    """The weight-zero slices C0, C1, C2 with exact d0 and d1 matrices."""
    return SliceComplex(saito, sc, w)


class Cocycle:
    """Element of C1 in slice coordinates."""

    __slots__ = ("complex", "coords")

    def __init__(self, cx, coords):
        self.complex = cx
        self.coords = list(coords)

    def is_cocycle(self):
        return all(x == 0 for x in self.complex.apply_d1(self.coords))


class DeformationReport:
    __slots__ = ("dimension", "representatives", "deformed_equations",
                 "method", "notes")

    def __init__(self, dimension, representatives, deformed_equations,
                 method, notes=None):
        if len(representatives) != dimension or len(deformed_equations) != dimension:
            raise InternalInconsistency("representative count must match dimension")
        self.dimension = dimension
        self.representatives = representatives
        self.deformed_equations = deformed_equations
        self.method = method
        self.notes = notes or {}


def deformation_equation(psi_fields, saito):
    """First-order change of the defining equation: the sum over i of the
    determinant of the Saito matrix with column i replaced by the i-th
    value of the cocycle."""
    n = len(saito.ring)
    fprime = Polynomial.zero(saito.ring)
    for i in range(n):
        rows = []
        for r in range(n):
            row = []
            for c in range(n):
                if c == i:
                    row.append(psi_fields[c].components[r])
                else:
                    row.append(saito.fields[c].components[r])
            rows.append(row)
        fprime = fprime + poly_det(rows)
    return fprime


def cocycle_check(psi_fields, saito, sc):
    """True iff psi([delta_i, delta_j]) - [delta_i, psi_j] + [delta_j, psi_i]
    is logarithmic for every i < j."""
    n = len(saito.ring)
    gb = buchberger([list(d.components) for d in saito.fields])
    for i in range(n):
        for j in range(i + 1, n):
            acc = lie_bracket(saito.fields[j], psi_fields[i]) \
                - lie_bracket(saito.fields[i], psi_fields[j])
            for k in range(n):
                bk = sc.b[i][j][k]
                if not bk.is_zero():
                    acc = acc + VectorField(
                        saito.ring, [bk * c for c in psi_fields[k].components])
            if not gb.reduces_to_zero(list(acc.components)):
                return False
    return True


def is_coboundary(psi, cx):
    """A C0 class sigma with d0(sigma) = psi, or None."""
    coords = psi.coords if isinstance(psi, Cocycle) else list(psi)
    return linalg.solve(cx.d0_rows, cx.dim_c0, coords)


class _ClassSpace:
    """Degree-k piece of Q[x] / Tjurina ideal, coordinates on the weight-k
    monomials."""

    __slots__ = ("ring", "w", "k", "monomials", "_index", "gb")

    def __init__(self, f, w):
        self.ring = f.ring
        self.w = w
        self.k = w.degree
        gens = [f] + [partial_derivative(f, i) for i in range(len(f.ring))]
        self.gb = buchberger(gens)
        self.monomials = weighted_monomials(w.weights, self.k)
        self._index = {m: i for i, m in enumerate(self.monomials)}

    def coords(self, p):
        nf = self.gb.normal_form(p)
        vec = [ZERO] * len(self.monomials)
        for m, c in nf.terms.items():
            if m not in self._index:
                raise InternalInconsistency("normal form left the graded piece")
            vec[self._index[m]] += c
        return vec

    def scan_order(self):
        """Weight-k monomials, lowest exponent spread first, degrevlex
        descending inside a spread class."""
        ms = sorted(self.monomials, key=degrevlex_key, reverse=True)
        ms.sort(key=lambda e: max(e) - min(e))
        return ms


def _select_representatives(cx, saito, w, kernel, rank0):
    """Echelonize the cocycle classes modulo coboundaries and realize as
    many classes as possible by single-monomial deformed equations."""
    h1 = len(kernel) - rank0
    space = _ClassSpace(saito.divisor, w)
    width = len(space.monomials)
    classes = []
    for vec in kernel:
        fields = cx.lift_cocycle(vec)
        fp = deformation_equation(fields, saito)
        classes.append(space.coords(fp))
    ech, pivots = linalg.rref(classes, width) if classes else ([], [])
    if len(ech) != h1:
        raise InternalInconsistency(
            f"class space dimension {len(ech)} != cohomology dimension {h1}")
    reps = []
    equations = []
    chosen = linalg.Span()  # classes of the selected representatives
    for m in space.scan_order():
        if len(reps) == h1:
            break
        mono = Polynomial.monomial(saito.ring, m)
        cvec = space.coords(mono)
        if all(x == 0 for x in cvec):
            continue
        residual = linalg.in_row_space(ech, pivots, cvec)
        if any(x != 0 for x in residual):
            continue  # class not realized by any cocycle
        if not chosen.add(dict(enumerate(cvec))):
            continue  # dependent on already selected classes
        sol = linalg.solve([[classes[u][pos] for u in range(len(kernel))]
                            for pos in range(width)], len(kernel), cvec)
        if sol is None:
            raise InternalInconsistency("class solve failed inside the span")
        coords = [sum(sol[u] * kernel[u][c] for u in range(len(kernel)))
                  for c in range(cx.dim_c1)]
        reps.append(Cocycle(cx, coords))
        equations.append(mono)
    if len(reps) < h1:
        # fall back to raw kernel vectors with independent classes
        for vec, cvec in zip(kernel, classes):
            if len(reps) == h1:
                break
            if not chosen.add(dict(enumerate(cvec))):
                continue
            fields = cx.lift_cocycle(vec)
            reps.append(Cocycle(cx, vec))
            equations.append(deformation_equation(fields, saito))
    if len(reps) != h1:
        raise InternalInconsistency("failed to assemble a full set of representatives")
    return reps, equations


def _prepare_graded(f, saito=None, w=None):
    if w is None:
        w = detect_weight_system(f)
    if w is None:
        raise NotWeightedHomogeneous(
            "divisor admits no positive weight system; the graded slice "
            "computation does not apply")
    if saito is None:
        saito = find_saito_basis(compute_der_log(f), f, w)
    return saito.graded(w), w


def ft1(f, saito=None, w=None):
    """Deformation space of a weighted homogeneous free divisor: the
    weight-zero slice cohomology ker d1 / im d0 of saito.graded(w), with
    normalized representatives and deformed equations."""
    saito, w = _prepare_graded(f, saito, w)
    cx = build_slice(saito, saito.structure_constants(), w)
    kernel = cx.kernel_d1()
    rank0 = cx.rank_d0()
    reps, eqs = _select_representatives(cx, saito, w, kernel, rank0)
    notes = {
        "h0": cx.dim_c0 - rank0,
        "dim_c0": cx.dim_c0,
        "dim_c1": cx.dim_c1,
        "dim_c2": cx.dim_c2,
        "field_weights": list(cx.field_weights),
    }
    return DeformationReport(len(reps), reps, eqs, "graded-slice", notes)


def h0(f, saito=None, w=None):
    """Kernel dimension of d0 on the weight-zero slice (always 0: the
    logarithmic fields are self-normalizing)."""
    saito, w = _prepare_graded(f, saito, w)
    cx = build_slice(saito, saito.structure_constants(), w)
    return cx.h0_dimension()


def jacobian_degree_bound(f, w=None):
    """Dimension of the degree-k part of Q[x]/(Jacobian ideal); an upper
    bound for the deformation space dimension."""
    from .groebner import graded_quotient_basis

    if w is None:
        w = detect_weight_system(f)
    if w is None:
        raise NotWeightedHomogeneous("no positive weight system")
    gens = [partial_derivative(f, i) for i in range(len(f.ring))]
    if all(g.is_zero() for g in gens):
        raise InternalInconsistency("zero gradient of a nonconstant polynomial")
    return len(graded_quotient_basis(gens, w.degree, w))


def ft1_plane_curve(f):
    """Two-variable weighted homogeneous shortcut: the deformation space
    is the degree-k part of Q[x,y]/J, with monomial representatives."""
    from .errors import NonReduced
    from .groebner import graded_quotient_basis

    if len(f.ring) != 2:
        raise ValueError("plane-curve shortcut needs exactly two variables")
    if not is_squarefree(f):
        raise NonReduced("curve is not reduced")
    w = detect_weight_system(f)
    if w is None:
        raise NotWeightedHomogeneous("no positive weight system")
    gens = [partial_derivative(f, i) for i in range(2)]
    monos = graded_quotient_basis(gens, w.degree, w)
    reps = [None] * len(monos)
    return DeformationReport(len(monos), reps, monos, "plane-curve-shortcut",
                             {"weights": list(w.weights), "degree": w.degree})


def linear_basis(f, saito=None):
    """The weight-zero Saito basis of a linear free divisor,
    SaitoBasis.linear_part(), and the standard grading (1, ..., 1; n) it
    is graded by; raises NotLinear otherwise."""
    if saito is None:
        saito = find_saito_basis(compute_der_log(f), f)
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
