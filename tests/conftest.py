import itertools
import json
import math
import os
import random

from fractions import Fraction

from logdiv import cohomology, groebner, linalg
from logdiv.groebner import _divide, buchberger
from logdiv.logder import (SUBSET_BUDGET, SaitoBasis, StructureConstants,
                           VectorField, _add_bracket, compute_der_log,
                           find_saito_basis, verify_saito)
from logdiv.errors import current_budget
from logdiv.poly import (Polynomial, PolyMatrix, WeightSystem, _flatten,
                         _Packing, _unflatten, degrevlex_key,
                         detect_weight_system, m_mul, partial_derivative,
                         poly_from_text, weighted_degree)

CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "corpus")


def strip_timings(obj):
    """A report without its timings blocks, at any depth."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def corpus_names():
    return sorted(n[:-len(".json")] for n in os.listdir(CORPUS)
                  if n.endswith(".json") and not n.endswith(".expected.json"))


def corpus_member(name):
    """(f, w, basis) of a corpus entry: w its given or detected weight
    system, None without one; the basis its supplied Saito matrix, or
    else the one found from Der(-log f)."""
    with open(os.path.join(CORPUS, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    ring = tuple(doc["variables"])
    f = poly_from_text(doc["f"], ring)
    if "weights" in doc:
        w = WeightSystem(doc["weights"], weighted_degree(f, doc["weights"]))
    else:
        w = detect_weight_system(f)
    if "saito_matrix" not in doc:
        return f, w, find_saito_basis(compute_der_log(f), f, w)
    rows = [[poly_from_text(t, ring) for t in row] for row in doc["saito_matrix"]]
    fields = [VectorField(ring, [row[c] for row in rows]) for c in range(len(ring))]
    return f, w, SaitoBasis(fields, f, verify_saito(fields, f).unit)


def to_sympy(p, symbols):
    import sympy

    expr = sympy.Integer(0)
    for m, c in p.terms.items():
        t = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, m):
            t *= s ** e
        expr += t
    return sympy.expand(expr)


def from_sympy(expr, ring, symbols):
    import sympy

    poly = sympy.Poly(sympy.expand(expr), *symbols)
    terms = {}
    for mono, coeff in poly.terms():
        q = sympy.Rational(coeff)
        terms[tuple(int(e) for e in mono)] = Fraction(int(q.p), int(q.q))
    return Polynomial(ring, terms)


def dense_rref(rows, ncols):
    """Reference: Gauss-Jordan elimination over Fraction with the pivot at
    the first nonzero row of each column (the routine linalg used before
    its elimination went sparse), each row held as a dict of its nonzero
    entries; returns the echelon rows as dense lists, and the pivots."""
    work = [{c: Fraction(x) for c, x in
             (r.items() if isinstance(r, dict) else enumerate(r)) if x}
            for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if c in work[i]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = 1 / work[r][c]
        work[r] = {k: x * inv for k, x in work[r].items()}
        for i in range(len(work)):
            if i != r and c in work[i]:
                f, row = work[i][c], work[i]
                for k, x in work[r].items():
                    y = row.get(k, 0) - f * x
                    if y:
                        row[k] = y
                    else:
                        del row[k]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [[row.get(c, Fraction(0)) for c in range(ncols)]
            for row in work[:r]], pivots


def dense_nullspace(rows, ncols):
    """Reference kernel: one vector per free column of dense_rref, 1 there."""
    ech, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -ech[i][fc]
        basis.append(v)
    return basis


def transpose(vectors, n):
    """The n sparse dicts that hold the entries of the given sparse dict
    or list vectors, vector k at key k: rows from columns and back."""
    out = [{} for _ in range(n)]
    for k, vec in enumerate(vectors):
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        for r, x in items:
            if x:
                out[r][k] = x
    return out


def scaled_kernel(kernel, ncols):
    """linalg.kernel's pairs (c, v) as Fraction vectors of length ncols,
    each scaled to 1 at its free column c."""
    return [[Fraction(v.get(k, 0), v[c]) for k in range(ncols)]
            for c, v in kernel]


def kernel_vectors(cx):
    """ker d1 of a SliceComplex as Fraction coordinate lists, each scaled
    to 1 at its free column."""
    return scaled_kernel(cx.kernel_d1(), cx.dim_c1)


def reference_slice_images(space, gens, gen_weights, w):
    """(den, images) of a QuotientSlice by the Fraction route: its
    relations gen * x^m formed over Fraction on space.ambient, put in
    reduced row echelon form by dense_rref, den the lcm of the
    denominators of the echelon rows, and images[t] the sparse dict of
    den times the class of the ambient term t: a unit vector at a basis
    term, minus the rest of its echelon row at a pivot term."""
    index = {t: k for k, t in enumerate(space.ambient)}
    relations = []
    for gen, wk in zip(gens, gen_weights):
        if wk is None:
            continue
        for m in cohomology.weighted_monomials(w.weights, space.weight - wk):
            row = [Fraction(0)] * len(index)
            for c, p in enumerate(gen):
                for mm, a in p.terms.items():
                    row[index[(c, m_mul(mm, m))]] += a
            relations.append(row)
    ech, pivots = dense_rref(relations, len(index))
    basis = [k for k in range(len(index)) if k not in pivots]
    den = math.lcm(*(x.denominator for row in ech for x in row))
    images = {space.ambient[k]: {j: den} for j, k in enumerate(basis)}
    for row, pc in zip(ech, pivots):
        images[space.ambient[pc]] = {j: int(-row[k] * den)
                                     for j, k in enumerate(basis) if row[k]}
    return den, images


def reference_d0_rows(cx):
    """Rows of scale * d0 of a SliceComplex, pair by pair: column s is
    the class of the s-th basis monomial x^e d/dx_c of C0, each of its
    brackets with the basis fields formed afresh and projected."""
    rows = [{} for _ in range(cx.dim_c1)]
    for s, k in enumerate(cx.slice0.basis):
        sigma = {cx.slice0.ambient[k]: 1}
        for delta, target, off in zip(cx.saito.fields, cx.slices1,
                                      cx.offsets1):
            img = {}
            _add_bracket(img, cx.scale // target.den, delta, sigma,
                         current_budget())
            for j, x in target.project(img).items():
                rows[off + j][s] = x
    return rows


def reference_d1_rows(cx):
    """Rows of scale * d1 of a SliceComplex, pair by pair: column pos is
    the cochain sending delta_i to the pos-th basis monomial x^e d/dx_c of
    C1, and every block (p, q) of it is formed afresh from b_pq^i and the
    brackets of delta_p, delta_q with x^e d/dx_c, then projected."""
    fields, b = cx.saito.fields, cx.sc.b
    rows = [{} for _ in range(cx.dim_c2)]
    monomials = [(i, s.ambient[k]) for i, s in enumerate(cx.slices1)
                 for k in s.basis]
    for pos, (i, (c, e)) in enumerate(monomials):
        psi = {(c, e): 1}
        for (p, q), target, off in zip(cx.pairs, cx.slices2, cx.offsets2):
            k = cx.scale // target.den
            acc = {(c, m_mul(m, e)): a.numerator * (k // a.denominator)
                   for m, a in b[p][q][i].terms.items()}
            if i == q:
                _add_bracket(acc, -k, fields[p], psi, current_budget())
            if i == p:
                _add_bracket(acc, k, fields[q], psi, current_budget())
            for j, x in target.project(acc).items():
                rows[off + j][pos] = x
    return rows


def random_poly(rng, ring, max_deg=3, n_terms=4, coeff_range=5):
    n = len(ring)
    terms = {}
    for _ in range(n_terms):
        m = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            terms[m] = terms.get(m, Fraction(0)) + c
    return Polynomial(ring, terms)


def unpacked(stream, ring, rank):
    """The (s, rows) batches of syzygy_stream or der_log_stream, each
    packed row (layout _Packing(len(ring))) as a list of rank
    Polynomials; a field of der_log_stream has rank len(ring) + 1 and a
    zero component 0."""
    lay = _Packing(len(ring))
    for s, rows in stream:
        yield s, [_unflatten(row, ring, rank, lay) for row in rows]


def reference_syzygy_stream(lay, flats, first):
    """groebner._syzygy_stream with division rows, as (s, rows):
    besides the unit rows of the zero generators and the relations of the
    S-pairs that reduce to zero, one row e_i - q_i per nonzero generator
    i, q_i the quotients of generator i's tracked reduction by the run's
    basis, made at the first pause with s >= deg(gens[i]), or by i at the
    end of a run that never pauses. Rows are cut and deduplicated as
    _syzygy_stream's are."""
    units = [({i * lay.unit: 1} if i >= first else {}, 1)
             for i in range(len(flats))]
    rows = [units[i] for i, (P, _) in enumerate(flats) if not P]
    todo = [(lay.degree(P), i) for i, (P, _) in enumerate(flats) if P]
    budget = current_budget()

    def division_row(i, state):
        basis, leads, sugars, reps, _ = state
        rem, recs, _ = groebner._reduce_full(
            flats[i], basis, leads, sugars, lay.degree(flats[i][0]), budget,
            lay, True)
        assert not rem[0], "a generator does not reduce to zero"
        return groebner._combine([(1, 1, 0, units[i])]
                                 + [(-c, D, u, reps[j])
                                    for j, u, c, D in recs])

    found, seen = 0, {}
    for s, state in groebner._run_buchberger(flats, budget, units, lay):
        if s is not None:
            todo.sort()
        rows += state[4][found:]
        found = len(state[4])
        while todo and (s is None or todo[0][0] <= s):
            rows.append(division_row(todo.pop(0)[1], state))
        yield s, [r for r in groebner._distinct(rows, seen) if r[0]]
        rows = []


def assert_relations_generate_the_reference(gens, first=0):
    """The rows of groebner._syzygy_stream(gens) cut at first against
    those of reference_syzygy_stream: each is a reference row, every
    reference row reduces to zero modulo a module Groebner basis of them,
    and at each pause s the rows yielded so far generate every reference
    row of degree <= s (a row's degree is deg(row_c) + deg(gens[c]), the
    unit row of a zero generator counting as degree -1)."""
    ring, _, lay, flats = groebner._prepare(gens)
    batches = list(groebner._syzygy_stream(lay, flats, first))
    reference = [row for _, rows in
                 reference_syzygy_stream(lay, flats, first) for row in rows]
    drained = [row for _, rows in batches for row in rows]
    assert all(row in reference for row in drained)

    def polys(rows):
        return [_unflatten(row, ring, len(flats), lay) for row in rows]

    def degree(row):
        return max(sum(m) + (lay.degree(flats[c][0]) if flats[c][0] else -1)
                   for c, m in map(lay.unpack, row[0]))

    def generated(rows, targets):
        if targets:
            assert rows, "reference rows and no rows to generate them"
            gb = buchberger(polys(rows))
            assert all(gb.reduces_to_zero(row) for row in polys(targets))

    generated(drained, reference)
    so_far, checked = [], 0
    for s, rows in batches:
        so_far += rows
        if s is None:
            continue
        targets = [row for row in reference if degree(row) <= s]
        if len(targets) > checked:  # the rows so far only grow
            generated(so_far, targets)
            checked = len(targets)


# ---- the Saito basis search over VectorFields and Fraction polynomials --

def field_sort_key(tag, delta):
    """A total order on weight-homogeneous fields of weight tag, for
    comparing lists of them as multisets."""
    return (tag, [tuple(sorted(p.terms.items())) for p in delta.components])


def reference_weight_parts(delta, w):
    """Decompose delta into weight-homogeneous fields: (tag, part) pairs,
    ascending by tag."""
    buckets = {}
    for i, a in enumerate(delta.components):
        for m, c in a.terms.items():
            tag = sum(e * x for e, x in zip(m, w.weights)) - w.weights[i]
            comp = buckets.setdefault(tag, [dict() for _ in delta.ring])
            comp[i][m] = c
    return [(tag, VectorField(delta.ring, [Polynomial(delta.ring, t, False)
                                           for t in buckets[tag]]))
            for tag in sorted(buckets)]


def reference_echelon(fields):
    """The reduced row echelon basis over Q of the span of the fields, by
    dense_rref: columns are the terms (i, m) of x^m d/dx_i, largest first
    in the module order (position over term, d/dx_1 first, then degrevlex:
    higher degree first, then the smaller exponent of the last variable),
    so each pivot sits at a lead term; each row scaled to primitive ints,
    positive at its pivot. Rows come in pivot order, largest lead first."""
    if not fields:
        return []
    ring = fields[0].ring
    cols = sorted({(i, m) for d in fields for i, p in enumerate(d.components)
                   for m in p.terms},
                  key=lambda t: (t[0], -sum(t[1]), tuple(reversed(t[1]))))
    rows = [[d.components[i].terms.get(m, 0) for i, m in cols] for d in fields]
    out = []
    for row in dense_rref(rows, len(cols))[0]:
        den = math.lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row]
        g = math.gcd(*ints)
        comps = [{} for _ in ring]
        for (i, m), x in zip(cols, ints):
            if x:
                comps[i][m] = Fraction(x // g)
        out.append(VectorField(ring, [Polynomial(ring, t) for t in comps]))
    return out


def reference_saito_fields(f, w):
    """The Saito basis that the search selects among the generators
    compute_der_log(f), selected over VectorFields. With a weight system
    w: for each weight d of a part, ascending, the normal forms of the
    weight-d parts modulo buchberger of the fields kept below d, put in
    reference_echelon form and kept, until n kept fields pass
    verify_saito. Without one: the first n-subset in order of total
    degree that passes it. None when nothing does."""
    gens, n = compute_der_log(f), len(f.ring)
    if w is None:
        def total_deg(i):
            return sum(p.total_degree() or 0 for p in gens[i].components)

        order = sorted(range(len(gens)), key=lambda i: (total_deg(i), i))
        subsets = itertools.combinations(order, n)
        for combo in itertools.islice(subsets, SUBSET_BUDGET):
            if verify_saito([gens[i] for i in combo], f):
                return [gens[i] for i in combo]
        return None
    by_tag = {}
    for delta in gens:
        for tag, part in reference_weight_parts(delta, w):
            by_tag.setdefault(tag, []).append(part)
    kept = []
    for tag in sorted(by_tag):
        forms = by_tag[tag]
        if kept:
            gb = buchberger([list(d.components) for d in kept])
            forms = [VectorField(f.ring, gb.normal_form(list(d.components)))
                     for d in forms]
        new = reference_echelon(forms)
        kept += new
        if new and len(kept) == n and verify_saito(kept, f):
            return kept
    return None


def coxeter_gens(name):
    """(f, grad f) of braid A3 (in four variables), Coxeter D4 or B3."""
    x4 = ("x1", "x2", "x3", "x4")
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    if name == "braid-A3":
        ring, f = x4, "*".join(f"(x{i}-x{j})" for i, j in pairs)
    elif name == "coxeter-D4":
        ring, f = x4, "*".join(f"(x{i}^2-x{j}^2)" for i, j in pairs)
    else:
        ring, f = x4[:3], "x1*x2*x3*(x1^2-x2^2)*(x1^2-x3^2)*(x2^2-x3^2)"
    f = poly_from_text(f, ring)
    return [f] + [partial_derivative(f, i) for i in range(len(ring))]


def assert_syzygies(rows, gens):
    """Every row r satisfies sum_c r_c * g_c = 0."""
    for row in rows:
        assert sum((p * g for p, g in zip(row, gens)),
                   Polynomial.zero(gens[0].ring)).is_zero()


def without_chain_criterion(monkeypatch):
    """Turn groebner's chain criterion off in every Buchberger run; a
    tracked run then reduces every S-pair, as on inhomogeneous
    generators."""
    monkeypatch.setattr(groebner, "_chain_skip", lambda *args: False)


def reference_certificate(leads, k, lay):
    """(answer, leads read) of the subset filter that dimension_at_most
    ran before its independent-set search: every (k+1)-subset of the
    variables that holds no support read so far, kept as the exponent
    fields outside it and filtered at each lead; True once none is left,
    at once when there is none, and False when the leads run out."""
    n = lay.n
    open_sets = [(lay.pack(0, [int(i not in c) for i in range(n)])
                  & lay.ones) * lay.top
                 for c in itertools.combinations(range(n), k + 1)]
    if not open_sets:
        return True, 0
    for read, ld in enumerate(leads, 1):
        open_sets = [c for c in open_sets if c & ld]
        if not open_sets:
            return True, read
    return False, len(leads)


def packed_det(rows):
    """The determinant of a square matrix of polynomials, by PolyMatrix."""
    mat = PolyMatrix(rows)
    return mat.polynomial(mat.det())


def packed_adjugate(rows):
    """The adjugate of a square matrix of polynomials, by PolyMatrix:
    adj * rows = det * I."""
    mat = PolyMatrix(rows)
    return [[mat.polynomial(v) for v in row] for row in mat.adjugate()]


def packed_div(p, d):
    """p / d by the packed exact division, or None when d does not divide
    p; the division is charged to the active budget."""
    if d.is_zero():
        return None
    lay = _Packing(len(p.ring))
    q = _divide(_flatten([p], lay), _flatten([d], lay), lay, current_budget())
    return None if q is None else _unflatten(q, p.ring, 1, lay)[0]


def leibniz(rows):
    """det(rows) by the Leibniz formula, as a dict from exponent to
    Fraction, with products and sums of Fraction only."""
    n = len(rows)
    out = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        prod = {(0,) * len(rows[0][0].ring):
                Fraction(-1 if inversions % 2 else 1)}
        for i in range(n):
            nxt = {}
            for m1, c1 in prod.items():
                for m2, c2 in rows[i][perm[i]].terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    nxt[m] = nxt.get(m, Fraction(0)) + c1 * c2
            prod = nxt
        for m, c in prod.items():
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


# ---- reference formulas over Fraction polynomial products ---------------

def apply_field(delta, g):
    """delta(g) = sum_i delta_i * dg/dx_i."""
    out = Polynomial.zero(delta.ring)
    for i, a in enumerate(delta.components):
        out = out + a * partial_derivative(g, i)
    return out


def field_sum(*fields):
    """The componentwise sum of the fields."""
    comps = [Polynomial.zero(fields[0].ring)] * len(fields[0].ring)
    for d in fields:
        comps = [a + p for a, p in zip(comps, d.components)]
    return VectorField(fields[0].ring, comps)


def reference_bracket(delta, nu):
    """[delta, nu], component i = delta(nu_i) - nu(delta_i), by products
    of Fraction polynomials."""
    return VectorField(delta.ring, [
        apply_field(delta, nu.components[i]) - apply_field(nu, delta.components[i])
        for i in range(len(delta.ring))])


class ReferenceConstants(StructureConstants):
    """StructureConstants with the test that every b / u is a rational
    number, read coefficient by coefficient."""

    __slots__ = ()

    def value(self, p):
        """p / u when that quotient is a rational number, else None: p is
        zero, or has u's support with every coefficient c times u's."""
        u = self.denominator.terms
        if not p.terms:
            return Fraction(0)
        if p.terms.keys() != u.keys():
            return None
        m, a = next(iter(u.items()))
        c = p.terms[m] / a
        return c if all(p.terms[t] == c * b for t, b in u.items()) else None

    def is_constant(self):
        """True when every coefficient b / u is a rational number."""
        return all(self.value(p) is not None
                   for row in self.b for col in row for p in col)


def reference_connection_conditions(saito, sc):
    """The two identities on the structure constants, checked one by one:
    with a[i][j] the d/dx_j coefficient of field i,
      first:  sum_k a[k][r] * d(b[i][j][k] / u) / d x_l = 0
      second: sum_k a[l][k] * d(b[i][j][r] / u) / d x_k = 0
    for all i, j, l, r, the derivative of b / u taken as
    (u * db - b * du) / u^2 without its factor 1 / u^2."""
    n = sc.n
    a = [[d.components[j] for j in range(n)] for d in saito.fields]
    u = sc.denominator
    du = [partial_derivative(u, l) for l in range(n)]

    def d(p, l):
        return u * partial_derivative(p, l) - p * du[l]
    zero = Polynomial.zero(saito.ring)
    first = second = True
    for i in range(n):
        for j in range(n):
            db = [[d(p, l) for l in range(n)] for p in sc.b[i][j]]
            for l in range(n):
                for r in range(n):
                    if not sum((a[k][r] * db[k][l] for k in range(n)),
                               zero).is_zero():
                        first = False
                    if not sum((a[l][k] * db[r][k] for k in range(n)),
                               zero).is_zero():
                        second = False
    return first, second


def reference_representatives(saito, w):
    """The deformed equations ft1 reports for the Saito basis graded by w,
    by the selection that forms the equation of every vector of ker d1:
    monomials realizing a class, by ascending exponent spread and
    degrevlex descending within a spread, then the equations of the
    kernel vectors, in order, whose classes are independent of those
    chosen. The classes of all kernel vectors must span h1 dimensions.
    The kernel is dense_nullspace's, which shares no code with linalg."""
    saito = saito.graded(w)
    cx = cohomology.SliceComplex(saito, saito.structure_constants(), w)
    kernel = dense_nullspace(transpose(cx.d1, cx.dim_c2), cx.dim_c1)
    h1 = len(kernel) - cx.rank_d0()
    space = cohomology._class_space(saito.divisor, w)
    equations = [cohomology.deformation_equation(cx.lift_cocycle(vec), saito)
                 for vec in kernel]
    classes = [space.project({(0, m): c for m, c in fp.terms.items()})
               for fp in equations]
    realized = linalg.Span()
    for cvec in classes:
        realized.add(cvec)
    assert len(realized.rows) == h1
    scan = sorted((e for _, e in space.ambient), key=degrevlex_key, reverse=True)
    scan.sort(key=lambda e: max(e) - min(e))
    reps = []
    chosen = linalg.Span()
    for m in scan:
        if len(reps) == h1:
            break
        cvec = space.project({(0, m): 1})
        if realized.contains(cvec) and chosen.add(cvec):
            reps.append(Polynomial.monomial(saito.ring, m))
    for fp, cvec in zip(equations, classes):
        if len(reps) == h1:
            break
        if chosen.add(cvec):
            reps.append(fp)
    assert len(reps) == h1
    return reps
