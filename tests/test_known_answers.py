"""Known answers from the theory, checked against logdiv.

- Terao's factorization theorem: a free central arrangement with exponents
  d_1, ..., d_n has characteristic polynomial prod (t - d_i). The
  exponents come from logdiv's field weights (d_i = weight + 1); the
  polynomial comes from the intersection lattice of the hyperplanes,
  computed here with Fraction ranks and nothing from logdiv.
- The paper's vanishing theorem: lft1 = H^1(g, gl_n / g) is zero for every
  reductive linear free divisor. logdiv's lft1 is checked against the
  oracle in ce_oracle.py, which shares no code with it, on two reductive
  divisors and one that is not.
- ft1 from the equations of a deformation: on every graded corpus entry,
  the dimension of weight-zero deformations f + e g of f with its Saito
  basis, modulo the trivial ones, computed in ce_oracle.py from the text
  of the input and of the golden Saito matrix, equals the golden ft1.
- Rigid arrangements: ft1 of braid A3 (in 4 variables), Coxeter B3 and
  Coxeter D4 is 0 in logdiv's slice complex and in the equation-side
  oracle, which reads only the text of the expanded f and of logdiv's
  Saito matrix.
- Representatives: ft1 forms deformed equations only for the vectors of
  ker d1 independent of im d0. Its equations equal those of the reference
  in conftest.py, which forms the equation of every kernel vector, on the
  corpus and the rigid arrangements, and with the monomial scan emptied,
  so that every pick comes from the kernel vectors.
- The rows of d0 and d1, which read each bracket of a complex from one
  memo and visit only the blocks a column touches, equal those of the
  pair-by-pair reference builders in conftest.py, on the graded corpus,
  its lft1 complexes and the rigid arrangements.
- Lie algebras: the Killing form, formed in ints on the bracket table
  scaled by the lcm D of its denominators, is D^2 times a Fraction trace
  reference; sl2 and gl2 are reductive, the Borel b2 and the Heisenberg
  algebra are not, and an abelian algebra is its own radical and center.
- The signature-based run behind the dimension tests: run to its end, its
  leads generate the initial ideal of the reduced basis that buchberger
  returns, on seeded random homogeneous and inhomogeneous ideals and on
  the symbol ideals of four arrangements and the discriminant. The
  arrangements are locally quasi-homogeneous and free, so they are
  Koszul free (Calderon-Moreno and Narvaez-Macarro, 2002); the four lines
  x^2 y^2 + x y^3 + x^3 y z + x^2 y^2 z are not. The Koszul step counts
  of D4 and B4 are pinned, the run's and the search's apart.
- The dimension certificate, minimal supports and one witness searched
  for by branch and bound: it stops at the lead where the subset filter
  of conftest.py stops, with its answer, on every dimension test of the
  corpus and the six arrangements of the benchmark, on the random ideals
  above at every k, and on the unit and zero ideals, k = -1 and k >= n.
  Normal crossings in 12 variables are certified at the search's root.
  Two terms of one component have disjoint supports exactly when their
  lcm is their product: the J-pairs the run skips before any lcm.
- The squarefree certificate on a line: its first line certifies every
  reduced input of the corpus, the six arrangements and tests/frontier,
  where dimension_at_most on the singular locus agrees; no line
  certifies five products with a square factor, which exit 3 at the
  divisor stage, nor (x1 - x2)^2 x3 (x1 + x3), (y^2 + x z)^2 z,
  (x^5 - y^4)^2, x^2, or g^2 h for random small g and h in one to four
  variables; and with every line made inconclusive, the fallback run
  gives the same reports.
- The Saito basis search: on every corpus entry without a supplied Saito
  matrix and on braid A3, B3, D4 and B4, the search over packed fields,
  from the stream and from the drained generators, returns the fields of
  the reference in conftest.py, which takes the normal forms of the
  weight parts of VectorFields with Polynomial-level buchberger and
  normal_form and echelons them by a dense Fraction elimination; each
  basis passes verify_saito. The basis is a canonical form: normal
  crossings give diag(x_1, ..., x_n) with unit 1, and on the graded
  corpus and the four arrangements another free basis, that basis under
  a graded automorphism, the generators reversed and the generators with
  their multiples by the variables all give the same fields and unit. At
  most one Groebner basis of kept fields is built per field weight after
  the first.
- Der(-log f) as the projection of the syzygies of (f, grad f): batch by
  batch, the field rows of _syzygy_stream(*_jacobian(f), 1), whose run
  never forms the f component, are the nonzero field parts of the rows
  of syzygy_stream on (f, grad f), as Fraction values, at the same
  pauses; on the graded corpus entries, the whole inhomogeneous run of
  the four lines, and braid A3, Coxeter B3 and D4.
- The chain criterion in the tracked syzygy run: on braid A3, Coxeter B3
  and D4 its rows are syzygies of (f, grad f), and every row of the run
  that reduces every S-pair reduces to zero modulo a module Groebner
  basis of them, so they generate the same syzygy module.
- Top-reduction in the tracked syzygy run: on braid A3, Coxeter B3 and
  D4 the engine's steps and rows, and, under full_reduction, those of
  the reference engine, which reduces every remainder in full and keeps
  the values the engine had before, are pinned; the rows of each reduce
  to zero modulo a module Groebner basis of the other's.
- Syzygies from the S-pair relations alone: on the corpus Jacobians and
  braid A3, Coxeter B3 and D4, whole and cut to their fields, each row of
  the tracked run is a row of the reference stream in conftest.py, which
  also forms one division row per generator, and the rows generate every
  reference row, by each pause those of its degree.
- Exact division, the reduction of the dividend by the divisor alone: a
  zero dividend, a divisor with a negative lead coefficient, a first
  quotient coefficient that is no integer multiple of the divisor's
  primitive lead and a nonzero remainder give their answers, and the
  packed determinant of B4's Saito matrix divided by f is the unit of
  its basis.
- Bracket coordinates: the coordinates of each bracket in the Q-span of
  the fields, found by a kernel, are its structure constants b / u by
  Cramer's rule when those are all rational, and there are none when
  one is not, on the corpus bases, braid A3, B3, D4 and B4 and the curve
  x^3 + y^2 + x^2 y^2, whose basis has a nonconstant unit; the
  connection conditions hold exactly when every b / u is rational. On a
  basis of f = x, the bracket x d/dy of x d/dx and (1 + x) d/dy has only
  terms of the fields and still no rational coordinates.
- Structure constants and the kernel's pivot against their references
  in conftest.py: the constants read from the bracket coordinates, and
  divided by Cramer's rule only for the other brackets, equal those of
  Cramer's rule on every bracket, on the corpus, frontier and two bases
  of nonconstant unit, with the adjugate built only when a bracket needs
  it; coxeter-B4's ker d1 under the counted pivot equals its kernel under
  the smallest-key rule.
- Coefficient types: on every corpus entry, each coefficient of f, of the
  Saito fields and the unit, and of the deformed equations is an int or a
  Fraction, never a float or a bool, and an int whenever its value is an
  integer, as the parser, the constructors and the packed form's
  _unflatten form them; the text of each polynomial reads back to it.
"""

import json
import os
import random
import time
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from ce_oracle import cohomology, ft1_equation_side
from conftest import (ENGINE_PINS, REFERENCE_PINS, ReferenceConstants,
                      assert_relations_generate_the_reference,
                      assert_syzygies, corpus_member, corpus_names,
                      coxeter_gens, cramer_structure_constants,
                      frontier_member, frontier_names, full_reduction,
                      packed_div, pinned_engine_run, reference_certificate,
                      reference_d0_rows, reference_d1_rows,
                      reference_representatives, reference_saito_fields,
                      smallest_key_kernel, strip_timings, transpose,
                      without_chain_criterion)
from logdiv import cohomology as slices
from logdiv import groebner
from logdiv.classify import (LieAlgebra, connection_conditions, is_koszul,
                             is_linear, is_reductive, lie_algebra_matrices,
                             principal_symbols)
from logdiv.cli import StageFailure, analyze_document, load_document
from logdiv.cohomology import ft1, lft1, linear_basis
from logdiv.errors import (Budget, NotLinear,
                           NotWeightedHomogeneous, current_budget)
from logdiv import logder
from logdiv.logder import (SaitoBasis, VectorField, _jacobian, _line_points,
                           _on_line, compute_der_log, find_saito_basis,
                           is_squarefree, saito_basis, structure_constants,
                           verify_saito)
from logdiv.poly import (Polynomial, _flatten, _Packing, detect_weight_system,
                         partial_derivative, poly_from_text, poly_to_text)


def residual(v, echelon):
    """v minus its projection along echelon rows, each (pivot, row) with
    row[pivot] = 1 and zero at the pivots of the rows before it."""
    v = list(map(Fraction, v))
    for pivot, row in echelon:
        if v[pivot]:
            c = v[pivot]
            v = [a - c * b for a, b in zip(v, row)]
    return v


def echelon(vectors):
    """An echelon basis of the span of vectors; its length is their rank."""
    rows = []
    for v in vectors:
        v = residual(v, rows)
        pivot = next((i for i, a in enumerate(v) if a), None)
        if pivot is not None:
            rows.append((pivot, [a / v[pivot] for a in v]))
    return rows


def characteristic_polynomial(normals, n):
    """Coefficients of chi(t) = sum over flats X of mu(X) t^(n - rank X),
    highest power first, from the lattice of flats: each flat is the set
    of hyperplanes containing it, and mu(X) = -sum of mu over the flats
    strictly inside X."""
    flats = {frozenset(): 0}  # flat -> rank
    frontier = [frozenset()]
    while frontier:
        grown = set()
        for flat in frontier:
            covered = set(flat)  # h in a flat already grown from this one
            for h in range(len(normals)):
                if h in covered:
                    continue
                span = echelon([normals[k] for k in flat] + [normals[h]])
                r = len(span)
                closed = frozenset(k for k, v in enumerate(normals)
                                   if not any(residual(v, span)))
                covered |= closed
                if closed not in flats:
                    flats[closed] = r
                    grown.add(closed)
        frontier = list(grown)
    mu = {}
    for flat in sorted(flats, key=lambda x: flats[x]):
        mu[flat] = 1 if not flat else -sum(
            m for y, m in mu.items() if y < flat)
    coeffs = [0] * (n + 1)
    for flat, r in flats.items():
        coeffs[r] += mu[flat]
    return coeffs


def poly_product(roots):
    """Coefficients of prod (t - d), highest power first."""
    coeffs = [1]
    for d in roots:
        coeffs = [a - d * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def unit(n, i):
    return [int(k == i) for k in range(n)]


def arrangement(name):
    """(number of variables, hyperplane normals) of a Coxeter arrangement."""
    n = {"braid-A3": 4, "coxeter-B3": 3, "coxeter-D4": 4, "coxeter-B4": 4}[name]
    pairs = list(combinations(range(n), 2))
    minus = [[a - b for a, b in zip(unit(n, i), unit(n, j))] for i, j in pairs]
    plus = [[a + b for a, b in zip(unit(n, i), unit(n, j))] for i, j in pairs]
    if name == "braid-A3":
        return n, minus
    if name == "coxeter-D4":
        return n, minus + plus
    return n, [unit(n, i) for i in range(n)] + minus + plus


def linear_form(normal):
    return "".join(f"{'-' if a < 0 else '+'}{abs(a)}*x{i + 1}"
                   for i, a in enumerate(normal) if a).lstrip("+")


@pytest.mark.parametrize("name, weights", [
    ("braid-A3", [-1, 0, 1, 2]),
    ("coxeter-B3", [0, 2, 4]),
    ("coxeter-D4", [0, 2, 2, 4]),
    ("coxeter-B4", [0, 2, 4, 6]),
])
def test_terao_exponents(name, weights):
    n, normals = arrangement(name)
    doc = {"label": name, "variables": [f"x{i + 1}" for i in range(n)],
           "f": "*".join(f"({linear_form(v)})" for v in normals)}
    profile = analyze_document(doc, ("classify", "koszul"))["profile"]
    assert profile["free"] is True
    assert profile["koszul"] is True
    assert profile["linear"] is False
    assert sorted(profile["field_weights"]) == weights
    assert characteristic_polynomial(normals, n) \
        == poly_product([w + 1 for w in weights])


def test_characteristic_polynomial_of_a_non_free_arrangement():
    # xyz(x + y + z) is generic, not free: chi(t) = (t - 1)(t^2 - 3t + 3)
    # has no integer roots, so no exponents could factor it
    normals = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    assert characteristic_polynomial(normals, 3) == [1, -4, 6, -3]


BINARY_CUBICS = ("b^2*c^2 - 4*a*c^3 - 4*b^3*d + 18*a*b*c*d - 27*a^2*d^2",
                 ("a", "b", "c", "d"))
# three vectors (x_i, y_i) in Q^2 at the arms of the D4 star quiver
STAR_QUIVER = ("(x1*y2 - x2*y1)*(x1*y3 - x3*y1)*(x2*y3 - x3*y2)",
               ("x1", "y1", "x2", "y2", "x3", "y3"))
# the symmetric matrix [[a, b, c], [b, d, e], [c, e, g]]
BOREL_SYMMETRIC = ("a*(a*d - b^2)*(a*d*g + 2*b*c*e - a*e^2 - b^2*g - c^2*d)",
                   ("a", "b", "c", "d", "e", "g"))


@pytest.mark.parametrize("f, ring, reductive", [
    (*BINARY_CUBICS, True),
    (*STAR_QUIVER, True),
    (*BOREL_SYMMETRIC, False),
], ids=["binary-cubics", "star-quiver", "borel-symmetric"])
def test_vanishing_theorem(f, ring, reductive):
    f = poly_from_text(f, ring)
    saito, _ = linear_basis(f)
    assert is_linear(saito)
    assert is_reductive(lie_algebra_matrices(saito)) is reductive
    rows = [[poly_to_text(p) for p in row] for row in saito.matrix()]
    dim = lft1(f, saito=saito).dimension
    assert dim == cohomology(rows, ring, 1)
    if reductive:
        assert dim == 0


CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "corpus")


def graded_goldens():
    out = []
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".expected.json"):
            continue
        with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
            golden = json.load(fh)
        if golden["profile"]["weights"] is not None:
            out.append((name[:-len(".expected.json")], golden))
    return out


@pytest.mark.parametrize("name, golden", graded_goldens(),
                         ids=[name for name, _ in graded_goldens()])
def test_ft1_equation_side_oracle(name, golden):
    with open(os.path.join(CORPUS, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    profile = golden["profile"]
    assert profile["variables"] == doc["variables"]
    assert ft1_equation_side(doc["f"], profile["saito_matrix"], doc["variables"],
                             profile["weights"]) == golden["ft1"]["dimension"]


def rigid_arrangement(name):
    """(f, w, graded Saito basis) of a Coxeter arrangement."""
    n, normals = arrangement(name)
    f = poly_from_text("*".join(f"({linear_form(v)})" for v in normals),
                       tuple(f"x{i + 1}" for i in range(n)))
    w = detect_weight_system(f)
    return f, w, saito_basis(f, w)


@pytest.mark.parametrize("name", ["braid-A3", "coxeter-B3", "coxeter-D4"])
def test_ft1_of_rigid_arrangements(name):
    f, w, saito = rigid_arrangement(name)
    assert ft1(f, saito=saito, w=w).dimension == 0
    assert reference_representatives(saito, w) == []
    rows = [[poly_to_text(p) for p in row] for row in saito.matrix()]
    assert ft1_equation_side(poly_to_text(f), rows, list(f.ring),
                             list(w.weights)) == 0


def texts(polys):
    return [poly_to_text(p) for p in polys]


def graded_bases(f, w, saito):
    """(basis, grading) of each ft1 and lft1 report of f."""
    out = [] if w is None else [(saito, w)]
    try:
        out.append(linear_basis(f, saito))
    except NotLinear:
        pass
    return out


@pytest.mark.parametrize("name", corpus_names())
def test_representatives_match_the_reference(name):
    f, w, saito = corpus_member(name)
    cases = graded_bases(f, w, saito)
    if not cases:  # four-lines-nonkoszul: ft1 and lft1 both refuse
        with pytest.raises(NotWeightedHomogeneous):
            ft1(f, saito=saito)
    for basis, grading in cases:
        assert texts(ft1(f, saito=basis, w=grading).deformed_equations) \
            == texts(reference_representatives(basis, grading))


@pytest.mark.parametrize("name", corpus_names())
def test_integral_coefficients_are_ints(name):
    f, w, saito = corpus_member(name)
    polys = [f, saito.unit]
    for basis, grading in [(saito, None), *graded_bases(f, w, saito)]:
        polys += [p for d in basis.fields for p in d.components]
        if grading is not None:
            polys += [p for d in basis.graded(grading).fields
                      for p in d.components]
            polys += ft1(f, saito=basis, w=grading).deformed_equations
    for p in polys:
        for c in p.terms.values():
            assert type(c) in (int, Fraction), (name, poly_to_text(p))
            assert type(c) is int or c.denominator != 1, \
                (name, poly_to_text(p))
        assert poly_from_text(poly_to_text(p), p.ring) == p


@pytest.mark.parametrize("name, h1", [
    ("lines-5", 2), ("lines-6", 3), ("quartic-cross", 1),
    ("linear-nonreductive-5", 1)])
def test_kernel_vector_picks_match_the_reference(name, h1, monkeypatch):
    # with no monomial to scan, every representative is the equation of a
    # kernel vector: those of ft1's kept vectors are the ones the
    # reference picks from all of ker d1
    class_space = slices._class_space

    def unscanned(f, w):
        space = class_space(f, w)
        space.ambient = []
        return space

    monkeypatch.setattr(slices, "_class_space", unscanned)
    f, w, saito = corpus_member(name)
    equations = ft1(f, saito=saito, w=w).deformed_equations
    assert len(equations) == h1
    assert texts(equations) == texts(reference_representatives(saito, w))


@pytest.mark.parametrize("name", [name for name, _ in graded_goldens()]
                         + ["braid-A3", "coxeter-B3", "coxeter-D4"])
def test_rows_match_the_pair_by_pair_reference(name):
    # d0 and d1 read each bracket from the complex's memo and visit only
    # the blocks a column touches; their columns are those of the
    # reference rows, transposed, that form every block of every column
    # afresh, on the ft1 complex
    # and, for a linear free divisor, the lft1 complex
    if name.startswith(("braid", "coxeter")):
        _, w, saito = rigid_arrangement(name)
        cases = [(saito, w)]
    else:
        cases = graded_bases(*corpus_member(name))
    for basis, grading in cases:
        basis = basis.graded(grading)
        cx = slices.SliceComplex(basis, basis.structure_constants(), grading)
        assert cx.d0 == transpose(reference_d0_rows(cx), cx.dim_c0)
        assert cx.d1 == transpose(reference_d1_rows(cx), cx.dim_c1)


def killing_by_traces(dim, table):
    """tr(ad e_i . ad e_j) over Fraction: each ad as a dense matrix from
    the table, multiplied out, then traced."""
    def ad(i):
        m = [[Fraction(0)] * dim for _ in range(dim)]
        for j in range(dim):
            if i != j:
                v = table[(i, j)] if i < j else [-x for x in table[(j, i)]]
                for k in range(dim):
                    m[k][j] = Fraction(v[k])
        return m

    ads = [ad(i) for i in range(dim)]
    return [[sum(ads[i][p][q] * ads[j][q][p]
                 for p in range(dim) for q in range(dim))
             for j in range(dim)] for i in range(dim)]


LIE_ALGEBRAS = {
    # name: (dim, bracket table, reductive, (radical, center) dimensions)
    "sl2": (3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]},
            True, (0, 0)),
    # sl2 in the basis (h/3, e/2, f): denominators 2 and 3, D = 6
    "sl2-scaled": (3, {(0, 1): [0, Fraction(2, 3), 0],
                       (0, 2): [0, 0, Fraction(-2, 3)],
                       (1, 2): [Fraction(3, 2), 0, 0]}, True, (0, 0)),
    # gl2 in the basis (E11, E12, E21, E22): radical = center = the scalars
    "gl2": (4, {(0, 1): [0, 1, 0, 0], (0, 2): [0, 0, -1, 0],
                (0, 3): [0, 0, 0, 0], (1, 2): [1, 0, 0, -1],
                (1, 3): [0, 1, 0, 0], (2, 3): [0, 0, -1, 0]}, True, (1, 1)),
    # the Borel b2 in the basis (E11, E12, E22), solvable: its radical is
    # all of it, its center the scalars
    "borel-b2": (3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, 0],
                     (1, 2): [0, 1, 0]}, False, (3, 1)),
    # [x, y] = z: nilpotent, its center the line of z
    "heisenberg": (3, {(0, 1): [0, 0, 1], (0, 2): [0, 0, 0],
                       (1, 2): [0, 0, 0]}, False, (3, 1)),
    "abelian-3": (3, {(0, 1): [0, 0, 0], (0, 2): [0, 0, 0],
                      (1, 2): [0, 0, 0]}, True, (3, 3)),
}


@pytest.mark.parametrize("name", sorted(LIE_ALGEBRAS))
def test_killing_form_and_reductivity(name):
    # the Killing form is formed on the table scaled to ints by D, the
    # lcm of its denominators: it is D^2 times the trace form
    dim, table, reductive, dims = LIE_ALGEBRAS[name]
    g = LieAlgebra(dim, table)
    d = lcm(*(Fraction(x).denominator for v in table.values() for x in v))
    assert g.killing_form() == [[d * d * x for x in row]
                                for row in killing_by_traces(dim, table)]
    assert all(type(x) is int for row in g.killing_form() for x in row)
    assert (g.radical_dimension(), g.center_dimension()) == dims
    assert is_reductive(g) is reductive


@pytest.mark.parametrize("dim, table", [
    (0, {}), (1, {}), (2, {(0, 1): [0, 0]})], ids=["zero", "abelian-1",
                                                   "abelian-2"])
def test_abelian_centre_and_radical_are_everything(dim, table):
    # no ad row at all (dimension 0), no bracket row (dimension 1) or
    # only zero rows: ranks 0, so centre and radical are the whole algebra
    g = LieAlgebra(dim, table)
    assert g.killing_form() == [[0] * dim for _ in range(dim)]
    assert (g.radical_dimension(), g.center_dimension()) == (dim, dim)


def test_killing_form_of_sl2():
    assert LieAlgebra(3, LIE_ALGEBRAS["sl2"][1]).killing_form() \
        == [[8, 0, 0], [0, 0, 4], [0, 4, 0]]
    # K(h/3, h/3) = 8/9 and K(e/2, f) = 2, times D^2 = 36
    assert LieAlgebra(3, LIE_ALGEBRAS["sl2-scaled"][1]).killing_form() \
        == [[32, 0, 0], [0, 0, 72], [0, 72, 0]]


def run_to_the_end(gens):
    """(leads of the signature-based run, leads of buchberger's reduced
    basis, the packing of both)."""
    _, _, lay, flats = groebner._prepare(gens)
    with Budget(10**8) as budget:
        leads = list(groebner._signature_leads(flats, budget, lay))
        reduced = groebner.buchberger(gens)._leads
    return leads, reduced, lay


def assert_same_initial_ideal(gens):
    leads, reduced, lay = run_to_the_end(gens)
    assert all(any(lay.divides(ld, r) for ld in leads) for r in reduced)
    assert all(any(lay.divides(r, ld) for r in reduced) for ld in leads)


def random_ideal(rng, homogeneous):
    """Two to five polynomials in 3 to 5 variables with small integer
    coefficients, each of one degree when homogeneous is set."""
    n = rng.randint(3, 5)
    ring = tuple(f"v{i}" for i in range(n))
    gens = []
    for _ in range(rng.randint(2, 5)):
        degree, terms = rng.randint(1, 3), {}
        for _ in range(rng.randint(1, 4)):
            if homogeneous:
                e = [0] * n
                for _ in range(degree):
                    e[rng.randrange(n)] += 1
            else:
                e = [rng.randint(0, 2) for _ in range(n)]
            terms[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, 3])
        gens.append(Polynomial(ring, terms))
    return gens


@pytest.mark.parametrize("homogeneous", [True, False],
                         ids=["homogeneous", "inhomogeneous"])
def test_signature_run_is_complete_on_random_ideals(homogeneous):
    rng = random.Random(2402 + homogeneous)
    for _ in range(60):
        assert_same_initial_ideal(random_ideal(rng, homogeneous))


def koszul_saito(name):
    if name in ("discriminant-234", "four-lines-nonkoszul"):
        return corpus_member(name)[2]
    return rigid_arrangement(name)[2]


@pytest.mark.parametrize("name", ["braid-A3", "coxeter-B3", "coxeter-D4",
                                  "coxeter-B4", "discriminant-234"])
def test_signature_run_is_complete_on_symbol_ideals(name):
    assert_same_initial_ideal(principal_symbols(koszul_saito(name)))


@pytest.mark.parametrize("name, koszul, steps", [
    ("braid-A3", True, None), ("coxeter-B3", True, None),
    ("coxeter-D4", True, 120), ("coxeter-B4", True, 129),
    ("four-lines-nonkoszul", False, None)])
def test_koszul_known_answers(name, koszul, steps, monkeypatch):
    # steps are the signature-based run's, which for D4 and B4 were 744
    # and 2846 in a Buchberger run with the pair criteria alone; the
    # independent-set search charges its nodes on top of them
    nodes = {"coxeter-D4": 78, "coxeter-B4": 45}
    saito = koszul_saito(name)
    _, searches = watched_certificates(monkeypatch)
    with Budget(10**9) as budget:
        assert is_koszul(saito) is koszul
    if steps is not None:
        spent = sum(charge for _, charge in searches)
        assert (spent, budget.steps - budget.left) \
            == (nodes[name], steps + nodes[name])


def watched_certificates(monkeypatch):
    """Two lists that get, from now on, [leads read, k, lay, answer] for
    each call of groebner._certify and (leads read so far, steps charged)
    for each call of the independent-set search that it makes."""
    tests, searches = [], []
    certify, search = groebner._certify, groebner._independent_set

    def reading(leads, k, lay, budget):
        read = []
        tests.append([read, k, lay, None])
        tests[-1][3] = certify((read.append(ld) or ld for ld in leads),
                               k, lay, budget)
        return tests[-1][3]

    def counting(sups, n, size, budget):
        left = budget.left
        try:
            return search(sups, n, size, budget)
        finally:
            searches.append((len(tests[-1][0]), left - budget.left))

    monkeypatch.setattr(groebner, "_certify", reading)
    monkeypatch.setattr(groebner, "_independent_set", counting)
    return tests, searches


def test_normal_crossings_certify_at_the_root(monkeypatch):
    # the symbols x_i * s_i of x_1 * ... * x_12 have 12 pairwise disjoint
    # supports {x_i, s_i}: at the 12th lead, the disjoint-support bound
    # leaves 24 - 12 of the 13 variables a witness needs, and the search
    # stops at its root
    ring = tuple(f"x{i + 1}" for i in range(12))
    f = poly_from_text("*".join(ring), ring)
    fields = [VectorField(ring, [Polynomial.variable(ring, i) if k == i
                                 else Polynomial.zero(ring)
                                 for k in range(12)]) for i in range(12)]
    saito = SaitoBasis(fields, f, verify_saito(fields, f).unit)
    _, searches = watched_certificates(monkeypatch)
    assert is_koszul(saito)
    assert searches[-1] == (12, 1)
    assert sum(charge for at, charge in searches if at >= 12) <= 1


def certificate(leads, k, lay):
    """(answer, leads read) of groebner._certify on the list leads."""
    rest = iter(leads)
    with Budget(10**9) as budget:
        answer = groebner._certify(rest, k, lay, budget)
    return answer, len(leads) - len(list(rest))


def analysis_docs():
    """The corpus documents and the six arrangements of the benchmark:
    braid A3 in four variables, Coxeter B3, D4 and B4, and the generic
    arrangements of four and five planes, which are not free."""
    docs = [load_document(os.path.join(CORPUS, f"{name}.json"))
            for name in corpus_names()]
    for name in ("braid-A3", "coxeter-B3", "coxeter-D4", "coxeter-B4"):
        n, normals = arrangement(name)
        docs.append({"label": name,
                     "variables": [f"x{i + 1}" for i in range(n)],
                     "f": "*".join(f"({linear_form(v)})" for v in normals)})
    for f in ("x*y*z*(x+y+z)", "x*y*z*(x+y+z)*(x+2*y+3*z)"):
        docs.append({"label": f, "variables": ["x", "y", "z"], "f": f})
    return docs


@pytest.mark.parametrize("doc", analysis_docs(), ids=lambda doc: doc["label"])
def test_certificate_matches_the_subset_filter_on_the_analyses(doc,
                                                               monkeypatch):
    # every dimension test of the default analysis (the divisor stage's
    # squarefree test and the Koszul test) stops at the lead where the
    # subset filter of conftest.py stops, with its answer; every line of
    # the squarefree test is made inconclusive, so that its dimension
    # test runs, as it runs on a non-reduced f
    tests, _ = watched_certificates(monkeypatch)
    monkeypatch.setattr(logder, "_on_line", lambda f, a, b: False)
    try:
        analyze_document(doc, ("classify", "koszul"))
    except StageFailure as e:
        assert doc["label"].startswith("x*y*z") and e.stage == "basis"
    assert tests
    for read, k, lay, answer in tests:
        assert reference_certificate(read, k, lay) == (answer, len(read))


def non_reduced_docs():
    """Products with a square factor: Coxeter B4 times x1, D4 and braid
    A3 times x1 - x2, (y^2 + x z)^2 z and (x^5 - y^4)^2."""
    arrangements = {doc["label"]: doc for doc in analysis_docs()}
    docs = [dict(arrangements[name], label=f"{name}*({factor})",
                 f=f"{arrangements[name]['f']}*({factor})")
            for name, factor in (("coxeter-B4", "x1"), ("coxeter-D4", "x1-x2"),
                                 ("braid-A3", "x1-x2"))]
    docs += [{"label": f, "variables": ring, "f": f}
             for f, ring in (("(y^2+x*z)^2*z", ["x", "y", "z"]),
                             ("(x^5-y^4)^2", ["x", "y"]))]
    return docs


def frontier_docs():
    frontier = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "frontier")
    return [load_document(os.path.join(frontier, name))
            for name in sorted(os.listdir(frontier))
            if name.endswith(".json") and not name.endswith(".expected.json")]


@pytest.mark.parametrize("doc, reduced", [
    *(pytest.param(doc, True, id=doc["label"]) for doc in analysis_docs()),
    *(pytest.param(doc, True, id=f"frontier-{doc['label']}")
      for doc in frontier_docs()),
    *(pytest.param(doc, False, id=doc["label"]) for doc in non_reduced_docs())])
def test_run_read_certificate_agrees_with_is_squarefree(doc, reduced):
    # the certificate read from the leads of the signature-based run,
    # dimension_at_most on the singular locus, against is_squarefree,
    # which answers from its first line on every reduced input here, so
    # none takes the fallback run; on the products with a square factor
    # every line is inconclusive and the run answers
    f = poly_from_text(doc["f"], tuple(doc["variables"]))
    n = len(f.ring)
    gens = [f] + [partial_derivative(f, i) for i in range(n)]
    lines = on_lines(f)
    assert groebner.dimension_at_most(gens, n - 2) is is_squarefree(f) \
        is reduced
    assert lines == [True] * 3 if reduced else lines == [False] * 3


def on_lines(f):
    """The answer of each line that is_squarefree tries on f."""
    return [_on_line(f, a, b) for a, b in _line_points(len(f.ring))]


@pytest.mark.parametrize("f, ring", [
    ("(x1-x2)^2*x3*(x1+x3)", ("x1", "x2", "x3")),
    ("(y^2+x*z)^2*z", ("x", "y", "z")),
    ("(x^5-y^4)^2", ("x", "y")),
    ("x^2", ("x",))])
def test_no_line_certifies_a_square(f, ring):
    f = poly_from_text(f, ring)
    assert on_lines(f) == [False] * 3
    assert not is_squarefree(f)


def test_no_line_certifies_a_square_times_anything():
    # f = g^2 h with deg g >= 1: by Gauss's lemma every line keeps the
    # square factor mod p, so none answers True. A hypothesis property,
    # skipped where only the runtime and pytest are installed
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def small_polys(n):
        return st.dictionaries(st.tuples(*[st.integers(0, 2)] * n),
                               st.integers(-5, 5).filter(bool), min_size=1,
                               max_size=3)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(small_polys(n), small_polys(n))))
    def no_line_certifies(gh):
        ring = tuple(f"x{i}" for i in range(len(next(iter(gh[0])))))
        g, h = (Polynomial(ring, terms) for terms in gh)
        hypothesis.assume(not g.is_constant())
        assert on_lines(g * g * h) == [False] * 3

    no_line_certifies()


@pytest.mark.parametrize("doc", analysis_docs() + non_reduced_docs(),
                         ids=lambda doc: doc["label"])
def test_reports_are_the_same_with_every_line_inconclusive(doc, monkeypatch):
    # is_squarefree's fallback, the signature-based run, decides alone
    def outcome():
        try:
            return strip_timings(analyze_document(doc, ("classify",
                                                         "koszul")))
        except StageFailure as e:
            return (e.code, e.stage, e.message, strip_timings(e.report))

    by_line = outcome()
    monkeypatch.setattr(logder, "_on_line", lambda f, a, b: False)
    assert outcome() == by_line


@pytest.mark.parametrize("doc", non_reduced_docs(),
                         ids=lambda doc: doc["label"])
def test_non_reduced_products_exit_3_at_the_divisor_stage(doc):
    # no line certifies f, and the signature-based run is read to its
    # end, as no lead certifies: within 0.2 s
    start = time.perf_counter()
    with pytest.raises(StageFailure) as failure:
        analyze_document(doc, ("classify", "koszul"))
    elapsed = time.perf_counter() - start
    e = failure.value
    assert (e.code, e.stage, e.message) == (3, "divisor", "f is not squarefree")
    assert elapsed < 0.2


@pytest.mark.parametrize("homogeneous", [True, False],
                         ids=["homogeneous", "inhomogeneous"])
def test_certificate_matches_the_subset_filter_on_random_ideals(homogeneous):
    rng = random.Random(2402 + homogeneous)
    for _ in range(60):
        _, _, lay, flats = groebner._prepare(random_ideal(rng, homogeneous))
        with Budget(10**8) as budget:
            leads = list(groebner._signature_leads(flats, budget, lay))
        for k in range(-1, lay.n + 1):
            assert certificate(leads, k, lay) \
                == reference_certificate(leads, k, lay)


def test_certificate_edge_cases():
    lay = _Packing(3)
    one, x, y = (lay.pack(0, e) for e in ((0, 0, 0), (1, 0, 0), (0, 1, 0)))
    cases = [
        ([one], -1, (True, 1)), ([x, one], 0, (True, 2)),  # the unit ideal
        ([x, y], 3, (True, 0)), ([], 5, (True, 0)),  # k + 1 > n
        ([x, y], -1, (False, 2)),  # k = -1: only a unit certifies
        ([], -1, (False, 0)), ([], 2, (False, 0)),  # the zero ideal
        ([x, y], 1, (True, 2)), ([x], 2, (True, 1)), ([x], 1, (False, 1))]
    for leads, k, expected in cases:
        assert certificate(leads, k, lay) == expected
        assert reference_certificate(leads, k, lay) == expected


def test_disjoint_supports_are_coprime_leads():
    # the J-pair skip of the signature-based run: two terms of one
    # component have disjoint supports exactly when their lcm is their
    # product, with exponents up to the largest a field holds
    rng = random.Random(2903)
    for n in (1, 2, 3, 5, 8):
        lay = _Packing(n)
        big = lay.top // n
        for _ in range(400):
            a, b = (lay.pack(0, [rng.choice((0, 0, 1, 2, big,
                                             rng.randint(0, big)))
                                 for _ in range(n)]) for _ in range(2))
            sa, sb = groebner._support(a, lay), groebner._support(b, lay)
            assert (not sa & sb) == (lay.lcm(a, b) == a + b)


def syzygy_route(name):
    """True when the corpus entry supplies no Saito matrix, so that its
    basis is searched among the syzygy fields."""
    with open(os.path.join(CORPUS, f"{name}.json"), encoding="utf-8") as fh:
        return "saito_matrix" not in json.load(fh)


@pytest.mark.parametrize("name", [n for n in corpus_names() if syzygy_route(n)]
                         + ["braid-A3", "coxeter-B3", "coxeter-D4",
                            "coxeter-B4"])
def test_saito_basis_search_keeps_the_reference_fields(name):
    # the search reduces and echelons the weight parts on packed terms; the
    # reference does both over VectorFields, with Polynomial-level
    # buchberger and normal_form and a dense Fraction elimination
    if name.startswith(("braid", "coxeter")):
        f, w, _ = rigid_arrangement(name)
    else:
        f, w, _ = corpus_member(name)
    reference = reference_saito_fields(f, w)
    assert reference is not None
    for basis in (saito_basis(f, w), find_saito_basis(compute_der_log(f), f, w)):
        assert basis.fields == reference
        assert verify_saito(basis.fields, f)


@pytest.mark.parametrize("name", ["nc-2", "nc-3", "nc-4"])
def test_normal_crossings_basis_is_diagonal(name):
    # f = x_1 ... x_n. A field of weight t has coefficients a_i of degree
    # t + 1, and delta(f) / f = sum_i a_i / x_i is a polynomial exactly
    # when x_i divides a_i; so no field has weight < 0, and the weight-0
    # piece is the Q-span of the x_i d/dx_i, which generate Der(-log f).
    # These monomial fields are their own reduced echelon basis, leads
    # ordered d/dx_1 first, pivots 1: the matrix is diag(x_1, ..., x_n),
    # its determinant f, its unit 1
    f, w, _ = corpus_member(name)
    n = len(f.ring)
    for basis in (saito_basis(f, w), find_saito_basis(compute_der_log(f), f, w)):
        assert [[poly_to_text(p) for p in row] for row in basis.matrix()] \
            == [[x if i == j else "0" for j in range(n)]
                for i, x in enumerate(f.ring)]
        assert basis.unit == Polynomial.one(f.ring)


# Other free bases of the modules below: the ones a greedy scan of the
# weight parts kept before the basis became a canonical form (the stored
# reports of the corpus held them), entry (i, j) the d/dx_i coefficient
# of field j
GREEDY_BASES = {
    "curve-x5y4": [["-1/5*x", "1/5*y^3"], ["-1/4*y", "-1/4*x^4"]],
    "discriminant-234": [
        ["-1/12*x", "1/12*y", "-1/36*x^2 - 1/3*z"],
        ["-1/8*y", "-1/36*x^2 + 1/9*z", "0"],
        ["-1/6*z", "-1/72*x*y", "1/16*y^2 - 2/9*x*z"]],
    "line-1": [["-1", "-y"], ["1", "-x"]],
    "lines-2": [["1/2*y", "-1/2*x"], ["1/2*x", "-1/2*y"]],
    "lines-3": [["-x", "-2*x^2 - 2*x*y"], ["-y", "0"]],
    "lines-5": [["-x", "-1/4*x^4 - 1/2*x^3*y + 1/4*x^2*y^2 + 1/2*x*y^3"],
                ["-y", "0"]],
    "lines-6": [["-x", "-35/288*x^5 + 175/288*x^3*y^2 - 35/72*x*y^4"],
                ["-y", "0"]],
    "nc-2": [["0", "-x"], ["-y", "0"]],
    "nc-3": [["0", "0", "-x"], ["0", "-y", "0"], ["-z", "0", "0"]],
    "nc-4": [["0", "0", "0", "-x"], ["0", "0", "-y", "0"],
             ["0", "-z", "0", "0"], ["-w", "0", "0", "0"]],
    "quartic-cross": [["-x", "-1/2*x^3 + 1/2*x*y^2"], ["-y", "0"]],
    "braid-A3": [
        ["1", "-x1 + x3 + x4", "-2*x1^2 + 2*x1*x3 + 2*x1*x4 - 2*x3*x4",
         "-3*x1^3 + x1^2*x2 + 2*x1^2*x3 - x1*x2*x3 + 2*x1*x3^2 - x3^3"
         " + 2*x1^2*x4 - x1*x2*x4 + x2*x3*x4 - 2*x3^2*x4 + 2*x1*x4^2"
         " - 2*x3*x4^2 - x4^3"],
        ["1", "-x2 + x3 + x4", "-2*x2^2 + 2*x2*x3 + 2*x2*x4 - 2*x3*x4",
         "-2*x2^3 + x2^2*x3 + 2*x2*x3^2 - x3^3 + x2^2*x4 + x2*x3*x4"
         " - 2*x3^2*x4 + 2*x2*x4^2 - 2*x3*x4^2 - x4^3"],
        ["1", "x4", "0", "-x4^3"],
        ["1", "x3", "0", "-x3^3"]],
    "coxeter-B3": [
        ["-x1", "1/3*x1^3 - 1/3*x1*x3^2",
         "-5/6*x1^5 + 7/6*x1^3*x2^2 + 7/6*x1^3*x3^2 - 7/6*x1*x2^2*x3^2"
         " - 1/3*x1*x3^4"],
        ["-x2", "1/3*x2^3 - 1/3*x2*x3^2", "1/3*x2^5 - 1/3*x2*x3^4"],
        ["-x3", "0", "0"]],
    "coxeter-D4": [
        ["-1/2*x1", "1/6*x2*x3*x4", "1/4*x1^3 - 1/4*x1*x3^2",
         "-1/2*x1^5 + 5/6*x1^3*x2^2 + 2/3*x1^3*x3^2 - 5/6*x1*x2^2*x3^2"
         " - 1/6*x1*x3^4 - 1/6*x1^3*x4^2 + 1/6*x1*x3^2*x4^2"],
        ["-1/2*x2", "1/6*x1*x3*x4", "1/4*x2^3 - 1/4*x2*x3^2",
         "1/3*x2^5 - 1/6*x2^3*x3^2 - 1/6*x2*x3^4 - 1/6*x2^3*x4^2"
         " + 1/6*x2*x3^2*x4^2"],
        ["-1/2*x3", "1/6*x1*x2*x4", "0", "0"],
        ["-1/2*x4", "1/6*x1*x2*x3", "-1/4*x3^2*x4 + 1/4*x4^3",
         "-5/6*x2^2*x3^2*x4 - 1/6*x3^4*x4 + 5/6*x2^2*x4^3 + 5/6*x3^2*x4^3"
         " - 2/3*x4^5"]],
    "coxeter-B4": [
        ["-x1", "1/3*x1^3 - 1/3*x1*x4^2",
         "-1/2*x1^5 + 4/5*x1^3*x3^2 + 3/5*x1^3*x4^2 - 4/5*x1*x3^2*x4^2"
         " - 1/10*x1*x4^4",
         "-1/2*x1^7 + 1/2*x1^5*x2^2 + 1/2*x1^5*x3^2 - 1/2*x1^3*x2^2*x3^2"
         " + 1/2*x1^3*x3^4 + 1/2*x1^5*x4^2 - 1/2*x1^3*x2^2*x4^2"
         " + 1/2*x1*x2^2*x3^2*x4^2 - 1/2*x1*x3^4*x4^2 + 1/2*x1^3*x4^4"
         " - 1/2*x1*x3^2*x4^4 - 1/2*x1*x4^6"],
        ["-x2", "1/3*x2^3 - 1/3*x2*x4^2",
         "-1/2*x2^5 + 4/5*x2^3*x3^2 + 3/5*x2^3*x4^2 - 4/5*x2*x3^2*x4^2"
         " - 1/10*x2*x4^4",
         "1/2*x2^3*x3^4 + 1/2*x2^3*x3^2*x4^2 - 1/2*x2*x3^4*x4^2"
         " + 1/2*x2^3*x4^4 - 1/2*x2*x3^2*x4^4 - 1/2*x2*x4^6"],
        ["-x3", "1/3*x3^3 - 1/3*x3*x4^2",
         "3/10*x3^5 - 1/5*x3^3*x4^2 - 1/10*x3*x4^4",
         "1/2*x3^7 - 1/2*x3*x4^6"],
        ["-x4", "0", "0", "0"]],
}


def graded_module(name):
    """(f, w, another basis) of a graded corpus entry or an arrangement:
    the basis of GREEDY_BASES, or else the supplied Saito matrix."""
    if name.startswith(("braid", "coxeter")):
        f, w, _ = rigid_arrangement(name)
    else:
        f, w, supplied = corpus_member(name)
        if name not in GREEDY_BASES:
            return f, w, supplied.fields
    rows = [[poly_from_text(t, f.ring) for t in row] for row in GREEDY_BASES[name]]
    return f, w, [VectorField(f.ring, [row[j] for row in rows])
                  for j in range(len(f.ring))]


GRADED_MODULES = [name for name, _ in graded_goldens()] \
    + ["braid-A3", "coxeter-B3", "coxeter-D4", "coxeter-B4"]


@pytest.mark.parametrize("how", ["other-basis", "triangular", "reversed",
                                 "multiples"])
@pytest.mark.parametrize("name", GRADED_MODULES)
def test_saito_basis_is_the_same_from_any_generators(name, how):
    # the basis is a canonical form of the module: another free basis, that
    # basis under a graded automorphism (field j to (j + 2) times itself
    # plus the fields before it of its weight), the generators of
    # compute_der_log in reverse order, and those generators with x_i
    # times each of them all give the fields and the unit of saito_basis
    f, w, other = graded_module(name)
    gens = compute_der_log(f)
    if how == "other-basis":
        assert verify_saito(other, f)
        gens = other
    elif how == "triangular":
        gens = []
        for j, d in enumerate(other):
            comps = [(j + 2) * p for p in d.components]
            for e in other[:j]:
                if e.weight(w) == d.weight(w):
                    comps = [p + q for p, q in zip(comps, e.components)]
            gens.append(VectorField(f.ring, comps))
        assert verify_saito(gens, f)
    elif how == "reversed":
        gens = gens[::-1]
    else:
        xs = [poly_from_text(x, f.ring) for x in f.ring]
        gens = gens + [VectorField(f.ring, [x * p for p in d.components])
                       for d in gens for x in xs]
    canonical = saito_basis(f, w)
    basis = find_saito_basis(gens, f, w)
    assert basis.fields == canonical.fields
    assert basis.unit == canonical.unit


@pytest.mark.parametrize("name", GRADED_MODULES)
def test_one_groebner_basis_per_weight_that_adds_fields(name, monkeypatch):
    # the parts of each weight are reduced modulo one Groebner basis of the
    # fields kept below it, rebuilt only after a weight that added fields;
    # the last weight ends the search, so when every field has one weight
    # no Groebner basis of kept fields is built at all
    from logdiv import logder

    f, w, _ = graded_module(name)
    calls = []
    build = logder._buchberger

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(logder, "_buchberger", counting)
    gens = compute_der_log(f)
    for search in (lambda: saito_basis(f, w),
                   lambda: find_saito_basis(gens, f, w)):
        calls.clear()
        weights = set(search().field_weights(w))
        assert len(calls) <= len(weights) - 1
        if len(weights) == 1:
            assert not calls


def fraction_batches(stream, first):
    """The (s, values) batches of a stream of packed rows, each row's terms
    from the packed term first on as {term - first: Fraction}, the empty
    ones left out."""
    out = []
    for s, rows in stream:
        values = [{t - first: Fraction(a, D) for t, a in P.items()
                   if t >= first} for P, D in rows]
        out.append((s, [v for v in values if v]))
    return out


@pytest.mark.parametrize("name", [name for name, _ in graded_goldens()]
                         + ["four-lines-nonkoszul", "braid-A3", "coxeter-B3",
                            "coxeter-D4"])
def test_der_log_stream_is_the_field_part_of_the_syzygy_stream(name):
    # the field rows that compute_der_log drains and the basis search
    # reads, from the run that represents f by zero
    if name.startswith(("braid", "coxeter")):
        gens = coxeter_gens(name)
    else:
        f = corpus_member(name)[0]
        gens = [f] + [partial_derivative(f, i) for i in range(len(f.ring))]
    f = gens[0]
    unit = _Packing(len(f.ring)).unit
    fields = fraction_batches(groebner._syzygy_stream(*_jacobian(f), 1), 0)
    # the syzygy rows past f's component, moved down one component
    rows = fraction_batches(groebner.syzygy_stream(gens), unit)
    assert fields == rows
    assert all(t < len(f.ring) * unit
               for _, batch in fields for v in batch for t in v)
    assert sum(len(batch) for _, batch in fields) >= len(f.ring)
    if name == "four-lines-nonkoszul":
        assert [s for s, _ in fields] == [None]  # one batch, the whole run


@pytest.mark.parametrize("name", ["braid-A3", "coxeter-B3", "coxeter-D4"])
def test_chain_criterion_rows_generate_the_syzygies(name, monkeypatch):
    # the run that skips pairs by the chain criterion: its rows are
    # syzygies, and every row of the run that reduces every pair lies in
    # the module they generate; a reduction to zero by elements built
    # from those rows is a proof of membership, whatever the run that
    # built them
    gens = coxeter_gens(name)
    rows = groebner.syzygies(gens).elements
    assert_syzygies(rows, gens)
    with monkeypatch.context() as m:
        without_chain_criterion(m)
        every_pair = groebner.syzygies(gens).elements
    assert len(rows) < len(every_pair)
    gb = groebner.buchberger(rows)
    assert gb.rank == len(gens)
    assert all(gb.reduces_to_zero(row) for row in every_pair)


@pytest.mark.parametrize("name", ENGINE_PINS)
def test_top_reduced_engine_against_its_reference(name, monkeypatch):
    # the engine and, under full_reduction, the reference engine, which
    # keeps the values the engine had before its tracked runs top-reduced:
    # the steps and rows pinned for each, and the rows of each in the
    # module that the other's generate
    gens = coxeter_gens(name)
    assert pinned_engine_run(name) == ENGINE_PINS[name]
    rows = groebner.syzygies(gens).elements
    with monkeypatch.context() as m:
        full_reduction(m)
        assert pinned_engine_run(name) == REFERENCE_PINS[name]
        reference = groebner.syzygies(gens).elements
    for some, others in ((rows, reference), (reference, rows)):
        gb = groebner.buchberger(some)
        assert all(gb.reduces_to_zero(row) for row in others)


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("name", corpus_names()
                         + ["braid-A3", "coxeter-B3", "coxeter-D4"])
def test_pair_relations_generate_the_division_rows(name, first):
    # the rows of the tracked run, the relations of the S-pairs that reduce
    # to zero, against the stream that also made one division row per
    # generator: they generate every one of its rows, cut at first as the
    # basis stage cuts them, and at each pause those of its degree
    if name in corpus_names():
        f = corpus_member(name)[0]
        gens = [f] + [partial_derivative(f, i) for i in range(len(f.ring))]
    else:
        gens = coxeter_gens(name)
    assert_relations_generate_the_reference(gens, first)


@pytest.mark.parametrize("name", corpus_names() + [
    "braid-A3", "coxeter-B3", "coxeter-D4", "coxeter-B4", "x^3 + y^2 + x^2*y^2"])
def test_bracket_coordinates_match_cramers_rule(name):
    # a bracket's coordinates in the Q-span of the fields are its
    # structure constants b / u by Cramer's rule when those are all
    # rational numbers, and there are none when one is not; the
    # connection conditions hold exactly when every b / u is rational
    if name.startswith("x"):
        f = poly_from_text(name, ("x", "y"))
        saito = find_saito_basis(compute_der_log(f), f)
        assert not saito.unit.is_constant()
    elif name in corpus_names():
        saito = corpus_member(name)[2]
    else:
        saito = rigid_arrangement(name)[2]
    sc = cramer_structure_constants(saito)
    reference = ReferenceConstants(sc.ring, sc.n, sc.b, sc.denominator)
    for i in range(sc.n):
        for j in range(i + 1, sc.n):
            c = [reference.value(p) for p in sc.b[i][j]]
            assert saito.bracket_coordinates(i, j) == (
                None if None in c else c)
    assert connection_conditions(saito) == (reference.is_constant(),) * 2


def supplied_nonconstant_unit():
    """f = x with the supplied fields x d/dx and (1 + x) d/dy: unit 1 + x."""
    ring = ("x", "y")
    fields = [VectorField(ring, [poly_from_text(a, ring) for a in comps])
              for comps in (("x", "0"), ("0", "1 + x"))]
    f = poly_from_text("x", ring)
    return SaitoBasis(fields, f, verify_saito(fields, f).unit)


def test_bracket_of_field_terms_outside_the_span():
    # f = x with x d/dx and (1 + x) d/dy, unit 1 + x: the bracket x d/dy
    # has only terms the fields have, but its coordinates 0 and
    # x / (1 + x) are not both constants, so its column does not clear
    saito = supplied_nonconstant_unit()
    ring = saito.ring
    sc = structure_constants(saito)
    assert sc.denominator == poly_from_text("1 + x", ring)
    assert sc.b[0][1] == [Polynomial.zero(ring), poly_from_text("x", ring)]
    assert saito.bracket_coordinates(0, 1) is None
    assert connection_conditions(saito) == (False, False)


@pytest.mark.parametrize("name", corpus_names() + frontier_names() + [
    "x^3 + y^2 + x^2*y^2", "supplied unit 1 + x"])
def test_structure_constants_against_cramers_rule(name):
    # with a constant unit, the brackets in the Q-span of the fields take
    # their constants from bracket_coordinates and only the others go
    # through Cramer's rule; under a nonconstant unit every bracket does;
    # b and the denominator equal those of the reference, which divides
    # every bracket, on the corpus bases, their ft1 and lft1 bases, the
    # six frontier arrangements (the benchmark's four free ones among
    # them), the subset search's basis of a curve and a supplied basis,
    # both of nonconstant unit; the adjugate is built exactly when some
    # bracket goes through Cramer's rule
    if name == "supplied unit 1 + x":
        bases = [supplied_nonconstant_unit()]
    elif name.startswith("x"):
        f = poly_from_text(name, ("x", "y"))
        bases = [find_saito_basis(compute_der_log(f), f)]
    else:
        f, w, saito = (corpus_member(name) if name in corpus_names()
                       else frontier_member(name))
        bases = [saito] + [b.graded(g) for b, g in graded_bases(f, w, saito)]
    if name in ("x^3 + y^2 + x^2*y^2", "supplied unit 1 + x"):
        assert not bases[0].unit.is_constant()
    for basis in {id(b): b for b in bases}.values():
        n = len(basis)
        cramer = not basis.unit.is_constant() or any(
            basis.bracket_coordinates(i, j) is None
            for i in range(n) for j in range(i + 1, n))
        sc = structure_constants(basis)
        assert (basis._table is not None
                and basis._table._adj is not None) == cramer
        reference = cramer_structure_constants(basis)
        assert sc.b == reference.b
        assert sc.denominator == reference.denominator


def test_coxeter_b4_kernel_of_d1_against_the_smallest_key_rule():
    # the kernel pivots each kept column at its row key with the fewest
    # columns, not at its smallest; the vectors of ker d1 on B4's ft1
    # complex, one per free column, are those of the smallest-key rule,
    # and they number rank d0 = dim C0 = 15, as B4's ft1 and h0 are 0
    _, w, saito = rigid_arrangement("coxeter-B4")
    cx = slices.SliceComplex(saito, saito.structure_constants(), w)
    assert (cx.dim_c0, cx.dim_c1, cx.dim_c2) == (15, 612, 2419)
    kernel = cx.kernel_d1()
    assert kernel == smallest_key_kernel(cx.d1, cx.dim_c2)
    assert len(kernel) == cx.rank_d0() == 15


@pytest.mark.parametrize("p, d, q", [
    ("0", "x - y", "0"),
    ("x^2 - y^2", "-2*x + 2*y", "-1/2*x - 1/2*y"),
    ("1/3*x^3*y + 1/3*y^4", "-x - y", "-1/3*x^2*y + 1/3*x*y^2 - 1/3*y^3"),
    # x^2 = (2x + 3)(x/2 - 3/4) + 9/4: the lead 2x does not divide x^2
    # over the integers
    ("x^2", "2*x + 3", None),
    ("x^2 + 1", "x - y", None),
], ids=["zero", "negative-lead", "negative-lead-fractions", "no-integer",
        "remainder"])
def test_exact_division_known_answers(p, d, q):
    R2 = ("x", "y")
    quotient = packed_div(poly_from_text(p, R2), poly_from_text(d, R2))
    assert quotient == (None if q is None else poly_from_text(q, R2))


def test_saito_determinant_over_f_is_the_unit():
    f, _, saito = rigid_arrangement("coxeter-B4")
    mat = saito.table()
    u = groebner._divide(mat.det(), _flatten([f], mat.lay), mat.lay,
                         current_budget())
    assert not saito.unit.is_zero() and mat.polynomial(u) == saito.unit
