import itertools
import json
import os
import random

from fractions import Fraction

import pytest

from ce_oracle import cohomology, normal_crossing_rows
from logdiv.cohomology import (
    QuotientSlice,
    SliceComplex,
    cocycle_check,
    deformation_equation,
    ft1,
    h0,
    is_coboundary,
    jacobian_degree_bound,
    lft1,
    linear_basis,
)
from logdiv.errors import (Budget, BudgetExceeded, InternalInconsistency,
                           NotLinear, NotWeightedHomogeneous)
from logdiv.groebner import buchberger
from logdiv.logder import (
    SaitoBasis,
    VectorField,
    compute_der_log,
    find_saito_basis,
    structure_constants,
    verify_saito,
)
from logdiv.poly import (
    Polynomial,
    WeightSystem,
    detect_weight_system,
    partial_derivative,
    poly_from_text,
    poly_to_text,
)

from conftest import (CORPUS, corpus_member, coxeter_gens, dense_nullspace,
                      kernel_vectors, leibniz, reference_slice_images,
                      transpose)

R2 = ("x", "y")
R3 = ("x", "y", "z")
R5 = ("x1", "x2", "x3", "x4", "x5")


def P(text, ring=R2):
    return poly_from_text(text, ring)


def field(ring, *texts):
    return VectorField(ring, [poly_from_text(t, ring) for t in texts])


def saito_for(f):
    return find_saito_basis(compute_der_log(f), f)


def tjurina_gb(f):
    gens = [f] + [partial_derivative(f, i) for i in range(len(f.ring))]
    return buchberger(gens)


def check_against_groebner_reference(f, weights, degree, bound, equations):
    """The Groebner basis of (f, df) alone decides the degree-k quotient:
    its standard monomials count it, and its normal forms must keep the
    deformed equations independent."""
    import sympy

    gb = tjurina_gb(f)
    leads = [max(g.terms, key=lambda e: (sum(e), [-a for a in reversed(e)]))
             for g in gb.elements]
    standard = [
        e for e in itertools.product(*(range(degree // a + 1) for a in weights))
        if sum(a * b for a, b in zip(e, weights)) == degree
        and not any(all(a <= b for a, b in zip(lead, e)) for lead in leads)]
    assert len(standard) == bound
    forms = [gb.normal_form(p) for p in equations]
    keys = sorted({m for p in forms for m in p.terms})
    rows = [[sympy.Rational(p.terms.get(m, 0)) for m in keys] for p in forms]
    assert len(equations) == (sympy.Matrix(rows).rank() if rows else 0)


FIVE_VAR_F = poly_from_text(
    "x4^4*x5 - 2*x3*x4^2*x5^2 + x3^2*x5^3 + 2*x2*x4*x5^3 - 2*x1*x5^4", R5)

FIVE_VAR_ROWS = [
    ["x4", "x3", "x2", "x1", "0"],
    ["x5", "x4", "0", "0", "x2"],
    ["0", "x5", "2*x4", "-x3", "2*x3"],
    ["0", "0", "x5", "-2*x4", "3*x4"],
    ["0", "0", "0", "-3*x5", "4*x5"],
]


@pytest.fixture(scope="module")
def five_var_saito():
    mat = [[poly_from_text(t, R5) for t in row] for row in FIVE_VAR_ROWS]
    fields = [VectorField(R5, [mat[r][c] for r in range(5)]) for c in range(5)]
    res = verify_saito(fields, FIVE_VAR_F)
    assert res.ok
    return SaitoBasis(fields, FIVE_VAR_F, res.unit)


@pytest.fixture(scope="module")
def five_var_complex(five_var_saito):
    w = WeightSystem((1,) * 5, 5)
    return SliceComplex(five_var_saito, structure_constants(five_var_saito), w)


def saito_rows(saito):
    """The Saito matrix as texts, the input format of the oracle."""
    return [[poly_to_text(p) for p in row] for row in saito.matrix()]


class TestFt1PlaneCurves:
    def test_quartic(self):
        rep = ft1(P("x^3*y - x*y^3"))
        assert rep.dimension == 1
        assert [poly_to_text(p) for p in rep.deformed_equations] == ["x^2*y^2"]
        assert rep.notes["h0"] == 0
        assert (rep.notes["dim_c0"], rep.notes["dim_c1"], rep.notes["dim_c2"]) \
            == (3, 7, 4)
        assert rep.notes["field_weights"] == [0, 2]

    @pytest.mark.parametrize("text,expected", [
        ("x + y", 0),
        ("x^2 - y^2", 0),
        ("x^2*y + x*y^2", 0),
        ("x^3*y - x*y^3", 1),
        ("x^4*y + 2*x^3*y^2 - x^2*y^3 - 2*x*y^4", 2),
        ("x^5*y - 5*x^3*y^3 + 4*x*y^5", 3),
    ])
    def test_concurrent_lines(self, text, expected):
        assert ft1(P(text)).dimension == expected

    def test_quasi_homogeneous_curve(self):
        assert ft1(P("x^5 + y^4")).dimension == 0

    @pytest.mark.parametrize("text", [
        "x^3*y - x*y^3",
        "x^5 + y^4",
        "x^5*y - 5*x^3*y^3 + 4*x*y^5",
    ])
    def test_matches_groebner_reference(self, text):
        # for a plane curve ft1 is the whole degree-k Jacobian quotient
        f = P(text)
        rep = ft1(f)
        w = detect_weight_system(f)
        assert rep.dimension == rep.jacobian_degree_bound \
            == jacobian_degree_bound(f)
        check_against_groebner_reference(f, w.weights, w.degree, rep.dimension,
                                         rep.deformed_equations)

    def test_refuses_non_weighted_homogeneous(self):
        f = poly_from_text("x^2*y^2 + x*y^3 + x^3*y*z + x^2*y^2*z", R3)
        with pytest.raises(NotWeightedHomogeneous):
            ft1(f)


def graded_corpus_names():
    names = []
    for n in sorted(os.listdir(CORPUS)):
        if n.endswith(".expected.json"):
            with open(os.path.join(CORPUS, n), encoding="utf-8") as fh:
                if json.load(fh)["profile"]["weighted_homogeneous"]:
                    names.append(n[:-len(".expected.json")])
    return names


@pytest.mark.parametrize("name", graded_corpus_names())
def test_corpus_ft1_matches_groebner_reference(name):
    from logdiv import cli

    doc = cli.load_document(os.path.join(CORPUS, f"{name}.json"))
    report = cli.analyze_document(doc, {"ft1"})
    prof = report["profile"]
    ring = tuple(prof["variables"])
    f = poly_from_text(prof["f"], ring)
    bound = report["bounds"]["jacobian_degree_bound"]
    assert bound == jacobian_degree_bound(
        f, w=WeightSystem(prof["weights"], prof["degree"]))
    check_against_groebner_reference(
        f, prof["weights"], prof["degree"], bound,
        [poly_from_text(t, ring) for t in report["ft1"]["representatives"]])


def deformation_equation_by_determinants(psi_fields, saito):
    """The reference for deformation_equation: the sum over i of the
    determinant of the Saito matrix with column i replaced by psi_i, each
    expanded in full by the Leibniz formula."""
    n = len(saito.ring)
    fprime = Polynomial.zero(saito.ring)
    for i in range(n):
        cols = saito.fields[:i] + [psi_fields[i]] + saito.fields[i + 1:]
        fprime = fprime + Polynomial(saito.ring, leibniz(
            [[cols[c].components[r] for c in range(n)] for r in range(n)]))
    return fprime


@pytest.mark.parametrize("name", graded_corpus_names())
def test_deformation_equation_matches_determinants(name):
    _, w, saito = corpus_member(name)
    saito = saito.graded(w)
    cx = SliceComplex(saito, saito.structure_constants(), w)
    for vec in kernel_vectors(cx):
        fields = cx.lift_cocycle(vec)
        assert deformation_equation(fields, saito) \
            == deformation_equation_by_determinants(fields, saito)


@pytest.mark.parametrize("name", graded_corpus_names())
def test_kernel_d1_is_the_dense_reference_kernel(name):
    # the int vectors from the columns of d1, scaled to 1 at their free
    # column, are the kernel of dense Gauss-Jordan elimination
    _, w, saito = corpus_member(name)
    saito = saito.graded(w)
    cx = SliceComplex(saito, saito.structure_constants(), w)
    assert kernel_vectors(cx) \
        == dense_nullspace(transpose(cx.d1, cx.dim_c2), cx.dim_c1)
    assert all(type(x) is int for _, v in cx.kernel_d1() for x in v.values())


@pytest.mark.parametrize("name", graded_corpus_names()
                         + ["coxeter-B3", "coxeter-D4"])
def test_slices_match_the_fraction_route(name):
    # each slice that ft1 builds, and its class space, reads den and its
    # images off rref's primitive int rows; the Fraction route reads them
    # off the reduced row echelon form
    from logdiv.cohomology import _class_space
    from logdiv.logder import saito_basis

    if name.startswith("coxeter"):
        f = coxeter_gens(name)[0]
        w = detect_weight_system(f)
        saito = saito_basis(f, w)
    else:
        f, w, saito = corpus_member(name)
    saito = saito.graded(w)
    cx = SliceComplex(saito, saito.structure_constants(), w)
    gens = [d.components for d in saito.fields]
    spaces = [(s, gens, cx.field_weights) for s in cx._slices.values()]
    space = _class_space(f, w)
    partials = [partial_derivative(f, i) for i in range(len(f.ring))]
    spaces.append((space, [[g] for g in partials if not g.is_zero()],
                   [w.degree - wi for g, wi in zip(partials, w.weights)
                    if not g.is_zero()]))
    for s, gens, weights in spaces:
        den, images = reference_slice_images(s, gens, weights, w)
        assert s.den == den
        assert {t: dict(image) for t, image in s._image.items()} == images


@pytest.mark.parametrize("name", ["quartic-cross", "linear-nonreductive-5"])
def test_deformation_equation_is_charged_to_the_budget(name):
    # the products of the adjugate's entries with the cocycle's values go
    # to the active budget, one step per pair of terms; the adjugate
    # itself is built beforehand, once per basis
    _, w, saito = corpus_member(name)
    saito = saito.graded(w)
    cx = SliceComplex(saito, saito.structure_constants(), w)
    fields = cx.lift_cocycle(kernel_vectors(cx)[0])
    saito.table().adjugate()
    with Budget() as budget:
        expected = deformation_equation(fields, saito)
    spent = budget.steps - budget.left
    assert spent > 0
    for steps in (0, spent - 1):
        with pytest.raises(BudgetExceeded):
            with Budget(steps=steps):
                deformation_equation(fields, saito)
    with Budget(steps=spent) as budget:
        assert deformation_equation(fields, saito) == expected
    assert budget.left == 0


class TestBoundsAndH0:
    @pytest.mark.parametrize("text,ring,bound", [
        ("x^3*y - x*y^3", R2, 1),
        ("x^5*y - 5*x^3*y^3 + 4*x*y^5", R2, 3),
        ("4*x^3*y^2 - 16*x^4*z + 27*y^4 - 144*x*y^2*z + 128*x^2*z^2"
         " - 256*z^3", R3, 3),
    ])
    def test_jacobian_degree_bound(self, text, ring, bound):
        f = poly_from_text(text, ring)
        assert jacobian_degree_bound(f) == bound
        assert ft1(f).dimension <= bound

    def test_discriminant_bound_not_attained(self):
        f = poly_from_text(
            "4*x^3*y^2 - 16*x^4*z + 27*y^4 - 144*x*y^2*z + 128*x^2*z^2"
            " - 256*z^3", R3)
        assert ft1(f).dimension == 0

    @pytest.mark.parametrize("text,ring", [
        ("x*y", R2),
        ("x^3*y - x*y^3", R2),
        ("x^5 + y^4", R2),
        ("y^2*z + x*z^2", R3),
    ])
    def test_h0_vanishes(self, text, ring):
        assert h0(poly_from_text(text, ring)) == 0


class TestPaperQuarticCocycle:
    def test_deformation_equation_of_displayed_cocycle(self):
        f = P("x^3*y - x*y^3")
        fields = [field(R2, "x", "y"), field(R2, "0", "x^2*y - y^3")]
        res = verify_saito(fields, f)
        saito = SaitoBasis(fields, f, res.unit)
        psi = [field(R2, "0", "0"), field(R2, "0", "x*y^2 - y^3")]
        fprime = deformation_equation(psi, saito)
        assert poly_to_text(fprime) == "x^2*y^2 - x*y^3"
        sc = structure_constants(saito)
        assert cocycle_check(psi, saito, sc)
        gb = tjurina_gb(f)
        assert not gb.reduces_to_zero(fprime)

    def test_failing_cochain_is_flagged(self):
        f = P("x^3*y - x*y^3")
        saito = saito_for(f)
        sc = structure_constants(saito)
        bad = [field(R2, "1", "0"), field(R2, "0", "0")]
        assert not cocycle_check(bad, saito, sc)

    def test_identity_is_a_cocycle_over_a_nonconstant_unit(self):
        # psi = id gives psi([d_i, d_j]) - [d_i, d_j] + [d_j, d_i] =
        # -[d_i, d_j], logarithmic; its basis coefficients carry the
        # denominator u, which the brackets must be scaled by
        f = P("x^3 + y^2 + x^2*y^2")
        saito = saito_for(f)
        sc = structure_constants(saito)
        assert not sc.denominator.is_constant()
        assert cocycle_check(list(saito.fields), saito, sc)


class TestCoboundariesLandInTjurina:
    @pytest.mark.parametrize("text,ring", [
        ("x^3*y - x*y^3", R2),
        ("y^2*z + x*z^2", R3),
    ])
    def test_random_coboundaries(self, text, ring):
        from logdiv.poly import detect_weight_system

        f = poly_from_text(text, ring)
        saito = saito_for(f)
        sc = structure_constants(saito)
        w = detect_weight_system(f)
        cx = SliceComplex(saito, sc, w)
        gb = tjurina_gb(f)
        rng = random.Random(411)
        for _ in range(10):
            sigma = [Fraction(rng.randint(-4, 4)) for _ in range(cx.dim_c0)]
            psi_vec = cx.apply_d0(sigma)
            assert all(x == 0 for x in cx.apply_d1(psi_vec))
            fields = cx.lift_cocycle(psi_vec)
            fprime = deformation_equation(fields, saito)
            assert gb.reduces_to_zero(fprime)
            assert is_coboundary(psi_vec, cx) is not None


class TestLft1:
    @pytest.mark.parametrize("text,ring", [
        ("x*y", R2),
        ("x*y*z", R3),
    ])
    def test_reductive_members_are_rigid(self, text, ring):
        rep = lft1(poly_from_text(text, ring))
        assert rep.dimension == 0

    def test_cone_example(self):
        f = poly_from_text("y^2*z + x*z^2", R3)
        rep = lft1(f)
        assert rep.dimension == 0
        assert rep.notes["h0"] == 0
        assert (rep.notes["dim_c0"], rep.notes["dim_c1"], rep.notes["dim_c2"]) \
            == (6, 18, 18)

    def test_rejects_nonlinear(self):
        with pytest.raises(NotLinear):
            lft1(P("x^3*y - x*y^3"))

    def test_rejects_free_curve_of_another_grading(self):
        # free, but graded by (4, 5): the basis is searched under its own
        # grading, not the standard one
        with pytest.raises(NotLinear):
            lft1(P("x^5 + y^4"))

    @pytest.mark.parametrize("text,ring", [
        ("x*y", R2),
        ("x*y*z", R3),
        ("y^2*z + x*z^2", R3),
    ])
    def test_agrees_with_ft1_on_linear_members(self, text, ring):
        # ft1 and lft1 share the slice complex, so the oracle, which
        # shares no code with either, is what makes the check independent
        f = poly_from_text(text, ring)
        saito, _ = linear_basis(f)
        dim = lft1(f).dimension
        assert dim == cohomology(saito_rows(saito), ring, 1)
        assert dim == ft1(f).dimension


class TestFiveVariableExample:
    def test_dimension_and_representative(self, five_var_saito):
        rep = lft1(FIVE_VAR_F, saito=five_var_saito)
        assert rep.dimension == 1
        assert [poly_to_text(p) for p in rep.deformed_equations] \
            == ["x3*x4^2*x5^2"]
        assert rep.notes == {"h0": 0, "dim_c0": 20, "dim_c1": 100,
                             "dim_c2": 200, "field_weights": [0] * 5}

    def test_displayed_cocycle_spans_the_space(self, five_var_saito,
                                               five_var_complex):
        saito = five_var_saito
        cx = five_var_complex
        alpha_field = field(R5, "0", "2*x3", "-2*x4", "0", "0")
        psi = [VectorField(R5, [Polynomial.zero(R5)] * 5) for _ in range(5)]
        psi[2] = alpha_field
        sc = cx.sc
        assert cocycle_check(psi, saito, sc)
        coords = [Fraction(0)] * cx.dim_c1
        block = cx.slices1[2].project(alpha_field.terms())
        for t, v in block.items():
            coords[cx.offsets1[2] + t] = v
        assert all(x == 0 for x in cx.apply_d1(coords))
        assert is_coboundary(coords, cx) is None
        fprime = deformation_equation(psi, saito)
        assert poly_to_text(fprime) == "-2*x4^4*x5"
        gb = tjurina_gb(FIVE_VAR_F)
        assert not gb.reduces_to_zero(fprime)

    def test_graded_slice_path_agrees(self, five_var_saito):
        rep = ft1(FIVE_VAR_F, saito=five_var_saito)
        assert rep.dimension == 1
        assert [poly_to_text(p) for p in rep.deformed_equations] \
            == ["x3*x4^2*x5^2"]
        assert rep.notes["field_weights"] == [0, 0, 0, 0, 0]


class TestLft1AgainstOracle:
    """lft1 is H^1(g, gl_n / g), checked here against an oracle that
    shares no code with logdiv.  The five-variable divisor was once
    required to have a 4-dimensional lft1; 4 is H^1(g, gl_5) instead
    (and n - 1, the dimension of the matrices whose fields kill f).
    Neither can be the linear deformation space: H^1(g, gl_n) = n^2 is
    nonzero already for the normal crossings, which are reductive."""

    @pytest.mark.parametrize("ring", [R2, R3])
    def test_normal_crossing(self, ring):
        n = len(ring)
        rows = normal_crossing_rows(ring)
        assert cohomology(rows, ring, 1) == 0
        assert cohomology(rows, ring, 1, quotient=False) == n * n
        assert lft1(poly_from_text("*".join(ring), ring)).dimension == 0

    def test_five_variable_divisor(self):
        assert cohomology(FIVE_VAR_ROWS, R5, 1) == 1
        assert cohomology(FIVE_VAR_ROWS, R5, 1, quotient=False) == 4
        # H^0 is the h0 note of lft1, asserted in TestFiveVariableExample;
        # H^2 is known from this oracle only
        assert cohomology(FIVE_VAR_ROWS, R5, 0) == 0
        assert cohomology(FIVE_VAR_ROWS, R5, 2) == 2


class TestSliceInternals:
    def test_quartic_slice_dimensions(self):
        f = P("x^3*y - x*y^3")
        saito = saito_for(f)
        sc = structure_constants(saito)
        w = WeightSystem((1, 1), 4)
        cx = SliceComplex(saito, sc, w)
        assert (cx.dim_c0, cx.dim_c1, cx.dim_c2) == (3, 7, 4)
        assert cx.h0_dimension() == 0
        assert len(cx.kernel_d1()) - cx.rank_d0() == 1

    def test_coboundaries_are_solved_against_one_echelon(self):
        f = P("x^3*y - x*y^3")
        saito = saito_for(f)
        cx = SliceComplex(saito, structure_constants(saito),
                         WeightSystem((1, 1), 4))
        # each preimage is read off the column kernel of
        # [scale * d0 | -scale * psi]; h0 is 0, so it is sigma itself
        rng = random.Random(7)
        for _ in range(5):
            sigma = [Fraction(rng.randint(-3, 3)) for _ in range(cx.dim_c0)]
            psi = cx.apply_d0(sigma)
            assert cx.apply_d0(is_coboundary(psi, cx)) == psi
            assert is_coboundary(psi, cx) == sigma
        # one of the cocycles is not a coboundary: H^1 has dimension 1
        assert [is_coboundary(v, cx) is None for v in kernel_vectors(cx)] \
            .count(True) >= 1

    def test_a_coboundary_with_a_nonzero_class_is_caught(self, monkeypatch):
        # doubling the first value of every cochain gives coboundaries a
        # nonzero class on linear-nonreductive-5; its one cocycle still has
        # an independent class, so only the coboundary check can see it
        from logdiv import cohomology

        equation = cohomology.deformation_equation

        def doubled(psi_fields, saito):
            first = VectorField(saito.ring, [2 * c for c
                                             in psi_fields[0].components])
            return equation([first, *psi_fields[1:]], saito)

        _, w, saito = corpus_member("linear-nonreductive-5")
        assert ft1(saito.divisor, saito=saito, w=w).dimension == 1
        monkeypatch.setattr(cohomology, "deformation_equation", doubled)
        with pytest.raises(InternalInconsistency,
                           match="a coboundary has a nonzero class"):
            ft1(saito.divisor, saito=saito, w=w)
        monkeypatch.setattr(cohomology, "_check_coboundary_class",
                            lambda cx, saito, space: None)
        assert ft1(saito.divisor, saito=saito, w=w).dimension == 1


class TestSliceBudget:
    def test_relation_matrix_is_charged_before_it_is_built(self):
        # x*y*z: three weight-zero fields of one term each, each with the
        # one weight-zero multiplier 1, so the weight-0 relation matrix
        # has 3 terms
        f = P("x*y*z", R3)
        saito = saito_for(f)
        w = WeightSystem((1, 1, 1), 3)
        weights = saito.field_weights(w)
        gens = [d.components for d in saito.fields]
        assert [sum(len(p.terms) for p in gen) for gen in gens] == [1, 1, 1]
        with pytest.raises(BudgetExceeded):
            with Budget(steps=2):
                QuotientSlice(gens, weights, w.weights, w, 0)
        with Budget(steps=3 + 100) as budget:
            assert QuotientSlice(gens, weights, w.weights, w, 0).dim == 6
        assert budget.steps - budget.left >= 3

    def test_the_complex_is_charged_beyond_its_slices(self):
        # d0 brackets every basis field with each basis monomial of C0, d1
        # each field delta_p with each basis monomial of the summand of
        # delta_q, q != p; each distinct bracket (p, c, e) is formed once
        # per complex and costs one step per term of delta_p, on top of the
        # slices' own charges
        _, w, saito = corpus_member("linear-nonreductive-5")
        saito = saito.graded(w)
        sc = saito.structure_constants()
        with Budget(10**9) as budget:
            cx = SliceComplex(saito, sc, w)
        spent = budget.steps - budget.left
        gens = [d.components for d in saito.fields]
        with Budget(10**9) as slices:
            for weight in cx._slices:
                QuotientSlice(gens, cx.field_weights, w.weights, w, weight)
        sizes = [len(d.terms()) for d in saito.fields]
        keys = {(p, cx.slice0.ambient[k])
                for p in range(len(sizes)) for k in cx.slice0.basis}
        keys |= {(p, s.ambient[k]) for q, s in enumerate(cx.slices1)
                 for k in s.basis for p in range(len(sizes)) if p != q}
        brackets = sum(sizes[p] for p, _ in keys)
        assert spent == slices.steps - slices.left + brackets
        assert brackets > 0
        with pytest.raises(BudgetExceeded):
            with Budget(steps=spent - 1):
                SliceComplex(saito, sc, w)
        with Budget(steps=spent) as budget:
            SliceComplex(saito, sc, w)
        assert budget.left == 0
