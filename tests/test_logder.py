import random

from fractions import Fraction

import pytest

from logdiv import linalg
from logdiv.classify import linear_annihilators
from hypothesis import given, settings, strategies as st

from logdiv.errors import (Budget, BudgetExceeded, NonReduced, NotFree,
                           ZeroOrConstantInput)
from logdiv.groebner import buchberger
from logdiv.logder import (
    VectorField,
    _as_field,
    _packed_fields,
    _select_saito_basis,
    _weight_parts,
    compute_der_log,
    der_log_stream,
    find_saito_basis,
    lie_bracket,
    saito_basis,
    structure_constants,
    verify_saito,
)
from logdiv.poly import (
    Polynomial,
    WeightSystem,
    _Packing,
    detect_weight_system,
    poly_from_text,
    poly_to_text,
)

from conftest import (ReferenceConstants, apply_field, corpus_member,
                      corpus_names, coxeter_gens, field_sort_key, field_sum,
                      random_poly,
                      reference_bracket, reference_weight_parts, unpacked)

R2 = ("x", "y")
R3 = ("x", "y", "z")
R5 = ("x1", "x2", "x3", "x4", "x5")


def P(text, ring=R2):
    return poly_from_text(text, ring)


def field(ring, *texts):
    return VectorField(ring, [poly_from_text(t, ring) for t in texts])


def module_gb(fields):
    return buchberger([list(d.components) for d in fields])


def same_module(fields_a, fields_b):
    gb_a = module_gb(fields_a)
    gb_b = module_gb(fields_b)
    return (all(gb_a.reduces_to_zero(list(d.components)) for d in fields_b)
            and all(gb_b.reduces_to_zero(list(d.components)) for d in fields_a))


FIVE_VAR_F = poly_from_text(
    "x4^4*x5 - 2*x3*x4^2*x5^2 + x3^2*x5^3 + 2*x2*x4*x5^3 - 2*x1*x5^4", R5)

# columns are the basis fields
FIVE_VAR_ROWS = [
    ["x4", "x3", "x2", "x1", "0"],
    ["x5", "x4", "0", "0", "x2"],
    ["0", "x5", "2*x4", "-x3", "2*x3"],
    ["0", "0", "x5", "-2*x4", "3*x4"],
    ["0", "0", "0", "-3*x5", "4*x5"],
]


def five_var_fields():
    mat = [[poly_from_text(t, R5) for t in row] for row in FIVE_VAR_ROWS]
    return [VectorField(R5, [mat[r][c] for r in range(5)]) for c in range(5)]


class TestLieBracket:
    def test_hand_computed(self):
        a = field(R2, "0", "x")
        b = field(R2, "y", "0")
        br = lie_bracket(a, b)
        assert [poly_to_text(p) for p in br.components] == ["x", "-y"]

    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(20240817)
        for _ in range(5):
            deltas = []
            for _ in range(3):
                comps = [random_poly(rng, R2, max_deg=2, n_terms=2, coeff_range=3)
                         for _ in range(2)]
                deltas.append(VectorField(R2, comps))
            a, b, c = deltas
            zero = VectorField(R2, [Polynomial.zero(R2)] * 2)
            assert field_sum(lie_bracket(a, b), lie_bracket(b, a)).components \
                == zero.components
            jac = field_sum(lie_bracket(a, lie_bracket(b, c)),
                            lie_bracket(b, lie_bracket(c, a)),
                            lie_bracket(c, lie_bracket(a, b)))
            assert all(p.is_zero() for p in jac.components)

    def test_bracket_as_operator(self):
        rng = random.Random(99)
        a = field(R2, "x^2", "x*y")
        b = field(R2, "y", "x")
        g = random_poly(rng, R2, max_deg=3, n_terms=3, coeff_range=4)
        lhs = apply_field(lie_bracket(a, b), g)
        rhs = apply_field(a, apply_field(b, g)) - apply_field(b, apply_field(a, g))
        assert lhs == rhs

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_termwise_bracket_matches_the_reference(self, data):
        # the term-wise kernel against delta(nu_i) - nu(delta_i) formed by
        # products of Fraction polynomials, with rational coefficients
        n = data.draw(st.integers(1, 4))
        ring = R5[:n]
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        poly = st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * n), coeff, max_size=4).map(
                lambda t: Polynomial(ring, t))
        a, b = (VectorField(ring, data.draw(st.lists(poly, min_size=n,
                                                     max_size=n)))
                for _ in range(2))
        assert lie_bracket(a, b) == reference_bracket(a, b)
        assert not lie_bracket(a, a).terms()

    def test_non_integral_coefficients_match_the_reference(self):
        # nu is scaled to ints by the lcm of its denominators and delta by
        # that of its own: 6 and 20 here, unequal and not coprime
        a = field(R3, "1/2*x^2 - 2/3*y*z", "3*z", "-1/3*x*y")
        b = field(R3, "5/4*y", "-1/5*x*z + 1/2", "7/10*z^2")
        assert lie_bracket(a, b) == reference_bracket(a, b)
        assert lie_bracket(b, a) == reference_bracket(b, a)
        assert any(c.denominator > 1 for c in lie_bracket(a, b).terms().values())

    def test_bracket_is_charged_to_the_budget(self):
        # one step per pair of a term of nu and a term of delta: 2 * 3
        a = field(R2, "x^2 + y", "x*y")
        b = field(R2, "y", "x")
        with pytest.raises(BudgetExceeded):
            with Budget(steps=5):
                lie_bracket(a, b)
        with Budget(steps=6) as budget:
            assert lie_bracket(a, b) == reference_bracket(a, b)
        assert budget.left == 0


class TestComputeDerLog:
    def test_normal_crossing_contains_coordinate_scalings(self):
        gens = compute_der_log(P("x*y"))
        gb = module_gb(gens)
        assert gb.reduces_to_zero([P("x"), P("0")])
        assert gb.reduces_to_zero([P("0"), P("y")])

    def test_quartic_module_equality(self):
        gens = compute_der_log(P("x^3*y - x*y^3"))
        expected = [field(R2, "x", "y"), field(R2, "0", "x^2*y - y^3")]
        assert same_module(gens, expected)

    def test_smooth_divisor(self):
        f = poly_from_text("x", R3)
        gens = compute_der_log(f)
        expected = [field(R3, "x", "0", "0"),
                    field(R3, "0", "1", "0"),
                    field(R3, "0", "0", "1")]
        assert same_module(gens, expected)

    def test_every_generator_is_logarithmic(self):
        f = P("x^3*y - x*y^3")
        gb = buchberger([f])
        for delta in compute_der_log(f):
            assert gb.reduces_to_zero(apply_field(delta, f))

    def test_rejects_constant(self):
        with pytest.raises(ZeroOrConstantInput):
            compute_der_log(Polynomial.one(R2))


class TestVerifySaito:
    def test_quartic_matrix(self):
        fields = [field(R2, "x", "y"), field(R2, "0", "x^2*y - y^3")]
        res = verify_saito(fields, P("x^3*y - x*y^3"))
        assert res.ok
        assert poly_to_text(res.unit) == "1"

    def test_diagonal_rejected_for_crossing(self):
        fields = [field(R2, "x", "0"), field(R2, "0", "1")]
        res = verify_saito(fields, P("x*y"))
        assert not res.ok
        assert "not a multiple" in res.reason

    def test_five_variable_matrix(self):
        res = verify_saito(five_var_fields(), FIVE_VAR_F)
        assert res.ok
        assert poly_to_text(res.unit) == "2"

    def test_nonreduced_rejected(self):
        fields = [field(R2, "x", "0"), field(R2, "0", "y")]
        res = verify_saito(fields, P("x^2*y"))
        assert not res.ok
        assert "squarefree" in res.reason

    def test_determinant_condition_only(self):
        # the determinant test alone cannot tell a matrix from its
        # transpose; the logarithmic check of the columns rejects it
        fields = [field(R2, "0", "x"), field(R2, "y", "0")]
        res = verify_saito(fields, P("x*y"))
        assert not res.ok
        assert "not logarithmic" in res.reason
        gb = buchberger([P("x*y")])
        assert not gb.reduces_to_zero(apply_field(fields[0], P("x*y")))


class TestFindSaitoBasis:
    def test_quartic_graded_selection(self):
        f = P("x^3*y - x*y^3")
        saito = find_saito_basis(compute_der_log(f), f)
        w = WeightSystem((1, 1), 4)
        assert saito.field_weights(w) == [0, 2]
        assert verify_saito(saito.fields, f).ok

    def test_isolated_quadric_cone_is_not_free(self):
        f = poly_from_text("x^2 + y^2 + z^2", R3)
        with pytest.raises(NotFree):
            find_saito_basis(compute_der_log(f), f)

    @pytest.mark.parametrize("ring,text,exponents", [
        # braid arrangement A3 in four variables (not essential, so it
        # keeps the constant field, exponent 0)
        (("x1", "x2", "x3", "x4"),
         "(x1-x2)*(x1-x3)*(x1-x4)*(x2-x3)*(x2-x4)*(x3-x4)", [0, 1, 2, 3]),
        # Coxeter arrangement B3
        (("x1", "x2", "x3"),
         "x1*x2*x3*(x1^2-x2^2)*(x1^2-x3^2)*(x2^2-x3^2)", [1, 3, 5]),
    ])
    def test_one_groebner_basis_per_kept_field(self, ring, text, exponents,
                                               monkeypatch):
        # field weights are Terao's exponents minus one, and the scan
        # recomputes the Groebner basis of the kept fields only on a keep
        from logdiv import logder

        runs = []
        original = logder.buchberger

        def counting(gens):
            runs.append(len(gens))
            return original(gens)

        monkeypatch.setattr(logder, "buchberger", counting)
        f = poly_from_text(text, ring)
        saito = find_saito_basis(compute_der_log(f), f)
        n = len(ring)
        assert saito.field_weights(WeightSystem((1,) * n, n)) == [
            d - 1 for d in exponents]
        assert len(runs) <= len(saito)
        assert runs == sorted(set(runs))

    def test_subset_fallback_without_weights(self):
        f = poly_from_text("x^3*y*z + x^2*y^2*z + x^2*y^2 + x*y^3", R3)
        saito = find_saito_basis(compute_der_log(f), f)
        assert verify_saito(saito.fields, f).ok


ARRANGEMENTS = ("braid-A3", "coxeter-B3", "coxeter-D4")
STANDARD_GRADED = ARRANGEMENTS + ("line-1", "lines-2", "lines-3", "lines-5",
                                  "lines-6", "nc-2", "nc-3", "nc-4",
                                  "quartic-cross")


def graded_input(name):
    if name in ARRANGEMENTS:
        f = coxeter_gens(name)[0]
        return f, detect_weight_system(f)
    f, w, _ = corpus_member(name)
    return f, w


def entries(basis):
    return ([[list(p.terms.items()) for p in d.components] for d in basis.fields],
            list(basis.unit.terms.items()))


class TestPackedParts:
    """The search splits packed fields into weight parts on ints; the
    reference splits VectorFields."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_weight_parts_are_the_reference_split(self, data):
        # few exponents and coefficients, signed and with denominators;
        # each field is packed over a random multiple of its denominator
        n = data.draw(st.integers(1, 3))
        ring = R5[:n]
        lay = _Packing(n)
        w = WeightSystem(tuple(data.draw(st.lists(st.integers(1, 2), min_size=n,
                                                  max_size=n))), 1)
        coeff = st.sampled_from([Fraction(c) for c in (1, -1, 2, -3)]
                                + [Fraction(1, 2), Fraction(-1, 2),
                                   Fraction(2, 3), Fraction(-3, 4)])
        poly = st.dictionaries(st.tuples(*[st.integers(0, 1)] * n), coeff,
                               max_size=3).map(lambda t: Polynomial(ring, t))
        fields = data.draw(st.lists(st.lists(poly, min_size=n, max_size=n)
                                    .map(lambda c: VectorField(ring, c)),
                                    min_size=1, max_size=6))
        for delta in fields:
            P, D = _packed_fields([delta], ring)[0]
            k = data.draw(st.integers(1, 6))
            split = _weight_parts(({t: k * a for t, a in P.items()}, k * D),
                                  w, lay)
            assert {tag: _as_field(v, ring) for tag, v in split} \
                == dict(reference_weight_parts(delta, w))


class TestGradedStop:
    """saito_basis stops the syzygy run once the graded scan has its
    basis; the basis must be the one the full run gives."""

    @pytest.mark.parametrize("name", STANDARD_GRADED)
    def test_same_basis_as_the_full_run(self, name):
        f, w = graded_input(name)
        assert entries(saito_basis(f, w)) \
            == entries(find_saito_basis(compute_der_log(f), f, w))

    @pytest.mark.parametrize("name", STANDARD_GRADED)
    def test_stream_fields_up_to_the_top_weight(self, name):
        # the stream, read until no field of weight <= the top basis
        # weight is still to come, has the full run's fields of those
        # weights; on the arrangements that is before its end
        f, w = graded_input(name)
        full = compute_der_log(f)
        top = max(find_saito_basis(full, f, w).field_weights(w))
        read = []
        for c, rows in unpacked(der_log_stream(f), f.ring, len(f.ring) + 1):
            read += [VectorField(f.ring, row[1:]) for row in rows]
            if c is not None and min(w.weights) * c - max(w.weights) > top:
                break
        if name in ARRANGEMENTS:
            assert c is not None

        def upto_top(fields):
            return sorted(field_sort_key(d.weight(w), d) for d in fields
                          if d.weight(w) <= top)

        assert upto_top(read) == upto_top(full)

    def test_a_tag_is_scanned_only_once_it_is_complete(self):
        # the Euler field comes first but has coefficients of degree 1, as
        # the fields after it do: its tag 0 waits for them, and the scan
        # keeps the same basis as from one batch. The three fields span the
        # tag-0 space of x*d_x and y*d_y; its reduced echelon basis is those
        # two, the lead in d_x first
        f, w = P("x*y"), WeightSystem((1, 1), 2)
        fields = field(R2, "x", "y"), field(R2, "x", "0"), field(R2, "0", "y")
        euler, fx, fy = _packed_fields(fields, R2)
        batched = _select_saito_basis([(1, [euler]), (None, [fx, fy])], f, w)
        assert entries(batched) \
            == entries(_select_saito_basis([(None, [euler, fx, fy])], f, w))
        assert batched.fields == [fields[1], fields[2]]


def expand_in_basis(sc, saito, i, j):
    """sum_k b_ijk * delta_k, which must equal [delta_i, delta_j] times
    the denominator of the structure constants."""
    acc = [Polynomial.zero(saito.ring)] * sc.n
    for k, delta in enumerate(saito.fields):
        acc = [a + sc.b[i][j][k] * p for a, p in zip(acc, delta.components)]
    return VectorField(saito.ring, acc)


class TestStructureConstants:
    def test_normal_crossing_is_abelian(self):
        f = P("x*y")
        saito = find_saito_basis(compute_der_log(f), f)
        sc = structure_constants(saito)
        assert saito.bracket_coordinates(0, 1) == [0, 0]
        assert all(p.is_zero() for row in sc.b for col in row for p in col)

    def test_fields_are_eliminated_once_per_basis(self, monkeypatch):
        # the ten brackets of linear-nonreductive-5, all in the Q-span of
        # its basis, reduce one column each after the five fields' columns
        from logdiv import logder

        tags = []
        eliminate = logder._eliminate

        def counting(col, tag, span):
            tags.append(tag)
            return eliminate(col, tag, span)

        monkeypatch.setattr(logder, "_eliminate", counting)
        saito = corpus_member("linear-nonreductive-5")[2]
        assert all(saito.bracket_coordinates(i, j) is not None
                   for i in range(5) for j in range(i + 1, 5))
        m = tags[0]
        assert tags == [m, m + 1, m + 2, m + 3, m + 4] + [m + 5] * 10

    def test_reconstruction_matches_bracket(self):
        f = P("x^3*y - x*y^3")
        saito = find_saito_basis(compute_der_log(f), f)
        sc = structure_constants(saito)
        n = len(saito.fields)
        for i in range(n):
            for j in range(n):
                direct = lie_bracket(saito.fields[i], saito.fields[j])
                rebuilt = expand_in_basis(sc, saito, i, j)
                assert direct.components == rebuilt.components

    def test_nonconstant_unit_is_the_denominator(self):
        # not weighted homogeneous, so the subset search finds a basis
        # whose unit is not constant; Cramer's division by unit * f is not
        # exact in Q[x, y], the one by f is
        f = P("x^3 + y^2 + x^2*y^2")
        saito = find_saito_basis(compute_der_log(f), f)
        assert poly_to_text(saito.unit) == "1/6*x*y^2 - 1/4"
        sc = structure_constants(saito)
        assert sc.denominator == saito.unit
        for i in range(2):
            for j in range(2):
                direct = lie_bracket(saito.fields[i], saito.fields[j])
                rebuilt = expand_in_basis(sc, saito, i, j)
                assert rebuilt.components \
                    == [saito.unit * c for c in direct.components]

    def test_five_variable_constants_are_rational_numbers(self):
        from logdiv.logder import SaitoBasis

        fields = five_var_fields()
        res = verify_saito(fields, FIVE_VAR_F)
        saito = SaitoBasis(fields, FIVE_VAR_F, res.unit)
        sc = structure_constants(saito)
        assert all(saito.bracket_coordinates(i, j) is not None
                   for i in range(5) for j in range(i + 1, 5))
        for i in range(5):
            for j in range(5):
                direct = lie_bracket(saito.fields[i], saito.fields[j])
                rebuilt = expand_in_basis(sc, saito, i, j)
                assert direct.components == rebuilt.components

    def test_multiples_of_a_nonconstant_denominator_are_constant(self):
        # the reference's test that b / u is a rational number
        u = P("1/6*x*y^2 - 1/4")
        zero = Polynomial.zero(R2)
        sc = ReferenceConstants(R2, 1, [[[u.scale(Fraction(3, 2))]]], u)
        assert sc.is_constant() and sc.value(sc.b[0][0][0]) == Fraction(3, 2)
        assert sc.value(zero) == 0
        for p in (P("x*y^2"), u + P("1"), P("1")):
            assert sc.value(p) is None
            assert not ReferenceConstants(R2, 1, [[[p]]], u).is_constant()

    def test_value_compares_supports_and_ratios(self):
        u = P("1/6*x*y^2 - 1/4")
        sc = ReferenceConstants(R2, 1, [[[u]]], u)
        # the support of u, but 6 * u would have -3/2 where p has 1
        assert sc.value(P("x*y^2 + 1")) is None
        # a support smaller, larger or other than u's
        for p in (P("x*y^2"), P("x*y^2 - 3/2 + x"), P("x - 1")):
            assert sc.value(p) is None
        assert sc.value(Polynomial.zero(R2)) == 0
        assert sc.value(u.scale(Fraction(-7, 5))) == Fraction(-7, 5)
        assert sc.value(u) == 1
        one = ReferenceConstants(R2, 1, [[[u]]], Polynomial.one(R2))
        assert one.value(P("3/2")) == Fraction(3, 2)
        assert one.value(P("x")) is None and one.value(P("x + 1")) is None


COXETER_B3 = ("x1*x2*x3*(x1^2-x2^2)*(x1^2-x3^2)*(x2^2-x3^2)",
              ("x1", "x2", "x3"))


@pytest.mark.parametrize("name", corpus_names() + ["coxeter-B3"])
def test_cramer_inverts_the_saito_matrix(name):
    # adj * A = u * f * I, and the structure constants read off by Cramer's
    # rule rebuild every bracket
    if name == "coxeter-B3":
        f = poly_from_text(*COXETER_B3)
        saito = find_saito_basis(compute_der_log(f), f)
    else:
        saito = corpus_member(name)[2]
    n = len(saito)
    zero = Polynomial.zero(saito.ring)
    det = saito.unit * saito.divisor
    mat = saito.matrix()
    table = saito.table()
    adj = [[table.polynomial(v) for v in row] for row in table.adjugate()]
    for i in range(n):
        for j in range(n):
            entry = sum((adj[i][r] * mat[r][j] for r in range(n)), zero)
            assert entry == (det if i == j else zero)
    sc = saito.structure_constants()
    for i in range(n):
        for j in range(n):
            assert expand_in_basis(sc, saito, i, j) \
                == lie_bracket(saito.fields[i], saito.fields[j])


def coefficient_rows(fields):
    """One row per field: its coefficients on the (component, monomial)
    terms that occur in any of the fields."""
    keys = sorted({(i, m) for d in fields for i, p in enumerate(d.components)
                   for m in p.terms})
    return [[d.components[i].terms.get(m, 0) for i, m in keys] for d in fields]


class TestAnnihilatorAndWeightZero:
    def test_annihilator_contains_diagonal_field(self):
        f = poly_from_text("y^2*z + x*z^2", R3)
        ann = linear_annihilators(f)
        assert all(apply_field(delta, f).is_zero() for delta in ann)
        sigma = field(R3, "4*x", "y", "-2*z")
        assert apply_field(sigma, f).is_zero()
        rows = coefficient_rows(ann + [sigma])
        assert linalg.rank(rows) == linalg.rank(rows[:-1]) == len(ann)

    def test_weight_zero_part_of_linear_divisor(self):
        f = poly_from_text("x*y*z", R3)
        saito = find_saito_basis(compute_der_log(f), f)
        linear = saito.linear_part()
        assert len(linear) == 3
        assert linear.field_weights(WeightSystem((1, 1, 1), 3)) == [0, 0, 0]
        for delta in linear.fields:
            for i, p in enumerate(delta.components):
                # the d/dx_i coefficient is a multiple of x_i
                assert all(m[j] == (j == i) for m in p.terms for j in range(3))
