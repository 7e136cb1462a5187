import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logdiv.errors import (Budget, BudgetExceeded, NotHomogeneous, ParseError,
                           ZeroOrConstantInput, current_budget)
from logdiv import linalg
from logdiv.poly import (
    MAX_NESTING,
    Polynomial,
    WeightSystem,
    _flatten,
    _Packing,
    _unflatten,
    detect_weight_system,
    partial_derivative,
    poly_from_text,
    poly_to_text,
    weighted_degree,
)

from logdiv.logder import is_squarefree

from conftest import (from_sympy, packed_adjugate, packed_det, packed_div,
                      random_poly, to_sympy)

R2 = ("x", "y")
R3 = ("x", "y", "z")


def P(text, ring=R2):
    return poly_from_text(text, ring)


class TestArithmetic:
    def test_add_sub(self):
        f = P("x^2 + y")
        g = P("x^2 - y")
        assert f + g == P("2*x^2")
        assert f - g == P("2*y")
        assert f - f == Polynomial.zero(R2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sub_is_the_coefficientwise_difference(self, data):
        # p - q against its definition: p's coefficient minus q's at each
        # monomial, zeros dropped, p's surviving monomials first in p's
        # order, then q's new ones in q's; q often shares terms with p,
        # and p - p cancels in full
        coeffs = st.one_of(st.integers(-9, 9), st.fractions(
            min_value=-3, max_value=3, max_denominator=4))
        monos = st.tuples(*[st.integers(0, 3)] * 2)
        p = data.draw(st.dictionaries(monos, coeffs, max_size=6))
        shared = data.draw(st.lists(st.sampled_from(sorted(p)), unique=True)
                           if p else st.just([]))
        q = {m: data.draw(st.sampled_from([p[m], data.draw(coeffs)]))
             for m in shared}
        q.update(data.draw(st.dictionaries(monos, coeffs, max_size=4)))
        q = data.draw(st.sampled_from([q, dict(p)]))
        p_poly, q_poly = Polynomial(R2, p), Polynomial(R2, q)
        expected = {}
        for m in list(p_poly.terms) + [m for m in q_poly.terms
                                       if m not in p_poly.terms]:
            c = p_poly.terms.get(m, 0) - q_poly.terms.get(m, 0)
            if c:
                expected[m] = c
        diff = p_poly - q_poly
        assert diff.terms == expected
        assert list(diff.terms) == list(expected)
        assert (p_poly - p_poly).is_zero()

    def test_mul(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")
        assert P("x") * 3 == P("3*x")
        assert 3 * P("x") == P("3*x")
        assert P("x") * Fraction(1, 2) == P("1/2*x")

    def test_pow(self):
        f = P("x + y")
        assert f ** 0 == Polynomial.one(R2)
        assert f ** 1 == f
        assert f ** 3 == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
        with pytest.raises(ValueError):
            f ** -1

    def test_zero_pruning(self):
        f = P("x") + P("-x")
        assert f.is_zero()
        assert not f.terms

    def test_mul_oracle(self):
        import sympy

        rng = random.Random(20260817)
        syms = sympy.symbols("x y z")
        for _ in range(25):
            f = random_poly(rng, R3)
            g = random_poly(rng, R3)
            left = to_sympy(f * g, syms)
            right = sympy.expand(to_sympy(f, syms) * to_sympy(g, syms))
            assert sympy.simplify(left - right) == 0

    def test_try_exact_div(self):
        f = P("x^2 - y^2")
        assert packed_div(f, P("x - y")) == P("x + y")
        assert packed_div(f, P("x")) is None


class TestParsePrint:
    @pytest.mark.parametrize("text", [
        "x^3*y - x*y^3",
        "x^2 + 2*x*y + y^2",
        "-x + 1/2*y",
        "0",
        "1",
        "-7",
        "x*y*(x + y)",
        "(x + y)^2 - (x - y)^2",
    ])
    def test_roundtrip(self, text):
        f = P(text)
        assert poly_from_text(poly_to_text(f), R2) == f

    def test_canonical_text(self):
        assert poly_to_text(P("y + x")) == "x + y"
        assert poly_to_text(P("-x^2 + y")) == "-x^2 + y"
        assert poly_to_text(Polynomial.zero(R2)) == "0"
        assert poly_to_text(P("3/4*x")) == "3/4*x"
        assert poly_to_text(P("x - 1*y")) == "x - y"

    @pytest.mark.parametrize("bad", ["x +", "w", "x^", "x^-2", "1/0", "x**2", "(x"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            P(bad)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            poly_from_text("x + t", R2)

    def test_nesting_limit(self):
        assert MAX_NESTING == 100
        assert P("(" * 100 + "x*y" + ")" * 100) == P("x*y")
        assert P("-(" * 100 + "x" + ")" * 100) == P("x")
        with pytest.raises(ParseError, match="nested deeper than 100"):
            P("(" * 101 + "x" + ")" * 101)


class TestCoefficientTypes:
    """A coefficient is an int when its value is an integer and a Fraction
    only when it is not, wherever one is formed."""

    def test_constructors_form_ints(self):
        half = Fraction(1, 2)
        for p in (P("4/2*x + 3*y - 6/3"), Polynomial(R2, {(1, 0): Fraction(4, 2)}),
                  Polynomial.constant(R2, Fraction(6, 3)),
                  Polynomial.monomial(R2, (1, 1), Fraction(-8, 4)),
                  Polynomial.variable(R2, 0), P("2*x + 4*y").scale(half),
                  P("2*x").mul_term((0, 1), half), partial_derivative(P("x^3"), 0)):
            assert all(type(c) is int for c in p.terms.values()), p
        assert P("1/2*x + 3/6*y").terms == {(1, 0): half, (0, 1): half}
        assert type(P("1/2*x").terms[(1, 0)]) is Fraction
        assert type(Polynomial(R2, {(0, 0): True}).terms[(0, 0)]) is int

    def test_constant_is_the_monomial_at_the_origin(self):
        two = Polynomial.constant(R2, Fraction(4, 2))
        assert two.terms == {(0, 0): 2} and type(two.terms[(0, 0)]) is int
        assert Polynomial.constant(R2, 0).is_zero()
        assert Polynomial.constant(R2, Fraction(0)).is_zero()
        assert Polynomial.constant(R3, Fraction(-1, 3)).terms \
            == {(0, 0, 0): Fraction(-1, 3)}

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * 3),
        st.one_of(st.integers(-40, 40),
                  st.fractions(min_value=-5, max_value=5, max_denominator=6)),
        max_size=6), min_size=1, max_size=3))
    def test_packed_round_trip_keeps_types(self, dicts):
        vec = [Polynomial(R3, d) for d in dicts]
        lay = _Packing(3)
        back = _unflatten(_flatten(vec, lay), R3, len(vec), lay)
        assert back == vec
        for p, q in zip(vec, back):
            assert {m: type(c) for m, c in p.terms.items()} \
                == {m: type(c) for m, c in q.terms.items()}
            assert all(type(c) is int or c.denominator != 1
                       for c in q.terms.values())

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 2),
                           st.integers(-40, 40).filter(bool), max_size=5))
    def test_integral_fraction_prints_as_int(self, terms):
        ints = Polynomial(R2, terms, False)
        fractions = Polynomial(R2, {m: Fraction(c) for m, c in terms.items()},
                               False)
        assert ints == fractions
        assert poly_to_text(ints) == poly_to_text(fractions)
        assert poly_from_text(poly_to_text(fractions), R2) == ints


class TestCalculus:
    def test_partial(self):
        f = P("x^3*y - x*y^3")
        assert partial_derivative(f, 0) == P("3*x^2*y - y^3")
        assert partial_derivative(f, 1) == P("x^3 - 3*x*y^2")
        with pytest.raises(IndexError):
            partial_derivative(f, 2)

    @pytest.mark.parametrize("i", [-1, -2, 2, 3])
    def test_variable_index_out_of_range(self, i):
        # as partial_derivative: a negative index is not read from the end
        with pytest.raises(IndexError):
            Polynomial.variable(R2, i)

    def test_euler_relation(self):
        # weighted Euler identity: sum w_i x_i df/dx_i = d * f
        f = P("x^5 + y^4")
        w = (4, 5)
        x, y = (Polynomial.variable(R2, i) for i in range(2))
        lhs = 4 * x * partial_derivative(f, 0) + 5 * y * partial_derivative(f, 1)
        assert lhs == 20 * f

    def test_weighted_degree(self):
        f = P("x^5 + y^4")
        assert weighted_degree(f, (4, 5)) == 20
        assert weighted_degree(Polynomial.zero(R2), (1, 1)) is None
        with pytest.raises(NotHomogeneous) as ei:
            weighted_degree(P("x^3 + y^3 + x*y"), (1, 1))
        assert ei.value.degrees == {2, 3}


class TestWeightSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSystem((0, 1), 3)
        with pytest.raises(ValueError):
            WeightSystem((-1, 2), 3)

    def test_the_search_charges_each_exponent_entry(self):
        # y^2*z + x*z^2: the one exponent difference (1, -2, 1) has a
        # kernel of dimension 2, and the first candidate (1, 1, 1) is
        # checked on 2 exponents of 3 entries
        f = P("y^2*z + x*z^2", R3)
        with Budget(10**6) as kernel:
            linalg.kernel([[1], [-2], [1]], 1)
        with Budget(10**6) as budget:
            assert detect_weight_system(f) == WeightSystem((1, 1, 1), 3)
        spent = budget.steps - budget.left
        assert spent == kernel.steps - kernel.left + 6

    @pytest.mark.parametrize("n", [1, 2, 12])
    def test_a_single_term_is_graded_by_the_kernel(self, n):
        # one exponent: no differences, so the kernel is every unit
        # vector; in two or more variables the search's first candidate,
        # (1, ..., 1), holds, checked on 1 exponent of n entries, and in
        # one variable the one kernel vector is the weight
        ring = tuple(f"x{i}" for i in range(n))
        f = Polynomial.monomial(ring, tuple(range(1, n + 1)), -3)
        with Budget(10**6) as budget:
            w = detect_weight_system(f)
        assert w == WeightSystem((1,) * n, n * (n + 1) // 2)
        assert w.degree == f.total_degree()
        assert budget.steps - budget.left == (n if n > 1 else 0)

    def test_the_search_is_bounded_by_the_budget(self):
        # a kernel of dimension 6 in 8 variables and no positive weight
        # vector (w_b + w_d = 0), though no weight is 0 on the whole
        # kernel: the search would try every composition up to the cap
        ring = ("a", "b", "c", "d", "e", "g", "h", "k")
        f = poly_from_text("a*c + a*b*c*d + c*d*e*g*h*k", ring)
        with pytest.raises(BudgetExceeded):
            with Budget(steps=10**5):
                detect_weight_system(f)


class TestSquarefree:
    @pytest.mark.parametrize("text,expected", [
        ("x^3*y - x*y^3", True),
        ("x*y", True),
        ("x^2*y", False),
        ("x^2 - y^2", True),
        ("x^2 + 2*x*y + y^2", False),
        ("x^5 + y^4", True),
    ])
    def test_cases(self, text, expected):
        assert is_squarefree(P(text)) is expected

    def test_three_vars(self):
        f = poly_from_text("(y^2 + x*z)*z", R3)
        assert is_squarefree(f)
        assert not is_squarefree(poly_from_text("(y^2 + x*z)^2*z", R3))

    def test_rejects_constants(self):
        with pytest.raises(ZeroOrConstantInput):
            is_squarefree(Polynomial.zero(R2))
        with pytest.raises(ZeroOrConstantInput):
            is_squarefree(P("5"))

    def test_oracle(self):
        import sympy

        rng = random.Random(5511)
        syms = sympy.symbols("x y")
        for _ in range(15):
            f = random_poly(rng, R2, max_deg=2, n_terms=3)
            if f.is_zero() or f.is_constant():
                continue
            expr = to_sympy(f, syms)
            theirs = sympy.factor_list(expr)
            square = any(mult > 1 for _, mult in theirs[1])
            assert is_squarefree(f) is (not square)

    def test_oracle_three_variables(self):
        import sympy

        rng = random.Random(61027)
        syms = sympy.symbols("x y z")
        seen = set()
        for k in range(16):
            a = random_poly(rng, R3, max_deg=2, n_terms=3, coeff_range=3)
            b = random_poly(rng, R3, max_deg=1, n_terms=3, coeff_range=3)
            f = a * b * b if k % 2 else a * b
            if f.is_constant():
                continue
            _, factors = sympy.factor_list(to_sympy(f, syms))
            square = any(mult > 1 for _, mult in factors)
            assert is_squarefree(f) is (not square)
            seen.add(square)
        assert seen == {True, False}

    def test_arrangement_with_a_doubled_hyperplane(self):
        ring = ("x1", "x2", "x3")
        b3 = poly_from_text(
            "x1*x2*x3*(x1^2-x2^2)*(x1^2-x3^2)*(x2^2-x3^2)", ring)
        assert is_squarefree(b3)
        assert not is_squarefree(b3 * poly_from_text("x1 - x3", ring))

    def test_is_charged_to_the_budget(self):
        ring = ("x1", "x2", "x3", "x4")
        b4 = poly_from_text("x1*x2*x3*x4*" + "*".join(
            f"(x{i}^2-x{j}^2)" for i in range(1, 5) for j in range(i + 1, 5)),
            ring)
        with pytest.raises(BudgetExceeded):
            with Budget(steps=5):
                is_squarefree(b4)


class TestDeterminant:
    def test_known(self):
        x, y, z = (Polynomial.variable(R3, i) for i in range(3))
        m = [[x, y], [y, x]]
        assert packed_det(m) == x * x - y * y

    def test_saito_matrix_example(self):
        # coefficient matrix of the weight-zero fields of (y^2 + x*z)*z
        x, y, z = (Polynomial.variable(R3, i) for i in range(3))
        m = [
            [x, 4 * x, -2 * y],
            [y, y, z],
            [z, -2 * z, Polynomial.zero(R3)],
        ]
        f = (y * y + x * z) * z
        assert packed_det(m) == 6 * f

    def test_constant_matrix_is_charged_to_the_budget(self):
        # constant entries take the one cofactor expansion too: three
        # nonzero 2x2 minors of two products each, then three products
        # with them, one step per pair of terms
        m = [[Polynomial.constant(R3, c) for c in row]
             for row in ([2, 1, 3], [1, 4, 1], [5, 2, 7])]
        with pytest.raises(BudgetExceeded):
            with Budget(steps=8):
                packed_det(m)
        with Budget(steps=9) as budget:
            assert packed_det(m) == Polynomial.constant(R3, -4)
        assert budget.left == 0

    def test_adjugate_charges_every_minor_to_one_budget(self):
        # nine 2x2 minors of nonzero constants, two one-term products each
        m = [[Polynomial.constant(R3, c) for c in row]
             for row in ([2, 1, 3], [1, 4, 1], [5, 2, 7])]
        with pytest.raises(BudgetExceeded):
            with Budget(steps=17):
                packed_adjugate(m)
        with Budget(steps=18) as budget:
            adj = packed_adjugate(m)
        assert budget.left == 0
        det = Polynomial.constant(R3, -4)
        for i in range(3):
            for j in range(3):
                s = sum((adj[i][k] * m[k][j] for k in range(3)),
                        Polynomial.zero(R3))
                assert s == (det if i == j else Polynomial.zero(R3))

    def test_budget_may_be_entered_again_while_active(self):
        budget = Budget()
        with budget:
            with current_budget() as inner:
                assert inner is budget
            assert current_budget() is budget
        assert current_budget() is not budget

    def test_det_oracle(self):
        import sympy

        rng = random.Random(314159)
        syms = sympy.symbols("x y z")
        for _ in range(8):
            m = [[random_poly(rng, R3, max_deg=1, n_terms=2, coeff_range=2)
                  for _ in range(3)] for _ in range(3)]
            ours = packed_det(m)
            sm = sympy.Matrix([[to_sympy(e, syms) for e in row] for row in m])
            theirs = from_sympy(sm.det(), R3, syms)
            assert ours == theirs
