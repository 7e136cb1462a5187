import random

from fractions import Fraction

import pytest

from logdiv.cohomology import (QuotientSlice, ft1, jacobian_degree_bound,
                               weighted_monomials)
from logdiv.errors import Budget, BudgetExceeded, NotHomogeneous
from logdiv.groebner import (
    GroebnerBasis,
    buchberger,
    krull_dimension,
    syzygies,
)
from logdiv.poly import (Polynomial, WeightSystem, partial_derivative,
                         poly_from_text, poly_to_text)

from conftest import from_sympy, random_poly, to_sympy

R2 = ("x", "y")
R3 = ("x", "y", "z")


def P(text, ring=R2):
    return poly_from_text(text, ring)


class TestBuchberger:
    def test_idempotent_and_generator_membership(self):
        gens = [P("x^2*y - 1"), P("x*y^2 - x")]
        gb = buchberger(gens)
        for g in gens:
            assert gb.reduces_to_zero(g)
        gb2 = buchberger(gb.elements)
        assert [poly_to_text(a) for a in gb.elements] == [poly_to_text(a) for a in gb2.elements]

    def test_zero_and_unit(self):
        gb = buchberger([Polynomial.zero(R2)])
        assert len(gb) == 0
        gb = buchberger([P("2")])
        assert [poly_to_text(g) for g in gb.elements] == ["1"]

    def test_normal_form_idempotent(self):
        gb = buchberger([P("x^2 - y"), P("y^2 - x")])
        f = P("x^4 + x*y + 3")
        nf = gb.normal_form(f)
        assert gb.normal_form(nf) == nf
        assert gb.reduces_to_zero(f - nf)

    def test_normal_form_linear_over_constants(self):
        gb = buchberger([P("x^2 - y"), P("y^2 - x")])
        f, g = P("x^3 + y"), P("x*y - 2")
        assert gb.normal_form(f + g) == gb.normal_form(f) + gb.normal_form(g)

    def test_groebner_oracle(self):
        import sympy

        rng = random.Random(424242)
        syms = sympy.symbols("x y")
        for _ in range(10):
            gens = [random_poly(rng, R2, max_deg=2, n_terms=3, coeff_range=3)
                    for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens)
            ref = sympy.groebner([to_sympy(g, syms) for g in gens],
                                 *syms, order="grevlex")
            ours = sorted(poly_to_text(g) for g in gb.elements)
            theirs = sorted(
                poly_to_text(from_sympy(e / sympy.LC(e, *syms, order="grevlex"), R2, syms))
                for e in ref.exprs
            )
            assert ours == theirs

    def test_homogeneous_stays_homogeneous(self):
        gens = [P("x^3*y - x*y^3"), P("x^4 + y^4")]
        gb = buchberger(gens)
        for g in gb.elements:
            assert len({sum(m) for m in g.terms}) == 1

    def test_budget(self):
        # leads share a variable, so S-pairs must actually be processed
        gens = [P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")]
        with pytest.raises(BudgetExceeded):
            with Budget(steps=1):
                buchberger(gens)

    def test_budget_is_shared_by_the_calls_in_one_block(self):
        gens = [P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")]
        with Budget() as spent:
            buchberger(gens)
        one_call = spent.steps - spent.left
        assert one_call >= 2
        steps = one_call + one_call // 2
        with Budget(steps=steps):
            buchberger(gens)
        with pytest.raises(BudgetExceeded):
            with Budget(steps=steps):
                buchberger(gens)
                buchberger(gens)

    def test_module_gb(self):
        x, y = (Polynomial.variable(R2, i) for i in range(2))
        zero, one = Polynomial.zero(R2), Polynomial.one(R2)
        gens = [[x, y], [y, x]]
        gb = buchberger(gens)
        assert gb.rank == 2
        assert gb.reduces_to_zero([x * x - y * y, zero])
        assert not gb.reduces_to_zero([one, zero])


class TestSyzygies:
    def _check_spans(self, syz, required, gens):
        # every required relation must reduce to zero against the syzygy module
        gb = buchberger(syz.elements)
        for row in required:
            assert gb.reduces_to_zero(row)

    def test_two_variables(self):
        x, y = (Polynomial.variable(R2, i) for i in range(2))
        s = syzygies([x, y])
        assert len(s) == 1
        self._check_spans(s, [[y, -1 * x]], [x, y])

    def test_three_generators(self):
        x, y = (Polynomial.variable(R2, i) for i in range(2))
        zero, one = Polynomial.zero(R2), Polynomial.one(R2)
        s = syzygies([x * y, y, x])
        required = [[-1 * one, x, zero], [zero, x, -1 * y]]
        self._check_spans(s, required, None)

    def test_rows_are_relations(self):
        gens = [P("x^2 - y"), P("x*y - 1"), P("y^2 - x")]
        s = syzygies(gens)
        assert len(s) >= 1
        for row in s.elements:
            acc = Polynomial.zero(R2)
            for q, g in zip(row, gens):
                acc = acc + q * g
            assert acc.is_zero()

    def test_zero_generator_gets_unit_row(self):
        x, y = (Polynomial.variable(R2, i) for i in range(2))
        s = syzygies([x, Polynomial.zero(R2), y])
        unit_rows = [row for row in s.elements
                     if row[1] == Polynomial.one(R2)
                     and row[0].is_zero() and row[2].is_zero()]
        assert unit_rows

    def test_random_relations_are_generated(self):
        # independent check: random module elements of the syzygy module
        # must lie in the span of the computed generators
        rng = random.Random(777)
        x, y = (Polynomial.variable(R2, i) for i in range(2))
        gens = [x * x, x * y, y * y]
        s = syzygies(gens)
        gb = buchberger(s.elements)
        for _ in range(10):
            a = random_poly(rng, R2, max_deg=2, n_terms=2, coeff_range=3)
            b = random_poly(rng, R2, max_deg=2, n_terms=2, coeff_range=3)
            # manufactured relation: a*(xy)*(x^2) - ... build from known ones
            row = [a * y, -1 * (a * x) + b * y, -1 * (b * x)]
            acc = Polynomial.zero(R2)
            for q, g in zip(row, gens):
                acc = acc + q * g
            assert acc.is_zero()
            assert gb.reduces_to_zero(row)

    def test_module_input(self):
        x, y = (Polynomial.variable(R2, i) for i in range(2))
        zero = Polynomial.zero(R2)
        gens = [[x, zero], [y, zero], [zero, x]]
        s = syzygies(gens)
        for row in s.elements:
            acc = [Polynomial.zero(R2), Polynomial.zero(R2)]
            for q, g in zip(row, gens):
                acc = [acc[0] + q * g[0], acc[1] + q * g[1]]
            assert all(p.is_zero() for p in acc)
        gb = buchberger(s.elements)
        assert gb.reduces_to_zero([y, -1 * x, zero])


class TestGradedQuotient:
    """Graded pieces of a module modulo homogeneous generators, computed
    by cohomology.QuotientSlice with linear algebra alone."""

    @staticmethod
    def jacobian(f):
        return [[partial_derivative(f, i)] for i in range(len(f.ring))]

    def test_weighted_monomials(self):
        ms = weighted_monomials((1, 1), 2)
        assert set(ms) == {(2, 0), (1, 1), (0, 2)}
        ms = weighted_monomials((4, 5), 20)
        assert set(ms) == {(5, 0), (0, 4)}
        assert weighted_monomials((1, 2), -1) == []

    def test_balanced_representative(self):
        # x^2*y^2 is the only weight-4 monomial of exponent spread 0 and
        # its class is nonzero, so ft1's spread-first scan picks it
        f = P("x^3*y - x*y^3")
        space = QuotientSlice(self.jacobian(f), [3, 3], [0],
                              WeightSystem((1, 1), 4), 4)
        assert space.dim == 1
        assert any(space.project([P("x^2*y^2")]))
        assert [poly_to_text(p) for p in ft1(f).deformed_equations] \
            == ["x^2*y^2"]

    def test_milnor_numbers_by_weight(self):
        # x^3*y - x*y^3 has Milnor algebra Hilbert series 1,2,3,2,1
        f = P("x^3*y - x*y^3")
        w = WeightSystem((1, 1), 4)
        dims = [QuotientSlice(self.jacobian(f), [3, 3], [0], w, k).dim
                for k in range(5)]
        assert dims == [1, 2, 3, 2, 1]
        assert QuotientSlice(self.jacobian(f), [3, 3], [0], w, 9).dim == 0

    def test_requires_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            jacobian_degree_bound(P("x^3 + y^3 + x*y"),
                                  w=WeightSystem((1, 1), 3))
        with pytest.raises(NotHomogeneous):
            jacobian_degree_bound(P("x^3*y - x*y^3"),
                                  w=WeightSystem((1, 1), 5))

    def test_component_shifts(self):
        x, y = (Polynomial.variable(R2, i) for i in range(2))
        zero = Polynomial.zero(R2)
        # submodule x*e0, y*e1 with shifts (0, -1), so y*e1 has weight 2;
        # weight-1 piece of the quotient: e0-monomials of weight 1 are x,
        # y; x dies, y survives. e1-monomials of weight 0: the constant;
        # survives.
        sub = [[x, zero], [zero, y]]
        space = QuotientSlice(sub, [1, 2], [0, -1], WeightSystem((1, 1), 1), 1)
        assert [space.ambient[k] for k in space.basis] \
            == [(0, (0, 1)), (1, (0, 0))]


class TestKrullDimension:
    def test_diagonal_symbols(self):
        for n in (1, 2, 3):
            names = tuple(f"x{i}" for i in range(n)) + tuple(f"u{i}" for i in range(n))
            gens = []
            for i in range(n):
                xi = Polynomial.variable(names, i)
                ui = Polynomial.variable(names, n + i)
                gens.append(xi * ui)
            assert krull_dimension(gens) == n

    def test_zero_ideal(self):
        assert krull_dimension([Polynomial.zero(R3)]) == 3

    def test_unit_ideal(self):
        assert krull_dimension([P("x + 1")] + [P("x")]) == -1

    def test_oracle_hypersurface(self):
        # a hypersurface in 3 variables has dimension 2
        assert krull_dimension([poly_from_text("x*y - z^2", R3)]) == 2

    def test_point(self):
        gens = [P("x"), P("y")]
        assert krull_dimension(gens) == 0
