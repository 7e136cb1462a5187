import hashlib
import itertools
import random
import time

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from logdiv.cohomology import (QuotientSlice, ft1, jacobian_degree_bound,
                               weighted_monomials)
from logdiv.errors import Budget, BudgetExceeded, NotHomogeneous
from logdiv.groebner import (
    GroebnerBasis,
    _Packing,
    _reduce_full,
    buchberger,
    dimension_at_most,
    syzygies,
    syzygy_stream,
)
from logdiv.poly import (Polynomial, WeightSystem, degrevlex_key, m_div,
                         m_lcm, partial_derivative, poly_from_text,
                         poly_to_text)

from conftest import (assert_relations_generate_the_reference,
                      assert_syzygies, coxeter_gens, from_sympy, random_poly,
                      to_sympy, unpacked, without_chain_criterion)

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
        assert any(space.project({(0, (2, 2)): Fraction(1)}).values())
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


def assert_dimension(gens, d):
    """The dimension of the ideal is d: dimension_at_most holds at d and
    fails at d - 1 (no ideal has dimension below -1)."""
    assert dimension_at_most(gens, d)
    assert d == -1 or not dimension_at_most(gens, d - 1)


def sympy_dimension(gens, n):
    """dim R/I from the lead monomials of sympy's reduced Groebner basis:
    the largest set of variables holding no lead's support; -1 for the
    unit ideal, n for the zero ideal."""
    import sympy

    xs = sympy.symbols(f"v0:{n}")
    exprs = [to_sympy(g, xs) for g in gens if not g.is_zero()]
    if not exprs:
        return n
    gb = sympy.groebner(exprs, *xs, order="grevlex")
    supports = [{i for i, e in enumerate(sympy.Poly(g, *xs).monoms(
        order="grevlex")[0]) if e} for g in gb.exprs]
    return max((r for r in range(n + 1)
                for c in itertools.combinations(range(n), r)
                if not any(sup <= set(c) for sup in supports)), default=-1)


@st.composite
def ideals(draw):
    """(generators, n): up to three polynomials in n <= 3 variables, not
    homogeneous, with p/q coefficients; constants and zeros included."""
    n = draw(st.integers(1, 3))
    ring = R3[:n]
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    gens = draw(st.lists(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n), coeff, max_size=3),
        min_size=1, max_size=3))
    return [Polynomial(ring, terms) for terms in gens], n


@st.composite
def homogeneous_ideals(draw):
    """(generators, n): those of ideals() in at most two variables, each
    homogenized by one more variable."""
    gens, n = draw(ideals().filter(lambda ideal: ideal[1] <= 2))
    out = []
    for g in gens:
        d = g.total_degree() or 0
        out.append(Polynomial(R3[:n + 1], {m + (d - sum(m),): c
                                           for m, c in g.terms.items()}))
    return out, n + 1


class TestKrullDimension:
    """Krull dimensions by dimension_at_most, two-sided."""

    def test_diagonal_symbols(self):
        for n in (1, 2, 3):
            names = tuple(f"x{i}" for i in range(n)) + tuple(f"u{i}" for i in range(n))
            gens = []
            for i in range(n):
                xi = Polynomial.variable(names, i)
                ui = Polynomial.variable(names, n + i)
                gens.append(xi * ui)
            assert_dimension(gens, n)

    def test_zero_ideal(self):
        assert_dimension([Polynomial.zero(R3)], 3)

    def test_unit_ideal(self):
        assert_dimension([P("x + 1")] + [P("x")], -1)

    def test_oracle_hypersurface(self):
        # a hypersurface in 3 variables has dimension 2
        assert_dimension([poly_from_text("x*y - z^2", R3)], 2)

    def test_point(self):
        gens = [P("x"), P("y")]
        assert_dimension(gens, 0)

    @settings(max_examples=80, deadline=None)
    @given(ideals())
    def test_against_sympy_lead_monomials(self, ideal):
        gens, n = ideal
        d = sympy_dimension(gens, n)
        with Budget(10**6):
            assert [dimension_at_most(gens, k) for k in range(-1, n + 1)] \
                == [d <= k for k in range(-1, n + 1)]

    def test_deadline_is_read_in_the_independent_set_search(self):
        # the edge ideal of 12 disjoint triangles in 36 variables has
        # dimension 12, its independence number: no 13 variables hold none
        # of the 36 edges, but the disjoint-support bound only removes one
        # variable per triangle, so the search visits millions of nodes
        # before it can answer True
        ring = tuple(f"x{i}" for i in range(36))
        x = [Polynomial.variable(ring, i) for i in range(36)]
        gens = [x[3 * t + a] * x[3 * t + b] for t in range(12)
                for a, b in ((0, 1), (0, 2), (1, 2))]
        start = time.monotonic()
        with pytest.raises(BudgetExceeded):
            with Budget(seconds=0.3):
                dimension_at_most(gens, 12)
        assert time.monotonic() - start < 1

    def test_a_true_answer_stops_the_run(self):
        # the singular locus of the braid arrangement A3 in 4 variables is
        # the union of the planes where its hyperplanes meet: leads of
        # (f, grad f) certify dimension <= 2 after 53 steps (47 of the run,
        # 6 of the independent-set search), before the run ends, which the
        # False answer at 1 has to reach (61 steps, no search)
        gens = coxeter_gens("braid-A3")
        with Budget(10**9) as early:
            assert dimension_at_most(gens, 2)
        with Budget(10**9) as full:
            assert not dimension_at_most(gens, 1)
        assert early.steps - early.left < full.steps - full.left


def term_key(t):
    """Position over term: component 0 dominates, then degrevlex."""
    return (-t[0], degrevlex_key(t[1]))


def packed_reduce(v, basis, leads, budget, track, sugar, sugars):
    """_reduce_full on Fraction dicts keyed by (component, exponent) terms
    and on monic basis elements, converted at its boundary: the remainder
    comes back as a Fraction dict in the kernel's term order, the
    quotient records summed, in step order, into one dict per basis
    element keyed by exponent tuples, and the sugar in its box. The
    records must sum back to v exactly: v = sum (c / D) * x^shift *
    basis[j] + remainder."""
    lay = _Packing(len(leads[0][1]))

    def packed(d):
        den = lcm(*(co.denominator for co in d.values()))
        return {lay.pack(*t): int(co * den) for t, co in d.items()}, den

    if sugars is None:
        sugars = [max(sum(m) for _, m in b) for b in basis]
    (rem, den), recs, sug = _reduce_full(
        packed(v), [packed(b) for b in basis],
        [lay.pack(*ld) for ld in leads], sugars, 0, budget, lay, track)
    if sugar is not None:
        sugar[0] = sug
    rem = {lay.unpack(t): Fraction(a, den) for t, a in rem.items()}
    quots = None
    if recs is not None:
        quots, total = [{} for _ in basis], dict(rem)
        for j, s, c, d in recs:  # c over the working denominator d
            e = lay.unpack(s)[1]
            quots[j][e] = quots[j].get(e, 0) + Fraction(c, d)
            for (bc, bm), co in basis[j].items():
                u = (bc, tuple(a + b for a, b in zip(bm, e)))
                total[u] = total.get(u, 0) + Fraction(c, d) * co
        assert {t: co for t, co in total.items() if co} == v
    return rem, quots


def max_scan_reduce(v, basis, leads, budget, track, sugar, sugars):
    """Reference reduction that rescans the working element with max()
    for its largest term at every step. Returns what _reduce_full returns
    plus the number of terms that cancelled and came back later."""
    p = dict(v)
    rem = {}
    quots = [dict() for _ in basis] if track else None
    cancelled, returned = set(), 0
    while p:
        t = max(p, key=term_key)
        c = p[t]
        comp, expo = t
        hit = next((j for j, (lc, le) in enumerate(leads) if lc == comp
                    and all(a <= b for a, b in zip(le, expo))), None)
        if hit is None:
            rem[t] = c
            del p[t]
            continue
        budget.spend()
        shift = tuple(a - b for a, b in zip(expo, leads[hit][1]))
        for (bc, bm), co in basis[hit].items():
            u = (bc, tuple(a + b for a, b in zip(bm, shift)))
            if u not in p and u in cancelled:
                returned += 1
            s = p.get(u, 0) + -c * co
            if s:
                p[u] = s
            elif u in p:
                del p[u]
                if u != t:
                    cancelled.add(u)
        if track:
            q = quots[hit]
            q[shift] = q.get(shift, 0) + c
        if sugar is not None:
            sugar[0] = max(sugar[0], sugars[hit] + sum(shift))
    return rem, quots, returned


def random_element(rng, rank, nvars, n_terms):
    v = {}
    for _ in range(n_terms):
        m = tuple(rng.randint(0, 2) for _ in range(nvars))
        c = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 3]))
        v[(rng.randrange(rank), m)] = c
    return v


def random_reductions(seed):
    """Five (element, monic basis, leads, sugars) inputs from one seed;
    each element is a shifted basis element plus noise, so that terms
    cancel during its reduction."""
    rng = random.Random(seed)
    rank, nvars = rng.choice([(1, 2), (1, 3), (2, 2), (3, 3)])
    basis, leads = [], []
    for _ in range(rng.randint(1, 4)):
        b = random_element(rng, rank, nvars, rng.randint(2, 6))
        ld = max(b, key=term_key)
        basis.append({t: co / b[ld] for t, co in b.items()})
        leads.append(ld)
    sugars = [rng.randint(0, 4) for _ in basis]
    for _ in range(5):
        v = random_element(rng, rank, nvars, rng.randint(1, 8))
        b = rng.choice(basis)
        e = tuple(rng.randint(0, 1) for _ in range(nvars))
        for (c, m), co in b.items():
            t = (c, tuple(x + y for x, y in zip(m, e)))
            v[t] = v.get(t, 0) + co
        yield {t: co for t, co in v.items() if co}, basis, leads, sugars


def compare_with_max_scan(v, basis, leads, track=True, sugars=None):
    """Run both kernels on one input, assert they agree, and return how
    many terms cancelled and came back in the reference run."""
    snapshot = dict(v)
    results = []
    for kernel in (packed_reduce, max_scan_reduce):
        budget = Budget(10**6)
        sugar = None if sugars is None else [0]
        rem, quots, *returned = kernel(v, basis, leads, budget, track=track,
                                       sugar=sugar, sugars=sugars)
        results.append((list(rem.items()),  # the term order counts too
                        quots and [list(q.items()) for q in quots],
                        sugar, budget.left))
    assert results[0] == results[1]
    assert v == snapshot
    return returned[0]


class TestReduceFullAgainstMaxScan:
    """_reduce_full takes each next term from a heap of packed terms and
    works in integers; the reference takes it by a max() rescan over
    Fractions. Remainders with their term order, quotients, sugar and
    budget steps must all agree."""

    def test_a_term_that_cancels_and_comes_back(self):
        # x^2 + y^2 minus x^2 - x*y + y^2 cancels y^2 and leaves x*y, whose
        # reduction by x*y + y^2 brings y^2 back into the remainder
        x2, xy, y2 = (0, (2, 0)), (0, (1, 1)), (0, (0, 2))
        v = {x2: Fraction(1), y2: Fraction(1)}
        basis = [{x2: Fraction(1), xy: Fraction(-1), y2: Fraction(1)},
                 {xy: Fraction(1), y2: Fraction(1)}]
        assert compare_with_max_scan(v, basis, [x2, xy]) == 1
        rem, _ = packed_reduce(v, basis, [x2, xy], Budget(10), False, None,
                               None)
        assert rem == {y2: Fraction(-1)}

    @pytest.mark.parametrize("seed", range(40))
    def test_random_module_elements(self, seed):
        for v, basis, leads, sugars in random_reductions(seed):
            compare_with_max_scan(v, basis, leads, track=bool(seed % 2),
                                  sugars=sugars)

    def test_random_inputs_include_returning_terms(self):
        returned = sum(compare_with_max_scan(v, basis, leads)
                       for seed in range(40)
                       for v, basis, leads, _ in random_reductions(seed))
        assert returned > 0


def random_terms(seed, count=60):
    """Distinct (component, exponent) terms in up to 4 variables with
    exponents up to the largest packed degree, from one seed."""
    rng = random.Random(seed)
    nvars = rng.randint(1, 4)
    top = _Packing(nvars).top
    terms = set()
    while len(terms) < count:
        cap = rng.choice([3, 12, top])
        m = [0] * nvars
        for _ in range(rng.randint(0, 6)):
            m[rng.randrange(nvars)] += rng.randint(0, cap - sum(m))
        terms.add((rng.randrange(3), tuple(m)))
    return _Packing(nvars), sorted(terms)


class TestPackedTerms:
    """Packed terms against the tuple operations they replace."""

    @pytest.mark.parametrize("seed", range(10))
    def test_flipped_key_sorts_like_the_term_order(self, seed):
        lay, terms = random_terms(seed)
        packed = sorted(lay.pack(*t) ^ lay.flip for t in terms)
        assert [lay.unpack(k ^ lay.flip) for k in packed] \
            == sorted(terms, key=term_key, reverse=True)

    @pytest.mark.parametrize("seed", range(10))
    def test_divisibility_and_shift(self, seed):
        lay, terms = random_terms(seed, count=40)
        divisible = 0
        for a in terms:
            for b in terms:
                ok = a[0] == b[0] and all(x <= y for x, y in zip(a[1], b[1]))
                assert lay.divides(lay.pack(*a), lay.pack(*b)) == ok
                if ok:
                    divisible += 1
                    shift = lay.pack(*b) - lay.pack(*a)
                    assert lay.unpack(shift) == (0, m_div(b[1], a[1]))
        assert divisible > len(terms)

    @pytest.mark.parametrize("seed", range(10))
    def test_pack_then_unpack(self, seed):
        lay, terms = random_terms(seed)
        assert [lay.unpack(lay.pack(*t)) for t in terms] == terms

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_lcm_is_the_packed_m_lcm(self, data):
        n = data.draw(st.integers(1, 10))
        lay = _Packing(n)
        field = st.one_of(st.integers(0, 3), st.integers(0, lay.top))

        def exponents():
            e = data.draw(st.lists(field, min_size=n, max_size=n))
            # scaled down into the field when the degree does not fit
            if sum(e) > lay.top:
                e = [x * lay.top // sum(e) for x in e]
            return tuple(e)

        c, a, b = data.draw(st.integers(0, 3)), exponents(), exponents()
        if sum(m_lcm(a, b)) <= lay.top:
            assert lay.lcm(lay.pack(c, a), lay.pack(c, b)) \
                == lay.pack(c, m_lcm(a, b))
        else:
            with pytest.raises(BudgetExceeded, match="packed degree"):
                lay.lcm(lay.pack(c, a), lay.pack(c, b))

    def test_lcm_past_the_top_exceeds_the_budget(self):
        lay = _Packing(2)
        assert lay.lcm(lay.pack(1, (lay.top - 1, 0)), lay.pack(1, (0, 1))) \
            == lay.pack(1, (lay.top - 1, 1))
        with pytest.raises(BudgetExceeded, match=f"degree {lay.top + 1} "):
            lay.lcm(lay.pack(1, (lay.top, 0)), lay.pack(1, (0, 1)))

    @pytest.mark.parametrize("gens", [
        ["x^32768 + y"],            # one exponent past the field
        ["x^20000*y^20000 - 1"],    # each exponent fits, the degree does not
        ["x^20000*y", "x*y^20000"],  # an S-pair whose lcm does not fit
    ])
    def test_a_degree_past_the_field_exceeds_the_budget(self, gens):
        with pytest.raises(BudgetExceeded, match="packed degree"):
            buchberger([P(g) for g in gens])

    def test_a_module_term_above_the_lead_is_bounded_too(self):
        # the lcm of the leads x and y has degree 2, but y times the second
        # component's y^32767 would overflow: the pair's sugar catches it
        top = _Packing(2).top
        with pytest.raises(BudgetExceeded, match="packed degree"):
            buchberger([[P("x"), P(f"y^{top}")], [P("y"), P("0")]])
        assert len(buchberger([[P("x"), P(f"y^{top - 1}")],
                               [P("y"), P("0")]])) == 3


class TestPinnedEngine:
    """The step counts and outputs of the Groebner engine on (f, grad f)
    of three Coxeter arrangements, fixed so that a faster engine must do
    the same work and return the same rows."""

    @pytest.mark.parametrize("name, steps", [
        ("braid-A3", 149), ("coxeter-B3", 52), ("coxeter-D4", 210)])
    def test_step_counts(self, name, steps):
        gens = coxeter_gens(name)
        with Budget(10**9) as budget:
            syzygies(gens)
            buchberger(gens)
        assert budget.steps - budget.left == steps

    def test_coxeter_b3_syzygy_rows(self):
        rows = syzygies(coxeter_gens("coxeter-B3")).elements
        assert [tuple(poly_to_text(p) for p in row) for row in rows] \
            == B3_SYZYGY_ROWS


# syzygies(f, df/dx1, df/dx2, df/dx3) for the Coxeter arrangement B3,
# f = x1*x2*x3*(x1^2 - x2^2)*(x1^2 - x3^2)*(x2^2 - x3^2), row by row
B3_SYZYGY_ROWS = [
    ("9",
     "-x1",
     "-x2",
     "-x3"),
    ("3/2*x1^2 + 3/2*x2^2 - 6/5*x3^2",
     "-3/10*x1^3 + 3/10*x1*x3^2",
     "-3/10*x2^3 + 3/10*x2*x3^2",
     "0"),
    ("5/2*x1^3 + 5/2*x1*x2^2 - 2*x1*x3^2",
     "-1/2*x1^4 + 1/2*x1^2*x3^2",
     "-1/2*x1*x2^3 + 1/2*x1*x2*x3^2",
     "0"),
    ("60/7*x1^2*x2^2 - 15/14*x1^2*x3^2 - 15/14*x2^2*x3^2",
     "-15/14*x1^3*x2^2 + 15/14*x1*x2^2*x3^2",
     "-15/14*x1^2*x2^3 + 15/14*x1^2*x2*x3^2",
     "0"),
    ("-12*x1^2*x2^4 + 173/14*x1^2*x2^2*x3^2 + 3/2*x2^4*x3^2"
     " - 19/14*x1^2*x3^4 - 19/14*x2^2*x3^4",
     "3/2*x1^3*x2^4 - 19/14*x1^3*x2^2*x3^2 - 3/2*x1*x2^4*x3^2"
     " + 19/14*x1*x2^2*x3^4",
     "3/2*x1^2*x2^5 - 20/7*x1^2*x2^3*x3^2 + 19/14*x1^2*x2*x3^4",
     "0"),
]


def row_texts(rows):
    return [tuple(poly_to_text(p) for p in row) for row in rows]


def row_degree(row, gens):
    """The s with component c of degree s - deg(gens[c]) for each c with
    gens[c] nonzero; None for the unit row of a zero generator."""
    degrees = {sum(m) + gens[c].total_degree()
               for c, p in enumerate(row) if not gens[c].is_zero()
               for m in p.terms}
    assert len(degrees) <= 1
    return degrees.pop() if degrees else None


STREAM_INPUTS = {
    "coxeter-B3": lambda: coxeter_gens("coxeter-B3"),
    "braid-A3": lambda: coxeter_gens("braid-A3"),
    # x^2 reduces by the first generator to -y^2, whose lead only the
    # S-pair of the two generators, at sugar 2, puts in the basis
    "needs-a-pair": lambda: [P("x^2 + y^2"), P("x^2")],
    "zero-generator": lambda: [P("x"), P("0"), P("y")],
    # (f, grad f) of the corpus entry line-1, f = x + y: the one corpus
    # Jacobian whose stream loses a row without the division rows, as the
    # second gradient entry's division row (0, -1, 1) was the negative of
    # the relation of the two entries' S-pair
    "line-1": lambda: [P("x + y"), P("1"), P("1")],
}


# the sorted row texts of each drained stream; braid A3's 5 rows (4 kB of
# text) are pinned by their count and the sha256 of repr(texts)
STREAM_ROWS = {
    "coxeter-B3": sorted(B3_SYZYGY_ROWS),
    "braid-A3": (5, "0034da87fc2342d3e7d575f01a941955"
                    "cad77d000f6e86a1e83dc868a3927b84"),
    "needs-a-pair": [("-x^2", "x^2 + y^2")],
    "zero-generator": [("0", "1", "0"), ("y", "0", "-x")],
    "line-1": [("0", "1", "-1"), ("1", "-x - y", "0")],
}


def stream_rows(gens):
    """syzygy_stream(gens), its rows as lists of Polynomials."""
    return unpacked(syzygy_stream(gens), gens[0].ring, len(gens))


class TestSyzygyStream:
    @pytest.mark.parametrize("name", STREAM_INPUTS)
    def test_drained_it_has_the_rows_of_syzygies(self, name):
        gens = STREAM_INPUTS[name]()
        streamed = [row for _, rows in stream_rows(gens) for row in rows]
        assert_syzygies(streamed, gens)
        texts = sorted(row_texts(streamed))
        if name == "braid-A3":
            digest = hashlib.sha256(repr(texts).encode()).hexdigest()
            assert (len(texts), digest) == STREAM_ROWS[name]
        else:
            assert texts == STREAM_ROWS[name]
        assert texts == sorted(row_texts(syzygies(gens).elements))

    @pytest.mark.parametrize("name", STREAM_INPUTS)
    def test_rows_come_between_their_pauses(self, name):
        # homogeneous generators: rows of degree <= s by the pause at s,
        # and only rows of larger degree after it
        gens = STREAM_INPUTS[name]()
        before = None
        for s, rows in stream_rows(gens):
            degrees = [row_degree(row, gens) for row in rows]
            for degree in (d for d in degrees if d is not None):
                assert before is None or degree > before
                assert s is None or degree <= s
            before = s

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(ideals(), homogeneous_ideals()), st.integers(0, 1))
    def test_pair_relations_generate_the_division_rows(self, ideal, first):
        # the tracked run's rows against the stream that also made one
        # division row per generator, cut at first: each is one of its
        # rows, they generate all of them and, on homogeneous generators,
        # at each pause those of its degree
        gens, _ = ideal
        with Budget(10**6):
            assert_relations_generate_the_reference(gens, first)
            assert_syzygies(syzygies(gens).elements, gens)

    def test_inhomogeneous_generators_give_one_batch_in_order(self):
        gens = [P("x^2 - y"), P("x*y - 1"), P("y^2 - x")]
        batches = list(stream_rows(gens))
        assert len(batches) == 1 and batches[0][0] is None
        assert_syzygies(batches[0][1], gens)
        assert row_texts(batches[0][1]) == [
            ("y", "-x", "1"), ("-1", "y", "-x"), ("y^2 - x", "0", "-x^2 + y")]
        assert row_texts(batches[0][1]) == row_texts(syzygies(gens).elements)

    def test_stopping_early_saves_the_rest_of_the_run(self, monkeypatch):
        # D4 has degree 12 and its top basis field weight 4: the basis
        # search reads the rows of degree <= 16; the chain criterion cuts
        # the whole run to 105 steps against 72 for the early stop, so the
        # quarter is asserted of the run without it (4156 against 479)
        gens = coxeter_gens("coxeter-D4")
        with monkeypatch.context() as m:
            without_chain_criterion(m)
            with Budget(10**9) as budget:
                next(s for s, _ in syzygy_stream(gens) if s is not None and s >= 16)
            with Budget(10**9) as full:
                syzygies(gens)
        assert budget.steps - budget.left < (full.steps - full.left) // 4
        with Budget(10**9) as budget:
            next(s for s, _ in syzygy_stream(gens) if s is not None and s >= 16)
        with Budget(10**9) as full:
            syzygies(gens)
        assert budget.steps - budget.left < full.steps - full.left
