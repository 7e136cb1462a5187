"""Property tests of the Groebner engine, drawn by hypothesis.

They live apart from test_groebner.py, whose deterministic tests (the
pinned engine, the syzygy stream's pins, the packed reduction kernel)
need neither hypothesis nor sympy: Krull dimensions against the lead
monomials of sympy's Groebner bases, the packed lcm against m_lcm, and
the tracked run's rows and top-reduced leads against their references in
conftest.py, on random ideals.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from logdiv import groebner
from logdiv.errors import Budget, BudgetExceeded
from logdiv.groebner import _Packing, buchberger, dimension_at_most, syzygies
from logdiv.poly import Polynomial, m_lcm

from conftest import (assert_relations_generate_the_reference,
                      assert_syzygies, full_reduction, to_sympy)
from test_groebner import R3, pauses_and_rows, same_monomial_ideal


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
    @settings(max_examples=80, deadline=None)
    @given(ideals())
    def test_against_sympy_lead_monomials(self, ideal):
        gens, n = ideal
        d = sympy_dimension(gens, n)
        with Budget(10**6):
            assert [dimension_at_most(gens, k) for k in range(-1, n + 1)] \
                == [d <= k for k in range(-1, n + 1)]


class TestPackedTerms:
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


class TestSyzygyStream:
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

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_ideals())
    def test_top_reduction_finds_the_reference_leads(self, ideal):
        # at each pause s of the top-reduced run, its leads generate the
        # monomial ideal that the leads of the reference run (under
        # full_reduction) generate once its pairs of sugar <= s are done,
        # at its first pause >= s: both hold in(I) up to degree s and the
        # generators' leads; the rows of each run generate those of the
        # other, and the division rows of their own run
        gens, _ = ideal
        with Budget(10**6):
            top, top_rows = pauses_and_rows(gens)
            with pytest.MonkeyPatch.context() as m:
                full_reduction(m)
                reference, reference_rows = pauses_and_rows(gens)
            lay = groebner._prepare(gens)[2]
            for s, leads in top:
                ref = next(found for r, found in reference
                           if r is None or (s is not None and r >= s))
                assert same_monomial_ideal(leads, ref, lay)
            for rows, others in ((top_rows, reference_rows),
                                 (reference_rows, top_rows)):
                if others:
                    gb = buchberger(rows)
                    assert all(gb.reduces_to_zero(row) for row in others)
            assert_relations_generate_the_reference(gens)
