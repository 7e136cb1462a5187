"""The Saito matrix's algebra on the packed form: determinant, adjugate,
exact division and structure constants, against references that use
Fraction arithmetic only."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logdiv.errors import Budget, BudgetExceeded
from logdiv.logder import (find_saito_basis, compute_der_log, lie_bracket,
                           saito_basis, structure_constants)
from logdiv.poly import Polynomial, poly_from_text

from conftest import leibniz, packed_adjugate, packed_det, packed_div

R2 = ("x", "y")

# coefficients p/q that are never integers, so every packed row has a
# denominator of its own
coefficients = st.sampled_from(sorted(
    {Fraction(p, q) for q in range(2, 7) for p in range(-12, 13)
     if Fraction(p, q).denominator > 1}))


@st.composite
def polys(draw, max_terms=3, max_degree=2):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)),
        coefficients, max_size=max_terms))
    return Polynomial(R2, terms)


@st.composite
def matrices(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    return [[draw(polys()) for _ in range(n)] for _ in range(n)]


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_det_matches_the_leibniz_formula(rows):
    assert packed_det(rows).terms == leibniz(rows)


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_adjugate_times_matrix_is_det_times_identity(rows):
    n = len(rows)
    zero = Polynomial.zero(R2)
    det = packed_det(rows)
    adj = packed_adjugate(rows)
    for i in range(n):
        for j in range(n):
            entry = sum((adj[i][k] * rows[k][j] for k in range(n)), zero)
            assert entry == (det if i == j else zero)


@settings(max_examples=50, deadline=None)
@given(polys(max_terms=4), polys(max_terms=3))
def test_exact_division_recovers_the_quotient(q, d):
    if d.is_zero():
        assert packed_div(q, d) is None
    else:
        assert packed_div(q * d, d) == q


@settings(max_examples=50, deadline=None)
@given(polys(max_terms=4), polys(max_terms=3, max_degree=3), polys())
def test_a_remainder_means_no_quotient(q, d, r):
    # a nonzero r of degree below deg d is not a multiple of d, so
    # neither is q * d + r
    r = Polynomial(R2, {m: c for m, c in r.terms.items()
                        if d.total_degree() and sum(m) < d.total_degree()})
    if r.is_zero():
        return
    assert packed_div(q * d + r, d) is None


def reference_div(p, d):
    """p / d or None, by the textbook loop in Fraction arithmetic: divide
    the degrevlex-leading term of the remainder by that of d."""
    def lead(terms):
        return max(terms, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))

    ld = lead(d.terms)
    rem, quot = dict(p.terms), {}
    while rem:
        lr = lead(rem)
        if any(a < b for a, b in zip(lr, ld)):
            return None
        shift = tuple(a - b for a, b in zip(lr, ld))
        c = rem[lr] / d.terms[ld]
        quot[shift] = c
        for m, e in d.terms.items():
            m = tuple(a + b for a, b in zip(m, shift))
            rem[m] = rem.get(m, Fraction(0)) - c * e
            if not rem[m]:
                del rem[m]
    return Polynomial(R2, quot)


@settings(max_examples=50, deadline=None)
@given(polys(max_terms=4), polys(max_terms=3), polys(max_terms=2))
def test_division_agrees_with_the_fraction_loop(q, d, r):
    # q * d + r is a multiple of d or not, whatever r is
    if not d.is_zero():
        assert packed_div(q * d + r, d) == reference_div(q * d + r, d)


def test_a_quotient_coefficient_that_is_no_integer_means_no_quotient():
    # x^2 = (2x + 3)(x/2 - 3/4) + 9/4: the lead of the primitive divisor
    # 2x + 3 does not divide the first coefficient of x^2
    assert packed_div(poly_from_text("x^2", R2),
                         poly_from_text("2*x + 3", R2)) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 32767), st.integers(1, 32767))
def test_a_degree_past_the_packed_field_is_refused(a, b):
    # the product x^a * y^b of the expansion has degree a + b
    x_a = Polynomial.monomial(R2, (a, 0), Fraction(1, 2))
    y_b = Polynomial.monomial(R2, (0, b), Fraction(1, 3))
    one = Polynomial.one(R2)
    rows = [[x_a, one], [one, y_b]]
    if a + b > 32767:
        with pytest.raises(BudgetExceeded, match="exceeds the largest packed"):
            packed_det(rows)
    else:
        assert packed_det(rows) == x_a * y_b - one


def _arrangement(name):
    x4 = ("x1", "x2", "x3", "x4")
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    if name == "braid-A3":
        return poly_from_text("*".join(f"(x{i}-x{j})" for i, j in pairs), x4)
    if name == "coxeter-B3":
        return poly_from_text("x1*x2*x3*(x1^2-x2^2)*(x1^2-x3^2)*(x2^2-x3^2)",
                              x4[:3])
    if name == "coxeter-D4":
        return poly_from_text("*".join(f"(x{i}^2-x{j}^2)" for i, j in pairs), x4)
    return poly_from_text("x1*x2*x3*x4*" + "*".join(
        f"(x{i}^2-x{j}^2)" for i, j in pairs), x4)


@pytest.mark.parametrize("name", ["braid-A3", "coxeter-B3", "coxeter-D4",
                                  "coxeter-B4", "x^3 + y^2 + x^2*y^2"])
def test_structure_constants_rebuild_every_bracket(name):
    # u * [delta_i, delta_j] = sum_k b_ijk * delta_k, with u the
    # denominator: 1 over the graded arrangements, the nonconstant unit
    # of the subset search's basis over the curve
    if name.startswith("x^3"):
        f = poly_from_text(name, R2)
        saito = find_saito_basis(compute_der_log(f), f)
        assert not saito.unit.is_constant()
    else:
        saito = saito_basis(_arrangement(name))
    sc = structure_constants(saito)
    n = len(saito)
    for i in range(n):
        for j in range(n):
            bracket = lie_bracket(saito.fields[i], saito.fields[j])
            for c in range(n):
                rebuilt = sum((sc.b[i][j][k] * saito.fields[k].components[c]
                               for k in range(n)), Polynomial.zero(saito.ring))
                assert rebuilt == sc.denominator * bracket.components[c]


def test_structure_constants_are_charged_to_the_budget():
    # with the adjugate built, the brackets [delta_i, delta_j], the
    # products adj * [delta_i, delta_j] and their exact divisions by u * f
    # spend 83 steps on coxeter-B3; each call gets a fresh basis, as a
    # basis keeps the brackets it formed
    f = _arrangement("coxeter-B3")
    cut, whole = saito_basis(f), saito_basis(f)
    for saito in (cut, whole):
        saito.table().adjugate()
    with pytest.raises(BudgetExceeded):
        with Budget(steps=82):
            structure_constants(cut)
    with Budget(steps=83) as budget:
        structure_constants(whole)
    assert budget.left == 0


def test_exact_division_is_charged_to_the_budget():
    # (x + y)(x - y) / (x - y): two quotient terms, one step each
    p, d = poly_from_text("x^2 - y^2", R2), poly_from_text("x - y", R2)
    with pytest.raises(BudgetExceeded):
        with Budget(steps=1):
            packed_div(p, d)
    with Budget(steps=2) as budget:
        assert packed_div(p, d) == poly_from_text("x + y", R2)
    assert budget.left == 0
