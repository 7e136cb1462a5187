import json
import os
import random

from fractions import Fraction

import pytest

from logdiv.classify import (
    connection_conditions,
    diagonal_annihilators,
    field_trace,
    is_koszul,
    is_linear,
    is_reductive,
    lie_algebra_matrices,
    principal_symbols,
    trace_test,
)
from logdiv.errors import Budget, NotLinear
from logdiv.groebner import dimension_at_most
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
    detect_weight_system,
    poly_from_text,
    poly_to_text,
)

from ce_oracle import koszul
from conftest import (CORPUS, FRONTIER, apply_field, corpus_member,
                      corpus_names, cramer_structure_constants,
                      frontier_member, frontier_names,
                      reference_connection_conditions, to_sympy)
from test_matrix_algebra import _arrangement

R2 = ("x", "y")
R3 = ("x", "y", "z")


def saito_for(text, ring):
    f = poly_from_text(text, ring)
    return find_saito_basis(compute_der_log(f), f)


def field(ring, *texts):
    return VectorField(ring, [poly_from_text(t, ring) for t in texts])


DISCRIMINANT = ("4*x^3*y^2 - 16*x^4*z + 27*y^4 - 144*x*y^2*z"
                " + 128*x^2*z^2 - 256*z^3")
FOUR_LINES = "x^2*y^2 + x*y^3 + x^3*y*z + x^2*y^2*z"


class TestDetectWeights:
    def test_standard_homogeneous(self):
        w = detect_weight_system(poly_from_text("x^3*y - x*y^3", R2))
        assert w.weights == (1, 1)
        assert w.degree == 4

    def test_quasi_homogeneous(self):
        w = detect_weight_system(poly_from_text("x^5 + y^4", R2))
        assert w.weights == (4, 5)
        assert w.degree == 20

    def test_discriminant(self):
        w = detect_weight_system(poly_from_text(DISCRIMINANT, R3))
        assert w.weights == (2, 3, 4)
        assert w.degree == 12

    def test_not_weighted_homogeneous(self):
        assert detect_weight_system(poly_from_text(FOUR_LINES, R3)) is None

    def test_a_kernel_of_mixed_signs_has_no_weights(self):
        # the kernel of x*y + x^2*y^2 is spanned by (1, -1), which no
        # positive multiple makes a weight vector
        assert detect_weight_system(poly_from_text("x*y + x^2*y^2", R2)) \
            is None

    def test_a_weight_zero_on_the_kernel_skips_the_search(self):
        # the weights of a*c + a*b*c + c*d*e*g*h*k form a 6-dimensional
        # space on which the weight of b is 0, so none is positive; the
        # composition search up to WEIGHT_SUM_CAP would spend millions of
        # steps to find that out
        ring = ("a", "b", "c", "d", "e", "g", "h", "k")
        f = poly_from_text("a*c + a*b*c + c*d*e*g*h*k", ring)
        with Budget(steps=100):
            assert detect_weight_system(f) is None


class TestIsLinear:
    def test_normal_crossing(self):
        assert is_linear(saito_for("x*y*z", R3))

    def test_quartic_is_not(self):
        assert not is_linear(saito_for("x^3*y - x*y^3", R2))

    def test_smooth_line_is_not(self):
        assert not is_linear(saito_for("x + y", R2))

    def test_cone_example(self):
        assert is_linear(saito_for("y^2*z + x*z^2", R3))


class TestReductive:
    def test_normal_crossing_is_reductive(self):
        g = lie_algebra_matrices(saito_for("x*y*z", R3))
        assert g.dim == 3
        assert is_reductive(g)

    def test_cone_example_is_not_reductive(self):
        g = lie_algebra_matrices(saito_for("y^2*z + x*z^2", R3))
        assert not is_reductive(g)

    def test_nonlinear_is_rejected(self):
        with pytest.raises(NotLinear):
            lie_algebra_matrices(saito_for("x^3*y - x*y^3", R2))


class TestTraceTest:
    def test_normal_crossing_has_no_witness(self):
        result = trace_test(poly_from_text("x*y*z", R3))
        assert result.ok
        assert result.witnesses == []

    def test_cone_witness_matches_diagonal_annihilator(self):
        f = poly_from_text("y^2*z + x*z^2", R3)
        result = trace_test(f)
        assert not result.ok
        delta, tr = result.witnesses[0]
        assert tr == 3
        assert [poly_to_text(p) for p in delta.components] == ["4*x", "y", "-2*z"]
        assert apply_field(delta, f).is_zero()

    def test_diagonal_annihilators_are_annihilators(self):
        f = poly_from_text("y^2*z + x*z^2", R3)
        for delta in diagonal_annihilators(f):
            assert apply_field(delta, f).is_zero()

    def test_field_trace(self):
        delta = field(R2, "3*x + y^2", "-5*y")
        assert field_trace(delta) == Fraction(-2)


class TestKoszul:
    @pytest.mark.parametrize("text,ring", [
        ("x*y", R2),
        ("x^3*y - x*y^3", R2),
        ("x^5 + y^4", R2),
        ("x*y*z", R3),
    ])
    def test_koszul_members(self, text, ring):
        assert is_koszul(saito_for(text, ring))

    def test_discriminant_is_koszul(self):
        assert is_koszul(saito_for(DISCRIMINANT, R3))

    def test_four_lines_divisor_is_not_koszul(self):
        assert not is_koszul(saito_for(FOUR_LINES, R3))

    def test_symbol_ideal_dimension_staircase(self):
        cases = [
            ("x^3*y - x*y^3", R2, 2),
            ("x*y*z", R3, 3),
            (DISCRIMINANT, R3, 3),
        ]
        for text, ring, expected in cases:
            symbols = principal_symbols(saito_for(text, ring))
            assert dimension_at_most(symbols, expected)
            assert not dimension_at_most(symbols, expected - 1)
        symbols = principal_symbols(saito_for(FOUR_LINES, R3))
        assert not dimension_at_most(symbols, 3)

    def test_symbol_names_are_fresh(self):
        # s_x is taken by a variable, so the symbol of s_x is s_s_x and
        # that of x is s_x with underscores until it is free
        ring = ("s_x", "x")
        symbols = principal_symbols(saito_for("s_x*x", ring))
        assert {p.ring for p in symbols} == {("s_x", "x", "s_s_x", "s_x_")}

    def test_invariance_under_unimodular_change(self):
        def compose(f, images):
            out = Polynomial.zero(f.ring)
            for m, c in f.terms.items():
                term = Polynomial.constant(f.ring, c)
                for i, e in enumerate(m):
                    for _ in range(e):
                        term = term * images[i]
                out = out + term
            return out

        rng = random.Random(20240818)
        f = poly_from_text("x^3*y - x*y^3", R2)
        x, y = Polynomial.variable(R2, 0), Polynomial.variable(R2, 1)
        for _ in range(2):
            a = rng.choice([1, -1])
            b = rng.randint(-2, 2)
            # unimodular substitution x -> a*x + b*y, y -> y
            g = compose(f, [x.scale(a) + y.scale(b), y])
            assert is_koszul(saito_for(poly_to_text(g), R2))


@pytest.mark.parametrize("name", corpus_names() + [
    name for name in frontier_names() if name != "coxeter-D5"])
def test_is_koszul_agrees_with_the_minors_oracle(name):
    # ce_oracle.koszul decides Koszul freeness from the Fitting ideals of
    # the stored Saito matrix, with sympy's Groebner bases and nothing of
    # logdiv.groebner; is_koszul's signature-based run on the principal
    # symbols of the basis gives the same answer, and so does the stored
    # report, on the 14 corpus entries (four-lines-nonkoszul False) and
    # the frontier arrangements but D5 (True too, but sympy takes about
    # 7 s on it)
    folder = CORPUS if name in corpus_names() else FRONTIER
    with open(os.path.join(folder, f"{name}.expected.json"),
              encoding="utf-8") as fh:
        profile = json.load(fh)["profile"]
    saito = (corpus_member(name) if folder == CORPUS
             else frontier_member(name))[2]
    expected = koszul(profile["saito_matrix"], profile["variables"])
    assert is_koszul(saito) is expected is profile["koszul"]
    assert expected is (name != "four-lines-nonkoszul")


class TestConnectionConditions:
    def test_connection_conditions_koszul_examples(self):
        # constant structure constants: both identities hold
        nc = saito_for("x*y*z", R3)
        assert connection_conditions(nc) == (True, True)
        curve = saito_for("x^3*y - x*y^3", R2)
        assert connection_conditions(curve) == (True, True)
        # the Koszul discriminant divisor fails both exact identities
        disc = saito_for(DISCRIMINANT, R3)
        assert connection_conditions(disc) == (False, False)
        # and so does the non-Koszul four-lines divisor
        fl = saito_for(FOUR_LINES, R3)
        assert connection_conditions(fl) == (False, False)

    def test_nonconstant_denominator_against_sympy(self):
        # the identities on the rational functions b / u, differentiated
        # by sympy, for a basis whose unit u is not constant
        import sympy

        saito = saito_for("x^3 + y^2 + x^2*y^2", R2)
        sc = structure_constants(saito)
        assert not sc.denominator.is_constant()
        syms = sympy.symbols("x y")
        u = to_sympy(sc.denominator, syms)
        a = [[to_sympy(p, syms) for p in d.components] for d in saito.fields]
        b = [[[to_sympy(p, syms) / u for p in col] for col in row]
             for row in sc.b]
        idx = [(i, j, l, r) for i in range(2) for j in range(2)
               for l in range(2) for r in range(2)]

        def vanish(expr):
            return sympy.cancel(expr) == 0

        first = all(vanish(sum(a[k][r] * sympy.diff(b[i][j][k], syms[l])
                               for k in range(2))) for i, j, l, r in idx)
        second = all(vanish(sum(a[l][k] * sympy.diff(b[i][j][r], syms[k])
                                for k in range(2))) for i, j, l, r in idx)
        assert connection_conditions(saito) == (first, second)

    @pytest.mark.parametrize("name", corpus_names() + [
        "braid-A3", "coxeter-B3", "coxeter-D4", "coxeter-B4",
        "x^3 + y^2 + x^2*y^2", "x^2 - y^2 + x^3", "x^2*y^2 + x^5 + y^5"])
    def test_proportionality_matches_the_identities(self, name):
        # the identities checked one by one, over the corpus bases, the
        # graded arrangements (constant unit) and three curves whose
        # subset-search basis has a nonconstant unit
        if name in corpus_names():
            saito = corpus_member(name)[2]
        elif name.startswith("x"):
            saito = saito_for(name, R2)
            assert not saito.unit.is_constant()
        else:
            f = _arrangement(name)
            saito = find_saito_basis(compute_der_log(f), f)
        assert connection_conditions(saito) == reference_connection_conditions(
            saito, cramer_structure_constants(saito))

    def test_corrected_printed_matrix_for_four_lines(self):
        # with the x^2 entry, the displayed matrix has determinant -f;
        # the 4*x^2 variant's determinant -x*y*(4*x + y)*(x*z + y) is not
        # a unit multiple of f
        f = poly_from_text(FOUR_LINES, R3)
        corrected = [field(R3, "x", "y", "0"),
                     field(R3, "x^2", "-y^2", "-z*(x + y)"),
                     field(R3, "0", "0", "x*z + y")]
        res = verify_saito(corrected, f)
        assert res.ok
        assert poly_to_text(res.unit) == "-1"
        printed = [field(R3, "x", "y", "0"),
                   field(R3, "4*x^2", "-y^2", "-z*(x + y)"),
                   field(R3, "0", "0", "x*z + y")]
        assert not verify_saito(printed, f).ok

    def test_corrected_matrix_gives_same_koszul_answer(self):
        f = poly_from_text(FOUR_LINES, R3)
        corrected = [field(R3, "x", "y", "0"),
                     field(R3, "x^2", "-y^2", "-z*(x + y)"),
                     field(R3, "0", "0", "x*z + y")]
        res = verify_saito(corrected, f)
        saito = SaitoBasis(corrected, f, res.unit)
        assert not is_koszul(saito)
