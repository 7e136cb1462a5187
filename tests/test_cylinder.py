import pytest

from logdiv.cohomology import ft1
from logdiv.cylinder import split_cylindrical
from logdiv.poly import Polynomial, poly_from_text, poly_to_text

R3 = ("x", "y", "z")


def P(text, ring=R3):
    return poly_from_text(text, ring)


class TestSplit:
    def test_identity_when_all_variables_occur(self):
        f = P("x*y*z")
        split = split_cylindrical(f)
        assert split.is_identity
        assert split.ring == R3
        assert split.poly == f

    def test_drops_trailing_variable(self):
        f = P("x^3*y - x*y^3")
        split = split_cylindrical(f)
        assert not split.is_identity
        assert split.ring == ("x", "y")
        assert split.kept == (0, 1)
        assert split.dropped == (2,)
        assert poly_to_text(split.poly) == "x^3*y - x*y^3"

    def test_drops_middle_variable(self):
        f = P("x^2 + z^2")
        split = split_cylindrical(f)
        assert split.ring == ("x", "z")
        assert split.dropped == (1,)

    def test_keeps_single_variable(self):
        f = P("y^3")
        split = split_cylindrical(f)
        assert split.ring == ("y",)
        assert poly_to_text(split.poly) == "y^3"

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            split_cylindrical(Polynomial.zero(R3))


class TestDeformationInvariance:
    def test_ft1_agrees_after_dropping_a_cylinder_variable(self):
        plane = poly_from_text("x^3*y - x*y^3", ("x", "y"))
        ambient = P("x^3*y - x*y^3")
        split = split_cylindrical(ambient)
        direct = ft1(plane)
        reduced = ft1(split.poly)
        assert reduced.dimension == direct.dimension == 1
        direct_eqs = [poly_to_text(p) for p in direct.deformed_equations]
        reduced_eqs = [poly_to_text(p) for p in reduced.deformed_equations]
        assert direct_eqs == reduced_eqs == ["x^2*y^2"]
