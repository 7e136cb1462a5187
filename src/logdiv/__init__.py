"""logdiv: logarithmic vector fields, free divisor classification, and
first-order deformation spaces over the rationals."""

__version__ = "0.1.0"

from .poly import Polynomial, WeightSystem, poly_from_text, poly_to_text

__all__ = [
    "Polynomial",
    "WeightSystem",
    "poly_from_text",
    "poly_to_text",
]
