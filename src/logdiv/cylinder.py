"""Cylinder detection: factor out variables a divisor does not use.

A divisor whose equation omits a variable is a product of a lower
dimensional divisor with a line, and every deformation-theoretic
quantity computed here is unchanged by that product. Splitting first
keeps the later stages small.
"""

from .poly import Polynomial


class CylinderSplit:
    """Result of dropping unused variables from a polynomial.

    ``poly`` lives in the reduced ring ``ring`` (the kept variable
    names, original order). ``kept`` and ``dropped`` are index tuples
    into the original ring.
    """

    __slots__ = ("ring", "poly", "kept", "dropped")

    def __init__(self, ring, poly, kept, dropped):
        self.ring = ring
        self.poly = poly
        self.kept = kept
        self.dropped = dropped

    @property
    def is_identity(self):
        return not self.dropped


def split_cylindrical(f):
    """Drop every variable absent from f (equivalently: zero partial).

    Returns the maximal split; the identity split when every variable
    occurs. The reduced polynomial uses all of its variables.
    """
    if f.is_zero():
        raise ValueError("cannot split the zero polynomial")
    n = len(f.ring)
    used = [False] * n
    for m in f.terms:
        for i, e in enumerate(m):
            if e:
                used[i] = True
    kept = tuple(i for i in range(n) if used[i])
    dropped = tuple(i for i in range(n) if not used[i])
    if not dropped:
        return CylinderSplit(f.ring, f, kept, dropped)
    ring = tuple(f.ring[i] for i in kept)
    pos = {orig: k for k, orig in enumerate(kept)}
    terms = {}
    for m, c in f.terms.items():
        e = [0] * len(kept)
        for i, a in enumerate(m):
            if a:
                e[pos[i]] = a
        terms[tuple(e)] = c
    return CylinderSplit(ring, Polynomial(ring, terms), kept, dropped)
