"""Sparse multivariate polynomials over Q.

A monomial is a plain exponent tuple whose length equals the number of ring
variables; a ring is identified by its ordered tuple of variable names.
Polynomials store a dict mapping exponent tuples to nonzero Fraction
coefficients, so structural equality is dict equality.

Canonical term order for storage-independent printing is degrevlex with the
ring's variable order.
"""

from fractions import Fraction
import math
import re

from .errors import NotHomogeneous, ParseError, current_budget
from . import linalg

Monomial = tuple  # exponent vector; length == number of ring variables


def m_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def m_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def m_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def m_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def m_degree(a):
    return sum(a)


def m_weighted_degree(a, weights):
    return sum(e * w for e, w in zip(a, weights))


def degrevlex_key(e):
    """Sort key: max() under this key is the degrevlex-largest monomial."""
    return (sum(e), tuple(-x for x in reversed(e)))


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None, prune=True):
        self.ring = ring
        if terms is None:
            self.terms = {}
        elif prune:
            self.terms = {m: Fraction(c) for m, c in terms.items() if c != 0}
        else:
            self.terms = terms

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, ring):
        return cls(ring, {}, False)

    @classmethod
    def constant(cls, ring, c):
        c = Fraction(c)
        if c == 0:
            return cls(ring, {}, False)
        return cls(ring, {(0,) * len(ring): c}, False)

    @classmethod
    def one(cls, ring):
        return cls.constant(ring, 1)

    @classmethod
    def variable(cls, ring, i):
        e = [0] * len(ring)
        e[i] = 1
        return cls(ring, {tuple(e): Fraction(1)}, False)

    @classmethod
    def monomial(cls, ring, expo, c=1):
        c = Fraction(c)
        if c == 0:
            return cls(ring, {}, False)
        return cls(ring, {tuple(expo): c}, False)

    # ---- structure ----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def constant_value(self):
        """Coefficient of the constant monomial (the value at the origin)."""
        return self.terms.get((0,) * len(self.ring), Fraction(0))

    def total_degree(self):
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def sorted_terms(self):
        """Terms in descending degrevlex order."""
        return sorted(self.terms.items(), key=lambda t: degrevlex_key(t[0]), reverse=True)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Polynomial({poly_to_text(self)!r})"

    # ---- arithmetic ---------------------------------------------------
    def __add__(self, other):
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) + c
            if s:
                res[m] = s
            elif m in res:
                del res[m]
        return Polynomial(self.ring, res, False)

    def __sub__(self, other):
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) - c
            if s:
                res[m] = s
            elif m in res:
                del res[m]
        return Polynomial(self.ring, res, False)

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()}, False)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m_mul(m1, m2)
                s = res.get(m, 0) + c1 * c2
                if s:
                    res[m] = s
                elif m in res:
                    del res[m]
        return Polynomial(self.ring, res, False)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()}, False)

    def mul_term(self, expo, c):
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {m_mul(m, expo): c * v for m, v in self.terms.items()}, False)

    def __pow__(self, n):
        """Repeated squaring; each product is charged to the budget, one
        step per pair of terms, before it is formed."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        budget = current_budget()
        result = Polynomial.one(self.ring)
        base = self
        while n:
            if n & 1:
                budget.spend(len(result.terms) * len(base.terms))
                result = result * base
            if n > 1:
                budget.spend(len(base.terms) ** 2)
                base = base * base
            n >>= 1
        return result


def partial_derivative(p, i):
    """d p / d x_i."""
    if not 0 <= i < len(p.ring):
        raise IndexError(f"variable index {i} out of range for ring {p.ring}")
    res = {}
    for m, c in p.terms.items():
        if m[i]:
            e = list(m)
            e[i] -= 1
            res[tuple(e)] = c * m[i]
    return Polynomial(p.ring, res, False)


def weighted_degree(p, weights):
    """Weighted degree of p, or None for the zero polynomial.

    Raises NotHomogeneous (carrying the occurring degree set) when terms
    disagree.
    """
    if not p.terms:
        return None
    degs = {m_weighted_degree(m, weights) for m in p.terms}
    if len(degs) > 1:
        raise NotHomogeneous(degs)
    return next(iter(degs))


class WeightSystem:
    """Positive integer weights for the ring variables plus the degree of f."""

    __slots__ = ("weights", "degree")

    def __init__(self, weights, degree):
        self.weights = tuple(int(w) for w in weights)
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        self.degree = int(degree)

    def __eq__(self, other):
        return (
            isinstance(other, WeightSystem)
            and self.weights == other.weights
            and self.degree == other.degree
        )

    def __repr__(self):
        return f"WeightSystem({self.weights}, degree={self.degree})"


def _primitive_positive(vec):
    """Scale a rational vector to coprime positive integers, or None if it
    has a zero entry or mixed signs."""
    if any(x == 0 for x in vec):
        return None
    neg = all(x < 0 for x in vec)
    if not neg and not all(x > 0 for x in vec):
        return None
    lcm = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * lcm) for x in vec]
    if neg:
        ints = [-v for v in ints]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


WEIGHT_SUM_CAP = 64


def detect_weight_system(f):
    """Minimal positive integer weights making f weighted homogeneous,
    with the resulting degree.

    Weight vectors lie in the nullspace of the exponent-difference matrix.
    Minimality is by (sum of weights, lexicographic); the result is
    normalized coprime. Returns None when no positive weight vector exists
    (or none with weight sum <= WEIGHT_SUM_CAP when the solution space has
    dimension above one).
    """
    if f.is_zero() or f.is_constant():
        return None
    n = len(f.ring)
    expos = sorted(f.terms)
    base = expos[0]
    rows = [[Fraction(e[i] - base[i]) for i in range(n)] for e in expos[1:]]
    if not rows:
        w = (1,) * n
        return WeightSystem(w, m_weighted_degree(base, w))
    null = linalg.nullspace(rows, n)
    if not null:
        return None
    if len(null) == 1:
        w = _primitive_positive(null[0])
        if w is None:
            return None
        return WeightSystem(w, m_weighted_degree(base, w))
    ech, _ = linalg.rref(rows, n)

    def satisfied(w):
        return all(sum(x * w[i] for i, x in r.items()) == 0 for r in ech)

    for total in range(n, WEIGHT_SUM_CAP + 1):
        for w in _compositions(total, n):
            if satisfied(w):
                return WeightSystem(w, m_weighted_degree(base, w))
    return None


def _compositions(total, n):
    """Ordered positive integer n-tuples summing to total, lex ascending."""
    if n == 1:
        yield (total,)
        return
    for first in range(1, total - n + 2):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


def poly_det(rows):
    """Determinant of a square matrix of polynomials, constant or not.

    Cofactor expansion down the columns with each minor memoized by its
    rows, so it is division-free and exact. Each product is charged to the
    active budget, one step per pair of terms, before it is formed.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    budget = current_budget()
    ring = rows[0][0].ring
    memo = {}

    def minor(row_set, col):
        if len(row_set) == 1:
            return rows[row_set[0]][col]
        key = (row_set, col)
        if key in memo:
            return memo[key]
        acc = Polynomial.zero(ring)
        sign = 1
        for k, i in enumerate(row_set):
            entry = rows[i][col]
            if entry:
                sub = minor(row_set[:k] + row_set[k + 1:], col + 1)
                budget.spend(len(entry.terms) * len(sub.terms))
                term = entry * sub
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        memo[key] = acc
        return acc

    return minor(tuple(range(n)), 0)


def poly_adjugate(rows):
    """Adjugate of a square polynomial matrix, so that adj * rows = det * I:
    entry (i, j) is (-1)^(i+j) times poly_det of rows without row j and
    column i. All minors are charged to one budget."""
    n = len(rows)
    if n == 1:
        return [[Polynomial.one(rows[0][0].ring)]]
    adj = []
    with current_budget():
        for i in range(n):
            adj_row = []
            for j in range(n):
                d = poly_det([[rows[r][c] for c in range(n) if c != i]
                              for r in range(n) if r != j])
                adj_row.append(d if (i + j) % 2 == 0 else -d)
            adj.append(adj_row)
    return adj


# ---- exact division ---------------------------------------------------


def try_exact_div(p, d):
    """Exact quotient p / d, or None when d does not divide p."""
    if d.is_zero():
        return None
    lead_d = max(d.terms, key=degrevlex_key)
    cd = d.terms[lead_d]
    q = {}
    r = p
    while r.terms:
        lead_r = max(r.terms, key=degrevlex_key)
        if not m_divides(lead_d, lead_r):
            return None
        e = m_div(lead_r, lead_d)
        c = r.terms[lead_r] / cd
        q[e] = c
        r = r - d.mul_term(e, c)
    return Polynomial(p.ring, q)


# ---- text form --------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        if m.lastgroup is None:
            break
        out.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character at {text[pos:].strip()[:10]!r}")
    return out


# Each parenthesis costs the recursive-descent parser four stack frames;
# this keeps deep input far from the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.ring = ring
        self.index = {n: k for k, n in enumerate(ring)}

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expr(self):
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        elif self.peek() == ("op", "+"):
            self.take()
        acc = self.term().scale(sign)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self):
        acc = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            rhs = self.factor()
            current_budget().spend(len(acc.terms) * len(rhs.terms))
            acc = acc * rhs
        return acc

    def factor(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            return base ** int(val)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            num = int(val)
            if self.peek() == ("op", "/"):
                self.take()
                k2, v2 = self.take()
                if k2 != "int" or int(v2) == 0:
                    raise ParseError("denominator must be a nonzero integer")
                return Polynomial.constant(self.ring, Fraction(num, int(v2)))
            return Polynomial.constant(self.ring, num)
        if kind == "name":
            if val not in self.index:
                raise ParseError(f"unknown variable {val!r}")
            return Polynomial.variable(self.ring, self.index[val])
        if (kind, val) == ("op", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}")
            inner = self.expr()
            if self.take() != ("op", ")"):
                raise ParseError("missing closing parenthesis")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {val!r}")


def poly_from_text(text, ring):
    """Parse polynomial text: +, -, *, ^, parentheses, integer or p/q
    coefficients, and the ring's variable names. No implicit multiplication.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    parser = _Parser(tokens, tuple(ring))
    p = parser.expr()
    if parser.i != len(tokens):
        raise ParseError(f"trailing input near {parser.peek()[1]!r}")
    return p


def poly_to_text(p):
    """Canonical text form; parse(poly_to_text(p)) reproduces p exactly."""
    if not p.terms:
        return "0"
    pieces = []
    for m, c in p.sorted_terms():
        factors = []
        for name, e in zip(p.ring, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        body = str(mag) if not factors else (
            "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
        )
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
