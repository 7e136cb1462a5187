"""Sparse multivariate polynomials over Q.

A monomial is a plain exponent tuple whose length equals the number of ring
variables; a ring is identified by its ordered tuple of variable names.
Polynomials store a dict mapping exponent tuples to nonzero coefficients,
so structural equality is dict equality. A coefficient is an int when its
value is an integer and a Fraction only when it is not, wherever one is
formed: the constructors, scale, mul_term, _unflatten and the parser.
Sums and products are not normalised, so an integral Fraction from them
stays a valid coefficient: it compares, hashes and prints as the int does.

Canonical term order for storage-independent printing is degrevlex with the
ring's variable order.

The Groebner engine and the algebra of square polynomial matrices work on
a packed form that follows Monagan and Pearce (CASC 2007); _flatten and
_unflatten are the one boundary between it and Polynomial. PolyMatrix is
the one API of that algebra: its determinant and adjugate entries are
packed elements, which _dot combines and groebner._divide (a reduction;
this module reduces nothing) divides exactly, and only a result is
converted back, by PolyMatrix.polynomial. The packed form:

- A term (component, exponent) is packed into one int. Its fields, from
  high to low, are the component, the total degree, then x_n ... x_1; each
  but the component is _FIELD bits wide, with a top guard bit that stays 0.
  Multiplying a term by a monomial is an addition, and a product of two
  polynomials whose degrees sum to at most the largest field value never
  carries into a guard bit; a degree past it raises BudgetExceeded.
- An element is a pair (P, D): P maps terms to ints and D > 0 is one shared
  denominator, so the element is P / D.
- A packed term with its degree field flipped is a key whose ascending
  order is position-over-term, component 0 first, then degrevlex: the
  largest term first.
"""

from fractions import Fraction
import itertools
import math
import re

from .errors import BudgetExceeded, NotHomogeneous, ParseError, current_budget
from . import linalg

Monomial = tuple  # exponent vector; length == number of ring variables


def m_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def m_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def m_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def m_weighted_degree(a, weights):
    return sum([e * w for e, w in zip(a, weights)])


def degrevlex_key(e):
    """Sort key: max() under this key is the degrevlex-largest monomial."""
    return (sum(e), tuple(-x for x in reversed(e)))


def _coefficient(c):
    """c as a coefficient: an int when its value is an integer, else a
    Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, prune=True):
        self.ring = ring
        if prune:
            self.terms = {m: _coefficient(c) for m, c in terms.items() if c != 0}
        else:
            self.terms = terms

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, ring):
        return cls(ring, {}, False)

    @classmethod
    def constant(cls, ring, c):
        return cls.monomial(ring, (0,) * len(ring), c)

    @classmethod
    def one(cls, ring):
        return cls.constant(ring, 1)

    @classmethod
    def variable(cls, ring, i):
        if not 0 <= i < len(ring):
            raise IndexError(f"variable index {i} out of range for ring {ring}")
        e = [0] * len(ring)
        e[i] = 1
        return cls(ring, {tuple(e): 1}, False)

    @classmethod
    def monomial(cls, ring, expo, c=1):
        c = _coefficient(c)
        if c == 0:
            return cls(ring, {}, False)
        return cls(ring, {tuple(expo): c}, False)

    # ---- structure ----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

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
        return self + -other

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
        c = _coefficient(c)
        if c == 0:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {m: _coefficient(c * v)
                                      for m, v in self.terms.items()}, False)

    def mul_term(self, expo, c):
        c = _coefficient(c)
        if c == 0:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {m_mul(m, expo): _coefficient(c * v)
                                      for m, v in self.terms.items()}, False)

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


def _primitive_positive(vec, n):
    """The n entries of a primitive int kernel vector, a dict positive at
    its free column, as a tuple, or None unless all are positive: since
    one entry is positive, neither the vector nor its negative is then
    a positive vector."""
    ints = tuple(vec.get(i, 0) for i in range(n))
    return ints if all(x > 0 for x in ints) else None


WEIGHT_SUM_CAP = 64


def detect_weight_system(f):
    """Minimal positive integer weights making f weighted homogeneous,
    with the resulting degree.

    Weight vectors lie in the kernel of the exponent-difference matrix.
    Minimality is by (sum of weights, lexicographic); the result is
    normalized coprime. Returns None when no positive weight vector exists
    (or none with weight sum <= WEIGHT_SUM_CAP when the solution space has
    dimension above one), at once when some weight is 0 on the whole
    solution space. Each candidate of that search is charged one step per
    exponent entry of f before it is checked. A single term has no
    exponent differences: the kernel is every unit vector, so in two or
    more variables the search's first candidate (1, ..., 1) holds, charged
    n steps, and in one variable the one kernel vector is (1).
    """
    if f.is_zero() or f.is_constant():
        return None
    n = len(f.ring)
    expos = sorted(f.terms)
    base = expos[0]
    cols = [[e[i] - base[i] for e in expos[1:]] for i in range(n)]
    null = linalg.kernel(cols, len(expos) - 1)
    if not null or not all(any(v.get(i) for _, v in null) for i in range(n)):
        return None  # a weight that is 0 on every kernel vector stays 0
    if len(null) == 1:
        w = _primitive_positive(null[0][1], n)
        if w is None:
            return None
        return WeightSystem(w, m_weighted_degree(base, w))
    budget = current_budget()

    def satisfied(w):
        budget.spend(n * len(expos))
        k = m_weighted_degree(base, w)
        return all(m_weighted_degree(e, w) == k for e in expos)

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


# ---- packed form -------------------------------------------------------

_FIELD = 16  # bits per packed field, the top one a guard


class _Packing:
    """The packed term layout for n variables; see the module docstring."""

    __slots__ = ("n", "dshift", "unit", "top", "flip", "guards", "ones", "shifts")

    def __init__(self, n):
        self.n = n
        self.dshift = _FIELD * n
        self.unit = 1 << (self.dshift + _FIELD)
        self.top = (1 << (_FIELD - 1)) - 1  # the largest degree a field holds
        self.flip = self.top << self.dshift
        self.guards = sum(1 << (_FIELD * k + _FIELD - 1) for k in range(n + 1))
        self.ones = sum(1 << (_FIELD * k) for k in range(n))  # 1 per exponent
        self.shifts = range(0, self.dshift, _FIELD)  # of the exponent fields

    def check(self, degree):
        if degree > self.top:
            raise BudgetExceeded(f"degree {degree} exceeds the largest"
                                 f" packed degree {self.top}")

    def pack(self, comp, m):
        self.check(sum(m))
        t = comp * self.unit + (sum(m) << self.dshift)
        for k, e in enumerate(m):
            t += e << (_FIELD * k)
        return t

    def unpack(self, t):
        top = self.top
        return t // self.unit, tuple([t >> s & top for s in self.shifts])

    def divides(self, l, t):
        """True if lead l divides term t (the test groebner's
        reductions inline)."""
        d = t - l
        return 0 <= d < self.unit and not d & self.guards

    def degree(self, P):
        return max((t >> self.dshift & self.top for t in P), default=0)

    def lcm(self, a, b):
        """pack(c, m_lcm(e, e')) for the terms a, b of (c, e) and (c, e').

        (a | g) - b, with g the exponents' guard bits, keeps the guard bit
        of a field exactly when a's exponent there is not the smaller; no
        borrow crosses a field. A multiply by ones sums the larger
        exponents into the degree field, each partial sum below 2 * top."""
        g = self.ones << (_FIELD - 1)
        ge = ((a | g) - b) & g
        keep = ge - (ge >> (_FIELD - 1))
        m = a & keep | b & ~keep  # b's component and degree, larger exponents
        d = (m * self.ones << _FIELD) >> self.dshift & ((1 << _FIELD) - 1)
        self.check(d)
        return m + ((d - (b >> self.dshift & self.top)) << self.dshift)


def _flatten(vec, lay):
    """The (P, D) form of a list of polynomials, entry c as component c."""
    return linalg._ints((lay.pack(c, m), co) for c, p in enumerate(vec)
                        for m, co in p.terms.items())


def _unflatten(v, ring, rank, lay):
    """The list of rank polynomials whose (P, D) form is v."""
    P, D = v
    polys = [{} for _ in range(rank)]
    for t, a in P.items():
        c, m = lay.unpack(t)
        polys[c][m] = a if D == 1 else _coefficient(Fraction(a, D))
    return [Polynomial(ring, t, False) for t in polys]


def _lowest_terms(D, *parts):
    """D and the int dicts in parts, divided by their common gcd."""
    g = math.gcd(D, *itertools.chain.from_iterable(p.values() for p in parts))
    if g == 1:
        return (D, *parts)
    return (D // g, *({t: a // g for t, a in p.items()} for p in parts))


def _mul_add(acc, k, P, Q, lay, budget):
    """acc += k * P * Q for int dicts of component-0 terms, whose largest
    term carries the degree in its top field. One step per pair of terms
    is charged, and the degree checked, before the product is formed;
    cancelled terms stay in acc as zeros."""
    if not P or not Q:
        return
    budget.spend(len(P) * len(Q))
    lay.check((max(P) + max(Q)) >> lay.dshift)
    get = acc.get
    for s, a in P.items():
        a *= k
        for t, b in Q.items():
            u = s + t
            acc[u] = get(u, 0) + a * b


def _dot(xs, ys, lay, budget):
    """sum_r xs[r] * ys[r] over (P, D) elements, as one (P, D) element:
    each product is formed over the common denominator."""
    pairs = [(x, y) for x, y in zip(xs, ys) if x[0] and y[0]]
    D = math.lcm(*(x[1] * y[1] for x, y in pairs))
    acc = {}
    for (P, Dp), (Q, Dq) in pairs:
        _mul_add(acc, D // (Dp * Dq), P, Q, lay, budget)
    return {t: a for t, a in acc.items() if a}, D


class PolyMatrix:
    """A square matrix of polynomials in the packed form, with one memo
    of its minors.

    Row r is kept as int dicts over one denominator dens[r], so a minor
    on the rows R is an int dict over the product of dens[r], r in R. A
    minor is expanded down its first column and memoized by (rows,
    columns), both ascending tuples: det() fills in the minors on the
    column suffixes, and adjugate(), whose entries are the minors on all
    rows but one and all columns but one, expands each down to those
    suffixes and reads them from the memo, so each minor is formed once.
    adjugate() keeps its entries and empties the memo. Products are
    charged to the budget of the call that forms them.
    """

    __slots__ = ("ring", "n", "lay", "rows", "dens", "_memo", "_adj")

    def __init__(self, rows):
        n = len(rows)
        if n == 0:
            raise ValueError("empty matrix")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        self.ring = rows[0][0].ring
        self.n = n
        self.lay = lay = _Packing(len(self.ring))
        self.rows, self.dens = [], []
        for row in rows:
            P, D = _flatten(row, lay)
            entries = [{} for _ in row]
            for t, a in P.items():
                c, t = divmod(t, lay.unit)
                entries[c][t] = a
            self.rows.append(entries)
            self.dens.append(D)
        self._memo = {}
        self._adj = None

    def entry(self, r, c):
        """Entry (r, c) as a (P, D) element."""
        return self.rows[r][c], self.dens[r]

    def polynomial(self, v):
        """The polynomial of the (P, D) element v."""
        return _unflatten(v, self.ring, 1, self.lay)[0]

    def _minor(self, R, C, budget):
        if len(R) <= 1:
            return self.rows[R[0]][C[0]] if R else {0: 1}  # empty minor: 1
        key = (R, C)
        P = self._memo.get(key)
        if P is None:
            acc = {}
            col, rest = C[0], C[1:]
            for k, r in enumerate(R):
                entry = self.rows[r][col]
                if entry:
                    sub = self._minor(R[:k] + R[k + 1:], rest, budget)
                    _mul_add(acc, -1 if k & 1 else 1, entry, sub, self.lay,
                             budget)
            P = self._memo[key] = {t: a for t, a in acc.items() if a}
        return P

    def det(self):
        """The determinant as a (P, D) element."""
        every = tuple(range(self.n))
        return self._minor(every, every, current_budget()), math.prod(self.dens)

    def adjugate(self):
        """The adjugate as rows of (P, D) elements, adj * A = det * I:
        entry (k, r) is (-1)^(k+r) times the minor without row r and
        column k."""
        if self._adj is None:
            n, every = self.n, tuple(range(self.n))
            budget = current_budget()
            whole = math.prod(self.dens)
            adj = [[None] * n for _ in range(n)]
            for k in range(n):
                for r in range(n):
                    P = self._minor(every[:r] + every[r + 1:],
                                    every[:k] + every[k + 1:], budget)
                    if (k + r) & 1:
                        P = {t: -a for t, a in P.items()}
                    adj[k][r] = (P, whole // self.dens[r])
            self._adj = adj
            self._memo = {}
        return self._adj


# ---- text form --------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*(?:(?P<int>\d+)|(?P<name>{_NAME.pattern})|(?P<op>[-+*^()/]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        if m.lastgroup is None:
            break
        kind, val = m.lastgroup, m.group(m.lastgroup)
        if kind == "int":
            try:
                val = int(val)
            except ValueError:  # more digits than int() converts
                raise ParseError(
                    f"integer of {len(val)} digits is too long") from None
        out.append((kind, val))
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
            return base ** val
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            if self.peek() == ("op", "/"):
                self.take()
                k2, v2 = self.take()
                if k2 != "int" or v2 == 0:
                    raise ParseError("denominator must be a nonzero integer")
                return Polynomial.constant(self.ring, Fraction(val, v2))
            return Polynomial.constant(self.ring, val)
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
