"""Groebner bases, syzygies and dimension tests over Q.

Elements of free modules are plain lists of Polynomial (all of one ring, one
fixed rank); ideals are handled as the rank-1 case and plain Polynomials are
accepted anywhere a module element is. Inside, elements take the packed
form of poly (Monagan and Pearce, CASC 2007): a term (component, exponent)
is one int and an element a pair (P, D) of an int dict and one shared
denominator; poly._flatten and poly._unflatten convert. A monic basis
element is (B, L), with B primitive and L = B[lead] > 0. A lead l divides
a term t iff 0 <= t - l < one component and t - l has no guard bit set,
since a field of t smaller than that of l borrows through its guard bit;
t - l is then the shift.

The module term order is fixed: position-over-term, component 0 dominates,
ties are broken by degrevlex. A packed term with its degree field flipped
is a key whose ascending order is this order, largest term first. Reduced
bases are interreduced, monic, and sorted, so a Groebner basis is a
canonical object here.

Each lead term is found once: reduction pops the terms of the working
element from a heap of those keys, and a Buchberger run keeps the lead of
each basis element from the moment it is appended. The bookkeeping stays
in ints too: an S-pair's lcm and its degree come from the packed leads
(_Packing.lcm, inlined in the signature-based run, which skips a J-pair
of coprime leads on their disjoint supports before any lcm is formed),
and a tracked reduction records each quotient term once, an int over the
working denominator of its step.

Every term that an S-pair or a reduction step makes has degree at most the
sugar (in the signature-based run, the degree of the pair's signature), so
checking the degrees of the input and each sugar as it grows keeps every
field in range: a degree past the field raises BudgetExceeded.

A run takes its S-pairs in sugar order, skips those that Buchberger's
chain criterion covers and, on homogeneous generators, where the sugar is
the degree, pauses between two sugars (_run_buchberger); a pair made later
never has a smaller sugar than the pair that made it, so after the pairs
of sugar <= s every basis element and every syzygy of degree <= s is
found. syzygy_stream is the one tracked run: it yields its rows degree by
degree, and a reader that has what it needs stops the run there; its rows
stay packed, and only syzygies, which drains it, turns them into
Polynomials. The rows are the relations of the S-pairs that reduce to
zero. Every nonzero generator enters the basis with its own unit vector as
its representation, so by Schreyer's theorem, in the form of Moeller, Mora
and Traverso (1992), these relations generate the syzygy module of the
generators, those of degree <= s by the pause at s. dimension_at_most
reads the leads of a signature-based run (_signature_leads), which
reduces no pair that a syzygy known in advance accounts for: on a regular
sequence, such as the principal symbols of a Koszul free divisor, no pair
reduces to zero. They feed the certificate (_certify), which stops at the
first lead that certifies the bound: a lead of an element of the ideal
lies in the initial ideal, and the dimension is read off the supports of
its generators. The certificate keeps the minimal supports and one witness
set of variables that holds none of them, and searches for a new witness
by branch and bound over independent sets only when a lead's support lies
in it. buchberger, syzygy_stream and dimension_at_most share one prologue,
_prepare, which checks and packs the generators. Every polynomial
reduction runs here: exact division (_divide) is _reduce_full by the
divisor alone, its quotient tracked.
"""

import heapq
import itertools
from math import gcd, lcm

from .errors import current_budget
from .poly import (_FIELD, Polynomial, _flatten, _lowest_terms, _Packing,
                   _unflatten)


# ---- flattened module elements -----------------------------------------


def _as_vector(elem, rank):
    if isinstance(elem, Polynomial):
        elem = [elem]
    if len(elem) != rank:
        raise ValueError(f"module element has length {len(elem)}, expected {rank}")
    return list(elem)


def _monic(P, lay):
    """(lead, (B, L)) for the nonzero element P / D, whatever D."""
    ld = min(t ^ lay.flip for t in P) ^ lay.flip
    g = gcd(*P.values()) if P[ld] > 0 else -gcd(*P.values())
    return ld, ({t: a // g for t, a in P.items()}, P[ld] // g)


def _combine(terms):
    """The sum of (num / d) * x^shift * (S / E) over the (num, d, shift,
    (S, E)) in terms, as one (P, D); num and d are ints. Every addend is
    put over one common multiple of the d * E first, so each partial sum
    is a positive multiple of the exact one: terms cancel, come back and
    take their dict order as they do under Fraction arithmetic."""
    D = lcm(*(d * E for _, d, _, (_, E) in terms))
    out = {}
    for num, d, shift, (S, E) in terms:
        k = num * (D // (d * E))
        for t, a in S.items():
            t += shift
            s = out.get(t, 0) + k * a
            if s:
                out[t] = s
            else:
                del out[t]
    D, out = _lowest_terms(D, out)
    return out, D


def _reduce_full(v, basis, leads, sugars, sugar, budget, lay, track=False):
    """Fully reduce v = (P, D) against monic basis elements (B, L).

    Returns ((R, D'), recs, sugar), v = R / D' + sum (c / D) * x^shift *
    basis[j] over the records (j, shift, c, D) in recs, one per step in
    step order; recs is None unless track is set. sugar bounds the
    degrees of v on entry and grows to sugars[j] + deg(shift) at a step by
    basis[j]; sugars[j] bounds the degrees of basis[j]. Terms wait in a
    min-heap of flipped terms, largest first. An entry whose term has
    cancelled is skipped; a step only adds terms below the one it removes.
    A step by (B, L) on the term c / D records c over D, scales the working
    element and the remainder in place by L / gcd(c, L), subtracts an
    integer multiple of x^shift * B, and divides out their content.
    """
    P, D = v
    p = dict(P)
    unit, guards, flip, dshift = lay.unit, lay.guards, lay.flip, lay.dshift
    heap = [t ^ flip for t in p]
    heapq.heapify(heap)
    rem = {}
    recs = [] if track else None
    while heap:
        t = heapq.heappop(heap) ^ flip
        c = p.get(t)
        if c is None:
            continue
        for j, ld in enumerate(leads):
            shift = t - ld
            if 0 <= shift < unit and not shift & guards:
                break
        else:
            rem[t] = c
            del p[t]
            continue
        budget.spend()
        if sugars[j] + (shift >> dshift) > sugar:
            sugar = sugars[j] + (shift >> dshift)
            lay.check(sugar)
        if track:
            recs.append((j, shift, c, D))
        B, L = basis[j]
        g = gcd(c, L)
        if g != L:
            k = L // g
            for u in p:
                p[u] *= k
            for u in rem:
                rem[u] *= k
            D *= k
        c //= g
        for u, b in B.items():
            u += shift
            a = p.get(u)
            if a is None:
                heapq.heappush(heap, u ^ flip)
                p[u] = -c * b
            elif a := a - c * b:
                p[u] = a
            else:
                del p[u]
        if g != L:
            D, p, rem = _lowest_terms(D, p, rem)
    return (rem, D), recs, sugar


def _divide(x, g, lay, budget):
    """x / g for (P, D) elements of component 0, or None when g does not
    divide x: x reduced by g alone, made monic, its quotient tracked. Each
    step of the reduction makes one quotient term and is charged one step."""
    if not x[0]:
        return {}, 1
    ld, b = _monic(g[0], lay)
    (R, _), recs, _ = _reduce_full(x, [b], [ld], [lay.degree(b[0])],
                                   lay.degree(x[0]), budget, lay, True)
    if R:
        return None
    # x = sum (c / d) x^shift B / L, one shift per record; g = (G[ld] / L) B / Dg
    k = g[0][ld]
    s = g[1] if k > 0 else -g[1]
    D = lcm(*(d for *_, d in recs))
    D, Q = _lowest_terms(D * abs(k), {u: c * (D // d) * s for _, u, c, d in recs})
    return Q, D


def _run_buchberger(gens, budget, units, lay):
    """Core loop, a generator. gens: list of (P, D) elements, zero ones
    skipped; units: None, or the (P, D) each of gens is represented by.

    Yields (s, state) with state = (basis, leads, sugars, reps,
    zero_syzygies): when every generator is homogeneous, before the first
    S-pair and before each pair whose sugar exceeds that of every pair run
    so far, with s one less than its sugar, so that every pair of sugar <=
    s is done (a pair made later has at least the sugar of the pair whose
    remainder made it); and last with s None, when the run is complete.
    The lists of state grow in place. leads[j] is the lead term of
    basis[j], sugars[j] bounds its degrees, reps[j] is basis[j]'s
    combination of gens taken of units, and zero_syzygies are the
    relations of S-pairs reducing to zero. Unit rows as units index a rep
    by position in gens; an empty unit drops its component, and its work,
    from every rep. reps/zero_syzygies are None unless units is given.

    Each nonzero generator is appended first, represented by its unit, so
    a syzygy of gens is one of the basis. The relations of all S-pairs
    generate those (Schreyer), and the relation of a pair whose remainder
    is appended is zero over gens, as the remainder's rep is the pair's
    combination of reps: with the unit rows of the zero generators, the
    zero_syzygies generate the syzygies of gens taken of units.

    The chain criterion (_chain_skip) skips a pair (i, j) when a lead l_k
    divides its lcm l_ij and the pairs (i, k) and (j, k) are done. Its
    lead syzygy is (l_ij / l_ik) tau_ik - (l_ij / l_jk) tau_jk, so the
    relations of the pairs run still generate the syzygy module, those of
    degree <= s by the pause at s (Gebauer and Moeller 1988; Moeller, Mora
    and Traverso 1992). A tracked run applies it on homogeneous generators
    only, and never the product criterion, which would drop a Koszul row.
    """
    rank1 = all(t < lay.unit for P, _ in gens for t in P)
    track = units is not None
    basis, leads, sugars = [], [], []
    reps, zsyz = ([], []) if track else (None, None)
    state = (basis, leads, sugars, reps, zsyz)
    pending, heap = set(), []

    cshift, dshift, top = lay.unit.bit_length() - 1, lay.dshift, lay.top
    graded = all(len({t >> dshift & top for t in P}) <= 1 for P, _ in gens)

    def push_pairs(j):
        lj = leads[j]
        cj, rj = lj >> cshift, sugars[j] - (lj >> dshift & top)
        for i in range(j):
            li = leads[i]
            if li >> cshift != cj:
                continue
            l = lay.lcm(li, lj)
            dl = l >> dshift & top
            sug = max(sugars[i] - (li >> dshift & top), rj) + dl
            lay.check(sug)
            heapq.heappush(heap, (sug, dl, i, j, l))
            pending.add((i, j))

    def append(v, sug, rep):
        ld, b = _monic(v[0], lay)
        basis.append(b)
        leads.append(ld)
        sugars.append(sug)
        if track:
            reps.append(_combine([(v[1], v[0][ld], 0, rep)]))
        push_pairs(len(basis) - 1)

    for idx, v in enumerate(gens):
        if v[0]:
            append(v, lay.degree(v[0]), units[idx] if track else None)

    last = None
    while heap:
        if graded and (last is None or heap[0][0] > last):
            yield heap[0][0] - 1, state
        sug, _, i, j, l = heapq.heappop(heap)
        last = sug
        pending.discard((i, j))
        if not track and rank1 and leads[i] + leads[j] == l:
            continue  # coprime leads reduce to zero
        if (graded or not track) and _chain_skip(i, j, l, leads, pending, lay):
            continue
        budget.spend()
        si, sj = l - leads[i], l - leads[j]
        s = _combine([(1, 1, si, basis[i]), (-1, 1, sj, basis[j])])
        rem, recs, sug = _reduce_full(s, basis, leads, sugars, sug, budget,
                                      lay, track)
        if track:
            rep = _combine([(1, 1, si, reps[i]), (-1, 1, sj, reps[j])]
                           + [(-c, D, u, reps[k]) for k, u, c, D in recs])
        if rem[0]:
            append(rem, sug, rep if track else None)
        elif track and rep[0]:
            zsyz.append(rep)
    yield None, state


def _chain_skip(i, j, l, leads, pending, lay):
    for k, ek in enumerate(leads):
        if k == i or k == j or not lay.divides(ek, l):
            continue
        a, b = min(i, k), max(i, k)
        c, d = min(j, k), max(j, k)
        if (a, b) not in pending and (c, d) not in pending:
            return True
    return False


def _interreduce(basis, leads, sugars, budget, lay):
    """(lead, (B, L)) of the reduced basis, largest lead first."""
    # drop elements whose lead is divisible by another lead; of equal
    # leads, keep the earliest
    keep = [i for i, li in enumerate(leads)
            if not any(lay.divides(lj, li) and (lj != li or j < i)
                       for j, lj in enumerate(leads) if j != i)]
    # tail-reduce every survivor against the others; its lead survives
    out = []
    for i in keep:
        others = [k for k in keep if k != i]
        (rem, _), _, _ = _reduce_full(
            basis[i], [basis[k] for k in others], [leads[k] for k in others],
            [sugars[k] for k in others], sugars[i], budget, lay)
        if rem:
            out.append(_monic(rem, lay))
    out.sort(key=lambda lb: lb[0] ^ lay.flip)
    return out


class GroebnerBasis:
    """Reduced, monic, deterministically sorted basis."""

    __slots__ = ("ring", "rank", "_elements", "_lay", "_flat", "_leads", "_tops")

    def __init__(self, ring, rank, lay, reduced):
        self.ring = ring
        self.rank = rank
        self._lay = lay
        self._leads = [ld for ld, _ in reduced]
        self._flat = [b for _, b in reduced]
        self._tops = [lay.degree(B) for B, _ in self._flat]
        self._elements = None

    @property
    def elements(self):
        """The basis as Polynomials (rank 1) or lists of them, unflattened
        on first read."""
        if self._elements is None:
            vecs = [_unflatten(v, self.ring, self.rank, self._lay)
                    for v in self._flat]
            self._elements = [v[0] for v in vecs] if self.rank == 1 else vecs
        return self._elements

    def __len__(self):
        return len(self._flat)

    def _remainder(self, v):
        """The normal form of the (P, D) element v, packed."""
        return _reduce_full(v, self._flat, self._leads, self._tops,
                            self._lay.degree(v[0]), current_budget(),
                            self._lay)[0]

    def normal_form(self, elem):
        v = _flatten(_as_vector(elem, self.rank), self._lay)
        out = _unflatten(self._remainder(v), self.ring, self.rank, self._lay)
        return out[0] if self.rank == 1 else out

    def reduces_to_zero(self, elem):
        v = _flatten(_as_vector(elem, self.rank), self._lay)
        return not self._remainder(v)[0]


class SyzygyBasis:
    """Generators of the first syzygy module of the input generators."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = elements

    def __len__(self):
        return len(self.elements)


def _prepare(gens):
    """(ring, rank, lay, flats): the generators packed in order, zero ones
    kept."""
    if not gens:
        raise ValueError("need at least one generator")
    r = 1 if isinstance(gens[0], Polynomial) else len(gens[0])
    vecs = [_as_vector(g, r) for g in gens]
    ring = vecs[0][0].ring
    if any(p.ring != ring for v in vecs for p in v):
        raise ValueError("mixed rings among generators")
    lay = _Packing(len(ring))
    return ring, r, lay, [_flatten(v, lay) for v in vecs]


def buchberger(gens):
    """Reduced Groebner basis of the ideal/submodule generated by gens."""
    return _buchberger(*_prepare(gens))


def _buchberger(ring, rank, lay, flats):
    """buchberger of the packed elements flats, of rank rank over ring."""
    b = current_budget()
    *_, (_, (basis, leads, sugars, _, _)) = _run_buchberger(flats, b, None, lay)
    return GroebnerBasis(ring, rank, lay, _interreduce(basis, leads, sugars, b, lay))


def syzygies(gens):
    """Generating set of the first syzygy module of gens: the rows of
    syzygy_stream(gens), drained and unflattened."""
    ring, _, lay, _ = _prepare(gens)
    return SyzygyBasis([_unflatten(row, ring, len(gens), lay)
                        for _, rows in syzygy_stream(gens) for row in rows])


def syzygy_stream(gens):
    """Generators of the first syzygy module of gens, degree by degree,
    each row once.

    The rows are the unit rows of the zero generators and the relations
    of the S-pairs that reduce to zero in a Buchberger run that tracks
    each basis element over the generators, in the order found. They
    generate the module: each nonzero generator enters the basis
    represented by its own unit vector, so by Schreyer's theorem (Moeller,
    Mora and Traverso 1992) the relations of the pairs generate the
    syzygies of the generators, and a pair whose remainder is appended
    adds none. Yields (s, rows), the rows packed in the layout
    _Packing(len(ring)); the last yield has s None.

    When every generator is homogeneous, each sugar is a degree: the run
    pauses each time every S-pair of sugar <= s is done, yields the rows
    new since the last pause, and every row still to come is homogeneous
    of degree > s (its component c has degree s' - deg(gens[c]) for some
    s' > s). The relations of the pairs run of sugar <= s generate every
    syzygy of degree <= s, the relations of the pairs the chain criterion
    skips among them. Stopping early leaves the rest of the run undone. A
    run that never pauses yields once.
    """
    _, _, lay, flats = _prepare(gens)
    yield from _syzygy_stream(lay, flats, 0)


def _syzygy_stream(lay, flats, first):
    """syzygy_stream of the packed generators flats, as (s, rows). The
    rows are the unit rows of the zero generators and the run's
    zero_syzygies, each yielded once (an inhomogeneous run can find one
    relation twice). They are cut to their components from first on (in
    lowest terms as cut), the generators below first represented by zero;
    cut, they generate the cut module, its image under the projection.
    The same rows are dropped when the kept part of a syzygy fixes the
    rest, as grad f's part of a syzygy of (f, grad f) does."""
    units = [({i * lay.unit: 1} if i >= first else {}, 1) for i in range(len(flats))]
    # a zero generator is annihilated by the corresponding unit vector
    rows = [units[i] for i, (P, _) in enumerate(flats) if not P]
    found, seen = 0, {}
    for s, state in _run_buchberger(flats, current_budget(), units, lay):
        rows += state[4][found:]
        found = len(state[4])
        yield s, [row for row in _distinct(rows, seen) if row[0]]
        rows = []


def _distinct(rows, seen):
    """The (P, D) rows not in seen, in first-seen order; they are added to
    it. Each row is in lowest terms, so equal rows have equal forms. seen
    buckets the rows by a hash and they are compared exactly within a
    bucket."""
    out = []
    for row in rows:
        bucket = seen.setdefault(hash((row[1], frozenset(row[0].items()))), [])
        if row not in bucket:
            bucket.append(row)
            out.append(row)
    return out


def _signature_leads(gens, budget, lay):
    """The leads of a Groebner basis of the ideal of gens, a generator:
    each lead as its element is appended. gens: list of (P, D)
    elements, zero ones skipped.

    A signature-based run (Faugere's F5, in the form of Roune and
    Stillman): each basis element g comes with the signature s_g of one
    of its representations sum_i h_i * e_i over the generators, its
    largest term m * e_i. Signatures are ordered by (deg m + deg gens[i],
    i, m), with m in degrevlex, and held as one int whose order is that
    order: from the top, the degree, the index i, then the exponent
    fields of m subtracted from all ones, so that a multiple t * s is
    s + (deg t << hi) - t. J-pairs t * g, one per signature, are taken
    in increasing signature order, starting from the generators, and
    reduced only by multiples of smaller signature. A pair is skipped when
    a known syzygy's signature divides its signature (the syzygy
    criterion), or when an element appended after g has one (the
    rewrite criterion, in add order). The syzygy signatures are those of
    the reductions to zero and of the principal syzygies g * e_i - gens[i]
    * (representation of g), whose signature is the larger of lt(g) * e_i
    and lt(gens[i]) * s_g when they differ. Each index keeps only its
    minimal syzygy signatures. A pair of coprime leads is skipped: the
    principal syzygy of its two elements has the pair's signature. A
    J-pair's degree bounds every term its reduction makes, as the sugar
    does.
    """
    guards, dshift, ones, top = lay.guards, lay.dshift, lay.ones, lay.top
    low = (1 << dshift) - 1  # the exponent fields of a term
    gl, fbits = guards & low, _FIELD - 1  # the exponents' guard bits
    sum_at, fmask = dshift - _FIELD, (1 << _FIELD) - 1
    hi = dshift + max(1, (len(gens) - 1).bit_length())
    im = (1 << hi) - 1  # the index and monomial fields of a signature
    # (i, lt(gens[i]), the signature 1 * e_i) of each nonzero generator
    heads = [(i, _monic(P, lay)[0],
              (lay.degree(P) << hi) | (i << dshift) | low)
             for i, (P, _) in enumerate(gens) if P]
    syz = {i: [] for i, _, _ in heads}  # minimal exponents m of syzygies m e_i
    basis, leads, sigs, ims, masks = [], [], [], [], []
    pairs = {}  # signature: (basis index, shift), or (-1, generator index)
    heap = []

    def times(s, u):  # the signature u * s
        return s + ((u >> dshift) << hi) - (u & low)

    def covered(s):  # the syzygy criterion
        m = low - (s & low)
        for z in syz[(s & im) >> dshift]:
            d = m - z
            if d >= 0 and not d & guards:
                return True
        return False

    def add_syzygy(s):  # keeps the signatures of each index minimal
        if s >> hi > lay.top or covered(s):
            return  # past the top degree it divides no pair's signature
        m = low - (s & low)
        zs = syz[(s & im) >> dshift]
        zs[:] = [z for z in zs if z - m < 0 or (z - m) & guards]
        zs.append(m)

    def push(s, x, shift):
        lay.check(s >> hi)
        if s in pairs:
            if pairs[s][0] < x:
                pairs[s] = (x, shift)
        elif not covered(s):
            pairs[s] = (x, shift)
            heapq.heappush(heap, s)

    def rewritten(s, x):  # the rewrite criterion
        mine = s & im
        for h in range(x + 1, len(ims)):
            d = ims[h] - mine
            if 0 <= d <= low and not d & guards:
                return True
        return False

    for i, _, e in heads:
        push(e, -1, i)
    while heap:
        s = heapq.heappop(heap)
        x, shift = pairs.pop(s)
        if covered(s) or rewritten(s, x):
            continue
        budget.spend()
        if x < 0:
            P = dict(gens[shift][0])
        else:
            P = {t + shift: a for t, a in basis[x][0].items()}
        P = _regular_reduce(P, s, basis, leads, sigs, hi, budget, lay)
        if not P:
            add_syzygy(s)
            continue
        ld, b = _monic(P, lay)
        k = len(basis)
        basis.append(b)
        leads.append(ld)
        sigs.append(s)
        ims.append(s & im)
        yield ld
        for _, hd, e in heads:
            z, y = times(e, ld), times(s, hd)
            if z != y:
                add_syzygy(max(z, y))
        mk, ek, dk = _support(ld, lay), ld & low, ld >> dshift
        masks.append(mk)
        for a in range(k):
            if not masks[a] & mk:
                continue  # coprime leads: a syzygy of this signature
            # the lcm's exponents and the two shifts to it, as lay.lcm
            la = leads[a]
            ea = la & low
            ge = ((ea | gl) - ek) & gl
            keep = ge - (ge >> fbits)
            m = ea & keep | ek & ~keep
            ua, uk = m - ea, m - ek
            da = (ua * ones) >> sum_at & fmask
            dl = da + (la >> dshift)
            if dl > top:
                lay.check(dl)
            sa = sigs[a] + (da << hi) - ua
            sk = s + ((dl - dk) << hi) - uk
            if sa > sk:
                push(sa, a, ua + (da << dshift))
            elif sk > sa:
                push(sk, k, uk + ((dl - dk) << dshift))


def _regular_reduce(P, s, basis, leads, sigs, hi, budget, lay):
    """P top-reduced by the multiples u * basis[j] whose signature u *
    sigs[j] is below s, until its lead has none: the reduced int dict,
    empty when P reduces to zero. A step scales P by L / gcd(c, L) and
    subtracts an integer multiple of u * B, as _reduce_full does; terms
    below the lead are left as they are."""
    unit, guards, flip, dshift = lay.unit, lay.guards, lay.flip, lay.dshift
    low = (1 << dshift) - 1
    heap = [t ^ flip for t in P]
    heapq.heapify(heap)
    while heap:
        t = heapq.heappop(heap) ^ flip
        c = P.get(t)
        if c is None:
            continue
        for j, ld in enumerate(leads):
            u = t - ld
            if (0 <= u < unit and not u & guards
                    and sigs[j] + ((u >> dshift) << hi) - (u & low) < s):
                break
        else:
            return P  # t is the lead: no smaller signature reduces it
        budget.spend()
        B, L = basis[j]
        g = gcd(c, L)
        if g != L:
            k = L // g
            P = {v: k * a for v, a in P.items()}
        c //= g
        for v, b in B.items():
            v += u
            a = P.get(v, 0) - c * b
            if a:
                if v not in P:
                    heapq.heappush(heap, v ^ flip)
                P[v] = a
            else:
                del P[v]
    return P


def _support(t, lay):
    """The guard bits of the nonzero exponents of the term t: terms of one
    component are coprime exactly when their supports are disjoint."""
    low = (1 << lay.dshift) - 1
    return ((t & low) + lay.ones * lay.top) & lay.guards & low


def dimension_at_most(gens, k):
    """True iff the Krull dimension of (polynomial ring)/(ideal gens) is at
    most k: the unit ideal has dimension -1, the zero ideal n.

    dim R/I = dim R/in(I), the largest size of a set of variables that
    holds the support of no lead monomial of I (Kredel and Weispfenning,
    J. Symbolic Comput. 6, 1988). Every lead that the signature-based run
    finds is one of I, so once no k + 1 variables hold none of the supports
    found so far, the dimension is at most k and the run stops at that
    lead; only a False answer runs it to its end, where the leads generate
    in(I).
    """
    ring, rank, lay, flats = _prepare(gens)
    if rank != 1:
        raise ValueError("dimension_at_most expects ideal generators")
    if k < -1:
        raise ValueError("k must be at least -1")
    budget = current_budget()
    return _certify(_signature_leads(flats, budget, lay), k, lay, budget)


def _certify(leads, k, lay, budget):
    """True at the first of the leads, a term iterator, after which every
    k + 1 variables hold the support of one read so far; False when they
    run out first. Kept: the minimal supports, and a witness, k + 1
    variables that hold none, so a lead off the witness costs one AND
    (its support waits in new); a lead on it merges the waiting supports
    and has a witness searched for again. The deadline is read per
    lead."""
    if k >= lay.n:
        return True
    free = _support(lay.ones, lay)  # one bit per variable
    # the first witness is the last k + 1 variables, which degrevlex leads
    # tend to avoid; off holds the variables outside the witness
    off = free & ((1 << _FIELD * (lay.n - k - 1)) - 1)
    sups, new = [], set()
    for ld in leads:
        budget.spend(0)
        new.add(m := _support(ld, lay))
        if m & off:
            continue
        if not m:
            return True  # a unit: every set holds the empty support
        for m in new:
            if not any(s & m == s for s in sups):
                sups = [s for s in sups if s & m != m] + [m]
        new = set()
        witness = _independent_set(sups, lay.n, k + 1, budget)
        if witness is None:
            return True
        off = free ^ witness
    return False


def _independent_set(sups, n, size, budget):
    """size >= 1 of the n variables that hold none of the supports sups,
    as the mask of their guard bits, or None: a depth-first branch and
    bound that adds or drops the next open variable, those in fewest
    supports first, one budget step per node. An added variable is tested
    against the supports that contain it; a node is cut when its open
    variables, less one per support of a pairwise disjoint family inside
    the node's variables, are too few."""
    sups = sorted(sups, key=int.bit_count)
    bits = [1 << _FIELD * i + _FIELD - 1 for i in range(n)]
    on = {v: [s for s in sups if s & v] for v in bits}
    order = sorted(bits, key=lambda v: len(on[v]))
    tails = list(itertools.accumulate(reversed(order), int.__or__, initial=0))
    stack = [(0, n, size)]  # tails[i]: the i variables still open
    while stack:
        chosen, i, need = stack.pop()
        budget.spend()
        pool, used, cut = chosen | tails[i], 0, 0
        for s in sups:  # each holds an open variable that must go
            if s & pool == s and not s & used:
                used |= s
                cut += 1
        if i - cut < need:
            continue
        v = order[-i]
        stack.append((chosen, i - 1, need))
        c = chosen | v
        if not any(s & c == s for s in on[v]):
            if need == 1:
                return c
            stack.append((c, i - 1, need - 1))
    return None
