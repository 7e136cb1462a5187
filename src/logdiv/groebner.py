"""Groebner bases, syzygies and Krull dimension over Q.

Elements of free modules are plain lists of Polynomial (all of one ring, one
fixed rank); ideals are handled as the rank-1 case and plain Polynomials are
accepted anywhere a module element is. Internally an element is flattened to
a dict mapping (component, exponent-tuple) terms to coefficients.

The module term order is fixed: position-over-term, component 0 dominates,
ties are broken by degrevlex. Reduced bases are interreduced, monic,
and sorted, so a Groebner basis is a canonical object here.

Each lead term is found once: reduction pops the terms of the working
element from a heap in descending term order, and a Buchberger run keeps
the lead of each basis element from the moment it is appended.
"""

from fractions import Fraction
import heapq
import itertools

from .errors import InternalInconsistency, current_budget
from .poly import (
    Polynomial,
    degrevlex_key,
    m_degree,
    m_div,
    m_divides,
    m_lcm,
    m_mul,
)


def _term_key(t):
    """Position over term: component 0 dominates, then degrevlex."""
    return (-t[0], degrevlex_key(t[1]))


# ---- flattened module elements -----------------------------------------


def _as_vector(elem, rank):
    if isinstance(elem, Polynomial):
        elem = [elem]
    if rank is not None and len(elem) != rank:
        raise ValueError(f"module element has length {len(elem)}, expected {rank}")
    return list(elem)


def _flatten(vec):
    out = {}
    for c, p in enumerate(vec):
        for m, co in p.terms.items():
            out[(c, m)] = co
    return out


def _unflatten(v, ring, rank):
    polys = [{} for _ in range(rank)]
    for (c, m), co in v.items():
        polys[c][m] = co
    return [Polynomial(ring, t, False) for t in polys]


def _v_iadd_scaled(target, src, expo, coeff, heap=None):
    """target += coeff * x^expo * src, in place. Terms new to target are
    pushed onto heap, if one is given, as _reduce_full orders them."""
    for (c, m), co in src.items():
        m = m_mul(m, expo)
        t = (c, m)
        s = target.get(t, 0) + coeff * co
        if s:
            if heap is not None and t not in target:
                heapq.heappush(heap, (c, -sum(m), m[::-1], m))
            target[t] = s
        elif t in target:
            del target[t]


def _v_scale(v, coeff):
    return {t: coeff * co for t, co in v.items()}


def _reduce_full(v, basis, leads, budget, track=False, sugar=None, sugars=None):
    """Fully reduce flattened element v against monic basis elements.

    Returns (remainder, quotients) where quotients[j] is a dict
    {expo: coeff} with v = sum_j quotients[j] * basis[j] + remainder.
    Terms wait in a min-heap keyed by (component, -degree, reversed
    exponent), i.e. largest under _term_key first. An entry whose term has
    cancelled is skipped; a step only adds terms below the one it removes.
    """
    p = dict(v)
    heap = [(c, -sum(m), m[::-1], m) for (c, m) in p]
    heapq.heapify(heap)
    rem = {}
    quots = [dict() for _ in basis] if track else None
    while heap:
        comp, _, _, expo = heapq.heappop(heap)
        t = (comp, expo)
        c = p.get(t)
        if c is None:
            continue
        hit = None
        for j, (lc_comp, lc_expo) in enumerate(leads):
            if lc_comp == comp and m_divides(lc_expo, expo):
                hit = j
                break
        if hit is None:
            rem[t] = c
            del p[t]
            continue
        budget.spend()
        shift = m_div(expo, leads[hit][1])
        _v_iadd_scaled(p, basis[hit], shift, -c, heap)
        if track:
            q = quots[hit]
            q[shift] = q.get(shift, 0) + c
        if sugar is not None:
            sugar[0] = max(sugar[0], sugars[hit] + m_degree(shift))
    return rem, quots


def _sugar_of(v):
    return max((m_degree(m) for (_, m) in v), default=0)


def _run_buchberger(gen_vecs, budget, track):
    """Core loop. gen_vecs: list of flattened elements, zero ones skipped.

    Returns (basis, leads, reps, zero_syzygies) where leads[j] is the
    lead term of basis[j], reps[j] expresses basis[j] over the input
    generators, indexed by position in gen_vecs, and zero_syzygies are
    input-space relations found from S-pairs reducing to zero.
    reps/zero_syzygies are None unless track is set. Criteria
    pruning is disabled in track mode so the collected relations generate
    the full first syzygy module.
    """
    rank1 = all(c == 0 for v in gen_vecs for (c, _) in v)
    basis = []
    leads = []
    sugars = []
    reps = [] if track else None
    zsyz = [] if track else None
    pending = set()
    heap = []
    counter = itertools.count()

    def push_pairs(j):
        cj, ej = leads[j]
        for i in range(j):
            ci, ei = leads[i]
            if ci != cj:
                continue
            l = m_lcm(ei, ej)
            sug = max(
                sugars[i] + m_degree(m_div(l, ei)),
                sugars[j] + m_degree(m_div(l, ej)),
            )
            heapq.heappush(heap, (sug, m_degree(l), i, j, next(counter)))
            pending.add((i, j))

    def append(v, sug, rep):
        ld = max(v, key=_term_key)
        lc = v[ld]
        v = _v_scale(v, Fraction(1) / lc)
        basis.append(v)
        leads.append(ld)
        sugars.append(sug)
        if track:
            reps.append(_v_scale(rep, Fraction(1) / lc))
        push_pairs(len(basis) - 1)

    for idx, v in enumerate(gen_vecs):
        if v:
            rep = {(idx, (0,) * _nvars(v)): Fraction(1)} if track else None
            append(v, _sugar_of(v), rep)

    while heap:
        sug, _, i, j, _ = heapq.heappop(heap)
        pending.discard((i, j))
        ci, ei = leads[i]
        cj, ej = leads[j]
        l = m_lcm(ei, ej)
        if not track:
            if rank1 and m_mul(ei, ej) == l:
                continue  # coprime leads reduce to zero
            if _chain_skip(i, j, l, ci, leads, pending):
                continue
        budget.spend()
        si = m_div(l, ei)
        sj = m_div(l, ej)
        s = {}
        _v_iadd_scaled(s, basis[i], si, Fraction(1))
        _v_iadd_scaled(s, basis[j], sj, Fraction(-1))
        if track:
            rep = {}
            _v_iadd_scaled(rep, reps[i], si, Fraction(1))
            _v_iadd_scaled(rep, reps[j], sj, Fraction(-1))
        sug_box = [sug]
        rem, quots = _reduce_full(
            s, basis, leads, budget,
            track=track, sugar=sug_box, sugars=sugars,
        )
        if track:
            for k, q in enumerate(quots):
                for shift, coeff in q.items():
                    _v_iadd_scaled(rep, reps[k], shift, -coeff)
        if rem:
            append(rem, sug_box[0], rep if track else None)
        elif track and rep:
            zsyz.append(rep)
    return basis, leads, reps, zsyz


def _chain_skip(i, j, l, comp, leads, pending):
    for k, (ck, ek) in enumerate(leads):
        if k == i or k == j:
            continue
        if ck != comp or not m_divides(ek, l):
            continue
        a, b = min(i, k), max(i, k)
        c, d = min(j, k), max(j, k)
        if (a, b) not in pending and (c, d) not in pending:
            return True
    return False


def _nvars(v):
    for (_, m) in v:
        return len(m)
    raise ValueError("cannot infer variable count from zero element")


def _interreduce(basis, leads, budget):
    # drop elements whose lead is divisible by another lead
    keep = []
    for i, (ci, ei) in enumerate(leads):
        redundant = False
        for j, (cj, ej) in enumerate(leads):
            if i == j:
                continue
            if ci == cj and m_divides(ej, ei):
                if m_divides(ei, ej) and j > i:
                    continue  # equal leads: keep the earlier one
                redundant = True
                break
        if not redundant:
            keep.append(i)
    # tail-reduce every survivor against the others; its lead survives
    out = []
    for i in keep:
        others = [k for k in keep if k != i]
        rem, _ = _reduce_full(basis[i], [basis[k] for k in others],
                              [leads[k] for k in others], budget)
        if rem:
            out.append((leads[i], _v_scale(rem, Fraction(1) / rem[leads[i]])))
    out.sort(key=lambda lv: _term_key(lv[0]), reverse=True)
    return [v for _, v in out]


class GroebnerBasis:
    """Reduced, monic, deterministically sorted basis."""

    __slots__ = ("ring", "rank", "elements", "_flat", "_leads")

    def __init__(self, ring, rank, flat_elements):
        self.ring = ring
        self.rank = rank
        self._flat = flat_elements
        self._leads = [max(v, key=_term_key) for v in flat_elements]
        vecs = [_unflatten(v, ring, rank) for v in flat_elements]
        self.elements = [v[0] for v in vecs] if rank == 1 else vecs

    def __len__(self):
        return len(self._flat)

    def normal_form(self, elem):
        vec = _as_vector(elem, self.rank)
        v = _flatten(vec)
        rem, _ = _reduce_full(v, self._flat, self._leads, current_budget())
        out = _unflatten(rem, self.ring, self.rank)
        return out[0] if self.rank == 1 else out

    def reduces_to_zero(self, elem):
        nf = self.normal_form(elem)
        if isinstance(nf, Polynomial):
            return nf.is_zero()
        return all(p.is_zero() for p in nf)


class SyzygyBasis:
    """Generators of the first syzygy module of the input generators."""

    __slots__ = ("ring", "rank", "elements")

    def __init__(self, ring, rank, elements):
        self.ring = ring
        self.rank = rank
        self.elements = elements

    def __len__(self):
        return len(self.elements)


def _prepare(gens, rank=None):
    if not gens:
        raise ValueError("need at least one generator")
    first = gens[0]
    if isinstance(first, Polynomial):
        ring = first.ring
        r = 1
    else:
        ring = first[0].ring
        r = len(first)
    if rank is not None:
        r = rank
    vecs = [_as_vector(g, r) for g in gens]
    for v in vecs:
        for p in v:
            if p.ring != ring:
                raise ValueError("mixed rings among generators")
    return ring, r, vecs


def buchberger(gens):
    """Reduced Groebner basis of the ideal/submodule generated by gens."""
    ring, rank, vecs = _prepare(gens)
    flat = [f for f in map(_flatten, vecs) if f]
    b = current_budget()
    if not flat:
        return GroebnerBasis(ring, rank, [])
    basis, leads, _, _ = _run_buchberger(flat, b, track=False)
    return GroebnerBasis(ring, rank, _interreduce(basis, leads, b))


def syzygies(gens):
    """Generating set of the first syzygy module of gens: the relations
    from S-pairs reducing to zero in a Buchberger run that tracks each
    basis element over the generators, and the rows e_i - q_i, where q_i
    divides generator i by that basis with tracked quotients."""
    ring, rank, vecs = _prepare(gens)
    m = len(vecs)
    flats = [_flatten(v) for v in vecs]
    out = []
    # a zero generator is annihilated by the corresponding unit vector
    for i, f in enumerate(flats):
        if not f:
            row = [Polynomial.zero(ring) for _ in range(m)]
            row[i] = Polynomial.one(ring)
            out.append(row)
    if any(flats):
        budget = current_budget()
        basis, leads, reps, zsyz = _run_buchberger(flats, budget, track=True)
        for z in zsyz:
            out.append(_unflatten(z, ring, m))
        for i, f in enumerate(flats):
            if not f:
                continue
            rem, quots = _reduce_full(f, basis, leads, budget, track=True)
            if rem:
                raise InternalInconsistency("generator does not reduce to zero")
            row = {(i, (0,) * len(ring)): Fraction(1)}
            for j, q in enumerate(quots):
                for shift, coeff in q.items():
                    _v_iadd_scaled(row, reps[j], shift, -coeff)
            if row:
                out.append(_unflatten(row, ring, m))
    # light dedupe, deterministic order
    seen = set()
    dedup = []
    for row in out:
        keyrep = tuple(tuple(sorted(p.terms.items())) for p in row)
        if keyrep not in seen:
            seen.add(keyrep)
            dedup.append(row)
    return SyzygyBasis(ring, m, dedup)


def krull_dimension(gens):
    """Krull dimension of (polynomial ring)/(ideal gens), by the maximal
    size of a variable subset meeting no initial-ideal support.

    Returns -1 for the unit ideal; the number of variables for the zero
    ideal.
    """
    ring, rank, vecs = _prepare(gens)
    if rank != 1:
        raise ValueError("krull_dimension expects ideal generators")
    n = len(ring)
    gb = buchberger(gens)
    supports = []
    for v in gb._flat:
        (_, e) = max(v, key=_term_key)
        if not any(e):
            return -1
        supports.append(frozenset(i for i, x in enumerate(e) if x))
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if all(not sup <= s for sup in supports):
                return size
    raise InternalInconsistency("dimension search fell through")
