import math
import random

from fractions import Fraction

import pytest

from conftest import dense_nullspace, dense_rref, scaled_kernel, transpose
from logdiv import linalg
from logdiv.errors import Budget, BudgetExceeded


def as_dense(row, ncols):
    return [row.get(c, Fraction(0)) for c in range(ncols)]


def random_matrix(rng, nrows, ncols):
    """Sparse-ish integer and p/q entries, with a zero row, a repeated
    row, a combination of two rows and an empty column."""
    empty = rng.randrange(ncols)
    rows = []
    for _ in range(nrows):
        row = [Fraction(0)] * ncols
        for c in rng.sample(range(ncols), rng.randint(0, min(3, ncols))):
            if c != empty:
                row[c] = (Fraction(rng.randint(-4, 4)) if rng.random() < 0.5
                          else Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
        rows.append(row)
    rows.append([Fraction(0)] * ncols)
    rows.append(list(rows[0]))
    rows.append([a - 3 * b for a, b in zip(rows[1], rows[2])])
    rng.shuffle(rows)
    return rows


def scaled_rows(ech, pivots, ncols):
    """rref's rows, each checked to be a primitive int row, nonzero at
    every key it holds, and scaled to 1 at its pivot as a dense list."""
    assert all(type(x) is int and x for r in ech for x in r.values())
    assert all(math.gcd(*r.values()) == 1 for r in ech)
    return [as_dense({k: Fraction(x, r[p]) for k, x in r.items()}, ncols)
            for r, p in zip(ech, pivots)]


def as_dicts(rows):
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


def columns_of(rows, ncols):
    """The columns of list rows as lists, of dict rows as dicts."""
    if rows and not isinstance(rows[0], dict):
        return [[r[c] for r in rows] for c in range(ncols)]
    return transpose(rows, ncols)


def greedy_by_rank(vectors, keys):
    """Reference selection: re-rank the kept rows for each candidate."""
    kept = []
    chosen = []
    for idx, vec in enumerate(vectors):
        row = [vec.get(k, Fraction(0)) for k in keys]
        if len(dense_rref(kept + [row], len(keys))[0]) > len(kept):
            kept.append(row)
            chosen.append(idx)
    return chosen


class TestAgainstDenseGaussJordan:
    SHAPES = [(1, 1), (3, 5), (6, 4), (8, 8), (12, 7), (5, 12)]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", ["list", "dict"])
    def test_rref_rank_nullspace_solve(self, seed, kind):
        rng = random.Random(seed)
        nrows, ncols = self.SHAPES[seed % len(self.SHAPES)]
        rows = random_matrix(rng, nrows, ncols)
        given = rows if kind == "list" else as_dicts(rows)
        snapshot = [dict(r) if kind == "dict" else list(r) for r in given]
        ech, pivots = linalg.rref(given, ncols)
        ref_ech, ref_pivots = dense_rref(rows, ncols)
        assert pivots == ref_pivots
        assert scaled_rows(ech, pivots, ncols) == ref_ech
        assert linalg.rank(given) == len(ref_ech)
        cols = columns_of(given, ncols)
        assert scaled_kernel(linalg.kernel(cols, len(rows)), ncols) \
            == dense_nullspace(rows, ncols)
        assert given == snapshot and cols == columns_of(snapshot, ncols)

    def test_dict_rows_are_read_by_column(self):
        # column 2 only: a dense reading of the keys would see other columns
        rows = [{2: Fraction(5)}, {0: Fraction(1), 2: Fraction(1)}]
        ech, pivots = linalg.rref(rows, 3)
        assert pivots == [0, 2]
        assert ech == [{0: 1}, {2: 1}]
        assert scaled_kernel(linalg.kernel(transpose(rows, 3), 2), 3) \
            == [[0, 1, 0]]


class TestColumnKernel:
    """kernel eliminates the columns it is given, each tagged after every
    row key; scaled_kernel scales its vectors to 1 at the free column, as
    the callers that need Fractions do."""

    SHAPES = [(9, 3), (3, 9), (6, 6), (1, 5), (5, 1)]  # tall, wide, square

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("entries", ["int", "fraction"])
    @pytest.mark.parametrize("kind", ["list", "dict"])
    def test_nullspace_is_the_dense_reference(self, seed, entries, kind):
        rng = random.Random(seed)
        nrows, ncols = self.SHAPES[seed % len(self.SHAPES)]
        rows = random_matrix(rng, nrows, ncols)  # with an empty column
        if entries == "int":
            rows = [[int(x * 60) for x in r] for r in rows]
        given = columns_of(rows if kind == "list" else as_dicts(rows), ncols)
        snapshot = [dict(c) if kind == "dict" else list(c) for c in given]
        kernel = linalg.kernel(given, len(rows))
        null = scaled_kernel(kernel, ncols)
        assert null == dense_nullspace(rows, ncols)
        assert all(type(x) is Fraction for v in null for x in v)
        assert all(type(x) is int for _, v in kernel for x in v.values())
        assert given == snapshot

    @pytest.mark.parametrize("seed", range(10))
    def test_fraction_columns_with_content_are_tagged_by_their_den(self, seed):
        # each int column times p/q, q a prime above every entry and
        # |p| > 1: den * column is tagged den, so the tags hold a kernel
        # vector of the given columns
        rng = random.Random(seed)
        nrows, ncols = [(9, 3), (3, 9), (6, 6), (2, 5), (5, 2)][seed % 5]
        ints = columns_of([[x.numerator for x in r]
                           for r in random_matrix(rng, nrows, ncols)], ncols)
        cols = []
        for col in ints:
            q = rng.choice([17, 19, 23])
            p = rng.choice([-1, 1]) * rng.randint(2, 9)
            cols.append([Fraction(p * x, q) for x in col])
        assert any(x.denominator > 1 for col in cols for x in col)
        kernel = linalg.kernel(cols, len(cols[0]))
        assert scaled_kernel(kernel, ncols) \
            == dense_nullspace(transpose(cols, len(cols[0])), ncols)
        for c, v in kernel:
            assert all(type(x) is int and x for x in v.values())
            assert v[c] > 0 and math.gcd(*v.values()) == 1
        # (2/3, 4/3) enters as (2, 4) tagged 3: the vector is (-3, 2), not
        # the (-1, 1) of a tag 1
        assert linalg.kernel([[Fraction(2, 3), Fraction(4, 3)], [1, 2]], 2) \
            == [(1, {0: -3, 1: 2})]

    @pytest.mark.parametrize("kind", ["list", "dict"])
    def test_zero_matrix_and_columns_beyond_every_key(self, kind):
        zero = [[0, 0, 0], [0, 0, 0]]
        given = columns_of(zero if kind == "list" else as_dicts(zero), 3)
        assert scaled_kernel(linalg.kernel(given, 2), 3) \
            == dense_nullspace(zero, 3)
        assert linalg.kernel(given, 2) == [(0, {0: 1}), (1, {1: 1}),
                                           (2, {2: 1})]
        assert scaled_kernel(linalg.kernel([{}, {}], 0), 2) \
            == dense_nullspace([], 2)
        rows = [{0: 2, 1: Fraction(1, 3)}]  # columns 2 and 3 hold no key
        assert scaled_kernel(linalg.kernel(transpose(rows, 4), 1), 4) \
            == dense_nullspace([as_dense(r, 4) for r in rows], 4)
        assert linalg.kernel([], 0) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_int_vectors_sit_on_their_column_and_earlier_pivots(self, seed):
        rng = random.Random(seed)
        nrows, ncols = self.SHAPES[seed % len(self.SHAPES)]
        rows = random_matrix(rng, nrows, ncols)
        pivots = dense_rref(rows, ncols)[1]
        free = [c for c in range(ncols) if c not in pivots]
        kernel = linalg.kernel(transpose(as_dicts(rows), ncols), len(rows))
        assert [c for c, _ in kernel] == free
        for c, v in kernel:
            assert all(type(x) is int and x for x in v.values())
            assert v[c] > 0 and math.gcd(*v.values()) == 1
            assert set(v) <= {c} | {p for p in pivots if p < c}
            assert all(sum(x * v.get(k, 0) for k, x in enumerate(r)) == 0
                       for r in rows)

    def test_column_eliminations_are_charged(self):
        # column 1 is cleared by column 0 and kept; column 2 by both, and
        # its row part vanishes: the kernel vector (1, -2, 1)
        cols = [[1, 4], [2, 5], [3, 6]]  # the rows (1, 2, 3), (4, 5, 6)
        with Budget(steps=3) as budget:
            assert linalg.kernel(cols, 2) == [(2, {0: 1, 1: -2, 2: 1})]
        assert budget.left == 0
        with pytest.raises(BudgetExceeded):
            with Budget(steps=2):
                linalg.kernel(cols, 2)
        # a tall matrix of full column rank: one elimination, where the
        # rows route (rref) pays four
        with Budget(steps=1):
            assert linalg.kernel([[1, 3, 5], [2, 4, 6]], 3) == []


class TestSpan:
    @pytest.mark.parametrize("seed", range(6))
    def test_selects_what_reranking_selects(self, seed):
        rng = random.Random(seed)
        keys = sorted(rng.sample(range(20), 6))
        vectors = []
        for _ in range(12):
            vec = {}
            for k in rng.sample(keys, rng.randint(0, 3)):
                vec[k] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            vectors.append(vec)
        # repeat some vectors and add combinations, so dependence occurs
        vectors.append(dict(vectors[0]))
        combo = dict(vectors[1])
        for k, x in vectors[2].items():
            combo[k] = combo.get(k, Fraction(0)) + 2 * x
        vectors.append(combo)
        span = linalg.Span()
        chosen = [i for i, vec in enumerate(vectors) if span.add(vec)]
        assert chosen == greedy_by_rank(vectors, keys)

    def test_zero_vector_is_never_kept(self):
        span = linalg.Span()
        assert not span.add({})
        assert not span.add({"x": Fraction(0)})
        assert span.add({"x": Fraction(1)})

    def test_eliminations_are_charged(self):
        with Budget(steps=1):
            span = linalg.Span()
            span.add({"x": Fraction(1)})
            span.add({"x": Fraction(2), "y": Fraction(1)})
            with pytest.raises(BudgetExceeded):
                span.add({"x": Fraction(1), "y": Fraction(1)})


class TestRrefBudget:
    def test_row_eliminations_are_charged(self):
        # each of the two pivots eliminates the other two rows
        rows = [[1, 2], [3, 4], [5, 6]]
        with Budget(steps=4):
            assert len(linalg.rref(rows, 2)[0]) == 2
        with pytest.raises(BudgetExceeded):
            with Budget(steps=4):
                linalg.rref(rows, 2)
                linalg.rref(rows, 2)

    def test_rank_skips_the_back_substitution(self):
        # the echelon basis alone: the second row is cleared by the first,
        # the third by both, and the first is never cleared by the second
        rows = [[1, 2], [3, 4], [5, 6]]
        with Budget(steps=3) as budget:
            assert linalg.rank(rows) == 2
        assert budget.left == 0
        with pytest.raises(BudgetExceeded):
            with Budget(steps=2):
                linalg.rank(rows)


def fraction_residual(vec, rows, keys):
    """vec minus the multiples of the (pivot, row) pairs, rows with entry
    1 at their pivots, that clear it there, over Fraction; also returns
    the number of rows it was reduced by."""
    r = {k: Fraction(vec.get(k, 0)) for k in keys}
    used = 0
    for pivot, row in rows:
        c = r[pivot]
        if c:
            for k in keys:
                r[k] -= c * row.get(k, 0)
            used += 1
    return r, used


def fraction_span(vectors, keys):
    """Reference echelon basis: each nonzero residual is kept, scaled to 1
    at its first key in keys order; also returns the rows reduced by."""
    rows, used = [], 0
    for vec in vectors:
        r, u = fraction_residual(vec, rows, keys)
        used += u
        pivot = next((k for k in keys if r[k]), None)
        if pivot is not None:
            rows.append((pivot, {k: x / r[pivot] for k, x in r.items() if x}))
    return rows, used


def random_vectors(rng, keys, count):
    """p/q vectors on keys, with a repeat, a combination and a zero."""
    vectors = []
    for _ in range(count):
        vec = {}
        for k in rng.sample(keys, rng.randint(1, min(4, len(keys)))):
            vec[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        vectors.append(vec)
    combo = {k: 3 * x for k, x in vectors[0].items()}
    for k, x in vectors[1].items():
        combo[k] = combo.get(k, 0) - Fraction(2, 5) * x
    return vectors + [dict(vectors[2]), combo, {}]


class TestIntegerBoundary:
    """Rows are eliminated as primitive ints; what linalg hands back is
    exact, in primitive ints (rref's rows and kernel's vectors), and the
    budget sees the rows eliminated."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["int", "str"])
    def test_reduce_residuals_match_the_fraction_reference(self, seed, kind):
        rng = random.Random(seed)
        cols = sorted(rng.sample(range(30), 8))
        keys = cols if kind == "int" else [f"k{c:02d}" for c in cols]
        vectors = random_vectors(rng, keys, 6)
        span = linalg.Span()
        for vec in vectors[:4]:
            span.add(vec)
        rows, _ = fraction_span(vectors[:4], keys)
        assert [p for p, _ in span.rows] == [p for p, _ in rows]
        zero = 0
        for vec in vectors:
            expected, used = fraction_residual(vec, rows, keys)
            expected = {k: x for k, x in expected.items() if x}
            got = linalg._int_row(vec)[0]
            with Budget(steps=10**6) as budget:
                linalg._reduce(got, span.rows)
            # the int residual is a nonzero multiple of the one over Q
            assert set(got) == set(expected)
            if got:
                p = min(got)
                assert {k: Fraction(x, got[p]) for k, x in got.items()} \
                    == {k: x / expected[p] for k, x in expected.items()}
            assert all(type(x) is int for x in got.values())
            assert budget.steps - budget.left == used
            assert span.contains(vec) == (not got)
            zero += not got
        assert zero >= 1  # the first vectors lie in the span

    @pytest.mark.parametrize("seed", range(8))
    def test_rref_and_nullspace_return_fractions(self, seed):
        rng = random.Random(seed)
        nrows, ncols = TestAgainstDenseGaussJordan.SHAPES[seed % 6]
        rows = random_matrix(rng, nrows, ncols)
        ints = [[int(x * 60) for x in r] for r in rows]
        for given in (rows, ints):
            ech, pivots = linalg.rref(given, ncols)
            assert scaled_rows(ech, pivots, ncols) \
                == dense_rref(given, ncols)[0]
            kernel = linalg.kernel(columns_of(given, ncols), len(given))
            null = scaled_kernel(kernel, ncols)
            assert null == dense_nullspace(given, ncols)
            assert all(type(x) is Fraction for v in null for x in v)
            assert all(type(x) is int for _, v in kernel for x in v.values())

    @pytest.mark.parametrize("seed", range(8))
    def test_one_step_per_row_eliminated(self, seed):
        rng = random.Random(seed)
        nrows, ncols = TestAgainstDenseGaussJordan.SHAPES[seed % 6]
        rows = as_dicts(random_matrix(rng, nrows, ncols))
        kept, used = fraction_span(rows, list(range(ncols)))
        done = []  # back-substitution, by descending pivot
        for pivot, row in sorted(kept, key=lambda pr: pr[0], reverse=True):
            r, u = fraction_residual(row, done, list(range(ncols)))
            used += u
            done.append((pivot, {k: x for k, x in r.items() if x}))
        with Budget(steps=10**6) as budget:
            linalg.rref(rows, ncols)
        assert budget.steps - budget.left == used
