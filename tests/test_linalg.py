import random

from fractions import Fraction

import pytest

from logdiv import linalg
from logdiv.errors import Budget, BudgetExceeded


def dense_rref(rows, ncols):
    """Reference: dense Gauss-Jordan elimination with the pivot at the
    first nonzero row of each column (the routine linalg used before its
    elimination went sparse)."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def dense_nullspace(rows, ncols):
    ech, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -ech[i][fc]
        basis.append(v)
    return basis


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


def as_dicts(rows):
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


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
        assert [as_dense(r, ncols) for r in ech] == ref_ech
        assert all(all(x != 0 for x in r.values()) for r in ech)
        assert linalg.rank(given, ncols) == len(ref_ech)
        assert linalg.nullspace(given, ncols) == dense_nullspace(rows, ncols)
        assert given == snapshot

    def test_dict_rows_are_read_by_column(self):
        # column 2 only: a dense reading of the keys would see other columns
        rows = [{2: Fraction(5)}, {0: Fraction(1), 2: Fraction(1)}]
        ech, pivots = linalg.rref(rows, 3)
        assert pivots == [0, 2]
        assert ech == [{0: 1}, {2: 1}]
        assert linalg.nullspace(rows, 3) == [[0, 1, 0]]


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
            assert linalg.rank(rows, 2) == 2
        with pytest.raises(BudgetExceeded):
            with Budget(steps=4):
                linalg.rank(rows, 2)
                linalg.rank(rows, 2)
