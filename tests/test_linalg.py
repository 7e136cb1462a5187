import random

from fractions import Fraction

import pytest

from logdiv import linalg
from logdiv.errors import Budget, BudgetExceeded


def greedy_by_rank(vectors, keys):
    """Reference selection: re-rank the kept rows for each candidate."""
    kept = []
    chosen = []
    for idx, vec in enumerate(vectors):
        row = [vec.get(k, Fraction(0)) for k in keys]
        if linalg.rank(kept + [row], len(keys)) > len(kept):
            kept.append(row)
            chosen.append(idx)
    return chosen


class TestSpan:
    @pytest.mark.parametrize("seed", range(6))
    def test_selects_what_reranking_selects(self, seed):
        rng = random.Random(seed)
        keys = [(c, (rng.randint(0, 3),)) for c in range(3)] + ["a", "b", "c"]
        keys = list(dict.fromkeys(keys))
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
