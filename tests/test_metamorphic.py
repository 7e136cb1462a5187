"""Metamorphic tests: reordering the variables of an input renames the
coordinates, so no invariant of the divisor may change.

The reordered analysis builds its Groebner bases in another term order
and may find another Saito basis, so it is a second path to every
answer. Inputs: the free Coxeter arrangements, and the corpus inputs
whose basis comes from the syzygy route (no supplied matrix), against
their golden reports. Every permutation is tried for n <= 3, a fixed
seeded sample for n = 4.
"""

import itertools
import json
import os
import random

import pytest

from logdiv import cli
from logdiv.errors import Budget

CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "corpus")
SAMPLE = 2  # permutations drawn for n = 4, besides the identity
DEFAULT_STAGES = ("classify", "koszul")


def permutations(n, seed):
    perms = list(itertools.permutations(range(n)))[1:]
    if n <= 3:
        return perms
    return random.Random(seed).sample(perms, SAMPLE)


def permuted(doc, perm):
    out = dict(doc, variables=[doc["variables"][i] for i in perm])
    if "weights" in doc:
        out["weights"] = [doc["weights"][i] for i in perm]
    return out


def invariants(report):
    """The answers that do not depend on the coordinates."""
    profile = report["profile"]
    return {
        "free": profile["free"],
        "field_weights": sorted(profile["field_weights"] or []),
        "linear": profile["linear"],
        "reductive": profile["reductive"],
        "koszul": profile["koszul"],
        "ft1": report["ft1"] if report["ft1"] == "not computed" else {
            k: v for k, v in report["ft1"].items() if k != "representatives"},
        "lft1": report["lft1"] if report["lft1"] == "not computed" else {
            k: v for k, v in report["lft1"].items() if k != "representatives"},
        "h0": report["h0"],
        "bounds": report["bounds"],
    }


def analyze(doc, stages):
    with Budget(10**7):
        return cli.analyze_document(doc, stages)


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _product(factors):
    return "*".join(f"({a})" for a in factors)


# (label, variables, f, stages); ft1 of B4 alone takes seconds, so the
# arrangements in four variables are compared on their classification
ARRANGEMENTS = [
    ("braid-A3", 4, _product(f"x{i}-x{j}" for i, j in _pairs(4)), DEFAULT_STAGES),
    ("coxeter-B3", 3, "x1*x2*x3*" + _product(f"x{i}^2-x{j}^2" for i, j in _pairs(3)),
     cli.ALL_STAGES),
    ("coxeter-D4", 4, _product(f"x{i}^2-x{j}^2" for i, j in _pairs(4)), DEFAULT_STAGES),
    ("coxeter-B4", 4, "x1*x2*x3*x4*" + _product(f"x{i}^2-x{j}^2" for i, j in _pairs(4)),
     DEFAULT_STAGES),
]


def syzygy_route_corpus():
    names = sorted(n[:-len(".json")] for n in os.listdir(CORPUS)
                   if n.endswith(".json") and not n.endswith(".expected.json"))
    out = []
    for name in names:
        with open(os.path.join(CORPUS, f"{name}.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        if "saito_matrix" not in doc:
            out.append((name, doc))
    return out


@pytest.mark.parametrize("label, n, f, stages", ARRANGEMENTS,
                         ids=[a[0] for a in ARRANGEMENTS])
def test_arrangement_invariants_under_permutation(label, n, f, stages):
    doc = {"label": label, "variables": [f"x{i}" for i in range(1, n + 1)], "f": f}
    want = invariants(analyze(doc, stages))
    assert want["free"] is True and want["koszul"] is True
    for perm in permutations(n, label):
        assert invariants(analyze(permuted(doc, perm), stages)) == want, perm


@pytest.mark.parametrize("name, doc", syzygy_route_corpus(),
                         ids=[name for name, _ in syzygy_route_corpus()])
def test_corpus_invariants_under_permutation(name, doc):
    with open(os.path.join(CORPUS, f"{name}.expected.json"), encoding="utf-8") as fh:
        want = invariants(json.load(fh))
    for perm in permutations(len(doc["variables"]), name):
        assert invariants(analyze(permuted(doc, perm), cli.ALL_STAGES)) == want, perm
