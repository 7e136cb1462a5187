"""Metamorphic tests: reordering the variables of an input renames the
coordinates, and a shear x_i -> x_i + c*x_j with w_i = w_j is a linear
change of coordinates that keeps the grading, so no invariant of the
divisor may change.

The changed analysis builds its Groebner bases from other polynomials,
in another term order, and may find another Saito basis, so it is a
second path to every answer. Permutations: the free Coxeter
arrangements, and the corpus inputs whose basis comes from the syzygy
route (no supplied matrix), against their golden reports; every
permutation is tried for n <= 3, a fixed seeded sample for n = 4.
Shears: braid A3, B3 and D4, and every corpus input whose weights are
all equal, a supplied Saito matrix carried along.

The chain criterion of the Groebner runs is a third relation: it drops
S-pairs, so a run with it yields fewer syzygy rows, but the Saito basis of
a graded f is a canonical form of the module they generate. Every graded
corpus input with every stage and the six arrangements of the benchmark
with the default stages give the same report, or the same failure, with
the criterion turned off.
"""

import itertools
import json
import os
import random
import re

import pytest

from logdiv import cli
from logdiv.errors import Budget
from logdiv.poly import detect_weight_system, poly_from_text

from conftest import strip_timings, without_chain_criterion

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


def corpus_documents():
    names = sorted(n[:-len(".json")] for n in os.listdir(CORPUS)
                   if n.endswith(".json") and not n.endswith(".expected.json"))
    out = []
    for name in names:
        with open(os.path.join(CORPUS, f"{name}.json"), encoding="utf-8") as fh:
            out.append((name, json.load(fh)))
    return out


def syzygy_route_corpus():
    return [(name, doc) for name, doc in corpus_documents()
            if "saito_matrix" not in doc]


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


# (i, j, c): x_i -> x_i + c*x_j, the indices taken modulo n
SHEARS = [(0, 1, "2"), (-1, 0, "-1/3")]


def sheared(doc, i, j, c):
    """doc under x_i -> x_i + c*x_j. A field a(x) of f(x) becomes
    (I - c*E_ij) a(A y) of f(A y), A = I + c*E_ij: row i of a supplied
    Saito matrix loses c times row j after the substitution."""
    names = doc["variables"]
    xi, xj = names[i], names[j]

    def sub(text):
        return re.sub(rf"\b{re.escape(xi)}\b", f"({xi} + ({c})*{xj})", text)

    out = dict(doc, f=sub(doc["f"]))
    if "saito_matrix" in doc:
        rows = [[sub(t) for t in row] for row in doc["saito_matrix"]]
        rows[i] = [f"({a}) - ({c})*({b})" for a, b in zip(rows[i], rows[j])]
        out["saito_matrix"] = rows
    return out


def equal_weight_corpus():
    out = []
    for name, doc in corpus_documents():
        w = detect_weight_system(poly_from_text(doc["f"], tuple(doc["variables"])))
        weights = doc.get("weights") or (w and w.weights)
        if weights and len(set(weights)) == 1:
            out.append((name, doc))
    return out


def shears(n):
    return [(i % n, j % n, c) for i, j, c in SHEARS]


# braid A3, B3 and D4
@pytest.mark.parametrize("label, n, f, stages", ARRANGEMENTS[:3],
                         ids=[a[0] for a in ARRANGEMENTS[:3]])
def test_arrangement_invariants_under_shears(label, n, f, stages):
    doc = {"label": label, "variables": [f"x{i}" for i in range(1, n + 1)], "f": f}
    want = invariants(analyze(doc, stages))
    for shear in shears(n):
        assert invariants(analyze(sheared(doc, *shear), stages)) == want, shear


@pytest.mark.parametrize("name, doc", equal_weight_corpus(),
                         ids=[name for name, _ in equal_weight_corpus()])
def test_corpus_invariants_under_shears(name, doc):
    with open(os.path.join(CORPUS, f"{name}.expected.json"), encoding="utf-8") as fh:
        want = invariants(json.load(fh))
    for shear in shears(len(doc["variables"])):
        assert invariants(analyze(sheared(doc, *shear), cli.ALL_STAGES)) == want, shear


def graded_corpus():
    return [(name, doc) for name, doc in corpus_documents()
            if "weights" in doc or detect_weight_system(
                poly_from_text(doc["f"], tuple(doc["variables"])))]


# the free Coxeter arrangements and the two generic arrangements, which
# are not free, with the default stages
BENCH_ARRANGEMENTS = [
    (label, {"label": label, "variables": [f"x{i}" for i in range(1, n + 1)],
             "f": f}, DEFAULT_STAGES)
    for label, n, f, _ in ARRANGEMENTS] + [
    (label, {"label": label, "variables": ["x", "y", "z"], "f": f},
     DEFAULT_STAGES)
    for label, f in [("generic-4", "x*y*z*(x+y+z)"),
                     ("generic-5", "x*y*z*(x+y+z)*(x+2*y+3*z)")]]


def outcome(doc, stages):
    """(report without timings, (code, stage, message) of the failure or
    None, steps spent)."""
    failure = None
    with Budget(10**7) as budget:
        try:
            report = cli.analyze_document(doc, stages)
        except cli.StageFailure as e:
            report, failure = e.report, (e.code, e.stage, e.message)
    return strip_timings(report), failure, budget.steps - budget.left


@pytest.mark.parametrize(
    "label, doc, stages",
    [(name, doc, cli.ALL_STAGES) for name, doc in graded_corpus()]
    + BENCH_ARRANGEMENTS,
    ids=[name for name, _ in graded_corpus()]
    + [label for label, _, _ in BENCH_ARRANGEMENTS])
def test_report_is_the_same_without_the_chain_criterion(label, doc, stages,
                                                        monkeypatch):
    report, failure, steps = outcome(doc, stages)
    with monkeypatch.context() as m:
        without_chain_criterion(m)
        report_off, failure_off, steps_off = outcome(doc, stages)
    assert (report, failure) == (report_off, failure_off)
    if label.startswith("generic"):
        size = int(label[-1])
        assert failure == (4, "basis", f"graded minimal generating set has "
                                       f"{size} elements, need 3")
    else:
        assert failure is None
    if (label, doc, stages) in BENCH_ARRANGEMENTS:
        assert steps < steps_off
