"""Benchmark workloads: fixed inputs and the expected outcome of each.

A case is one call of ``logdiv.cli.analyze_document``.  Its expected
outcome is either a golden report from ``corpus/`` (compared without
``timings``) or, for the hyperplane arrangements, facts known from
theory, so that no expected value comes from logdiv itself.

Why these three workloads (see README.md for the metric table):

- ``lnr5-all``: the one heavy corpus entry with every stage.  Its Saito
  matrix is supplied, so the Groebner syzygy route is bypassed and the
  time goes to the deformation complexes and exact linear algebra on
  large, sparse matrices.
- ``corpus-small``: the other 13 corpus entries with every stage.  The
  same layers make many tiny calls here, so per-call overhead shows,
  which inside the whole corpus would hide behind ``lnr5-all``.
- ``arrangements``: Coxeter arrangements and two non-free generic
  arrangements with the default ``analyze`` stages.  Almost all time is
  in Groebner bases (syzygies and the Saito basis search) and the
  cohomology layer is never called.
"""

import json
import os

ALL_STAGES = ("classify", "koszul", "ft1", "lft1")
DEFAULT_STAGES = ("classify", "koszul")
HEAVY = "linear-nonreductive-5"

CLASSIFICATION_STAGES = ("reduce", "divisor", "grading", "basis", "classify",
                         "koszul")
DEFORMATION_STAGES = ("ft1", "lft1", "h0", "bounds")


class Case:
    """One analysis: an input document, its stages and its expected outcome.

    ``expected`` is ``("golden", report)``, ``("free", field_weights)``
    or ``("not-free", exit_code, stage)``.
    """

    __slots__ = ("label", "doc", "stages", "expected")

    def __init__(self, label, doc, stages, expected):
        self.label = label
        self.doc = doc
        self.stages = stages
        self.expected = expected


def _product(factors):
    return "*".join(f"({f})" for f in factors)


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _coxeter_b(n):
    coords = "*".join(f"x{i}" for i in range(1, n + 1))
    return coords + "*" + _product(f"x{i}^2-x{j}^2" for i, j in _pairs(n))


def arrangement_cases():
    """Coxeter arrangements with their Terao exponents, plus two generic
    arrangements that are not free.

    A free arrangement with exponents d_1..d_n has a Saito basis of
    fields of polynomial degree d_i; logdiv reports field weights
    d_i - 1 for the standard grading.  The braid arrangement A3 is taken
    in four variables, so it is not essential and keeps the constant
    field (exponent 0).
    """
    x4 = ["x1", "x2", "x3", "x4"]
    free = [
        ("braid-A3", x4, _product(f"x{i}-x{j}" for i, j in _pairs(4)),
         [-1, 0, 1, 2]),
        ("coxeter-B3", ["x1", "x2", "x3"], _coxeter_b(3), [0, 2, 4]),
        ("coxeter-D4", x4, _product(f"x{i}^2-x{j}^2" for i, j in _pairs(4)),
         [0, 2, 2, 4]),
        ("coxeter-B4", x4, _coxeter_b(4), [0, 2, 4, 6]),
    ]
    generic = [
        ("generic-4", "x*y*z*(x+y+z)"),
        ("generic-5", "x*y*z*(x+y+z)*(x+2*y+3*z)"),
    ]
    cases = [Case(label, {"label": label, "variables": ring, "f": f},
                  DEFAULT_STAGES, ("free", weights))
             for label, ring, f, weights in free]
    cases += [Case(label, {"label": label, "variables": ["x", "y", "z"], "f": f},
                   DEFAULT_STAGES, ("not-free", 4, "basis"))
              for label, f in generic]
    return cases


def corpus_cases(corpus_dir, heavy):
    """Corpus entries with every stage: only the heavy one if ``heavy``,
    otherwise all the others."""
    cases = []
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json") or name.endswith(".expected.json"):
            continue
        stem = name[:-len(".json")]
        if (stem == HEAVY) != heavy:
            continue
        with open(os.path.join(corpus_dir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(os.path.join(corpus_dir, stem + ".expected.json"),
                  encoding="utf-8") as fh:
            golden = json.load(fh)
        cases.append(Case(stem, doc, ALL_STAGES, ("golden", golden)))
    return cases


WORKLOADS = ("lnr5-all", "corpus-small", "arrangements")


def load_cases(workload, root):
    corpus_dir = os.path.join(root, "corpus")
    if workload == "lnr5-all":
        cases = corpus_cases(corpus_dir, heavy=True)
    elif workload == "corpus-small":
        cases = corpus_cases(corpus_dir, heavy=False)
    elif workload == "arrangements":
        cases = arrangement_cases()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if not cases:
        raise ValueError(f"workload {workload!r} has no inputs under {root}")
    return cases


def _without_timings(obj):
    if isinstance(obj, dict):
        return {k: _without_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [_without_timings(v) for v in obj]
    return obj


def check(case, code, report):
    """Mismatches between an outcome and the case's expectation.

    ``code`` is 0 for a completed analysis or the exit code of the stage
    failure; ``report`` carries ``error`` when the analysis stopped.
    Returns a list of messages, empty when the outcome is the expected one.
    """
    kind = case.expected[0]
    if kind == "golden":
        golden = _without_timings(case.expected[1])
        actual = _without_timings(report)
        if code != 0:
            return [f"exit {code} at {report['error']['stage']}, expected success"]
        return [f"{key} differs from the golden report"
                for key in sorted(set(golden) | set(actual))
                if golden.get(key) != actual.get(key)]
    if kind == "not-free":
        _, want_code, want_stage = case.expected
        got_stage = report.get("error", {}).get("stage")
        if (code, got_stage) != (want_code, want_stage):
            return [f"exit {code} at {got_stage}, expected exit {want_code} "
                    f"at {want_stage}"]
        return []
    weights = case.expected[1]
    if code != 0:
        return [f"exit {code} at {report['error']['stage']}, expected a free divisor"]
    profile = report["profile"]
    out = []
    if sorted(profile["field_weights"] or []) != weights:
        out.append(f"field weights {profile['field_weights']}, Terao exponents "
                   f"give {weights}")
    for key, want in (("free", True), ("koszul", True), ("linear", False)):
        if profile[key] is not want:
            out.append(f"{key} is {profile[key]!r}, expected {want!r}")
    return out


def stage_sums(timings):
    """(classification_s, deformation_s) from one report's stage timings."""
    return (sum(timings.get(s, 0.0) for s in CLASSIFICATION_STAGES),
            sum(timings.get(s, 0.0) for s in DEFORMATION_STAGES))
