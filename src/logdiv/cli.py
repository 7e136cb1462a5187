"""Command line front end for divisor analysis.

Subcommands:
  analyze PATH    analyze one divisor description file
  corpus-run DIR  re-run a directory of descriptions against stored reports

A description file is one JSON object:

  {
    "label": "quartic",
    "variables": ["x", "y"],
    "f": "x^3*y - x*y^3",
    "weights": [1, 1],
    "saito_matrix": [["x", "0"], ["y", "x^2*y - y^3"]]
  }

label, variables and f are required; weights and saito_matrix are
optional; unknown keys are rejected. Each variable is a name of the
polynomial grammar: a letter or _, then letters, digits or _.
saito_matrix entry [r][c] is the coefficient of d/d(variables[r]) in
basis field c (columns are fields).

The human report goes to stdout; --json PATH writes the machine report
(top-level "schema": 1). The "timings" block varies run to run and is
excluded from corpus comparisons. h0 and the bounds are read from the
report of ft1, so --lft1 alone leaves them "not computed".

Exit codes: 0 success (stages skipped by flags read "not computed"),
2 input or parse error (also a --timeout that is not a positive finite
number, a LOGDIV_BUDGET below 1, or a --json PATH that cannot be
written, after the human report), 3 divisor not reduced, 4 no free
basis found (or a provided matrix failed verification), 5 timeout or
budget exhausted (also a Groebner degree past 32767), 6 internal
inconsistency (an error that a stage does not expect, such as
errors.InternalInconsistency; the report names the stage).

Each analysis, and each corpus-run entry, runs under one errors.Budget:
--timeout SECONDS (a positive finite number) is its deadline, and the
LOGDIV_BUDGET environment variable (a positive integer, default
errors.DEFAULT_STEPS) its steps, which Groebner reductions (exact
division by f among them), linear algebra, slice construction, the terms
of the Lie brackets (structure constants and the slice complexes' d0 and
d1) and the Saito matrix's determinant, adjugate, structure constants
and deformed equations share. A corpus entry that runs out of budget is
a mismatch, as is one whose stored report is missing or unreadable (not
a readable JSON file).
"""

import argparse
import json
import math
import os
import sys
import time

from .classify import (connection_conditions, is_koszul, is_linear,
                       is_reductive, lie_algebra_matrices, trace_test)
from .cohomology import ft1, linear_basis
from .cylinder import split_cylindrical
from .errors import (DEFAULT_STEPS, Budget, BudgetExceeded, LogdivError,
                     NonReduced, NotFree, NotHomogeneous, NotLinear,
                     ParseError, ZeroOrConstantInput, current_budget)
from .logder import (SaitoBasis, VectorField, format_field, _check_divisor,
                     _determinant_test, _select_saito_basis)
from .poly import (WeightSystem, _NAME, detect_weight_system,
                   poly_from_text, poly_to_text, weighted_degree)
from . import __version__

SCHEMA = 1
ALL_STAGES = ("classify", "koszul", "ft1", "lft1")


class StageFailure(Exception):
    """Abort the pipeline with a specific exit code and message."""

    def __init__(self, code, stage, message):
        self.code = code
        self.stage = stage
        self.message = message
        super().__init__(message)


def _fail(code, stage, message):
    raise StageFailure(code, stage, message)


# ---- input documents ---------------------------------------------------

_REQUIRED = ("label", "variables", "f")
_OPTIONAL = ("weights", "saito_matrix")


def load_document(path):
    """Read and validate one divisor description file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        _fail(2, "input", f"cannot read {path}: {e}")
    except ValueError as e:  # bad JSON or UTF-8, or an int too long to read
        _fail(2, "input", f"{path} is not valid JSON: {e}")
    except RecursionError:
        _fail(2, "input", f"{path} nests JSON too deeply")
    if not isinstance(doc, dict):
        _fail(2, "input", "document root must be an object")
    unknown = sorted(set(doc) - set(_REQUIRED) - set(_OPTIONAL))
    if unknown:
        _fail(2, "input", f"unknown fields: {', '.join(unknown)}")
    for key in _REQUIRED:
        if key not in doc:
            _fail(2, "input", f"missing required field: {key}")
    if not isinstance(doc["label"], str) or not doc["label"]:
        _fail(2, "input", "label must be a nonempty string")
    names = doc["variables"]
    if (not isinstance(names, list) or not names
            or not all(isinstance(v, str) and _NAME.fullmatch(v)
                       for v in names)):
        _fail(2, "input", "variables must be a list of names")
    if len(set(names)) != len(names):
        _fail(2, "input", "variable names must be distinct")
    if not isinstance(doc["f"], str):
        _fail(2, "input", "f must be a polynomial text")
    n = len(names)
    if "weights" in doc:
        ws = doc["weights"]
        if (not isinstance(ws, list) or len(ws) != n
                or not all(type(a) is int and a > 0 for a in ws)):
            _fail(2, "input", f"weights must be {n} positive integers")
    if "saito_matrix" in doc:
        mat = doc["saito_matrix"]
        if (not isinstance(mat, list) or len(mat) != n
                or not all(isinstance(row, list) and len(row) == n
                           and all(isinstance(x, str) for x in row)
                           for row in mat)):
            _fail(2, "input", f"saito_matrix must be {n}x{n} polynomial texts")
    return doc


def _parse_poly(text, ring, what):
    try:
        return poly_from_text(text, ring)
    except ParseError as e:
        _fail(2, "input", f"{what}: {e}")
    except BudgetExceeded as e:
        _fail(5, "input", f"{what}: {e}")


# ---- pipeline ----------------------------------------------------------

def _detect_grading(f, provided):
    if provided is not None:
        weights = tuple(provided)
        try:
            k = weighted_degree(f, weights)
        except NotHomogeneous as e:
            _fail(2, "input",
                  f"f is not homogeneous for the given weights "
                  f"(degrees {sorted(e.degrees)})")
        return WeightSystem(weights, k)
    return detect_weight_system(f)


def _field_texts(fields, n):
    """Saito matrix as row-major polynomial texts, columns are fields."""
    return [[poly_to_text(fields[c].components[r]) for c in range(n)]
            for r in range(n)]


def _computed(rep):
    return {
        "status": "computed",
        "dimension": rep.dimension,
        "representatives": [poly_to_text(p) for p in rep.deformed_equations],
    }


def analyze_document(doc, stages):
    """Run the analysis pipeline on a validated document.

    Returns the report dict; raises StageFailure for error exits. The
    partially filled report is attached to the failure as .report.
    Work is charged to the budget of the enclosing ``with Budget(...)``
    block, if any; its deadline is also checked between stages.
    """
    timings = {}
    report = {
        "schema": SCHEMA,
        "tool": {"name": "logdiv", "version": __version__},
        "input": {k: doc.get(k) for k in ("label", "variables", "f",
                                          "weights", "saito_matrix")},
        "profile": "not computed",
        "h0": "not computed",
        "ft1": "not computed",
        "lft1": "not computed",
        "bounds": "not computed",
        "timings": timings,
    }

    def run_stage(name, fn):
        t0 = time.perf_counter()
        try:
            current_budget().spend(0)
            return fn()
        except BudgetExceeded as e:
            failure = StageFailure(5, name, str(e))
            failure.report = report
            raise failure
        except StageFailure as e:
            e.report = report
            raise
        except LogdivError as e:  # any other error escaping a stage is a bug
            failure = StageFailure(6, name, f"internal inconsistency: {e}")
            failure.report = report
            raise failure
        finally:
            timings[name] = round(time.perf_counter() - t0, 6)

    ring = tuple(doc["variables"])
    f = _parse_poly(doc["f"], ring, "f")

    # reduction: only when the input does not pin a matrix to the ring
    def reduce_stage():
        if doc.get("saito_matrix") is not None:
            return None
        split = split_cylindrical(f) if not f.is_zero() else None
        return split if split is not None and not split.is_identity else None

    split = run_stage("reduce", reduce_stage)
    work_ring = split.ring if split else ring
    work_f = split.poly if split else f

    # the one squarefree check of the analysis, is_squarefree's: f is
    # squarefree when its restriction to a line is, mod a prime, and only
    # when no line shows it does a dimension test of the singular locus
    # decide; the basis stage calls the unchecked cores of verify_saito
    # and saito_basis
    def divisor_stage():
        try:
            _check_divisor(work_f)
        except NonReduced:
            _fail(3, "divisor", "f is not squarefree")
        except (ValueError, ZeroOrConstantInput) as e:
            _fail(2, "divisor", str(e))

    run_stage("divisor", divisor_stage)

    provided_weights = doc.get("weights")
    if provided_weights is not None and split:
        provided_weights = [provided_weights[i] for i in split.kept]
    w = run_stage("grading", lambda: _detect_grading(work_f, provided_weights))

    def basis_stage():
        if doc.get("saito_matrix") is not None:
            mat = [[_parse_poly(doc["saito_matrix"][r][c], work_ring,
                                f"saito_matrix[{r}][{c}]")
                    for c in range(len(work_ring))]
                   for r in range(len(work_ring))]
            fields = [VectorField(work_ring, [mat[r][c] for r in range(len(work_ring))])
                      for c in range(len(work_ring))]
            res = _determinant_test(fields, work_f)
            if not res.ok:
                _fail(4, "basis", f"provided matrix is not a basis: {res.reason}")
            return SaitoBasis(fields, work_f, res.unit, res.table)
        try:
            return _select_saito_basis(work_f, w)
        except NotFree as e:
            _fail(4, "basis", str(e))

    saito = run_stage("basis", basis_stage)
    n = len(work_ring)
    field_weights = None
    if w:
        try:
            field_weights = saito.field_weights(w)
        except NotHomogeneous:
            field_weights = None

    profile = {
        "variables": list(work_ring),
        "f": poly_to_text(work_f),
        "reduction": {"dropped": [ring[i] for i in split.dropped]} if split else None,
        "weights": list(w.weights) if w else None,
        "degree": w.degree if w else None,
        "weighted_homogeneous": w is not None,
        "free": True,
        "unit": poly_to_text(saito.unit),
        "saito_matrix": _field_texts(saito.fields, n),
        "field_weights": field_weights,
        "linear": "not computed",
        "reductive": "not computed",
        "trace_witness": "not computed",
        "connection_conditions": "not computed",
        "koszul": "not computed",
    }
    report["profile"] = profile

    # ft1 (with h0 and the bounds) and lft1 share one deformation report,
    # with its slice complex and class space, per (graded basis, grading)
    deformations = {}

    def deformation(basis, grading):
        basis = basis.graded(grading)
        key = (basis, grading.weights, grading.degree)
        if key not in deformations:
            deformations[key] = ft1(work_f, saito=basis, w=grading)
        return deformations[key]

    if "classify" in stages:
        def classify_stage():
            result = {}
            result["linear"] = is_linear(saito)
            if result["linear"]:
                g = lie_algebra_matrices(saito)
                result["reductive"] = is_reductive(g)
                witness = trace_test(work_f)
                if witness.witnesses:
                    delta, tr = witness.witnesses[0]
                    result["trace_witness"] = {
                        "field": format_field(delta),
                        "trace": str(tr),
                    }
                else:
                    result["trace_witness"] = None
            else:
                result["reductive"] = None
                result["trace_witness"] = None
            c1, c2 = connection_conditions(saito)
            result["connection_conditions"] = [c1, c2]
            return result

        outcome = run_stage("classify", classify_stage)
        profile.update(outcome)

    if "koszul" in stages:
        profile["koszul"] = run_stage("koszul", lambda: is_koszul(saito))

    if "ft1" in stages:
        def ft1_stage():
            if w is None:
                return {"status": "refused: not weighted homogeneous"}
            rep = deformation(saito, w)
            report["h0"] = rep.notes["h0"]
            report["bounds"] = {"jacobian_degree_bound": rep.jacobian_degree_bound}
            return _computed(rep)

        report["ft1"] = run_stage("ft1", ft1_stage)

    if "lft1" in stages:
        def lft1_stage():
            try:
                basis, grading = linear_basis(work_f, saito=saito)
            except NotLinear:
                return {"status": "refused: not a linear free divisor"}
            return _computed(deformation(basis, grading))

        report["lft1"] = run_stage("lft1", lft1_stage)

    return report


# ---- output ------------------------------------------------------------

def _human_lines(report):
    lines = []
    inp = report["input"]
    lines.append(f"label: {inp['label']}")
    if "error" in report:
        err = report["error"]
        lines.append(f"error at stage {err['stage']}: {err['message']}")
    prof = report["profile"]
    if isinstance(prof, dict):
        lines.append(f"f = {prof['f']}  in Q[{', '.join(prof['variables'])}]")
        if prof.get("reduction"):
            dropped = ", ".join(prof["reduction"]["dropped"])
            lines.append(f"reduced: dropped unused variables {dropped}")
        if prof["weighted_homogeneous"]:
            lines.append(f"weights: {tuple(prof['weights'])}, degree {prof['degree']}"
                         f", field weights {prof['field_weights']}")
        else:
            lines.append("weights: not weighted homogeneous")
        lines.append(f"free: yes (determinant unit {prof['unit']})")
        for key in ("linear", "reductive", "koszul"):
            if prof[key] not in ("not computed", None):
                lines.append(f"{key}: {prof[key]}")
        tw = prof["trace_witness"]
        if isinstance(tw, dict):
            lines.append(f"trace witness: {tw['field']} (trace {tw['trace']})")
        if prof["connection_conditions"] != "not computed":
            c1, c2 = prof["connection_conditions"]
            lines.append(f"connection conditions: {c1}, {c2}")
    for key in ("ft1", "lft1"):
        block = report[key]
        if block == "not computed":
            lines.append(f"{key}: not computed")
        elif block.get("status") == "computed":
            reps = ", ".join(block["representatives"]) or "-"
            lines.append(f"{key}: dimension {block['dimension']}"
                         f" (representatives: {reps})")
        else:
            lines.append(f"{key}: {block['status']}")
    if report["h0"] != "not computed":
        lines.append(f"h0: {report['h0']}")
    if isinstance(report["bounds"], dict):
        lines.append(f"jacobian degree bound: "
                     f"{report['bounds']['jacobian_degree_bound']}")
    return lines


def _emit(report, json_path):
    """Print the report and write it to json_path; 2 if that fails."""
    for line in _human_lines(report):
        print(line)
    if json_path:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as e:
            print(f"cannot write {json_path}: {e}", file=sys.stderr)
            return 2


# ---- corpus ------------------------------------------------------------

def _diff_fields(expected, actual, path, out):
    """Append to out the path of each field where actual differs from
    expected; timings keys, at any depth, are not compared."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted((set(expected) | set(actual)) - {"timings"}):
            sub = f"{path}.{key}" if path else key
            if key not in expected:
                out.append(f"{sub} (unexpected)")
            elif key not in actual:
                out.append(f"{sub} (missing)")
            else:
                _diff_fields(expected[key], actual[key], sub, out)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{path} (length {len(actual)} != {len(expected)})")
        else:
            for i, (e, a) in enumerate(zip(expected, actual)):
                _diff_fields(e, a, f"{path}[{i}]", out)
    elif expected != actual:
        out.append(path)


def run_corpus(directory, steps=DEFAULT_STEPS, seconds=None):
    """Re-run every entry of a corpus directory, each with its own budget,
    against its stored report; returns the exit code."""
    entries = []
    try:
        names = sorted(os.listdir(directory))
    except OSError as e:
        print(f"cannot read directory: {e}", file=sys.stderr)
        return 2
    for name in names:
        if not name.endswith(".json") or name.endswith(".expected.json"):
            continue
        path = os.path.join(directory, name)
        golden_path = path[:-len(".json")] + ".expected.json"
        try:
            doc = load_document(path)
        except StageFailure as e:
            entries.append((name, name, [f"input ({e.message})"]))
            continue
        mismatches = []
        try:
            with Budget(steps, seconds):
                report = analyze_document(doc, ALL_STAGES)
        except StageFailure as e:
            report = getattr(e, "report", {})
            report = dict(report)
            report["error"] = {"stage": e.stage, "message": e.message}
        try:
            with open(golden_path, "r", encoding="utf-8") as fh:
                golden = json.load(fh)
        except FileNotFoundError:
            mismatches.append("expected report file missing")
        except (OSError, ValueError, RecursionError):
            mismatches.append("expected report unreadable")
        else:
            _diff_fields(golden, report, "", mismatches)
        entries.append((doc["label"], name, mismatches))
    entries.sort(key=lambda t: t[0])
    bad = 0
    for label, name, mismatches in entries:
        if mismatches:
            bad += 1
            print(f"{label:24s} MISMATCH  {', '.join(mismatches)}")
        else:
            print(f"{label:24s} ok")
    print(f"{len(entries)} corpus entries, {bad} mismatched")
    return 1 if bad else 0


# ---- entry point -------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="logdiv",
        description="free divisor classification and deformation spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="analyze one divisor description")
    an.add_argument("path")
    an.add_argument("--ft1", action="store_true",
                    help="compute the first-order deformation space")
    an.add_argument("--lft1", action="store_true",
                    help="compute the linear deformation space")
    an.add_argument("--classify", action="store_true",
                    help="linear/reductive classification (default)")
    an.add_argument("--koszul", action="store_true",
                    help="Koszul test via symbol ideal dimension")
    an.add_argument("--all", action="store_true", help="run every stage")
    an.add_argument("--json", metavar="PATH",
                    help="also write the machine report to PATH")
    an.add_argument("--timeout", type=float, metavar="SECONDS",
                    help="stop the analysis after SECONDS (exit 5)")

    co = sub.add_parser("corpus-run",
                        help="re-run a corpus directory against stored reports")
    co.add_argument("directory")
    co.add_argument("--timeout", type=float, metavar="SECONDS",
                    help="stop each entry after SECONDS (a mismatch)")
    return parser


def _stage_set(args):
    stages = set()
    if args.classify:
        stages.update(("classify", "koszul"))
    if args.koszul:
        stages.add("koszul")
    if args.ft1:
        stages.add("ft1")
    if args.lft1:
        stages.add("lft1")
    if args.all:
        stages.update(ALL_STAGES)
    if not stages:
        stages.update(("classify", "koszul"))
    return stages


def main(argv=None):
    args = _build_parser().parse_args(argv)
    override = os.environ.get("LOGDIV_BUDGET") or str(DEFAULT_STEPS)
    try:
        steps = int(override)
    except ValueError:
        steps = 0
    if steps < 1:
        print(f"LOGDIV_BUDGET must be a positive integer, got {override!r}",
              file=sys.stderr)
        return 2
    seconds = args.timeout
    if seconds is not None and not 0 < seconds < math.inf:
        print(f"--timeout must be a positive finite number of seconds,"
              f" got {seconds}", file=sys.stderr)
        return 2

    if args.command == "corpus-run":
        return run_corpus(args.directory, steps, seconds)

    try:
        doc = load_document(args.path)
        with Budget(steps, seconds):
            report = analyze_document(doc, _stage_set(args))
    except StageFailure as e:
        report = getattr(e, "report", None)
        if report is not None:
            report["error"] = {"stage": e.stage, "message": e.message}
            return _emit(report, args.json) or e.code
        print(f"error: {e.message}", file=sys.stderr)
        return e.code
    except LogdivError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return _emit(report, args.json) or 0


if __name__ == "__main__":
    sys.exit(main())
