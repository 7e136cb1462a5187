"""logdiv benchmark: one closed-loop caller, one analysis at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/`` and ``corpus/`` beside
``perfbench/``).  Each pass runs every input of the workload through
``logdiv.cli.analyze_document`` in a fresh process, one pass after the
other, until the next pass would end after ``--seconds``; at least one
pass always runs.  ``--seed`` only permutes the order of the inputs
within each pass.  Every outcome is checked (see workloads.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics
of BENCHMARK.json, each the median over passes, with times scaled to
nominal host speed (speed_probe.py).  With ``--trace 1`` one
untraced pass is followed by at least two traced passes (tracer.py),
which must agree on every exact count, and the last line carries the
per-layer metrics.  Human-readable lines come first.  The
exit code is 0 only when every analysis had its expected outcome.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed_probe import nominal  # noqa: E402
from tracer import LAYERS  # noqa: E402

ONE_PASS = os.path.join(HERE, "one_pass.py")
# Every run must end well within 180 s, whatever --seconds asks for.
HARD_LIMIT_S = 165.0
SETUP_PROBES = 11

# Layers that must record calls on a workload in the traced run, and
# layers that must record none.
ACTIVE = {
    "lnr5-all": ("cli", "poly", "groebner", "linalg", "logder", "classify",
                 "cohomology"),
    "corpus-small": ("cli", "cylinder", "poly", "groebner", "linalg",
                     "logder", "classify", "cohomology"),
    "arrangements": ("cli", "cylinder", "poly", "groebner", "logder",
                     "classify"),
}
SILENT = {"arrangements": ("cohomology",)}

# Method spans reported under the short names the metrics use.
SPAN_OF = {
    "groebner.normal_form": "groebner.GroebnerBasis.normal_form",
    "cohomology.h2_dimension": "cohomology.CEComplex.h2_dimension",
}

CALL_METRICS = (
    "poly.poly_gcd", "poly.poly_det", "poly.try_exact_div",
    "groebner.TrackedBasis", "groebner.buchberger", "groebner.normal_form",
    "linalg.rref", "linalg.rank", "linalg.nullspace", "linalg.solve",
    "linalg.in_row_space",
    "logder.verify_saito", "logder.structure_constants", "logder.lie_bracket",
    "cohomology.SliceComplex", "cohomology.QuotientSlice",
)
TIME_METRICS = (
    "cylinder.split_cylindrical", "poly.poly_gcd",
    "groebner.TrackedBasis", "groebner.buchberger", "groebner.normal_form",
    "groebner.syzygies", "groebner.krull_dimension",
    "groebner.graded_quotient_basis",
    "linalg.rref",
    "logder.compute_der_log", "logder.find_saito_basis",
    "logder.weight_zero_part",
    "classify.is_koszul", "classify.connection_conditions",
    "classify.trace_test", "classify.lie_algebra_matrices",
    "cohomology.SliceComplex", "cohomology.CEComplex",
    "cohomology.h2_dimension",
)
COUNT_FACTS = (
    "groebner.basis_len", "linalg.cells", "linalg.nnz", "linalg.max_rows",
    "linalg.max_cols", "logder.find_saito_basis.tries",
    "cohomology.dim_c1.max", "cohomology.dim_c2.max",
)
CLI_STAGES = ("basis", "classify", "koszul", "ft1", "lft1", "h0", "bounds")


class BenchError(Exception):
    pass


def spawn(workload, deadline, *flags):
    """Run one_pass.py once; returns its output plus ``setup_raw_s`` and
    ``setup_s``, the set-up time at nominal speed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time: a run must end within {HARD_LIMIT_S} s")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, ONE_PASS, "--workload", workload, *flags],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"one_pass.py exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_raw_s"] = out["ready"] - t0 - out["setup_probe_s"]
    out["setup_s"] = nominal(out["setup_raw_s"], out["setup_probe_mean_s"])
    if "probe_s" in out:
        out["wall_nominal_s"] = nominal(out["wall_s"], out["probe_s"])
    out["elapsed_s"] = time.monotonic() - t0
    return out


def run_passes(workload, seed, seconds, deadline, trace=False):
    """Passes until the next one would end after ``seconds``.  With
    ``trace`` the first pass is untraced and at least two traced passes
    follow it, so that their exact counts can be compared."""
    passes = []
    start = time.monotonic()
    while True:
        flags = ("--trace",) if trace and passes else ()
        passes.append(spawn(workload, deadline, "--order-seed",
                            f"{seed}:{len(passes)}", *flags))
        elapsed = time.monotonic() - start
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= 1 + 2 * trace and elapsed + typical > seconds:
            return passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(passes, setups):
    return {
        "wall_s": (median_of(passes, "wall_nominal_s"), "s"),
        "peak_rss_mb": (median_of(passes, "peak_rss_mb"), "MB"),
        "setup_s": (median_of(setups, "setup_s"), "s"),
    }


def exact_counts(summary):
    """Every count the traced run reports as exact."""
    counts = dict(summary["calls"])
    counts.update({k: summary["facts"][k] for k in COUNT_FACTS
                   + ("logder.find_saito_basis.kept",)})
    return counts


def per_layer(workload, untraced, traced, setups):
    summary = traced[0]["trace"]
    for other in traced[1:]:
        if exact_counts(other["trace"]) != exact_counts(summary):
            raise BenchError("traced passes disagree on exact counts")
    calls = summary["calls"]
    by_layer = {layer: 0 for layer in LAYERS}
    for name, n in calls.items():
        by_layer[name.split(".", 1)[0]] += n
    for layer in ACTIVE[workload]:
        if by_layer[layer] == 0:
            raise BenchError(f"layer {layer} recorded no calls on {workload}")
    for layer in SILENT.get(workload, ()):
        if by_layer[layer] != 0:
            raise BenchError(f"layer {layer} recorded {by_layer[layer]} calls "
                             f"on {workload}, expected none")

    m = {"host.wall_s": (untraced["wall_s"], "s"),
         "host.setup_s": (median_of(setups, "setup_raw_s"), "s"),
         "host.probe_s": (untraced["probe_s"], "s")}
    stages = untraced["stages"]
    for stage in CLI_STAGES:
        m[f"cli.stage.{stage}_s"] = (stages.get(stage, 0.0), "s")
    m["cli.classification_s"] = (untraced["classification_s"], "s")
    m["cli.deformation_s"] = (untraced["deformation_s"], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (statistics.median(
            p["trace"]["layer_self_s"].get(layer, 0.0) for p in traced), "s")
    for metric in CALL_METRICS:
        m[f"{metric}.calls"] = (calls.get(SPAN_OF.get(metric, metric), 0), "count")
    for metric in TIME_METRICS:
        span = SPAN_OF.get(metric, metric)
        m[f"{metric}.s"] = (statistics.median(
            p["trace"]["incl_s"].get(span, 0.0) for p in traced), "s")
    facts = summary["facts"]
    for key in COUNT_FACTS:
        m[key] = (facts[key], "count")
    cells = facts["linalg.cells"]
    m["linalg.density"] = (facts["linalg.nnz"] / cells if cells else 0.0, "ratio")
    tries = facts["logder.find_saito_basis.tries"]
    m["logder.find_saito_basis.kept_frac"] = (
        facts["logder.find_saito_basis.kept"] / tries if tries else 0.0, "ratio")
    m["trace.overhead_frac"] = (
        median_of(traced, "wall_s") / untraced["wall_s"] - 1, "ratio")
    return m


def min_max(values):
    return f"min {min(values):.4g}, max {max(values):.4g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for need in ("src/logdiv/cli.py", "corpus"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"error: {need} not found beside perfbench/; run from a "
                  f"logdiv source checkout", file=sys.stderr)
            return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        setups = [spawn(args.workload, deadline, "--setup-only")
                  for _ in range(SETUP_PROBES)]
        passes = run_passes(args.workload, args.seed, args.seconds, deadline,
                            trace=bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups += passes
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for message in p["failures"]:
            print(f"wrong outcome: {message}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} analyses, failed_frac {failed / attempted:.4g}")
    untraced_passes = passes[:1] if args.trace else passes
    for name in ("wall_s", "probe_s", "classification_s", "deformation_s"):
        values = [p[name] for p in untraced_passes]
        print(f"  raw {name} {statistics.median(values):.6f} s (median of "
              f"{len(values)} untraced passes; {min_max(values)})")
    values = [p["setup_raw_s"] for p in setups]
    print(f"  raw setup_s {statistics.median(values):.6f} s (median of "
          f"{len(values)}; {min_max(values)})")
    if args.trace:
        untraced, traced = passes[0], passes[1:]
        try:
            metrics = per_layer(args.workload, untraced, traced, setups)
        except BenchError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        for name, (value, unit) in metrics.items():
            n = 1 if unit != "s" or name.startswith("cli.") else len(traced)
            print(f"  {name:40s} {value:.6g} {unit} (n={n})")
    else:
        metrics = end_to_end(passes, setups)
        samples = {"wall_s": [p["wall_nominal_s"] for p in passes],
                   "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
                   "setup_s": [p["setup_s"] for p in setups]}
        for name, (value, unit) in metrics.items():
            values = samples[name]
            print(f"  {name:11s} {value:.6f} {unit} (median of {len(values)}; "
                  f"{min_max(values)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
