"""One pass of a workload in a fresh process; prints one JSON object.

    python3 perfbench/one_pass.py --workload NAME --order-seed S [--trace]
    python3 perfbench/one_pass.py --workload NAME --setup-only

``ready`` in the output is ``time.monotonic()`` once logdiv is imported
and the inputs and expected outcomes are loaded; the parent subtracts
the monotonic time at which it started this process, and
``setup_probe_s``, to get the set-up time.  The reference is timed once
before the imports and once after ``ready``; ``setup_probe_mean_s`` is
the mean of the two.  ``run.py`` starts this script; it is not meant to
be run alone.
"""

import contextlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from speed_probe import SpeedProbe  # noqa: E402

setup_probe = SpeedProbe()
setup_probe.sample()

import argparse  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import logdiv.cli  # noqa: E402

import workloads  # noqa: E402


def run_pass(cases, analyze, probe=None):
    """Analyze every case in order; returns per-pass totals and failures.

    With a ``probe`` (a SpeedProbe), its time is taken out of ``wall_s``
    and ``probe_s`` is the mean probe duration.
    """
    t0 = time.perf_counter()
    with probe or contextlib.nullcontext():
        out = _analyze_all(cases, analyze)
    out["wall_s"] = time.perf_counter() - t0
    if probe is not None:
        out["wall_s"] -= probe.total_s()
        out["probe_s"] = probe.mean_s()
    return out


def _analyze_all(cases, analyze):
    stage_totals = {}
    failures = []
    failed = 0
    classification = deformation = 0.0
    for case in cases:
        try:
            report = analyze(case.doc, case.stages)
            code = 0
        except logdiv.cli.StageFailure as e:
            report = dict(getattr(e, "report", None) or {"timings": {}})
            report["error"] = {"stage": e.stage, "message": e.message}
            code = e.code
        except Exception as e:  # any other exception is a wrong outcome
            failures.append(f"{case.label}: {type(e).__name__}: {e}")
            failed += 1
            continue
        problems = workloads.check(case, code, report)
        failures.extend(f"{case.label}: {p}" for p in problems)
        failed += bool(problems)
        timings = report["timings"]
        c, d = workloads.stage_sums(timings)
        classification += c
        deformation += d
        for stage, seconds in timings.items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
    return {
        "classification_s": classification,
        "deformation_s": deformation,
        "stages": stage_totals,
        "attempted": len(cases),
        "failed": failed,
        "failures": failures,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--order-seed", default="0")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cases = workloads.load_cases(args.workload, ROOT)
    ready = time.monotonic()
    setup_probe.sample()
    out = {"ready": ready, "setup_probe_s": setup_probe.durations[0],
           "setup_probe_mean_s": setup_probe.mean_s()}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    random.Random(args.order_seed).shuffle(cases)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    # resolved after install, so the traced run enters through the wrapper;
    # traced passes take no probe, which would run inside traced spans
    out.update(run_pass(cases, logdiv.cli.analyze_document,
                        None if tracer else SpeedProbe()))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
