"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They check that the tracer wraps every import of a layer function, that
traced passes repeat their exact counts, and that the outcome checks
reject wrong outcomes.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import speed_probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def traced_pass(order_seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload",
         "corpus-small", "--order-seed", order_seed, "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_counts_repeat_across_traced_runs():
    first, second = traced_pass("a"), traced_pass("b")
    assert first["failed"] == second["failed"] == 0
    counts = run.exact_counts(first["trace"])
    assert counts == run.exact_counts(second["trace"])
    assert counts["linalg.rref"] > 0 and counts["linalg.cells"] > 0


def test_install_rebinds_every_import_and_uninstall_restores():
    import logdiv.cli
    import logdiv.cohomology
    import logdiv.groebner
    import logdiv.logder

    original = logdiv.groebner.buchberger
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = logdiv.groebner.buchberger
        assert wrapped is not original and wrapped.__wrapped__ is original
        for mod in (logdiv.logder, logdiv.cohomology):
            assert mod.buchberger is wrapped
        assert logdiv.cli.ft1 is logdiv.cohomology.ft1
        assert logdiv.cli.ft1.__wrapped__ is not None
    finally:
        t.uninstall()
    assert logdiv.groebner.buchberger is original
    assert logdiv.logder.buchberger is original


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    # two nested spans by hand: outer 0..10 with a child 2..5
    t.spans.extend([["cli.outer", 0.0, 10.0, -1, None],
                    ["linalg.rref", 2.0, 5.0, 0, (2, 3, 4)]])
    s = t.summary()
    assert s["self_s"] == {"cli.outer": 7.0, "linalg.rref": 3.0}
    assert s["layer_self_s"] == {"cli": 7.0, "linalg": 3.0}
    assert s["facts"]["linalg.cells"] == 6 and s["facts"]["linalg.nnz"] == 4


def _report(case, **profile):
    return {"profile": {"field_weights": case.expected[1], "free": True,
                        "koszul": True, "linear": False, **profile},
            "timings": {}}


def test_arrangement_oracle_rejects_wrong_outcomes():
    cases = {c.label: c for c in workloads.arrangement_cases()}
    b3 = cases["coxeter-B3"]
    assert workloads.check(b3, 0, _report(b3)) == []
    assert workloads.check(b3, 0, _report(b3, field_weights=[0, 2, 2]))
    assert workloads.check(b3, 0, _report(b3, koszul=False))
    failed = {"error": {"stage": "basis"}, "timings": {}}
    assert workloads.check(b3, 4, failed)
    generic = cases["generic-4"]
    assert workloads.check(generic, 4, failed) == []
    assert workloads.check(generic, 0, _report(b3))
    assert workloads.check(generic, 4, {"error": {"stage": "divisor"}})


def test_golden_check_ignores_timings_only():
    case = workloads.load_cases("corpus-small", ROOT)[0]
    report = copy.deepcopy(case.expected[1])
    report["timings"] = {"basis": 123.0}
    assert workloads.check(case, 0, report) == []
    report["h0"] = "changed"
    assert workloads.check(case, 0, report) == ["h0 differs from the golden report"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_load(name):
    assert workloads.load_cases(name, ROOT)


def test_speed_probe_samples_during_work_and_releases_the_timer():
    import signal
    import time

    with speed_probe.SpeedProbe() as probe:
        end = time.perf_counter() + 5 * speed_probe.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.durations) >= 4
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed_probe.nominal(2.0, 2 * speed_probe.NOMINAL_S) == 1.0
