"""Samples the host's speed so that timings can be given at nominal speed.

The benchmark host's speed swings by up to 2x within seconds and drifts
over minutes; CPU time tracks wall time, so it is not scheduling.  A raw
wall time follows these swings.  So the benchmark also times a fixed
exact-arithmetic ``reference`` while it measures, and scales each timing
by ``NOMINAL_S`` over the reference's mean duration around it
(``nominal``).  Host speed cancels to first order; the program's own
cost does not.

During a pass, ``SpeedProbe`` times the reference at the start and end
and every ``INTERVAL_S`` seconds in between, from a SIGALRM handler.
"""

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
# A typical duration of the reference on the machine the baseline was
# recorded on (2 vCPU Intel Xeon at 2.0 GHz, Python 3.11.7).  It only
# scales results into seconds; comparisons do not depend on it.
NOMINAL_S = 0.004


def reference():
    """Fixed work in the program's idiom: Fraction arithmetic and
    tuple-keyed dicts."""
    acc = Fraction(0)
    cells = {}
    for i in range(1, 250):
        acc += Fraction(i, i + 7) * Fraction(3 * i - 1, 2 * i + 5)
        key = (i % 7, i % 5)
        cells[key] = cells.get(key, 0) + acc
    return acc


def nominal(seconds, probe_s):
    """``seconds`` measured while the reference took ``probe_s``, scaled
    to the speed at which it takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / probe_s


class SpeedProbe:
    """Records ``durations`` of reference runs.

    As a context manager it samples on entry, on exit and from SIGALRM in
    between; it owns SIGALRM and the real-time interval timer meanwhile.
    """

    def __init__(self):
        self.durations = []

    def sample(self, *_):
        t0 = time.perf_counter()
        reference()
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return False

    def total_s(self):
        return sum(self.durations)

    def mean_s(self):
        return self.total_s() / len(self.durations)
