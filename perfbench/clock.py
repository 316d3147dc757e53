"""Contention-corrected timing for a shared machine.

Other tenants of the machine slow this one's processors by a factor that
changes from second to second (measured here: 10-second medians of a fixed
loop between 48.7 and 75.0 ms).  Raw wall times of one commit then spread by
more than any useful regression bound.  The harness therefore times a fixed
pure-Python probe just before and just after each timed step, and scales the
step's wall time by

    REFERENCE_PROBE_S / mean(probe times around the step)

so a corrected time is the step's cost in probe runs, expressed in seconds
of a machine on which the probe takes REFERENCE_PROBE_S.  Steps that run in
the measuring process are also probed while they run (``InStepProbes``).  The raw figures
are reported beside it.  The probe uses only the standard library, so no
change to flextri changes it.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# While an in-process step runs, the probe also runs from a timer this often.
IN_STEP_INTERVAL_S = 0.05

# The probe's time on an uncontended core of the 2.1 GHz Xeon the benchmark
# was defined on, so corrected times read as milliseconds there.
REFERENCE_PROBE_S = 400e-6

# A probe block lasts at least this long, and at least this share of the
# step it brackets, so that long steps are bracketed by longer samples.
MIN_BLOCK_S = 0.002
BLOCK_SHARE = 0.05


def probe() -> float:
    """Seconds one fixed exact-arithmetic loop takes now."""
    start = perf_counter()
    s = Fraction(0)
    for i in range(1, 100):
        s += Fraction(1, i) * Fraction(i + 1, i + 2)
    return perf_counter() - start


def probe_block(step_s: float = 0.0) -> list[float]:
    """Probe times over a block sized for a step of ``step_s`` seconds."""
    samples = []
    end = perf_counter() + max(MIN_BLOCK_S, BLOCK_SHARE * step_s)
    while not samples or perf_counter() < end:
        samples.append(probe())
    return samples


def bracket(step, expected_s: float = 0.0):
    """Run ``step()``, which returns (wall seconds, result), between two probe
    blocks.  Returns (wall seconds, mean probe time around it, result)."""
    before = probe_block(expected_s)
    wall_s, result = step()
    samples = before + probe_block(wall_s)
    return wall_s, sum(samples) / len(samples), result


class InStepProbes:
    """Context manager that runs the probe from an interval timer while an
    in-process step runs, so a long step is corrected by the contention it
    met, not only by the contention at its ends.  ``spent`` is the time the
    probes took, which the caller subtracts from the step's wall time."""

    def start(self) -> "InStepProbes":
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, IN_STEP_INTERVAL_S, IN_STEP_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    @property
    def spent(self) -> float:
        return sum(self.samples)


def corrected(wall_s: float, around_s: float) -> float:
    """Wall time of a step scaled to the reference machine."""
    return wall_s * REFERENCE_PROBE_S / around_s
