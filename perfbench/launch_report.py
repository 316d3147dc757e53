"""Run `flextri report` in this fresh process under in-step contention probes.

    python3 perfbench/launch_report.py

Does what the ``flextri report`` console script does (flextri must be on the
path), except that the probe runs from an interval timer while the process
runs, and ``run_report`` is timed from inside.  When the process exits it
writes one JSON line to stderr: the probe times (``probes``), the time
spent in ``run_report`` without the probes that fired during it
(``report_s``), the process's CPU time without the probes (``cpu_s``) and
its peak resident set (``maxrss_kib``).
stdout and the exit code are the report's own.
"""

import atexit
import json
import resource
import sys
from time import perf_counter

import clock

probes = clock.InStepProbes().start()
report_s = []


@atexit.register
def _write_probes():
    probes.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {"probes": probes.samples, "report_s": sum(report_s),
              "cpu_s": usage.ru_utime + usage.ru_stime - probes.spent,
              "maxrss_kib": usage.ru_maxrss}
    sys.stderr.write(json.dumps(record) + "\n")


import flextri.cli as cli  # noqa: E402

run_report = cli.run_report


def timed_run_report():
    fired = len(probes.samples)
    start = perf_counter()
    try:
        return run_report()
    finally:
        report_s.append(perf_counter() - start - sum(probes.samples[fired:]))


cli.run_report = timed_run_report
sys.exit(cli.main(["report"]))
