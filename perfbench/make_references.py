"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_references.py

Run from the root of a source checkout at the commit whose outputs are the
reference.  Writes ``references/report.txt``, the stdout bytes of
``flextri report``; ``references/sweep.json``, the exact certificate
(verdict, kind and witness points of every clique pair) of every placement
the sweep grid holds, with its digest; and ``references/degenerate.json``,
the three (verdict, kind) results of every case of the degenerate pool.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads as W
import worker


def main() -> int:
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    proc = run.run_child([sys.executable, "-m", "flextri.cli", "report"])
    if proc.returncode != checks.REPORT_EXIT_CODE:
        print(f"error: flextri report exited with {proc.returncode}", file=sys.stderr)
        return 1
    with open(checks.REPORT_REFERENCE, "wb") as fh:
        fh.write(proc.stdout)

    from flextri.verify import verify_catalog

    state = worker.setup("sweep", list(W.SWEEP_GRID))
    reference = {}
    for key, placement in zip(state["keys"], state["placements"]):
        cert = worker.certificate(verify_catalog(placement, state["catalog"]), state["catalog"])
        reference[key] = {"digest": checks.digest(cert), "certificate": cert}
        print(f"{key}: {sum(cert['embedded'])}/12 embedded, "
              f"{len(cert['violations'])} violating pairs", file=sys.stderr)
    with open(checks.SWEEP_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")

    pool = W.degenerate_pool()
    state = worker.setup("degenerate", pool)
    results = [[list(r) for r in worker.degenerate_op(state, i)] for i in range(len(pool))]
    status = [checks.degenerate_status(r, r) for r in results]
    if "fail" in status:
        # a disagreement other than the known one would fail every run
        bad = [c["id"] for c, st in zip(pool, status) if st == "fail"]
        print(f"error: degenerate cases {bad} disagree beyond the known R^4 kind defect",
              file=sys.stderr)
        return 1
    print(f"degenerate: {status.count('known_defect')}/{len(pool)} cases show the known "
          "R^4 kind defect", file=sys.stderr)
    with open(checks.DEGENERATE_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
