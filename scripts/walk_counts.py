#!/usr/bin/env python3
"""Count the work of ``verify_catalog`` on each ``sweep`` placement.

For each placement of the benchmark's ``sweep`` grid (``SWEEP_GRID`` in
``perfbench/workloads.py``, which it only reads), one ``verify_catalog``
call on the torus catalog, and one line:

- ``orbits``: the orbits of clique pairs the walk takes in turn;
- ``admissible`` and ``violation``: the calls of
  ``verify.pair_intersection_check`` by verdict;
- ``witness_points``: the points of the int witnesses those violations
  return, each of which the report names as a field point;
- ``built``: the field points ``_map_back`` builds for them, one
  ``numeric._on_axes`` call each;
- ``distinct``: the distinct values among the witness points of the
  reports.  ``_map_back`` keys each point by its lowest terms, so
  ``built`` equals ``distinct``; more would mean a value built twice.

A last line gives the totals.  The counts are deterministic: they depend on
the placements and the code, not on the machine.

Run it as ``python3 scripts/walk_counts.py`` from the repository root;
``--src DIR`` imports flextri from another tree's ``src`` directory, so
``--src ../parent/src`` counts the parent commit on the same placements.
Standard library only, besides flextri.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("orbits", "admissible", "violation", "witness_points", "built", "distinct")


def _spy(module, name, count):
    """Replace ``module.name`` with a wrapper that calls ``count`` on each
    result; ``verify_catalog`` looks each name up per call."""
    inner = getattr(module, name)

    def counted(*args):
        result = inner(*args)
        count(result)
        return result

    setattr(module, name, counted)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory to import flextri from")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(1, str(ROOT / "perfbench"))
    from workloads import SWEEP_GRID, placement_key

    from flextri import verify
    from flextri.cli import build_catalog
    from flextri.geometry import RealizationParams, construction_coords, sixteen_cell_diagram

    counts = dict.fromkeys(FIELDS, 0)

    def on_check(v):
        counts[v.verdict] += 1
        counts["witness_points"] += len(v.witness)

    def on_plan(plan):
        counts["orbits"] += len(plan[-1])

    def on_build(_):
        counts["built"] += 1

    _spy(verify, "pair_intersection_check", on_check)
    _spy(verify, "_table_plan", on_plan)
    _spy(verify, "_on_axes", on_build)
    catalog = build_catalog("k2222", "torus")
    totals = dict.fromkeys(FIELDS, 0)
    print(f"flextri from {Path(verify.__file__).parent}")
    for construction, k in SWEEP_GRID:
        points = (
            sixteen_cell_diagram(k) if construction == "sixteen_cell"
            else construction_coords(construction, RealizationParams(k))
        )
        counts.update(dict.fromkeys(FIELDS, 0))
        reports = verify.verify_catalog(points, catalog)
        counts["distinct"] = len({p for r in reports for v in r.violations for p in v.witness})
        for name in FIELDS:
            totals[name] += counts[name]
        print(f"{placement_key(construction, k):<24}"
              + "".join(f" {name}={counts[name]}" for name in FIELDS))
    calls = totals["admissible"] + totals["violation"]
    print(f"{'total':<24} calls={calls}" + "".join(f" {name}={totals[name]}" for name in FIELDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
