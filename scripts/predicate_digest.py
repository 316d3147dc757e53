#!/usr/bin/env python3
"""Print one sha256 per section of the pair predicate's outputs.

Two trees whose digests are equal give the same verdicts, kinds, shared
counts and witnesses (in order) on every input below, and the same report
bytes:

- ``report``: the text of ``flextri report``;
- ``catalogs``: every report of every catalog on the four default
  placements, the benchmark's ``sweep`` grid and torus placements on both
  sides of the critical k (16-cell diagram: k = 3 and k = 1/3; suspension:
  k = 2), each with its id and pair count, and on each placement the same
  reports again in one selection: every id in reverse order, then id 0;
- ``degenerate``: the benchmark's 840 degenerate inputs (R^3, R^4 lift and
  affine image of each pool case);
- ``pairs-r3`` and ``pairs-r4``: seeded small-int pairs in general
  position, sharing a vertex, sharing an edge, coplanar and touching, and
  in R^4 also pairs inside a 3-flat that is not a coordinate flat;
- ``pairs-field``: the ``pairs-r3`` draws with their axes scaled by sqrt2,
  sqrt6 and 1 in Q(sqrt2, sqrt3), so that every witness, the 2-D coplanar
  ones included, is mapped back from the int frame through irrational
  scales;
- ``pairs-r4-axes``: the ``pairs-r3`` draws lifted into each coordinate
  3-flat of R^4, the constant k - 1 inserted at axis k for k = 0, 1, 2, 3;
- ``pairs-r5``: the ``pairs-r3`` and ``pairs-r4`` draws under one injective
  int linear map of R^4 into R^5 (an R^3 point as (x, y, z, 0)), so that
  the R^5 predicate finds each pair's rank by elimination;
- ``enumeration``: the triangulations, classes and rejected face sets (in
  order) of ``enumerate_triangulations`` on every named graph, in each mode
  its edge count allows, with no target and with each named surface;
- ``values``: the ``_n`` and ``ctx`` of ``QuadExt(...)`` on seeded
  arguments, 1 to 4 coefficients each an int, a Fraction, a bool, a
  decimal string or a dyadic float, over Q, Q(sqrt5), Q(sqrt3) and Q(sqrt7)
  as d2, and Q(sqrt2, sqrt3); and the exception type of each refused input;
- ``cli``: the argv, exit code, stdout and stderr of ``flextri.cli.main``,
  run in process, and the bytes it writes to ``--out`` (a temp file), on
  ``verify``, ``metrics`` and ``export`` at every construction (and one
  unknown name) with its default k and others that it takes or refuses,
  with no selection, ``--all``, and ids -1, 0, 5 and 12; ``export`` in each
  format with no projection and dropping axis x or w, where dropping w
  comes only with a valid id (on a 3-D construction a bad id and the
  missing axis are two errors, and the id's is reported); and ``enumerate
  --out`` and ``pairs`` on the three catalogs.

Each section also prints its number of calls of
``verify.pair_intersection_check``, the name ``verify_catalog`` calls,
outside the hash: equal outputs from more calls mean verdicts decided again
that the pair table should have copied.  Last on its line comes the
section's wall time, and a last line gives the total.

Run it as ``python3 scripts/predicate_digest.py [SECTION ...]`` from the
repository root; with no section named it runs all eleven, in the order above.
``--src DIR`` imports flextri from another tree's ``src`` directory, so
``--src ../parent/src`` digests the parent commit with the same inputs.
Standard library only, besides flextri and the benchmark's input
generators (``perfbench/workloads.py``), which it only reads.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# torus placements around the critical k of each family: 16-cell diagrams
# embed all 12 tori for k > 3 and 0 < k < 1/3 and none in between; the
# suspension needs k > 2
EXTRA_TORUS = (
    [("sixteen_cell", Fraction(k)) for k in (
        "1/4", "1/3", "1/2", "999/1000", "1", "1001/1000", "2999/1000", "3", "3001/1000", "1000"
    )]
    + [("suspension", Fraction(k)) for k in ("2001/1000", "3", "6", "1000")]
)

VALUE_CONTEXTS = ((1, 1), (5, 1), (1, 3), (1, 7), (2, 3))
VALUES = 50000
VALUE_SEED = 20261019

# an injective int linear map R^4 -> R^5 (rank 4)
R5_MAP = (
    (1, 0, 2, -1),
    (0, 1, -1, 2),
    (2, -1, 0, 1),
    (-1, 3, 1, 0),
    (0, 2, 5, -3),
)

# the k each construction is run at besides its default: taken, refused or
# unparsable
CLI_K = {
    "suspension": ("3", "2", "1/0"),
    "schlegel16cell": ("5", "3"),
    "rp2-simplex": ("2",),
    "moebius": ("2", "1/0"),
    "nope": (),
}
CLI_IDS = ("-1", "0", "5", "12")
CLI_CATALOGS = (("k2222", "torus"), ("k6", "projective-plane"), ("k5", "moebius"))

PAIR_CATEGORIES = ("general", "shared_vertex", "shared_edge", "coplanar", "touching", "flat3")
PAIRS_PER_CATEGORY = 1000
PAIR_SEED = 20261018


def _witness(v) -> str:
    return ";".join(",".join(repr(c) for c in p.coords) for p in v.witness)


def _verdict(v) -> str:
    return f"{v.shared} {v.verdict} {v.kind} {_witness(v)}"


class Section:
    """A sha256 over lines, with the number of lines and of flagged lines
    (violations, or the report's FAIL lines)."""

    def __init__(self, name):
        self.name, self.hash, self.items, self.flagged = name, hashlib.sha256(), 0, 0

    def add(self, line: str, flagged: bool = False):
        self.hash.update(line.encode() + b"\n")
        self.items += 1
        self.flagged += flagged

    def __str__(self):
        return (f"{self.name:<13} {self.hash.hexdigest()}  "
                f"items={self.items} flagged={self.flagged}")


def report_section():
    from flextri.cli import run_report

    section = Section("report")
    text, _ = run_report()
    for line in text.splitlines():
        section.add(line, " FAIL " in line)
    return section


def catalogs_section(workloads):
    from flextri.cli import CONSTRUCTIONS, build_catalog, construction_points
    from flextri.geometry import RealizationParams, construction_coords, sixteen_cell_diagram
    from flextri.verify import verify_catalog

    catalogs = {g: build_catalog(g, s) for g, s in CONSTRUCTIONS.values()}
    placements = [
        (name, construction_points(name, None)[0], catalogs[g])
        for name, (g, _) in CONSTRUCTIONS.items()
    ]
    for construction, k in (*workloads.SWEEP_GRID, *EXTRA_TORUS):
        points = (
            sixteen_cell_diagram(k) if construction == "sixteen_cell"
            else construction_coords(construction, RealizationParams(k))
        )
        placements.append((f"{construction}:{k}", points, catalogs["k2222"]))

    section = Section("catalogs")
    for name, points, catalog in placements:
        ids = range(len(catalog.triangulations))
        selection = [*reversed(ids), 0]
        reports = verify_catalog(points, catalog)
        for label, chosen in ((name, ids), (f"{name} {selection}", selection)):
            for i in chosen:
                r, faces = reports[i], len(catalog.triangulations[i].faces)
                section.add(f"{label} {i} {r.verdict} {faces * (faces - 1) // 2}")
                for v in r.violations:
                    section.add(f"  {v.faces} {_verdict(v)}", True)
    return section


def degenerate_section(workloads):
    from flextri.geometry import make_point
    from flextri.numeric import QQ
    from flextri.verify import pair_intersection_check

    section = Section("degenerate")
    for case in workloads.degenerate_pool():
        for form in ("r3", "r4", "affine"):
            t1, t2 = (tuple(make_point(QQ, *p) for p in t) for t in case[form])
            v = pair_intersection_check(t1, t2)
            section.add(f"{case['id']} {form} {_verdict(v)}", not v.admissible)
    return section


def _vec(rng, dim, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(dim))


def _comb(weights, points):
    return tuple(sum(w * p[i] for w, p in zip(weights, points)) for i in range(len(points[0])))


def _draw_pair(rng, dim, category):
    """One pair of int triangles of R^dim, with the vertices of each face in
    a random order."""
    if category == "coplanar":
        frame = (_vec(rng, dim), _vec(rng, dim), _vec(rng, dim))
        t1, t2 = (
            [_comb((1, rng.randint(-2, 2), rng.randint(-2, 2)), frame) for _ in range(3)]
            for _ in range(2)
        )
    elif category == "touching":
        # a vertex of t2 at a point of t1 with barycentric weights in sixths
        base = [_vec(rng, dim) for _ in range(3)]
        t1 = [tuple(6 * c for c in p) for p in base]
        i, j = sorted((rng.randint(0, 6), rng.randint(0, 6)))
        x = _comb((i, j - i, 6 - j), base)
        t2 = [x, *(tuple(a + b for a, b in zip(x, _vec(rng, dim))) for _ in range(2))]
    elif category == "flat3":
        # int points of R^3 under one int linear map into R^dim: all six
        # lie in a flat of dimension 3 at most, rarely a coordinate flat
        cols = [_vec(rng, dim, -2, 2) for _ in range(3)]
        t1, t2 = (
            [_comb(_vec(rng, 3), cols) for _ in range(3)] for _ in range(2)
        )
    else:
        t1 = [_vec(rng, dim) for _ in range(3)]
        t2 = [_vec(rng, dim) for _ in range(3)]
        shared = {"general": 0, "shared_vertex": 1, "shared_edge": 2}[category]
        t2[:shared] = rng.sample(t1, shared)
    rng.shuffle(t1)
    rng.shuffle(t2)
    return tuple(t1), tuple(t2)


def _pairs(dim):
    """The seeded nondegenerate draws of R^dim, PAIRS_PER_CATEGORY per
    category, as (category, t1, t2)."""
    from flextri.geometry import face_is_degenerate

    rng = random.Random(PAIR_SEED + dim)
    for category in PAIR_CATEGORIES:
        if dim == 3 and category == "flat3":
            continue
        n = 0
        while n < PAIRS_PER_CATEGORY:
            t1, t2 = _draw_pair(rng, dim, category)
            if face_is_degenerate(*t1) or face_is_degenerate(*t2):
                continue
            yield category, t1, t2
            n += 1


def pairs_section(dim, field=False):
    from flextri.geometry import Point, make_point
    from flextri.numeric import CTX_SQRT2_SQRT3, QQ, QuadExt
    from flextri.verify import pair_intersection_check

    if field:  # axis i scaled by sqrt2, sqrt6 and 1
        units = [QuadExt(*u, ctx=CTX_SQRT2_SQRT3) for u in ((0, 1), (0, 0, 0, 1), (1,))]

        def place(p):
            return Point(tuple(u * c for u, c in zip(units, p)))
    else:
        def place(p):
            return make_point(QQ, *p)
    section = Section("pairs-field" if field else f"pairs-r{dim}")
    for category, t1, t2 in _pairs(dim):
        v = pair_intersection_check(*(tuple(map(place, t)) for t in (t1, t2)))
        section.add(f"{category} {t1} {t2} {_verdict(v)}", not v.admissible)
    return section


def pairs_axes_section():
    from flextri.geometry import make_point
    from flextri.numeric import QQ
    from flextri.verify import pair_intersection_check

    section = Section("pairs-r4-axes")
    for category, t1, t2 in _pairs(3):
        for k in range(4):
            v = pair_intersection_check(*(
                tuple(make_point(QQ, *p[:k], k - 1, *p[k:]) for p in t) for t in (t1, t2)
            ))
            section.add(f"{category} {k} {t1} {t2} {_verdict(v)}", not v.admissible)
    return section


def pairs_r5_section():
    from flextri.geometry import make_point
    from flextri.numeric import QQ
    from flextri.verify import pair_intersection_check

    def place(p):
        return make_point(QQ, *(sum(m * x for m, x in zip(row, p)) for row in R5_MAP))

    section = Section("pairs-r5")
    for dim in (3, 4):
        for category, t1, t2 in _pairs(dim):
            v = pair_intersection_check(*(tuple(map(place, t)) for t in (t1, t2)))
            section.add(f"r{dim} {category} {t1} {t2} {_verdict(v)}", not v.admissible)
    return section


def enumeration_section():
    from flextri.enumeration import EnumerationTask, enumerate_triangulations
    from flextri.surfaces import SURFACE_NAMES, build_graph, classify_surface

    section = Section("enumeration")
    for name in ("k2222", "k6", "k5", "octahedron"):
        for mode in ("closed", "with_boundary"):
            for target in (None, *SURFACE_NAMES.values()):
                try:
                    task = EnumerationTask(build_graph(name), mode, target)
                except ValueError:  # closed mode needs 3 | 2E
                    continue
                catalog = enumerate_triangulations(task)
                label = f"{name} {mode} {target}"
                for t in catalog.triangulations:
                    section.add(f"{label} + {t.faces} {classify_surface(t)}")
                for t, c in catalog.rejected:
                    section.add(f"{label} - {t.faces} {c}", True)
    return section


def _draw_coefficient(rng):
    """One constructor argument: an int, a Fraction, a bool, a decimal
    string or a dyadic float, each kind equally likely."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-30, 30)
    if kind == 1:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    if kind == 2:
        return rng.random() < 0.5
    if kind == 3:
        return f"{rng.randint(-30, 30)}.{rng.randint(0, 999)}"
    return rng.randint(-64, 64) / 8


def values_section():
    from flextri.numeric import FieldContext, QuadExt

    section = Section("values")
    rng = random.Random(VALUE_SEED)
    contexts = [FieldContext(*d) for d in VALUE_CONTEXTS]
    for _ in range(VALUES):
        ctx = rng.choice(contexts)
        args = [_draw_coefficient(rng) for _ in range(rng.randint(1, 4))]
        x = QuadExt(*args, ctx=ctx)
        section.add(f"{args!r} {x._n} {x.ctx}")
    for args in ((1, QuadExt(0)), (None,), ("x",), ("1e",), (float("nan"),), (float("inf"),)):
        try:
            x = QuadExt(*args)
        except (TypeError, ValueError, OverflowError) as exc:
            section.add(f"{args!r} refused {type(exc).__name__}", True)
        else:
            section.add(f"{args!r} {x._n} {x.ctx}")
    return section


def _cli_argv():
    """The argv of the ``cli`` section, with OUT standing for the --out file."""
    for construction, ks in CLI_K.items():
        for k in (None, *ks):
            base = ["--construction", construction, *(["--k", k] if k else [])]
            selections = [[], *(["--id", i] for i in CLI_IDS)]
            for selection in (*selections, ["--all"]):
                yield ["verify", *base, *selection]
                yield ["verify", *base, *selection, "--out", "OUT"]
                yield ["metrics", *base, *selection]
            for selection in selections:
                for fmt in ("off", "obj", "json"):
                    for axis in (None, "x", "w"):
                        if axis == "w" and selection[1:] not in (["0"], ["5"]):
                            continue
                        drop = ["--project-drop-axis", axis] if axis else []
                        yield ["export", *base, *selection, "--format", fmt, *drop]
                        if selection[1:] == ["5"]:
                            yield ["export", *base, *selection, "--format", fmt, *drop,
                                   "--out", "OUT"]
    for graph, surface in CLI_CATALOGS:
        yield ["enumerate", "--graph", graph, "--surface", surface, "--out", "OUT"]
        yield ["pairs", "--graph", graph, "--surface", surface]


def cli_section():
    from flextri.cli import main

    section = Section("cli")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for argv in _cli_argv():
            out.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([str(out) if a == "OUT" else a for a in argv])
            written = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
            section.add(json.dumps([argv, code, stdout.getvalue(), stderr.getvalue()])
                        + f" {written}", code != 0)
    return section


def _count_predicate_calls() -> list:
    """Wrap ``verify.pair_intersection_check`` with a counter; the sections
    import it when they run, and ``verify_catalog`` looks it up per call."""
    from flextri import verify

    calls, check = [0], verify.pair_intersection_check

    def counted(*args, **kwargs):
        calls[0] += 1
        return check(*args, **kwargs)

    verify.pair_intersection_check = counted
    return calls


def main() -> int:
    sections = {
        "report": lambda workloads: report_section(),
        "catalogs": catalogs_section,
        "degenerate": degenerate_section,
        "pairs-r3": lambda workloads: pairs_section(3),
        "pairs-r4": lambda workloads: pairs_section(4),
        "pairs-field": lambda workloads: pairs_section(3, field=True),
        "pairs-r4-axes": lambda workloads: pairs_axes_section(),
        "pairs-r5": lambda workloads: pairs_r5_section(),
        "enumeration": lambda workloads: enumeration_section(),
        "values": lambda workloads: values_section(),
        "cli": lambda workloads: cli_section(),
    }
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory to import flextri from")
    ap.add_argument("section", nargs="*", metavar="SECTION",
                    help=f"run only these, of: {' '.join(sections)} (default: all)")
    args = ap.parse_args()
    for name in set(args.section) - sections.keys():
        ap.error(f"unknown section {name!r}")
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(1, str(ROOT / "perfbench"))
    import flextri
    import workloads

    calls = _count_predicate_calls()
    start = time.perf_counter()
    print(f"flextri from {Path(flextri.__file__).parent}")
    for name, make in sections.items():
        if args.section and name not in args.section:
            continue
        before, began = calls[0], time.perf_counter()
        section = make(workloads)
        print(f"{section} calls={calls[0] - before} {time.perf_counter() - began:.1f} s",
              flush=True)
    print(f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
