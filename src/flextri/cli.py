"""Command-line front end: enumeration, verification, metrics, export, and a
full reproduction report.

Exit codes: 0 ok, 2 usage/parameter error, 3 expectation mismatch,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .enumeration import (
    Catalog,
    EnumerationTask,
    complement_pairing,
    enumerate_triangulations,
)
from .geometry import (
    DEFAULT_PARAMS,
    sixteen_cell_diagram,
    GeometricComplex,
    ParameterError,
    RealizationParams,
    circumradius_sq,
    construction_coords,
    dist_sq,
    metric_report,
    orthogonal_project,
    tetra_containment,
    tetra_inradius_sq,
)
from .numeric import QuadExt, parse_rational
from .surfaces import SURFACE_NAMES, build_graph, enumerate_cliques3
from .verify import verify_catalog

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EXPECT = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


# -- selectors -------------------------------------------------------------

GRAPH_MODES = {"k2222": "closed", "k6": "closed", "k5": "with_boundary"}

CONSTRUCTIONS = {
    "suspension": ("suspension", "k2222", "torus"),
    "schlegel16cell": ("schlegel16cell", "k2222", "torus"),
    "rp2-simplex": ("rp2_simplex", "k6", "projective-plane"),
    "moebius": ("moebius", "k5", "moebius"),
}


def make_task(graph_name: str, surface: str | None) -> EnumerationTask:
    if graph_name not in GRAPH_MODES:
        raise UsageError(f"unknown graph {graph_name!r} (expected k2222, k6 or k5)")
    target = None
    if surface is not None:
        if surface not in SURFACE_NAMES:
            raise UsageError(
                f"unknown surface {surface!r} (expected one of {sorted(SURFACE_NAMES)})"
            )
        target = SURFACE_NAMES[surface]
    return EnumerationTask(build_graph(graph_name), GRAPH_MODES[graph_name], target)


def build_catalog(graph_name: str, surface: str | None) -> Catalog:
    return enumerate_triangulations(make_task(graph_name, surface))


def construction_points(cli_name: str, k_text: str | None):
    if cli_name not in CONSTRUCTIONS:
        raise UsageError(
            f"unknown construction {cli_name!r} (expected one of {sorted(CONSTRUCTIONS)})"
        )
    internal, graph_name, surface = CONSTRUCTIONS[cli_name]
    params = None
    if k_text is not None:
        if internal not in DEFAULT_PARAMS:
            raise UsageError(f"{cli_name} takes no parameter k")
        try:
            params = RealizationParams(parse_rational(k_text))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse k = {k_text!r} as an exact rational")
    elif internal in DEFAULT_PARAMS:
        params = DEFAULT_PARAMS[internal]
    try:
        points = construction_coords(internal, params)
    except ParameterError as exc:
        raise UsageError(str(exc))
    return points, graph_name, surface


# -- serialization ---------------------------------------------------------

def catalog_to_json(catalog: Catalog, graph_name: str, surface: str | None) -> dict:
    pairs, _ = complement_pairing(catalog)
    return {
        "graph": graph_name,
        "surface": surface or "",
        "triangulations": [
            {"id": i, "faces": [list(f) for f in t.faces]}
            for i, t in enumerate(catalog.triangulations)
        ],
        "pairs": [list(p) for p in pairs],
    }


def qx_to_json(x: QuadExt) -> dict:
    return {
        "a": str(x.a),
        "b": str(x.b),
        "c": str(x.c),
        "e": str(x.e),
        "d1": x.ctx.d1,
        "d2": x.ctx.d2,
    }


def placement_to_json(points: dict) -> dict:
    return {
        label: [qx_to_json(c) for c in p.coords]
        for label, p in sorted(points.items())
    }


def _fmt_float(x: QuadExt) -> str:
    return format(float(x), ".17g")


def export_off(g: GeometricComplex) -> str:
    labels = list(g.triangulation.graph.vertices)
    index = {v: i for i, v in enumerate(labels)}
    V = len(labels)
    F = len(g.triangulation.faces)
    E = len(g.triangulation.graph.edges)
    lines = ["OFF", f"{V} {F} {E}"]
    for v in labels:
        lines.append(" ".join(_fmt_float(c) for c in g.placement[v].coords))
    for f in g.triangulation.faces:
        lines.append("3 " + " ".join(str(index[v]) for v in f))
    return "\n".join(lines) + "\n"


def export_obj(g: GeometricComplex) -> str:
    labels = list(g.triangulation.graph.vertices)
    index = {v: i + 1 for i, v in enumerate(labels)}
    lines = []
    for v in labels:
        lines.append("v " + " ".join(_fmt_float(c) for c in g.placement[v].coords))
    for f in g.triangulation.faces:
        lines.append("f " + " ".join(str(index[v]) for v in f))
    return "\n".join(lines) + "\n"


def _write_out(text: str, out: str | None):
    """Write ``text`` to the file ``out``, or to stdout when it is None; a
    file that cannot be written is a usage error."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}")


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- subcommands -----------------------------------------------------------

def cmd_enumerate(args) -> int:
    catalog = build_catalog(args.graph, args.surface)
    n = len(catalog.triangulations)
    if args.out:
        _write_out(_json_text(catalog_to_json(catalog, args.graph, args.surface)), args.out)
    print(f"{n} triangulations")
    if catalog.rejected:
        print(f"{len(catalog.rejected)} candidates rejected by the surface filter")
    if args.expect is not None and args.expect != n:
        print(f"expectation mismatch: expected {args.expect}, found {n}")
        return EXIT_EXPECT
    return EXIT_OK


def cmd_pairs(args) -> int:
    catalog = build_catalog(args.graph, args.surface)
    pairs, unmatched = complement_pairing(catalog)
    for i, j in pairs:
        print(f"{i} {j}")
    if unmatched:
        print(f"unmatched ids: {unmatched}")
        return EXIT_EXPECT
    return EXIT_OK


def _selected_ids(args, catalog: Catalog):
    if args.all:
        return list(catalog.ids)
    if args.id is None:
        raise UsageError("select a triangulation with --id N or --all")
    if not 0 <= args.id < len(catalog.triangulations):
        raise UsageError(
            f"triangulation id {args.id} out of range 0..{len(catalog.triangulations) - 1}"
        )
    return [args.id]


def cmd_verify(args) -> int:
    points, graph_name, surface = construction_points(args.construction, args.k)
    catalog = build_catalog(graph_name, surface)
    ids = _selected_ids(args, catalog)
    reports = verify_catalog(points, catalog, ids)
    rows = []
    ok = True
    for i, r in zip(ids, reports):
        if r.embedded:
            rows.append(f"{i:3d}  PASS")
        else:
            ok = False
            kinds = sorted({v.kind for v in r.violations})
            rows.append(f"{i:3d}  FAIL  {len(r.violations)} violations ({', '.join(kinds)})")
    table = "\n".join(rows) + "\n"
    print(table, end="")
    n_pass = sum(r.embedded for r in reports)
    print(f"{n_pass}/{len(ids)} embedded")
    if args.out:
        doc = {
            "construction": args.construction,
            "k": args.k,
            "reports": [
                {
                    "id": i,
                    "verdict": r.verdict,
                    "violations": [
                        {
                            "faces": [list(f) for f in v.faces],
                            "kind": v.kind,
                            "witness": [[qx_to_json(c) for c in p.coords] for p in v.witness],
                        }
                        for v in r.violations
                    ],
                }
                for i, r in zip(ids, reports)
            ],
        }
        _write_out(_json_text(doc), args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_metrics(args) -> int:
    points, graph_name, surface = construction_points(args.construction, args.k)
    catalog = build_catalog(graph_name, surface)
    graph = catalog.task.graph
    lengths = {}
    for e in sorted(graph.edges, key=sorted):
        u, v = sorted(e)
        lengths[(u, v)] = dist_sq(points[u], points[v])
    values = sorted({repr(x) for x in lengths.values()})
    print(f"squared edge lengths: {values}")
    if args.construction == "schlegel16cell":
        outer = [points[v] for v in "ABCD"]
        print(f"outer tetra squared edge: {dist_sq(points['A'], points['B'])!r}")
        print(f"outer tetra circumradius^2: {circumradius_sq(outer)!r}")
        print(f"outer tetra inradius^2: {tetra_inradius_sq(outer)!r}")
    if args.construction == "rp2-simplex":
        print(f"circumradius^2 of A..E: {points['A'].norm_sq()!r}")
    if args.id is not None or args.all:
        ids = _selected_ids(args, catalog)
        for i in ids:
            tri = catalog.triangulations[i]
            g = GeometricComplex(tri, {v: points[v] for v in graph.vertices})
            rep = metric_report(g)
            print(f"{i:3d}  census: {rep.census_counts}")
    return EXIT_OK


def cmd_export(args) -> int:
    points, graph_name, surface = construction_points(args.construction, args.k)
    if args.project_drop_axis is not None:
        axis = "xyzw".index(args.project_drop_axis)
        dim = next(iter(points.values())).dim
        if axis >= dim:
            raise UsageError(
                f"cannot drop axis {args.project_drop_axis}: "
                f"{args.construction} has dim {dim}"
            )
        points = orthogonal_project(points, axis)
    catalog = build_catalog(graph_name, surface)
    ids = _selected_ids(args, catalog)
    if len(ids) != 1:
        raise UsageError("export needs exactly one --id")
    tri = catalog.triangulations[ids[0]]
    try:
        g = GeometricComplex(tri, {v: points[v] for v in tri.graph.vertices})
    except ValueError as exc:
        raise UsageError(f"cannot export this placement: {exc}")
    if args.format in ("off", "obj") and g.dim != 3:
        raise UsageError(
            f"{args.format} export needs dim 3 (got dim {g.dim}); "
            f"use --project-drop-axis or --format json"
        )
    if args.format == "off":
        text = export_off(g)
    elif args.format == "obj":
        text = export_obj(g)
    elif args.format == "json":
        doc = {
            "construction": args.construction,
            "id": ids[0],
            "faces": [list(f) for f in tri.faces],
            "placement": placement_to_json(g.placement),
        }
        text = _json_text(doc)
    else:
        raise UsageError(f"unknown format {args.format!r}")
    _write_out(text, args.out)
    return EXIT_OK


# -- the full reproduction report -----------------------------------------

def run_report() -> tuple[str, bool]:
    """All enumerations, pairings, verifications, metrics and the threshold
    scan, each line tagged with a check id and PASS/FAIL against its
    documented expected value."""
    lines = []
    all_ok = True

    def check(tag, label, observed, expected):
        nonlocal all_ok
        ok = observed == expected
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        lines.append(f"[{tag}] {status} {label}: expected {expected}, observed {observed}")
        return ok

    catalogs = {}
    for graph_name, surface in (("k2222", "torus"), ("k6", "projective-plane"), ("k5", "moebius")):
        cat = build_catalog(graph_name, surface)
        catalogs[graph_name] = cat
        check(f"count-{graph_name}", f"{graph_name}/{surface} triangulations",
              len(cat.triangulations), 12)
        check(f"count-{graph_name}-other", f"{graph_name} non-{surface} complexes",
              len(cat.rejected), 0)
        pairs, unmatched = complement_pairing(cat)
        check(f"pairs-{graph_name}", f"{graph_name} complementary pairs", len(pairs), 6)
        check(f"pairs-{graph_name}-unmatched", f"{graph_name} unmatched ids", unmatched, [])
        cliques = enumerate_cliques3(cat.task.graph)
        disjoint = all(
            not (set(cat.triangulations[i].faces) & set(cat.triangulations[j].faces))
            for i, j in pairs
        )
        union_full = all(
            sorted(set(cat.triangulations[i].faces) | set(cat.triangulations[j].faces))
            == sorted(cliques)
            for i, j in pairs
        )
        check(f"pairs-{graph_name}-disjoint", f"{graph_name} pair face sets disjoint",
              disjoint, True)
        check(f"pairs-{graph_name}-union", f"{graph_name} pair unions cover all 3-cliques",
              union_full, True)

    # embeddings
    pts16 = construction_coords("schlegel16cell", DEFAULT_PARAMS["schlegel16cell"])
    reps = verify_catalog(pts16, catalogs["k2222"])
    check("embed-16cell", "torus triangulations embedded on 16-cell diagram (k=4)",
          sum(r.embedded for r in reps), 12)

    ptssus = construction_coords("suspension", DEFAULT_PARAMS["suspension"])
    reps_sus = verify_catalog(ptssus, catalogs["k2222"])
    n_sus = sum(r.embedded for r in reps_sus)
    ok4 = check("rigidity-suspension", "torus triangulations embedded on suspension (k=14/5)",
                n_sus, 1)
    if not ok4:
        lines.append(
            "[rigidity-suspension] note: the embeddable set is the full symmetry "
            "orbit of the reference triangulation under the coordinate isometries "
            "(3-fold rotation and two reflections), hence 6 labeled triangulations"
        )
    fgh_containment = False
    for r in reps_sus:
        for v in r.violations:
            if v.kind in ("containment", "coplanar_overlap") and ("F", "G", "H") in v.faces:
                fgh_containment = True
    check("rigidity-suspension-fgh", "failing reports include containment at face FGH",
          fgh_containment, True)

    ptsrp2 = construction_coords("rp2_simplex")
    reps = verify_catalog(ptsrp2, catalogs["k6"])
    check("embed-5simplex", "projective-plane triangulations embedded in dim 4",
          sum(r.embedded for r in reps), 12)

    ptsmo = construction_coords("moebius")
    reps = verify_catalog(ptsmo, catalogs["k5"])
    check("embed-moebius", "Moebius triangulations embedded in dim 3",
          sum(r.embedded for r in reps), 12)

    # metrics
    outer = [pts16[v] for v in "ABCD"]
    check("metric-16cell-edge", "outer tetra squared edge",
          dist_sq(pts16["A"], pts16["B"]), QuadExt(24, ctx=pts16["A"].ctx))
    check("metric-16cell-circum", "outer tetra circumradius^2",
          circumradius_sq(outer), QuadExt(9, ctx=pts16["A"].ctx))
    check("metric-16cell-in", "outer tetra inradius^2",
          tetra_inradius_sq(outer), QuadExt(1, ctx=pts16["A"].ctx))
    dists = {
        dist_sq(ptsrp2[u], ptsrp2[v])
        for u in "ABCDE" for v in "ABCDE" if u < v
    }
    check("metric-simplex-dist", "regular 4-simplex squared distances",
          dists, {QuadExt(8, ctx=ptsrp2["A"].ctx)})
    check("metric-simplex-radius", "squared circumradius of A..E",
          {ptsrp2[v].norm_sq() for v in "ABCDE"},
          {QuadExt(Fraction(16, 5), ctx=ptsrp2["A"].ctx)})
    mo_lengths = {
        dist_sq(ptsmo[u], ptsmo[v]) for u in "ABCDE" for v in "ABCDE" if u < v
    }
    check("metric-moebius-lengths", "Moebius squared edge lengths",
          mo_lengths,
          {QuadExt(3, ctx=ptsmo["A"].ctx), QuadExt(8, ctx=ptsmo["A"].ctx)})
    census_ok = True
    for tri in catalogs["k5"].triangulations:
        g = GeometricComplex(tri, {v: ptsmo[v] for v in "ABCDE"})
        rep = metric_report(g)
        if rep.census_counts != {"equilateral": 2, "isosceles": 3, "scalene": 0}:
            census_ok = False
    check("metric-moebius-census", "each Moebius triangulation: 2 equilateral + 3 isosceles",
          census_ok, True)

    # k threshold
    for k, expected in ((4, "strict_interior"), (3, "touching"), (2, "outside")):
        coords = sixteen_cell_diagram(Fraction(k))
        outcome = tetra_containment(
            [coords[v] for v in "ABCD"], [coords[v] for v in "EFGH"]
        )
        check(f"threshold-k{k}", f"inner tetra vs outer tetra at k={k}",
              outcome, expected)

    lines.append("REPORT " + ("PASS" if all_ok else "FAIL"))
    return "\n".join(lines) + "\n", all_ok


def cmd_report(args) -> int:
    text, ok = run_report()
    if args.format == "json":
        text = _json_text({"lines": text.splitlines(), "ok": ok})
    _write_out(text, args.out)
    return EXIT_OK if ok else EXIT_EXPECT


# -- argument parsing ------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flextri",
        description="Enumerate, realize and certify triangulations of the "
        "torus, projective plane and Moebius band with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate triangulations")
    p.add_argument("--graph", required=True)
    p.add_argument("--surface")
    p.add_argument("--out")
    p.add_argument("--expect", type=int)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("pairs", help="complementary pairing of a catalog")
    p.add_argument("--graph", required=True)
    p.add_argument("--surface")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("verify", help="certify embeddings on a construction")
    p.add_argument("--construction", required=True)
    p.add_argument("--k")
    p.add_argument("--id", type=int)
    p.add_argument("--all", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("metrics", help="exact metric report for a construction")
    p.add_argument("--construction", required=True)
    p.add_argument("--k")
    p.add_argument("--id", type=int)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("export", help="export a geometric complex (OFF/OBJ/JSON)")
    p.add_argument("--construction", required=True)
    p.add_argument("--k")
    p.add_argument("--id", type=int)
    p.add_argument("--all", action="store_true")
    p.add_argument("--format", default="off", choices=("off", "obj", "json"))
    p.add_argument("--project-drop-axis", choices=tuple("xyzw"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("report", help="full reproduction report")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
