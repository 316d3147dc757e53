"""Command-line front end: enumeration, verification, metrics, export, and a
full reproduction report whose acceptance criteria are one table of
(tag, label, observed, expected) rows, built in ``_report_rows``: the text
report prints one line per row, ``report --format json`` adds the rows
themselves, and the acceptance tests read them.

Exit codes: 0 ok, 2 usage/parameter error, 3 expectation mismatch,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations

from .enumeration import (
    Catalog,
    EnumerationTask,
    complement_pairing,
    enumerate_triangulations,
)
from .geometry import (
    DEFAULT_PARAMS,
    SHAPES,
    ParameterError,
    RealizationParams,
    check_placement,
    circumradius_sq,
    construction_coords,
    face_shapes,
    isometry_group,
    orthogonal_project,
    sixteen_cell_diagram,
    squared_distances,
    tetra_containment,
    tetra_inradius_sq,
)
from .numeric import QuadExt, parse_rational
from .surfaces import SURFACE_NAMES, Triangulation, build_graph, enumerate_cliques3
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
    "suspension": ("k2222", "torus"),
    "schlegel16cell": ("k2222", "torus"),
    "rp2-simplex": ("k6", "projective-plane"),
    "moebius": ("k5", "moebius"),
}


def build_catalog(graph_name: str, surface: str | None) -> Catalog:
    if graph_name not in GRAPH_MODES:
        raise UsageError(f"unknown graph {graph_name!r} (expected k2222, k6 or k5)")
    target = None
    if surface is not None:
        if surface not in SURFACE_NAMES:
            raise UsageError(
                f"unknown surface {surface!r} (expected one of {sorted(SURFACE_NAMES)})"
            )
        target = SURFACE_NAMES[surface]
    return enumerate_triangulations(
        EnumerationTask(build_graph(graph_name), GRAPH_MODES[graph_name], target)
    )


def construction_points(cli_name: str, k_text: str | None):
    if cli_name not in CONSTRUCTIONS:
        raise UsageError(
            f"unknown construction {cli_name!r} (expected one of {sorted(CONSTRUCTIONS)})"
        )
    graph_name, surface = CONSTRUCTIONS[cli_name]
    params = None
    if k_text is not None:
        if cli_name not in DEFAULT_PARAMS:
            raise UsageError(f"{cli_name} takes no parameter k")
        try:
            params = RealizationParams(parse_rational(k_text))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse k = {k_text!r} as an exact rational")
    elif cli_name in DEFAULT_PARAMS:
        params = DEFAULT_PARAMS[cli_name]
    try:
        points = construction_coords(cli_name, params)
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


def _mesh(tri: Triangulation, points: dict, fmt: str) -> str:
    """The triangulation on ``points`` as an OFF or OBJ mesh: one line per
    vertex, in the graph's label order, then one per face.  OFF adds its
    header and numbers the vertices from 0; OBJ prefixes its lines with v
    and f and numbers from 1."""
    labels = list(tri.graph.vertices)
    if fmt == "off":
        lines = ["OFF", f"{len(labels)} {len(tri.faces)} {len(tri.graph.edges)}"]
        vertex, face, base = "", "3 ", 0
    else:
        lines, vertex, face, base = [], "v ", "f ", 1
    index = {v: i + base for i, v in enumerate(labels)}
    lines += [vertex + " ".join(format(float(c), ".17g") for c in points[v].coords)
              for v in labels]
    lines += [face + " ".join(str(index[v]) for v in f) for f in tri.faces]
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


def _construction(args, needs: str | None):
    """The placement, catalog and selected ids of ``--construction``,
    ``--k`` and ``--id`` or ``--all``; when the selection is empty and
    ``needs`` names the options that make one, a usage error."""
    points, graph_name, surface = construction_points(args.construction, args.k)
    catalog = build_catalog(graph_name, surface)
    ids = range(len(catalog.triangulations))
    if args.id is not None and args.id not in ids:
        raise UsageError(f"triangulation id {args.id} out of range 0..{len(ids) - 1}")
    ids = list(ids) if args.all else [] if args.id is None else [args.id]
    if needs and not ids:
        raise UsageError(f"select a triangulation with {needs}")
    return points, catalog, ids


def cmd_verify(args) -> int:
    points, catalog, ids = _construction(args, "--id N or --all")
    reports = verify_catalog(points, catalog)
    reports = [reports[i] for i in ids]
    rows = []
    for i, r in zip(ids, reports):
        if r.embedded:
            rows.append(f"{i:3d}  PASS")
        else:
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
            "isometry_group_order": len(isometry_group(catalog.task.graph.vertices, points)),
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
    return EXIT_OK if n_pass == len(ids) else EXIT_VERIFY


def _census(faces, shapes: dict) -> dict:
    """How many of the faces have each shape, in SHAPES order, read from a
    ``face_shapes`` map that covers them."""
    found = [shapes[f] for f in faces]
    return {s: found.count(s) for s in SHAPES}


def _outer_tetra(points: dict) -> list:
    """(tag, label, value) of the exact metrics of the 16-cell diagram's
    outer tetrahedron ABCD."""
    outer = [points[v] for v in "ABCD"]
    return [
        ("metric-16cell-edge", "outer tetra squared edge", squared_distances(points)["A", "B"]),
        ("metric-16cell-circum", "outer tetra circumradius^2", circumradius_sq(outer)),
        ("metric-16cell-in", "outer tetra inradius^2", tetra_inradius_sq(outer)),
    ]


def cmd_metrics(args) -> int:
    points, catalog, ids = _construction(args, None)
    dist = squared_distances(points)
    lengths = {dist[tuple(e)] for e in catalog.task.graph.edges}
    print(f"squared edge lengths: {sorted(map(repr, lengths))}")
    if args.construction == "schlegel16cell":
        for _, label, value in _outer_tetra(points):
            print(f"{label}: {value!r}")
    if args.construction == "rp2-simplex":
        print(f"circumradius^2 of A..E: {circumradius_sq([points[v] for v in 'ABCDE'])!r}")
    shapes = face_shapes(enumerate_cliques3(catalog.task.graph), points)
    for i in ids:
        print(f"{i:3d}  census: {_census(catalog.triangulations[i].faces, shapes)}")
    return EXIT_OK


def cmd_export(args) -> int:
    points, catalog, ids = _construction(args, "--id N")
    dim = next(iter(points.values())).dim
    if args.project_drop_axis is not None:
        axis = "xyzw".index(args.project_drop_axis)
        if axis >= dim:
            raise UsageError(
                f"cannot drop axis {args.project_drop_axis}: "
                f"{args.construction} has dim {dim}"
            )
        points = orthogonal_project(points, axis)
        dim -= 1
    tri = catalog.triangulations[ids[0]]
    try:
        check_placement(tri.graph.vertices, points)
    except ValueError as exc:
        raise UsageError(f"cannot export this placement: {exc}")
    if args.format in ("off", "obj") and dim != 3:
        hint = "" if args.project_drop_axis else "--project-drop-axis or "
        raise UsageError(
            f"{args.format} export needs dim 3 (got dim {dim}); use {hint}--format json"
        )
    if args.format == "json":
        text = _json_text({
            "construction": args.construction,
            "id": ids[0],
            "faces": [list(f) for f in tri.faces],
            "placement": placement_to_json(points),
        })
    else:
        text = _mesh(tri, points, args.format)
    _write_out(text, args.out)
    return EXIT_OK


# -- the full reproduction report -----------------------------------------

_SUSPENSION_NOTE = (
    "the embeddable set is the full symmetry orbit of the reference "
    "triangulation under the coordinate isometries (3-fold rotation and two "
    "reflections), hence 6 labeled triangulations"
)


def _report_rows() -> list[tuple]:
    """All enumerations, pairings, verifications, metrics and the threshold
    scan as one table of (tag, label, observed, expected) rows, the only
    place the acceptance criteria are computed and their expected values
    written; a row passes when observed == expected, and its optional fifth
    entry is a note printed under it when it fails."""
    rows = []
    catalogs = {}
    for graph_name, surface in dict.fromkeys(CONSTRUCTIONS.values()):
        cat = catalogs[graph_name] = build_catalog(graph_name, surface)
        pairs, unmatched = complement_pairing(cat)
        faces = [set(t.faces) for t in cat.triangulations]
        cliques = sorted(enumerate_cliques3(cat.task.graph))
        rows += [
            (f"count-{graph_name}", f"{graph_name}/{surface} triangulations",
             len(cat.triangulations), 12),
            (f"count-{graph_name}-other", f"{graph_name} non-{surface} complexes",
             len(cat.rejected), 0),
            (f"pairs-{graph_name}", f"{graph_name} complementary pairs", len(pairs), 6),
            (f"pairs-{graph_name}-unmatched", f"{graph_name} unmatched ids", unmatched, []),
            (f"pairs-{graph_name}-disjoint", f"{graph_name} pair face sets disjoint",
             all(not faces[i] & faces[j] for i, j in pairs), True),
            (f"pairs-{graph_name}-union", f"{graph_name} pair unions cover all 3-cliques",
             all(sorted(faces[i] | faces[j]) == cliques for i, j in pairs), True),
        ]

    points, reports = {}, {}
    for name, (graph_name, _) in CONSTRUCTIONS.items():
        points[name] = construction_points(name, None)[0]
        reports[name] = verify_catalog(points[name], catalogs[graph_name])
    embedded = {name: sum(r.embedded for r in reps) for name, reps in reports.items()}
    fgh_containment = any(
        v.kind in ("containment", "coplanar_overlap") and ("F", "G", "H") in v.faces
        for r in reports["suspension"] for v in r.violations
    )
    rows += [
        ("embed-16cell", "torus triangulations embedded on 16-cell diagram (k=4)",
         embedded["schlegel16cell"], 12),
        ("rigidity-suspension", "torus triangulations embedded on suspension (k=14/5)",
         embedded["suspension"], 1, _SUSPENSION_NOTE),
        ("rigidity-suspension-fgh", "failing reports include containment at face FGH",
         fgh_containment, True),
        ("embed-5simplex", "projective-plane triangulations embedded in dim 4",
         embedded["rp2-simplex"], 12),
        ("embed-moebius", "Moebius triangulations embedded in dim 3",
         embedded["moebius"], 12),
    ]

    pts16, rp2, mo = points["schlegel16cell"], points["rp2-simplex"], points["moebius"]
    rp2_dist, mo_dist = squared_distances(rp2), squared_distances(mo)
    mo_shapes = face_shapes(enumerate_cliques3(catalogs["k5"].task.graph), mo)
    rows += [
        (tag, label, value, QuadExt(e, ctx=pts16["A"].ctx))
        for (tag, label, value), e in zip(_outer_tetra(pts16), (24, 9, 1))
    ]
    rows += [
        ("metric-simplex-dist", "regular 4-simplex squared distances",
         {rp2_dist[p] for p in combinations("ABCDE", 2)},
         {QuadExt(8, ctx=rp2["A"].ctx)}),
        ("metric-simplex-radius", "squared circumradius of A..E",
         {circumradius_sq([rp2[v] for v in "ABCDE"])},
         {QuadExt(Fraction(16, 5), ctx=rp2["A"].ctx)}),
        ("metric-moebius-lengths", "Moebius squared edge lengths",
         {mo_dist[p] for p in combinations("ABCDE", 2)},
         {QuadExt(3, ctx=mo["A"].ctx), QuadExt(8, ctx=mo["A"].ctx)}),
        ("metric-moebius-census", "each Moebius triangulation: 2 equilateral + 3 isosceles",
         all(_census(t.faces, mo_shapes) == {"equilateral": 2, "isosceles": 3, "scalene": 0}
             for t in catalogs["k5"].triangulations), True),
    ]
    for k, expected in ((4, "strict_interior"), (3, "touching"), (2, "outside")):
        coords = sixteen_cell_diagram(Fraction(k))
        rows.append((f"threshold-k{k}", f"inner tetra vs outer tetra at k={k}",
                     tetra_containment([coords[v] for v in "ABCD"], [coords[v] for v in "EFGH"]),
                     expected))
    return rows


def _report_text(rows: list[tuple]) -> tuple[str, bool]:
    """Each row as a line tagged with its check id and PASS/FAIL, a failing
    row's note under it, then the verdict line; and whether all rows pass."""
    lines = []
    all_ok = True
    for tag, label, observed, expected, *note in rows:
        ok = observed == expected
        all_ok = all_ok and ok
        lines.append(f"[{tag}] {'PASS' if ok else 'FAIL'} {label}: "
                     f"expected {expected}, observed {observed}")
        if not ok:
            lines += [f"[{tag}] note: {text}" for text in note]
    lines.append("REPORT " + ("PASS" if all_ok else "FAIL"))
    return "\n".join(lines) + "\n", all_ok


def run_report() -> tuple[str, bool]:
    return _report_text(_report_rows())


def cmd_report(args) -> int:
    rows = _report_rows()
    text, ok = _report_text(rows)
    if args.format == "json":
        text = _json_text({"lines": text.splitlines(), "ok": ok, "rows": [
            {"tag": tag, "label": label, "observed": f"{observed}",
             "expected": f"{expected}", "ok": observed == expected}
            for tag, label, observed, expected, *_ in rows
        ]})
    _write_out(text, args.out)
    return EXIT_OK if ok else EXIT_EXPECT


# -- argument parsing ------------------------------------------------------

def _construction_parser(sub, name: str, help: str, func, all_: bool = True):
    """A subcommand that reads a construction: ``--construction``, ``--k``
    and ``--id``, with ``--all`` as its alternative when ``all_``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--construction", required=True)
    p.add_argument("--k")
    selection = p.add_mutually_exclusive_group() if all_ else p
    selection.add_argument("--id", type=int)
    if all_:
        selection.add_argument("--all", action="store_true")
    p.set_defaults(func=func, all=False)
    return p


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

    p = _construction_parser(sub, "verify", "certify embeddings on a construction", cmd_verify)
    p.add_argument("--out")

    _construction_parser(sub, "metrics", "exact metric report for a construction", cmd_metrics)

    p = _construction_parser(sub, "export", "export a geometric complex (OFF/OBJ/JSON)",
                             cmd_export, all_=False)
    p.add_argument("--format", default="off", choices=("off", "obj", "json"))
    p.add_argument("--project-drop-axis", choices=tuple("xyzw"))
    p.add_argument("--out")

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
