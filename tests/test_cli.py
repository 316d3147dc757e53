import contextlib
import functools
import importlib
import io
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flextri import cli, geometry, verify
from flextri.cli import CONSTRUCTIONS, construction_points, main, qx_to_json, run_report
from flextri.enumeration import Catalog, complement_pairing
from flextri.numeric import QuadExt
from flextri.verify import verify_catalog


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes ------------------------------------------------------------

def test_enumerate_expectation_met(capsys):
    code, out, _ = run(capsys, "enumerate", "--graph", "k2222",
                       "--surface", "torus", "--expect", "12")
    assert code == 0
    assert "12 triangulations" in out


def test_enumerate_expectation_mismatch(capsys):
    code, out, _ = run(capsys, "enumerate", "--graph", "k5",
                       "--surface", "moebius", "--expect", "11")
    assert code == 3
    assert "mismatch" in out


def test_enumerate_unknown_graph(capsys):
    code, _, err = run(capsys, "enumerate", "--graph", "petersen")
    assert code == 2
    assert "unknown graph" in err


def test_enumerate_unknown_surface(capsys):
    code, out, err = run(capsys, "enumerate", "--graph", "k5", "--surface", "cylinder")
    assert (code, out) == (2, "")
    assert "unknown surface 'cylinder'" in err


def test_enumerate_counts_candidates_of_another_surface(capsys):
    # the 12 complexes of K_5 with boundary are Moebius bands, which the
    # disk filter rejects
    code, out, _ = run(capsys, "enumerate", "--graph", "k5", "--surface", "disk")
    assert (code, out) == (0, "0 triangulations\n12 candidates rejected by the surface filter\n")


def test_verify_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--construction", "schlegel16cell",
                       "--all")
    assert code == 0
    assert "12/12 embedded" in out


def test_verify_suspension_partial(capsys):
    code, out, _ = run(capsys, "verify", "--construction", "suspension",
                       "--all")
    assert code == 4
    assert "6/12 embedded" in out


def test_verify_k_out_of_range(capsys):
    code, _, err = run(capsys, "verify", "--construction", "schlegel16cell",
                       "--all", "--k", "3")
    assert code == 2
    assert "k > 3" in err


def test_verify_bad_k_literal(capsys):
    for k in ("pi", "1/0", "1e999999"):
        code, _, err = run(capsys, "verify", "--construction", "suspension",
                           "--all", "--k", k)
        assert code == 2
        assert "cannot parse k" in err
        assert "Traceback" not in err


def test_k_on_parameter_free_construction_rejected(capsys):
    for argv in (
        ("verify", "--construction", "rp2-simplex", "--id", "0", "--k", "5"),
        ("metrics", "--construction", "moebius", "--k", "7/2"),
        ("export", "--construction", "moebius", "--id", "0", "--k", "4"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert f"{argv[2]} takes no parameter k" in err
        assert "Traceback" not in err
        assert out == ""


def test_verify_out_json(capsys, tmp_path, torus_catalog):
    out = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", "--construction", "suspension",
                     "--all", "--out", str(out))
    assert code == 4
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["construction"] == "suspension"
    reports = doc["reports"]
    assert [r["id"] for r in reports] == list(range(12))
    assert sum(r["verdict"] == "embedded" for r in reports) == 6
    known = {"containment", "coplanar_overlap", "edge_through_face",
             "interior_crossing", "vertex_in_face", "degenerate_face"}
    for r in reports:
        assert (r["verdict"] == "embedded") == (not r["violations"])
        for v in r["violations"]:
            assert v["kind"] in known
            assert len(v["faces"]) == 2
    # every violation carries its exact witness points, as verify_catalog
    # gives them in the placement's field
    points, _, _ = construction_points("suspension", None)
    direct = [
        [[[qx_to_json(c) for c in p.coords] for p in v.witness] for v in r.violations]
        for r in verify_catalog(points, torus_catalog)
    ]
    written = [[v["witness"] for v in r["violations"]] for r in reports]
    assert written == direct
    assert any(w for r in written for w in r)


@pytest.mark.parametrize("argv", [
    ("enumerate", "--graph", "k5", "--surface", "moebius"),
    ("verify", "--construction", "moebius", "--all"),
    ("export", "--construction", "moebius", "--id", "0"),
    ("report",),
])
@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, target):
    out = tmp_path / "missing" / "out.txt" if target == "missing_directory" else tmp_path
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert f"error: cannot write --out {out}" in err
    assert "Traceback" not in err


# Good and malformed values for every option of every subcommand; one of
# each kind is drawn about equally often.
_HUGE = st.builds("{}/{}".format, st.integers(-10**60, 10**60), st.integers(-10**60, 10**60))
_VALUES = {
    option: st.sampled_from(good) | bad
    for option, good, bad in (
        ("--graph", ["k2222", "k6", "k5"], st.sampled_from(["octahedron", "petersen", ""])),
        ("--surface", ["torus", "projective-plane", "moebius", "klein-bottle"],
         st.sampled_from(["Möbius band", "x"])),
        ("--construction", ["suspension", "schlegel16cell", "rp2-simplex", "moebius"],
         st.sampled_from(["rp2_simplex", "x"])),
        ("--k", ["4", "14/5", "7/2", "3"],
         st.sampled_from(["1/0", "x", "-1", "0", "1e999999"]) | _HUGE),
        ("--id", [str(i) for i in range(12)],
         st.sampled_from(["12", "-1", "x", "999999999999999999999"])),
        ("--format", ["off", "obj", "json", "text"], st.just("xml")),
        ("--project-drop-axis", ["x", "y", "z", "w"], st.just("v")),
        ("--expect", ["12", "0"], st.sampled_from(["-1", "x"])),
    )
}
_VALUES["--all"] = _VALUES["--out"] = st.none()
_OWN = {
    "enumerate": ("--graph", "--surface", "--out", "--expect"),
    "pairs": ("--graph", "--surface"),
    "verify": ("--construction", "--k", "--id", "--all", "--out"),
    "metrics": ("--construction", "--k", "--id", "--all"),
    "export": ("--construction", "--k", "--id", "--format",
               "--project-drop-axis", "--out"),
    "report": ("--format", "--out"),
}


@st.composite
def _argv(draw, out):
    """A subcommand with its first option, a random subset of its other
    options and sometimes one option it does not take."""
    command = draw(st.sampled_from(sorted(_OWN)))
    first, *rest = _OWN[command]
    options = [first] + [o for o in rest if draw(st.booleans())]
    if draw(st.integers(0, 3)) == 3:
        options.append(draw(st.sampled_from(sorted(_VALUES))))
    argv = [command]
    for option in options:
        value = str(out) if option == "--out" else draw(_VALUES[option])
        argv += [option] if value is None else [option, value]
    return argv


@pytest.fixture(scope="module")
def missing_out(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "missing" / "out.txt"


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fuzzed_argv_exits_with_a_known_code(missing_out, data):
    argv = data.draw(_argv(missing_out))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not missing_out.parent.exists()


def test_verify_out_writes_isometry_group_order(capsys, tmp_path, monkeypatch):
    # the order of the placement's isometry group goes to the --out file
    # only; stdout is the same table as without --out.  The order comes
    # from the permutation search that verify_catalog's table ran: with
    # empty caches, both runs of a construction search its group once, and
    # the --out run reads that search's cached result
    searches = []
    search = geometry._isometries.__wrapped__

    def spy(pattern):
        searches.append(pattern)
        return search(pattern)

    isometries = functools.lru_cache(maxsize=None)(spy)
    monkeypatch.setattr(geometry, "_isometries", isometries)
    monkeypatch.setattr(verify, "_isometries", isometries)
    monkeypatch.setattr(verify, "_table_plan",
                        functools.lru_cache(maxsize=None)(verify._table_plan.__wrapped__))
    cases = (("suspension", 12), ("schlegel16cell", 24), ("moebius", 24))
    for n, (construction, order) in enumerate(cases, 1):
        out = tmp_path / f"{construction}.json"
        searches.clear()
        code, plain, _ = run(capsys, "verify", "--construction", construction, "--all")
        code_out, written, _ = run(capsys, "verify", "--construction", construction,
                                   "--all", "--out", str(out))
        assert (code_out, written) == (code, plain)
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["isometry_group_order"] == order
        assert len(searches) == 1
        assert isometries.cache_info()[:2] == (n, n)  # hits, misses


def test_verify_id_out_of_range(capsys):
    for bad in ("-1", "12"):
        code, out, err = run(capsys, "verify", "--construction", "moebius", "--id", bad)
        assert (code, out) == (2, "")
        assert f"triangulation id {bad} out of range 0..11" in err


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
def test_verify_id_is_its_row_of_all(capsys, tmp_path, construction):
    # --id i prints row i of --all with its own k/1 tally and exit code, and
    # writes entry i of the --all report under the same header
    whole_out = tmp_path / "all.json"
    _, out, _ = run(capsys, "verify", "--construction", construction, "--all",
                    "--out", str(whole_out))
    rows = out.splitlines()[:-1]
    whole = json.loads(whole_out.read_text(encoding="utf-8"))
    assert len(rows) == len(whole["reports"]) == 12
    for i, row in enumerate(rows):
        one_out = tmp_path / f"{i}.json"
        code, out, _ = run(capsys, "verify", "--construction", construction, "--id", str(i),
                           "--out", str(one_out))
        passed = row.endswith("PASS")
        assert (code, out) == (0 if passed else 4, f"{row}\n{int(passed)}/1 embedded\n")
        one = json.loads(one_out.read_text(encoding="utf-8"))
        assert one == dict(whole, reports=[whole["reports"][i]])


def test_verify_needs_selection(capsys):
    code, _, err = run(capsys, "verify", "--construction", "moebius")
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "metrics"])
def test_id_with_all_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--construction", "moebius", "--id", "0", "--all"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_export_takes_no_all(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--construction", "moebius", "--all"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["verify", "metrics", "export"])
@pytest.mark.parametrize("argv, message", [
    (["--construction", "nope", "--id", "0"], "unknown construction 'nope' (expected one of "
     "['moebius', 'rp2-simplex', 'schlegel16cell', 'suspension'])"),
    (["--construction", "moebius", "--k", "2", "--id", "0"], "moebius takes no parameter k"),
    (["--construction", "suspension", "--k", "1/0", "--id", "0"],
     "cannot parse k = '1/0' as an exact rational"),
    (["--construction", "schlegel16cell", "--k", "3", "--id", "0"],
     "schlegel16cell requires k > 3, got k = 3"),
    (["--construction", "moebius", "--id", "-1"], "triangulation id -1 out of range 0..11"),
    (["--construction", "moebius", "--id", "12"], "triangulation id 12 out of range 0..11"),
], ids=["unknown", "k-on-moebius", "k-unparsable", "k-at-threshold", "id-low", "id-high"])
def test_construction_commands_resolve_alike(capsys, command, argv, message):
    # verify, metrics and export read a construction and a selection through
    # one step, so each refuses the same argv with the same line
    assert run(capsys, command, *argv) == (2, "", f"error: {message}\n")


# -- pairs -----------------------------------------------------------------

def test_pairs_output(capsys):
    code, out, _ = run(capsys, "pairs", "--graph", "k6",
                       "--surface", "projective-plane")
    assert code == 0
    rows = [tuple(map(int, line.split())) for line in out.strip().splitlines()]
    assert len(rows) == 6
    assert sorted(i for r in rows for i in r) == list(range(12))


def test_pairs_reports_unmatched_ids(capsys, monkeypatch, torus_catalog):
    # the torus catalog without torus 0 leaves the torus whose complement
    # it was without a partner: its id in the shorter catalog is printed
    # after the 5 pairs, and the exit code is 3
    (partner,) = [j for i, j in complement_pairing(torus_catalog)[0] if i == 0]
    dropped = Catalog(torus_catalog.task, torus_catalog.triangulations[1:], [])
    monkeypatch.setattr(cli, "build_catalog", lambda graph, surface: dropped)
    code, out, _ = run(capsys, "pairs", "--graph", "k2222", "--surface", "torus")
    assert code == 3
    lines = out.splitlines()
    assert (len(lines), lines[-1]) == (6, f"unmatched ids: [{partner - 1}]")


# -- exports ---------------------------------------------------------------

def test_export_off_header_torus(tmp_path, capsys):
    out = tmp_path / "t.off"
    code, _, _ = run(capsys, "export", "--construction", "schlegel16cell",
                     "--id", "0", "--format", "off", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "8 16 24"
    assert len(lines) == 2 + 8 + 16


def test_export_off_header_moebius(tmp_path, capsys):
    out = tmp_path / "m.off"
    code, _, _ = run(capsys, "export", "--construction", "moebius",
                     "--id", "0", "--format", "off", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[:2] == ["OFF", "5 5 10"]


def test_export_obj_face_indices_are_one_based(capsys):
    code, out, _ = run(capsys, "export", "--construction", "moebius",
                       "--id", "0", "--format", "obj")
    assert code == 0
    faces = [l for l in out.splitlines() if l.startswith("f ")]
    assert len(faces) == 5
    indices = {int(tok) for l in faces for tok in l.split()[1:]}
    assert indices <= set(range(1, 6))


def test_export_dim4_without_projection_rejected(capsys):
    code, _, err = run(capsys, "export", "--construction", "rp2-simplex",
                       "--id", "0", "--format", "off")
    assert code == 2
    assert "dim" in err


def test_export_after_projection_suggests_only_json(capsys):
    # moebius lies in R^3: with x dropped it is 2-D, and the projection flag
    # the user already gave is no remedy
    code, out, err = run(capsys, "export", "--construction", "moebius",
                         "--id", "0", "--project-drop-axis", "x", "--format", "obj")
    assert code == 2
    assert "got dim 2" in err and "use --format json" in err
    assert "--project-drop-axis" not in err
    assert out == ""


def test_export_collapsing_projection_rejected(capsys):
    # dropping the last axis of the 4-simplex placement sends the center O
    # onto the apex shadow, so the projected complex is degenerate
    code, _, err = run(capsys, "export", "--construction", "rp2-simplex",
                       "--id", "0", "--format", "json",
                       "--project-drop-axis", "w")
    assert code == 2
    assert "equal points" in err


def test_export_drop_axis_outside_dimension_rejected(capsys):
    # a 3-D placement has no w axis to drop
    code, out, err = run(capsys, "export", "--construction", "moebius",
                         "--id", "0", "--format", "json",
                         "--project-drop-axis", "w")
    assert code == 2
    assert "axis w" in err and "dim 3" in err
    assert out == ""


# -- catalog JSON ----------------------------------------------------------

def test_catalog_json_round_trip(tmp_path, capsys, torus_catalog):
    out = tmp_path / "cat.json"
    code, _, _ = run(capsys, "enumerate", "--graph", "k2222",
                     "--surface", "torus", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["graph"] == "k2222"
    assert doc["surface"] == "torus"
    assert len(doc["triangulations"]) == 12
    for i, entry in enumerate(doc["triangulations"]):
        assert entry["id"] == i
        faces = tuple(tuple(f) for f in entry["faces"])
        assert faces == torus_catalog.triangulations[i].faces
    pairs, _ = complement_pairing(torus_catalog)
    assert [tuple(p) for p in doc["pairs"]] == pairs


def test_export_json_coordinates_exact(capsys):
    code, out, _ = run(capsys, "export", "--construction", "schlegel16cell",
                       "--id", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    b = doc["placement"]["B"]
    # B = (sqrt8, 0, -1) = (2*sqrt2, 0, -1)
    assert b[0] == {"a": "0", "b": "2", "c": "0", "e": "0", "d1": 2, "d2": 3}
    assert b[2]["a"] == "-1"


# -- metrics ---------------------------------------------------------------

def test_metrics_16cell(capsys):
    code, out, _ = run(capsys, "metrics", "--construction", "schlegel16cell")
    assert code == 0
    lines = out.splitlines()
    assert "outer tetra squared edge: 24" in lines
    assert "outer tetra circumradius^2: 9" in lines
    assert "outer tetra inradius^2: 1" in lines


def test_metrics_census_lines(capsys):
    code, out, _ = run(capsys, "metrics", "--construction", "moebius", "--all")
    assert code == 0
    assert out.count("census") == 12
    assert "  7  census: {'equilateral': 2, 'isosceles': 3, 'scalene': 0}" in out.splitlines()


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("construction,k", [
    ("suspension", None), ("schlegel16cell", None), ("rp2-simplex", None),
    ("moebius", None), ("suspension", "7/2"), ("schlegel16cell", "7/2"),
])
def test_metrics_output_is_pinned(capsys, construction, k):
    # every line of ``metrics --all``, as recorded in tests/golden
    argv = ["metrics", "--construction", construction, "--all"]
    name = f"metrics-{construction}"
    if k is not None:
        argv += ["--k", k]
        name += "-k" + k.replace("/", "_")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_metrics_id_out_of_range_prints_nothing(capsys):
    code, out, err = run(capsys, "metrics", "--construction", "moebius", "--id", "99")
    assert code == 2
    assert "out of range" in err
    assert out == ""


# -- report ----------------------------------------------------------------

def test_report_deterministic_and_complete(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    code1, _, _ = run(capsys, "report", "--out", str(a))
    code2, _, _ = run(capsys, "report", "--out", str(b))
    assert code1 == code2 == 3
    ta, tb = a.read_text(), b.read_text()
    assert ta == tb
    assert ta.rstrip().endswith("REPORT FAIL")
    fails = [l for l in ta.splitlines() if " FAIL " in l]
    assert len(fails) == 1
    assert fails[0].startswith("[rigidity-suspension]")


def test_report_json_shape(capsys):
    code, out, _ = run(capsys, "report", "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["ok"] is False
    assert any(l.startswith("[count-k2222] PASS") for l in doc["lines"])
    text, _ = run_report()
    assert doc["lines"] == text.splitlines()
    rows = doc["rows"]
    assert len(rows) == 33
    assert all(sorted(row) == ["expected", "label", "observed", "ok", "tag"] for row in rows)
    assert len({row["tag"] for row in rows}) == 33
    # each row is its text line, in order, with the report's verdict on it;
    # the note under the failing row is no row
    lines = [l for l in doc["lines"][:-1] if " note: " not in l]
    assert len(lines) == 33
    for row, line in zip(rows, lines):
        assert line == (f"[{row['tag']}] {'PASS' if row['ok'] else 'FAIL'} {row['label']}: "
                        f"expected {row['expected']}, observed {row['observed']}")
    assert [row["tag"] for row in rows if not row["ok"]] == ["rigidity-suspension"]


# -- no field arithmetic past the constructions ----------------------------

FIELD_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                    "__neg__", "inverse", "sign")


def test_commands_make_no_field_arithmetic(monkeypatch, capsys, tmp_path):
    # the constructions write every coordinate as a rational multiple of one
    # basis element, and everything after them runs on the int frame, so
    # report, metrics, export and verify never add, multiply, negate, invert
    # or take the sign of a QuadExt
    def refuse(*args):
        raise AssertionError("QuadExt arithmetic past the constructions")

    for name in FIELD_ARITHMETIC:
        monkeypatch.setattr(QuadExt, name, refuse)
    text, _ = run_report()
    assert text == (ROOT / "perfbench" / "references" / "report.txt").read_text()
    for construction in CONSTRUCTIONS:
        code, _, err = run(capsys, "metrics", "--construction", construction, "--all")
        assert (code, err) == (0, ""), construction
        code, _, err = run(capsys, "export", "--construction", construction, "--id", "0",
                           "--format", "json")
        assert (code, err) == (0, ""), construction
        drop = ["--project-drop-axis", "x"] if construction == "rp2-simplex" else []
        code, _, err = run(capsys, "export", "--construction", construction, "--id", "0",
                           "--format", "off", *drop)
        assert (code, err) == (0, ""), construction
        out = tmp_path / f"{construction}.json"
        code, _, err = run(capsys, "verify", "--construction", construction, "--all",
                           "--out", str(out))
        assert code in (0, 4) and err == "", construction
        assert json.loads(out.read_text(encoding="utf-8"))["reports"]


# -- scripts ---------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_results_script(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_results.py"),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    artifacts = ["report.txt", "catalog_k2222.json", "catalog_k6.json",
                 "catalog_k5.json", "torus_16cell.off", "torus_suspension.off",
                 "moebius.off", "rp2_simplex.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(artifacts)
    reference = ROOT / "perfbench" / "references" / "report.txt"
    assert (tmp_path / "report.txt").read_bytes() == reference.read_bytes()


# the digests of the sections below as recorded: the verdict, kind, shared
# count and every witness point, in order, of each of their inputs
PREDICATE_DIGESTS = {
    "degenerate": "5f09ddeaea237e2be1f1faba7eda4a227cb553cdfedadd5527df15c4cdcb7cb0",
    "pairs-r3": "cb9ba91031d2b41ecd71c6c50e58005f78c2a6a4a08ccc115674abac73cdccd8",
    "pairs-r4": "401b8ae592118138b18c29a04c0a67c55feee882ca2d5246c46de45279740822",
    "pairs-field": "3b6ec525ffd75126817f27f961cec98f9aca5595a041394ff3e23d9f1935216b",
    "pairs-r5": "69218682443251becaa893ad47af882ec652a050a7bb4b72235ba8da2bac7672",
}


def test_predicate_digest_script_runs_its_sections():
    # the digest compares two trees' outputs; it reads flextri's result
    # types, so a change to one must keep it running.  Its pair sections
    # must also reproduce their recorded hashes: a predicate change that
    # moves a witness, or reorders one, fails here
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "predicate_digest.py"), "report", "catalogs",
         *PREDICATE_DIGESTS],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for name in ("report", "catalogs", *PREDICATE_DIGESTS):
        (line,) = [x for x in lines if x.split()[0] == name]
        assert re.fullmatch(rf"{name} +[0-9a-f]{{64}}  items=\d+ flagged=\d+ calls=\d+ .* s", line)
        if name in PREDICATE_DIGESTS:
            assert line.split()[1] == PREDICATE_DIGESTS[name], line


# -- cold start ------------------------------------------------------------

LAYERS = ("cli", "enumeration", "geometry", "numeric", "surfaces", "verify")


def _fresh_modules(code: str) -> set:
    """The names in sys.modules after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # against a bare interpreter of the same environment, since site and
    # .pth files may load some of these before any code runs
    bare = _fresh_modules("pass")
    loaded = _fresh_modules("import flextri.cli") - bare
    assert {f"flextri.{m}" for m in LAYERS} <= loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}


# -- annotations -----------------------------------------------------------


def _public_callables():
    """Every public function, and every public method or property of a
    public class, defined in one of the six modules."""
    for name in LAYERS:
        module = importlib.import_module(f"flextri.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                for meth, member in vars(obj).items():
                    if meth.startswith("_") and not meth.endswith("__"):
                        continue
                    member = getattr(member, "fget", getattr(member, "__func__", member))
                    if callable(member) and hasattr(member, "__annotations__"):
                        yield f"{module.__name__}.{attr}.{meth}", member
            elif callable(obj):
                yield f"{module.__name__}.{attr}", obj


def test_every_public_annotation_resolves():
    # the modules postpone annotations, so a name an annotation uses but the
    # module never imports shows only when the hints are resolved
    callables = dict(_public_callables())
    assert "flextri.numeric.solve_linear" in callables
    assert "flextri.geometry.Point.__init__" in callables
    unresolved = []
    for qualname, obj in callables.items():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{qualname}: {exc}")
    assert unresolved == []
