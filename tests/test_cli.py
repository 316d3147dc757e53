import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flextri.cli import construction_points, main, qx_to_json
from flextri.enumeration import complement_pairing
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


def test_verify_out_writes_isometry_group_order(capsys, tmp_path):
    # the order of the placement's isometry group goes to the --out file
    # only; stdout is the same table as without --out
    for construction, order in (("suspension", 12), ("schlegel16cell", 24), ("moebius", 24)):
        out = tmp_path / f"{construction}.json"
        code, plain, _ = run(capsys, "verify", "--construction", construction, "--all")
        code_out, written, _ = run(capsys, "verify", "--construction", construction,
                                   "--all", "--out", str(out))
        assert (code_out, written) == (code, plain)
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["isometry_group_order"] == order


def test_verify_id_out_of_range(capsys):
    code, _, err = run(capsys, "verify", "--construction", "moebius",
                       "--id", "12")
    assert code == 2
    assert "out of range" in err


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


# -- pairs -----------------------------------------------------------------

def test_pairs_output(capsys):
    code, out, _ = run(capsys, "pairs", "--graph", "k6",
                       "--surface", "projective-plane")
    assert code == 0
    rows = [tuple(map(int, line.split())) for line in out.strip().splitlines()]
    assert len(rows) == 6
    assert sorted(i for r in rows for i in r) == list(range(12))


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


# -- cold start ------------------------------------------------------------

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
    layers = ("cli", "enumeration", "geometry", "numeric", "surfaces", "verify")
    assert {f"flextri.{m}" for m in layers} <= loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}
