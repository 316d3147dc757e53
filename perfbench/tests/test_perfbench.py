"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They run the harness for a few seconds and the traced worker twice per
workload, so they take about three minutes.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import checks
import stats
import workloads as W
import worker

from conftest import BENCH, ROOT


# -- generators -------------------------------------------------------------------

def test_generators_are_deterministic_for_a_seed():
    assert W.sweep_order(7) == W.sweep_order(7)
    assert W.degenerate_cases(7) == W.degenerate_cases(7)
    assert W.sweep_order(7) != W.sweep_order(8)
    assert W.degenerate_cases(7) != W.degenerate_cases(8)


def test_sweep_order_draws_the_whole_grid():
    assert sorted(map(str, W.sweep_order(3))) == sorted(map(str, W.SWEEP_GRID))


def test_degenerate_seed_only_orders_the_fixed_pool():
    pool = W.degenerate_pool()
    assert [c["id"] for c in pool] == list(range(len(pool)))
    assert sorted(W.degenerate_cases(3), key=lambda c: c["id"]) == pool


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _side(tri, p):
    """Sign of p against the plane of tri."""
    a, b, c = tri
    s = _dot(_cross(_sub(b, a), _sub(c, a)), _sub(p, a))
    return (s > 0) - (s < 0)


def _collinear(*pts):
    return all(_cross(_sub(q, pts[0]), _sub(pts[1], pts[0])) == (0, 0, 0) for q in pts[2:])


def _in_closed_triangle(p, tri):
    """p in the plane of tri and inside it: the three sub-triangle normals
    point the same way as tri's (or vanish)."""
    a, b, c = tri
    n = _cross(_sub(b, a), _sub(c, a))
    if _side(tri, p) != 0:
        return False
    return all(
        _dot(n, _cross(_sub(v, u), _sub(p, u))) >= 0 for u, v in ((a, b), (b, c), (c, a))
    )


def _segments_overlap(p, q, r, s):
    """Collinear segments [p, q] and [r, s] share more than a point."""
    d = _sub(q, p)
    t = sorted((_dot(_sub(x, p), d) for x in (r, s)))
    return min(_dot(d, d), t[1]) - max(0, t[0]) > 0


def _category_by_construction(t1, t2):
    """Name the designed category from integer geometry alone."""
    shared = set(t1) & set(t2)
    coplanar = all(_side(t1, p) == 0 for p in t2)
    if len(shared) == 2:
        return "shared_edge_coplanar" if coplanar else "shared_edge"
    if len(shared) == 1:
        return "shared_vertex"
    if coplanar:
        return "coplanar"
    for e1 in combinations(t1, 2):
        for e2 in combinations(t2, 2):
            if _collinear(*e1, *e2) and _segments_overlap(*e1, *e2):
                return "collinear_contact"
    on_plane = [p for p in t2 if _side(t1, p) == 0]
    if len(on_plane) == 2:
        # the in-plane edge of t2 passes through the centroid of t1
        g3 = tuple(sum(c) for c in zip(*t1))
        e1, e2 = (tuple(3 * c for c in p) for p in on_plane)
        if _collinear(e1, e2, g3) and _dot(_sub(e1, g3), _sub(e2, g3)) <= 0:
            return "touching_edge"
    if len(on_plane) == 1 and _in_closed_triangle(on_plane[0], t1):
        others = [_side(t1, p) for p in t2 if p != on_plane[0]]
        if others[0] == others[1] != 0:
            return "touching_vertex"
    return None


def test_degenerate_produces_every_designed_category():
    cases = W.degenerate_cases(11)
    assert len(cases) == len(W.DEGENERATE_CATEGORIES) * W.DEGENERATE_POOL_PER_CATEGORY
    seen = set()
    for case in cases:
        t1, t2 = case["r3"]
        for tri in (t1, t2):
            assert _cross(_sub(tri[1], tri[0]), _sub(tri[2], tri[0])) != (0, 0, 0)
        assert _category_by_construction(t1, t2) == case["category"], case
        assert case["r4"] == tuple(tuple(p + (0,) for p in t) for t in (t1, t2))
        seen.add(case["category"])
    assert seen == set(W.DEGENERATE_CATEGORIES)


# -- statistics ---------------------------------------------------------------------

def test_tail_leaves_ten_samples_beyond_it():
    assert stats.tail(range(19)) is None
    p, value = stats.tail(range(100))
    assert p == 90.0 and sum(1 for x in range(100) if x > value) >= 10
    assert stats.tail(range(1000))[0] == 99.0


# -- reference checks ------------------------------------------------------------------

def test_report_check_catches_an_altered_byte():
    ref = checks.load_report_reference()
    assert checks.report_ok(checks.REPORT_EXIT_CODE, ref, ref)
    altered = ref.replace(b"PASS", b"FAIL", 1)
    assert not checks.report_ok(checks.REPORT_EXIT_CODE, altered, ref)
    assert not checks.report_ok(0, ref, ref)


def test_sweep_reference_covers_the_grid_and_matches_its_digests():
    reference = checks.load_sweep_reference()
    assert set(reference) == {W.placement_key(c, k) for c, k in W.SWEEP_GRID}
    for entry in reference.values():
        assert checks.digest(entry["certificate"]) == entry["digest"]
        assert entry["certificate"]["pairs"] == W.PAIRS_PER_OP["sweep"]


def test_sweep_check_catches_a_verdict_altered_on_purpose(monkeypatch):
    import flextri.verify as verify

    key = W.placement_key("sixteen_cell", Fraction(3))
    state = worker.setup("sweep", [("sixteen_cell", Fraction(3))])
    reference = checks.load_sweep_reference()
    assert checks.sweep_ok(worker.sweep_record(state, 0, worker.sweep_op(state, 0)), reference)

    original = verify.pair_intersection_check
    altered = []

    def flip_first_violation(t1, t2, shared=None):
        v = original(t1, t2, shared)
        if not altered and not v.admissible:
            altered.append(v)
            return verify.PairVerdict(v.faces, v.shared, "admissible")
        return v

    monkeypatch.setattr(verify, "pair_intersection_check", flip_first_violation)
    record = worker.sweep_record(state, 0, worker.sweep_op(state, 0))
    assert altered and record["placement"] == key
    assert not checks.sweep_ok(record, reference)


def test_degenerate_status_separates_the_known_defect_from_failures():
    etf, ic = ("violation", "edge_through_face"), ("violation", "interior_crossing")
    known = [etf, ic, etf]
    assert checks.degenerate_status(known, known) == "known_defect"
    # the R^4 checker fixed: all three agree with the reference's R^3 result
    assert checks.degenerate_status([etf] * 3, known) == "ok"
    # a regression that makes R^3 agree with the defect is not a fix
    assert checks.degenerate_status([ic] * 3, known) == "fail"
    assert checks.degenerate_status([etf, ("admissible", None), etf], known) == "fail"
    assert checks.degenerate_status([etf, etf, ("violation", "vertex_in_face")], known) == "fail"
    assert checks.degenerate_status(known, [etf] * 3) == "fail"
    assert checks.degenerate_status([ic, etf, ic], [ic, etf, ic]) == "fail"


def test_degenerate_reference_covers_the_pool_and_shows_the_known_defect_only():
    pool, reference = W.degenerate_pool(), checks.load_degenerate_reference()
    assert len(reference) == len(pool)
    for case, expected in zip(pool, reference):
        status = checks.degenerate_status(expected, expected)
        # the two categories whose geometry puts an edge through the other
        # triangle's plane are exactly the known-defect cases
        defect = case["category"] in ("collinear_contact", "touching_edge")
        assert status == ("known_defect" if defect else "ok"), case


def test_degenerate_check_catches_a_verdict_altered_on_purpose(monkeypatch):
    import flextri.verify as verify

    cases = W.degenerate_cases(5)[:14]
    state = worker.setup("degenerate", cases)
    reference = checks.load_degenerate_reference()

    def judge_all():
        records = [worker.degenerate_record(state, i, worker.degenerate_op(state, i))
                   for i in range(len(cases))]
        return [checks.degenerate_status(r["results"], reference[r["case"]]) for r in records]

    assert "fail" not in judge_all()
    original = verify.pair_intersection_check

    def flip_violations(t1, t2, shared=None):
        v = original(t1, t2, shared)
        return verify.PairVerdict(v.faces, v.shared, "admissible") if not v.admissible else v

    monkeypatch.setattr(verify, "pair_intersection_check", flip_violations)
    assert "fail" in judge_all()


# -- the harness end to end ----------------------------------------------------------------

def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_untraced_result_names_match_benchmark_json():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "degenerate",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _traced(workload, hash_seed, cwd):
    """The traced worker, run in ``cwd`` so its trace file lands there."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "trace", "--workload", workload,
         "--seed", "1"], cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
        check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert (cwd / out["trace_file"]).is_file()
    return out


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_run_measures_every_layer_and_repeats_its_counts(workload, tmp_path):
    first, second = _traced(workload, 1, tmp_path), _traced(workload, 2, tmp_path)
    names = {m["name"] for m in _spec()["per_layer"]}
    # cli.process_ms is completed by the harness from a fresh-process report
    assert names - {"cli.process_ms"} <= set(first["metrics"])
    assert first["counts"] == second["counts"]
    reference = checks.load_report_reference()
    assert all(text.encode() == reference for text in first["outputs"]["report"])
    if workload == "report":
        assert first["metrics"]["verify.checks"] == W.PAIRS_PER_OP["report"]


def test_harness_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_spec()))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
