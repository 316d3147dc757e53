"""Acceptance gate: one test per documented acceptance criterion, each
printing a single PASS/FAIL line.

Criterion 4 is split: 04a asserts the documented expectation of exactly one
embeddable torus triangulation on the suspension coordinates, which the
exact checker refutes (six embed, forming the symmetry orbit of the
reference triangulation), so 04a fails by design and is kept as an honest
record; 04b covers the second clause (containment violations at face FGH)
and passes.
"""

import time
from fractions import Fraction

from flextri.enumeration import complement_pairing
from flextri.geometry import (
    construction_coords,
    circumradius_sq,
    face_shapes,
    sixteen_cell_diagram,
    squared_distances,
    tetra_containment,
    tetra_inradius_sq,
)
from flextri.numeric import QuadExt
from flextri.surfaces import enumerate_cliques3
from flextri.cli import run_report
from flextri.verify import verify_catalog

import test_numeric
import test_verify
from conftest import catalog_for, scale_placement
from flextri.enumeration import brute_force_catalog


def _report(num: str, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {status}{suffix}")
    assert ok, f"criterion {num} {label}{suffix}"


def test_01_enumeration_counts(torus_catalog, rp2_catalog, moebius_catalog):
    t0 = time.perf_counter()
    counts = (
        len(catalog_for("k2222").triangulations),
        len(catalog_for("k6").triangulations),
        len(catalog_for("k5").triangulations),
    )
    elapsed = time.perf_counter() - t0
    ok = counts == (12, 12, 12) and elapsed < 5.0
    _report("01", "enumeration counts 12/12/12 in < 5 s", ok,
            f"counts={counts}, {elapsed:.2f} s")


def test_02_complementary_pairing(torus_catalog, rp2_catalog, moebius_catalog):
    ok = True
    for cat in (torus_catalog, rp2_catalog, moebius_catalog):
        pairs, unmatched = complement_pairing(cat)
        cliques = set(enumerate_cliques3(cat.task.graph))
        ok = ok and len(pairs) == 6 and unmatched == []
        for i, j in pairs:
            fi = set(cat.triangulations[i].faces)
            fj = set(cat.triangulations[j].faces)
            ok = ok and not (fi & fj) and (fi | fj) == cliques
    _report("02", "six disjoint complementary pairs per catalog", ok)


def test_03_all_tori_embed_on_16cell_diagram(schlegel16_points, torus_catalog):
    t0 = time.perf_counter()
    reports = verify_catalog(schlegel16_points, torus_catalog)
    elapsed = time.perf_counter() - t0
    n = sum(r.embedded for r in reports)
    ok = n == 12 and elapsed < 30.0
    _report("03", "12/12 torus embeddings on 16-cell diagram (k=4) in < 30 s",
            ok, f"{n}/12, {elapsed:.2f} s")


def test_04a_suspension_admits_exactly_one(suspension_points, torus_catalog):
    reports = verify_catalog(suspension_points, torus_catalog)
    n = sum(r.embedded for r in reports)
    _report("04a", "suspension (k=14/5) admits exactly 1 embedding", n == 1,
            f"observed {n}: the embedded set is the 6-element symmetry orbit "
            f"of the reference triangulation")


def test_04b_suspension_failures_hit_face_fgh(suspension_points, torus_catalog):
    reports = verify_catalog(suspension_points, torus_catalog)
    hit = False
    for r in reports:
        for v in r.violations:
            if v.kind in ("containment", "coplanar_overlap") and (
                ("F", "G", "H") in v.faces
            ):
                hit = True
    _report("04b", "failing suspension reports show containment at face FGH",
            hit)


def test_05_all_projective_planes_embed(rp2_points, rp2_catalog):
    reports = verify_catalog(rp2_points, rp2_catalog)
    n = sum(r.embedded for r in reports)
    _report("05", "12/12 projective-plane embeddings in dim 4", n == 12,
            f"{n}/12")


def test_06_all_moebius_bands_embed_and_pair(moebius_points, moebius_catalog):
    reports = verify_catalog(moebius_points, moebius_catalog)
    n = sum(r.embedded for r in reports)
    pairs, unmatched = complement_pairing(moebius_catalog)
    cliques = set(enumerate_cliques3(moebius_catalog.task.graph))
    ok = n == 12 and len(pairs) == 6 and unmatched == []
    for i, j in pairs:
        fi = set(moebius_catalog.triangulations[i].faces)
        fj = set(moebius_catalog.triangulations[j].faces)
        ok = ok and not (fi & fj) and (fi | fj) == cliques
    _report("06", "12/12 Moebius embeddings; pairs partition all 10 triangles",
            ok, f"{n}/12")


def test_07_metric_checks(schlegel16_points, rp2_points, moebius_points,
                          moebius_catalog):
    ctx16 = schlegel16_points["A"].ctx
    ctx5 = rp2_points["A"].ctx
    outer = [schlegel16_points[v] for v in "ABCD"]
    rp2_dist, mo_dist = squared_distances(rp2_points), squared_distances(moebius_points)
    ok = (
        squared_distances(schlegel16_points)["A", "B"] == QuadExt(24, ctx=ctx16)
        and circumradius_sq(outer) == QuadExt(9, ctx=ctx16)
        and tetra_inradius_sq(outer) == QuadExt(1, ctx=ctx16)
    )
    ok = ok and {
        rp2_dist[u, v] for u in "ABCDE" for v in "ABCDE" if u < v
    } == {QuadExt(8, ctx=ctx5)}
    ok = ok and {rp2_dist[v, "O"] for v in "ABCDE"} == {
        QuadExt(Fraction(16, 5), ctx=ctx5)
    } == {circumradius_sq([rp2_points[v] for v in "ABCDE"])}
    ok = ok and {
        mo_dist[u, v] for u in "ABCDE" for v in "ABCDE" if u < v
    } == {QuadExt(3, ctx=ctx5), QuadExt(8, ctx=ctx5)}
    for tri in moebius_catalog.triangulations:
        shapes = list(face_shapes(tri.faces, moebius_points).values())
        ok = ok and sorted(shapes) == ["equilateral"] * 2 + ["isosceles"] * 3
    _report("07", "exact metric checks (24/9/1, 8 & 16/5, {3,8} census)", ok)


def test_08_containment_threshold():
    ok = True
    for k, expected in ((4, "strict_interior"), (3, "touching"), (2, "outside")):
        pts = sixteen_cell_diagram(Fraction(k))
        outcome = tetra_containment(
            [pts[v] for v in "ABCD"], [pts[v] for v in "EFGH"]
        )
        ok = ok and outcome == expected
    _report("08", "inner-tetra containment threshold at k = 4/3/2", ok)


def test_09_property_suites(moebius_catalog, moebius_points):
    # field laws and exact sign vs a high-precision oracle, 1000 values
    test_numeric.test_sign_consistency_random()
    test_numeric.test_sign_multiplicative_random()
    # brute-force subset scan equals the backtracking catalog
    brute = brute_force_catalog(moebius_catalog.task)
    assert [t.faces for t in brute.triangulations] == [
        t.faces for t in moebius_catalog.triangulations
    ]
    # verdict symmetry, scaling invariance, float/independent-oracle agreement
    test_verify.test_verdict_symmetric_under_swap()
    test_verify.test_verdicts_invariant_under_scaling(
        moebius_points, moebius_catalog
    )
    test_verify.test_exact_checker_agrees_with_cramer_oracle()
    _report("09", "property suites (signs, brute force, verifier oracles)",
            True)


def test_10_report_determinism():
    a, ok_a = run_report()
    b, ok_b = run_report()
    _report("10", "two consecutive report runs are byte-identical",
            a == b and ok_a == ok_b)
