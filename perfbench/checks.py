"""Output checks against the references recorded in ``references/``.

Standard library only, so the harness can judge outputs without importing
flextri.  ``make_references.py`` writes the reference files.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")
REPORT_REFERENCE = os.path.join(REFERENCE_DIR, "report.txt")
SWEEP_REFERENCE = os.path.join(REFERENCE_DIR, "sweep.json")
DEGENERATE_REFERENCE = os.path.join(REFERENCE_DIR, "degenerate.json")

# `flextri report` exits with 3 by design: the suspension placement embeds
# 6 torus triangulations where the documented expectation is 1.
REPORT_EXIT_CODE = 3

# The one disagreement between the R^3 and R^4 checkers known at the
# reference commit: where an edge of one triangle lies in the other's plane
# and crosses it, R^3 says edge_through_face and the R^4 lift says
# interior_crossing.  The reference records these cases, and they are
# counted apart, not as failures.
KNOWN_R4_KIND_DEFECT = ("edge_through_face", "interior_crossing")


def digest(certificate) -> str:
    """SHA-256 of the canonical JSON form of a certificate."""
    text = json.dumps(certificate, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_report_reference() -> bytes:
    with open(REPORT_REFERENCE, "rb") as fh:
        return fh.read()


def load_sweep_reference() -> dict:
    """placement key -> {"digest": ..., "certificate": ...}."""
    with open(SWEEP_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def load_degenerate_reference() -> list:
    """Pool index -> the three [verdict, kind] results: R^3, R^4 lift, affine image."""
    with open(DEGENERATE_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def report_ok(exit_code: int, stdout: bytes, reference: bytes) -> bool:
    return exit_code == REPORT_EXIT_CODE and stdout == reference


def sweep_ok(record: dict, reference: dict) -> bool:
    entry = reference.get(record["placement"])
    return entry is not None and record.get("digest") == entry["digest"]


def degenerate_status(results, expected) -> str:
    """Judge one case from its three (verdict, kind) results, R^3, R^4 lift
    and affine image, against the reference's.  R^3 and the affine image
    must both give the reference's R^3 result.  "ok" when the R^4 lift
    agrees with them, "known_defect" when it gives the reference's R^4
    result and that is the known kind disagreement, "fail" otherwise."""
    r3, r4, ra = (tuple(r) for r in results)
    e3, e4, _ = (tuple(r) for r in expected)
    if r3 != e3 or ra != e3:
        return "fail"
    if r4 == r3:
        return "ok"
    if r4 == e4 and r4[0] == r3[0] and (r3[1], r4[1]) == KNOWN_R4_KIND_DEFECT:
        return "known_defect"
    return "fail"
