"""Child process that drives flextri for the harness (``run.py``).

Modes:
  setup  import flextri, build the workload's inputs, enumerate the
         catalogs and build the placements; print when it was ready and
         how long the benchmark's own imports and inputs took.
  loop   set up, then run operations in a closed loop with one client for
         --seconds; print each operation's latency and output summary.
  trace  the traced run: time the fresh import, run one report traced
         between two untraced ones (the stack probe), run the workload's
         fixed traced operation list, time field operations on the
         workload's own operands, write the spans and counters to
         .perfbench-out/trace-<workload>-<seed>.json in the working
         directory, and print the per-layer metrics.

Every mode prints one JSON object on stdout when it ends.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

# flextri is imported before any module of the benchmark's own, so the import
# pays for every standard-library module flextri shares with the benchmark,
# as a cold `flextri report` does.  flextri.cli imports every layer.
_START = perf_counter()
import flextri.cli  # noqa: E402,F401

_IMPORTED = perf_counter()  # from here on, the benchmark's imports count as input generation
IMPORT_S = _IMPORTED - _START

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from itertools import combinations  # noqa: E402

import checks  # noqa: E402
import clock  # noqa: E402
import stats  # noqa: E402
import workloads as W  # noqa: E402

# Where the traced run writes its spans and counters, relative to the
# working directory (the checkout's root when run.py starts the worker).
TRACE_DIR = ".perfbench-out"

# Traced operations per workload: a fixed list, so every count repeats.
TRACE_SWEEP_PLACEMENTS = 3
TRACE_DEGENERATE_CASES = 70

REPORT_CATALOGS = (("k2222", "torus"), ("k6", "projective-plane"), ("k5", "moebius"))


def generate(workload: str, seed: int):
    if workload == "sweep":
        return W.sweep_order(seed)
    if workload == "degenerate":
        return W.degenerate_cases(seed)
    return None


# -- set-up -------------------------------------------------------------------

def sweep_placement(construction, k):
    from flextri.geometry import RealizationParams, construction_coords, sixteen_cell_diagram

    if construction == "sixteen_cell":
        return sixteen_cell_diagram(k)
    return construction_coords(construction, RealizationParams(k))


def case_points(case) -> list:
    """The case's three inputs as pairs of flextri Point triples."""
    from flextri.geometry import make_point
    from flextri.numeric import QQ

    return [
        tuple(tuple(make_point(QQ, *p) for p in tri) for tri in case[form])
        for form in ("r3", "r4", "affine")
    ]


def setup(workload: str, inputs) -> dict:
    """Import flextri and build what the workload's operations use."""
    if workload == "report":
        import flextri.cli as cli

        catalogs = [cli.build_catalog(g, s) for g, s in REPORT_CATALOGS]
        placements = [cli.construction_points(name, None)[0] for name in cli.CONSTRUCTIONS]
        return {"catalogs": catalogs, "placements": placements}
    if workload == "sweep":
        from flextri.enumeration import EnumerationTask, enumerate_triangulations
        from flextri.surfaces import build_graph

        catalog = enumerate_triangulations(EnumerationTask(build_graph("k2222"), "closed", "torus"))
        placements = [sweep_placement(c, k) for c, k in inputs]
        return {"catalog": catalog, "placements": placements, "keys": [W.placement_key(c, k) for c, k in inputs]}
    return {"cases": [case_points(c) for c in inputs], "ids": [c["id"] for c in inputs]}


# -- operations -----------------------------------------------------------------

def qx_text(x) -> list[str]:
    return [str(x.a), str(x.b), str(x.c), str(x.e)]


def certificate(reports, catalog) -> dict:
    """Verdict, kind and exact witness of every clique pair of the catalog
    on one placement: pairs not listed under violations are admissible."""
    pairs = {
        (f1, f2) for tri in catalog.triangulations for f1, f2 in combinations(tri.faces, 2)
    }
    violations = {}
    for r in reports:
        for v in r.violations:
            key = "|".join("".join(f) for f in v.faces)
            violations[key] = {
                "kind": v.kind,
                "shared": v.shared,
                "witness": [[qx_text(c) for c in p.coords] for p in v.witness],
            }
    return {
        "pairs": len(pairs),
        "embedded": [r.embedded for r in reports],
        "violations": violations,
    }


def sweep_op(state, i):
    from flextri.verify import verify_catalog

    return verify_catalog(state["placements"][i % len(state["placements"])], state["catalog"])


def sweep_record(state, i, reports) -> dict:
    return {
        "placement": state["keys"][i % len(state["keys"])],
        "digest": checks.digest(certificate(reports, state["catalog"])),
    }


def degenerate_op(state, i):
    from flextri.verify import pair_intersection_check

    out = []
    for t1, t2 in state["cases"][i % len(state["cases"])]:
        v = pair_intersection_check(t1, t2)
        out.append((v.verdict, v.kind))
    return out


def degenerate_record(state, i, results) -> dict:
    return {"case": state["ids"][i % len(state["ids"])], "results": results}


OPS = {"sweep": (sweep_op, sweep_record), "degenerate": (degenerate_op, degenerate_record)}


def timed(fn, tracer=None):
    """(wall seconds, result) of ``fn()``, traced by ``tracer`` when given."""
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        out = fn()
        return perf_counter() - start, out
    finally:
        if tracer is not None:
            tracer.uninstall()


def probed(fn, tracer=None):
    """``timed`` probed for contention before, during and after: (wall
    seconds without the probes, mean probe time, process CPU seconds
    without the probes, result)."""
    before = clock.probe_block()
    with clock.InStepProbes() as during:
        cpu_start = time.process_time()
        wall, out = timed(fn, tracer)
        cpu = time.process_time() - cpu_start
    samples = before + during.samples + clock.probe_block()
    return wall - during.spent, sum(samples) / len(samples), cpu - during.spent, out


def probed_corrected(fn, tracer=None):
    """``probed`` reduced to (corrected seconds, result)."""
    wall, around, _, out = probed(fn, tracer)
    return clock.corrected(wall, around), out


def run_loop(workload: str, state: dict, seconds: float, start_index: int) -> dict:
    """Closed loop, one client: each operation starts when the previous one
    has finished.  Output summaries are made outside the timed region."""
    op, summarize = OPS[workload]

    def attempt(i):
        try:
            return None, op(state, i)
        except Exception as exc:  # a raising operation is a failed one
            return f"{type(exc).__name__}: {exc}", None

    latencies, around, cpu, records = [], [], [], []
    deadline = perf_counter() + seconds
    i = start_index
    while True:
        wall, mean_probe, cpu_s, (error, out) = probed(lambda: attempt(i))
        latencies.append(wall)
        around.append(mean_probe)
        cpu.append(cpu_s)
        records.append({"error": error} if error else summarize(state, i, out))
        i += 1
        if perf_counter() >= deadline:
            return {"latencies": latencies, "around": around, "cpu": cpu, "records": records,
                    "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


# -- the traced run -----------------------------------------------------------------

def pair_system(t1, t2):
    """The linear system the R^4 checker solves for two triangles."""
    p0, p1, p2 = t1
    q0, q1, q2 = t2
    u1, u2, w1, w2 = p1 - p0, p2 - p0, q1 - q0, q2 - q0
    rows = [[u1.coords[i], u2.coords[i], -w1.coords[i], -w2.coords[i]] for i in range(p0.dim)]
    return rows, list((q0 - p0).coords)


def microbench(point_sets, triangle_pairs, seed: int) -> dict:
    """Per-call cost of multiply, sign, inverse and solve_linear on operands
    taken from the workload's own inputs: coordinates and coordinate
    differences of its points, and the systems of its triangle pairs."""
    from flextri.numeric import solve_linear

    rng = random.Random(seed)
    by_ctx: dict = {}
    for pts in point_sets:
        values = [c for p in pts for c in p.coords]
        values += [c for p, q in combinations(pts, 2) for c in (p - q).coords]
        for x in values:
            by_ctx.setdefault(x.ctx, []).append(x)
    groups = list(by_ctx.values())
    pairs = []
    for _ in range(200):
        g = rng.choice(groups)
        pairs.append((rng.choice(g), rng.choice(g)))
    nonzero = [x for g in groups for x in g if not x.is_zero()]
    nonzero = [rng.choice(nonzero) for _ in range(200)]
    systems = [pair_system(t1, t2) for t1, t2 in triangle_pairs]

    def per_call(fn, items, repeats=5):
        times = []
        for _ in range(repeats):
            start = perf_counter()
            for item in items:
                fn(item)
            times.append((perf_counter() - start) / len(items))
        return statistics.median(times)

    return {
        "numeric.mul_us": per_call(lambda xy: xy[0] * xy[1], pairs) * 1e6,
        "numeric.sign_us": per_call(lambda x: x.sign(), nonzero) * 1e6,
        "numeric.inverse_us": per_call(lambda x: x.inverse(), nonzero) * 1e6,
        "numeric.solve_linear_ms": per_call(lambda s: solve_linear(*s), systems, repeats=3) * 1e3,
    }


def random_triangle_pairs(placements, rng, n=20):
    out = []
    for _ in range(n):
        pts = list(rng.choice(placements).values())
        t1, t2 = rng.sample(list(combinations(pts, 3)), 2)
        out.append((t1, t2))
    return out


def stack_metrics(tracer) -> dict:
    """Layers whose work is the same on every workload: import, enumeration,
    classification, construction and the report's own code, from the traced
    in-process report."""
    (run_index,) = [i for i, s in enumerate(tracer.spans) if s[0] == "cli.run_report"]
    run_span = tracer.spans[run_index]
    ms = 1e3
    classify = tracer.durations_from("surfaces.classify_surface", "flextri.enumeration")
    out = {
        "cli.report_self_ms": (run_span[3] - run_span[2] - tracer.child_time(run_index)) * ms,
        "enumeration.calls": sum(v for k, v in tracer.counts.items() if k.startswith("enumeration.")),
        "enumeration.pairing_ms": sum(tracer.durations("enumeration.complement_pairing")) * ms,
        "surfaces.classify_calls": len(classify),
        "surfaces.classify_ms": sum(classify) * ms,
        "geometry.construct_ms": sum(tracer.external_durations(
            ("geometry.construction_coords", "geometry.sixteen_cell_diagram"), "flextri.geometry")) * ms,
        "geometry.metrics_ms": sum(tracer.external_durations(
            ("geometry.metric_report", "geometry.circumradius_sq",
             "geometry.tetra_inradius_sq", "geometry.tetra_containment"), "flextri.geometry")) * ms,
    }
    for graph, _ in REPORT_CATALOGS:
        out[f"enumeration.enumerate_ms.{graph}"] = sum(
            tracer.durations("enumeration.enumerate_triangulations", graph)) * ms
    return out


def ops_metrics(tracer, fallback, n_ops: int, untraced, traced) -> dict:
    """Layers whose work depends on the workload, per traced operation."""
    c = tracer.counts
    lookups = c["verify.EmbeddingVerifier.check"] / n_ops
    checks_ = c["verify.pair_intersection_check"] / n_ops
    check_us = [d * 1e6 for d in tracer.durations("verify.pair_intersection_check")]
    check_tail = stats.tail(check_us)
    # a workload without catalogs (degenerate) takes these from the stack probe
    source = tracer if tracer.durations("verify.verify_catalog") else fallback
    out = {
        "verify.catalog_ms": statistics.median(source.durations("verify.verify_catalog")) * 1e3,
        "verify.self_ms": statistics.median(
            source.self_times("verify.verify_catalog", "verify.pair_intersection_check")) * 1e3,
        "verify.lookups": lookups,
        "verify.checks": checks_,
        "verify.reuse_ratio": 1 - checks_ / lookups if lookups else 0.0,
        "verify.check_us_p50": statistics.median(check_us),
        "verify.check_us_tail": check_tail[1],
        "verify.check_us_tail_percentile": check_tail[0],
        "verify.witness_points": c["verify.witness_points"] / n_ops,
        "geometry.face_degenerate_calls": len(tracer.durations_from(
            "geometry.face_is_degenerate", "flextri.verify")) / n_ops,
        "numeric.max_coef_bits": tracer.max_coef_bits,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
    }
    for dim in (3, 4):
        for shared in (0, 1, 2):
            for verdict in ("admissible", "violation"):
                key = f"verify.checks.dim{dim}.s{shared}.{verdict}"
                out[key] = c[key] / n_ops
    for name in ("qx_new", "mul", "addsub", "sign", "inverse", "solve_linear"):
        out[f"numeric.{name}"] = c[f"numeric.{name}"] / n_ops
    return out


def run_trace(workload: str, seed: int, inputs) -> dict:
    import flextri.cli as cli
    from tracer import Tracer

    # untraced and traced operations are corrected for contention alike, so
    # the overhead ratio compares like with like; the traced report sits
    # between two untraced ones, so drift in contention cancels
    stack = Tracer()
    before_s, (before_text, _) = probed_corrected(cli.run_report)
    report_traced_s, (traced_text, _) = probed_corrected(  # looked up once traced
        lambda: cli.run_report(), stack)
    after_s, (after_text, _) = probed_corrected(cli.run_report)
    outputs = {"report": [before_text, traced_text, after_text]}

    rng = random.Random(seed)
    if workload == "report":
        ops, n_ops, untraced, traced = stack, 1, [before_s, after_s], [report_traced_s]
        placements = [cli.construction_points(name, None)[0] for name in cli.CONSTRUCTIONS]
        point_sets = [list(p.values()) for p in placements]
        triangle_pairs = random_triangle_pairs(placements, rng)
    else:
        state = setup(workload, inputs)
        op, summarize = OPS[workload]
        n_ops = TRACE_SWEEP_PLACEMENTS if workload == "sweep" else TRACE_DEGENERATE_CASES
        ops, untraced, traced, records = Tracer(), [], [], []
        for i in range(n_ops):
            untraced.append(probed_corrected(lambda: op(state, i))[0])
            seconds, out = probed_corrected(lambda: op(state, i), ops)
            traced.append(seconds)
            records.append(summarize(state, i, out))
        outputs[workload] = records
        if workload == "sweep":
            placements = state["placements"][:n_ops]
            point_sets = [list(p.values()) for p in placements]
            triangle_pairs = random_triangle_pairs(placements, rng)
        else:
            cases = state["cases"][:n_ops]
            point_sets = [r3[0] + r3[1] for r3, _, _ in cases] + [a[0] + a[1] for _, _, a in cases]
            triangle_pairs = [r4 for _, r4, _ in cases[:20]]

    metrics = {"cli.import_ms": IMPORT_S * 1e3}
    metrics.update(stack_metrics(stack))
    metrics.update(ops_metrics(ops, stack, n_ops, untraced, traced))
    metrics.update(microbench(point_sets, triangle_pairs, seed))
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_file = os.path.join(TRACE_DIR, f"trace-{workload}-{seed}.json")
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload, "seed": seed,
            "stack": {"counts": stack.counts, "spans": stack.spans},
            "ops": {"counts": ops.counts, "spans": ops.spans, "n_ops": n_ops},
        }, fh)
    samples = {
        "traced_ops": n_ops,
        "verify.check_us": len(ops.durations("verify.pair_intersection_check")),
        "verify.catalog_ms": len((ops if ops.durations("verify.verify_catalog") else stack)
                                 .durations("verify.verify_catalog")),
        "stack_reports": 3,
    }
    return {"metrics": metrics, "outputs": outputs, "samples": samples, "trace_file": trace_file,
            "counts": {"stack": dict(sorted(stack.counts.items())), "ops": dict(sorted(ops.counts.items()))}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "loop", "trace"))
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--start", type=int, default=0, help="index of the first operation")
    args = parser.parse_args(argv)

    inputs = generate(args.workload, args.seed)
    gen_s = perf_counter() - _IMPORTED
    if args.mode == "setup":
        setup(args.workload, inputs)
        result = {"ready_wall": time.time(), "gen_s": gen_s}
    elif args.mode == "loop":
        state = setup(args.workload, inputs)
        result = run_loop(args.workload, state, args.seconds, args.start)
    else:
        result = run_trace(args.workload, args.seed, inputs)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
