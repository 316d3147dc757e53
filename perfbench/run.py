"""flextri benchmark harness.

    python3 perfbench/run.py --workload {report,sweep,degenerate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; flextri is imported from ``src/``.
With --trace 0 it measures the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics.  It checks every output against the
references in ``perfbench/references`` and prints one line per metric, a
provenance record, and as its last line one JSON object with the keys
correct, attempted, failed and metrics.  Each operation runs in a closed
loop with one client: the next starts when the previous one has finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import clock  # noqa: E402
import stats  # noqa: E402
import workloads as W  # noqa: E402

BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")

# The measured loop is cut into chunks with fresh-interpreter set-ups before
# each, so set-up and operations sample the same stretch of a shared machine.
CHUNKS = 3
SETUPS_PER_CHUNK = 6
# Every child is killed if it runs longer than this.
CHILD_TIMEOUT_S = 170


class HarnessError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, stderr=None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=stderr, timeout=CHILD_TIMEOUT_S)


def run_worker(mode: str, workload: str, seed: int, *extra) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", workload, "--seed", str(seed), *extra]
    proc = run_child(cmd)
    if proc.returncode != 0:
        raise HarnessError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def setup_step(workload: str, seed: int):
    """Fresh interpreter to ready, without the benchmark's input generation."""
    spawned = time.time()
    out = run_worker("setup", workload, seed)
    return out["ready_wall"] - spawned - out["gen_s"], None


# -- untraced run -------------------------------------------------------------------

def probed_report(reference: bytes) -> tuple[float, dict, bool]:
    """One `flextri report` in a fresh process that probes for contention
    while it runs: (wall seconds without the probes, the launcher's record
    of probe times and in-process ``run_report`` time, output ok)."""
    start = perf_counter()
    proc = run_child([sys.executable, os.path.join(HERE, "launch_report.py")],
                     stderr=subprocess.PIPE)
    wall = perf_counter() - start
    record = json.loads(proc.stderr.decode().splitlines()[-1])
    ok = checks.report_ok(proc.returncode, proc.stdout, reference)
    return wall - sum(record["probes"]), record, ok


def judge(workload: str, records) -> list[str]:
    if workload == "sweep":
        reference = checks.load_sweep_reference()
        return ["ok" if "error" not in r and checks.sweep_ok(r, reference) else "fail" for r in records]
    reference = checks.load_degenerate_reference()
    return ["fail" if "error" in r else checks.degenerate_status(r["results"], reference[r["case"]])
            for r in records]


def untraced_run(workload: str, seed: int, seconds: float):
    # (wall seconds, mean probe seconds around it) per set-up and operation
    setups, ops, status, peak_kib, cpu_s = [], [], [], [], []
    reference = checks.load_report_reference() if workload == "report" else None
    for _ in range(CHUNKS):
        for _ in range(SETUPS_PER_CHUNK):
            wall, around, _ = clock.bracket(
                lambda: setup_step(workload, seed), setups[-1][0] if setups else 0.0)
            setups.append((wall, around))
        if workload == "report":
            deadline = perf_counter() + seconds / CHUNKS
            while True:
                before = clock.probe_block()
                wall, record, ok = probed_report(reference)
                samples = before + record["probes"] + clock.probe_block()
                ops.append((wall, sum(samples) / len(samples)))
                status.append("ok" if ok else "fail")
                peak_kib.append(record["maxrss_kib"])
                cpu_s.append(record["cpu_s"])
                if perf_counter() >= deadline:
                    break
        else:
            out = run_worker("loop", workload, seed, "--seconds", str(seconds / CHUNKS),
                             "--start", str(len(ops)))
            ops += zip(out["latencies"], out["around"])
            cpu_s += out["cpu"]
            status += judge(workload, out["records"])
            peak_kib.append(out["maxrss_kib"])

    setup_s = [clock.corrected(w, a) for w, a in setups]
    op_s = [clock.corrected(w, a) for w, a in ops]
    raw_op_s = [w for w, _ in ops]
    n = len(ops)
    pairs = W.PAIRS_PER_OP[workload] * n
    metrics = {
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "pairs_per_s": pairs / sum(op_s),
        "peak_rss_mb": max(peak_kib) / 1024,
    }
    samples = {"setup_s": len(setups), "op_p50_ms": n, "pairs_per_s": n,
               "peak_rss_mb": len(peak_kib)}
    tail = stats.tail(op_s)
    known = status.count("known_defect")
    extra = {
        "op_tail_ms": None if tail is None else {
            "value": tail[1] * 1e3, "unit": "ms", "percentile": tail[0], "samples": n},
        # failed operations as METRICS.md defines them: the known R^4 kind
        # defect counts here, but not in the result line's `failed`
        "fail_ratio": {"value": (status.count("fail") + known) / n, "unit": "ratio", "samples": n},
        "known_r4_kind_defects": known,
        "raw": {"setup_s": statistics.median(w for w, _ in setups),
                "op_p50_ms": statistics.median(raw_op_s) * 1e3,
                "pairs_per_s": pairs / sum(raw_op_s),
                "cpu_op_p50_ms": statistics.median(cpu_s) * 1e3},
        # how much slower than the reference the probe ran around operations
        "contention": statistics.median(a for _, a in ops) / clock.REFERENCE_PROBE_S,
    }
    return metrics, samples, status, extra


# -- traced run ---------------------------------------------------------------------

def traced_run(workload: str, seed: int):
    out = run_worker("trace", workload, seed)
    reference = checks.load_report_reference()
    # interpreter start, import, argument parsing, output and exit, timed
    # within one process so that contention scales both sides alike
    wall, record, ok = probed_report(reference)
    metrics = out["metrics"]
    metrics["cli.process_ms"] = (wall - record["report_s"]) * 1e3

    status = ["ok" if text.encode() == reference else "fail" for text in out["outputs"]["report"]]
    status.append("ok" if ok else "fail")
    if workload != "report":
        status += judge(workload, out["outputs"][workload])
    extra = {"check_us_tail_percentile": metrics["verify.check_us_tail_percentile"],
             "trace_file": out["trace_file"],
             "known_r4_kind_defects": status.count("known_defect")}
    return metrics, out["samples"], status, extra


# -- provenance -----------------------------------------------------------------------

def source_digest() -> str:
    """SHA-256 over the files under src/, which names the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- main -------------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="flextri benchmark")
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(BENCHMARK_FILE, encoding="utf-8") as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(SRC, "flextri", "__init__.py")):
            raise HarnessError(f"no flextri sources under {SRC}")
        # Probes bracket steps that run in child processes, so every process
        # of the run shares one processor (children inherit the affinity).
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        load_start = os.getloadavg()
        if args.trace:
            measured, samples, status, extra = traced_run(args.workload, args.seed)
            wanted = spec["per_layer"]
        else:
            measured, samples, status, extra = untraced_run(args.workload, args.seed, args.seconds)
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise HarnessError(f"metrics not measured: {missing}")
    except (HarnessError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        n = f"  n={samples[name]}" if name in samples else ""
        print(f"{args.workload:<10} {name:<40} {m['value']:>16.6f} {m['unit']}{n}")
    for name, value in extra.items():
        print(f"{args.workload:<10} {name:<40} {json.dumps(value)}")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "samples": samples,
        **extra,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    failed = status.count("fail")
    print(json.dumps({"correct": failed == 0, "attempted": len(status), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
