"""porism-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Every workload runs in its own single-threaded process (BLAS and OpenMP
threads pinned to 1) against the source tree in ``src/``.  With ``--trace 0``
the run measures the end-to-end metrics: the median set-up time of several
fresh processes, then whole seeded rounds of ops for ``S`` seconds in one
process.  With ``--trace 1`` it measures the per-layer metrics from a
separate traced pass.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same numbers with units and sample counts, the provenance of the
run and the failures.  ``--all`` does both runs for every workload.  Full
results are written to ``.perfbench/``.

This script only uses the standard library; the workload processes import
numpy and porism_lab.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run one workload process to completion and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    package = Path(result["porism_lab"]).resolve()
    if not package.is_relative_to(ROOT / "src"):
        raise BenchError(f"porism_lab was imported from {package}, not from {ROOT / 'src'}")
    return result


def provenance(seed: int, numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "porism_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy_version, "cpu": cpu,
            "nproc": os.cpu_count(), "blas_threads": {v: "1" for v in THREAD_VARS},
            "git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


def tail(values: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least 10 samples beyond it
    (nearest rank): (value, percentile, samples beyond).  With 10 samples
    or fewer no percentile qualifies and the maximum stands in."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return ordered[rank - 1], pct, n - rank


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setups = [run_child(["setup", "--workload", workload], deadline)
              for _ in range(SETUP_RUNS)]
    res = run_child(["measure", "--workload", workload, "--seed", str(seed),
                     "--seconds", repr(seconds)], deadline)
    latencies = [op[0] for op in res["ops"]]
    wall = [op[1] for op in res["ops"]]
    samples = sum(op[2] for op in res["ops"])
    tail_s, pct, beyond = tail(latencies)
    n = len(latencies)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "samples_per_s": samples / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ok_share": (res["attempted"] - res["failed"]) / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh processes; wall "
                   f"{statistics.median(s['setup_wall_s'] for s in setups):.4g} s",
        "samples_per_s": f"{samples} family members in {sum(latencies):.3f} s of op time; "
                         f"wall {samples / sum(wall):.4g}/s",
        "op_p50_s": f"{n} ops in {res['rounds']} rounds; wall {statistics.median(wall):.4g} s",
        "op_tail_s": f"p{pct} of {n} ops, {beyond} beyond; wall {tail(wall)[0]:.4g} s",
        "ok_share": f"failed_share {res['failed']}/{res['attempted']}",
        "peak_rss_mb": "measuring process",
    }
    res["setups"] = setups
    return res, metrics, notes


def per_layer(workload: str, seed: int, deadline: float):
    res = run_child(["trace", "--workload", workload, "--seed", str(seed)], deadline)
    samples = res["metrics"]["trace.samples"]
    notes = {"trace.overhead_share": f"traced {res['traced_s']:.3f} s vs untraced "
                                     f"{res['untraced_s']:.3f} s"}
    for name, value in res["metrics"].items():
        if samples and name.endswith((".calls", "linalg_calls", ".d_fallbacks", ".raised")):
            notes[name] = f"{value / samples:.4g} per sample"
    return res, res["metrics"], notes


def run(workload: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    declared = spec["per_layer" if traced else "end_to_end"]
    if traced:
        res, measured, notes = per_layer(workload, seed, deadline)
    else:
        res, measured, notes = end_to_end(workload, seed, seconds, deadline)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    kind = "per-layer (traced)" if traced else "end-to-end"
    print(f"== {workload}  seed {seed}  {kind}")
    shown = sorted(n for n, v in measured.items() if v or n in metrics) if traced else metrics
    for name in shown:
        value = measured[name]
        unit = metrics[name]["unit"] if name in metrics else ""
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    for detail, count in res["failures"].items():
        print(f"  failed x{count}: {detail}")
    prov = provenance(seed, res["numpy"])
    print("  provenance " + json.dumps(prov))

    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {**result, "workload": workload, "seconds": seconds, "trace": int(traced),
              "provenance": prov, "all_metrics": measured, "raw": res}
    (OUT / f"result-{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if bool(args.all) == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    try:
        if not (ROOT / "src" / "porism_lab" / "__init__.py").is_file():
            raise BenchError(f"no porism_lab source tree under {ROOT / 'src'}")
        for workload in workloads if args.all else [args.workload]:
            for traced in (False, True) if args.all else [bool(args.trace)]:
                print(json.dumps(run(workload, args.seed, args.seconds, traced, spec)))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
