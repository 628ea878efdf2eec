"""One workload process of the benchmark (started by ``run.py``).

    worker.py setup     --workload W
    worker.py measure   --workload W --seed N --seconds S
    worker.py trace     --workload W --seed N
    worker.py reference

``setup`` times a fresh process importing porism_lab plus the untimed first
op.  ``measure`` runs whole seeded rounds of ops, untraced, until ``S``
seconds have passed.  ``trace`` runs a fixed number of seeded rounds twice,
untraced and then traced, so per-layer counts repeat exactly for one seed.
``reference`` rewrites the committed reference data.  Each role prints one
JSON object as its last line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracer as _tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


#: Longest stretch of ops between two calibration runs.
CALIBRATE_EVERY_S = 0.1


def _warm_up(wl) -> bool:
    """Run the untimed first op; true when it checks and, on member-scalar,
    every figure at the default config matches its committed digest."""
    if wl.judge(wl.warmup, wl.call(wl.warmup)).wrong:
        return False
    if wl.name != "member-scalar":
        return True
    committed = json.loads((workloads.REFERENCE_DIR / "figures.json").read_text())
    return workloads.figure_digests() == committed


def _run(wl, specs, call) -> tuple[list, list]:
    """Run and judge the ops, with a calibration run at least every
    ``CALIBRATE_EVERY_S``.  Returns the outcomes and one record per op:
    [latency in reference seconds, wall latency, samples, failed]."""
    cals = [calibrate.kernel_seconds()]
    timed, outcomes = [], []
    last = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        raw = call(spec)
        latency = time.perf_counter() - t0
        outcome = wl.judge(spec, raw)
        timed.append((latency, len(cals) - 1))
        outcomes.append(outcome)
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            cals.append(calibrate.kernel_seconds())
            last = time.perf_counter()
    if len(cals) - 1 == timed[-1][1]:
        cals.append(calibrate.kernel_seconds())
    ops = [[latency * calibrate.REFERENCE_S * 2.0 / (cals[i] + cals[i + 1]), latency,
            o.samples, o.failed] for (latency, i), o in zip(timed, outcomes)]
    return ops, outcomes


def _summary(outcomes) -> dict:
    details: dict[str, int] = {}
    for o in outcomes:
        if o.failed:
            details[o.detail] = details.get(o.detail, 0) + 1
    return {"attempted": len(outcomes), "failed": sum(o.failed for o in outcomes),
            "wrong": sum(o.wrong for o in outcomes), "failures": details}


def setup(wl) -> dict:
    wl.call(wl.warmup)
    wall = time.perf_counter() - T0
    cal = sorted(calibrate.kernel_seconds() for _ in range(3))[1]
    return {"setup_s": wall * calibrate.REFERENCE_S / cal, "setup_wall_s": wall}


def measure(wl, seed: int, seconds: float) -> dict:
    correct = _warm_up(wl)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    rounds = 0

    def specs():
        nonlocal rounds
        while time.perf_counter() - start < seconds:
            yield from wl.round(rng)
            rounds += 1

    ops, outcomes = _run(wl, specs(), wl.call)
    summary = _summary(outcomes)
    return {"correct": correct and summary["wrong"] == 0, "rounds": rounds, "ops": ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **summary}


def trace(wl, seed: int, spans_path: Path) -> dict:
    correct = _warm_up(wl)
    rng = np.random.default_rng(seed)
    specs = [spec for _ in range(wl.trace_rounds) for spec in wl.round(rng)]
    untraced, outcomes = _run(wl, specs, wl.call)
    correct &= not any(o.wrong for o in outcomes)
    tr = _tracer.Tracer()
    tr.install()
    try:
        traced, outcomes = _run(wl, specs, lambda spec: tr.op(wl.call, spec))
    finally:
        tr.uninstall()
    untraced_s = sum(op[0] for op in untraced)
    traced_s = sum(op[0] for op in traced)
    metrics = tr.layer_metrics()
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    metrics["trace.samples"] = sum(o.samples for o in outcomes)
    metrics["report.skipped"] = sum(o.skipped for o in outcomes)
    metrics["cli.bytes_written"] = sum(o.bytes_written for o in outcomes)
    metrics["linalg_calls"] = sum(v for k, v in metrics.items() if k.endswith(".linalg_calls"))
    tr.save(spans_path)
    summary = _summary(outcomes)
    return {"correct": correct and summary["wrong"] == 0, "metrics": metrics,
            "untraced_s": untraced_s, "traced_s": traced_s, "spans": str(spans_path),
            **summary}


def write_reference() -> dict:
    """Verify rows at R = 1 for every grid ratio, and the figure digests."""
    ref = {}
    for rho in workloads.GRID_RHO:
        lab = workloads.report.LabConfig(R=1.0, r=rho, t_samples=workloads.T_SAMPLES)
        ref[repr(rho)] = workloads.verify_rows(workloads.report.run_verify(lab))
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    (workloads.REFERENCE_DIR / "verify.json").write_text(json.dumps(ref, indent=1) + "\n")
    (workloads.REFERENCE_DIR / "figures.json").write_text(
        json.dumps(workloads.figure_digests(), indent=1) + "\n")
    return {"written": str(workloads.REFERENCE_DIR)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "measure", "trace", "reference"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    if args.role == "reference":
        print(json.dumps(write_reference()))
        return 0
    scratch = OUT / f"tmp-{args.workload}-{args.role}-{args.seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, scratch)
        if args.role == "setup":
            result = setup(wl)
        elif args.role == "measure":
            result = measure(wl, args.seed, args.seconds)
        else:
            result = trace(wl, args.seed, OUT / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["numpy"] = np.__version__
    result["porism_lab"] = workloads.pl.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
