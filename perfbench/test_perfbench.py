"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from porism_lab import billiard, conics, report  # noqa: E402


def test_perturbed_verify_op_fails(tmp_path):
    wl = workloads.make("verify-grid", tmp_path)
    spec = (report.LabConfig(t_samples=workloads.T_SAMPLES, perturb=1e-6), 0.36266)
    outcome = wl.judge(spec, wl.call(spec))
    assert outcome.failed and not outcome.wrong
    assert "FAIL rows" in outcome.detail


def test_unknown_sweep_column_fails(tmp_path):
    wl = workloads.make("sweep-columns", tmp_path)
    spec = (report.LabConfig(t_samples=8), ("perimeter", "no_such_column"))
    outcome = wl.judge(spec, wl.call(spec))
    assert outcome.failed and not outcome.wrong
    assert "exit code 2" in outcome.detail
    assert not any(tmp_path.iterdir())


def test_default_ops_pass_their_checks(tmp_path):
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, tmp_path)
        outcome = wl.judge(wl.warmup, wl.call(wl.warmup))
        assert not outcome.failed, outcome.detail


def test_checks_catch_wrong_values(tmp_path):
    lab = report.LabConfig(t_samples=8)
    wl = workloads.make("sweep-columns", tmp_path)
    code, out, _ = wl.call((lab, ("perimeter",)))
    text = (out / "sweep.csv").read_text()
    assert code == 0 and workloads.check_sweep(text, ("perimeter",), lab) == ""
    lines = text.splitlines()
    t, value = lines[3].split(",")
    lines[3] = f"{t},{float(value) * (1 + 1e-11)!r}"
    assert "perimeter" in workloads.check_sweep("\n".join(lines) + "\n", ("perimeter",), lab)

    ref = json.loads((workloads.REFERENCE_DIR / "verify.json").read_text())["0.2"]
    assert workloads.check_verify(ref, ref, 1.0) == ""
    rows = [dict(r, mean=r["mean"] * (1000.0 if r["quantity"] in workloads.LENGTH_ROWS else 1.0))
            for r in ref]
    assert workloads.check_verify(rows, ref, 1000.0) == ""
    eta = next(r for r in rows if r["quantity"] == "eta_e1")
    eta["mean"] *= 1 + 1e-12
    assert "eta_e1" in workloads.check_verify(rows, ref, 1000.0)
    flipped = [dict(r) for r in ref]
    flipped[0]["status"] = "fail"
    assert "status" in workloads.check_verify(flipped, ref, 1.0)


def test_tracer_rebinds_names_imported_elsewhere():
    tr = tracer.Tracer()
    originals = (report.canonicalize, conics.side_lengths, billiard.theta_closed_form)
    tr.install()
    try:
        for fn in (report.canonicalize, report.foci, report.conic_eval,
                   conics.side_lengths, conics.canonicalize, billiard.theta_closed_form):
            assert hasattr(fn, "__wrapped__")
    finally:
        tr.uninstall()
    assert (report.canonicalize, conics.side_lengths, billiard.theta_closed_form) == originals


@pytest.mark.parametrize("name", ["member-scalar", "sweep-columns"])
def test_traced_counts_repeat_for_one_seed(tmp_path, name):
    def counts():
        wl = workloads.make(name, tmp_path)
        metrics = worker.trace(wl, 5, tmp_path / "spans.npz")["metrics"]
        return {k: v for k, v in metrics.items()
                if not k.endswith("self_s") and k != "trace.overhead_share"}

    first = counts()
    assert first == counts()
    assert first["trace.spans"] > 0 and first["geom.canonicalize.calls"] > 0


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90, 10)
    value, pct, beyond = run.tail([float(i) for i in range(1, 25)])
    assert pct == 58 and beyond == 10 and value == 14.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([*spec["command"], "--workload", "member-scalar", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "error: no porism_lab source tree" in proc.stderr
