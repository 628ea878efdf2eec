"""Where a verify's time goes: the median time of each stage of the
measurement pass of ``report.run_verify``, each stage forced in turn.

    PYTHONPATH=src python3 tools/stage_times.py [--rho F] [--t-samples N] [--runs K] [--json]

Each run builds a fresh pass of every verify row at R = 1 and forces its
stages in pass order: ``fam`` (the family, its side lengths, excentral
triangles and perimeters), ``centers`` (X1, X3, X9, X10, X11 and X40, in
that order), ``conics`` (the named conic stack and its canonical forms),
``loci``, ``antiorthic``, ``i3x_tangent``, ``x100``,
``billiard``, ``hyperbolas`` and ``equivariance``; then ``rows``, the
rows' values from those stages with their reduction to counts, extremes
and sums, and ``max_condition``, the largest circumconic condition number
(``geom.max_condition_batch``).  A stage forced after the stages it reads
is timed without them.  The stages run under the floating-point error
state of ``_Pass.measure``.  The tool prints the median milliseconds of each
stage over ``--runs`` runs, after one unrecorded warm-up run, and their
total; ``--json`` prints the same as one JSON object.  The package is
imported from the path, so ``PYTHONPATH`` picks the tree that is timed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

STAGES = ("fam", "centers", "conics", "loci", "antiorthic", "i3x_tangent", "x100",
          "billiard", "hyperbolas", "equivariance", "rows", "max_condition")
CENTERS = (1, 3, 9, 10, 11, 40)


def one_run(rho: float, n: int) -> dict[str, float]:
    """Seconds per stage of one verify pass at ratio ``rho`` over ``n`` samples."""
    from porism_lab import geom, report

    p = report._Pass(rho, report.LabConfig(t_samples=n).t, report._VERIFY_ROWS, 0)
    force = {stage: (lambda stage=stage: getattr(p, stage)) for stage in STAGES[:-2]}
    force["centers"] = lambda: [p.x(k) for k in CENTERS]
    force["rows"] = lambda: report._reduce(*p.measure())
    force["max_condition"] = lambda: geom.max_condition_batch(p.conics[0].rows,
                                                              p.conics[0].norms)
    times = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as the pass runs
        for stage in STAGES:
            start = time.perf_counter()
            force[stage]()
            times[stage] = time.perf_counter() - start
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rho", type=float, default=0.36266)
    parser.add_argument("--t-samples", type=int, default=720)
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    one_run(args.rho, args.t_samples)  # warm-up
    runs = [one_run(args.rho, args.t_samples) for _ in range(args.runs)]
    ms = {stage: 1e3 * statistics.median(r[stage] for r in runs) for stage in STAGES}
    total = 1e3 * statistics.median(sum(r.values()) for r in runs)
    if args.json:
        print(json.dumps({"rho": args.rho, "t_samples": args.t_samples, "runs": args.runs,
                          "median_ms": {k: round(v, 4) for k, v in ms.items()},
                          "total_ms": round(total, 4)}))
        return 0
    for stage, value in ms.items():
        print(f"{stage:14s} {value:8.3f} ms")
    print(f"{'total':14s} {total:8.3f} ms (median of the run totals)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
