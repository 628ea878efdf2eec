"""Where a verify's time and memory go: the median time, or the traced
memory, of each stage of the measurement pass of ``report.run_verify``,
each stage forced in turn; with ``--member``, where a ``member-scalar``
benchmark op's time goes.

    PYTHONPATH=src python3 tools/stage_times.py [--rho F] [--t-samples N] [--runs K]
                                                [--memory] [--json]
    PYTHONPATH=src python3 tools/stage_times.py --member [--runs K] [--json]

Each run builds a fresh verify pass (every verify row, at R = 1, taking the
largest circumconic condition number as ``run_verify`` does) and forces its
stages in pass order: ``fam`` (the family builder ``report._family``: the
family, its side lengths, excentral triangles and perimeters, from which
the pass is made), ``centers`` (X1, X3, X9, X10, X11 and X40, in
that order), ``side_lines``, ``conics`` (the named conic stack, the largest
circumconic condition number and the canonical forms), ``loci``,
``antiorthic``, ``x100``, ``closed`` (the X9 and theta closed forms),
``billiard``, ``hyperbolas`` and ``equivariance``; then
``rows``, the rows' values from those stages with their reduction to
counts, extremes and sums.  A stage forced after the stages it reads is
measured without them.  The stages run under the floating-point error
state of ``_Pass.measure``.

By default the tool prints the median milliseconds of each stage over
``--runs`` runs, after one unrecorded warm-up run, and their total.  With
``--memory`` it traces the runs with ``tracemalloc`` instead and prints,
per stage, the median traced peak above the memory held at the stage's
entry and the median memory the stage keeps when it returns, in KiB
(1024 bytes); then the traced peak of one whole ``run_verify`` of the same
configuration, in KiB and in KiB per sample.  Stages forced in turn hold
every earlier stage's result, while ``run_verify`` drops the conic stage
after its last row, so the largest stage peak plus its entry is an upper
bound of the verify's peak, not that peak.  ``--json`` prints the same as
one JSON object.  The package is imported from the path, so
``PYTHONPATH`` picks the tree that is measured.

With ``--member`` the tool runs ``--runs`` seeded rounds of the
``member-scalar`` workload (``perfbench/workloads.py``: one member per
figure id, drawn from seed ``MEMBER_SEED``), after one unrecorded warm-up
round.  Each op is the benchmark's own ``member_call``, timed by a lap
clock: the first call of the function that begins a part
(``MEMBER_STARTS``) ends the part before it.  The parts are ``sample``
(the ``LabConfig``, its family and the member), ``conics`` (the nine named
conics with ``canonicalize``), ``centers`` (every supported center),
``billiard`` (the normalized member, the billiard's semi-axes and the
reflection-law residual), and the op's figure.  It prints the median
milliseconds of each of the first four parts over all ops, of each figure
over the ops that render it (``figure:<id>``), of the time each op spends
inside the ``SvgCanvas`` methods (``svg``, a share of its figure's;
``SvgTime``), and of the op totals (``op``, with their mean).  An op that
raises a ``GeometryError`` is left out of every median and counted on the
last line.  The warm-up renders
every figure once, so the ``cb-plots`` row is the cost of a render after
its scene is built.  Before that line it prints the median number of rank
tests per op (``RankCounts``, counted in a second, untimed pass over the
timed ops) that the determinant tier decided, that the full filter
decided, and that both left open to the SVD.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np

STAGES = ("fam", "centers", "side_lines", "conics", "loci", "antiorthic", "x100", "closed",
          "billiard", "hyperbolas", "equivariance", "rows")
CENTERS = (1, 3, 9, 10, 11, 40)
KIB = 1024
MEMBER_PARTS = ("sample", "conics", "centers", "billiard")
MEMBER_SEED = 0
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def one_run(rho: float, n: int, memory: bool = False) -> dict[str, tuple[float, ...]]:
    """Per stage of one verify pass at ratio ``rho`` over ``n`` samples:
    its seconds, or with ``memory`` its traced peak above its entry and
    the bytes it keeps (tracing must be on)."""
    from porism_lab import report

    lab = report.LabConfig(R=1.0, r=rho, t_samples=n)
    p = None

    def family():
        nonlocal p
        p = report._Pass(*report._family(lab), report._VERIFY_ROWS, 0, condition=True)

    force = {stage: (lambda stage=stage: getattr(p, stage)) for stage in STAGES[1:-1]}
    force["fam"] = family
    force["centers"] = lambda: [p.x(k) for k in CENTERS]
    force["rows"] = lambda: report._reduce(*p.measure())
    out = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as the pass runs
        for stage in STAGES:
            if memory:
                entry = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                force[stage]()
                now, peak = tracemalloc.get_traced_memory()
                out[stage] = (peak - entry, now - entry)
            else:
                start = time.perf_counter()
                force[stage]()
                out[stage] = (time.perf_counter() - start,)
    return out


def verify_peak(rho: float, n: int) -> int:
    """The traced peak, in bytes above the memory held before it, of one
    ``run_verify`` at ratio ``rho`` over ``n`` samples (tracing must be on)."""
    from porism_lab import report

    lab = report.LabConfig(R=1.0, r=rho, t_samples=n)
    entry = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    report.run_verify(lab)
    return tracemalloc.get_traced_memory()[1] - entry


class RankCounts:
    """The rank tests decided so far, scalar and batched, by what decided
    them: ``tier`` the determinant tier (``rank._certified_full``),
    ``filter`` the full filter (``rank._rank_decision``), and ``svd`` the
    matrices both left open, which the SVD decides (or which hold a
    non-finite entry).  A matrix of a stack counts as one test.  While
    installed, it counts through the two decisions of the package's
    ``rank`` module, which it rebinds."""

    KINDS = ("tier", "filter", "svd")

    def __init__(self):
        self.tier = self.filter = self.svd = 0

    def install(self, rank) -> None:
        certified, decision = rank._certified_full, rank._rank_decision
        self.restore = lambda: vars(rank).update(_certified_full=certified,
                                                 _rank_decision=decision)

        def counted_tier(F, D, e_D):
            full = certified(F, D, e_D)
            self.tier += int(np.count_nonzero(full))
            return full

        def counted_decision(*args):
            full, deficient = decision(*args)
            decided = int(np.count_nonzero(full | deficient))
            self.filter += decided
            self.svd += int(np.size(full)) - decided
            return full, deficient

        rank._certified_full, rank._rank_decision = counted_tier, counted_decision

    def take(self) -> tuple[int, int, int]:
        """The counts by kind since the last take, which it resets."""
        counts = self.tier, self.filter, self.svd
        self.tier = self.filter = self.svd = 0
        return counts


class SvgTime:
    """Seconds spent inside the ``SvgCanvas`` methods of ``METHODS``,
    summed since the last take.  While installed, it times them through
    wrappers on the class of the package's ``svg`` module."""

    METHODS = ("polyline", "circle", "dot", "label", "render")

    def __init__(self):
        self.seconds = 0.0

    def install(self, svg) -> None:
        self.canvas = svg.SvgCanvas
        self.methods = {name: vars(self.canvas)[name] for name in self.METHODS}
        for name, method in self.methods.items():
            setattr(self.canvas, name, self._timed(method))

    def _timed(self, method):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
        return call

    def restore(self) -> None:
        for name, method in self.methods.items():
            setattr(self.canvas, name, method)

    def take(self) -> float:
        """The seconds since the last take, which it resets."""
        seconds, self.seconds = self.seconds, 0.0
        return seconds


#: The call of ``workloads.member_call`` with which each part of a
#: ``member-scalar`` op after ``sample`` begins, by module; the figure's
#: part runs to the op's end.
MEMBER_STARTS = {"poristic": ("named_conic", "conics"), "centers": ("center", "centers"),
                 "billiard": ("normalize_sample", "billiard"),
                 "figures": ("render_figure", "figure")}


class Laps:
    """The clock of an op: the running part and the seconds of each part
    that has ended."""

    def start(self) -> None:
        self.part, self.seconds, self.clock = "sample", {}, time.perf_counter()

    def begin(self, part: str) -> None:
        if part != self.part:
            now = time.perf_counter()
            self.seconds[self.part] = now - self.clock
            self.part, self.clock = part, now


def member_times(runs: int) -> tuple[dict[str, float], list[float], int, dict[str, float]]:
    """Median milliseconds of each part of the ``member-scalar`` ops of
    ``runs`` seeded rounds, the op totals in milliseconds, the number of
    ops that raised (left out), and the median number of rank tests per op
    of each kind of ``RankCounts``.  The ``svg`` part, summed by
    ``SvgTime``, is a share of the figure's.  Each op is the benchmark's own
    ``workloads.member_call``, whose modules are replaced, in this tool's
    copy of ``perfbench/workloads.py``, by copies in which the calls of
    ``MEMBER_STARTS`` begin their part on the op's ``Laps``."""
    from porism_lab import rank, svg
    from porism_lab.errors import GeometryError

    spec = importlib.util.spec_from_file_location("member_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    laps = Laps()

    def lapped(function, part):
        def call(*args):
            laps.begin(part)
            return function(*args)
        return call

    for module, (name, part) in MEMBER_STARTS.items():
        real = getattr(workloads, module)
        setattr(workloads, module,
                types.SimpleNamespace(**{**vars(real), name: lapped(getattr(real, name), part)}))
    rng = np.random.default_rng(MEMBER_SEED)
    ids = workloads.figures.FIGURE_IDS
    parts = {part: [] for part in (*MEMBER_PARTS, *(f"figure:{i}" for i in ids), "svg")}
    totals, raised, timed = [], 0, []
    canvas = SvgTime()
    canvas.install(svg)
    try:
        for round_index in range(runs + 1):
            for op in workloads.member_round(rng):
                canvas.take()
                laps.start()
                raw = workloads.member_call(op)
                laps.begin("end")
                if isinstance(raw, GeometryError):
                    raised += round_index > 0
                    continue
                if isinstance(raw, Exception):
                    raise raw
                if round_index == 0:  # the warm-up round
                    continue
                times = laps.seconds
                times[f"figure:{op[3]}"] = times.pop("figure")
                for part, seconds in times.items():
                    parts[part].append(seconds)
                parts["svg"].append(canvas.take())
                totals.append(1e3 * sum(times.values()))
                timed.append(op)
    finally:
        canvas.restore()
    ms = {part: 1e3 * statistics.median(v) if v else float("nan") for part, v in parts.items()}
    # The rank tests are counted in a second, untimed pass over the timed
    # ops, so that the counting adds nothing to their times.
    counts, ranks = RankCounts(), []
    counts.install(rank)
    try:
        for op in timed:
            workloads.member_call(op)
            ranks.append(counts.take())
    finally:
        counts.restore()
    tests = {kind: statistics.median(op[i] for op in ranks) if ranks else float("nan")
             for i, kind in enumerate(RankCounts.KINDS)}
    return ms, totals, raised, tests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rho", type=float, default=0.36266)
    parser.add_argument("--t-samples", type=int, default=720)
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--memory", action="store_true",
                        help="trace memory per stage instead of timing it")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    parser.add_argument("--member", action="store_true",
                        help="time the parts of member-scalar benchmark ops instead")
    args = parser.parse_args(argv)
    if args.member:
        if args.memory:
            parser.error("--member times; it has no --memory table")
        ms, totals, raised, tests = member_times(args.runs)
        op, mean = statistics.median(totals), statistics.fmean(totals)
        if args.json:
            print(json.dumps({"runs": args.runs, "seed": MEMBER_SEED,
                              "median_ms": {k: round(v, 4) for k, v in ms.items()},
                              "op_ms": round(op, 4), "op_mean_ms": round(mean, 4),
                              "rank_tests": tests, "raised": raised}))
            return 0
        for part, value in ms.items():
            print(f"{part:22s} {value:8.3f} ms")
        print(f"{'op':22s} {op:8.3f} ms (median of the op totals; mean {mean:.3f} ms)")
        print("rank tests per op (median): " + ", ".join(
            f"{tests[kind]:g} {name}" for kind, name in
            zip(RankCounts.KINDS, ("by the tier", "by the full filter", "by the SVD"))))
        print(f"{raised} ops raised and are left out")
        return 0
    head = {"rho": args.rho, "t_samples": args.t_samples, "runs": args.runs}
    one_run(args.rho, args.t_samples)  # warm-up
    if args.memory:
        tracemalloc.start()
        try:
            runs = [one_run(args.rho, args.t_samples, memory=True) for _ in range(args.runs)]
            verify = verify_peak(args.rho, args.t_samples)
        finally:
            tracemalloc.stop()
        peak, kept = ({stage: statistics.median(r[stage][i] for r in runs) / KIB
                       for stage in STAGES} for i in (0, 1))
        per_sample = verify / KIB / args.t_samples
        if args.json:
            print(json.dumps({**head, "peak_kib": {k: round(v, 1) for k, v in peak.items()},
                              "kept_kib": {k: round(v, 1) for k, v in kept.items()},
                              "verify_peak_kib": round(verify / KIB, 1),
                              "verify_peak_kib_per_sample": round(per_sample, 4)}))
            return 0
        print(f"{'stage':14s} {'peak':>10s} {'kept':>10s}  (KiB above the stage's entry)")
        for stage in STAGES:
            print(f"{stage:14s} {peak[stage]:10.1f} {kept[stage]:10.1f}")
        print(f"{'run_verify':14s} {verify / KIB:10.1f} KiB traced peak, "
              f"{per_sample:.3f} KiB per sample")
        return 0
    runs = [one_run(args.rho, args.t_samples) for _ in range(args.runs)]
    ms = {stage: 1e3 * statistics.median(r[stage][0] for r in runs) for stage in STAGES}
    total = 1e3 * statistics.median(sum(t for (t,) in r.values()) for r in runs)
    if args.json:
        print(json.dumps({**head, "median_ms": {k: round(v, 4) for k, v in ms.items()},
                          "total_ms": round(total, 4)}))
        return 0
    for stage, value in ms.items():
        print(f"{stage:14s} {value:8.3f} ms")
    print(f"{'total':14s} {total:8.3f} ms (median of the run totals)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
