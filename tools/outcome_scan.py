"""Outcome scan: run verify, an all-column sweep, the scalar API and every
figure over a fixed set of configurations and print one JSON line per
configuration.

    PYTHONPATH=src python3 tools/outcome_scan.py [--count N] > scan.jsonl
    python3 tools/outcome_scan.py --compare before.jsonl after.jsonl
    python3 tools/outcome_scan.py --check tests/outcome_scan.json scan.jsonl
    python3 tools/outcome_scan.py --pin scan.jsonl > tests/outcome_scan.json

The configurations are 155 random ones from ``default_rng(2020)``: first
155 draws of log10 R ~ U[-3, 3], then 155 of log10 rho ~ U[-4, log10 0.5],
then 155 of n = ``integers(3, 61)`` samples; then R in {1e-100, 1e30, 1e60,
1e100} at rho = 0.2 with 180 samples.  ``--count N`` scans the first N.

Each line holds, besides R, rho and n, one run per command, keyed by its
name: ``verify``, ``sweep``, ``scalar`` and ``figure:<id>`` for every id of
``figures.FIGURE_IDS``.  Each run gives its outcome ("report", or the name
of the ``GeometryError`` subclass raised) and its message.  For a verify
report it gives the status, verdict, sample count, check, tolerance, mean
and relative spread of every row and ``max_circumconic_condition``, and
the SHA-256 of the report JSON and CSV and of the skip log.  The sweep, of
every sweep column, gives the SHA-256 of its CSV and of its skip log.  The
scalar run evaluates the scalar API at each t of ``SCALAR_T``: ``sample``,
the scalar closed forms, ``normalize_sample`` and its reflection residual,
every supported center and the canonical form of every named conic; it
gives the SHA-256 of the ``float.hex`` of every value.  A figure run
renders the figure at the configuration's ``LabConfig`` and gives the
SHA-256 of the SVG text.  Any other exception is a crash: it is printed as
its outcome, and the scan exits 1.  The runs of a line are read from its
keys, so ``--compare``, ``--pin`` and ``--check`` do not import the package.

``--compare`` reads two scans of the same configurations.  It prints every
difference in outcome, message, status, verdict, sample count, check or
tolerance, every changed skip log or SVG digest, and every mean of a
non-residual row or ``max_circumconic_condition`` that moved by more than
1e-13 relative, and exits 1 if there is any.  It also lists, as
``rounding:``, what moved within that: residual means, values within
1e-13, and the other output digests.

``--pin`` prints the verdict-level content of a scan (``pinned``), which
``tests/outcome_scan.json`` pins for the whole scan and a tier-1 test
regenerates: what ``--compare`` calls a difference, without the values
and output digests that can move by rounding.  ``--check`` prints where a
scan differs from a pinned file and exits 1 if it does.  The pinned file
is regenerated only with a change of outcome or figure bytes that is
named as such.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

RANDOM_CONFIGS = 155
EXTREME_R = (1e-100, 1e30, 1e60, 1e100)
VALUE_RTOL = 1e-13
SCALAR_T = (0.5, 2.0, 4.0)
STRICT = ("skips_sha256", "svg_sha256")  # digests that no rounding may move
CLASSES = ("pass", "FAIL", "abort")  # of a verify: every row passes, a row fails, it raised


def configs() -> list[tuple[float, float, int]]:
    """(R, rho, n) of every scanned configuration, in scan order."""
    rng = np.random.default_rng(2020)
    log_R = rng.uniform(-3.0, 3.0, RANDOM_CONFIGS)
    log_rho = rng.uniform(-4.0, math.log10(0.5), RANDOM_CONFIGS)
    n = rng.integers(3, 61, RANDOM_CONFIGS)
    scan = [(10.0 ** a, 10.0 ** b, int(k)) for a, b, k in zip(log_R, log_rho, n)]
    return scan + [(R, 0.2, 180) for R in EXTREME_R]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _skips_digest(skips: list[dict]) -> str:
    return _digest("".join(f"{s['t']!r} {s['reason']}\n" for s in skips))


def _outcome(run) -> dict:
    """The outcome of ``run()`` and what it returned, or its error."""
    from porism_lab.errors import GeometryError

    try:
        return {"outcome": "report", "error": None, "value": run()}
    except GeometryError as exc:
        return {"outcome": type(exc).__name__, "error": str(exc), "value": None}
    except Exception as exc:  # a crash is the finding
        return {"outcome": f"crash: {type(exc).__name__}", "error": str(exc), "value": None}


def _runs(line: dict) -> list[str]:
    """The names of the runs of a scan line or pinned config."""
    return [key for key in line if key not in ("R", "rho", "n")]


def scan_one(R: float, rho: float, n: int) -> dict:
    from porism_lab import report
    from porism_lab.figures import FIGURE_IDS, render_figure

    lab = report.LabConfig(R=R, r=rho * R, t_samples=n)
    verify = _outcome(lambda: report.run_verify(lab))
    result = verify.pop("value")
    if result is not None:
        verify["rows"] = [[r.quantity, r.status, r.verdict, r.samples, r.check, r.tolerance,
                           r.mean, r.spread_rel] for r in result.reports]
        verify["max_circumconic_condition"] = result.max_condition
        verify["json_sha256"] = _digest(report.verify_report_json(result))
        verify["csv_sha256"] = _digest(report.verify_report_csv(result))
        verify["skips_sha256"] = _skips_digest(result.skipped)
    sweep = _outcome(lambda: report.run_sweep(lab, list(report.SWEEP_QUANTITIES)))
    swept = sweep.pop("value")
    if swept is not None:
        header, table, held, skips = swept
        sweep["csv_sha256"] = _digest(report.format_csv(header, table, held))
        sweep["skips_sha256"] = _skips_digest(skips)
    scalar = _outcome(lambda: _scalar_values(lab.poristic()))
    values = scalar.pop("value")
    if values is not None:
        scalar["values_sha256"] = _digest(" ".join(float(v).hex() for v in values))
    line = {"R": R, "rho": rho, "n": n, "verify": verify, "sweep": sweep, "scalar": scalar}
    for figure_id in FIGURE_IDS:
        figure = line[f"figure:{figure_id}"] = _outcome(lambda: render_figure(figure_id, lab))
        svg = figure.pop("value")
        if svg is not None:
            figure["svg_sha256"] = _digest(svg)
    return line


def _scalar_values(cfg) -> list[float]:
    """The values of the scalar API at every t of ``SCALAR_T``."""
    from porism_lab import billiard, centers, geom, poristic

    def xy(points):
        return [c for p in points for c in (p.x, p.y)]

    a9, b9, _ = billiard.cb_axes_normalized(cfg.rho)
    values = []
    for t in SCALAR_T:
        s = poristic.sample(cfg, t)
        values += [s.omega, s.perimeter, *xy(s.triangle.v + s.excentral.v)]
        values += [poristic.perimeter_closed_form(cfg, t), *xy([poristic.x9_closed_form(cfg, t)]),
                   poristic.theta_closed_form(cfg, t),
                   *(c for line in poristic.excentral_side_lines(cfg, t) for c in line.as_array()),
                   *poristic.i3x_implicit_matrix(cfg, t).m.flat]
        tri = billiard.normalize_sample(cfg, s)
        values += [*xy(tri.v), billiard.reflection_law_residual(tri, a9, b9)]
        values += xy(centers.center(s.triangle, k) for k in sorted(centers.SUPPORTED_CENTERS))
        for tag in poristic.CONIC_TAGS:
            c = geom.canonicalize(poristic.named_conic(cfg, t, tag, s))
            values += [c.center.x, c.center.y, c.angle, c.semi_major, c.semi_minor,
                       list(geom.ConicKind).index(c.kind)]
    return values


def _read(path: str) -> list[dict]:
    """The lines of a scan file."""
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def _same(a, b) -> bool:
    """Equal, or NaN on both sides."""
    return a == b or (a != a and b != b)


def _close(a, b) -> bool:
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return _same(a, b)
    return abs(a - b) <= VALUE_RTOL * max(abs(a), abs(b))


def compare(before: list[dict], after: list[dict]) -> tuple[list[str], list[str]]:
    """The differences between two scans beyond the rounding of values, and
    the values and digests that moved within it (residual means, values
    within 1e-13, output bytes)."""
    found, moved = [], []
    for x, y in zip(before, after, strict=True):
        where = f"R={x['R']!r} rho={x['rho']!r} n={x['n']}"
        for run in dict.fromkeys(_runs(x) + _runs(y)):
            a, b = x.get(run, {}), y.get(run, {})
            if (a.get("outcome"), a.get("error")) != (b.get("outcome"), b.get("error")):
                found.append(f"{where} {run}: {a.get('outcome')} {a.get('error')!r} -> "
                             f"{b.get('outcome')} {b.get('error')!r}")
            for key in (k for k in a if k.endswith("sha256") and a[k] != b.get(k)):
                (found if key in STRICT else moved).append(f"{where} {run} {key} differs")
        for ra, rb in zip(x["verify"].get("rows", []), y["verify"].get("rows", [])):
            if ra[:6] != rb[:6]:
                found.append(f"{where} verify row: {ra[:6]} -> {rb[:6]}")
            elif not _same(ra[6], rb[6]):
                close = ra[4] == "residual" or _close(ra[6], rb[6])
                (moved if close else found).append(f"{where} {ra[0]} mean: {ra[6]!r} -> {rb[6]!r}"
                                                   f" (spread_rel {ra[7]:.3g})")
        a, b = (s["verify"].get("max_circumconic_condition") for s in (x, y))
        if not _same(a, b):
            (moved if _close(a, b) else found).append(
                f"{where} max_circumconic_condition: {a!r} -> {b!r}")
    return found, moved


def pinned(scan: list[dict]) -> dict:
    """The verdict-level content of a scan: the count of each of
    ``CLASSES``; the (quantity, check, tolerance) of the verify rows,
    ``rows``, which every verify report must list alike; and per config,
    its (R, rho, n) and, of each run, the outcome, its message and the
    digests of ``STRICT``, with each verify row's (status, verdict,
    samples)."""
    counts, header, configs = dict.fromkeys(CLASSES, 0), None, []
    for line in scan:
        entry = {key: line[key] for key in ("R", "rho", "n")}
        for run in _runs(line):
            entry[run] = {k: line[run][k] for k in ("outcome", "error", *STRICT)
                          if k in line[run]}
        rows = line["verify"].get("rows")
        if rows is not None:
            header = header or [[r[0], r[4], r[5]] for r in rows]
            if header != [[r[0], r[4], r[5]] for r in rows]:
                raise ValueError(f"R={line['R']!r} rho={line['rho']!r}: verify rows differ")
            entry["verify"]["rows"] = [r[1:4] for r in rows]
        counts["abort" if rows is None else
               "pass" if all(r[1] == "pass" for r in rows) else "FAIL"] += 1
        configs.append(entry)
    return {"counts": counts, "rows": header, "configs": configs}


def pinned_text(pin: dict) -> str:
    """``pin`` as JSON text, one config per line."""
    configs = ",\n".join(json.dumps(c) for c in pin["configs"])
    return (f'{{"counts": {json.dumps(pin["counts"])},\n"rows": {json.dumps(pin["rows"])},\n'
            f'"configs": [\n{configs}\n]}}\n')


def check(pin: dict, scan: list[dict]) -> list[str]:
    """Where the verdict-level content of ``scan`` differs from ``pin``."""
    fresh = pinned(scan)
    found = [f"{key}: {pin[key]} -> {fresh[key]}" for key in ("counts", "rows")
             if pin[key] != fresh[key]]
    for a, b in zip(pin["configs"], fresh["configs"], strict=True):
        where = f"R={a['R']!r} rho={a['rho']!r} n={a['n']}"
        found += [f"{where} {run}: {a.get(run)} -> {b.get(run)}"
                  for run in dict.fromkeys(_runs(a) + _runs(b)) if a.get(run) != b.get(run)]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=None, help="scan the first N configs")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two scans instead of running one")
    parser.add_argument("--pin", metavar="SCAN", help="print the pinned content of a scan")
    parser.add_argument("--check", nargs=2, metavar=("PINNED", "SCAN"),
                        help="compare a scan with a pinned file")
    args = parser.parse_args(argv)
    if args.pin:
        print(pinned_text(pinned(_read(args.pin))), end="")
        return 0
    if args.check:
        scan = _read(args.check[1])
        found = check(json.loads(Path(args.check[0]).read_text()), scan)
        for line in found:
            print(line)
        print(f"{len(scan)} configs: {len(found)} differences from the pinned scan")
        return 1 if found else 0
    if args.compare:
        before, after = map(_read, args.compare)
        found, moved = compare(before, after)
        for line in found + [f"rounding: {m}" for m in moved]:
            print(line)
        print(f"{len(before)} configs: {len(found)} differences, {len(moved)} moved by rounding")
        return 1 if found else 0
    crashed = False
    for R, rho, n in configs()[:args.count]:
        line = scan_one(R, rho, n)
        crashed |= any(line[run]["outcome"].startswith("crash") for run in _runs(line))
        print(json.dumps(line), flush=True)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
