"""Command-line front end.

    porism-lab verify [--rho F | --R F --r F] [--t-samples N] [--seed N]
                      [--out DIR] [--config FILE]
    porism-lab sweep  --quantities LIST [...]
    porism-lab figure --figure ID [...]

Exit codes: 0 pass, 1 verdict failure, 2 usage or configuration error.
Options may also come from a plain-text key=value file via --config;
explicit flags win over file values, and a circle pair given by flag
(--rho, or --R and --r) replaces the file's.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import figures as _figures
from . import report as _report
from .errors import GeometryError


_lab = _report.LabConfig  # its class attributes are the field defaults

#: The options every command takes: config-file key -> (the LabConfig field
#: it sets, its type, its help).  Its flag is "--" + key with "_" as "-";
#: ``rho`` sets R and r, and ``out`` is the command's output directory.
_OPTIONS = {
    "rho": ("rho", float, "inradius/circumradius ratio in (0, 1/2]"),
    "R": ("R", float, "circumradius in [{:g}, {:g}] (with --r)".format(*_report._R_RANGE)),
    "r": ("r", float, "inradius (with --R)"),
    "t_samples": ("t_samples", int, f"sweep grid size (default {_lab.t_samples}, at most "
                                    f"{_report.MAX_T_SAMPLES})"),
    "seed": ("seed", int, "seed of verify's center_equivariance_gap row, its only random "
                          "draw (sweep and figure accept it and draw nothing at random)"),
    "out": ("out", str, "output directory (default .)"),
}
#: The parsed arguments a run is configured from (the hidden
#: --inject-perturbation sets ``perturb``).
_DESTS = {f.name for f in dataclasses.fields(_report.LabConfig)} | {"rho", "out"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porism-lab",
        description="Sweep, verify and draw the poristic triangle family "
                    "and its billiard bridge.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file with defaults for the flags below")
        for key, (dest, kind, text) in _OPTIONS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=dest, metavar=key.upper(),
                           type=kind, help=text)

    p_verify = sub.add_parser("verify", help="run the full invariance suite")
    add_common(p_verify)
    p_verify.add_argument("--inject-perturbation", dest="perturb", type=float,
                          help=argparse.SUPPRESS)  # mutation sanity hook

    p_sweep = sub.add_parser("sweep", help="write per-sample quantities as CSV")
    add_common(p_sweep)
    p_sweep.add_argument("--quantities", default="",
                         help="comma-separated quantity names, from: "
                              f"{', '.join(_report.SWEEP_QUANTITIES)}; empty for header only")

    p_figure = sub.add_parser("figure", help="render one SVG figure")
    add_common(p_figure)
    p_figure.add_argument("--figure", required=True,
                          help=f"figure id, one of: {', '.join(_figures.FIGURE_IDS)}")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _report.ConfigError(f"config file {path!r} is not UTF-8: {exc.reason} "
                                  f"at byte {exc.start}") from None
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _report.ConfigError(f"bad config line (expected key=value): {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise _report.ConfigError(f"config key {key!r} given twice in {path!r}")
        values[key] = val.strip()
    return values


def _resolve_config(args) -> tuple[_report.LabConfig, Path]:
    """The LabConfig and the output directory of the values given by flag
    or config file; a flag wins over the file, and what neither gives keeps
    its default (LabConfig's, and the working directory)."""
    given: dict = {}
    if args.config:
        for key, val in _read_config_file(args.config).items():
            if key not in _OPTIONS:
                raise _report.ConfigError(f"unknown config key {key!r}")
            dest, kind, _ = _OPTIONS[key]
            try:
                given[dest] = kind(val)
            except ValueError:
                raise _report.ConfigError(f"bad value for config key {key!r}: {val!r}") from None
    flags = {k: v for k, v in vars(args).items() if k in _DESTS and v is not None}
    if "rho" in flags:  # a circle pair given by flag replaces the file's
        given = {k: v for k, v in given.items() if k not in ("R", "r")}
    if "R" in flags or "r" in flags:
        given.pop("rho", None)
    given.update(flags)
    out = Path(given.pop("out", "."))

    rho = given.pop("rho", None)
    if rho is not None:
        if "R" in given or "r" in given:
            raise _report.ConfigError("give either --rho or the --R/--r pair, not both")
        if not 0 < rho <= 0.5:
            raise _report.ConfigError(f"rho = {rho} outside (0, 1/2]")
        given.update(R=1.0, r=rho)
    elif ("R" in given) != ("r" in given):
        raise _report.ConfigError("--R and --r must be given together")
    return _report.LabConfig(**given), out


def _cmd_verify(lab: _report.LabConfig, out: Path) -> int:
    result = _report.run_verify(lab)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(_report.verify_report_json(result))
    (out / "report.csv").write_text(_report.verify_report_csv(result))
    for row in result.reports:
        marker = "PASS" if row.status == "pass" else "FAIL"
        detail = f"verdict={row.verdict} spread_rel={row.spread_rel:.3e} max={row.max:.3e}"
        if row.expected is not None and not math.isnan(row.mean):
            detail += f" mean={row.mean:.12g} expected={row.expected:.12g}"
        print(f"[{marker}] {row.quantity}: {detail}")
    n_pass = sum(1 for r in result.reports if r.status == "pass")
    n_samples = len({entry["t"] for entry in result.skipped})
    print(f"{n_pass}/{len(result.reports)} checks passed "
          f"({len(result.skipped)} skipped cells at {n_samples} samples, "
          f"max circumconic condition {result.max_condition:.3e})")
    print(f"reports written to {out / 'report.json'} and {out / 'report.csv'}")
    return 0 if result.passed else 1


def _cmd_sweep(lab: _report.LabConfig, out: Path, quantities_arg: str) -> int:
    names = [q for q in (s.strip() for s in quantities_arg.split(",")) if q]
    if names:
        header, table, held, skips = _report.run_sweep(lab, names)
        text = _report.format_csv(header, table, held)
    else:
        text, skips = _report.format_csv(["t"], np.empty((0, 1))), []
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(text)
    log = out / "sweep_skips.txt"
    if skips:
        log.write_text("".join(f"t={entry['t']:.17g}: {entry['reason']}\n" for entry in skips))
    else:
        log.unlink(missing_ok=True)  # an earlier sweep's log names cells this CSV lacks
    if not names:
        print(f"empty quantity list: header-only CSV at {out / 'sweep.csv'}")
    else:
        print(f"{len(table)} rows x {len(names)} quantities -> {out / 'sweep.csv'}"
              + (f" ({len(skips)} skipped cells)" if skips else ""))
    return 0


def _cmd_figure(lab: _report.LabConfig, out: Path, figure_id: str) -> int:
    svg = _figures.render_figure(figure_id, lab)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{figure_id}.svg"
    path.write_text(svg)
    print(f"figure written to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        lab, out = _resolve_config(args)
        if args.command == "verify":
            return _cmd_verify(lab, out)
        if args.command == "sweep":
            return _cmd_sweep(lab, out, args.quantities)
        return _cmd_figure(lab, out, args.figure)
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
