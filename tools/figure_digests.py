"""SHA-256 digests of every figure at seeded (R, rho) configurations.

    PYTHONPATH=src python3 tools/figure_digests.py [--seed N] [--configs N] > digests.json
    python3 tools/figure_digests.py --compare before.json after.json

Prints one JSON document: the seed, the sampling rule and, per config, R, r
and for each figure id the SHA-256 of its SVG bytes, or the name of the
GeometryError it raised.  Configs are drawn from numpy's
``default_rng(seed)``: log10 R uniform in [-3, 3], then rho uniform in
[0.005, 0.5], and r = rho * R.  Two trees render the same figures exactly
when their outputs for one seed are identical.

``--compare`` reads two such documents.  It prints every (config, figure)
pair whose digest or error differs, and every config that is not the same
(R, r) on both sides, then a final ``N configs: K differences`` line, and
exits 1 if there is any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

RULE = "log10 R ~ U[-3, 3], rho ~ U[0.005, 0.5], r = rho * R; numpy default_rng(seed)"


def configs(seed: int, n: int) -> list[tuple[float, float]]:
    """The n seeded (R, r) pairs."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        R = float(10.0 ** rng.uniform(-3.0, 3.0))
        pairs.append((R, float(rng.uniform(0.005, 0.5)) * R))
    return pairs


def digests(R: float, r: float) -> dict[str, str]:
    """Each figure id's SVG digest at (R, r), or its GeometryError's name."""
    from porism_lab.errors import GeometryError
    from porism_lab.figures import FIGURE_IDS, render_figure
    from porism_lab.report import LabConfig

    lab = LabConfig(R=R, r=r)
    out = {}
    for fid in FIGURE_IDS:
        try:
            out[fid] = hashlib.sha256(render_figure(fid, lab).encode()).hexdigest()
        except GeometryError as exc:
            out[fid] = type(exc).__name__
    return out


def compare(before: dict, after: dict) -> list[str]:
    """Every (config, figure) pair whose digest or error differs between two
    documents, and every config whose (R, r) differs."""
    found = []
    a, b = before["configs"], after["configs"]
    if len(a) != len(b):
        found.append(f"config count: {len(a)} -> {len(b)}")
    for x, y in zip(a, b):
        where = f"R={x['R']!r} r={x['r']!r}"
        if (x["R"], x["r"]) != (y["R"], y["r"]):
            found.append(f"{where}: config differs: R={y['R']!r} r={y['r']!r}")
            continue
        for fid in dict.fromkeys([*x["digests"], *y["digests"]]):
            da, db = x["digests"].get(fid), y["digests"].get(fid)
            if da != db:
                found.append(f"{where} {fid}: {da} -> {db}")
    return found


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--configs", type=int, default=12)
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two digest documents instead of computing one")
    args = ap.parse_args(argv)
    if args.compare:
        before, after = (json.load(open(path)) for path in args.compare)
        found = compare(before, after)
        for line in found:
            print(line)
        print(f"{len(before['configs'])} configs: {len(found)} differences")
        return 1 if found else 0
    doc = {"seed": args.seed, "rule": RULE,
           "configs": [{"R": R, "r": r, "digests": digests(R, r)}
                       for R, r in configs(args.seed, args.configs)]}
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
