"""In-process paired timer: the same seeded benchmark ops on two source
trees, in one process, side by side.

    python3 tools/ab.py PARENT [--workload W] [--rounds N] [--seed S]

``PARENT`` is a git revision of this repository, extracted with
``git archive`` into a temporary directory, or the path of a source tree
(a directory holding ``src/porism_lab``).  The package of ``PARENT`` and
the package of this tree are imported under distinct names, and this
tree's ``perfbench/workloads.py`` is loaded once against each (with
``porism_lab`` bound to that side's package while the file runs), so both
sides run the same op definitions and checks.

Each round is one seeded round of the workload's ops, drawn on both sides
from the same seed.  The two sides run a round one after the other, and the
side that runs first alternates by round (ABBA), so a drift in machine
speed weighs on both alike.  A round's time is the sum of its ops' call
times; the judge and the output check are not timed.  Every op's output
must be the same on both sides, down to the bits of every float and the
bytes of every file a sweep wrote; the first difference is printed and the
tool exits 1.

It prints each side's median round time with its quartiles, the median of
the paired ratios (this tree / ``PARENT``, below 1 when this tree is
faster) with a bootstrap 95% interval, and the pairs this tree won.  Both
sides share one process, so a difference that comes from the process
itself (memory layout, allocator state) weighs on both; it does not replace
the benchmark (``perfbench/run.py``), which runs each tree in its own
processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import importlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
BOOTSTRAP = 2000


def extract(revision: str, into: Path) -> Path:
    """``git archive`` of ``revision`` unpacked into ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter where this Python has it (3.10.12 and later).
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def load_package(tree: Path, name: str):
    """The ``porism_lab`` package of ``tree`` and all of its modules,
    imported as ``name`` and ``name.<module>``."""
    where = tree / "src" / "porism_lab"
    spec = importlib.util.spec_from_file_location(name, where / "__init__.py",
                                                  submodule_search_locations=[str(where)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(where.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    return package


def load_workloads(package, name: str):
    """``perfbench/workloads.py`` loaded as ``name``, with ``porism_lab``
    bound to ``package`` while it runs."""
    prefix = package.__name__ + "."
    alias = {"porism_lab": package}
    alias.update({"porism_lab." + key[len(prefix):]: module
                  for key, module in sys.modules.items() if key.startswith(prefix)})
    saved = {key: sys.modules.get(key) for key in alias}
    sys.modules.update(alias)
    try:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key, module_before in saved.items():
            if module_before is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module_before
    return module


def fingerprint(x):
    """A plain value that is equal for two outputs exactly when they hold
    the same values: floats by ``float.hex``, arrays by their bytes,
    dataclasses by their fields, a directory by its files' bytes, an
    exception by its type name and message."""
    if isinstance(x, BaseException):
        return ("raised", type(x).__name__, str(x))
    if isinstance(x, float):
        return float.hex(float(x))
    if x is None or isinstance(x, (str, bytes, int)):
        return x
    if isinstance(x, np.generic):
        return fingerprint(x.item())
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return ("array", x.shape, tuple(fingerprint(v) for v in x.flat))
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, enum.Enum):
        return (type(x).__name__, x.name)
    if isinstance(x, Path):
        return tuple((p.name, p.read_bytes()) for p in sorted(x.iterdir()))
    if isinstance(x, dict):
        return tuple((fingerprint(k), fingerprint(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(fingerprint(v) for v in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,
                tuple(fingerprint(getattr(x, f.name)) for f in dataclasses.fields(x)))
    raise TypeError(f"no fingerprint for {type(x).__name__}")


class Side:
    """One tree's workload: its seeded rounds, its timed calls and the
    fingerprints of its outputs."""

    def __init__(self, label: str, workloads, workload: str, scratch: Path, seed: int):
        self.label = label
        self.wl = workloads.make(workload, scratch)
        self.rng = np.random.default_rng(seed)
        self.times: list[float] = []
        self.failed = 0

    def run(self, specs) -> list:
        """Time the calls of ``specs``; returns the fingerprints of their
        outputs and adds the summed call time to ``times``."""
        total, prints = 0.0, []
        for spec in specs:
            t0 = time.perf_counter()
            raw = self.wl.call(spec)
            total += time.perf_counter() - t0
            prints.append(fingerprint(raw))
            self.failed += self.wl.judge(spec, raw).failed
        self.times.append(total)
        return prints


def first_difference(a, b, where: str = "") -> str:
    """Where two fingerprints first differ, and their values there."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return first_difference(x, y, f"{where}[{i}]")
    return f"{where or 'output'}: {str(a)[:200]} != {str(b)[:200]}"


def summary(times: list[float]) -> str:
    q1, q2, q3 = np.percentile(times, [25, 50, 75]) * 1e3
    return f"median {q2:.3f} ms per round, quartiles {q1:.3f} - {q3:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT",
                        help="git revision, or path of a source tree")
    parser.add_argument("--workload", default="member-scalar",
                        choices=("verify-grid", "sweep-columns", "member-scalar"))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent = Path(args.parent)
        if not (parent / "src" / "porism_lab").is_dir():
            parent = extract(args.parent, tmp / "parent-tree")
        sides = []
        for label, tree in (("parent", parent), ("tree", ROOT)):
            name = f"_ab_{label}"
            workloads = load_workloads(load_package(tree, name + "_porism_lab"), name + "_workloads")
            scratch = tmp / f"scratch-{label}"
            scratch.mkdir()
            sides.append(Side(label, workloads, args.workload, scratch, args.seed))
        parent_side, tree_side = sides
        ops = 0
        for k in range(-1, args.rounds):
            # Round -1 is the warm-up op; then the order A B, B A, A B, ...
            prints = {side.label: side.run(side.wl.round(side.rng) if k >= 0 else [side.wl.warmup])
                      for side in (sides if k % 2 else sides[::-1])}
            if prints["parent"] != prints["tree"]:
                print(f"round {k}: outputs differ at "
                      + first_difference(prints["parent"], prints["tree"]))
                return 1
            ops += len(prints["tree"]) if k >= 0 else 0
    for side in sides:
        del side.times[0]  # the warm-up op
    ratios = np.array(tree_side.times) / np.array(parent_side.times)
    boot = np.median(ratios[np.random.default_rng(0).integers(len(ratios), size=(BOOTSTRAP, len(ratios)))],
                     axis=1)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    print(f"{args.workload}: {args.rounds} rounds, seed {args.seed}, "
          f"sides alternating ABBA by round; outputs agree on all {ops} ops and the warm-up op")
    print(f"parent ({args.parent}): {summary(parent_side.times)}, {parent_side.failed} failed ops")
    print(f"tree ({ROOT}): {summary(tree_side.times)}, {tree_side.failed} failed ops")
    print(f"ratio tree/parent: median {np.median(ratios):.4f}, bootstrap 95% interval "
          f"{lo:.4f} - {hi:.4f}; tree faster in {int((ratios < 1.0).sum())} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
