"""Outside-in tracer for the porism_lab layers.

The tracer never edits the package: it wraps the public functions (and the
public methods of the classes) of each layer module and rebinds every name
in every ``porism_lab`` module that refers to the original object, so a call
made through ``from .geom import canonicalize`` is seen as well as one made
through ``geom.canonicalize``.  Each wrapped call inside an open op records
a span (name, start, end, parent span, op id) in flat arrays; spans stay in
memory until ``save`` and self times are computed from them.  Calls of
``numpy.linalg`` routines and ``InconicCoefficientWarning`` are counted
against the innermost open layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import warnings
from array import array

import numpy as np

LAYERS = ("geom", "centers", "conics", "poristic", "billiard", "report",
          "figures", "svg", "cli")

#: Classes whose construction is itself a span (validation and normalization
#: happen in ``__post_init__``).
CONSTRUCTORS = {"geom": ("ConicMatrix",)}

LINALG = ("svd", "eig", "eigh", "eigvals", "eigvalsh", "solve", "lstsq",
          "inv", "pinv", "det", "matrix_rank")

OP = "bench.op"


class Tracer:
    """Records spans for calls into the porism_lab layers between
    ``install`` and ``uninstall``; only calls made inside ``op`` are
    recorded, so the benchmark's own checks stay out of the trace."""

    def __init__(self):
        self.names: list[str] = [OP]
        self.layer_of: list[str] = ["bench"]
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.op_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1
        self._last_raised: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._warnings = None
        self._warnings_show = None

    # --- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str) -> None:
        layer = self.layer_of[self.name_id[self._stack[-1]]]
        name = f"{layer}.{key}"
        self.counts[name] = self.counts.get(name, 0) + 1

    def op(self, fn, *args, **kwargs):
        """Run one benchmark op under a root span with a fresh op id."""
        self._op += 1
        idx = self._open(0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once, in the layer it left first.
                if exc is not tracer._last_raised:
                    tracer._last_raised = exc
                    tracer._count("raised")
                raise
            finally:
                tracer._close(idx)

        return traced

    def _wrap_count(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._stack:
                tracer._count(key)
            return fn(*args, **kwargs)

        return counted

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        if self._stack and category.__name__ == "InconicCoefficientWarning":
            self._count("d_fallbacks")
        else:
            self._warnings_show(message, category, filename, lineno, file, line)

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        package = sys.modules["porism_lab"]
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"porism_lab.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._patch(cls, "__init__",
                            self._wrap(cls.__init__, f"{layer}.{cls_name}", layer))
        modules = [m for n, m in sys.modules.items()
                   if m is package or n.startswith("porism_lab.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replace and getattr(replace[id(obj)], "__wrapped__", None) is obj:
                    self._patch(module, attr, replace[id(obj)])
        for attr in LINALG:
            self._patch(np.linalg, attr, self._wrap_count(getattr(np.linalg, attr), "linalg_calls"))
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        self._warnings_show = warnings.showwarning
        warnings.simplefilter("always", sys.modules["porism_lab.conics"].InconicCoefficientWarning)
        warnings.showwarning = self._on_warning

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(obj, name, layer))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(obj.__func__, name, layer)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._warnings is not None:
            self._warnings.__exit__(None, None, None)
            self._warnings = None

    # --- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time, calls, raised and counted events per layer, and calls
        per wrapped name."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        out: dict[str, float] = {}
        for layer in ("bench",) + LAYERS:
            for key in ("self_s", "calls", "raised", "linalg_calls", "d_fallbacks"):
                out[f"{layer}.{key}"] = 0
        calls = np.bincount(name_id, minlength=len(self.names))
        self_by_name = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        for i, name in enumerate(self.names):
            layer = self.layer_of[i]
            out[f"{layer}.self_s"] += float(self_by_name[i])
            out[f"{layer}.calls"] += int(calls[i])
            if i:
                out[f"{name}.calls"] = int(calls[i])
        out.update(self.counts)
        out["trace.spans"] = len(dur)
        return out

    def save(self, path) -> None:
        """Write the spans and the name table as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), layers=np.array(self.layer_of),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op_id=np.frombuffer(self.op_id, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
