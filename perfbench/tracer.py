"""Spans and counts recorded around cosub's functions, from outside `src/`.

cosub modules bind each other's functions with `from`-imports, so a wrapper
set on the defining module alone would miss most calls.  `Tracer.install`
wraps every public module-level function of each layer (plus a few named
helpers) once, then replaces every reference to the original in every cosub
module and in the package namespace.  `uninstall` puts the originals back.

A span is (name, start, end, parent, call): `parent` indexes the enclosing
span (-1 at the top) and `call` identifies the benchmark operation that
caused it.  Spans are kept in typed arrays, column by column, so that
holding a few hundred thousand of them adds no work to the garbage
collector.  A layer is the module a span's function lives in; its self time
is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("graphs", "partition", "spectral", "filterbank", "applications", "fileio", "cli")

# Private helpers and classmethods that get a span of their own: local moves
# are the bulk of detection, and these constructors are where file parsing
# and partition relabelling hand work to the graphs layer.
EXTRA_TARGETS = (
    ("partition", "_local_moves"),
    ("graphs", "WeightedGraph.from_edges"),
    ("graphs", "SubgraphPartition.compact"),
)

FILE_READS = ("fileio.read_edge_list", "fileio.read_signal", "fileio.read_partition",
              "fileio.read_manifest", "fileio.sha256_file")
FILE_WRITES = ("fileio.write_edge_list", "fileio.write_signal", "fileio.write_partition",
               "fileio.write_manifest")


def _path_argument(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get("path")
    except TypeError:
        return None


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _observers() -> dict:
    """Counts taken from a call's arguments, keyed by span name."""

    def multiplet(tracer, fn, args, kwargs, result):
        tracer.maximum("multiplet", result.shape[1])

    def eigen_flops(tracer, fn, args, kwargs, result):
        # N^3 per dense eigensolve, computed from the block size.
        tracer.add("eigen_flops", len(result.eigenvalues) ** 3)

    def read(tracer, fn, args, kwargs, result):
        tracer.add("bytes_read", _file_size(_path_argument(fn, args, kwargs)))

    def write(tracer, fn, args, kwargs, result):
        tracer.add("bytes_written", _file_size(_path_argument(fn, args, kwargs)))

    observers = {"spectral.canonicalize_degenerate": multiplet,
                 "spectral.local_eigenbasis": eigen_flops}
    observers.update({name: read for name in FILE_READS})
    observers.update({name: write for name in FILE_WRITES})
    return observers


class Tracer:
    """In-memory span and counter store; inactive wrappers call straight through."""

    def __init__(self):
        self.span_names: list[str] = []          # name of each name id
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_call = array("q")
        self.counts: dict = defaultdict(float)   # (call, key) -> sum
        self.maxima: dict = {}                   # (call, key) -> max
        self.names: set[str] = set()             # span names that were installed
        self.active = False
        self.call = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------

    def add(self, key: str, amount) -> None:
        self.counts[(self.call, key)] += amount

    def maximum(self, key: str, value) -> None:
        slot = (self.call, key)
        self.maxima[slot] = max(self.maxima.get(slot, value), value)

    def _wrap(self, fn, name, observe):
        tracer = self
        name_id = len(self.span_names)
        self.span_names.append(name)
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.span_call.append(tracer.call)
            tracer.end.append(0.0)
            stack.append(index)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, fn, args, kwargs, result)
            return result

        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        import cosub

        modules = {layer: importlib.import_module(f"cosub.{layer}") for layer in LAYERS}
        observers = _observers()
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(obj, name, observers.get(name))
        for layer, dotted in EXTRA_TARGETS:
            mod = modules[layer]
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            name = f"{layer}.{dotted}"
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(raw.__func__, name, None)))
            elif inspect.isfunction(raw):
                wrappers[raw] = self._wrap(raw, name, observers.get(name))
        for mod in (cosub, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries ------------------------------------------------------

    def by_call(self) -> dict:
        """call -> {"spans": {name: [calls, total_s, self_s]}, "layers": {layer: self_s}}."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(duration)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += duration[i]
        out: dict = {}
        for i, call in enumerate(self.span_call):
            name = self.span_names[self.name_id[i]]
            entry = out.setdefault(call, {"spans": {}, "layers": defaultdict(float)})
            own = duration[i] - child[i]
            stats = entry["spans"].setdefault(name, [0, 0.0, 0.0])
            stats[0] += 1
            stats[1] += duration[i]
            stats[2] += own
            entry["layers"][name.split(".", 1)[0]] += own
        return out

    def call_counts(self, call) -> dict:
        counts = {key: value for (c, key), value in self.counts.items() if c == call}
        counts.update({key: value for (c, key), value in self.maxima.items() if c == call})
        return counts
