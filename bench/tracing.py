"""In-memory span recorder that wraps the package's layers from outside.

The package itself carries no tracing.  ``Tracer.install`` replaces every
public function of each layer module (and the few methods and closures
listed below) with a wrapper that records one span per call: its name,
start, end, the span that was open when it started, and the op id the
benchmark set before the op.  Because the modules import each other's
functions by name (``from .noise import circuit_channel``), the wrapper is
written into every package namespace that holds the original object, not
only into the defining module.  ``Tracer.uninstall`` puts the originals
back.

The benchmark drives one thread, so a single stack gives each span its
parent.  No traced function calls itself, so a name's busy time is the sum
of its span durations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "qutrit_toffoli"

# Module -> metric prefix.  Metric names must start with a letter.
LAYERS = {
    "cli": "cli",
    "noise": "noise",
    "register": "register",
    "gates": "gates",
    "tomography": "tomography",
    "certify": "certify",
    "_parallel": "parallel",
}

# Layers traced only at these entry points.  Tracing ``cli.main`` alone
# makes its self time everything the cli layer does itself: argument
# parsing, the pipeline runners' glue, and artifact serialization.
ONLY = {"cli": ("main",)}

# Methods and private functions traced in addition to the public functions.
# ``_project_psd`` is one Dykstra iteration of ``ml_projection``.
EXTRA = {
    "certify": {"EigenstateProtocol.correlation": "certify.correlation"},
    "tomography": {"_project_psd": "tomography._project_psd"},
}

# The channel returned by this function is traced as ``noise.channel``.
CHANNEL_FACTORY = "noise.circuit_channel"

# The callback passed to this function is traced as ``parallel.task``, so
# that the map's self time is its own overhead, not the work it maps.
CALLBACK_TAKER = "parallel.deterministic_map"


@dataclass
class Tracer:
    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    op_ids: list = field(default_factory=list)
    op_id: int = -1
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def wrap(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, op_ids, stack = self.parents, self.op_ids, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _channel_factory(self, name, fn):
        traced_factory = self.wrap(name, fn)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self.wrap("noise.channel", traced_factory(*args, **kwargs))

        return factory

    def _callback_taker(self, name, fn):
        traced_taker = self.wrap(name, fn)

        @functools.wraps(fn)
        def taker(callback, *args, **kwargs):
            return traced_taker(self.wrap("parallel.task", callback), *args, **kwargs)

        return taker

    def install(self) -> None:
        """Wrap every layer of the imported package."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        replacements = {}
        for module_name, prefix in LAYERS.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:  # a layer that no longer exists reads 0
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if module_name in ONLY and attr not in ONLY[module_name]:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{prefix}.{attr}"
                if name == CHANNEL_FACTORY:
                    replacements[id(obj)] = (obj, self._channel_factory(name, obj))
                elif name == CALLBACK_TAKER:
                    replacements[id(obj)] = (obj, self._callback_taker(name, obj))
                else:
                    replacements[id(obj)] = (obj, self.wrap(name, obj))
            for path, name in EXTRA.get(module_name, {}).items():
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, replacements[id(obj)][1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, busy seconds, and self seconds."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, dict[str, float]] = {}
        for i in range(n):
            duration = self.ends[i] - self.starts[i]
            entry = totals.setdefault(self.names[i], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child[i]
        return totals

    def write(self, path) -> None:
        """Spans as tab-separated lines: op, name, start, end, parent index."""
        with open(path, "w") as out:
            out.write("op\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{self.op_ids[i]}\t{self.names[i]}\t{self.starts[i]:.9f}"
                    f"\t{self.ends[i]:.9f}\t{self.parents[i]}\n"
                )
