"""Self-time attribution by wrapping the public functions of ``repro`` layers.

The traced run measures every layer from outside: :class:`LayerClock`
replaces each function listed in :data:`TARGETS` by a timing wrapper
while it is installed, and restores the originals on removal, so
untraced code runs unmodified.  A layer's *self* time is its calls'
wall time minus the part covered by calls into other wrapped
functions; work in unwrapped helpers is charged to the nearest wrapped
caller.  Counting hooks tally work at the same boundaries (copies
selected, processor requests, distinct cells).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

from repro import obs
from repro.pram.machine import IDLE


def _culled(clock, name, args, result):
    clock.counts["culling.requests"] += int(result.variables.size)
    clock.counts["culling.selected"] += result.total_selected


def _active(addrs) -> int:
    return int(np.count_nonzero(np.asarray(addrs) != IDLE))


def _machine_requests(clock, name, args, result):
    if name in ("read", "write"):
        n = _active(args[1])
    elif name == "step":
        n = _active(args[1]) + _active(args[2])
    elif name == "scatter":
        n = int(np.asarray(args[2]).size)
    else:  # gather(base, count)
        n = int(args[2])
    clock.counts["pram.requests"] += n


def _backend_cells(clock, name, args, result):
    if name == "run_steps":
        clock.counts["pram.cells"] += sum(len(r.variables) for r in args[1])
        clock.counts["pram.steps"] += len(args[1])
        return
    if name == "mixed_step":
        cells = np.unique(np.concatenate([args[1], args[2]])).size
    else:
        cells = int(np.asarray(args[1]).size)
    clock.counts["pram.cells"] += cells
    clock.counts["pram.steps"] += 1


# (module, owner class or None for a module function, names, self-time
# metric, counting hook).  Listed outermost layer first.
TARGETS = [
    ("repro.cache", "ArtifactCache", ("scheme", "subgraph"), "cache.build_s", None),
    ("repro.serve.protocol", None, ("decode_message",), "serve.decode_s", None),
    ("repro.serve.protocol", None, ("encode_message",), "serve.encode_s", None),
    ("repro.serve.server", "ServerCore", ("submit",), "serve.admit_s", None),
    ("repro.serve.server", "ServerCore", ("flush",), "serve.batch_self_s", None),
    ("repro.serve.session", "Session", ("admit", "push", "pop", "drain"),
     "serve.session_s", None),
    ("repro.serve.client", "ClientScript", ("next_request", "on_reply"),
     "serve.client_s", None),
    ("repro.pram.algorithms.graphs", None, ("bfs",), "pram.program_self_s", None),
    ("repro.pram.machine", "PRAMMachine",
     ("read", "write", "step", "scatter", "gather"), "pram.machine_self_s",
     _machine_requests),
    ("repro.pram.backends", "MeshBackend",
     ("read_step", "write_step", "mixed_step", "run_steps"),
     "pram.backend_self_s", _backend_cells),
    ("repro.protocol.access", "AccessProtocol",
     ("run_steps", "read", "write", "mixed"), "protocol.self_s", None),
    ("repro.culling.procedure", None, ("cull",), "culling.s", _culled),
    ("repro.hmos.placement", "Placement",
     ("chains", "page_intervals", "page_keys", "page_node_spans", "copy_nodes"),
     "placement.s", None),
    ("repro.hmos.memory", "CopyMemory",
     ("read", "read_latest", "read_latest_masked"), "memory.read_s", None),
    ("repro.hmos.memory", "CopyMemory", ("write",), "memory.write_s", None),
    ("repro.mesh.engine", "SynchronousEngine", ("route", "route_many"),
     "engine.route_s", None),
]

#: Self-time metric names, outermost layer first.
SELF_METRICS = tuple(dict.fromkeys(t[3] for t in TARGETS))


class LayerClock:
    """Accumulates per-layer self time while its wrappers are installed."""

    def __init__(self):
        self.self_s = {metric: 0.0 for metric in SELF_METRICS}
        self.counts = {
            k: 0 for k in ("culling.requests", "culling.selected",
                           "pram.requests", "pram.cells", "pram.steps")
        }
        self._stack: list[list[float]] = []
        self._patches: list[tuple[dict | type, str, object]] = []

    def _wrap(self, fn, name, layer, hook):
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(self, name, args, result)
            return result

        timed.layer_clock = True
        return timed

    def install(self) -> None:
        """Wrap every target, including names other ``repro`` modules
        imported with ``from ... import``."""
        if self._patches:
            raise RuntimeError("layer clock already installed")
        for modname, owner, names, layer, hook in TARGETS:
            module = importlib.import_module(modname)
            for name in names:
                if owner is None:
                    original = getattr(module, name)
                    wrapped = self._wrap(original, name, layer, hook)
                    for mod in list(sys.modules.values()):
                        space = getattr(mod, "__dict__", None)
                        if (
                            getattr(mod, "__name__", "").startswith("repro")
                            and space is not None
                            and space.get(name) is original
                        ):
                            self._patches.append((space, name, original))
                            space[name] = wrapped
                else:
                    cls = getattr(module, owner)
                    original = cls.__dict__[name]
                    self._patches.append((cls, name, original))
                    setattr(cls, name, self._wrap(original, name, layer, hook))

    def remove(self) -> None:
        """Restore every original function."""
        for target, name, original in reversed(self._patches):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._patches.clear()
        if self._stack:
            raise RuntimeError("layer clock removed inside a timed call")


def verify_unpatched() -> None:
    """Raise unless no ``repro`` module or target class holds a wrapper."""
    spaces = [
        (mod.__name__, vars(mod))
        for mod in list(sys.modules.values())
        if getattr(mod, "__name__", "").startswith("repro")
    ]
    spaces += [
        (owner, vars(getattr(importlib.import_module(modname), owner)))
        for modname, owner, *_ in TARGETS
        if owner is not None
    ]
    for where, space in spaces:
        for name, value in list(space.items()):
            if getattr(value, "layer_clock", False):
                raise RuntimeError(f"{where}.{name} is still wrapped")


class TraceBlocks:
    """Alternates untraced and traced blocks of about ``period`` seconds.

    A traced block has the :class:`LayerClock` wrappers and a fresh
    ``repro.obs`` tracer installed, which turns on the ``engine.*`` and
    ``serve.*`` counters already in the code.  Alternating inside one
    run compares traced and untraced blocks under the same memory state
    and host load; that difference is the tracing overhead.  The
    workload reports the wall time of each op with :meth:`add`.
    """

    def __init__(self, period: float = 1.0):
        self.period = period
        self.clock = LayerClock()
        self.counters: dict[str, float] = {}
        self.traced = False
        self.wall = {False: 0.0, True: 0.0}
        self.ops = {False: 0, True: 0}
        self._tracer = None
        self._previous = None
        self._since = time.perf_counter()

    def tick(self) -> None:
        """Switch blocks once the current one has run ``period`` seconds."""
        if time.perf_counter() - self._since >= self.period:
            self._toggle()

    def _toggle(self) -> None:
        if self.traced:
            self.clock.remove()
            obs.install(self._previous)
            for name, value in self._tracer.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            self._tracer = None
        else:
            self._tracer = obs.Tracer()
            self._previous = obs.install(self._tracer)
            self.clock.install()
        self.traced = not self.traced
        self._since = time.perf_counter()

    def add(self, seconds: float, ops: int = 1) -> None:
        self.wall[self.traced] += seconds
        self.ops[self.traced] += ops

    def close(self) -> None:
        """End in the untraced state, with every original restored."""
        if self.traced:
            self._toggle()
        verify_unpatched()

    def overhead(self) -> float:
        """Traced over untraced host time per op, minus one, in percent."""
        if not (self.ops[True] and self.ops[False]):
            return 0.0
        traced = self.wall[True] / self.ops[True]
        plain = self.wall[False] / self.ops[False]
        return 100.0 * (traced / plain - 1.0)
