"""Per-layer timing by wrapping camsim's public functions from outside.

No camsim source changes: each target is replaced, for the duration of a
`Tracer` context, by a wrapper that records one span per call. Spans are
kept in memory, folded as they close into one accumulator per span name
(calls, inclusive time, self time), so memory stays flat however many
million calls a run makes. A span's self time is its duration minus the
time covered by the spans it directly encloses; summing self time over a
layer's span names gives the layer's self time, with every traced instant
charged to exactly one span.

Each name is patched where its caller looks it up: `harness` imports
`build_topology` and `gen_microbenchmark` by name, so those are replaced in
the `harness` namespace; methods are replaced on their class. The model
checker clones states through `copy.deepcopy`, which recurses through its
own module global. Replacing `modelcheck.copy` with a copy of the `copy`
module whose `deepcopy` is wrapped times only the outermost call and leaves
the recursion unwrapped.
"""

from __future__ import annotations

import copy
import sys
import time
import types


class Acc:
    """Folded spans of one name."""

    __slots__ = ("calls", "total", "self_time", "non_none")

    def __init__(self):
        self.clear()

    def clear(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.non_none = 0        # calls that returned something other than None


def targets(camsim):
    """(owner, attribute, span name) for every traced function.

    The span name's first component is the layer: the camsim module that
    defines the function.
    """
    cc = camsim.coherence.CacheController
    arr = camsim.memhier.CacheArray
    harness = camsim.harness
    return [
        (camsim.network.Network, "step", "network.step"),
        (camsim.network.Network, "inject", "network.inject"),
        (cc, "handle", "coherence.cache_handle"),
        (cc, "load", "coherence.load"),
        (cc, "store", "coherence.store"),
        (cc, "rmw", "coherence.rmw"),
        (cc, "evict", "coherence.evict"),
        (camsim.coherence.DirectoryController, "handle", "coherence.dir_handle"),
        (arr, "lookup", "memhier.lookup"),
        (arr, "contains", "memhier.contains"),
        (arr, "install", "memhier.install"),
        (arr, "remove", "memhier.remove"),
        (camsim.workload.CoreState, "step", "workload.core_step"),
        (harness, "gen_microbenchmark", "workload.gen"),
        (harness, "build_topology", "topology.build"),
        (harness.Simulator, "run", "harness.run"),
        (camsim.modelcheck, "run_check", "modelcheck.run_check"),
    ]


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, camsim):
        self.camsim = camsim
        self.acc = {}
        self.missing = []
        self._stack = []          # one [child time] cell per open span
        self._saved = []

    def __getitem__(self, name):
        return self.acc.setdefault(name, Acc())

    def reset(self):
        for a in self.acc.values():
            a.clear()

    def _wrap(self, fn, name):
        acc = self[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                acc.calls += 1
                acc.total += dur
                acc.self_time += dur - cell[0]
                if stack:
                    stack[-1][0] += dur
            if result is not None:
                acc.non_none += 1
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        self.missing = []
        for owner, attr, name in targets(self.camsim):
            if hasattr(owner, attr):
                self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
            else:
                self.missing.append(name)
                self[name]
        mc = self.camsim.modelcheck
        if getattr(mc, "copy", None) is copy:
            proxy = types.ModuleType("copy")
            proxy.__dict__.update(vars(copy))
            proxy.deepcopy = self._wrap(copy.deepcopy, "modelcheck.clone")
            self._patch(mc, "copy", proxy)
        else:
            self.missing.append("modelcheck.clone")
            self["modelcheck.clone"]
        for name in self.missing:
            print("trace: %s not found; its metrics read 0" % name,
                  file=sys.stderr)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def layer_self(self, layer):
        """Self time summed over every span name of `layer`."""
        prefix = layer + "."
        return sum(a.self_time for n, a in self.acc.items()
                   if n.startswith(prefix))
