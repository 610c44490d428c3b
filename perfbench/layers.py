"""Per-layer self time, call counts and the exact path ledger.

The benchmark measures the program from outside: :class:`LayerTracer`
wraps every public function and method of each layer module with a
``perf_counter`` accumulator (kept here, never in the program) and
removes the wrappers again on :meth:`LayerTracer.uninstall`.  A
layer's *self time* is the time spent inside its public functions
minus the time spent in wrapped calls they make, so nested layers are
never counted twice.

Worker processes inherit the wrappers through ``fork``; their
accumulators are zeroed in the child and spooled to one JSON file per
worker after every task, which :meth:`LayerTracer.collect_workers`
folds back in.  In the parent, ``core.executor`` self time includes the
time the dispatcher waits for its workers.

The *ledger* is the exact simulated work: ``FlashDevice.metrics()``
deltas around every ``run_experiment`` call (one per cell) and around
every Table-3 row, plus ``analytic.STATS.counters()`` deltas.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

#: layer name -> modules whose public functions and classes it owns
LAYERS = (
    ("core.executor", ("repro.core.executor",)),
    ("core.methodology", ("repro.core.methodology",)),
    ("core.engine", ("repro.core.engine", "repro.core.experiment")),
    ("core.generator", ("repro.core.generator",)),
    ("core.plan", ("repro.core.plan",)),
    ("flashsim.host", ("repro.flashsim.host",)),
    ("flashsim.device", ("repro.flashsim.device", "repro.flashsim.profiles")),
    ("flashsim.analytic", ("repro.flashsim.analytic",)),
    ("flashsim.controller", ("repro.flashsim.controller",)),
    ("flashsim.cache", ("repro.flashsim.cache",)),
    ("flashsim.ftl.hybrid", ("repro.flashsim.ftl.hybrid",)),
    ("flashsim.ftl.blockmap", ("repro.flashsim.ftl.blockmap",)),
    ("flashsim.ftl.pagemap", ("repro.flashsim.ftl.pagemap",)),
    ("flashsim.chip", ("repro.flashsim.chip",)),
    ("flashsim.trace", ("repro.flashsim.trace",)),
    ("flashsim.snapshot", ("repro.flashsim.snapshot",)),
    ("flashsim.recorder", ("repro.flashsim.recorder",)),
    ("obs", ("repro.obs.metrics", "repro.obs.tracing", "repro.obs.progress")),
    (
        "analysis",
        (
            "repro.analysis.summarize",
            "repro.analysis.attribution",
            "repro.analysis.classify",
            "repro.analysis.reportgen",
        ),
    ),
)

#: private executor functions that are the worker-side entry points:
#: timed as ``core.executor`` and followed by a spool write
WORKER_ENTRY_POINTS = ("_execute_cell_fast", "_prepare_remote")

#: where the campaign dispatcher blocks on its workers: timed apart so
#: that ``core.executor`` self time is dispatch work, not waiting
EXECUTOR_WAIT = ("repro.core.executor", "wait")

#: the cell boundary whose device-counter delta feeds the ledger
CELL_BOUNDARY = ("repro.core.experiment", "run_experiment")

#: FlashDevice.metrics() counters reported by the ledger
DEVICE_COUNTERS = (
    "chip.page_reads",
    "chip.page_programs",
    "chip.block_erases",
    "ftl.merge_copy_reads",
    "ftl.merge_copy_programs",
    "ftl.full_merges",
    "ftl.partial_merges",
    "ftl.switch_merges",
    "ftl.finalizations",
    "ftl.gc_collections",
    "ftl.gc_copy_programs",
    "cache.hits",
    "cache.misses",
    "device.reads",
    "device.writes",
)

#: every reason an analytic kernel can give for declining (the part
#: of ``KernelStats.declines`` keys after ``op:``)
DECLINE_REASONS = (
    "address",
    "background-pending",
    "bad-blocks",
    "batch-disabled",
    "cache",
    "disabled",
    "empty",
    "fault-injector",
    "ftl-family",
    "in-flight",
    "noise",
    "os-overhead",
    "paced",
    "recorder",
    "start-misaligned",
    "verify",
    "wear-levelling",
    "writes",
)

_MISSING = object()


def _timed(fn, index, stack, self_s, calls, inner=0.0, outer=0.0):
    """``fn`` wrapped to add its self time and one call to ``index``.

    ``inner`` and ``outer`` are the wrapper's own cost per call inside
    and outside its timed window; they are taken off the callee's and
    the caller's self time so that hot, cheap calls are not inflated.
    """
    clock = time.perf_counter

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        start = clock()
        stack.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            children = stack.pop()
            calls[index] += 1
            elapsed = clock() - start
            self_s[index] += elapsed - children - inner
            stack[-1] += elapsed + outer

    return timed


def wrapper_cost(calls: int = 100_000, rounds: int = 5) -> tuple[float, float]:
    """Median per-call wrapper cost ``(inner, outer)`` in seconds, from
    a timed no-op called in a timed loop versus the bare loop."""
    clock = time.perf_counter

    def noop():
        return None

    def loop(fn):
        for _ in range(calls):
            fn()

    inner, total = [], []
    for _ in range(rounds):
        stack, self_s, counts = [0.0], [0.0, 0.0], [0, 0]
        child = _timed(noop, 1, stack, self_s, counts)
        parent = _timed(loop, 0, stack, self_s, counts)
        start = clock()
        loop(noop)
        bare = (clock() - start) / calls
        start = clock()
        parent(child)
        wrapped = (clock() - start) / calls
        inner.append(max(0.0, self_s[1] / calls - bare))
        total.append(max(0.0, wrapped - bare))
    inner_cost = statistics.median(inner)
    return inner_cost, max(0.0, statistics.median(total) - inner_cost)


def _analytic_counters() -> dict[str, int]:
    from repro.flashsim import analytic

    return analytic.STATS.counters()


class LayerTracer:
    """Self-time and call-count accumulators around every layer."""

    def __init__(self, spool: Path) -> None:
        self.names = [name for name, _ in LAYERS]
        self._wait_index = len(self.names)
        self.self_s = [0.0] * (len(LAYERS) + 1)
        self.calls = [0] * (len(LAYERS) + 1)
        self.ledger: Counter = Counter()
        self.analytic: Counter = Counter()
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self._spool = spool
        self._parent = os.getpid()
        self._fork_baseline: dict[str, int] = {}
        self._ledger_paused = False
        self._active = False
        self._wrapper_cost = (0.0, 0.0)
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _timed(self, fn, index: int):
        return _timed(
            fn, index, self._stack, self.self_s, self.calls, *self._wrapper_cost
        )

    def _cell_boundary(self, fn):
        ledger = self.ledger

        @functools.wraps(fn)
        def measured(device, *args, **kwargs):
            if self._ledger_paused:
                return fn(device, *args, **kwargs)
            before = device.metrics()
            try:
                return fn(device, *args, **kwargs)
            finally:
                _add_delta(ledger, device.metrics(), before)

        return measured

    def _worker_entry(self, fn):
        @functools.wraps(fn)
        def entry(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if os.getpid() != self._parent:
                    self._spool_out()

        return entry

    def _wrap_class(self, cls, index: int, layered: set[str]) -> None:
        for name in dir(cls):
            if name.startswith("_"):
                continue
            owner = next((k for k in cls.__mro__ if name in vars(k)), None)
            if owner is None or not owner.__module__.startswith("repro"):
                continue
            if owner is not cls and owner.__module__ in layered:
                continue  # wrapped where it is defined
            static = inspect.getattr_static(cls, name)
            if isinstance(static, staticmethod):
                wrapped = staticmethod(self._timed(static.__func__, index))
            elif isinstance(static, classmethod):
                wrapped = classmethod(self._timed(static.__func__, index))
            elif inspect.isfunction(static):
                wrapped = self._timed(static, index)
            else:
                continue
            self._patches.append((cls, name, vars(cls).get(name, _MISSING)))
            setattr(cls, name, wrapped)

    def install(self) -> None:
        """Wrap every layer's public functions and methods."""
        self._wrapper_cost = wrapper_cost()
        layered = {module for _, modules in LAYERS for module in modules}
        replacements: dict[int, tuple[object, object]] = {}
        for index, (_, modules) in enumerate(LAYERS):
            for module_name in modules:
                module = importlib.import_module(module_name)
                for name, obj in list(vars(module).items()):
                    if getattr(obj, "__module__", None) != module_name:
                        continue
                    if inspect.isclass(obj) and not name.startswith("_"):
                        self._wrap_class(obj, index, layered)
                        continue
                    if not inspect.isfunction(obj):
                        continue
                    if (module_name, name) == CELL_BOUNDARY:
                        wrapped = self._cell_boundary(self._timed(obj, index))
                    elif name.startswith("_"):
                        if name not in WORKER_ENTRY_POINTS:
                            continue
                        wrapped = self._worker_entry(self._timed(obj, index))
                    else:
                        wrapped = self._timed(obj, index)
                    replacements[id(obj)] = (obj, wrapped)
        module_name, name = EXECUTOR_WAIT
        module = importlib.import_module(module_name)
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, self._timed(getattr(module, name), self._wait_index))
        # rebind every reference, including ``from x import f`` copies
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, hit[1])
        self._active = True

    def uninstall(self) -> None:
        """Remove every wrapper :meth:`install` added."""
        for target, name, original in reversed(self._patches):
            if original is _MISSING:
                delattr(target, name)
            else:
                setattr(target, name, original)
        self._patches.clear()
        self._active = False

    # ------------------------------------------------------------------
    # ledger
    # ------------------------------------------------------------------

    @contextmanager
    def device_delta(self, device):
        """Add ``device``'s counter delta over the block to the ledger,
        without also counting the cells it runs internally."""
        before = device.metrics()
        self._ledger_paused = True
        try:
            yield
        finally:
            self._ledger_paused = False
            _add_delta(self.ledger, device.metrics(), before)

    @contextmanager
    def analytic_delta(self):
        """Add this process's analytic kernel counter delta over the block."""
        before = _analytic_counters()
        try:
            yield
        finally:
            _add_delta(self.analytic, _analytic_counters(), before)

    # ------------------------------------------------------------------
    # worker processes
    # ------------------------------------------------------------------

    def _after_fork(self) -> None:
        if not self._active:
            return
        self.self_s[:] = [0.0] * len(self.self_s)
        self.calls[:] = [0] * len(self.calls)
        self._stack[:] = [0.0]
        self.ledger.clear()
        self.analytic.clear()
        self._fork_baseline = _analytic_counters()

    def _spool_out(self) -> None:
        analytic = Counter()
        _add_delta(analytic, _analytic_counters(), self._fork_baseline)
        record = {
            "self_s": self.self_s,
            "calls": self.calls,
            "ledger": dict(self.ledger),
            "analytic": dict(analytic),
        }
        path = self._spool / f"layers-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        os.replace(tmp, path)

    def collect_workers(self) -> None:
        """Fold the spooled totals of finished workers in, then drop them.

        Call only after the pool that ran them has shut down.
        """
        for path in sorted(self._spool.glob("layers-*.json")):
            record = json.loads(path.read_text())
            for index, value in enumerate(record["self_s"]):
                self.self_s[index] += value
            for index, value in enumerate(record["calls"]):
                self.calls[index] += value
            self.ledger.update(record["ledger"])
            self.analytic.update(record["analytic"])
            path.unlink()

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer self time and calls, then the exact ledger counts."""
        out: dict[str, tuple[float, str]] = {}
        for name, seconds, calls in zip(self.names, self.self_s, self.calls):
            out[f"{name}.self_s"] = (max(0.0, seconds), "s")
            out[f"{name}.calls"] = (calls, "count")
        out["core.executor.wait_s"] = (max(0.0, self.self_s[self._wait_index]), "s")
        for counter in DEVICE_COUNTERS:
            out[counter] = (int(self.ledger.get(counter, 0)), "count")
        out.update(self.analytic_metrics())
        return out

    def analytic_metrics(self) -> dict[str, tuple[float, str]]:
        """Kernel-served IOs, their share of all device IOs, and declines."""
        served = sum(
            self.analytic.get(f"core.analytic.{kind}_ios", 0)
            for kind in ("write", "read", "queued")
        )
        ios = self.ledger.get("device.reads", 0) + self.ledger.get("device.writes", 0)
        out = {
            "analytic.served_ios": (served, "count"),
            "analytic.served_frac": (served / ios if ios else 0.0, "frac"),
        }
        declines = Counter()
        prefix = "core.analytic.decline."
        for key, count in self.analytic.items():
            if key.startswith(prefix):
                reason = key[len(prefix):].split(":", 1)[-1]
                declines[reason if reason in DECLINE_REASONS else "other"] += count
        for reason in DECLINE_REASONS + ("other",):
            out[f"analytic.decline.{reason}"] = (declines.get(reason, 0), "count")
        return out


def _add_delta(into: Counter, after: dict, before: dict) -> None:
    for key, value in after.items():
        delta = value - before.get(key, 0)
        if delta:
            into[key] += delta
