"""Outside-in span tracer for the sqfdepth package.

Nothing under ``src/`` is changed.  ``install`` replaces every binding of a
public sqfdepth function (in every sqfdepth module that binds it) and the
public methods of ``Ideal`` with timing wrappers, and replaces the
``ThreadPoolExecutor`` the engine imports with a subclass that carries the
submitting span into pool threads.

Accounting is in thread-seconds: each span is timed on the thread that runs
it.  A span's self time is its duration minus the spans it called on the
same thread, minus the time its thread sat blocked waiting for pool results.
Work a pool task does outside any traced call is self time of the span that
submitted the task, and spans opened inside a task are that task's
children.  With several pool threads busy at once, the self times of one
job can therefore add up to more than its wall time.

Spans are aggregated per name as they close (calls, calls made on pool
threads, total seconds, self seconds, plus a few per-call counters), so a
long scan does not keep millions of span records in memory.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import threading
import time

import numpy as np

# Modules whose public functions are wrapped.  From ``cli`` only ``main`` is
# wrapped: argument parsing, file reads and JSON output are the CLI layer.
MODULES = ("cli", "betti", "homology", "ideals", "family", "graphs", "search")


def _rank_mod_p_counts(args, kwargs, result):
    return {"entries": int(np.asarray(args[0]).size)}


def _rank_gf2_counts(args, kwargs, result):
    return {"rows": len(args[0]), "rank": int(result)}


def _scan_counts(args, kwargs, result):
    s = result.summary
    return {k: int(s[k]) for k in ("evaluated", "findings_total", "findings_unique")}


# Per-call counters, by span name: f(args, kwargs, result) -> {counter: value}.
COUNTERS = {
    "homology.rank_mod_p": _rank_mod_p_counts,
    "homology.rank_gf2": _rank_gf2_counts,
    "search.scan": _scan_counts,
}


class _Frame:
    __slots__ = ("name", "start", "child", "wait")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0  # durations of same-thread child spans
        self.wait = 0.0  # time blocked on pool results


class Tracer:
    """Aggregates spans per name: calls, thread-seconds and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stats: dict[str, dict[str, float]] = {}
        self._main = threading.get_ident()
        self.wrapped: set[str] = set()

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, values: dict) -> None:
        with self._lock:
            entry = self._stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in values.items():
                entry[key] = entry.get(key, 0) + value

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        frame = _Frame(name, time.perf_counter())
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            dur = time.perf_counter() - frame.start
            if stack:
                stack[-1].child += dur
        values = {"calls": 1, "s": dur, "self_s": dur - frame.child - frame.wait}
        if threading.get_ident() != self._main:
            values["pool_calls"] = 1
        counter = COUNTERS.get(name)
        if counter is not None:
            try:
                values.update(counter(args, kwargs, result))
            except (TypeError, IndexError, KeyError, AttributeError):
                # the traced signature changed; report it instead of failing the job
                values["counter_errors"] = 1
        self._add(name, values)
        return result

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def run_task(self, submitter, fn, args, kwargs):
        """Run a pool task; its untraced work is the submitter's self time."""
        stack = self._stack()
        frame = _Frame("<task>", time.perf_counter())
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            own = time.perf_counter() - frame.start - frame.child - frame.wait
            if submitter is not None:
                self._add(submitter.name, {"self_s": own})

    def waiting(self, started: float) -> None:
        frame = self.current()
        if frame is not None:
            frame.wait += time.perf_counter() - started

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {name: dict(entry) for name, entry in self._stats.items()}

    # -- installation ------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        self.wrapped.add(name)
        return traced

    def install(self) -> None:
        """Wrap the engine in place.  Call once per process, before any job."""
        mods = {"__init__": importlib.import_module("sqfdepth")}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"sqfdepth.{short}")
            except ModuleNotFoundError:
                pass  # a removed module's metrics report as absent
        originals: dict[int, object] = {}
        for short, mod in mods.items():
            if short == "__init__":
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or (short == "cli" and attr != "main"):
                    continue
                originals[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        executor = _executor_class(self)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, attr, originals[id(obj)])
                elif obj is concurrent.futures.ThreadPoolExecutor:
                    setattr(mod, attr, executor)
        ideal = getattr(mods.get("ideals"), "Ideal", object)
        for attr, raw in list(vars(ideal).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                setattr(ideal, attr, classmethod(self.wrap(f"ideals.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(ideal, attr, self.wrap(f"ideals.{attr}", raw))


def _executor_class(tracer: Tracer):
    class TracedThreadPoolExecutor(concurrent.futures.ThreadPoolExecutor):
        """Carries the submitting span into tasks; times result waits."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_task, tracer.current(), fn, args, kwargs)

        def map(self, fn, *iterables, timeout=None, chunksize=1):
            results = super().map(fn, *iterables, timeout=timeout, chunksize=chunksize)

            def timed():
                while True:
                    started = time.perf_counter()
                    try:
                        item = next(results)
                    except StopIteration:
                        tracer.waiting(started)
                        return
                    tracer.waiting(started)
                    yield item

            return timed()

        def shutdown(self, wait=True, *, cancel_futures=False):
            started = time.perf_counter()
            try:
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
            finally:
                tracer.waiting(started)

    return TracedThreadPoolExecutor
