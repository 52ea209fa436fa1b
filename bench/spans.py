"""Spans and counters around the projheight layers, installed from outside.

install() replaces the public functions of modular, heights and cayley, and
the entry points report.render and cli.main, with wrappers that record a span
(name, start, end, parent, command) per call. Every projheight module that
imported a wrapped name gets the wrapper, so calls between modules are seen.
The connection-set generator gets one span per next(). Hot arithmetic helpers
are counted, not timed, to keep the tracer's own cost small.

Spans stay in memory until the child process hands them to the benchmark,
which turns them into self times with self_times().
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = ("modular", "heights", "cayley", "report", "cli")

# Layers whose other public functions are formatting or argument helpers of
# these entry points; their time is the entry point's self time.
ENTRY_POINTS = {"report": {"render"}, "cli": {"main"}}

SPAN_NAMES = {
    "modular.canonical_connection_sets": "modular.enum",
    "heights.line_height_table": "heights.line_table",
    "cayley.is_triangle_free": "cayley.triangle_free",
    "cli.main": "cli.command",
}

COUNT_ONLY = {
    "modular.is_prime": "modular.prime_checks",
    "modular.connection_set_canonical": "modular.set_canonical.calls",
    "modular.mod_inverse": "modular.mod_inverse.calls",
}


def _modulus(p) -> int:
    return p if isinstance(p, int) else p.p


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index, command]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.command = -1
        self.cached: list[tuple[str, object]] = []
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, name_id: int) -> list:
        rec = [name_id, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.command]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, layer: str, fn):
        name_id = self._name_id(name)
        counts = self.counts
        calls, errors = name + ".calls", layer + ".errors"
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            done = None
            if hook is not None:
                args, done = hook(self, fn, args)
            rec = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[errors] += 1
                raise
            finally:
                self._close(rec)
            if done is not None:
                done(result)
            return result

        return wrapper

    def timed_generator(self, name: str, layer: str, fn):
        """Wrap a generator function so that every next() is its own span."""
        name_id = self._name_id(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            p, d = _modulus(args[0]), args[1]
            if p > d >= 1:
                counts[name + ".subsets"] += math.comb(p - 1, d)
            inner = fn(*args, **kwargs)
            while True:
                rec = self._open(name_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except BaseException:
                    counts[layer + ".errors"] += 1
                    raise
                finally:
                    self._close(rec)
                counts[name + ".classes"] += 1
                yield item

        return wrapper

    def finish(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        for name, fn in self.cached:
            info = fn.cache_info()
            self.counts[name + ".hits"] += info.hits
            self.counts[name + ".misses"] += info.misses
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }


# Hooks derive work counts from a call's arguments and result. Each returns the
# arguments to call with and a function to run on the result; all hooked
# functions are called at most a few hundred times per command.


def _line_table_hook(tracer: Tracer, fn, args):
    misses = fn.cache_info().misses

    def done(result) -> None:
        # (p-1)^2 residue sums are evaluated only when the cache missed
        if fn.cache_info().misses > misses:
            tracer.counts["heights.line_table.cells"] += (_modulus(args[0]) - 1) ** 2

    return args, done


def _spectrum_hook(tracer: Tracer, fn, args):
    def done(result) -> None:
        tracer.counts["heights.spectrum.points"] += (result.p**result.d - 1) // (result.p - 1)

    return args, done


def _beta_exact_hook(tracer: Tracer, fn, args):
    edge_list = list(args[0])
    states = 1 << len({w for edge in edge_list for w in edge})

    def done(result) -> None:
        tracer.counts["cayley.beta_exact.states"] += states
        # the DP holds two int32 arrays of 2^m entries: the table and the layer order
        mb = 8 * states / 2**20
        key = "cayley.beta_exact.table_mb"
        tracer.maxima[key] = max(mb, tracer.maxima.get(key, 0.0))

    return (edge_list,) + tuple(args[1:]), done


def _render_hook(tracer: Tracer, fn, args):
    def done(result) -> None:
        tracer.counts["report.render.rows"] += len(args[0].rows)
        tracer.counts["report.render.bytes"] += len(result)

    return args, done


_HOOKS = {
    "heights.line_table": _line_table_hook,
    "heights.spectrum": _spectrum_hook,
    "cayley.beta_exact": _beta_exact_hook,
    "report.render": _render_hook,
}


def install(tracer: Tracer) -> None:
    """Swap every traced projheight function for its wrapper, in every module."""
    swaps: dict[int, object] = {}  # id of the original -> its wrapper
    for layer in LAYERS:
        module = sys.modules[f"projheight.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if layer in ENTRY_POINTS and attr not in ENTRY_POINTS[layer]:
                continue
            qualified = f"{layer}.{attr}"
            name = SPAN_NAMES.get(qualified, qualified)
            if qualified in COUNT_ONLY:
                wrapper = tracer.counted(COUNT_ONLY[qualified], obj)
            elif inspect.isgeneratorfunction(obj):
                wrapper = tracer.timed_generator(name, layer, obj)
            else:
                wrapper = tracer.timed(name, layer, obj)
            if hasattr(obj, "cache_info"):
                tracer.cached.append((name, obj))
            swaps[id(obj)] = wrapper
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "projheight" and not mod_name.startswith("projheight."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in swaps:
                setattr(module, attr, swaps[id(obj)])


def self_times(payload: dict) -> tuple[dict[str, float], float]:
    """Self time per span name, and the total time covered by root spans.

    A span's self time is its duration minus the durations of its direct
    children; spans nest properly because the traced program is single-threaded.
    """
    spans = payload["spans"]
    own = [end - start for _, start, end, _, _ in spans]
    roots = 0.0
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
        else:
            roots += end - start
    totals: dict[str, float] = {}
    names = payload["names"]
    for (name_id, *_), t in zip(spans, own):
        name = names[name_id]
        totals[name] = totals.get(name, 0.0) + t
    return totals, roots
