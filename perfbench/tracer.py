"""In-memory span tracer installed around contourcodec's public functions.

A wrapper replaces a function under every name bound to it in any loaded
``contourcodec`` module: ``approx`` imports ``row_distortion`` by name,
``augment`` imports ``approximate_contour`` and ``detect_contours``, ``cli``
imports ``approximate_stereo``, ``synthesize_view`` and ``swim_score``, and the
package re-exports most of them.  A call is therefore traced whichever module
makes it.  Spans (name, start, end, parent, op id) go into flat arrays and are
written once, when the run ends.  ``uninstall`` restores every binding and
fails if any wrapper is still reachable.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from collections import defaultdict

import numpy as np

from workloads import clock

PACKAGE = "contourcodec"
_MARK = "__perfbench_original__"


def package_modules():
    """Loaded modules of the package, the package itself included."""
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def leftover_wrappers() -> list:
    """Names still bound to a tracer wrapper in any package module."""
    return [
        f"{name}.{key}"
        for name, mod in package_modules()
        for key, value in vars(mod).items()
        if callable(value) and hasattr(value, _MARK)
    ]


class Tracer:
    """Records nested call spans and per-span counters for one run.

    ``op`` is the identifier shared by every span of one benchmark operation;
    the caller sets it before each operation.  Spans are timed with the
    benchmark's clock, in raw process CPU seconds.
    """

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = 0
        self.counters = defaultdict(lambda: defaultdict(float))
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, span: str, fn, hook):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        counters = self.counters[span]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.end)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        setattr(traced, _MARK, fn)
        return traced

    def install(self, targets) -> None:
        """Wrap each ``(module, attribute, span name, hook)`` target.

        ``hook(counters, args, result)`` runs after a successful call and adds
        to the span's counters.  A target the package no longer has is listed
        in ``missing`` and its metrics read 0.
        """
        modules = [mod for _, mod in package_modules()]
        for modname, attr, span, hook in targets:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(span, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()
        left = leftover_wrappers()
        if left:
            raise RuntimeError(f"tracer wrappers left installed: {left}")

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def layers(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children nest inside parents.
        """
        names = np.asarray(self.name_id, np.int32)
        parent = np.asarray(self.parent, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        table = {}
        for nid, span in enumerate(self.names):
            sel = names == nid
            table[span] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
            }
        return table

    def write(self, path) -> None:
        """Save every span as compressed arrays (``names`` indexes ``name``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.asarray(self.name_id, np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, np.int32),
            op=np.asarray(self.op_id, np.int32),
        )
