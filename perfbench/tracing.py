"""Spans at the boundaries of planeforest's layers, recorded from outside.

`Tracer.install` replaces every public module-level function of every
``planeforest`` submodule, and every class's ``to_json`` method, by a
wrapper that records one span per call: name, start, end, parent span,
replicate id and the root span it runs under (the benchmark's set-up, a
top-level call of the program, or the benchmark's own replay of one).  The wrappers are patched into every module namespace that
holds the function, so calls between modules (``from .x import f``) are
seen too.  Nothing under ``src/`` changes; `Tracer.uninstall` restores the
originals.  Spans live in flat arrays in memory and are written out once,
at the end of the run.
"""

from __future__ import annotations

import contextlib
import fnmatch
import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "planeforest"
ROOT_SPAN = "bench.replicate"
SETUP_SPAN = "bench.setup"
REPLAY_SPAN = "bench.replay"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.scope = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.rep_id = -1
        self._scope = -1
        self.hooks: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.rep.append(self.rep_id)
        self.scope.append(self._scope)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        if self._stack[-1] == i:
            self._stack.pop()
        else:  # a generator span closed out of order
            self._stack.remove(i)

    @contextlib.contextmanager
    def root(self, name: str, rep_id: int):
        """A root span; spans opened inside carry ``rep_id`` (-1 for set-up)
        and the root's name as their scope."""
        self.rep_id = rep_id
        self._scope = nid = self._id(name)
        i = self.open(nid)
        try:
            yield
        finally:
            self.close(i)
            self.rep_id = self._scope = -1

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        hook = self.hooks.get(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                i = tracer.open(nid)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(i)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(i)
                if hook is not None:
                    hook(args, kwargs, None, exc)
                raise
            tracer.close(i)
            if hook is not None:
                hook(args, kwargs, result, None)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    method = vars(obj).get("to_json")
                    if inspect.isfunction(method):
                        wrapped = self._wrap(method, f"{short}.{attr}.to_json")
                        self._patches.append((obj, "to_json", method))
                        setattr(obj, "to_json", wrapped)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapped = wrappers.get(id(obj))
                if wrapped is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "rep": np.frombuffer(self.rep, dtype=np.int32).copy(),
            "scope": np.frombuffer(self.scope, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Durations, self times and set unions derived from recorded spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self._ids = tracer._ids
        self.name = a["name"]
        self.rep = a["rep"]
        self.scope = a["scope"]
        self.parent = a["parent"]
        self.start = a["start"]
        self.end = a["end"]
        self.dur = self.end - self.start
        self.self_time = self.dur.copy()
        has_parent = self.parent >= 0
        np.subtract.at(self.self_time, self.parent[has_parent], self.dur[has_parent])
        self.is_root = self.name == self._ids.get(ROOT_SPAN, -1)

    def _mask(self, patterns, root: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names)
               if any(fnmatch.fnmatchcase(n, p) for p in patterns)]
        return np.isin(self.name, ids) & (self.scope == self._ids.get(root, -2))

    def union_time(self, patterns, root: str = ROOT_SPAN) -> float:
        """Wall time inside any span of ``names``, nested calls counted once.

        Spans of one thread nest, and are stored in start order, so a span
        is outermost exactly when it starts after every earlier span of the
        set has ended.  Only spans under root spans named ``root`` count: by
        default the program's top-level calls.
        """
        m = self._mask(patterns, root)
        start, end = self.start[m], self.end[m]
        if not len(start):
            return 0.0
        prev_end = np.maximum.accumulate(np.concatenate(([-np.inf], end[:-1])))
        outer = start >= prev_end
        return float((end[outer] - start[outer]).sum())

    def self_sum(self, patterns, root: str = ROOT_SPAN) -> float:
        return float(self.self_time[self._mask(patterns, root)].sum())

    def coverage(self) -> float:
        """Share of root-span time spent inside the stage calls it made."""
        root_idx = np.flatnonzero(self.is_root)
        total = self.dur[root_idx].sum()
        if total <= 0:
            return 0.0
        child = np.isin(self.parent, root_idx)
        return float(self.dur[child].sum() / total)
