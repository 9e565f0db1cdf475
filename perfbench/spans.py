"""In-memory span recording around the public boundaries of ``repro``.

The traced run wraps functions and methods where their caller looks
them up (a module global, or a class attribute), so the program
itself is unchanged.  Every call through a wrapper records one span:
name, start, end, parent span and run id, in flat arrays, and the
benchmark writes them out when it ends.  A layer's self time is the
duration of its spans minus the part their child spans cover, so the
self times of every span under a root plus the root's own self time
add up to the root's duration.

A boundary that no longer exists (a refactor removed or renamed it)
is reported as missing, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable


class SpanRecorder:
    """Flat, append-only span storage with an open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [-1]
        self.extra: Counter = Counter()
        self._runs = 0

    def name_index(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, nid: int, new_run: bool = False) -> int:
        parent = self.stack[-1]
        if new_run or parent < 0:
            self._runs += 1
            run = self._runs
        else:
            run = self.run[parent]
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.run.append(run)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def root(self, name: str) -> "_Root":
        """Context manager for a root span (a timed pass or set-up)."""
        return _Root(self, self.name_index(name))

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        rows: Callable | None = None,
        new_run: bool = False,
    ) -> Callable:
        """``fn`` recording one span per call.

        A call nested directly inside a span of the same name (a
        subclass method calling ``super()``) records nothing more, so
        call counts stay counts of boundary crossings.  ``rows`` maps
        the call's arguments to a work count added to ``<name>.rows``.
        """
        nid = self.name_index(name)
        stack = self.stack
        name_id = self.name_id
        rows_key = name + ".rows"
        extra = self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == nid:
                return fn(*args, **kwargs)
            if rows is not None:
                extra[rows_key] += rows(args, kwargs)
            index = self.open(nid, new_run)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    # -- analysis ----------------------------------------------------

    def self_times(self, root_index: int | None = None) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self_seconds)}`` over every span, or over
        the subtree of one root span."""
        import numpy as np

        count = len(self.start)
        if count == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64, count=count)
        end = np.frombuffer(self.end, dtype=np.float64, count=count)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=count)
        nids = np.frombuffer(self.name_id, dtype=np.int32, count=count)
        duration = end - start
        child = np.zeros(count)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child
        keep = np.ones(count, dtype=bool)
        if root_index is not None:
            keep = _subtree_mask(parent, root_index)
        names = len(self.names)
        calls = np.bincount(nids[keep], minlength=names)
        seconds = np.bincount(nids[keep], weights=own[keep], minlength=names)
        return {
            self.names[i]: (int(calls[i]), float(seconds[i]))
            for i in range(names)
            if calls[i]
        }

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def save(self, path: Path, meta: dict) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        count = len(self.start)
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=count),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=count),
            run=np.frombuffer(self.run, dtype=np.int32, count=count),
            start=np.frombuffer(self.start, dtype=np.float64, count=count),
            end=np.frombuffer(self.end, dtype=np.float64, count=count),
            names=np.array(self.names),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )


def _subtree_mask(parent, root_index: int):
    """Boolean mask of the spans at or below a root span.

    Spans are appended when they open and roots never nest, so a
    root's subtree is the index range up to the next root.
    """
    import numpy as np

    if parent[root_index] != -1:
        raise ValueError("not a root span")
    later_roots = np.flatnonzero(parent[root_index + 1 :] == -1)
    stop = root_index + 1 + later_roots[0] if len(later_roots) else len(parent)
    mask = np.zeros(len(parent), dtype=bool)
    mask[root_index:stop] = True
    return mask


class _Root:
    def __init__(self, recorder: SpanRecorder, nid: int):
        self.recorder = recorder
        self.nid = nid
        self.index = -1

    def __enter__(self) -> "_Root":
        if self.recorder.stack[-1] != -1:
            raise RuntimeError("root span opened inside another span")
        self.index = self.recorder.open(self.nid, new_run=True)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.close(self.index)


@dataclass(frozen=True)
class Boundary:
    """One wrapped call site: span ``name`` around ``module.attr``
    (``attr`` may be ``Class.method``)."""

    name: str
    module: str
    attr: str
    rows: Callable | None = None
    new_run: bool = False


class Patcher:
    """Installs wrappers for a set of boundaries and undoes them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.missing: set[str] = set()
        self.installed: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def install(self, boundaries) -> None:
        for b in boundaries:
            owner, attr = _resolve(b.module, b.attr)
            if owner is None:
                self.missing.add(b.name)
                continue
            self._patch(owner, attr, b)

    def install_subclass_methods(self, name: str, base: type, attr: str) -> None:
        """Wrap ``attr`` on ``base`` and on every loaded subclass that
        defines its own ``attr``."""
        seen = 0
        for cls in _with_subclasses(base):
            if attr not in vars(cls):
                continue
            self._patch(cls, attr, Boundary(name, cls.__module__, attr))
            seen += 1
        if not seen:
            self.missing.add(name)

    def _patch(self, owner, attr: str, b: Boundary) -> None:
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        wrapped = self.recorder.wrap(
            b.name, raw.__func__ if is_classmethod else raw, rows=b.rows, new_run=b.new_run
        )
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        self.installed.add(b.name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _resolve(module_name: str, attr: str):
    """``(owner, attribute)`` for ``module.attr`` or ``module.Class.attr``,
    or ``(None, None)`` when any part no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if isinstance(owner, type):
        if last not in vars(owner):
            return None, None
    elif not hasattr(owner, last):
        return None, None
    return owner, last


def _with_subclasses(base: type):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))
