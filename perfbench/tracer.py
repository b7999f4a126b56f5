"""Span tracing installed from outside the program.

:class:`Tracer` wraps public functions and methods of the ``repro``
package so that every call records a span: name, layer, start, end and
the enclosing span.  Spans live in memory and are written out once, at
the end of a traced run.  Nothing in ``src/`` is modified on disk; the
wrappers replace the bindings in the loaded modules and are removed
again by :meth:`Tracer.uninstall`.

A function imported by name into other modules (``run_algorithm`` into
``repro.sharding.engine``, ``parse_query`` into ``repro.core.engine``,
...) has one binding per importing module; :meth:`Tracer.install`
replaces every binding that refers to the original function object.

Self time is a span's duration minus the time its direct children
cover.  Stacks are per thread, so a span's parent is the innermost open
span of the same thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Dict, List, Optional

#: Index positions of one span record (a list, so a child can add its
#: duration to its parent's ``CHILD`` slot when it closes).
NAME, LAYER, START, END, PARENT, CHILD, NESTED = range(7)


def _run_algorithm_name(args, kwargs) -> str:
    """``core.run.<algorithm>[-scored]`` for ``run_algorithm(index, query,
    k, algorithm="probe", scored=False)``."""
    algorithm = kwargs.get("algorithm", args[3] if len(args) > 3 else "probe")
    scored = kwargs.get("scored", args[4] if len(args) > 4 else False)
    return f"core.run.{algorithm}" + ("-scored" if scored else "")


#: (module, attribute path, span name, layer, namer).  The attribute path
#: is ``function`` or ``Class.method``.  Layers are named after modules.
TARGETS = (
    ("repro.server.routes", "price_query", "server.price", "server", None),
    ("repro.server.routes", "result_payload", "server.payload", "server", None),
    ("repro.server.protocol", "json_bytes", "server.json", "server", None),
    ("repro.serving.cache", "ServingCache.search", "serving.lookup", "serving", None),
    ("repro.query.parser", "parse_query", "query.parse", "query", None),
    ("repro.core.engine", "DiversityEngine.prepare", "query.prepare", "query", None),
    ("repro.sharding.engine", "ShardedEngine.prepare", "query.prepare", "query", None),
    ("repro.planner.cost", "choose", "planner.choose", "planner", None),
    ("repro.core.engine", "run_algorithm", "core.run", "core", _run_algorithm_name),
    ("repro.core.engine", "DiversityEngine.execute", "core.execute", "core", None),
    ("repro.core.engine", "DiversityEngine._package", "core.materialise", "core", None),
    ("repro.core.diversify", "diverse_subset", "core.diverse_select", "core", None),
    ("repro.core.diversify", "scored_diverse_subset", "core.diverse_select", "core", None),
    ("repro.index.merged", "MergedList.__init__", "index.compile", "index", None),
    ("repro.sharding.engine", "ShardedEngine.execute", "sharding.fanout", "sharding", None),
    ("repro.sharding.merge", "diverse_merge", "sharding.merge", "sharding", None),
    ("repro.sharding.merge", "scored_diverse_merge", "sharding.merge", "sharding", None),
    ("repro.replication.replica_set", "ReplicaSet.scalar_postings", "replication.read", "replication", None),
    ("repro.replication.replica_set", "ReplicaSet.token_postings", "replication.read", "replication", None),
    ("repro.replication.replica_set", "ReplicaSet.all_postings", "replication.read", "replication", None),
    ("repro.replication.replica_set", "ReplicaSet.vocabulary", "replication.read", "replication", None),
    ("repro.replication.replica_set", "ReplicaSet.insert", "replication.apply", "replication", None),
    ("repro.replication.replica_set", "ReplicaSet.remove", "replication.apply", "replication", None),
    ("repro.durability.wal", "WriteAheadLog.append", "durability.wal_append", "durability", None),
    ("repro.durability.wal", "WriteAheadLog.sync", "durability.wal_sync", "durability", None),
    ("repro.storage.relation", "Relation.insert", "storage.insert", "storage", None),
    ("repro.storage.relation", "Relation.delete", "storage.delete", "storage", None),
)


class Tracer:
    """Records spans around the :data:`TARGETS` while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self._local = threading.local()
        self._undo: List[tuple] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: Optional[str]) -> list:
        """Open a span on this thread's stack; close it with :meth:`close`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        nested = any(entry[NAME] == name for entry in stack)
        record = [name, layer, time.perf_counter(), 0.0, parent, 0.0, nested]
        stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        parent = record[PARENT]
        if parent is not None:
            parent[CHILD] += record[END] - record[START]
        self.spans.append(record)

    def wrap(self, function, name: str, layer: Optional[str], namer=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record = tracer.open(namer(args, kwargs) if namer else name, layer)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(record)

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target and rebind every module-level alias of it.

        All target modules are imported first, so an alias made by a
        module that imports another target's module is rebound too."""
        modules = {name: importlib.import_module(name) for name, *_ in TARGETS}
        for module_name, path, name, layer, namer in TARGETS:
            module = modules[module_name]
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                self._replace(owner, attribute, original,
                              self.wrap(original, name, layer, namer))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(original, name, layer, namer)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    loaded_name == "repro" or loaded_name.startswith("repro.")
                ):
                    continue
                for attribute, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, attribute, original, wrapped)

    def _replace(self, owner, attribute: str, original, wrapped) -> None:
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path) -> None:
        """Write the spans as JSON lines (times in seconds, perf_counter)."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                parent = record[PARENT]
                handle.write(json.dumps([
                    record[NAME], record[LAYER], record[START], record[END],
                    parent[NAME] if parent is not None else None,
                    record[CHILD], record[NESTED],
                ]) + "\n")


def read_spans(path) -> List[list]:
    """Spans written by :meth:`Tracer.write` (parent reduced to its name)."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summarise(spans) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` (outermost only), ``self_s`` and ``layer``.

    Calls nested inside a span of the same name (``execute`` dispatching
    to itself after planning) fold into the outer call, so ``self_s /
    calls`` is self time per top-level call.
    """
    summary: Dict[str, Dict[str, float]] = {}
    for record in spans:
        entry = summary.setdefault(
            record[NAME], {"calls": 0, "self_s": 0.0, "layer": record[LAYER]}
        )
        if not record[NESTED]:
            entry["calls"] += 1
        entry["self_s"] += (record[END] - record[START]) - record[CHILD]
    return summary
