"""Per-layer spans for the traced run, recorded from outside the program.

:class:`LayerTrace` replaces each layer's public entry point with a
wrapper that times the call and keeps a stack of open spans, so a
layer's *self* time is its span minus the spans of the layers it
called.  The wrappers live only here and are installed only for the
traced run (:meth:`LayerTrace.installed`); the untraced run measures
the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import repro.durability.recovery as recovery_mod
import repro.engine.database as database_mod
import repro.engine.exec.batch as batch_mod
import repro.engine.exec.compile as compile_mod
import repro.engine.exec.executor as executor_mod
import repro.optimizer.parser as parser_mod
from repro.durability import DurabilityManager
from repro.engine.database import Database
from repro.engine.exec import PlanCache
from repro.optimizer.rewriter import Rewriter


def _count_rules(trace: "LayerTrace", args, _out) -> None:
    trace.counts["rewriter.rules_fired"] += len(args[0].trace)


#: ``(owner, attribute, layer, after-hook)`` for every wrapped entry
#: point.  Executors are wrapped where ``Database`` looks them up, and
#: ``semantic_cache_key`` where the executors look it up, so the
#: wrappers see exactly the calls the program makes.
ENTRY_POINTS = (
    (parser_mod, "parse_plan", "parser.parse", None),
    (Rewriter, "optimize", "rewriter.optimize", _count_rules),
    (PlanCache, "annotate", "cache.key", None),
    (PlanCache, "key_for", "cache.key", None),
    (executor_mod, "semantic_cache_key", "cache.key", None),
    (batch_mod, "semantic_cache_key", "cache.key", None),
    (compile_mod, "semantic_cache_key", "cache.key", None),
    (PlanCache, "get", "cache.get", None),
    (PlanCache, "put", "cache.put", None),
    (Database, "plan_mode", "cost.plan_mode", None),
    (database_mod, "execute_streaming", "exec.run", None),
    (database_mod, "execute_compiled", "exec.run", None),
    (database_mod, "execute_reference", "exec.run", None),
    (database_mod, "execute_sharded", "exec.run", None),
    (compile_mod, "compile_plan", "compile.compile", None),
    (PlanCache, "maintain", "delta.maintain", None),
    (Database, "insert", "database.insert", None),
    (DurabilityManager, "log_insert", "wal.log", None),
    (DurabilityManager, "checkpoint", "checkpoint.write", None),
    (recovery_mod, "load_checkpoint", "recovery.load", None),
    (recovery_mod, "scan_wal", "recovery.scan", None),
    (recovery_mod, "replay_records", "recovery.replay", None),
)


class LayerTrace:
    """Aggregated spans: per layer, self seconds, inclusive seconds
    and calls; plus free-form counts (``rules_fired``)."""

    def __init__(self) -> None:
        self._open: list[float] = []  # child seconds of each open span
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def take(self) -> "LayerTrace":
        """The spans aggregated so far, as a detached copy; resets."""
        taken = LayerTrace()
        taken.self_s, taken.total_s = self.self_s, self.total_s
        taken.calls, taken.counts = self.calls, self.counts
        self.reset()
        return taken

    def call(self, layer: str, fn, *args, after=None, **kwargs):
        """Run ``fn`` inside a span named ``layer``."""
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._open.pop()
            self.self_s[layer] += elapsed - children
            self.total_s[layer] += elapsed
            self.calls[layer] += 1
            if self._open:
                self._open[-1] += elapsed
        if after is not None:
            after(self, args, out)
        return out

    def _wrap(self, layer: str, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, *args, after=after, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer, after in ENTRY_POINTS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
