"""EXPLAIN ANALYZE: render a completed trace as a per-operator tree.

:func:`explain` executes a plan under a :class:`~repro.obs.trace.Tracer`
in one of the executor modes (``"reference"``, ``"stream"``,
``"batch"``, ``"compiled"``, partition-parallel ``"sharded"``, or
cost-model-driven ``"auto"``) and
packages the result as an :class:`ExplainReport` — the answer, the span
tree, the cache activity the execution caused, and (for ``"auto"``) the
mode decision with its per-candidate score table.
Rendered as text (a tree with per-operator rows/work/cache/source
annotations, wall time optional) or as JSON (``to_dict``, with
``wall=False`` for byte-deterministic output).

``db`` may be a plain relation mapping or a
:class:`~repro.engine.database.Database`; either way the plan runs
through ``Database.run``.  A ``Database`` contributes its result cache
(so EXPLAIN shows real hits and misses — pass ``use_cache=False`` for
a pure cold run); a plain mapping runs result-cold in a throwaway
``Database``.

CLI: ``python -m repro explain [PLAN] [--mode all|reference|stream|
batch] [--json] [--warm N]`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .trace import Span, Tracer

__all__ = ["MODES", "ExplainReport", "explain", "render_span_tree"]

#: Executor modes :func:`explain` understands: the engine's
#: :data:`~repro.engine.database.MODES` plus ``"auto"``, which lets the
#: cost model pick the executor (the report carries the decision).
#: Spelled out rather than imported so ``repro.obs`` loads without the
#: engine.
MODES = ("reference", "stream", "batch", "compiled", "sharded", "auto")


def _span_line(span: Span, *, wall: bool) -> str:
    parts = [span.label]
    fields = []
    if span.rows is not None:
        fields.append(f"rows={span.rows}")
    fields.append(f"work={span.work}")
    if span.cache is not None:
        fields.append(f"cache={span.cache}")
    if span.source is not None:
        fields.append(f"via={span.source}")
    if wall:
        fields.append(f"wall={span.wall_s * 1e3:.3f}ms")
    parts.append("  [" + " ".join(fields) + "]")
    return "".join(parts)


def render_span_tree(root: Span, *, wall: bool = True) -> str:
    """The span tree as indented text (explicit stack, any depth)."""
    lines: list[str] = []
    # (span, this line's branch prefix, the prefix its children extend)
    stack: list[tuple[Span, str, str]] = [(root, "", "")]
    while stack:
        span, branch, child_prefix = stack.pop()
        lines.append(branch + _span_line(span, wall=wall))
        last_index = len(span.children) - 1
        for i in range(last_index, -1, -1):
            connector = "└─ " if i == last_index else "├─ "
            extension = "   " if i == last_index else "│  "
            stack.append((
                span.children[i],
                child_prefix + connector,
                child_prefix + extension,
            ))
    return "\n".join(lines)


@dataclass
class ExplainReport:
    """One traced execution: mode, plan text, answer stats, span tree,
    and the cache-counter delta the execution caused (``None`` when no
    cache was attached)."""

    mode: str
    plan: str
    rows: int
    work: int
    root: Span
    cache_stats: Optional[dict] = None
    #: ``mode="auto"`` only: the cost model's decision —
    #: ``{"mode", "estimated_work", "scores"}``.
    decision: Optional[dict] = None
    #: Graceful-degradation events (``Database.run`` fallbacks), each
    #: ``{"mode", "to", "error"}`` — why a mode was not used.
    degraded: Optional[list] = None

    def to_dict(self, *, wall: bool = True) -> dict:
        out = {
            "mode": self.mode,
            "plan": self.plan,
            "rows": self.rows,
            "work": self.work,
            "tree": self.root.to_dict(wall=wall),
        }
        if self.cache_stats is not None:
            out["cache"] = self.cache_stats
        if self.decision is not None:
            out["decision"] = self.decision
        if self.degraded is not None:
            out["degraded"] = self.degraded
        return out

    def render(self, *, wall: bool = True) -> str:
        header = (
            f"EXPLAIN ANALYZE (mode={self.mode}) {self.plan}\n"
            f"rows={self.rows} work={self.work}"
        )
        if self.cache_stats is not None:
            header += (
                f" cache[hits={self.cache_stats['hits']}"
                f" misses={self.cache_stats['misses']}"
                f" puts={self.cache_stats['puts']}]"
            )
            maintained = self.cache_stats.get("maintained", 0)
            fallback = self.cache_stats.get("maintain_fallback", 0)
            if maintained or fallback:
                # Entries this query found alive because inserts since
                # the last run were absorbed by delta maintenance
                # (see docs/EXECUTION.md, "Incremental maintenance").
                header += (
                    f"\nmaintained: {maintained} entr"
                    f"{'y' if maintained == 1 else 'ies'} patched in "
                    f"place by delta maintenance"
                )
                if fallback:
                    header += (
                        f" ({fallback} fell back to invalidation)"
                    )
        if self.decision is not None:
            scores = " ".join(
                f"{m}={s:g}"
                for m, s in sorted(self.decision["scores"].items())
            )
            header += (
                f"\nauto: chose {self.decision['mode']}"
                f" (est work {self.decision['estimated_work']:g};"
                f" scores {scores})"
            )
        if self.degraded:
            for event in self.degraded:
                header += (
                    f"\ndegraded: {event['mode']} -> {event['to']}"
                    f" ({event['error']})"
                )
        return header + "\n" + render_span_tree(self.root, wall=wall)


def explain(plan, db, mode: str = "stream", *, use_cache: bool = True,
            shards: Optional[int] = None,
            tracer: Optional[Tracer] = None) -> ExplainReport:
    """Execute ``plan`` over ``db`` with tracing on; return the report.

    ``db`` is a ``Database`` or a plain relation mapping.  Either way
    the plan runs through ``Database.run``, so EXPLAIN sees exactly
    what production sees: the auto-mode decision *and* any graceful-
    degradation fallbacks, both merged onto the root span's meta by
    ``run`` itself.  A plain mapping is loaded into a throwaway
    ``Database`` and runs result-cold (its report carries no cache
    stats); for a ``Database``, ``use_cache`` routes the run through
    its plan cache and the report carries the get/put/evict counter
    delta.  ``shards`` only matters for ``mode="sharded"`` (default:
    the executor's ``DEFAULT_SHARDS``).  Pass your own ``tracer`` to
    keep the raw span for further inspection.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    tracer = tracer if tracer is not None else Tracer()
    if not hasattr(db, "run"):
        # Imported here so `repro.obs` stays import-light (no engine
        # dependency at module import time).
        from ..engine.database import Database

        relations, db = db, Database()
        for name, relation in relations.items():
            db[name] = relation
        use_cache = False

    cache = db.plan_cache if use_cache else None
    before = cache.stats() if cache is not None else None
    result = db.run(plan, mode=mode, use_cache=use_cache, shards=shards,
                    tracer=tracer)
    # Memoized: the same decision ``run`` just used.
    decision = db.plan_mode(plan) if mode == "auto" else None
    degraded = None
    if tracer.last is not None and tracer.last.meta is not None:
        degraded = tracer.last.meta.get("degraded")
    cache_stats = None
    if cache is not None:
        after = cache.stats()
        cache_stats = {
            key: after[key] - before[key]
            for key in ("hits", "misses", "puts", "evictions")
        }
        cache_stats["entries"] = after["entries"]
        # Cumulative, not a delta: maintenance runs inside
        # ``Database.insert``, between queries — the totals say how
        # many cached entries survived writes via delta patching.
        cache_stats["maintained"] = after["maintained"]
        cache_stats["maintain_fallback"] = after["maintain_fallback"]
    return ExplainReport(
        mode=mode,
        plan=str(plan),
        rows=len(result.value),
        work=result.work,
        root=tracer.last,
        cache_stats=cache_stats,
        decision=decision.to_dict() if decision is not None else None,
        degraded=degraded,
    )
