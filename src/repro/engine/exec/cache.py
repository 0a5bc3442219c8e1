"""Semantically-keyed plan-result cache with per-relation invalidation.

Entries are keyed by :func:`~repro.engine.exec.fingerprint.semantic_cache_key`
— an interned **semantic token** (structural plan identity *plus* a
per-cache disambiguator for every named callable) and the fingerprints
of every base relation the plan reads — so a stale or aliased entry can
never be *returned*: a mutated relation changes its fingerprint, and a
``predicate_name``/``fn_name`` rebound to a different callable changes
its token.  Per-relation invalidation and the LRU cap exist to bound
*space* and keep the table dense with live entries.

The callable registry enforces what used to be an unenforced "standing
invariant" (a name identifies its semantics).  Two policies:

* ``on_alias="distinct"`` (default) — each distinct callable bound to a
  name gets its own alias ordinal, so aliased plans transparently key
  apart and both get correct answers;
* ``on_alias="error"`` — rebinding a name to a different callable
  raises :class:`CacheInvariantError`, for callers that want the old
  invariant actually checked.

Cached entries store the answer **and** the work ledger the streaming
executor would have produced, so a cache hit reports costs as if the
plan had run: the Section 4.4 cost model (``optimizer/cost.py``, the
E-OPT experiments) keeps its meaning regardless of cache state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping as TMapping, Optional

from ...optimizer.plan import Plan
from ...types.values import CVSet
from .delta import MaintainedView
from .fingerprint import annotate_plan, callable_identity, semantic_cache_key

__all__ = ["CacheEntry", "CacheInvariantError", "PlanCache", "entry_seal"]

#: Size at which :attr:`PlanCache._identity_memo` is cleared (the same
#: bound ``Database._mode_memo`` uses).
_IDENTITY_MEMO_LIMIT = 1024


class CacheInvariantError(RuntimeError):
    """A predicate/function name was rebound to a different callable
    while the cache runs in ``on_alias="error"`` mode."""


class _NotMaintainable(Exception):
    """Internal control flow for :meth:`PlanCache.maintain`: the entry
    is *expected* to invalidate (no registered plan, or the delta's
    relation feeds the right side of a difference) — a plain
    invalidation, not a maintenance fallback."""


@dataclass(frozen=True)
class CacheEntry:
    """A materialized plan result: answer, total work, per-node ledger,
    and the base relations the plan read (for invalidation).

    ``seal`` is a content fingerprint over ``(value, work, entries)``,
    stamped by :meth:`PlanCache.put` and re-checked by
    :meth:`PlanCache.get` — an entry whose contents no longer match its
    seal (a poisoned or bit-flipped entry) is dropped and served as a
    miss instead of returned.  O(1) for the value (``CVSet`` hashes are
    precomputed at construction) plus a tuple hash over the ledger.
    """

    value: CVSet
    work: int
    entries: tuple[tuple[str, int], ...]
    relations: frozenset[str]
    seal: Optional[int] = None


def entry_seal(value: CVSet, work: int, entries: tuple) -> int:
    """The content fingerprint :meth:`PlanCache.put` stamps entries with."""
    return hash((value, work, entries))


class PlanCache:
    """LRU cache of plan results with hit/miss accounting.

    ``capacity <= 0`` disables caching entirely: ``put`` is a no-op (no
    entry churn) and ``get`` always misses.
    """

    def __init__(
        self, capacity: int = 256, *, on_alias: str = "distinct"
    ) -> None:
        if on_alias not in ("distinct", "error"):
            raise ValueError(
                f"on_alias must be 'distinct' or 'error', got {on_alias!r}"
            )
        self.capacity = capacity
        self.on_alias = on_alias
        self._entries: OrderedDict = OrderedDict()
        self._by_relation: dict[str, set] = {}
        #: Interning state for semantic tokens (see ``annotate_plan``).
        self._intern: dict = {}
        #: name -> callable identity -> alias ordinal.  Identity tokens
        #: hold strong references, so a freed callable's ``id`` can
        #: never be recycled into a stale ordinal.
        self._aliases: dict[str, dict] = {}
        #: ``id(fn) -> (fn, identity)``.  Identity is computed once per
        #: callable *object*: closures may capture mutable state (e.g. a
        #: ``nonlocal`` counter), and re-deriving the identity after such
        #: state drifts would silently retire warm entries.  The stored
        #: ``fn`` keeps the object alive so its ``id`` is never reused.
        #: Cleared at ``_IDENTITY_MEMO_LIMIT`` entries: every parse
        #: builds fresh predicate lambdas, and keeping each one would
        #: grow the memo by one entry per textual query.  A callable
        #: seen again after a clear re-derives its identity, so one
        #: whose captures drifted meanwhile keys apart (a miss, or an
        #: alias error under ``on_alias="error"``), never a wrong hit.
        self._identity_memo: dict[int, tuple[Callable, object]] = {}
        #: Compiled-plan artifacts (``CompiledPlan``), a side table under
        #: the same semantic keys and per-relation invalidation as
        #: results but with its own LRU budget and counters: an artifact
        #: is a *program*, not an answer, so disabling the result cache
        #: (``use_cache=False``) must not force recompilation, and
        #: result-cache pressure must not evict hot artifacts.
        self._compiled: OrderedDict = OrderedDict()
        self._compiled_by_relation: dict[str, set] = {}
        self.compiled_capacity = max(capacity, 0)
        self.compiled_hits = 0
        self.compiled_misses = 0
        self.compiled_puts = 0
        self.compiled_evictions = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.invalidations = 0
        #: Entries dropped because their contents no longer matched
        #: their seal (see :func:`entry_seal`).
        self.corruptions = 0
        #: Entries patched in place by :meth:`maintain` (semi-naive
        #: delta maintenance) instead of being invalidated.
        self.maintained = 0
        #: Maintenance attempts that failed and fell back to
        #: invalidation (the entry recomputes cold on its next use).
        self.maintain_fallback = 0
        #: ``False`` restores the pre-maintenance behaviour: every
        #: insert invalidates.  The fuzz ``delta`` scenario's twin
        #: database and ``tests/engine/test_delta.py`` use it as the
        #: reference that maintained answers are compared against.
        self.maintenance_enabled = True
        #: ``key -> MaintainedView`` for entries whose plan was handed
        #: to :meth:`put`; the delta-maintenance side table.
        self._views: dict = {}
        #: Optional :class:`~repro.robustness.faults.FaultInjector`
        #: whose ``cache`` site tampers entries on ``get`` — the test
        #: adversary for the seal revalidation above.  ``None`` (the
        #: default) costs one attribute check per hit.
        self.fault_injector = None

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Semantic keys.

    def _tag(self, name: str, fn: Callable) -> tuple[str, int]:
        """The alias ordinal of ``fn`` under ``name`` in this cache."""
        memoized = self._identity_memo.get(id(fn))
        if memoized is None:
            identity = callable_identity(fn)
            if len(self._identity_memo) >= _IDENTITY_MEMO_LIMIT:
                self._identity_memo.clear()
            self._identity_memo[id(fn)] = (fn, identity)
        else:
            identity = memoized[1]
        bindings = self._aliases.setdefault(name, {})
        ordinal = bindings.get(identity)
        if ordinal is None:
            if bindings and self.on_alias == "error":
                raise CacheInvariantError(
                    f"name {name!r} is already bound to a different "
                    f"callable in this cache; aliasing a predicate/"
                    f"function name breaks result reuse "
                    f"(on_alias='error')"
                )
            ordinal = len(bindings)
            bindings[identity] = ordinal
        return (name, ordinal)

    def annotate(self, plan: Plan) -> dict[int, tuple[int, frozenset]]:
        """Semantic token + base relations for every subtree of ``plan``
        (``id(node) -> (token, relations)``), interned against this
        cache's registry so tokens are stable across executions."""
        return annotate_plan(plan, self._intern, self._tag)

    def key_for(self, plan: Plan, db: TMapping[str, CVSet]):
        token, relations = self.annotate(plan)[id(plan)]
        return semantic_cache_key(token, relations, db)

    # ------------------------------------------------------------------
    # Storage.

    def get(self, key) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if self.fault_injector is not None:
            entry = self.fault_injector.tamper_entry(entry)
        if entry.seal is not None and entry.seal != entry_seal(
            entry.value, entry.work, entry.entries
        ):
            # Revalidation failed: the entry's contents drifted from
            # the fingerprint stamped at put time.  Never return it —
            # drop the stored entry and report a miss, so the caller
            # recomputes and re-puts a clean one.
            self.corruptions += 1
            self._discard(key)
            self.misses += 1
            from ...obs.metrics import counter

            counter("robustness.cache.corruption_detected")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def _discard(self, key) -> None:
        """Drop one entry and its relation back-pointers (no counters)."""
        self._views.pop(key, None)
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for name in entry.relations:
            keys = self._by_relation.get(name)
            if keys is not None:
                keys.discard(key)

    def put(self, key, entry: CacheEntry, plan: Plan = None) -> None:
        """Store ``entry`` under ``key``.

        ``plan`` (when the caller has the plan node the entry
        materializes) registers the entry for semi-naive delta
        maintenance: later inserts may patch it in place via
        :meth:`maintain` instead of invalidating it."""
        if self.capacity <= 0:
            return
        self.puts += 1
        if plan is not None:
            self._views[key] = MaintainedView(plan)
        else:
            self._views.pop(key, None)
        if entry.seal is None:
            entry = CacheEntry(
                entry.value,
                entry.work,
                entry.entries,
                entry.relations,
                entry_seal(entry.value, entry.work, entry.entries),
            )
        old = self._entries.pop(key, None)
        if old is not None:
            # Re-put refreshes the entry (and its LRU position); drop
            # relation back-pointers the new entry no longer needs.
            for name in old.relations - entry.relations:
                keys = self._by_relation.get(name)
                if keys is not None:
                    keys.discard(key)
        self._entries[key] = entry
        for name in entry.relations:
            self._by_relation.setdefault(name, set()).add(key)
        while len(self._entries) > self.capacity:
            evicted_key, evicted = self._entries.popitem(last=False)
            self.evictions += 1
            self._views.pop(evicted_key, None)
            for name in evicted.relations:
                keys = self._by_relation.get(name)
                if keys is not None:
                    keys.discard(evicted_key)

    # ------------------------------------------------------------------
    # Compiled artifacts (see ``repro.engine.exec.compile``).

    def get_compiled(self, key):
        """Look up a memoized :class:`CompiledPlan` artifact."""
        artifact = self._compiled.get(key)
        if artifact is None:
            self.compiled_misses += 1
            return None
        self._compiled.move_to_end(key)
        self.compiled_hits += 1
        return artifact

    def put_compiled(self, key, artifact) -> None:
        """Memoize a compiled artifact under its semantic key."""
        if self.compiled_capacity <= 0:
            return
        self.compiled_puts += 1
        old = self._compiled.pop(key, None)
        if old is not None:
            for name in old.relations - artifact.relations:
                keys = self._compiled_by_relation.get(name)
                if keys is not None:
                    keys.discard(key)
        self._compiled[key] = artifact
        for name in artifact.relations:
            self._compiled_by_relation.setdefault(name, set()).add(key)
        while len(self._compiled) > self.compiled_capacity:
            evicted_key, evicted = self._compiled.popitem(last=False)
            self.compiled_evictions += 1
            for name in evicted.relations:
                keys = self._compiled_by_relation.get(name)
                if keys is not None:
                    keys.discard(evicted_key)

    def compiled_stats(self) -> dict:
        return {
            "hits": self.compiled_hits,
            "misses": self.compiled_misses,
            "puts": self.compiled_puts,
            "evictions": self.compiled_evictions,
            "entries": len(self._compiled),
            "capacity": self.compiled_capacity,
        }

    def invalidate(self, relation: Optional[str] = None) -> None:
        """Drop every entry reading ``relation`` (or everything).

        ``invalidations`` counts dropped *entries*, not calls — an
        invalidate that touches nothing is free and counts nothing."""
        if relation is None:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._by_relation.clear()
            self._views.clear()
            self._compiled.clear()
            self._compiled_by_relation.clear()
            self._intern.clear()
            self._aliases.clear()
            self._identity_memo.clear()
            return
        for key in self._compiled_by_relation.pop(relation, ()):
            artifact = self._compiled.pop(key, None)
            if artifact is None:
                continue
            for name in artifact.relations:
                if name != relation:
                    keys = self._compiled_by_relation.get(name)
                    if keys is not None:
                        keys.discard(key)
        for key in self._by_relation.pop(relation, ()):
            entry = self._entries.pop(key, None)
            self._views.pop(key, None)
            if entry is None:
                continue
            self.invalidations += 1
            for name in entry.relations:
                if name != relation:
                    keys = self._by_relation.get(name)
                    if keys is not None:
                        keys.discard(key)

    def maintain(self, relation: str, delta_rows, db) -> None:
        """Absorb an insert of ``delta_rows`` into ``relation``:
        patch every maintainable cached entry in place (semi-naive
        delta propagation, re-keyed under the relation's new
        fingerprint, fresh seal), invalidate the rest.

        The fallback contract: *any* failure while maintaining an
        entry — an opaque node, a right-side difference delta, an
        injected ``"maintenance"`` fault, an unexpected exception —
        drops that entry exactly as :meth:`invalidate` would, counts
        ``maintain_fallback``, and bumps the
        ``robustness.maintenance.fallback`` metrics counter.  The next
        query recomputes cold, so correctness can never regress.

        Compiled artifacts always invalidate: they bind relation
        contents at compile time, so there is nothing to patch.
        """
        if not self.maintenance_enabled:
            self.invalidate(relation)
            return
        # Compiled artifacts for the relation: same drop as invalidate.
        for key in self._compiled_by_relation.pop(relation, ()):
            artifact = self._compiled.pop(key, None)
            if artifact is None:
                continue
            for name in artifact.relations:
                if name != relation:
                    keys = self._compiled_by_relation.get(name)
                    if keys is not None:
                        keys.discard(key)
        touched = self._by_relation.pop(relation, None)
        if not touched:
            return
        from ...obs.metrics import counter

        for key in list(touched):
            entry = self._entries.get(key)
            if entry is None:
                continue
            view = self._views.get(key)
            try:
                if view is None or not view.maintainable_for(relation):
                    raise _NotMaintainable()
                if self.fault_injector is not None:
                    self.fault_injector.maybe_raise("maintenance", relation)
                view.apply(relation, delta_rows, db)
                value, work, entries = view.result()
            except _NotMaintainable:
                self._drop_maintained(key, entry, relation)
                self.invalidations += 1
                continue
            except Exception:
                # Degradation, not failure: fall back to the legacy
                # invalidate-then-recompute path for this entry.
                self._drop_maintained(key, entry, relation)
                self.invalidations += 1
                self.maintain_fallback += 1
                counter("robustness.maintenance.fallback")
                continue
            new_key = semantic_cache_key(key[0], entry.relations, db)
            self._drop_maintained(key, entry, relation)
            patched = CacheEntry(
                value,
                work,
                entries,
                entry.relations,
                entry_seal(value, work, entries),
            )
            self._entries[new_key] = patched
            for name in patched.relations:
                self._by_relation.setdefault(name, set()).add(new_key)
            self._views[new_key] = view
            self.maintained += 1
            counter("cache.maintained")

    def _drop_maintained(self, key, entry: CacheEntry, relation: str) -> None:
        """Remove ``key`` during :meth:`maintain` (the ``relation``
        back-pointer set is already popped)."""
        self._entries.pop(key, None)
        self._views.pop(key, None)
        for name in entry.relations:
            if name != relation:
                keys = self._by_relation.get(name)
                if keys is not None:
                    keys.discard(key)

    def clear(self) -> None:
        self.invalidate(None)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.invalidations = 0
        self.corruptions = 0
        self.maintained = 0
        self.maintain_fallback = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "puts": self.puts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "corruptions": self.corruptions,
            "maintained": self.maintained,
            "maintain_fallback": self.maintain_fallback,
            "entries": len(self._entries),
            "views": len(self._views),
            "capacity": self.capacity,
        }

    def __repr__(self) -> str:
        return (
            f"PlanCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
