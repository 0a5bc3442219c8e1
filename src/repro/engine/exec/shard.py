"""Sharded partition-parallel execution (``mode="sharded"``).

The paper's genericity classes license horizontal decomposition: a
mapping generic under domain permutations commutes with any disjoint
repartitioning of its inputs, so a plan can be evaluated shard-by-shard
and merged without changing its meaning (Section 3).  This module turns
that license into an executor with the same observable contract as
every other mode — the merged value, total work, and per-node ledger
are **byte-identical** to a serial streaming run.

How the contract is kept:

* **Partition analysis** (:func:`plan_partitioning`) walks the plan
  against :data:`~repro.optimizer.rules.NODE_PARTITIONABILITY`,
  propagating *demands* top-down: an equi-join demands its inputs
  hash-partitioned on the first join pair (so every candidate pair is
  co-located and cross-shard probes vanish), set operations demand
  whole-tuple co-partition (``L_i - R_i = (L - R)_i``), key-preserving
  projections translate a column demand through their column map, and
  key-free monotone operators fall back to round-robin.  Every base
  relation ends up with one partition scheme; conflicting demands, key
  -free joins, products, non-injective interior maps, or plans too deep
  to analyze make the plan **non-partitionable** and it runs
  single-shard (which *is* serial streaming, so the contract holds
  trivially).

* **Work accounting.**  All per-operator charges in the reference cost
  model are weights of operator *inputs* (plus co-located join probes),
  and the analysis guarantees every interior operator's per-shard
  output is an exact restriction of its serial output to the shard's
  partition class.  Disjoint inputs sum to the serial input, so every
  ledger entry sums across shards to the serial entry — the partition
  and merge steps move rows but never duplicate or drop a charge, and
  are accounted at exactly zero additional work.

* **Merge.**  Shard results come back through the existing
  :func:`~repro.parallel.runner.parallel_map` ProcessPool harness in
  shard order (ordered merge); the value is the union of per-shard
  values (dedup is safe — only the plan root may emit overlapping
  shard outputs), the ledger is the position-wise sum of the per-shard
  ledgers (all shards run the same plan, so the skeletons agree), and
  worker ``MetricsRegistry`` deltas merge via ``merge_metrics=True``.
  Plans carrying unpicklable callables run their shards in-process
  through the same code path — byte-identical either way.

* **Caching.**  Each shard worker runs against a fresh shard-local
  :class:`PlanCache`, so semantic keys fold the *shard's* relation
  fingerprints (shard-local CSE and alias checking); the merged result
  is stored in the caller's cache under the full-database semantic key,
  exactly as streaming would store it, so warm hits and delta
  maintenance behave identically across modes.

* **Faults.**  The ``"shard"`` fault site models worker loss mid-shard:
  the injector draws once per shard before dispatch, and an injected
  fault escapes to ``Database.run``, which re-runs the query on the
  reference interpreter.
"""

from __future__ import annotations

import pickle
from typing import Mapping as TMapping, Optional

from ...obs.metrics import counter
from ...obs.trace import Span, Tracer
from ...optimizer.plan import (
    Difference,
    ExecutionResult,
    Intersect,
    Join,
    MapNode,
    Plan,
    Project,
    Scan,
    Select,
    Union,
)
from ...optimizer.rules import NODE_PARTITIONABILITY, NON_PARTITIONABLE
from ...types.values import CVSet
from .cache import CacheEntry, PlanCache
from .compile import plan_depth
from .fingerprint import semantic_cache_key
from .executor import MAX_PIPELINE_DEPTH, execute_streaming
from .operators import node_label

__all__ = ["NotPartitionable", "execute_sharded", "plan_partitioning"]

#: Default shard count when ``Database.run(mode="sharded")`` is called
#: without ``shards=``; small enough that partitioning overhead stays
#: negligible, large enough to win on multi-core boxes.
DEFAULT_SHARDS = 4

# Demands the analysis pushes down (see module docstring).  A demand
# says what the *parent* needs of a node's output partition:
_ANY = ("any",)          # plan root: overlap allowed, value merge dedups
_DISJOINT = ("disjoint",)  # each tuple in exactly one shard
_TUPLE = ("tuple",)      # hash-partitioned on the whole tuple (aligned)
# ("col", i)             # hash-partitioned on column i (aligned)


class NotPartitionable(Exception):
    """The plan admits no ledger-preserving partition; run single-shard."""


def _merge_scheme(old, new):
    """Combine two partition demands on the same base relation.

    Round-robin is the weakest (any disjoint split) and yields to any
    keyed scheme; two different keyed schemes would need the relation
    stored two ways, which a single shard database cannot do."""
    if old is None or old == new:
        return new
    if old == ("rr",):
        return new
    if new == ("rr",):
        return old
    raise NotPartitionable(
        f"conflicting partition demands {old} vs {new}"
    )


def _analyze(node: Plan, demand, schemes: dict) -> None:
    kind = NODE_PARTITIONABILITY.get(type(node), (NON_PARTITIONABLE,))[0]
    if kind == NON_PARTITIONABLE:
        raise NotPartitionable(f"{node_label(node)} is non-partitionable")
    if isinstance(node, Scan):
        if demand[0] == "col":
            scheme = ("col", demand[1])
        elif demand[0] == "tuple":
            scheme = _TUPLE
        else:
            scheme = ("rr",)
        schemes[node.relation] = _merge_scheme(
            schemes.get(node.relation), scheme
        )
        return
    if isinstance(node, Select):
        # Selection preserves any input partition; its weight charge
        # needs a disjoint input even at the root.
        _analyze(node.child, _DISJOINT if demand == _ANY else demand,
                 schemes)
        return
    if isinstance(node, Project):
        if demand[0] == "col":
            position = demand[1]
            if position >= len(node.columns):
                raise NotPartitionable("projection drops the demanded key")
            _analyze(node.child, ("col", node.columns[position]), schemes)
            return
        if demand == _TUPLE:
            # Whole-tuple alignment of a projection would need a
            # partition on the projected image, which no base scheme
            # expresses.
            raise NotPartitionable("projection cannot align whole-tuple")
        if demand == _ANY:
            # Root projection: shards may emit overlapping projected
            # tuples; the value merge dedups and the weight charge only
            # needs the *input* disjoint.
            _analyze(node.child, _DISJOINT, schemes)
            return
        # Disjoint output: keep all preimages of a projected tuple in
        # one shard by partitioning on a surviving column.  Any column
        # in the map works; take the first that resolves below.
        failure = None
        for column in dict.fromkeys(node.columns):
            attempt = dict(schemes)
            try:
                _analyze(node.child, ("col", column), attempt)
            except NotPartitionable as exc:
                failure = exc
                continue
            schemes.clear()
            schemes.update(attempt)
            return
        raise failure if failure is not None else NotPartitionable(
            "projection with no columns cannot stay disjoint"
        )
    if isinstance(node, MapNode):
        if demand[0] in ("col", "tuple"):
            raise NotPartitionable("no key survives an opaque function")
        if demand == _DISJOINT and not node.injective:
            raise NotPartitionable(
                "non-injective map may emit one tuple from two shards"
            )
        _analyze(node.child, _DISJOINT, schemes)
        return
    if isinstance(node, Union):
        if demand == _ANY:
            # Root union: each side only needs its own disjointness;
            # cross-side overlap dedups in the value merge.
            _analyze(node.left, _DISJOINT, schemes)
            _analyze(node.right, _DISJOINT, schemes)
            return
        child = demand if demand[0] == "col" else _TUPLE
        _analyze(node.left, child, schemes)
        _analyze(node.right, child, schemes)
        return
    if isinstance(node, (Difference, Intersect)):
        # Membership probes need both sides aligned regardless of what
        # the parent wants: L_i - R_i = (L - R)_i only when the same
        # partition function drives both sides.
        child = demand if demand[0] == "col" else _TUPLE
        _analyze(node.left, child, schemes)
        _analyze(node.right, child, schemes)
        return
    if isinstance(node, Join):
        if not node.on:
            raise NotPartitionable("key-free join is a cross product")
        left_key, right_key = node.on[0]
        if demand[0] == "col" and demand[1] != left_key:
            raise NotPartitionable(
                "join output is aligned on its first join column only"
            )
        if demand == _TUPLE:
            raise NotPartitionable("join cannot align whole-tuple")
        _analyze(node.left, ("col", left_key), schemes)
        _analyze(node.right, ("col", right_key), schemes)
        return
    raise NotPartitionable(f"no partition rule for {type(node).__name__}")


def plan_partitioning(plan: Plan) -> dict[str, tuple]:
    """Partition scheme per base relation, or raise :class:`NotPartitionable`.

    Schemes are ``("col", i)`` (hash of column ``i``), ``("tuple",)``
    (hash of the whole tuple) or ``("rr",)`` (round-robin — any
    disjoint split works).
    """
    if plan_depth(plan) > MAX_PIPELINE_DEPTH:
        # The analysis is recursive like the rewriter; past the
        # pipeline cut streaming materializes anyway and sharding deep
        # chains has no parallelism to win.
        raise NotPartitionable("plan too deep to analyze")
    schemes: dict[str, tuple] = {}
    _analyze(plan, _ANY, schemes)
    return schemes


def _partition_relations(
    relations: TMapping[str, CVSet], schemes: dict, shards: int
) -> list[dict[str, CVSet]]:
    """Build one relation mapping per shard.  Only relations the plan
    scans are shipped; a missing relation stays missing so per-shard
    execution raises exactly what serial execution would."""
    shard_dbs: list[dict[str, CVSet]] = [{} for _ in range(shards)]
    for name, scheme in schemes.items():
        relation = relations.get(name)
        if relation is None:
            continue
        parts: list[set] = [set() for _ in range(shards)]
        if scheme == ("rr",):
            for i, row in enumerate(relation):
                parts[i % shards].add(row)
        elif scheme == _TUPLE:
            for row in relation:
                parts[hash(row) % shards].add(row)
        else:
            column = scheme[1]
            for row in relation:
                try:
                    key = row[column]
                except (TypeError, IndexError) as exc:
                    # Atom rows / short tuples admit no column key.
                    raise NotPartitionable(
                        f"rows of {name!r} have no column {column}"
                    ) from exc
                parts[hash(key) % shards].add(row)
        for k in range(shards):
            shard_dbs[k][name] = CVSet(parts[k])
    return shard_dbs


def _run_shard(payload):
    """Worker: run the plan over one shard's relations.

    Top-level so the ProcessPool can pickle it.  The fresh
    :class:`PlanCache` gives the shard its own semantic keys folded
    over the *shard's* relation fingerprints (shard-local CSE and
    alias validation)."""
    plan, relations = payload
    return execute_streaming(plan, relations, cache=PlanCache())


def _shippable(plan: Plan, shard_dbs) -> bool:
    """Whether the per-shard payloads survive pickling (plans carrying
    lambda predicates do not; they run their shards in-process)."""
    try:
        pickle.dumps((plan, shard_dbs[0]))
    except Exception:
        return False
    return True


def _scheme_text(scheme: tuple) -> str:
    if scheme == ("rr",):
        return "round-robin"
    if scheme == _TUPLE:
        return "hash(tuple)"
    return f"hash(col{scheme[1]})"


def execute_sharded(
    plan: Plan,
    db: TMapping[str, CVSet],
    *,
    shards: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: Optional[PlanCache] = None,
    key_index=None,
    relation_stats=None,
    tracer: Optional[Tracer] = None,
    fault_injector=None,
) -> ExecutionResult:
    """Evaluate ``plan`` shard-by-shard; byte-identical to streaming.

    ``shards=None`` uses :data:`DEFAULT_SHARDS`; ``jobs`` caps the
    worker processes (default: one per shard).  ``key_index`` and
    ``relation_stats`` are accepted for executor-signature symmetry;
    shard databases carry no maintained indexes, which only changes
    *how* joins build, never the rows, work, or ledger.
    """
    shards = DEFAULT_SHARDS if shards is None else shards
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")

    if cache is not None:
        token, base_relations = cache.annotate(plan)[id(plan)]
        key = semantic_cache_key(token, base_relations, db)
        entry = cache.get(key)
        if entry is not None:
            if tracer is not None:
                root = Span(node_label(plan))
                root.work = entry.work
                root.rows = len(entry.value)
                root.cache = "hit"
                root.merge_meta({"sharded": {"shards": shards,
                                             "partition": "cache-hit"}})
                tracer.record(root)
            return ExecutionResult(
                entry.value, entry.work, list(entry.entries)
            )

    single_reason = None
    shard_dbs = None
    schemes: dict[str, tuple] = {}
    if shards == 1:
        single_reason = "shards=1"
    else:
        try:
            schemes = plan_partitioning(plan)
            shard_dbs = _partition_relations(db, schemes, shards)
        except NotPartitionable as exc:
            single_reason = str(exc)

    if single_reason is not None:
        # Single-shard is serial streaming: the contract holds by
        # construction.  The caller's cache is used directly, so the
        # root get/put happens inside the streaming run.
        counter("shard.single_fallback")
        result = execute_streaming(
            plan,
            db,
            cache=cache,
            key_index=key_index,
            tracer=tracer,
            fault_injector=fault_injector,
        )
        if tracer is not None and tracer.last is not None:
            tracer.last.merge_meta({"sharded": {
                "shards": 1,
                "requested": shards,
                "partition": "single",
                "reason": single_reason,
            }})
        return result

    if fault_injector is not None:
        # Worker loss mid-shard: one draw per shard, in shard order,
        # before any work is dispatched — replayable, and an injected
        # fault escapes into Database.run's reference fallback.
        for k in range(shards):
            fault_injector.maybe_raise("shard", f"shard[{k}]")

    payloads = [(plan, shard_dbs[k]) for k in range(shards)]
    workers = shards if jobs is None else max(1, min(jobs, shards))
    parallel = workers > 1 and _shippable(plan, shard_dbs)
    if parallel:
        from ...parallel.runner import parallel_map

        results = parallel_map(
            _run_shard, payloads, jobs=workers, chunk_size=1,
            merge_metrics=True,
        )
    else:
        results = [_run_shard(payload) for payload in payloads]

    skeleton = [label for label, _ in results[0].per_node]
    for result in results[1:]:
        if [label for label, _ in result.per_node] != skeleton:
            # Shards run the same plan through the same code paths, so
            # skeletons agree by construction; anything else is a bug
            # we refuse to merge.  Recompute serially — still correct.
            counter("shard.skeleton_mismatch")
            return execute_streaming(
                plan, db, cache=cache, key_index=key_index,
                tracer=tracer, fault_injector=fault_injector,
            )

    value = CVSet(row for result in results for row in result.value)
    entries = [
        (label, sum(result.per_node[pos][1] for result in results))
        for pos, label in enumerate(skeleton)
    ]
    work = sum(result.work for result in results)
    counter("shard.runs")

    if cache is not None:
        cache.put(
            key,
            CacheEntry(value, work, tuple(entries), base_relations),
            plan=plan,
        )

    if tracer is not None:
        root = Span(node_label(plan))
        root.work = work
        root.rows = len(value)
        if cache is not None:
            root.cache = "miss"
        root.merge_meta({"sharded": {
            "shards": shards,
            "parallel": parallel,
            "partition": {
                name: _scheme_text(scheme)
                for name, scheme in sorted(schemes.items())
            },
            "per_shard": [
                {"shard": k, "rows": len(result.value),
                 "work": result.work}
                for k, result in enumerate(results)
            ],
        }})
        tracer.record(root)

    return ExecutionResult(value, work, entries)
