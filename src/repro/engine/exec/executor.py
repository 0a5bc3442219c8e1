"""The streaming plan executor.

Replaces the tuple-at-a-time recursive interpreter
(:func:`repro.optimizer.plan.execute_reference`) with a physical
pipeline:

* **Pipelining** — unary operators and ``Union`` stream tuple by tuple;
  a single pass flows from the scans to the root with no intermediate
  ``CVSet`` construction (no re-hashing whole relations at every level).
  Materialization happens only at pipeline breakers: hash-build sides of
  ``Difference``/``Intersect``/``Product``/``Join``, and the root.
* **Common-subexpression elimination** — subtrees with the same
  *semantic token* (structural equality **and** identical callables —
  see :func:`~repro.engine.exec.fingerprint.annotate_plan`) are detected
  up front; a repeated subtree executes once and later occurrences
  replay its materialized result.  Its work ledger is *spliced* per
  occurrence, so reported work is exactly what the reference
  interpreter charges.  Keying on semantic tokens (not bare structural
  equality) means two same-named selections backed by different
  predicates are never conflated.
* **Result caching** — with a :class:`~repro.engine.exec.cache.PlanCache`
  attached, every non-``Scan`` node consults the cache (keyed by
  semantic token + base-relation fingerprints) before compiling, and
  every node that gets materialized anyway (root, CSE duplicates, hash
  build sides) populates it.  The invariance/classification experiments
  re-run identical sub-plans thousands of times; hits skip execution
  entirely while still reporting as-if-executed work.
* **Index reuse** — single-pair joins whose build side is a bare scan
  can borrow the database's incrementally-maintained secondary hash
  index instead of rebuilding it per query (``key_index`` hook).
* **Deep-plan safety** — plan compilation is an explicit-stack
  traversal (no recursion), and pipelines deeper than
  :data:`MAX_PIPELINE_DEPTH` are cut by forced materialization, so the
  runtime generator chain stays shallow.  Plans thousands of operators
  deep execute without ``RecursionError``; the extra materialization
  points are invisible in the results (value, work, and ledger are
  unchanged — materialized subtrees splice their ledgers exactly like
  CSE hits do).

The executor's contract, enforced by the equivalence property tests and
the differential fuzz harness (:mod:`repro.engine.fuzz`): identical
``CVSet`` answer, identical total work, and identical per-node ledger
(same labels, same postorder) as the reference interpreter, for every
plan over every database.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Iterator, Mapping as TMapping, Optional

from ...optimizer.plan import (
    Difference,
    ExecutionResult,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
    tuple_weight,
)
from ...obs.trace import Span, Tracer
from ...types.values import CVSet, Value
from .cache import CacheEntry, PlanCache
from .fingerprint import annotate_plan, semantic_cache_key
from .operators import (
    Frame,
    collect_frame,
    difference_gen,
    intersect_gen,
    join_gen,
    map_gen,
    node_label,
    product_gen,
    project_gen,
    select_gen,
    traced_gen,
    union_gen,
)

__all__ = ["execute_streaming", "MAX_PIPELINE_DEPTH"]

_EMPTY = CVSet()

#: ``key_index(name, columns)`` returns ``(index, relation_weight)`` for
#: a maintained secondary hash index, or ``None`` when unavailable.
KeyIndex = Callable[[str, tuple[int, ...]], Optional[tuple[dict, int]]]

#: Longest chain of lazily-nested generators allowed before the
#: executor cuts the pipeline with a materialization point.  Each
#: pipelined operator adds one resumed generator frame per pulled
#: tuple, so unbounded chains hit Python's recursion limit around
#: depth ~600; 128 keeps the runtime stack comfortably shallow while
#: leaving ordinary plans fully pipelined.
MAX_PIPELINE_DEPTH = 128

# Work-item tags for the explicit compile stack.
_VISIT, _COMBINE = 0, 1
# Combine flavors.
_GENERIC, _BULK, _PREBUILT = 0, 1, 2


def _finish_spans(root_frame: Frame, spans: dict[int, Span]) -> Span:
    """Build the span tree mirroring a completed frame tree.

    Spans created during execution (rows, cache, source annotations)
    are reused; frames the operators created internally (bulk-path and
    index-path scan children) get plain spans.  Work is copied from the
    frames: a spliced frame's span carries the stored subtree's as-if
    work, so span works always sum to the execution total.
    """
    stack = [root_frame]
    while stack:
        frame = stack.pop()
        span = spans.get(id(frame))
        if span is None:
            span = spans[id(frame)] = Span(frame.label)
        span.work = frame.spliced[0] if frame.spliced else frame.work
        for child in frame.children:
            child_span = spans.get(id(child))
            if child_span is None:
                child_span = spans[id(child)] = Span(child.label)
            span.children.append(child_span)
            stack.append(child)
    return spans[id(root_frame)]


def execute_streaming(
    plan: Plan,
    db: TMapping[str, CVSet],
    *,
    cache: Optional[PlanCache] = None,
    key_index: Optional[KeyIndex] = None,
    tracer: Optional[Tracer] = None,
    fault_injector=None,
) -> ExecutionResult:
    """Evaluate ``plan`` over ``db`` with the streaming engine.

    Returns an :class:`ExecutionResult` identical (value, work,
    per-node ledger) to :func:`repro.optimizer.plan.execute_reference`.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records a span
    tree — one span per plan-node occurrence, with rows, work, cache
    and shortcut annotations.  ``None`` (the default) is the zero-
    overhead path; tracing never changes the result or the cache
    contents (see ``docs/OBSERVABILITY.md``).

    ``fault_injector`` (a :class:`~repro.robustness.faults.
    FaultInjector`) draws a seeded ``"operator"`` fault per physical
    operator wired — the chaos adversary for the reference fallback in
    :meth:`~repro.engine.database.Database.run`.  ``None`` (the
    default) costs one ``is not None`` check per operator.  Faults are
    drawn *before* the operator is wired, so a failed execution never
    records spans or pollutes the cache with partial results.
    """
    if cache is not None:
        # Shared interning: tokens (and alias ordinals) are stable
        # across executions, so warm lookups hit.
        info = cache.annotate(plan)
    else:
        # Local interning: ``id`` disambiguators are safe here because
        # the plan keeps every callable alive for the whole call.
        info = annotate_plan(plan, {}, lambda name, fn: (name, id(fn)))

    counts: Counter = Counter()
    walk = [plan]
    while walk:
        node = walk.pop()
        counts[info[id(node)][0]] += 1
        walk.extend(node.children())

    memo: dict[int, CacheEntry] = {}
    # id(frame) -> Span; None is the zero-overhead disabled path.
    spans: Optional[dict[int, Span]] = {} if tracer is not None else None

    def entry_key(node: Plan):
        token, relations = info[id(node)]
        return semantic_cache_key(token, relations, db)

    def _prebuilt_join_index(node: Join) -> Optional[tuple[dict, int]]:
        if (
            key_index is None
            or len(node.on) != 1
            or not isinstance(node.right, Scan)
        ):
            return None
        right_cols = tuple(j for _, j in node.on)
        return key_index(node.right.relation, right_cols)

    def _bulk_set_op(node: Plan, frame: Frame) -> Iterator[Value]:
        """Set operation over two bare scans: both inputs are already
        materialized, so a C-level frozenset op beats any per-tuple
        Python loop.  Work and ledger are charged exactly as the
        streaming operators would — via :func:`tuple_weight`, so
        atom-valued relations weigh 1 per atom instead of raising
        ``TypeError``."""
        left = db.get(node.left.relation, _EMPTY)
        right = db.get(node.right.relation, _EMPTY)
        frame.children.append(Frame(node_label(node.left)))
        frame.children.append(Frame(node_label(node.right)))
        frame.work += sum(tuple_weight(t) for t in left) + sum(
            tuple_weight(t) for t in right
        )
        if isinstance(node, Union):
            return iter(left.union(right))
        if isinstance(node, Difference):
            return iter(left.difference(right))
        return iter(left.intersection(right))

    # ------------------------------------------------------------------
    # Explicit-stack compilation: VISIT items run the pre-order steps
    # (frame creation, memo/cache lookup, fast-path dispatch); COMBINE
    # items run after a node's children compiled and wire the physical
    # operator, deciding materialization.  ``out`` holds each compiled
    # (iterator, pipeline-depth) pair; depth 1 means "materialized".

    out: list[tuple[Iterator[Value], int]] = []
    root_frame: Optional[Frame] = None
    # item: (_VISIT, node, parent_frame, build_side, top)
    #     | (_COMBINE, node, frame, build_side, top, flavor, extra)
    stack: list[tuple] = [(_VISIT, plan, None, False, True)]

    while stack:
        item = stack.pop()
        if item[0] == _VISIT:
            _, node, parent, build_side, top = item
            if not isinstance(node, Plan):
                raise TypeError(f"unknown plan node: {node!r}")
            frame = Frame(node_label(node))
            if parent is not None:
                parent.children.append(frame)
            else:
                root_frame = frame
            if isinstance(node, Scan):
                relation = db.get(node.relation, _EMPTY)
                if spans is not None:
                    span = spans[id(frame)] = Span(frame.label)
                    span.rows = len(relation)
                out.append((iter(relation), 1))
                continue
            token = info[id(node)][0]
            entry = memo.get(token)
            from_memo = entry is not None
            if entry is None and cache is not None:
                entry = cache.get(entry_key(node))
                if entry is not None:
                    memo[token] = entry
            if entry is not None:
                frame.spliced = (entry.work, entry.entries)
                if spans is not None:
                    span = spans[id(frame)] = Span(frame.label)
                    span.rows = len(entry.value)
                    span.cache = "cse" if from_memo else "hit"
                out.append((iter(entry.value), 1))
                continue
            if spans is not None:
                span = spans[id(frame)] = Span(frame.label)
                if cache is not None:
                    span.cache = "miss"
            if isinstance(node, (Union, Difference, Intersect)) and (
                type(node.left) is Scan and type(node.right) is Scan
            ):
                stack.append(
                    (_COMBINE, node, frame, build_side, top, _BULK, None)
                )
                continue
            if isinstance(node, Join):
                prebuilt = _prebuilt_join_index(node)
                if prebuilt is not None:
                    stack.append(
                        (
                            _COMBINE, node, frame, build_side, top,
                            _PREBUILT, prebuilt,
                        )
                    )
                    stack.append((_VISIT, node.left, frame, False, False))
                    continue
            stack.append(
                (_COMBINE, node, frame, build_side, top, _GENERIC, None)
            )
            children = node.children()
            if isinstance(node, (Difference, Intersect, Product, Join)):
                flags: tuple[bool, ...] = (False, True)
            else:
                flags = (False,) * len(children)
            for child, flag in reversed(tuple(zip(children, flags))):
                stack.append((_VISIT, child, frame, flag, False))
            continue

        # _COMBINE
        _, node, frame, build_side, top, flavor, extra = item
        if fault_injector is not None:
            fault_injector.maybe_raise("operator", node_label(node))
        if flavor == _BULK:
            children_depth = 0
            inputs: list[Iterator[Value]] = []
        elif flavor == _PREBUILT:
            left_iter, left_depth = out.pop()
            # Log the scan child for ledger parity with the reference
            # even though it is never re-read.
            frame.children.append(Frame(node_label(node.right)))
            children_depth = left_depth
            inputs = [left_iter]
        else:
            children = node.children()
            n = len(children)
            compiled = out[-n:]
            del out[-n:]
            children_depth = max((d for _, d in compiled), default=0)
            inputs = [it for it, _ in compiled]
        depth = 1 + children_depth

        token = info[id(node)][0]
        materialize = (
            counts[token] > 1
            or (build_side and cache is not None)
            or depth > MAX_PIPELINE_DEPTH
        )
        # Emit-dedup is redundant where the consumer is a ``CVSet``
        # constructor (materialization points and the root): the set
        # build dedups anyway, so skip the per-tuple seen-set there.
        dedup = not (materialize or top)

        if flavor == _BULK:
            gen = _bulk_set_op(node, frame)
            if spans is not None:
                spans[id(frame)].source = "bulk"
                # The scan children were charged but never streamed;
                # report their sizes like ordinary visited scans.
                for child_frame, scan_node in zip(
                    frame.children[-2:], (node.left, node.right)
                ):
                    child_span = Span(child_frame.label)
                    child_span.rows = len(
                        db.get(scan_node.relation, _EMPTY)
                    )
                    spans[id(child_frame)] = child_span
        elif flavor == _PREBUILT:
            gen = join_gen(
                node.on, inputs[0], iter(()), frame,
                prebuilt=extra, dedup=dedup,
            )
            if spans is not None:
                spans[id(frame)].source = "index"
        elif isinstance(node, Project):
            gen = project_gen(inputs[0], node.columns, frame, dedup)
        elif isinstance(node, Select):
            gen = select_gen(inputs[0], node.predicate, frame)
        elif isinstance(node, MapNode):
            gen = map_gen(inputs[0], node.fn, frame, dedup)
        elif isinstance(node, Union):
            gen = union_gen(inputs[0], inputs[1], frame, dedup)
        elif isinstance(node, Difference):
            gen = difference_gen(inputs[0], inputs[1], frame)
        elif isinstance(node, Intersect):
            gen = intersect_gen(inputs[0], inputs[1], frame)
        elif isinstance(node, Product):
            gen = product_gen(inputs[0], inputs[1], frame, dedup)
        elif isinstance(node, Join):
            gen = join_gen(node.on, inputs[0], inputs[1], frame, dedup=dedup)
        else:
            raise TypeError(f"unknown plan node: {node!r}")

        if materialize:
            if spans is not None:
                span = spans[id(frame)]
                start = time.perf_counter()
                value = CVSet(gen)
                span.wall_s += time.perf_counter() - start
                span.rows = len(value)
            else:
                value = CVSet(gen)
            work, entries = collect_frame(frame)
            entry = CacheEntry(
                value, work, tuple(entries), info[id(node)][1]
            )
            memo[token] = entry
            if cache is not None:
                cache.put(entry_key(node), entry, plan=node)
            out.append((iter(value), 1))
        else:
            if spans is not None and not top:
                # Pipelined interior node: count rows / accumulate
                # pull time as the consumer drains it.  The root is
                # measured at the tail materialization instead.
                gen = traced_gen(gen, spans[id(frame)])
            out.append((gen, depth))

    root_iter, _ = out.pop()
    entry = memo.get(info[id(plan)][0])
    if entry is not None:  # root served from cache or materialized
        if tracer is not None:
            tracer.record(_finish_spans(root_frame, spans))
        return ExecutionResult(entry.value, entry.work, list(entry.entries))
    if tracer is not None:
        root_span = spans[id(root_frame)]
        start = time.perf_counter()
        value = CVSet(root_iter)
        root_span.wall_s += time.perf_counter() - start
        root_span.rows = len(value)
    else:
        value = CVSet(root_iter)
    work, entries = collect_frame(root_frame)
    if cache is not None and not isinstance(plan, Scan):
        cache.put(
            entry_key(plan),
            CacheEntry(value, work, tuple(entries), info[id(plan)][1]),
            plan=plan,
        )
    if tracer is not None:
        tracer.record(_finish_spans(root_frame, spans))
    return ExecutionResult(value=value, work=work, per_node=entries)
