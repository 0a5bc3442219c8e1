"""Tracing contract properties (see ``src/repro/obs/trace.py``).

Three pinned guarantees, each over randomized plans/databases:

* **work conservation** — for every traced execution, in all three
  executor modes, the span works sum *exactly* to the executor's
  ledger total (cache/CSE-served spans carry their subtree's as-if
  work, so the identity holds in every cache state);
* **observer effect zero** — a traced run returns identical values,
  work and ledgers as an untraced run, and leaves a cache in an
  identical state (same keys, same stats, same stored values);
* **cross-executor agreement** — cold streaming and batch runs of the
  same plan produce span trees with identical
  :meth:`~repro.obs.trace.Span.structure` (labels, rows, work, cache
  annotations, shape).

Randomness is derived per-case via ``derive_rng``, so every case is
reproducible in isolation.
"""

from __future__ import annotations

import pytest

from repro.engine.exec import PlanCache, execute_batch, execute_streaming
from repro.engine.workload import (
    deep_chain_plan,
    derive_rng,
    random_database,
    random_nested_database,
    random_plan,
)
from repro.obs import Span, Tracer
from repro.optimizer.plan import Join, Project, Scan, execute_reference

_NAMES = ("r", "s", "t")

#: 200 random plans, as the tracing contract demands; split across the
#: three executors by round-robin so the full set covers each.
N_PLANS = 200


def _case(i: int, scenario: str):
    """Deterministic (plan, db) for case ``i``."""
    rng = derive_rng(2024, i, scenario)
    make_db = random_nested_database if i % 5 == 0 else random_database
    db = make_db(rng, _NAMES)
    plan = random_plan(rng, _NAMES, depth=rng.randint(1, 4))
    return plan, db


class TestWorkConservation:
    """Span works sum exactly to the executor's ledger total."""

    @pytest.mark.parametrize("i", range(N_PLANS))
    def test_span_work_sums_to_ledger_total(self, i):
        plan, db = _case(i, "worksum")
        mode = ("reference", "stream", "batch")[i % 3]
        tracer = Tracer()
        if mode == "reference":
            result = execute_reference(plan, db, tracer=tracer)
        elif mode == "stream":
            result = execute_streaming(plan, db, tracer=tracer)
        else:
            result = execute_batch(plan, db, tracer=tracer)
        root = tracer.last
        assert root.total_work() == result.work
        assert root.rows == len(result.value)
        # Work must also be conserved under every subtree: each span's
        # subtree total is the sum of its own charge plus its children's
        # subtrees (walk() is preorder, so compute bottom-up on a copy).
        assert (
            sum(span.work for span in root.walk()) == result.work
        )

    @pytest.mark.parametrize("i", range(0, N_PLANS, 10))
    def test_span_work_sums_in_every_cache_state(self, i):
        """Warm runs splice as-if work into hit spans; totals still hold."""
        plan, db = _case(i, "worksum-cache")
        reference = execute_reference(plan, db)
        for executor in (execute_streaming, execute_batch):
            cache = PlanCache()
            for _ in range(3):  # cold, warm, warm
                tracer = Tracer()
                result = executor(plan, db, cache=cache, tracer=tracer)
                assert result.work == reference.work
                assert tracer.last.total_work() == reference.work
                assert tracer.last.rows == len(reference.value)


class TestObserverEffectZero:
    """Tracing never changes results, ledgers, or cache contents."""

    @pytest.mark.parametrize("i", range(0, N_PLANS, 4))
    def test_traced_and_untraced_runs_are_identical(self, i):
        plan, db = _case(i, "observer")
        for executor in (execute_streaming, execute_batch):
            traced_cache, plain_cache = PlanCache(), PlanCache()
            for _ in range(2):  # cold then warm
                traced = executor(
                    plan, db, cache=traced_cache, tracer=Tracer()
                )
                plain = executor(plan, db, cache=plain_cache)
                assert traced.value == plain.value
                assert traced.work == plain.work
                assert traced.per_node == plain.per_node
            # Identical cache state: same counters, same keys, same
            # stored answers.
            assert traced_cache.stats() == plain_cache.stats()
            assert set(traced_cache._entries) == set(plain_cache._entries)
            for key, entry in traced_cache._entries.items():
                other = plain_cache._entries[key]
                assert entry.value == other.value
                assert entry.work == other.work
                assert entry.entries == other.entries

    @pytest.mark.parametrize("i", range(0, N_PLANS, 20))
    def test_reference_traced_matches_untraced(self, i):
        plan, db = _case(i, "observer-ref")
        traced = execute_reference(plan, db, tracer=Tracer())
        plain = execute_reference(plan, db)
        assert traced.value == plain.value
        assert traced.work == plain.work
        assert traced.per_node == plain.per_node


class TestCrossExecutorAgreement:
    """Cold streaming and batch span trees agree node-for-node."""

    @pytest.mark.parametrize("i", range(0, N_PLANS, 2))
    def test_stream_and_batch_structures_match(self, i):
        plan, db = _case(i, "structure")
        ts, tb = Tracer(), Tracer()
        execute_streaming(plan, db, tracer=ts)
        execute_batch(plan, db, tracer=tb)
        assert ts.last.structure() == tb.last.structure()

    def test_reference_matches_streaming_without_cse(self):
        """On a plan with no repeated subtrees (no CSE splicing), all
        three executors produce the same structure."""
        plan, db = _case(3, "structure-ref")
        tr, ts, tb = Tracer(), Tracer(), Tracer()
        execute_reference(plan, db, tracer=tr)
        execute_streaming(plan, db, tracer=ts)
        execute_batch(plan, db, tracer=tb)
        if "cse" not in {s.cache for s in ts.last.walk()}:
            assert tr.last.structure() == ts.last.structure()
        assert ts.last.structure() == tb.last.structure()

    def test_deep_chain_structures_match_without_recursion(self):
        rng = derive_rng(2024, 0, "structure-deep")
        db = random_database(rng, _NAMES)
        plan = deep_chain_plan(rng, "r", 900)
        ts, tb = Tracer(), Tracer()
        rs = execute_streaming(plan, db, tracer=ts)
        rb = execute_batch(plan, db, tracer=tb)
        assert rs.value == rb.value
        assert ts.last.structure() == tb.last.structure()
        assert ts.last.span_count() == 901
        assert hash(ts.last.structure()) == hash(tb.last.structure())


class TestAnnotations:
    """Cache/CSE/source annotations mean what they say."""

    def test_cache_hit_span_is_childless_with_asif_work(self):
        plan, db = _case(1, "annotations")
        cache = PlanCache()
        cold = execute_streaming(plan, db, cache=cache)
        tracer = Tracer()
        warm = execute_streaming(plan, db, cache=cache, tracer=tracer)
        assert warm.value == cold.value
        root = tracer.last
        assert root.cache == "hit"
        assert root.children == []
        assert root.work == cold.work
        assert root.rows == len(cold.value)

    def test_index_served_join_is_annotated(self):
        from repro.engine.database import Database

        rng = derive_rng(2024, 7, "annotations-index")
        db = Database()
        for name in ("a", "b"):
            db.create(name, 2)
            db.insert(
                name,
                {
                    (rng.randrange(6), rng.randrange(6))
                    for _ in range(12)
                },
            )
        plan = Join(left=Scan("a"), right=Scan("b"), on=((0, 0),))
        reference = db.run_reference(plan)
        for mode in ("stream", "batch"):
            tracer = Tracer()
            result = db.run(plan, use_cache=False, mode=mode, tracer=tracer)
            assert result.value == reference.value
            root = tracer.last
            assert root.source == "index"
            # The never-re-read build side: logged, rows unknowable.
            right = root.children[1]
            assert right.label == "b"
            assert right.rows is None and right.work == 0

    def test_bulk_set_op_is_annotated(self):
        from repro.optimizer.plan import Union

        rng = derive_rng(2024, 9, "annotations-bulk")
        db = random_database(rng, _NAMES)
        plan = Union(Scan("r"), Scan("s"))
        tracer = Tracer()
        result = execute_streaming(plan, db, tracer=tracer)
        root = tracer.last
        assert root.source == "bulk"
        assert root.rows == len(result.value)
        assert [c.label for c in root.children] == ["r", "s"]
        assert root.children[0].rows == len(db["r"])

    def test_span_repr_and_tracer_bookkeeping(self):
        span = Span("scan")
        assert "scan" in repr(span)
        tracer = Tracer()
        assert tracer.last is None and len(tracer) == 0
        tracer.record(span)
        assert tracer.last is span and len(tracer) == 1
        tracer.clear()
        assert tracer.last is None
        assert "0" in repr(tracer)


class TestMetaMerge:
    """Root-span ``meta`` is shared by several layers (auto-mode
    decision, degradation record); ``merge_meta`` must preserve what an
    earlier layer attached."""

    def test_merge_into_empty_meta_copies(self):
        span = Span("root")
        updates = {"auto": {"mode": "batch"}}
        span.merge_meta(updates)
        assert span.meta == updates
        assert span.meta is not updates  # defensive copy

    def test_merge_preserves_existing_keys(self):
        span = Span("root")
        span.merge_meta({"auto": {"mode": "compiled"}})
        span.merge_meta({"degraded": [{"mode": "compiled", "to": "reference"}]})
        assert span.meta == {
            "auto": {"mode": "compiled"},
            "degraded": [{"mode": "compiled", "to": "reference"}],
        }

    def test_merge_overwrites_only_named_keys(self):
        span = Span("root")
        span.merge_meta({"a": 1, "b": 2})
        span.merge_meta({"b": 3})
        assert span.meta == {"a": 1, "b": 3}

    def test_run_auto_under_faults_keeps_decision_and_degradations(self):
        """End-to-end regression for the meta-clobber bug: an auto run
        that degrades must surface both records in ``to_dict``."""
        from repro.engine.database import Database
        from repro.robustness import FaultInjector, FaultPlan

        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i + 1) for i in range(120)])
        db.create("s", 2)
        db.insert("s", [(i, i * 10) for i in range(0, 240, 2)])
        plan = Project(
            columns=(0, 2),
            child=Join(left=Scan("r"), right=Scan("s"), on=((1, 0),)),
        )
        assert db.plan_mode(plan).mode != "reference"
        db.fault_injector = FaultInjector(
            FaultPlan(seed=13, operator_rate=1.0, compile_rate=1.0)
        )
        tracer = Tracer()
        db.run(plan, mode="auto", use_cache=False, tracer=tracer)
        meta = tracer.last.to_dict(wall=False)["meta"]
        assert set(meta) >= {"auto", "degraded"}
        assert meta["degraded"][-1]["to"] == "reference"
