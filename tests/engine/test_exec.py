"""Executor equivalence and caching tests.

The streaming executor's contract: for every plan over every database,
identical ``CVSet`` answer, identical total work, and identical
per-node ledger as the reference interpreter — cold, with a cold cache,
and with a warm cache.
"""

import random

import pytest

from repro.engine.database import Database
from repro.engine.exec import (
    PlanCache,
    execute_streaming,
)
from repro.optimizer.plan import (
    Difference,
    Intersect,
    Join,
    Project,
    Scan,
    Select,
    Union,
    execute_reference,
)
from repro.types.values import CVSet, Tup, cvset, tup
from tests.conftest import assert_equivalent


class TestEquivalenceProperty:
    def test_random_plans_match_reference(self, plan_pair):
        """≥200 random plan/database pairs: streaming, cached-cold and
        cached-warm all agree with the reference, including work."""
        pairs_checked = 0
        nodes_seen = set()
        for seed in range(220):
            plan, db = plan_pair(20260806 + seed)
            stack = [plan]
            while stack:
                node = stack.pop()
                nodes_seen.add(type(node).__name__)
                stack.extend(node.children())
            cache = PlanCache()
            streaming = execute_streaming(plan, db)
            cached_cold = execute_streaming(plan, db, cache=cache)
            cached_warm = execute_streaming(plan, db, cache=cache)
            assert_equivalent(
                plan, db, streaming, cached_cold, cached_warm
            )
            pairs_checked += 1
        assert pairs_checked >= 200
        # The generator must actually exercise the whole operator set.
        assert nodes_seen >= {
            "Scan", "Project", "Select", "MapNode", "Union",
            "Difference", "Intersect", "Product", "Join",
        }

    def test_multi_pair_and_empty_join(self, random_db):
        db = random_db(3, arity=2, domain_size=4, max_rows=10)
        multi = Join(((0, 0), (1, 1)), Scan("r"), Scan("s"))
        empty = Join((), Scan("r"), Scan("s"))
        dup_pairs = Join(((0, 0), (0, 0)), Scan("r"), Scan("s"))
        for plan in (multi, empty, dup_pairs):
            assert_equivalent(plan, db, execute_streaming(plan, db))

    def test_missing_relation_reads_empty(self):
        plan = Union(Scan("ghost"), Scan("r"))
        db = {"r": cvset(tup(1, 2))}
        assert_equivalent(plan, db, execute_streaming(plan, db))


class TestCSE:
    def test_shared_subtree_executes_once(self):
        calls = 0

        def counting(t):
            nonlocal calls
            calls += 1
            return True

        db = {"r": CVSet(Tup((i, i + 1)) for i in range(10))}
        shared = Select("counting", counting, Scan("r"))
        plan = Intersect(
            Project((0,), shared), Project((0, 1), shared)
        )
        reference = execute_reference(plan, db)
        reference_calls, calls = calls, 0
        streaming = execute_streaming(plan, db)
        assert calls == 10
        assert reference_calls == 20
        assert streaming.value == reference.value
        assert streaming.work == reference.work
        assert streaming.per_node == reference.per_node


class TestPlanCache:
    def test_warm_hit_skips_execution(self):
        calls = 0

        def counting(t):
            nonlocal calls
            calls += 1
            return True

        db = {"r": CVSet(Tup((i,)) for i in range(5))}
        plan = Select("counting", counting, Scan("r"))
        cache = PlanCache()
        first = execute_streaming(plan, db, cache=cache)
        assert calls == 5
        second = execute_streaming(plan, db, cache=cache)
        assert calls == 5  # served from cache
        assert second.value == first.value
        assert second.work == first.work  # as-if-executed work
        assert cache.hits >= 1

    def test_fingerprint_mismatch_prevents_stale_hit(self):
        plan = Project((0,), Scan("r"))
        db1 = {"r": cvset(tup(1, 2))}
        db2 = {"r": cvset(tup(3, 4))}
        cache = PlanCache()
        first = execute_streaming(plan, db1, cache=cache)
        second = execute_streaming(plan, db2, cache=cache)
        assert first.value != second.value
        assert second.value == execute_reference(plan, db2).value

    def test_subplan_hit_across_different_roots(self):
        db = {"r": CVSet(Tup((i, i)) for i in range(6)),
              "s": CVSet(Tup((i, 0)) for i in range(3))}
        shared = Union(Scan("r"), Scan("s"))
        cache = PlanCache()
        execute_streaming(Difference(Scan("r"), shared), db, cache=cache)
        cache.reset_stats()
        result = execute_streaming(
            Intersect(Scan("r"), shared), db, cache=cache
        )
        # `shared` was materialized as a build side in the first query
        # and is served from cache in the second.
        assert cache.hits >= 1
        assert_equivalent(
            Intersect(Scan("r"), shared), db, result
        )

    def test_lru_eviction_bounds_entries(self):
        cache = PlanCache(capacity=4)
        db = {"r": CVSet(Tup((i,)) for i in range(4))}
        for c in range(10):
            execute_streaming(Project((0,) * (c + 1), Scan("r")), db,
                              cache=cache)
        assert len(cache) <= 4

    def test_invalidate_by_relation(self):
        db = {"r": cvset(tup(1, 2)), "s": cvset(tup(3, 4))}
        cache = PlanCache()
        execute_streaming(Project((0,), Scan("r")), db, cache=cache)
        execute_streaming(Project((0,), Scan("s")), db, cache=cache)
        assert len(cache) == 2
        cache.invalidate("r")
        assert len(cache) == 1


class TestDatabaseExecution:
    def test_run_matches_reference_and_uses_cache(self, hr_db):
        db = hr_db()
        plan = Project((0,), Difference(Scan("employees"),
                                        Scan("students")))
        first = db.run(plan)
        reference = db.run_reference(plan)
        assert first.value == reference.value
        assert first.work == reference.work
        db.plan_cache.reset_stats()
        second = db.run(plan)
        assert db.plan_cache.hits == 1 and db.plan_cache.misses == 0
        assert second.value == first.value

    def test_insert_invalidates_cache(self):
        db = Database()
        db.create("log", 2)
        db.insert("log", [(1, "a")])
        plan = Project((0,), Scan("log"))
        assert db.run(plan).value == cvset(tup(1))
        db.insert("log", [(2, "b")])
        assert db.run(plan).value == cvset(tup(1), tup(2))

    def test_setitem_invalidates_cache(self):
        db = Database()
        db.create("log", 2)
        db.insert("log", [(1, "a")])
        plan = Project((0,), Scan("log"))
        db.run(plan)
        db["log"] = cvset(tup(9, "z"))
        assert db.run(plan).value == cvset(tup(9))

    def test_single_pair_join_borrows_database_index(self, hr_db):
        db = hr_db(seed=5, employees=30, students=20, overlap=5)
        plan = Join(((0, 0),), Scan("employees"), Scan("students"))
        result = db.run(plan)
        assert (0,) in db._eq_indexes.get("students", {})
        reference = db.run_reference(plan)
        assert result.value == reference.value
        assert result.work == reference.work
        assert result.per_node == reference.per_node

    def test_use_cache_false_bypasses_cache(self):
        db = Database()
        db.create("log", 1)
        db.insert("log", [(1,), (2,)])
        plan = Project((0,), Scan("log"))
        db.run(plan, use_cache=False)
        assert len(db.plan_cache) == 0


class TestSemanticCacheKeys:
    """A predicate/function name rebound to a different callable must
    never replay the old callable's answer (PR 2 regression)."""

    def test_aliased_predicate_shared_cache_both_correct(self):
        # The original poisoning repro: same name, two predicates, one
        # shared cache.  A structurally-keyed cache returned the first
        # answer for both.
        db = {"p": CVSet(Tup((i,)) for i in range(5))}
        cache = PlanCache()
        plan1 = Select("p", lambda t: t[0] == 1, Scan("p"))
        plan2 = Select("p", lambda t: t[0] == 2, Scan("p"))
        first = execute_streaming(plan1, db, cache=cache)
        second = execute_streaming(plan2, db, cache=cache)
        assert first.value == execute_reference(plan1, db).value
        assert second.value == execute_reference(plan2, db).value
        assert first.value != second.value

    def test_aliased_predicates_within_one_plan(self):
        # The CSE memo has the same exposure: two same-named selections
        # inside ONE plan are structurally equal but semantically
        # different, and must both execute.
        db = {"p": CVSet(Tup((i,)) for i in range(6))}
        plan = Union(
            Select("thresh", lambda t: t[0] < 2, Scan("p")),
            Select("thresh", lambda t: t[0] >= 4, Scan("p")),
        )
        assert_equivalent(
            plan, db,
            execute_streaming(plan, db),
            execute_streaming(plan, db, cache=PlanCache()),
        )

    def test_on_alias_error_raises(self):
        from repro.engine.exec import CacheInvariantError

        db = {"p": CVSet(Tup((i,)) for i in range(3))}
        cache = PlanCache(on_alias="error")
        execute_streaming(
            Select("p", lambda t: t[0] == 1, Scan("p")), db, cache=cache
        )
        with pytest.raises(CacheInvariantError):
            execute_streaming(
                Select("p", lambda t: t[0] == 2, Scan("p")), db,
                cache=cache,
            )

    def test_recreated_closure_still_hits(self):
        # The parser builds its comparison lambdas afresh per parse; a
        # re-created closure with equal captures must keep the cache
        # warm, not key apart.
        def make(k):
            return lambda t: t[0] == k

        db = {"p": CVSet(Tup((i,)) for i in range(5))}
        cache = PlanCache()
        first = execute_streaming(
            Select("eq", make(2), Scan("p")), db, cache=cache
        )
        cache.reset_stats()
        second = execute_streaming(
            Select("eq", make(2), Scan("p")), db, cache=cache
        )
        assert cache.hits >= 1
        assert second.value == first.value
        # ...while a *different* capture keys apart.
        third = execute_streaming(
            Select("eq", make(3), Scan("p")), db, cache=cache
        )
        assert third.value == cvset(tup(3))

    def test_identity_memo_stays_bounded_across_reparses(self, hr_db):
        # Every Database.query re-parses its text into fresh predicate
        # lambdas; the identity memo must not keep one entry per query.
        from repro.engine.exec import CacheInvariantError
        from repro.engine.exec.cache import _IDENTITY_MEMO_LIMIT

        db = hr_db()
        db.plan_cache = PlanCache(on_alias="error")
        texts = [
            "sigma[$1=1001](employees)",
            "pi[1](sigma[$3='dept0'](employees) - students)",
            "sigma[$1<$1](students)",
        ]
        want = [db.query(text, optimize=True).value for text in texts]
        db.plan_cache.reset_stats()
        rounds = _IDENTITY_MEMO_LIMIT // len(texts) + 1
        for _ in range(rounds):
            for text, value in zip(texts, want):
                assert db.query(text, optimize=True).value == value
        assert len(db.plan_cache._identity_memo) <= _IDENTITY_MEMO_LIMIT
        assert db.plan_cache.hits == rounds * len(texts)
        assert db.plan_cache.misses == 0
        # A real alias of a parsed predicate's name still raises after
        # the memo was cleared (called directly: Database.run would
        # degrade the error to the reference interpreter).
        with pytest.raises(CacheInvariantError):
            execute_streaming(
                Select("$1=1001", lambda t: t[0] == 1002, Scan("employees")),
                db.relations, cache=db.plan_cache,
            )

    def test_put_refreshes_existing_entry(self):
        from repro.engine.exec import CacheEntry

        cache = PlanCache(capacity=2)
        entries = {
            name: CacheEntry(cvset(tup(i)), i, ((name, i),), frozenset({name}))
            for i, name in enumerate(("k1", "k2", "k3"))
        }
        cache.put("k1", entries["k1"])
        cache.put("k2", entries["k2"])
        replacement = CacheEntry(cvset(tup(9)), 9, (("k1", 9),),
                                 frozenset({"k1"}))
        cache.put("k1", replacement)  # refresh: newest value, MRU position

        def is_refreshed(stored):
            # ``put`` stamps a content seal, so the stored entry is a
            # sealed copy of the replacement, not the same object.
            return stored is not None and (
                stored.value, stored.work, stored.entries
            ) == (replacement.value, replacement.work, replacement.entries)

        assert len(cache) == 2
        assert is_refreshed(cache.get("k1"))
        cache.put("k3", entries["k3"])  # evicts k2, not the refreshed k1
        assert is_refreshed(cache.get("k1"))
        assert cache.get("k2") is None

    def test_zero_capacity_disables_caching_without_churn(self):
        db = {"p": CVSet(Tup((i,)) for i in range(4))}
        plan = Select("small", lambda t: t[0] < 2, Scan("p"))
        for capacity in (0, -1):
            cache = PlanCache(capacity)
            result = execute_streaming(plan, db, cache=cache)
            execute_streaming(plan, db, cache=cache)
            assert result.value == execute_reference(plan, db).value
            assert len(cache) == 0  # put is a no-op: no entry churn
            assert cache.hits == 0


class TestAtomRelations:
    """Relations of bare atoms flow through every operator, including
    the bulk scan-scan fast path (PR 2 regression: the bulk path
    charged ``len(t)`` inline and raised ``TypeError`` on atoms)."""

    def test_bulk_set_ops_over_atom_relations(self):
        db = {"a": CVSet([1, 2, "x", "y"]), "b": CVSet([2, "y", 5])}
        for op in (Union, Difference, Intersect):
            plan = op(Scan("a"), Scan("b"))
            assert_equivalent(
                plan, db,
                execute_streaming(plan, db),
                execute_streaming(plan, db, cache=PlanCache()),
            )

    def test_nested_set_ops_over_atom_relations(self):
        db = {"a": CVSet([1, 2, 3]), "b": CVSet([2, 3, 4]),
              "c": CVSet([3, "z"])}
        plan = Difference(Union(Scan("a"), Scan("b")),
                          Intersect(Scan("b"), Scan("c")))
        assert_equivalent(plan, db, execute_streaming(plan, db))


class TestDeepPlans:
    """Plans thousands of operators deep execute, optimize and account
    without ``RecursionError`` (PR 2 regression)."""

    DEPTH = 5000

    def _chain(self):
        from repro.engine.workload import deep_chain_plan

        return deep_chain_plan(random.Random(7), "r", self.DEPTH)

    def test_deep_chain_executes_with_parity(self):
        db = {"r": CVSet(Tup((i, i + 1)) for i in range(6))}
        plan = self._chain()
        cache = PlanCache()
        assert_equivalent(
            plan, db,
            execute_streaming(plan, db),
            execute_streaming(plan, db, cache=cache),
            execute_streaming(plan, db, cache=cache),  # warm
        )

    def test_deep_chain_optimizes(self):
        from repro.optimizer.constraints import Catalog
        from repro.optimizer.rewriter import Rewriter

        plan = self._chain()
        optimized = Rewriter(Catalog()).optimize(plan)
        db = {"r": CVSet(Tup((i, i + 1)) for i in range(4))}
        assert (execute_streaming(optimized, db).value
                == execute_reference(plan, db).value)

    def test_deep_plan_hash_and_eq_are_iterative(self):
        plan = self._chain()
        other = self._chain()  # same seed: structurally identical
        assert hash(plan) == hash(other)
        assert plan == other
