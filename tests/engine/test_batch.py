"""Batch-mode executor parity tests.

``execute_batch`` (reached via ``Database.run(mode="batch")``) carries the same contract as the
streaming engine: identical ``CVSet`` answer, identical total work,
identical per-node ledger as the reference interpreter — for every
plan, every database shape, every cache state — while sharing the
streaming engine's semantic cache keys, so entries written by either
executor are hits for the other.
"""

import random

import pytest

import repro.engine.database as database_mod
from repro.engine.database import Database
from repro.engine.exec import PlanCache, execute_batch, execute_streaming
from repro.engine.workload import (
    deep_chain_plan,
    random_atom_database,
    random_nested_database,
    random_plan,
)
from repro.optimizer.plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Project,
    Scan,
    Select,
    Union,
)
from repro.types.values import CVSet, Tup
from tests.conftest import NAMES, assert_equivalent


class TestBatchEquivalence:
    def test_random_plans_match_reference(self, plan_pair):
        """Random plan/db pairs: batch cold, fresh-cache cold and warm
        all agree with the reference, including work and ledger."""
        for seed in range(80):
            plan, db = plan_pair(20260807 + seed)
            cache = PlanCache()
            assert_equivalent(
                plan, db,
                execute_batch(plan, db),
                execute_batch(plan, db, cache=cache),
                execute_batch(plan, db, cache=cache),  # warm
            )

    def test_nested_value_databases(self):
        rng = random.Random(7)
        for _ in range(25):
            db = random_nested_database(rng, NAMES)
            plan = random_plan(rng, NAMES, depth=rng.randint(1, 3))
            assert_equivalent(plan, db, execute_batch(plan, db))

    def test_atom_relations(self):
        """Bare-atom elements: weight falls back to 1 per element and
        widths stay unknown; set ops must still match exactly."""
        rng = random.Random(8)
        for _ in range(15):
            db = random_atom_database(rng, NAMES)
            op = rng.choice((Union, Difference, Intersect))
            plan = op(Scan(rng.choice(NAMES)), Scan(rng.choice(NAMES)))
            assert_equivalent(plan, db, execute_batch(plan, db))

    def test_empty_projection_width_zero(self):
        """``pi[]`` makes zero-length tuples whose weight is 1, not 0."""
        db = {"r": CVSet({Tup((1, 2)), Tup((3, 4))})}
        plan = Project((), Scan("r"))
        assert_equivalent(plan, db, execute_batch(plan, db))

    def test_deep_chain_is_stack_safe(self):
        rng = random.Random(9)
        plan = deep_chain_plan(rng, "r", 2000)
        db = {"r": CVSet({Tup((1, 2)), Tup((3, 4))})}
        assert_equivalent(plan, db, execute_batch(plan, db))

    def test_join_shapes(self):
        """Empty-``on`` (all pairs), single-pair, and multi-pair joins."""
        db = {
            "a": CVSet(Tup((i, i % 3)) for i in range(8)),
            "b": CVSet(Tup((i % 3, i)) for i in range(6)),
        }
        for on in ((), ((0, 0),), ((0, 0), (1, 1))):
            plan = Join(on, Scan("a"), Scan("b"))
            assert_equivalent(plan, db, execute_batch(plan, db))

    def test_cse_shared_subtree(self):
        """A repeated subtree is computed once and its ledger spliced."""
        db = {
            "r": CVSet(Tup((i, i)) for i in range(6)),
            "s": CVSet(Tup((i, 0)) for i in range(3)),
        }
        shared = Union(Scan("r"), Scan("s"))
        plan = Difference(
            MapNode("id", lambda t: t, shared, injective=True), shared
        )
        assert_equivalent(plan, db, execute_batch(plan, db))


class TestModeDispatch:
    def test_database_run_routes_batch(self, monkeypatch):
        db = Database()
        db["r"] = CVSet({Tup((1, 2))})
        plan = Project((0,), Scan("r"))
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return execute_batch(*args, **kwargs)

        monkeypatch.setattr(database_mod, "execute_batch", spy)
        assert_equivalent(
            plan, db.relations, db.run(plan, mode="batch", use_cache=False)
        )
        assert calls == [plan]

    def test_unknown_mode_rejected(self):
        db = Database()
        db["r"] = CVSet({Tup((1, 2))})
        with pytest.raises(ValueError, match="mode"):
            db.run(Scan("r"), mode="vectorized")


class TestCacheInterop:
    def test_batch_writes_streaming_hits(self):
        db = {"r": CVSet(Tup((i, i)) for i in range(5))}
        plan = Project((0,), Scan("r"))
        cache = PlanCache()
        execute_batch(plan, db, cache=cache)
        cache.reset_stats()
        result = execute_streaming(plan, db, cache=cache)
        assert cache.hits >= 1
        assert_equivalent(plan, db, result)

    def test_streaming_writes_batch_hits(self):
        db = {"r": CVSet(Tup((i, i)) for i in range(5))}
        plan = Project((0,), Scan("r"))
        cache = PlanCache()
        execute_streaming(plan, db, cache=cache)
        cache.reset_stats()
        result = execute_batch(plan, db, cache=cache)
        assert cache.hits >= 1
        assert_equivalent(plan, db, result)

    def test_predicate_work_skipped_on_warm_run(self):
        calls = 0

        def counting(t):
            nonlocal calls
            calls += 1
            return True

        db = {"r": CVSet(Tup((i,)) for i in range(5))}
        plan = Select("counting", counting, Scan("r"))
        cache = PlanCache()
        execute_batch(plan, db, cache=cache)
        assert calls == 5
        second = execute_batch(plan, db, cache=cache)
        assert calls == 5  # served from cache
        assert_equivalent(plan, db, second)


class TestDatabaseBatchRun:
    def test_run_mode_batch_with_maintained_stats(self, hr_db):
        db = hr_db()
        plan = Project((0,), Difference(Scan("employees"),
                                        Scan("students")))
        result = db.run(plan, use_cache=False, mode="batch")
        assert_equivalent(plan, db.relations, result)

    def test_prebuilt_join_index_path(self):
        db = Database()
        db.create("e", 3)
        db.insert("e", [(i, i % 5, i * 2) for i in range(40)])
        db.create("k", 2)
        db.insert("k", [(i % 5, str(i)) for i in range(10)])
        plan = Join(((1, 0),), Scan("e"), Scan("k"))
        result = db.run(plan, use_cache=False, mode="batch")
        assert_equivalent(plan, db.relations, result)

    def test_stats_survive_mutation(self):
        """Insert + wholesale replacement keep weights/widths honest."""
        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i) for i in range(6)])
        plan = Union(Scan("r"), Scan("r"))
        assert_equivalent(
            plan, db.relations, db.run(plan, use_cache=False, mode="batch")
        )
        db.insert("r", [(9, 9), (10, 10)])
        assert_equivalent(
            plan, db.relations, db.run(plan, use_cache=False, mode="batch")
        )
        db["r"] = CVSet({Tup((1,)), Tup((1, 2, 3)), "atom"})
        assert db.relation_width("r") is None
        assert_equivalent(
            plan, db.relations, db.run(plan, use_cache=False, mode="batch")
        )
