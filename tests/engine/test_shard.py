"""Sharded partition-parallel execution (``engine/exec/shard.py``).

The contract under test is byte-identity: the merged value, total
work, and per-node ledger of ``execute_sharded`` equal the serial
streaming run's for every plan, every shard count, every fallback
path.  The partition analysis, the ``NODE_PARTITIONABILITY`` source
of truth, the single-shard fallbacks, caching, tracing, the fault
site, and the ``Database.run`` surface are each pinned separately.
"""

import pytest

from tests.conftest import assert_equivalent

from repro.engine.exec import MAX_PIPELINE_DEPTH, execute_streaming
from repro.engine.exec.cache import PlanCache
from repro.engine.exec.shard import (
    DEFAULT_SHARDS,
    NotPartitionable,
    execute_sharded,
    plan_partitioning,
)
from repro.obs.trace import Tracer
from repro.optimizer.plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
)
from repro.optimizer.rules import (
    HASH_PARTITIONABLE,
    NODE_PARTITIONABILITY,
    NON_PARTITIONABLE,
)
from repro.robustness.faults import FaultInjector, FaultPlan, InjectedFault
from repro.types.values import CVSet, Tup


def _swap(t):
    return Tup((t[1], t[0]))


class TestByteIdentityProperty:
    def test_random_plans_identical_across_shard_counts(self, plan_pair):
        """The acceptance property: >= 300 (plan, shard-count) checks,
        each byte-identical to serial streaming on value, work, and
        ledger.  Partitionable plans shard for real; the rest take the
        single-shard fallback — identity must hold either way."""
        for seed in range(110):
            plan, db = plan_pair(20260809 + seed)
            want = execute_streaming(plan, db)
            for shards in (1, 2, 4):
                got = execute_sharded(plan, db, shards=shards)
                assert got.value == want.value
                assert got.work == want.work
                assert got.per_node == want.per_node

    def test_partitioned_join_matches_reference(self, random_db):
        db = random_db(7, arity=3, domain_size=4, max_rows=30)
        plan = Join(((0, 0), (2, 1)), Scan("r"), Scan("s"))
        assert plan_partitioning(plan)  # really takes the sharded path
        assert_equivalent(
            plan, db,
            execute_sharded(plan, db, shards=2),
            execute_sharded(plan, db, shards=4),
        )

    def test_default_shard_count(self, random_db):
        db = random_db(8)
        plan = Difference(Scan("r"), Scan("s"))
        got = execute_sharded(plan, db)
        assert_equivalent(plan, db, got)
        assert DEFAULT_SHARDS >= 2


class TestPlanPartitioning:
    def test_equi_join_demands_join_columns(self):
        plan = Join(((0, 1),), Scan("r"), Scan("s"))
        assert plan_partitioning(plan) == {
            "r": ("col", 0),
            "s": ("col", 1),
        }

    def test_set_operations_demand_whole_tuple(self):
        for node in (Difference, Intersect):
            plan = node(Scan("r"), Scan("s"))
            assert plan_partitioning(plan) == {
                "r": ("tuple",),
                "s": ("tuple",),
            }

    def test_root_union_and_select_fall_back_to_round_robin(self):
        plan = Union(Scan("r"), Select("$1>0", lambda t: t[0] > 0, Scan("s")))
        assert plan_partitioning(plan) == {"r": ("rr",), "s": ("rr",)}

    def test_key_preserving_projection_translates_the_demand(self):
        # The join demands col 0 of its left input; the projection
        # swapped columns, so the base relation is partitioned on its
        # column 1.
        plan = Join(((0, 0),), Project((1, 0), Scan("r")), Scan("s"))
        assert plan_partitioning(plan) == {
            "r": ("col", 1),
            "s": ("col", 0),
        }

    def test_disjoint_projection_picks_a_surviving_column(self):
        # A root union demands disjoint outputs of the projection;
        # partitioning on a surviving column keeps all preimages of a
        # projected tuple in one shard (the first surviving column
        # that resolves wins).
        plan = Union(Project((1, 0), Scan("r")), Scan("s"))
        assert plan_partitioning(plan) == {"r": ("col", 1), "s": ("rr",)}

    def test_projection_under_set_operation_cannot_align(self):
        # Difference needs whole-tuple co-partition of both sides, and
        # no base scheme expresses a partition on the projected image.
        plan = Difference(Project((0,), Scan("r")), Project((0,), Scan("s")))
        with pytest.raises(NotPartitionable):
            plan_partitioning(plan)

    def test_product_is_non_partitionable(self):
        with pytest.raises(NotPartitionable):
            plan_partitioning(Product(Scan("r"), Scan("s")))

    def test_key_free_join_is_non_partitionable(self):
        with pytest.raises(NotPartitionable):
            plan_partitioning(Join((), Scan("r"), Scan("s")))

    def test_conflicting_keyed_demands_on_one_relation(self):
        # Self-join on different columns would need "r" stored two ways.
        with pytest.raises(NotPartitionable):
            plan_partitioning(Join(((0, 1),), Scan("r"), Scan("r")))

    def test_round_robin_yields_to_keyed_demand(self):
        # "r" appears under a round-robin demand and a keyed one; the
        # keyed demand wins for the shared base relation.
        plan = Union(Scan("r"), Join(((0, 0),), Scan("r"), Scan("s")))
        assert plan_partitioning(plan)["r"] == ("col", 0)

    def test_non_injective_interior_map_is_non_partitionable(self):
        plan = Difference(
            MapNode("const", lambda t: Tup((0, 0)), Scan("r")), Scan("s")
        )
        with pytest.raises(NotPartitionable):
            plan_partitioning(plan)

    def test_injective_map_is_round_robin_safe_at_the_root(self):
        plan = MapNode("swap", _swap, Scan("r"), injective=True)
        assert plan_partitioning(plan) == {"r": ("rr",)}

    def test_no_key_survives_an_opaque_function(self):
        plan = Join(
            ((0, 0),),
            MapNode("swap", _swap, Scan("r"), injective=True),
            Scan("s"),
        )
        with pytest.raises(NotPartitionable):
            plan_partitioning(plan)

    def test_too_deep_plans_are_rejected(self):
        plan: Plan = Scan("r")
        for _ in range(MAX_PIPELINE_DEPTH + 1):
            plan = Select("$1>0", lambda t: t[0] > 0, plan)
        with pytest.raises(NotPartitionable):
            plan_partitioning(plan)


class TestPartitionabilityTable:
    def test_every_plan_node_type_is_classified(self):
        assert set(NODE_PARTITIONABILITY) == set(Plan.__subclasses__())

    def test_every_entry_carries_a_justification(self):
        for cls, (kind, justification) in NODE_PARTITIONABILITY.items():
            assert kind, cls
            assert justification.strip(), cls

    def test_table_drives_the_analysis(self):
        assert NODE_PARTITIONABILITY[Product][0] == NON_PARTITIONABLE
        assert NODE_PARTITIONABILITY[Join][0] == HASH_PARTITIONABLE


class TestFallbacksAndMerge:
    def test_shards_one_is_serial_streaming(self, random_db):
        db = random_db(9)
        plan = Difference(Scan("r"), Scan("s"))
        assert_equivalent(plan, db, execute_sharded(plan, db, shards=1))

    def test_invalid_shard_count_rejected(self, random_db):
        with pytest.raises(ValueError, match="shards"):
            execute_sharded(Scan("r"), random_db(0), shards=0)

    def test_non_partitionable_plan_runs_single_shard(self, random_db):
        db = random_db(10)
        plan = Product(Scan("r"), Scan("s"))
        tracer = Tracer()
        got = execute_sharded(plan, db, shards=4, tracer=tracer)
        assert_equivalent(plan, db, got)
        meta = tracer.last.meta["sharded"]
        assert meta["partition"] == "single"
        assert meta["requested"] == 4
        assert "non-partitionable" in meta["reason"]

    def test_atom_rows_defeat_column_partitioning(self):
        # An unsubscriptable atom row admits no column key, so the run
        # falls back to single-shard serial streaming — which on this
        # database raises exactly what serial raises (joins cannot
        # probe atoms).  Identity extends to the error.
        db = {
            "r": CVSet({Tup((1, 2)), 7}),
            "s": CVSet({Tup((1, 3))}),
        }
        plan = Join(((0, 0),), Scan("r"), Scan("s"))
        with pytest.raises(TypeError):
            execute_streaming(plan, db)
        with pytest.raises(TypeError):
            execute_sharded(plan, db, shards=2, jobs=1)

    def test_atom_rows_shard_fine_under_whole_tuple_hashing(self):
        # Whole-tuple hashing needs no columns: atoms partition like
        # any other member.
        db = {
            "r": CVSet({Tup((1, 2)), 7}),
            "s": CVSet({Tup((1, 3)), 7}),
        }
        plan = Difference(Scan("r"), Scan("s"))
        got = execute_sharded(plan, db, shards=2, jobs=1)
        assert_equivalent(plan, db, got)

    def test_in_process_when_plan_cannot_pickle(self, random_db):
        # The lambda predicate cannot cross the process boundary; the
        # shards run in-process through the same merge path.
        db = random_db(11)
        plan = Difference(
            Select("$1>1", lambda t: t[0] > 1, Scan("r")), Scan("s")
        )
        tracer = Tracer()
        got = execute_sharded(plan, db, shards=2, tracer=tracer)
        assert_equivalent(plan, db, got)
        meta = tracer.last.meta["sharded"]
        assert meta["parallel"] is False
        assert meta["shards"] == 2

    def test_jobs_one_stays_in_process(self, random_db):
        db = random_db(12)
        plan = Difference(Scan("r"), Scan("s"))
        tracer = Tracer()
        got = execute_sharded(plan, db, shards=4, jobs=1, tracer=tracer)
        assert_equivalent(plan, db, got)
        assert tracer.last.meta["sharded"]["parallel"] is False

    def test_process_pool_path_byte_identical(self, random_db):
        # Picklable plan, two worker processes: the real pool path.
        db = random_db(13, arity=2, domain_size=4, max_rows=25)
        plan = Join(((0, 0),), Scan("r"), Scan("s"))
        tracer = Tracer()
        got = execute_sharded(plan, db, shards=2, tracer=tracer)
        assert_equivalent(plan, db, got)
        meta = tracer.last.meta["sharded"]
        assert meta["parallel"] is True
        assert len(meta["per_shard"]) == 2


class TestTracingAndCache:
    def test_trace_meta_names_partition_schemes(self, random_db):
        db = random_db(14)
        plan = Difference(Scan("r"), Scan("s"))
        tracer = Tracer()
        execute_sharded(plan, db, shards=2, jobs=1, tracer=tracer)
        meta = tracer.last.meta["sharded"]
        assert meta["partition"] == {
            "r": "hash(tuple)", "s": "hash(tuple)"
        }
        assert [s["shard"] for s in meta["per_shard"]] == [0, 1]

    def test_merged_result_cached_under_the_streaming_key(self, random_db):
        db = random_db(15)
        plan = Difference(Scan("r"), Scan("s"))
        cache = PlanCache()
        cold = execute_sharded(plan, db, shards=2, jobs=1, cache=cache)
        # Streaming finds the sharded run's entry: same semantic key.
        tracer = Tracer()
        warm = execute_streaming(plan, db, cache=cache, tracer=tracer)
        assert tracer.last.cache == "hit"
        assert warm.value == cold.value
        assert warm.work == cold.work
        assert warm.per_node == cold.per_node

    def test_warm_hit_skips_partitioning(self, random_db):
        db = random_db(16)
        plan = Difference(Scan("r"), Scan("s"))
        cache = PlanCache()
        execute_streaming(plan, db, cache=cache)
        tracer = Tracer()
        warm = execute_sharded(plan, db, shards=4, cache=cache,
                               tracer=tracer)
        assert tracer.last.cache == "hit"
        assert tracer.last.meta["sharded"]["partition"] == "cache-hit"
        assert_equivalent(plan, db, warm)


class TestFaultsAndDegradation:
    def test_shard_fault_raises_before_dispatch(self, random_db):
        db = random_db(17)
        plan = Difference(Scan("r"), Scan("s"))
        injector = FaultInjector(FaultPlan(seed=1, shard_rate=1.0))
        with pytest.raises(InjectedFault):
            execute_sharded(
                plan, db, shards=2, jobs=1, fault_injector=injector
            )

    def test_database_degrades_down_the_sharded_chain(self, small_db):
        plan = Difference(Scan("r"), Scan("s"))
        want = small_db.run_reference(plan)
        small_db.fault_injector = FaultInjector(
            FaultPlan(seed=2, shard_rate=1.0)
        )
        tracer = Tracer()
        got = small_db.run(
            plan, mode="sharded", shards=2, use_cache=False, tracer=tracer
        )
        small_db.fault_injector = None
        assert got.value == want.value
        assert got.work == want.work
        degraded = tracer.last.meta["degraded"]
        assert degraded[0]["mode"] == "sharded"
        assert degraded[0]["to"] == "reference"

    def test_chain_order_is_pinned(self, small_db):
        # Every executor but the reference would fail here, yet the
        # fallback is one step: sharded straight to the reference.
        small_db.fault_injector = FaultInjector(
            FaultPlan(seed=3, shard_rate=1.0, operator_rate=1.0,
                      compile_rate=1.0)
        )
        tracer = Tracer()
        small_db.run(
            Difference(Scan("r"), Scan("s")), mode="sharded", shards=2,
            use_cache=False, tracer=tracer,
        )
        small_db.fault_injector = None
        events = tracer.last.meta["degraded"]
        assert [(e["mode"], e["to"]) for e in events] == [
            ("sharded", "reference")
        ]


class TestDatabaseSurface:
    def test_run_mode_sharded_matches_reference(self, small_db):
        plan = Union(Scan("r"), Intersect(Scan("s"), Scan("t")))
        got = small_db.run(plan, mode="sharded", shards=2, use_cache=False)
        want = small_db.run_reference(plan)
        assert got.value == want.value
        assert got.work == want.work
        assert got.per_node == want.per_node

    def test_auto_never_offers_sharded(self, small_db):
        # Its pool spin-up keeps sharded behind compiled on every plan,
        # partitionable or not, so auto does not score it.
        for plan in (
            Difference(Scan("r"), Scan("s")),
            Product(Scan("r"), Scan("s")),
        ):
            assert "sharded" not in small_db.plan_mode(plan).scores

    def test_missing_relation_behaves_like_serial(self):
        # Serial streaming scans a missing relation as empty; a shard
        # database leaves it missing so every shard sees exactly that.
        db = {"r": CVSet({Tup((1, 2)), Tup((3, 4))})}
        plan = Difference(Scan("r"), Scan("missing"))
        got = execute_sharded(plan, db, shards=2, jobs=1)
        want = execute_streaming(plan, db)
        assert got.value == want.value
        assert got.work == want.work
        assert got.per_node == want.per_node
