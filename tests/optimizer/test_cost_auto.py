"""Cost-driven adaptive mode choice (``Database.run(mode="auto")``).

Pins the PR-6 cost-model surface: live-catalog statistics
(``Stats.from_database`` with real cardinalities and per-column
distinct counts), selectivity clamping on degenerate catalogs,
``choose_mode`` scoring, the database-side decision memo and its
invalidation on mutation, and the EXPLAIN/tracing surfacing of the
decision.
"""

import random

from repro.engine.database import Database
from repro.engine.exec import MAX_PIPELINE_DEPTH
from repro.engine.workload import deep_chain_plan, random_database, random_plan
from repro.obs import explain
from repro.obs.trace import Tracer
from repro.optimizer.cost import (
    MODE_COST,
    Stats,
    _clamp_selectivity,
    choose_mode,
    estimate,
)
from repro.optimizer.plan import (
    Difference,
    Join,
    Project,
    Scan,
    Union,
)
from repro.types.values import CVSet, Tup


import pytest


@pytest.fixture()
def hr(hr_db):
    """The file's HR workload shape, any size: seed 3, 2:1:0.25 ratio."""
    def make(size=40):
        return hr_db(seed=3, employees=size, students=size // 2,
                     overlap=size // 4)
    return make


HR_PLAN = Project((0,), Difference(Scan("employees"), Scan("students")))


class TestStatsFromDatabase:
    def test_real_cardinalities_and_widths(self):
        db = Database()
        db.create("r", 3)
        db.insert("r", [(i, i % 2, str(i)) for i in range(7)])
        stats = Stats.from_database(db)
        assert stats.rows["r"] == 7
        assert stats.widths["r"] == 3

    def test_per_column_distincts(self):
        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i % 3) for i in range(9)])
        stats = Stats.from_database(db)
        assert stats.distincts["r"] == {0: 9, 1: 3}

    def test_atom_rows_skipped_in_distincts(self):
        db = Database()
        db.create("r", 1)
        db["r"] = CVSet({Tup((1,)), Tup((2,)), "atom"})
        stats = Stats.from_database(db)
        assert stats.rows["r"] == 3
        assert stats.widths["r"] >= 1
        assert stats.distincts["r"].get(0, 0) <= 3

    def test_empty_relation_keeps_sane_floors(self):
        db = Database()
        db.create("empty", 2)
        stats = Stats.from_database(db)
        assert stats.rows["empty"] == 0
        assert stats.widths["empty"] >= 1
        est = estimate(Scan("empty"), stats)
        assert est.rows == 0 and est.width >= 1

    def test_distincts_feed_join_estimates(self):
        """With measured distinct counts the equi-join estimate uses
        1/max(d_l, d_r) instead of the one-match-per-row guess."""
        db = Database()
        db.create("l", 2)
        db.insert("l", [(i % 4, i) for i in range(16)])
        db.create("r", 2)
        db.insert("r", [(i % 4, i) for i in range(8)])
        stats = Stats.from_database(db)
        with_d = estimate(Join(((0, 0),), Scan("l"), Scan("r")), stats)
        without = estimate(
            Join(((0, 0),), Scan("l"), Scan("r")),
            Stats(dict(stats.rows), dict(stats.widths)),
        )
        # 16*8/4 = 32 matching pairs vs the heuristic's 16.
        assert with_d.rows > without.rows


class TestSelectivityClamp:
    def test_clamps_zero_negative_and_nan(self):
        assert _clamp_selectivity(0.0) == 1e-6
        assert _clamp_selectivity(-3.0) == 1e-6
        assert _clamp_selectivity(float("nan")) == 1e-6

    def test_clamps_above_one(self):
        assert _clamp_selectivity(7.5) == 1.0

    def test_passes_normal_values(self):
        assert _clamp_selectivity(0.33) == 0.33

    def test_degenerate_catalog_never_negative(self):
        """All-empty stats still estimate finite non-negative work."""
        stats = Stats({"r": 0, "s": 0}, {"r": 1, "s": 1})
        plan = Difference(Union(Scan("r"), Scan("s")), Scan("r"))
        est = estimate(plan, stats)
        assert est.rows >= 0 and est.work >= 0


class TestChooseMode:
    def test_tiny_plans_stay_on_the_reference_interpreter(self):
        """Zero-work plans cannot amortize any fixed overhead."""
        stats = Stats({"r": 1}, {"r": 1})
        decision = choose_mode(Scan("r"), stats)
        assert decision.mode == "reference"

    def test_large_plans_choose_compiled(self):
        stats = Stats({"r": 100_000, "s": 50_000}, {"r": 2, "s": 2})
        plan = Project((0,), Difference(Scan("r"), Scan("s")))
        decision = choose_mode(plan, stats)
        assert decision.mode == "compiled"

    def test_scores_cover_every_candidate(self):
        stats = Stats({"r": 100}, {"r": 2})
        decision = choose_mode(Project((0,), Scan("r")), stats)
        assert set(decision.scores) == set(MODE_COST)
        assert decision.scores[decision.mode] == min(
            decision.scores.values()
        )

    def test_candidate_restriction_is_honored(self):
        stats = Stats({"r": 100_000}, {"r": 2})
        plan = Project((0,), Scan("r"))
        decision = choose_mode(
            plan, stats, candidates=("reference", "batch")
        )
        assert decision.mode != "compiled"
        assert "compiled" not in decision.scores

    def test_empty_candidates_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="candidate"):
            choose_mode(Scan("r"), Stats(), candidates=())

    def test_to_dict_round_trips_the_decision(self):
        stats = Stats({"r": 100}, {"r": 2})
        decision = choose_mode(Project((0,), Scan("r")), stats)
        d = decision.to_dict()
        assert d["mode"] == decision.mode
        assert set(d["scores"]) == set(decision.scores)


class TestDatabaseAuto:
    def test_auto_matches_reference_results(self, hr):
        db = hr()
        auto = db.run(HR_PLAN, use_cache=False, mode="auto")
        reference = db.run_reference(HR_PLAN)
        assert auto.value == reference.value
        assert auto.work == reference.work
        assert auto.per_node == reference.per_node

    def test_deep_plans_never_choose_compiled(self):
        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i) for i in range(500)])
        plan = deep_chain_plan(random.Random(5), "r", 1000)
        decision = db.plan_mode(plan)
        assert decision.mode != "compiled"
        assert "compiled" not in decision.scores
        result = db.run(plan, use_cache=False, mode="auto")
        reference = db.run_reference(plan)
        assert result.value == reference.value

    def test_random_plans_score_reference_and_compiled_only(self):
        """Only modes that can win are offered: at most
        ``MAX_PIPELINE_DEPTH`` deep, reference against compiled."""
        for seed in range(40):
            rng = random.Random(seed)
            db = Database()
            for name, rows in random_database(
                rng, ("r", "s", "t"), max_rows=rng.randint(0, 60)
            ).items():
                db[name] = rows
            plan = random_plan(rng, ("r", "s", "t"), depth=rng.randint(1, 6))
            decision = db.plan_mode(plan)
            assert set(decision.scores) == {"reference", "compiled"}
            assert decision.mode in decision.scores

    def test_deep_chains_score_reference_and_batch_only(self):
        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i) for i in range(50)])
        for seed in range(5):
            plan = deep_chain_plan(
                random.Random(seed), "r", MAX_PIPELINE_DEPTH + 1 + seed
            )
            assert set(db.plan_mode(plan).scores) == {"reference", "batch"}
        plan = deep_chain_plan(random.Random(5), "r", 1000)
        assert db.plan_mode(plan).mode == "batch"
        result = db.run(plan, use_cache=False, mode="auto")
        reference = db.run_reference(plan)
        assert result.value == reference.value
        assert result.work == reference.work
        assert result.per_node == reference.per_node

    def test_shallow_plan_keeps_compiled_candidate(self, hr):
        db = hr()
        assert "compiled" in db.plan_mode(HR_PLAN).scores
        assert (
            deep_chain_plan(random.Random(5), "employees", 1000).children
        )  # sanity: the deep plan above really was the deep case
        assert MAX_PIPELINE_DEPTH < 1000

    def test_decision_memoized_per_generation(self, hr):
        db = hr()
        first = db.plan_mode(HR_PLAN)
        assert db.plan_mode(HR_PLAN) is first  # memo hit
        db.insert("employees", [(999_001, "zz", 9)])
        second = db.plan_mode(HR_PLAN)
        assert second is not first  # mutation invalidated the memo

    def test_current_stats_memoized_per_generation(self, hr):
        db = hr()
        first = db.current_stats()
        assert db.current_stats() is first
        db.insert("employees", [(999_002, "zz", 9)])
        second = db.current_stats()
        assert second is not first
        assert (
            second.rows["employees"] == first.rows["employees"] + 1
        )

    def test_tracer_surfaces_the_decision(self, hr):
        db = hr()
        tracer = Tracer()
        db.run(HR_PLAN, use_cache=False, mode="auto", tracer=tracer)
        meta = tracer.last.meta
        assert meta is not None and "auto" in meta
        assert meta["auto"]["mode"] in MODE_COST
        assert set(meta["auto"]["scores"]) <= set(MODE_COST)


class TestExplainAutoAndCompiled:
    def test_explain_compiled_mode(self, hr):
        db = hr()
        report = explain(HR_PLAN, db, mode="compiled", use_cache=False)
        reference = db.run_reference(HR_PLAN)
        assert report.rows == len(reference.value)
        assert report.work == reference.work
        assert report.decision is None

    def test_explain_auto_carries_decision(self, hr):
        db = hr()
        report = explain(HR_PLAN, db, mode="auto", use_cache=False)
        assert report.mode == "auto"
        assert report.decision is not None
        assert report.decision["mode"] in MODE_COST
        rendered = report.render()
        assert "auto: chose" in rendered
        assert report.to_dict()["decision"] == report.decision

    def test_explain_auto_on_plain_mapping(self, hr):
        """A plain mapping runs in a throwaway Database, so the decision
        is the one ``plan_mode`` makes for the same rows."""
        db = hr()
        report = explain(HR_PLAN, db.relations, mode="auto")
        assert report.decision == db.plan_mode(HR_PLAN).to_dict()
        reference = db.run_reference(HR_PLAN)
        assert report.work == reference.work
