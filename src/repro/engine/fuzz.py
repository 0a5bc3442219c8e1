"""Differential fuzzing of the streaming engine against the reference.

The streaming executor's contract is *bit-for-bit agreement* with the
reference interpreter — same ``CVSet`` answer, same total work, same
per-node postorder ledger — for every plan over every database, in
every cache state.  The property tests pin that contract on curated
plans; this harness hammers it with generated ones:

* **random** — random plans over random tuple databases;
* **nested** — the same plans over databases whose components are
  nested complex values (tuples, sets, lists);
* **atoms** — set-operation trees over relations of bare atoms, the
  inputs that once crashed the bulk path's inline ``len(t)`` weighting;
* **alias** — one ``predicate_name`` bound to *different* closures
  across (and within) plans sharing a cache — the cache-poisoning
  repro, generalized;
* **deep** — unary chains hundreds to thousands of operators deep
  (recursion-safety, pipeline-depth cutting);
* **mutation** — a live :class:`~repro.engine.database.Database`
  mutated between runs (inserts and wholesale replacement), checking
  that invalidation keeps the shared cache honest;
* **delta** — random insert/query interleavings against a live
  database, differentially checking semi-naive *delta maintenance* of
  cached entries (``engine/exec/delta.py``): after every insert, warm
  cached answers across streaming/batch/compiled modes must be
  byte-identical to cold recomputation — value, work, and per-node
  ledger — whether an entry was patched in place or invalidated;
* **compiled** — the plan compiler hammered directly: artifact-store
  reuse across calls, aliased predicates sharing one cache, nested
  databases, cost-driven ``mode="auto"`` on a live database, and the
  deep-chain fallback to streaming;
* **trace** — every plan run traced in streaming *and* batch mode:
  results must still match the reference (observer effect zero), each
  span tree's work must sum to the executor's ledger total, and the
  two executors' span trees must agree node-for-node on rows, work and
  cache annotations (:meth:`repro.obs.trace.Span.structure`) — shared
  subplans served by CSE included.  Trace checks also exercise the
  metrics registry, whose totals ``run_fuzz(jobs=N)`` merges across
  worker processes.

Every generated plan is executed in up to nine modes — cold (no
cache), fresh cache (cold run then warm re-run), and a cache shared
across the whole scenario, for each of the streaming, batch and
compiled executors (the shared runs all probe the *same* cache, so
cross-executor cache interop — including results a compiled run
materialized being served to a streaming run — is fuzzed too) — and
each run is compared against the reference.  Any mismatch is recorded
as a :class:`Divergence`.

Seeds are independent by construction: every scenario derives its rng
as ``derive_rng(base_seed, i, scenario)``, so seed ``i`` plays the same
plans regardless of how many seeds run or which process runs it.  That
is what lets ``run_fuzz(jobs=N)`` shard seeds across worker processes
(:func:`repro.parallel.parallel_map`) and still merge a byte-identical
report.

Entry points: :func:`run_fuzz` (library) and ``python -m repro fuzz
--seeds N [--jobs N]`` (CLI, exits non-zero on divergence).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping as TMapping, Optional

from ..obs.metrics import counter, observe
from ..obs.trace import Tracer
from ..optimizer.plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Plan,
    Scan,
    Select,
    Union,
    execute_reference,
)
from ..types.values import CVSet, Tup, Value
from .database import Database
from .exec import (
    PlanCache,
    execute_batch,
    execute_compiled,
    execute_sharded,
    execute_streaming,
)
from .workload import (
    deep_chain_plan,
    derive_rng,
    random_atom_database,
    random_database,
    random_nested_database,
    random_plan,
)

__all__ = ["Divergence", "FuzzReport", "run_fuzz", "SCENARIOS"]


@dataclass(frozen=True)
class Divergence:
    """One disagreement between streaming and reference execution."""

    seed: int
    scenario: str
    mode: str
    detail: str

    def __str__(self) -> str:
        return (
            f"seed={self.seed} scenario={self.scenario} "
            f"mode={self.mode}: {self.detail}"
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz run."""

    seeds: int = 0
    checks: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    per_scenario: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.seeds} seeds, {self.checks} differential checks"
        ]
        for name in sorted(self.per_scenario):
            lines.append(f"  {name:10} {self.per_scenario[name]} checks")
        if self.ok:
            lines.append("  zero divergences")
        else:
            lines.append(f"  {len(self.divergences)} DIVERGENCE(S):")
            for d in self.divergences[:20]:
                lines.append(f"    {d}")
            if len(self.divergences) > 20:
                lines.append(
                    f"    ... and {len(self.divergences) - 20} more"
                )
        return "\n".join(lines)


def _describe_mismatch(got, want) -> Optional[str]:
    if got.value != want.value:
        return (
            f"value mismatch: streaming {len(got.value)} rows, "
            f"reference {len(want.value)} rows"
        )
    if got.work != want.work:
        return f"work mismatch: streaming {got.work}, reference {want.work}"
    if got.per_node != want.per_node:
        return (
            f"ledger mismatch: streaming {len(got.per_node)} entries, "
            f"reference {len(want.per_node)}"
        )
    return None


class _Checker:
    """Runs one plan through the execution modes, recording divergences."""

    def __init__(self, report: FuzzReport, seed: int, scenario: str) -> None:
        self.report = report
        self.seed = seed
        self.scenario = scenario
        self.shared = PlanCache()

    def _record(self, mode: str, detail: str) -> None:
        self.report.divergences.append(
            Divergence(self.seed, self.scenario, mode, detail)
        )

    def _compare(self, mode: str, got, want) -> None:
        self.report.checks += 1
        self.report.per_scenario[self.scenario] = (
            self.report.per_scenario.get(self.scenario, 0) + 1
        )
        detail = _describe_mismatch(got, want)
        if detail is not None:
            self._record(mode, detail)

    def _check(self, mode: str, ok: bool, detail: str) -> None:
        """A non-differential predicate check (counts like a compare)."""
        self.report.checks += 1
        self.report.per_scenario[self.scenario] = (
            self.report.per_scenario.get(self.scenario, 0) + 1
        )
        if not ok:
            self._record(mode, detail)

    #: ``(label prefix, executor)`` in check order.  Every executor
    #: runs in every cache state: ``cold`` (no cache), ``fresh`` (a new
    #: cache, cold then warm) and ``shared`` — the shared runs all probe
    #: the same cache the other executors populate, so the modes also
    #: fuzz cross-executor cache interop.
    EXECUTORS = (
        ("", execute_streaming),
        ("batch-", execute_batch),
        ("compiled-", execute_compiled),
    )
    ALL_MODES = tuple(
        prefix + state
        for prefix, _ in EXECUTORS
        for state in ("cold", "fresh", "shared")
    )

    def check(
        self,
        plan: Plan,
        db: TMapping[str, CVSet],
        *,
        modes: tuple[str, ...] = ALL_MODES,
    ) -> None:
        reference = execute_reference(plan, db)
        for prefix, execute in self.EXECUTORS:
            if prefix + "cold" in modes:
                self._compare(prefix + "cold", execute(plan, db), reference)
            if prefix + "fresh" in modes:
                fresh = PlanCache()
                for run in ("cold", "warm"):
                    self._compare(
                        f"{prefix}fresh-{run}",
                        execute(plan, db, cache=fresh),
                        reference,
                    )
            if prefix + "shared" in modes:
                self._compare(
                    prefix + "shared",
                    execute(plan, db, cache=self.shared),
                    reference,
                )

    def check_trace(self, plan: Plan, db: TMapping[str, CVSet]) -> None:
        """Cross-check streaming vs batch span trees on one cold plan.

        Traced runs must still match the reference bit-for-bit (the
        tracer has no observer effect on results), every span tree's
        work must sum to its executor's ledger total, and the two
        executors' trees must agree node-for-node — labels, row counts,
        work, cache annotations — at every subplan, shared (CSE-served)
        occurrences included.
        """
        reference = execute_reference(plan, db)
        ts, tb = Tracer(), Tracer()
        streamed = execute_streaming(plan, db, tracer=ts)
        batched = execute_batch(plan, db, tracer=tb)
        self._compare("trace-stream", streamed, reference)
        self._compare("trace-batch", batched, reference)
        for mode, tracer, result in (
            ("trace-stream", ts, streamed),
            ("trace-batch", tb, batched),
        ):
            root = tracer.last
            self._check(
                mode,
                root.total_work() == result.work,
                f"span work sum {root.total_work()} != "
                f"ledger total {result.work}",
            )
            self._check(
                mode,
                root.rows == len(result.value),
                f"root span rows {root.rows} != "
                f"result rows {len(result.value)}",
            )
        self._check(
            "trace-structure",
            ts.last.structure() == tb.last.structure(),
            "stream and batch span trees disagree "
            f"({ts.last.span_count()} vs {tb.last.span_count()} spans)",
        )
        counter("fuzz.trace.plans")
        observe("fuzz.trace.spans", ts.last.span_count())


# ----------------------------------------------------------------------
# Scenario generators.  Each takes (rng, checker) and drives the checker
# through one seed's worth of plans.

_NAMES = ("r", "s", "t")


def _scenario_random(rng: random.Random, check: _Checker) -> None:
    db = random_database(rng, _NAMES)
    for _ in range(3):
        check.check(random_plan(rng, _NAMES, depth=rng.randint(1, 4)), db)


def _scenario_nested(rng: random.Random, check: _Checker) -> None:
    db = random_nested_database(rng, _NAMES)
    for _ in range(3):
        check.check(random_plan(rng, _NAMES, depth=rng.randint(1, 3)), db)


def _atom_even(v: Value) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v % 2 == 0


def _atom_wrap(v: Value) -> Value:
    return Tup((v,))


def _random_atom_plan(rng: random.Random, depth: int) -> Plan:
    """Set-operation trees over atom relations (no positional access)."""
    if depth <= 0:
        return Scan(rng.choice(_NAMES))
    kind = rng.randrange(5)
    if kind == 0:
        return Select("atom_even", _atom_even, _random_atom_plan(rng, depth - 1))
    if kind == 1:
        return MapNode("wrap", _atom_wrap, _random_atom_plan(rng, depth - 1),
                       injective=True)
    op = (Union, Difference, Intersect)[kind - 2]
    return op(_random_atom_plan(rng, depth - 1),
              _random_atom_plan(rng, depth - 1))


def _scenario_atoms(rng: random.Random, check: _Checker) -> None:
    db = random_atom_database(rng, _NAMES)
    # Always include the bulk fast path (set op over two bare scans)...
    op = rng.choice((Union, Difference, Intersect))
    check.check(op(Scan(rng.choice(_NAMES)), Scan(rng.choice(_NAMES))), db)
    # ...and a couple of deeper trees.
    for _ in range(2):
        check.check(_random_atom_plan(rng, rng.randint(1, 3)), db)


def _threshold_pred(k: int) -> Callable[[Value], bool]:
    def pred(t: Value) -> bool:
        try:
            return t[0] >= k
        except TypeError:
            return False

    return pred


def _scenario_alias(rng: random.Random, check: _Checker) -> None:
    """Adversarial name aliasing: one name, many closures, one cache."""
    db = random_database(rng, _NAMES)
    base = Scan(rng.choice(_NAMES))
    thresholds = rng.sample(range(-1, 7), rng.randint(2, 4))
    # Across plans sharing check.shared: a poisoned cache would replay
    # the first threshold's answer for all of them.
    for k in thresholds:
        check.check(Select("thresh", _threshold_pred(k), base), db)
    # Within one plan: the CSE memo must also key on semantics, not
    # just on structural (name-based) equality.
    k1, k2 = thresholds[0], thresholds[1]
    check.check(
        Union(
            Select("thresh", _threshold_pred(k1), base),
            Select("thresh", _threshold_pred(k2), base),
        ),
        db,
    )


def _scenario_trace(rng: random.Random, check: _Checker) -> None:
    """Span-tree cross-checks over random plans (see ``check_trace``)."""
    db = random_database(rng, _NAMES)
    for _ in range(2):
        check.check_trace(
            random_plan(rng, _NAMES, depth=rng.randint(1, 3)), db
        )


def _scenario_deep(rng: random.Random, check: _Checker) -> None:
    db = random_database(rng, _NAMES)
    depth = rng.randint(600, 1500)
    plan = deep_chain_plan(rng, rng.choice(_NAMES), depth)
    # Deep chains are expensive; skip the redundant fresh-cache pairs.
    # batch-cold rides along to pin the batch executor's explicit-stack
    # depth safety.
    check.check(plan, db, modes=("cold", "shared", "batch-cold"))


def _scenario_mutation(rng: random.Random, check: _Checker) -> None:
    """A live database mutated mid-sweep; its own cache must stay honest."""
    db = Database()
    for name in _NAMES:
        db.create(name, 2)
        db.insert(
            name,
            {
                (rng.randrange(5), rng.randrange(5))
                for _ in range(rng.randint(0, 8))
            },
        )
    for _ in range(3):
        plan = random_plan(rng, _NAMES, depth=rng.randint(1, 3))
        check._compare("db-warmup", db.run(plan), db.run_reference(plan))
        check._compare(
            "db-batch", db.run(plan, mode="batch"), db.run_reference(plan)
        )
        victim = rng.choice(_NAMES)
        if rng.random() < 0.5:
            db.insert(
                victim,
                [(rng.randrange(5), rng.randrange(5))
                 for _ in range(rng.randint(1, 3))],
            )
        else:
            db[victim] = CVSet(
                Tup((rng.randrange(5), rng.randrange(5)))
                for _ in range(rng.randint(0, 6))
            )
        check._compare("db-mutated", db.run(plan), db.run_reference(plan))
        check._compare(
            "db-mutated-batch",
            db.run(plan, mode="batch"),
            db.run_reference(plan),
        )


def _scenario_durability(rng: random.Random, check: _Checker) -> None:
    """Crash-recovery differential: a WAL-attached database, mutated
    and (maybe) checkpointed, must recover to the live database's
    exact contents, fingerprints and generation — and a plan run on
    the recovered database must match the live reference answer."""
    import tempfile

    from ..durability import DurabilityManager, recover
    from .serialize import database_to_json

    with tempfile.TemporaryDirectory() as directory:
        live = Database(cache_capacity=16)
        live.durability = DurabilityManager(
            directory,
            fsync=False,
            checkpoint_every=rng.choice((None, 2)),
        )
        for name in _NAMES:
            live.create(name, 2)
            live.insert(
                name,
                {
                    (rng.randrange(6), rng.randrange(6))
                    for _ in range(rng.randint(1, 6))
                },
            )
        for _ in range(rng.randint(1, 3)):
            victim = rng.choice(_NAMES)
            if rng.random() < 0.8:
                live.insert(
                    victim,
                    [(rng.randrange(6), rng.randrange(6))
                     for _ in range(rng.randint(1, 3))],
                )
            else:
                live[victim] = CVSet(
                    Tup((rng.randrange(6), rng.randrange(6)))
                    for _ in range(rng.randint(0, 5))
                )
        recovered, _report = recover(directory)
        check._check(
            "recover-content",
            database_to_json(recovered) == database_to_json(live),
            "recovered contents differ from the live database",
        )
        check._check(
            "recover-generation",
            recovered._generation == live._generation,
            f"recovered generation {recovered._generation} != "
            f"live {live._generation}",
        )
        check._check(
            "recover-fingerprints",
            all(
                recovered.fingerprint(name) == live.fingerprint(name)
                for name in live.relations
            ),
            "recovered fingerprints differ from the live database",
        )
        for _ in range(2):
            plan = random_plan(rng, _NAMES, depth=rng.randint(1, 3))
            check._compare(
                "recover-plan", recovered.run(plan), live.run_reference(plan)
            )


def _scenario_delta(rng: random.Random, check: _Checker) -> None:
    """Insert/query interleavings vs semi-naive cache maintenance.

    A live database serves a fixed plan set warm; between rounds, rows
    are inserted into random relations, so cached entries are patched
    in place by ``PlanCache.maintain`` (or invalidated when not
    maintainable).  Every answer — streaming, batch, compiled, auto —
    is compared byte-for-byte against the reference interpreter over
    the post-insert contents.  A second pass runs the same plans on a
    maintenance-disabled twin database fed the same inserts, pinning
    maintained results to the legacy invalidate-and-recompute answers.
    """
    db = Database()
    legacy = Database()
    legacy.plan_cache.maintenance_enabled = False
    for name in _NAMES:
        db.create(name, 2)
        legacy.create(name, 2)
        rows = {
            (rng.randrange(5), rng.randrange(5))
            for _ in range(rng.randint(2, 8))
        }
        db.insert(name, rows)
        legacy.insert(name, rows)
    plans = [
        random_plan(rng, _NAMES, depth=rng.randint(1, 4))
        for _ in range(rng.randint(2, 3))
    ]
    modes = ("stream", "batch", "compiled", "auto")
    for plan in plans:  # populate both caches
        db.run(plan, mode=rng.choice(modes))
        legacy.run(plan, mode="stream")
    for _ in range(3):
        victim = rng.choice(_NAMES)
        batch = [
            (rng.randrange(6), rng.randrange(6))
            for _ in range(rng.randint(1, 3))
        ]
        db.insert(victim, batch)
        legacy.insert(victim, batch)
        for plan in plans:
            want = db.run_reference(plan)
            for mode in modes:
                check._compare(
                    f"delta-{mode}", db.run(plan, mode=mode), want
                )
            # Maintained warm answer == legacy invalidate+recompute.
            check._compare(
                "delta-legacy", legacy.run(plan, mode="stream"), want
            )
    # The maintained cache must actually have maintained something on
    # most seeds; assert the counters stay coherent either way.
    stats = db.plan_cache.stats()
    check._check(
        "delta-counters",
        stats["maintained"] >= 0
        and stats["maintain_fallback"] == 0,
        f"unexpected maintenance fallback: {stats}",
    )


def _scenario_compiled(rng: random.Random, check: _Checker) -> None:
    """Plan-compiler hammering: artifact reuse, aliasing, nesting,
    auto-mode on a live database, and the deep-chain fallback."""
    db = random_database(rng, _NAMES)
    store = PlanCache()
    for _ in range(2):
        plan = random_plan(rng, _NAMES, depth=rng.randint(1, 4))
        reference = execute_reference(plan, db)
        # Second run replays the memoized artifact — same contract.
        check._compare(
            "compiled-store-cold",
            execute_compiled(plan, db, compile_store=store),
            reference,
        )
        check._compare(
            "compiled-store-warm",
            execute_compiled(plan, db, compile_store=store),
            reference,
        )
    ndb = random_nested_database(rng, _NAMES)
    check.check(
        random_plan(rng, _NAMES, depth=rng.randint(1, 3)),
        ndb,
        modes=("compiled-cold", "compiled-fresh"),
    )
    # One predicate name over different closures against one shared
    # cache: artifact keys must alias apart exactly like result keys.
    base = Scan(rng.choice(_NAMES))
    k1, k2 = rng.sample(range(-1, 7), 2)
    for k in (k1, k2):
        check.check(
            Select("thresh", _threshold_pred(k), base),
            db,
            modes=("compiled-shared",),
        )
    check.check(
        Union(
            Select("thresh", _threshold_pred(k1), base),
            Select("thresh", _threshold_pred(k2), base),
        ),
        db,
        modes=("compiled-cold", "compiled-shared"),
    )
    # Live database: compiled cold/warm and cost-driven auto dispatch.
    live = Database()
    for name in _NAMES:
        live.create(name, 2)
        live.insert(
            name,
            {
                (rng.randrange(5), rng.randrange(5))
                for _ in range(rng.randint(0, 8))
            },
        )
    for _ in range(2):
        plan = random_plan(rng, _NAMES, depth=rng.randint(1, 3))
        want = live.run_reference(plan)
        check._compare(
            "db-compiled-cold",
            live.run(plan, mode="compiled", use_cache=False),
            want,
        )
        check._compare(
            "db-compiled-warm", live.run(plan, mode="compiled"), want
        )
        check._compare(
            "db-auto-cold",
            live.run(plan, mode="auto", use_cache=False),
            want,
        )
        check._compare("db-auto-warm", live.run(plan, mode="auto"), want)
    # Past MAX_PIPELINE_DEPTH the compiler must fall back to streaming.
    plan = deep_chain_plan(rng, rng.choice(_NAMES), rng.randint(200, 400))
    check.check(plan, db, modes=("compiled-cold",))


def _scenario_sharded(rng: random.Random, check: _Checker) -> None:
    """Sharded-vs-streaming twin: one plan, shard counts 1/2/4.

    Random plans exercise the analysis fallback (non-partitionable
    plans must collapse to single-shard and still match); the forced
    co-partitioned join and atom set-op trees pin the genuinely
    partitioned paths.  Twin runs use ``jobs=1`` so fuzz workers never
    nest process pools — the partition/merge accounting is identical
    either way — while the live-database pass goes through
    ``Database.run(mode="sharded")`` end to end.
    """
    db = random_database(rng, _NAMES)
    for _ in range(2):
        plan = random_plan(rng, _NAMES, depth=rng.randint(1, 4))
        want = execute_streaming(plan, db)
        for shards in (1, 2, 4):
            check._compare(
                f"sharded-{shards}",
                execute_sharded(plan, db, shards=shards, jobs=1),
                want,
            )
    # A guaranteed co-partitioned equi-join (cross-shard probes vanish).
    join = Join(
        ((rng.randrange(2), rng.randrange(2)),),
        Scan(rng.choice(_NAMES)),
        Scan(rng.choice(_NAMES)),
    )
    want = execute_streaming(join, db)
    for shards in (2, 4):
        check._compare(
            f"sharded-join-{shards}",
            execute_sharded(join, db, shards=shards, jobs=1),
            want,
        )
    # Atom relations: column keys are impossible, so set-op trees run
    # on whole-tuple hash and bare scans on round-robin.
    adb = random_atom_database(rng, _NAMES)
    atom_plan = _random_atom_plan(rng, rng.randint(1, 3))
    want = execute_streaming(atom_plan, adb)
    for shards in (1, 2, 4):
        check._compare(
            f"sharded-atoms-{shards}",
            execute_sharded(atom_plan, adb, shards=shards, jobs=1),
            want,
        )
    # Live database end to end: cache on, reference fallback wired, and
    # picklable plans really cross the process pool.
    live = Database()
    for name in _NAMES:
        live.create(name, 2)
        live.insert(
            name,
            {
                (rng.randrange(5), rng.randrange(5))
                for _ in range(rng.randint(0, 8))
            },
        )
    for _ in range(2):
        plan = random_plan(rng, _NAMES, depth=rng.randint(1, 3))
        want = live.run_reference(plan)
        check._compare(
            "db-sharded-cold",
            live.run(
                plan,
                mode="sharded",
                shards=rng.choice((2, 4)),
                use_cache=False,
            ),
            want,
        )
        check._compare(
            "db-sharded-warm", live.run(plan, mode="sharded", shards=2),
            want,
        )


SCENARIOS: dict[str, Callable[[random.Random, _Checker], None]] = {
    "random": _scenario_random,
    "nested": _scenario_nested,
    "atoms": _scenario_atoms,
    "alias": _scenario_alias,
    "mutation": _scenario_mutation,
    "delta": _scenario_delta,
    "durability": _scenario_durability,
    "compiled": _scenario_compiled,
    "sharded": _scenario_sharded,
    "trace": _scenario_trace,
    "deep": _scenario_deep,
}


def _seed_scenarios(
    i: int, active: tuple[str, ...], deep_every: int
) -> list[str]:
    """Which scenarios seed ``i`` plays (cheap rotation + periodic deep)."""
    cheap = [name for name in active if name != "deep"]
    names: list[str] = []
    if cheap:
        names.append(cheap[i % len(cheap)])
    if "deep" in active and deep_every > 0 and i % deep_every == 0:
        names.append("deep")
    return names


def _fuzz_one_seed(
    task: tuple[int, int, tuple[str, ...], int]
) -> FuzzReport:
    """Run one seed's scenarios into a single-seed report.

    Top-level (picklable) so :func:`repro.parallel.parallel_map` can
    ship it to worker processes; the rng is derived from the task alone,
    so the result is identical wherever it runs.
    """
    base_seed, i, active, deep_every = task
    report = FuzzReport(seeds=1)
    for name in _seed_scenarios(i, active, deep_every):
        rng = derive_rng(base_seed, i, name)
        SCENARIOS[name](rng, _Checker(report, base_seed + i, name))
    return report


def _merge_reports(parts: list[FuzzReport]) -> FuzzReport:
    """Concatenate per-seed reports in seed order."""
    merged = FuzzReport()
    for part in parts:
        merged.seeds += part.seeds
        merged.checks += part.checks
        merged.divergences.extend(part.divergences)
        for name, n in part.per_scenario.items():
            merged.per_scenario[name] = merged.per_scenario.get(name, 0) + n
    return merged


def run_fuzz(
    seeds: int,
    *,
    base_seed: int = 0,
    deep_every: int = 10,
    scenarios: Optional[tuple[str, ...]] = None,
    jobs: int = 1,
) -> FuzzReport:
    """Run ``seeds`` differential fuzz iterations.

    Each seed cycles through the cheap scenarios; the expensive ``deep``
    scenario runs every ``deep_every``-th seed.  ``scenarios`` restricts
    the set (by name) when given.  Determinism: seed ``i`` always plays
    the same plans against the same databases, independent of the
    overall count and of ``jobs`` — with ``jobs > 1`` the seeds are
    sharded across worker processes and the per-seed reports merged in
    seed order, so the report (and its rendered summary) is identical
    to the serial run's.
    """
    active = tuple(scenarios) if scenarios is not None else tuple(SCENARIOS)
    unknown = [name for name in active if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s): {', '.join(unknown)}")
    tasks = [(base_seed, i, active, deep_every) for i in range(seeds)]
    if jobs > 1:
        from ..parallel import parallel_map

        parts = parallel_map(
            _fuzz_one_seed, tasks, jobs=jobs, merge_metrics=True
        )
    else:
        parts = [_fuzz_one_seed(task) for task in tasks]
    return _merge_reports(parts)
