"""Set-up, the closed loop, the oracle and the counters.

One client, one thread, closed loop: each call returns before the next
is issued.  Only public entry points with their defaults are driven:
``Database.query(text, optimize=True)``, ``Database.run(plan)``,
``Database.insert`` on a ``DurabilityManager``-attached database and
``repro.durability.recover``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.durability import DurabilityManager, recover
from repro.engine.database import Database
from repro.engine.serialize import database_to_json
from repro.optimizer.parser import parse_plan
from repro.optimizer.plan import execute_reference
from repro.optimizer.rewriter import Rewriter

from corpus import WAL_CHECKPOINT_EVERY, Inputs, Op, insert_ops, op_stream

#: The timed run is cut into this many slices.  Each slice runs the
#: workload for its share of ``--seconds``, then its share of the
#: write tail (read workloads).  A shared machine's speed changes from
#: one second to the next, so every wall-clock metric of the timed run
#: samples all of it, finely, rather than a few bursts.
SLICES = 100
#: Inserts of the write tail, spread over the slices.  Their p99 has
#: ten or more samples beyond it; at one checkpoint per 64 inserts it
#: is the fifth fastest of 15 checkpoints, or the eleventh of 31 on
#: warm_text, whose checkpoints are short and so noisier each.
TAIL_INSERTS = {"warm_text": 2000, "cold_corpus": 1000}
#: Slices between two timed ``recover()`` calls: twenty per run where
#: a recovery takes tens of milliseconds, ten on cold_corpus, whose
#: 16k-row checkpoint takes about half a second to load.
RECOVER_EVERY = {"warm_text": 5, "cold_corpus": 10, "wal_mix": 5}
#: Slices between two timed set-ups of a database that is then dropped.
#: A shared machine's speed can halve for seconds at a time, so set-ups
#: spread over the run give a steadier median than a burst of them.
SETUP_EVERY = 10
#: Oracle sample size per workload.
CHECKS = {"warm_text": 64, "cold_corpus": 24, "wal_mix": 40}
#: Operations replayed in a fresh database to check that counters
#: repeat exactly.
REPLAY_OPS = {"warm_text": 640, "cold_corpus": 40, "wal_mix": 400}


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def build_database(inputs: Inputs) -> Database:
    """The HR schema (as ``repro.engine.workload.hr_database``
    declares it) with the generated rows bulk-inserted."""
    db = Database()
    shared = {(0,): "ssn"}
    db.create("employees", 3, keys=[(0,)], shared_keys=shared)
    db.create("students", 3, keys=[(0,)], shared_keys=shared)
    db.create("contractors", 3, keys=[])
    for name, rows in inputs.rows.items():
        db.insert(name, rows)
    return db


def execute(db: Database, op: Op):
    if op.kind == "query":
        return db.query(op.item, optimize=True)
    if op.kind == "plan":
        return db.run(op.item)
    db.insert(op.relation, [op.item])
    return None


def digest(db: Database) -> tuple:
    """Contents, generation and fingerprints (as ``bench_durability``)."""
    return (
        json.dumps(database_to_json(db), sort_keys=True),
        db._generation,
        tuple(sorted((n, db.fingerprint(n)) for n in db.relations)),
    )


def counters(db: Database, phase: Optional["Phase"] = None) -> dict:
    """The deterministic counters of one database, after ``phase``'s
    operations so far when given."""
    out = {}
    if phase is not None:
        out.update(ops=phase.done, inserts=phase.inserts, work=phase.work)
    out.update({f"cache.{k}": v for k, v in db.plan_cache.stats().items()})
    out.update(
        {f"compiled.{k}": v for k, v in db.plan_cache.compiled_stats().items()}
    )
    if db.durability is not None:
        out["wal.last_lsn"] = db.durability.wal.last_lsn
        out["wal.bytes"] = os.path.getsize(db.durability.wal.path)
    return out


@dataclass
class Phase:
    """What one pass of operations observed."""

    seconds: float = 0.0
    done: int = 0
    failures: list = field(default_factory=list)
    latency: dict = field(default_factory=lambda: {"query": [], "insert": []})
    work: int = 0
    queries: int = 0
    inserts: int = 0
    checked: list = field(default_factory=list)  # (op, result, relations)
    seen: set = field(default_factory=set)  # corpus items already checked
    wal_bytes: int = 0
    wal_records: int = 0
    wal_inserts: int = 0
    snapshot: Optional[dict] = None  # counters at ``snapshot_at`` ops
    recovery: list = field(default_factory=list)  # seconds per recover()
    setup: list = field(default_factory=list)  # seconds per set-up


class Bench:
    """One workload's inputs and the durability directories it made."""

    def __init__(self, inputs: Inputs, workdir: str) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self._dirs = 0
        self.wal = inputs.workload == "wal_mix"

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"state{self._dirs}")
        os.makedirs(path)
        return path

    # ------------------------------------------------------------------
    # Set-up: build, warm up, and for wal_mix attach the WAL (which
    # publishes the first checkpoint).

    def setup_once(self) -> Database:
        db = build_database(self.inputs)
        for op in self.inputs.warmup:
            execute(db, op)
        if self.wal:
            db.durability = DurabilityManager(
                self.fresh_dir(), checkpoint_every=WAL_CHECKPOINT_EVERY
            )
        return db

    def writer(self, db: Database) -> Database:
        """The database the insert and recovery metrics come from:
        ``wal_mix``'s own, and for the read workloads a second fresh
        one with its result cache emptied and a WAL attached, so their
        write tail measures the same write path at their data size
        whatever the reads did (delta maintenance under reads is
        wal_mix's job).  The WAL attach is not part of any metric."""
        if self.wal:
            return db
        side = self.setup_once()
        side.plan_cache.clear()
        side.durability = DurabilityManager(
            self.fresh_dir(), checkpoint_every=WAL_CHECKPOINT_EVERY
        )
        return side

    def setup(self) -> tuple[Database, float]:
        """One timed set-up; earlier garbage is collected first."""
        gc.collect()
        start = time.perf_counter()
        db = self.setup_once()
        return db, time.perf_counter() - start

    # ------------------------------------------------------------------
    # The closed loop.

    def run_ops(
        self,
        db: Database,
        ops,
        *,
        seconds: Optional[float] = None,
        count: float = math.inf,
        snapshot_at: int = 0,
        trace=None,
        phase: Optional[Phase] = None,
    ) -> Phase:
        """Issue ``ops`` until ``seconds`` elapsed or ``phase.done``
        reached ``count``; with ``phase`` given, continue it.

        Latency covers the public call only; the bookkeeping around it
        (oracle samples, WAL size) is outside each sample.  With
        ``trace`` each call is also the root span of its layers."""
        phase = phase if phase is not None else Phase()
        checks = CHECKS[self.inputs.workload]
        wal = db.durability.wal if db.durability is not None else None
        wal_size = os.path.getsize(wal.path) if wal is not None else 0
        perf = time.perf_counter
        start = perf()
        deadline = start + seconds if seconds is not None else math.inf
        for op in ops:
            kind = "insert" if op.kind == "insert" else "query"
            lsn = wal.last_lsn if wal is not None else 0
            t0 = perf()
            try:
                if trace is None:
                    result = execute(db, op)
                else:
                    result = trace.call(kind, execute, db, op)
            except Exception as exc:  # a failed operation, not a crash
                phase.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                result = None
            t1 = perf()
            phase.latency[kind].append(t1 - t0)
            phase.done += 1
            if kind == "query":
                phase.queries += 1
                if result is not None:
                    phase.work += result.work
                    if len(phase.checked) < checks and self._sample(op, phase):
                        phase.checked.append((op, result, dict(db.relations)))
            else:
                phase.inserts += 1
                if wal is not None:
                    size = os.path.getsize(wal.path)
                    if size >= wal_size:  # no checkpoint reset the log
                        phase.wal_bytes += size - wal_size
                        phase.wal_records += wal.last_lsn - lsn
                        phase.wal_inserts += 1
                    wal_size = size
            if phase.done == snapshot_at:
                phase.snapshot = counters(db, phase)
            if t1 >= deadline or phase.done >= count:
                break
        phase.seconds += perf() - start
        return phase

    def _sample(self, op: Op, phase: Phase) -> bool:
        """Read workloads check the first occurrence of evenly spaced
        corpus items; wal_mix checks every 37th query, each against the
        state it ran on."""
        if self.wal:
            return phase.queries % 37 == 1
        stride = max(1, len(self.inputs.corpus) // CHECKS[self.inputs.workload])
        if op.index % stride or op.index in phase.seen:
            return False
        phase.seen.add(op.index)
        return True

    # ------------------------------------------------------------------
    # The timed run, and recovery.

    def timed(self, db: Database, writer: Database, seconds: float):
        """``SLICES`` slices of reads (or wal_mix's mix) on ``db``, each
        followed by its share of the write tail on ``writer``; every
        ``RECOVER_EVERY`` slices one timed ``recover()`` of ``writer``'s
        directory (it is read-only), and every ``SETUP_EVERY`` slices
        one timed set-up of a database that is then dropped.  Returns
        the read phase (with the set-up times), the write phase (with
        the recovery times) and the last ``recover()`` result."""
        workload = self.inputs.workload
        reads = op_stream(self.inputs)
        tail = None if writer is db else insert_ops(self.inputs)
        timed = Phase()
        writes = timed if tail is None else Phase()
        recovered = None
        for s in range(1, SLICES + 1):
            self.run_ops(db, reads, seconds=seconds / SLICES, phase=timed,
                         snapshot_at=REPLAY_OPS[workload])
            if tail is not None:
                due = s * TAIL_INSERTS[workload] // SLICES
                if writes.done < due:
                    self.run_ops(writer, tail, count=due, phase=writes)
            if s % RECOVER_EVERY[workload] == 0 or s == SLICES:
                recovered = None
                # A full collection first, so that neither the last
                # recovered database nor a collection the reads made due
                # is timed here.
                gc.collect()
                start = time.perf_counter()
                recovered = recover(writer.durability.directory)
                writes.recovery.append(time.perf_counter() - start)
            if s % SETUP_EVERY == 0:
                spare, took = self.setup()
                timed.setup.append(took)
                if spare.durability is not None:
                    spare.durability.close()
                spare = None
        if timed.snapshot is None:  # fewer operations than REPLAY_OPS
            timed.snapshot = counters(db, timed)
        return timed, writes, recovered


# ----------------------------------------------------------------------
# The oracle.


def oracle(db: Database, checked: list) -> list:
    """Mismatches between sampled answers and ``execute_reference`` on
    the relations each query ran against: value and work of the plan
    that ran, and value of the plan as written."""
    bad = []
    for op, result, relations in checked:
        if op.kind == "plan":
            written = ran = op.item
        else:
            written = parse_plan(op.item)
            ran = Rewriter(db.catalog).optimize(parse_plan(op.item))
        want = execute_reference(ran, relations)
        if want.value != result.value or want.work != result.work:
            bad.append(f"answer differs from reference: {str(ran)[:120]}")
            continue
        if str(ran) != str(written):
            if execute_reference(written, relations).value != result.value:
                bad.append(f"rewrite changed the answer: {str(written)[:120]}")
    return bad
