"""The untraced (end-to-end) and traced (per-layer) runs."""

from __future__ import annotations

import resource
import statistics
import time

import harness as h
from corpus import insert_ops, op_stream
from layers import LayerTrace
from repro.durability import recover
from repro.obs.metrics import REGISTRY
from repro.optimizer.parser import parse_plan
from repro.optimizer.rewriter import Rewriter

#: Operations per pass of the traced run (fixed, so its counts repeat).
#: cold_corpus runs long enough for the result cache to start evicting.
TRACE_OPS = {"warm_text": 1280, "cold_corpus": 240, "wal_mix": 2000}
#: Corpus items sampled for the per-mode cold columns.
MODE_SAMPLE = 6
MODES = ("reference", "stream", "batch", "compiled")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def diff(after: dict, before: dict, key: str) -> int:
    return after[key] - before[key]


# ----------------------------------------------------------------------
# End to end.


def end_to_end(bench: h.Bench, seconds: float):
    """The time-bounded run of the unmodified program."""
    inputs = bench.inputs
    db, took = bench.setup()
    writer = bench.writer(db)
    timed, writes, (recovered, report) = bench.timed(db, writer, seconds)

    failures = list(timed.failures)
    if writes is not timed:
        failures += writes.failures
    failures += h.oracle(db, timed.checked)
    if h.digest(recovered) != h.digest(writer):
        failures.append("recovered database differs from the live one")
    recovered = None
    # Counters repeat exactly: run the same operations in a fresh
    # database and compare the snapshots taken after as many of them.
    ops = timed.snapshot["ops"]
    replay = bench.run_ops(bench.setup_once(), op_stream(inputs),
                           count=ops, snapshot_at=ops)
    if replay.snapshot != timed.snapshot:
        failures.append("counters differ between two passes of the same ops")

    queries = timed.latency["query"]
    inserts = writes.latency["insert"]
    metrics = {
        "setup_s": metric(statistics.median([took] + timed.setup), "s"),
        "ops_per_s": metric(timed.done / timed.seconds, "1/s"),
        "query_p50_us": metric(1e6 * h.percentile(queries, 0.50), "us"),
        "query_p90_us": metric(1e6 * h.percentile(queries, 0.90), "us"),
        "insert_p50_us": metric(1e6 * h.percentile(inserts, 0.50), "us"),
        "insert_p99_us": metric(1e6 * h.percentile(inserts, 0.99), "us"),
        "recovery_s": metric(statistics.median(writes.recovery), "s"),
        "wal_bytes_per_insert": metric(
            writes.wal_bytes / max(writes.wal_inserts, 1), "B"
        ),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    attempted = timed.done + len(writes.recovery)
    if writes is not timed:
        attempted += writes.done
    snap = timed.snapshot
    snap_inserts = max(snap["inserts"], 1)
    info = {
        "samples": {
            "queries": len(queries),
            "inserts": len(inserts),
            "oracle_checks": len(timed.checked),
            "recoveries": len(writes.recovery),
        },
        "counters": {"after_ops": snap, "repeat": replay.snapshot == snap},
        "per_op": {
            "work_per_query": timed.work / max(timed.queries, 1),
            "cache_hits_per_op": snap["cache.hits"] / ops,
            "cache_misses_per_op": snap["cache.misses"] / ops,
            "compiled_misses_per_op": snap["compiled.misses"] / ops,
            "maintained_per_insert": snap["cache.maintained"] / snap_inserts,
            "maintain_fallbacks_per_insert":
                snap["cache.maintain_fallback"] / snap_inserts,
            "wal_records_per_insert":
                writes.wal_records / max(writes.wal_inserts, 1),
            "records_replayed": report.replayed,
        },
    }
    return metrics, attempted, failures, info


# ----------------------------------------------------------------------
# Per layer.


def degraded_count() -> int:
    return REGISTRY.snapshot()["counters"].get("robustness.degraded", 0)


def per_layer(bench: h.Bench):
    """Per-layer metrics from a fixed-count traced pass, with an
    untraced pass of the same operations as the overhead baseline."""
    inputs = bench.inputs
    n = TRACE_OPS[inputs.workload]
    plain = bench.run_ops(bench.setup_once(), op_stream(inputs), count=n,
                          snapshot_at=n)

    trace = LayerTrace()
    db = bench.setup_once()
    writer = bench.writer(db)
    with trace.installed():
        before, degraded = h.counters(db), degraded_count()
        reads = bench.run_ops(db, op_stream(inputs), count=n, snapshot_at=n,
                              trace=trace)
        degraded = degraded_count() - degraded
        read_spans = trace.take()
        if bench.wal:
            writes, write_spans, write_before = reads, read_spans, before
        else:
            write_before = h.counters(writer)
            writes = bench.run_ops(writer, insert_ops(inputs),
                                   count=h.TAIL_INSERTS[inputs.workload],
                                   trace=trace)
            write_spans = trace.take()
        write_after = h.counters(writer)
        _, report = trace.call("recover", recover, writer.durability.directory)
        recovery_spans = trace.take()

    failures = plain.failures + reads.failures
    if writes is not reads:
        failures += writes.failures
    if plain.snapshot != reads.snapshot:
        failures.append("tracing changed the counters")
    failures += h.oracle(db, reads.checked)

    after = reads.snapshot
    nq = max(reads.queries, 1)
    query_s = read_spans.total_s.get("query", 0.0) or 1e-12

    def per_query_us(layer):
        return metric(1e6 * read_spans.self_s.get(layer, 0.0) / nq, "us")

    def hit_rate(table):
        hits = diff(after, before, f"{table}.hits")
        misses = diff(after, before, f"{table}.misses")
        return metric(hits / max(hits + misses, 1), "ratio")

    ni = max(writes.inserts, 1)

    def per_insert_us(layer):
        return metric(1e6 * write_spans.self_s.get(layer, 0.0) / ni, "us")

    maintained = diff(write_after, write_before, "cache.maintained")
    fallbacks = diff(write_after, write_before, "cache.maintain_fallback")
    checkpoints = write_spans.calls.get("checkpoint.write", 0)
    recovery_total = recovery_spans.total_s
    frontend = ("parser.parse", "rewriter.optimize", "cache.key")
    executor = ("exec.run", "compile.compile")
    out = {
        "parser.parse_us": per_query_us("parser.parse"),
        "rewriter.optimize_us": per_query_us("rewriter.optimize"),
        "rewriter.rules_fired": metric(
            read_spans.counts["rewriter.rules_fired"] / nq, "count"
        ),
        "cache.key_us": per_query_us("cache.key"),
        "cache.get_us": per_query_us("cache.get"),
        "cache.put_us": per_query_us("cache.put"),
        "cache.hit_rate": hit_rate("cache"),
        "cache.evictions": metric(
            diff(after, before, "cache.evictions"), "count"
        ),
        "cost.plan_mode_us": per_query_us("cost.plan_mode"),
        "exec.run_us": per_query_us("exec.run"),
        "exec.work": metric(reads.work / nq, "count"),
        "exec.fallbacks": metric(degraded, "count"),
        "compile.compile_us": per_query_us("compile.compile"),
        "compile.hit_rate": hit_rate("compiled"),
        "query.frontend_share": metric(
            sum(read_spans.self_s.get(k, 0.0) for k in frontend) / query_s,
            "ratio",
        ),
        "query.exec_share": metric(
            sum(read_spans.self_s.get(k, 0.0) for k in executor) / query_s,
            "ratio",
        ),
        "delta.maintain_us": per_insert_us("delta.maintain"),
        "delta.maintained": metric(maintained / ni, "count"),
        "delta.fallback_share": metric(
            fallbacks / max(maintained + fallbacks, 1), "ratio"
        ),
        "delta.calls_per_insert": metric(
            write_spans.calls.get("delta.maintain", 0) / ni, "count"
        ),
        "database.insert_self_us": per_insert_us("database.insert"),
        "wal.log_us": per_insert_us("wal.log"),
        "wal.calls_per_insert": metric(
            write_spans.calls.get("wal.log", 0) / ni, "count"
        ),
        "wal.bytes_per_record": metric(
            writes.wal_bytes / max(writes.wal_records, 1), "B"
        ),
        "checkpoint.write_us": metric(
            1e6 * write_spans.self_s.get("checkpoint.write", 0.0)
            / max(checkpoints, 1),
            "us",
        ),
        "checkpoint.count": metric(checkpoints, "count"),
        "recovery.load_s": metric(recovery_total.get("recovery.load", 0.0), "s"),
        "recovery.scan_s": metric(recovery_total.get("recovery.scan", 0.0), "s"),
        "recovery.replay_s": metric(
            recovery_total.get("recovery.replay", 0.0), "s"
        ),
        "recovery.records_replayed": metric(report.replayed, "count"),
        "trace.overhead": metric(
            (reads.done / reads.seconds) / (plain.done / plain.seconds),
            "ratio",
        ),
    }
    out.update(mode_columns(bench, db))
    attempted = plain.done + reads.done + 1
    if writes is not reads:
        attempted += writes.done
    info = {"counters": {"after_ops": after}, "ops_per_pass": n}
    return out, attempted, failures, info


def mode_columns(bench: h.Bench, db) -> dict:
    """Cold time of sampled corpus plans in every executor mode, with
    the result cache off (the program runs untraced here)."""
    items = bench.inputs.corpus
    stride = max(1, len(items) // MODE_SAMPLE)
    plans = []
    for op in items[::stride][:MODE_SAMPLE]:
        if op.kind == "plan":
            plans.append(op.item)
        else:
            plans.append(Rewriter(db.catalog).optimize(parse_plan(op.item)))
    out = {}
    for mode in MODES:
        times = []
        for plan in plans:
            start = time.perf_counter()
            db.run(plan, use_cache=False, mode=mode)
            times.append(time.perf_counter() - start)
        out[f"exec.mode_cold_us.{mode}"] = metric(
            1e6 * statistics.median(times), "us"
        )
    return out
