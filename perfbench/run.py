"""End-to-end, layered benchmark of the repro query engine.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm_text --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload for ``--seconds`` with the program
unmodified and prints the end-to-end metrics; ``--trace 1`` runs a
fixed number of operations twice, untraced and then traced, and prints
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment, sample sizes
and the deterministic counters.  The exit status is 0 only when every
check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_text", "cold_corpus", "wal_mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro engine benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import corpus
        import harness
        import suite
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    # Durability directories live inside the checkout and are removed.
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        inputs = corpus.make_inputs(args.workload, args.seed)
        bench = harness.Bench(inputs, workdir)
        if args.trace:
            metrics, attempted, failures, info = suite.per_layer(bench)
        else:
            metrics, attempted, failures, info = suite.end_to_end(
                bench, args.seconds
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        cpus=os.cpu_count(),
        python=platform.python_version(),
        flush_policy=f"fsync=True, checkpoint_every="
        f"{corpus.WAL_CHECKPOINT_EVERY}",
        sizes=inputs.spec.sizes(),
        corpus_items=len(inputs.corpus),
        max_work_bound=inputs.max_work_bound,
        errors=failures[:5],
    )
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
