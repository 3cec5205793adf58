"""The repository's benchmark: one seeded command per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay-inorder --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` runs the workload again under the ``repro.telemetry`` tracer and the
benchmark's own call timers and prints the per-layer metrics. Every run
checks the program's outputs against an oracle computed outside the timed
region, and the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The line before it is the full record: seed, source digest, machine,
workload sizes, sample counts and notes. ``--smoke`` runs all three
workloads at a tiny size and shows that a perturbed detection fails the
oracle check. The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("replay-inorder", "serve-disorder", "paper-pipeline")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size, traced and untraced "
                        "(about a minute in total)")
    return parser


def _module(workload: str):
    if workload == "replay-inorder":
        import replay_inorder as module
    elif workload == "serve-disorder":
        import serve_disorder as module
    else:
        import paper_pipeline as module
    return module


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    import common
    import layers
    from repro.intervals.backend import get_backend

    outcome = _module(workload).run(ROOT, seed, seconds, trace, smoke)
    if trace:
        outcome = layers.per_layer(workload, outcome)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "kernel_backend": get_backend(),
        "environment": common.environment(ROOT),
        "sizes": outcome.sizes,
        "samples": outcome.samples,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / float(max(1, outcome.attempted)),
        "correct": outcome.correct,
        "mismatches": outcome.mismatches[:20],
        "notes": {key: value for key, value in outcome.notes.items() if key != "trace"},
    }
    return record, outcome


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: no program sources at %s (run from a full checkout)" % SRC,
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        print("error: --workload is required (or --smoke)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    import common

    if args.smoke:
        return smoke(args.seed)
    record, outcome = run_one(args.workload, args.seed, args.seconds, bool(args.trace), False)
    common.emit(record, outcome)
    return 0 if outcome.correct else 1


def smoke(seed: int) -> int:
    """Every workload at a tiny size, traced and untraced."""
    import common

    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            started = time.perf_counter()
            record, outcome = run_one(workload, seed, 1.0, trace, True)
            print("== %s trace=%d (%.1fs)" % (workload, int(trace),
                                              time.perf_counter() - started))
            common.emit(record, outcome)
            if not outcome.correct:
                failures += 1
            if not outcome.notes.get("perturbation_detected"):
                print("CHECK FAILED: the oracle check accepted a perturbed detection")
                failures += 1
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
