#!/usr/bin/env python3
"""Determinism self-test of the campaign benchmark.

Run from the repository root:

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

Runs each workload's traced campaign twice with the same seed, each in
a fresh process (power_projection and epi_survey on an empty cache,
warm_rerun on one cache that a cold campaign primed). Unlike run.py,
it leaves the engine's default pool, one domain per core, so that the
domains' scheduling can vary. The digests and the work and allocation
counts below must repeat exactly; the parallel.* counts depend on how
the domains were scheduled and are only reported. Times and the pooled
gc.* totals are not compared.
Exits 1 on any mismatch.
"""

import argparse
import os
import shutil
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import DEFAULT_SEED, REP_DEADLINE_S, WORK, WORKLOADS, Failure, build, campaign  # noqa: E402

DETERMINISTIC = [
    "machine.jobs", "machine.batches", "machine.dup_collapsed",
    "measurement_cache.hits", "measurement_cache.misses", "measurement_cache.disk_hits",
    "replay.hits", "replay.misses", "core_sim.period_hits", "core_sim.cycles_skipped",
    "cache_sim.demand_loads", "core_sim.probe_cycles", "replay.probe_hits",
    "measurement_cache.probe_disk_hits", "core_sim.minor_words_per_cycle",
    "cache_sim.minor_words_per_access", "codegen.minor_words_per_program",
]
SCHEDULING = ["parallel.steals", "parallel.parallel_batches", "parallel.serial_fallbacks"]


def twice(workload, seed, work):
    """Two traced campaign records of the workload with the same seed."""
    name, warm = WORKLOADS[workload]
    primed = os.path.join(work, "primed")
    if warm:
        campaign(name, seed, False, primed, time.time() + REP_DEADLINE_S, pool_size=None)
    recs = []
    for i in range(2):
        cache_dir = primed if warm else os.path.join(work, f"rep{i}")
        recs.append(campaign(name, seed, True, cache_dir, time.time() + REP_DEADLINE_S,
                             pool_size=None))
    return recs


def main():
    ap = argparse.ArgumentParser(description="determinism self-test of the campaign benchmark")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    ok = True
    try:
        build()
        for workload in args.workload or list(WORKLOADS):
            work = os.path.join(WORK, f"selftest-{os.getpid()}-{workload}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            try:
                a, b = twice(workload, args.seed, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            rows = [("digest", a["digest"], b["digest"], True)]
            rows += [(k, a["layers"][k], b["layers"][k], True) for k in DETERMINISTIC]
            rows += [(k, a["layers"][k], b["layers"][k], False) for k in SCHEDULING]
            for k, x, y, checked in rows:
                if x == y:
                    verdict = "same"
                elif checked:
                    verdict = "MISMATCH"
                    ok = False
                else:
                    verdict = "differs (scheduling-dependent, not checked)"
                print(f"{workload:16s} {k:36s} {x!s:>34} {y!s:>34}  {verdict}")
    except Failure as e:
        print(f"selftest: {e}", file=sys.stderr)
        return 2
    print("selftest: " + ("deterministic counts repeat" if ok else "MISMATCH"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
