#!/usr/bin/env python3
"""Campaign benchmark for the MicroProbe reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

It builds perfbench/campaign.exe with dune, then runs the workload's
campaign in fresh processes, one campaign per process, for S seconds
(at least once), and prints each metric by name with its unit. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones, medians over the
campaigns. With --trace 1 the campaigns alternate untraced and traced;
the metrics are the per-layer ones, medians over the traced campaigns,
plus the tracing overhead against the untraced ones. --workload all
runs every workload untraced and prints each one's error_rate too.
Metric names and units come from BENCHMARK.json; NOTES.md explains them.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "campaign.exe")
WORK = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 900
RUN_LIMIT_S = 170  # every run ends this long after its build
REP_DEADLINE_S = 120  # a campaign still running after this is killed
SETUP_SAMPLES = 5  # set-up-only processes per run, besides the campaigns'
DEFAULT_SEED = 2012  # Machine.create's default; reference.json pins it
MAX_PAAE_PCT = 25.0
# Campaigns run on a one-domain pool. On a small shared host a pool as
# wide as the cores measures the neighbours' load more than the engine:
# on 2 cores the default 2-domain pool was only 15% faster on the cold
# campaigns, 80% slower on warm_rerun, and drifted by 25% between runs.
POOL_SIZE = "1"

# workload -> (campaign it runs, whether the cache is primed first)
WORKLOADS = {
    "power_projection": ("power_projection", False),
    "epi_survey": ("epi_survey", False),
    "warm_rerun": ("power_projection", True),
}


class Failure(Exception):
    pass


def build():
    """Build the campaign executable in this checkout, or raise Failure."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise Failure("run from the repository root (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/campaign.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failure(f"build failed: {e}")
    if r.returncode != 0 or not os.path.isfile(EXE):
        raise Failure("build failed:\n" + r.stdout)


def declared():
    """BENCHMARK.json, the source of the metric names, units and run length."""
    with open("BENCHMARK.json") as f:
        return json.load(f)


def campaign(name, seed, trace, cache_dir, deadline, pool_size=POOL_SIZE):
    """Run one campaign in a fresh process and return its JSON record,
    with setup_s added: spawn until arch, machine and pool are ready.
    pool_size None leaves the engine's default pool, capped at the core
    count. Raises Failure on a crash, a missing result or the deadline,
    at which the process is killed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MP_")}
    env["MP_CACHE_DIR"] = cache_dir
    if pool_size is not None:
        env["MP_POOL_SIZE"] = pool_size
    t_spawn = time.time()
    proc = subprocess.Popen(
        [EXE, name, str(seed), "1" if trace else "0"], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failure(f"{name}: killed at the deadline")
    if proc.returncode != 0:
        raise Failure(f"{name}: exit {proc.returncode}: {err.strip()[-400:]}")
    try:
        rec = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise Failure(f"{name}: no result line")
    rec["setup_s"] = rec["t_ready"] - t_spawn
    return rec


def flush(directory):
    """Write the primed cache to disk before timing: otherwise the
    kernel's delayed write-back of it overlaps the first warm campaigns
    and slows them."""
    for root, _, files in os.walk(directory):
        for f in files:
            fd = os.open(os.path.join(root, f), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def reference(seed, name):
    with open(os.path.join("perfbench", "reference.json")) as f:
        return json.load(f).get(str(seed), {}).get(name)


def check(rec, expected, warm):
    """Raise Failure unless the record matches every expected digest, its
    PAAE is sane and, warm, it simulated nothing."""
    for what, digest in expected:
        if digest is not None and rec["digest"] != digest:
            raise Failure(f"digest {rec['digest']} differs from {what} {digest}")
    p = rec["paae_pct"]
    if not (math.isfinite(p) and 0.0 < p < MAX_PAAE_PCT):
        raise Failure(f"paae_pct {p} out of range")
    if warm and rec["sims"] != 0:
        raise Failure(f"warm campaign simulated {rec['sims']} jobs")


class Run:
    """One benchmark run of a workload: its campaigns and their checks."""

    def __init__(self, workload, seed, trace):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.name, self.warm = WORKLOADS[workload]
        self.reps, self.setups, self.failures = [], [], []
        self.attempted = self.failed = 0
        self.jobs_per_rep = 1  # failed campaigns count this many measurements
        self.expected = [("the reference", reference(seed, self.name))]

    def attempt(self, traced, cache_dir, deadline, warm=False, measured=True):
        """Run and check one campaign; count its measurements as attempted
        (and failed, if it fails) when it is measured."""
        try:
            rec = campaign(self.name, self.seed, traced, cache_dir, deadline)
            self.jobs_per_rep = int(rec["jobs"])
            check(rec, self.expected, warm)
        except Failure as e:
            self.failures.append(str(e))
            rec = None
        if rec is not None:
            self.setups.append(rec["setup_s"])
            rec["traced"] = traced
        if measured:
            self.attempted += self.jobs_per_rep
            self.failed += 0 if rec else self.jobs_per_rep
        return rec

    def execute(self, seconds):
        start = time.time()
        limit = start + RUN_LIMIT_S
        work = os.path.join(WORK, f"{os.getpid()}-{self.workload}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        self.primed = None
        try:
            for _ in range(SETUP_SAMPLES):
                try:
                    self.setups.append(campaign("setup", self.seed, False, work, limit)["setup_s"])
                except Failure as e:
                    self.failures.append(str(e))
            if self.warm:
                # untimed cold campaign of this executable: the disk
                # namespace is stamped with the executable's digest
                self.primed = os.path.join(work, "primed")
                cold = self.attempt(False, self.primed, min(limit, time.time() + REP_DEADLINE_S),
                                    measured=False)
                if cold is None:
                    return
                self.expected.append(("the priming cold campaign", cold["digest"]))
                flush(self.primed)
            t0 = time.time()
            i = 0
            while True:
                traced = self.trace and i % 2 == 1
                cache_dir = self.primed or os.path.join(work, f"rep{i}")
                t_rep = time.time()
                rec = self.attempt(traced, cache_dir, min(limit, t_rep + REP_DEADLINE_S), warm=self.warm)
                if rec is not None:
                    if not self.reps:
                        self.expected.append(("the first campaign", rec["digest"]))
                    self.reps.append(rec)
                if cache_dir != self.primed:
                    shutil.rmtree(cache_dir, ignore_errors=True)
                i += 1
                now = time.time()
                rep_s = now - t_rep
                # a traced run needs one untraced and one traced campaign
                # at least; otherwise start another campaign only if it
                # should end inside the measuring window
                if (self.trace and i < 2) or now + rep_s <= t0 + seconds:
                    if now + rep_s < limit:
                        continue
                break
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def metrics(self):
        end_to_end, per_layer = ([(m["name"], m["unit"]) for m in declared()[k]]
                                 for k in ("end_to_end", "per_layer"))
        plain = [r for r in self.reps if not r["traced"]]
        traced = [r for r in self.reps if r["traced"]]
        med = statistics.median
        out = {}
        if not self.trace and plain:
            values = {
                "setup_s": self.setups,
                "meas_per_s": [r["jobs"] / r["wall_s"] for r in plain],
            }
            for k, unit in end_to_end:
                out[k] = {"value": med(values.get(k) or [r[k] for r in plain]), "unit": unit}
        if self.trace and plain and traced:
            overhead = {}
            for field in ("wall_s", "cpu_s"):
                base = med([r[field] for r in plain])
                overhead[f"trace.overhead_{field[:-2]}_pct"] = (med([r[field] for r in traced]) - base) / base * 100.0
            for k, unit in per_layer:
                if k in overhead:
                    v = overhead[k]
                elif k in traced[0]["layers"]:
                    v = med([r["layers"][k] for r in traced])
                else:
                    self.failures.append(f"the traced campaign did not report {k}")
                    continue
                out[k] = {"value": v, "unit": unit}
        return out

    def result(self):
        metrics = self.metrics()
        if not metrics and not self.failures:
            self.failures.append("no campaign finished")
        failed = max(self.failed, 1 if self.failures else 0)
        return {
            "correct": not self.failures,
            "attempted": max(1, self.attempted, failed),
            "failed": failed,
            "metrics": metrics,
        }

    def report(self, res):
        """Print the human-readable lines for this run."""
        digest = self.reps[0]["digest"] if self.reps else None
        print(f"# {self.workload} seed {self.seed}: {len(self.reps)} campaigns, digest {digest}")
        print("# campaign wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in self.reps))
        for f in self.failures:
            print(f"# FAILED: {f}")
        for k, m in res["metrics"].items():
            print(f"{self.workload} {k} = {m['value']:.6g} {m['unit']}")
        print(f"{self.workload} error_rate = {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']}/{res['attempted']} measurements)")


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed, trace)
    run.execute(seconds)
    res = run.result()
    run.report(res)
    return res


def main():
    ap = argparse.ArgumentParser(description="MicroProbe campaign benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        seconds = args.seconds or declared()["run_seconds"]
    except (Failure, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = {w: run_workload(w, args.seed, seconds, False) for w in WORKLOADS}
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(run_workload(args.workload, args.seed, seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
