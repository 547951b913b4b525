"""Closed-loop benchmark of relaymarket.

Run from the repository root:

    python3 benchmark/run.py --workload mix-2x6 --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 25 --trace 0

One process on one thread issues a trial, waits for it to finish, checks
its output and issues the next, until --seconds have passed. The package
is imported from src/ of the checkout this file sits in. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced pass with --trace 1. A fuller record, with the run
metadata, goes to benchmark/out/. README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("mix-2x6", "run-100x200", "verify-25x50", "oracle-2x2")
SETUP_REPEATS = 7

# On a shared 2-CPU VM, other tenants' load changed the speed of the same
# code by up to 60% from one minute to the next, which no run length
# averages away. So a fixed kernel runs in bursts between the timed
# trials, one burst per CALIBRATION_PERIOD_S of trial time, and the
# end-to-end times are scaled to a machine on which one kernel run takes
# REFERENCE_KERNEL_US on average.
CALIBRATION_PERIOD_S = 0.025
BURST_RUNS = 16
CALIBRATION_WINDOW_S = 0.5
REFERENCE_KERNEL_US = 160.0

END_TO_END = (
    ("trials_per_s", "1/s"), ("trial_ms_p50", "ms"), ("trial_ms_tail", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

# span name -> the layer metric its self time is added to
SPAN_METRICS = {
    "topology.place_users": "topology.place_ms",
    "topology.draw_channels": "topology.channels_ms",
    "radio.requirements_for": "radio.requirements_ms",
    "radio.make_pair_rates": "radio.pair_rates_ms",
    "dda.init_state": "dda.init_ms",
    "dda.step": "dda.step_ms",
    "dda.finish": "dda.finish_ms",
    "baselines.centralized_pu_optimal": "baselines.centralized_ms",
    "baselines.centralized_su_rate": "baselines.centralized_su_ms",
    "baselines.rmbn": "baselines.rmbn_ms",
    "verify.is_stable": "verify.is_stable_ms",
    "verify.per_pu_puu_bounds": "verify.bounds_ms",
    "verify.packet_bound": "verify.bounds_ms",
    "verify.enumerate_stable_matchings": "verify.enumerate_ms",
    "verify.check_weak_pareto": "verify.pareto_ms",
    "verify.pu_utilities": "verify.utilities_ms",
    "trial": "driver.self_ms",
}
SELF_TIME_METRICS = tuple(dict.fromkeys(SPAN_METRICS.values()))

PER_LAYER = (
    *((name, "ms") for name in SELF_TIME_METRICS),
    ("dda.step_us", "us"),
    ("topology.partial_pairs", "count"),
    ("dda.steps", "count"), ("dda.offers", "count"), ("dda.packets", "count"),
    ("dda.concessions", "count"), ("dda.displacements", "count"),
    ("dda.prunes", "count"), ("dda.events", "count"), ("dda.accept_ratio", "ratio"),
    ("prefs.list_builds", "count"),
    ("baselines.rmbn_offers", "count"), ("baselines.rmbn_match_ratio", "ratio"),
    ("verify.is_stable_calls", "count"), ("verify.stable_found", "count"),
    ("driver.trial_ms", "ms"), ("driver.untraced_trial_ms", "ms"),
    ("driver.overhead_pct", "%"),
)


def import_workloads():
    """Import the workloads module, and with it relaymarket from SRC."""
    if not (SRC / "relaymarket" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no relaymarket package under {SRC}")
    sys.path.insert(0, str(SRC))
    workloads = importlib.import_module("workloads")
    loaded = Path(sys.modules["relaymarket"].__file__).resolve().parent
    if loaded != SRC / "relaymarket":
        raise SystemExit(f"benchmark: relaymarket loaded from {loaded}, not {SRC}")
    return workloads


class Calibration:
    """Times a fixed kernel of small allocations, dict lookups and small
    numpy operations, the mix relaymarket's own code runs. Under changing
    load on a 2-CPU VM, the workloads' trial times moved 0.9 to 0.93 times
    as much as this kernel's, in logs, with a correlation of 0.97 to 0.98;
    a pure-arithmetic kernel tracked them less closely."""

    def __init__(self):
        import numpy

        self.np = numpy
        self.samples = []
        self.ends = []
        self.owed = 0.0

    def kernel(self):
        np = self.np
        rows = [(i, float(i), str(i)) for i in range(200)]
        by_name = {row[2]: row for row in rows}
        total = 0.0
        for k in range(200):
            total += by_name[str(k)][1]
        a = np.arange(16.0)
        for _ in range(20):
            a = np.maximum(a * 0.5, np.sqrt(a + 1.0))
            total += a[::2].copy()[0]
        return total

    def after_trial(self, seconds):
        """One burst for every CALIBRATION_PERIOD_S of trial time so far."""
        self.owed += seconds
        while self.owed >= CALIBRATION_PERIOD_S:
            self.owed -= CALIBRATION_PERIOD_S
            self.burst()

    def burst(self):
        """BURST_RUNS timed kernel runs after an untimed one. The untimed
        run meets the caches as the trial before it left them, so every
        timed run starts from the kernel's own state, however long or short
        the trials are."""
        self.kernel()
        for _ in range(BURST_RUNS):
            start = time.perf_counter()
            self.kernel()
            end = time.perf_counter()
            self.samples.append(end - start)
            self.ends.append(end)

    def kernel_us(self):
        return statistics.fmean(self.samples) * 1e6

    def local_scales(self, moments):
        """The scale at each moment, from the kernel runs that ended within
        CALIBRATION_WINDOW_S of it."""
        np = self.np
        ends = np.asarray(self.ends)
        total = np.concatenate(([0.0], np.cumsum(self.samples)))
        moments = np.asarray(moments)
        lo = np.searchsorted(ends, moments - CALIBRATION_WINDOW_S)
        hi = np.maximum(np.searchsorted(ends, moments + CALIBRATION_WINDOW_S, "right"),
                        lo + 1)
        return REFERENCE_KERNEL_US * 1e-6 * (hi - lo) / (total[hi] - total[lo])


def setup_seconds(workload, seed):
    """Median over fresh interpreters of the package import plus building
    the workload's scenario parameters, as measured: import time did not
    follow the calibration kernel's speed."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def setup_probe(workload, seed):
    start = time.perf_counter()
    import_workloads().WORKLOADS[workload].params(seed)
    print(repr(time.perf_counter() - start))


def tail(values):
    """(percentile, value): the highest percentile, at most 99, that leaves
    at least ten samples above it, by nearest rank. Below 1000 samples that
    is the eleventh slowest; a whole-number percentile would jump between
    ranks as the sample count moves from run to run. Below 21 samples it
    is the median."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(math.ceil(n / 2), min(math.ceil(0.99 * n), n - 10))
    return 100.0 * rank / n, ordered[rank - 1]


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def recorded_digests(workload, seed):
    with open(DIGESTS) as fp:
        return json.load(fp).get(workload, {}).get(str(seed), [])


class Loop:
    """Runs trials of one workload, checks each and counts the failures."""

    def __init__(self, wl, params, expected):
        self.wl = wl
        self.params = params
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.checked = 0

    def fail(self, i, why):
        self.failed += 1
        print(f"trial {i}: {why}", file=sys.stderr)

    def trial(self, i, tr=None, want_key=None):
        """Run and time trial i, traced if a Tracer is given. Returns
        (seconds, key), or None when the trial raised or failed a check."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tr is None:
                result = self.wl.run(self.params, i)
            else:
                tr.begin(i)
                with tr.patched():
                    result = tr.span("trial", self.wl.run, self.params, i)
        except Exception:
            self.fail(i, "raised\n" + traceback.format_exc())
            return None
        seconds = time.perf_counter() - start
        problem = self.wl.check(result)
        key = self.wl.key(self.params, i, result)
        if problem is None and i < len(self.expected):
            self.checked += 1
            if digest(key) != self.expected[i]:
                problem = "output differs from the digest recorded for this seed"
        if problem is None and want_key is not None and key != want_key:
            problem = "output differs from the trial's first run"
        if problem is not None:
            self.fail(i, problem)
            return None
        return seconds, key

    def timed(self, seconds, min_trials, calibration):
        """Trials 0, 1, ... until the time is up and at least min_trials ran,
        with calibration bursts between them. Returns {trial: (seconds,
        end time)} of the trials that passed."""
        self.trial(0)   # warm-up, untimed
        calibration.burst()
        self.attempted = self.failed = self.checked = 0
        done = {}
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_trials or time.perf_counter() < deadline:
            ran = self.trial(i)
            if ran is not None:
                done[i] = (ran[0], time.perf_counter())
                calibration.after_trial(ran[0])
            i += 1
        return done

    def traced(self, seconds, min_trials, tracer, layer_counts):
        """Trials 0, 1, ... until the time is up and at least min_trials ran,
        each run untraced and then traced, so both runs of a trial see the
        same machine state. Returns {trial: (untraced seconds, traced
        seconds, layer counts)} of the trials that passed; the counts are
        None from trial min_trials on."""
        self.trial(0)   # warm-up, untimed
        self.trial(0, tracer)
        tracer.spans.clear()
        self.attempted = self.failed = self.checked = 0
        done = {}
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_trials or time.perf_counter() < deadline:
            ran = self.trial(i)
            traced = ran and self.trial(i, tracer, want_key=ran[1])
            if traced:
                counts = (layer_counts(self.params, tracer.returns)
                          if i < min_trials else None)
                done[i] = (ran[0], traced[0], counts)
            i += 1
        return done


def end_to_end(loop, done, calibration, args):
    if not done:
        raise SystemExit("benchmark: no trial passed")
    measured_ms = [seconds * 1e3 for seconds, _ in done.values()]
    scales = calibration.local_scales([end for _, end in done.values()])
    times_ms = [float(t * k) for t, k in zip(measured_ms, scales)]
    pct, tail_ms = tail(times_ms)
    metrics = {
        "trials_per_s": len(times_ms) / (sum(times_ms) / 1e3),
        "trial_ms_p50": statistics.median(times_ms),
        "trial_ms_tail": tail_ms,
        "setup_s": setup_seconds(args.workload, args.seed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"samples": len(times_ms), "tail_percentile": pct,
             "setup_repeats": SETUP_REPEATS,
             "failed_share": loop.failed / loop.attempted,
             "kernel_us": calibration.kernel_us(), "kernel_runs": len(calibration.samples),
             "as_measured": {
                 "trials_per_s": len(measured_ms) / (sum(measured_ms) / 1e3),
                 "trial_ms_p50": statistics.median(measured_ms),
                 "trial_ms_tail": tail(measured_ms)[1]}}
    print(f"{args.workload}: {len(times_ms)} trials, tail is p{pct:.4g}, "
          f"failed_share {notes['failed_share']:.4g}, "
          f"{loop.checked} checked against recorded digests")
    return metrics, notes


def per_layer(done, tracer, args):
    """Each layer's self time and counts over the traced trials."""
    traced = {i: d[1] for i, d in done.items()}
    if not traced:
        raise SystemExit("benchmark: no traced trial passed")

    self_ms = defaultdict(float)
    steps = 0
    for name, trial, seconds in tracer.self_times():
        if trial in traced:
            self_ms[SPAN_METRICS[name]] += seconds * 1e3
            steps += name == "dda.step"
    n = len(traced)
    metrics = {name: self_ms[name] / n for name in SELF_TIME_METRICS}
    metrics["dda.step_us"] = self_ms["dda.step_ms"] * 1e3 / steps if steps else 0.0

    # counts repeat exactly: they cover the fixed first trials of the seed
    counted = [d[2] for d in done.values() if d[2] is not None]
    counts = sum(counted, Counter())
    for name, unit in PER_LAYER:
        if unit == "count":
            metrics[name] = counts[name] / len(counted)
    metrics["dda.accept_ratio"] = (counts["dda.accepts"] / counts["dda.offers"]
                                   if counts["dda.offers"] else 0.0)
    metrics["baselines.rmbn_match_ratio"] = (
        counts["baselines.rmbn_matched"] / counts["baselines.rmbn_pairs"]
        if counts["baselines.rmbn_pairs"] else 0.0)

    # the traced trial time is the root span's; the overhead compares each
    # trial's traced and untraced runs as the loop timed them
    traced_ms = statistics.fmean(
        (end - start) * 1e3 for name, start, end, _, trial in tracer.spans
        if name == "trial" and trial in traced)
    untraced_ms = statistics.fmean(d[0] * 1e3 for d in done.values())
    metrics["driver.trial_ms"] = traced_ms
    metrics["driver.untraced_trial_ms"] = untraced_ms
    metrics["driver.overhead_pct"] = 100.0 * (
        statistics.fmean(traced.values()) * 1e3 / untraced_ms - 1.0)

    # Self times telescope: summed over a trial's spans they give its root
    # span's duration, so the layers plus driver.self_ms add up to
    # driver.trial_ms by construction. The share left to the driver is the
    # work no traced call covers.
    unattributed_pct = 100.0 * metrics["driver.self_ms"] / traced_ms
    notes = {"samples": n, "counted_trials": len(counted),
             "unattributed_pct": unattributed_pct, "spans": len(tracer.spans)}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    print(f"{args.workload}: {n} traced trials of {traced_ms:.6g} ms, "
          f"{unattributed_pct:.3g}% of it outside any traced call; tracing "
          f"overhead {metrics['driver.overhead_pct']:.3g}% over {untraced_ms:.6g} ms")
    return metrics, notes


def git_sha():
    # the ceiling keeps git from reporting a repository that merely
    # encloses a checkout without one of its own
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def run_one(args):
    # One CPU for the loop and the set-up probes it starts. Unpinned, a probe
    # landed on either CPU of a 2-CPU VM and its import took 80 or 170 ms
    # depending on which; pinned, the probes agree with each other.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = import_workloads()
    wl = workloads.WORKLOADS[args.workload]
    params = wl.params(args.seed)
    loop = Loop(wl, params, recorded_digests(args.workload, args.seed))
    if args.trace:
        from tracing import Tracer

        tracer = Tracer([name for name in SPAN_METRICS if name != "trial"],
                        keep=workloads.COUNTED_RETURNS)
        done = loop.traced(args.seconds, wl.check_trials, tracer, workloads.layer_counts)
        metrics, notes = per_layer(done, tracer, args)
        units = dict(PER_LAYER)
    else:
        calibration = Calibration()
        done = loop.timed(args.seconds, wl.check_trials, calibration)
        metrics, notes = end_to_end(loop, done, calibration, args)
        units = dict(END_TO_END)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, **notes,
        "checked_trials": loop.checked,
        "metadata": {
            "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "market": f"{params.l_pu}x{params.l_su}",
            "trials_attempted": loop.attempted,
        },
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fp:
        json.dump(record, fp, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 2


def run_all(args):
    """Every workload in its own process, then one table of the results."""
    status = 0
    table = []
    for name in WORKLOAD_NAMES:
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            timeout=900)
        status = status or proc.returncode
        if path.is_file():
            with open(path) as fp:
                table.append(json.load(fp))
    if not table:
        return status or 1
    print(f"\nseed {args.seed}, {args.seconds} s per workload, git "
          f"{table[0]['metadata']['git_sha'][:12]}")
    for record in table:
        print(f"\n{record['workload']} ({record['metadata']['market']}): "
              f"{record['samples']} trials measured")
        for name, metric in record["result"]["metrics"].items():
            print(f"  {name:30s} {metric['value']:14.6g} {metric['unit']}")
        if args.trace == 0:
            print(f"  {'failed_share':30s} {record['failed_share']:14.6g} "
                  f"(of {record['result']['attempted']} attempted)")
            print(f"  trial_ms_tail is p{record['tail_percentile']:.4g}; setup_s is "
                  f"the median of {record['setup_repeats']} fresh imports")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
