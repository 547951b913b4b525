"""Record the output digests the benchmark checks its trials against.

Run from the repository root on a commit whose outputs are known good:

    python3 benchmark/record_digests.py

For every workload and every seed below SEEDS it runs trials
0 .. check_trials - 1 untraced, stops at the first invariant violation,
and writes the first 16 hex digits of each trial's output digest to
benchmark/digests.json.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = 64


def main():
    workloads = run.import_workloads()
    table = {}
    for name in run.WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]
        table[name] = {}
        for seed in range(SEEDS):
            params = wl.params(seed)
            digests = []
            for i in range(wl.check_trials):
                result = wl.run(params, i)
                problem = wl.check(result)
                if problem is not None:
                    sys.exit(f"{name} seed {seed} trial {i}: {problem}")
                digests.append(run.digest(wl.key(params, i, result)))
            table[name][str(seed)] = digests
        print(f"{name}: {SEEDS} seeds x {wl.check_trials} trials", flush=True)
    with open(run.DIGESTS, "w") as fp:
        json.dump(table, fp, indent=0, sort_keys=True)
        fp.write("\n")


if __name__ == "__main__":
    main()
