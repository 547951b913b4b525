"""The benchmark's workloads, their output checks and their layer counts.

Each workload builds its markets from the workload seed alone and calls
relaymarket the way the package's own entry points do: bench.run_trials
for `relaymarket run` and `sweep`, and the per-instance loops of
`relaymarket verify` and `relaymarket oracle`.

A workload's run(params, i) performs trial i and returns its result. The
traced run makes the very same call with tracing wrappers patched onto the
package's modules (see tracing.py). key() turns a result into the bytes
the recorded digests cover and check() tests the invariants that hold on
every seed.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import replace

import numpy as np

from relaymarket import bench, cli, dda, radio, topology, verify

# Trial i of a run_trials workload with seed s is one run_trials call on
# scenario seed s * TRIAL_STRIDE + i, so each trial can be reproduced with
# `relaymarket run --seed <s * TRIAL_STRIDE + i> --trials 1`.
TRIAL_STRIDE = 1 << 20

# traced calls whose return values the layer counts are taken from
COUNTED_RETURNS = ("topology.draw_channels", "dda.finish", "baselines.rmbn",
                   "verify.is_stable", "verify.enumerate_stable_matchings")


def layer_counts(params, returns):
    """Per-trial counts from the return values of one traced trial's calls."""
    counts = Counter()
    for realization in returns["topology.draw_channels"]:
        if realization.partial_mean_log is not None:
            counts["topology.partial_pairs"] += realization.partial_mean_log.size
    for _, trace in returns["dda.finish"]:
        kinds = Counter(event[0] for event in trace.events)
        concessions = int(trace.puu_counts.sum())
        counts.update({
            "dda.steps": kinds["offer"] + kinds["prune"],
            "dda.offers": trace.offers,
            "dda.accepts": kinds["accept"],
            "dda.packets": trace.packets,
            "dda.concessions": concessions,
            "dda.displacements": kinds["displace"],
            "dda.prunes": kinds["prune"],
            "dda.events": len(trace.events),
            # one list per licensed user at the start, one rebuild per concession
            "prefs.list_builds": params.l_pu + concessions,
        })
    for outcome, trace in returns["baselines.rmbn"]:
        counts["baselines.rmbn_offers"] += trace.offers
        counts["baselines.rmbn_matched"] += len(outcome.matched_pairs())
        counts["baselines.rmbn_pairs"] += min(params.l_pu, params.l_su)
    counts["verify.is_stable_calls"] += len(returns["verify.is_stable"])
    counts["verify.stable_found"] += sum(
        len(found) for found in returns["verify.enumerate_stable_matchings"])
    return counts


class Workload:
    def __init__(self, name, why, scenario, check_trials):
        self.name = name
        self.why = why
        self.scenario = dict(scenario)
        # digests are recorded for trials 0 .. check_trials - 1 of each
        # recorded seed; the traced run's layer counts cover the same trials
        self.check_trials = check_trials

    def params(self, seed):
        return topology.params_from_dict({**self.scenario, "seed": seed})


class RunTrials(Workload):
    """One bench.run_trials call per trial, as `relaymarket run` makes."""

    def __init__(self, name, why, scenario, algos, check_trials):
        super().__init__(name, why, scenario, check_trials)
        self.algos = tuple(algos)

    def trial_params(self, params, i):
        return replace(params, seed=params.seed * TRIAL_STRIDE + i)

    def run(self, params, i):
        return bench.run_trials(self.trial_params(params, i), self.algos, 1)

    def key(self, params, i, aggs):
        params = self.trial_params(params, i)
        rows = [bench.SweepRow(scenario_id=bench.scenario_id(params), algo=algo,
                               axis_name="none", axis_value=0.0, agg=aggs[algo])
                for algo in self.algos]
        buf = io.StringIO()
        bench.write_rows(rows, buf)
        return buf.getvalue().encode()

    def check(self, aggs):
        for algo, a in aggs.items():
            values = (a.mean_sum_utility_pu, a.mean_sum_rate_pu, a.mean_sum_rate_su)
            if not all(math.isfinite(v) for v in values):
                return f"{algo}: non-finite utility or rate"
            if not 0.0 <= a.match_pct <= 100.0:
                return f"{algo}: match share {a.match_pct} outside [0, 100]"
        # the centralized baselines maximise what they are named after over
        # every matching, the negotiated one included
        if "dda-complete" in aggs:
            dda_agg = aggs["dda-complete"]
            if ("centralized" in aggs and aggs["centralized"].mean_sum_utility_pu
                    < dda_agg.mean_sum_utility_pu - 1e-9):
                return "centralized licensed utility below the negotiated one"
            if ("centralized-su" in aggs and aggs["centralized-su"].mean_sum_rate_su
                    < dda_agg.mean_sum_rate_su - 1e-9):
                return "centralized relay rate below the negotiated one"
        return None


class Verify(Workload):
    """One iteration of the `relaymarket verify` loop per trial."""

    def run(self, params, i):
        realization, requirements = cli._instance(params, i)
        outcome, trace = dda.run(params, realization, requirements)
        report = verify.is_stable(outcome, realization, requirements, params)
        bounds = verify.per_pu_puu_bounds(params, realization, requirements)
        limit = verify.packet_bound(params, realization, requirements)
        return (len(outcome.matched_pairs()), trace.packets, report.stable,
                bool(np.any(trace.puu_counts > bounds)), trace.packets > limit)

    def key(self, params, i, result):
        matched, packets = result[:2]
        return f"{matched},{packets}".encode()

    def check(self, result):
        _, _, stable, over_puu, over_packets = result
        if not stable:
            return "negotiated outcome not stable"
        if over_puu:
            return "concession count over its bound"
        if over_packets:
            return "packet count over its bound"
        return None


class Oracle(Workload):
    """One instance of the `relaymarket oracle` loop per trial."""

    def run(self, params, i):
        realization, requirements = cli._instance(params, i)
        outcome, _ = dda.run(params, realization, requirements)
        engine_stable = verify.is_stable(outcome, realization, requirements, params).stable
        rates = radio.make_pair_rates(params, realization)
        mine = verify.pu_utilities(outcome, rates)
        stable = verify.enumerate_stable_matchings(realization, requirements, params)
        dominated = 0
        for alt in stable:
            alt_u = verify.pu_utilities(alt, rates)
            for l, q in outcome.matched_pairs():
                if mine[l] < alt_u[l] - 1e-9:
                    dominated += 1
        pareto_ok, _ = verify.check_weak_pareto(outcome, realization, requirements, params)
        return len(stable), dominated, pareto_ok, engine_stable

    def key(self, params, i, result):
        n_stable, dominated, pareto_ok, _ = result
        return f"{n_stable},{dominated},{int(pareto_ok)}".encode()

    def check(self, result):
        # dominated instances and weak-Pareto misses are acceptance reds 02
        # and 03, facts of the mechanism; only an unstable outcome is a fault
        return None if result[3] else "negotiated outcome not stable"


WORKLOADS = {w.name: w for w in (
    RunTrials("mix-2x6", "default 2x6 market, all five algorithms: the everyday "
              "run/sweep load, spread over topology, baselines and short dda runs",
              {}, bench.ALGO_TAGS, check_trials=40),
    RunTrials("run-100x200", "100x200 market, dda-complete and rmbn: engine-bound, "
              "over 99% in dda.step and its preference-list rebuilds",
              {"l_pu": 100, "l_su": 200}, ("dda-complete", "rmbn"), check_trials=6),
    Verify("verify-25x50", "the verify loop at 25x50: dda plus a few large "
           "stability audits and the budget bounds per trial",
           {"l_pu": 25, "l_su": 50}, check_trials=16),
    Oracle("oracle-2x2", "the oracle loop on its 2x2 grid: stable-set enumeration "
           "and weak-Pareto check, hundreds of tiny audits per instance",
           cli.ORACLE_SCENARIO, check_trials=24),
)}
