"""Monte Carlo harness: seeded trials, sweeps, and CSV emission.

Each trial owns a seed derived from (master seed, trial index), so any
subset of trials can be reproduced in isolation and the aggregate never
depends on execution order. All requested algorithms see the identical
channel realization within a trial. The scoring rule lives here alone:
each trial builds the complete-knowledge dda.Market, on which the
centralized baselines solve and every algorithm's outcome is scored,
whatever knowledge model its negotiation ran under. Tags that negotiate
under partial knowledge get a copy of that market with the partial
rates.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, dda, topology

ALGO_TAGS = ("dda-complete", "dda-partial", "centralized", "centralized-su", "rmbn")

CSV_COLUMNS = (
    "scenario_id", "algo", "axis_name", "axis_value", "n_trials",
    "mean_sum_utility_pu", "se_sum_utility_pu", "mean_sum_rate_pu",
    "mean_sum_rate_su", "match_pct", "mean_packets", "p90_packets",
    "mean_iterations",
)

SWEEP_AXES = ("epsilon", "c_bar", "gamma_su_db", "l_su")


@dataclass
class AggregateMetrics:
    algo: str
    n_trials: int
    mean_sum_utility_pu: float
    se_sum_utility_pu: float
    mean_sum_rate_pu: float
    se_sum_rate_pu: float
    mean_sum_rate_su: float
    se_sum_rate_su: float
    match_pct: float
    mean_packets: float
    p90_packets: float
    mean_iterations: float
    packets: np.ndarray

    def packet_cdf(self, y) -> float:
        """Empirical probability that a trial used at most y packets."""
        return float(np.mean(self.packets <= y))


def p90(values) -> float:
    """90th-percentile order statistic: smallest x with at least 90% mass ≤ x."""
    ordered = np.array(values, dtype=float)
    ordered.sort()
    if ordered.size == 0:
        raise ValueError("p90 of an empty sample")
    k = math.ceil(0.9 * ordered.size)
    return float(ordered[k - 1])


def _se(values) -> float:
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    return float(np.std(v, ddof=1) / math.sqrt(v.size))


def _realized_sums(outcome, rates):
    """Sums over the matched terms, in row-major order, of the licensed
    utility and rate and the relay rate of radio.PairRates.licensed and
    relay, spelled out on floats read with ndarray.item."""
    u = r_pu = r_su = 0.0
    terms = outcome.matched_terms()
    for l, q, xi, beta in terms:
        rate_pu = rates.pu_coef.item(l, q) * beta
        u += rate_pu + rates.c_cost * xi
        r_pu += rate_pu
        r_su += rates.su_coef.item(l, q) * (1.0 - beta)
    return u, r_pu, r_su, len(terms)


def _knowing(params, mode):
    """params under knowledge mode `mode`, params itself when it already is."""
    return params if params.snr_knowledge == mode else replace(params, snr_knowledge=mode)


def run_trials(params, algos, n_trials):
    """Run every requested algorithm on n_trials shared realizations.

    Returns {algo tag: AggregateMetrics}. Centralized tags report zero
    packets and iterations (there is no message protocol to count).

    The per-trial figures go into one [algo, column, trial] array, and one
    add.reduce along its contiguous trial axis gives every mean: the same
    pairwise sum np.mean takes over one column. The standard errors and
    the p90 come from _se and p90 on the same rows.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if not algos:
        raise ValueError(f"no algorithm tag given; valid: {ALGO_TAGS}")
    unknown = [a for a in algos if a not in ALGO_TAGS]
    if unknown:
        raise ValueError(f"unknown algorithm tags {unknown}; valid: {ALGO_TAGS}")
    repeated = [a for a in ALGO_TAGS if algos.count(a) > 1]
    if repeated:
        raise ValueError(f"algorithm tag {repeated[0]!r} requested more than once")
    # tags negotiating under partial knowledge (rmbn follows the scenario); the
    # rate estimates are drawn only when one of them is requested
    partial = {"dda-partial"} | ({"rmbn"} if params.snr_knowledge == "partial" else set())
    wants_partial = bool(partial & set(algos))
    complete_params = _knowing(params, "complete")
    partial_params = _knowing(params, "partial") if wants_partial else None
    draw_params = partial_params if wants_partial else complete_params

    # per algo, one (utility, licensed rate, relay rate, packets, iterations)
    # row per trial; matched pair counts stay Python ints
    per_algo = [[] for _ in algos]
    matched = [0] * len(algos)
    for i in range(n_trials):
        ss = np.random.SeedSequence([params.seed, i])
        realization = topology.make_realization(draw_params, ss)
        rmbn_ss, = ss.spawn(1)   # the third child, after placement and channels
        complete = dda.market(complete_params, realization)
        if wants_partial:
            negotiated = dda.market(partial_params, realization, complete.requirements)
        for a, algo in enumerate(algos):
            market = negotiated if algo in partial else complete
            packets = iterations = 0
            if algo in ("dda-complete", "dda-partial"):
                outcome, trace = dda.negotiate(market)
                packets, iterations = trace.packets, trace.offers
            elif algo == "centralized":
                outcome = baselines.centralized_pu_optimal(market)
            elif algo == "centralized-su":
                outcome = baselines.centralized_su_rate(market)
            else:
                outcome, trace = baselines.rmbn(market, np.random.default_rng(rmbn_ss))
                packets, iterations = trace.packets, trace.offers
            util, rpu, rsu, count = _realized_sums(outcome, complete.rates)
            per_algo[a].append((util, rpu, rsu, packets, iterations))
            matched[a] += count

    # [algo, column, trial], contiguous along the trials
    rows = np.array(per_algo, dtype=float).transpose(0, 2, 1).copy()
    means = (np.add.reduce(rows, axis=-1) / n_trials).tolist()
    capacity = min(params.l_pu, params.l_su)
    out = {}
    for a, algo in enumerate(algos):
        util, rpu, rsu, pkts, _ = rows[a]
        mean_util, mean_rpu, mean_rsu, mean_pkts, mean_iterations = means[a]
        out[algo] = AggregateMetrics(
            algo=algo,
            n_trials=n_trials,
            mean_sum_utility_pu=mean_util,
            se_sum_utility_pu=_se(util),
            mean_sum_rate_pu=mean_rpu,
            se_sum_rate_pu=_se(rpu),
            mean_sum_rate_su=mean_rsu,
            se_sum_rate_su=_se(rsu),
            match_pct=100.0 * matched[a] / (n_trials * capacity),
            mean_packets=mean_pkts,
            p90_packets=p90(pkts),
            mean_iterations=mean_iterations,
            packets=pkts,
        )
    return out


@dataclass(frozen=True)
class SweepRow:
    scenario_id: str
    algo: str
    axis_name: str
    axis_value: float
    agg: AggregateMetrics


def scenario_id(params) -> str:
    return f"lpu{params.l_pu}-lsu{params.l_su}-seed{params.seed}"


def _apply_axis(params, axis, value):
    if axis == "epsilon":
        return replace(params, epsilon=value, delta=value)
    if axis == "c_bar":
        return replace(params, c_bar=value)
    if axis == "gamma_su_db":
        return replace(params, gamma_su_db=value)
    if axis == "l_su":
        if not float(value).is_integer():
            raise ValueError(f"l_su sweep value {value!r} is not an integer")
        return replace(params, l_su=int(value))
    raise ValueError(f"unknown sweep axis {axis!r}; valid: {SWEEP_AXES}")


def sweep(params, axis, values, algos, n_trials):
    """One aggregate row per (axis value, algo); epsilon sweeps tie delta."""
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    rows = []
    for value in values:
        swept = _apply_axis(params, axis, value)
        aggs = run_trials(swept, algos, n_trials)
        for algo in algos:
            rows.append(SweepRow(scenario_id=scenario_id(swept), algo=algo,
                                 axis_name=axis, axis_value=float(value),
                                 agg=aggs[algo]))
    return rows


def _csv_record(row):
    """The row's five key fields, then the AggregateMetrics fields that
    CSV_COLUMNS names after them."""
    agg = row.agg
    return [row.scenario_id, row.algo, row.axis_name, "%.9g" % row.axis_value,
            str(agg.n_trials), *("%.9g" % getattr(agg, name) for name in CSV_COLUMNS[5:])]


def write_rows(table, fp):
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in table:
        writer.writerow(_csv_record(row))


def emit_csv(table, path):
    """Write sweep rows (header always included) to path; '-' for stdout."""
    if path == "-":
        write_rows(table, sys.stdout)
        return
    with open(path, "w", newline="") as fp:
        write_rows(table, fp)

