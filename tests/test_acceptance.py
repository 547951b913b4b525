"""Acceptance suite: thirteen behavioural claims, one verdict line each.

Every test prints `ACCEPTANCE NN <tag>: PASS/FAIL - <measured detail>` so
the run log doubles as the acceptance report, then asserts on the same
condition. Criteria whose measured behaviour genuinely falls short are
left failing with the numbers in the verdict line rather than loosened;
the analysis behind each red criterion lives outside the package.

Every negotiating scenario here runs the contract rule
(`negotiation="contracts"`), the licensed-proposing deferred acceptance
the paper's guarantees are about. The default ladder rule's divergence
from the stable set is pinned by the unit tests in test_verify.py.

The heavy fixtures are module-scoped, so the full file is one sequential
run of a few minutes rather than a per-test recomputation.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from relaymarket import baselines, bench, dda, radio, topology, verify

import conftest
from oracles import lp_pair_optimum

N_MIXED = 1000
N_TINY = 200
N_MARKET_TRIALS = 2000
N_SWEEP_TRIALS = 2000

CONTRACTS = {"negotiation": "contracts"}


def _verdict(num, tag, ok, detail):
    line = f"ACCEPTANCE {num:02d} {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared corpora

def _mixed_suite(af_formula):
    """A spread of small markets: relay side 2..6, both knowledge modes."""
    rows = []
    for i in range(N_MIXED):
        params = topology.params_from_dict({
            "l_pu": 2,
            "l_su": 2 + i % 5,
            "seed": i,
            "snr_knowledge": "complete" if i % 2 == 0 else "partial",
            "af_formula": af_formula,
            **CONTRACTS,
        })
        real = topology.make_realization(params, i)
        req = radio.requirements_for(params, real)
        outcome, trace = dda.run(params, real, req)
        rows.append((params, real, req, outcome, trace))
    return rows


def _suite_violations(rows):
    """Stability, concession-budget, and packet-budget violation counts."""
    unstable = blocked = pairs = 0
    over_puu = over_packets = 0
    for params, real, req, outcome, trace in rows:
        report = verify.is_stable(outcome, real, req, params)
        if not report.stable:
            unstable += 1
        blocked += len(report.blocked_individuals)
        pairs += len(report.blocking_pairs)
        if np.any(trace.puu_counts > verify.per_pu_puu_bounds(params, real, req)):
            over_puu += 1
        if trace.packets > verify.packet_bound(params, real, req):
            over_packets += 1
    return unstable, blocked, pairs, over_puu, over_packets


def _tiny_suite(af_formula):
    """Enumerable two-by-two markets on a coarse grid, with the stable set."""
    params = topology.params_from_dict({
        "l_pu": 2, "l_su": 2,
        "xi_init": 1.0, "beta_init": 1.0,
        "delta": 0.25, "epsilon": 0.25,
        "af_formula": af_formula,
        **CONTRACTS,
    })
    dominated = []
    pareto_bad = []
    max_gap = 0.0
    for seed in range(N_TINY):
        real = topology.make_realization(params, seed)
        req = radio.requirements_for(params, real)
        outcome, _ = dda.run(params, real, req)
        rates = radio.make_pair_rates(params, real)
        mine = verify.pu_utilities(outcome, rates)
        matched = [l for l, _ in outcome.matched_pairs()]
        gap = 0.0
        for alt in verify.enumerate_stable_matchings(real, req, params):
            alt_u = verify.pu_utilities(alt, rates)
            gap = max(gap, max((alt_u[l] - mine[l] for l in matched), default=0.0))
        if gap > 1e-9:
            dominated.append(seed)
            max_gap = max(max_gap, gap)
        ok, _ = verify.check_weak_pareto(outcome, real, req, params)
        if not ok:
            pareto_bad.append(seed)
    return dominated, pareto_bad, max_gap


@pytest.fixture(scope="module", name="mixed")
def mixed_fixture():
    return _mixed_suite("paper")


@pytest.fixture(scope="module", name="mixed_stats")
def mixed_stats_fixture(mixed):
    return _suite_violations(mixed)


@pytest.fixture(scope="module", name="tiny")
def tiny_fixture():
    return _tiny_suite("paper")


@pytest.fixture(scope="module", name="market")
def market_fixture():
    params = topology.params_from_dict({"l_su": 10, "delta": 0.1, "epsilon": 0.1,
                                        **CONTRACTS})
    return bench.run_trials(params, ["dda-complete", "centralized", "rmbn"],
                            N_MARKET_TRIALS)


# ---------------------------------------------------------------------------
# 1-5: exact properties on the mixed corpus

def test_01_every_negotiated_outcome_is_stable(mixed_stats):
    unstable, blocked, pairs, _, _ = mixed_stats
    _verdict(1, "stability", unstable == 0,
             f"{unstable}/{N_MIXED} unstable outcomes "
             f"({blocked} blocked individuals, {pairs} blocking pairs)")


def test_02_negotiated_outcomes_lead_every_stable_matching(tiny):
    dominated, _, max_gap = tiny
    if dominated:
        head = ", ".join(str(s) for s in dominated[:5])
        detail = (f"{len(dominated)}/{N_TINY} runs where another stable matching "
                  f"pays a matched licensed user more (max gap {max_gap:.4f}; "
                  f"first seeds {head})")
    else:
        detail = f"0/{N_TINY} runs dominated by another stable matching"
    _verdict(2, "licensed-optimality", not dominated, detail)


def test_03_no_alternative_improves_every_matched_licensed_user(tiny):
    _, pareto_bad, _ = tiny
    if pareto_bad:
        head = ", ".join(str(s) for s in pareto_bad[:5])
        detail = (f"{len(pareto_bad)}/{N_TINY} runs with a grid alternative "
                  f"improving every matched licensed user (first seeds {head})")
    else:
        detail = f"0/{N_TINY} runs with an improving alternative"
    _verdict(3, "weak-pareto", not pareto_bad, detail)


def test_04_concession_invocations_stay_within_budget(mixed_stats):
    _, _, _, over_puu, _ = mixed_stats
    _verdict(4, "concession-budget", over_puu == 0,
             f"{over_puu}/{N_MIXED} runs over the per-user invocation ceiling; "
             f"every run terminated")


def test_05_packet_counts_stay_within_budget(mixed, mixed_stats):
    _, _, _, _, over_packets = mixed_stats
    worst = max(t.packets / verify.packet_bound(p, r, q)
                for p, r, q, _, t in mixed)
    _verdict(5, "packet-budget", over_packets == 0,
             f"{over_packets}/{N_MIXED} runs over the packet ceiling "
             f"(worst used/bound ratio {worst:.3f})")


# ---------------------------------------------------------------------------
# 6-7: desk-scale market comparisons

def test_06_sum_utility_tracks_the_centralized_optimum(market):
    ratio = (market["dda-complete"].mean_sum_utility_pu
             / market["centralized"].mean_sum_utility_pu)
    _verdict(6, "centralized-ratio", ratio >= 0.90,
             f"negotiated/centralized mean sum-utility {ratio:.3f} (needs >= 0.90)")


def test_07_negotiation_beats_random_partnering(market):
    # Every negotiated outcome is feasible for the centralized optimum, so
    # centralized/random caps the ratio any mechanism can reach here; the
    # claim is a margin over random partnering beyond sampling noise.
    negotiated, random_ = market["dda-complete"], market["rmbn"]
    margin = negotiated.mean_sum_utility_pu - random_.mean_sum_utility_pu
    slack = 2.0 * math.hypot(negotiated.se_sum_utility_pu, random_.se_sum_utility_pu)
    ceiling = (market["centralized"].mean_sum_utility_pu
               / random_.mean_sum_utility_pu)
    _verdict(7, "random-baseline-margin", margin > slack,
             f"negotiated minus random mean sum-utility {margin:+.3f} "
             f"(needs > 2 SE = {slack:.3f}); centralized/random ceiling "
             f"{ceiling:.3f}")


# ---------------------------------------------------------------------------
# 8-10: sweep shapes

def test_08_price_weight_sweep_trades_rates_monotonically():
    params = topology.params_from_dict({"k_bar": 15.0, **CONTRACTS})
    rows = bench.sweep(params, "c_bar", [1, 5, 10, 15, 20, 25],
                       ["dda-complete"], N_SWEEP_TRIALS)
    rpu = [r.agg.mean_sum_rate_pu for r in rows]
    rpu_se = [r.agg.se_sum_rate_pu for r in rows]
    rsu = [r.agg.mean_sum_rate_su for r in rows]
    rsu_se = [r.agg.se_sum_rate_su for r in rows]
    ok = True
    for i in range(len(rows) - 1):
        slack_pu = 2.0 * math.hypot(rpu_se[i], rpu_se[i + 1])
        slack_su = 2.0 * math.hypot(rsu_se[i], rsu_se[i + 1])
        ok &= rpu[i + 1] <= rpu[i] + slack_pu
        ok &= rsu[i + 1] >= rsu[i] - slack_su
    _verdict(8, "rate-tradeoff", ok,
             f"licensed sum-rate {rpu[0]:.3f} -> {rpu[-1]:.3f} non-increasing, "
             f"relay sum-rate {rsu[0]:.3f} -> {rsu[-1]:.3f} non-decreasing, "
             f"within 2 SE at every step of the price-weight sweep")


def test_09_match_rate_rises_with_relay_snr():
    params = topology.params_from_dict({"l_su": 2, **CONTRACTS})
    rows = bench.sweep(params, "gamma_su_db", [5, 10, 15, 20, 25],
                       ["dda-complete"], N_SWEEP_TRIALS)
    pct = [r.agg.match_pct for r in rows]
    slots = N_SWEEP_TRIALS * min(params.l_pu, params.l_su)
    se = [100.0 * math.sqrt(max(p / 100 * (1 - p / 100), 0.0) / slots) for p in pct]
    ok = pct[-1] >= 70.0
    for i in range(len(pct) - 1):
        ok &= pct[i + 1] >= pct[i] - 2.0 * math.hypot(se[i], se[i + 1])
    curve = " -> ".join(f"{p:.1f}" for p in pct)
    _verdict(9, "match-rate", ok,
             f"matched share {curve} % over 5..25 dB relay budgets; "
             f"final {pct[-1]:.1f}% (needs >= 70, non-decreasing within 2 SE)")


def test_10_packet_use_is_modest_and_plateaus_with_coarser_steps():
    params = topology.params_from_dict(CONTRACTS)
    agg = bench.run_trials(params, ["dda-complete"], N_SWEEP_TRIALS)["dda-complete"]
    cdf = {y: agg.packet_cdf(y) for y in (15, 25, 50, 100)}
    cdf_txt = ", ".join(f"<={y}: {v:.0%}" for y, v in cdf.items())
    # the time step alone moves; an epsilon sweep would move the price step too
    p_coarse, p_coarser = (
        bench.run_trials(replace(params, epsilon=eps), ["dda-complete"],
                         N_SWEEP_TRIALS)["dda-complete"].p90_packets
        for eps in (0.4, 0.8))
    gap = abs(p_coarse - p_coarser) / max(p_coarse, p_coarser)
    ok = agg.p90_packets <= 25.0 and gap <= 0.10
    _verdict(10, "packet-p90", ok,
             f"p90 packets {agg.p90_packets:.0f} at defaults (needs <= 25; "
             f"CDF {cdf_txt}); time-step plateau p90 {p_coarse:.0f} vs "
             f"{p_coarser:.0f}, gap {gap:.1%} (needs <= 10%)")


# ---------------------------------------------------------------------------
# 11-12: oracle and complexity checks

def test_11_analytic_pair_optimizer_matches_lattice_search():
    params = topology.params_from_dict({})
    checked = 0
    worst = 0.0
    boundary_bad = 0
    seed = 0
    while checked < 500:
        real = topology.make_realization(params, seed)
        req = radio.requirements_for(params, real)
        rates = radio.make_pair_rates(params, real)
        feasible, xi, beta, u_pu = baselines.pair_optimum_continuous(rates, req)
        for l in range(params.l_pu):
            for q in range(params.l_su):
                if checked >= 500:
                    break
                if not feasible[l, q]:
                    continue
                got = lp_pair_optimum(rates.pu_coef[l, q], rates.su_coef[l, q],
                                      req.r_pu_req[l], req.r_su_req,
                                      rates.c_cost, rates.k_cost)
                assert got is not None, f"LP found pair ({l},{q}) infeasible"
                assert u_pu[l, q] >= got[0] - 1e-9, "LP beat the analytic optimum"
                worst = max(worst, abs(u_pu[l, q] - got[0]))
                relay_slack = rates.su_coef[l, q] * (1.0 - beta[l, q]) - rates.k_cost * xi[l, q]
                if not (xi[l, q] == 1.0 or abs(relay_slack) <= 1e-9):
                    boundary_bad += 1
                checked += 1
        seed += 1
    ok = worst <= 1e-6 and boundary_bad == 0
    _verdict(11, "pair-oracle", ok,
             f"500 feasible pairs, max utility gap to the LP optimum {worst:.2e} "
             f"(needs <= 1e-6); price-cap-or-zero-slack property violated on "
             f"{boundary_bad}")


def test_12_complexity_estimates_and_offer_scaling():
    exact = (verify.complexity_estimates(2, 2) ==
             {"centralized": 128, "proposed": 4, "rmbn": 2}
             and verify.complexity_estimates(2, 3) ==
             {"centralized": 1536, "proposed": 6, "rmbn": 2})
    sizes = [2, 4, 8, 16]
    offers = []
    for l_su in sizes:
        params = topology.params_from_dict({"l_su": l_su, "seed": 123, **CONTRACTS})
        agg = bench.run_trials(params, ["dda-complete"], 300)["dda-complete"]
        offers.append(agg.mean_packets / 2.0)
    slope = float(np.polyfit(np.log(sizes), np.log(offers), 1)[0])
    ok = exact and slope <= 1.3
    counts = ", ".join(f"{n}: {o:.1f}" for n, o in zip(sizes, offers))
    _verdict(12, "complexity", ok,
             f"hand-checked estimates {'match' if exact else 'MISMATCH'}; "
             f"mean offers by relay count ({counts}), log-log slope {slope:.2f} "
             f"(needs <= 1.3)")


# ---------------------------------------------------------------------------
# 13: formula-agnostic replay of 1-5

def test_13_properties_hold_under_standard_relay_formula():
    unstable, blocked, pairs, over_puu, over_packets = _suite_violations(
        _mixed_suite("standard"))
    dominated, pareto_bad, _ = _tiny_suite("standard")
    ok = (unstable == 0 and over_puu == 0 and over_packets == 0
          and not dominated and not pareto_bad)
    _verdict(13, "standard-formula", ok,
             f"af_formula='standard': {unstable}/{N_MIXED} unstable, "
             f"{over_puu}/{N_MIXED} over invocation budget, "
             f"{over_packets}/{N_MIXED} over packet budget, "
             f"{len(dominated)}/{N_TINY} dominated, "
             f"{len(pareto_bad)}/{N_TINY} with improving alternatives")
