"""Centralized optimizer, per-pair term optimizers, and the random baseline."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from relaymarket import baselines, dda, radio, topology

from helpers import discrete_assignment_optimum, single_pair_scenario
from oracles import (all_injective_matchings, assignment_reference, discrete_pair_optimum,
                     haggle_reference, lp_pair_optimum)


def rates_and_req(params, seed):
    real = topology.make_realization(params, seed)
    rates = radio.make_pair_rates(params, real)
    req = radio.requirements_for(params, real)
    return real, rates, req


def market_at(params, seed):
    real = topology.make_realization(params, seed)
    return dda.market(params, real, radio.requirements_for(params, real))


def contracts(market):
    """The same market negotiated under the contract rule."""
    return replace(market, params=replace(market.params, negotiation="contracts"))


def alone(market, l, q):
    """Pair (l, q) negotiating alone under the market's rule: its
    (xi, beta, licensed utility), or None when it stays unmatched."""
    partners = np.full(market.params.l_pu, -1)
    partners[l] = q
    out, _ = dda.negotiate(market, partners)
    if not out.matched_terms():
        return None
    assert out.matched_pairs() == [(l, q)]
    [(_, _, xi, beta)] = out.matched_terms()
    return xi, beta, market.rates.pu_coef[l, q] * beta + market.rates.c_cost * xi


def drawn_pairs(l_pu, l_su, rng):
    """The (licensed, relay) pairs rmbn draws from rng, in licensed order."""
    if l_pu <= l_su:
        return list(enumerate(rng.permutation(l_su)[:l_pu].tolist()))
    return sorted((l, q) for q, l in enumerate(rng.permutation(l_pu)[:l_su].tolist()))


class TestPairOptimumContinuous:
    def test_matches_grid_search(self, default_params):
        checked = 0
        for seed in range(12):
            real, rates, req = rates_and_req(default_params, seed)
            feasible, _, _, u_pu = baselines.pair_optimum_continuous(rates, req)
            for l in range(default_params.l_pu):
                for q in range(default_params.l_su):
                    want = lp_pair_optimum(
                        rates.pu_coef[l, q], rates.su_coef[l, q],
                        req.r_pu_req[l], req.r_su_req, rates.c_cost, rates.k_cost)
                    if want is None:
                        assert not feasible[l, q]
                        continue
                    checked += 1
                    assert feasible[l, q]
                    assert u_pu[l, q] == pytest.approx(want[0], abs=1e-6)
        assert checked > 30

    def test_price_saturates_or_drains_the_relay(self, default_params):
        # at the optimum either the price hits its ceiling or the relay
        # is left with exactly zero utility
        for seed in range(12):
            real, rates, req = rates_and_req(default_params, seed)
            feasible, xi, beta, _ = baselines.pair_optimum_continuous(rates, req)
            for l, q in zip(*np.nonzero(feasible)):
                u_su = rates.su_coef[l, q] * (1.0 - beta[l, q]) - rates.k_cost * xi[l, q]
                assert xi[l, q] == pytest.approx(1.0, abs=1e-9) \
                    or abs(u_su) <= 1e-9

    def test_infeasible_pair_reports_minus_infinity(self):
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
            r_pu_req=[5.0], r_su_req=0.2)
        rates = radio.make_pair_rates(params, real)
        req = radio.requirements_for(params, real)
        feasible, xi, beta, u_pu = baselines.pair_optimum_continuous(rates, req)
        assert not feasible[0, 0]
        assert (xi[0, 0], beta[0, 0], u_pu[0, 0]) == (0.0, 0.0, -math.inf)

    def test_exact_hand_case(self):
        # slopes 1 (licensed) and 2 (relay), floors 0.3 and 0.2, unit money:
        # the cap stops clipping at beta = 0.5 where the licensed side
        # pockets 0.5 + 1.0; pushing beta to 0.9 yields 0.9 + 0.2 less
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
            r_pu_req=[0.3], r_su_req=0.2)
        rates = radio.make_pair_rates(params, real)
        req = radio.requirements_for(params, real)
        _, xi, beta, u_pu = baselines.pair_optimum_continuous(rates, req)
        assert beta[0, 0] == pytest.approx(0.5)
        assert xi[0, 0] == pytest.approx(1.0)
        assert u_pu[0, 0] == pytest.approx(1.5)

    @pytest.mark.parametrize("slopes, money, floors, want", [
        # k = 0: the price is pinned at 1, so the longest time wins
        ((1.0, 2.0), (1.0, 0.0), (0.3, 0.2), (True, 1.0, 0.9, 1.9)),
        # no money at all: likewise, and the price adds nothing
        ((1.0, 2.0), (0.0, 0.0), (0.3, 0.2), (True, 1.0, 0.9, 0.9)),
        # lo == hi = 0.5, where the relay can still pay 2 >= 1
        ((2.0, 4.0), (1.0, 1.0), (1.0, 2.0), (True, 1.0, 0.5, 2.0)),
        # zero licensed slope, zero floor: time is worthless, the price
        # tops out from beta 0 to 0.5 and the tie keeps beta 0
        ((0.0, 2.0), (1.0, 1.0), (0.0, 0.2), (True, 1.0, 0.0, 1.0)),
        # zero licensed slope, positive floor: unreachable
        ((0.0, 2.0), (1.0, 1.0), (0.5, 0.2), (False, 0.0, 0.0, -math.inf)),
        # zero relay slope, zero floor: the relay pays nothing, take it all
        ((1.0, 0.0), (1.0, 1.0), (0.3, 0.0), (True, 0.0, 1.0, 1.0)),
        # zero relay slope, positive floor: unreachable
        ((1.0, 0.0), (1.0, 1.0), (0.3, 0.2), (False, 0.0, 0.0, -math.inf)),
        # zero relay slope and a free relay price: the price is still pinned
        # at 1, though the relay's rate over k is 0/0
        ((1.0, 0.0), (1.0, 0.0), (0.3, 0.0), (True, 1.0, 1.0, 2.0)),
    ])
    def test_edge_cases_by_hand(self, slopes, money, floors, want):
        rates = radio.PairRates(pu_coef=np.array([[slopes[0]]]),
                                su_coef=np.array([[slopes[1]]]),
                                c_cost=money[0], k_cost=money[1])
        req = radio.Requirements(r_pu_req=np.array([floors[0]]), r_su_req=floors[1])
        got = tuple(a[0, 0] for a in baselines.pair_optimum_continuous(rates, req))
        assert got[0] == want[0]
        assert got[1:] == pytest.approx(want[1:])


class TestPairOptimumDiscrete:
    """A pair's best grid contract, found by the contract rule run on that
    pair alone (dda.negotiate with one partner)."""

    def test_never_beats_continuous(self, default_params):
        for seed in range(12):
            real, rates, req = rates_and_req(default_params, seed)
            feasible, _, _, u_pu = baselines.pair_optimum_continuous(rates, req)
            market = contracts(dda.market(default_params, real, req))
            for l in range(default_params.l_pu):
                for q in range(default_params.l_su):
                    disc = alone(market, l, q)
                    if disc is not None:
                        assert feasible[l, q]
                        assert disc[2] <= u_pu[l, q] + 1e-12

    def test_matches_exhaustive_grid_scan(self, default_params):
        grids = dda.concession_grids(default_params)
        for seed in range(8):
            real, rates, req = rates_and_req(default_params, seed)
            market = contracts(dda.market(default_params, real, req))
            for l in range(default_params.l_pu):
                for q in range(default_params.l_su):
                    got = alone(market, l, q)
                    best = -math.inf
                    for beta in grids.beta_values:
                        for xi in grids.xi_values:
                            if rates.pu_coef[l, q] * beta < req.r_pu_req[l]:
                                continue
                            if rates.su_coef[l, q] * (1.0 - beta) < req.r_su_req:
                                continue
                            if rates.su_coef[l, q] * (1.0 - beta) - rates.k_cost * xi < 0.0:
                                continue
                            best = max(best, rates.pu_coef[l, q] * beta + rates.c_cost * xi)
                    if got is None:
                        assert best == -math.inf
                    else:
                        assert got[2] == pytest.approx(best)

    def test_terms_lie_on_the_grids(self, default_params):
        grids = dda.concession_grids(default_params)
        market = contracts(market_at(default_params, 3))
        for l in range(default_params.l_pu):
            for q in range(default_params.l_su):
                got = alone(market, l, q)
                if got is not None:
                    assert np.min(np.abs(grids.xi_values - got[0])) < 1e-12
                    assert np.min(np.abs(grids.beta_values - got[1])) < 1e-12

    def test_refines_toward_continuous_as_steps_shrink(self):
        params, real = single_pair_scenario(
            gamma_dir=1.5, gamma_relay_hops=(3.0, 4.0), gamma_sr=6.0,
            r_pu_req=[0.3], r_su_req=0.2)
        rates = radio.make_pair_rates(params, real)
        req = radio.requirements_for(params, real)
        cont_u = baselines.pair_optimum_continuous(rates, req)[3][0, 0]
        gaps = []
        for step in (0.2, 0.05, 0.01):
            p = topology.params_from_dict({
                "l_pu": 1, "l_su": 1, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
                "r_pu_req": [0.3], "r_su_req": 0.2,
                "xi_init": 1.0, "beta_init": 1.0, "delta": step, "epsilon": step,
                "negotiation": "contracts",
            })
            disc = alone(dda.market(p, real, req), 0, 0)
            gaps.append(cont_u - disc[2])
        assert all(g >= -1e-12 for g in gaps)
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05


def total_pu_utility(rates, outcome):
    return sum(rates.pu_coef[l, q] * beta + rates.c_cost * xi
               for l, q, xi, beta in outcome.matched_terms())


class TestCentralizedAssignment:
    def test_agrees_with_itertools_enumeration(self):
        p = topology.params_from_dict({"l_pu": 2, "l_su": 3})
        for seed in range(10):
            real, rates, req = rates_and_req(p, seed)
            out = baselines.centralized_pu_optimal(dda.market(p, real, req))
            feasible, _, _, u_pu = baselines.pair_optimum_continuous(rates, req)
            best = 0.0
            for matching in all_injective_matchings(2, 3):
                if all(feasible[l, q] for l, q in matching.items()):
                    best = max(best, sum(u_pu[l, q] for l, q in matching.items()))
            assert total_pu_utility(rates, out) == pytest.approx(best)

    def test_relay_rate_agrees_with_itertools_enumeration(self, default_params):
        # the relay-rate assignment equals a brute-force maximum over every
        # injective matching, each pair at the least time its licensed
        # floor allows
        for seed in range(10):
            real, rates, req = rates_and_req(default_params, seed)
            out = baselines.centralized_su_rate(dda.market(default_params, real, req))
            got = sum(rates.su_coef[l, q] * (1.0 - beta)
                      for l, q, _, beta in out.matched_terms())
            best = 0.0
            for matching in all_injective_matchings(default_params.l_pu,
                                                    default_params.l_su):
                total = 0.0
                for l, q in matching.items():
                    beta = req.r_pu_req[l] / rates.pu_coef[l, q]
                    if beta > 1.0 or rates.su_coef[l, q] * (1.0 - beta) < req.r_su_req:
                        break
                    total += rates.su_coef[l, q] * (1.0 - beta)
                else:
                    best = max(best, total)
            assert got == pytest.approx(best)

    def test_dominates_negotiated_outcome(self, default_params):
        # continuous optimum >= best grid assignment >= what negotiation finds
        for seed in range(15):
            real, rates, req = rates_and_req(default_params, seed)
            market = dda.market(default_params, real, req)
            negotiated, _ = dda.run(default_params, real, req)
            central = baselines.centralized_pu_optimal(market)
            on_grid = discrete_assignment_optimum(market)
            u_n = total_pu_utility(rates, negotiated)
            assert total_pu_utility(rates, central) >= u_n - 1e-9
            assert on_grid >= u_n - 1e-9

    def test_continuous_dominates_discrete(self, default_params):
        for seed in range(15):
            market = market_at(default_params, seed)
            cont = baselines.centralized_pu_optimal(market)
            u_disc = discrete_assignment_optimum(market)
            assert total_pu_utility(market.rates, cont) >= u_disc - 1e-9

    @pytest.mark.parametrize("l_pu, l_su, n", [(2, 6, 40), (6, 2, 40), (3, 3, 40),
                                               (8, 8, 2)])
    def test_vectors_match_recursion(self, l_pu, l_su, n):
        p = topology.params_from_dict({"l_pu": l_pu, "l_su": l_su})
        for seed in range(n):
            market = market_at(p, seed)
            for solve, values in CENTRALIZED:
                _, want = assignment_reference(*values(market))
                assert assignment_vector(solve(market)) == want

    @pytest.mark.parametrize("l_pu, l_su", [(9, 9), (25, 50), (50, 25), (100, 200)])
    def test_totals_match_scipy(self, l_pu, l_su):
        optimize = pytest.importorskip("scipy.optimize")
        market = market_at(topology.params_from_dict({"l_pu": l_pu, "l_su": l_su}), 0)
        for solve, values in CENTRALIZED:
            value, feasible = values(market)
            cost = np.where(feasible & (value > 0.0), -value, 0.0)
            rows, cols = optimize.linear_sum_assignment(cost)
            pairs = solve(market).matched_pairs()
            assert all(feasible[l, q] and value[l, q] > 0.0 for l, q in pairs)
            got = sum(value[l, q] for l, q in pairs)
            assert got == pytest.approx(-cost[rows, cols].sum(), rel=1e-12, abs=0.0)

    def test_tie_rule_by_hand(self):
        # equal totals: rows of the smaller side join in index order and
        # take the lowest-index column at equal distance; the recursion
        # oracle keeps the lexicographically smallest vector instead
        flat = np.ones((2, 6)), np.ones((2, 6), dtype=bool)
        assert baselines._max_assignment(*flat) == [(0, 0), (1, 1)]
        tall = np.ones((6, 2)), np.ones((6, 2), dtype=bool)
        assert baselines._max_assignment(*tall) == [(0, 0), (1, 1)]
        assert assignment_reference(*tall) == (2.0, [-1, -1, -1, -1, 0, 1])
        # a feasible zero-value pair stays unmatched, as does an infeasible
        # pair of positive value
        values = np.array([[0.0, 2.0], [0.0, 5.0]])
        feasible = np.array([[True, True], [True, False]])
        assert baselines._max_assignment(values, feasible) == [(0, 1)]
        assert baselines._max_assignment(np.zeros((2, 3)), np.ones((2, 3), dtype=bool)) == []

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_an_empty_side_matches_no_one(self, shape):
        assert baselines._max_assignment(np.ones(shape), np.ones(shape, dtype=bool)) == []

    def test_a_square_market_takes_licensed_users_as_rows(self):
        # like a wide market: licensed 0, with no positive pair, takes relay
        # 0 at zero cost as it joins, so licensed 1 ends on relay 1; solved
        # from the relay side, the tie goes the other way
        values = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert baselines._max_assignment(values, values > 0.0) == [(1, 1)]
        assert baselines._max_assignment(values.T, values.T > 0.0) == [(0, 1)]


def assignment_vector(outcome):
    """Relay per licensed user, -1 unmatched."""
    assign = [-1] * outcome.shape[0]
    for l, q in outcome.matched_pairs():
        assign[l] = q
    return assign


def pu_values(market):
    """The licensed-utility assignment problem: (values, feasible)."""
    feasible, _, _, u_pu = baselines.pair_optimum_continuous(market.rates, market.requirements)
    return np.where(feasible, u_pu, 0.0), feasible


def su_values(market):
    """The relay-rate assignment problem, each pair at its least time."""
    rates = market.rates
    lo, hi = radio.beta_interval(rates, market.requirements)
    feasible = lo <= hi
    return rates.su_coef * (1.0 - np.where(feasible, lo, 0.0)), feasible


CENTRALIZED = [(baselines.centralized_pu_optimal, pu_values),
               (baselines.centralized_su_rate, su_values)]


class TestCentralizedRelayRate:
    def test_a_one_point_time_interval_is_feasible(self):
        # floors 1 and 2 on slopes 2 and 4 leave beta = 0.5 alone
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0)
        market = replace(
            dda.market(params, real),
            rates=radio.PairRates(pu_coef=np.array([[2.0]]), su_coef=np.array([[4.0]]),
                                  c_cost=1.0, k_cost=1.0),
            requirements=radio.Requirements(r_pu_req=np.array([1.0]), r_su_req=2.0))
        out = baselines.centralized_su_rate(market)
        assert out.matched_terms() == ((0, 0, 0.0, 0.5),)

    def test_matched_terms_are_floor_beta_at_zero_price(self, default_params):
        real, rates, req = rates_and_req(default_params, 5)
        out = baselines.centralized_su_rate(dda.market(default_params, real, req))
        assert out.matched_terms()
        for l, q, xi, beta in out.matched_terms():
            assert xi == 0.0
            assert rates.pu_coef[l, q] * beta == pytest.approx(req.r_pu_req[l])

    def test_dominates_negotiated_relay_sum(self, default_params):
        for seed in range(15):
            real, rates, req = rates_and_req(default_params, seed)
            negotiated, _ = dda.run(default_params, real, req)
            central = baselines.centralized_su_rate(dda.market(default_params, real, req))
            s_c = sum(rates.su_coef[l, q] * (1.0 - beta)
                      for l, q, _, beta in central.matched_terms())
            s_n = sum(rates.su_coef[l, q] * (1.0 - beta)
                      for l, q, _, beta in negotiated.matched_terms())
            assert s_c >= s_n - 1e-9


class TestRandomBaseline:
    def test_agreeable_pair_matches_at_the_opening_terms(self):
        # relay utility at the opening offer is 9(1 - 0.9) - 0.8 = 0.1
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=511.0,
            xi_init=0.8, beta_init=0.9, delta=0.2, epsilon=0.1,
            r_pu_req=[0.3], r_su_req=0.2)
        req = radio.requirements_for(params, real)
        out, trace = baselines.rmbn(dda.market(params, real, req), np.random.default_rng(0))
        [(l, q, xi, beta)] = out.matched_terms()
        assert (l, q) == (0, 0)
        assert xi == pytest.approx(0.8)
        assert beta == pytest.approx(0.9)
        assert trace.offers == 1

    def test_unworkable_pair_never_cooperates(self):
        # relay floor 2.0 exceeds its whole-frame rate: no beta works
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
            r_pu_req=[0.3], r_su_req=2.5)
        req = radio.requirements_for(params, real)
        out, trace = baselines.rmbn(dda.market(params, real, req), np.random.default_rng(0))
        assert out.matched_terms() == ()
        assert trace.events[-1][0] == "prune"

    def test_bilateral_haggle_equals_engine_on_one_pair(self):
        for seed in range(25):
            p1 = topology.params_from_dict({"l_pu": 1, "l_su": 1})
            real = topology.make_realization(p1, seed)
            req = radio.requirements_for(p1, real)
            engine_out, _ = dda.run(p1, real, req)
            random_out, _ = baselines.rmbn(dda.market(p1, real, req),
                                           np.random.default_rng(seed))
            assert engine_out.matched_pairs() == random_out.matched_pairs()
            assert np.allclose([t[2:] for t in engine_out.matched_terms()],
                               [t[2:] for t in random_out.matched_terms()])

    def test_contract_rule_takes_each_pair_optimum(self):
        params = topology.params_from_dict({"negotiation": "contracts"})
        for seed in range(20):
            market = market_at(params, seed)
            rates, req = market.rates, market.requirements
            out, trace = baselines.rmbn(market, np.random.default_rng(seed))
            terms = {(l, q): (xi, beta) for l, q, xi, beta in out.matched_terms()}
            feasible = 0
            for l, q in drawn_pairs(params.l_pu, params.l_su, np.random.default_rng(seed)):
                best = discrete_pair_optimum(
                    rates.pu_coef[l, q], rates.su_coef[l, q], req.r_pu_req[l],
                    req.r_su_req, rates.c_cost, rates.k_cost, market.grids)
                assert ((l, q) in terms) == (best is not None)
                if best is not None:
                    feasible += 1
                    assert terms[l, q] == best[1:]
                    assert alone(market, l, q) == (*best[1:], best[0])
            assert len(terms) == feasible
            assert trace.offers == feasible and trace.packets == 2 * feasible

    def test_contract_ties_keep_the_longer_time(self):
        # a price weight of 1e15 rounds the time term of the licensed
        # utility away, so several time shares tie exactly at the top price;
        # the pair takes the contract rule's order (longer time first)
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
            r_pu_req=[0.3], r_su_req=0.2, c_bar=1e15, negotiation="contracts")
        market = dda.market(params, real)
        out, trace = baselines.rmbn(market, np.random.default_rng(0))
        rates = market.rates
        [(_, _, xi, held)] = out.matched_terms()
        top = rates.pu_coef[0, 0] * held + rates.c_cost * xi
        shorter = [beta for beta in market.grids.beta_values
                   if beta < held and rates.pu_coef[0, 0] * beta >= 0.3
                   and rates.pu_coef[0, 0] * beta + rates.c_cost * xi == top]
        assert shorter
        assert xi == pytest.approx(0.99)
        assert held == pytest.approx(0.49)
        assert trace.offers == 1

    @pytest.mark.parametrize("overrides, seeds", [
        ({}, 60), ({"l_pu": 3, "l_su": 3}, 30), ({"l_pu": 6, "l_su": 2}, 30),
        ({"snr_knowledge": "partial"}, 15),
        ({"af_formula": "standard"}, 20), ({"c_bar": 1e15}, 20),
        ({"k_bar": 0.0}, 10), ({"gamma_pu_db": 0.0, "gamma_su_db": 5.0}, 15),
        ({"delta": 0.01, "epsilon": 0.01}, 5), ({"l_pu": 25, "l_su": 50}, 3),
    ], ids=["2x6", "3x3", "6x2", "partial", "standard", "c_bar-1e15", "k_bar-0",
            "low-snr", "fine-grids", "25x50"])
    def test_ladder_rule_equals_the_plain_haggle(self, overrides, seeds):
        params = topology.params_from_dict(overrides)
        for seed in range(seeds):
            market = market_at(params, seed)
            out, trace = baselines.rmbn(market, np.random.default_rng(seed))
            pairs = drawn_pairs(params.l_pu, params.l_su, np.random.default_rng(seed))
            matched, offers, conceded = haggle_reference(
                market.rates, market.requirements, market.grids, pairs)
            want = sorted((l, q, xi, beta) for l, (q, xi, beta) in matched.items())
            assert list(out.matched_terms()) == want
            assert out.final_xi_steps is None and out.final_beta_steps is None
            assert trace.offers == offers
            assert trace.puu_counts.tolist() == conceded

    @pytest.mark.parametrize("rule", ["ladder", "contracts"])
    def test_zero_licensed_floor_rejected_under_both_rules(self, rule):
        with pytest.raises(ValueError, match="r_pu_req"):
            single_pair_scenario(
                gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
                r_pu_req=[0.0], r_su_req=0.2, negotiation=rule)
        # a direct-rate floor is 0 on a zero fading draw; rmbn runs the
        # engine on it, which the ladder refuses and the contract rule runs
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
            r_pu_req=[0.5], r_su_req=0.2, negotiation=rule)
        req = radio.Requirements(r_pu_req=np.array([0.0]), r_su_req=0.2)
        market = dda.market(params, real, req)
        if rule == "ladder":
            with pytest.raises(ValueError, match="needs positive licensed rate floors"):
                baselines.rmbn(market, np.random.default_rng(0))
        else:
            outcome, trace = baselines.rmbn(market, np.random.default_rng(0))
            want, want_trace = dda.negotiate(market, np.array([0]))
            assert outcome.matched_terms() == want.matched_terms() == ((0, 0, 0.99, 0.49),)
            assert trace.offers == want_trace.offers == 1

    def test_packet_count_is_two_per_offer(self, default_params):
        _, trace = baselines.rmbn(market_at(default_params, 6), np.random.default_rng(1))
        assert trace.packets == 2 * trace.offers

    def test_draw_is_seeded(self, default_params):
        market = market_at(default_params, 6)
        a, _ = baselines.rmbn(market, np.random.default_rng(9))
        b, _ = baselines.rmbn(market, np.random.default_rng(9))
        assert a.matched_pairs() == b.matched_pairs()

    def test_never_beats_centralized_on_average(self, default_params):
        rng = np.random.default_rng(123)
        u_random, u_central = [], []
        for seed in range(150):
            market = market_at(default_params, seed)
            rates = market.rates
            out_r, _ = baselines.rmbn(market, rng)
            out_c = baselines.centralized_pu_optimal(market)
            u_random.append(total_pu_utility(rates, out_r))
            u_central.append(total_pu_utility(rates, out_c))
        assert np.mean(u_random) <= np.mean(u_central)
