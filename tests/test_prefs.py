"""How each side ranks the other inside the ladder engine.

A licensed user keeps the head and runner-up of its relays by falling
licensed slope and offers to the head; a relay holds the acceptable offer
that pays it most. Slopes here are exact, so each expected choice is
worked out by hand.
"""

from __future__ import annotations

from collections import deque

import pytest

from relaymarket import dda, radio, topology

from helpers import handmade_realization, single_pair_scenario
from oracles import brute_pulist


def three_relay_setup(**overrides):
    """One licensed pair, three relays with licensed-side slopes 1, 2, 4.

    Hop pairs are chosen so the harmonic composite lands exactly on
    3, 15, and 255, which makes every log2 integral and the resulting
    slopes exact: licensed 1/2/4 and relay-own 2/4/8.
    """
    params = topology.params_from_dict({
        "l_pu": 1, "l_su": 3, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
        "r_pu_req": [0.2], "r_su_req": 0.1,
        "af_formula": "standard", **overrides,
    })
    hops = {3.0: (4.0, 15.0), 15.0: (20.0, 63.0), 255.0: (510.0, 511.0)}
    first = [[hops[g][0] for g in (3.0, 15.0, 255.0)]]
    second = [[hops[g][1] for g in (3.0, 15.0, 255.0)]]
    real = handmade_realization(
        params,
        gamma_dir=[0.0],
        gamma_pt_st=first,
        gamma_st_pr=second,
        gamma_sr=[[3.0, 15.0, 255.0]],
    )
    return params, real, radio.requirements_for(params, real)


def two_user_contest(gamma_sr, **overrides):
    """Two licensed users of slope 1 and one relay; gamma_sr sets the
    relay's own slope in each user's band (3 -> 2, 15 -> 4)."""
    params = topology.params_from_dict({
        "l_pu": 2, "l_su": 1, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
        "r_pu_req": [0.2, 0.2], "r_su_req": 0.1,
        "xi_init": 0.8, "beta_init": 0.9, "delta": 0.2, "epsilon": 0.1,
        **overrides,
    })
    real = handmade_realization(
        params, gamma_dir=[2.5, 2.5],
        gamma_pt_st=[[1.0], [1.0]], gamma_st_pr=[[1.0], [1.0]],
        gamma_sr=[[g] for g in gamma_sr])
    return params, real


def first_event(params, real, req=None):
    _, trace = dda.run(params, real, req)
    return trace.events[0]


def market_draws(default_params):
    partial = topology.params_from_dict({"snr_knowledge": "partial"})
    for params in (default_params, partial):
        for seed in range(10):
            real = topology.make_realization(params, seed)
            yield params, real, radio.requirements_for(params, real)


class TestLicensedSideList:
    def test_orders_by_utility_at_the_offer(self):
        params, real, req = three_relay_setup()
        state = dda.init_state(dda.market(params, real, req))
        # slopes 1, 2, 4: at any shared offer the steepest relay wins
        assert state.market.rates.pu_coef.tolist() == [[1.0, 2.0, 4.0]]
        assert (state.head, state.runner_up) == ([2], [1])
        dda.step(state)
        assert state.events[0] == ("offer", 0, 2, 0.99, 0.99, 1)

    def test_floor_prunes_members(self):
        # at beta 0.15 relay 0 misses the 0.2 floor; the user still offers
        # to relay 2, and exits at once when even relay 2 misses the floor
        params, real, req = three_relay_setup(beta_init=0.15, epsilon=0.05)
        assert first_event(params, real, req)[:3] == ("offer", 0, 2)
        params, real, req = three_relay_setup(beta_init=0.15, epsilon=0.05,
                                              r_pu_req=[0.7])
        outcome, trace = dda.run(params, real, req)
        assert trace.events == [("prune", 0, -1, 0.99, 0.15, 0)]
        assert trace.offers == 0 and outcome.matched_terms() == ()

    def test_equal_utilities_fall_back_to_index(self):
        params = topology.params_from_dict({
            "l_pu": 1, "l_su": 2, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
            "r_pu_req": [0.1], "r_su_req": 0.0,
        })
        real = handmade_realization(
            params, gamma_dir=[1.0],
            gamma_pt_st=[[2.0, 2.0]], gamma_st_pr=[[5.0, 5.0]],
            gamma_sr=[[1.0, 9.0]])
        # equal licensed slopes; relay 1 would pay more, but the licensed
        # side ranks by its own utility alone
        assert first_event(params, real)[:3] == ("offer", 0, 0)

    def test_matches_brute_force_on_random_draws(self, default_params):
        for params, real, req in market_draws(default_params):
            state = dda.init_state(dda.market(params, real, req))
            while state.queue:
                l = state.queue[0]
                xi = float(state.market.grids.xi_values[state.m_xi[l]])
                beta = state.market.grids.beta_terms[state.m_beta[l]]
                ranked = brute_pulist(l, xi, beta, state.market.rates, req)
                seen = len(state.events)
                dda.step(state)
                kind, who, q = state.events[seen][:3]
                assert who == l
                if ranked:
                    assert (kind, q) == ("offer", ranked[0])
                else:
                    assert (kind, q) == ("prune", -1)


class TestRelaySideList:
    def test_ranks_stored_offers_by_own_utility(self):
        # both users open at (0.6, 0.5); the relay earns 2*0.5 - 0.6 from
        # the slope-2 band and 4*0.5 - 0.6 from the slope-4 band
        for bands, winner in (([3.0, 15.0], 1), ([15.0, 3.0], 0)):
            params, real = two_user_contest(bands, xi_init=0.6, beta_init=0.5)
            outcome, trace = dda.run(params, real)
            assert outcome.matched_pairs() == [(winner, 0)]
            second = ("accept", 1) if winner == 1 else ("reject", 1)
            assert [e[:2] for e in trace.events[:4]] == [
                ("offer", 0), ("accept", 0), ("offer", 1), second]

    def test_negative_utility_offers_dropped(self):
        # relay slope 2: at (0.9, 0.6) it would earn 0.8 - 0.9 < 0, and at
        # (0.01, 0.96) its rate 0.08 misses the 0.1 floor though its
        # utility 0.07 is positive
        for xi0, beta0 in ((0.9, 0.6), (0.01, 0.96)):
            params, real = single_pair_scenario(
                gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
                xi_init=xi0, beta_init=beta0, delta=xi0, epsilon=0.01,
                r_pu_req=[0.3], r_su_req=0.1)
            _, trace = dda.run(params, real)
            assert [e[0] for e in trace.events[:2]] == ["offer", "reject"]

    def test_matches_brute_force_on_random_offer_books(self, default_params):
        for params, real, req in market_draws(default_params):
            state = dda.init_state(dda.market(params, real, req))
            rates = radio.make_pair_rates(params, real)
            while state.queue:
                held = list(state.accepted)
                seen = len(state.events)
                dda.step(state)
                kind, l, q, xi, beta, _ = state.events[seen]
                if kind == "prune":
                    continue
                rate = rates.su_coef[l, q] * (1.0 - beta)
                u = rate - rates.k_cost * xi
                takes = rate >= req.r_su_req and u >= 0.0
                if takes and held[q] is not None:
                    hl, hxi, hbeta, _ = held[q]
                    takes = u > rates.su_coef[hl, q] * (1.0 - hbeta) - rates.k_cost * hxi
                assert state.events[seen + 1][0] == ("accept" if takes else "reject")


class TestChallengeRule:
    """Two identical users chase one relay of slope 2. User 0 is held at
    (0.8, 0.6), where the relay earns exactly 0; user 1 then offers the
    same terms, and after one time concession (0.8, 0.5), worth 0.2."""

    @pytest.fixture(name="events")
    def events_fixture(self):
        _, trace = dda.run(*two_user_contest([3.0, 3.0]))
        return [e[:2] + tuple(round(v, 6) for v in e[3:5]) for e in trace.events]

    def test_strictly_better_offer_wins(self, events):
        assert events[22:26] == [
            ("puu", 1, 0.8, 0.5), ("offer", 1, 0.8, 0.5),
            ("accept", 1, 0.8, 0.5), ("displace", 0, 0.8, 0.5)]

    def test_tie_keeps_incumbent(self, events):
        assert events[18:22] == [
            ("offer", 0, 0.8, 0.6), ("accept", 0, 0.8, 0.6),
            ("offer", 1, 0.8, 0.6), ("reject", 1, 0.8, 0.6)]

    def test_unacceptable_challenger_never_wins(self):
        # the relay holds user 0 (band slope 4) at (0.5, 0.8), earning
        # 0.8 - 0.5 = 0.3; user 1 (band slope 2) offers (0, 0.8), which
        # would earn it 0.4 but leaves its rate 0.4 under the 0.5 floor
        params = topology.params_from_dict({
            "l_pu": 2, "l_su": 1, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
            "r_pu_req": [0.2, 0.2], "r_su_req": 0.5,
            "xi_init": 1.0, "beta_init": 1.0, "delta": 0.25, "epsilon": 0.2,
        })
        real = handmade_realization(
            params, gamma_dir=[2.5, 2.5],
            gamma_pt_st=[[1.0], [1.0]], gamma_st_pr=[[1.0], [1.0]],
            gamma_sr=[[15.0], [3.0]])
        req = radio.requirements_for(params, real)
        state = dda.init_state(dda.market(params, real, req))
        rates = state.market.rates
        su_rate = rates.su_coef[:, 0] * (1.0 - 0.8)
        held = (0, 0.5, 0.8, su_rate[0] - rates.k_cost * 0.5)
        state.accepted[0] = held
        state.queue = deque([1])
        state.m_xi[1], state.m_beta[1] = 4, 1
        assert su_rate[1] - rates.k_cost * 0.0 > held[3]
        dda.step(state)
        assert [e[:2] for e in state.events[:2]] == [("offer", 1), ("reject", 1)]
        assert state.accepted[0] == held
