"""Negotiation engine: grids, concession rule, and full runs.

The single-pair walkthrough below was traced by hand on paper before the
engine existed. With slopes of exactly 1 and 2 every branch decision
reduces to small rational arithmetic, so the expected event list is an
independent fact about the concession rule, not a snapshot of the code.
"""

from __future__ import annotations

import hashlib
import io
import json
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from relaymarket import baselines, cli, dda, radio, topology, verify
from relaymarket.errors import EngineError

from conftest import assert_outcome_well_formed
from helpers import (GOLDEN_MARKETS, concede, conceding_user, dense, engine_fingerprint,
                     handmade_realization, single_pair_scenario, without_licensed,
                     without_relay)
from oracles import (best_contracts_reference, concession_reference,
                     contract_deferred_acceptance, ladder_reference, relay_proposing_contracts)


def pair_utilities(outcome, rates):
    """Each side's utility under an outcome, zero when unmatched: [l], [q]."""
    u_pu, u_su = np.zeros(outcome.shape[0]), np.zeros(outcome.shape[1])
    for l, q, xi, beta in outcome.matched_terms():
        u_pu[l], u_su[q] = rates.licensed(beta, xi, l, q)[1], rates.relay(beta, xi, l, q)[1]
    return u_pu, u_su


class TestGrids:
    def test_values_descend_from_init_by_step(self):
        p = topology.params_from_dict(
            {"xi_init": 0.8, "beta_init": 0.9, "delta": 0.2, "epsilon": 0.1})
        grids = dda.concession_grids(p)
        assert np.allclose(grids.xi_values, [0.8, 0.6, 0.4, 0.2, 0.0])
        assert len(grids.beta_values) == 10
        assert grids.beta_values[0] == 0.9
        assert grids.beta_values[-1] == pytest.approx(0.0)
        assert grids.last_positive_xi == 3

    def test_defaults_keep_a_positive_floor(self, default_params):
        grids = dda.concession_grids(default_params)
        # 0.99 is not a multiple of 0.05, so the grid floors at 0.04
        assert grids.xi_values[-1] == pytest.approx(0.04)
        assert grids.last_positive_xi == len(grids.xi_values) - 1

    def test_a_price_at_the_tolerance_is_not_positive(self):
        # 2e-12 - 1e-12 is 1e-12 exactly, which counts as a zero price
        p = topology.params_from_dict({"xi_init": 2e-12, "delta": 1e-12})
        grids = dda.concession_grids(p)
        assert grids.xi_terms == (2e-12, 1e-12, 0.0)
        assert grids.last_positive_xi == 0

    def test_time_value_past_the_grid_is_zero(self):
        p = topology.params_from_dict(
            {"xi_init": 0.8, "beta_init": 0.9, "delta": 0.2, "epsilon": 0.1})
        grids = dda.concession_grids(p)
        assert grids.beta_terms[3] == pytest.approx(0.6)
        # one 0.0 past the grid, the time value after every time step
        assert len(grids.beta_terms) == len(grids.beta_values) + 1 == 11
        assert grids.beta_terms[-1] == 0.0

    def test_one_shared_read_only_grids_per_step_set(self):
        p = topology.params_from_dict(
            {"xi_init": 0.8, "beta_init": 0.9, "delta": 0.2, "epsilon": 0.1})
        grids = dda.concession_grids(p)
        # only (xi_init, delta, beta_init, epsilon) pick the grids
        assert dda.concession_grids(replace(p, seed=3, l_su=4, c_bar=0.5)) is grids
        assert dda.concession_grids(replace(p, delta=0.1)) is not grids
        assert dda.concession_grids(replace(p, epsilon=0.3)) is not grids
        for values in (grids.xi_values, grids.beta_values):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.5
        assert grids.xi_values[0] == 0.8 and grids.beta_values[0] == 0.9


class TestMarket:
    def test_partial_market_differs_only_in_licensed_slopes(self):
        # scoring on complete-knowledge rates is bench's rule, tested there
        params = topology.params_from_dict({"snr_knowledge": "partial"})
        real = topology.make_realization(params, 5)
        partial = dda.market(params, real)
        full = dda.market(replace(params, snr_knowledge="complete"), real)
        assert np.array_equal(partial.rates.pu_coef, 0.5 * real.partial_mean_log)
        assert np.array_equal(partial.rates.su_coef, full.rates.su_coef)
        assert np.array_equal(partial.requirements.r_pu_req, full.requirements.r_pu_req)
        assert np.array_equal(partial.grids.beta_values, full.grids.beta_values)


class TestConcessionRule:
    """LadderState.refused's decision table, driven on a handmade user."""

    STEPS = {"xi_init": 0.8, "beta_init": 0.9, "delta": 0.2, "epsilon": 0.1}

    def test_price_floor_forces_time_cut(self):
        # price index 3 is the last positive value, so time gives way
        assert concede(conceding_user(self.STEPS, 1.0, 0.3, 1.0), 3, 0) == (3, 1)

    def test_rate_floor_forces_price_cut(self):
        # one more time cut would land at 0.8 which is under the 0.85 floor
        assert concede(conceding_user(self.STEPS, 1.0, 0.85, 1.0), 0, 0) == (1, 0)

    def test_a_time_cut_onto_the_floor_cuts_the_price(self):
        # the time cut from 0.9 lands exactly on the 0.8 floor; the rate would
        # still meet it, but only a time cut that stays above the floor is
        # taken (time alone would be the cheaper cut here: 1.5 against 1.6)
        assert 0.9 - 0.1 == 0.8
        assert concede(conceding_user(self.STEPS, 1.0, 0.8, 1.0), 0, 0) == (1, 0)

    def test_cheaper_coordinate_gives_way_otherwise(self):
        # time cut costs coef*0.1 = 0.1, price cut costs c*0.2 = 0.2
        assert concede(conceding_user(self.STEPS, 1.0, 0.3, 1.0), 0, 0) == (0, 1)
        # steep licensed slope flips the comparison
        assert concede(conceding_user(self.STEPS, 3.0, 0.3, 1.0), 0, 0) == (1, 0)

    def test_the_refusing_relays_slope_decides(self):
        # slope 1 to relay 1 makes the time cut cheaper, slope 3 to the head
        # the price cut, as in the case above
        state = conceding_user(self.STEPS, 1.0, 0.3, 1.0, head_coef=3.0)
        assert concede(state, 0, 0, q=1) == (0, 1)
        assert concede(state, 0, 0, q=0) == (1, 0)

    def test_exact_tie_cuts_the_price(self):
        # on quarter grids at unit slopes both cuts cost exactly 0.25; time
        # gives way only when it is strictly cheaper
        quarters = {"xi_init": 1.0, "beta_init": 1.0, "delta": 0.25, "epsilon": 0.25}
        assert concede(conceding_user(quarters, 1.0, 0.3, 1.0), 0, 0) == (1, 0)

    def test_matches_decision_table_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            coef = float(rng.uniform(0.05, 4.0))
            floor = float(rng.uniform(0.0, 1.0))
            c = float(rng.uniform(0.0, 3.0))
            state = conceding_user(self.STEPS, coef, floor, c)
            grids = state.market.grids
            m_xi = int(rng.integers(0, len(grids.xi_values) - 1))
            m_beta = int(rng.integers(0, len(grids.beta_values) - 1))
            want = concession_reference(m_xi, m_beta, coef, floor, c, grids)
            # the head's slope and pu_coef's give the same step
            assert concede(state, m_xi, m_beta, q=0) == want
            assert concede(state, m_xi, m_beta, q=1) == want

    def test_exactly_one_coordinate_moves(self):
        state = conceding_user(self.STEPS, 1.3, 0.2, 0.7)
        grids = state.market.grids
        for m_xi in range(len(grids.xi_values) - 1):
            for m_beta in range(len(grids.beta_values) - 1):
                nx, nb = concede(state, m_xi, m_beta)
                assert (nx - m_xi, nb - m_beta) in ((1, 0), (0, 1))


class TestSinglePairWalkthrough:
    """Slope-1 licensed pair against a slope-2 relay.

    The relay's utility at the opening offer is 2(1 - 0.9) - 0.8 < 0, and
    each time concession gains it 0.2 while the licensed side only loses
    0.1, so the rule trades time three times and the fourth offer at
    (0.8, 0.6) is the first with nonnegative relay utility.
    """

    @pytest.fixture(name="pair")
    def pair_fixture(self):
        return single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
            xi_init=0.8, beta_init=0.9, delta=0.2, epsilon=0.1,
            r_pu_req=[0.3], r_su_req=0.2)

    def test_agreed_terms(self, pair):
        params, real = pair
        outcome, _ = dda.run(params, real)
        [(l, q, xi, beta)] = outcome.matched_terms()
        assert (l, q) == (0, 0)
        assert xi == pytest.approx(0.8)
        assert beta == pytest.approx(0.6)
        assert outcome.final_xi_steps.tolist() == [0]
        assert outcome.final_beta_steps.tolist() == [3]

    def test_event_ledger(self, pair):
        params, real = pair
        _, trace = dda.run(params, real)
        kinds = [(e[0], round(e[4], 6)) for e in trace.events]
        assert kinds == [
            ("offer", 0.9), ("reject", 0.9), ("puu", 0.8),
            ("offer", 0.8), ("reject", 0.8), ("puu", 0.7),
            ("offer", 0.7), ("reject", 0.7), ("puu", 0.6),
            ("offer", 0.6), ("accept", 0.6),
        ]

    def test_relay_rate_exactly_at_its_floor_is_accepted(self):
        # the relay floor set to the relay's rate at the fourth offer, bit for
        # bit: that offer is still the one accepted
        steps = {"xi_init": 0.8, "beta_init": 0.9, "delta": 0.2, "epsilon": 0.1,
                 "r_pu_req": [0.3]}
        params, real = single_pair_scenario(2.5, (1.0, 1.0), 3.0, r_su_req=0.2, **steps)
        beta = dda.concession_grids(params).beta_terms[3]
        floor = radio.make_pair_rates(params, real).relay(beta, 0.8)[0].item()
        params, real = single_pair_scenario(2.5, (1.0, 1.0), 3.0, r_su_req=floor, **steps)
        outcome, trace = dda.run(params, real)
        assert outcome.matched_terms() == ((0, 0, 0.8, beta),) and trace.offers == 4

    def test_message_accounting(self, pair):
        params, real = pair
        _, trace = dda.run(params, real)
        assert trace.offers == 4
        assert trace.packets == 8
        assert trace.puu_counts.tolist() == [3]

    def test_trace_serializes_as_json_lines(self, pair):
        params, real = pair
        _, trace = dda.run(params, real)
        buf = io.StringIO()
        trace.to_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == len(trace.events)
        first = json.loads(lines[0])
        assert first == {"kind": "offer", "pu": 0, "su": 0,
                         "xi": 0.8, "beta": 0.9, "iteration": 1}


class TestEngineMechanics:
    def test_zero_floor_rejected(self):
        with pytest.raises(ValueError, match="r_pu_req"):
            single_pair_scenario(
                gamma_dir=1.0, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
                r_pu_req=[0.0], r_su_req=0.1)
        # a direct-rate floor is 0 on a zero fading draw; the engine refuses it
        params, real = single_pair_scenario(
            gamma_dir=1.0, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
            r_pu_req=[0.5], r_su_req=0.1)
        req = radio.Requirements(r_pu_req=np.array([0.0]), r_su_req=0.1)
        with pytest.raises(ValueError, match="positive"):
            dda.init_state(dda.market(params, real, req))

    def test_infeasible_pair_prunes(self):
        # licensed floor above anything the relay can deliver
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
            r_pu_req=[1.5], r_su_req=0.2)
        outcome, trace = dda.run(params, real)
        assert outcome.matched_terms() == ()
        assert trace.events[0][0] == "prune"
        assert trace.offers == 0

    def test_rate_exactly_at_the_floor_still_offers(self):
        # Slopes 1 (licensed) and 2 (relay) on quarter grids, floors 0.5 and
        # 0.75. Every price cut ties a time cut exactly, so the price goes
        # first, down to its last positive point 0.25; the relay needs
        # beta <= 0.625, so time then falls to 0.5, where the licensed rate
        # equals its floor: the pair still offers, and the relay takes it.
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
            xi_init=1.0, beta_init=1.0, delta=0.25, epsilon=0.25,
            r_pu_req=[0.5], r_su_req=0.75)
        outcome, trace = dda.run(params, real)
        offers = [e[3:5] for e in trace.events if e[0] == "offer"]
        assert offers == [(1.0, 1.0), (0.75, 1.0), (0.5, 1.0), (0.25, 1.0),
                          (0.25, 0.75), (0.25, 0.5)]
        assert trace.events[-1] == ("accept", 0, 0, 0.25, 0.5, 6)
        assert outcome.final_xi_steps.tolist() == [3]
        assert outcome.final_beta_steps.tolist() == [2]

    def test_stepping_matches_run(self, default_params):
        real = topology.make_realization(default_params, 17)
        req = radio.requirements_for(default_params, real)
        state = dda.init_state(dda.market(default_params, real, req))
        while state.queue:
            dda.step(state)
        by_hand = dda.finish(state)
        by_run = dda.run(default_params, real, req)
        assert by_hand[0].matched_terms() == by_run[0].matched_terms()
        assert by_hand[1].events == by_run[1].events

    def test_step_is_a_noop_once_terminal(self, default_params):
        real = topology.make_realization(default_params, 17)
        req = radio.requirements_for(default_params, real)
        state = dda.init_state(dda.market(default_params, real, req))
        while state.queue:
            dda.step(state)
        offers_before = state.offers
        dda.step(state)
        assert state.offers == offers_before

    @pytest.mark.parametrize("rule", ["ladder", "contracts"])
    def test_fixed_partners_negotiate_alone(self, rule):
        # with distinct partners no offer meets a rival: the joint run is
        # each pair's solo run, and a user sitting out (-1) does nothing
        params = topology.params_from_dict({"l_pu": 4, "l_su": 3, "negotiation": rule})
        partners = np.array([2, -1, 0, -1])
        for seed in range(10):
            market = dda.market(params, topology.make_realization(params, seed))
            out, trace = dda.negotiate(market, partners)
            assert {e[1] for e in trace.events} <= {0, 2}
            assert {e[2] for e in trace.events} <= {0, 2, -1}
            offers = 0
            for l in (0, 2):
                solo = np.full(4, -1)
                solo[l] = partners[l]
                alone, alone_trace = dda.negotiate(market, solo)
                assert [t for t in out.matched_terms() if t[0] == l] == list(alone.matched_terms())
                offers += alone_trace.offers
            assert trace.offers == offers
            assert {l for l, _ in out.matched_pairs()} <= {0, 2}

    @pytest.mark.parametrize("rule", ["ladder", "contracts"])
    @pytest.mark.parametrize("partners", [
        np.array([7, 1]), np.array([0]), np.array([1.0, 2.0]), np.array([-2, 1]),
        np.array([True, False]), [0, 1], np.array([[0, 1]])],
        ids=["past-the-relays", "short", "float", "below-minus-one", "bool", "list", "2d"])
    def test_malformed_partners_are_refused(self, rule, partners):
        params = topology.params_from_dict({"negotiation": rule})
        market = dda.market(params, topology.make_realization(params, 0))
        with pytest.raises(ValueError, match="not an integer array of 2 relays"):
            dda.negotiate(market, partners)

    @pytest.mark.parametrize("rule", ["ladder", "contracts"])
    def test_partners_may_share_a_relay_and_be_unsigned(self, rule):
        params = topology.params_from_dict({"negotiation": rule})
        market = dda.market(params, topology.make_realization(params, 0))
        shared = dda.negotiate(market, np.array([5, 5]))[0]
        assert {q for _, q in shared.matched_pairs()} <= {5}
        want = engine_fingerprint(*dda.negotiate(market, np.array([3, 0])))
        for dtype in (np.uint8, np.int32):
            assert engine_fingerprint(*dda.negotiate(market, np.array([3, 0], dtype=dtype))) == want

    @staticmethod
    def _contest():
        # both licensed pairs want the lone relay; exactly one ends matched
        params = topology.params_from_dict({
            "l_pu": 2, "l_su": 1, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
            "r_pu_req": [0.2, 0.2], "r_su_req": 0.1,
            "xi_init": 0.8, "beta_init": 0.9, "delta": 0.2, "epsilon": 0.1,
        })
        real = handmade_realization(
            params, gamma_dir=[2.5, 2.5],
            gamma_pt_st=[[1.0], [1.0]], gamma_st_pr=[[1.0], [1.0]],
            gamma_sr=[[3.0], [7.0]])
        return params, real

    def test_displacement_requeues_the_loser(self):
        outcome, trace = dda.run(*self._contest())
        assert len(outcome.matched_terms()) == 1
        kinds = [e[0] for e in trace.events]
        assert "displace" in kinds or "reject" in kinds

    def test_ladder_past_its_offer_bound_raises(self, monkeypatch):
        # a rule that concedes nothing makes the refused pair offer the
        # same terms forever; the cap ends the run instead
        monkeypatch.setattr(dda.LadderState, "refused", lambda state, l, q: (
            state.xi_terms[state.m_xi[l]], state.beta_terms[state.m_beta[l]]))
        market = dda.market(*self._contest())
        grids = market.grids
        cap = 1 + 2 * (grids.last_positive_xi + len(grids.beta_values))
        with pytest.raises(EngineError, match=f"{cap + 1} offers, past its bound of {cap}"):
            dda.negotiate(market)

    def test_a_refused_user_has_a_time_step_left(self, monkeypatch):
        """A refused or displaced user offered at a positive time share, so
        refused always finds its time step below len(beta_values) and its
        time cut inside beta_terms. Checked on every refusal of negotiate
        and rmbn over the ladder markets of helpers.GOLDEN_MARKETS; the
        bound is reached, so the check has teeth."""
        refused, at_last_step = dda.LadderState.refused, Counter()

        def checked(state, l, q):
            room = len(state.market.grids.beta_values) - state.m_beta[l]
            assert room >= 1
            at_last_step[room == 1] += 1
            return refused(state, l, q)

        monkeypatch.setattr(dda.LadderState, "refused", checked)
        for overrides, seeds in GOLDEN_MARKETS:
            params = topology.params_from_dict(overrides)
            if params.negotiation != "ladder":
                continue
            for seed in range(seeds):
                market = dda.market(params, topology.make_realization(params, seed))
                dda.negotiate(market)
                baselines.rmbn(market, np.random.default_rng(seed))
        assert at_last_step[True] > 0 and at_last_step[False] > 0

    @pytest.mark.parametrize("shape", [(2, 6), (6, 2), (25, 50)])
    def test_finish_returns_int_arrays(self, shape):
        params = topology.params_from_dict({"l_pu": shape[0], "l_su": shape[1]})
        state = dda.init_state(dda.market(params, topology.make_realization(params, 3)))
        while state.queue:
            dda.step(state)
        outcome, trace = dda.finish(state)
        for counts in (trace.puu_counts, outcome.final_xi_steps, outcome.final_beta_steps):
            assert isinstance(counts, np.ndarray)
            assert counts.dtype.kind == "i"
            assert counts.shape == (shape[0],)

    @pytest.mark.parametrize("rule", ["ladder", "contracts"])
    def test_event_fields_are_plain_python(self, rule):
        params = topology.params_from_dict({"l_pu": 4, "l_su": 3, "negotiation": rule})
        for seed in range(10):
            market = dda.market(params, topology.make_realization(params, seed))
            for _, trace in (dda.negotiate(market),
                             baselines.rmbn(market, np.random.default_rng(seed))):
                for event in trace.events:
                    assert [type(v) for v in event] == [str, int, int, float, float, int]
                buf = io.StringIO()
                trace.to_jsonl(buf)
                assert [tuple(json.loads(line).values())
                        for line in buf.getvalue().splitlines()] == trace.events


class TestLadderRule:
    """The engine's relay choice (the head, or on a rounding tie with the
    runner-up the first relay of one row test) against the list rebuilt
    per offer."""

    @staticmethod
    def _assert_equals_reference(params, real, req):
        outcome, trace = dda.run(params, real, req)
        events, held, xi_steps, beta_steps = ladder_reference(
            radio.make_pair_rates(params, real), req, dda.concession_grids(params))
        assert trace.events == events
        assert {q: (l, xi, beta) for l, q, xi, beta in outcome.matched_terms()} == held
        assert outcome.final_xi_steps.tolist() == xi_steps
        assert outcome.final_beta_steps.tolist() == beta_steps

    @pytest.mark.parametrize("formula", ["paper", "standard"])
    def test_equals_rebuilt_list_reference_on_tiny_markets(self, formula):
        params = topology.params_from_dict({
            "l_pu": 2, "l_su": 2, "xi_init": 1.0, "beta_init": 1.0,
            "delta": 0.25, "epsilon": 0.25, "af_formula": formula})
        for seed in range(40):
            real = topology.make_realization(params, seed)
            self._assert_equals_reference(
                params, real, radio.requirements_for(params, real))

    def test_equals_rebuilt_list_reference_on_mixed_markets(self):
        for i in range(60):
            params = topology.params_from_dict({
                "l_pu": 2 + i % 5, "l_su": 2 + i % 3,
                "snr_knowledge": ("complete", "partial")[i // 2 % 2],
                "af_formula": ("paper", "standard")[i // 4 % 2],
                "c_bar": (1.0, 1e15)[i // 8 % 2],
            })
            real = topology.make_realization(params, i)
            self._assert_equals_reference(
                params, real, radio.requirements_for(params, real))

    @pytest.mark.parametrize("knowledge, c_bar", [
        pytest.param("complete", 1.0, id="complete"),
        pytest.param("partial", 1.0, id="partial"),
        pytest.param("complete", 1e15, id="complete-c_bar-1e15"),
        pytest.param("partial", 1e15, id="partial-c_bar-1e15"),
    ])
    def test_equals_rebuilt_list_reference_at_25x50(self, knowledge, c_bar):
        params = topology.params_from_dict(
            {"l_pu": 25, "l_su": 50, "snr_knowledge": knowledge, "c_bar": c_bar})
        real = topology.make_realization(params, 5)
        req = radio.requirements_for(params, real)
        self._assert_equals_reference(params, real, req)
        if c_bar > 1.0:
            # a heavy money weight ties utilities by rounding, so the row
            # test picks a relay other than the head on some offers
            head = dda.init_state(dda.market(params, real, req)).head
            _, trace = dda.run(params, real, req)
            assert any(q != head[l] for kind, l, q, *_ in trace.events if kind == "offer")

    @pytest.mark.parametrize("floor, relay", [(0.2, 0), (1.5, 1), (0.99, 0)])
    def test_rounding_tie_keeps_the_smaller_index(self, floor, relay):
        # Licensed slopes are exactly 1 (relay 0) and 2 (relay 1). With a
        # money weight of 1e17 the utilities at the opening offer,
        # slope * 0.99 + 0.99e17, round to the same double, so the old
        # ranking tied them and put relay 0 first whenever it clears the
        # floor; at floor 1.5 only relay 1 does, and at floor 0.99 relay 0's
        # rate sits exactly on it.
        params = topology.params_from_dict({
            "l_pu": 1, "l_su": 2, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
            "r_pu_req": [floor], "r_su_req": 0.1,
            "af_formula": "standard", "c_bar": 1e17,
        })
        real = handmade_realization(
            params, gamma_dir=[0.0],
            gamma_pt_st=[[4.0, 20.0]], gamma_st_pr=[[15.0, 63.0]],
            gamma_sr=[[3.0, 3.0]])
        rates = radio.make_pair_rates(params, real)
        assert rates.pu_coef.tolist() == [[1.0, 2.0]]
        money = rates.c_cost * 0.99
        assert rates.pu_coef[0, 0] * 0.99 + money == rates.pu_coef[0, 1] * 0.99 + money
        req = radio.requirements_for(params, real)
        _, trace = dda.run(params, real, req)
        assert trace.events[0][:3] == ("offer", 0, relay)
        self._assert_equals_reference(params, real, req)

    TIE_MARKET_DIGEST = "096793f2c621f9952cd1c0e82aece0e375d1b655be548faea5c08e3004781ee8"

    def test_golden_rounding_tie_market(self):
        """A seeded market built for rounding ties: the default 2x6 market
        at c_bar 1e16, seed 0. Offers go past the head to a tied relay, and
        on some of that relay's refusals its slope and the head's lead to
        different steps, so a refusal that read the head's slope changes
        the pinned trace."""
        params = topology.params_from_dict({"c_bar": 1e16})
        real = topology.make_realization(params, 0)
        market = dda.market(params, real)
        outcome, trace = dda.negotiate(market)
        opening, grids = dda.init_state(market), market.grids
        steps, differ = {}, 0
        for kind, l, q, xi, beta, _ in trace.events:
            step = grids.xi_terms.index(xi), grids.beta_terms.index(beta)
            if kind == "puu" and q != opening.head[l]:
                differ += step != concession_reference(
                    *steps[l], opening.head_slope[l], opening.floors[l],
                    market.rates.c_cost, grids)
            if kind in ("offer", "puu"):
                steps[l] = step
        assert differ > 0
        assert hashlib.sha256(engine_fingerprint(outcome, trace).encode()).hexdigest() \
            == self.TIE_MARKET_DIGEST
        self._assert_equals_reference(params, real, market.requirements)

    def test_exact_three_way_top_tie_walks_past_the_runner_up(self):
        # relays 1, 2 and 4 share the top licensed slope exactly and relay 3
        # comes next; both users offer only to relay 1, the smallest index
        params = topology.params_from_dict({
            "l_pu": 2, "l_su": 5, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
            "r_pu_req": [0.2, 0.2], "r_su_req": 0.1,
            "xi_init": 1.0, "beta_init": 1.0, "delta": 0.25, "epsilon": 0.25,
        })
        hops = [[2.0, 4.0, 4.0, 3.0, 4.0]] * 2
        real = handmade_realization(
            params, gamma_dir=[1.0, 1.0], gamma_pt_st=hops, gamma_st_pr=hops,
            gamma_sr=[[3.0, 3.0, 3.0, 3.0, 3.0], [3.0, 8.0, 3.0, 3.0, 3.0]])
        coef = radio.make_pair_rates(params, real).pu_coef
        assert coef[0, 1] == coef[0, 2] == coef[0, 4] > coef[0, 3] > coef[0, 0]
        req = radio.requirements_for(params, real)
        _, trace = dda.run(params, real, req)
        offers = [e[2] for e in trace.events if e[0] == "offer"]
        assert len(offers) > 2 and set(offers) == {1}
        self._assert_equals_reference(params, real, req)

    def test_rounding_tie_at_a_small_time_share_goes_to_the_smallest_index(self):
        # At beta 1e-17 every rate is far below half an ulp of the 0.99
        # price, so all five utilities round to the same double although
        # the slopes rise from relay 0 to relay 3. The head is relay 3; the
        # offer goes past the runner-up to relay 0, and relay 4 is out, as
        # its rate misses the 1e-18 floor.
        params = topology.params_from_dict({
            "l_pu": 2, "l_su": 5, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
            "r_pu_req": [1e-18, 1e-18], "r_su_req": 0.1,
            "beta_init": 1e-17, "epsilon": 1e-17,
        })
        real = handmade_realization(
            params, gamma_dir=[0.0, 0.0],
            gamma_pt_st=[[1.0, 3.0, 7.0, 15.0, 0.001]] * 2,
            gamma_st_pr=[[9.0] * 5] * 2, gamma_sr=[[3.0] * 5, [8.0] * 5])
        rates = radio.make_pair_rates(params, real)
        coef = rates.pu_coef[0]
        assert coef[3] > coef[2] > coef[1] > coef[0] > coef[4]
        assert len({rates.pu_coef[0, q] * 1e-17 + rates.c_cost * 0.99 for q in range(5)}) == 1
        assert coef[4] * 1e-17 < 1e-18 < coef[0] * 1e-17
        req = radio.requirements_for(params, real)
        _, trace = dda.run(params, real, req)
        offers = [e[2] for e in trace.events if e[0] == "offer"]
        assert len(offers) > 2 and set(offers) == {0}
        self._assert_equals_reference(params, real, req)


class TestGoldenTrace:
    """Engine traces pinned over the seeded markets of helpers.GOLDEN_MARKETS.

    Each market is run by dda.negotiate and by baselines.rmbn (rng seeded
    with the market's seed), and every run's engine_fingerprint goes into
    one sha256. A change to an engine that alters one event, count, step
    or term fails here; re-record the digest only for a change declared to
    alter behaviour.
    """

    DIGEST = "1653483e466ff690a4e4b5296a3bdb86c149736d65ca440d0f6cb6cdffdcdc4f"

    def test_traces_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        for overrides, seeds in GOLDEN_MARKETS:
            params = topology.params_from_dict(overrides)
            for seed in range(seeds):
                market = dda.market(params, topology.make_realization(params, seed))
                for outcome, trace in (
                        dda.negotiate(market),
                        baselines.rmbn(market, np.random.default_rng(seed))):
                    digest.update(engine_fingerprint(outcome, trace).encode())
        assert digest.hexdigest() == self.DIGEST

    def test_counts_equal_the_event_kinds(self):
        for overrides, seeds in GOLDEN_MARKETS:
            params = topology.params_from_dict(overrides)
            for seed in range(seeds):
                market = dda.market(params, topology.make_realization(params, seed))
                for _, trace in (dda.negotiate(market),
                                 baselines.rmbn(market, np.random.default_rng(seed))):
                    kinds = Counter(event[0] for event in trace.events)
                    assert ((trace.offers, trace.accepts, trace.displacements, trace.prunes)
                            == (kinds["offer"], kinds["accept"], kinds["displace"],
                                kinds["prune"])), (overrides, seed)


class TestOutcomeTerms:
    """Outcomes built from their matched terms (every engine and baseline
    outcome) against the dense m, g and b of helpers.dense."""

    # sha256 over helpers.GOLDEN_MARKETS of each outcome's _dense_key, for
    # negotiate, rmbn (rng seeded with the market's seed), centralized and
    # centralized-su, recorded when outcomes still filled m, g and b as they
    # were built
    DIGEST = "e50c2743a4796e98828f9a49a6c7d8dfa0981823949340e86cb72cfc34353928"

    @staticmethod
    def _outcomes(market, seed):
        return (("ladder" if market.params.negotiation == "ladder" else "steps-free",
                 dda.negotiate(market)[0]),
                ("steps-free", baselines.rmbn(market, np.random.default_rng(seed))[0]),
                ("steps-free", baselines.centralized_pu_optimal(market)),
                ("steps-free", baselines.centralized_su_rate(market)))

    @staticmethod
    def _dense_key(outcome):
        steps = [None if a is None else (a.dtype.str, a.tobytes())
                 for a in (outcome.final_xi_steps, outcome.final_beta_steps)]
        return repr([(a.dtype.str, a.shape, a.tobytes()) for a in dense(outcome)]
                    + steps + [outcome.matched_pairs()]).encode()

    def test_equal_the_recorded_dense_outcomes(self):
        digest = hashlib.sha256()
        for overrides, seeds in GOLDEN_MARKETS:
            params = topology.params_from_dict(overrides)
            for seed in range(seeds):
                market = dda.market(params, topology.make_realization(params, seed))
                for _, outcome in self._outcomes(market, seed):
                    digest.update(self._dense_key(outcome))
        assert digest.hexdigest() == self.DIGEST

    def test_terms_describe_the_dense_arrays(self):
        for overrides, seeds in GOLDEN_MARKETS:
            params = topology.params_from_dict(overrides)
            for seed in range(seeds):
                market = dda.market(params, topology.make_realization(params, seed))
                for kind, outcome in self._outcomes(market, seed):
                    terms = outcome.matched_terms()
                    pairs = outcome.matched_pairs()
                    assert pairs == sorted(pairs) == [(l, q) for l, q, _, _ in terms]
                    assert all(type(v) is int for pair in pairs for v in pair)
                    assert all(type(xi) is float and type(beta) is float
                               for _, _, xi, beta in terms)
                    assert_outcome_well_formed(outcome, params.l_pu, params.l_su)
                    m, g, b = dense(outcome)
                    ls, qs = m.nonzero()
                    assert list(zip(ls.tolist(), qs.tolist())) == pairs
                    assert [(g.item(l, q), b.item(l, q))
                            for l, q in pairs] == [(xi, beta) for _, _, xi, beta in terms]
                    if kind == "ladder":
                        assert outcome.final_xi_steps.shape == (params.l_pu,)
                        assert outcome.final_beta_steps.shape == (params.l_pu,)
                    else:
                        assert outcome.final_xi_steps is None
                        assert outcome.final_beta_steps is None


    @pytest.mark.parametrize("pairs", [
        [(-1, 0)], [(2, 0)], [(0, -1)], [(1, 3)], [(0, 0), (0, 1)], [(0, 0), (1, 0)],
    ], ids=["user-below", "user-past-end", "relay-below", "relay-past-end", "user-twice",
            "relay-twice"])
    def test_terms_must_be_a_matching_of_the_shape(self, pairs):
        # unguarded, user -1 of a 2x3 outcome would book its utility to
        # user 1, and a user or relay matched twice would be audited
        with pytest.raises(ValueError, match=r"pairs \[.*\] are not a matching of a 2x3 market"):
            dda.MatchingOutcome(2, 3, [(l, q, 0.5, 0.5) for l, q in pairs])


class TestOfferLoop:
    """step(state, n), and the events negotiate's traces replay, against
    one-iteration steps that capture every event."""

    MARKETS = (({}, 8), ({"l_pu": 6, "l_su": 2}, 8), ({"l_pu": 4, "l_su": 3}, 8),
               ({"l_pu": 25, "l_su": 50}, 2))

    @staticmethod
    def _snapshot(state):
        if isinstance(state, dda.LadderState):
            side = (list(state.m_xi), list(state.m_beta))
        else:
            side = (state.bar.tobytes(), state.best_u.tobytes(), state.best_k.tobytes())
        return (list(state.queue), list(state.accepted), list(state.puu_counts),
                state.offers, state.accepts, state.displacements, state.prunes,
                list(state.events), side)

    @pytest.mark.parametrize("with_partners", [False, True], ids=["free", "partners"])
    @pytest.mark.parametrize("rule", ["ladder", "contracts"])
    def test_n_iterations_equal_n_single_steps(self, rule, with_partners):
        chunks = (1, 2, 3, 5, 8, 13, 10**6)   # the last outruns every run
        for overrides, seeds in self.MARKETS:
            params = topology.params_from_dict({**overrides, "negotiation": rule})
            for seed in range(seeds):
                market = dda.market(params, topology.make_realization(params, seed))
                partners = (np.random.default_rng(seed).integers(-1, params.l_su, params.l_pu)
                            if with_partners else None)
                batched = dda.init_state(market, partners)
                single = dda.init_state(market, partners)
                for n in chunks:
                    dda.step(batched, n)
                    for _ in range(min(n, 10**4)):
                        dda.step(single)
                    assert self._snapshot(batched) == self._snapshot(single), (overrides, n)
                assert not batched.queue

    @staticmethod
    def _stepped(market, partners):
        """outcome, trace of a hand-stepped run, one iteration per step,
        which captures its events as it goes."""
        state = dda.init_state(market, partners)
        while state.queue:
            dda.step(state)
        return dda.finish(state)

    @pytest.mark.parametrize("formula", ["paper", "standard"])
    @pytest.mark.parametrize("knowledge", ["complete", "partial"])
    def test_trace_events_equal_a_capturing_run(self, knowledge, formula):
        # negotiate and rmbn capture no event; their traces replay the run
        # when the events are read
        for rule in ("ladder", "contracts"):
            for overrides, seeds in self.MARKETS:
                params = topology.params_from_dict({
                    **overrides, "negotiation": rule, "snr_knowledge": knowledge,
                    "af_formula": formula})
                l_pu, l_su = params.l_pu, params.l_su
                for seed in range(seeds):
                    market = dda.market(params, topology.make_realization(params, seed))
                    fixed = np.random.default_rng(seed).integers(-1, l_su, l_pu)
                    # rmbn's draw, restated
                    perm = np.random.default_rng(seed).permutation(max(l_pu, l_su))
                    drawn = np.full(l_pu, -1)
                    if l_pu <= l_su:
                        drawn[:] = perm[:l_pu]
                    else:
                        drawn[perm[:l_su]] = np.arange(l_su)
                    runs = ((dda.negotiate(market), None),
                            (dda.negotiate(market, fixed), fixed),
                            (baselines.rmbn(market, np.random.default_rng(seed)), drawn))
                    for (outcome, trace), partners in runs:
                        want_outcome, want = self._stepped(market, partners)
                        events = trace.events
                        assert events == want.events, (overrides, seed)
                        assert trace.events is events
                        assert ((trace.offers, trace.accepts, trace.displacements,
                                 trace.prunes, trace.puu_counts.tolist())
                                == (want.offers, want.accepts, want.displacements,
                                    want.prunes, want.puu_counts.tolist()))
                        assert outcome.matched_terms() == want_outcome.matched_terms()

    def test_run_trace_jsonl_is_unchanged(self, tmp_path):
        # sha256 of `relaymarket run --seed S --trials 3 --trace FILE` for S
        # in 0, 3, 11, recorded when runs still captured their events
        digest = hashlib.sha256()
        for seed in (0, 3, 11):
            path = tmp_path / f"events-{seed}.jsonl"
            assert cli.main(["run", "--seed", str(seed), "--trials", "3",
                             "--out", str(tmp_path / "agg.csv"), "--trace", str(path)]) == 0
            digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "8800c4f9fe3577a463a9010f97d78d266e19fe920f1e789440e47ecffb33a7ab")


class TestGoldenContracts:
    """Contract-rule runs and offer bounds pinned over seeded markets.

    Each market is run by dda.negotiate and by baselines.rmbn (rng seeded
    with the market's seed). Every run's engine_fingerprint and the cap
    of every state dda.init_state opened for it go into one sha256.
    Kept apart from TestGoldenTrace so the contract rule's bound is
    pinned with its traces.
    """

    MARKETS = (
        ({}, 12),
        ({"l_pu": 3, "l_su": 3}, 12),
        ({"l_pu": 6, "l_su": 2}, 12),
        ({"snr_knowledge": "partial"}, 12),
        ({"af_formula": "standard", "l_pu": 3, "l_su": 4}, 12),
        ({"c_bar": 1e15}, 12),
        ({"delta": 0.01, "epsilon": 0.01}, 6),
        ({"l_pu": 25, "l_su": 50}, 2),
    )
    DIGEST = "8217c44b65562a6ad3dc09cc4648cf1cd011f19222fa4b70ad52cf4b43f2c611"

    def test_runs_and_caps_match_the_recorded_digest(self, monkeypatch):
        caps = []
        opening = dda.init_state

        def recording_init_state(market, partners=None):
            state = opening(market, partners)
            caps.append(state.cap)
            return state

        monkeypatch.setattr(dda, "init_state", recording_init_state)
        digest = hashlib.sha256()
        for overrides, seeds in self.MARKETS:
            params = topology.params_from_dict({**overrides, "negotiation": "contracts"})
            for seed in range(seeds):
                market = dda.market(params, topology.make_realization(params, seed))
                for outcome, trace in (
                        dda.negotiate(market),
                        baselines.rmbn(market, np.random.default_rng(seed))):
                    digest.update(engine_fingerprint(outcome, trace).encode())
                    digest.update(repr(caps).encode())
                    caps.clear()
        assert digest.hexdigest() == self.DIGEST


class TestContractRule:
    """Licensed-proposing deferred acceptance over the grid contracts."""

    @staticmethod
    def _matches(outcome):
        return {l: (q, xi, beta) for l, q, xi, beta in outcome.matched_terms()}

    @pytest.fixture(name="contest")
    def contest_fixture(self):
        """Two licensed users with slope 1 chase one relay whose own slope
        is 2 in user 0's band and 4 in user 1's; every value is exact."""
        params = topology.params_from_dict({
            "l_pu": 2, "l_su": 1, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
            "r_pu_req": [0.2, 0.2], "r_su_req": 0.1,
            "xi_init": 1.0, "beta_init": 1.0, "delta": 0.25, "epsilon": 0.25,
            "negotiation": "contracts",
        })
        real = handmade_realization(
            params, gamma_dir=[2.5, 2.5],
            gamma_pt_st=[[1.0], [1.0]], gamma_st_pr=[[1.0], [1.0]],
            gamma_sr=[[3.0], [15.0]])
        return params, real

    def test_two_users_compete_for_one_relay(self, contest):
        # Licensed utility is beta + xi for both; the relay earns
        # 2(1 - beta) - xi from user 0 and 4(1 - beta) - xi from user 1.
        # 0 opens at (1, .5), relay 0. 1 opens at (1, .75), relay 0: refused,
        # bar 0. 1 offers (1, .5), relay 1: holds, bar of 0 is now 1.
        # 0 needs more than 1 and offers (.25, .25), relay 1.25: holds.
        # 1 needs more than 1.25 and offers (1, .25), relay 2: holds.
        # 0 can give the relay at most 1.5 and exits.
        params, real = contest
        outcome, trace = dda.run(params, real)
        assert outcome.matched_pairs() == [(1, 0)]
        assert outcome.matched_terms() == ((1, 0, 1.0, 0.25),)
        assert outcome.final_xi_steps is None
        assert [(e[0], e[1], e[3], e[4]) for e in trace.events] == [
            ("offer", 0, 1.0, 0.5), ("accept", 0, 1.0, 0.5),
            ("offer", 1, 1.0, 0.75), ("reject", 1, 1.0, 0.75),
            ("offer", 1, 1.0, 0.5), ("accept", 1, 1.0, 0.5),
            ("displace", 0, 1.0, 0.5),
            ("offer", 0, 0.25, 0.25), ("accept", 0, 0.25, 0.25),
            ("displace", 1, 0.25, 0.25),
            ("offer", 1, 1.0, 0.25), ("accept", 1, 1.0, 0.25),
            ("displace", 0, 1.0, 0.25),
            ("prune", 0, 0.0, 0.0),
        ]
        assert trace.offers == 5 and trace.packets == 10
        assert trace.puu_counts.tolist() == [2, 2]
        req = radio.requirements_for(params, real)
        assert verify.is_stable(outcome, real, req, params).stable

    @pytest.mark.parametrize("overrides", [{}, {"l_pu": 3, "l_su": 3}, {"l_pu": 6, "l_su": 2}])
    def test_stepping_matches_negotiate(self, overrides):
        params = topology.params_from_dict({**overrides, "negotiation": "contracts"})
        for seed in range(10):
            market = dda.market(params, topology.make_realization(params, seed))
            state = dda.init_state(market)
            while state.queue:
                dda.step(state)
            assert (engine_fingerprint(*dda.finish(state))
                    == engine_fingerprint(*dda.negotiate(market)))

    @pytest.mark.parametrize("overrides, seeds", [
        ({}, 30), ({"l_pu": 3, "l_su": 3}, 30), ({"l_pu": 25, "l_su": 50}, 3)])
    def test_offers_stay_within_the_cap(self, overrides, seeds):
        params = topology.params_from_dict({**overrides, "negotiation": "contracts"})
        for seed in range(seeds):
            market = dda.market(params, topology.make_realization(params, seed))
            _, trace = dda.negotiate(market)
            assert trace.offers <= dda.init_state(market).cap

    def test_past_its_offer_bound_raises(self, contest, monkeypatch):
        # a user whose bars never rise repeats a refused offer forever; the
        # cap ends the run instead
        market = dda.market(*contest)
        cap = dda.init_state(market).cap
        monkeypatch.setattr(dda.ContractState, "refused", lambda state, l, q: None)
        with pytest.raises(EngineError, match=f"contracts rule made {cap + 1} offers, "
                                              f"past its bound of {cap}"):
            dda.negotiate(market)

    @staticmethod
    def _open_at_start(market, partners):
        """Plain-loop count of the contracts open before any refusal: each
        clears the licensed and relay floors with nonnegative relay
        utility, and is with the user's partner when partners are given."""
        rates, req, grids = market.rates, market.requirements, market.grids
        l_pu, l_su = rates.pu_coef.shape
        count = 0
        for l in range(l_pu):
            for q in range(l_su):
                if partners is not None and partners[l] != q:
                    continue
                for xi in grids.xi_terms:
                    for beta in grids.beta_values.tolist():
                        pu_rate = rates.pu_coef.item(l, q) * beta
                        su_rate = rates.su_coef.item(l, q) * (1.0 - beta)
                        count += (pu_rate >= req.r_pu_req[l] and su_rate >= req.r_su_req
                                  and su_rate - rates.k_cost * xi >= 0.0)
        return count

    @pytest.mark.parametrize("overrides", [
        {"l_pu": 2, "l_su": 2, "xi_init": 1.0, "beta_init": 1.0,
         "delta": 0.25, "epsilon": 0.25},
        {"l_pu": 3, "l_su": 2, "af_formula": "standard"},
        {"l_pu": 2, "l_su": 3, "snr_knowledge": "partial"},
    ])
    def test_cap_counts_the_contracts_open_at_the_start(self, overrides):
        params = topology.params_from_dict({**overrides, "negotiation": "contracts"})
        for seed in range(8):
            market = dda.market(params, topology.make_realization(params, seed))
            rng = np.random.default_rng(seed)
            partners = rng.integers(-1, params.l_su, params.l_pu)
            assert dda.init_state(market).cap == self._open_at_start(market, None)
            assert (dda.init_state(market, partners).cap
                    == self._open_at_start(market, partners))

    @staticmethod
    def _assert_best_contracts(state, l):
        """User l's best_u, and best_k wherever a contract is open, equal
        the full-grid reference under the state's bars; returns the count
        of contracts open to l."""
        best_u, best_k, count = best_contracts_reference(state.market, state.bar, l)
        assert np.array_equal(state.best_u[l], best_u)
        open_ = best_u > -np.inf
        assert np.array_equal(state.best_k[l, open_], best_k[open_])
        return count

    @pytest.mark.parametrize("with_partners", [False, True])
    def test_best_contracts_equal_the_full_grid_reference(self, contest, with_partners):
        """On the golden contract markets and the contest market, whose
        exact slopes tie licensed utilities across prices, best_u, best_k
        and cap equal the full-grid broadcast after init, and the refused
        or displaced user's best_u and best_k equal it again after every
        refusal."""
        markets = [dda.market(*contest)]
        for overrides, seeds in TestGoldenContracts.MARKETS:
            params = topology.params_from_dict({**overrides, "negotiation": "contracts"})
            markets += [dda.market(params, topology.make_realization(params, seed))
                        for seed in range(seeds)]
        refusals = 0
        for seed, market in enumerate(markets):
            l_pu, l_su = market.params.l_pu, market.params.l_su
            partners = (np.random.default_rng(seed).integers(-1, l_su, l_pu)
                        if with_partners else None)
            state = dda.init_state(market, partners)
            assert state.cap == sum(self._assert_best_contracts(state, l)
                                    for l in range(l_pu))
            while state.queue:
                before = list(state.puu_counts)
                dda.step(state)
                for l, (was, now) in enumerate(zip(before, state.puu_counts)):
                    if now != was:
                        self._assert_best_contracts(state, l)
                        refusals += 1
        assert refusals > 100

    def test_one_run_keeps_no_per_contract_array(self):
        """The tracemalloc peak of one 100x200 contract run stays under
        8 MB. Sorted lists of every admissible contract peak near 144 MB."""
        params = topology.params_from_dict(
            {"l_pu": 100, "l_su": 200, "negotiation": "contracts"})
        market = dda.market(params, topology.make_realization(params, 0))
        tracemalloc.start()
        try:
            outcome, _ = dda.negotiate(market)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.matched_terms()
        assert peak < 8e6

    @pytest.mark.parametrize("knowledge", ["complete", "partial"])
    @pytest.mark.parametrize("af_formula", ["paper", "standard"])
    @pytest.mark.parametrize("l_pu, l_su", [(2, 2), (3, 2), (2, 3)])
    def test_proposer_optimal_among_stable_outcomes(self, l_pu, l_su, af_formula, knowledge):
        """On enumerable markets (the oracle grid) no stable outcome gives
        any licensed user, matched or not, more than the contract rule's
        outcome, and every stable outcome matches the same licensed users
        (Roth & Sotomayor 1990: the proposing side's optimal stable
        matching, and the rural hospitals theorem)."""
        params = topology.params_from_dict({
            **cli.ORACLE_SCENARIO, "l_pu": l_pu, "l_su": l_su, "af_formula": af_formula,
            "snr_knowledge": knowledge, "negotiation": "contracts"})
        def licensed_utilities(outcome, rates):
            m, g, b = dense(outcome)
            return np.where(m != 0, rates.pu_coef * b + rates.c_cost * g, 0.0).sum(axis=1)

        for seed in range(15):
            real = topology.make_realization(params, seed)
            req = radio.requirements_for(params, real)
            rates = radio.make_pair_rates(params, real)
            outcome, _ = dda.run(params, real, req)
            mine = licensed_utilities(outcome, rates)
            matched = {l for l, _ in outcome.matched_pairs()}
            stable = verify.enumerate_stable_matchings(real, req, params)
            assert stable
            for alt in stable:
                assert np.all(licensed_utilities(alt, rates) <= mine)
                assert {l for l, _ in alt.matched_pairs()} == matched

    @pytest.mark.parametrize("knowledge", ["complete", "partial"])
    @pytest.mark.parametrize("af_formula", ["paper", "standard"])
    def test_relay_proposing_is_the_other_end_of_the_stable_set(self, af_formula, knowledge):
        """Against tests/oracles.relay_proposing_contracts on seeded 3x4 to
        6x8 markets: every licensed user weakly prefers the contract rule's
        outcome and every relay the relay-proposing one (polarization), both
        match the same users (rural hospitals), and the relay-proposing
        outcome is stable on the full grid (Gale & Shapley 1962; Roth &
        Sotomayor 1990; Hatfield & Milgrom 2005)."""
        differ = 0
        for l_pu, l_su in [(3, 4), (4, 6), (6, 8)]:
            params = topology.params_from_dict({
                "l_pu": l_pu, "l_su": l_su, "af_formula": af_formula,
                "snr_knowledge": knowledge, "negotiation": "contracts"})
            for seed in range(5):
                real = topology.make_realization(params, seed)
                market = dda.market(params, real)
                mine, _ = dda.negotiate(market)
                theirs = dda.MatchingOutcome(l_pu, l_su, [
                    (l, q, xi, beta) for l, (q, xi, beta) in relay_proposing_contracts(
                        market.rates, market.requirements, market.grids).items()])
                (pu_mine, su_mine), (pu_theirs, su_theirs) = (
                    pair_utilities(outcome, market.rates) for outcome in (mine, theirs))
                assert np.all(pu_mine >= pu_theirs) and np.all(su_theirs >= su_mine)
                assert ({l for l, _ in mine.matched_pairs()} == {l for l, _ in theirs.matched_pairs()}
                        and {q for _, q in mine.matched_pairs()} == {q for _, q in theirs.matched_pairs()})
                assert verify.is_stable(theirs, real, market.requirements, params).stable
                differ += mine.matched_terms() != theirs.matched_terms()
        assert differ > 0

    @pytest.mark.parametrize("af_formula", ["paper", "standard"])
    def test_a_relay_entering_never_hurts_a_licensed_user(self, af_formula):
        """Each relay of a seeded 3x4 market taken out in turn, floors
        kept: with it back in, no licensed user earns less (the proposing
        side gains when the other side grows; Kelso & Crawford 1982,
        Hatfield & Milgrom 2005)."""
        params = topology.params_from_dict(
            {"l_pu": 3, "l_su": 4, "af_formula": af_formula, "negotiation": "contracts"})
        gains = 0
        for seed in range(100):
            real = topology.make_realization(params, seed)
            req = radio.requirements_for(params, real)
            rates = radio.make_pair_rates(params, real)
            full = verify.pu_utilities(dda.run(params, real, req)[0], rates)
            for q in range(params.l_su):
                fewer, smaller = without_relay(params, real, q)
                smaller_rates = radio.make_pair_rates(fewer, smaller)
                assert np.array_equal(smaller_rates.pu_coef, np.delete(rates.pu_coef, q, axis=1))
                assert np.array_equal(smaller_rates.su_coef, np.delete(rates.su_coef, q, axis=1))
                without = verify.pu_utilities(dda.run(fewer, smaller, req)[0], smaller_rates)
                assert np.all(without <= full)
                gains += int(np.any(without < full))
        assert gains > 200

    @pytest.mark.parametrize("knowledge", ["complete", "partial"])
    @pytest.mark.parametrize("af_formula", ["paper", "standard"])
    def test_a_licensed_user_entering_never_helps_a_rival_or_hurts_a_relay(
            self, af_formula, knowledge):
        """Each licensed user of a seeded 3x4 market taken out in turn, the
        others' floors kept: with it back in, no other licensed user earns
        more and no relay holds less (the proposing side loses and the other
        side gains when the proposing side grows; Kelso & Crawford 1982,
        Crawford 1991)."""
        params = topology.params_from_dict(
            {"l_pu": 3, "l_su": 4, "af_formula": af_formula, "snr_knowledge": knowledge,
             "negotiation": "contracts"})
        losses = gains = 0
        for seed in range(100):
            real = topology.make_realization(params, seed)
            req = radio.requirements_for(params, real)
            rates = radio.make_pair_rates(params, real)
            pu_full, su_full = pair_utilities(dda.run(params, real, req)[0], rates)
            for l in range(params.l_pu):
                fewer, smaller = without_licensed(params, real, l)
                smaller_rates = radio.make_pair_rates(fewer, smaller)
                assert np.array_equal(smaller_rates.pu_coef, np.delete(rates.pu_coef, l, axis=0))
                assert np.array_equal(smaller_rates.su_coef, np.delete(rates.su_coef, l, axis=0))
                smaller_req = replace(req, r_pu_req=np.delete(req.r_pu_req, l))
                pu_without, su_without = pair_utilities(
                    dda.run(fewer, smaller, smaller_req)[0], smaller_rates)
                others = np.delete(pu_full, l)
                assert np.all(others <= pu_without) and np.all(su_full >= su_without)
                losses += int(np.any(others < pu_without))
                gains += int(np.any(su_full > su_without))
        assert losses > 100 and gains > 250

    def test_a_relay_entering_can_hurt_a_licensed_user_under_the_ladder(self):
        """The property above is the contract rule's: on seeded 3x4 ladder
        markets a relay's entry hurts some licensed user in 68 (paper) and
        82 (standard) of 400 cases. Frozen here is one of them, seed 3 under the paper
        formula. With relay 1 in, user 0 takes it at the long-time terms
        the ladder conceded to and user 1 goes unmatched; without it, user
        0 takes relay 2 and user 1 relay 0, both better off. Under
        contracts the same market hurts no one."""
        params = topology.params_from_dict({"l_pu": 3, "l_su": 4, "seed": 3})
        real = topology.make_realization(params, params.seed)
        req = radio.requirements_for(params, real)
        fewer, smaller = without_relay(params, real, 1)
        utilities = {}
        for negotiation in ("ladder", "contracts"):
            full_params, fewer_params = (replace(p, negotiation=negotiation)
                                         for p in (params, fewer))
            with_1, _ = dda.run(full_params, real, req)
            without_1, _ = dda.run(fewer_params, smaller, req)
            utilities[negotiation] = (
                with_1.matched_pairs(), without_1.matched_pairs(),
                verify.pu_utilities(with_1, radio.make_pair_rates(full_params, real)),
                verify.pu_utilities(without_1, radio.make_pair_rates(fewer_params, smaller)))
        # relays 0, 2 and 3 are relays 0, 1 and 2 of the smaller market
        pairs_in, pairs_out, u_in, u_out = utilities["ladder"]
        assert pairs_in == [(0, 1), (2, 3)]
        assert pairs_out == [(0, 1), (1, 0), (2, 2)]
        assert u_out[0] > u_in[0] and u_out[1] > u_in[1] == 0.0
        assert u_out[2] == u_in[2]
        _, _, u_in, u_out = utilities["contracts"]
        assert np.all(u_out <= u_in)

    @pytest.mark.parametrize("scenario", [
        {"l_pu": 2, "l_su": 2, "xi_init": 1.0, "beta_init": 1.0,
         "delta": 0.25, "epsilon": 0.25},
        {"l_pu": 2, "l_su": 2, "xi_init": 1.0, "beta_init": 1.0,
         "delta": 0.25, "epsilon": 0.25, "af_formula": "standard"},
    ])
    def test_equals_plain_loop_reference_on_tiny_markets(self, scenario):
        params = topology.params_from_dict({**scenario, "negotiation": "contracts"})
        grids = dda.concession_grids(params)
        for seed in range(40):
            real = topology.make_realization(params, seed)
            req = radio.requirements_for(params, real)
            outcome, _ = dda.run(params, real, req)
            rates = radio.make_pair_rates(params, real)
            assert self._matches(outcome) == contract_deferred_acceptance(
                rates, req, grids)

    def test_equals_plain_loop_reference_on_mixed_markets(self):
        for i in range(40):
            params = topology.params_from_dict({
                "l_pu": 2 + i % 2, "l_su": 2 + i % 5, "seed": i,
                "snr_knowledge": ("complete", "partial")[i // 2 % 2],
                "af_formula": ("paper", "standard")[i // 4 % 2],
                "negotiation": "contracts",
            })
            real = topology.make_realization(params, i)
            req = radio.requirements_for(params, real)
            outcome, trace = dda.run(params, real, req)
            rates = radio.make_pair_rates(params, real)
            assert self._matches(outcome) == contract_deferred_acceptance(
                rates, req, dda.concession_grids(params))
            assert verify.is_stable(outcome, real, req, params).stable
            assert trace.packets == 2 * trace.offers


def test_default_scenario_invariants(default_params):
    """Floors, utilities, grid membership, and accounting on real draws."""
    grids = dda.concession_grids(default_params)
    for seed in range(30):
        real = topology.make_realization(default_params, seed)
        req = radio.requirements_for(default_params, real)
        rates = radio.make_pair_rates(default_params, real)
        outcome, trace = dda.run(default_params, real, req)

        assert_outcome_well_formed(outcome, default_params.l_pu, default_params.l_su)
        for l, q, xi, beta in outcome.matched_terms():
            assert rates.pu_coef[l, q] * beta >= req.r_pu_req[l] - 1e-12
            assert rates.su_coef[l, q] * (1.0 - beta) >= req.r_su_req - 1e-12
            assert rates.su_coef[l, q] * (1.0 - beta) - rates.k_cost * xi >= -1e-12
            assert np.min(np.abs(grids.xi_values - xi)) < 1e-9
            assert np.min(np.abs(grids.beta_values - beta)) < 1e-9

        assert trace.packets == 2 * trace.offers
        bounds = verify.per_pu_puu_bounds(default_params, real, req)
        assert np.all(trace.puu_counts <= bounds)
        assert trace.packets <= verify.packet_bound(default_params, real, req)
