"""Property-based checks over randomly drawn channels, grids, and runs."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from relaymarket import bench, dda, radio, topology, verify

from conftest import assert_outcome_well_formed
from helpers import concede, conceding_user
from oracles import (concession_reference, contract_deferred_acceptance, ladder_reference,
                     open_trades_reference, relay_proposing_contracts, stability_reference)
from test_dda import pair_utilities

snr_values = st.floats(min_value=1e-6, max_value=1e6,
                       allow_nan=False, allow_infinity=False)


@st.composite
def grid_params(draw):
    """Scenario whose concession grids stay enumerably small."""
    xi_init = draw(st.sampled_from([0.2, 0.5, 0.75, 0.99, 1.0]))
    beta_init = draw(st.sampled_from([0.4, 0.8, 0.99, 1.0]))
    delta = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5]))
    epsilon = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5]))
    if delta > xi_init or epsilon > beta_init:
        # clamp instead of rejecting to keep the draw budget flat
        delta = min(delta, xi_init)
        epsilon = min(epsilon, beta_init)
    return topology.params_from_dict({
        "xi_init": xi_init, "beta_init": beta_init,
        "delta": delta, "epsilon": epsilon})


@st.composite
def small_scenarios(draw):
    return topology.params_from_dict({
        "l_pu": draw(st.integers(min_value=1, max_value=4)),
        "l_su": draw(st.integers(min_value=1, max_value=4)),
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "af_formula": draw(st.sampled_from(["paper", "standard"])),
    })


class TestRelayCombining:
    @given(snr_values, snr_values)
    def test_paper_gain_saturates_below_one(self, g1, g2):
        relay = radio.af_relay_snr(g1, g2, "paper")
        assert 0.0 <= relay < 1.0

    @given(snr_values, snr_values)
    def test_standard_gain_below_weakest_hop(self, g1, g2):
        relay = radio.af_relay_snr(g1, g2, "standard")
        assert 0.0 <= relay < min(g1, g2)

    @given(snr_values, snr_values, snr_values)
    def test_monotone_in_each_hop(self, g1, g2, bump):
        # up to one rounding ulp: the quotient wobbles at extreme hop ratios
        for formula in ("paper", "standard"):
            base = radio.af_relay_snr(g1, g2, formula)
            slack = 1e-12 * base
            assert radio.af_relay_snr(g1 + bump, g2, formula) >= base - slack
            assert radio.af_relay_snr(g1, g2 + bump, formula) >= base - slack


class TestGrids:
    @given(grid_params())
    def test_descending_start_and_spacing(self, params):
        grids = dda.concession_grids(params)
        xi = grids.xi_values
        assert xi[0] == params.xi_init
        assert np.all(np.diff(xi) < 0)
        assert np.allclose(np.diff(xi), -params.delta)
        assert xi[-1] >= -1e-12

        beta = grids.beta_values
        assert beta[0] == params.beta_init
        assert np.allclose(np.diff(beta), -params.epsilon)
        assert beta[-1] >= -1e-12
        assert grids.beta_terms == (*beta.tolist(), 0.0)

    @given(grid_params())
    def test_last_positive_xi_marks_the_boundary(self, params):
        grids = dda.concession_grids(params)
        idx = grids.last_positive_xi
        assert grids.xi_values[idx] > 0.0
        assert all(v <= 0.0 for v in grids.xi_values[idx + 1:])


class TestConcessionStep:
    @given(grid_params(), st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=30),
           st.floats(min_value=0.01, max_value=30.0),
           st.floats(min_value=0.0, max_value=3.0))
    def test_exactly_one_coordinate_advances(self, params, m_xi, m_beta,
                                             coef, floor):
        """LadderState.refused moves one step, as the decision table says.
        The engine refuses only a user that offered at a positive time
        share, so m_beta ranges below len(beta_values)."""
        steps = {k: getattr(params, k) for k in ("xi_init", "delta", "beta_init", "epsilon")}
        c_cost = params.c_bar * params.capital_c
        state = conceding_user(steps, coef, floor, c_cost)
        grids = state.market.grids
        m_xi = min(m_xi, grids.last_positive_xi)
        m_beta = min(m_beta, len(grids.beta_values) - 1)
        for q in (0, 1):
            nx, nb = concede(state, m_xi, m_beta, q)
            assert (nx - m_xi, nb - m_beta) in ((1, 0), (0, 1))
            assert (nx, nb) == concession_reference(m_xi, m_beta, coef, floor,
                                                    c_cost, grids)


class TestOrderStatistic:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_p90_is_a_sample_element_with_ninety_percent_below(self, values):
        x = bench.p90(values)
        arr = np.asarray(values)
        assert x in arr
        assert np.mean(arr <= x) >= 0.9
        # smallest such element: everything strictly below fails the cover
        assert np.mean(arr < x) < 0.9


class TestEngineInvariants:
    @settings(max_examples=25, deadline=None)
    @given(small_scenarios())
    def test_runs_are_well_formed_bounded_and_stable(self, params):
        realization = topology.make_realization(params, params.seed)
        requirements = radio.requirements_for(params, realization)
        outcome, trace = dda.run(params, realization, requirements)

        assert_outcome_well_formed(outcome, params.l_pu, params.l_su)
        grids = dda.concession_grids(params)
        rates = radio.make_pair_rates(params, realization)
        for l, q, xi, beta in outcome.matched_terms():
            assert rates.pu_coef[l, q] * beta >= requirements.r_pu_req[l] - 1e-12
            assert rates.su_coef[l, q] * (1.0 - beta) >= requirements.r_su_req - 1e-12
            assert rates.su_coef[l, q] * (1.0 - beta) - rates.k_cost * xi >= -1e-12
            assert any(math.isclose(xi, v, abs_tol=1e-12) for v in grids.xi_values)

        assert trace.packets == 2 * trace.offers
        bounds = verify.per_pu_puu_bounds(params, realization, requirements)
        assert np.all(trace.puu_counts <= bounds)
        assert trace.packets <= verify.packet_bound(params, realization,
                                                    requirements)
        assert verify.is_stable(outcome, realization, requirements,
                                params).stable


@st.composite
def contract_markets(draw):
    return topology.params_from_dict({
        "l_pu": draw(st.integers(min_value=1, max_value=6)),
        "l_su": draw(st.integers(min_value=1, max_value=8)),
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "af_formula": draw(st.sampled_from(["paper", "standard"])),
        "snr_knowledge": draw(st.sampled_from(["complete", "partial"])),
        "negotiation": "contracts",
    })


class TestContractStableSet:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(contract_markets())
    def test_relay_proposing_is_the_other_end_of_the_stable_set(self, params):
        """Against tests/oracles.relay_proposing_contracts: every licensed
        user weakly prefers the contract rule's outcome and every relay the
        relay-proposing one (polarization), both match the same users
        (rural hospitals), and the audit finds the relay-proposing outcome
        stable on the full grid, its open pairs past the licensed-only
        prefilter (Roth & Sotomayor 1990; Hatfield & Milgrom 2005)."""
        real = topology.make_realization(params, params.seed)
        market = dda.market(params, real)
        mine, _ = dda.negotiate(market)
        theirs = dda.MatchingOutcome(params.l_pu, params.l_su, [
            (l, q, xi, beta) for l, (q, xi, beta) in relay_proposing_contracts(
                market.rates, market.requirements, market.grids).items()])
        (pu_mine, su_mine), (pu_theirs, su_theirs) = (
            pair_utilities(outcome, market.rates) for outcome in (mine, theirs))
        assert np.all(pu_mine >= pu_theirs) and np.all(su_theirs >= su_mine)
        for side in (0, 1):
            assert ({pair[side] for pair in mine.matched_pairs()}
                    == {pair[side] for pair in theirs.matched_pairs()})
        assert verify.is_stable(theirs, real, market.requirements, params).stable


DYADIC_SLOPES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
DYADIC_WEIGHTS = (0.0, 0.125, 0.25, 0.5, 1.0)


@st.composite
def dyadic_tie_markets(draw, negotiation):
    """dda.Markets built directly on dyadic numbers, so that trades tie
    exactly: grids from 1 in steps of 1/4 or 1/8, slopes and money
    weights from small dyadic sets (relay slopes may be 0), some rows
    with one licensed slope for every relay and some columns with one
    relay slope for every licensed user, each licensed floor the licensed
    rate of one of its pairs at a grid point, and the relay floor one
    pair's relay rate at a grid point. The ladder refuses a zero licensed
    floor, so under it that grid point is a positive time share."""
    l_pu, l_su = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    steps = st.sampled_from([0.25, 0.125])
    params = topology.ScenarioParams(l_pu=l_pu, l_su=l_su, xi_init=1.0, beta_init=1.0,
                                     delta=draw(steps), epsilon=draw(steps),
                                     negotiation=negotiation)
    grids = dda.concession_grids(params)
    betas = grids.beta_values
    pu_coef = draw(arrays(float, (l_pu, l_su), elements=st.sampled_from(DYADIC_SLOPES)))
    su_coef = draw(arrays(float, (l_pu, l_su), elements=st.sampled_from((0.0, *DYADIC_SLOPES))))
    tied_rows = draw(arrays(bool, l_pu))
    pu_coef[tied_rows] = pu_coef[tied_rows, :1]
    tied_columns = draw(arrays(bool, l_su))
    su_coef[:, tied_columns] = su_coef[:1, tied_columns]
    last = len(betas) - (2 if negotiation == "ladder" else 1)
    r_pu_req = np.array([pu_coef[l, draw(st.integers(0, l_su - 1))]
                         * betas[draw(st.integers(0, last))] for l in range(l_pu)])
    r_su_req = float(su_coef[draw(st.integers(0, l_pu - 1)), draw(st.integers(0, l_su - 1))]
                     * (1.0 - betas[draw(st.integers(0, len(betas) - 1))]))
    rates = radio.PairRates(pu_coef=pu_coef, su_coef=su_coef,
                            c_cost=draw(st.sampled_from(DYADIC_WEIGHTS)),
                            k_cost=draw(st.sampled_from(DYADIC_WEIGHTS)))
    return dda.Market(params, radio.Requirements(r_pu_req=r_pu_req, r_su_req=r_su_req),
                      rates, grids)


_TIE_PARAMS = topology.ScenarioParams(l_pu=2, l_su=2, xi_init=1.0, beta_init=1.0, delta=0.25,
                                      epsilon=0.25, negotiation="contracts")
RELAY_TIE = dda.Market(
    _TIE_PARAMS, radio.Requirements(r_pu_req=np.array([0.25, 0.5]), r_su_req=0.0),
    radio.PairRates(pu_coef=np.array([[0.25, 0.25], [0.5, 0.25]]), su_coef=np.zeros((2, 2)),
                    c_cost=0.125, k_cost=0.125),
    dda.concession_grids(_TIE_PARAMS))


class TestDyadicTieMarkets:
    """The fast paths that rest on float-ordering arguments against their
    plain-loop references, on markets where floors and utilities tie
    exactly."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dyadic_tie_markets("contracts"), st.data())
    def test_open_trades_equal_the_plain_scan(self, market, data):
        """Row by row against tests/oracles.open_trades_reference at every
        price, under bars of minus infinity, 0, a relay utility one grid
        trade of the pair ties and plus infinity, from the first, a drawn
        and one past the last time index."""
        rates, req, grids = market.rates, market.requirements, market.grids
        betas, n = grids.beta_values, len(grids.beta_values)
        tie_beta = data.draw(st.sampled_from(grids.beta_terms[:-1]))
        tie_xi = data.draw(st.sampled_from(grids.xi_terms))
        mid = data.draw(st.integers(0, n))
        rows = [(l, q, bar, lo) for l, q in np.ndindex(rates.pu_coef.shape)
                for bar in (-np.inf, 0.0, rates.relay(tie_beta, tie_xi, l, q)[1], np.inf)
                for lo in (0, mid, n)]
        l, q, bar, lo = (np.array(column)[:, None] for column in zip(*rows))
        j, u = radio.open_trades(rates, req, l, q, bar, betas, grids.xi_values, lo)
        for r, (l, q, bar, lo) in enumerate(rows):
            for i, xi in enumerate(grids.xi_terms):
                want = open_trades_reference(rates, req, betas, l, q, bar, xi, lo)
                assert (j[r, i], u[r, i]) == want, (l, q, bar, lo, i)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "a relay offered equal utilities keeps the first offer, and the reference "
        "also proposes the contracts relays refuse, so its offers arrive in another order"))
    @settings(max_examples=40, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.generate])
    @example(market=RELAY_TIE)
    @given(dyadic_tie_markets("contracts"))
    def test_contract_rule_equals_deferred_acceptance(self, market):
        """RELAY_TIE, the shrunk counterexample: relay rates are 0, so a
        relay takes price 0 alone and values any such offer at 0; both
        users clear their floors at time share 1 alone, user 1 with relay
        0 only. The reference's user 0 first proposes its eight refused
        contracts, so user 1 reaches relay 0 first and user 0 goes to relay
        1. The engine's user 0 skips them and takes relay 0, and user 1,
        refused there on the tie, goes unmatched."""
        outcome, _ = dda.negotiate(market)
        assert ({l: (q, xi, beta) for l, q, xi, beta in outcome.matched_terms()}
                == contract_deferred_acceptance(market.rates, market.requirements,
                                                market.grids))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dyadic_tie_markets("contracts"))
    def test_contract_rule_is_stable(self, market):
        """No blocked individual and no blocking pair, by
        tests/oracles.stability_reference on the full grid."""
        outcome, _ = dda.negotiate(market)
        assert stability_reference(outcome, market.rates, market.requirements,
                                   market.grids) == ([], [])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dyadic_tie_markets("ladder"))
    def test_ladder_equals_the_rebuilt_list_reference(self, market):
        outcome, trace = dda.negotiate(market)
        events, held, xi_steps, beta_steps = ladder_reference(
            market.rates, market.requirements, market.grids)
        assert trace.events == events
        assert {q: (l, xi, beta) for l, q, xi, beta in outcome.matched_terms()} == held
        assert outcome.final_xi_steps.tolist() == xi_steps
        assert outcome.final_beta_steps.tolist() == beta_steps
