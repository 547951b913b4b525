"""Property-based checks over randomly drawn channels, grids, and runs."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from relaymarket import bench, dda, radio, topology, verify

from conftest import assert_outcome_well_formed
from helpers import concede, conceding_user
from oracles import concession_reference, relay_proposing_contracts
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

