"""Rates, utilities, floors, and feasibility thresholds.

The numeric expectations were worked out by hand from the closed forms
(relay SNR composition, two-phase rate, linear money terms) and frozen
here as literals, so a regression in any formula trips a literal mismatch
rather than a self-consistent wrong value.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from relaymarket import baselines, dda, radio, topology, verify

from helpers import handmade_realization, single_pair_scenario
from oracles import (expected_relay_log_term, open_trades_reference,
                     partial_mean_log_reference, reference_draw)


class TestRelaySnr:
    def test_composed_form_at_equal_hops(self):
        # product 100 over product-plus-one 101
        assert radio.af_relay_snr(10.0, 10.0, "paper") == pytest.approx(100.0 / 101.0)

    def test_harmonic_form_at_equal_hops(self):
        assert radio.af_relay_snr(10.0, 10.0, "standard") == pytest.approx(100.0 / 21.0)

    def test_composed_form_saturates_below_one(self):
        for g in (1.0, 10.0, 1e3, 1e6):
            assert radio.af_relay_snr(g, g, "paper") < 1.0

    def test_harmonic_form_below_weakest_hop(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g1, g2 = rng.uniform(0.01, 50.0, 2)
            assert radio.af_relay_snr(g1, g2, "standard") < min(g1, g2)

    def test_unknown_formula_rejected(self):
        with pytest.raises(ValueError):
            radio.af_relay_snr(1.0, 1.0, "exact")


class TestRatesOnHandmadeChannels:
    """Single pair with direct SNR 1, relay hops (2, 5), own-link SNR 3."""

    @pytest.fixture(name="pair")
    def pair_fixture(self):
        return single_pair_scenario(
            gamma_dir=1.0, gamma_relay_hops=(2.0, 5.0), gamma_sr=3.0,
            r_pu_req=[0.3], r_su_req=0.2)

    def test_composite_snr(self, pair):
        _, real = pair
        assert real.gamma_relay[0, 0] == pytest.approx(10.0 / 11.0)

    def test_licensed_rate(self, pair):
        params, real = pair
        rates = radio.make_pair_rates(params, real)
        # half of beta*T at log2(1 + 1 + 10/11)
        expected = 0.5 * 0.8 * 1.5405683813627027
        assert rates.pu_coef[0, 0] * 0.8 == pytest.approx(expected)

    def test_licensed_rate_standard_form(self):
        params, real = single_pair_scenario(
            gamma_dir=1.0, gamma_relay_hops=(2.0, 5.0), gamma_sr=3.0,
            r_pu_req=[0.3], r_su_req=0.2, af_formula="standard")
        expected = 0.5 * 0.8 * 1.7004397181410922
        rates = radio.make_pair_rates(params, real)
        assert rates.pu_coef[0, 0] * 0.8 == pytest.approx(expected)

    def test_relay_pair_rate(self, pair):
        params, real = pair
        # (1 - beta) T log2(1 + 3) with T = 1
        rates = radio.make_pair_rates(params, real)
        assert rates.su_coef[0, 0] * (1 - 0.25) == pytest.approx(1.5)

    def test_utilities_are_rate_plus_money(self, pair):
        params, real = pair
        rates = radio.make_pair_rates(params, real)
        # at beta = 0.8 and 0.25, price 0.3, unit money slopes
        u_pu = rates.pu_coef[0, 0] * 0.8 + rates.c_cost * 0.3
        u_su = rates.su_coef[0, 0] * (1 - 0.25) - rates.k_cost * 0.3
        assert u_pu == pytest.approx(0.4 * 1.5405683813627027 + 0.3)
        assert u_su == pytest.approx(1.5 - 0.3)

    def test_direct_rate(self):
        # the default licensed floor is T log2(1 + 1)
        params, real = single_pair_scenario(
            gamma_dir=1.0, gamma_relay_hops=(2.0, 5.0), gamma_sr=3.0)
        req = radio.requirements_for(params, real)
        assert req.r_pu_req[0] == pytest.approx(1.0)

    def test_money_weights_scale_utilities(self):
        params, real = single_pair_scenario(
            gamma_dir=1.0, gamma_relay_hops=(2.0, 5.0), gamma_sr=3.0,
            r_pu_req=[0.3], r_su_req=0.2, c_bar=2.0, k_bar=3.0, capital_c=4.0)
        rates = radio.make_pair_rates(params, real)
        # money slopes c_bar * C = 8 and k_bar * C = 12, at price 0.25
        assert rates.pu_coef[0, 0] * 0.5 + rates.c_cost * 0.25 == pytest.approx(
            0.25 * 1.5405683813627027 + 2.0)
        assert rates.su_coef[0, 0] * 0.5 - rates.k_cost * 0.25 == pytest.approx(1.0 - 3.0)


class TestPairRates:
    def test_slopes_reproduce_pointwise_rates(self, default_params):
        # the closed forms restated from the SNRs
        real = topology.make_realization(default_params, 9)
        rates = radio.make_pair_rates(default_params, real)
        for l in range(default_params.l_pu):
            for q in range(default_params.l_su):
                for beta in (0.2, 0.7, 0.99):
                    assert rates.pu_coef[l, q] * beta == pytest.approx(
                        0.5 * beta * np.log2(1 + real.gamma_dir[l] + real.gamma_relay[l, q]))
                    assert rates.su_coef[l, q] * (1.0 - beta) == pytest.approx(
                        (1 - beta) * np.log2(1 + real.gamma_sr[l, q]))

    def test_relay_slopes_read_gamma_sr_as_band_by_relay(self):
        # band 0 gives relays 0, 1 and 2 the SNRs 3, 15 and 255, band 1
        # gives them 1, 7 and 31: su_coef[l, q] must be log2(1 + gamma_sr[l, q])
        params = topology.params_from_dict({
            "l_pu": 2, "l_su": 3, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
            "r_pu_req": [0.1, 0.1]})
        real = handmade_realization(
            params, gamma_dir=[1.0, 1.0], gamma_pt_st=np.ones((2, 3)),
            gamma_st_pr=np.ones((2, 3)), gamma_sr=[[3.0, 15.0, 255.0], [1.0, 7.0, 31.0]])
        rates = radio.make_pair_rates(params, real)
        assert rates.su_coef.tolist() == [[2.0, 4.0, 8.0], [1.0, 3.0, 5.0]]

    def test_partial_mode_needs_precomputed_terms(self, default_params):
        real = topology.make_realization(default_params, 9)
        with pytest.raises(ValueError, match="partial"):
            radio.make_pair_rates(replace(default_params, snr_knowledge="partial"), real)

    def test_partial_slope_is_the_expected_log(self):
        p = topology.params_from_dict({"snr_knowledge": "partial"})
        real = topology.make_realization(p, 4)
        rates = radio.make_pair_rates(p, real)
        assert np.allclose(rates.pu_coef, 0.5 * real.partial_mean_log)

    @pytest.mark.parametrize("formula", ["paper", "standard"])
    def test_leaves_its_inputs_unchanged(self, formula):
        # the complete-knowledge slopes are computed in place; they must
        # never alias the SNRs or the partial-knowledge estimates
        for l_pu, l_su in ((2, 6), (6, 2), (25, 50)):
            p = topology.params_from_dict({"l_pu": l_pu, "l_su": l_su, "t_frame": 0.7,
                                           "snr_knowledge": "partial", "af_formula": formula})
            real = topology.make_realization(p, 5)
            inputs = [real.partial_mean_log, real.gamma_dir, real.gamma_relay, real.gamma_sr]
            before = [a.copy() for a in inputs]
            for knowledge in ("complete", "partial"):
                rates = radio.make_pair_rates(replace(p, snr_knowledge=knowledge), real)
                for a, b in zip(inputs, before):
                    assert a.tobytes() == b.tobytes()
                    assert not np.shares_memory(a, rates.pu_coef)
                    assert not np.shares_memory(a, rates.su_coef)
                # the slopes restated out of place, bit for bit
                log_term = (np.log1p(real.gamma_dir[:, None] + real.gamma_relay) / math.log(2.0)
                            if knowledge == "complete" else real.partial_mean_log)
                assert rates.pu_coef.tobytes() == (0.5 * 0.7 * log_term).tobytes()
                assert rates.su_coef.tobytes() == (
                    0.7 * (np.log1p(real.gamma_sr) / math.log(2.0))).tobytes()

    def test_partial_slope_close_to_complete_on_average(self):
        # expectation over the forward hop should track the realized slope
        # in the mean, though any single pair can be off
        p_partial = topology.params_from_dict({"snr_knowledge": "partial"})
        p_complete = topology.params_from_dict({})
        gaps = []
        for s in range(60):
            real = topology.make_realization(p_partial, s)
            exp_coef = radio.make_pair_rates(p_partial, real).pu_coef
            act_coef = radio.make_pair_rates(p_complete, real).pu_coef
            gaps.append(np.mean(exp_coef - act_coef))
        assert abs(np.mean(gaps)) < 0.05


def one_pair_mean_log(g_dir, g1, m, formula, rng):
    """radio.mean_relay_log_terms on a 1x1 market."""
    return radio.mean_relay_log_terms(np.array([g_dir]), np.array([[g1]]),
                                      np.array([[m]]), formula, [rng])[0, 0]


class TestExpectedRate:
    def test_zero_forward_gain_reduces_to_direct(self, default_params):
        rng = np.random.default_rng(0)
        got = one_pair_mean_log(2.5, 1.0, 0.0, default_params.af_formula, rng)
        assert got == pytest.approx(1.8073549220576042)

    def test_monotone_in_forward_gain(self, default_params):
        vals = [one_pair_mean_log(1.0, 2.0, g, default_params.af_formula,
                                  np.random.default_rng(1))
                for g in (0.0, 0.5, 2.0, 8.0)]
        assert vals == sorted(vals)

    def test_estimator_reproducible_and_tight(self, default_params):
        a = one_pair_mean_log(1.0, 3.0, 1.0, default_params.af_formula,
                              np.random.default_rng(5))
        b = one_pair_mean_log(1.0, 3.0, 1.0, default_params.af_formula,
                              np.random.default_rng(5))
        assert a == b
        # against quadrature of the same expectation under both formulas, on
        # a zero-gain pair and gains spanning 1e-3 to 1e3
        draw = np.random.default_rng(7)
        triples = [(0.5, 2.0, 0.0)] + (10.0 ** draw.uniform(-3.0, 3.0, (60, 3))).tolist()
        for formula in ("paper", "standard"):
            for i, (g_dir, g1, m) in enumerate(triples):
                got = one_pair_mean_log(g_dir, g1, m, formula, np.random.default_rng(i))
                want = expected_relay_log_term(g_dir, g1, m, formula)
                assert got == pytest.approx(want, rel=5e-3), (formula, g_dir, g1, m)

    @pytest.mark.parametrize("overrides", [
        {},
        {"af_formula": "standard", "l_pu": 3, "l_su": 4},
        {"l_pu": 25, "l_su": 50},
    ], ids=["2x6", "3x4-standard", "25x50"])
    def test_partial_draw_matches_the_per_pair_estimator(self, overrides):
        # bit for bit against the pair-by-pair loop, on the same spawned
        # streams of each trial's channel generator
        params = topology.params_from_dict({"snr_knowledge": "partial", **overrides})
        for seed in range(10 if params.l_pu < 25 else 2):
            real = topology.make_realization(params, seed)
            chan_ss = np.random.SeedSequence(seed).spawn(2)[1]
            streams = np.random.default_rng(chan_ss).spawn(params.l_pu * params.l_su)
            want = partial_mean_log_reference(reference_draw(params, seed), params, streams,
                                              radio.PARTIAL_SAMPLES)
            assert np.array_equal(real.partial_mean_log, want), seed

    @pytest.mark.parametrize("shape, passes", [((2, 6), 1), ((9, 3), 3)])
    def test_expectation_runs_in_blocks_of_licensed_rows(self, shape, passes, monkeypatch):
        # one array pass per PARTIAL_ROWS_PER_BLOCK licensed rows; the
        # default 2x6 market stays one pass
        params = topology.params_from_dict({"l_pu": shape[0], "l_su": shape[1]})
        draw = reference_draw(params, 0)
        calls = []
        compose = radio.af_relay_snr
        monkeypatch.setattr(radio, "af_relay_snr",
                            lambda *args: calls.append(args[1].shape) or compose(*args))
        radio.mean_relay_log_terms(
            draw.gamma_dir, draw.gamma_pt_st, draw.d_st_pr, params.af_formula,
            np.random.default_rng(0).spawn(shape[0] * shape[1]))
        assert len(calls) == passes
        assert all(rows <= radio.PARTIAL_ROWS_PER_BLOCK for rows, *_ in calls)

    def test_large_expectation_keeps_no_full_sample_array(self):
        """The tracemalloc peak of the expectation over a 100x200 market
        stays under 32 MB. One pass over [100, 200, PARTIAL_SAMPLES]
        peaked near 290 MB."""
        params = topology.params_from_dict({"l_pu": 100, "l_su": 200})
        draw = reference_draw(params, 0)
        streams = np.random.default_rng(0).spawn(params.l_pu * params.l_su)
        tracemalloc.start()
        try:
            got = radio.mean_relay_log_terms(draw.gamma_dir, draw.gamma_pt_st,
                                             draw.d_st_pr, params.af_formula, streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (100, 200)
        assert peak < 32e6, peak


class TestRequirements:
    def test_default_floor_is_the_unassisted_rate(self, default_params):
        real = topology.make_realization(default_params, 2)
        req = radio.requirements_for(default_params, real)
        for l in range(default_params.l_pu):
            assert req.r_pu_req[l] == pytest.approx(
                np.log2(1 + real.gamma_dir[l]))
        assert req.r_su_req == 0.1

    def test_explicit_floors_pass_through(self):
        p = topology.params_from_dict({"r_pu_req": [0.4, 0.6]})
        real = topology.make_realization(p, 2)
        req = radio.requirements_for(p, real)
        assert np.array_equal(req.r_pu_req, [0.4, 0.6])

    def test_explicit_floor_shape_checked(self):
        with pytest.raises(ValueError, match="r_pu_req"):
            topology.params_from_dict({"r_pu_req": [0.4, 0.6, 0.8]})


class TestThresholds:
    """The feasible time-share interval of a pair, radio.beta_interval."""

    def test_feasibility_box_on_handmade_pair(self):
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
            r_pu_req=[0.3], r_su_req=0.2)
        rates = radio.make_pair_rates(params, real)
        req = radio.requirements_for(params, real)
        # slopes are exactly 1 and 2, so the box is exact
        lo, hi = radio.beta_interval(rates, req)
        assert (lo[0, 0], hi[0, 0]) == (pytest.approx(0.3), pytest.approx(0.9))
        # the concession budget stops at the box's floor: 0.99 / 0.05 price
        # steps plus (0.99 - 0.3) / 0.05 time steps is 33.6, so 34 plus one
        assert verify.per_pu_puu_bounds(params, real, req).tolist() == [35]
        # the relay's price cap 2(1 - beta) stops clipping at 1 at beta 0.5
        _, xi, beta, _ = baselines.pair_optimum_continuous(rates, req)
        assert (xi[0, 0], beta[0, 0]) == (pytest.approx(1.0), pytest.approx(0.5))

    def test_infeasible_when_floor_exceeds_reach(self):
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
            r_pu_req=[1.3], r_su_req=0.2)
        rates = radio.make_pair_rates(params, real)
        req = radio.requirements_for(params, real)
        lo, hi = radio.beta_interval(rates, req)
        assert lo[0, 0] > hi[0, 0]
        feasible, _, _, _ = baselines.pair_optimum_continuous(rates, req)
        assert not feasible[0, 0]

    def test_single_pair_view_agrees_with_matrix_view(self, default_params):
        # each entry is where that pair's own rates meet their floors, and
        # the concession bounds read the matrix's row minima
        real = topology.make_realization(default_params, 13)
        rates = radio.make_pair_rates(default_params, real)
        req = radio.requirements_for(default_params, real)
        lo, hi = radio.beta_interval(rates, req)
        assert lo.shape == hi.shape == (default_params.l_pu, default_params.l_su)
        for l in range(default_params.l_pu):
            for q in range(default_params.l_su):
                assert rates.pu_coef[l, q] * lo[l, q] == pytest.approx(req.r_pu_req[l])
                assert rates.su_coef[l, q] * (1.0 - hi[l, q]) == pytest.approx(req.r_su_req)
        p = default_params
        floors = np.clip(lo.min(axis=1), 0.0, p.beta_init)
        want = [math.ceil(p.xi_init / p.delta + (p.beta_init - f) / p.epsilon) + 1
                for f in floors]
        assert verify.per_pu_puu_bounds(p, real, req).tolist() == want


def one_pair(pu_coef, su_coef, r_pu, r_su):
    """PairRates and Requirements of a single pair with the given slopes."""
    rates = radio.PairRates(pu_coef=np.array([[pu_coef]]),
                            su_coef=np.array([[su_coef]]), c_cost=1.0, k_cost=1.0)
    return rates, radio.Requirements(r_pu_req=np.array([r_pu]), r_su_req=r_su)


class TestBetaInterval:
    """Edge rules of the interval, on slopes chosen to divide exactly."""

    @pytest.mark.parametrize("pu_coef, su_coef, r_pu, r_su, want", [
        (2.0, 4.0, 0.5, 1.0, (0.25, 0.75)),
        (2.0, 4.0, -1.0, 0.0, (0.0, 1.0)),            # floors below the box
        (0.0, 4.0, 0.5, 1.0, (np.inf, 0.75)),         # zero slope, floor > 0
        (0.0, 4.0, 0.0, 1.0, (0.0, 0.75)),            # zero slope, floor 0
        (0.0, 4.0, -0.5, 1.0, (0.0, 0.75)),           # zero slope, floor < 0
        (2.0, 0.0, 0.5, 1.0, (0.25, -np.inf)),        # zero relay slope, floor > 0
        (2.0, 0.0, 0.5, 0.0, (0.25, 1.0)),            # zero relay slope, floor 0
        (2.0, 4.0, 1.0, 2.0, (0.5, 0.5)),             # lo == hi
        (2.0, 4.0, 4.0, 1.0, (2.0, 0.75)),            # floor past the frame: empty
    ])
    def test_hand_cases(self, pu_coef, su_coef, r_pu, r_su, want):
        lo, hi = radio.beta_interval(*one_pair(pu_coef, su_coef, r_pu, r_su))
        assert (lo[0, 0], hi[0, 0]) == want

    def test_rows_take_their_own_floor(self):
        rates = radio.PairRates(pu_coef=np.array([[1.0, 2.0], [4.0, 0.0]]),
                                su_coef=np.array([[1.0, 2.0], [4.0, 8.0]]),
                                c_cost=1.0, k_cost=1.0)
        req = radio.Requirements(r_pu_req=np.array([0.5, 1.0]), r_su_req=0.5)
        lo, hi = radio.beta_interval(rates, req)
        assert lo.tolist() == [[0.5, 0.25], [0.25, np.inf]]
        assert hi.tolist() == [[0.5, 0.75], [0.875, 0.9375]]


class TestTradeHalves:
    """radio.licensed_gain and radio.relay_gain at exact ties, on slopes of
    2 and money weights of 1, so every value below is exact: at time share
    0.25 the licensed rate is 0.5 and the relay rate 1.5."""

    def test_licensed_floor_holds_at_equality(self):
        rates, req = one_pair(2.0, 2.0, 0.5, 0.1)
        assert radio.licensed_gain(rates, req, 0, 0, 0.0, 0.25, 0.5)

    def test_relay_floor_holds_at_equality(self):
        # relay utility 1.5 - 0.5 = 1.0 to spare
        rates, req = one_pair(2.0, 2.0, 0.1, 1.5)
        assert radio.relay_gain(rates, req, 0, 0, -np.inf, 0.25, 0.5)

    def test_zero_relay_utility_holds(self):
        # relay utility 1.5 - 1.5 = 0.0, its floor 1.0 to spare
        rates, req = one_pair(2.0, 2.0, 0.1, 1.0)
        assert radio.relay_gain(rates, req, 0, 0, -np.inf, 0.25, 1.5)

    def test_a_bar_equal_to_the_utility_is_refused(self):
        # both utilities are 1.0 at (0.25, 0.5), both floors to spare; a
        # bar one ulp lower passes
        rates, req = one_pair(2.0, 2.0, 0.4, 1.0)
        below = np.nextafter(1.0, 0.0)
        assert not radio.licensed_gain(rates, req, 0, 0, 1.0, 0.25, 0.5)
        assert radio.licensed_gain(rates, req, 0, 0, below, 0.25, 0.5)
        assert not radio.relay_gain(rates, req, 0, 0, 1.0, 0.25, 0.5)
        assert radio.relay_gain(rates, req, 0, 0, below, 0.25, 0.5)


class TestOpenTrades:
    """radio.open_trades, the best trade a relay takes per price."""

    @pytest.mark.parametrize("overrides", [
        {}, {"af_formula": "standard"}, {"snr_knowledge": "partial"},
        {"af_formula": "standard", "snr_knowledge": "partial"}])
    def test_agrees_with_plain_scan(self, overrides):
        """Row by row against tests/oracles.open_trades_reference, every
        pair of 2x6 markets under bars of minus infinity, 0, a relay
        utility some grid trade ties and plus infinity, from the first,
        a middle and one past the last time index."""
        params = topology.params_from_dict(overrides)
        grids = dda.concession_grids(params)
        betas, xis = grids.beta_values, grids.xi_values
        n = len(betas)
        kinds = set()
        for seed in range(3):
            real = topology.make_realization(params, seed)
            rates, req = radio.make_pair_rates(params, real), radio.requirements_for(params, real)
            rows = [(l, q, bar, lo) for l, q in np.ndindex(params.l_pu, params.l_su)
                    for bar in (-np.inf, 0.0, rates.relay(betas[n // 2], xis[2], l, q)[1], np.inf)
                    for lo in (0, n // 2, n)]
            l, q, bar, lo = (np.array(column)[:, None] for column in zip(*rows))
            j, u = radio.open_trades(rates, req, l, q, bar, betas, xis, lo)
            assert j.shape == u.shape == (len(rows), len(xis))
            for r, (l, q, bar, lo) in enumerate(rows):
                for i, xi in enumerate(grids.xi_terms):
                    want = open_trades_reference(rates, req, betas, l, q, bar, xi, lo)
                    assert (j[r, i], u[r, i]) == want, (seed, l, q, bar, lo, i)
                    kinds.add((want[0] == n, want[1] == -np.inf))
        # trades the licensed floor takes, trades it misses, and none at all
        assert kinds == {(False, False), (False, True), (True, True)}

    @pytest.mark.parametrize("guess", [None, 0, "past-last"])
    def test_scalar_rows_give_0d_trades(self, guess, monkeypatch):
        """One pair at one price from one time index, every row argument a
        scalar: 0-d (j, u) equal to the plain scan over every pair, price
        and lo of a 2x6 market, also with the guess patched to the first
        index or one past the grid, so that wrong guesses are recomputed."""
        params = topology.params_from_dict({})
        grids = dda.concession_grids(params)
        betas, n = grids.beta_values, len(grids.beta_values)
        real = topology.make_realization(params, 0)
        rates, req = radio.make_pair_rates(params, real), radio.requirements_for(params, real)
        if guess is not None:
            wrong = np.intp(n if guess == "past-last" else guess)
            monkeypatch.setattr(radio, "_relay_open_guess", lambda *args: wrong)
        gain, calls = radio.relay_gain, []
        monkeypatch.setattr(radio, "relay_gain", lambda *args: calls.append(1) or gain(*args))
        kinds, trades = set(), 0
        for l, q in np.ndindex(params.l_pu, params.l_su):
            for bar in (-np.inf, rates.relay(betas[n // 2], grids.xi_terms[2], l, q)[1], np.inf):
                for xi in grids.xi_terms:
                    for lo in (0, n // 2):
                        j, u = radio.open_trades(rates, req, l, q, bar, betas, xi, lo)
                        trades += 1
                        assert np.ndim(j) == np.ndim(u) == 0
                        want = open_trades_reference(rates, req, betas, l, q, bar, xi, lo)
                        assert (j, u) == want, (l, q, bar, xi, lo)
                        kinds.add((want[0] == n, want[1] == -np.inf))
        assert kinds == {(False, False), (False, True), (True, True)}
        # one relay_gain call per trade, and a second for each recomputed
        # guess: the patched guesses miss, and the tie bar makes the real
        # guess miss on some rows too
        assert trades < len(calls) <= 2 * trades

    def test_a_licensed_rate_at_its_floor_meets_it(self):
        """Licensed slope 1 at time share 0.5 (index 2 of the quarter grid)
        earns exactly a floor of 0.5; the relay takes every time share at
        price 0.0, so from lo 2 the trade is there. One ulp more floor
        misses it."""
        for r_pu, want in ((0.5, 0.5), (np.nextafter(0.5, 1.0), -np.inf)):
            params, real = single_pair_scenario(
                gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
                r_pu_req=[r_pu], r_su_req=0.0,
                xi_init=1.0, delta=0.25, beta_init=1.0, epsilon=0.25)
            market = dda.market(params, real)
            j, u = radio.open_trades(market.rates, market.requirements, 0, 0, -np.inf,
                                     market.grids.beta_values, np.array([0.0]), 2)
            assert (j.tolist(), u.tolist()) == ([2], [want])

    def test_a_zero_relay_slope_is_guessed_exactly(self, monkeypatch):
        """Relay slope 0 under a relay floor of 0: the relay takes every
        time share at price 0.0 (utility 0 above a bar of minus infinity)
        and none at a positive price. The guess is exact, time index 0 and
        one past the grid, so open_trades makes one relay_gain call and
        recomputes no row."""
        params, real = single_pair_scenario(
            gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=0.0,
            r_pu_req=[0.3], r_su_req=0.0,
            xi_init=1.0, delta=0.25, beta_init=1.0, epsilon=0.25)
        market = dda.market(params, real)
        rates, req, grids = market.rates, market.requirements, market.grids
        betas, xis = grids.beta_values, grids.xi_values
        assert rates.su_coef[0, 0] == 0.0 and rates.k_cost > 0.0
        assert xis.tolist() == [1.0, 0.75, 0.5, 0.25, 0.0]
        n = len(betas)
        guess = radio._relay_open_guess(rates, req, 0, 0, -np.inf, betas, xis)
        assert guess.tolist() == [n, n, n, n, 0]
        gain, calls = radio.relay_gain, []

        def counted(*args):
            calls.append(args)
            return gain(*args)

        monkeypatch.setattr(radio, "relay_gain", counted)
        j, u = radio.open_trades(rates, req, 0, 0, -np.inf, betas, xis, 0)
        assert len(calls) == 1
        assert j.tolist() == [n, n, n, n, 0]
        # licensed slope 1 at time share 1.0 and price 0.0
        assert u.tolist() == [-np.inf] * 4 + [1.0]


def test_handmade_realizations_need_unit_gains(default_params):
    with pytest.raises(ValueError):
        handmade_realization(default_params, [1.0, 1.0],
                             np.ones((2, 6)), np.ones((2, 6)), np.ones((6, 2)))
