"""Stability audits, exhaustive enumeration, and the protocol bounds."""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from relaymarket import baselines, bench, cli, dda, radio, topology, verify
from relaymarket.dda import MatchingOutcome
from relaymarket.verify import GuardError

import test_dda
from helpers import (GOLDEN_MARKETS, dense, engine_fingerprint, handmade_realization,
                     outcome_from_arrays, single_pair_scenario)
from oracles import (all_injective_matchings, grid_candidates, injective_maps_reference,
                     prefilter_reference, stability_reference)


def build_outcome(l_pu, l_su, matches):
    """Hand-built outcome: matches maps l -> (q, xi, beta)."""
    return MatchingOutcome(l_pu, l_su,
                           [(l, q, xi, beta) for l, (q, xi, beta) in matches.items()])


def two_by_two():
    """2x2 scenario with integral slopes: licensed 1/2 per relay column,
    relay-own 2/4. Floors leave every pair feasible."""
    params = topology.params_from_dict({
        "l_pu": 2, "l_su": 2, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
        "r_pu_req": [0.2, 0.2], "r_su_req": 0.1,
        "af_formula": "standard",
        "xi_init": 1.0, "beta_init": 1.0, "delta": 0.25, "epsilon": 0.25,
    })
    real = handmade_realization(
        params, gamma_dir=[0.0, 0.0],
        gamma_pt_st=[[4.0, 20.0], [4.0, 20.0]],
        gamma_st_pr=[[15.0, 63.0], [15.0, 63.0]],
        gamma_sr=[[3.0, 3.0], [15.0, 15.0]])
    req = radio.requirements_for(params, real.snr)
    return params, real, req


def tiny_markets():
    """Enumerable markets: 2x2, 2x3 and 3x2 on 3x5 grids, with partial
    knowledge and the standard formula mixed in."""
    shapes = [(2, 2, {}), (2, 3, {}), (3, 2, {}),
              (2, 2, {"snr_knowledge": "partial"}), (2, 3, {"af_formula": "standard"}),
              (3, 2, {"snr_knowledge": "partial", "af_formula": "standard"})]
    for l_pu, l_su, overrides in shapes:
        params = topology.params_from_dict({
            "l_pu": l_pu, "l_su": l_su, "xi_init": 1.0, "beta_init": 1.0,
            "delta": 0.5, "epsilon": 0.25, **overrides})
        for seed in range(4):
            real = topology.make_realization(params, seed)
            yield params, real, radio.requirements_for(params, real.snr)


def tie_markets():
    """Enumerable markets full of exact ties, where a trade frontier's
    boundary could slip: free money and no relay floor at 2x2 (no term's
    utility depends on its price), a free relay price at 3x2, partial
    knowledge at 2x3 and the standard formula at 3x3, both on 6-point
    grids; then the handmade markets, whose integral slopes tie one
    pair's licensed utility with another's."""
    shapes = [(2, 2, 0.5, 0.25, {"c_bar": 0.0, "k_bar": 0.0, "r_su_req": 0.0}, 10),
              (3, 2, 0.5, 0.25, {"k_bar": 0.0}, 4),
              (2, 3, 0.2, 0.2, {"snr_knowledge": "partial"}, 4),
              (3, 3, 0.2, 0.2, {"af_formula": "standard"}, 2)]
    for l_pu, l_su, delta, epsilon, overrides, seeds in shapes:
        params = topology.params_from_dict({
            "l_pu": l_pu, "l_su": l_su, "xi_init": 1.0, "beta_init": 1.0,
            "delta": delta, "epsilon": epsilon, **overrides})
        for seed in range(seeds):
            real = topology.make_realization(params, seed)
            yield params, real, radio.requirements_for(params, real.snr)
    yield two_by_two()
    yield zero_relay_slope(0.0)
    yield zero_relay_slope(0.1)


def corner_markets():
    """Enumerable markets at the guard's corners: 1x3 and 3x1 on 6-point
    grids, 3x3 on 3-point grids, each under both formulas and with partial
    knowledge, two seeds each."""
    variants = [{}, {"af_formula": "standard"}, {"snr_knowledge": "partial"},
                {"snr_knowledge": "partial", "af_formula": "standard"}]
    for l_pu, l_su, step in [(1, 3, 0.2), (3, 1, 0.2), (3, 3, 0.5)]:
        for overrides in variants:
            params = topology.params_from_dict({
                "l_pu": l_pu, "l_su": l_su, "xi_init": 1.0, "beta_init": 1.0,
                "delta": step, "epsilon": step, **overrides})
            for seed in range(2):
                real = topology.make_realization(params, seed)
                yield params, real, radio.requirements_for(params, real.snr)


def oracle_markets():
    """tiny_markets() and the first 12 instances of `relaymarket oracle`."""
    yield from tiny_markets()
    oracle = topology.params_from_dict(cli.ORACLE_SCENARIO)
    for i in range(12):
        yield (oracle, *cli._instance(oracle, i))


# (scenario overrides, number of seeds) of the audit corpus's seeded markets
AUDIT_VARIANTS = (
    ({}, 6), ({"l_pu": 3, "l_su": 3}, 4), ({"l_pu": 6, "l_su": 2}, 4),
    ({"snr_knowledge": "partial"}, 4), ({"c_bar": 1e15}, 4),
    ({"k_bar": 0.0}, 4), ({"negotiation": "contracts"}, 4),
    ({"l_pu": 25, "l_su": 50}, 2),
    ({"delta": 0.01, "epsilon": 0.01}, 2),
    ({"af_formula": "standard", "l_pu": 3, "l_su": 4}, 3),
    ({"r_pu_req": [0.2, 0.6]}, 3),
    ({"gamma_su_db": -5.0, "l_pu": 4, "l_su": 4}, 3),
    ({"r_su_req": 0.0}, 3),
)


def zero_relay_slope(r_su):
    """2x3 market whose relay 2 has a zero own-link slope: su_coef 0
    makes the relay threshold 0/0 (nan) at r_su 0 and x/0 (inf) above.
    Its small integral slopes also put some thresholds exactly on a grid
    point, where the strict relay gain makes the guess miss by one."""
    params = topology.params_from_dict({
        "l_pu": 2, "l_su": 3, "gamma_pu_db": 0.0, "gamma_su_db": 0.0,
        "r_pu_req": [0.2, 0.2], "r_su_req": r_su,
        "xi_init": 1.0, "beta_init": 1.0, "delta": 0.25, "epsilon": 0.25,
    })
    real = handmade_realization(
        params, gamma_dir=[0.0, 0.0],
        gamma_pt_st=[[4.0, 20.0, 9.0], [4.0, 20.0, 9.0]],
        gamma_st_pr=[[15.0, 63.0, 9.0], [15.0, 63.0, 9.0]],
        gamma_sr=[[3.0, 3.0], [15.0, 15.0], [0.0, 0.0]])
    return params, real, radio.requirements_for(params, real.snr)


def audit_corpus(seeds=None):
    """(params, realization, requirements, outcome) to audit.

    Markets: AUDIT_VARIANTS (each with at most `seeds` seeds when given)
    and the zero-relay-slope market at r_su 0 and 0.1. Outcomes per
    market: the engine's with and without its envelope, the same matching
    with an envelope past the time grid for every licensed user and for
    user 0 alone, a random-partner outcome, and four random on-grid
    outcomes, two with a random envelope.
    """
    rng = np.random.default_rng(31)
    markets = []
    for overrides, count in AUDIT_VARIANTS:
        params = topology.params_from_dict(overrides)
        for seed in range(count if seeds is None else min(count, seeds)):
            real = topology.make_realization(params, seed)
            markets.append((params, real, radio.requirements_for(params, real.snr), seed))
    markets += [(*zero_relay_slope(r_su), 0) for r_su in (0.0, 0.1)]
    for params, real, req, seed in markets:
        grids = dda.concession_grids(params)
        n_xi, n_beta = len(grids.xi_values), len(grids.beta_values)
        engine_out, _ = dda.run(params, real, req)
        random_partner, _ = baselines.rmbn(dda.market(params, real, req),
                                           np.random.default_rng(seed))
        past_grid = np.full(params.l_pu, n_beta)
        user_0_past = np.zeros(params.l_pu, dtype=int)
        user_0_past[0] = n_beta
        outcomes = [engine_out, random_partner,
                    MatchingOutcome(*engine_out.shape, engine_out.matched_terms())]
        outcomes += [MatchingOutcome(*engine_out.shape, engine_out.matched_terms(),
                                     final_xi_steps=np.zeros(params.l_pu, dtype=int),
                                     final_beta_steps=beta_steps)
                     for beta_steps in (past_grid, user_0_past)]
        for r in range(4):
            k = rng.integers(0, min(params.l_pu, params.l_su) + 1)
            terms = [(int(l), int(q), float(rng.choice(grids.xi_values)),
                      float(rng.choice(grids.beta_values)))
                     for l, q in zip(rng.permutation(params.l_pu)[:k],
                                     rng.permutation(params.l_su)[:k])]
            steps = {}
            if r % 2:
                steps = {"final_xi_steps": rng.integers(0, n_xi, params.l_pu),
                         "final_beta_steps": rng.integers(0, n_beta + 1, params.l_pu)}
            outcomes.append(MatchingOutcome(params.l_pu, params.l_su, terms, **steps))
        for outcome in outcomes:
            yield params, real, req, outcome


def plain_pu_utilities(m, g, b, rates):
    """Licensed utilities of one outcome by a plain loop, zero when unmatched."""
    u = [0.0] * m.shape[0]
    for l in range(m.shape[0]):
        for q in range(m.shape[1]):
            if m[l, q] == 1:
                u[l] = rates.pu_coef[l, q] * b[l, q] + rates.c_cost * g[l, q]
    return u


class TestStabilityAudit:
    def test_engine_outcomes_audit_clean(self, default_params):
        for seed in range(30):
            real = topology.make_realization(default_params, seed)
            req = radio.requirements_for(default_params, real.snr)
            outcome, _ = dda.run(default_params, real, req)
            report = verify.is_stable(outcome, real, req, default_params)
            assert report.stable, report.describe()

    def test_agrees_with_plain_loop_scan(self):
        """The whole report, witnesses included, equals the plain-loop
        reference on every outcome of the audit corpus."""
        seen_blocked = seen_pairs = 0
        for params, real, req, outcome in audit_corpus():
            report = verify.is_stable(outcome, real, req, params)
            want = stability_reference(outcome, radio.make_pair_rates(params, real), req,
                                       dda.concession_grids(params))
            assert (report.blocked_individuals, report.blocking_pairs) == want
            seen_blocked += bool(report.blocked_individuals)
            seen_pairs += bool(report.blocking_pairs)
        assert seen_blocked > 20 and seen_pairs > 20

    @staticmethod
    def check_every_prefilter(monkeypatch):
        """Make every verify._may_block call assert that it keeps exactly
        the pairs oracles.prefilter_reference keeps; returns call counts."""
        may_block = verify._may_block
        seen = {"calls": 0, "pairs": 0, "kept": 0}

        def checked(market, l, q, u_pu, u_su, xi_lo, beta_lo):
            got = may_block(market, l, q, u_pu, u_su, xi_lo, beta_lo)
            want = prefilter_reference(market.rates, market.requirements, market.grids,
                                       l, q, u_pu, u_su, xi_lo, beta_lo)
            assert np.array_equal(got, want)
            seen["calls"] += 1
            seen["pairs"] += len(l)
            seen["kept"] += len(got)
            return got

        monkeypatch.setattr(verify, "_may_block", checked)
        return seen

    def test_prefilter_equals_the_grid_broadcast(self, monkeypatch):
        """The index lookup keeps exactly the pairs the [pairs x grid]
        broadcast keeps, on every audit of the audit corpus (enumeration
        runs no prefilter)."""
        seen = self.check_every_prefilter(monkeypatch)
        for params, real, req, outcome in audit_corpus():
            verify.is_stable(outcome, real, req, params)
        assert seen["calls"] > 400
        assert 0 < seen["kept"] < seen["pairs"]

    @staticmethod
    def contract_runs():
        """Fingerprints of the contract runs of every other market of
        test_dda.TestGoldenContracts (three seeds each, negotiate and rmbn),
        with the cap of each run's opening state."""
        runs = []
        for overrides, seeds in test_dda.TestGoldenContracts.MARKETS[::2]:
            params = topology.params_from_dict({**overrides, "negotiation": "contracts"})
            for seed in range(min(seeds, 3)):
                market = dda.market(params, topology.make_realization(params, seed))
                rng = np.random.default_rng(seed)
                partners = rng.integers(-1, params.l_su, params.l_pu)
                for use in (None, partners):
                    runs.append((engine_fingerprint(*dda.negotiate(market, use)),
                                 dda.init_state(market, use).cap))
                runs.append(engine_fingerprint(*baselines.rmbn(market, rng)))
        return runs

    @pytest.mark.parametrize("guess", ["first", "past-last", "random"])
    def test_a_wrong_guess_costs_time_never_a_verdict(self, monkeypatch, guess):
        """With the threshold guess replaced by the first index, one past
        the last or a random index, the exact fallback rebuilds every
        relay suffix: the prefilter, the reports and the contract rule's
        runs and caps stay the same. Enumeration reads no relay suffix
        (TestOracleLoop.test_enumeration_and_weak_pareto_never_reach_the_audit),
        so it is not rerun here."""
        corpus = list(audit_corpus(seeds=1))

        def audit():
            return ([audit_fingerprint(verify.is_stable(outcome, real, req, params))
                     for params, real, req, outcome in corpus],
                    self.contract_runs())

        want = audit()
        rng = np.random.default_rng(5)

        def wrong(rates, requirements, l, q, bar, betas, xi):
            n_beta, shape = len(betas), np.broadcast(l, q, bar, xi).shape
            return {"first": np.zeros(shape, dtype=int),
                    "past-last": np.full(shape, n_beta),
                    "random": rng.integers(0, n_beta + 1, shape)}[guess]

        monkeypatch.setattr(radio, "_relay_open_guess", wrong)
        self.check_every_prefilter(monkeypatch)
        got = audit()
        assert got == want
        assert any(fp != audit_fingerprint(verify.StabilityReport()) for fp in got[0])

    def test_one_audit_allocates_no_pairs_by_grid_array(self):
        """The tracemalloc peak of one 100x200 audit stays under 6 MB. A
        [pairs x time grid] prefilter broadcast peaks near 12 MB here."""
        params = topology.params_from_dict({"l_pu": 100, "l_su": 200})
        real = topology.make_realization(params, 0)
        req = radio.requirements_for(params, real.snr)
        outcome, _ = dda.run(params, real, req)
        tracemalloc.start()
        try:
            report = verify.is_stable(outcome, real, req, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.stable
        assert peak < 6e6

    def test_one_contract_audit_allocates_no_pairs_by_grid_array(self, monkeypatch):
        """The same 6 MB bound on a 100x200 contract outcome, whose
        prefilter keeps thousands of pairs: the first-witness pass takes
        AUDIT_PAIRS of them at a time. All at once it peaks near 18.5 MB."""
        params = topology.params_from_dict(
            {"l_pu": 100, "l_su": 200, "negotiation": "contracts"})
        real = topology.make_realization(params, 0)
        req = radio.requirements_for(params, real.snr)
        outcome, _ = dda.run(params, real, req)
        seen = self.check_every_prefilter(monkeypatch)
        verify.is_stable(outcome, real, req, params)
        assert seen["kept"] > 4 * verify.AUDIT_PAIRS
        monkeypatch.undo()
        tracemalloc.start()
        try:
            report = verify.is_stable(outcome, real, req, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.stable
        assert peak < 6e6

    def test_unmet_floor_flags_the_individual(self):
        params, real, req = two_by_two()
        # licensed slope toward relay 0 is 1.0; beta 0.25 earns only 0.25
        # of the 0.2 floor, fine, but the relay needs 0.1 from 2*(1-beta):
        # push beta to 1.0 so the relay starves
        outcome = build_outcome(2, 2, {0: (0, 0.0, 1.0)})
        report = verify.is_stable(outcome, real, req, params)
        assert ("su", 0, "su-rate") in report.blocked_individuals

    def test_negative_relay_utility_flags_the_individual(self):
        params, real, req = two_by_two()
        outcome = build_outcome(2, 2, {0: (0, 1.0, 0.75)})
        # relay 0 earns 2*0.25 - 1.0 < 0 at full price
        report = verify.is_stable(outcome, real, req, params)
        assert ("su", 0, "su-utility") in report.blocked_individuals

    def test_missed_trade_is_a_blocking_pair(self):
        params, real, req = two_by_two()
        outcome = build_outcome(2, 2, {})   # nobody matched at all
        report = verify.is_stable(outcome, real, req, params)
        assert report.blocking_pairs
        l, q, (xi, beta) = report.blocking_pairs[0]
        rates = radio.make_pair_rates(params, real)
        assert rates.pu_coef[l, q] * beta + rates.c_cost * xi > 0.0
        assert rates.su_coef[l, q] * (1.0 - beta) - rates.k_cost * xi > 0.0

    @pytest.mark.parametrize("matches, message", [
        ({0: (0, 0.33, 0.5)}, r"price allocation 0\.33 for pair \(0,0\)"),
        ({0: (0, 0.5, 0.5), 1: (1, 0.75, 0.4)},
         r"time-slot allocation 0\.4 for pair \(1,1\)"),
    ], ids=["price", "time-share"])
    def test_off_grid_terms_rejected(self, matches, message):
        params, real, req = two_by_two()
        outcome = build_outcome(2, 2, matches)
        with pytest.raises(ValueError, match=message + " is off the concession grid"):
            verify.is_stable(outcome, real, req, params)

    def test_terms_within_the_grid_tolerance_are_on_the_grid(self):
        # exactly 1e-9 from the grid point 0.0 is on the grid; twice that is not
        params, real, req = two_by_two()
        verify.is_stable(build_outcome(2, 2, {0: (0, 1e-9, 0.25)}), real, req, params)
        with pytest.raises(ValueError, match="price allocation 2e-09"):
            verify.is_stable(build_outcome(2, 2, {0: (0, 2e-9, 0.25)}), real, req, params)

    def test_an_envelope_past_the_price_grid_leaves_no_witness(self):
        # a licensed user whose price steps ran off the grid has no terms
        # left on the table, so none of its pairs blocks
        params, real, req = two_by_two()
        n_xi = len(dda.concession_grids(params).xi_values)
        outcome = MatchingOutcome(2, 2, [], final_xi_steps=[n_xi, 0], final_beta_steps=[0, 0])
        report = verify.is_stable(outcome, real, req, params)
        assert report.blocking_pairs
        assert all(l == 1 for l, _, _ in report.blocking_pairs)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 2)])
    def test_an_outcome_of_another_shape_is_refused(self, shape):
        # terms alone fit any market at least as large: unguarded, a 1x2
        # outcome would be audited as if its user were the market's user 0
        params, real, req = two_by_two()
        outcome = MatchingOutcome(*shape, [(0, 0, 0.0, 0.25)])
        for audit in (verify.is_stable, verify.check_weak_pareto):
            with pytest.raises(ValueError, match=f"a {shape[0]}x{shape[1]} outcome does "
                                                 "not fit the 2x2 market"):
                audit(outcome, real, req, params)

    def test_utilities_refuse_rates_of_another_shape(self):
        # unguarded, a 2x2 outcome on 3x3 rates reads as a 2-vector
        params = topology.params_from_dict({"l_pu": 3, "l_su": 3})
        rates = radio.make_pair_rates(params, topology.make_realization(params, 0))
        outcome = MatchingOutcome(2, 2, [(0, 0, 0.5, 0.5)])
        with pytest.raises(ValueError, match="a 2x2 outcome does not fit the 3x3 market"):
            verify.pu_utilities(outcome, rates)

    def test_describe_mentions_every_finding(self):
        params, real, req = two_by_two()
        report = verify.is_stable(build_outcome(2, 2, {}), real, req, params)
        text = report.describe()
        assert "blocking pair" in text
        clean = verify.is_stable(
            build_outcome(2, 2, {0: (0, 0.0, 0.25)}), real, req, params)
        del clean   # not asserting stability here, just the formatting
        assert "stable" in verify.StabilityReport().describe()

    def test_witness_envelope_reflects_concession_history(self, default_params):
        """An engine outcome audits clean, but the same matching stripped
        of its concession history shows full-grid witnesses: terms the
        negotiation already conceded past are not offers anyone can still
        make, and the audit must honor that."""
        real = topology.make_realization(default_params, 0)
        req = radio.requirements_for(default_params, real.snr)
        outcome, _ = dda.run(default_params, real, req)
        assert verify.is_stable(outcome, real, req, default_params).stable
        stripped = MatchingOutcome(*outcome.shape, outcome.matched_terms())
        report = verify.is_stable(stripped, real, req, default_params)
        assert not report.stable
        assert report.blocking_pairs


def audit_fingerprint(report):
    """Canonical text of one stability report, every number an int or an
    exact float hex, so equal text means a bit-for-bit equal report."""
    return repr((
        [(side, int(idx), reason) for side, idx, reason in report.blocked_individuals],
        [(int(l), int(q), float(xi).hex(), float(beta).hex())
         for l, q, (xi, beta) in report.blocking_pairs]))


def outcome_fingerprint(outcome):
    """Canonical text of one outcome's dense m, g and b."""
    m, g, b = dense(outcome)
    return repr((m.tolist(), [float(v).hex() for v in np.ravel(g)],
                 [float(v).hex() for v in np.ravel(b)]))


class TestGoldenAudit:
    """Audit outputs pinned over seeded markets.

    Over helpers.GOLDEN_MARKETS, the is_stable report of the ladder
    outcome with and without its concession envelope, of the rmbn outcome,
    of a contracts outcome, and of a random on-grid outcome with a random
    envelope (the one that shows blocked individuals). None of those
    markets fits the enumeration guard, so tiny_markets() and the
    `relaymarket oracle` scenario carry the enumeration half: the same
    five reports plus the enumerate_stable_matchings output and the
    check_weak_pareto verdict and witness of the ladder and contracts
    outcomes. Everything goes into one sha256; re-record it only for a
    change declared to alter what the audit reports.
    """

    DIGEST = "4e68e0c438715e65a6afc7e65d4bb2dace667f8d59d021d21c1689d577c66688"

    @staticmethod
    def _audit(digest, params, real, req):
        market = dda.market(params, real, req)
        ladder, _ = dda.negotiate(dda.market(replace(params, negotiation="ladder"),
                                             real, req))
        contracts, _ = dda.negotiate(dda.market(
            replace(params, negotiation="contracts"), real, req))
        rng = np.random.default_rng(0)
        random_partner, _ = baselines.rmbn(market, rng)
        bare = MatchingOutcome(*ladder.shape, ladder.matched_terms())
        k = min(params.l_pu, params.l_su)
        grids = market.grids
        on_grid = MatchingOutcome(
            params.l_pu, params.l_su,
            [(int(l), int(q), float(rng.choice(grids.xi_values)),
              float(rng.choice(grids.beta_values)))
             for l, q in zip(rng.permutation(params.l_pu)[:k],
                             rng.permutation(params.l_su)[:k])],
            final_xi_steps=rng.integers(0, len(grids.xi_values), params.l_pu),
            final_beta_steps=rng.integers(0, len(grids.beta_values) + 1, params.l_pu))
        for outcome in (ladder, bare, random_partner, contracts, on_grid):
            report = verify.is_stable(outcome, real, req, params)
            digest.update(audit_fingerprint(report).encode())
        return ladder, contracts

    def test_audits_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        for overrides, seeds in GOLDEN_MARKETS:
            params = topology.params_from_dict(overrides)
            for seed in range(seeds):
                real = topology.make_realization(params, seed)
                self._audit(digest, params, real, radio.requirements_for(params, real.snr))
        oracle = topology.params_from_dict(cli.ORACLE_SCENARIO)
        enumerable = [*tiny_markets(), *((oracle, *cli._instance(oracle, i))
                                         for i in range(12))]
        for params, real, req in enumerable:
            for outcome in self._audit(digest, params, real, req):
                ok, witness = verify.check_weak_pareto(outcome, real, req, params)
                digest.update(repr(ok).encode())
                if witness is not None:
                    digest.update(outcome_fingerprint(witness).encode())
            for stable in verify.enumerate_stable_matchings(real, req, params):
                digest.update(outcome_fingerprint(stable).encode())
        assert digest.hexdigest() == self.DIGEST


class TestEnumeration:
    @pytest.mark.parametrize("l_pu, l_su", [(l, q) for l in (1, 2, 3) for q in (1, 2, 3)])
    def test_candidate_matchings_cover_all_injective_maps(self, l_pu, l_su):
        got = list(verify._injective_maps(l_pu, l_su))
        assert got == list(injective_maps_reference(l_pu, l_su))
        assert len(got) == len(all_injective_matchings(l_pu, l_su))

    def test_negotiation_history_can_foreclose_full_grid_stability(self):
        # The engine audits clean against the terms still on the table, yet
        # its outcome need not sit in the history-free stable set: a bidding
        # war burns the shared concession ladder past terms a full-grid
        # witness may still use. This instance is frozen as the on-record
        # divergence between the two stability domains.
        params, real, req = two_by_two()
        outcome, _ = dda.run(params, real, req)
        assert verify.is_stable(outcome, real, req, params).stable

        stable = verify.enumerate_stable_matchings(real, req, params)
        assert stable
        m, g, b = dense(outcome)
        hit = any(np.array_equal(s_m, m) and np.allclose(s_g, g) and np.allclose(s_b, b)
                  for s_m, s_g, s_b in map(dense, stable))
        assert not hit

        # same triple with the history stripped: the full-grid audit finds
        # the witness that keeps it out of the enumerated set
        bare = MatchingOutcome(*outcome.shape, outcome.matched_terms())
        assert not verify.is_stable(bare, real, req, params).stable

    def test_enumerated_outcomes_pass_the_loop_oracle(self):
        params, real, req = two_by_two()
        grids = dda.concession_grids(params)
        rates = radio.make_pair_rates(params, real)
        stable = verify.enumerate_stable_matchings(real, req, params)
        for cand in stable[:50]:
            assert stability_reference(cand, rates, req, grids) == ([], [])

    def test_matches_the_filtered_candidate_list(self):
        """Completeness and order: the enumeration equals every grid
        candidate that the plain-loop audit passes, in candidate order,
        on the tiny markets and on markets full of ties."""
        found = 0
        for params, real, req in (*tiny_markets(), *tie_markets()):
            grids = dda.concession_grids(params)
            rates = radio.make_pair_rates(params, real)
            want = [(m, g, b) for m, g, b in grid_candidates(rates, req, grids)
                    if stability_reference(outcome_from_arrays(m, g, b),
                                           rates, req, grids) == ([], [])]
            got = verify.enumerate_stable_matchings(real, req, params)
            found += len(got)
            assert len(got) == len(want)
            for s, (m, g, b) in zip(got, want):
                assert s.matched_terms() == outcome_from_arrays(m, g, b).matched_terms()
        assert found > 24

    def test_matches_the_filtered_candidate_list_at_the_guard_corners(self):
        """The same completeness and order on 1x3, 3x1 and 3x3 markets."""
        found = 0
        for params, real, req in corner_markets():
            grids = dda.concession_grids(params)
            rates = radio.make_pair_rates(params, real)
            want = [candidate for candidate in grid_candidates(rates, req, grids)
                    if stability_reference(outcome_from_arrays(*candidate),
                                           rates, req, grids) == ([], [])]
            got = verify.enumerate_stable_matchings(real, req, params)
            found += len(got)
            assert list(map(outcome_fingerprint, got)) == [
                outcome_fingerprint(outcome_from_arrays(*c)) for c in want]
        assert found > 24

    def test_a_full_guard_market_enumerates_in_fixed_blocks(self):
        """A 3x3 market on 6-point grids (about 36,000 candidates) peaks
        under 0.75 MB under tracemalloc: each plan's verdicts are one bool
        array over its pairs' term lists, at most 36 ** 3 entries."""
        params = topology.params_from_dict({
            "l_pu": 3, "l_su": 3, "xi_init": 1.0, "beta_init": 1.0,
            "delta": 0.2, "epsilon": 0.2})
        real = topology.make_realization(params, 1)
        req = radio.requirements_for(params, real.snr)
        tracemalloc.start()
        try:
            stable = verify.enumerate_stable_matchings(real, req, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stable
        assert peak < 0.75e6

    def test_side_guard(self):
        p = topology.params_from_dict({
            "l_pu": 2, "l_su": 4,
            "xi_init": 1.0, "beta_init": 1.0, "delta": 0.25, "epsilon": 0.25})
        real = topology.make_realization(p, 0)
        req = radio.requirements_for(p, real.snr)
        with pytest.raises(GuardError, match="sides"):
            verify.enumerate_stable_matchings(real, req, p)

    def test_grid_guard(self, default_params):
        # default 0.05 steps put twenty points on each axis
        real = topology.make_realization(default_params, 0)
        req = radio.requirements_for(default_params, real.snr)
        small = topology.params_from_dict({"l_pu": 2, "l_su": 2})
        with pytest.raises(GuardError, match="grid"):
            verify.enumerate_stable_matchings(real, req, small)


class TestWeakPareto:
    def test_verdicts_come_with_coherent_witnesses(self, tiny_params):
        # Engine outcomes fail this check on a sizable share of coarse-grid
        # instances (the shared ladder skips contracts a dominating matching
        # uses), so the unit contract under test is the verdict itself:
        # a pass carries no witness, a fail carries a feasible alternative
        # that strictly improves every matched licensed user.
        seen_fail = False
        for seed in range(10):
            real = topology.make_realization(tiny_params, seed)
            req = radio.requirements_for(tiny_params, real.snr)
            outcome, _ = dda.run(tiny_params, real, req)
            ok, witness = verify.check_weak_pareto(outcome, real, req, tiny_params)
            if ok:
                assert witness is None
                continue
            seen_fail = True
            rates = radio.make_pair_rates(tiny_params, real)
            base = verify.pu_utilities(outcome, rates)
            alt = verify.pu_utilities(witness, rates)
            matched = [l for l, _ in outcome.matched_pairs()]
            assert matched
            assert all(alt[l] > base[l] for l in matched)
        assert seen_fail

    def test_bidding_war_outcome_is_dominated_on_record(self, tiny_params):
        # Frozen divergence instance: near-tied coefficients make both
        # licensed users chase the same relay, and the loser's ladder burns
        # past the terms its alternative partner would have taken.
        real = topology.make_realization(tiny_params, 0)
        req = radio.requirements_for(tiny_params, real.snr)
        outcome, _ = dda.run(tiny_params, real, req)
        ok, witness = verify.check_weak_pareto(outcome, real, req, tiny_params)
        assert not ok
        rates = radio.make_pair_rates(tiny_params, real)
        assert verify.pu_utilities(outcome, rates)[1] == pytest.approx(
            1.2596846078494428)
        assert verify.pu_utilities(witness, rates)[1] > 1.38

    def test_matches_a_plain_loop_over_the_candidates(self):
        """Same verdict and same witness as the first grid candidate, in
        candidate order, that strictly improves every matched licensed user."""
        fails = 0
        for params, real, req in tiny_markets():
            grids = dda.concession_grids(params)
            rates = radio.make_pair_rates(params, real)
            candidates = grid_candidates(rates, req, grids)
            contracts, _ = dda.run(replace(params, negotiation="contracts"), real, req)
            ladder, _ = dda.run(params, real, req)
            for outcome in (ladder, contracts,
                            outcome_from_arrays(*candidates[len(candidates) // 2])):
                base = plain_pu_utilities(*dense(outcome), rates)
                matched = [l for l, _ in outcome.matched_pairs()]
                want = next((c for c in candidates if matched and all(
                    plain_pu_utilities(*c, rates)[l] > base[l] for l in matched)), None)
                ok, witness = verify.check_weak_pareto(outcome, real, req, params)
                assert ok == (want is None)
                if want is not None:
                    fails += 1
                    assert witness.matched_terms() == outcome_from_arrays(*want).matched_terms()
        assert fails > 5

    def test_matches_a_plain_loop_at_the_guard_corners(self):
        """The same verdicts and witnesses on 1x3, 3x1 and 3x3 markets."""
        fails = 0
        for params, real, req in corner_markets():
            grids = dda.concession_grids(params)
            rates = radio.make_pair_rates(params, real)
            candidates = grid_candidates(rates, req, grids)
            contracts, _ = dda.run(replace(params, negotiation="contracts"), real, req)
            ladder, _ = dda.run(params, real, req)
            for outcome in (ladder, contracts,
                            outcome_from_arrays(*candidates[len(candidates) // 2])):
                base = plain_pu_utilities(*dense(outcome), rates)
                matched = [l for l, _ in outcome.matched_pairs()]
                want = next((c for c in candidates if matched and all(
                    plain_pu_utilities(*c, rates)[l] > base[l] for l in matched)), None)
                ok, witness = verify.check_weak_pareto(outcome, real, req, params)
                assert ok == (want is None)
                if want is not None:
                    fails += 1
                    assert outcome_fingerprint(witness) == outcome_fingerprint(
                        outcome_from_arrays(*want))
        assert fails > 5

    @pytest.mark.parametrize("knowledge", ["complete", "partial"])
    @pytest.mark.parametrize("formula", ["paper", "standard"])
    def test_float_and_array_utilities_agree_bit_for_bit(self, formula, knowledge):
        # the float loops (pu_utilities, bench._realized_sums) spell out
        # PairRates.licensed and relay, which enumeration and the audit
        # compare them against with strict tests, so each float must be the
        # method's value bit for bit, sums taken in the same order
        checked = 0
        for c_bar in (1.0, 1e15):
            params = topology.params_from_dict(
                {**cli.ORACLE_SCENARIO, "af_formula": formula, "snr_knowledge": knowledge,
                 "c_bar": c_bar})
            for seed in range(15):
                real = topology.make_realization(params, seed)
                req = radio.requirements_for(params, real.snr)
                market = dda.market(params, real, req)
                rates = market.rates
                outcomes = [dda.negotiate(market)[0],
                            dda.negotiate(replace(market, params=replace(
                                params, negotiation="contracts")))[0],
                            baselines.rmbn(market, np.random.default_rng(seed))[0],
                            *verify.enumerate_stable_matchings(real, req, params)]
                for outcome in outcomes:
                    want = np.zeros(params.l_pu)
                    sums = [0.0, 0.0, 0.0]
                    terms = outcome.matched_terms()
                    if terms:
                        l, q, xi, beta = map(np.array, zip(*terms))
                        pu_rate, want[l] = rates.licensed(beta, xi, l, q)
                        su_rate, _ = rates.relay(beta, xi, l, q)
                        for column in zip(want[l].tolist(), pu_rate.tolist(),
                                          su_rate.tolist()):
                            sums = [total + x for total, x in zip(sums, column)]
                    got = verify.pu_utilities(outcome, rates)
                    assert [u.hex() for u in got.tolist()] == [u.hex() for u in want.tolist()]
                    *got_sums, count = bench._realized_sums(outcome, rates)
                    assert [x.hex() for x in got_sums] == [x.hex() for x in sums]
                    assert count == len(terms)
                    checked += bool(terms)
        assert checked > 200

    def test_leaving_a_user_unmatched_does_not_improve_a_zero_utility(self):
        # a matched user holding exactly 0.0 gains only from a term worth
        # more; the empty matching, first in candidate order, leaves it at 0.0
        params, real, req = two_by_two()
        outcome = build_outcome(2, 2, {0: (0, 0.0, 0.0)})
        ok, witness = verify.check_weak_pareto(outcome, real, req, params)
        assert not ok
        assert 0 in [l for l, _ in witness.matched_pairs()]

    def test_empty_matching_passes_vacuously(self):
        params, real, req = two_by_two()
        ok, witness = verify.check_weak_pareto(
            build_outcome(2, 2, {}), real, req, params)
        assert ok and witness is None

    def test_dominated_outcome_fails(self):
        params, real, req = two_by_two()
        # licensed 0 on relay 0 at the worst feasible terms: beta at its
        # floor with a zero price leaves room to improve it while licensed 1
        # stays unmatched (and unquantified)
        outcome = build_outcome(2, 2, {0: (0, 0.0, 0.25)})
        ok, witness = verify.check_weak_pareto(outcome, real, req, params)
        assert not ok
        assert witness is not None
        rates = radio.make_pair_rates(params, real)
        assert verify.pu_utilities(witness, rates)[0] \
            > verify.pu_utilities(outcome, rates)[0]


class TestOracleLoop:
    def test_enumeration_and_weak_pareto_never_reach_the_audit(self, monkeypatch):
        # enumeration needs a verdict per candidate and the weak-Pareto
        # check one witness; the first-witness audit is waste there
        cases = []
        for params, real, req in oracle_markets():
            outcomes = [dda.run(params, real, req)[0],
                        dda.run(replace(params, negotiation="contracts"), real, req)[0]]
            cases.append((params, real, req, outcomes))

        def refuse(*args, **kwargs):
            raise AssertionError("reached from the oracle loop")

        monkeypatch.setattr(verify, "_blocking_pairs", refuse)
        monkeypatch.setattr(verify, "_may_block", refuse)
        monkeypatch.setattr(radio, "relay_open_index", refuse)
        stable = 0
        for params, real, req, _ in cases:
            stable += len(verify.enumerate_stable_matchings(real, req, params))
        fails = 0
        for params, real, req, outcomes in cases:
            for outcome in outcomes:
                fails += not verify.check_weak_pareto(outcome, real, req, params)[0]
        assert stable > 24 and fails > 5
        # the patches see the package's reads
        params, real, req, outcomes = cases[0]
        with pytest.raises(AssertionError, match="oracle loop"):
            verify.is_stable(outcomes[0], real, req, params)


def one_pair(r_pu):
    """Licensed slope 1 and relay slope 2 (see test_baselines' hand case),
    licensed floor r_pu, price grid 1 by 0.25 and time grid 1 by 0.5."""
    return single_pair_scenario(
        gamma_dir=2.5, gamma_relay_hops=(1.0, 1.0), gamma_sr=3.0,
        r_pu_req=[r_pu], r_su_req=0.0,
        xi_init=1.0, delta=0.25, beta_init=1.0, epsilon=0.5)


class TestBounds:
    def test_concession_path_length_by_hand(self):
        p, real = one_pair(0.5)
        # four price cuts plus one time cut down to the 0.5 floor, plus one
        assert verify.per_pu_puu_bounds(p, real).tolist() == [6]

    def test_floor_clamped_into_the_grid_span(self):
        # a floor above the opening time share counts as the opening share,
        # and a zero floor leaves the whole time grid to concede
        p, real = one_pair(9.0)
        assert verify.per_pu_puu_bounds(p, real).tolist() == [5]
        p, real = one_pair(0.5)
        zero = radio.Requirements(r_pu_req=np.array([0.0]), r_su_req=0.0)
        assert verify.per_pu_puu_bounds(p, real, zero).tolist() == [7]

    def test_per_user_bounds_are_integers_with_slack(self, default_params):
        real = topology.make_realization(default_params, 2)
        req = radio.requirements_for(default_params, real.snr)
        bounds = verify.per_pu_puu_bounds(default_params, real, req)
        assert bounds.shape == (default_params.l_pu,)
        assert bounds.dtype.kind == "i"

    def test_packet_bound_by_hand(self):
        p, real = one_pair(0.5)
        # one licensed pair and one relay, five concession steps plus one
        # round of slack: 2 packets a round for 6 rounds
        assert verify.packet_bound(p, real) == 12.0

    def test_packet_bound_is_the_largest_user_ceiling_per_round(self, default_params):
        real = topology.make_realization(default_params, 2)
        req = radio.requirements_for(default_params, real.snr)
        # 2 + max(2, 6) messages a round, for the largest user's concession
        # steps down to its lowest working time share, rounded up, plus one
        p = default_params
        lo, _ = radio.beta_interval(radio.make_pair_rates(p, real), req)
        floors = np.clip(lo.min(axis=1), 0.0, p.beta_init)
        rounds = max(math.ceil(p.xi_init / p.delta + (p.beta_init - f) / p.epsilon) + 1
                     for f in floors)
        assert verify.packet_bound(p, real, req) == 8 * rounds

    def test_bounds_without_a_market_name_the_missing_argument(self, default_params):
        for bound in (verify.packet_bound, verify.per_pu_puu_bounds):
            with pytest.raises(TypeError, match="realization"):
                bound(default_params)

    def test_scaling_estimates_by_hand(self):
        assert verify.complexity_estimates(2, 2) == {
            "centralized": 128, "proposed": 4, "rmbn": 2}
        assert verify.complexity_estimates(2, 3) == {
            "centralized": 1536, "proposed": 6, "rmbn": 2}

    def test_negotiated_runs_respect_the_bounds(self, default_params):
        for seed in range(20):
            real = topology.make_realization(default_params, seed)
            req = radio.requirements_for(default_params, real.snr)
            _, trace = dda.run(default_params, real, req)
            bounds = verify.per_pu_puu_bounds(default_params, real, req)
            assert np.all(trace.puu_counts <= bounds)
            assert trace.packets <= verify.packet_bound(default_params, real, req)
