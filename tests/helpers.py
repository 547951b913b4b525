"""Shared builders for tests that need hand-picked channel conditions."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from relaymarket import dda, radio, topology

from oracles import all_injective_matchings, discrete_pair_optimum


# (scenario overrides, number of seeds) of the seeded markets behind the
# golden digests in test_dda.TestGoldenTrace and
# test_topology.TestGoldenRealization; 202 ladder and 10 contract markets
GOLDEN_MARKETS = (
    ({}, 19),
    ({"l_pu": 3, "l_su": 3}, 19),
    ({"l_pu": 6, "l_su": 2}, 19),
    ({"snr_knowledge": "partial"}, 19),
    ({"af_formula": "standard", "l_pu": 3, "l_su": 4}, 19),
    ({"c_bar": 1e15}, 19),
    ({"delta": 0.01, "epsilon": 0.01}, 19),
    ({"xi_init": 1.0, "beta_init": 1.0, "delta": 0.25, "epsilon": 0.25,
      "l_pu": 4, "l_su": 3}, 19),
    ({"k_bar": 5.0}, 19),
    ({"gamma_su_db": -5.0, "l_pu": 4, "l_su": 4}, 19),
    ({"l_pu": 25, "l_su": 50}, 8),
    ({"l_pu": 25, "l_su": 50, "snr_knowledge": "partial"}, 4),
    ({"negotiation": "contracts"}, 10),
)


def handmade_realization(params, gamma_dir, gamma_pt_st, gamma_st_pr, gamma_sr):
    """Build a realization whose direct and relay-pair SNRs equal the given
    arrays exactly and whose composite relayed SNR is the two given hops
    composed under params.af_formula. The caller's params must use 0 dB
    transmit SNRs on both sides, the scaling under which squared fading
    gains over unit distances are these SNRs.

    gamma_sr is indexed [l, q] like the field it fills.
    """
    if params.gamma_pu_db != 0.0 or params.gamma_su_db != 0.0:
        raise ValueError("handmade realizations need 0 dB transmit SNRs")
    l_pu, l_su = params.l_pu, params.l_su
    zeros = lambda n: np.zeros((n, 2))
    placement = topology.Placement(
        pt_pos=zeros(l_pu), pr_pos=zeros(l_pu),
        st_pos=zeros(l_su), sr_pos=zeros(l_su))
    return topology.ChannelRealization(
        placement=placement,
        gamma_dir=np.array(gamma_dir, dtype=float),
        gamma_relay=radio.af_relay_snr(gamma_pt_st, gamma_st_pr, params.af_formula),
        gamma_sr=np.array(gamma_sr, dtype=float))


def conceding_user(grid_steps, coef, floor, c_cost, head_coef=None):
    """Opening ladder state of a handmade market of one licensed user and
    two relays on the concession grids of grid_steps (xi_init, delta,
    beta_init, epsilon), with the concession's inputs set on its fields:
    licensed slope head_coef (default coef) to relay 0 and coef to relay
    1, rate floor floor and money slope c_cost. Relay 0 is the head, so
    refused(0, 0) reads the head slope and refused(0, 1) reads pu_coef."""
    params = topology.params_from_dict(
        {"l_pu": 1, "l_su": 2, "gamma_pu_db": 0.0, "gamma_su_db": 0.0, **grid_steps})
    real = handmade_realization(params, gamma_dir=[1.0], gamma_pt_st=[[1.0, 1.0]],
                                gamma_st_pr=[[1.0, 1.0]], gamma_sr=[[1.0, 1.0]])
    state = dda.init_state(dda.market(params, real))
    assert state.head == [0] and state.runner_up == [1]
    head_coef = coef if head_coef is None else head_coef
    state.pu_coef = np.array([[head_coef, coef]])
    state.head_slope, state.floors, state.c_cost = [head_coef], [floor], c_cost
    return state


def concede(state, m_xi, m_beta, q=0):
    """The (price, time) steps state's user 0 moves to when relay q refuses
    it at steps (m_xi, m_beta); checks the terms refused returns."""
    state.m_xi[0], state.m_beta[0] = m_xi, m_beta
    terms = state.refused(0, q)
    grids = state.market.grids
    assert terms == (grids.xi_terms[state.m_xi[0]], grids.beta_terms[state.m_beta[0]])
    return state.m_xi[0], state.m_beta[0]


def without_relay(params, realization, q):
    """params and realization with relay q taken out: its column of
    gamma_relay, gamma_sr and partial_mean_log and its positions go. The
    floors are the caller's to keep: pass the full market's requirements
    on."""
    keep = np.arange(params.l_su) != q
    fewer = replace(params, l_su=params.l_su - 1)
    smaller = replace(
        realization,
        placement=replace(realization.placement, st_pos=realization.placement.st_pos[keep],
                          sr_pos=realization.placement.sr_pos[keep]),
        gamma_relay=realization.gamma_relay[:, keep],
        gamma_sr=realization.gamma_sr[:, keep],
        partial_mean_log=(None if realization.partial_mean_log is None
                          else realization.partial_mean_log[:, keep]))
    return fewer, smaller


def without_licensed(params, realization, l):
    """params (without explicit floors) and realization with licensed user
    l taken out: its row of gamma_dir, gamma_relay, gamma_sr and
    partial_mean_log and its positions go. The floors are the caller's to
    keep: pass the full market's requirements on without row l."""
    keep = np.arange(params.l_pu) != l
    fewer = replace(params, l_pu=params.l_pu - 1)
    smaller = replace(
        realization,
        placement=replace(realization.placement, pt_pos=realization.placement.pt_pos[keep],
                          pr_pos=realization.placement.pr_pos[keep]),
        gamma_dir=realization.gamma_dir[keep],
        gamma_relay=realization.gamma_relay[keep],
        gamma_sr=realization.gamma_sr[keep],
        partial_mean_log=(None if realization.partial_mean_log is None
                          else realization.partial_mean_log[keep]))
    return fewer, smaller


def single_pair_scenario(gamma_dir, gamma_relay_hops, gamma_sr, **overrides):
    """One licensed pair, one relay pair, 0 dB gains. The licensed floor is
    the direct-link rate unless r_pu_req is passed."""
    base = {"l_pu": 1, "l_su": 1, "gamma_pu_db": 0.0, "gamma_su_db": 0.0}
    base.update(overrides)
    params = topology.params_from_dict(base)
    g1, g2 = gamma_relay_hops
    real = handmade_realization(
        params,
        gamma_dir=[gamma_dir],
        gamma_pt_st=[[g1]],
        gamma_st_pr=[[g2]],
        gamma_sr=[[gamma_sr]],
    )
    return params, real


def outcome_from_arrays(m, g, b, final_xi_steps=None, final_beta_steps=None):
    """The outcome whose dense m, g and b [l, q] are the arrays given: one
    matched term per nonzero of m, its price and time share read off g and
    b as Python floats."""
    ls, qs = np.nonzero(m)
    g, b = np.asarray(g, dtype=float), np.asarray(b, dtype=float)
    return dda.MatchingOutcome(
        *np.shape(m), zip(ls.tolist(), qs.tolist(), g[ls, qs].tolist(), b[ls, qs].tolist()),
        final_xi_steps=final_xi_steps, final_beta_steps=final_beta_steps)


def dense(outcome):
    """An outcome's terms as dense arrays m (int64 matching matrix), g
    (float64 prices) and b (float64 time shares), each [l, q] and zero
    wherever unmatched: the form the recorded digests hash."""
    m = np.zeros(outcome.shape, dtype=np.int64)
    g = np.zeros(outcome.shape)
    b = np.zeros(outcome.shape)
    for l, q, xi, beta in outcome.matched_terms():
        m[l, q] = 1
        g[l, q] = xi
        b[l, q] = beta
    return m, g, b


def engine_fingerprint(outcome, trace):
    """Canonical text of one engine run: its events, offers, concession
    counts, final concession steps and m, g, b, with every number as a
    Python int or an exact float hex, so equal text means a bit-for-bit
    equal run."""
    def ints(a):
        return None if a is None else [int(v) for v in a]

    def hexes(a):
        return [float(v).hex() for v in np.ravel(a)]

    m, g, b = dense(outcome)
    return repr((
        [(kind, int(l), int(q), float(xi).hex(), float(beta).hex(), int(it))
         for kind, l, q, xi, beta, it in trace.events],
        int(trace.offers), ints(trace.puu_counts),
        ints(outcome.final_xi_steps), ints(outcome.final_beta_steps),
        m.tolist(), hexes(g), hexes(b)))


def discrete_assignment_optimum(market):
    """Best total licensed utility over every partial matching, each pair at
    its best grid terms (oracles.discrete_pair_optimum) under the rates it
    negotiates with; 0 for the empty matching."""
    rates, req = market.rates, market.requirements
    l_pu, l_su = rates.pu_coef.shape
    value = {}
    for l in range(l_pu):
        for q in range(l_su):
            best = discrete_pair_optimum(
                rates.pu_coef[l, q], rates.su_coef[l, q], req.r_pu_req[l],
                req.r_su_req, rates.c_cost, rates.k_cost, market.grids)
            if best is not None:
                value[l, q] = best[0]
    best = 0.0
    for matching in all_injective_matchings(l_pu, l_su):
        if all(pair in value for pair in matching.items()):
            best = max(best, sum(value[pair] for pair in matching.items()))
    return best
