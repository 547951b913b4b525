"""Centralized and random baselines the negotiation is measured against.

The centralized solver decomposes into per-pair term optimization plus an
exact assignment over pairs, at any market size; it solves on the
market's rates, which bench hands it under complete knowledge. The random
baseline (rmbn) matches sides uniformly at random and runs the scenario's
own negotiation rule on those pairs alone, which isolates the value of
market-wide matching from the value of negotiation itself.
"""

from __future__ import annotations

import numpy as np

from . import radio
from .dda import MatchingOutcome, negotiate


def pair_optimum_continuous(rates, requirements):
    """Best (xi, beta) of every pair alone, terms free in the unit square.

    Returns arrays (feasible, xi, beta, u_pu), each [l, q]; infeasible
    pairs hold zero terms and u_pu = -inf. The licensed utility rises in
    xi, so the optimal price is the relay's affordability cap
    min(1, relay_rate(beta) / money_slope). Substituting the cap leaves a
    piecewise-linear objective in beta whose maximum sits at an interval
    end or at the beta where the cap stops clipping at 1, so those
    candidates are evaluated directly. Ties keep the smaller beta.
    """
    lo, hi = radio.beta_interval(rates, requirements)
    feasible = lo <= hi
    k, su = rates.k_cost, rates.su_coef
    with np.errstate(divide="ignore", invalid="ignore"):
        crossover = 1.0 - k / su
    has_crossover = (k > 0.0) & (su > 0.0) & (lo < crossover) & (crossover < hi)

    def at(beta):
        if k <= 0.0:
            xi = np.ones_like(beta)
        else:
            xi = np.minimum(1.0, np.maximum(0.0, rates.relay(beta, 0.0)[0] / k))
        return xi, rates.licensed(beta, xi)[1]

    beta = np.where(feasible, lo, 0.0)
    xi, u_pu = at(beta)
    for cand, valid in ((crossover, has_crossover), (hi, feasible)):
        cand = np.where(valid, cand, 0.0)
        c_xi, c_u = at(cand)
        better = valid & (c_u > u_pu)
        beta = np.where(better, cand, beta)
        xi = np.where(better, c_xi, xi)
        u_pu = np.where(better, c_u, u_pu)
    return (feasible, np.where(feasible, xi, 0.0), beta,
            np.where(feasible, u_pu, -np.inf))


def _max_assignment(values, feasible):
    """Matched (l, q) pairs of greatest total value, by shortest augmenting
    paths (Jonker & Volgenant 1987; Crouse 2016) over the smaller side.

    A pair costs -value when it is feasible with a positive value and 0
    otherwise, like an unmatched user; only negative-cost pairs are kept,
    so a zero-value pair stays unmatched. Equal totals go to the
    assignment the search meets first: rows join in index order and each
    search settles equally distant columns lowest index first, so on an
    all-equal market the first rows take the first columns.
    """
    flip = values.shape[0] > values.shape[1]
    cost = np.where(feasible & (values > 0.0), -values, 0.0)
    cost = (cost.T if flip else cost).tolist()
    n_col = max(values.shape)   # the rows are the smaller side
    u, v = [0.0] * len(cost), [0.0] * n_col
    col_of, row_of = [-1] * len(cost), [-1] * n_col
    for row in range(len(cost)):
        dist, path = [float("inf")] * n_col, [-1] * n_col
        todo, settled, i, reach = list(range(n_col)), [], row, 0.0
        while i >= 0:
            c, base, best, pick = cost[i], reach - u[i], float("inf"), 0
            for k, j in enumerate(todo):
                d = base + c[j] - v[j]
                if d < dist[j]:
                    dist[j], path[j] = d, i
                if dist[j] < best:
                    best, pick = dist[j], k
            reach, j = best, todo.pop(pick)
            settled.append(j)
            i = row_of[j]
        u[row] += reach
        for s in settled:
            v[s] -= reach - dist[s]
            if row_of[s] >= 0:
                u[row_of[s]] += reach - dist[s]
        while i != row:   # augment back from the free column j
            i = path[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
    pairs = [(i, j) for i, j in enumerate(col_of) if cost[i][j] < 0.0]
    return [(l, q) for q, l in pairs] if flip else pairs


def _outcome_from(market, pairs, xi, beta):
    return MatchingOutcome(
        market.params.l_pu, market.params.l_su,
        [(l, q, xi.item(l, q), beta.item(l, q)) for l, q in pairs])


def centralized_pu_optimal(market):
    """Matching and terms maximizing total licensed utility.

    The best assignment over injective partial matchings, each pair at its
    optimal continuous terms.
    """
    feasible, xi, beta, u_pu = pair_optimum_continuous(market.rates, market.requirements)
    pairs = _max_assignment(np.where(feasible, u_pu, 0.0), feasible)
    return _outcome_from(market, pairs, xi, beta)


def centralized_su_rate(market):
    """Matching maximizing total relay rate instead.

    Per pair the relay rate falls in beta, so the best terms are the
    smallest beta clearing the licensed floor with a zero price (any
    feasible price would do; zero leaves the relay best off).
    """
    rates = market.rates
    lo, hi = radio.beta_interval(rates, market.requirements)
    feasible = lo <= hi
    xi, beta = np.zeros(lo.shape), np.where(feasible, lo, 0.0)
    pairs = _max_assignment(rates.relay(beta, xi)[0], feasible)
    return _outcome_from(market, pairs, xi, beta)


def rmbn(market, rng):
    """Random matching with basic negotiation.

    The smaller side is matched uniformly at random onto the larger (the
    excess sits out), then each licensed user runs the scenario's
    negotiation rule (dda.negotiate) with its drawn relay alone, so no
    offer ever meets a rival one. The outcome carries no concession steps,
    so stability audits it on the full grid.
    """
    l_pu, l_su = market.params.l_pu, market.params.l_su
    if l_pu <= l_su:
        partners = rng.permutation(l_su)[:l_pu]
    else:
        partners = np.full(l_pu, -1)
        partners[rng.permutation(l_pu)[:l_su]] = np.arange(l_su)
    outcome, trace = negotiate(market, partners)
    return MatchingOutcome(l_pu, l_su, outcome.matched_terms()), trace
