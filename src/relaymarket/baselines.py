"""Centralized and random baselines the negotiation is measured against.

The centralized solver decomposes into per-pair term optimization plus an
assignment over pairs; it is exhaustive by design and guarded to desk
scale; it solves on the market's complete-knowledge rates_real. The
random baseline (rmbn) matches sides uniformly at random and runs the
scenario's own negotiation rule on those pairs alone, which isolates the
value of market-wide matching from the value of negotiation itself.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import radio
from .dda import MatchingOutcome, negotiate
from .errors import GuardError

# Exhaustive assignment costs roughly exp(small_side * log(big_side));
# refuse anything costlier than the 8x8 point.
ASSIGNMENT_GUARD = 8 * math.log(8)


def _check_assignment_guard(l_pu, l_su):
    cost = min(l_pu, l_su) * math.log(max(l_pu, l_su))
    if cost > ASSIGNMENT_GUARD + 1e-9:
        raise GuardError(
            f"centralized enumeration refuses {l_pu}x{l_su}: cost indicator "
            f"min*log(max) = {cost:.2f} exceeds {ASSIGNMENT_GUARD:.2f}, "
            "the cost at 8x8")


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
            xi = np.minimum(1.0, np.maximum(0.0, su * (1.0 - beta) / k))
        return xi, rates.pu_coef * beta + rates.c_cost * xi

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


def _best_assignment(values, feasible):
    """Exhaustive max-total assignment over partial injective matchings.

    Iterates choices per licensed pair in the order unmatched, relay 0,
    relay 1, ... and keeps the first maximum found, so ties resolve to the
    lexicographically smallest assignment vector.
    """
    l_pu, l_su = values.shape
    best_total = 0.0
    best_assign = [-1] * l_pu
    used = [False] * l_su
    assign = [-1] * l_pu

    def rec(l, total):
        nonlocal best_total, best_assign
        if l == l_pu:
            if total > best_total:
                best_total = total
                best_assign = assign.copy()
            return
        assign[l] = -1
        rec(l + 1, total)
        for q in range(l_su):
            if not used[q] and feasible[l, q]:
                used[q] = True
                assign[l] = q
                rec(l + 1, total + values[l, q])
                assign[l] = -1
                used[q] = False

    rec(0, 0.0)
    return best_total, best_assign


def _outcome_from(l_pu, l_su, assign, xi, beta):
    return MatchingOutcome.from_terms(
        l_pu, l_su,
        [(l, q, xi[l, q], beta[l, q]) for l, q in enumerate(assign) if q >= 0])


def centralized_pu_optimal(market):
    """Matching and terms maximizing total licensed utility.

    Exhaustive over injective partial matchings with per-pair optimal
    continuous terms; refuses sides larger than the guard.
    """
    l_pu, l_su = market.params.l_pu, market.params.l_su
    _check_assignment_guard(l_pu, l_su)
    feasible, xi, beta, u_pu = pair_optimum_continuous(market.rates_real,
                                                       market.requirements)
    _, assign = _best_assignment(np.where(feasible, u_pu, 0.0), feasible)
    return _outcome_from(l_pu, l_su, assign, xi, beta)


def centralized_su_rate(market):
    """Matching maximizing total relay rate instead.

    Per pair the relay rate falls in beta, so the best terms are the
    smallest beta clearing the licensed floor with a zero price (any
    feasible price would do; zero leaves the relay best off).
    """
    l_pu, l_su = market.params.l_pu, market.params.l_su
    _check_assignment_guard(l_pu, l_su)
    rates = market.rates_real
    lo, hi = radio.beta_interval(rates, market.requirements)
    feasible = lo <= hi
    beta = np.where(feasible, lo, 0.0)
    _, assign = _best_assignment(rates.su_coef * (1.0 - beta), feasible)
    return _outcome_from(l_pu, l_su, assign, np.zeros_like(beta), beta)


def rmbn(market, rng):
    """Random matching with basic negotiation.

    The smaller side is matched uniformly at random onto the larger (the
    excess sits out), then each licensed user runs the scenario's
    negotiation rule (dda.negotiate) with its drawn relay alone, so no
    offer ever meets a rival one. The outcome carries no concession steps,
    so stability audits it on the full grid.
    """
    if np.any(market.requirements.r_pu_req <= 0.0):
        raise ValueError("bilateral negotiation needs positive licensed rate floors")
    l_pu, l_su = market.params.l_pu, market.params.l_su
    if l_pu <= l_su:
        partners = rng.permutation(l_su)[:l_pu]
    else:
        partners = np.full(l_pu, -1)
        partners[rng.permutation(l_pu)[:l_su]] = np.arange(l_su)
    outcome, trace = negotiate(market, partners)
    return replace(outcome, final_xi_steps=None, final_beta_steps=None), trace
