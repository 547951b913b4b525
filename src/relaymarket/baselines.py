"""Centralized and random baselines the negotiation is measured against.

The centralized solver decomposes into per-pair term optimization plus an
assignment over pairs; it is exhaustive by design and guarded to desk
scale; it solves on the market's complete-knowledge rates_real. The
random baseline (rmbn) matches sides uniformly at random and lets each
matched pair haggle bilaterally with the same concession rule the engine
uses, which isolates the value of market-wide matching from the value of
concession itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radio
from .dda import EngineTrace, MatchingOutcome, concession_step
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


@dataclass(frozen=True)
class PairValue:
    l: int
    q: int
    feasible: bool
    xi: float
    beta: float
    u_pu: float      # -inf when infeasible


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


def pair_optimum_discrete(market, l, q):
    """Pair (l, q)'s best terms on the market's grids, under the rates it
    negotiates with; exhaustive scan."""
    rates, grids = market.rates, market.grids
    r_pu = market.requirements.r_pu_req[l]
    r_su = market.requirements.r_su_req
    k = rates.k_cost
    best = None
    for beta in sorted(grids.beta_values):
        if rates.rate_pu(l, q, beta) < r_pu:
            continue
        if rates.rate_su(l, q, beta) < r_su:
            continue
        cap = 1.0 if k <= 0.0 else rates.rate_su(l, q, beta) / k
        affordable = grids.xi_values[grids.xi_values <= cap]
        if len(affordable) == 0:
            continue   # no grid price keeps the relay whole at this beta
        xi = float(affordable[0])   # grid is descending, first fit is largest
        u = rates.u_pu(l, q, beta, xi)
        if best is None or u > best.u_pu:
            best = PairValue(l, q, True, xi, float(beta), u)
    if best is None:
        return PairValue(l, q, False, 0.0, 0.0, -math.inf)
    return best


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
    excess sits out), then each matched pair haggles alone under the
    scenario's negotiation rule. Under "ladder" the licensed side opens at
    the initial terms and concedes by the engine's own rule until the
    relay's conditions hold or the pair stops being workable. Under
    "contracts" the pair settles on its best bilateral grid contract
    (pair_optimum_discrete): one offer and one accept per feasible pair.
    """
    params, rates, grids = market.params, market.rates, market.grids
    if np.any(market.requirements.r_pu_req <= 0.0):
        raise ValueError("bilateral negotiation needs positive licensed rate floors")
    l_pu, l_su = params.l_pu, params.l_su
    if l_pu <= l_su:
        chosen = rng.permutation(l_su)[:l_pu]
        pairs = [(l, int(chosen[l])) for l in range(l_pu)]
    else:
        chosen = rng.permutation(l_pu)[:l_su]
        pairs = [(int(chosen[q]), q) for q in range(l_su)]

    matched = []
    events = []
    offers = 0
    puu_counts = np.zeros(l_pu, dtype=int)
    r_su = market.requirements.r_su_req
    for l, q in pairs:
        if params.negotiation == "contracts":
            best = pair_optimum_discrete(market, l, q)
            if not best.feasible:
                events.append(("prune", l, q, 0.0, 0.0, offers))
                continue
            offers += 1
            events.append(("offer", l, q, best.xi, best.beta, offers))
            events.append(("accept", l, q, best.xi, best.beta, offers))
            matched.append((l, q, best.xi, best.beta))
            continue
        m_x, m_b = 0, 0
        floor = market.requirements.r_pu_req[l]
        while True:
            beta = grids.beta_at(m_b)
            if rates.rate_pu(l, q, beta) < floor:
                events.append(("prune", l, q, float(grids.xi_values[m_x]), beta, offers))
                break
            xi = float(grids.xi_values[m_x])
            offers += 1
            events.append(("offer", l, q, xi, beta, offers))
            if rates.rate_su(l, q, beta) >= r_su and rates.u_su(l, q, beta, xi) >= 0.0:
                events.append(("accept", l, q, xi, beta, offers))
                matched.append((l, q, xi, beta))
                break
            events.append(("reject", l, q, xi, beta, offers))
            m_x, m_b = concession_step(m_x, m_b, rates.pu_coef[l, q], floor,
                                       rates.c_cost, grids)
            m_b = min(m_b, len(grids.beta_values))
            puu_counts[l] += 1
            events.append(("puu", l, q, float(grids.xi_values[m_x]),
                           grids.beta_at(m_b), offers))

    outcome = MatchingOutcome.from_terms(l_pu, l_su, matched)
    trace = EngineTrace(events=events, offers=offers, puu_counts=puu_counts)
    return outcome, trace
