"""Centralized and random baselines the negotiation is measured against.

The centralized solver decomposes into per-pair term optimization plus an
assignment over pairs; it is exhaustive by design and guarded to desk
scale, with an optional rectangular-assignment path for larger instances.
The random baseline (rmbn) matches sides uniformly at random and lets each
matched pair haggle bilaterally with the same concession rule the engine
uses, which isolates the value of market-wide matching from the value of
concession itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radio
from .dda import EngineTrace, MatchingOutcome, concession_grids, concession_step
from .errors import GuardError

# Exhaustive assignment costs roughly exp(small_side * log(big_side));
# refuse anything costlier than the 8x8 point unless the solver is enabled.
ASSIGNMENT_GUARD = 8 * math.log(8)


def _check_assignment_guard(l_pu, l_su, use_assignment_solver):
    cost = min(l_pu, l_su) * math.log(max(l_pu, l_su))
    if cost > ASSIGNMENT_GUARD + 1e-9 and not use_assignment_solver:
        raise GuardError(
            f"centralized enumeration refuses {l_pu}x{l_su}: cost indicator "
            f"min*log(max) = {cost:.2f} exceeds {ASSIGNMENT_GUARD:.2f}; "
            "enable the assignment solver")


@dataclass(frozen=True)
class PairValue:
    l: int
    q: int
    feasible: bool
    xi: float
    beta: float
    u_pu: float      # -inf when infeasible
    su_rate: float


def _feasible_beta_interval(rates, requirements, l, q):
    coef = rates.pu_coef[l, q]
    su = rates.su_coef[l, q]
    r_pu = requirements.r_pu_req[l]
    r_su = requirements.r_su_req
    if coef > 0.0:
        lo = r_pu / coef
    else:
        lo = 0.0 if r_pu <= 0.0 else math.inf
    if su > 0.0:
        hi = 1.0 - r_su / su
    else:
        hi = 1.0 if r_su <= 0.0 else -math.inf
    return max(lo, 0.0), min(hi, 1.0)


def pair_optimum_continuous(l, q, rates, requirements, params):
    """Best (xi, beta) for the pair alone, terms free in the unit square.

    The licensed utility rises in xi, so the optimal price is the relay's
    affordability cap min(1, relay_rate(beta) / money_slope). Substituting
    the cap leaves a piecewise-linear objective in beta whose maximum sits
    at an interval end or at the beta where the cap stops clipping at 1,
    so those candidates are evaluated directly. Ties keep the smaller beta.
    """
    lo, hi = _feasible_beta_interval(rates, requirements, l, q)
    if not lo <= hi:
        return PairValue(l, q, False, 0.0, 0.0, -math.inf, 0.0)
    k = rates.k_cost
    su = rates.su_coef[l, q]
    candidates = [lo, hi]
    if k > 0.0 and su > 0.0:
        crossover = 1.0 - k / su
        if lo < crossover < hi:
            candidates.append(crossover)
    best = None
    for beta in sorted(candidates):
        if k <= 0.0:
            xi = 1.0
        else:
            xi = min(1.0, max(0.0, rates.rate_su(l, q, beta) / k))
        u = rates.u_pu(l, q, beta, xi)
        if best is None or u > best.u_pu:
            best = PairValue(l, q, True, xi, beta, u, rates.rate_su(l, q, beta))
    return best


def pair_optimum_discrete(l, q, rates, requirements, params, grids=None):
    """Same problem restricted to the concession grids; exhaustive scan."""
    if grids is None:
        grids = concession_grids(params)
    r_pu = requirements.r_pu_req[l]
    r_su = requirements.r_su_req
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
            best = PairValue(l, q, True, xi, float(beta), u,
                             rates.rate_su(l, q, beta))
    if best is None:
        return PairValue(l, q, False, 0.0, 0.0, -math.inf, 0.0)
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


def _assignment_by_solver(values, feasible):
    from scipy.optimize import linear_sum_assignment

    l_pu, l_su = values.shape
    n = max(l_pu, l_su)
    padded = np.zeros((n, n))
    padded[:l_pu, :l_su] = np.where(feasible, values, 0.0)
    rows, cols = linear_sum_assignment(padded, maximize=True)
    assign = [-1] * l_pu
    total = 0.0
    for r, c in zip(rows, cols):
        if r < l_pu and c < l_su and feasible[r, c] and values[r, c] > 0.0:
            assign[r] = c
            total += values[r, c]
    return total, assign


def _outcome_from(l_pu, l_su, assign, terms):
    return MatchingOutcome.from_terms(
        l_pu, l_su, [(l, q, *terms[l]) for l, q in enumerate(assign) if q >= 0])


def centralized_pu_optimal(realization, requirements, params, mode="continuous",
                           use_assignment_solver=False):
    """Matching and terms maximizing total licensed utility.

    Exhaustive over injective partial matchings with per-pair optimal
    terms; refuses sides larger than the guard unless the assignment-solver
    path is requested explicitly.
    """
    l_pu, l_su = params.l_pu, params.l_su
    _check_assignment_guard(l_pu, l_su, use_assignment_solver)
    rates = radio.make_pair_rates(params, realization, knowledge="complete")
    grids = concession_grids(params) if mode == "discrete" else None
    if mode == "continuous":
        opt = [[pair_optimum_continuous(l, q, rates, requirements, params)
                for q in range(l_su)] for l in range(l_pu)]
    elif mode == "discrete":
        opt = [[pair_optimum_discrete(l, q, rates, requirements, params, grids)
                for q in range(l_su)] for l in range(l_pu)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    values = np.array([[pv.u_pu if pv.feasible else 0.0 for pv in row] for row in opt])
    feasible = np.array([[pv.feasible for pv in row] for row in opt])
    if use_assignment_solver:
        _, assign = _assignment_by_solver(values, feasible)
    else:
        _, assign = _best_assignment(values, feasible)
    terms = [(opt[l][assign[l]].xi, opt[l][assign[l]].beta) if assign[l] >= 0 else (0.0, 0.0)
             for l in range(l_pu)]
    return _outcome_from(l_pu, l_su, assign, terms)


def centralized_su_rate(realization, requirements, params, use_assignment_solver=False):
    """Matching maximizing total relay rate instead.

    Per pair the relay rate falls in beta, so the best terms are the
    smallest beta clearing the licensed floor with a zero price (any
    feasible price would do; zero leaves the relay best off).
    """
    l_pu, l_su = params.l_pu, params.l_su
    _check_assignment_guard(l_pu, l_su, use_assignment_solver)
    rates = radio.make_pair_rates(params, realization, knowledge="complete")
    values = np.zeros((l_pu, l_su))
    feasible = np.zeros((l_pu, l_su), dtype=bool)
    beta_of = np.zeros((l_pu, l_su))
    for l in range(l_pu):
        for q in range(l_su):
            lo, hi = _feasible_beta_interval(rates, requirements, l, q)
            if lo <= hi:
                feasible[l, q] = True
                beta_of[l, q] = lo
                values[l, q] = rates.rate_su(l, q, lo)
    if use_assignment_solver:
        _, assign = _assignment_by_solver(values, feasible)
    else:
        _, assign = _best_assignment(values, feasible)
    terms = [(0.0, beta_of[l, assign[l]]) if assign[l] >= 0 else (0.0, 0.0)
             for l in range(l_pu)]
    return _outcome_from(l_pu, l_su, assign, terms)


def rmbn(realization, requirements, params, rng):
    """Random matching with basic negotiation.

    The smaller side is matched uniformly at random onto the larger (the
    excess sits out), then each matched pair haggles alone under the
    scenario's negotiation rule. Under "ladder" the licensed side opens at
    the initial terms and concedes by the engine's own rule until the
    relay's conditions hold or the pair stops being workable. Under
    "contracts" the pair settles on its best bilateral grid contract
    (pair_optimum_discrete): one offer and one accept per feasible pair.
    """
    if np.any(requirements.r_pu_req <= 0.0):
        raise ValueError("bilateral negotiation needs positive licensed rate floors")
    l_pu, l_su = params.l_pu, params.l_su
    rates = radio.make_pair_rates(params, realization)
    grids = concession_grids(params)
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
    r_su = requirements.r_su_req
    for l, q in pairs:
        if params.negotiation == "contracts":
            best = pair_optimum_discrete(l, q, rates, requirements, params, grids)
            if not best.feasible:
                events.append(("prune", l, q, 0.0, 0.0, offers))
                continue
            offers += 1
            events.append(("offer", l, q, best.xi, best.beta, offers))
            events.append(("accept", l, q, best.xi, best.beta, offers))
            matched.append((l, q, best.xi, best.beta))
            continue
        m_x, m_b = 0, 0
        floor = requirements.r_pu_req[l]
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
    trace = EngineTrace(events=events, offers=offers, responses=offers,
                        packets=2 * offers, iterations=offers,
                        puu_counts=puu_counts)
    return outcome, trace
