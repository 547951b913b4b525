"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way: dense grid
search where the package solves analytically, plain double loops where the
package vectorizes, itertools where the package recurses. None of it imports
from the implementation modules beyond plain data carried in their types.
"""

from __future__ import annotations

import itertools

import numpy as np


def grid_pair_optimum(coef, su_coef, pu_floor, su_floor, c_cost, k_cost,
                      n=2000, zoom_passes=2):
    """Best licensed utility for one pair by dense grid search plus zoom.

    Scans an n-by-n grid over the pair's feasible time-share interval and
    the price interval [0, 1], then re-scans a shrinking window around the
    incumbent best. Returns (utility, xi, beta) or None when infeasible.
    """
    if coef <= 0.0:
        return None
    beta_lo = max(pu_floor / coef, 0.0)
    if su_coef > 0.0:
        beta_hi = min(1.0 - su_floor / su_coef, 1.0)
    else:
        beta_hi = 1.0 if su_floor <= 0.0 else -1.0
    if beta_lo > beta_hi:
        return None

    def scan(b_lo, b_hi, x_lo, x_hi):
        betas = np.linspace(b_lo, b_hi, n)
        xis = np.linspace(x_lo, x_hi, n)
        bb, xx = np.meshgrid(betas, xis)
        ok = su_coef * (1.0 - bb) - k_cost * xx >= 0.0
        ok &= su_coef * (1.0 - bb) >= su_floor
        ok &= coef * bb >= pu_floor
        u = np.where(ok, coef * bb + c_cost * xx, -np.inf)
        flat = int(np.argmax(u))
        i, j = np.unravel_index(flat, u.shape)
        return float(u[i, j]), float(xx[i, j]), float(bb[i, j])

    best_u, best_xi, best_beta = scan(beta_lo, beta_hi, 0.0, 1.0)
    if not np.isfinite(best_u):
        return None
    b_span = (beta_hi - beta_lo) / (n - 1) if beta_hi > beta_lo else 0.0
    x_span = 1.0 / (n - 1)
    for _ in range(zoom_passes):
        b_lo = max(beta_lo, best_beta - 2 * b_span) if b_span else beta_lo
        b_hi = min(beta_hi, best_beta + 2 * b_span) if b_span else beta_hi
        x_lo = max(0.0, best_xi - 2 * x_span)
        x_hi = min(1.0, best_xi + 2 * x_span)
        u, xi, beta = scan(b_lo, b_hi, x_lo, x_hi)
        if u > best_u:
            best_u, best_xi, best_beta = u, xi, beta
        b_span = (b_hi - b_lo) / (n - 1)
        x_span = (x_hi - x_lo) / (n - 1)
    return best_u, best_xi, best_beta


def scan_blocking_pairs(outcome, rates, requirements, grids):
    """Blocking-pair scan as four nested plain loops.

    Honors the same witness envelope as the shipped checker: when the
    outcome carries terminal concession steps, a licensed user's candidate
    terms start at those steps; otherwise the whole grid is in play.
    """
    l_pu, l_su = rates.pu_coef.shape
    u_pu = [0.0] * l_pu
    u_su = [0.0] * l_su
    matched_to = {}
    for l in range(l_pu):
        for q in range(l_su):
            if outcome.m[l, q] == 1:
                matched_to[l] = q
                u_pu[l] = rates.u_pu(l, q, outcome.b[l, q], outcome.g[l, q])
                u_su[q] = rates.u_su(l, q, outcome.b[l, q], outcome.g[l, q])
    found = []
    for l in range(l_pu):
        xi_start = beta_start = 0
        if outcome.final_xi_steps is not None:
            xi_start = int(outcome.final_xi_steps[l])
            beta_start = int(outcome.final_beta_steps[l])
        for q in range(l_su):
            if matched_to.get(l) == q:
                continue
            hit = None
            for xi in grids.xi_values[xi_start:]:
                for beta in grids.beta_values[beta_start:]:
                    if rates.rate_pu(l, q, beta) < requirements.r_pu_req[l]:
                        continue
                    if rates.rate_su(l, q, beta) < requirements.r_su_req:
                        continue
                    if rates.u_pu(l, q, beta, xi) <= u_pu[l]:
                        continue
                    if rates.u_su(l, q, beta, xi) <= u_su[q]:
                        continue
                    hit = (float(xi), float(beta))
                    break
                if hit:
                    break
            if hit:
                found.append((l, q, hit))
    return found


def brute_pulist(l, xi, beta, rates, requirements):
    """Relay ranking for licensed pair l, rebuilt the long way."""
    scored = []
    for q in range(rates.pu_coef.shape[1]):
        if rates.rate_pu(l, q, beta) >= requirements.r_pu_req[l]:
            scored.append((rates.u_pu(l, q, beta, xi), q))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [q for _, q in scored]


def all_injective_matchings(l_pu, l_su):
    """Every partial matching of licensed users onto distinct relays,
    generated from itertools primitives rather than recursion."""
    pus = range(l_pu)
    sus = range(l_su)
    seen = [dict()]
    for k in range(1, min(l_pu, l_su) + 1):
        for chosen in itertools.combinations(pus, k):
            for targets in itertools.permutations(sus, k):
                seen.append(dict(zip(chosen, targets)))
    return seen


def concession_reference(m_xi, m_beta, coef, rate_floor, c_cost, grids):
    """Restate the one-step concession rule from its decision table."""
    xi_vals = grids.xi_values
    at_price_floor = m_xi >= grids.last_positive_xi
    if at_price_floor:
        return m_xi, m_beta + 1
    next_beta = grids.beta_at(m_beta + 1)
    time_cut_breaks_floor = coef * next_beta <= rate_floor
    if time_cut_breaks_floor:
        return m_xi + 1, m_beta
    keep_after_price = coef * grids.beta_at(m_beta) + c_cost * float(xi_vals[m_xi + 1])
    keep_after_time = coef * next_beta + c_cost * float(xi_vals[m_xi])
    if keep_after_time > keep_after_price:
        return m_xi, m_beta + 1
    return m_xi + 1, m_beta


def contract_deferred_acceptance(rates, requirements, grids):
    """Licensed-proposing deferred acceptance, every contract spelled out.

    Each licensed user ranks every grid contract (q, xi, beta) that clears
    its own rate floor by its utility, ties to the smaller relay, then the
    higher price, then the longer time, and proposes them one per turn
    with no knowledge of the relays. A relay holds an offer when it meets
    the relay's rate floor with nonnegative utility and pays strictly more
    than the one held; the refused or displaced user rejoins the queue.
    Returns {licensed user: (relay, xi, beta)} for the matched users.
    """
    l_pu, l_su = rates.pu_coef.shape
    ranked = []
    for l in range(l_pu):
        mine = []
        for q in range(l_su):
            for i, xi in enumerate(grids.xi_values):
                for j, beta in enumerate(grids.beta_values):
                    if rates.rate_pu(l, q, beta) >= requirements.r_pu_req[l]:
                        mine.append((-rates.u_pu(l, q, beta, xi), q, i, j,
                                     float(xi), float(beta)))
        mine.sort()
        ranked.append([(q, xi, beta) for _, q, _, _, xi, beta in mine])
    next_pick = [0] * l_pu
    held = {}   # relay -> (licensed user, xi, beta, relay utility)
    queue = list(range(l_pu))
    while queue:
        l = queue.pop(0)
        if next_pick[l] == len(ranked[l]):
            continue
        q, xi, beta = ranked[l][next_pick[l]]
        next_pick[l] += 1
        u = rates.u_su(l, q, beta, xi)
        acceptable = rates.rate_su(l, q, beta) >= requirements.r_su_req and u >= 0.0
        if acceptable and (q not in held or u > held[q][3]):
            if q in held:
                queue.append(held[q][0])
            held[q] = (l, xi, beta, u)
        else:
            queue.append(l)
    return {l: (q, xi, beta) for q, (l, xi, beta, _) in held.items()}


def ladder_reference(rates, requirements, grids):
    """The ladder rule as first written: before every offer the licensed
    user ranks its relays afresh with brute_pulist at its current terms.

    The head user offers to the top of that ranking or exits when it is
    empty. The relay holds the offer when it meets the relay's rate floor
    with nonnegative utility and pays strictly more than the offer held.
    The refused or displaced user concedes by concession_reference, its
    time step capped one past the grid, and rejoins the queue. Returns
    the engine's event list, {relay: (licensed user, xi, beta)} for the
    held offers, and the final price and time steps.
    """
    l_pu = rates.pu_coef.shape[0]
    n_beta = len(grids.beta_values)
    xi_step = [0] * l_pu
    beta_step = [0] * l_pu
    held = {}
    events = []
    offers = 0

    def terms(l):
        beta = float(grids.beta_values[beta_step[l]]) if beta_step[l] < n_beta else 0.0
        return float(grids.xi_values[xi_step[l]]), beta

    def concede(l, q):
        xi_step[l], beta_step[l] = concession_reference(
            xi_step[l], beta_step[l], rates.pu_coef[l, q],
            requirements.r_pu_req[l], rates.c_cost, grids)
        beta_step[l] = min(beta_step[l], n_beta)
        events.append(("puu", l, q, *terms(l), offers))

    queue = list(range(l_pu))
    while queue:
        l = queue.pop(0)
        xi, beta = terms(l)
        ranked = brute_pulist(l, xi, beta, rates, requirements)
        if not ranked:
            events.append(("prune", l, -1, xi, beta, offers))
            continue
        q = ranked[0]
        offers += 1
        events.append(("offer", l, q, xi, beta, offers))
        u = rates.u_su(l, q, beta, xi)
        better = q not in held or u > rates.u_su(held[q][0], q, held[q][2], held[q][1])
        if rates.rate_su(l, q, beta) >= requirements.r_su_req and u >= 0.0 and better:
            loser = held[q][0] if q in held else None
            held[q] = (l, xi, beta)
            events.append(("accept", l, q, xi, beta, offers))
            if loser is not None:
                events.append(("displace", loser, q, xi, beta, offers))
                concede(loser, q)
                queue.append(loser)
        else:
            events.append(("reject", l, q, xi, beta, offers))
            concede(l, q)
            queue.append(l)
    return events, held, xi_step, beta_step
