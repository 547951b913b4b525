"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way: a linear
program or a full grid scan where the package solves analytically or sorts
arrays, plain double loops where the package vectorizes, exhaustive
recursion where the package runs shortest augmenting paths. None of it imports
from the implementation modules beyond plain data carried in their types.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np


def stability_reference(outcome, rates, requirements, grids):
    """Stability audit as plain loops: (blocked individuals, blocking pairs).

    Each matched pair, in (l, q) order, can block its licensed user on the
    licensed rate floor, then its relay on the relay rate floor and on a
    negative relay utility, listed as (side, index, reason). Blocked users
    form no pairs. Any other cross pair blocks when some grid terms meet
    both rate floors and strictly raise both users' utilities; its first
    witness in xi-major grid order is listed as (l, q, (xi, beta)). When
    the outcome carries terminal concession steps, a licensed user's
    candidate terms start at those steps; otherwise the whole grid is in
    play. Plain floats carry the same double-precision arithmetic.
    """
    l_pu, l_su = rates.pu_coef.shape
    pu_coef = rates.pu_coef.tolist()
    su_coef = rates.su_coef.tolist()
    r_pu = requirements.r_pu_req.tolist()
    r_su = requirements.r_su_req
    c_cost, k_cost = rates.c_cost, rates.k_cost
    u_pu = [0.0] * l_pu
    u_su = [0.0] * l_su
    blocked = []
    matched = set()
    for l, q, xi, beta in sorted(outcome.matched_terms()):
        xi, beta = float(xi), float(beta)
        matched.add((l, q))
        if pu_coef[l][q] * beta < r_pu[l]:
            blocked.append(("pu", l, "pu-rate"))
        if su_coef[l][q] * (1.0 - beta) < r_su:
            blocked.append(("su", q, "su-rate"))
        if su_coef[l][q] * (1.0 - beta) - k_cost * xi < 0.0:
            blocked.append(("su", q, "su-utility"))
        u_pu[l] = pu_coef[l][q] * beta + c_cost * xi
        u_su[q] = su_coef[l][q] * (1.0 - beta) - k_cost * xi
    out_pu = {idx for side, idx, _ in blocked if side == "pu"}
    out_su = {idx for side, idx, _ in blocked if side == "su"}
    pairs = []
    for l in range(l_pu):
        if l in out_pu:
            continue
        xi_start = beta_start = 0
        if outcome.final_xi_steps is not None:
            xi_start = int(outcome.final_xi_steps[l])
            beta_start = int(outcome.final_beta_steps[l])
        for q in range(l_su):
            if q in out_su or (l, q) in matched:
                continue
            hit = None
            for xi in grids.xi_values[xi_start:].tolist():
                for beta in grids.beta_values[beta_start:].tolist():
                    if pu_coef[l][q] * beta < r_pu[l]:
                        continue
                    if su_coef[l][q] * (1.0 - beta) < r_su:
                        continue
                    if pu_coef[l][q] * beta + c_cost * xi <= u_pu[l]:
                        continue
                    if su_coef[l][q] * (1.0 - beta) - k_cost * xi <= u_su[q]:
                        continue
                    hit = (xi, beta)
                    break
                if hit:
                    break
            if hit:
                pairs.append((l, q, hit))
    return blocked, pairs


def grid_candidates(rates, requirements, grids):
    """Every feasible (matching, allocation) on the grids as (m, g, b).

    Matchings run over the tuples (relay of user 0, relay of user 1, ...)
    in lexicographic order with -1 for unmatched; a pair's terms are the
    grid points, time share falling first, then price, that meet both rate
    floors with a nonnegative relay utility; the matched pairs' terms
    combine in itertools.product order.
    """
    l_pu, l_su = rates.pu_coef.shape
    terms = {}
    for l in range(l_pu):
        for q in range(l_su):
            terms[l, q] = [
                (xi, beta)
                for beta in grids.beta_values.tolist()
                for xi in grids.xi_values.tolist()
                if rates.pu_coef[l, q] * beta >= requirements.r_pu_req[l]
                and rates.su_coef[l, q] * (1.0 - beta) >= requirements.r_su_req
                and rates.su_coef[l, q] * (1.0 - beta) - rates.k_cost * xi >= 0.0]
    found = []
    for assign in itertools.product(range(-1, l_su), repeat=l_pu):
        relays = [q for q in assign if q >= 0]
        if len(set(relays)) < len(relays):
            continue
        pairs = [(l, q) for l, q in enumerate(assign) if q >= 0]
        for combo in itertools.product(*(terms[pair] for pair in pairs)):
            m = np.zeros((l_pu, l_su), dtype=int)
            g = np.zeros((l_pu, l_su))
            b = np.zeros((l_pu, l_su))
            for (l, q), (xi, beta) in zip(pairs, combo):
                m[l, q] = 1
                g[l, q] = xi
                b[l, q] = beta
            found.append((m, g, b))
    return found


def first_improving_terms(outcome, rates, requirements, grids):
    """Per matched licensed user holding at least 0.0 and per relay, the
    first grid term, time share falling, then price, that meets both floors
    with a nonnegative relay utility and pays the user more than it holds:
    {(l, q): (xi, beta) or None}, by a plain float loop. A user holding
    less than 0.0 is improved by being left unmatched, so it has no entry.
    """
    l_su = rates.pu_coef.shape[1]
    held = {l: rates.pu_coef[l, q] * beta + rates.c_cost * xi
            for l, q, xi, beta in outcome.matched_terms()}
    first = {}
    for l in [l for l in sorted(held) if held[l] >= 0.0]:
        for q in range(l_su):
            first[l, q] = next((
                (xi, beta)
                for beta in grids.beta_values.tolist()
                for xi in grids.xi_values.tolist()
                if rates.pu_coef[l, q] * beta >= requirements.r_pu_req[l]
                and rates.su_coef[l, q] * (1.0 - beta) >= requirements.r_su_req
                and rates.su_coef[l, q] * (1.0 - beta) - rates.k_cost * xi >= 0.0
                and rates.pu_coef[l, q] * beta + rates.c_cost * xi > held[l]), None)
    return first


def weak_pareto_reference(outcome, rates, requirements, grids):
    """The first alternative that strictly improves every matched licensed
    user, as (l, q, xi, beta) terms, or None when there is none.

    The users that need a pair are those of first_improving_terms, each at
    its pair's first improving term. Their relays run over
    itertools.permutations, whose lexicographic order is the order of the
    assignments with every other user unmatched.
    """
    if not outcome.matched_terms():
        return None
    first = first_improving_terms(outcome, rates, requirements, grids)
    users = sorted({l for l, _ in first})
    for relays in itertools.permutations(range(rates.pu_coef.shape[1]), len(users)):
        if all(first[l, q] is not None for l, q in zip(users, relays)):
            return [(l, q, *first[l, q]) for l, q in zip(users, relays)]
    return None


def lp_pair_optimum(coef, su_coef, pu_floor, su_floor, c_cost, k_cost):
    """Best licensed utility for one pair as a linear program in (xi, beta).

    Maximizes coef*beta + c_cost*xi over 0 <= xi, beta <= 1 subject to
    coef*beta >= pu_floor, su_coef*(1 - beta) >= su_floor and
    su_coef*(1 - beta) - k_cost*xi >= 0, with HiGHS. Returns
    (utility, xi, beta) or None when infeasible.
    """
    from scipy.optimize import linprog   # scipy is a test-only dependency

    res = linprog(c=[-c_cost, -coef],
                  A_ub=[[0.0, -coef], [0.0, su_coef], [k_cost, su_coef]],
                  b_ub=[-pu_floor, su_coef - su_floor, su_coef],
                  bounds=[(0.0, 1.0), (0.0, 1.0)], method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    xi, beta = (float(v) for v in res.x)
    return coef * beta + c_cost * xi, xi, beta


def expected_relay_log_term(gamma_dir, gamma_first_hop, mean_forward_gain, formula):
    """E_h[log2(1 + gamma_dir + AF(gamma_first_hop, mean_forward_gain * h))]
    for h ~ Exp(1), by adaptive quadrature of log2(...) * exp(-h) over h.

    AF is restated here: "paper" is x/(x + 1) with x the product of the hop
    SNRs, "standard" is g1*g2/(g1 + g2 + 1). The half-line is cut at
    log-spaced points so a sharp bend at a tiny or huge hop SNR is not
    stepped over.
    """
    from scipy.integrate import quad   # scipy is a test-only dependency

    g1, m = float(gamma_first_hop), float(mean_forward_gain)

    def integrand(h):
        g2 = m * h
        if formula == "paper":
            relayed = g1 * g2 / (g1 * g2 + 1.0)
        else:
            relayed = g1 * g2 / (g1 + g2 + 1.0)
        return math.log2(1.0 + gamma_dir + relayed) * math.exp(-h)

    cuts = [0.0] + [10.0 ** k for k in range(-9, 2)] + [math.inf]
    return sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for lo, hi in zip(cuts, cuts[1:]))


def reference_draw(params, seed):
    """One trial's placement and channels re-derived with plain numpy from
    SeedSequence(seed): every intermediate the draw passes through, as a
    namespace.

    Placement takes the first spawned child: licensed heights, then relay
    transmitters and receivers, redrawn while a relay pair coincides.
    Channels take the second: squared gains -log1p(-u) in the order
    direct, transmitter-to-relay, relay-to-receiver, relay pair. Distances
    come from np.linalg.norm, each SNR from the link budget g * h2 / d **
    alpha written out, and the composite relayed SNR from the AF closed
    form restated. The relay pairs' gains come [q, l], one pair's bands per
    row; their SNRs gamma_sr are returned [l, q], like every pair array.
    """
    place_ss, chan_ss = np.random.SeedSequence(seed).spawn(2)
    l_pu, l_su, alpha = params.l_pu, params.l_su, params.alpha
    rng = np.random.default_rng(place_ss)
    while True:
        y = rng.uniform(-1.0, 1.0, l_pu)
        st_pos = rng.uniform(-0.5, 0.5, (l_su, 2))
        sr_pos = rng.uniform(-0.5, 0.5, (l_su, 2))
        if np.linalg.norm(st_pos - sr_pos, axis=1).min() >= 1e-6:
            break
    pt_pos = np.column_stack((np.full(l_pu, -1.0), y))
    pr_pos = np.column_stack((np.full(l_pu, 1.0), y))

    rng = np.random.default_rng(chan_ss)
    h2_pt_pr, h2_pt_st, h2_st_pr, h2_st_sr = (
        -np.log1p(-rng.random(shape)) for shape in (l_pu, (l_pu, l_su), (l_pu, l_su), (l_su, l_pu)))
    norm = np.linalg.norm
    d_pt_pr = norm(pt_pos - pr_pos, axis=1)
    d_pt_st = norm(pt_pos[:, None] - st_pos[None], axis=2)
    d_st_pr = norm(pr_pos[:, None] - st_pos[None], axis=2)
    d_st_sr = norm(st_pos - sr_pos, axis=1)

    g_pt = float(10.0 ** (np.asarray(params.gamma_pu_db, dtype=float) / 10.0))
    g_st = float(10.0 ** (np.asarray(params.gamma_su_db, dtype=float) / 10.0))
    gamma_pt_st = g_pt * h2_pt_st / d_pt_st ** alpha
    gamma_st_pr = g_st * h2_st_pr / d_st_pr ** alpha
    if params.af_formula == "paper":
        gamma_relay = gamma_pt_st * gamma_st_pr / (gamma_pt_st * gamma_st_pr + 1.0)
    else:
        gamma_relay = gamma_pt_st * gamma_st_pr / (gamma_pt_st + gamma_st_pr + 1.0)
    return SimpleNamespace(
        pt_pos=pt_pos, pr_pos=pr_pos, st_pos=st_pos, sr_pos=sr_pos,
        h2_pt_pr=h2_pt_pr, h2_pt_st=h2_pt_st, h2_st_pr=h2_st_pr, h2_st_sr=h2_st_sr,
        d_pt_pr=d_pt_pr, d_pt_st=d_pt_st, d_st_pr=d_st_pr, d_st_sr=d_st_sr,
        gamma_dir=g_pt * h2_pt_pr / d_pt_pr ** alpha,
        gamma_pt_st=gamma_pt_st, gamma_st_pr=gamma_st_pr, gamma_relay=gamma_relay,
        gamma_sr=(g_st * h2_st_sr / d_st_sr[:, None] ** alpha).T)


def partial_mean_log_reference(draw, params, streams, samples):
    """Per-pair expected log terms of a partial-knowledge draw, as plain
    loops over the pairs: [l, q].

    Pair (l, q) takes streams[l * l_su + q] and averages log2(1 + gamma_dir
    + AF(gamma_pt_st, gain * h)) over `samples` stratified draws of h ~
    Exp(1), where gain = g_st / d_st_pr ** alpha is taken with a scalar
    power. The dB conversion and AF are restated; the SNRs and distances
    are read off draw, a reference_draw.
    """
    g_st = float(10.0 ** (np.asarray(params.gamma_su_db, dtype=float) / 10.0))
    l_pu, l_su = draw.d_st_pr.shape
    out = np.empty((l_pu, l_su))
    for l in range(l_pu):
        for q in range(l_su):
            gain = g_st / draw.d_st_pr[l, q] ** params.alpha
            rng = streams[l * l_su + q]
            u = (np.arange(samples) + rng.random(samples)) / samples
            g1, g2 = draw.gamma_pt_st[l, q], gain * -np.log1p(-u)
            if params.af_formula == "paper":
                relayed = g1 * g2 / (g1 * g2 + 1.0)
            else:
                relayed = g1 * g2 / (g1 + g2 + 1.0)
            x = draw.gamma_dir[l] + relayed
            out[l, q] = float(np.mean(np.log1p(x) / math.log(2.0)))
    return out


def discrete_pair_optimum(coef, su_coef, pu_floor, su_floor, c_cost, k_cost, grids):
    """Best licensed utility for one pair over every grid point.

    Scans price-major from the highest price and the longest time, and
    only a strictly better point replaces the incumbent, so ties keep the
    higher price, then the longer time. A point counts when it meets both
    rate floors with a nonnegative relay utility. Returns (utility, xi,
    beta) or None when no point does.
    """
    best = None
    for xi in grids.xi_values.tolist():
        for beta in grids.beta_values.tolist():
            relay_rate = su_coef * (1.0 - beta)
            if coef * beta < pu_floor or relay_rate < su_floor:
                continue
            if relay_rate - k_cost * xi < 0.0:
                continue
            u = coef * beta + c_cost * xi
            if best is None or u > best[0]:
                best = (u, xi, beta)
    return best


def brute_pulist(l, xi, beta, rates, requirements):
    """Relay ranking for licensed pair l, rebuilt the long way."""
    scored = []
    for q in range(rates.pu_coef.shape[1]):
        if rates.pu_coef[l, q] * beta >= requirements.r_pu_req[l]:
            scored.append((rates.pu_coef[l, q] * beta + rates.c_cost * xi, q))
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


def injective_maps_reference(l_pu, l_su):
    """Every assignment of licensed users to distinct relays or -1, by
    recursion: per user -1 first, then the free relays in index order."""
    def rec(l, used, acc):
        if l == l_pu:
            yield tuple(acc)
            return
        acc.append(-1)
        yield from rec(l + 1, used, acc)
        acc.pop()
        for q in range(l_su):
            if q not in used:
                used.add(q)
                acc.append(q)
                yield from rec(l + 1, used, acc)
                acc.pop()
                used.remove(q)
    yield from rec(0, set(), [])


def assignment_reference(values, feasible):
    """Exhaustive max-total assignment over partial injective matchings:
    (total, relay per licensed user, -1 unmatched).

    Iterates choices per licensed user in the order unmatched, relay 0,
    relay 1, ... and keeps the first strictly better total, so ties
    resolve to the lexicographically smallest assignment vector and a
    zero-value pair stays unmatched.
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


def concession_reference(m_xi, m_beta, coef, rate_floor, c_cost, grids):
    """Restate the one-step concession rule from its decision table."""
    xi_vals, beta_vals = grids.xi_values, grids.beta_values

    def beta_of(m):
        return float(beta_vals[m]) if m < len(beta_vals) else 0.0

    at_price_floor = m_xi >= grids.last_positive_xi
    if at_price_floor:
        return m_xi, m_beta + 1
    next_beta = beta_of(m_beta + 1)
    time_cut_breaks_floor = coef * next_beta <= rate_floor
    if time_cut_breaks_floor:
        return m_xi + 1, m_beta
    keep_after_price = coef * beta_of(m_beta) + c_cost * float(xi_vals[m_xi + 1])
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
                    if rates.pu_coef[l, q] * beta >= requirements.r_pu_req[l]:
                        u = rates.pu_coef[l, q] * beta + rates.c_cost * xi
                        mine.append((-u, q, i, j, float(xi), float(beta)))
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
        rate = rates.su_coef[l, q] * (1.0 - beta)
        u = rate - rates.k_cost * xi
        acceptable = rate >= requirements.r_su_req and u >= 0.0
        if acceptable and (q not in held or u > held[q][3]):
            if q in held:
                queue.append(held[q][0])
            held[q] = (l, xi, beta, u)
        else:
            queue.append(l)
    return {l: (q, xi, beta) for q, (l, xi, beta, _) in held.items()}


def relay_proposing_contracts(rates, requirements, grids):
    """Relay-proposing deferred acceptance, every contract spelled out: the
    mirror of contract_deferred_acceptance with the sides swapped.

    Each relay ranks every grid contract (l, xi, beta) that meets its own
    rate floor with nonnegative utility by its utility, ties to the smaller
    licensed user, then the lower price, then the shorter time, and
    proposes them one per turn with no knowledge of the licensed users. A
    licensed user holds an offer when it meets the user's rate floor and
    is worth strictly more to it than the one held; the refused or
    displaced relay rejoins the queue. Returns {licensed user: (relay, xi,
    beta)} for the matched users.
    """
    l_pu, l_su = rates.pu_coef.shape
    ranked = []
    for q in range(l_su):
        mine = []
        for l in range(l_pu):
            for i, xi in enumerate(grids.xi_values):
                for j, beta in enumerate(grids.beta_values):
                    rate = rates.su_coef[l, q] * (1.0 - beta)
                    u = rate - rates.k_cost * xi
                    if rate >= requirements.r_su_req and u >= 0.0:
                        mine.append((-u, l, -i, -j, float(xi), float(beta)))
        mine.sort()
        ranked.append([(l, xi, beta) for _, l, _, _, xi, beta in mine])
    next_pick = [0] * l_su
    held = {}   # licensed user -> (relay, xi, beta, licensed utility)
    queue = list(range(l_su))
    while queue:
        q = queue.pop(0)
        if next_pick[q] == len(ranked[q]):
            continue
        l, xi, beta = ranked[q][next_pick[q]]
        next_pick[q] += 1
        rate = rates.pu_coef[l, q] * beta
        u = rate + rates.c_cost * xi
        if rate >= requirements.r_pu_req[l] and (l not in held or u > held[l][3]):
            if l in held:
                queue.append(held[l][0])
            held[l] = (q, xi, beta, u)
        else:
            queue.append(q)
    return {l: (q, xi, beta) for l, (q, xi, beta, _) in held.items()}


def open_trades_reference(rates, requirements, betas, l, q, bar, xi, lo):
    """The best trade pair (l, q)'s relay takes at price xi from time index
    lo on, by a plain scan of the falling time grid betas: (j, u). j is
    the first index >= lo where the relay meets its floor and keeps a
    nonnegative utility above bar, len(betas) if none; u is the licensed
    utility there, minus infinity where j is len(betas) or the licensed
    floor misses at j."""
    for j in range(lo, len(betas)):
        beta = float(betas[j])
        su_rate = float(rates.su_coef[l, q]) * (1.0 - beta)
        u_su = su_rate - rates.k_cost * xi
        if su_rate >= requirements.r_su_req and u_su >= 0.0 and u_su > bar:
            pu_rate = float(rates.pu_coef[l, q]) * beta
            if pu_rate >= float(requirements.r_pu_req[l]):
                return j, pu_rate + rates.c_cost * xi
            return j, -math.inf
    return len(betas), -math.inf


def open_contract_utilities(market, bar, l):
    """User l's licensed utility of every grid contract with each relay,
    minus infinity where closed, as one full-grid broadcast: [relays,
    xi-major grid]. A contract is open when it clears l's rate floor and
    the relay's, leaves the relay a nonnegative utility and gives it more
    than bar[l, q]."""
    rates, requirements, grids = market.rates, market.requirements, market.grids
    beta, xi = grids.beta_values, grids.xi_values[:, None]
    pu_rate = rates.pu_coef[l, :, None, None] * beta
    su_rate = rates.su_coef[l, :, None, None] * (1.0 - beta)
    u_su = su_rate - rates.k_cost * xi
    open_ = ((pu_rate >= requirements.r_pu_req[l])
             & (su_rate >= requirements.r_su_req) & (u_su >= 0.0)
             & (u_su > bar[l, :, None, None]))
    return np.where(open_, pu_rate + rates.c_cost * xi, -np.inf).reshape(
        len(bar[l]), -1)


def best_contracts_reference(market, bar, l):
    """User l's best open contract with each relay under the bars, from
    the full-grid broadcast: (best_u [q], best_k [q], count open). best_k
    is the xi-major grid index, ties to the first (the higher price, then
    the longer time); it means nothing where best_u is minus infinity."""
    u_pu = open_contract_utilities(market, bar, l)
    return u_pu.max(axis=1), u_pu.argmax(axis=1), int(np.count_nonzero(u_pu > -np.inf))


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
        rate = rates.su_coef[l, q] * (1.0 - beta)
        u = rate - rates.k_cost * xi
        if q in held:
            hl, hxi, hbeta = held[q]
            better = u > rates.su_coef[hl, q] * (1.0 - hbeta) - rates.k_cost * hxi
        else:
            better = True
        if rate >= requirements.r_su_req and u >= 0.0 and better:
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


def haggle_reference(rates, requirements, grids, pairs):
    """Bilateral haggling on fixed pairs, one pair at a time, as plain loops.

    Each (l, q) opens at the initial terms. While the licensed rate at the
    current time share clears l's floor, l offers; relay q takes the offer
    when it meets the relay's rate floor with nonnegative utility, and
    otherwise l concedes one step by concession_reference, its time step
    capped one past the grid, and offers again. A pair whose licensed
    rate misses the floor stops unmatched. Returns {licensed user: (relay,
    xi, beta)} for the matched pairs, the offer count and the per-user
    concession counts.
    """
    n_beta = len(grids.beta_values)
    matched = {}
    offers = 0
    conceded = [0] * rates.pu_coef.shape[0]
    for l, q in pairs:
        m_xi = m_beta = 0
        while True:
            xi = float(grids.xi_values[m_xi])
            beta = float(grids.beta_values[m_beta]) if m_beta < n_beta else 0.0
            if rates.pu_coef[l, q] * beta < requirements.r_pu_req[l]:
                break
            offers += 1
            rate = rates.su_coef[l, q] * (1.0 - beta)
            if rate >= requirements.r_su_req and rate - rates.k_cost * xi >= 0.0:
                matched[l] = (q, xi, beta)
                break
            m_xi, m_beta = concession_reference(
                m_xi, m_beta, rates.pu_coef[l, q], requirements.r_pu_req[l],
                rates.c_cost, grids)
            m_beta = min(m_beta, n_beta)
            conceded[l] += 1
    return matched, offers, conceded
