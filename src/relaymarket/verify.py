"""Checks of the negotiation's advertised guarantees.

Covers matching stability (no blocked individual, no blocking pair),
dominance over enumerated stable matchings, weak Pareto optimality,
the concession-count and packet-count ceilings, and closed-form
scaling estimates. Enumeration is guarded to tiny instances; everything
here is a pure function of an outcome plus the scenario. Each outcome
check builds the draw's dda.Market (rates, floors, grids) on entry; the
two bounds read only the licensed slopes and floors, since their time
floor is the lower end of radio.beta_interval at each row's steepest
slope.

A pair blocks where radio.licensed_gain and radio.relay_gain (its bar
the relay's held utility) both hold. is_stable alone needs each blocking
pair's first witness, so only it runs the array core, _blocking_pairs,
which reads each pair's best trade per price from radio.open_trades and
never builds a pair's whole grid. A prefilter first drops the pairs whose
licensed half fails at the top of the envelope, which is every pair of
an engine ladder outcome audited in its envelope; only the survivors
reach open_trades, AUDIT_PAIRS of them at a time.

Enumeration needs a verdict only: it decides a plan's candidates
together, one table per open pair over its users' term lists, read off
the pair's trade frontier (its terms' licensed utilities sorted, with
the best relay utility from each on). The weak-Pareto check walks no
plan: whether an alternative dominates is one bipartite matching at any
size, baselines._max_assignment's, and that matching is the witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import baselines, dda, radio
from .dda import MatchingOutcome
from .errors import GuardError

ENUM_SIDE_GUARD = 3
ENUM_GRID_GUARD = 6


@dataclass
class StabilityReport:
    """Outcome of a stability audit.

    blocked_individuals holds (side, index, reason) triples with side in
    {"pu", "su"} and reason in {"pu-rate", "su-rate", "su-utility"};
    blocking_pairs holds (l, q, (xi, beta)) with the first witness found.
    """

    blocked_individuals: list = field(default_factory=list)
    blocking_pairs: list = field(default_factory=list)

    @property
    def stable(self) -> bool:
        return not self.blocked_individuals and not self.blocking_pairs

    def describe(self) -> str:
        if self.stable:
            return "stable: no blocked individuals, no blocking pairs"
        lines = []
        for side, idx, reason in self.blocked_individuals:
            lines.append(f"blocked individual: {side}{idx} ({reason})")
        for l, q, (xi, beta) in self.blocking_pairs:
            lines.append(f"blocking pair: pu{l}/su{q} at xi={xi:.6g} beta={beta:.6g}")
        return "\n".join(lines)


# Prefilter survivors per first-witness pass. It bounds an audit's memory:
# a 100x200 contract outcome keeps about 16,500 pairs.
AUDIT_PAIRS = 1024


def _on_grid(values, grid_values, tol=1e-9):
    return np.abs(grid_values - values[:, None]).min(axis=1) <= tol


def _blocking_pairs(market, u_pu, u_su, open_pairs, xi_lo, beta_lo):
    """Blocking pairs of one outcome, each with its first witness.

    u_pu [l] and u_su [q] are the utilities held, open_pairs [l, q] marks
    the cross pairs that may block, and xi_lo, beta_lo [l] are each
    licensed user's first grid steps still on the table. Returns (l, q,
    i, j) tuples of Python ints in (l, q) order: the pair's first witness
    in xi-major grid order is (xi_values[i], beta_values[j]).

    The licensed utility rises with the price (c_cost >= 0) and
    licensed_gain holds on a prefix of the falling time grid, so a pair
    whose licensed half fails at its envelope's top point (xi_lo,
    beta_lo) blocks nowhere in it: the prefilter drops it. An engine
    ladder outcome audited in its envelope loses every pair here: each
    user offers its envelope's top point only, to its steepest relay, so
    it either holds that point there, which no other relay beats, or left
    because that relay misses its floor there, which every other relay
    then misses too.

    Each survivor's first witness is at the first i >= xi_lo where the
    best trade its relay takes from beta_lo on (radio.open_trades) gives
    l more than it holds. The relay half's zero-utility test changes no
    verdict here, since every open pair's relay holds at least 0.
    """
    rates, requirements = market.rates, market.requirements
    xis, betas = market.grids.xi_values, market.grids.beta_values
    n_xi, n_beta = len(xis), len(betas)
    ll, qq = (open_pairs & (xi_lo < n_xi)[:, None] & (beta_lo < n_beta)[:, None]).nonzero()
    survivors = radio.licensed_gain(rates, requirements, ll, qq, u_pu[ll],
                                    betas[beta_lo[ll]], xis[xi_lo[ll]]).nonzero()[0]
    found = []
    for lo in range(0, len(survivors), AUDIT_PAIRS):
        k = survivors[lo:lo + AUDIT_PAIRS, None]
        l, q = ll[k], qq[k]
        j, u = radio.open_trades(rates, requirements, l, q, u_su[q], betas, xis, beta_lo[l])
        hit = (u > u_pu[l]) & (np.arange(n_xi) >= xi_lo[l])
        rows = hit.any(axis=1).nonzero()[0]
        i = hit[rows].argmax(axis=1)
        found += zip(l[rows, 0].tolist(), q[rows, 0].tolist(), i.tolist(),
                     j[rows, i].tolist())
    return found


def _check_shape(outcome, shape):
    if outcome.shape != shape:
        raise ValueError(
            f"a {outcome.shape[0]}x{outcome.shape[1]} outcome does not fit "
            f"the {shape[0]}x{shape[1]} market it is read on")


def is_stable(outcome, realization, requirements, params):
    """Audit an outcome for blocked individuals and blocking pairs.

    Individual check: every matched licensed user clears its rate floor
    and every matched relay clears its rate floor with non-negative
    utility, under the knowledge model the scenario negotiates with.

    Pair check: a cross pair blocks if some grid allocation is feasible
    for both and strictly improves both over what they currently hold
    (zero for anyone unmatched). For outcomes carrying per-user final
    concession states, the witness search is restricted to allocations
    at or below that state in both coordinates: terms the negotiation
    had not yet conceded past are the only ones still on the table, and
    over that region the engine's offer order rules witnesses out.
    Outcomes without concession states are searched over the full grid.

    Raises ValueError when the outcome's shape is not the market's, its
    concession steps are not both absent or both l_pu integers >= 0, or a
    matched term is off the concession grids.
    """
    _check_shape(outcome, (params.l_pu, params.l_su))
    # each user's first steps still on the table, zero without a
    # negotiation history; a -1 would wrap to the grid's end
    raw = outcome.final_xi_steps, outcome.final_beta_steps
    if raw[0] is None and raw[1] is None:
        raw = np.zeros((2, params.l_pu), dtype=int)
    steps = [np.asarray(s) for s in raw]
    # unsigned steps as int: np.maximum of int64 and uint64 is float64, and
    # a uint64 past int64's range wraps below 0, refused with the negatives
    if all(s.shape == (params.l_pu,) and s.dtype.kind in "iu" for s in steps):
        steps = [s.astype(int) for s in steps]
    xi_lo, beta_lo = steps
    if any(s.shape != (params.l_pu,) or s.dtype.kind != "i" or s.min() < 0 for s in steps):
        raise ValueError(f"concession steps {raw!r} are not both absent or both "
                         f"{params.l_pu} integers >= 0")
    market = dda.market(params, realization, requirements)
    rates, requirements, grids = market.rates, market.requirements, market.grids
    terms = outcome.matched_terms()
    ls, qs, xi, beta = map(list, zip(*terms)) if terms else ([], [], [], [])
    xi, beta = np.array(xi, dtype=float), np.array(beta, dtype=float)

    xi_ok = _on_grid(xi, grids.xi_values)
    beta_ok = _on_grid(beta, grids.beta_values)
    for (l, q, xi_term, beta_term), on_xi, on_beta in zip(terms, xi_ok, beta_ok):
        if not on_xi:
            raise ValueError(
                f"price allocation {xi_term!r} for pair ({l},{q}) "
                "is off the concession grid")
        if not on_beta:
            raise ValueError(
                f"time-slot allocation {beta_term!r} for pair ({l},{q}) "
                "is off the concession grid")

    # each side's rate and held utility, once; the relay keeps relay_gain's
    # floor and zero-utility tests apart, one reason each
    pu_rate, pu_held = rates.licensed(beta, xi, ls, qs)
    su_rate, su_held = rates.relay(beta, xi, ls, qs)
    pu_ok = pu_rate >= requirements.r_pu_req[ls]
    su_rate_ok = su_rate >= requirements.r_su_req
    su_util_ok = su_held >= 0.0
    blocked = []
    open_pairs = np.ones(outcome.shape, dtype=bool)
    open_pairs[ls, qs] = False
    for l, q, pu_fine, rate_fine, util_fine in zip(ls, qs, pu_ok, su_rate_ok, su_util_ok):
        if not pu_fine:
            blocked.append(("pu", l, "pu-rate"))
            open_pairs[l, :] = False
        if not rate_fine:
            blocked.append(("su", q, "su-rate"))
        if not util_fine:
            blocked.append(("su", q, "su-utility"))
        if not (rate_fine and util_fine):
            open_pairs[:, q] = False

    # the utilities held, zero for anyone unmatched
    u_pu, u_su = np.zeros(params.l_pu), np.zeros(params.l_su)
    u_pu[ls] = pu_held
    u_su[qs] = su_held
    pairs = [(l, q, (grids.xi_terms[i], grids.beta_terms[j]))
             for l, q, i, j in _blocking_pairs(market, u_pu, u_su, open_pairs, xi_lo, beta_lo)]
    return StabilityReport(blocked_individuals=blocked, blocking_pairs=pairs)


def _check_enum_guard(params, grids):
    if params.l_pu > ENUM_SIDE_GUARD or params.l_su > ENUM_SIDE_GUARD:
        raise GuardError(
            f"enumeration refuses sides beyond {ENUM_SIDE_GUARD} "
            f"(got {params.l_pu}x{params.l_su})")
    if len(grids.xi_values) > ENUM_GRID_GUARD or len(grids.beta_values) > ENUM_GRID_GUARD:
        raise GuardError(
            f"enumeration refuses grids beyond {ENUM_GRID_GUARD} points per axis "
            f"(got {len(grids.xi_values)}x{len(grids.beta_values)})")


def _injective_maps(l_pu, l_su):
    """Every assignment of licensed users to distinct relays or -1, in
    lexicographic order."""
    for assign in itertools.product(range(-1, l_su), repeat=l_pu):
        relays = [q for q in assign if q >= 0]
        if len(set(relays)) == len(relays):
            yield assign


def enumerate_stable_matchings(realization, requirements, params):
    """Every stable (matching, allocation) on the grids, by exhaustion.

    Tiny instances only; stability here is full-grid (candidates carry no
    negotiation history, so every allocation is a potential witness). A
    pair's terms are its grid trades that meet both floors with a
    nonnegative relay utility, time share falling, then price; plans run
    in _injective_maps order, and a plan's candidates in itertools.product
    order over its pairs' term lists. A pair's frontier is its terms'
    licensed utilities sorted with, from each on, the best relay utility:
    open pair (l, q) blocks iff the frontier past what l holds beats what
    q holds, the strict tests of licensed_gain and relay_gain. A plan's
    verdicts are one bool array over its pairs' term lists; each open pair
    ORs in its lookup along l's axis compared along q's, and a trade
    between two unmatched users drops the whole plan.
    """
    market = dda.market(params, realization, requirements)
    _check_enum_guard(params, market.grids)
    rates, grids = market.rates, market.grids
    l_pu, l_su = rates.pu_coef.shape
    ls, qs = np.indices((l_pu, l_su))[..., None, None]
    betas, xis = grids.beta_values[:, None], grids.xi_values
    ok = (radio.licensed_gain(rates, market.requirements, ls, qs, -np.inf, betas, xis)
          & radio.relay_gain(rates, market.requirements, ls, qs, -np.inf, betas, xis))
    terms, held, frontier = {}, {}, {}
    for l, q in np.ndindex(l_pu, l_su):
        j, i = ok[l, q].nonzero()
        terms[l, q] = xi, beta = grids.xi_values[i], grids.beta_values[j]
        held[l, q] = ul, ur = rates.licensed(beta, xi, l, q)[1], rates.relay(beta, xi, l, q)[1]
        if len(xi):   # a pair with no terms has no trade to block with
            order = ul.argsort()
            best = np.maximum.accumulate(ur[order[::-1]])[::-1]
            frontier[l, q] = ul[order], np.append(best, -np.inf)
    stable = []
    for assign in _injective_maps(l_pu, l_su):
        pairs = [(l, q) for l, q in enumerate(assign) if q >= 0]
        if not all(len(terms[pair][0]) for pair in pairs):
            continue
        blocked = np.zeros([len(terms[pair][0]) for pair in pairs], dtype=bool)
        pu_held, su_held = {}, {}   # what each matched user holds, along its pair's axis
        for k, (l, q) in enumerate(pairs):
            view = [-1 if axis == k else 1 for axis in range(len(pairs))]
            pu_held[l], su_held[q] = (u.reshape(view) for u in held[l, q])
        for (l, q), (ul, best) in frontier.items():
            if (l, q) in pairs:
                continue
            # an unmatched user holds 0.0
            trade = best[ul.searchsorted(pu_held.get(l, 0.0), side="right")] > su_held.get(q, 0.0)
            if l in pu_held or q in su_held:
                blocked |= trade
            elif trade:   # two unmatched users trade, whatever the plan's terms
                break
        else:
            xs = [terms[pair][0] for pair in pairs]
            bs = [terms[pair][1] for pair in pairs]
            for picks in np.argwhere(~blocked).tolist():
                stable.append(MatchingOutcome(l_pu, l_su, [
                    (l, q, x.item(t), b.item(t))
                    for (l, q), x, b, t in zip(pairs, xs, bs, picks)]))
    return stable


def pu_utilities(outcome, rates):
    """Per licensed user utility under an outcome, zero when unmatched: the
    utility of radio.PairRates.licensed, spelled out on floats read with
    ndarray.item. Raises ValueError when the outcome's shape is not
    the rates'."""
    _check_shape(outcome, rates.pu_coef.shape)
    out = np.zeros(outcome.shape[0])
    for l, q, xi, beta in outcome.matched_terms():
        out[l] = rates.pu_coef.item(l, q) * beta + rates.c_cost * xi
    return out


def check_weak_pareto(outcome, realization, requirements, params):
    """No feasible alternative strictly improves every matched licensed user.

    Quantifies over the users the outcome matched; an empty matching
    passes vacuously, and a user holding less than 0.0 gains by going
    unmatched. Each pair picks its terms on its own, so an alternative
    dominates iff the other matched users each get a relay of their own
    with an acceptable grid term worth more than they hold: one covering
    matching, which baselines._max_assignment finds. Returns (True, None)
    or (False, witness outcome): that matching, each pair at its first
    improving term (time share falling, then price), everyone else
    unmatched. Raises ValueError when the outcome's shape is not the
    market's.
    """
    _check_shape(outcome, (params.l_pu, params.l_su))
    if not outcome.matched_terms():
        return True, None
    market = dda.market(params, realization, requirements)
    rates, grids = market.rates, market.grids
    base = pu_utilities(outcome, rates).tolist()
    users = [l for l, _ in outcome.matched_pairs() if not 0.0 > base[l]]
    qs = np.arange(params.l_su)[:, None, None]
    betas, xis = grids.beta_values[:, None], grids.xi_values
    edges = np.zeros((len(users), params.l_su), dtype=bool)
    first = np.zeros(edges.shape, dtype=int)   # each edge's first improving term, [beta, xi] flat
    for k, l in enumerate(users):
        hit = (radio.licensed_gain(rates, market.requirements, l, qs, base[l], betas, xis)
               & radio.relay_gain(rates, market.requirements, l, qs, -np.inf, betas, xis))
        edges[k], first[k] = hit.any(axis=(1, 2)), hit.reshape(params.l_su, -1).argmax(axis=1)

    pairs = baselines._max_assignment(edges * 1.0, edges)
    if len(pairs) < len(users):
        return True, None
    terms = []
    for k, q in pairs:
        j, i = divmod(first.item(k, q), len(grids.xi_values))
        terms.append((users[k], q, grids.xi_values.item(i), grids.beta_values.item(j)))
    return False, MatchingOutcome(params.l_pu, params.l_su, terms)


def per_pu_puu_bounds(params, realization, requirements=None):
    """Per licensed user ceiling on concession invocations (integer): its
    price steps plus its time steps down to the smallest time share any of
    its pairs can still work at, capped at the opening time share, rounded
    up, plus one.

    That share is the row minimum of radio.beta_interval's lower end, read
    off the licensed slopes alone. Division by a positive slope is
    monotone under round-to-nearest, so the minimum is the end at the
    row's largest slope; zero slopes and zero floors follow
    radio.licensed_floor_share, beta_interval's own rule. A row of zero
    slopes under a positive floor works nowhere and counts the opening
    share.
    """
    if requirements is None:
        requirements = radio.requirements_for(params, realization)
    steepest = radio.licensed_slopes(params, realization).max(axis=1)
    floors = np.minimum(radio.licensed_floor_share(requirements.r_pu_req, steepest),
                        params.beta_init)
    budgets = params.xi_init / params.delta + (params.beta_init - floors) / params.epsilon
    return np.ceil(budgets).astype(int) + 1


def packet_bound(params, realization, requirements=None):
    """Ceiling on control packets exchanged over a whole run.

    (l_pu + max(l_pu, l_su)) control messages per round, for at most the
    largest per-user ceiling of rounds (per_pu_puu_bounds, which holds one
    round of slack for the terminal no-op).
    """
    rounds = per_pu_puu_bounds(params, realization, requirements).max()
    return float((params.l_pu + max(params.l_pu, params.l_su)) * rounds)


def complexity_estimates(l_pu, l_su):
    """Scaling indicators for the three mechanisms (not exact op counts)."""
    big, small = max(l_pu, l_su), min(l_pu, l_su)
    centralized = (math.factorial(big) // math.factorial(big - small)) * 2 ** (2 * big + small)
    return {
        "centralized": centralized,
        "proposed": l_pu * l_su,
        "rmbn": l_pu,
    }
