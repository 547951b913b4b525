"""Deferred-acceptance negotiation engines.

Two rules, selected by the scenario's `negotiation` key. The default,
"ladder", is the concession engine below: one global concession state per
licensed pair. "contracts" runs licensed-proposing deferred acceptance over
the grid contracts (q, xi, beta); see run_contracts. Both read one Market
(floors, rates and grids of a channel draw), built by market().

Ladder rule. Licensed pairs wait in a queue. The head pair offers its
current (xi, beta) terms to its best relay; the relay takes the offer if
it clears both relay-side conditions and beats whatever the relay
currently holds. A turned-down (or displaced) pair concedes exactly one
grid step and requeues at the tail. A pair whose best relay misses its
rate floor leaves for good, and the run ends when the queue drains.

A pair values relay q at pu_coef[l, q] * beta + c * xi. The money term is
the same for every relay, so the best relay is always the one with the
steepest slope, and when that one misses the floor every other relay
does too. Each pair therefore keeps one fixed relay order, by falling
slope, and offers to its head (see _best_relay for rounding ties).

Terms live on the concession grids {init - m*step}. The engine tracks the
integer step counts and reads the terms from the grids' float sequences,
so grid membership is exact. The offer loop works on plain Python ints
and floats: slopes are read one at a time with ndarray.item, and a Python
float does the same IEEE-754 double arithmetic as a numpy scalar, only
without the boxing, so runs replay bit for bit. The one concession rule
is concession_step. negotiate stops the loop with an EngineError past
its offer bound (see there) rather than trusting the theory to end it.

Either rule can also run on a fixed partner per licensed user (negotiate's
partners, -1 sitting out): each user then negotiates with that relay
alone, which is how the random baseline negotiates.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import radio
from .errors import EngineError


@dataclass(frozen=True)
class Grids:
    """Discrete offer domains, descending from the initial values.

    xi_terms and beta_terms hold the same points as Python floats for the
    ladder's offer loop; beta_terms ends with one 0.0 past the grid, the
    time value of a pair that has conceded every time step.
    """
    xi_values: np.ndarray
    beta_values: np.ndarray
    last_positive_xi: int   # largest index whose price is still positive
    xi_terms: tuple
    beta_terms: tuple

    def beta_at(self, m):
        """Time-slot value at step m; steps past the grid floor at zero."""
        return self.beta_terms[m] if m < len(self.beta_terms) else 0.0


def _grid(init, step):
    count = int(math.floor(init / step + 1e-9))
    vals = init - step * np.arange(count + 1)
    vals[vals < 0.0] = 0.0   # the final point can round a hair below zero
    return vals


def concession_grids(params):
    xi = _grid(params.xi_init, params.delta)
    beta = _grid(params.beta_init, params.epsilon)
    positive = np.nonzero(xi > 1e-12)[0]
    last_pos = int(positive[-1]) if len(positive) else 0
    return Grids(xi_values=xi, beta_values=beta, last_positive_xi=last_pos,
                 xi_terms=tuple(xi.tolist()), beta_terms=(*beta.tolist(), 0.0))


@dataclass(frozen=True)
class Market:
    """One channel draw's market, built by market()."""
    params: object
    realization: object
    requirements: radio.Requirements
    rates: radio.PairRates        # negotiated with, under params.snr_knowledge
    rates_real: radio.PairRates   # complete knowledge, to score outcomes with;
                                  # the rates object itself when knowledge is complete
    grids: Grids


def market(params, realization, requirements=None):
    """The market of one realization; floors default to radio.requirements_for."""
    if requirements is None:
        requirements = radio.requirements_for(params, realization.snr)
    rates = rates_real = radio.make_pair_rates(params, realization)
    if params.snr_knowledge != "complete":
        rates_real = radio.make_pair_rates(
            replace(params, snr_knowledge="complete"), realization)
    return Market(params, realization, requirements, rates, rates_real,
                  concession_grids(params))


@dataclass
class MatchingOutcome:
    """Matching matrix plus the agreed terms, zero wherever unmatched.

    Ladder outcomes also carry each licensed pair's terminal concession-grid
    steps; stability checks use them as the envelope of terms the pair had
    not yet conceded past. Contract, hand-built and baseline outcomes leave
    them None.
    """
    m: np.ndarray
    g: np.ndarray
    b: np.ndarray
    final_xi_steps: np.ndarray | None = None
    final_beta_steps: np.ndarray | None = None

    @classmethod
    def from_terms(cls, l_pu, l_su, terms, **steps):
        """Outcome holding the matched (l, q, xi, beta) terms; keyword
        arguments fill the concession-step fields."""
        m = np.zeros((l_pu, l_su), dtype=int)
        g = np.zeros((l_pu, l_su))
        b = np.zeros((l_pu, l_su))
        for l, q, xi, beta in terms:
            m[l, q] = 1
            g[l, q] = xi
            b[l, q] = beta
        return cls(m=m, g=g, b=b, **steps)

    def matched_pairs(self):
        return [(int(l), int(q)) for l, q in zip(*np.nonzero(self.m))]


@dataclass
class EngineTrace:
    """Per-run instrumentation. Events are (kind, l, q, xi, beta, iteration)
    with kind one of offer/accept/reject/displace/puu/prune."""
    events: list
    offers: int
    puu_counts: np.ndarray

    @property
    def packets(self):
        """Control packets: each offer and the response it draws."""
        return 2 * self.offers

    def to_jsonl(self, fp):
        for kind, l, q, xi, beta, it in self.events:
            fp.write(json.dumps({"kind": kind, "pu": l, "su": q,
                                 "xi": xi, "beta": beta, "iteration": it}) + "\n")


@dataclass
class EngineState:
    """The ladder's working state. Per-user fields are lists indexed by
    licensed pair; finish turns the counters into arrays."""
    market: Market
    queue: deque
    relay_order: list         # per licensed pair: relays by falling pu_coef, or its partner
    accepted: list            # per relay: (l, xi, beta) held, or None
    floors: list              # rate floors r_pu_req
    m_xi: list                # price steps conceded
    m_beta: list              # time steps conceded, at most one past the grid
    puu_counts: list          # concessions made
    offers: int = 0
    events: list = field(default_factory=list)

    @property
    def terminal(self):
        return not self.queue


def _bidders(l_pu, partners):
    """The licensed users that negotiate, in index order: every one, or
    those with a partner."""
    if partners is None:
        return deque(range(l_pu))
    return deque(np.flatnonzero(partners >= 0).tolist())


def init_state(market, partners=None):
    """Opening state; with partners, each user's relay order is its partner."""
    if np.any(market.requirements.r_pu_req <= 0.0):
        raise ValueError(
            "negotiation needs positive licensed rate floors; a zero floor "
            "makes the zero-time state acceptable forever and the run never ends")
    l_pu, l_su = market.params.l_pu, market.params.l_su
    if partners is None:
        relay_order = np.argsort(-market.rates.pu_coef, axis=1, kind="stable").tolist()
    else:
        relay_order = [[q] for q in partners.tolist()]
    return EngineState(
        market=market,
        queue=_bidders(l_pu, partners),
        relay_order=relay_order,
        accepted=[None] * l_su,
        floors=market.requirements.r_pu_req.tolist(),
        m_xi=[0] * l_pu,
        m_beta=[0] * l_pu,
        puu_counts=[0] * l_pu,
    )


def _best_relay(state, l, xi, beta):
    """The relay pair l offers to at (xi, beta), or -1 when none clears its
    floor: the best by licensed utility, ties to the smaller index.

    Slopes fall along the relay order, so rates and utilities never rise
    along it. Rounding can still give a shallower relay the head's exact
    utility; those ties are walked and the smallest index taken. Rates and
    utilities are PairRates.rate_pu and u_pu, spelled out on floats.
    """
    coef, money = state.market.rates.pu_coef, state.market.rates.c_cost * xi
    floor = state.floors[l]
    order = state.relay_order[l]
    best = order[0]
    rate = coef.item(l, best) * beta
    if rate < floor:
        return -1
    if len(order) == 1:
        return best
    top = rate + money
    for q in itertools.islice(order, 1, None):
        rate = coef.item(l, q) * beta
        if rate + money != top or rate < floor:
            break
        best = min(best, q)
    return best


def concession_step(m_xi, m_beta, coef, rate_floor, c_cost, grids):
    """Pick the single grid step a turned-down pair concedes.

    Price is the default concession. Time is given instead when the price
    is already at its last positive point, or when cutting time both keeps
    the rate floor of the relay being argued with and costs less utility
    than the price cut would.
    """
    if m_xi >= grids.last_positive_xi:
        return m_xi, m_beta + 1
    beta_cut = grids.beta_at(m_beta + 1)
    if coef * beta_cut <= rate_floor:
        return m_xi + 1, m_beta
    xi = grids.xi_terms
    u_price_cut = coef * grids.beta_at(m_beta) + c_cost * xi[m_xi + 1]
    u_time_cut = coef * beta_cut + c_cost * xi[m_xi]
    if u_price_cut < u_time_cut:
        return m_xi, m_beta + 1
    return m_xi + 1, m_beta


def puu(state, l, q):
    """Concede one step after relay q refused (or displaced) pair l. The
    caller requeues l."""
    rates, grids = state.market.rates, state.market.grids
    m_x, m_b = concession_step(state.m_xi[l], state.m_beta[l], rates.pu_coef.item(l, q),
                               state.floors[l], rates.c_cost, grids)
    # cap the time step one past the grid; the value is pinned at zero there
    m_b = min(m_b, len(grids.beta_values))
    state.m_xi[l], state.m_beta[l] = m_x, m_b
    state.puu_counts[l] += 1
    state.events.append(("puu", l, q, grids.xi_terms[m_x], grids.beta_terms[m_b],
                         state.offers))


def step(state):
    """One engine iteration. The queue head either exits (no relay clears
    its floor) or makes one offer and absorbs the response. No-op on a
    terminal state."""
    if not state.queue:
        return state
    l = state.queue.popleft()
    market = state.market
    xi = market.grids.xi_terms[state.m_xi[l]]
    beta = market.grids.beta_terms[state.m_beta[l]]
    q = _best_relay(state, l, xi, beta)
    if q < 0:
        state.events.append(("prune", l, -1, xi, beta, state.offers))
        return state

    state.offers += 1
    state.events.append(("offer", l, q, xi, beta, state.offers))

    # PairRates.rate_su and u_su, spelled out on floats
    su_coef, k_cost = market.rates.su_coef, market.rates.k_cost
    rate_su = su_coef.item(l, q) * (1.0 - beta)
    u_su = rate_su - k_cost * xi
    acceptable = rate_su >= market.requirements.r_su_req and u_su >= 0.0
    held = state.accepted[q]
    if acceptable and held is not None:
        il, ixi, ibeta = held
        acceptable = u_su > su_coef.item(il, q) * (1.0 - ibeta) - k_cost * ixi

    if acceptable:
        state.accepted[q] = (l, xi, beta)
        state.events.append(("accept", l, q, xi, beta, state.offers))
        if held is not None:
            state.events.append(("displace", held[0], q, xi, beta, state.offers))
            puu(state, held[0], q)
            state.queue.append(held[0])
    else:
        state.events.append(("reject", l, q, xi, beta, state.offers))
        puu(state, l, q)
        state.queue.append(l)
    return state


def finish(state):
    outcome = MatchingOutcome.from_terms(
        state.market.params.l_pu, state.market.params.l_su,
        [(held[0], q, held[1], held[2])
         for q, held in enumerate(state.accepted) if held is not None],
        final_xi_steps=np.array(state.m_xi, dtype=int),
        final_beta_steps=np.array(state.m_beta, dtype=int),
    )
    trace = EngineTrace(
        events=list(state.events),
        offers=state.offers,
        puu_counts=np.array(state.puu_counts, dtype=int),
    )
    return outcome, trace


def run(params, realization, requirements=None):
    """Run the scenario's negotiation rule to termination on one realization."""
    return negotiate(market(params, realization, requirements))


def negotiate(market, partners=None):
    """Run the market's negotiation rule to termination. partners, when
    given, is an int array holding each licensed user's one relay, -1 for
    a user that sits out.

    The ladder raises EngineError once its offers pass
    l_su + l_pu * (last_positive_xi + len(beta_values)). Every offer either
    fills an empty relay, at most l_su times since a held relay never
    empties, or makes exactly one user concede, and a user concedes at
    most last_positive_xi price steps and len(beta_values) time steps
    before it prunes.
    """
    if market.params.negotiation == "contracts":
        return run_contracts(market, partners)
    state = init_state(market, partners)
    grids = market.grids
    cap = market.params.l_su + market.params.l_pu * (
        grids.last_positive_xi + len(grids.beta_values))
    while state.queue:
        if state.offers > cap:
            worst = int(np.argmax(state.puu_counts))
            raise EngineError(
                f"ladder made {state.offers} offers, past its bound of {cap}, with "
                f"{len(state.queue)} users queued; user {worst} conceded "
                f"{state.puu_counts[worst]} times, to price step {state.m_xi[worst]} "
                f"and time step {state.m_beta[worst]}")
        step(state)
    return finish(state)


# ---------------------------------------------------------------------------
# contract rule

def _contract_lists(rates, requirements, grids, partners):
    """Per licensed user, the grid contracts it may ever offer, best first.

    A contract (q, xi, beta) is listed when it clears the user's own rate
    floor and relay q would take it alone: relay rate floor met and
    nonnegative relay utility. Order is by licensed utility, ties to the
    smaller relay index, then the higher price, then the longer time.
    Each list is (relay, xi index, beta index, relay utility), one array
    per field. Memory is l_pu * l_su * |xi grid| * |beta grid| entries.
    With partners (None, or as in negotiate), a user's list holds its
    partner's contracts only, and a user sitting out (-1) gets an empty one.
    """
    l_pu, l_su = rates.pu_coef.shape
    n_xi, n_beta = len(grids.xi_values), len(grids.beta_values)
    # [relay, xi index, beta index] blocks, so one relay's contracts are one row
    q_idx, i_idx, j_idx = np.meshgrid(
        np.arange(l_su), np.arange(n_xi), np.arange(n_beta), indexing="ij")
    xi_all = grids.xi_values[i_idx]
    beta_all = grids.beta_values[j_idx]
    lists = []
    for l in range(l_pu):
        rows = slice(None)
        if partners is not None:
            rows = slice(partners[l], partners[l] + 1) if partners[l] >= 0 else slice(0)
        q, i, j, xi, beta = (a[rows].ravel()
                             for a in (q_idx, i_idx, j_idx, xi_all, beta_all))
        pu_rate = rates.pu_coef[l, q] * beta
        su_rate = rates.su_coef[l, q] * (1.0 - beta)
        u_su = su_rate - rates.k_cost * xi
        keep = ((pu_rate >= requirements.r_pu_req[l])
                & (su_rate >= requirements.r_su_req) & (u_su >= 0.0))
        u_pu = pu_rate[keep] + rates.c_cost * xi[keep]
        q, i, j = q[keep], i[keep], j[keep]
        order = np.lexsort((j, i, q, -u_pu))
        lists.append((q[order], i[order], j[order], u_su[keep][order]))
    return lists


def run_contracts(market, partners=None):
    """Licensed-proposing deferred acceptance over the grid contracts.

    Each licensed user keeps one bar per relay, minus infinity until that
    relay first refuses it. Its next offer is the first contract on its
    list (see _contract_lists) that gives the relay strictly more than the
    bar. A relay holds its best offer so far; a refusal or a displacement
    sends the relay's held utility back to the user as the new bar. A user
    with no such contract left exits. Bars and held utilities only rise,
    so a contract skipped once is never eligible again and each user walks
    its list with one forward pointer.

    Only the relay-side slopes enter the bars, and those are instantaneous
    in both knowledge modes. The outcome carries no concession steps, so
    stability audits it on the full grid. puu_counts holds, per user, the
    refusals and displacements it absorbed. With partners (see negotiate)
    only the users that have one take part, each offering to it alone.

    The loop needs no offer cap: every offer moves one user's pointer
    forward along its finite list, so the lists' total length bounds the
    offers.
    """
    grids = market.grids
    l_pu, l_su = market.params.l_pu, market.params.l_su
    lists = _contract_lists(market.rates, market.requirements, grids, partners)
    pointer = np.zeros(l_pu, dtype=int)
    bar = np.full((l_pu, l_su), -np.inf)
    held_u = np.full(l_su, -np.inf)
    holder = np.full(l_su, -1, dtype=int)
    held_terms = [None] * l_su
    turned_down = np.zeros(l_pu, dtype=int)
    events = []
    offers = 0
    queue = _bidders(l_pu, partners)
    while queue:
        l = queue.popleft()
        qs, xis, betas, u_sus = lists[l]
        start = pointer[l]
        open_ = u_sus[start:] > bar[l, qs[start:]]
        if not open_.any():
            events.append(("prune", l, -1, 0.0, 0.0, offers))
            continue
        k = start + int(np.argmax(open_))
        pointer[l] = k + 1
        q, u = int(qs[k]), float(u_sus[k])
        xi = float(grids.xi_values[xis[k]])
        beta = float(grids.beta_values[betas[k]])
        offers += 1
        events.append(("offer", l, q, xi, beta, offers))
        if u > held_u[q]:
            loser = int(holder[q])
            holder[q], held_u[q], held_terms[q] = l, u, (xi, beta)
            events.append(("accept", l, q, xi, beta, offers))
            if loser >= 0:
                bar[loser, q] = u
                turned_down[loser] += 1
                events.append(("displace", loser, q, xi, beta, offers))
                queue.append(loser)
        else:
            bar[l, q] = held_u[q]
            turned_down[l] += 1
            events.append(("reject", l, q, xi, beta, offers))
            queue.append(l)

    outcome = MatchingOutcome.from_terms(
        l_pu, l_su, [(holder[q], q, *held_terms[q])
                     for q in range(l_su) if holder[q] >= 0])
    trace = EngineTrace(events=events, offers=offers, puu_counts=turned_down)
    return outcome, trace
