"""Deferred-acceptance negotiation: one loop, two licensed sides.

Licensed users wait in a queue. The head user offers terms (xi, beta) to
one relay, which holds the best offer it has seen; a refused or
displaced user requeues at the tail, a user with no offer left leaves,
and the run ends when the queue drains. The relay side is written once,
in step(state, n), the one offer loop: it runs up to n iterations with
the working state in locals. The scenario's `negotiation` key picks the
licensed side, in init_state alone: LadderState, the default, concedes
one grid step per refusal; ContractState ("contracts") offers its best
open grid contract. Both read one Market (floors, rates and grids of a
channel draw), built by market().

Terms are read from the grids' float sequences, so grid membership is
exact. The offer loop works on plain Python ints and floats: slopes are
read one at a time with ndarray.item or kept as floats, and a Python
float does the same IEEE-754 double arithmetic as a numpy scalar, only
without the boxing, so runs replay bit for bit.

negotiate stops the loop with an EngineError past the rule's offer bound
(state.cap) rather than trusting the theory to end it. Either rule can
also run on a fixed partner per licensed user (negotiate's partners, -1
sitting out), which is how the random baseline negotiates.

Results are built only when read. negotiate captures no event; its
trace replays the run on the first read of EngineTrace.events. An
outcome is only its shape and matched terms.
"""

from __future__ import annotations

import functools
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import radio
from .errors import EngineError


@dataclass(frozen=True)
class Grids:
    """Discrete offer domains, descending from the initial values.

    xi_terms and beta_terms hold the same points as Python floats for the
    ladder's offer loop; beta_terms ends with one 0.0 past the grid, the
    time value of a pair that has conceded every time step. Markets of one
    parameter set share one Grids (concession_grids), so the arrays are
    read-only.
    """
    xi_values: np.ndarray
    beta_values: np.ndarray
    last_positive_xi: int   # largest index whose price is still positive
    xi_terms: tuple
    beta_terms: tuple


def _grid(init, step):
    count = int(math.floor(init / step + 1e-9))
    vals = init - step * np.arange(count + 1)
    vals[vals < 0.0] = 0.0   # the final point can round a hair below zero
    return vals


def concession_grids(params):
    """The offer grids of params' (xi_init, delta, beta_init, epsilon).

    Grids are cached per those four values, so every market of one
    parameter set shares one Grids, and its arrays are read-only."""
    return _grids(params.xi_init, params.delta, params.beta_init, params.epsilon)


@functools.lru_cache(maxsize=8)
def _grids(xi_init, delta, beta_init, epsilon):
    xi = _grid(xi_init, delta)
    beta = _grid(beta_init, epsilon)
    positive = (xi > 1e-12).nonzero()[0]
    last_pos = int(positive[-1]) if len(positive) else 0
    xi.flags.writeable = False
    beta.flags.writeable = False
    return Grids(xi_values=xi, beta_values=beta, last_positive_xi=last_pos,
                 xi_terms=tuple(xi.tolist()), beta_terms=(*beta.tolist(), 0.0))


@dataclass(frozen=True)
class Market:
    """One channel draw's market under one knowledge model, built by
    market(): its rates are those of params.snr_knowledge. Scoring on the
    realized channels is bench's rule, which builds a complete-knowledge
    market for it."""
    params: object
    requirements: radio.Requirements
    rates: radio.PairRates
    grids: Grids


def market(params, realization, requirements=None):
    """The market of one realization; floors default to radio.requirements_for."""
    if requirements is None:
        requirements = radio.requirements_for(params, realization.snr)
    return Market(params, requirements, radio.make_pair_rates(params, realization),
                  concession_grids(params))


class MatchingOutcome:
    """The matched (l, q, xi, beta) terms of an [l_pu, l_su] market, one
    per matched pair, Python ints and floats kept in row-major order:
    licensed user l pays price xi and gets time share beta from relay q.

    Ladder outcomes also carry each licensed pair's terminal concession-grid
    steps; stability checks use them as the envelope of terms the pair had
    not yet conceded past. Contract, hand-built and baseline outcomes leave
    them None.

    Raises ValueError unless the terms are a matching of the shape: every
    index in [0, l_pu) x [0, l_su), no licensed user or relay twice.
    """

    def __init__(self, l_pu, l_su, terms, final_xi_steps=None, final_beta_steps=None):
        self.shape = (l_pu, l_su)
        self._terms = tuple(sorted(terms))
        if self._terms:
            ls, qs, _, _ = zip(*self._terms)   # ls ascends with the terms
            if not (0 <= ls[0] and ls[-1] < l_pu and 0 <= min(qs) and max(qs) < l_su
                    and len(set(ls)) == len(set(qs)) == len(ls)):
                raise ValueError(f"pairs {list(zip(ls, qs))} are not a matching "
                                 f"of a {l_pu}x{l_su} market")
        self.final_xi_steps = final_xi_steps
        self.final_beta_steps = final_beta_steps

    def matched_terms(self):
        """Tuple of the matched (l, q, xi, beta) terms, in row-major order."""
        return self._terms

    def matched_pairs(self):
        """Matched (l, q) pairs as Python ints, in row-major order."""
        return [(l, q) for l, q, _, _ in self._terms]


@dataclass
class EngineTrace:
    """Per-run instrumentation. Events are (kind, l, q, xi, beta, iteration)
    with kind one of offer/accept/reject/displace/puu/prune; offers,
    accepts, displacements and prunes count those kinds. A hand-stepped
    run's trace holds the events its state captured. A negotiate run
    captures none: the first read of events replays the run from its
    market and partners (_replay_events), and later reads return that list.
    """
    offers: int
    puu_counts: np.ndarray
    accepts: int
    displacements: int
    prunes: int
    market: Market = field(repr=False)
    partners: np.ndarray | None = field(repr=False)
    captured: list | None = field(default=None, repr=False)

    @property
    def events(self):
        if self.captured is None:
            self.captured = _replay_events(self.market, self.partners)
        return self.captured

    @property
    def packets(self):
        """Control packets: each offer and the response it draws."""
        return 2 * self.offers

    def to_jsonl(self, fp):
        for kind, l, q, xi, beta, it in self.events:
            fp.write(json.dumps({"kind": kind, "pu": l, "su": q,
                                 "xi": xi, "beta": beta, "iteration": it}) + "\n")


class EngineState:
    """Working state of one run, under either rule.

    The relay side lives here: the queue of licensed users still bidding
    (every one, or those with a partner, in index order), each relay's held
    offer, the refusals and displacements each user absorbed, the offer,
    accept, displacement and prune counts, and the events (None when they
    are not captured, as in negotiate). A subclass is one rule's licensed
    side: offer(l) gives user l's next (relay, xi, beta), relay -1 when it
    exits; refused(l, q) tells it relay q refused or displaced it and
    returns the (xi, beta) it concedes to, None under a rule that does not
    concede step by step; final_steps() gives the outcome's concession
    steps; cap bounds the offers. partners is the partners array the run
    was opened with, which a trace replays from.
    """

    def __init__(self, market, partners):
        l_pu = market.params.l_pu
        self.market = market
        self.partners = partners
        self.queue = deque(range(l_pu) if partners is None
                           else (partners >= 0).nonzero()[0].tolist())
        self.accepted = [None] * market.params.l_su   # per relay: (l, xi, beta, u_su) held
        self.puu_counts = [0] * l_pu
        self.offers = self.accepts = self.displacements = self.prunes = 0
        self.events = []


class LadderState(EngineState):
    """The ladder's licensed side. Each user offers its current terms on
    the concession grids {init - m*step} to its best relay and, when
    refused, concedes one step (refused); it exits when its best
    relay misses its rate floor. A user values relay q at
    pu_coef[l, q] * beta + c * xi. The money term is the same for every
    relay, so the best relay is the steepest one, and when that one misses
    the floor every other does too. Each user therefore keeps the head and
    the runner-up of its relays by falling slope, ties to the smaller index
    (or its partner alone), and offers to the head, or, when rounding ties
    the runner-up to it, to the smallest relay that one row test finds
    tied (see offer). Per-user fields, the head and runner-up slopes among
    them, are lists of Python ints and floats; finish turns the concession
    steps into arrays. A user is refused or displaced only after offering
    at a positive time share, so refused finds its time step below
    len(beta_values); the step it concedes goes at most one past the grid.

    cap is l_su + l_pu * (last_positive_xi + len(beta_values)). Every offer
    either fills an empty relay, at most l_su times since a held relay
    never empties, or makes exactly one user concede, and a user concedes
    at most last_positive_xi price steps and len(beta_values) time steps
    before it prunes.
    """

    def __init__(self, market, partners):
        if (market.requirements.r_pu_req <= 0.0).any():
            raise ValueError(
                "negotiation needs positive licensed rate floors; a zero floor "
                "makes the zero-time state acceptable forever and the run never ends")
        super().__init__(market, partners)
        l_pu, grids = market.params.l_pu, market.grids
        coef = self.pu_coef = market.rates.pu_coef
        users = range(l_pu)
        self.runner_up = [-1] * l_pu   # -1: no second relay
        if partners is not None:
            self.head = partners.tolist()
        else:
            self.head = coef.argmax(axis=1).tolist()
            if market.params.l_su > 1:
                rest = coef.copy()
                rest[users, self.head] = -np.inf
                self.runner_up = rest.argmax(axis=1).tolist()
        # a user sitting out (head -1) or without a runner-up reads the last
        # column here, and offer never looks at it
        self.head_slope = coef[users, self.head].tolist()
        self.runner_up_slope = coef[users, self.runner_up].tolist()
        self.floors = market.requirements.r_pu_req.tolist()
        self.m_xi = [0] * l_pu     # price steps conceded
        self.m_beta = [0] * l_pu   # time steps conceded, at most one past the grid
        self.last_positive_xi, self.c_cost = grids.last_positive_xi, market.rates.c_cost
        self.xi_terms, self.beta_terms = grids.xi_terms, grids.beta_terms
        self.cap = market.params.l_su + l_pu * (grids.last_positive_xi
                                                + len(grids.beta_values))

    def offer(self, l):
        """User l's current terms and the relay it offers them to, -1 when
        none clears its floor: the best by licensed utility, ties to the
        smaller index.

        Slopes are nonnegative and rounding is monotone, so along the
        falling-slope order neither a relay's rate nor its utility ever
        rises. The relays that tie the head's utility and clear the floor
        are thus a prefix of that order, and the smallest index among them
        is the first hit of one row test. The test runs only when rounding
        ties the runner-up to the head and it clears the floor. Rates and
        utilities are those of radio.PairRates.licensed, spelled out on floats.
        """
        xi = self.xi_terms[self.m_xi[l]]
        beta = self.beta_terms[self.m_beta[l]]
        floor = self.floors[l]
        rate = self.head_slope[l] * beta
        if rate < floor:
            return -1, xi, beta
        best = self.head[l]
        if self.runner_up[l] >= 0:
            money = self.c_cost * xi
            top = rate + money
            rate = self.runner_up_slope[l] * beta
            if rate + money == top and rate >= floor:
                rates = self.pu_coef[l] * beta
                best = int(((rates + money == top) & (rates >= floor)).argmax())
        return best, xi, beta

    def refused(self, l, q):
        """Concede one grid step against relay q; returns the new terms.

        Price is the default concession. Time is given instead when the
        price is already at its last positive point, or when cutting time
        both keeps the rate floor with relay q and costs less utility than
        the price cut would. A refused or displaced user offered at a
        positive time share, so m_beta < len(beta_values) here: the time
        cut reads beta_terms, at most at its 0.0 one past the grid. Rates
        and utilities are those of radio.PairRates.licensed, on floats.
        """
        m_x, m_b = self.m_xi[l], self.m_beta[l]
        if m_x >= self.last_positive_xi:
            m_b += 1
        else:
            coef = self.head_slope[l] if q == self.head[l] else self.pu_coef.item(l, q)
            xi, beta_cut = self.xi_terms, self.beta_terms[m_b + 1]
            if coef * beta_cut <= self.floors[l]:
                m_x += 1
            elif (coef * self.beta_terms[m_b] + self.c_cost * xi[m_x + 1]
                  < coef * beta_cut + self.c_cost * xi[m_x]):
                m_b += 1
            else:
                m_x += 1
        self.m_xi[l] = m_x
        self.m_beta[l] = m_b
        return self.xi_terms[m_x], self.beta_terms[m_b]

    def final_steps(self):
        return np.array(self.m_xi, dtype=int), np.array(self.m_beta, dtype=int)


class ContractState(EngineState):
    """The contract rule's licensed side: licensed-proposing deferred
    acceptance over the grid contracts.

    A contract (q, xi, beta) is open to user l when it clears l's rate
    floor (radio.licensed_gain) and relay q would take it over bar[l, q]
    (radio.relay_gain). Bars start at minus infinity, or at plus infinity
    off the user's partner when partners are given. A refusal or a
    displacement raises the bar to the relay's held utility. Per relay the
    user keeps only its best open contract: best_u[l, q], its licensed
    utility (minus infinity when none is open), and best_k[l, q], its
    xi-major grid index, ties to the higher price, then the longer time.
    The next offer is the best over relays, ties to the smaller index; a
    user with none open exits.

    At price i the open contracts run along the time grid from s(i), the
    start of the relay's suffix (radio.relay_open_index), to the end of
    the licensed floor's prefix, p. The licensed utility falls along the
    grid, so the best at price i is (i, s(i)) when s(i) < p, and
    _best_open takes the best over prices. Bars and held utilities only
    rise, so a refusal recomputes that one relay, and a contract once
    closed stays closed. Each offer closes its contract when refused or
    displaced, so cap, the count of contracts open at the start (the sum
    of max(0, p - s(i)) over pairs and prices), bounds the offers.

    Only the relay-side slopes enter the bars, and those are instantaneous
    in both knowledge modes. The outcome carries no concession steps, so
    stability audits it on the full grid.
    """

    def __init__(self, market, partners):
        super().__init__(market, partners)
        l_pu, l_su = market.params.l_pu, market.params.l_su
        self.bar = np.full((l_pu, l_su), -np.inf)
        if partners is not None:
            self.bar[partners[:, None] != np.arange(l_su)] = np.inf
        self.best_u = np.full((l_pu, l_su), -np.inf)
        self.best_k = np.zeros((l_pu, l_su), dtype=int)
        self.prefix = np.zeros((l_pu, l_su), dtype=int)   # p of every pair
        self.cap = 0
        for l in range(l_pu):
            q = (self.bar[l] < np.inf).nonzero()[0][:, None]   # a barred relay has none open
            # any utility beats minus infinity, so only the licensed floor counts
            self.prefix[l, q] = radio.licensed_gain(
                market.rates, market.requirements, l, q, -np.inf,
                market.grids.beta_values, 0.0).sum(axis=1, keepdims=True)
            s, p = self._best_open(l, q)
            self.cap += int(np.maximum(p - s, 0).sum())

    def _best_open(self, l, q):
        """Set best_u and best_k of user l with relay q, or with a column of
        relays q [r, 1], from the bars; returns s [r, n_xi] and p."""
        rates, grids = self.market.rates, self.market.grids
        xis, betas = grids.xi_values, grids.beta_values
        s = np.atleast_2d(radio.relay_open_index(rates, self.market.requirements, l, q,
                                                 self.bar[l, q], betas, xis))
        p = self.prefix[l, q]
        u_pu = np.where(s < p, rates.licensed(betas.take(s, mode="clip"), xis, l, q)[1], -np.inf)
        i = u_pu.argmax(axis=1)
        rows = np.arange(len(i))
        q = np.ravel(q)
        self.best_u[l, q] = u_pu[rows, i]
        self.best_k[l, q] = i * len(betas) + s[rows, i]
        return s, p

    def offer(self, l):
        q = int(self.best_u[l].argmax())
        if self.best_u[l, q] == -np.inf:
            return -1, 0.0, 0.0
        grids = self.market.grids
        i, j = divmod(int(self.best_k[l, q]), len(grids.beta_values))
        return q, grids.xi_terms[i], grids.beta_terms[j]

    def refused(self, l, q):
        self.bar[l, q] = self.accepted[q][3]
        self._best_open(l, q)
        return None

    def final_steps(self):
        return None, None


_RULES = {"ladder": LadderState, "contracts": ContractState}


def init_state(market, partners=None):
    """Opening state of the market's negotiation rule; partners as in
    negotiate."""
    return _RULES[market.params.negotiation](market, partners)


def step(state, n=1):
    """Up to n engine iterations, fewer when the queue drains. In each, the
    queue head either exits (its licensed side has no offer left) or makes
    one offer, which relay q takes when it meets the relay rate floor,
    leaves q a nonnegative utility and beats what q holds. The refused or
    displaced user is told and requeues at the tail. No-op on a terminal
    state.

    The working state is read into locals and the counts written back at
    the end; an event is built only when state.events is a list."""
    queue, accepted, events = state.queue, state.accepted, state.events
    puu_counts, offer, refused = state.puu_counts, state.offer, state.refused
    su_coef, k_cost = state.market.rates.su_coef, state.market.rates.k_cost
    r_su_req = state.market.requirements.r_su_req
    offers, accepts, displacements, prunes = (
        state.offers, state.accepts, state.displacements, state.prunes)
    for _ in range(n):
        if not queue:
            break
        l = queue.popleft()
        q, xi, beta = offer(l)
        if q < 0:
            prunes += 1
            if events is not None:
                events.append(("prune", l, -1, xi, beta, offers))
            continue

        offers += 1
        if events is not None:
            events.append(("offer", l, q, xi, beta, offers))
        # radio.PairRates.relay and relay_gain's tests, held utility the bar, on floats
        rate_su = su_coef.item(l, q) * (1.0 - beta)
        u_su = rate_su - k_cost * xi
        held = accepted[q]
        if rate_su >= r_su_req and u_su >= 0.0 and (held is None or u_su > held[3]):
            accepted[q] = (l, xi, beta, u_su)
            accepts += 1
            if events is not None:
                events.append(("accept", l, q, xi, beta, offers))
            if held is None:
                continue
            loser = held[0]
            displacements += 1
            if events is not None:
                events.append(("displace", loser, q, xi, beta, offers))
        else:
            loser = l
            if events is not None:
                events.append(("reject", l, q, xi, beta, offers))
        puu_counts[loser] += 1
        conceded = refused(loser, q)
        if conceded is not None and events is not None:
            events.append(("puu", loser, q, *conceded, offers))
        queue.append(loser)
    state.offers, state.accepts, state.displacements, state.prunes = (
        offers, accepts, displacements, prunes)
    return state


def finish(state):
    final_xi_steps, final_beta_steps = state.final_steps()
    outcome = MatchingOutcome(
        state.market.params.l_pu, state.market.params.l_su,
        [(held[0], q, held[1], held[2])
         for q, held in enumerate(state.accepted) if held is not None],
        final_xi_steps=final_xi_steps, final_beta_steps=final_beta_steps)
    trace = EngineTrace(
        offers=state.offers,
        puu_counts=np.array(state.puu_counts, dtype=int),
        accepts=state.accepts,
        displacements=state.displacements,
        prunes=state.prunes,
        market=state.market,
        partners=state.partners,
        captured=None if state.events is None else list(state.events),
    )
    return outcome, trace


def run(params, realization, requirements=None):
    """Run the scenario's negotiation rule to termination on one realization."""
    return negotiate(market(params, realization, requirements))


def negotiate(market, partners=None):
    """Run the market's negotiation rule to termination. partners, when
    given, is an int array holding each licensed user's one relay, -1 for
    a user that sits out. The run builds no event; the trace replays it
    when its events are read.

    Raises EngineError once the offers pass the rule's bound, state.cap
    (see LadderState and ContractState), rather than trusting the theory
    to end the run.
    """
    state = init_state(market, partners)
    state.events = None
    _run_out(state)
    return finish(state)


def _replay_events(market, partners):
    """The events of negotiate(market, partners), from a second run that
    captures them. Its state comes from the rule's class, not through
    init_state, so whatever wraps init_state sees runs, not replays."""
    state = _RULES[market.params.negotiation](market, partners)
    _run_out(state)
    return state.events


def _run_out(state):
    """Step state until its queue drains; EngineError past state.cap."""
    while state.queue:
        if state.offers > state.cap:
            worst = int(np.argmax(state.puu_counts))
            raise EngineError(
                f"{state.market.params.negotiation} rule made {state.offers} offers, "
                f"past its bound of {state.cap}, with {len(state.queue)} users queued; "
                f"user {worst} was refused {state.puu_counts[worst]} times")
        step(state, state.cap + 1 - state.offers)
