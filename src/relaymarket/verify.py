"""Checks of the negotiation's advertised guarantees.

Covers matching stability (no blocked individual, no blocking pair),
dominance over enumerated stable matchings, weak Pareto optimality,
the concession-count and packet-count ceilings, and closed-form
scaling estimates. Enumerative checks are guarded to tiny instances;
everything here is a pure function of an outcome plus the scenario.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import radio
from .dda import MatchingOutcome, concession_grids
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


def _on_grid(value, grid_values, tol=1e-9):
    return bool(np.min(np.abs(grid_values - value)) <= tol)


def is_stable(outcome, realization, requirements, params, grids=None,
              continuous_domain=False):
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
    """
    if grids is None:
        grids = concession_grids(params)
    rates = radio.make_pair_rates(params, realization)
    l_pu, l_su = params.l_pu, params.l_su
    matched = outcome.matched_pairs()

    if not continuous_domain:
        for l, q in matched:
            if not _on_grid(outcome.g[l, q], grids.xi_values):
                raise ValueError(
                    f"price allocation {outcome.g[l, q]!r} for pair ({l},{q}) "
                    "is off the concession grid")
            if not _on_grid(outcome.b[l, q], grids.beta_values):
                raise ValueError(
                    f"time-slot allocation {outcome.b[l, q]!r} for pair ({l},{q}) "
                    "is off the concession grid")

    u_pu_cur = np.zeros(l_pu)
    u_su_cur = np.zeros(l_su)
    blocked = []
    for l, q in matched:
        beta = outcome.b[l, q]
        xi = outcome.g[l, q]
        if rates.rate_pu(l, q, beta) < requirements.r_pu_req[l]:
            blocked.append(("pu", l, "pu-rate"))
        if rates.rate_su(l, q, beta) < requirements.r_su_req:
            blocked.append(("su", q, "su-rate"))
        if rates.u_su(l, q, beta, xi) < 0.0:
            blocked.append(("su", q, "su-utility"))
        u_pu_cur[l] = rates.u_pu(l, q, beta, xi)
        u_su_cur[q] = rates.u_su(l, q, beta, xi)

    blocked_pu = {idx for side, idx, _ in blocked if side == "pu"}
    blocked_su = {idx for side, idx, _ in blocked if side == "su"}

    pairs = []
    for l in range(l_pu):
        if l in blocked_pu:
            continue
        xi_lo, beta_lo = 0, 0
        if outcome.final_xi_steps is not None:
            xi_lo = int(outcome.final_xi_steps[l])
            beta_lo = int(outcome.final_beta_steps[l])
        xis = grids.xi_values[xi_lo:]
        betas = grids.beta_values[beta_lo:]
        if xis.size == 0 or betas.size == 0:
            continue
        xi_col = xis[:, None]
        beta_row = betas[None, :]
        for q in range(l_su):
            if q in blocked_su or outcome.m[l, q] == 1:
                continue
            coef = rates.pu_coef[l, q]
            su = rates.su_coef[l, q]
            witness = ((coef * beta_row >= requirements.r_pu_req[l])
                       & (su * (1.0 - beta_row) >= requirements.r_su_req)
                       & (coef * beta_row + rates.c_cost * xi_col > u_pu_cur[l])
                       & (su * (1.0 - beta_row) - rates.k_cost * xi_col > u_su_cur[q]))
            if witness.any():
                i, j = np.argwhere(witness)[0]
                pairs.append((l, q, (float(xis[i]), float(betas[j]))))
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
    """Yield every assignment of licensed users to distinct relays or -1."""
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


def _feasible_outcomes(realization, requirements, params, grids):
    """Generate every feasible (matching, allocation) combination on the grids."""
    rates = radio.make_pair_rates(params, realization)
    l_pu, l_su = params.l_pu, params.l_su
    allocs = {}
    for l in range(l_pu):
        for q in range(l_su):
            pts = []
            for beta in grids.beta_values:
                if rates.rate_pu(l, q, beta) < requirements.r_pu_req[l]:
                    continue
                if rates.rate_su(l, q, beta) < requirements.r_su_req:
                    continue
                for xi in grids.xi_values:
                    if rates.u_su(l, q, beta, xi) >= 0.0:
                        pts.append((float(xi), float(beta)))
            allocs[l, q] = pts
    for assign in _injective_maps(l_pu, l_su):
        pair_choices = [allocs[l, q] for l, q in enumerate(assign) if q >= 0]
        if any(not c for c in pair_choices):
            continue
        matched = [(l, q) for l, q in enumerate(assign) if q >= 0]
        for combo in itertools.product(*pair_choices):
            m = np.zeros((l_pu, l_su), dtype=int)
            g = np.zeros((l_pu, l_su))
            b = np.zeros((l_pu, l_su))
            for (l, q), (xi, beta) in zip(matched, combo):
                m[l, q] = 1
                g[l, q] = xi
                b[l, q] = beta
            yield MatchingOutcome(m=m, g=g, b=b)


def enumerate_stable_matchings(realization, requirements, params, grids=None):
    """Every stable (matching, allocation) on the grids, by exhaustion.

    Tiny instances only; stability here is full-grid (candidates carry no
    negotiation history, so every allocation is a potential witness).
    """
    if grids is None:
        grids = concession_grids(params)
    _check_enum_guard(params, grids)
    stable = []
    for cand in _feasible_outcomes(realization, requirements, params, grids):
        report = is_stable(cand, realization, requirements, params, grids)
        if report.stable:
            stable.append(cand)
    return stable


def pu_utilities(outcome, rates):
    """Per licensed user utility under an outcome, zero when unmatched."""
    out = np.zeros(outcome.m.shape[0])
    for l, q in outcome.matched_pairs():
        out[l] = rates.u_pu(l, q, outcome.b[l, q], outcome.g[l, q])
    return out


def check_weak_pareto(outcome, realization, requirements, params, grids=None):
    """No feasible alternative strictly improves every matched licensed user.

    Quantifies over the users the outcome actually matched; an empty
    matching passes vacuously. Returns (True, None) or (False, witness
    outcome) with the first strictly-dominating alternative found.
    """
    if grids is None:
        grids = concession_grids(params)
    _check_enum_guard(params, grids)
    rates = radio.make_pair_rates(params, realization)
    matched = [l for l, _ in outcome.matched_pairs()]
    if not matched:
        return True, None
    base = pu_utilities(outcome, rates)
    for alt in _feasible_outcomes(realization, requirements, params, grids):
        alt_u = pu_utilities(alt, rates)
        if all(alt_u[l] > base[l] for l in matched):
            return False, alt
    return True, None


def _beta_floors(params, realization, requirements):
    """Smallest feasible time share of every pair, [l, q]."""
    rates = radio.make_pair_rates(params, realization)
    if requirements is None:
        requirements = radio.requirements_for(params, realization.snr)
    return radio.beta_interval(rates, requirements)[0]


def iteration_bound(params, realization=None, requirements=None, beta_min=None):
    """Worst-case concession path length for a single licensed user.

    price_budget + time_budget, where the time budget stops at the
    smallest time share any pair of this scenario can still work at.
    Pass beta_min to substitute a known floor without a realization.
    """
    if beta_min is None:
        beta_min = float(_beta_floors(params, realization, requirements).min())
    beta_min = min(max(beta_min, 0.0), params.beta_init)
    return params.xi_init / params.delta + (params.beta_init - beta_min) / params.epsilon


def per_pu_puu_bounds(params, realization, requirements=None):
    """Per licensed user ceiling on concession invocations (integer)."""
    floors = _beta_floors(params, realization, requirements)
    per_pu = np.clip(floors.min(axis=1), 0.0, params.beta_init)
    raw = params.xi_init / params.delta + (params.beta_init - per_pu) / params.epsilon
    return np.array([math.ceil(v) + 1 for v in raw], dtype=int)


def packet_bound(params, realization=None, requirements=None, i_max=None):
    """Ceiling on control packets exchanged over a whole run.

    (l_pu + max(l_pu, l_su)) control messages per round, for at most
    i_max rounds; i_max defaults to the iteration bound rounded up plus
    one round of slack for the terminal no-op.
    """
    if i_max is None:
        i_max = math.ceil(iteration_bound(params, realization, requirements)) + 1
    f = max(params.l_pu, params.l_su)
    return float((params.l_pu + f) * i_max)


def complexity_estimates(l_pu, l_su):
    """Scaling indicators for the three mechanisms (not exact op counts)."""
    big, small = max(l_pu, l_su), min(l_pu, l_su)
    centralized = (math.factorial(big) // math.factorial(big - small)) * 2 ** (2 * big + small)
    return {
        "centralized": centralized,
        "proposed": l_pu * l_su,
        "rmbn": l_pu,
    }
