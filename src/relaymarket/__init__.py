"""Negotiated spectrum-for-relaying market simulator.

Licensed transmitter-receiver pairs lease part of their frame to relays
in exchange for cooperative forwarding and a cash transfer; the engine
negotiates who pairs with whom and at what price and time split through
repeated offers and single-notch concessions. The package also ships
centralized and random baselines, checkers for the mechanism's claimed
guarantees (stability, dominance, Pareto optimality, bounded signaling),
and a seeded Monte Carlo harness with CSV output.
"""

from .baselines import (centralized_pu_optimal, centralized_su_rate,
                        pair_optimum_continuous, rmbn)
from .bench import (AggregateMetrics, SweepRow, emit_csv, p90, run_trials,
                    scenario_id, sweep)
from .dda import (EngineTrace, Grids, Market, MatchingOutcome, concession_grids,
                  init_state, market, negotiate, run, step)
from .errors import EngineError, GuardError
from .radio import (PairRates, Requirements, af_relay_snr, beta_interval, make_pair_rates,
                    requirements_for)
from .topology import (ChannelRealization, Placement, ScenarioParams, draw_channels,
                       make_realization, params_from_dict, place_users)
from .verify import (StabilityReport, check_weak_pareto, complexity_estimates,
                     enumerate_stable_matchings, is_stable, packet_bound,
                     per_pu_puu_bounds, pu_utilities)

__version__ = "0.1.0"

__all__ = [
    "AggregateMetrics", "ChannelRealization", "EngineError", "EngineTrace", "Grids",
    "GuardError", "Market", "MatchingOutcome", "PairRates",
    "Placement", "Requirements", "ScenarioParams", "StabilityReport",
    "SweepRow", "af_relay_snr",
    "beta_interval", "centralized_pu_optimal", "centralized_su_rate",
    "check_weak_pareto", "complexity_estimates",
    "concession_grids", "draw_channels", "emit_csv",
    "enumerate_stable_matchings", "init_state", "is_stable",
    "make_pair_rates", "make_realization", "market",
    "negotiate", "p90", "packet_bound", "pair_optimum_continuous",
    "params_from_dict", "per_pu_puu_bounds", "place_users", "pu_utilities",
    "requirements_for", "rmbn",
    "run", "run_trials", "scenario_id", "step", "sweep",
]
