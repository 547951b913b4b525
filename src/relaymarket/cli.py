"""Command line front end.

Subcommands: run (one scenario, CSV aggregates, optional event trace),
sweep (one axis, CSV), verify (stability and bound checks over seeded
instances), oracle (brute-force enumeration cross-checks on a tiny
scenario). Exit codes: 0 success, 1 usage error, 2 a check failed,
3 a size guard refused the request.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench, dda, radio, topology, verify
from .errors import GuardError


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is taken by check failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _trial_count(text):
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _add_common(sub):
    sub.add_argument("--config", help="JSON file of scenario parameters")
    sub.add_argument("--seed", type=int, help="master seed (overrides config)")
    sub.add_argument("--trials", type=_trial_count, default=100, help="number of trials")
    sub.add_argument("--af-formula", choices=["paper", "standard"],
                     help="relay SNR combining formula (overrides config)")


def build_parser():
    parser = _Parser(prog="relaymarket")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and emit aggregates")
    _add_common(p_run)
    p_run.add_argument("--algo", default="dda-complete",
                       help="comma-separated algorithm tags")
    p_run.add_argument("--out", default="-", help="CSV path ('-' for stdout)")
    p_run.add_argument("--trace", help="write trial 0's engine events as JSONL")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one axis and emit aggregates")
    _add_common(p_sweep)
    p_sweep.add_argument("--algo", default="dda-complete",
                         help="comma-separated algorithm tags")
    p_sweep.add_argument("--axis", required=True, choices=bench.SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--out", default="-", help="CSV path ('-' for stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify",
                              help="check stability and bounds on seeded instances")
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle",
                              help="brute-force cross-checks on a tiny scenario")
    _add_common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def _load_params(args, extra=None):
    overrides = dict(extra or {})
    if args.config:
        with open(args.config) as fp:
            loaded = json.load(fp)
        if not isinstance(loaded, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        overrides.update(loaded)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.af_formula:
        overrides["af_formula"] = args.af_formula
    return topology.params_from_dict(overrides)


def _instance(params, trial):
    realization = topology.make_realization(
        params, np.random.SeedSequence([params.seed, trial]))
    requirements = radio.requirements_for(params, realization)
    return realization, requirements


def _cmd_run(args):
    params = _load_params(args)
    algos = [a for a in args.algo.split(",") if a]
    aggs = bench.run_trials(params, algos, args.trials)
    rows = [bench.SweepRow(scenario_id=bench.scenario_id(params), algo=algo,
                           axis_name="none", axis_value=0.0, agg=aggs[algo])
            for algo in algos]
    bench.emit_csv(rows, args.out)
    if args.trace:
        _, trace = dda.run(params, *_instance(params, 0))
        with open(args.trace, "w") as fp:
            trace.to_jsonl(fp)
    return 0


def _cmd_sweep(args):
    params = _load_params(args)
    algos = [a for a in args.algo.split(",") if a]
    values = [float(v) for v in args.values.split(",") if v]
    rows = bench.sweep(params, args.axis, values, algos, args.trials)
    bench.emit_csv(rows, args.out)
    return 0


def _cmd_verify(args):
    params = _load_params(args)
    unstable = over_puu = over_packets = 0
    for i in range(args.trials):
        realization, requirements = _instance(params, i)
        outcome, trace = dda.run(params, realization, requirements)
        report = verify.is_stable(outcome, realization, requirements, params)
        if not report.stable:
            unstable += 1
            print(f"trial {i}: {report.describe()}")
        bounds = verify.per_pu_puu_bounds(params, realization, requirements)
        if (trace.puu_counts > bounds).any():
            over_puu += 1
            print(f"trial {i}: concession counts {trace.puu_counts.tolist()} "
                  f"exceed bounds {bounds.tolist()}")
        limit = verify.packet_bound(params, realization, requirements)
        if trace.packets > limit:
            over_packets += 1
            print(f"trial {i}: {trace.packets} packets exceed bound {limit:g}")
    n = args.trials
    print(f"stability: {n - unstable}/{n} ok")
    print(f"concession bound: {n - over_puu}/{n} ok")
    print(f"packet bound: {n - over_packets}/{n} ok")
    return 2 if (unstable or over_puu or over_packets) else 0


ORACLE_SCENARIO = {
    "l_pu": 2, "l_su": 2,
    "xi_init": 1.0, "beta_init": 1.0, "delta": 0.25, "epsilon": 0.25,
}


def _cmd_oracle(args):
    params = _load_params(args, extra=ORACLE_SCENARIO)
    dominated = pareto_bad = unstable = 0
    for i in range(args.trials):
        realization, requirements = _instance(params, i)
        outcome, _ = dda.run(params, realization, requirements)
        if not verify.is_stable(outcome, realization, requirements, params).stable:
            unstable += 1
            print(f"instance {i}: engine outcome not stable")
        rates = radio.make_pair_rates(params, realization)
        mine = verify.pu_utilities(outcome, rates)
        for alt in verify.enumerate_stable_matchings(realization, requirements, params):
            alt_u = verify.pu_utilities(alt, rates)
            for l, q in outcome.matched_pairs():
                if mine[l] < alt_u[l] - 1e-9:
                    dominated += 1
                    print(f"instance {i}: pu{l} does better ({alt_u[l]:.6g} vs "
                          f"{mine[l]:.6g}) in an enumerated stable matching")
        ok, _ = verify.check_weak_pareto(outcome, realization, requirements, params)
        if not ok:
            pareto_bad += 1
            print(f"instance {i}: alternative strictly improves every matched pu")
    n = args.trials
    print(f"engine stability: {n - unstable}/{n} ok")
    print(f"stable-matching dominance: {'ok' if not dominated else f'{dominated} violations'}")
    print(f"weak pareto: {n - pareto_bad}/{n} ok")
    return 2 if (dominated or pareto_bad or unstable) else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
