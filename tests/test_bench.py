"""Trial harness: seeding, aggregation, sweeps, and the CSV surface."""

from __future__ import annotations

import csv
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from relaymarket import baselines, bench, cli, dda, radio, topology, verify
from relaymarket.bench import CSV_COLUMNS, p90

from helpers import discrete_assignment_optimum


@pytest.fixture(name="small_params")
def small_params_fixture():
    return topology.params_from_dict({"l_pu": 2, "l_su": 2, "seed": 7})


class TestOrderStatistics:
    def test_p90_of_one_through_ten(self):
        # ceil(0.9 * 10) = 9th order statistic
        assert p90(range(1, 11)) == 9.0

    def test_p90_singleton(self):
        assert p90([4.25]) == 4.25

    def test_p90_empty_raises(self):
        with pytest.raises(ValueError):
            p90([])

    def test_p90_never_interpolates(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sample = rng.integers(0, 50, size=rng.integers(1, 40))
            assert p90(sample) in sample.astype(float)

    def test_se_needs_two_values(self):
        # sqrt(2) / sqrt(2): a pair has a spread, a single value none
        assert bench._se([1.0, 3.0]) == 1.0
        assert bench._se([2.0]) == 0.0

    def test_packet_cdf_monotone_with_exact_endpoints(self, small_params):
        agg = bench.run_trials(small_params, ["dda-complete"], 40)["dda-complete"]
        grid = np.linspace(0, agg.packets.max(), 25)
        values = [agg.packet_cdf(y) for y in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert agg.packet_cdf(agg.packets.max()) == 1.0
        assert agg.packet_cdf(-1.0) == 0.0


def plain_sums(outcome, rates):
    """Licensed utility, licensed rate and relay rate summed from 0.0 over
    the matched terms in row-major order, the algebra restated."""
    u = r_pu = r_su = 0.0
    for l, q, xi, beta in outcome.matched_terms():
        u += rates.pu_coef[l, q] * beta + rates.c_cost * xi
        r_pu += rates.pu_coef[l, q] * beta
        r_su += rates.su_coef[l, q] * (1.0 - beta)
    return [float(u).hex(), float(r_pu).hex(), float(r_su).hex()]


def mean_sums(agg):
    return [agg.mean_sum_utility_pu.hex(), agg.mean_sum_rate_pu.hex(),
            agg.mean_sum_rate_su.hex()]


class TestRunTrials:
    def test_rejects_unknown_algo_and_empty_run(self, small_params):
        with pytest.raises(ValueError, match="unknown algorithm"):
            bench.run_trials(small_params, ["dda-complete", "greedy"], 4)
        with pytest.raises(ValueError, match="at least 1"):
            bench.run_trials(small_params, ["dda-complete"], 0)
        with pytest.raises(ValueError, match="no algorithm tag"):
            bench.run_trials(small_params, [], 4)

    def test_same_master_seed_reproduces_every_field(self, small_params):
        algos = ["dda-complete", "rmbn", "centralized"]
        first = bench.run_trials(small_params, algos, 25)
        second = bench.run_trials(small_params, algos, 25)
        for algo in algos:
            a, b = first[algo], second[algo]
            assert np.array_equal(a.packets, b.packets)
            for field in ("mean_sum_utility_pu", "se_sum_utility_pu",
                          "mean_sum_rate_pu", "mean_sum_rate_su", "match_pct",
                          "mean_packets", "p90_packets", "mean_iterations"):
                assert getattr(a, field) == getattr(b, field)

    def test_rmbn_draws_from_the_third_child_stream(self):
        # trial i's random matching uses the third child of
        # SeedSequence([seed, i]), after placement and channels
        params = topology.params_from_dict({"seed": 5})
        got = bench.run_trials(params, ["rmbn"], 12)["rmbn"]
        util, packets, matched = [], [], 0
        for i in range(12):
            real = topology.make_realization(
                params, np.random.SeedSequence([params.seed, i]))
            market = dda.market(params, real)
            stream = np.random.SeedSequence([params.seed, i]).spawn(3)[2]
            outcome, trace = baselines.rmbn(market, np.random.default_rng(stream))
            pairs = outcome.matched_pairs()
            util.append(sum(market.rates.pu_coef[l, q] * beta + market.rates.c_cost * xi
                            for l, q, xi, beta in outcome.matched_terms()))
            packets.append(trace.packets)
            matched += len(pairs)
        assert got.packets.tolist() == packets
        assert got.mean_sum_utility_pu == float(np.mean(util))
        assert got.match_pct == 100.0 * matched / (12 * params.l_pu)

    @pytest.mark.parametrize("shape, seeds, algos", [
        ((2, 6), 12, ("dda-complete", "centralized", "rmbn")),
        ((100, 200), 1, ("dda-complete", "rmbn"))])
    def test_sums_equal_a_plain_pair_loop(self, shape, seeds, algos):
        # a one-trial mean is the trial's sum itself, scored on the
        # complete-knowledge market's slopes
        for seed in range(seeds):
            params = topology.params_from_dict(
                {"l_pu": shape[0], "l_su": shape[1], "seed": seed})
            got = bench.run_trials(params, algos, 1)
            ss = np.random.SeedSequence([seed, 0])
            market = dda.market(params, topology.make_realization(params, ss))
            outcomes = {"dda-complete": dda.negotiate(market)[0],
                        "rmbn": baselines.rmbn(
                            market, np.random.default_rng(ss.spawn(1)[0]))[0]}
            if "centralized" in algos:
                outcomes["centralized"] = baselines.centralized_pu_optimal(market)
            for algo, outcome in outcomes.items():
                assert mean_sums(got[algo]) == plain_sums(outcome, market.rates)

    def test_partial_tags_score_on_complete_knowledge_slopes(self):
        # dda-partial and rmbn negotiate on the partial rates, the
        # centralized optimum solves on the complete ones, and all three
        # are scored on the complete ones
        scored_apart = 0
        for seed in range(12):
            params = topology.params_from_dict({"snr_knowledge": "partial", "seed": seed})
            got = bench.run_trials(params, ["dda-partial", "rmbn", "centralized"], 1)
            ss = np.random.SeedSequence([seed, 0])
            real = topology.make_realization(params, ss)
            partial = dda.market(params, real)
            complete = dda.market(replace(params, snr_knowledge="complete"), real)
            outcomes = {"dda-partial": dda.negotiate(partial)[0],
                        "rmbn": baselines.rmbn(
                            partial, np.random.default_rng(ss.spawn(1)[0]))[0],
                        "centralized": baselines.centralized_pu_optimal(complete)}
            for algo, outcome in outcomes.items():
                assert mean_sums(got[algo]) == plain_sums(outcome, complete.rates)
            scored_apart += (plain_sums(outcomes["dda-partial"], partial.rates)
                             != plain_sums(outcomes["dda-partial"], complete.rates))
        assert scored_apart

    def test_matched_pairs_are_int_tuples_in_row_major_order(self):
        outcome = dda.MatchingOutcome(
            3, 4, [(2, 0, 0.5, 0.5), (0, 3, 0.5, 0.5), (1, 1, 0.5, 0.5)])
        pairs = outcome.matched_pairs()
        assert pairs == [(0, 3), (1, 1), (2, 0)]
        assert all(type(l) is int and type(q) is int for l, q in pairs)

    def test_centralized_exchanges_no_packets(self, small_params):
        aggs = bench.run_trials(small_params, ["centralized", "centralized-su"], 6)
        for algo in ("centralized", "centralized-su"):
            assert aggs[algo].mean_packets == 0.0
            assert aggs[algo].mean_iterations == 0.0

    def test_iterations_count_offers(self, small_params):
        # one offer and one response per iteration
        aggs = bench.run_trials(small_params, ["dda-complete", "rmbn"], 12)
        for agg in aggs.values():
            assert agg.mean_iterations > 0.0
            assert agg.mean_iterations == agg.mean_packets / 2

    def test_centralized_mean_dominates_negotiation(self, small_params):
        # continuous optimum >= best grid assignment >= negotiation, in the mean
        aggs = bench.run_trials(small_params, ["dda-complete", "centralized"], 60)
        on_grid = []
        for i in range(60):
            real = topology.make_realization(
                small_params, np.random.SeedSequence([small_params.seed, i]))
            on_grid.append(discrete_assignment_optimum(dda.market(small_params, real)))
        assert aggs["centralized"].mean_sum_utility_pu >= np.mean(on_grid) - 1e-12
        assert np.mean(on_grid) >= aggs["dda-complete"].mean_sum_utility_pu - 1e-12

    def test_match_pct_counts_against_capacity(self, small_params):
        # 3 licensed users but only 2 relays: a full book is 2 matches
        lopsided = replace(small_params, l_pu=3)
        aggs = bench.run_trials(lopsided, ["dda-complete", "rmbn"], 30)
        for agg in aggs.values():
            assert 0.0 <= agg.match_pct <= 100.0

    def test_repeated_tag_rejected(self, small_params):
        with pytest.raises(ValueError, match="'rmbn'"):
            bench.run_trials(small_params, ["rmbn", "dda-complete", "rmbn"], 2)
        with pytest.raises(ValueError, match="'centralized'"):
            bench.sweep(small_params, "epsilon", [0.2], ["centralized"] * 2, 2)

    def test_rmbn_alone_negotiates_under_partial_knowledge(self, small_params):
        # rmbn follows the scenario's knowledge mode, so the partial-knowledge
        # estimates must be drawn for it even without dda-partial
        partial = replace(small_params, snr_knowledge="partial")
        want = bench.run_trials(partial, ["dda-partial", "rmbn"], 6)["rmbn"]
        for algos in (["rmbn"], ["dda-complete", "rmbn"]):
            got = bench.run_trials(partial, algos, 6)["rmbn"]
            for field in fields(want):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))

    # each market asks concession_grids once; its cache hands both markets
    # of a trial the one Grids
    @pytest.mark.parametrize("algos, builds", [
        (("dda-complete", "centralized", "centralized-su", "rmbn"),
         {"complete": 1, "grids": 1}),
        (bench.ALGO_TAGS, {"complete": 1, "partial": 1, "grids": 2}),
    ])
    def test_one_market_per_trial(self, small_params, monkeypatch, algos, builds):
        counts = Counter()
        make_rates, make_grids = radio.make_pair_rates, dda.concession_grids

        def counted_rates(params, realization):
            counts[params.snr_knowledge] += 1
            return make_rates(params, realization)

        def counted_grids(params):
            counts["grids"] += 1
            return make_grids(params)

        for module in (radio, dda, baselines, verify, bench):
            for name, fn in (("make_pair_rates", counted_rates),
                             ("concession_grids", counted_grids)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fn)
        bench.run_trials(small_params, algos, 3)
        assert counts == {kind: 3 * n for kind, n in builds.items()}

    def test_a_large_trial_keeps_only_the_snrs_of_its_draw(self):
        """The tracemalloc peak of one 100x200 trial of dda-complete and
        rmbn stays under 1.2 MB. When the realization kept every squared
        gain and distance beside its SNRs, it peaked near 1.95 MB."""
        params = topology.params_from_dict({"l_pu": 100, "l_su": 200})
        bench.run_trials(replace(params, seed=1), ("dda-complete", "rmbn"), 1)
        tracemalloc.start()
        try:
            aggs = bench.run_trials(params, ("dda-complete", "rmbn"), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert aggs["dda-complete"].match_pct > 0.0
        assert peak < 1.2e6, peak

    def test_partial_knowledge_tag_runs(self, small_params):
        agg = bench.run_trials(small_params, ["dda-partial"], 5)["dda-partial"]
        assert np.isfinite(agg.mean_sum_utility_pu)
        assert agg.n_trials == 5

    def test_standard_error_shrinks_with_quadrupled_trials(self, small_params):
        se_small = bench.run_trials(
            small_params, ["dda-complete"], 60)["dda-complete"].se_sum_utility_pu
        se_big = bench.run_trials(
            small_params, ["dda-complete"], 240)["dda-complete"].se_sum_utility_pu
        # 1/sqrt(n) scaling predicts 0.5; the band absorbs estimator noise
        assert 0.3 < se_big / se_small < 0.75


def recorded_rows(monkeypatch):
    """Spy on the per-trial figures run_trials aggregates. Returns a list
    that fills with one (utility, licensed rate, relay rate, matched
    count, packets, iterations) row per scored outcome, in run_trials'
    order: trial by trial, tag by tag. Packets and iterations are those of
    the negotiation run since the outcome scored before, 0 when none ran."""
    rows, traces = [], []
    realized_sums, negotiate, rmbn = bench._realized_sums, dda.negotiate, baselines.rmbn

    def spy_sums(outcome, rates):
        sums = realized_sums(outcome, rates)
        packets, iterations = traces.pop() if traces else (0, 0)
        rows.append((*sums, packets, iterations))
        return sums

    def spy_negotiation(run):
        def spy(*args, **kwargs):
            outcome, trace = run(*args, **kwargs)
            traces.append((trace.packets, trace.offers))
            return outcome, trace
        return spy

    monkeypatch.setattr(bench, "_realized_sums", spy_sums)
    monkeypatch.setattr(dda, "negotiate", spy_negotiation(negotiate))
    monkeypatch.setattr(baselines, "rmbn", spy_negotiation(rmbn))
    return rows


class TestAggregation:
    """run_trials takes every mean in one add.reduce over [algo, column,
    trial]; restated here column by column with np.mean, _se and p90."""

    @pytest.mark.parametrize("knowledge", ["complete", "partial"])
    @pytest.mark.parametrize("n_trials", [1, 2, 7, 8, 9, 128, 129, 300])
    def test_equals_the_per_column_form(self, small_params, monkeypatch, knowledge,
                                        n_trials):
        params = replace(small_params, snr_knowledge=knowledge)
        rows = recorded_rows(monkeypatch)
        got = bench.run_trials(params, bench.ALGO_TAGS, n_trials)
        assert len(rows) == n_trials * len(bench.ALGO_TAGS)
        capacity = min(params.l_pu, params.l_su)
        for a, algo in enumerate(bench.ALGO_TAGS):
            util, rpu, rsu, counts, pkts, iterations = zip(*rows[a::len(bench.ALGO_TAGS)])
            pkts = np.array(pkts, dtype=float)
            want = {
                "mean_sum_utility_pu": float(np.mean(util)),
                "se_sum_utility_pu": bench._se(util),
                "mean_sum_rate_pu": float(np.mean(rpu)),
                "se_sum_rate_pu": bench._se(rpu),
                "mean_sum_rate_su": float(np.mean(rsu)),
                "se_sum_rate_su": bench._se(rsu),
                "match_pct": 100.0 * sum(counts) / (n_trials * capacity),
                "mean_packets": float(np.mean(pkts)),
                "p90_packets": p90(pkts),
                "mean_iterations": float(np.mean(iterations)),
            }
            agg = got[algo]
            assert (agg.algo, agg.n_trials) == (algo, n_trials)
            assert {name: getattr(agg, name).hex() for name in want} == {
                name: value.hex() for name, value in want.items()}
            assert agg.packets.tolist() == pkts.tolist()

    def test_no_numpy_python_wrappers_on_the_trial_path(self, monkeypatch):
        # these are Python functions with a fixed cost per call; the trial
        # path uses the ufunc and ndarray method forms instead
        names = ("mean", "all", "any", "min", "nonzero", "flatnonzero", "stack",
                 "column_stack", "sort")
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if sys._getframe(1).f_globals.get("__name__", "").startswith("relaymarket"):
                    calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        aggs = bench.run_trials(topology.ScenarioParams(), bench.ALGO_TAGS, 1)
        assert calls == Counter()
        # the count sees the package's calls: packet_cdf takes np.mean
        aggs["rmbn"].packet_cdf(10)
        assert calls == Counter({"mean": 1})

    @staticmethod
    def _refuse_replay(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built where only terms and counts are read")

        monkeypatch.setattr(dda, "_replay_events", refuse)

    @pytest.mark.parametrize("knowledge", ["complete", "partial"])
    @pytest.mark.parametrize("shape", [(2, 6), (25, 50)])
    def test_no_dense_outcome_or_event_replay_on_the_trial_path(self, monkeypatch,
                                                                shape, knowledge):
        # run_trials reads outcomes through their terms and traces through
        # their counts; an outcome has no dense form, and replaying the
        # events is waste
        self._refuse_replay(monkeypatch)
        params = topology.params_from_dict(
            {"l_pu": shape[0], "l_su": shape[1], "snr_knowledge": knowledge})
        bench.run_trials(params, bench.ALGO_TAGS, 2)
        # the patch sees the package's reads
        outcome, trace = dda.negotiate(dda.market(params, topology.make_realization(params, 0)))
        assert not any(hasattr(outcome, name) for name in ("m", "g", "b", "_dense"))
        with pytest.raises(AssertionError, match="only terms and counts"):
            trace.events

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("command", ["verify", "oracle"])
    def test_no_dense_outcome_or_event_replay_on_the_audit_path(self, monkeypatch, capsys,
                                                                command, seed):
        # the audits read outcomes through their terms too, and print the
        # same lines and exit with the same code as without the guard
        argv = [command, "--seed", str(seed), "--trials", "20"]
        code = cli.main(argv)
        printed = capsys.readouterr().out
        self._refuse_replay(monkeypatch)
        assert cli.main(argv) == code
        assert capsys.readouterr().out == printed


class TestSweep:
    def test_single_value_sweep_matches_run_trials(self, small_params):
        rows = bench.sweep(small_params, "gamma_su_db", [25.0],
                           ["dda-complete"], 12)
        direct = bench.run_trials(replace(small_params, gamma_su_db=25.0),
                                  ["dda-complete"], 12)["dda-complete"]
        assert len(rows) == 1
        assert rows[0].axis_value == 25.0
        assert rows[0].agg.mean_sum_utility_pu == direct.mean_sum_utility_pu
        assert rows[0].agg.p90_packets == direct.p90_packets

    def test_epsilon_sweep_ties_delta_by_default(self, small_params):
        tied = bench.sweep(small_params, "epsilon", [0.2], ["dda-complete"], 10)
        manual = bench.run_trials(replace(small_params, epsilon=0.2, delta=0.2),
                                  ["dda-complete"], 10)["dda-complete"]
        assert tied[0].agg.mean_packets == manual.mean_packets

    def test_rows_carry_axis_and_scenario_labels(self, small_params):
        rows = bench.sweep(small_params, "l_su", [2, 3], ["dda-complete", "rmbn"], 4)
        assert [r.axis_value for r in rows] == [2.0, 2.0, 3.0, 3.0]
        assert rows[0].scenario_id == "lpu2-lsu2-seed7"
        assert rows[2].scenario_id == "lpu2-lsu3-seed7"
        assert {r.algo for r in rows} == {"dda-complete", "rmbn"}

    def test_bad_axis_and_bad_values_raise(self, small_params):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            bench.sweep(small_params, "alpha", [2.0], ["dda-complete"], 2)
        with pytest.raises(ValueError, match="not an integer"):
            bench.sweep(small_params, "l_su", [2.5], ["dda-complete"], 2)
        with pytest.raises(ValueError, match="at least one"):
            bench.sweep(small_params, "epsilon", [], ["dda-complete"], 2)


class TestCsvSurface:
    def test_round_trip_and_stable_bytes(self, small_params, tmp_path):
        rows = bench.sweep(small_params, "c_bar", [1.0, 5.0],
                           ["dda-complete", "centralized"], 8)
        first = tmp_path / "sweep.csv"
        bench.emit_csv(rows, str(first))

        raw = first.read_bytes()
        assert b"\r" not in raw
        header = raw.decode().splitlines()[0].split(",")
        assert tuple(header) == CSV_COLUMNS
        assert len(header) == 13

        with open(first, newline="") as fp:
            parsed = list(csv.DictReader(fp))
        assert len(parsed) == len(rows)
        for rec, row in zip(parsed, rows):
            assert rec["algo"] == row.algo
            assert int(rec["n_trials"]) == 8
            # values survive the %.9g formatting round trip
            assert float(rec["mean_sum_utility_pu"]) == pytest.approx(
                row.agg.mean_sum_utility_pu, rel=1e-8)
            assert float(rec["p90_packets"]) == pytest.approx(
                row.agg.p90_packets, rel=1e-8)

        second = tmp_path / "again.csv"
        bench.emit_csv(rows, str(second))
        assert second.read_bytes() == raw

    def test_stdout_emission(self, small_params, capsys):
        rows = bench.sweep(small_params, "epsilon", [0.4], ["dda-complete"], 3)
        bench.emit_csv(rows, "-")
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("scenario_id,algo,")
        assert len(lines) == 2
