"""Command line surface: exit codes, file outputs, and check summaries."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relaymarket import cli, dda, topology, verify
from relaymarket.bench import CSV_COLUMNS


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse refusing the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_writes_csv_and_trace(self, tmp_path, capsys):
        out = tmp_path / "agg.csv"
        trace = tmp_path / "events.jsonl"
        code, _, _ = run_cli(
            ["run", "--seed", "3", "--trials", "4",
             "--algo", "dda-complete,rmbn",
             "--out", str(out), "--trace", str(trace)], capsys)
        assert code == 0

        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3            # header + one row per algorithm

        events = [json.loads(row) for row in trace.read_text().splitlines()]
        assert events
        assert set(events[0]) == {"kind", "pu", "su", "xi", "beta", "iteration"}

    @pytest.mark.parametrize("scenario", ["complete", "partial"])
    def test_trace_follows_the_first_dda_tag(self, scenario, tmp_path, capsys):
        """The trace is trial 0 as the CSV's first dda-* tag negotiated it,
        under that tag's knowledge mode, whatever the scenario's."""
        config, path = tmp_path / "scenario.json", tmp_path / "events.jsonl"
        config.write_text(json.dumps({"snr_knowledge": scenario}))
        traces = []
        for algos, mode in (("dda-partial", "partial"),
                            ("rmbn,dda-complete,dda-partial", "complete")):
            code, _, _ = run_cli(["run", "--config", str(config), "--seed", "3", "--trials", "1",
                                  "--algo", algos, "--out", str(tmp_path / "agg.csv"),
                                  "--trace", str(path)], capsys)
            assert code == 0
            params = topology.ScenarioParams(seed=3, snr_knowledge=mode)
            realization = topology.make_realization(params, np.random.SeedSequence([3, 0]))
            _, trace = dda.negotiate(dda.market(params, realization))
            want = io.StringIO()
            trace.to_jsonl(want)
            assert path.read_text() == want.getvalue(), algos
            traces.append(want.getvalue())
        assert traces[0] != traces[1]

    def test_trace_without_a_dda_tag_exits_one(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        code, out, err = run_cli(["run", "--seed", "3", "--trials", "1",
                                  "--algo", "centralized", "--trace", str(trace)], capsys)
        assert code == 1
        assert "dda-complete" in err and "dda-partial" in err
        assert out == "" and not trace.exists()

    def test_stdout_default(self, capsys):
        code, out, _ = run_cli(["run", "--seed", "1", "--trials", "2"], capsys)
        assert code == 0
        assert out.startswith("scenario_id,algo,")

    def test_unknown_algo_exits_one(self, capsys):
        code, _, err = run_cli(
            ["run", "--seed", "1", "--trials", "2", "--algo", "greedy"], capsys)
        assert code == 1
        assert "error:" in err

    def test_repeated_algo_exits_one(self, capsys):
        code, out, err = run_cli(
            ["run", "--seed", "1", "--trials", "2", "--algo", "rmbn,rmbn"], capsys)
        assert code == 1
        assert "'rmbn'" in err and out == ""

    def test_zero_trials_exits_one(self, capsys):
        code, _, err = run_cli(["run", "--seed", "1", "--trials", "0"], capsys)
        assert code == 1
        assert "at least 1" in err

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--axis", "epsilon", "--values", "0.4"]])
    def test_empty_algo_list_exits_one(self, command, capsys):
        code, out, err = run_cli([*command, "--seed", "1", "--trials", "2", "--algo", ""],
                                 capsys)
        assert code == 1
        assert "no algorithm tag" in err and out == ""


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--axis", "epsilon", "--values", "0.4"], ["verify"], ["oracle"]])
def test_trial_count_below_one_exits_one(command, capsys):
    for trials in ("0", "-2"):
        code, out, err = run_cli([*command, "--seed", "1", "--trials", trials], capsys)
        assert code == 1
        assert "at least 1" in err and out == ""


class TestConfigHandling:
    def test_config_file_drives_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"l_pu": 3, "l_su": 4, "seed": 9}))
        code, out, _ = run_cli(
            ["run", "--config", str(cfg), "--trials", "2"], capsys)
        assert code == 0
        assert "lpu3-lsu4-seed9" in out

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"seed": 9}))
        code, out, _ = run_cli(
            ["run", "--config", str(cfg), "--seed", "12", "--trials", "2"], capsys)
        assert code == 0
        assert "seed12" in out

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        # a typo, and each option an older config may still carry
        cfg = tmp_path / "scenario.json"
        for key, value in [("l_puu", 2), ("pu_req_mode", "explicit"),
                           ("partial_expectation_samples", 256),
                           ("su_channel_per_band", True)]:
            cfg.write_text(json.dumps({key: value, "r_pu_req": [0.3, 0.5]}))
            code, _, err = run_cli(["run", "--config", str(cfg), "--trials", "2"],
                                   capsys)
            assert code == 1
            assert f"unknown config keys: ['{key}']" in err

    def test_ill_typed_config_value_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"l_su": 2.5}))
        code, _, err = run_cli(["run", "--config", str(cfg), "--trials", "2"],
                               capsys)
        assert code == 1
        assert "l_su must be an integer" in err

    @pytest.mark.parametrize("floors", [[0.2, float("nan")], [0.2], ["a", "b"]])
    def test_bad_explicit_floors_exit_one(self, tmp_path, capsys, floors):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"r_pu_req": floors}))
        code, _, err = run_cli(["run", "--config", str(cfg), "--trials", "2"],
                               capsys)
        assert code == 1
        assert "r_pu_req" in err

    @pytest.mark.parametrize("algos, floors", [
        ("dda-complete", [0.0, 0.2]), ("dda-complete,rmbn", [0.0, 0.2]),
        ("centralized", [-1.0, 0.2])])
    def test_non_positive_explicit_floors_exit_one(self, tmp_path, capsys, algos, floors):
        # refused when parameters are built, whichever algorithm would run
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"r_pu_req": floors, "negotiation": "contracts"}))
        code, _, err = run_cli(["run", "--config", str(cfg), "--trials", "2",
                                "--algo", algos], capsys)
        assert code == 1
        assert "r_pu_req must list 2 finite positive numbers" in err

    @pytest.mark.parametrize("powers", [
        {"gamma_pu_db": 1600, "gamma_su_db": 1600},   # nan relayed SNRs crashed the ladder
        {"gamma_su_db": 3050},                        # inf relay rates reached the CSV
    ], ids=["relayed-nan", "relay-own-inf"])
    @pytest.mark.filterwarnings("error")   # the clean error alone, no numpy warning first
    def test_an_overflowing_draw_exits_one(self, tmp_path, capsys, powers):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(powers))
        code, out, err = run_cli(["run", "--config", str(cfg), "--seed", "0",
                                  "--trials", "3"], capsys)
        assert code == 1
        assert "error: non-finite channel realization rejected" in err and out == ""

    def test_explicit_floors_change_the_csv(self, tmp_path, capsys):
        # floors set in the config replace the direct-link rates
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"r_pu_req": [0.3, 0.5]}))
        argv = ["run", "--seed", "3", "--trials", "4"]
        _, direct, _ = run_cli(argv, capsys)
        code, explicit, _ = run_cli(argv + ["--config", str(cfg)], capsys)
        assert code == 0
        assert explicit != direct

    def test_non_object_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps([1, 2]))
        code, _, err = run_cli(["run", "--config", str(cfg), "--trials", "2"],
                               capsys)
        assert code == 1
        assert "JSON object" in err

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--values", "1,2"])   # --axis missing
        assert exc.value.code == 1


class TestSweepCommand:
    def test_axis_rows_on_stdout(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--seed", "2", "--trials", "2",
             "--axis", "epsilon", "--values", "0.4,0.8"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "epsilon"
        assert lines[2].split(",")[3] == "0.8"

    @pytest.mark.parametrize("value", ["inf", "1e400", "nan", "2.5"])
    def test_a_non_integer_relay_count_exits_one(self, value, capsys):
        code, out, err = run_cli(["sweep", "--trials", "2", "--axis", "l_su",
                                  "--values", value], capsys)
        assert code == 1
        assert f"error: l_su sweep value {float(value)!r} is not an integer" in err
        assert "Traceback" not in err and out == ""

    def test_a_market_too_large_to_place_exits_one(self, monkeypatch, capsys):
        # numpy's allocation error subclasses MemoryError; the stand-in for
        # placing a billion relays raises it without allocating
        def refuse(params, rng):
            raise MemoryError(f"Unable to allocate 14.9 GiB for an array with shape "
                              f"({params.l_su}, 2) and data type float64")

        monkeypatch.setattr(topology, "place_users", refuse)
        code, out, err = run_cli(["sweep", "--trials", "1", "--axis", "l_su",
                                  "--values", "1e9"], capsys)
        assert code == 1
        assert "error: Unable to allocate 14.9 GiB" in err
        assert "Traceback" not in err and out == ""


class TestVerifyCommand:
    def test_clean_run_summarizes_ok(self, capsys):
        code, out, _ = run_cli(["verify", "--seed", "5", "--trials", "20"], capsys)
        assert code == 0
        assert "stability: 20/20 ok" in out
        assert "concession bound: 20/20 ok" in out
        assert "packet bound: 20/20 ok" in out

    @pytest.mark.parametrize("slack, ok", [(0, "5/5"), (-1, "0/5")])
    def test_a_bound_is_a_ceiling(self, monkeypatch, capsys, slack, ok):
        # a run that uses its whole budget is within it; one more is over
        run, traces = dda.run, []

        def run_and_keep(*args):
            outcome, trace = run(*args)
            traces.append(trace)
            return outcome, trace

        monkeypatch.setattr(dda, "run", run_and_keep)
        monkeypatch.setattr(verify, "per_pu_puu_bounds",
                            lambda *args: traces[-1].puu_counts + slack)
        monkeypatch.setattr(verify, "packet_bound",
                            lambda *args: float(traces[-1].packets + slack))
        _, out, _ = run_cli(["verify", "--seed", "5", "--trials", "5"], capsys)
        assert f"concession bound: {ok} ok" in out
        assert f"packet bound: {ok} ok" in out

    def test_af_formula_flag_accepted(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--seed", "5", "--trials", "10",
             "--af-formula", "standard"], capsys)
        assert code == 0
        assert "stability: 10/10 ok" in out


def run_in_fresh_interpreter(argv):
    """Exit code of cli.main(argv) in a new interpreter, and whether scipy
    was imported there."""
    script = ("import sys\nfrom relaymarket import cli\n"
              f"code = cli.main({argv!r})\nprint(code, 'scipy' in sys.modules)\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    code, scipy_loaded = done.stdout.split()
    return int(code), scipy_loaded == "True"


def test_baselines_run_without_scipy():
    # numpy is the only runtime dependency; importing scipy.optimize would
    # add about 50 MB of resident memory to every run
    assert run_in_fresh_interpreter(
        ["run", "--algo", "centralized,centralized-su,rmbn",
         "--trials", "2", "--out", os.devnull]) == (0, False)


def test_centralized_baselines_run_past_eight_by_eight(tmp_path):
    # the exact assignment takes any market size
    cfg = tmp_path / "nine.json"
    cfg.write_text(json.dumps({"l_pu": 9, "l_su": 9}))
    out = tmp_path / "agg.csv"
    assert run_in_fresh_interpreter(
        ["run", "--config", str(cfg), "--algo", "centralized,centralized-su",
         "--trials", "2", "--out", str(out)]) == (0, False)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["centralized", "centralized-su"]
    assert all(row[0] == "lpu9-lsu9-seed0" for row in rows)


class TestOracleCommand:
    def test_clean_instances_exit_zero(self, capsys):
        code, out, _ = run_cli(["oracle", "--seed", "4", "--trials", "3"], capsys)
        assert code == 0
        assert "engine stability: 3/3 ok" in out
        assert "stable-matching dominance: ok" in out
        assert "weak pareto: 3/3 ok" in out

    def test_ladder_divergence_reported_and_exits_two(self, capsys):
        # the shared concession ladder leaves a better stable partner on the
        # table for some instances; the oracle reports rather than hides it
        code, out, _ = run_cli(["oracle", "--seed", "0", "--trials", "3"], capsys)
        assert code == 2
        assert "does better" in out

    @pytest.mark.parametrize("gap, ok", [(1e-9, True), (3e-9, False)])
    def test_dominance_needs_a_gain_past_the_tolerance(self, monkeypatch, capsys, gap, ok):
        # every licensed user holds 1.0 under the engine's outcome (the one
        # with concession steps) and 1.0 + gap in each enumerated one; only
        # a gain past the 1e-9 tolerance is a violation
        monkeypatch.setattr(verify, "pu_utilities", lambda outcome, rates: np.full(
            outcome.shape[0], 1.0 if outcome.final_xi_steps is not None else 1.0 + gap))
        _, out, _ = run_cli(["oracle", "--seed", "4", "--trials", "3"], capsys)
        assert ("stable-matching dominance: ok" in out) is ok

    def test_enumeration_guard_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"l_su": 4}))
        code, _, err = run_cli(
            ["oracle", "--config", str(cfg), "--trials", "1"], capsys)
        assert code == 3
        assert "guard violation" in err
